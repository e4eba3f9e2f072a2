"""cuspeps benchmark: seeded workloads, checked outputs, per-layer tracing.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program under test is imported
from its ``src`` tree.  Each workload is a closed loop with one client and
one child at a time.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs whole rounds until at least ``--seconds`` have passed
(and at least two rounds) and reports the end-to-end metrics.  Its times are
normalized CPU seconds: the CPU seconds a request takes, scaled by how fast
this machine ran a fixed reference computation just before and just after it
(see ``reference_cpu``).  On a shared virtual machine the wall time of the
same work follows the time the host steals, and even its CPU time changes by
a third within minutes, often in steps, with the load of other guests; the
reference changes with it.  The raw CPU and wall times go into the
summary line and the run record.

``--trace 1`` runs one round untraced and one round with the tracer wrapped
around every layer, and reports the per-layer metrics of the traced round; it
does a fixed amount of work so that its call counts repeat exactly for a given
seed.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import checks
import tracer
from child import PEAK_PREFIX
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(BENCH, "child.py")

# The reference: a harmonic sum in Fraction, pure-Python rational arithmetic
# like the program's own, run in this process with the cyclic collector off,
# so nothing the program does changes its work.  REF_NOMINAL_S is its CPU
# time on the machine the benchmark was tuned on (2-vCPU Xeon VM, Python
# 3.11.7), where it ranged from 16.5 to 31 ms within five minutes: a
# normalized second is a CPU second on a machine that runs it in 25 ms.
REF_TERMS = 1500
REF_REPEATS = 4
REF_NOMINAL_S = 0.025
MIN_ROUNDS = 2
SETUP_PROBES_PER_ROUND = 4
TAIL_BEYOND = 10
REQUEST_TIMEOUT_S = 60  # per CLI child and per session; the longest takes about 10 s traced

PER_LAYER = (
    # (metric, unit, better)
    ("cyclo.self_s", "s", "lower"),
    *((f"cyclo.{op}.{m}", u, "lower") for op in ("mul", "add", "new", "conjugate", "eq", "embed")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("ffield.add.calls", "count", "lower"),
    ("ffield.mul.calls", "count", "lower"),
    ("ffield.char_eval.calls", "count", "lower"),
    ("ffield.char_eval.self_s", "s", "lower"),
    ("ffield.build_field.self_s", "s", "lower"),
    ("glq.self_s", "s", "lower"),
    *((f"glq.{op}.{m}", u, "lower") for op in ("mat_mul", "mat_inv", "class_key")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("glq.class_key.repeat_ratio", "ratio", "higher"),
    ("glq.enumerate.self_s", "s", "lower"),
    ("glq.coset_reps.self_s", "s", "lower"),
    ("glq.class_map.self_s", "s", "lower"),
    ("cusp.self_s", "s", "lower"),
    *((f"cusp.{op}.{m}", u, "lower") for op in ("char_value", "induced_psi")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("bessel.self_s", "s", "lower"),
    ("bessel.J.calls", "count", "lower"),
    ("bessel.J.self_s", "s", "lower"),
    ("bessel.J.repeat_ratio", "ratio", "higher"),
    ("bessel.hankel.calls", "count", "lower"),
    ("bessel.operator_L.self_s", "s", "lower"),
    ("epsilon.self_s", "s", "lower"),
    ("epsilon.gauss_pair_sum.self_s", "s", "lower"),
    ("epsilon.pair_sum_vanishing.self_s", "s", "lower"),
    ("epsilon.oracle.self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def child_env() -> dict:
    """Fixed child environment: no disk cache, fixed hash seed, src first."""
    env = dict(os.environ)
    env.pop("CUSPEPS_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def children_cpu() -> float:
    """CPU seconds of all children waited for so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# -- children -------------------------------------------------------------


class Runner:
    """Starts every child with the fixed environment; stderr goes to one log.

    ``peak_kb`` is the highest resident set a request child reported."""

    def __init__(self, log_path: str):
        self.env = child_env()
        self.log = open(log_path, "wb")
        self.peak_kb = 0

    def close(self):
        self.log.close()

    def run(self, cmd: list[str]):
        """(wall seconds, CPU seconds, exit code, stdout, stderr) of one child
        run to completion."""
        cpu0 = children_cpu()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=REQUEST_TIMEOUT_S
            )
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            rc, out, err = "timeout", b"", exc.stderr or b""
        dt = time.perf_counter() - t0
        cpu = children_cpu() - cpu0
        self.log.write(err)
        self.log.flush()
        return dt, cpu, rc, out, err

    def cli(self, argv: list[str], trace_path: str | None = None):
        """(wall seconds, CPU seconds, exit code, stdout) of one ``cuspeps``
        request in a fresh process."""
        dt, cpu, rc, out, err = self.run([sys.executable, CHILD, "cli", trace_path or "-", "--", *argv])
        last = err.decode("utf-8", "replace").rstrip("\n").rpartition("\n")[2]
        if last.startswith(PEAK_PREFIX):
            self.peak_kb = max(self.peak_kb, int(last[len(PEAK_PREFIX):]))
        return dt, cpu, rc, out


class Session:
    """One long-lived ``cli.main`` child; requests are answered in order."""

    def __init__(self, runner: Runner, trace_path: str | None):
        self.runner = runner
        cmd = [sys.executable, CHILD, "session", *([trace_path] if trace_path else [])]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=runner.log,
            env=runner.env, cwd=ROOT, text=True,
        )
        self.watchdog = threading.Timer(REQUEST_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        self.ready = self.proc.stdout.readline() == "ready\n"

    def request(self, argv: list[str]):
        t0 = time.perf_counter()
        line = ""
        if self.ready:
            try:
                self.proc.stdin.write(json.dumps(argv) + "\n")
                self.proc.stdin.flush()
                line = self.proc.stdout.readline()
            except BrokenPipeError:
                pass
        dt = time.perf_counter() - t0
        if not line:
            self.ready = False
            return dt, dt, "child died", b""  # its CPU time is lost with it
        doc = json.loads(line)
        return dt, doc["cpu_s"], doc["rc"], doc["out"].encode("utf-8")

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        line = self.proc.stdout.readline() if self.ready else ""
        if line:
            self.runner.peak_kb = max(self.runner.peak_kb, json.loads(line)["peak_rss_kb"])
        self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()


def run_round(runner: Runner, workload: str, reqs, trace_dir: str | None = None, between=None):
    """[(argv, wall seconds, CPU seconds, rc, stdout)] for one round, in order.

    ``between(i)`` is called after request i, outside its latency."""
    if workload == wl.VERIFY:
        session = Session(runner, os.path.join(trace_dir, "session.json") if trace_dir else None)
        request = session.request
    else:
        session = None

        def request(argv):
            return runner.cli(argv, os.path.join(trace_dir, f"{i}.json") if trace_dir else None)

    results = []
    try:
        for i, argv in enumerate(reqs):
            results.append((argv, *request(argv)))
            if between is not None:
                between(i)
    finally:
        if session is not None:
            session.close()
    return results


# -- set-up ---------------------------------------------------------------


class SetupProbe:
    """Fresh-process CPU time of import + gl_group + list_cuspidals.

    The probes are spread over the run, so their median is not the speed of
    one moment of a shared machine."""

    def __init__(self, runner: Runner, workload: str):
        self.runner = runner
        self.groups = wl.SETUP_GROUPS[workload]
        self.cmd = [sys.executable, CHILD, "setup", *(f"{q},{r}" for q, r in self.groups)]
        self.times: list[float] = []  # CPU seconds
        self.walls: list[float] = []
        self.probe()  # the first run also writes bytecode caches
        self.times.clear()
        self.walls.clear()

    def probe(self) -> float:
        """Run one probe; return its CPU time."""
        dt, cpu, rc, out, _err = self.runner.run(self.cmd)
        if rc != 0:
            raise SystemExit(f"set-up child failed with exit code {rc}; see {self.runner.log.name}")
        doc = json.loads(out)
        if not os.path.abspath(doc["file"]).startswith(SRC + os.sep):
            raise SystemExit(f"cuspeps was imported from {doc['file']}, not from {SRC}")
        for q, r in self.groups:
            if tuple(doc["orbits"][f"{q},{r}"]) != wl.ORBIT_REPS[(q, r)]:
                raise SystemExit(f"cuspidal orbits of GL_{r}(F_{q}) changed: {doc['orbits']}")
        self.times.append(cpu)
        self.walls.append(dt)
        return cpu


# -- metrics --------------------------------------------------------------


def tail_fraction(round_len: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it in a minimal run.

    Fixed per workload, so the percentile means the same thing however many
    rounds fit in the measured time; never below the median."""
    return max(0.5, 1.0 - TAIL_BEYOND / (MIN_ROUNDS * round_len))


def check_results(results, refs) -> list[str]:
    failures = []
    for argv, _wall, _cpu, rc, out in results:
        reason = checks.check(argv, rc, out, refs)
        if reason is not None:
            failures.append(f"{checks.request_key(argv)}: {reason}")
    return failures


def reference_cpu() -> float:
    """CPU seconds of one run of the reference computation."""
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(REF_REPEATS):
            total = Fraction(0)
            for k in range(1, REF_TERMS):
                total += Fraction(1, k)
        return time.process_time() - t0
    finally:
        gc.enable()


def quantile(values: list[float], frac: float, steps: int = 200) -> float:
    """Harrell-Davis estimate of the ``frac`` quantile.

    A weighted mean of all order statistics, the i-th weighted by the mass
    that Beta(frac (n+1), (1-frac) (n+1)) puts on ((i-1)/n, i/n), integrated
    here by the midpoint rule.  A round holds a few request kinds with gaps
    between their times, and a single order statistic (the sample median
    too) jumps across a gap when one request runs slow; this averages the
    samples near the quantile.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = frac * (n + 1), (1 - frac) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = estimate = 0.0
    for i, x in enumerate(xs):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += mass
        estimate += mass * x
    return estimate / total


def measure(runner: Runner, workload: str, seed: int, seconds: float, refs):
    setup = SetupProbe(runner, workload)
    round_len = len(wl.make_round(workload, seed))
    probe_every = max(1, round_len // SETUP_PROBES_PER_ROUND)
    for _ in range(3):
        reference_cpu()  # warm-up
    # Reference samples alternate with the measured items (requests and set-up
    # probes); an item is normalized by the two samples around it.
    ref_cpus = [reference_cpu()]
    request_refs: list[int] = []  # index of the sample before each request
    probe_refs: list[int] = []
    aside_wall = 0.0  # wall time of probes and references, outside the loop time

    def between(i):
        nonlocal aside_wall
        t = time.perf_counter()
        request_refs.append(len(ref_cpus) - 1)
        ref_cpus.append(reference_cpu())
        if i % probe_every == probe_every - 1:
            probe_refs.append(len(ref_cpus) - 1)
            setup.probe()
            ref_cpus.append(reference_cpu())
        aside_wall += time.perf_counter() - t

    def normalized(cpu: float, j: int) -> float:
        return cpu * REF_NOMINAL_S * 2 / (ref_cpus[j] + ref_cpus[j + 1])

    results = []
    rounds = 0
    cpu0 = children_cpu()
    t0 = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 - aside_wall < seconds:
        results += run_round(runner, workload, wl.make_round(workload, seed, rounds), between=between)
        rounds += 1
    wall = time.perf_counter() - t0 - aside_wall
    cpu = children_cpu() - cpu0 - sum(setup.times)
    failures = check_results(results, refs)
    walls = [r[1] for r in results]
    cpus = [r[2] for r in results]
    norms = [normalized(c, j) for c, j in zip(cpus, request_refs)]
    setup_norms = [normalized(c, j) for c, j in zip(setup.times, probe_refs)]
    frac = tail_fraction(round_len)
    metrics = {
        "requests_per_norm_s": (len(norms) / sum(norms), "1/s"),
        "request_norm_p50_s": (quantile(norms, 0.5), "s"),
        "request_norm_tail_s": (quantile(norms, frac), "s"),
        "peak_rss_mb": (runner.peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_norms), "s"),
    }
    ref = statistics.median(ref_cpus)
    ref_q = statistics.quantiles(ref_cpus, n=4)
    notes = {
        "rounds": rounds,
        "tail": f"p{100 * frac:.1f} of n={len(cpus)} ({len(cpus) * (1 - frac):.0f} beyond)",
        "ref_cpu_s": ref,
        "ref_spread": (ref_q[2] - ref_q[0]) / ref,
        "cpu_s": cpu,
        "requests_per_cpu_s": len(results) / cpu,
        "cpu_p50_s": quantile(cpus, 0.5),
        "cpu_tail_s": quantile(cpus, frac),
        "setup_cpu_s": statistics.median(setup.times),
        "wall_s": wall,
        "wall_requests_per_s": len(results) / wall,
        "wall_p50_s": quantile(walls, 0.5),
        "wall_tail_s": quantile(walls, frac),
        "setup_wall_s": statistics.median(setup.walls),
        "setup_probes": len(setup.times),
        "failed_ratio": len(failures) / len(results),
        "requests": [checks.request_key(r[0]) for r in results],
        "request_cpu_s": cpus,
        "request_wall_s": walls,
        "request_norm_s": norms,
        "setup_probe_cpu_s": setup.times,
        "ref_samples_cpu_s": ref_cpus,
    }
    return len(results), failures, metrics, notes


def _sum_traces(paths):
    """Summed (parent, name) edges, count-only totals, distinct arguments."""
    counts: dict[str, int] = {}
    distinct: dict[str, int] = {}
    missing: set[str] = set()
    edges: dict[tuple[str, str], list] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for req in doc["requests"]:
            for parent, name, calls, total, self_s in req["edges"]:
                edge = edges.setdefault((parent, name), [0, 0.0, 0.0])
                edge[0] += calls
                edge[1] += total
                edge[2] += self_s
            for name, n in req["counts"].items():
                counts[name] = counts.get(name, 0) + n
        for name, n in doc["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n
        missing.update(doc["missing"])
    return edges, counts, distinct, sorted(missing)


def trace(runner: Runner, workload: str, seed: int, refs):
    reqs = wl.make_round(workload, seed)
    trace_dir = os.path.join(OUT, f"trace-{workload}")
    os.makedirs(trace_dir, exist_ok=True)
    for name in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, name))
    cpu0 = children_cpu()
    plain = run_round(runner, workload, reqs)
    cpu1 = children_cpu()
    traced = run_round(runner, workload, reqs, trace_dir)
    plain_cpu, traced_cpu = cpu1 - cpu0, children_cpu() - cpu1
    failures = check_results(plain + traced, refs)

    paths = [os.path.join(trace_dir, n) for n in sorted(os.listdir(trace_dir))]
    edges, counts, distinct, missing = _sum_traces(paths)
    spans: dict[str, list] = {}  # name -> [calls, self seconds]
    for (_parent, name), (c, _total, s) in edges.items():
        slot = spans.setdefault(name, [0, 0.0])
        slot[0] += c
        slot[1] += s

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(prefix):
        return sum(s for n, (_c, s) in spans.items() if n == prefix or n.startswith(prefix + "."))

    values = {}
    for metric, _unit, _better in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "self_s":
            values[metric] = self_s(base)
        elif stat == "calls":
            values[metric] = counts[base] if base in counts else calls(base)
        elif stat == "repeat_ratio":
            n = calls(base)
            values[metric] = 1.0 - distinct.get(base, 0) / n if n else 0.0
    values["verify.checks"] = counts.get("verify.checks", 0)
    values["cli.stdout_bytes"] = sum(len(out) for *_, out in traced)
    values["trace.overhead_ratio"] = traced_cpu / plain_cpu
    metrics = {m: (values[m], unit) for m, unit, _better in PER_LAYER}
    notes = {
        "plain_cpu_s": plain_cpu,
        "traced_cpu_s": traced_cpu,
        "missing_targets": missing,
        "layer_self_s": {layer: self_s(layer) for layer in tracer.LAYERS},
        "edges": [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(edges.items())],
    }
    if missing:
        sys.stderr.write(f"warning: trace targets not found: {', '.join(missing)}\n")
    return 2 * len(reqs), failures, metrics, notes


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cuspeps", "__init__.py")):
        sys.stderr.write(f"error: no cuspeps source tree at {SRC}; run from a full checkout\n")
        return 2
    refs = checks.load_refs()
    env = machine()
    # One core for this process and every child: the reference then runs
    # where the requests ran, and the two vCPUs of a shared host can differ.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(os.path.join(OUT, f"{args.workload}.stderr.log"))
    try:
        if args.trace:
            attempted, failures, metrics, notes = trace(runner, args.workload, args.seed, refs)
        else:
            attempted, failures, metrics, notes = measure(
                runner, args.workload, args.seed, args.seconds, refs
            )
    finally:
        runner.close()

    for line in failures:
        sys.stderr.write(f"FAILED {line}\n")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": env,
              "attempted": attempted, "failures": failures, "notes": notes,
              "metrics": {k: v for k, (v, _u) in metrics.items()}}
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {k: v for k, v in notes.items() if not isinstance(v, (list, dict))}
    print(f"# machine: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"# {args.workload} seed={args.seed} attempted={attempted} failed={len(failures)} "
          + " ".join(f"{k}={v}" for k, v in summary.items()))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

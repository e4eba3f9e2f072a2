"""Child processes of the benchmark; run with the source tree on PYTHONPATH.

    child.py setup Q,R [Q,R ...]     import cuspeps, build each group and list
                                     its cuspidals; print the orbit exponents
    child.py cli TRACE|- -- ARGV...  one ``cuspeps`` request, traced unless "-"
    child.py session [TRACE]         a long-lived ``cli.main`` loop

A ``cli`` child ends its stderr with the line ``peak_rss_kb N``; a session
answers the end of its input with ``{"peak_rss_kb": N}``.  N is the child's
own high-water resident set (VmHWM): getrusage() would also count the memory
of the parent, which a child shares until it execs.

The session first prints ``ready`` once its imports are done.  It then reads
one JSON argv list per line on stdin and answers each with one JSON line
``{"rc": ..., "out": ..., "cpu_s": ...}`` on stdout, holding the request's own
stdout and the CPU seconds the session spent on it.
With TRACE given, the tracer wraps cuspeps before the first request and
writes its spans to TRACE when the child ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

PEAK_PREFIX = "peak_rss_kb "


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _setup(groups: list[str]) -> int:
    import cuspeps

    orbits = {}
    for text in groups:
        q, r = map(int, text.split(","))
        group = cuspeps.gl_group(q, r)
        orbits[text] = [s.exponent for s in cuspeps.list_cuspidals(group)]
    json.dump({"file": cuspeps.__file__, "orbits": orbits}, sys.stdout)
    return 0


def _tracer():
    import tracer

    t = tracer.Tracer()
    tracer.install(t)
    return t


def _cli(trace_path: str, argv: list[str]) -> int:
    t = _tracer() if trace_path != "-" else None
    from cuspeps import cli

    rc = cli.main(argv)
    sys.stdout.flush()
    if t is not None:
        t.end_request(0, argv)
        t.dump(trace_path)
    sys.stderr.write(f"{PEAK_PREFIX}{peak_rss_kb()}\n")
    return rc


def _session(trace_path: str | None) -> int:
    t = _tracer() if trace_path else None
    from cuspeps import cli

    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    for rid, line in enumerate(sys.stdin):
        argv = json.loads(line)
        buf = io.StringIO()
        cpu0 = time.process_time()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except Exception:  # reported as a failed request; the session goes on
                sys.stderr.write(f"request {argv} raised:\n{traceback.format_exc()}")
                rc = -1
        cpu_s = time.process_time() - cpu0
        if t is not None:
            t.end_request(rid, argv)
        proto.write(json.dumps({"rc": rc, "out": buf.getvalue(), "cpu_s": cpu_s}) + "\n")
        proto.flush()
    if t is not None:
        t.dump(trace_path)
    proto.write(json.dumps({"peak_rss_kb": peak_rss_kb()}) + "\n")
    return 0


def main(args: list[str]) -> int:
    role, rest = args[0], args[1:]
    if role == "setup":
        return _setup(rest)
    if role == "cli":
        return _cli(rest[0], rest[2:])
    if role == "session":
        return _session(rest[0] if rest else None)
    raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

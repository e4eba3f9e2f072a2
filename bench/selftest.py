"""Check that the output checks catch tampered outputs.

    python3 bench/selftest.py

Runs a few cheap requests of each subcommand, requires their real outputs to
pass, then corrupts each output in several ways and requires every
corruption to be reported.  Exits 1 if any corruption slips through.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads as wl

EPSILON = ["epsilon", "--q", "3", "--r", "2", "--theta1", "1", "--theta2", "5",
           "--t1", "1", "--t2", "1", "--oracle"]
CUSP_JSON = ["cuspidals", "--q", "2", "--r", "3", "--format", "json", "--a", "0"]
CUSP_CSV = ["cuspidals", "--q", "2", "--r", "3", "--format", "csv", "--a", "0"]
VERIFY = ["verify", "--suite", "cusp", "--q", "2", "--r", "2", "--seed", "11"]


def _json_edit(out: bytes, edit) -> bytes:
    doc = json.loads(out)
    edit(doc)
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def tamperings(argv, out: bytes):
    """(description, exit code, corrupted stdout) for one real output."""
    if argv[0] == "epsilon":
        return [
            ("oracle disagrees", 0, _json_edit(out, _set("oracle_agrees", False))),
            ("modulus off by 1e-6", 0, _json_edit(out, lambda d: d.__setitem__("modulus", d["modulus"] + 1e-6))),
            ("one byte changed", 0, out.replace(b'"qbase"', b'"qbasE"', 1)),
            ("exit code 1", 1, out),
        ]
    if argv[0] == "cuspidals" and "json" in argv:
        return [
            ("a cuspidal dropped", 0, _json_edit(out, lambda d: d.pop())),
            ("a class count changed", 0, _json_edit(out, lambda d: d[0]["values"][0].__setitem__("count", 2))),
            ("whitespace changed", 0, out.replace(b"\n", b"\r\n", 1)),
        ]
    if argv[0] == "cuspidals":
        lines = out.splitlines(keepends=True)
        return [
            ("last row dropped", 0, b"".join(lines[:-1])),
            ("a row repeated", 0, b"".join(lines + lines[-1:])),
        ]
    return [
        ("a check failed", 0, out.replace(b"[PASS]", b"[FAIL]", 1)),
        ("a check missing", 0, b"".join(out.splitlines(keepends=True)[1:])),
        ("exit code 1", 1, out),
    ]


def main() -> int:
    refs = checks.load_refs()
    os.makedirs(run.OUT, exist_ok=True)
    runner = run.Runner(os.path.join(run.OUT, "selftest.stderr.log"))
    try:
        results = run.run_round(runner, wl.EPSILON, [EPSILON, CUSP_JSON, CUSP_CSV])
        results += run.run_round(runner, wl.VERIFY, [VERIFY])
    finally:
        runner.close()
    missed = 0
    for argv, _wall, _cpu, rc, out in results:
        key = checks.request_key(argv)
        reason = checks.check(argv, rc, out, refs)
        if reason is not None:
            print(f"FAIL real output rejected: {key}: {reason}")
            missed += 1
            continue
        for what, bad_rc, bad_out in tamperings(argv, out):
            reason = checks.check(argv, bad_rc, bad_out, refs)
            print(f"{'ok  ' if reason else 'MISS'} {argv[0]} {what}: {reason}")
            missed += reason is None
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

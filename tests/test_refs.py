"""Byte-level guard on every benchmark request.

``bench/refs.json`` holds the SHA-256 of the stdout of every request that a
round of each benchmark workload can draw (``bench/workloads.space``).  Each
test replays one workload's whole request space in-process through
``cli.main`` and compares the digests.  Only ``bench/`` is read, never
written.
"""

import hashlib
import json
import pathlib
import types

import pytest

from cuspeps import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    """bench/workloads.py as a module, compiled without writing bytecode into bench/."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("bench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _workloads()
REFS = json.loads((BENCH / "refs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_request_space_matches_refs(workload, capsys):
    mismatched = []
    for argv in WORKLOADS.space(workload):
        key = " ".join(argv)
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        if code != 0 or hashlib.sha256(out.encode("utf-8")).hexdigest() != REFS[key]:
            mismatched.append((key, code))
    assert not mismatched

"""Outputs must not depend on CUSPEPS_CACHE_DIR: no table is read from disk."""

import json
import os
import subprocess
import sys

COMMANDS = (
    ("field", "--p", "2", "--k", "3"),
    ("verify", "--suite", "epsilon", "--q", "3", "--r", "1"),
)

# A valid but non-minimal primitive modulus for GF(8), and a wrong Phi_3.
POISON = {
    "field_p2_k3.json": {"p": 2, "k": 3, "modulus": [1, 0, 1, 1]},
    "cyclotomic_polynomials.json": {"3": [1, 1, 0, 1]},
}


def _run(argv, cache_dir=None):
    env = dict(os.environ)
    env.pop("CUSPEPS_CACHE_DIR", None)
    if cache_dir is not None:
        env["CUSPEPS_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "cuspeps.cli", *argv], env=env, capture_output=True
    )
    return proc.returncode, proc.stdout


def test_cache_dir_changes_no_output(tmp_path):
    for name, doc in POISON.items():
        (tmp_path / name).write_text(json.dumps(doc))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for argv in COMMANDS:
        assert _run(argv, tmp_path) == _run(argv), argv
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

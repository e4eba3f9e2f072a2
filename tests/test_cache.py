"""Outputs must depend neither on CUSPEPS_CACHE_DIR (no table is read from
disk) nor on what the process's memos already hold."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspeps import cli

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


# The suites that share the process's group, Bessel and numbering memos, on
# the two groups of the verify session at two seeds, and two other commands
# that fill the same group caches.
REQUESTS = tuple(
    ("verify", "--suite", suite, "--q", q, "--r", r, "--seed", seed)
    for suite in ("glq", "bessel", "realization", "vanishing", "epsilon")
    for q, r in (("3", "2"), ("2", "3"))
    for seed in ("1", "2")
) + (
    ("epsilon", "--q", "3", "--r", "2", "--theta1", "1", "--theta2", "2", "--oracle"),
    ("cuspidals", "--q", "2", "--r", "3"),
)


@functools.cache
def _fresh(argv):
    """Exit code and stdout of one request in a new process."""
    return _run(argv)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(REQUESTS), min_size=6, max_size=6))
def test_answers_do_not_depend_on_call_order(requests):
    """Each request of a sequence run through cli.main in this process, on
    whatever its memos hold from the requests before, prints the bytes that
    the same request prints in a new process."""
    for argv in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        assert (code, out.getvalue().encode()) == _fresh(argv), argv

"""Output checks for every benchmark request.

Each check takes the request argv, the exit code and the stdout bytes and
returns ``None`` when the output is right, or a one-line reason when it is
not.  Besides the semantic checks, stdout must match the SHA-256 digest that
``refs.json`` records for the same argv at the commit that defined the
benchmark (ROADMAP: CLI stdout bytes stay identical).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
_VERIFY_TOTAL = re.compile(r"^(\d+)/(\d+) checks passed$")


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def load_refs() -> dict[str, str]:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _opt(argv: list[str], name: str, default=None):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def necklace(q: int, r: int) -> int:
    """Number of cuspidals of GL_r(F_q): Frobenius orbits of length r on Z/(q^r - 1)."""
    total = sum(_mobius(d) * (q ** (r // d) - 1) for d in range(1, r + 1) if r % d == 0)
    return total // r


def gl_order(q: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= q**r - q**i
    return out


def cuspidal_dim(q: int, r: int) -> int:
    out = 1
    for i in range(1, r):
        out *= q**i - 1
    return out


def check_epsilon(argv, rc, out: bytes):
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if doc.get("oracle_agrees") is not True:
        return "oracle_agrees is not true"
    modulus = doc.get("modulus")
    if not isinstance(modulus, float) or abs(modulus - 1.0) > 1e-9:
        return f"modulus {modulus!r} is not within 1e-9 of 1"
    return None


def _cuspidal_rows(fmt: str, out: bytes):
    """(orbit, dim, class counts) per cuspidal, from either output format."""
    text = out.decode("utf-8")
    if fmt == "json":
        return [
            (tuple(row["orbit"]), row["dim"], [v["count"] for v in row["values"]])
            for row in json.loads(text)
        ]
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["orbit", "dim", "key", "count", "value", "re", "im"]:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    by_orbit: dict[str, list] = {}
    for row in reader:
        slot = by_orbit.setdefault(row["orbit"], [int(row["dim"]), []])
        slot[1].append(int(row["count"]))
    return [(orbit, dim, counts) for orbit, (dim, counts) in by_orbit.items()]


def check_cuspidals(argv, rc, out: bytes):
    if rc != 0:
        return f"exit code {rc}"
    q, r = int(_opt(argv, "--q")), int(_opt(argv, "--r"))
    try:
        rows = _cuspidal_rows(_opt(argv, "--format", "json"), out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc}"
    if len(rows) != necklace(q, r):
        return f"{len(rows)} cuspidals, necklace formula gives {necklace(q, r)}"
    if len({orbit for orbit, _, _ in rows}) != len(rows):
        return "repeated orbit"
    for orbit, dim, counts in rows:
        if dim != cuspidal_dim(q, r):
            return f"orbit {orbit}: dim {dim}, expected {cuspidal_dim(q, r)}"
        if sum(counts) != gl_order(q, r):
            return f"orbit {orbit}: class sizes sum to {sum(counts)}, not |G| = {gl_order(q, r)}"
    return None


def check_verify(argv, rc, out: bytes):
    if rc != 0:
        return f"exit code {rc}"
    lines = out.decode("utf-8").splitlines()
    match = _VERIFY_TOTAL.match(lines[-1]) if lines else None
    if match is None:
        return "no 'N/N checks passed' line"
    passed, total = int(match.group(1)), int(match.group(2))
    n_pass = sum(1 for line in lines if line.startswith("[PASS] "))
    if total < 1 or passed != total or n_pass != total or len(lines) != total + 1:
        return f"{passed}/{total} passed with {n_pass} PASS lines"
    return None


CHECKS = {"epsilon": check_epsilon, "cuspidals": check_cuspidals, "verify": check_verify}


def check(argv, rc, out: bytes, refs: dict[str, str]):
    """Semantic check of the subcommand, then the byte digest."""
    reason = CHECKS[argv[0]](argv, rc, out)
    if reason is not None:
        return reason
    expected = refs.get(request_key(argv))
    if expected is None:
        return "no reference digest for this request"
    if digest(out) != expected:
        return "stdout differs from the reference digest"
    return None

"""Command-line front end.

Subcommands: ``field``, ``cuspidals``, ``bessel``, ``epsilon``, ``transfer``,
``verify``.  Data goes to stdout (or --out), diagnostics to stderr.  Exit
codes: 0 success (and all selected verification suites passing), 1
verification failure, 2 usage error, 3 internal error (any other exception,
reported in one line on stderr).  Output is byte-stable for fixed
arguments: enumeration orders are fixed and JSON keys are sorted.

Output is streamed: a table is written one record (one cuspidal, one matrix
g) at a time, so memory holds one record rather than the whole document.
Arguments are checked before the first byte, so a usage error (exit 2)
writes nothing and creates no --out file; an internal error (exit 3) can
follow partial output, and with --out leave a partial file.  A reader that
closes stdout early (``| head``) is not an error: exit 0, nothing on stderr.

Each command function imports the modules it runs, so that a process
compiles only those: ``cuspidals``, for instance, never loads ``bessel``,
``epsilon`` or ``verify``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

# Largest character table ``cuspidals`` writes, counted as cuspidals x
# conjugacy keys x phi(q^r - 1), the most coefficient strings a value can
# print.  The bound is on time: streamed, the largest table under it,
# GL_1(F_125) at 922,560, takes 3.1 s of CPU and peaks at 27 MB as JSON;
# GL_2(F_16), at 2,319,360, takes 8.5 s and 40 MB (Xeon, Python 3.11).
MAX_TABLE_COEFFS = 10**6


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _emit(doc, fmt: str, out_path: str | None, csv_headers=(), csv_rows=None):
    """Stream ``doc`` to stdout or to ``out_path``.

    ``doc`` is one dict, or an iterable of records written as a JSON list
    one record at a time.  As CSV, ``csv_rows(record)`` gives the rows of
    each record under ``csv_headers``; dict and list cells are compact JSON.
    """
    records = [doc] if isinstance(doc, dict) else doc

    def write(fh):
        if fmt == "csv":
            import csv

            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(csv_headers)
            for record in records:
                for row in csv_rows(record):
                    writer.writerow([_csv_cell(cell) for cell in row])
        elif isinstance(doc, dict):
            fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        else:
            # The bytes of json.dumps(list(records), indent=1): dumps escapes
            # newlines inside strings, so each newline of an item is a line
            # break that the list indents by one more space.
            sep = "[\n "
            for record in records:
                fh.write(sep + json.dumps(record, sort_keys=True, indent=1).replace("\n", "\n "))
                sep = ",\n "
            fh.write("[]\n" if sep == "[\n " else "\n]\n")

    if out_path is None:
        write(sys.stdout)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                write(fh)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc


def _csv_cell(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def _parse_root(text: str):
    from .transfer import RootOfUnity

    try:
        return RootOfUnity.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad root of unity {text!r}; use j/m for zeta_m^j") from exc


def _group_psi(args):
    from .ffield import AdditiveChar
    from .glq import gl_group

    group = gl_group(args.q, args.r)
    psi = AdditiveChar(group.field, args.a)
    if not psi.nontrivial:
        raise ValueError("additive character shift must be nonzero")
    return group, psi


def _cuspidal(group, exponent: int):
    from .cusp import CuspidalRep

    try:
        return CuspidalRep(group, exponent)
    except ValueError:
        raise ValueError(f"exponent {exponent} is not regular for q={group.q}, r={group.r}") from None


def cmd_field(args):
    from .ffield import build_field

    F = build_field(args.p, args.k)
    doc = {"p": F.p, "k": F.k, "q": F.q, "modulus": list(F.modulus), "zech": list(F.zech)}
    _emit(doc, args.format, args.out, ["l", "zech"], lambda d: enumerate(d["zech"]))
    return 0


def cmd_cuspidals(args):
    from .cusp import list_cuspidals
    from .cyclo import cyclotomic_polynomial

    group, _ = _group_psi(args)
    cuspidals = list_cuspidals(group)
    class_map = group.class_map()
    phi = len(cyclotomic_polynomial(group.big_field.q - 1)) - 1
    size = len(cuspidals) * len(class_map) * phi
    if size > MAX_TABLE_COEFFS:
        raise ValueError(
            f"the character table of GL_{group.r}(F_{group.q}) holds up to {size} coefficient "
            f"strings ({len(cuspidals)} cuspidals x {len(class_map)} classes x {phi}), "
            f"over {MAX_TABLE_COEFFS}"
        )

    def record(sigma):
        values = []
        for key, (count, _rep) in class_map.items():
            val = sigma.char_value(key)
            values.append(
                {
                    "key": key.serialize(),
                    "count": count,
                    "value": val.to_dict(),
                    "complex": _complex_dict(val.embed()),
                }
            )
        return {"orbit": list(sigma.orbit), "dim": sigma.dim(), "values": values}

    def csv_rows(rec):
        orbit = "+".join(map(str, rec["orbit"]))
        for v in rec["values"]:
            z = v["complex"]
            yield orbit, rec["dim"], v["key"], v["count"], v["value"], z["re"], z["im"]

    headers = ["orbit", "dim", "key", "count", "value", "re", "im"]
    _emit(map(record, cuspidals), args.format, args.out, headers, csv_rows)
    return 0


def cmd_bessel(args):
    from .bessel import build_table
    from .glq import FULL, MIRABOLIC, UNIPOTENT

    group, psi = _group_psi(args)
    sigma = _cuspidal(group, args.theta)
    domain = {"full": FULL, "mirabolic": MIRABOLIC, "u": UNIPOTENT}[args.domain]
    table = build_table(sigma, psi, domain)  # exit 2 over the element bound, before any output
    records = (
        {"g": g.serialize(), "value": val.to_dict(), "complex": _complex_dict(val.embed())}
        for g, val in table.items()
    )

    def csv_rows(rec):
        yield rec["g"], rec["value"], rec["complex"]["re"], rec["complex"]["im"]

    _emit(records, args.format, args.out, ["g", "value", "re", "im"], csv_rows)
    return 0


def cmd_epsilon(args):
    from .epsilon import LevelZeroRep, epsilon_pair, l_factor_pair, zeta_tilde_oracle

    group, psi = _group_psi(args)
    tau1 = LevelZeroRep(_cuspidal(group, args.theta1), _parse_root(args.t1))
    tau2 = LevelZeroRep(_cuspidal(group, args.theta2), _parse_root(args.t2))
    # the oracle first: it refuses a group over the element bound before any sum
    oracle = zeta_tilde_oracle(tau1, tau2, psi) if args.oracle else None
    eps = epsilon_pair(tau1, tau2, psi)
    lfac = l_factor_pair(tau1, tau2)
    doc = {
        "epsilon": eps.to_dict(),
        "epsilon_at_half": _complex_dict(eps.value_at(Fraction(1, 2))),
        "modulus": eps.modulus_at_half(),
        "l_factor": lfac.to_dict(),
    }
    if oracle is not None:
        doc["oracle"] = oracle.to_dict()
        doc["oracle_agrees"] = oracle == eps

    def csv_rows(d):
        z = d["epsilon_at_half"]
        yield d["epsilon"], z["re"], z["im"], d["modulus"], d["l_factor"]

    _emit(doc, args.format, args.out, ["epsilon", "re", "im", "modulus", "l_factor"], csv_rows)
    return 0


def cmd_transfer(args):
    from .transfer import SMonomial, TransferData, epsilon_transfer

    if args.input == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.input}: {exc}") from exc
    try:
        tame = SMonomial.from_dict(json.loads(raw))
    except (ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad epsilon JSON on input: {exc}") from exc
    data = TransferData(
        r=args.r,
        N=args.N,
        e=args.e,
        vnu=args.vnu,
        w1=_parse_root(args.w1),
        w2=_parse_root(args.w2),
        zeta=_parse_root(args.zeta),
    )
    out = epsilon_transfer(tame, data)
    doc = {
        "epsilon": out.to_dict(),
        "epsilon_at_half": _complex_dict(out.value_at(Fraction(1, 2))),
        "modulus": out.modulus_at_half(),
    }
    _emit(doc, "json", args.out)
    return 0


def cmd_verify(args):
    from . import verify  # only this subcommand pays for compiling the suites

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    checks = verify.run_suites(names, seed=seed, q=args.q, r=args.r)
    for check in checks:
        sys.stdout.write(check.line() + "\n")
    failed = [c for c in checks if not c.ok]
    sys.stdout.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    return 1 if failed else 0


# Built by the first main call and reused: building takes about 15 times as
# long as parsing one request, and a long-lived process calls main per request.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspeps",
        description="Exact cuspidal characters, Bessel functions and epsilon factors for GL_r(F_q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_group=True):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if with_group:
            p.add_argument("--q", type=int, required=True, help="residue field size (prime power)")
            p.add_argument("--r", type=int, required=True, help="matrix size")
            p.add_argument("--a", type=int, default=0, help="log of the additive-character shift")

    p_field = sub.add_parser("field", help="build a finite field and emit its tables")
    p_field.add_argument("--p", type=int, required=True)
    p_field.add_argument("--k", type=int, default=1)
    add_common(p_field, with_group=False)
    p_field.set_defaults(func=cmd_field)

    p_cusp = sub.add_parser("cuspidals", help="list cuspidal representations with character values")
    add_common(p_cusp)
    p_cusp.set_defaults(func=cmd_cuspidals)

    p_bessel = sub.add_parser("bessel", help="tabulate a Bessel function")
    add_common(p_bessel)
    p_bessel.add_argument("--theta", type=int, required=True, help="regular character exponent")
    p_bessel.add_argument("--domain", choices=("full", "mirabolic", "u"), default="full")
    p_bessel.set_defaults(func=cmd_bessel)

    p_eps = sub.add_parser("epsilon", help="epsilon factor of a pair of level-zero representations")
    add_common(p_eps)
    p_eps.add_argument("--theta1", type=int, required=True)
    p_eps.add_argument("--theta2", type=int, required=True)
    p_eps.add_argument("--t1", default="1", help="unramified parameter as j/m (zeta_m^j)")
    p_eps.add_argument("--t2", default="1")
    p_eps.add_argument("--oracle", action="store_true", help="also run the zeta-integral oracle")
    p_eps.set_defaults(func=cmd_epsilon)

    p_tr = sub.add_parser("transfer", help="apply the tame transfer to an epsilon monomial")
    p_tr.add_argument("--vnu", type=int, required=True)
    p_tr.add_argument("--N", type=int, required=True)
    p_tr.add_argument("--e", type=int, required=True)
    p_tr.add_argument("--r", type=int, required=True)
    p_tr.add_argument("--w1", default="1")
    p_tr.add_argument("--w2", default="1")
    p_tr.add_argument("--zeta", default="1")
    p_tr.add_argument("--input", default="-", help="epsilon JSON (file or - for stdin)")
    p_tr.add_argument("--out", default=None)
    p_tr.set_defaults(func=cmd_transfer)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", default="all", help="suite name or 'all'")
    p_ver.add_argument("--seed", type=int, default=None, help="default: verify.DEFAULT_SEED")
    p_ver.add_argument("--q", type=int, default=None, help="restrict to one field size")
    p_ver.add_argument("--r", type=int, default=None, help="restrict to one matrix size")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _join_negative_roots(argv: list[str]) -> list[str]:
    """Join ``--name -j/m`` into ``--name=-j/m``.

    argparse reads a value such as -1/3 as an option of its own.  The joined
    form parses the same for every option that takes a value, abbreviated or
    not, and a flag refuses it as it refuses the split one."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev[:2] == "--" and len(prev) > 2 and "=" not in prev and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_negative_roots(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``cuspeps ... | head``), which is
        # not a failure.  Point fd 1 at the null device so that the flush of
        # the unwritten rest at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # the CLI never prints a traceback
        message = " ".join(str(exc).split())
        detail = f"{type(exc).__name__}: {message}" if message else type(exc).__name__
        sys.stderr.write(f"error: internal error: {detail}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cuspeps
from cuspeps import cli
from cuspeps.transfer import MAX_ROOT_ORDER, RootOfUnity


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_subcommand(capsys):
    code, out, _ = run_cli(capsys, "field", "--p", "2", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 8 and doc["modulus"] == [1, 1, 0, 1]
    assert len(doc["zech"]) == 7


def test_cuspidals_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cuspidals", "--q", "3", "--r", "2")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert [row["orbit"] for row in rows] == [[1, 3], [2, 6], [5, 7]]
    assert all(row["dim"] == 2 for row in rows)


def test_bessel_subcommand_row_count(capsys):
    code, out, _ = run_cli(capsys, "bessel", "--q", "2", "--r", "2", "--theta", "1")
    assert code == 0
    assert len(json.loads(out)) == 6


def test_epsilon_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "epsilon", "--q", "3", "--r", "1", "--theta1", "1", "--theta2", "0", "--oracle"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["modulus"] - 1.0) < 1e-9
    assert doc["oracle_agrees"] is True
    assert doc["l_factor"] == {"trivial": True}


def test_epsilon_with_parameters(capsys):
    code, out, _ = run_cli(
        capsys,
        "epsilon", "--q", "3", "--r", "2", "--theta1", "1", "--theta2", "1",
        "--t1", "1/3", "--t2", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"]["s_coeff"] == "2"
    assert doc["l_factor"]["trivial"] is False


def test_transfer_subcommand(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "epsilon", "--q", "3", "--r", "1", "--theta1", "1", "--theta2", "0")
    eps_json = json.dumps(json.loads(out)["epsilon"])
    path = tmp_path / "eps.json"
    path.write_text(eps_json)
    code, out, _ = run_cli(
        capsys,
        "transfer", "--vnu", "1", "--N", "2", "--e", "2", "--r", "1",
        "--w1", "1/4", "--input", str(path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"]["s_coeff"] == "1"
    assert doc["epsilon"]["half_exp"] == -2


UNIT_EPS = {"coeff": {"m": 1, "coeffs": ["1"]}, "qbase": 3, "half_exp": 0, "s_coeff": "0"}


@pytest.mark.parametrize(
    "doc, sizes",
    [
        (UNIT_EPS, ("--N", "1", "--e", "1", "--r", "0")),
        (UNIT_EPS, ("--N", "0", "--e", "1", "--r", "1")),
        ([1, 2], ("--N", "1", "--e", "1", "--r", "1")),
        (dict(UNIT_EPS, coeff=5), ("--N", "1", "--e", "1", "--r", "1")),
        (dict(UNIT_EPS, coeff={"m": 1, "coeffs": ["1/0"]}), ("--N", "1", "--e", "1", "--r", "1")),
        (dict(UNIT_EPS, s_coeff="1/0"), ("--N", "1", "--e", "1", "--r", "1")),
        (dict(UNIT_EPS, qbase=0, half_exp=-1), ("--N", "1", "--e", "1", "--r", "1")),
        (dict(UNIT_EPS, coeff={"m": 10**11, "coeffs": ["1"]}), ("--N", "1", "--e", "1", "--r", "1")),
        (UNIT_EPS, ("--N", "1", "--e", "1", "--r", "1", "--w1", "1/997", "--w2", "1/991", "--zeta", "1/983")),
        # Infinite JSON numbers overflow int() and Fraction() while parsing;
        # a string doc is the raw input text.
        *(
            pytest.param(doc, ("--N", "1", "--e", "1", "--r", "1"), id=name)
            for name, doc in (
                ("half_exp-Infinity", dict(UNIT_EPS, half_exp=float("inf"))),
                ("qbase-1e400", json.dumps(UNIT_EPS).replace('"qbase": 3', '"qbase": 1e400')),
                ("coeff-m-1e400", json.dumps(UNIT_EPS).replace('"m": 1', '"m": 1e400')),
                ("s_coeff-Infinity", dict(UNIT_EPS, s_coeff=float("inf"))),
                ("coeffs-1e400", json.dumps(UNIT_EPS).replace('["1"]', "[1e400]")),
            )
        ),
        # A float, a boolean or a non-list is refused, not truncated or read
        # element by element.
        *(
            pytest.param(doc, ("--N", "1", "--e", "1", "--r", "1"), id=name)
            for name, doc in (
                ("half_exp-1.5", dict(UNIT_EPS, half_exp=1.5)),
                ("qbase-3.9", dict(UNIT_EPS, qbase=3.9)),
                ("coeff-m-3.7", dict(UNIT_EPS, coeff={"m": 3.7, "coeffs": ["1"]})),
                ("half_exp-true", dict(UNIT_EPS, half_exp=True)),
                ("s_coeff-0.1", dict(UNIT_EPS, s_coeff=0.1)),
                ("coeffs-string", dict(UNIT_EPS, coeff={"m": 1, "coeffs": "12"})),
                ("coeffs-object", dict(UNIT_EPS, coeff={"m": 1, "coeffs": {"1": 2}})),
            )
        ),
    ],
)
def test_transfer_bad_input_is_usage_error(capsys, monkeypatch, doc, sizes):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "transfer", "--vnu", "0", *sizes)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(tame, data):
        raise OverflowError("forced")

    monkeypatch.setattr("cuspeps.transfer.epsilon_transfer", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(UNIT_EPS)))
    code, out, err = run_cli(capsys, "transfer", "--vnu", "0", "--N", "1", "--e", "1", "--r", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: internal error: OverflowError") and err.count("\n") == 1


@pytest.mark.parametrize(
    "qbase, half_exp",
    [
        (10**400, 0),  # qbase itself converts to no float
        (10**300, 4),  # qbase^2 overflows a float
        (3, 10000),
    ],
)
def test_transfer_float_overflow_is_usage_error(capsys, monkeypatch, qbase, half_exp):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(dict(UNIT_EPS, qbase=qbase, half_exp=half_exp))))
    code, out, err = run_cli(capsys, "transfer", "--vnu", "0", "--N", "1", "--e", "1", "--r", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: the value at s = 1/2 of the monomial {") and err.endswith("overflows a float\n")
    assert err.count("\n") == 1


def test_transfer_exact_integer_root(capsys, monkeypatch):
    """The root of qbase is exact, far beyond float range."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(dict(UNIT_EPS, qbase=10**400))))
    code, out, err = run_cli(capsys, "transfer", "--vnu", "0", "--N", "2", "--e", "1", "--r", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["epsilon"]["qbase"] == 10**200
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(dict(UNIT_EPS, qbase=10**400 + 1))))
    code, out, err = run_cli(capsys, "transfer", "--vnu", "0", "--N", "2", "--e", "1", "--r", "1")
    assert code == 2 and out == "" and err.startswith("error: ") and "2-th power" in err


@pytest.mark.parametrize(
    "q, r, stderr",
    [
        (101, 2, "error: field size 10201 exceeds the configured bound 4096\n"),
        (11, 3, "error: the Bessel support of GL_3(F_11) times its unipotent subgroup has 1610510 "
                "elements, over the bound 1000000\n"),
    ],
)
def test_epsilon_work_bound_exits_2(capsys, q, r, stderr):
    code, out, err = run_cli(capsys, "epsilon", "--q", str(q), "--r", str(r), "--theta1", "1", "--theta2", "2")
    assert (code, out, err) == (2, "", stderr)


def _address_space_1gb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, size", [
    (["field", "--p", "2305843009213693951"], "2305843009213693951"),
    (["cuspidals", "--q", "1000000007", "--r", "1"], "1000000007"),
    (["verify", "--suite", "cusp", "--q", "1000000007", "--r", "1"], "1000000007"),
    (["field", "--p", "2", "--k", "100000000"], "2^100000000"),
    (["cuspidals", "--q", "2", "--r", "100000000"], "2^100000000"),
    (["field", "--p", "2", "--k", "1000000000000"], "2^1000000000000"),
])
def test_oversized_field_is_refused_before_factoring(argv, size):
    """The size bound is checked before p or q is factored and before p^k is
    formed, so each of these exits 2 at once instead of trial-dividing up to
    sqrt(q) or building a huge p^k.  A fresh process under a 1 GB address-space
    limit and a timeout, so a regression fails instead of exhausting memory."""
    script = "import sys; from cuspeps.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True, text=True,
        timeout=10, preexec_fn=_address_space_1gb,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: field size {size} exceeds the configured bound 4096\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("epsilon", "--q", "3", "--r", "2", "--theta1", "4", "--theta2", "1"),
        ("bessel", "--q", "3", "--r", "2", "--theta", "4"),
    ],
)
def test_irregular_exponent_exits_2(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", "error: exponent 4 is not regular for q=3, r=2\n")


def test_root_order_limit(capsys):
    assert RootOfUnity.parse(f"1/{MAX_ROOT_ORDER}").order == MAX_ROOT_ORDER
    assert RootOfUnity.parse(f"2/{2 * MAX_ROOT_ORDER}").order == MAX_ROOT_ORDER
    with pytest.raises(ValueError):
        RootOfUnity.parse(f"1/{MAX_ROOT_ORDER + 1}")
    code, out, err = run_cli(
        capsys,
        "epsilon", "--q", "3", "--r", "1", "--theta1", "1", "--theta2", "0", "--t1", "1/100000000000",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bessel", "--q", "3", "--r", "2")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "cuspidals", "--q", "6", "--r", "2")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "bessel", "--q", "3", "--r", "2", "--theta", "4")
    assert code == 2 and "regular" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "does-not-exist")
    assert code == 2


def test_parser_is_built_once(capsys):
    """main builds the parser on its first call only, and a reused parser
    prints the same bytes as a fresh one, usage errors included."""
    requests = (("field", "--p", "2", "--k", "2"), ("nonsense",), ("field", "--p", "3"))
    fresh = []
    for argv in requests:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli.build_parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in requests]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0]
    assert "invalid choice" in reused[1][2]


def test_emit_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "bessel", "--q", "2", "--r", "2", "--theta", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g,value,re,im"
    assert len(lines) == 7


def test_emit_empty_documents(capsys):
    cli._emit([], "json", None)
    out = capsys.readouterr().out
    assert json.loads(out) == []
    assert out == "[]\n"
    cli._emit([], "csv", None, csv_headers=["a", "b"])
    out = capsys.readouterr().out
    assert out == "a,b\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_writes_each_record_before_drawing_the_next(fmt):
    buf = io.StringIO()

    def records():
        for k in range(3):
            if k:
                end = f"{k - 1}\n" if fmt == "csv" else f'"k": {k - 1}\n }}'
                assert buf.getvalue().endswith(end)
            yield {"k": k}

    with contextlib.redirect_stdout(buf):
        cli._emit(records(), fmt, None, ["k"], lambda rec: [[rec["k"]]])
    assert buf.getvalue().endswith("2\n" if fmt == "csv" else "2\n }\n]\n")


JSON_TEXT = st.text(alphabet=st.sampled_from('ab\n"\\\u00e9\u03b6\U0001d53d '), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(JSON_VALUES, max_size=5))
@example([])
@example([{}])
@example([{"a\n\"\u00e9": [[], {}, "x\ny"]}, [], {"": {}}])
def test_streamed_json_is_one_dumps_of_the_list(items):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(iter(items), "json", None)
    assert buf.getvalue() == json.dumps(items, sort_keys=True, indent=1) + "\n"


def _exit_contract(argv, stdin="", codes=(0, 2)):
    """Any small argv answers (exit 0, or 1 for a failed check where ``codes``
    allows it) or is refused (exit 2, no stdout); never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    assert code in codes, err.getvalue()
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
    assert (out.getvalue() == "") == (code == 2)


SMALL_Q = st.sampled_from([-3, 0, 1, 2, 3, 4, 6, 9])
SMALL_R = st.integers(-1, 2)
FORMATS = st.sampled_from(["json", "csv"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([-3, 0, 1, 2, 3, 4, 6, 7, 9, 16, 27, 1024]),
    st.integers(-1, 5),
    FORMATS,
    st.integers(-2, 3),
)
def test_cuspidals_exit_contract(q, r, fmt, a):
    _exit_contract(["cuspidals", "--q", str(q), "--r", str(r), "--format", fmt, "--a", str(a)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SMALL_Q, SMALL_R, FORMATS)
@example(3, 2, "csv")
def test_field_exit_contract(p, k, fmt):
    _exit_contract(["field", "--p", str(p), "--k", str(k), "--format", fmt])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SMALL_Q, SMALL_R, st.integers(-2, 9), st.sampled_from(["full", "mirabolic", "u"]), st.integers(-2, 3), FORMATS)
@example(3, 2, 1, "full", 1, "json")
@example(2, 2, 1, "u", 0, "csv")
def test_bessel_exit_contract(q, r, theta, domain, a, fmt):
    _exit_contract(["bessel", "--q", str(q), "--r", str(r), "--theta", str(theta), "--domain", domain,
                    "--a", str(a), "--format", fmt])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(SMALL_Q, SMALL_R, st.integers(-2, 9), st.integers(-2, 9),
       st.one_of(st.builds("{}/{}".format, st.integers(-3, 9), st.integers(1, 12)),
                 st.sampled_from(["1", "1/0", "x", "3/1001", "", "0/0", "1/-2"])),
       st.integers(-2, 3))
@example(3, 2, 1, 2, "1/4", 1)
@example(4, 1, 1, 0, "3/8", 0)
def test_epsilon_exit_contract(q, r, theta1, theta2, t1, a):
    _exit_contract(["epsilon", "--q", str(q), "--r", str(r), "--theta1", str(theta1), "--theta2", str(theta2),
                    "--t1", t1, "--a", str(a)])


ROOTS = st.one_of(
    st.builds("{}/{}".format, st.integers(-5, 9), st.integers(1, 12)),
    st.sampled_from(["1", "-1", "1/0", "x", "3/1001", "", "-1/997", "1/-2"]),
)
TAME_DOCS = st.sampled_from([
    UNIT_EPS,
    {"coeff": {"m": 12, "coeffs": ["0", "2", "0", "-1"]}, "half_exp": -2, "qbase": 3, "s_coeff": "1"},
    dict(UNIT_EPS, qbase=4),
    dict(UNIT_EPS, qbase=16, half_exp=-1),
    dict(UNIT_EPS, qbase=1),
    dict(UNIT_EPS, coeff={"m": 10**11, "coeffs": ["1"]}),
    dict(UNIT_EPS, s_coeff="x"),
    None,
])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(-2, 3), st.sampled_from([1, 2, 4, 0, -1]), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 0]),
       ROOTS, ROOTS, ROOTS, TAME_DOCS)
@example(1, 2, 2, 1, "-1/4", "1", "1", UNIT_EPS)
@example(0, 4, 2, 2, "-1/3", "2/5", "-1", UNIT_EPS)
def test_transfer_exit_contract(vnu, N, e, r, w1, w2, zeta, doc):
    _exit_contract(["transfer", "--vnu", str(vnu), "--N", str(N), "--e", str(e), "--r", str(r),
                    "--w1", w1, "--w2", w2, "--zeta", zeta], stdin=json.dumps(doc))


# Every suite but "all", on groups small enough that a (q, r) outside a suite's
# list stays cheap to run.  "field" ignores --q and --r, so the fallback that runs
# a requested (q, r) outside a suite's list never reached it; it stayed out only
# while it cost 0.7 s a run.  "all" stays out while that fallback stands: with
# --q 4 --r 2 it would send all 48 GL_2(F_4) pairs through the epsilon oracle.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["cyclo", "field", "glq", "cusp", "bessel", "realization", "vanishing", "epsilon",
                        "transfer", "", "nope", "ALL", "field2"]),
       st.sampled_from([None, -1, 0, 1, 2, 3, 4, 6]), st.sampled_from([None, -1, 0, 1, 2]),
       st.sampled_from([None, -1, 0, 7]))
@example("bessel", 3, 2, None)
def test_verify_exit_contract(suite, q, r, seed):
    argv = ["verify", "--suite", suite]
    for name, value in (("--q", q), ("--r", r), ("--seed", seed)):
        if value is not None:
            argv += [name, str(value)]
    _exit_contract(argv, codes=(0, 1, 2))


@pytest.mark.parametrize(
    "argv, negative",
    [
        (["epsilon", "--q", "3", "--r", "1", "--theta1", "1", "--theta2", "0"], ["--t1", "-1/3"]),
        (["epsilon", "--q", "3", "--r", "2", "--theta1", "1", "--theta2", "2"], ["--t2", "-2/5"]),
        (["transfer", "--vnu", "1", "--N", "2", "--e", "2", "--r", "1", "--zeta", "1"], ["--w1", "-1/4"]),
        (["transfer", "--vnu", "0", "--N", "1", "--e", "1", "--r", "1"], ["--w2", "-1/6", "--zeta", "-3/4"]),
        (["transfer", "--vnu", "1", "--N", "2", "--e", "2", "--r", "1"], ["--ze", "-1/3"]),
    ],
)
def test_negative_root_in_either_spelling(capsys, monkeypatch, argv, negative):
    """--t1 -1/3 reads as --t1=-1/3, although argparse takes -1/3 for an
    option; so does an abbreviation such as --ze -1/3."""
    joined = [f"{opt}={value}" for opt, value in zip(negative[::2], negative[1::2])]
    outputs = []
    for tail in (negative, joined):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(UNIT_EPS)))
        code, out, err = run_cli(capsys, *argv, *tail)
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "cuspidals", "--q", "2", "--r", "2", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())[0]["orbit"] == [1, 2]
    code, _, err = run_cli(
        capsys, "cuspidals", "--q", "2", "--r", "2", "--out", str(tmp_path / "no" / "dir.json")
    )
    assert code == 2


def test_byte_stable_output(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "cuspidals", "--q", "3", "--r", "2")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "bessel", "--q", "3", "--r", "2", "--theta", "1", "--format", "csv")
        outputs.append(out)
    assert outputs[0] == outputs[1]


# Modules a fresh process of each subcommand must not load: dataclasses pulls
# in inspect, ast, dis and tokenize, and cuspidals runs no Bessel or epsilon code.
NOT_LOADED = {
    "cuspidals": {"dataclasses", "inspect", "cuspeps.bessel", "cuspeps.epsilon"},
    "epsilon": {"dataclasses", "inspect"},
    "verify": set(),
}


CLI_SCRIPT = "from cuspeps import cli; code = cli.main(sys.argv[1:])"


def _child_env():
    """This environment with the tested cuspeps first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cuspeps.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_modules(script, *argv):
    """Run script, which sets code, in a fresh interpreter; return the exit
    code and the modules it loaded."""
    script = f"import json, sys; {script}; sys.stderr.write(json.dumps(sorted(sys.modules))); sys.exit(code)"
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True, text=True)
    return proc.returncode, set(json.loads(proc.stderr))


@pytest.mark.parametrize("argv,loaded", [
    (("cuspidals", "--q", "2", "--r", "2"), False),
    (("epsilon", "--q", "3", "--r", "1", "--theta1", "1", "--theta2", "0"), False),
    (("verify", "--suite", "cyclo"), True),
])
def test_only_verify_imports_the_suites(argv, loaded):
    """A fresh process compiles cuspeps.verify only for the verify subcommand,
    and a subcommand loads no module it does not run."""
    code, modules = _fresh_modules(CLI_SCRIPT, *argv)
    assert code == 0
    assert ("cuspeps.verify" in modules) == loaded
    assert modules & NOT_LOADED[argv[0]] == set()


def test_bare_import_loads_no_submodule():
    code, modules = _fresh_modules("import cuspeps; code = 0")
    assert code == 0
    assert "cuspeps" in modules
    assert sorted(m for m in modules if m.startswith("cuspeps.")) == []


def test_field_and_transfer_imports(tmp_path):
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(UNIT_EPS))
    for argv, not_loaded in (
        (("field", "--p", "2", "--k", "3"), {"dataclasses", "inspect", "cuspeps.glq", "cuspeps.cusp"}),
        (
            ("transfer", "--vnu", "0", "--N", "1", "--e", "1", "--r", "1", "--input", str(path)),
            {"dataclasses", "inspect", "cuspeps.glq", "cuspeps.cusp", "cuspeps.bessel", "cuspeps.epsilon",
             "cuspeps.ffield", "cuspeps.verify"},
        ),
    ):
        code, modules = _fresh_modules(CLI_SCRIPT, *argv)
        assert code == 0
        assert modules & not_loaded == set()
    # transfer is arithmetic on one monomial: it loads no group code at all
    assert sorted(m for m in modules if m.partition(".")[0] == "cuspeps") == [
        "cuspeps", "cuspeps._frozen", "cuspeps.cli", "cuspeps.cyclo", "cuspeps.transfer"]


def test_oversized_character_table_is_refused(capsys):
    """GL_1(F_256) has 255 cuspidals x 255 classes x phi(255) = 128 coefficient
    strings, over cli.MAX_TABLE_COEFFS: refused before any row is built."""
    code, out, err = run_cli(capsys, "cuspidals", "--q", "256", "--r", "1", "--format", "csv")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cli.MAX_TABLE_COEFFS) in err


@pytest.mark.parametrize("argv", [
    ("cuspidals", "--q", "256", "--r", "1"),
    ("bessel", "--q", "5", "--r", "3", "--theta", "1", "--domain", "full", "--format", "csv"),
])
def test_usage_error_writes_no_byte(capsys, tmp_path, argv):
    """Arguments are checked before the first byte: a refused table (here over
    MAX_TABLE_COEFFS, or |GL_3(F_5)| over the element bound) prints no CSV
    header and creates no --out file."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    path = tmp_path / "table"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert not path.exists()


def test_additive_shift_modulo_q_minus_1(capsys):
    argv = ("epsilon", "--q", "3", "--r", "2", "--theta1", "1", "--theta2", "2", "--a")
    code1, out1, _ = run_cli(capsys, *argv, "1")
    code7, out7, _ = run_cli(capsys, *argv, "7")
    assert code1 == code7 == 0 and out1 == out7
    code, out, _ = run_cli(capsys, *argv, "-1")
    assert code == 2 and out == ""


def _closed_reader_run(argv, unbuffered, read):
    """Run the CLI in a fresh process whose stdout pipe the reader closes after
    reading `read` bytes (None: closed before the process starts)."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    script = "import sys; from cuspeps import cli; sys.exit(cli.main(sys.argv[1:]))"
    cmd = [sys.executable, "-c", script, *argv]
    if read is None:
        rfd, wfd = os.pipe()
        os.close(rfd)
        try:
            proc = subprocess.run(cmd, env=env, stdout=wfd, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(wfd)
        return proc.returncode, proc.stderr
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,read", [
    # 270 kB of JSON, more than a pipe holds: writes meet the closed pipe.
    (("cuspidals", "--q", "27", "--r", "1"), 10),
    # Under 8 kB: with buffered stdout only the final flush meets it.
    (("field", "--p", "2", "--k", "3"), None),
])
def test_reader_closing_stdout_early_is_not_an_error(argv, read, unbuffered):
    """`cuspeps cuspidals --q 27 --r 1 | head -c 10` exits 0 with nothing on
    stderr: no internal error and no "Exception ignored" at interpreter exit."""
    code, err = _closed_reader_run(argv, unbuffered, read)
    assert (code, err) == (0, b"")

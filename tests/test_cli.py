import io
import json

import pytest

from cuspeps import cli
from cuspeps.epsilon import MAX_ROOT_ORDER, RootOfUnity


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
    ],
)
def test_transfer_bad_input_is_usage_error(capsys, monkeypatch, doc, sizes):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "transfer", "--vnu", "0", *sizes)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_3(capsys, monkeypatch):
    # 3 ** 5000.0 overflows a float in SMonomial.value_at.
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(dict(UNIT_EPS, half_exp=10000))))
    code, out, err = run_cli(capsys, "transfer", "--vnu", "0", "--N", "1", "--e", "1", "--r", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: internal error: OverflowError") and err.count("\n") == 1


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
    cli._emit([], "csv", None, csv_headers=["a", "b"])
    out = capsys.readouterr().out
    assert out == "a,b\n"


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

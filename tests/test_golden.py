"""Byte-level guard on CLI stdout.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
with a digest recorded before the integer rewrite of ``cyclo``.  Any change
to an exact value, to the JSON/CSV layout or to a float printed from an
embedding shows up here.
"""

import hashlib
import io
import json

import pytest

from cuspeps import cli

TRANSFER_ARGS = ("transfer", "--vnu", "1", "--N", "2", "--e", "2", "--r", "1",
                 "--w1", "1/4", "--w2", "1", "--zeta", "1")

CASES = {
    "epsilon-gl2-f5": ("epsilon", "--q", "5", "--r", "2", "--theta1", "13", "--theta2", "1", "--oracle"),
    "epsilon-gl3-f2": ("epsilon", "--q", "2", "--r", "3", "--theta1", "3", "--theta2", "1", "--oracle"),
    "epsilon-gl2-f4-t1": (
        "epsilon", "--q", "4", "--r", "2", "--theta1", "6", "--theta2", "6", "--t1", "-1", "--oracle",
    ),
    "cuspidals-csv": ("cuspidals", "--q", "3", "--r", "2", "--format", "csv"),
    "bessel": ("bessel", "--q", "3", "--r", "2", "--theta", "1"),
    "verify-cyclo": ("verify", "--suite", "cyclo"),
}

DIGESTS = {
    "bessel": "9d8667d7c3a605c7db1c7bde6c452873b1a837777e3a18787aadc67f597d1d37",
    "cuspidals-csv": "6bc37f87ecffd6646eae20821194e5cd7d14c6ababdb624ce90f8eded41f3c71",
    "epsilon-gl2-f4-t1": "463984aaa6d0260c15027eb099085b024289ad5b1de2c4e18c388f7804cc60a1",
    "epsilon-gl2-f5": "a4ae58b304059b6e31186bc6c2dfffaaad8b6c21802d5ace23820e4b7cfadc3c",
    "epsilon-gl3-f2": "0f6ab86dbf947bffd395ea8f315de768202ecfe91b798cc8dd9d3196dcd59d1c",
    "readme-pipe": "136faba33ea6f904e453b0147daae17e4b989329cb84af6a59b2619e67811425",
    "verify-cyclo": "c1a3273c3602aa9d8211173a5757012ab0c577d9ce2abb88960748ac79cbca54",
}


def _stdout(argv, monkeypatch, capsys, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _readme_pipe(monkeypatch, capsys):
    """`epsilon ... | python -c "...['epsilon']" | transfer ...` from the README."""
    eps = _stdout(("epsilon", "--q", "3", "--r", "1", "--theta1", "1", "--theta2", "0"), monkeypatch, capsys)
    return _stdout(TRANSFER_ARGS, monkeypatch, capsys, stdin=json.dumps(json.loads(eps)["epsilon"]) + "\n")


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_digest(name, monkeypatch, capsys):
    assert _digest(_stdout(CASES[name], monkeypatch, capsys)) == DIGESTS[name]


def test_readme_transfer_pipe_digest(monkeypatch, capsys):
    assert _digest(_readme_pipe(monkeypatch, capsys)) == DIGESTS["readme-pipe"]

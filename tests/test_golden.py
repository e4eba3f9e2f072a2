"""Byte-level guard on CLI stdout.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
with a digest recorded before the integer rewrite of ``cyclo``; the
character tables of GL_3(F_2), GL_3(F_3) and GL_4(F_2) were recorded before
the one-pass class map, those of GL_3(F_4) and GL_2(F_9) before the generated
characteristic polynomial, the four Bessel tables (printed in the
enumeration order of G, of the mirabolic subgroup or of U) before the
row-pattern scan, and the eight ``verify`` reports on GL_2(F_3),
GL_2(F_4), GL_2(F_5) and GL_3(F_2) are those in ``bench/refs.json``, recorded
before the table-driven matrix product.  The ``verify --suite field`` report
was recorded while that suite still checked the field axioms in an O(q^3)
loop and the character laws on cyclotomic numbers.  The two ``field`` tables, the CSV
epsilon factors, the CSV Bessel table on U of GL_2(F_2) and both tables of
GL_1(F_27) were recorded before the CLI streamed its output.  The vanishing,
realization, Bessel and epsilon reports run every character sum of
``bessel`` and ``epsilon``.  The epsilon factors on GL_3(F_5), GL_4(F_3) and
GL_5(F_2) lie beyond the element bound of the U\\G coset sum; they were
recorded with the first code that answers them, the sum over the support of
J (each is exactly unitary, see ``tests/test_epsilon.py``).
Any change to an exact value, to the order of a cyclotomic value, to the
JSON/CSV layout, to the order or count of conjugacy classes or to a float
printed from an embedding shows up here.
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
    "cuspidals-gl3-f2-json": ("cuspidals", "--q", "2", "--r", "3", "--format", "json"),
    "cuspidals-gl3-f2-csv": ("cuspidals", "--q", "2", "--r", "3", "--format", "csv"),
    "cuspidals-gl3-f3-json": ("cuspidals", "--q", "3", "--r", "3", "--format", "json"),
    "cuspidals-gl3-f3-csv": ("cuspidals", "--q", "3", "--r", "3", "--format", "csv"),
    "cuspidals-gl4-f2-json": ("cuspidals", "--q", "2", "--r", "4", "--format", "json"),
    "cuspidals-gl4-f2-csv": ("cuspidals", "--q", "2", "--r", "4", "--format", "csv"),
    "cuspidals-gl3-f4-csv": ("cuspidals", "--q", "4", "--r", "3", "--format", "csv"),
    "cuspidals-gl2-f9-json": ("cuspidals", "--q", "9", "--r", "2", "--format", "json"),
    "bessel": ("bessel", "--q", "3", "--r", "2", "--theta", "1"),
    "bessel-gl3-f2-full": ("bessel", "--q", "2", "--r", "3", "--theta", "1", "--domain", "full"),
    "bessel-gl3-f2-mirabolic": ("bessel", "--q", "2", "--r", "3", "--theta", "1", "--domain", "mirabolic"),
    "bessel-gl3-f3-mirabolic-csv": (
        "bessel", "--q", "3", "--r", "3", "--theta", "1", "--domain", "mirabolic", "--format", "csv",
    ),
    "bessel-gl4-f2-u": ("bessel", "--q", "2", "--r", "4", "--theta", "1", "--domain", "u"),
    "field-gf8-json": ("field", "--p", "2", "--k", "3"),
    "field-gf9-csv": ("field", "--p", "3", "--k", "2", "--format", "csv"),
    "epsilon-gl2-f3-oracle-csv": (
        "epsilon", "--q", "3", "--r", "2", "--theta1", "1", "--theta2", "2", "--oracle", "--format", "csv",
    ),
    "epsilon-gl2-f4-t1-csv": (
        "epsilon", "--q", "4", "--r", "2", "--theta1", "6", "--theta2", "6", "--t1", "-1", "--format", "csv",
    ),
    "bessel-gl2-f2-u-csv": ("bessel", "--q", "2", "--r", "2", "--theta", "1", "--domain", "u", "--format", "csv"),
    "cuspidals-gl1-f27-json": ("cuspidals", "--q", "27", "--r", "1"),
    "cuspidals-gl1-f27-csv": ("cuspidals", "--q", "27", "--r", "1", "--format", "csv"),
    "epsilon-gl3-f5": ("epsilon", "--q", "5", "--r", "3", "--theta1", "1", "--theta2", "2"),
    "epsilon-gl4-f3": ("epsilon", "--q", "3", "--r", "4", "--theta1", "1", "--theta2", "2"),
    "epsilon-gl5-f2": ("epsilon", "--q", "2", "--r", "5", "--theta1", "1", "--theta2", "3"),
    "verify-cyclo": ("verify", "--suite", "cyclo"),
    "verify-field": ("verify", "--suite", "field"),
    "verify-realization-gl2-f3": ("verify", "--suite", "realization", "--q", "3", "--r", "2", "--seed", "11"),
    "verify-bessel-gl2-f3": ("verify", "--suite", "bessel", "--q", "3", "--r", "2", "--seed", "11"),
    "verify-cusp-gl2-f5": ("verify", "--suite", "cusp", "--q", "5", "--r", "2", "--seed", "11"),
    "verify-glq-gl3-f2": ("verify", "--suite", "glq", "--q", "2", "--r", "3", "--seed", "33"),
    "verify-vanishing-gl2-f3": ("verify", "--suite", "vanishing", "--q", "3", "--r", "2", "--seed", "11"),
    "verify-realization-gl3-f2": ("verify", "--suite", "realization", "--q", "2", "--r", "3", "--seed", "11"),
    "verify-bessel-gl3-f2": ("verify", "--suite", "bessel", "--q", "2", "--r", "3", "--seed", "11"),
    "verify-epsilon-gl2-f4": ("verify", "--suite", "epsilon", "--q", "4", "--r", "2", "--seed", "11"),
}

DIGESTS = {
    "bessel": "9d8667d7c3a605c7db1c7bde6c452873b1a837777e3a18787aadc67f597d1d37",
    "bessel-gl3-f2-full": "9c6be3fe0377586750be4a5881e890b75ce2e68277825d977e0fc1f93c016f00",
    "bessel-gl3-f2-mirabolic": "7604a02480693b78b183e95c19f86940cc367a1712b595806572e664f439201b",
    "bessel-gl3-f3-mirabolic-csv": "93034403ae11257fb3d153d9c7a5ecbebd3016a989aafc0eff42e24725806dfb",
    "bessel-gl4-f2-u": "94299bf53e2ac727fdb7c3b9b25bf673ff1bae50a3a565860fc6ba52df16f7f0",
    "bessel-gl2-f2-u-csv": "11c654aae671ffd7b45cc3748f45ce60832132f2522d5981d50f7a5a58580650",
    "cuspidals-csv": "6bc37f87ecffd6646eae20821194e5cd7d14c6ababdb624ce90f8eded41f3c71",
    "cuspidals-gl1-f27-csv": "465cfad93fe98d994fe9b201b7a9395a8b1c0bcbc665cede7d40e9699141f4b3",
    "cuspidals-gl1-f27-json": "cddeca0a2d7290ef12a440a886fb92d813106705369455dabcb22617dad8ed25",
    "cuspidals-gl3-f2-csv": "cc641eeca1bddc180c581a5a91061ffdca1a1008c7b4e3ae0a17d17cfcb2c182",
    "cuspidals-gl3-f2-json": "83ef6c7bfa96e0d4045457ab7f092af085688e150d24d46ae996024d33d6a819",
    "cuspidals-gl3-f3-csv": "769fa0273c4796d94834169db5e30a93495e6af973a8d03a43a9d51bec01fb3e",
    "cuspidals-gl3-f3-json": "27610f2402fb4517b8f7c44d94dca0c7d504ec398feeacdf7f721b08c8025103",
    "cuspidals-gl3-f4-csv": "a7f0932771f7d128f70599779bd5e53b29628189c1264385c306d34e7a00a7e9",
    "cuspidals-gl2-f9-json": "dd3c875ad6fe38fc79ca903153a02984b0f59205a9f92dfd501e29479a66f108",
    "cuspidals-gl4-f2-csv": "be49d69f353af8c813b7a727662b2bb3875ab0cd3d2b5c43bbd4acc8a27c4bd3",
    "cuspidals-gl4-f2-json": "8f1849647a51a392c279d1f01eed7c63ad54673d74adc5621ff85297c06d8d19",
    "epsilon-gl2-f3-oracle-csv": "937a5792bc784ae2c9630aaf40df0e776a786556754d1bd90cb89339c5d23733",
    "epsilon-gl2-f4-t1": "463984aaa6d0260c15027eb099085b024289ad5b1de2c4e18c388f7804cc60a1",
    "epsilon-gl2-f4-t1-csv": "e5bf6f659770f675f4dbceb222809ffa5b598cd70931115a40210cbf4fc3b9e8",
    "epsilon-gl2-f5": "a4ae58b304059b6e31186bc6c2dfffaaad8b6c21802d5ace23820e4b7cfadc3c",
    "epsilon-gl3-f2": "0f6ab86dbf947bffd395ea8f315de768202ecfe91b798cc8dd9d3196dcd59d1c",
    "epsilon-gl3-f5": "ced14fe92702e15018c080dfc565c290224e13753050bf82cc790e332509b137",
    "epsilon-gl4-f3": "6eeeb310be0f9be356d295c2506f2d1335fca342e2cdb16d65fd1358c4cd6a7c",
    "epsilon-gl5-f2": "345ee469eb1ba7b3d2bb1ee09655d2054fe36d5e873e5614d870f85925f958d8",
    "field-gf8-json": "acfa7d3127ae869cfd9afe79f8bcfeef70cc629e57b65c596e054581fbfc82f0",
    "field-gf9-csv": "509be72587df0f16d3ae7c09113c5bc8956212f1a56c6cfd138853bdbd1f691f",
    "readme-pipe": "136faba33ea6f904e453b0147daae17e4b989329cb84af6a59b2619e67811425",
    "verify-bessel-gl2-f3": "8d3bd8a854361c693b94756355e6062fb1e36059a4e53a8702d8db8b5a33869e",
    "verify-bessel-gl3-f2": "b988fdcbf7a1ab8ee58c25028b2d7ca73be9b51856d366c30940bd0f981c03f9",
    "verify-cusp-gl2-f5": "5b707617e3811aa666cce534f0898cfd049408552ad71019f2370ad0d847bdae",
    "verify-cyclo": "c1a3273c3602aa9d8211173a5757012ab0c577d9ce2abb88960748ac79cbca54",
    "verify-field": "23f94dcaf3ea2efff9c508778516559b6648b8de75567e56b9dca41cd240034f",
    "verify-epsilon-gl2-f4": "de8b00e4d158852f1308f9c9a805585ee125169557bffb531dc6d4c566495a53",
    "verify-glq-gl3-f2": "2029c4e828bfbf45381bfb97605e8e4807d391badee465f996d933b73e0d7196",
    "verify-realization-gl2-f3": "472a3f1d82a48c5eab8dc1b90a8db0af250181e4a60202a9878f6088c1a100ef",
    "verify-realization-gl3-f2": "a2f84c0a20753e7b3800235dd8879240e58b0c93f6c99655eccaf7865524f700",
    "verify-vanishing-gl2-f3": "0d8956be3e94803cb7e6249945f3a7d006e447f34a50e9890a9721103fd62395",
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

"""The realization suite's product check against the matrix helpers of bessel.

``verify.realization_suite`` checks L(g1) L(g2) = L(g1 g2) over the numbered
values of each cuspidal (``verify._Numbers.agree``); ``bessel.mat_mul`` and
``mat_eq`` are its reference.
"""

import random

import pytest

from cuspeps import bessel, verify
from cuspeps.bessel import mat_eq, mat_mul, operator_L
from cuspeps.cusp import list_cuspidals
from cuspeps.ffield import AdditiveChar
from cuspeps.glq import FULL, MIRABOLIC, STABILIZER, gl_group


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)])
def test_product_test_agrees_with_mat_mul(q, r):
    """For both kinds and every cuspidal, agree(a, b, c) on value numbers equals
    mat_eq(mat_mul(A, B), C) with C = L(g1 g2), with C = L(h) for a random h,
    and with C = L(g1 g2) with one entry replaced by an entry of L(h)."""
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    elems = group.elements(FULL)
    rng = random.Random(q * 10 + r)
    outcomes = []
    for sigma in list_cuspidals(group):
        for kind in (MIRABOLIC, STABILIZER):
            triples = []
            for _ in range(12):
                g1, g2, h = rng.choice(elems), rng.choice(elems), rng.choice(elems)
                a, b, c, w = (operator_L(sigma, psi, g, kind) for g in (g1, g2, g1 * g2, h))
                i, j = rng.randrange(len(c)), rng.randrange(len(c))
                near = tuple(
                    tuple(w[i][j] if (k, l) == (i, j) else x for l, x in enumerate(row))
                    for k, row in enumerate(c)
                )
                triples += [(a, b, c), (a, b, w), (a, b, near)]
            nums = verify._Numbers(x for t in triples for m in t for row in m for x in row)
            for a, b, c in triples:
                want = mat_eq(mat_mul(a, b), c)
                numbered = (tuple(tuple(map(nums, row)) for row in m) for m in (a, b, c))
                assert nums.agree(*numbered) is want
                outcomes.append(want)
    assert True in outcomes and False in outcomes


def test_one_wrong_off_diagonal_entry_fails_its_model(monkeypatch):
    """An off-diagonal entry of one L(g), g not the identity, is seen by no
    check but the products, so the FAIL comes from the product check.

    The entry is planted in the suite's numbered L(g) of one cuspidal and the
    stabilizer: it is replaced by the number of another J value."""
    group = gl_group(3, 2)
    sigma, g = list_cuspidals(group)[1], group.singer_matrix(1)
    x = verify._Elements(group).number[g.rows]
    current, stabilizer = [], []
    original_evaluator, original_reps, original = verify.get_evaluator, verify._coset_products, verify._operators

    def evaluator(s, psi):
        current.append(s)
        return original_evaluator(s, psi)

    def coset_products(els, group, kind):
        reps = original_reps(els, group, kind)
        if kind == STABILIZER:
            stabilizer.append(reps)
        return reps

    def mutated(reps, js):
        out = original(reps, js)
        if current[-1] == sigma and reps is stabilizer[-1]:
            (a, b), *rest = out[x]
            out[x] = ((a, next(k for k in js if k != b)), *rest)
        return out

    monkeypatch.setattr(verify, "get_evaluator", evaluator)
    monkeypatch.setattr(verify, "_coset_products", coset_products)
    monkeypatch.setattr(verify, "_operators", mutated)
    checks = verify.realization_suite(seed=11, q=3, r=2)
    assert len(checks) == 6
    assert [c.name for c in checks if not c.ok] == [f"GL_2(F_3) stabilizer model orbit {sigma.orbit[0]}"]


def test_suite_multiplies_no_matrix_of_cyclotomic_numbers(monkeypatch):
    """The suites that check the Bessel model work over numbered values; the
    cyclotomic helpers of bessel are only the tests' reference."""
    def refuse(*args):
        raise AssertionError("a cyclotomic matrix helper or hankel_check was called")

    for module in (verify, bessel):
        for name in ("hankel_check", "mat_trace", "mat_mul", "mat_eq"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for suite, q, r, n_checks in (
        ("realization", None, None, 10),
        ("bessel", 3, 2, 18),
        ("bessel", 2, 3, 10),
        ("vanishing", None, None, 13),
    ):
        checks = verify.SUITES[suite](q=q, r=r)
        assert len(checks) == n_checks and all(c.ok for c in checks)

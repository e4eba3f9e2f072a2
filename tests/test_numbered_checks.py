"""The numbered checks of the bessel, realization and vanishing suites against
the same checks over cyclotomic numbers.

``verify._Numbers`` numbers the distinct values of one cuspidal's tables and
compares sums and products of them as integers.  Its reference is the
arithmetic of :class:`cuspeps.cyclo.CycloNumber`: ``bessel.hankel_check``,
``mat_trace`` and ``*`` with ``==`` one comparison at a time, and
:class:`CycloTable` below, the same interface with every number the value
itself, for whole suites.
"""

import random
from fractions import Fraction

import pytest

from cuspeps import verify
from cuspeps.bessel import get_evaluator, hankel_check, mat_eq, mat_mul, mat_trace, operator_L
from cuspeps.cusp import list_cuspidals
from cuspeps.cyclo import UNIT, dot, root_of_unity, zero
from cuspeps.ffield import ZERO, AdditiveChar
from cuspeps.glq import FULL, MIRABOLIC, STABILIZER, UNIPOTENT, gl_group, row_product


class CycloTable:
    """``verify._Numbers`` with each value its own number: every sum and
    product is formed and compared as a cyclotomic number."""

    def __init__(self, values):
        pass

    def __call__(self, x):
        return x

    def is_sum(self, ns, k):
        return sum(ns, zero()) == k

    def is_product_sum(self, pairs, k):
        return dot((UNIT, a, b) for a, b in pairs) == k

    def agree(self, a, b, c):
        return mat_eq(mat_mul(a, b), c)


def _setup(q, r):
    group = gl_group(q, r)
    return group, AdditiveChar(group.field, 0), group.elements(FULL)


def _pairs(q, r, elems):
    """Every pair of GL_2(F_3) and of the small edge groups, 300 sampled pairs otherwise."""
    if len(elems) <= 48:
        return [(g1, g2) for g1 in elems for g2 in elems]
    rng = random.Random(q * 10 + r)
    return [(rng.choice(elems), rng.choice(elems)) for _ in range(300)]


# a wrong J value inside the table's field, and one that widens its order
FAULTS = {"plus_one": lambda x: x + 1, "plus_zeta7": lambda x: x + root_of_unity(7, 1)}


def _plant(monkeypatch, ev, rows, fault):
    """J at ``rows`` made wrong in the evaluator's dict, undone after the test.

    J is first computed over all of G: a value computed later from a wrong
    J(n) at a monomial n would stay wrong in the shared evaluator."""
    for g in ev.sigma.group.elements(FULL):
        ev(g.rows)
    monkeypatch.setitem(ev._cache, rows, FAULTS[fault](ev(rows)))


GROUPS = [(3, 2), (2, 3), (2, 1), (2, 2), (4, 2)]


@pytest.mark.parametrize("q,r", GROUPS)
@pytest.mark.parametrize("kind", [MIRABOLIC, STABILIZER])
def test_numbered_hankel_sum_equals_hankel_check(monkeypatch, q, r, kind):
    """With one J value wrong, so that some sums fail, _hankel gives
    hankel_check's answer at every pair of GL_2(F_3) and of the edge groups
    and at sampled pairs of the others."""
    group, psi, elems = _setup(q, r)
    els = verify._Elements(group)
    reps = verify._coset_products(els, group, kind)
    outcomes = set()
    for sigma in list_cuspidals(group):
        ev = get_evaluator(sigma, psi)
        if len(elems) > 1:
            _plant(monkeypatch, ev, elems[len(elems) // 3].rows, sorted(FAULTS)[sigma.exponent % 2])
        _, nums, js = verify._bessel_numbers(ev, els)
        for g1, g2 in _pairs(q, r, elems):
            want = hankel_check(sigma, psi, g1, g2, kind)
            assert verify._hankel(nums, js, els, reps, els.number[g1.rows], els.number[g2.rows]) is want
            outcomes.add(want)
    assert outcomes == ({True, False} if len(elems) > 1 else {True})


@pytest.mark.parametrize("q,r", GROUPS)
@pytest.mark.parametrize("kind", [MIRABOLIC, STABILIZER])
def test_numbered_trace_equals_mat_trace(q, r, kind):
    """The sum of the diagonal numbers of L(g) is value chi(h) exactly when
    mat_trace(L(g)) == chi(h), for h = g (true) and h a fixed other element."""
    group, psi, elems = _setup(q, r)
    other = elems[-1]
    for sigma in list_cuspidals(group):
        ev = get_evaluator(sigma, psi)
        chis = [sigma.char_at(g) for g in elems]
        nums = verify._Numbers([ev(g.rows) for g in elems] + chis)
        for g, chi in zip(elems, chis):
            a = operator_L(sigma, psi, g, kind)
            diag = [nums(a[i][i]) for i in range(len(a))]
            assert nums.is_sum(diag, nums(chi)) is (mat_trace(a) == chi) is True
            assert nums.is_sum(diag, nums(sigma.char_at(other))) is (mat_trace(a) == sigma.char_at(other))


@pytest.mark.parametrize("q,r", GROUPS)
def test_numbered_equivariance_equals_cyclotomic_products(q, r):
    """For J(x g) and J(g x) against psi_U(u) J(g) (x = u) and theta(z) J(g)
    (x = z I), and against a factor of another u or z, the numbered product
    check gives the answer of ``*`` and ``==``."""
    group, psi, elems = _setup(q, r)
    prod = row_product(group.field, r)
    unip = [(u.rows, group.psi_u(u, psi)) for u in group.elements(UNIPOTENT)]
    rng = random.Random(q * 10 + r)
    outcomes = set()
    for sigma in list_cuspidals(group):
        ev = get_evaluator(sigma, psi)
        scalars = [
            (tuple(tuple(z if i == j else ZERO for j in range(r)) for i in range(r)), sigma.central_value(z))
            for z in range(q - 1)
        ]
        factors = unip + scalars
        nums = verify._Numbers([ev(g.rows) for g in elems] + [f for _, f in factors])
        for g in rng.sample(elems, min(40, len(elems))):
            jg = ev(g.rows)
            for x, f in factors:
                for wrong in (f, rng.choice(factors)[1]):
                    for h in (prod(x, g.rows), prod(g.rows, x)):
                        want = wrong * jg == ev(h)
                        assert nums.is_product_sum(((nums(wrong), nums(jg)),), nums(ev(h))) is want
                        outcomes.add(want)
    assert True in outcomes
    assert False in outcomes or q == 2 and r < 3  # psi_U and theta are trivial on GL_1(F_2), GL_2(F_2)


def _values(rng):
    m = rng.choice((1, 2, 3, 4, 7, 8, 12, 15))
    acc = zero()
    for _ in range(rng.randrange(4)):
        acc = acc + root_of_unity(m, rng.randrange(m)).scale(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
    return acc


def test_numbers_widen_for_a_later_value_of_another_order():
    """Values numbered after the table is written, of an order or denominator
    it does not cover, widen it; every sum and product still compares as
    over cyclotomic numbers."""
    rng = random.Random(5)
    for _ in range(40):
        values = [_values(rng) for _ in range(6)]
        nums = verify._Numbers(values[:2])
        ns = [nums(x) for x in values]
        assert nums.order % values[-1].m == 0 and nums.den % values[-1].den == 0
        for _ in range(20):
            i, j, k, l = (rng.randrange(6) for _ in range(4))
            assert nums.is_sum((ns[i], ns[j]), ns[k]) is (values[i] + values[j] == values[k])
            assert nums.is_sum((ns[i],), ns[k]) is (values[i] == values[k])
            pairs = ((ns[i], ns[j]), (ns[k], ns[l]))
            assert nums.is_product_sum(pairs, ns[k]) is (values[i] * values[j] + values[k] * values[l] == values[k])
            assert nums.is_product_sum(((ns[i], ns[j]),), nums(values[i] * values[j]))


def _lines(suite, q, r):
    return [c.line() for c in verify.SUITES[suite](seed=7, q=q, r=r)]


SUITES = ["bessel", "realization", "vanishing"]


@pytest.mark.parametrize("q,r", [(2, 1), (2, 2), (4, 2)])
@pytest.mark.parametrize("suite", SUITES)
def test_edge_groups_report_as_over_cyclotomic_numbers(monkeypatch, suite, q, r):
    """The groups that the suites reach only through an explicit --q/--r:
    GL_1(F_2) (one element), GL_2(F_2) (all J values rational) and GL_2(F_4)."""
    numbered = _lines(suite, q, r)
    monkeypatch.setattr(verify, "_Numbers", CycloTable)
    assert numbered == _lines(suite, q, r)
    assert all(line.startswith("[PASS]") for line in numbered)


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
@pytest.mark.parametrize("where", ["singer", "unipotent", "middle"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_planted_wrong_bessel_value_fails_as_over_cyclotomic_numbers(monkeypatch, q, r, where, fault):
    """One J value of the first cuspidal altered in its evaluator's dict: the
    bessel, realization and vanishing suites print the same lines, FAIL lines
    among them, as with every sum and product over cyclotomic numbers."""
    group, psi, elems = _setup(q, r)
    sigma = list_cuspidals(group)[0]
    ev = get_evaluator(sigma, psi)
    h = {"singer": group.singer_matrix(1), "unipotent": group.elements(UNIPOTENT)[1], "middle": elems[len(elems) // 3]}
    _plant(monkeypatch, ev, h[where].rows, fault)
    numbered = [line for suite in SUITES for line in _lines(suite, q, r)]
    monkeypatch.setattr(verify, "_Numbers", CycloTable)
    assert numbered == [line for suite in SUITES for line in _lines(suite, q, r)]
    orbit = sigma.orbit[0]
    for failed in (f"bessel: GL_{r}(F_{q}) Hankel identity orbit {orbit}",
                   f"realization: GL_{r}(F_{q}) stabilizer model orbit {orbit} ("):
        assert any(line.startswith("[FAIL] " + failed) for line in numbered)

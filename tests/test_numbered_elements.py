"""The element numbering of the bessel, realization and vanishing suites.

``verify._Elements`` numbers the elements of a group once, in
``elements(FULL)`` order, and forms products of element numbers with the
group's bound kernel.  Its references: ``Mat.__mul__`` for products,
``bessel.operator_L`` for the realization suite's table of L(g), and drawing
the elements themselves for the samples the suites draw as numbers.
"""

import random

import pytest

from cuspeps import verify
from cuspeps.bessel import get_evaluator, operator_L
from cuspeps.cusp import list_cuspidals
from cuspeps.ffield import AdditiveChar
from cuspeps.glq import FULL, MIRABOLIC, STABILIZER, UNIPOTENT, gl_group


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
@pytest.mark.parametrize("seed", [11, 22, 33, 44])
def test_number_draws_pick_the_element_draws(q, r, seed):
    """rng.sample(range(n), k) and rng.randrange(n) pick the positions that
    rng.sample(elems, k) and rng.choice(elems) pick, and leave the generator
    in the same state, so every report drawn by number is the one drawn by
    element."""
    elems = list(gl_group(q, r).elements(FULL))
    n = len(elems)
    by_element, by_number = random.Random(seed), random.Random(seed)
    for k in (min(150, n), min(50, n), n, 1):
        assert [elems[x] for x in by_number.sample(range(n), k)] == by_element.sample(elems, k)
        for _ in range(200):
            assert elems[by_number.randrange(n)] == by_element.choice(elems)
    assert by_number.getstate() == by_element.getstate()


def _pairs(elems):
    """Every pair of GL_2(F_3), 300 sampled pairs of a larger group."""
    n = len(elems)
    if n <= 48:
        return [(x, y) for x in range(n) for y in range(n)]
    rng = random.Random(n)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
def test_products_by_number_equal_mat_products(q, r):
    """mul, left and right give the numbers of the Mat products, at a first
    read and at a repeated one."""
    group = gl_group(q, r)
    elems = group.elements(FULL)
    els = verify._Elements(group)
    assert [els.rows[x] for x in range(len(elems))] == [g.rows for g in elems]
    assert all(els.number[g.rows] == x for x, g in enumerate(elems))
    pairs = _pairs(elems)
    for x, y in pairs:
        assert els.mul(x, y) == els.number[(elems[x] * elems[y]).rows]
    factors = sorted({x for x, _ in pairs[:40]})
    left, right = els.left(factors), els.right(factors)
    for _, y in pairs * 2:
        assert left[y] == tuple(els.number[(elems[f] * elems[y]).rows] for f in factors)
        assert right[y] == tuple(els.number[(elems[y] * elems[f]).rows] for f in factors)


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
def test_kept_products_are_each_formed_once(q, r):
    """Counted at the bound kernel: left and right form f g or g f for every
    factor f at the first read of g, in the order read, and no product twice
    however often it is read; mul forms one product per call."""
    group = gl_group(q, r)
    els = verify._Elements(group)
    calls = []
    kernel = els._prod

    def counted(a, b):
        calls.append((a, b))
        return kernel(a, b)

    els._prod = counted
    n, rows = len(els.rows), els.rows
    factors = random.Random(n).sample(range(n), 5)
    left, right = els.left(factors), els.right(factors)
    assert calls == []
    rng = random.Random(q + r)
    first, reads = {}, 0
    for _ in range(3 * n):
        g = rng.randrange(n)
        for side, memo in (("left", left), ("right", right)):
            if rng.random() < 0.5:
                want = [(rows[f], rows[g]) if side == "left" else (rows[g], rows[f]) for f in factors]
                assert [rows[x] for x in memo[g]] == [kernel(a, b) for a, b in want]
                first.setdefault((side, g), want)
                reads += 1
    assert calls == [pair for pairs in first.values() for pair in pairs]
    assert len(first) < reads
    els.mul(1, 2)
    assert len(calls) == len(factors) * len(first) + 1


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3), (4, 2)])
def test_entries_through_j_are_operator_l(q, r):
    """The realization suite's L(g), its entries as element numbers read
    through J, is bessel.operator_L at every g, for both kinds and every
    cuspidal; so are the suite's matrices of value numbers."""
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    elems = group.elements(FULL)
    els = verify._Elements(group)
    for kind in (MIRABOLIC, STABILIZER):
        reps = verify._coset_products(els, group, kind)
        for sigma in list_cuspidals(group):
            ev = get_evaluator(sigma, psi)
            values, nums, js = verify._bessel_numbers(ev, els)
            ls = verify._operators(reps, js)
            assert len(ls) == len(elems)
            for x, g in enumerate(elems):
                want = operator_L(sigma, psi, g, kind)
                entries = verify._entries(reps, x)
                assert tuple(tuple(ev(els.rows[y]) for y in row) for row in entries) == want
                assert all(nums.is_sum((k,), js[y]) for a, b in zip(ls[x], entries) for k, y in zip(a, b))


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
@pytest.mark.parametrize("where", ["in U", "off U"])
def test_support_check_reads_each_cuspidal_at_the_shared_elements(monkeypatch, q, r, where):
    """The support check's group side (which elements of M lie in U, and
    their psi_U) is built once for all cuspidals: J planted wrong at one
    element of the mirabolic, in U or off it, fails the support line of that
    cuspidal only."""
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    in_u = where == "in U"
    m = next(m for m in group.iterate(MIRABOLIC) if group.contains(UNIPOTENT, m) is in_u and m != group.identity())
    cusps = list_cuspidals(group)
    ev = get_evaluator(cusps[-1], psi)
    for g in group.elements(FULL):
        ev(g.rows)
    monkeypatch.setitem(ev._cache, m.rows, ev(m.rows) + 1)
    failed = [c.name for c in verify.bessel_suite(seed=11, q=q, r=r) if not c.ok and "support" in c.name]
    assert failed == [f"GL_{r}(F_{q}) support on U orbit {cusps[-1].orbit[0]}"]

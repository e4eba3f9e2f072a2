"""The element numbering of the bessel, realization and vanishing suites.

``verify._elements(group)`` is the one ``verify._Elements`` of a group in the
process: it numbers the elements once, in ``elements(FULL)`` order, forms
products of element numbers with the group's bound kernel, and keeps the
inverses and the families of products by fixed factors.  Its references:
``Mat.__mul__`` for products, ``Mat.inv`` for inverses, ``bessel.operator_L``
for the realization suite's table of L(g), and drawing the elements
themselves for the samples the suites draw as numbers.
"""

import collections
import random
import subprocess
import sys

import pytest

from cuspeps import verify
from cuspeps.bessel import get_evaluator, operator_L
from cuspeps.cusp import list_cuspidals
from cuspeps.ffield import AdditiveChar
from cuspeps.glq import FULL, MIRABOLIC, STABILIZER, UNIPOTENT, Mat, gl_group


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


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)])
def test_products_by_number_equal_mat_products(q, r):
    """The accessor gives one numbering per group; mul, left and right give
    the numbers of the Mat products, at a first read and at a repeated one,
    and one factor tuple has one family per side; inverse gives the number
    of each element's Mat.inv, whatever order the elements are read in."""
    group = gl_group(q, r)
    elems = group.elements(FULL)
    els = verify._elements(group)
    assert verify._elements(group) is els
    assert [els.rows[x] for x in range(len(elems))] == [g.rows for g in elems]
    assert all(els.number[g.rows] == x for x, g in enumerate(elems))
    assert els.rows[els.one] == group.identity().rows
    pairs = _pairs(elems)
    for x, y in pairs:
        assert els.mul(x, y) == els.number[(elems[x] * elems[y]).rows]
    factors = tuple(sorted({x for x, _ in random.Random(len(elems)).sample(pairs, min(40, len(pairs)))}))
    left, right = els.left(factors), els.right(factors)
    assert els.left(tuple(factors)) is left and els.right(tuple(list(factors))) is right
    assert left is not right
    for _, y in pairs * 2:
        assert left[y] == tuple(els.number[(elems[f] * elems[y]).rows] for f in factors)
        assert right[y] == tuple(els.number[(elems[y] * elems[f]).rows] for f in factors)
    order = list(range(len(elems)))
    random.Random(q * 10 + r).shuffle(order)
    for x in order * 2:
        assert els.inverse(x) == els.number[elems[x].inv().rows]


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
def test_kept_products_are_each_formed_once(monkeypatch, q, r):
    """Counted at the bound kernel: left and right form f g or g f for every
    factor f at the first read of g in the process, in the order read, and
    no product twice however often it is read; mul forms one product per
    call."""
    group = gl_group(q, r)
    els = verify._elements(group)
    calls = []
    kernel = els._prod

    def counted(a, b):
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(els, "_prod", counted)
    n, rows = len(els.rows), els.rows
    factors = tuple(random.Random(n).sample(range(n), 5))
    left, right = els.left(factors), els.right(factors)
    assert calls == []
    rng = random.Random(q + r)
    # an element read earlier in the process (by another test with these factors) forms nothing here
    first = {("left", g): () for g in left} | {("right", g): () for g in right}
    reads = 0
    for _ in range(3 * n):
        g = rng.randrange(n)
        for side, memo in (("left", left), ("right", right)):
            if rng.random() < 0.5:
                want = [(rows[f], rows[g]) if side == "left" else (rows[g], rows[f]) for f in factors]
                assert [rows[x] for x in memo[g]] == [kernel(a, b) for a, b in want]
                first.setdefault((side, g), want)
                reads += 1
    assert calls == [pair for pairs in first.values() for pair in pairs]
    formed = sum(1 for pairs in first.values() if pairs)
    assert 0 < formed < reads
    els.mul(1, 2)
    assert len(calls) == len(factors) * formed + 1


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3), (4, 2)])
def test_entries_through_j_are_operator_l(q, r):
    """The realization suite's L(g), its entries as element numbers read
    through J, is bessel.operator_L at every g, for both kinds and every
    cuspidal; so are the suite's matrices of value numbers."""
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    elems = group.elements(FULL)
    els = verify._elements(group)
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


def _counting(counts, name, f):
    def counted(*args, **kwargs):
        counts[name] += 1
        return f(*args, **kwargs)

    return counted


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
def test_second_vanishing_run_forms_nothing_again(monkeypatch, q, r):
    """The numbering, its inverses, the families and their products are kept
    for the process: a second vanishing run with the same seed numbers no
    group, builds no family, forms no product by a family, calls no Mat.inv
    and reports the same lines."""
    first = [c.line() for c in verify.vanishing_suite(seed=11, q=q, r=r)]
    counts = collections.Counter()
    kept = ((verify._Elements, "__init__"), (verify._Products, "__init__"), (verify._Products, "__missing__"), (Mat, "inv"))
    for owner, name in kept:
        monkeypatch.setattr(owner, name, _counting(counts, f"{owner.__name__}.{name}", getattr(owner, name)))
    assert [c.line() for c in verify.vanishing_suite(seed=11, q=q, r=r)] == first
    assert counts == {}


def test_model_suites_find_no_inverse_by_row_reduction():
    """In a fresh process the bessel, realization and vanishing suites read
    every inverse from the numbering: neither Mat.inv nor
    GLGroup.coset_rep_inverses is called."""
    script = """
import collections
from cuspeps import glq, verify
counts = collections.Counter()
for owner, name in ((glq.Mat, "inv"), (glq.GLGroup, "coset_rep_inverses")):
    def counted(*args, _f=getattr(owner, name), _name=name):
        counts[_name] += 1
        return _f(*args)
    setattr(owner, name, counted)
for suite in ("bessel", "realization", "vanishing"):
    assert all(c.ok for c in verify.SUITES[suite](seed=5, q=3, r=2))
print(dict(counts))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    assert out == "{}\n"

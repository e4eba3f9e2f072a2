import collections
import itertools
import random

import pytest

from cuspeps.bessel import (
    BesselEvaluator,
    bessel_value,
    build_table,
    contragredient_table,
    get_evaluator,
    hankel_check,
    mat_eq,
    mat_mul,
    mat_trace,
    operator_L,
)
from cuspeps.cyclo import UNIT, dot, one
from cuspeps.cusp import contragredient, induced_psi_character, list_cuspidals
from cuspeps.epsilon import gauss_pair_sum
from cuspeps.ffield import ZERO, AdditiveChar, build_field
from cuspeps.glq import FULL, MIRABOLIC, SINGER, STABILIZER, UNIPOTENT, GLGroup, Mat, gl_group


def _setup(q, r):
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    return group, psi, list_cuspidals(group)


def test_value_at_identity():
    for q, r in ((2, 2), (3, 2), (2, 3)):
        group, psi, cusps = _setup(q, r)
        for sigma in cusps:
            assert bessel_value(sigma, psi, group.identity()) == 1


def test_values_on_unipotent():
    group, psi, cusps = _setup(3, 2)
    for sigma in cusps:
        for u in group.elements(UNIPOTENT):
            assert bessel_value(sigma, psi, u) == group.psi_u(u, psi)


def test_gl2f2_bessel_is_sign_character():
    group, psi, cusps = _setup(2, 2)
    sigma = cusps[0]
    for g in group.elements(FULL):
        assert bessel_value(sigma, psi, g) == sigma.char_at(g)


def test_field_mismatch_rejected():
    group, psi, cusps = _setup(3, 2)
    other = gl_group(2, 2)
    with pytest.raises(ValueError):
        bessel_value(cusps[0], psi, other.identity())
    with pytest.raises(ValueError):
        get_evaluator(cusps[0], AdditiveChar(other.field, 0))
    with pytest.raises(ValueError):
        get_evaluator(cusps[0], AdditiveChar(group.field, ZERO))


def test_bessel_values_cache_one_direct_sum_per_monomial(monkeypatch):
    """A table over GL_3(F_2) runs the sum over U once per monomial that a
    Bruhat cell reaches, and a second table none; J(n) is kept as direct(n)."""
    group, psi, cusps = _setup(2, 3)
    ev = BesselEvaluator(cusps[0], psi)
    direct, calls = BesselEvaluator.direct, []
    monkeypatch.setattr(BesselEvaluator, "direct", lambda self, g: calls.append(g) or direct(self, g))
    first = {g.rows: ev(g.rows) for g in group.iterate(FULL)}
    monomials = {group.bruhat_cell(g.rows)[0] for g in group.iterate(FULL)}
    assert len(monomials) == 6 and len(calls) == 6 and set(calls) == monomials
    calls.clear()
    assert {g.rows: ev(g.rows) for g in group.iterate(FULL)} == first
    assert calls == []
    for n in monomials:
        value = direct(ev, n)
        assert first[n] == value and first[n].m == value.m


def test_memo_hits_hash_no_matrix(monkeypatch):
    """A repeated class key or J value is found by the element's rows, which
    hash in C, without Mat.__hash__ or Mat.__eq__."""
    group, psi, cusps = _setup(3, 2)
    ev = BesselEvaluator(cusps[0], psi)
    elems = group.elements(FULL)[::7]
    keys = [group.class_key(g) for g in elems]
    values = [ev(g.rows) for g in elems]

    def refuse(*args):
        raise AssertionError("a memo lookup hashed or compared a Mat")

    monkeypatch.setattr(Mat, "__hash__", refuse)
    monkeypatch.setattr(Mat, "__eq__", refuse)
    assert [group.class_key(g) for g in elems] == keys
    again = [ev(g.rows) for g in elems]
    assert all(x == y and x.m == y.m for x, y in zip(again, values))


def test_sums_on_rows_build_no_matrix(monkeypatch):
    """Once a group's subgroups and coset representatives are built, J by the
    sum over U and by Bruhat cell, the induced character of a new (group,
    kind, psi, g) and the Gauss pair sum construct and multiply no Mat."""
    group = GLGroup(build_field(3, 1), 3)  # built here, so no memo holds its values
    psi = AdditiveChar(group.field, 1)
    sigma1, sigma2 = list_cuspidals(group)[:2]
    group.elements(UNIPOTENT)
    group.coset_rep_inverses(MIRABOLIC)
    group.class_key(group.identity())  # the primary charpolys, read off Singer matrices
    ev = BesselEvaluator(sigma1, psi)
    g, m = group.singer_matrix(5), group.elements(MIRABOLIC)[100]

    def refuse(*args):
        raise AssertionError("a Mat was built")

    monkeypatch.setattr(Mat, "__init__", refuse)
    monkeypatch.setattr(Mat, "__mul__", refuse)
    direct, value = ev.direct(g.rows), ev(g.rows)
    induced = induced_psi_character(group, MIRABOLIC, psi, m)
    pair_sum = gauss_pair_sum(sigma1, sigma2, psi)
    monkeypatch.undo()
    assert direct == value and not value.is_zero()
    assert induced == sigma1.char_at(m)  # the restriction of a cuspidal to M is Ind_U^M psi_U
    shared = gl_group(3, 3)
    assert pair_sum == gauss_pair_sum(*list_cuspidals(shared)[:2], AdditiveChar(shared.field, 1))


def test_get_evaluator_is_one_per_pair():
    """Equal cuspidals from separate listings share one evaluator; another shift gets its own."""
    group, psi, cusps = _setup(3, 2)
    again = list_cuspidals(group)
    assert again[0] is not cusps[0]
    ev = get_evaluator(cusps[0], psi)
    assert get_evaluator(again[0], AdditiveChar(group.field, 0)) is ev
    assert get_evaluator(cusps[1], psi) is not ev
    other = get_evaluator(cusps[0], AdditiveChar(group.field, 1))
    assert other is not ev and other.psi.a == 1
    assert get_evaluator(again[0], AdditiveChar(group.field, 1)) is other


def test_two_sided_equivariance():
    """ev(u g) = ev(g u) = psi_U(u) J(g), with J(g) from the sum over U (ev holds it by construction)."""
    group, psi, cusps = _setup(3, 2)
    rng = random.Random(2)
    elems = group.elements(FULL)
    for sigma in cusps:
        ev = get_evaluator(sigma, psi)
        for _ in range(100):
            g = rng.choice(elems)
            jg = ev.direct(g.rows)
            for u in group.elements(UNIPOTENT):
                pu = group.psi_u(u, psi)
                assert ev((u * g).rows) == pu * jg
                assert ev((g * u).rows) == pu * jg


def test_central_equivariance():
    group, psi, cusps = _setup(3, 2)
    for sigma in cusps:
        ev = get_evaluator(sigma, psi)
        for z in range(group.q - 1):
            zmat = Mat(group.field, [[z, ZERO], [ZERO, z]])
            for g in group.elements(FULL)[:24]:
                assert ev((zmat * g).rows) == sigma.central_value(z) * ev(g.rows)


def test_build_table_domains():
    group, psi, cusps = _setup(3, 2)
    sigma = cusps[0]
    t_u = build_table(sigma, psi, UNIPOTENT)
    assert all(val == group.psi_u(g, psi) for g, val in t_u.items())
    t_m = build_table(sigma, psi, MIRABOLIC)
    for g, val in t_m.items():
        assert val.is_zero() != group.contains(UNIPOTENT, g)
    t_s = build_table(sigma, psi, STABILIZER)
    for g, val in t_s.items():
        assert val.is_zero() != group.contains(UNIPOTENT, g)
    t_full = build_table(sigma, psi, FULL)
    assert len(t_full) == 48


def test_model_space_dimension():
    for q, r in ((3, 2), (2, 3)):
        group = gl_group(q, r)
        for kind in (MIRABOLIC, STABILIZER):
            assert len(group.coset_reps(kind)) == list_cuspidals(group)[0].dim()
    group, psi, cusps = _setup(3, 2)
    for kind in (SINGER, FULL):
        with pytest.raises(ValueError):
            operator_L(cusps[0], psi, group.identity(), kind)


def test_operator_identity_and_trace():
    group, psi, cusps = _setup(3, 2)
    for sigma in cusps:
        lid = operator_L(sigma, psi, group.identity(), MIRABOLIC)
        for i, row in enumerate(lid):
            for j, v in enumerate(row):
                assert v == (1 if i == j else 0)
        for g in group.elements(FULL):
            assert mat_trace(operator_L(sigma, psi, g, MIRABOLIC)) == sigma.char_at(g)


def test_operator_multiplicative():
    group, psi, cusps = _setup(2, 3)
    sigma = cusps[0]
    rng = random.Random(4)
    elems = group.elements(FULL)
    tables = {g: operator_L(sigma, psi, g, MIRABOLIC) for g in elems}
    for _ in range(200):
        g1, g2 = rng.choice(elems), rng.choice(elems)
        assert mat_eq(mat_mul(tables[g1], tables[g2]), tables[g1 * g2])


def test_pairing_entry_recovers_bessel():
    group, psi, cusps = _setup(3, 2)
    for sigma in cusps:
        ev = get_evaluator(sigma, psi)
        for g in group.elements(FULL):
            assert operator_L(sigma, psi, g, STABILIZER)[0][0] == ev(g.rows)


def test_hankel_identity():
    group, psi, cusps = _setup(2, 2)
    sigma = cusps[0]
    elems = group.elements(FULL)
    for g1 in elems:  # exhaustive: 36 pairs
        for g2 in elems:
            assert hankel_check(sigma, psi, g1, g2, MIRABOLIC)
    group, psi, cusps = _setup(3, 2)
    rng = random.Random(6)
    elems = group.elements(FULL)
    for sigma in cusps:
        for _ in range(100):
            g = rng.choice(elems)
            assert hankel_check(sigma, psi, g, g.inv(), STABILIZER)


def test_hankel_check_reuses_coset_inverses(monkeypatch):
    group, psi, cusps = _setup(3, 2)
    sigma = cusps[0]
    g1, g2 = group.singer_matrix(1), group.singer_matrix(2)
    assert hankel_check(sigma, psi, g1, g2, MIRABOLIC)  # warms the caches
    calls = []
    original = Mat.inv

    def counting_inv(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Mat, "inv", counting_inv)
    for _ in range(3):
        assert hankel_check(sigma, psi, g1, g2, MIRABOLIC)
    assert calls == []


def _operator_L_by_mats(sigma, psi, g, kind):
    """L(g)[i][j] = J(c_i g c_j^-1) with every product formed as a Mat."""
    group, ev = sigma.group, get_evaluator(sigma, psi)
    inverses = group.coset_rep_inverses(kind)
    return tuple(tuple(ev((ci * g * cj_inv).rows) for cj_inv in inverses) for ci in group.coset_reps(kind))


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
def test_rows_sums_match_mat_formulas(q, r):
    """operator_L and hankel_check, which multiply bare rows, agree with the
    same formulas over Mat products at every element of the group."""
    group, psi, cusps = _setup(q, r)
    elems = group.elements(FULL)
    partners = (group.identity(), elems[len(elems) // 3], group.singer_matrix(1))
    for sigma in cusps:
        ev = get_evaluator(sigma, psi)
        for kind in (MIRABOLIC, STABILIZER):
            pairs = list(zip(group.coset_reps(kind), group.coset_rep_inverses(kind)))
            for g in elems:
                assert operator_L(sigma, psi, g, kind) == _operator_L_by_mats(sigma, psi, g, kind)
                for h in partners:
                    lhs = dot((UNIT, ev((g * c_inv).rows), ev((c * h).rows)) for c, c_inv in pairs)
                    assert hankel_check(sigma, psi, g, h, kind) == (lhs == ev((g * h).rows)) is True


@pytest.mark.parametrize("kind", [FULL, UNIPOTENT, SINGER, "bogus"])
def test_hankel_check_refuses_kinds_without_a_model(kind):
    """Only the mirabolic and the stabilizer carry the model space; any other
    kind raises the error of operator_L instead of summing over its cosets."""
    group, psi, cusps = _setup(3, 2)
    with pytest.raises(ValueError, match="the model space lives on the mirabolic or the stabilizer"):
        hankel_check(cusps[0], psi, group.identity(), group.singer_matrix(1), kind)


def test_matrices_of_another_group_are_refused():
    """A GL_2(F_4) or GL_3(F_3) matrix given with a GL_2(F_3) cuspidal raises
    instead of giving wrong values (L, the Hankel sum) or an error from deep inside."""
    group, psi, cusps = _setup(3, 2)
    sigma, g = cusps[0], group.singer_matrix(1)
    for other in (gl_group(4, 2).singer_matrix(1), gl_group(3, 3).identity()):
        with pytest.raises(ValueError, match=r"not in GL_2\(F_3\)"):
            operator_L(sigma, psi, other, STABILIZER)
        for g1, g2 in ((other, g), (g, other)):
            with pytest.raises(ValueError, match=r"not in GL_2\(F_3\)"):
                hankel_check(sigma, psi, g1, g2, MIRABOLIC)


def test_mat_helpers_refuse_mismatched_shapes():
    group, psi, cusps = _setup(3, 2)
    small, big = ((one(),),), operator_L(cusps[0], psi, group.identity(), STABILIZER)
    assert len(big) == 2 and mat_eq(big, big) and mat_mul(small, small) == small
    for a, b in ((small, big), (big, small)):
        with pytest.raises(ValueError):
            mat_eq(a, b)
        with pytest.raises(ValueError):
            mat_mul(a, b)
    assert mat_trace(small) == 1 and mat_trace(big) == 2
    for ragged in (((one(),) * 3,) * 2, ((one(),),) * 2):  # 2x3 and 2x1
        with pytest.raises(ValueError, match="square"):
            mat_trace(ragged)


def test_contragredient_table():
    group, psi, cusps = _setup(3, 2)
    sigma = cusps[0]
    table = build_table(sigma, psi, FULL)
    dual = contragredient_table(table)
    dual_direct = build_table(contragredient(sigma), psi.conjugate(), FULL)
    assert list(dual) == list(table)
    for g in table:
        assert dual[g] == table[g.inv()]
        assert dual[g] == table[g].conjugate()
        assert dual[g] == dual_direct[g]


def test_contragredient_table_requires_closed_domain():
    group, psi, cusps = _setup(3, 2)
    sigma = cusps[0]
    g = group.singer_matrix(1)
    partial = {g: bessel_value(sigma, psi, g)}
    with pytest.raises(ValueError):
        contragredient_table(partial)


def _monomials(group):
    """Every monomial matrix t*w of the group, with the column of each row's entry."""
    r = group.r
    for perm in itertools.permutations(range(r)):
        for scalars in itertools.product(range(group.q - 1), repeat=r):
            rows = [[scalars[i] if c == perm[i] else ZERO for c in range(r)] for i in range(r)]
            yield Mat(group.field, rows), perm


@pytest.mark.parametrize("q,r", [(3, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4), (2, 5)])
def test_bessel_support(q, r):
    """Brute force over every monomial: J of every cuspidal vanishes off GLGroup.bessel_support."""
    group, psi, cusps = _setup(q, r)
    support = group.bessel_support()
    assert len(support) == (q - 1) * q ** (r - 1)
    inside = dict(support)
    assert len(inside) == len(support)  # each monomial once
    assert {Mat(group.field, n).inv().rows for n in inside} == set(inside)
    unipotent = [(group.psi_u_root(u.rows, psi), u.inv()) for u in group.elements(UNIPOTENT)]

    def scaled_j(g):
        """|U| J(g) for every cuspidal: sum over u of psi_U(u) chi(g u^-1), with the u
        grouped by the class of g u^-1, so each product is classified once for all cuspidals."""
        weights = collections.Counter((group.class_key(g * u_inv), root) for root, u_inv in unipotent)
        for sigma in cusps:
            yield dot((root, sigma.char_value(key).scale(count), None) for (key, root), count in weights.items())

    assert all(value == len(unipotent) for value in scaled_j(group.identity()))
    for n, perm in _monomials(group):
        if n.rows in inside:
            assert inside[n.rows] == sum(perm[i] > perm[j] for i, j in itertools.combinations(range(r), 2))
        else:
            assert all(value.is_zero() for value in scaled_j(n)), n


# -- J by Bruhat cell, against the sum over U ----------------------------------

CELL_GROUPS = [(2, 2, None), (3, 2, None), (4, 2, None), (5, 2, None), (2, 3, None), (3, 3, 300), (2, 4, 300)]


def _cell_elements(group, sample):
    elems = list(group.iterate(FULL))
    return elems if sample is None else random.Random(group.q * 10 + group.r).sample(elems, sample)


@pytest.mark.parametrize("q,r,sample", CELL_GROUPS)
def test_bruhat_cell_factors(q, r, sample):
    """n is one of the monomials, and some u1, u2 in U, found by search over U,
    give u1 * n * u2 == g with superdiagonals adding up to s."""
    group = gl_group(q, r)
    F = group.field
    monomials = {n.rows for n, _ in _monomials(group)}
    unipotent = [(u, u.inv(), _superdiagonal(F, u)) for u in group.elements(UNIPOTENT)]
    for g in _cell_elements(group, sample):
        n, s = group.bruhat_cell(g.rows)
        assert n in monomials
        n = Mat(F, n)
        n_inv = n.inv()
        factors = ((g * u2_inv * n_inv, u2, s2) for u2, u2_inv, s2 in unipotent)
        assert any(
            group.contains(UNIPOTENT, u1) and F.add(_superdiagonal(F, u1), s2) == s and u1 * n * u2 == g
            for u1, u2, s2 in factors
        ), g
    singular = Mat(F, [[ZERO] * r] + [[0 if i == j else ZERO for j in range(r)] for i in range(1, r)])
    with pytest.raises(ValueError, match="singular"):
        group.bruhat_cell(singular.rows)


def _superdiagonal(F, u):
    acc = ZERO
    for i in range(len(u.rows) - 1):
        acc = F.add(acc, u.rows[i][i + 1])
    return acc


@pytest.mark.parametrize("q,r,sample", CELL_GROUPS)
def test_cell_values_match_the_sum_over_u(q, r, sample):
    """Value and printed order equal the direct sum, zero values included, for
    two cuspidals and two shifts a (where F_q^x has two elements)."""
    group = gl_group(q, r)
    elems = _cell_elements(group, sample)
    zeros = 0
    for a in range(min(2, q - 1)):
        psi = AdditiveChar(group.field, a)
        for sigma in list_cuspidals(group)[:2]:
            ev = BesselEvaluator(sigma, psi)
            for g in elems:
                value, direct = ev(g.rows), ev.direct(g.rows)
                assert value.to_dict() == direct.to_dict(), g
                zeros += value.is_zero()
    assert zeros or (q, r) == (2, 2)  # J on GL_2(F_2) is the sign character

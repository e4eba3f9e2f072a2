import random
from fractions import Fraction

import pytest

from cuspeps.cyclo import one, zero
from cuspeps.cusp import (
    CuspidalRep,
    _restriction_matches,
    contragredient,
    gelfand_graev_mult,
    induced_psi_character,
    inner_product,
    list_cuspidals,
    mirabolic_restriction_check,
)
from cuspeps.ffield import ZERO, AdditiveChar, build_field
from cuspeps.glq import FULL, MIRABOLIC, GLGroup, Mat, gl_group


def test_cuspidal_counts():
    assert [s.orbit for s in list_cuspidals(gl_group(2, 2))] == [(1, 2)]
    assert [s.orbit for s in list_cuspidals(gl_group(3, 2))] == [(1, 3), (2, 6), (5, 7)]
    assert [s.orbit for s in list_cuspidals(gl_group(2, 1))] == [(0,)]
    assert len(list_cuspidals(gl_group(2, 3))) == 2


def test_irregular_exponent_rejected():
    with pytest.raises(ValueError):
        CuspidalRep(gl_group(3, 2), 4)


def test_dimensions():
    assert list_cuspidals(gl_group(2, 2))[0].dim() == 1
    assert list_cuspidals(gl_group(3, 2))[0].dim() == 2
    assert list_cuspidals(gl_group(2, 3))[0].dim() == 3
    for sigma in list_cuspidals(gl_group(3, 2)):
        assert sigma.char_at(sigma.group.identity()) == sigma.dim()


def test_character_values_gl2f2():
    group = gl_group(2, 2)
    sigma = list_cuspidals(group)[0]
    assert sigma.char_at(group.identity()) == 1
    u = Mat.from_ints(group.field, [[1, 1], [0, 1]])
    assert sigma.char_at(u) == -1
    assert sigma.char_at(group.singer_matrix(1)) == 1  # order-3 class of S_3


def test_character_values_gl3f2():
    group = gl_group(2, 3)
    sigma = list_cuspidals(group)[0]
    assert sigma.char_at(group.identity()) == 3
    value = sigma.char_at(group.singer_matrix(1))  # an order-7 element
    assert value * value + value + 2 == 0  # root of z^2 + z + 2


def test_character_vanishes_off_primary():
    group = gl_group(3, 2)
    sigma = list_cuspidals(group)[0]
    assert sigma.char_at(Mat.from_ints(group.field, [[1, 0], [0, 2]])).is_zero()


def test_contragredient():
    g31 = gl_group(3, 1)
    triv = list_cuspidals(g31)[0]
    assert contragredient(triv) == triv
    g = gl_group(3, 2)
    sigma = CuspidalRep(g, 1)
    assert contragredient(sigma).orbit == (5, 7)
    self_dual = list_cuspidals(gl_group(2, 2))[0]  # orbit {1,2}, -1 = 2 mod 3
    assert contragredient(self_dual) == self_dual


def test_contragredient_character_is_conjugate():
    group = gl_group(3, 2)
    rng = random.Random(1)
    for sigma in list_cuspidals(group):
        dual = contragredient(sigma)
        for _ in range(50):
            g = rng.choice(group.elements(FULL))
            assert dual.char_at(g) == sigma.char_at(g).conjugate()
            assert dual.char_at(g) == sigma.char_at(g.inv())


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (2, 3)])
def test_orthonormality(q, r):
    group = gl_group(q, r)
    cusps = list_cuspidals(group)
    tables = [s.char_table() for s in cusps]
    for i, ti in enumerate(tables):
        for j, tj in enumerate(tables):
            assert inner_product(ti, tj, group) == (1 if i == j else 0)


def test_inner_product_trivial_character():
    group = gl_group(3, 2)
    table = {key: one() for key in group.class_map()}
    assert inner_product(table, table, group) == 1


def test_inner_product_incomplete_table():
    group = gl_group(3, 2)
    table = {key: one() for key in list(group.class_map())[:-1]}
    with pytest.raises(ValueError):
        inner_product(table, table, group)


def test_central_character():
    group = gl_group(3, 2)
    for sigma in list_cuspidals(group):
        for z in range(group.q - 1):
            zmat = Mat(group.field, [[z, ZERO], [ZERO, z]])
            assert sigma.char_at(zmat) == sigma.central_value(z).scale(sigma.dim())


def test_conjugation_invariance():
    group = gl_group(3, 2)
    rng = random.Random(9)
    elems = group.elements(FULL)
    for sigma in list_cuspidals(group):
        for _ in range(200):
            g, h = rng.choice(elems), rng.choice(elems)
            assert sigma.char_at(h * g * h.inv()) == sigma.char_at(g)


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2)])
def test_mirabolic_restriction(q, r):
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    for sigma in list_cuspidals(group):
        assert mirabolic_restriction_check(sigma, psi)


def test_mirabolic_restriction_rejects_noncuspidal():
    group = gl_group(3, 2)
    psi = AdditiveChar(group.field, 0)
    assert not _restriction_matches(lambda m: one(), group, psi, MIRABOLIC)


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2)])
def test_gelfand_graev(q, r):
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    for sigma in list_cuspidals(group):
        assert gelfand_graev_mult(sigma, psi) == 1


def test_gelfand_graev_trivial_character_is_zero():
    group = gl_group(3, 2)
    psi = AdditiveChar(group.field, 0)
    acc = zero()
    for key, (count, rep) in group.class_map().items():
        acc = acc + induced_psi_character(group, FULL, psi, rep).scale(count)
    assert acc.scale(Fraction(1, group.order())).is_zero()


def test_degree_sum_bound():
    for q, r in ((2, 2), (3, 2), (2, 3)):
        group = gl_group(q, r)
        total = sum(s.dim() ** 2 for s in list_cuspidals(group))
        assert total < group.order()


def test_induced_character_is_computed_once_per_group_kind_psi(monkeypatch):
    group = gl_group(3, 2)
    psi = AdditiveChar(group.field, 0)
    first, *rest = list_cuspidals(group)
    assert mirabolic_restriction_check(first, psi)
    assert gelfand_graev_mult(first, psi) == 1
    products = []
    original = Mat.__mul__

    def counting_mul(self, other):
        products.append(self)
        return original(self, other)

    monkeypatch.setattr(Mat, "__mul__", counting_mul)
    for sigma in rest:
        assert mirabolic_restriction_check(sigma, psi)
        assert gelfand_graev_mult(sigma, psi) == 1
    assert products == []


def test_induced_psi_character_refuses_a_matrix_of_another_group():
    group = gl_group(3, 2)
    psi = AdditiveChar(group.field, 0)
    for m in (gl_group(4, 2).elements(FULL)[5], gl_group(3, 3).identity()):
        with pytest.raises(ValueError, match="not in GL_2"):
            induced_psi_character(group, MIRABOLIC, psi, m)


def test_induced_psi_checks_each_conjugate_once(monkeypatch):
    """One unipotent test per coset: psi_u_root trusts the filter before it."""
    group = GLGroup(build_field(2, 1), 3)
    calls = []
    has_leads = group.has_leads
    monkeypatch.setattr(group, "has_leads", lambda kind, rows: calls.append(kind) or has_leads(kind, rows))
    value = induced_psi_character(group, MIRABOLIC, AdditiveChar(group.field, 0), group.identity())
    reps = group.coset_reps(MIRABOLIC)
    assert value == one().scale(len(reps))
    assert len(calls) == len(reps)

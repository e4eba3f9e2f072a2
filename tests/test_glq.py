import random

import pytest

from cuspeps.cyclo import root_of_unity
from cuspeps.ffield import ZERO, AdditiveChar
from cuspeps.glq import (
    FULL,
    MIRABOLIC,
    NON_PRIMARY,
    SINGER,
    STABILIZER,
    UNIPOTENT,
    ClassKey,
    Mat,
    conjugate_partition,
    gl_group,
)


def test_subgroup_counts():
    g23 = gl_group(3, 2)
    assert sum(1 for _ in g23.iterate(UNIPOTENT)) == 3
    assert sum(1 for _ in g23.iterate(MIRABOLIC)) == 6
    g22 = gl_group(2, 2)
    assert sum(1 for _ in g22.iterate(FULL)) == 6


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 1), (2, 3)])
def test_group_order_formula(q, r):
    group = gl_group(q, r)
    assert len(group.elements(FULL)) == group.order()
    for kind in (UNIPOTENT, MIRABOLIC, STABILIZER, SINGER):
        assert sum(1 for _ in group.iterate(kind)) == group.subgroup_order(kind)


def test_enumeration_deterministic_and_unique():
    group = gl_group(3, 2)
    first = list(group.iterate(FULL))
    second = list(group.iterate(FULL))
    assert first == second
    assert len(set(first)) == len(first)


def test_iteration_bound():
    group = gl_group(5, 3)  # |GL_3(F_5)| is about 1.5 million
    with pytest.raises(ValueError):
        next(group.iterate(FULL))


def test_psi_u_values():
    g23 = gl_group(3, 2)
    psi = AdditiveChar(g23.field, 0)
    assert g23.psi_u(g23.identity(), psi) == 1
    u = Mat.from_ints(g23.field, [[1, 1], [0, 1]])
    assert g23.psi_u(u, psi) == root_of_unity(3, 1)
    g32 = gl_group(2, 3)
    psi2 = AdditiveChar(g32.field, 0)
    for c in (0, 1):
        u = Mat.from_ints(g32.field, [[1, 1, c], [0, 1, 1], [0, 0, 1]])
        assert g32.psi_u(u, psi2) == 1  # 1 + 1 = 0 in F_2
    with pytest.raises(ValueError):
        g23.psi_u(Mat.from_ints(g23.field, [[1, 0], [1, 1]]), psi)


def test_psi_u_homomorphism():
    group = gl_group(3, 2)
    psi = AdditiveChar(group.field, 0)
    unip = group.elements(UNIPOTENT)
    for u1 in unip:
        for u2 in unip:
            assert group.psi_u(u1 * u2, psi) == group.psi_u(u1, psi) * group.psi_u(u2, psi)


def test_class_keys_examples():
    g23 = gl_group(3, 2)
    F = g23.field
    assert g23.class_key(g23.identity()) == ClassKey(1, 0, (1, 1))
    assert g23.class_key(Mat.from_ints(F, [[1, 1], [0, 1]])) == ClassKey(1, 0, (2,))
    assert g23.class_key(Mat.from_ints(F, [[0, 2], [1, 0]])) == ClassKey(2, 2, (1,))
    assert g23.class_key(Mat.from_ints(F, [[1, 0], [0, 2]])) == NON_PRIMARY
    with pytest.raises(ValueError):
        g23.class_key(Mat.from_ints(F, [[1, 1], [1, 1]]))


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (2, 3)])
def test_class_key_is_class_function(q, r):
    group = gl_group(q, r)
    rng = random.Random(q * 10 + r)
    elems = group.elements(FULL)
    for _ in range(500):
        g, h = rng.choice(elems), rng.choice(elems)
        assert group.class_key(h * g * h.inv()) == group.class_key(g)


def test_singer_decomposition():
    g22 = gl_group(2, 2)
    x, h = g22.singer_decompose(g22.identity())
    assert x == 0 and h == g22.identity()
    for e in range(3):
        t = g22.singer_matrix(e)
        xt, ht = g22.singer_decompose(t)
        assert xt == e and ht == g22.identity()
    # exhaustive bijection check
    for q, r in ((2, 2), (3, 2), (2, 3)):
        group = gl_group(q, r)
        seen = set()
        for g in group.elements(FULL):
            x, h = group.singer_decompose(g)
            assert group.contains(STABILIZER, h)
            assert group.singer_matrix(x) * h == g
            seen.add((x, h.rows))
        assert len(seen) == group.order()


def test_singer_torus_is_multiplicative():
    group = gl_group(3, 2)
    n = group.big_field.q - 1
    for a in range(n):
        for b in range(n):
            assert group.singer_matrix(a) * group.singer_matrix(b) == group.singer_matrix((a + b) % n)


def test_coset_reps_counts():
    assert len(gl_group(3, 2).coset_reps(MIRABOLIC)) == 2
    assert len(gl_group(2, 2).coset_reps(FULL)) == 3
    # fixed by enumeration: |M| / |U| = 24 / 8 for GL_3(F_2)
    assert len(gl_group(2, 3).coset_reps(MIRABOLIC)) == 3
    with pytest.raises(ValueError):
        gl_group(3, 2).coset_reps(SINGER)


def test_coset_reps_partition():
    group = gl_group(3, 2)
    for kind in (FULL, MIRABOLIC, STABILIZER):
        reps = group.coset_reps(kind)
        assert reps[0] == group.identity()
        cosets = set()
        for rep in reps:
            for u in group.elements(UNIPOTENT):
                cosets.add(u * rep)
        assert len(cosets) == group.subgroup_order(kind)


def test_matrix_serialization():
    group = gl_group(3, 2)
    m = Mat.from_ints(group.field, [[0, 1], [2, 0]])
    assert m.serialize() == [["0", "g^0"], ["g^1", "0"]]  # 2 generates GF(3)^x


def test_matrix_inverse_and_det():
    group = gl_group(5, 2)
    rng = random.Random(0)
    elems = group.elements(FULL)
    for _ in range(100):
        g = rng.choice(elems)
        assert g * g.inv() == group.identity()
        assert g.det() != ZERO
    with pytest.raises(ValueError):
        Mat.from_ints(group.field, [[1, 1], [1, 1]]).inv()


def test_conjugate_partition():
    assert conjugate_partition([3, 1]) == (2, 1, 1)
    assert conjugate_partition([2, 2]) == (2, 2)
    assert conjugate_partition([1, 1, 1]) == (3,)
    assert conjugate_partition([]) == ()


def test_subgroup_spec():
    group = gl_group(3, 2)
    assert group.subgroup_order(MIRABOLIC) == 6
    assert sum(1 for _ in group.iterate(MIRABOLIC)) == 6
    assert group.contains(MIRABOLIC, Mat.from_ints(group.field, [[2, 1], [0, 1]]))
    assert not group.contains(MIRABOLIC, group.singer_matrix(1))
    with pytest.raises(ValueError):
        group.subgroup_order("borel")

import random
import time

import pytest

from cuspeps import cli
from cuspeps.cyclo import root_of_unity
from cuspeps.ffield import ZERO, AdditiveChar, subfield_embed
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
    poly_add,
    poly_eval,
    poly_mul,
    poly_pow,
    poly_trim,
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


def test_class_map_bound_raises_before_scanning(capsys):
    group = gl_group(5, 3)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over the bound"):
        group.class_map()
    assert time.perf_counter() - start < 0.5
    assert cli.main(["cuspidals", "--q", "5", "--r", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: subgroup full of GL_3(F_5) has 1488000 elements, over the bound 1000000\n"
    )


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


# -- independent classification oracle ------------------------------------
#
# Characteristic polynomial by full cofactor expansion of x*I - g, primary
# polynomial by trying every f^(r/d), Jordan type from the whole nullity
# sequence of f(g)^j with f(g) evaluated from the zero matrix.


def _oracle_poly_det(F, mat):
    if len(mat) == 1:
        return mat[0][0]
    acc = (ZERO,)
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = poly_mul(F, entry, _oracle_poly_det(F, minor))
        if j % 2:
            term = tuple(F.neg(c) for c in term)
        acc = poly_add(F, acc, term)
    return acc


def _oracle_charpoly(F, g):
    r = g.r
    return _oracle_poly_det(F, [
        [poly_trim([F.neg(g.rows[i][j])] + ([0] if i == j else [])) for j in range(r)]
        for i in range(r)
    ])


def _oracle_rank(F, rows):
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != ZERO), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != ZERO:
                f = F.div(rows[i][col], rows[rank][col])
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_blocks(group, g, f, d):
    F, r = group.field, group.r
    fg = Mat(F, [[ZERO] * r for _ in range(r)])
    for c in reversed(f):
        fg = fg * g
        fg = Mat(F, [[F.add(v, c) if i == j else v for j, v in enumerate(row)] for i, row in enumerate(fg.rows)])
    power, nullities = group.identity(), [0]
    while nullities[-1] < r // d:
        power = power * fg
        nullities.append((r - _oracle_rank(F, power.rows)) // d)
    return conjugate_partition([b - a for a, b in zip(nullities, nullities[1:])])


def _oracle_eigenvalue(group, f):
    ext = group.ext_field(len(f) - 1)
    coeffs = [subfield_embed(c, group.field, ext) for c in f]
    return min(e for e in range(ext.q - 1) if poly_eval(ext, coeffs, e) == ZERO)


def _oracle_classify(group, g):
    """(charpoly, class key) of g."""
    F, r = group.field, group.r
    cp = _oracle_charpoly(F, g)
    for d in range(1, r + 1):
        if r % d == 0:
            for f in group.irreducibles(d):
                if poly_pow(F, f, r // d) == cp:
                    return cp, ClassKey(d, _oracle_eigenvalue(group, f), _oracle_blocks(group, g, f, d))
    return cp, NON_PRIMARY


def _oracle_key(group, g):
    return _oracle_classify(group, g)[1]


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (2, 3), (3, 3)])
def test_classification_matches_oracle(q, r):
    group = gl_group(q, r)
    table = {}
    for g in group.elements(FULL):
        cp, key = _oracle_classify(group, g)
        assert group.charpoly(g) == cp
        assert group.class_key(g) == key
        slot = table.setdefault(key, [0, g])
        slot[0] += 1
    assert list(group.class_map().items()) == list(table.items())


def test_classification_matches_oracle_sampled_gl4_f2():
    group = gl_group(2, 4)
    F = group.field
    elems = list(F.elements())
    rng = random.Random(4)
    checked = 0
    while checked < 2000:
        g = Mat(F, [[rng.choice(elems) for _ in range(4)] for _ in range(4)])
        if g.det() == ZERO:
            continue
        cp, key = _oracle_classify(group, g)
        assert group.charpoly(g) == cp
        assert group.class_key(g) == key
        checked += 1
    cmap = group.class_map()
    assert sum(count for count, _ in cmap.values()) == group.order()
    for key, (_, rep) in cmap.items():
        assert _oracle_key(group, rep) == key


def _jordan_block_matrix(blocks, lam):
    """Upper-triangular Jordan form with eigenvalue lam (an integer) and these block sizes."""
    r = sum(blocks)
    rows = [[0] * r for _ in range(r)]
    start = 0
    for size in blocks:
        for i in range(start, start + size):
            rows[i][i] = lam
            if i + 1 < start + size:
                rows[i][i + 1] = 1
        start += size
    return rows


@pytest.mark.parametrize(
    "q,blocks,lam,eig",
    [
        (2, (4,), 1, 0),
        (2, (3, 1), 1, 0),
        (2, (2, 2), 1, 0),
        (2, (2, 1, 1), 1, 0),
        (2, (1, 1, 1, 1), 1, 0),
        (3, (3,), 2, 1),
        (3, (2, 1), 2, 1),
        (3, (1, 1, 1), 2, 1),
    ],
)
def test_jordan_types_of_explicit_matrices(q, blocks, lam, eig):
    group = gl_group(q, sum(blocks))
    g = Mat.from_ints(group.field, _jordan_block_matrix(blocks, lam))
    assert group.class_key(g) == ClassKey(1, eig, blocks)
    assert _oracle_key(group, g) == ClassKey(1, eig, blocks)


@pytest.mark.parametrize(
    "rows,blocks",
    [
        # companion matrix C of x^2 + x + 1 twice, or with an identity block above
        ([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]], (1, 1)),
        ([[0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 0, 1], [0, 0, 1, 1]], (2,)),
    ],
)
def test_jordan_types_over_quadratic_eigenvalues(rows, blocks):
    group = gl_group(2, 4)
    g = Mat.from_ints(group.field, rows)
    assert group.charpoly(g) == poly_pow(group.field, (0, 0, 0), 2)  # (x^2 + x + 1)^2
    assert group.class_key(g) == ClassKey(2, 1, blocks)
    assert _oracle_key(group, g) == ClassKey(2, 1, blocks)


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

import functools
import itertools
import random
import time

import pytest

from cuspeps import cli
from cuspeps.cyclo import root_of_unity
from cuspeps.ffield import ZERO, AdditiveChar, build_field, subfield_embed
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

SMALL_FIELDS = [(p, k) for p in range(2, 65) for k in range(1, 7)
                if all(p % d for d in range(2, p)) and p**k <= 64]


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
# polynomial by trying every f^(r/d) over a trial-division inventory of
# irreducibles, Jordan type from the whole nullity sequence of f(g)^j with
# f(g) evaluated from the zero matrix.  Polynomials are tuples of logs, low
# degree first; the helpers are local so the oracle shares no code with glq.


def _poly_trim(cs):
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == ZERO:
        cs.pop()
    return tuple(cs)


def _poly_add(F, a, b):
    n = max(len(a), len(b))
    a = list(a) + [ZERO] * (n - len(a))
    b = list(b) + [ZERO] * (n - len(b))
    return _poly_trim(F.add(x, y) for x, y in zip(a, b))


def _poly_mul(F, a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    return _poly_trim(out)


def _poly_pow(F, a, n):
    out = (0,)
    for _ in range(n):
        out = _poly_mul(F, out, a)
    return out


def _poly_rem(F, a, b):
    """a mod b for a monic b."""
    a = list(a)
    while len(a) >= len(b):
        c = a.pop()
        for i, cb in enumerate(b[:-1]):
            k = len(a) - len(b) + 1 + i
            a[k] = F.sub(a[k], F.mul(c, cb))
    return _poly_trim(a or [ZERO])


def _poly_eval(F, coeffs, x):
    acc = ZERO
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


@functools.lru_cache(maxsize=None)
def _oracle_irreducibles(F, d):
    """Monic irreducibles of degree d over F (x included for d = 1), by trial division."""
    lower = [h for e in range(1, d // 2 + 1) for h in _oracle_irreducibles(F, e)]
    out = []
    for tail in itertools.product(list(F.elements()), repeat=d):
        f = tail + (0,)
        if all(_poly_rem(F, f, h) != (ZERO,) for h in lower):
            out.append(f)
    return tuple(out)


def _oracle_poly_det(F, mat):
    if len(mat) == 1:
        return mat[0][0]
    acc = (ZERO,)
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = _poly_mul(F, entry, _oracle_poly_det(F, minor))
        if j % 2:
            term = tuple(F.neg(c) for c in term)
        acc = _poly_add(F, acc, term)
    return acc


def _oracle_charpoly(F, g):
    r = g.r
    return _oracle_poly_det(F, [
        [_poly_trim([F.neg(g.rows[i][j])] + ([0] if i == j else [])) for j in range(r)]
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


def _oracle_matrix_poly(F, f, g):
    """f(g) by Horner's rule from the zero matrix; f is low degree first."""
    fg = Mat(F, [[ZERO] * g.r for _ in range(g.r)])
    for c in reversed(f):
        fg = fg * g
        fg = Mat(F, [[F.add(v, c) if i == j else v for j, v in enumerate(row)] for i, row in enumerate(fg.rows)])
    return fg


def _oracle_det(F, rows):
    """Gaussian elimination, tracking the sign of each row swap."""
    rows = [list(row) for row in rows]
    n, det = len(rows), 0  # log of 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != ZERO), None)
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = F.neg(det)
        det = F.mul(det, rows[col][col])
        for i in range(col + 1, n):
            if rows[i][col] != ZERO:
                f = F.div(rows[i][col], rows[col][col])
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[col])]
    return det


def _oracle_blocks(group, g, f, d):
    F, r = group.field, group.r
    fg = _oracle_matrix_poly(F, f, g)
    power, nullities = group.identity(), [0]
    while nullities[-1] < r // d:
        power = power * fg
        nullities.append((r - _oracle_rank(F, power.rows)) // d)
    return conjugate_partition([b - a for a, b in zip(nullities, nullities[1:])])


def _oracle_eigenvalue(group, f):
    ext = group.ext_field(len(f) - 1)
    coeffs = [subfield_embed(c, group.field, ext) for c in f]
    return min(e for e in range(ext.q - 1) if _poly_eval(ext, coeffs, e) == ZERO)


def _oracle_classify(group, g):
    """(charpoly, class key) of g."""
    F, r = group.field, group.r
    cp = _oracle_charpoly(F, g)
    for d in range(1, r + 1):
        if r % d == 0:
            for f in _oracle_irreducibles(F, d):
                if _poly_pow(F, f, r // d) == cp:
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


def _block_companion(q, f, blocks):
    """A matrix over GF(q), q prime, with one elementary divisor f^k per block size k.

    f is monic, low degree first, as integers.  A block of size k is k x k
    copies of the companion matrix C(f) on the diagonal with identities just
    above them, so its charpoly is f^k and it is one Jordan block per root."""
    d = len(f) - 1
    comp = [[int(j == i + 1) for j in range(d)] for i in range(d - 1)] + [[-c for c in f[:-1]]]
    r = d * sum(blocks)
    rows = [[0] * r for _ in range(r)]
    at = 0
    for size in blocks:
        for b in range(size):
            for i in range(d):
                rows[at + i][at:at + d] = comp[i]
                if b + 1 < size:
                    rows[at + i][at + d + i] = 1
            at += d
    return Mat.from_ints(gl_group(q, r).field, rows)


@pytest.mark.parametrize(
    "rows,blocks",
    [
        (_block_companion(q, f, blocks), blocks)
        for q, f, blocks in [
            (2, (1, 1, 1), (1, 1)),  # x^2 + x + 1 over F_2, in GL_4 and GL_6
            (2, (1, 1, 1), (2,)),
            (2, (1, 1, 1), (3,)),
            (2, (1, 1, 1), (2, 1)),
            (2, (1, 1, 1), (1, 1, 1)),
            (2, (1, 1, 0, 1), (2,)),  # x^3 + x + 1 over F_2, in GL_6
            (2, (1, 1, 0, 1), (1, 1)),
            (3, (1, 0, 1), (2,)),  # x^2 + 1 over F_3, in GL_4
            (3, (1, 0, 1), (1, 1)),
        ]
    ],
)
def test_jordan_types_over_quadratic_eigenvalues(rows, blocks):
    group = gl_group(rows.field.q, rows.r)
    cp, key = _oracle_classify(group, rows)
    assert key.d == rows.r // sum(blocks) > 1 and key.blocks == blocks
    assert group.charpoly(rows) == cp
    assert group.class_key(rows) == key


@pytest.mark.parametrize(
    "q,r",
    [(q, 1) for q in sorted(p**k for p, k in SMALL_FIELDS)]
    + [(q, 2) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
    + [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 6)],
)
def test_primary_classes_match_oracle(q, r):
    """The torus table is {f^(r/d): (d, smallest root log in GF(q^d))} over irreducible f != x."""
    group = gl_group(q, r)
    F = group.field
    expected = {
        _poly_pow(F, f, r // d): (d, _oracle_eigenvalue(group, f))
        for d in range(1, r + 1)
        if r % d == 0
        for f in _oracle_irreducibles(F, d)
        if f != (ZERO, 0)
    }
    assert group._primary_classes() == expected


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
    assert not group.contains(SINGER, Mat.from_ints(group.field, [[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        group.subgroup_order("borel")


# -- the row-pattern scan ----------------------------------------------------


def _oracle_iterate(group, kind):
    """Reference enumeration: every filling of the free positions, kept when det != 0."""
    F, r = group.field, group.r
    elems = list(F.elements())
    if kind == UNIPOTENT:
        free = [(i, j) for i in range(r) for j in range(i + 1, r)]
        for vals in itertools.product(elems, repeat=len(free)):
            rows = [[0 if i == j else ZERO for j in range(r)] for i in range(r)]
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            yield Mat(F, rows)
        return
    if kind == FULL:
        positions = [(i, j) for i in range(r) for j in range(r)]
        fixed = {}
    elif kind == MIRABOLIC:
        positions = [(i, j) for i in range(r - 1) for j in range(r)]
        fixed = {(r - 1, j): ZERO for j in range(r - 1)}
        fixed[(r - 1, r - 1)] = 0
    else:
        assert kind == STABILIZER
        positions = [(i, j) for i in range(r) for j in range(1, r)]
        fixed = {(i, 0): (0 if i == 0 else ZERO) for i in range(r)}
    for vals in itertools.product(elems, repeat=len(positions)):
        rows = [[ZERO] * r for _ in range(r)]
        for (i, j), v in fixed.items():
            rows[i][j] = v
        for (i, j), v in zip(positions, vals):
            rows[i][j] = v
        m = Mat(F, rows)
        if m.det() != ZERO:
            yield m


def _oracle_contains(group, kind, m):
    """Reference membership: one hand-written branch per kind; SINGER by the torus itself."""
    r = group.r
    if m.field is not group.field or m.r != r:
        return False
    if kind == FULL:
        return m.det() != ZERO
    if kind == UNIPOTENT:
        return all(m.rows[i][j] == (0 if i == j else ZERO) for i in range(r) for j in range(i + 1))
    if kind == MIRABOLIC:
        last = m.rows[r - 1]
        return all(last[j] == ZERO for j in range(r - 1)) and last[r - 1] == 0 and m.det() != ZERO
    if kind == STABILIZER:
        return all(m.rows[i][0] == (0 if i == 0 else ZERO) for i in range(r)) and m.det() != ZERO
    assert kind == SINGER
    return m in {group.singer_matrix(e) for e in range(group.q**r - 1)}


SCAN_KINDS = (FULL, UNIPOTENT, MIRABOLIC, STABILIZER)


@pytest.mark.parametrize("q,r", [
    *[(q, 1) for q in (2, 3, 4, 7)], *[(q, 2) for q in (2, 3, 4, 5, 7, 8, 9)], (2, 3), (3, 3), (2, 4), (4, 3),
])
def test_iterate_matches_oracle_order(q, r):
    group = gl_group(q, r)
    # the reference would test 4^9 candidates for GL_3(F_4): the small kinds only
    kinds = SCAN_KINDS[1:] if (q, r) == (4, 3) else SCAN_KINDS
    for kind in kinds:
        assert list(group.iterate(kind)) == list(_oracle_iterate(group, kind)), kind


@pytest.mark.parametrize("q,r", [(3, 2), (2, 3)])
def test_contains_matches_oracle(q, r):
    """Every r x r matrix, singular ones included, and matrices of another field or size."""
    group = gl_group(q, r)
    F = group.field
    mats = [Mat(F, [entries[i * r:(i + 1) * r] for i in range(r)])
            for entries in itertools.product(list(F.elements()), repeat=r * r)]
    other_field = gl_group(5, r).identity()
    other_size = gl_group(q, r + 1).identity()
    for kind in (*SCAN_KINDS, SINGER):
        for m in (*mats, other_field, other_size):
            assert group.contains(kind, m) == _oracle_contains(group, kind, m), (kind, m)


# -- the table-driven product ------------------------------------------------


def _triple_loop_product(a: Mat, b: Mat):
    """Reference product: a triple loop with one F.add and one F.mul per term."""
    F, n = a.field, a.r
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                acc = F.add(acc, F.mul(a.rows[i][k], b.rows[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _random_invertible(group, rng):
    elems = list(group.field.elements())
    while True:
        m = Mat(group.field, [[rng.choice(elems) for _ in range(group.r)] for _ in range(group.r)])
        if m.det() != ZERO:
            return m


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_tables_match_field_ops(p, k):
    F = build_field(p, k)
    add, mul = F.tables()
    assert len(add) == len(mul) == F.q
    for a in F.elements():
        assert len(add[a]) == len(mul[a]) == F.q
        for b in F.elements():
            assert add[a][b] == F.add(a, b)
            assert mul[a][b] == F.mul(a, b)


@pytest.mark.parametrize("q", sorted(p**k for p, k in SMALL_FIELDS))
def test_product_matches_triple_loop_gl1(q):
    elems = gl_group(q, 1).elements(FULL)
    for a in elems:
        for b in elems:
            assert (a * b).rows == _triple_loop_product(a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_product_matches_triple_loop_gl2_every_pair(q):
    elems = gl_group(q, 2).elements(FULL)
    for a in elems:
        for b in elems:
            assert (a * b).rows == _triple_loop_product(a, b)


@pytest.mark.parametrize("q,r", [(7, 2), (8, 2), (9, 2), (2, 3), (3, 3), (4, 3), (2, 4)])
def test_product_matches_triple_loop_sampled(q, r):
    group = gl_group(q, r)
    rng = random.Random(1000 * q + r)
    for _ in range(2000):
        a, b = _random_invertible(group, rng), _random_invertible(group, rng)
        product = a * b
        assert product.rows == _triple_loop_product(a, b)
        assert isinstance(product.rows, tuple) and all(isinstance(row, tuple) for row in product.rows)


# -- the generated characteristic polynomial ----------------------------------


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)])
def test_charpoly_matches_oracle_on_every_matrix(q, r):
    """Singular matrices included: class_map reads cp(0) = ZERO as singular."""
    group = gl_group(q, r)
    F = group.field
    for entries in itertools.product(list(F.elements()), repeat=r * r):
        g = Mat(F, [entries[i * r:(i + 1) * r] for i in range(r)])
        cp = group.charpoly(g)
        assert cp == _oracle_charpoly(F, g)
        assert (cp[0] == ZERO) == (_oracle_rank(F, g.rows) < r)
        assert g.det() == _oracle_det(F, g.rows)


@pytest.mark.parametrize("q", sorted(p**k for p, k in SMALL_FIELDS))
def test_charpoly_matches_oracle_gl1(q):
    group = gl_group(q, 1)
    for g in group.elements(FULL):
        assert group.charpoly(g) == _oracle_charpoly(group.field, g)


@pytest.mark.parametrize("q,r,n", [(4, 3, 500), (3, 4, 300), (2, 5, 200), (2, 6, 40)])
def test_charpoly_matches_oracle_sampled(q, r, n):
    group = gl_group(q, r)
    rng = random.Random(100 * q + r)
    for _ in range(n):
        g = _random_invertible(group, rng)
        assert group.charpoly(g) == _oracle_charpoly(group.field, g)


@pytest.mark.parametrize("q,r", [(2, 7), (3, 7), (2, 8)])
def test_charpoly_large_r(q, r):
    """Too large for the cofactor oracle: Cayley-Hamilton, trace and determinant."""
    group = gl_group(q, r)
    F = group.field
    rng = random.Random(100 * q + r)
    zero = Mat(F, [[ZERO] * r for _ in range(r)])
    for _ in range(10):
        g = _random_invertible(group, rng)
        cp = group.charpoly(g)
        assert len(cp) == r + 1 and cp[r] == 0
        assert _oracle_matrix_poly(F, cp, g) == zero
        trace = ZERO
        for i in range(r):
            trace = F.add(trace, g.rows[i][i])
        assert cp[r - 1] == F.neg(trace)
        det = _oracle_det(F, g.rows)
        assert cp[0] == (det if r % 2 == 0 else F.neg(det))

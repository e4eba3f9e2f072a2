"""Matrix groups GL_r(F_q): subgroup enumeration, conjugacy data, Singer torus.

Matrices store their entries as field logs (see :mod:`cuspeps.ffield`) in
immutable row tuples, so they can serve as dictionary keys.  Enumeration
orders are fixed and documented:

* elements of GF(q) are ordered 0 < g^0 < g^1 < ... < g^{q-2};
* the full group, the unipotent upper-triangular subgroup U, the mirabolic
  subgroup (last row 0,...,0,1) and the first-vector stabilizer (first
  column 1,0,...,0) are scanned in row-major lexicographic order on entry
  logs with that element order;
* the Singer torus is indexed by the exponent of the generator of
  GF(q^r)^x, from 0 to q^r - 2.

Conjugacy classes enter only through :class:`ClassKey`: a class is "primary"
when its characteristic polynomial is a power of a single irreducible f of
degree d, and is then recorded by d, the smallest discrete log among the
roots of f in GF(q^d), and the Jordan block partition.  Everything else is
lumped into a single non-primary key, which is all the cuspidal character
formula needs (it vanishes there).

:meth:`GLGroup.class_map` counts the elements of every key in one pass over
all r x r matrices.  det(x*I - g) is linear in the last row of g, with the
cofactors of the first r - 1 rows as coefficients; those are computed once
per prefix, so each last row costs one characteristic polynomial of at most
r^2 field operations, and its constant term tells whether g is invertible.
The Jordan partition is computed only when r/d >= 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cyclo import CycloNumber
from .ffield import ZERO, AdditiveChar, FieldSpec, build_field, subfield_embed

__all__ = [
    "Mat",
    "ClassKey",
    "NON_PRIMARY",
    "GLGroup",
    "gl_group",
    "conjugate_partition",
]

DEFAULT_ELEMENT_BOUND = 10**6

FULL = "full"
UNIPOTENT = "unipotent"
MIRABOLIC = "mirabolic"
STABILIZER = "stabilizer"
SINGER = "singer"


class Mat:
    """A square matrix over a fixed GF(q), entries as field logs."""

    __slots__ = ("field", "rows", "_det")

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        self.rows = tuple(tuple(row) for row in rows)
        self._det = None

    @classmethod
    def identity(cls, field: FieldSpec, r: int) -> "Mat":
        return cls(field, [[0 if i == j else ZERO for j in range(r)] for i in range(r)])

    @classmethod
    def from_ints(cls, field: FieldSpec, rows) -> "Mat":
        """Entries given as prime-field integers (c meaning c*1)."""
        return cls(field, [[field.from_int(c) for c in row] for row in rows])

    @property
    def r(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "Mat") -> "Mat":
        F = self.field
        n = self.r
        orows = other.rows
        out = []
        for i in range(n):
            srow = self.rows[i]
            orow = []
            for j in range(n):
                acc = ZERO
                for k in range(n):
                    acc = F.add(acc, F.mul(srow[k], orows[k][j]))
                orow.append(acc)
            out.append(orow)
        return Mat(F, out)

    def det(self) -> int:
        if self._det is None:
            self._det = _det(self.field, [list(r) for r in self.rows])
        return self._det

    def inv(self) -> "Mat":
        F = self.field
        n = self.r
        work = [list(row) + [0 if i == j else ZERO for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if work[i][col] != ZERO), None)
            if piv is None:
                raise ValueError("matrix is singular")
            work[col], work[piv] = work[piv], work[col]
            inv_p = F.inv(work[col][col])
            work[col] = [F.mul(inv_p, v) for v in work[col]]
            for i in range(n):
                if i != col and work[i][col] != ZERO:
                    f = work[i][col]
                    work[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(work[i], work[col])]
        return Mat(F, [row[n:] for row in work])

    def __eq__(self, other):
        return isinstance(other, Mat) and self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.rows))

    def serialize(self) -> list[list[str]]:
        return [[FieldSpec.format_element(e) for e in row] for row in self.rows]

    def __repr__(self):
        return "Mat(" + "; ".join(",".join(FieldSpec.format_element(e) for e in row) for row in self.rows) + ")"


def _det(F: FieldSpec, rows: list[list[int]]) -> int:
    n = len(rows)
    det = 0  # log of 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != ZERO), None)
        if piv is None:
            return ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = F.neg(det)
        det = F.mul(det, rows[col][col])
        inv_p = F.inv(rows[col][col])
        for i in range(col + 1, n):
            if rows[i][col] != ZERO:
                f = F.mul(rows[i][col], inv_p)
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[col])]
    return det


def _rank(F: FieldSpec, rows: list[list[int]]) -> int:
    n = len(rows)
    m = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < n and col < m:
        piv = next((i for i in range(rank, n) if rows[i][col] != ZERO), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv_p = F.inv(rows[rank][col])
        for i in range(rank + 1, n):
            if rows[i][col] != ZERO:
                f = F.mul(rows[i][col], inv_p)
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- polynomials over GF(q), coefficients low-degree-first as logs ----------


def poly_trim(cs):
    cs = list(cs)
    while len(cs) > 1 and cs[-1] == ZERO:
        cs.pop()
    return tuple(cs)


def poly_mul(F: FieldSpec, a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca != ZERO:
            for j, cb in enumerate(b):
                if cb != ZERO:
                    out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    return poly_trim(out)


def poly_add(F: FieldSpec, a, b):
    n = max(len(a), len(b))
    a = list(a) + [ZERO] * (n - len(a))
    b = list(b) + [ZERO] * (n - len(b))
    return poly_trim(F.add(x, y) for x, y in zip(a, b))


def poly_divmod(F: FieldSpec, a, b):
    b = poly_trim(b)
    if b == (ZERO,):
        raise ZeroDivisionError("polynomial division by zero")
    a = list(poly_trim(a))
    db, lead = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        return (ZERO,), poly_trim(a)
    quot = [ZERO] * (len(a) - db)
    while len(a) - 1 >= db and poly_trim(a) != (ZERO,):
        da = len(a) - 1
        if a[da] == ZERO:
            a.pop()
            continue
        c = F.div(a[da], lead)
        quot[da - db] = c
        for i in range(db + 1):
            a[da - db + i] = F.sub(a[da - db + i], F.mul(c, b[i]))
        a.pop()
        if not a:
            break
    return poly_trim(quot), poly_trim(a if a else [ZERO])


def poly_pow(F: FieldSpec, a, n: int):
    out = (0,)
    for _ in range(n):
        out = poly_mul(F, out, a)
    return out


def poly_eval(F: FieldSpec, coeffs, x: int) -> int:
    acc = ZERO
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


# -- conjugacy keys ----------------------------------------------------------


@dataclass(frozen=True)
class ClassKey:
    """Conjugacy key for primary classes; (None, None, None) is "non-primary"."""

    d: int | None
    eig: int | None
    blocks: tuple[int, ...] | None

    @property
    def primary(self) -> bool:
        return self.d is not None

    def serialize(self) -> dict:
        if not self.primary:
            return {"primary": False}
        return {"primary": True, "d": self.d, "eig": self.eig, "blocks": list(self.blocks)}


NON_PRIMARY = ClassKey(None, None, None)


def conjugate_partition(parts) -> tuple[int, ...]:
    parts = [p for p in parts if p > 0]
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, max(parts) + 1))


class GLGroup:
    """GL_r over GF(q) with cached structural data.

    Instances are shared through :func:`gl_group`, so the expensive caches
    (class map, coset representatives, Singer expansion) are built once.
    All public methods are pure; the caches are append-only.
    """

    def __init__(self, field: FieldSpec, r: int, element_bound: int = DEFAULT_ELEMENT_BOUND):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.field = field
        self.r = r
        self.q = field.q
        self.element_bound = element_bound
        self.big_field = build_field(field.p, field.k * r)
        self._ext: dict[int, FieldSpec] = {1: field, r: self.big_field}
        self._singer_coeffs: list[tuple[int, ...]] | None = None
        self._singer_index: dict[tuple[int, ...], int] | None = None
        self._irreducibles: dict[int, tuple] = {}
        self._primary_powers: dict[tuple, tuple] | None = None
        self._key_cache: dict[Mat, ClassKey] = {}
        self._eig_cache: dict[tuple, int] = {}
        self._class_map: dict[ClassKey, list] | None = None
        self._coset_cache: dict[str, tuple[Mat, ...]] = {}
        self._coset_inv_cache: dict[str, tuple[Mat, ...]] = {}
        self._subgroup_cache: dict[str, tuple[Mat, ...]] = {}

    # -- sizes ---------------------------------------------------------

    def order(self) -> int:
        qr = self.q**self.r
        out = 1
        for i in range(self.r):
            out *= qr - self.q**i
        return out

    def subgroup_order(self, kind: str) -> int:
        q, r = self.q, self.r
        if kind == FULL:
            return self.order()
        if kind == UNIPOTENT:
            return q ** (r * (r - 1) // 2)
        if kind == MIRABOLIC:
            out = q ** (r - 1)
            for i in range(r - 1):
                out *= q ** (r - 1) - q**i
            return out
        if kind == STABILIZER:
            return self.order() // (q**r - 1)
        if kind == SINGER:
            return q**r - 1
        raise ValueError(f"unknown subgroup kind {kind!r}")

    def _check_bound(self, kind: str):
        size = self.subgroup_order(kind)
        if size > self.element_bound:
            raise ValueError(
                f"subgroup {kind} of GL_{self.r}(F_{self.q}) has "
                f"{size} elements, over the bound {self.element_bound}"
            )

    # -- enumeration -----------------------------------------------------

    def iterate(self, kind: str):
        """Deterministic stream over a subgroup, each element exactly once."""
        self._check_bound(kind)
        F, r = self.field, self.r
        elems = list(F.elements())
        if kind == SINGER:
            for e in range(self.q**r - 1):
                yield self.singer_matrix(e)
            return
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
        elif kind == STABILIZER:
            positions = [(i, j) for i in range(r) for j in range(1, r)]
            fixed = {(i, 0): (0 if i == 0 else ZERO) for i in range(r)}
        else:
            raise ValueError(f"unknown subgroup kind {kind!r}")
        for vals in itertools.product(elems, repeat=len(positions)):
            rows = [[ZERO] * r for _ in range(r)]
            for (i, j), v in fixed.items():
                rows[i][j] = v
            for (i, j), v in zip(positions, vals):
                rows[i][j] = v
            m = Mat(F, rows)
            if m.det() != ZERO:
                yield m

    def elements(self, kind: str) -> tuple[Mat, ...]:
        if kind not in self._subgroup_cache:
            elems = tuple(self.iterate(kind))
            assert len(elems) == self.subgroup_order(kind)
            self._subgroup_cache[kind] = elems
        return self._subgroup_cache[kind]

    def contains(self, kind: str, m: Mat) -> bool:
        r = self.r
        if m.field is not self.field or m.r != r:
            return False
        if kind == FULL:
            return m.det() != ZERO
        if kind == UNIPOTENT:
            return all(
                m.rows[i][j] == (0 if i == j else ZERO)
                for i in range(r)
                for j in range(i + 1)
            )
        if kind == MIRABOLIC:
            last = m.rows[r - 1]
            return all(last[j] == ZERO for j in range(r - 1)) and last[r - 1] == 0 and m.det() != ZERO
        if kind == STABILIZER:
            return all(m.rows[i][0] == (0 if i == 0 else ZERO) for i in range(r)) and m.det() != ZERO
        if kind == SINGER:
            x, h = self.singer_decompose(m)
            return h == Mat.identity(self.field, r)
        raise ValueError(f"unknown subgroup kind {kind!r}")

    # -- nondegenerate character of U ------------------------------------

    def psi_u(self, u: Mat, psi: AdditiveChar) -> CycloNumber:
        """psi(sum of superdiagonal entries); a nondegenerate character of U."""
        if not self.contains(UNIPOTENT, u):
            raise ValueError("matrix is not unipotent upper-triangular")
        F = self.field
        acc = ZERO
        for i in range(self.r - 1):
            acc = F.add(acc, u.rows[i][i + 1])
        return psi.eval(acc)

    # -- Singer torus ----------------------------------------------------

    def ext_field(self, d: int) -> FieldSpec:
        if self.r % d:
            raise ValueError(f"{d} does not divide r={self.r}")
        if d not in self._ext:
            self._ext[d] = build_field(self.field.p, self.field.k * d)
        return self._ext[d]

    def _build_singer(self):
        """Coordinates of GF(q^r) in the basis 1, G, ..., G^{r-1} over GF(q)."""
        F, K, r = self.field, self.big_field, self.r
        basis = [K.pow(0, 0)] if r == 1 else [(1 * i) % (K.q - 1) for i in range(r)]
        # basis element G^i has log i
        coeffs: dict[int, tuple[int, ...]] = {}
        index: dict[tuple[int, ...], int] = {}
        for tup in itertools.product(list(F.elements()), repeat=r):
            acc = ZERO
            for i, c in enumerate(tup):
                if c != ZERO:
                    term = K.mul(subfield_embed(c, F, K), basis[i] if r > 1 else 0)
                    acc = K.add(acc, term)
            coeffs[acc] = tup
            index[tup] = acc
        table = [coeffs[e] for e in range(K.q - 1)]
        assert len(coeffs) == K.q, "powers of the generator must span over GF(q)"
        self._singer_coeffs = table
        self._singer_index = index

    def singer_coeffs(self, e: int) -> tuple[int, ...]:
        """Coordinates of g_big^e in the power basis (logs over GF(q))."""
        if self._singer_coeffs is None:
            self._build_singer()
        return self._singer_coeffs[e % (self.big_field.q - 1)]

    def singer_matrix(self, e: int) -> Mat:
        """The multiplication-by-g^e matrix; a generator image of the Singer embedding."""
        K, r = self.big_field, self.r
        e %= K.q - 1
        cols = [self.singer_coeffs((e + j) % (K.q - 1)) for j in range(r)]
        return Mat(self.field, [[cols[j][i] for j in range(r)] for i in range(r)])

    def singer_decompose(self, g: Mat) -> tuple[int, Mat]:
        """Unique factorization g = x*h with x in the torus, h fixing e_1.

        Returns (log of x in GF(q^r), h)."""
        if self._singer_index is None:
            self._build_singer()
        first_col = tuple(g.rows[i][0] for i in range(self.r))
        x = self._singer_index[first_col]
        if x == ZERO:
            raise ValueError("matrix is singular")
        h = self.singer_matrix(x).inv() * g
        return x, h

    # -- coset representatives -------------------------------------------

    def coset_reps(self, kind: str) -> tuple[Mat, ...]:
        """Representatives of U\\M for M in {full, mirabolic, stabilizer}.

        The identity always represents the trivial coset; the rest follow in
        enumeration order.  One representative per coset, count |M|/|U|."""
        if kind not in (FULL, MIRABOLIC, STABILIZER):
            raise ValueError(f"no unipotent coset decomposition for {kind!r}")
        if kind in self._coset_cache:
            return self._coset_cache[kind]
        unip = self.elements(UNIPOTENT)
        seen: set[Mat] = set()
        reps: list[Mat] = []
        ident = Mat.identity(self.field, self.r)
        for g in itertools.chain([ident], self.iterate(kind)):
            if g in seen:
                continue
            reps.append(g)
            for u in unip:
                seen.add(u * g)
        expected = self.subgroup_order(kind) // self.subgroup_order(UNIPOTENT)
        assert len(reps) == expected, "coset partition does not tile the subgroup"
        out = tuple(reps)
        self._coset_cache[kind] = out
        return out

    def coset_rep_inverses(self, kind: str) -> tuple[Mat, ...]:
        if kind not in self._coset_inv_cache:
            self._coset_inv_cache[kind] = tuple(c.inv() for c in self.coset_reps(kind))
        return self._coset_inv_cache[kind]

    # -- irreducible polynomial inventory ----------------------------------

    def irreducibles(self, d: int) -> tuple:
        """All monic irreducibles of degree d over GF(q), in enumeration order."""
        if d in self._irreducibles:
            return self._irreducibles[d]
        F = self.field
        elems = list(F.elements())
        out = []
        lower = [self.irreducibles(e) for e in range(1, d)]
        for tail in itertools.product(elems, repeat=d):
            poly = tuple(tail) + (0,)
            if d > 1 and poly[0] == ZERO:
                continue  # divisible by x
            reducible = False
            for polys in lower:
                for f in polys:
                    if len(f) - 1 > d // 2:
                        break
                    _, rem = poly_divmod(F, poly, f)
                    if rem == (ZERO,):
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                out.append(poly)
        res = tuple(out)
        self._irreducibles[d] = res
        return res

    # -- characteristic polynomial and class keys -------------------------

    def charpoly(self, g: Mat):
        """det(x*I - g) as a monic polynomial over GF(q), expanded along the last row."""
        return _charpoly_from(self.field, _last_row_cofactors(self.field, g.rows[:-1]), g.rows[-1])

    def _canonical_eigenvalue(self, f) -> int:
        """Smallest discrete log among the roots of the irreducible f in GF(q^d)."""
        if f in self._eig_cache:
            return self._eig_cache[f]
        d = len(f) - 1
        ext = self.ext_field(d)
        coeffs = [subfield_embed(c, self.field, ext) for c in f]
        roots = [e for e in range(ext.q - 1) if poly_eval(ext, coeffs, e) == ZERO]
        if poly_eval(ext, coeffs, ZERO) == ZERO:
            roots.append(ZERO)
        assert len(roots) == d, "an irreducible of degree d must split in GF(q^d)"
        best = min(roots)
        self._eig_cache[f] = best
        return best

    def class_key(self, g: Mat) -> ClassKey:
        """Conjugacy key of g: primary data (d, eigenvalue orbit, Jordan type) or non-primary."""
        if g in self._key_cache:
            return self._key_cache[g]
        cp = self.charpoly(g)
        if cp[0] == ZERO:  # det(g) = (-1)^r cp(0)
            raise ValueError("matrix is singular")
        key = self._key_of(cp, g.rows)
        self._key_cache[g] = key
        return key

    def _key_of(self, cp, rows) -> ClassKey:
        """Class key of the invertible matrix with these rows and charpoly cp."""
        if self._primary_powers is None:
            self._primary_powers = {
                poly_pow(self.field, f, self.r // d): (d, f)
                for d in range(1, self.r + 1)
                if self.r % d == 0
                for f in self.irreducibles(d)
            }
        hit = self._primary_powers.get(cp)
        if hit is None:
            return NON_PRIMARY
        d, f = hit
        blocks = (1,) if d == self.r else self._jordan_blocks(Mat(self.field, rows), f, d)
        return ClassKey(d, self._canonical_eigenvalue(f), blocks)

    def _jordan_blocks(self, g: Mat, f, d: int) -> tuple[int, ...]:
        """Jordan partition of r/d from the nullity sequence of f(g)^j.

        Entry j of the sequence counts the blocks of size at least j.  Once a
        step adds at most one block, that block takes the rest of r/d."""
        F, r, n = self.field, self.r, self.r // d
        fg = _matrix_poly(F, f, g)
        power = fg
        diffs: list[int] = []
        seen = 0
        while True:
            nullity = r - _rank(F, [list(row) for row in power.rows])
            assert nullity % d == 0
            step = nullity // d - seen
            diffs.append(step)
            seen += step
            if step <= 1 or seen == n:
                diffs.extend([1] * (n - seen))
                return conjugate_partition(diffs)
            power = power * fg

    # -- class map ---------------------------------------------------------

    def class_map(self) -> dict[ClassKey, list]:
        """key -> [element count, representative], over the full group.

        One pass over all r x r matrices in the enumeration order of
        ``iterate(FULL)``: for each first r - 1 rows of full rank, the
        cofactors of the last row of x*I - g are computed once, and every
        last row then costs one charpoly of at most r^2 field operations,
        whose constant term decides invertibility.  Counts are exact, keys
        appear in first-appearance order and each representative is the
        first element with its key."""
        if self._class_map is None:
            self._check_bound(FULL)
            F, r = self.field, self.r
            vectors = list(itertools.product(list(F.elements()), repeat=r))
            table: dict[ClassKey, list] = {}
            for prefix in itertools.product(vectors, repeat=r - 1):
                if _rank(F, [list(row) for row in prefix]) < r - 1:
                    continue
                cofactors = _last_row_cofactors(F, prefix)
                for last in vectors:
                    cp = _charpoly_from(F, cofactors, last)
                    if cp[0] == ZERO:
                        continue
                    rows = prefix + (last,)
                    key = self._key_of(cp, rows)
                    slot = table.get(key)
                    if slot is None:
                        table[key] = [1, Mat(F, rows)]
                    else:
                        slot[0] += 1
            assert sum(c for c, _ in table.values()) == self.order()
            self._class_map = table
        return self._class_map

    def identity(self) -> Mat:
        return Mat.identity(self.field, self.r)


def _matrix_poly(F: FieldSpec, f, g: Mat) -> Mat:
    """f(g) for a monic f of degree >= 1, by Horner's rule starting from g."""
    acc = g
    for k in range(len(f) - 2, -1, -1):
        if f[k] != ZERO:
            rows = [list(row) for row in acc.rows]
            for i in range(g.r):
                rows[i][i] = F.add(rows[i][i], f[k])
            acc = Mat(F, rows)
        if k:
            acc = acc * g
    return acc


def _last_row_cofactors(F: FieldSpec, prefix):
    """Shared part of det(x*I - g) for every g whose first r - 1 rows are prefix.

    Expanding along the last row v gives cp(x) = x*C_{r-1}(x) - sum_j v_j*C_j(x),
    with C_j the signed cofactors.  Returns x*C_{r-1} as r + 1 coefficients and,
    for each j, the nonzero coefficients of -C_j as (degree, log) pairs."""
    r = len(prefix) + 1
    top = [
        [poly_trim([F.neg(row[j])] + ([0] if i == j else [])) for j in range(r)]
        for i, row in enumerate(prefix)
    ]
    minors = [_poly_det(F, [row[:j] + row[j + 1:] for row in top]) for j in range(r)]
    negated = [  # -C_j = (-1)^(r + j) * minor_j
        tuple((i, F.neg(c) if (r + j) % 2 else c) for i, c in enumerate(minor) if c != ZERO)
        for j, minor in enumerate(minors)
    ]
    return (ZERO,) + minors[r - 1], negated


def _charpoly_from(F: FieldSpec, cofactors, last) -> tuple:
    """det(x*I - g) from the shared cofactors of the prefix and the last row of g."""
    base, negated = cofactors
    cp = list(base)
    for v, terms in zip(last, negated):
        if v != ZERO:
            for i, c in terms:
                cp[i] = F.add(cp[i], F.mul(v, c))
    return tuple(cp)


def _poly_det(F: FieldSpec, mat) -> tuple:
    """Determinant of a matrix of polynomials, by cofactor expansion."""
    n = len(mat)
    if n == 0:
        return (0,)
    if n == 1:
        return mat[0][0]
    acc = (ZERO,)
    sign_neg = False
    for j in range(n):
        if mat[0][j] != (ZERO,):
            minor = [[mat[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
            term = poly_mul(F, mat[0][j], _poly_det(F, minor))
            if sign_neg:
                term = tuple(F.neg(c) for c in term)
            acc = poly_add(F, acc, term)
        sign_neg = not sign_neg
    return acc


_GROUPS: dict[tuple[int, int, int], GLGroup] = {}


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, qq = 0, 1
    while qq < q:
        qq *= p
        k += 1
    if qq != q:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def gl_group(q: int, r: int, element_bound: int = DEFAULT_ELEMENT_BOUND) -> GLGroup:
    """Shared GLGroup instance for GL_r(F_q)."""
    p, k = _prime_power(q)
    key = (q, r, element_bound)
    if key not in _GROUPS:
        _GROUPS[key] = GLGroup(build_field(p, k), r, element_bound)
    return _GROUPS[key]

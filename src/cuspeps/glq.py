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
when the eigenvalues of g form one Frobenius orbit of length d in GF(q^d)^x,
and is then recorded by d, the smallest discrete log eig in the orbit, and
the Jordan block partition of r/d.  Everything else is lumped into a single
non-primary key, which is all the cuspidal character formula needs (it
vanishes there).  The primary characteristic polynomials are those of the
Singer matrices of the orbits' smallest elements; the Jordan partition comes
from the nullities of (g - x)^j over GF(q^d), x = g^eig, when r/d >= 2.

Each of the four matrix subgroups is described once, by the fixed leading
entries of every row (:func:`_leads`); the rest of each row is free, and
``contains`` checks those leads.  ``iterate`` and ``class_map`` share one
row-pattern scan (:meth:`GLGroup._scan`).  det(x*I - g) is linear in the
last row of g, so it is two generated functions: ``prefix`` reads the first
r - 1 rows once, and ``last`` adds in each last row with at most r^2
lookups.  The constant term tells whether g is invertible, so no candidate
matrix is built to be tested.

``Mat.__mul__`` looks every entry up in the field's q x q tables
(:meth:`FieldSpec.tables`): ``mul[a][b]`` and ``add[a][b]`` are indexed by
the logs a and b, slot e < q - 1 standing for g^e and the last slot for 0,
so ZERO = -1 reaches it by negative indexing.  The product of two r x r
matrices is one straight-line function per r, generated on first use, in
which each entry is a chain of r table lookups; so are ``prefix`` and ``last``.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Callable

from .cyclo import CycloNumber, root_of_unity
from .ffield import ZERO, AdditiveChar, FieldSpec, build_field, frobenius_orbit, subfield_embed

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

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec, rows):
        self.field = field
        self.rows = tuple(tuple(row) for row in rows)

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
        rows = self.rows
        product = _PRODUCTS.get(len(rows)) or _build_product(len(rows))
        out = object.__new__(Mat)
        out.field = F
        out.rows = product(*F.tables(), rows, other.rows)
        return out

    def det(self) -> int:
        """(-1)^r times the constant term of the characteristic polynomial."""
        c = _charpoly(self.field, self.rows)[0]
        return c if len(self.rows) % 2 == 0 else self.field.neg(c)

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


_PRODUCTS: dict[int, Callable] = {}


def _build_product(r: int) -> Callable:
    """The r x r product over a field's (add, mul) tables, as straight-line code.

    Entry (i, j) is one chain add[..add[mul[a_i0][b_0j]][mul[a_i1][b_1j]]..]
    with no calls and no loops; the source is generated once per r and
    compiled, as collections.namedtuple builds its classes."""
    def unpack(x):
        return "[" + ", ".join("[" + ", ".join(f"{x}{i}_{j}" for j in range(r)) + "]" for i in range(r)) + "]"

    def entry(i, j):
        expr = f"mul[a{i}_0][b0_{j}]"
        for k in range(1, r):
            expr = f"add[{expr}][mul[a{i}_{k}][b{k}_{j}]]"
        return expr

    rows = "".join("(" + "".join(entry(i, j) + ", " for j in range(r)) + "), " for i in range(r))
    source = f"def product(add, mul, a, b):\n    {unpack('a')} = a\n    {unpack('b')} = b\n    return ({rows})\n"
    namespace: dict = {}
    exec(source, namespace)
    product = _PRODUCTS[r] = namespace["product"]
    return product


_CHARPOLYS: dict[int, tuple[Callable, Callable]] = {}


def _build_charpoly(r: int) -> tuple[Callable, Callable]:
    """``prefix(tables, rows)`` and ``last(tables, pre, v)``: det(x*I - g) as straight-line code.

    prefix reads the first r - 1 rows of g, last adds in the last row v.  Both
    follow Berkowitz's division-free recurrence: bordering a k x k block M with
    charpoly p_0 = 1, ..., p_k (top down) by a row R, a column C and a corner a
    gives c_n = p_n - a p_(n-1) - sum_m p_m R M^(n-2-m) C, which is linear in
    the last row; prefix returns the coefficient of each v_j in each c_n.
    O(r^4) lines, each one chain of lookups bound to a local."""
    zero, one, minus_one = repr(ZERO), "0", "m1"  # folded constants; tables = (add, mul, m1)
    lines: list[str] = []
    negs = {zero: zero, one: minus_one, minus_one: one}

    def bind(expr):
        if expr in negs or expr.isidentifier():
            return expr
        lines.append(f"t{len(lines)} = {expr}")
        return f"t{len(lines) - 1}"

    def times(a, b):
        for x, y in ((a, b), (b, a)):
            if x == zero or y == one:
                return x
            if x == minus_one:
                return negs.get(y, f"neg[{y}]")
        return f"mul[{a}][{b}]"

    def plus(terms):
        return functools.reduce(lambda acc, t: f"add[{acc}][{t}]", [t for t in terms if t != zero] or [zero])

    a = [[f"a{i}_{j}" for j in range(r)] for i in range(r - 1)]
    p = [one]
    for k in range(r):
        powers = [[a[i][k] for i in range(k)]] if k else []  # M^l C for l < k
        while len(powers) < k:
            powers.append([bind(plus(times(a[i][j], powers[-1][j]) for j in range(k))) for i in range(k)])
        negp = [bind(negs.get(c, f"neg[{c}]")) for c in p]
        if k == r - 1:
            break
        s = [bind(plus(times(a[k][j], w[j]) for j in range(k))) for w in powers]
        p = [bind(plus([p[n] if n <= k else zero, times(a[k][k], negp[n - 1]) if n else zero]
                       + [times(negp[m], s[n - 2 - m]) for m in range(n - 1)])) for n in range(k + 2)]
    # the last border, with v_(r-1) as the corner: c_n = base_n + sum_j v_j coef[j][n]
    coef = [[zero] * 2 + [bind(plus(times(negp[m], powers[n - 2 - m][j]) for m in range(n - 1)))
                          for n in range(2, r + 1)] for j in range(r - 1)]
    coef.append([zero] + negp)
    base = p + [zero]
    shared = "(" + "".join(f"{x}, " for x in dict.fromkeys(base + sum(coef, [])) if x not in negs) + ")"
    cp = [plus([base[n]] + [times(f"v{j}", coef[j][n]) for j in range(r)]) for n in range(r, -1, -1)]
    source = (
        "def prefix(tables, rows):\n    add, mul, m1 = tables\n    neg = mul[m1]\n"
        f"    ({''.join('(' + ''.join(f'{x}, ' for x in row) + '), ' for row in a)}) = rows\n"
        + "".join(f"    {line}\n" for line in lines) + f"    return {shared}\n"
        f"def last(tables, pre, v):\n    add, mul, m1 = tables\n    neg = mul[m1]\n    {shared} = pre\n"
        f"    ({''.join(f'v{j}, ' for j in range(r))}) = v\n    return ({''.join(f'{x}, ' for x in cp)})\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    kernel = _CHARPOLYS[r] = namespace["prefix"], namespace["last"]
    return kernel


def _charpoly(F: FieldSpec, rows) -> tuple:
    """det(x*I - g) for the matrix g with these rows, low degree first."""
    prefix, last = _CHARPOLYS.get(len(rows)) or _build_charpoly(len(rows))
    tables = (*F.tables(), F.neg(0))
    return last(tables, prefix(tables, rows[:-1]), rows[-1])


@functools.cache
def _leads(kind: str, r: int) -> tuple[tuple[int, ...], ...]:
    """The fixed leading entries of each row of the r x r matrices of a subgroup.

    The rest of each row is free; with invertibility this is the whole
    description (U is invertible by its leads alone)."""
    if kind == FULL:
        return ((),) * r
    if kind == UNIPOTENT:
        return tuple((ZERO,) * i + (0,) for i in range(r))
    if kind == MIRABOLIC:
        return ((),) * (r - 1) + ((ZERO,) * (r - 1) + (0,),)
    if kind == STABILIZER:
        return ((0,),) + ((ZERO,),) * (r - 1)
    raise ValueError(f"unknown subgroup kind {kind!r}")


def _rank(F: FieldSpec, rows: list[list[int]]) -> int:
    """Rank by row reduction over the field's (add, mul) tables (rows are consumed)."""
    add, mul = F.tables()
    minus_one = mul[F.neg(0)]
    n = len(rows)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = rank
        while piv < n and rows[piv][col] == ZERO:
            piv += 1
        if piv == n:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        neg_inv = minus_one[-pivot_row[col] % (F.q - 1)]  # log of -1/pivot
        for i in range(rank + 1, n):
            x = rows[i][col]
            if x != ZERO:
                times = mul[mul[x][neg_inv]]  # row i minus (x/pivot) * pivot row
                rows[i] = [add[a][times[b]] for a, b in zip(rows[i], pivot_row)]
        rank += 1
    return rank


# -- conjugacy keys ----------------------------------------------------------


class ClassKey(namedtuple("ClassKey", ("d", "eig", "blocks"))):
    """Conjugacy key for primary classes; (None, None, None) is "non-primary".

    A named tuple, so that the hashing and comparing done for every element
    in :meth:`GLGroup.class_map` and in the character caches run in C."""

    __slots__ = ()

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
        self._ext_embed: dict[int, tuple[int, ...]] = {}
        self._singer_coeffs: list[tuple[int, ...]] | None = None
        self._singer_index: dict[tuple[int, ...], int] | None = None
        self._primary: dict[tuple, tuple[int, int]] | None = None
        self._key_cache: dict[Mat, ClassKey] = {}
        self._class_map: dict[ClassKey, list] | None = None
        self._coset_cache: dict[str, tuple[Mat, ...]] = {}
        self._coset_inv_cache: dict[str, tuple[Mat, ...]] = {}
        self._subgroup_cache: dict[str, tuple[Mat, ...]] = {}
        # (kind, psi) -> {g: character of Ind_U^kind(psi_U) at g}, filled by
        # cusp.induced_psi_character, which depends on no cuspidal
        self.induced_psi_values: dict[tuple[str, AdditiveChar], dict[Mat, CycloNumber]] = {}

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
        if kind == SINGER:
            for e in range(self.q**self.r - 1):
                yield self.singer_matrix(e)
            return
        F = self.field
        for rows, _ in self._scan(kind):
            yield Mat(F, rows)

    def _scan(self, kind: str):
        """(rows, charpoly) of each invertible matrix of a subgroup, in enumeration order.

        Row i runs over its leads followed by every tuple of free entries;
        ``prefix`` runs once per choice of the first r - 1 rows, ``last`` once
        per last row, and a zero constant term marks a singular matrix."""
        F, r = self.field, self.r
        prefix, last = _CHARPOLYS.get(r) or _build_charpoly(r)
        tables = (*F.tables(), F.neg(0))
        elems = list(F.elements())
        choices = [[lead + free for free in itertools.product(elems, repeat=r - len(lead))]
                   for lead in _leads(kind, r)]
        lasts = choices.pop()
        for top in itertools.product(*choices):
            pre = prefix(tables, top)
            for v in lasts:
                cp = last(tables, pre, v)
                if cp[0] != ZERO:
                    yield top + (v,), cp

    def elements(self, kind: str) -> tuple[Mat, ...]:
        if kind not in self._subgroup_cache:
            elems = tuple(self.iterate(kind))
            assert len(elems) == self.subgroup_order(kind)
            self._subgroup_cache[kind] = elems
        return self._subgroup_cache[kind]

    def contains(self, kind: str, m: Mat) -> bool:
        """Whether m lies in the subgroup: a matrix of this group, invertible,
        with the kind's row leads (or, for SINGER, a torus element)."""
        if m.field is not self.field or m.r != self.r:
            return False
        if kind == SINGER:
            return m.det() != ZERO and self.singer_decompose(m)[1] == self.identity()
        for row, lead in zip(m.rows, _leads(kind, self.r)):
            if row[:len(lead)] != lead:
                return False
        return kind == UNIPOTENT or m.det() != ZERO

    # -- nondegenerate character of U ------------------------------------

    def psi_u(self, u: Mat, psi: AdditiveChar) -> CycloNumber:
        """psi(sum of superdiagonal entries); a nondegenerate character of U."""
        return root_of_unity(*self.psi_u_root(u, psi))

    def psi_u_root(self, u: Mat, psi: AdditiveChar) -> tuple[int, int]:
        """psi_u(u, psi) as (order, exponent), see :meth:`AdditiveChar.root`."""
        if not self.contains(UNIPOTENT, u):
            raise ValueError("matrix is not unipotent upper-triangular")
        F = self.field
        acc = ZERO
        for i in range(self.r - 1):
            acc = F.add(acc, u.rows[i][i + 1])
        return psi.root(acc)

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

    # -- characteristic polynomial and class keys -------------------------

    def charpoly(self, g: Mat):
        """det(x*I - g) as a monic polynomial over GF(q), low degree first."""
        return _charpoly(self.field, g.rows)

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

    def _primary_classes(self) -> dict[tuple, tuple[int, int]]:
        """charpoly -> (d, eig) for the primary classes, read off the Singer torus.

        A primary charpoly is f^(r/d) for an irreducible f != x of degree d | r,
        and f is the minimal polynomial of a Frobenius orbit of length d in
        GF(q^d)^x.  So each such orbit, named by its smallest log y in GF(q^d),
        gives one entry: the charpoly of the Singer matrix of y (embedded in
        GF(q^r)) is minpoly(y)^(r/d), and eig = y."""
        if self._primary is None:
            K, primary = self.big_field, {}
            for d in range(1, self.r + 1):
                if self.r % d:
                    continue
                ext = self.ext_field(d)
                for y in range(ext.q - 1):
                    orbit = frobenius_orbit(y, self.q, ext.q - 1)
                    if orbit[0] == y and len(orbit) == d:
                        primary[self.charpoly(self.singer_matrix(subfield_embed(y, ext, K)))] = (d, y)
            self._primary = primary
        return self._primary

    def _key_of(self, cp, rows) -> ClassKey:
        """Class key of the invertible matrix with these rows and charpoly cp."""
        hit = self._primary_classes().get(cp)
        if hit is None:
            return NON_PRIMARY
        d, eig = hit
        return ClassKey(d, eig, (1,) if d == self.r else self._jordan_blocks(rows, d, eig))

    def _jordan_blocks(self, rows, d: int, eig: int) -> tuple[int, ...]:
        """Jordan partition of r/d from the nullity sequence of (g - x)^j over GF(q^d).

        x = g^eig is one of the d roots of the primary polynomial f, so the
        nullity of (g - x)^j is that of f(g)^j over GF(q) divided by d.  Entry
        j of the sequence counts the blocks of size at least j.  Once a step
        adds at most one block, that block takes the rest of r/d."""
        F, ext, r, n = self.field, self.ext_field(d), self.r, self.r // d
        embed = self._ext_embed.get(d)
        if embed is None:  # by log, ZERO in the last slot, as in FieldSpec.tables
            embed = tuple(subfield_embed(v, F, ext) for v in (*range(F.q - 1), ZERO))
            self._ext_embed[d] = embed
        add, minus_x = ext.tables()[0], ext.neg(eig)
        entries = [[embed[v] for v in row] for row in rows]
        for i in range(r):
            entries[i][i] = add[entries[i][i]][minus_x]
        gx = power = Mat(ext, entries)
        diffs: list[int] = []
        seen = 0
        while True:
            step = r - _rank(ext, [list(row) for row in power.rows]) - seen
            diffs.append(step)
            seen += step
            if step <= 1 or seen == n:
                diffs.extend([1] * (n - seen))
                return conjugate_partition(diffs)
            power = power * gx

    # -- class map ---------------------------------------------------------

    def class_map(self) -> dict[ClassKey, list]:
        """key -> [element count, representative], over the full group.

        One pass of the scan behind ``iterate(FULL)``, which hands over each
        element's charpoly with its rows.  Counts are exact, keys appear in
        first-appearance order and each representative is the first element
        with its key."""
        if self._class_map is None:
            self._check_bound(FULL)
            table: dict[ClassKey, list] = {}
            for rows, cp in self._scan(FULL):
                key = self._key_of(cp, rows)
                slot = table.get(key)
                if slot is None:
                    table[key] = [1, Mat(self.field, rows)]
                else:
                    slot[0] += 1
            assert sum(c for c, _ in table.values()) == self.order()
            self._class_map = table
        return self._class_map

    def identity(self) -> Mat:
        return Mat.identity(self.field, self.r)


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

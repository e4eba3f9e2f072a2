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
row-pattern scan (:meth:`GLGroup._scan`) over the invertible matrices only.
det(x*I - g) is linear in the last row of g, so it is two generated
functions: ``prefix`` reads the first r - 1 rows once and also returns the r
cofactors of the last row (all ZERO: no last row makes g invertible, and the
scan skips those rows), and ``last`` adds in each last row, the constant term
first, so a singular g costs about r lookups.  ``class_map`` takes each
class size from the centralizer formula and scans only until every
non-central class has appeared; the singleton classes {z*I} come last in the
scan and are placed, not searched.  ``coset_reps`` builds the first element
of each coset U*g from the same rows: U adds multiples of lower rows to upper
rows, so that element has ZERO wherever a lower row starts (has its first
nonzero entry).

Inside the package a matrix is its row tuple; a :class:`Mat` is the checked
form a caller passes in or gets back, whose rows ``class_key`` and ``contains``
hand to :meth:`GLGroup.row_key` (memoized) and :meth:`GLGroup.has_leads`.
``Mat(field, rows)`` refuses (ValueError) rows that are empty, not square or
hold anything but field logs, and so do the named tuple's ``_make`` and
``_replace``; rows the package builds itself are wrapped unchecked by
:func:`_mat`.
``bessel_support`` lists as rows, each once, the monomials t*w (w block
anti-diagonal, t scalar on each block) off which Bessel functions vanish; the
list is closed under inversion.  :func:`_bruhat` writes g = u1 n u2 (u1, u2
in U, n monomial) and also gives the rank that the Jordan types read over
GF(q^d).  The only other row reduction is the Gauss-Jordan of ``Mat.inv``: an
inverse by Cayley-Hamilton through ``_charpoly`` and ``row_product`` took
twice as long on GL_4(F_2) (60.3 against 29.9 us).

Products look every entry up in the field's q x q tables
(:meth:`FieldSpec.tables`, slot e < q - 1 for g^e, the last slot for 0 =
ZERO = -1 by negative indexing).  The one product kernel, :func:`row_product`,
multiplies row tuples by a straight-line function per (field, r), generated
on first use with the tables bound; so are ``prefix`` and ``last``, per r.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Callable

from .cyclo import CycloNumber, _exact_log, _prime_factors, root_of_unity
from .ffield import MAX_Q, ZERO, AdditiveChar, FieldSpec, build_field, frobenius_orbit, subfield_embed

__all__ = [
    "Mat",
    "ClassKey",
    "NON_PRIMARY",
    "GLGroup",
    "gl_group",
    "conjugate_partition",
]

ELEMENT_BOUND = 10**6

FULL = "full"
UNIPOTENT = "unipotent"
MIRABOLIC = "mirabolic"
STABILIZER = "stabilizer"
SINGER = "singer"


class Mat(namedtuple("Mat", ("field", "rows"))):
    """A square matrix over a fixed GF(q), entries as field logs.

    A named tuple, as :class:`ClassKey` is: its fields cannot be reassigned,
    and it hashes in C over (field, rows).  It equals only another Mat with
    the same field and rows, never a plain (field, rows) tuple, so the two are
    distinct dict keys.  A FieldSpec compares by identity, so matrices over
    different fields are never equal."""

    __slots__ = ()

    def __new__(cls, field: FieldSpec, rows):
        rows = tuple(tuple(row) for row in rows)
        logs = range(ZERO, field.q - 1)  # ZERO = -1, then the logs 0..q-2
        if not rows or any(len(row) != len(rows) or not all(type(e) is int and e in logs for e in row) for row in rows):
            raise ValueError(f"a matrix over GF({field.q}) needs square rows of field logs in {ZERO}..{field.q - 2}")
        return tuple.__new__(cls, (field, rows))

    @classmethod
    def _make(cls, iterable) -> "Mat":
        """The named tuple's constructor from (field, rows), which ``_replace``
        also calls: through the row check, like ``Mat(field, rows)``."""
        return cls(*iterable)

    @classmethod
    def from_ints(cls, field: FieldSpec, rows) -> "Mat":
        """Entries given as prime-field integers (c meaning c*1)."""
        return cls(field, [[field.from_int(c) for c in row] for row in rows])

    @property
    def r(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, Mat) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not isinstance(other, Mat) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def _no_arithmetic(self, other):
        return NotImplemented

    # tuple's + and repetition would hand back a plain tuple: only Mat * Mat is defined
    __add__ = __rmul__ = _no_arithmetic

    def __radd__(self, other):
        # Python tries this before tuple + Mat, and NotImplemented would let that concatenate.
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and 'Mat'")

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        F, n = self.field, len(self.rows)
        if other.field is not F or len(other.rows) != n:
            raise ValueError("matrices over different fields or of different sizes do not multiply")
        return _mat(F, row_product(F, n)(self.rows, other.rows))

    def det(self) -> int:
        """(-1)^r times the constant term of the characteristic polynomial."""
        c = _charpoly(self.field, self.rows)[0]
        return c if len(self.rows) % 2 == 0 else self.field.neg(c)

    def inv(self) -> "Mat":
        F, n = self.field, len(self.rows)
        add, mul = F.tables()
        minus = mul[F.neg(0)]
        work = [list(row) + [0 if i == j else ZERO for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if work[i][col] != ZERO), None)
            if piv is None:
                raise ValueError("matrix is singular")
            work[col], work[piv] = work[piv], work[col]
            times = mul[-work[col][col] % (F.q - 1)]  # divide by the pivot
            pivot_row = work[col] = [times[v] for v in work[col]]
            for i in range(n):
                f = work[i][col]
                if i != col and f != ZERO:  # row i minus f * pivot row
                    times = mul[minus[f]]
                    work[i] = [add[a][times[b]] for a, b in zip(work[i], pivot_row)]
        return _mat(F, tuple(tuple(row[n:]) for row in work))

    def serialize(self) -> list[list[str]]:
        return [[FieldSpec.format_element(e) for e in row] for row in self.rows]

    def __repr__(self):
        return "Mat(" + "; ".join(",".join(FieldSpec.format_element(e) for e in row) for row in self.rows) + ")"


def _mat(field: FieldSpec, rows: tuple) -> Mat:
    """Wrap a row tuple of row tuples that the package built itself, unchecked."""
    return tuple.__new__(Mat, (field, rows))


@functools.cache
def row_product(field: FieldSpec, r: int) -> Callable:
    """``product(a, b)``: the product of r x r row tuples over the field, as straight-line code.

    Row i reads each table row m_ik = mul[a_ik] once, and entry (i, j) is one
    chain add[..add[m_i0[b_0j]][m_i1[b_1j]]..] with no calls and no loops.
    The source is generated and compiled once per (field, r), as
    collections.namedtuple builds its classes, with the field's tables bound."""
    def unpack(x):
        return "[" + ", ".join("[" + ", ".join(f"{x}{i}_{j}" for j in range(r)) + "]" for i in range(r)) + "]"

    def entry(i, j):
        return functools.reduce(lambda acc, k: f"add[{acc}][m{i}_{k}[b{k}_{j}]]", range(1, r), f"m{i}_0[b0_{j}]")

    rows = "".join("(" + "".join(entry(i, j) + ", " for j in range(r)) + "), " for i in range(r))
    source = (f"def bind(add, mul):\n  def product(a, b):\n    {unpack('a')} = a\n    {unpack('b')} = b\n"
              + "".join(f"    m{i}_{k} = mul[a{i}_{k}]\n" for i in range(r) for k in range(r))
              + f"    return ({rows})\n  return product\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace["bind"](*field.tables())


@functools.cache
def _charpoly_kernels(r: int) -> tuple[Callable, Callable]:
    """``prefix(tables, rows)`` and ``last(tables, pre, v, whole)``: det(x*I - g) as straight-line code.

    prefix reads the first r - 1 rows of g, last adds in the last row v.  Both
    follow Berkowitz's division-free recurrence: bordering a k x k block M with
    charpoly p_0 = 1, ..., p_k (top down) by a row R, a column C and a corner a
    gives c_n = p_n - a p_(n-1) - sum_m p_m R M^(n-2-m) C, which is linear in
    the last row; prefix returns the coefficient of each v_j in c_r (the r
    cofactors), then in each other c_n.  last sums c_r first; unless whole,
    a ZERO c_r (g singular) returns None.
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

    def tup(xs):
        return "(" + "".join(map("{}, ".format, xs)) + ")"

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
    # the last border, with v_(r-1) as the corner: c_n = p_n + sum_j v_j coef[j][n], p_r = 0
    coef = [[zero] * 2 + [bind(plus(times(negp[m], powers[n - 2 - m][j]) for m in range(n - 1)))
                          for n in range(2, r + 1)] for j in range(r - 1)] + [[zero] + negp]
    shared = tup(x for x in dict.fromkeys(p + sum(coef, [])) if x not in negs)
    ks, vs = ([f"{c}{j}" for j in range(r)] for c in "kv")  # c_r's cofactors, the last row
    cp = [plus([p[n]] + [times(vs[j], coef[j][n]) for j in range(r)]) for n in range(r - 1, -1, -1)]
    source = (
        f"def prefix(tables, rows):\n    add, mul, m1 = tables\n    neg = mul[m1]\n    {tup(map(tup, a))} = rows\n"
        + "".join(f"    {line}\n" for line in lines) + f"    return {tup(list(zip(*coef))[r])}, {shared}\n"
        f"def last(tables, pre, v, whole=False):\n    add, mul, m1 = tables\n    {tup(ks)}, rest = pre\n    {tup(vs)} = v\n"
        f"    c = {plus(map(times, vs, ks))}\n    if c == {zero} and not whole:\n        return None\n"
        f"    neg = mul[m1]\n    {shared} = rest\n    return {tup(['c'] + cp)}\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["prefix"], namespace["last"]


def _charpoly(F: FieldSpec, rows) -> tuple:
    """det(x*I - g) for the matrix g with these rows, low degree first."""
    prefix, last = _charpoly_kernels(len(rows))
    tables = (*F.tables(), F.neg(0))
    return last(tables, prefix(tables, rows[:-1]), rows[-1], True)


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


def _bruhat(F: FieldSpec, rows) -> tuple[list[list[int]], int, int]:
    """(n, s, rank): g = u1 n u2 with u1, u2 in U and s the sum of their
    superdiagonals, by row reduction over the field's (add, mul) tables in
    O(r^3) lookups; every row reduction of glq but ``Mat.inv``.

    Row i, from the last up, keeps its first nonzero entry, in column c:
    adding multiples of column c to later columns (g times an elementary
    matrix of U) clears the rest of row i, and adding multiples of row i
    to earlier rows (an elementary matrix of U times g) clears the rest of
    column c.  The rows below i are already ZERO off their own columns, so
    neither step touches them, and a ZERO row is passed over: n has rank
    nonzero entries, in distinct rows and columns.  The superdiagonal of a
    product in U is the sum of theirs, so s adds up the factor f of every
    step between neighbouring columns or rows: u1 and u2 are never built."""
    add, mul = F.tables()
    n1, minus = F.q - 1, mul[F.neg(0)]
    a = [list(row) for row in rows]
    r, s, rank = len(a), ZERO, 0
    for i in range(r - 1, -1, -1):
        row = a[i]
        for c, x in enumerate(row):
            if x != ZERO:
                break
        else:
            continue
        rank += 1
        inv = -row[c]
        for k in range(c + 1, r):
            if row[k] != ZERO:  # column k -= f * column c, f = a[i][k] / a[i][c]
                f = (row[k] + inv) % n1
                if k == c + 1:
                    s = add[s][f]
                neg_f = minus[f]
                for h in range(i + 1):
                    if a[h][c] != ZERO:
                        a[h][k] = add[a[h][k]][mul[neg_f][a[h][c]]]
        for h in range(i):
            if a[h][c] != ZERO:  # row h -= f * row i, f = a[h][c] / a[i][c]; row i is ZERO off column c
                if h == i - 1:
                    s = add[s][(a[h][c] + inv) % n1]
                a[h][c] = ZERO
    return a, s, rank


# -- conjugacy keys ----------------------------------------------------------


class ClassKey(namedtuple("ClassKey", ("d", "eig", "blocks"))):
    """Conjugacy key for primary classes; (None, None, None) is "non-primary".

    A named tuple, so that the hashing and comparing done for each scanned
    element in :meth:`GLGroup.class_map` and in the character caches run in C."""

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


def _partitions(n: int, largest: int = 0):
    """Every partition of n, as a descending tuple."""
    if n == 0:
        yield ()
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _centralizer_order(Q: int, blocks) -> int:
    """|C| of a unipotent of Jordan type blocks in GL_n(F_Q), in integers: Q^(sum of
    squared conjugate parts) times, per part size i, prod over j <= m_i of (1 - Q^-j)."""
    out = Q ** sum(c * c for c in conjugate_partition(blocks))
    for size in set(blocks):
        for j in range(1, blocks.count(size) + 1):
            out = out // Q**j * (Q**j - 1)
    return out


class GLGroup:
    """GL_r over GF(q) with cached structural data.

    What is built once per group is memoized by ``functools.cache`` on its
    method, and that cache keeps every group it has served alive for the life
    of the process; so :func:`gl_group`, which shares one instance per (q, r),
    is the constructor to use.  The class key of each element is kept in the
    dict ``_key_cache`` under the element's rows.  All public methods are
    pure; the caches are append-only.
    """

    def __init__(self, field: FieldSpec, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.field = field
        self.r = r
        self.q = field.q
        self.big_field = build_field(field.p, field.k * r)
        self._key_cache: dict[tuple, ClassKey] = {}

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
        if kind in (MIRABOLIC, STABILIZER):  # q^(r-1) |GL_(r-1)| each
            return self.order() // (q**r - 1)
        if kind == SINGER:
            return q**r - 1
        raise ValueError(f"unknown subgroup kind {kind!r}")

    def check_bound(self, kind: str):
        size = self.subgroup_order(kind)
        if size > ELEMENT_BOUND:
            raise ValueError(
                f"subgroup {kind} of GL_{self.r}(F_{self.q}) has "
                f"{size} elements, over the bound {ELEMENT_BOUND}"
            )

    def check_matrix(self, m: Mat):
        """Refuse (ValueError) a matrix of another group: another field object or another size."""
        if m.field is not self.field or len(m.rows) != self.r:
            raise ValueError(f"matrix is not in GL_{self.r}(F_{self.q})")

    # -- enumeration -----------------------------------------------------

    def iterate(self, kind: str):
        """Deterministic stream over a subgroup, each element exactly once."""
        self.check_bound(kind)
        if kind == SINGER:
            for e in range(self.q**self.r - 1):
                yield self.singer_matrix(e)
            return
        F = self.field
        for rows, _ in self._scan(kind):
            yield _mat(F, rows)

    def _scan(self, kind: str):
        """(rows, charpoly) of each invertible matrix of a subgroup, in enumeration order.

        Row i runs over its leads followed by every tuple of free entries;
        ``prefix`` runs once per choice of the first r - 1 rows (skipped if its
        cofactors are all ZERO), ``last`` once per last row."""
        F, r = self.field, self.r
        prefix, last = _charpoly_kernels(r)
        tables = (*F.tables(), F.neg(0))
        choices = [self._rows(lead) for lead in _leads(kind, r)]
        lasts = choices.pop()
        for top in itertools.product(*choices):
            pre = prefix(tables, top)
            if pre[0].count(ZERO) < r:
                for v in lasts:
                    cp = last(tables, pre, v)
                    if cp is not None:
                        yield top + (v,), cp

    def _rows(self, lead: tuple[int, ...], zeros: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
        """Each row with this lead and ZERO in the columns ``zeros``, the rest free, in enumeration order."""
        elems = tuple(self.field.elements())
        free = ((ZERO,) if c in zeros else elems for c in range(len(lead), self.r))
        return [lead + tail for tail in itertools.product(*free)]

    @functools.cache
    def elements(self, kind: str) -> tuple[Mat, ...]:
        elems = tuple(self.iterate(kind))
        assert len(elems) == self.subgroup_order(kind)
        return elems

    def contains(self, kind: str, m: Mat) -> bool:
        """Whether m lies in the subgroup: a matrix of this group, invertible,
        with the kind's row leads (or, for SINGER, a torus element)."""
        if m.field is not self.field or m.r != self.r:
            return False
        if kind == SINGER:
            return m.det() != ZERO and self.singer_decompose(m)[1] == self.identity()
        return self.has_leads(kind, m.rows) and (kind == UNIPOTENT or m.det() != ZERO)

    def has_leads(self, kind: str, rows) -> bool:
        """Whether these rows start with the kind's row leads; nothing else is checked."""
        return all(row[:len(lead)] == lead for row, lead in zip(rows, _leads(kind, self.r)))

    # -- nondegenerate character of U ------------------------------------

    def psi_u(self, u: Mat, psi: AdditiveChar) -> CycloNumber:
        """psi(sum of superdiagonal entries); a nondegenerate character of U."""
        if not self.contains(UNIPOTENT, u):
            raise ValueError("matrix is not unipotent upper-triangular")
        return root_of_unity(*self.psi_u_root(u.rows, psi))

    def psi_u_root(self, rows, psi: AdditiveChar) -> tuple[int, int]:
        """psi_u at the rows of u as (order, exponent), see :meth:`AdditiveChar.root`; u in U is not checked."""
        F = self.field
        acc = ZERO
        for i in range(self.r - 1):
            acc = F.add(acc, rows[i][i + 1])
        return psi.root(acc)

    # -- Singer torus ----------------------------------------------------

    def ext_field(self, d: int) -> FieldSpec:
        if self.r % d:
            raise ValueError(f"{d} does not divide r={self.r}")
        return build_field(self.field.p, self.field.k * d)

    @functools.cache
    def _singer(self) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
        """Coordinates of GF(q^r) in the basis 1, G, ..., G^{r-1} over GF(q):
        those of g_big^e for each e, and the log of each coordinate tuple."""
        F, K = self.field, self.big_field
        index: dict[tuple[int, ...], int] = {}
        for tup in self._rows(()):
            acc = ZERO
            for i, c in enumerate(tup):
                if c != ZERO:  # the basis element G^i has log i
                    acc = K.add(acc, K.mul(subfield_embed(c, F, K), i))
            index[tup] = acc
        assert len(set(index.values())) == K.q, "powers of the generator must span over GF(q)"
        return tuple(sorted(index, key=index.get))[1:], index  # by log; the zero tuple (ZERO) sorts first

    def singer_coeffs(self, e: int) -> tuple[int, ...]:
        """Coordinates of g_big^e in the power basis (logs over GF(q))."""
        return self._singer()[0][e % (self.big_field.q - 1)]

    def singer_matrix(self, e: int) -> Mat:
        """The multiplication-by-g^e matrix; a generator image of the Singer embedding."""
        cols = (self.singer_coeffs(e + j) for j in range(self.r))
        return _mat(self.field, tuple(zip(*cols)))

    def singer_decompose(self, g: Mat) -> tuple[int, Mat]:
        """Unique factorization g = x*h with x in the torus, h fixing e_1.

        Returns (log of x in GF(q^r), h)."""
        self.check_matrix(g)
        first_col = tuple(g.rows[i][0] for i in range(self.r))
        x = self._singer()[1][first_col]
        if x == ZERO:
            raise ValueError("matrix is singular")
        h = self.singer_matrix(-x) * g  # the torus inverse of g_big^x is g_big^-x
        return x, h

    # -- coset representatives -------------------------------------------

    @functools.cache
    def coset_reps(self, kind: str) -> tuple[Mat, ...]:
        """Representatives of U\\M for M in {full, mirabolic, stabilizer}.

        The identity represents U and comes first; every other coset follows in
        enumeration order, represented by its first element: the one with ZERO
        wherever a lower row starts (see the module docstring), built bottom up."""
        if kind not in (FULL, MIRABOLIC, STABILIZER):
            raise ValueError(f"no unipotent coset decomposition for {kind!r}")
        self.check_bound(kind)
        built = [((), ())]  # (the rows from some row down, the column where each starts)
        for lead in reversed(_leads(kind, self.r)):  # no lead sits where a lower row starts
            grown = []
            for below, starts in built:
                for row in self._rows(lead, starts):
                    start = next((c for c, x in enumerate(row) if x != ZERO), None)
                    if start is not None:
                        grown.append(((row, *below), (*starts, start)))
            built = grown
        first = self.identity().rows
        reps = sorted((rows for rows, _ in built), key=lambda rows: (rows != first, rows))
        expected = self.subgroup_order(kind) // self.subgroup_order(UNIPOTENT)
        assert len(reps) == expected, "coset partition does not tile the subgroup"
        return tuple(_mat(self.field, rows) for rows in reps)

    @functools.cache
    def coset_rep_inverses(self, kind: str) -> tuple[Mat, ...]:
        return tuple(c.inv() for c in self.coset_reps(kind))

    # -- support of the Bessel functions -----------------------------------

    @functools.cache
    def bessel_support(self) -> tuple[tuple[tuple, int], ...]:
        """(n, len(w)), n as rows, for each monomial n = t*w off which every Bessel function vanishes.

        For each composition r_1 + ... + r_k of r, w puts identity blocks on
        the block anti-diagonal (row block i in column block k + 1 - i) and t
        is a scalar on each row block: (q - 1) q^(r-1) monomials, len(w) =
        sum over i < j of r_i r_j.  Each monomial is listed once, and the list
        is closed under inversion: n^-1 is the monomial of the reversed
        composition with the inverse scalars, of the same len(w).  A Bessel
        value sums over U, so the support refuses (ValueError) when it times
        |U| exceeds ELEMENT_BOUND, before anything is built."""
        q, r = self.q, self.r
        size = (q - 1) * q ** (r - 1) * self.subgroup_order(UNIPOTENT)
        if size > ELEMENT_BOUND:
            raise ValueError(
                f"the Bessel support of GL_{r}(F_{q}) times its unipotent subgroup has "
                f"{size} elements, over the bound {ELEMENT_BOUND}"
            )
        support = []
        for cuts in itertools.product((False, True), repeat=r - 1):
            ends = [i for i in range(1, r) if cuts[i - 1]] + [r]
            blocks = list(zip([0, *ends], ends))  # rows lo..hi-1 sit in columns r-hi..r-lo-1
            length = (r * r - sum((hi - lo) ** 2 for lo, hi in blocks)) // 2
            for scalars in itertools.product(range(q - 1), repeat=len(blocks)):
                n = [[ZERO] * r for _ in range(r)]
                for (lo, hi), e in zip(blocks, scalars):
                    for i in range(lo, hi):
                        n[i][r - lo - hi + i] = e
                support.append((tuple(map(tuple, n)), length))
        return tuple(support)

    def bruhat_cell(self, rows) -> tuple[tuple, int]:
        """(n, s) for the rows of g: g = u1 n u2 with u1, u2 in U, n monomial
        (as rows) and s the sum of the superdiagonals of u1 and u2 (:func:`_bruhat`)."""
        n, s, rank = _bruhat(self.field, rows)
        if rank < self.r:
            raise ValueError("matrix is singular")
        return tuple(map(tuple, n)), s

    # -- characteristic polynomial and class keys -------------------------

    def charpoly(self, g: Mat):
        """det(x*I - g) as a monic polynomial over GF(q), low degree first."""
        self.check_matrix(g)
        return _charpoly(self.field, g.rows)

    def class_key(self, g: Mat) -> ClassKey:
        """Conjugacy key of g: primary data (d, eigenvalue orbit, Jordan type) or non-primary."""
        self.check_matrix(g)  # rows alone do not name a field
        return self.row_key(g.rows)

    def row_key(self, rows) -> ClassKey:
        """The class key of the matrix with these rows, unchecked, kept in ``_key_cache`` under them."""
        key = self._key_cache.get(rows)
        if key is None:
            cp = _charpoly(self.field, rows)
            if cp[0] == ZERO:  # det(g) = (-1)^r cp(0)
                raise ValueError("matrix is singular")
            key = self._key_cache[rows] = self._key_of(cp, rows)
        return key

    @functools.cache
    def _primary_classes(self) -> dict[tuple, tuple[int, int]]:
        """charpoly -> (d, eig) for the primary classes, read off the Singer torus.

        A primary charpoly is f^(r/d) for an irreducible f != x of degree d | r,
        and f is the minimal polynomial of a Frobenius orbit of length d in
        GF(q^d)^x.  So each such orbit, named by its smallest log y in GF(q^d),
        gives one entry: the charpoly of the Singer matrix of y (embedded in
        GF(q^r)) is minpoly(y)^(r/d), and eig = y."""
        K, primary = self.big_field, {}
        for d in range(1, self.r + 1):
            if self.r % d:
                continue
            ext = self.ext_field(d)
            for y in range(ext.q - 1):
                orbit = frobenius_orbit(y, self.q, ext.q - 1)
                if orbit[0] == y and len(orbit) == d:
                    primary[self.charpoly(self.singer_matrix(subfield_embed(y, ext, K)))] = (d, y)
        return primary

    def _key_of(self, cp, rows) -> ClassKey:
        """Class key of the invertible matrix with these rows and charpoly cp."""
        hit = self._primary_classes().get(cp)
        if hit is None:
            return NON_PRIMARY
        return ClassKey(*hit, (1,) if hit[0] == self.r else self._jordan_blocks(rows, *hit))

    def _jordan_blocks(self, rows, d: int, eig: int) -> tuple[int, ...]:
        """Jordan partition of r/d from the nullity sequence of (g - x)^j over GF(q^d).

        x = g^eig is one of the d roots of the primary polynomial f, so the
        nullity of (g - x)^j is that of f(g)^j over GF(q) divided by d.  Step
        j counts the blocks of size at least j.  Once at most one block is
        undecided (a step of at most one block, or at most one unit of r/d
        left), it takes the rest."""
        ext, r, n = self.ext_field(d), self.r, self.r // d
        embed = self._embedded_logs(d) if d > 1 else ()
        gx = power = [[embed[v] for v in row] if embed else list(row) for row in rows]
        add, minus_x = ext.tables()[0], ext.neg(eig)
        for i in range(r):
            gx[i][i] = add[gx[i][i]][minus_x]
        steps, seen = (), 0
        while True:
            step = r - _bruhat(ext, power)[2] - seen
            steps, seen = steps + (step,), seen + step
            if step <= 1 or n - seen <= 1:
                return conjugate_partition(steps + (1,) * (n - seen))
            power = row_product(ext, r)(power, gx)

    @functools.cache
    def _embedded_logs(self, d: int) -> tuple[int, ...]:
        """The image in GF(q^d) of each element of GF(q), by log, ZERO in the last slot, as in FieldSpec.tables."""
        F = self.field
        return tuple(subfield_embed(v, F, self.ext_field(d)) for v in (*range(F.q - 1), ZERO))

    # -- class map ---------------------------------------------------------

    @functools.cache
    def class_map(self) -> dict[ClassKey, list]:
        """key -> [element count, representative], over the full group.

        Keys in first-appearance order in ``iterate(FULL)``, each with its first
        element.  Counts are |G| / |C|, C of order c_blocks(q^d) (see
        :func:`_centralizer_order`); NON_PRIMARY, if not empty, holds the rest.
        The scan stops once every non-central key has appeared: a singleton
        {z*I} not met by then lies later, the z*I in ascending z (ZERO sorts
        first), so each is appended as [1, z*I].  A scan that ends with a
        non-central key missing is an internal error."""
        self.check_bound(FULL)
        q, r, order = self.q, self.r, self.order()
        sizes = {ClassKey(d, eig, blocks): order // _centralizer_order(q**d, blocks)
                 for d, eig in self._primary_classes().values() for blocks in _partitions(r // d)}
        rest = order - sum(sizes.values())
        if rest:
            sizes[NON_PRIMARY] = rest
        central = [ClassKey(1, z, (1,) * r) for z in range(q - 1)]
        missing, table = set(sizes).difference(central), {}
        for rows, cp in self._scan(FULL) if missing else ():
            key = self._key_of(cp, rows)
            if key not in table:
                table[key] = [sizes[key], _mat(self.field, rows)]
                missing.discard(key)
                if not missing:
                    break
        if missing:
            raise RuntimeError(f"class_map of GL_{r}(F_{q}): no element found for {sorted(map(str, missing))}")
        for z, key in enumerate(central):
            if key not in table:
                table[key] = [1, _mat(self.field, tuple(tuple(z if i == j else ZERO for j in range(r)) for i in range(r)))]
        return table

    def identity(self) -> Mat:
        return _mat(self.field, tuple(tuple(0 if i == j else ZERO for j in range(self.r)) for i in range(self.r)))


def gl_group(q: int, r: int) -> GLGroup:
    """The one GLGroup instance for GL_r(F_q).

    q must be a prime power p^k no larger than ``ffield.MAX_Q``, and the
    bound is checked before q is factored; GF(q^r) is then bounded by
    :func:`~cuspeps.ffield.build_field` (ValueError in each case)."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    if q > MAX_Q:
        raise ValueError(f"field size {q} exceeds the configured bound {MAX_Q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    return _group(primes[0], _exact_log(q, primes[0]), r)


@functools.cache
def _group(p: int, k: int, r: int) -> GLGroup:
    return GLGroup(build_field(p, k), r)

"""Verification suites: the library's acceptance machinery.

Each suite re-derives a family of identities by brute force and reports one
line per check.  The suites are deterministic: sampling uses a caller-seeded
generator, enumeration orders are fixed, and no timing or environment data
enters the report.  The command-line ``verify`` subcommand and the test
suite both run these functions; CI can gate on the exit code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import add

from ._frozen import Frozen, set_field
from .bessel import get_evaluator
from .cusp import (
    contragredient,
    gelfand_graev_mult,
    inner_product,
    list_cuspidals,
    mirabolic_restriction_check,
)
from .cyclo import CycloNumber, _mod_phi, _prime_factors, root_of_unity, zero
from .epsilon import (
    LevelZeroRep,
    OracleError,
    TameTwist,
    epsilon_pair,
    pair_sum_vanishing,
    twist_ratio_check,
    zeta_tilde_oracle,
)
from .ffield import ZERO, AdditiveChar, MultChar, build_field, subfield_embed
from .glq import FULL, MIRABOLIC, SINGER, STABILIZER, UNIPOTENT, GLGroup, Mat, gl_group, row_product
from .transfer import RootOfUnity, SMonomial, TransferData, epsilon_transfer

DEFAULT_SEED = 20240801

CUSP_GROUPS = ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3))
BESSEL_SAMPLED = ((3, 2), (5, 2), (2, 3))
EPSILON_GROUPS = ((3, 1), (5, 1), (2, 2), (3, 2))
EPSILON_SAMPLED = ((4, 2), (2, 3))
# unramified parameters drawn for the sampled epsilon pairs, one of order 3
T_CHOICES = (RootOfUnity(1, 0), RootOfUnity(3, 1), RootOfUnity(4, 1))


class Check(Frozen):
    __slots__ = ("suite", "name", "ok", "detail")

    def __init__(self, suite: str, name: str, ok: bool, detail: str = ""):
        set_field(self, "suite", suite)
        set_field(self, "name", name)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.suite}: {self.name}{tail}"


def _std_psi(group: GLGroup) -> AdditiveChar:
    return AdditiveChar(group.field, 0)


def _groups(pairs, q=None, r=None):
    out = [(qq, rr) for qq, rr in pairs if (q is None or qq == q) and (r is None or rr == r)]
    if not out and q is not None and r is not None:
        out = [(q, r)]
    return out


# ---------------------------------------------------------------------------
# field suite


def _mobius(n: int) -> int:
    """The Moebius function mu(n), n >= 1: 0 unless n is squarefree, else (-1)^(number of primes)."""
    primes = _prime_factors(n)
    return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)


def field_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    checks = []
    fields = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1), (2, 4), (7, 1), (3, 3), (5, 2), (2, 6), (3, 4)]
    for p, k in fields:
        F = build_field(p, k)
        if F.q > 81:
            continue
        elems = list(F.elements())
        ok = True
        for a in elems:
            for b in elems:
                if F.add(a, b) != F.add(b, a) or F.mul(a, b) != F.mul(b, a):
                    ok = False
                for c in elems:
                    if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
                        ok = False
                        break
        checks.append(Check("field", f"field axioms GF({p}^{k})", ok))
    # Zech consistency against polynomial arithmetic
    for p, k in ((2, 3), (3, 2), (5, 2), (2, 4)):
        F = build_field(p, k)
        ok = True
        for l in range(F.q - 1):
            vec = tuple((a + b) % p for a, b in zip(F.powers[l], F.powers[0]))
            expect = ZERO if not any(vec) else F._log[vec]
            if F.zech[l] != expect:
                ok = False
        checks.append(Check("field", f"Zech table GF({p}^{k})", ok))
    # character laws, exhaustive while q^n <= 81
    for p, k in ((3, 2), (2, 3), (2, 4), (2, 6), (3, 4)):
        F = build_field(p, k)
        psi = AdditiveChar(F, 0)
        theta = MultChar(F, 1)
        elems = list(F.elements())
        ok_add = all(
            psi.eval(F.add(x, y)) == psi.eval(x) * psi.eval(y) for x in elems for y in elems
        )
        ok_mul = all(
            theta.eval(F.mul(x, y)) == theta.eval(x) * theta.eval(y)
            for x in elems
            for y in elems
            if x != ZERO and y != ZERO
        )
        checks.append(Check("field", f"character laws GF({p}^{k})", ok_add and ok_mul))
    # embedding compatibility: multiplicative, additive, Frobenius
    for (pa, ka), (pb, kb) in (((2, 2), (2, 4)), ((3, 1), (3, 2)), ((2, 3), (2, 6)), ((2, 2), (2, 6))):
        src, dst = build_field(pa, ka), build_field(pb, kb)
        ok = True
        elems = list(src.elements())
        for x in elems:
            for y in elems:
                if subfield_embed(src.mul(x, y), src, dst) != dst.mul(
                    subfield_embed(x, src, dst), subfield_embed(y, src, dst)
                ):
                    ok = False
                if subfield_embed(src.add(x, y), src, dst) != dst.add(
                    subfield_embed(x, src, dst), subfield_embed(y, src, dst)
                ):
                    ok = False
            if subfield_embed(src.pow(x, src.q), src, dst) != dst.pow(
                subfield_embed(x, src, dst), src.q
            ) and x != ZERO:
                ok = False
        checks.append(Check("field", f"embedding GF({pa}^{ka}) -> GF({pb}^{kb})", ok))
    # regular-orbit counts match the necklace formula
    for qq in (2, 3, 4, 5):
        for n in (1, 2, 3):
            if qq**n > 4096:
                continue
            group = gl_group(qq, n)
            count = len(list_cuspidals(group))
            expect = sum(_mobius(n // d) * (qq**d - 1) for d in range(1, n + 1) if n % d == 0) // n
            checks.append(
                Check("field", f"regular orbit count q={qq} n={n}", count == expect, f"{count}")
            )
    return checks


# ---------------------------------------------------------------------------
# cyclo suite


def cyclo_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    rng = random.Random(seed)
    checks = []

    def rand_value():
        m = rng.choice((1, 3, 4, 5, 8, 12))
        acc = zero()
        for _ in range(rng.randrange(4)):
            acc = acc + root_of_unity(m, rng.randrange(m)).scale(
                Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            )
        return acc

    ring_ok = True
    for _ in range(250):
        a, b, c = rand_value(), rand_value(), rand_value()
        if (a + b) * c != a * c + b * c or (a * b) * c != a * (b * c):
            ring_ok = False
            break
    checks.append(Check("cyclo", "ring axioms on random samples", ring_ok))

    conj_ok = all(
        (lambda a, b: (a * b).conjugate() == a.conjugate() * b.conjugate()
         and a.conjugate().conjugate() == a)(rand_value(), rand_value())
        for _ in range(150)
    )
    checks.append(Check("cyclo", "conjugation is a ring involution", conj_ok))

    embed_ok = True
    for _ in range(400):
        a = rand_value()
        if a.is_zero() != (abs(a.embed()) < 1e-9):
            embed_ok = False
            break
    checks.append(Check("cyclo", "is_zero matches the complex embedding", embed_ok))

    promote_ok = all(
        (lambda a: a.promote(a.m * rng.choice((2, 3, 5))) == a)(rand_value()) for _ in range(150)
    )
    checks.append(Check("cyclo", "order promotion round-trip", promote_ok))

    special = [
        ("1 + z3 + z3^2 = 0", (root_of_unity(3, 0) + root_of_unity(3, 1) + root_of_unity(3, 2)).is_zero()),
        ("z4^2 = -1", root_of_unity(4, 1) * root_of_unity(4, 1) == -1),
        ("(z3 - z3^2)^2 = -3", (root_of_unity(3, 1) - root_of_unity(3, 2)) ** 2 == -3),
        ("z8 * z8^7 = 1", root_of_unity(8, 1) * root_of_unity(8, 7) == 1),
    ]
    for name, ok in special:
        checks.append(Check("cyclo", name, ok))
    return checks


# ---------------------------------------------------------------------------
# glq suite


def glq_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for qq, rr in _groups(((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)), q, r):
        group = gl_group(qq, rr)
        elems = group.elements(FULL)
        checks.append(
            Check("glq", f"|GL_{rr}(F_{qq})| enumerated", len(elems) == group.order(), str(len(elems)))
        )
        for kind in (UNIPOTENT, MIRABOLIC, STABILIZER, SINGER):
            n = sum(1 for _ in group.iterate(kind))
            checks.append(
                Check("glq", f"|{kind}| in GL_{rr}(F_{qq})", n == group.subgroup_order(kind), str(n))
            )
        # class_key is a class function
        ok = True
        for _ in range(min(1000, 20 * len(elems))):
            g, h = rng.choice(elems), rng.choice(elems)
            if group.class_key(g * h) != group.class_key(h * g):
                ok = False
                break
        checks.append(Check("glq", f"class_key conjugation-invariant GL_{rr}(F_{qq})", ok))
        # Singer decomposition is a bijection
        if qq**rr <= 81:
            seen = set()
            ok = True
            for g in elems:
                x, h = group.singer_decompose(g)
                if not group.contains(STABILIZER, h) or group.singer_matrix(x) * h != g:
                    ok = False
                    break
                seen.add((x, h))
            ok = ok and len(seen) == len(elems)
            checks.append(Check("glq", f"Singer decomposition bijective GL_{rr}(F_{qq})", ok))
        # psi_U is a homomorphism, trivial on commutators
        psi = _std_psi(group)
        unip = group.elements(UNIPOTENT)
        hom_ok = all(
            group.psi_u(u1 * u2, psi) == group.psi_u(u1, psi) * group.psi_u(u2, psi)
            for u1 in unip
            for u2 in unip
        )
        pairs = [(u, u.inv()) for u in unip]
        comm_ok = all(
            group.psi_u(u1 * u2 * v1 * v2, psi) == 1 for u1, v1 in pairs for u2, v2 in pairs
        )
        checks.append(Check("glq", f"psi_U homomorphism GL_{rr}(F_{qq})", hom_ok and comm_ok))
    return checks


# ---------------------------------------------------------------------------
# cusp suite (acceptance criterion 1)


def cusp_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    checks = []
    for qq, rr in _groups(CUSP_GROUPS, q, r):
        group = gl_group(qq, rr)
        psi = _std_psi(group)
        cusps = list_cuspidals(group)
        tables = [s.char_table() for s in cusps]
        ortho_ok = True
        for i, ti in enumerate(tables):
            for j, tj in enumerate(tables):
                expect = 1 if i == j else 0
                if inner_product(ti, tj, group) != expect:
                    ortho_ok = False
        checks.append(
            Check("cusp", f"orthonormality GL_{rr}(F_{qq})", ortho_ok, f"{len(cusps)} cuspidals")
        )
        dims_ok = all(s.char_at(group.identity()) == s.dim() for s in cusps)
        checks.append(Check("cusp", f"dimension values GL_{rr}(F_{qq})", dims_ok))
        gg_ok = all(gelfand_graev_mult(s, psi) == 1 for s in cusps)
        checks.append(Check("cusp", f"Gelfand-Graev multiplicity GL_{rr}(F_{qq})", gg_ok))
        mir_ok = all(mirabolic_restriction_check(s, psi) for s in cusps)
        checks.append(Check("cusp", f"mirabolic/stabilizer restriction GL_{rr}(F_{qq})", mir_ok))
        # central character and degree-sum sanity
        central_ok = True
        for s in cusps:
            for z in range(qq - 1):
                zmat = Mat(group.field, [[z if i == j else ZERO for j in range(rr)] for i in range(rr)])
                if s.char_at(zmat) != s.central_value(z).scale(s.dim()):
                    central_ok = False
        checks.append(Check("cusp", f"central characters GL_{rr}(F_{qq})", central_ok))
        degree_sum = sum(s.dim() ** 2 for s in cusps)
        bound_ok = degree_sum <= group.order() and (rr == 1 or degree_sum < group.order())
        checks.append(Check("cusp", f"degree-sum bound GL_{rr}(F_{qq})", bound_ok))
    return checks


# ---------------------------------------------------------------------------
# numbered elements and values: the arithmetic of the bessel, realization and
# vanishing suites

class _Elements:
    """The elements of one group numbered once, in ``elements(FULL)`` order.

    ``rows[x]`` are the rows of element x and ``number[rows]`` is x, so the
    product of two elements is one call of the group's bound kernel
    (:func:`cuspeps.glq.row_product`) and one lookup keyed by rows: ``mul(x,
    y)`` is the number of x y.  ``left(fs)`` and ``right(fs)`` are read at an
    element number g and give the numbers of f g and of g f for each f of a
    family of fixed factors (the coset representatives or their inverses, the
    elements of U, the scalars z I): the products at g are formed at the
    first read of g and kept (:class:`_Products`), so every cuspidal shares
    them and the memory grows only with the elements read, one tuple each."""

    __slots__ = ("rows", "number", "_prod")

    def __init__(self, group: GLGroup):
        self.rows = [g.rows for g in group.elements(FULL)]
        self.number = {rows: x for x, rows in enumerate(self.rows)}
        self._prod = row_product(group.field, group.r)

    def mul(self, x: int, y: int) -> int:
        return self.number[self._prod(self.rows[x], self.rows[y])]

    def left(self, fs) -> _Products:
        """The numbers of f g for each f of ``fs``, by element number g."""
        return _Products(self, fs, True)

    def right(self, fs) -> _Products:
        """The numbers of g f for each f of ``fs``, by element number g."""
        return _Products(self, fs, False)


class _Products(dict):
    """``_Elements.left`` or ``right`` of a family of factors: at element
    number g, the tuple of the numbers of f g (or g f) for each factor f,
    formed at the first read of g and kept."""

    __slots__ = ("_els", "_factors", "_left")

    def __init__(self, els: _Elements, fs, left: bool):
        super().__init__()
        self._els, self._factors, self._left = els, [els.rows[f] for f in fs], left

    def __missing__(self, g: int) -> tuple:
        els = self._els
        number, prod, b = els.number, els._prod, els.rows[g]
        if self._left:
            self[g] = t = tuple([number[prod(a, b)] for a in self._factors])
        else:
            self[g] = t = tuple([number[prod(b, a)] for a in self._factors])
        return t


class _Numbers:
    """The distinct values of one cuspidal's tables as numbers, with exact
    sums and products of them over integers.

    The suites read J once per element, through the evaluator, into a list
    indexed by element number (:class:`_Elements`), and number each value by
    calling the table with it: values are numbered by their canonical (m, num,
    den), and each is written once as the integers of D * value at the common
    order M and denominator D of every value numbered.  The remainder modulo
    Phi_M is linear and unique, so a sum of values equals a value exactly when
    the sums of their integers agree, and the product of two values is the
    convolution of their integers reduced modulo Phi_M (D^2 times the
    product), formed at most once per pair.  A value numbered later whose order
    or denominator does not divide M or D widens them and rewrites the table.
    No cyclotomic number is formed per sum or product; tests check each
    comparison against the same one over :class:`cuspeps.cyclo.CycloNumber`
    (``bessel.hankel_check``, ``mat_trace``, ``mat_mul`` and ``mat_eq`` among
    them)."""

    __slots__ = ("_index", "_values", "_ints", "_targets", "_products", "order", "den")

    def __init__(self, values):
        self._index, self._values, self._products = {}, [], {}
        for x in values:
            n = self._index.setdefault((x.m, x.num, x.den), len(self._values))
            if n == len(self._values):
                self._values.append(x)
        self._write(lcm(*(x.m for x in self._values)), lcm(*(x.den for x in self._values)))

    def _write(self, order: int, den: int) -> None:
        self.order, self.den, self._ints, self._targets = order, den, [], []
        self._products.clear()
        for x in self._values:
            self._add(x)

    def _add(self, x: CycloNumber) -> None:
        v = tuple(c * (self.den // x.den) for c in x.promote(self.order).num)
        self._ints.append(v)
        self._targets.append(tuple(self.den * c for c in v))

    def __call__(self, x: CycloNumber) -> int:
        key = (x.m, x.num, x.den)
        n = self._index.get(key)
        if n is None:
            n = self._index[key] = len(self._values)
            self._values.append(x)
            if self.order % x.m or self.den % x.den:
                self._write(lcm(self.order, x.m), lcm(self.den, x.den))
            else:
                self._add(x)
        return n

    def _product(self, x: int, y: int) -> tuple:
        a, b = self._ints[x], self._ints[y]
        work = [0] * (2 * len(a) - 1)
        terms = [(j, c) for j, c in enumerate(b) if c]
        for i, c in enumerate(a):
            if c:
                for j, d in terms:
                    work[i + j] += c * d
        self._products[x, y] = p = _mod_phi(self.order, work)
        return p

    def is_sum(self, ns, k: int) -> bool:
        """Whether the values numbered ``ns`` (at least one) add up to value k."""
        ints = self._ints
        return tuple(map(sum, zip(*(ints[n] for n in ns)))) == ints[k]

    def is_product_sum(self, pairs, k: int) -> bool:
        """Whether x_i x_j summed over the pairs (i, j) (at least one) is value k."""
        products, acc = self._products, None
        for pair in pairs:
            p = products.get(pair) or self._product(*pair)
            acc = p if acc is None else tuple(map(add, acc, p))
        return acc == self._targets[k]

    def agree(self, a, b, c) -> bool:
        """Whether a b == c for three square matrices of value numbers: each
        entry of a b is the sum of its pair products (inlined, as the hot loop
        of the realization suite)."""
        cols, products, targets = list(zip(*b)), self._products, self._targets
        for row, c_row in zip(a, c, strict=True):
            for col, k in zip(cols, c_row, strict=True):
                acc = None
                for pair in zip(row, col, strict=True):
                    p = products.get(pair) or self._product(*pair)
                    acc = p if acc is None else tuple(map(add, acc, p))
                if acc != targets[k]:
                    return False
        return True


def _bessel_numbers(ev, els: _Elements):
    """J at every element, read through the evaluator, as a list by element
    number; the table numbering those values; and their numbers, by element."""
    values = [ev(rows) for rows in els.rows]
    nums = _Numbers(values)
    return values, nums, list(map(nums, values))


def _coset_products(els: _Elements, group: GLGroup, kind: str) -> tuple:
    """``left`` of the coset representatives c of U\\M and ``right`` of their
    inverses: the numbers of c_i g and of g c_j^-1 at each element number g."""
    number = els.number
    return (
        els.left([number[c.rows] for c in group.coset_reps(kind)]),
        els.right([number[c.rows] for c in group.coset_rep_inverses(kind)]),
    )


def _hankel(nums: _Numbers, js, els: _Elements, reps, a: int, b: int) -> bool:
    """``bessel.hankel_check`` at the elements numbered a, b over numbered
    values: the sum of J(a c^-1) J(c b) over the coset representatives c of
    ``reps`` (from :func:`_coset_products`) is J(a b); ``js`` holds the
    number of J at each element."""
    lefts, rights = reps
    pairs = [(js[x], js[y]) for x, y in zip(rights[a], lefts[b])]
    return nums.is_product_sum(pairs, js[els.mul(a, b)])


# ---------------------------------------------------------------------------
# bessel suite (acceptance criterion 2)


def _bessel_property_checks(group: GLGroup, els: _Elements, checks, label, rng):
    """J(1) = 1, central and U-equivariance on both sides, support on U and
    the Hankel identity, for each cuspidal, over all of G (``els``).

    The group side is shared by every cuspidal: the products by the scalars
    z I, by the elements of U and by the stabilizer's coset representatives
    and their inverses, as element numbers kept at their first read
    (:class:`_Products`), and which elements of the mirabolic and the
    stabilizer lie in U, with their psi_U.  Each cuspidal reads J once
    per element through the evaluator and numbers the values
    (:class:`_Numbers`: J over G, then the central values and the psi_U
    roots); samples are drawn as element numbers, at the positions that
    drawing the elements themselves would pick.  The sum over U at each
    sampled g (``ev.direct``) stays the reference: it must equal J(g), which is
    the check at u = 1, and then J(u g) = J(g u) = psi_U(u) J(g) for every u is
    checked on the numbers."""
    psi = _std_psi(group)
    n, number, rr = len(els.rows), els.number, group.r
    unip = [number[u.rows] for u in group.elements(UNIPOTENT)]
    unip_left, unip_right = els.left(unip), els.right(unip)
    psi_us = [group.psi_u(u, psi) for u in group.elements(UNIPOTENT)]
    zs = [
        number[tuple(tuple(z if i == j else ZERO for j in range(rr)) for i in range(rr))] for z in range(group.q - 1)
    ]
    scal_left, scal_right = els.left(zs), els.right(zs)
    reps = _coset_products(els, group, STABILIZER)
    support = [
        (number[m.rows], group.psi_u(m, psi) if group.contains(UNIPOTENT, m) else None)
        for kind in (MIRABOLIC, STABILIZER)
        for m in group.iterate(kind)
    ]
    k = min(150, n)
    for sigma in list_cuspidals(group):
        ev = get_evaluator(sigma, psi)
        values, nums, js = _bessel_numbers(ev, els)
        centrals = [nums(sigma.central_value(z)) for z in range(group.q - 1)]
        roots = list(map(nums, psi_us))
        ok_one = ev(group.identity().rows) == 1
        checks.append(Check("bessel", f"{label} J(1)=1 orbit {sigma.orbit[0]}", ok_one))

        def equivariant(factor, xg, gx, g):
            """J(x g) == J(g x) == value ``factor`` times J(g), given the numbers of x g and g x."""
            want = ((factor, js[g]),)
            return nums.is_product_sum(want, js[xg]) and nums.is_product_sum(want, js[gx])

        scal_ok = True
        for i, central in enumerate(centrals):
            for g in rng.sample(range(n), k):
                if not equivariant(central, scal_left[g][i], scal_right[g][i], g):
                    scal_ok = False
        checks.append(Check("bessel", f"{label} central equivariance orbit {sigma.orbit[0]}", scal_ok))
        equi_ok = True
        for g in rng.sample(range(n), k):
            # ev holds the sum over U by construction; compare them, then the other u on the numbers
            if ev.direct(els.rows[g]) != values[g] or not all(
                equivariant(pu, ug, gu, g) for pu, ug, gu in zip(roots, unip_left[g], unip_right[g])
            ):
                equi_ok = False
        checks.append(Check("bessel", f"{label} U-equivariance orbit {sigma.orbit[0]}", equi_ok))
        supp_ok = all(values[x] == pu if pu is not None else values[x].is_zero() for x, pu in support)
        checks.append(Check("bessel", f"{label} support on U orbit {sigma.orbit[0]}", supp_ok))
        hankel_ok = True
        n_pairs = 500 if n > 36 else n**2
        for _ in range(min(n_pairs, 500)):
            a, b = rng.randrange(n), rng.randrange(n)
            if not _hankel(nums, js, els, reps, a, b):
                hankel_ok = False
                break
        checks.append(Check("bessel", f"{label} Hankel identity orbit {sigma.orbit[0]}", hankel_ok))


def bessel_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    groups = _groups(((2, 2),) + BESSEL_SAMPLED, q, r)
    for qq, rr in groups:
        group = gl_group(qq, rr)
        label = f"GL_{rr}(F_{qq})"
        _bessel_property_checks(group, _Elements(group), checks, label, rng)
    if (2, 2) in groups:
        # the unique cuspidal of GL_2(F_2) is the sign character of S_3
        group = gl_group(2, 2)
        psi = _std_psi(group)
        sigma = list_cuspidals(group)[0]
        ev = get_evaluator(sigma, psi)
        ok = True
        for g in group.elements(FULL):
            key = group.class_key(g)
            sign = -1 if (key.d, key.blocks) == (1, (2,)) else 1
            if ev(g.rows) != sign or sigma.char_at(g) != sign:
                ok = False
        checks.append(Check("bessel", "GL_2(F_2) Bessel = sign character of S_3", ok))
    # contragredient identities on GL_2(F_3)
    if not [1 for qq, rr in groups if (qq, rr) == (3, 2)]:
        return checks
    group = gl_group(3, 2)
    psi = _std_psi(group)
    pairs = [(g.rows, g.inv().rows) for g in group.elements(FULL)]
    for sigma in list_cuspidals(group):
        ev = get_evaluator(sigma, psi)
        dual = get_evaluator(contragredient(sigma), psi.conjugate())
        ok = all(dual(g) == ev(g_inv) and dual(g) == ev(g).conjugate() for g, g_inv in pairs)
        checks.append(
            Check("bessel", f"contragredient table identities orbit {sigma.orbit[0]}", ok)
        )
    return checks


# ---------------------------------------------------------------------------
# realization suite (acceptance criterion 3)


def _entries(reps: tuple, g: int) -> tuple:
    """The entries of L(g) = (J(c_i g c_j^-1)) as element numbers: the
    numbers of c_i g c_j^-1, c_i the coset representatives of ``reps`` (from
    :func:`_coset_products`).  ``bessel.operator_L`` is its reference."""
    lefts, rights = reps
    return tuple(rights[cg] for cg in lefts[g])


def _operators(reps: tuple, js) -> list:
    """L(g) for each element number g as a matrix of value numbers: its
    entries read through ``js``, the number of J at each element."""
    return [tuple(tuple(js[x] for x in row) for row in _entries(reps, g)) for g in range(len(js))]


def realization_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    """L(1) = id, trace L(g) = chi(g), L(g1) L(g2) = L(g1 g2) on 200 random
    pairs and L(g)[0][0] = J(g), for each cuspidal and each model space.

    The products c_i g c_j^-1, the entries of every L(g) as element numbers
    (:func:`_entries`), are formed once per group and kind and shared by every
    cuspidal (:func:`_coset_products`).  Each cuspidal reads J once per element
    through the evaluator and works over one numbered table (:class:`_Numbers`:
    J over G, then chi over G): L(g) becomes a matrix of value numbers, its
    trace is the sum of the diagonal numbers' integers, and each pair of values
    is multiplied once.  ``bessel.operator_L``, ``mat_trace``, ``mat_mul`` and
    ``mat_eq`` are the reference these checks are tested against."""
    rng = random.Random(seed)
    checks = []
    for qq, rr in _groups(((3, 2), (2, 3)), q, r):
        group = gl_group(qq, rr)
        psi = _std_psi(group)
        els = _Elements(group)
        n, one = len(els.rows), els.number[group.identity().rows]
        label = f"GL_{rr}(F_{qq})"
        models = [(kind, _coset_products(els, group, kind)) for kind in (MIRABOLIC, STABILIZER)]
        for sigma in list_cuspidals(group):
            ev = get_evaluator(sigma, psi)
            values, nums, js = _bessel_numbers(ev, els)
            chis = [nums(sigma.char_at(g)) for g in group.elements(FULL)]
            for kind, reps in models:
                ident = _entries(reps, one)
                ident_ok = all(
                    values[ident[i][j]] == (1 if i == j else 0) for i in range(len(ident)) for j in range(len(ident))
                )
                ls = _operators(reps, js)
                trace_ok = all(nums.is_sum([a[i][i] for i in range(len(a))], chi) for a, chi in zip(ls, chis))
                mult_ok = True
                for _ in range(200):
                    g1, g2 = rng.randrange(n), rng.randrange(n)
                    if not nums.agree(ls[g1], ls[g2], ls[els.mul(g1, g2)]):
                        mult_ok = False
                        break
                entry_ok = all(nums.is_sum((a[0][0],), j) for a, j in zip(ls, js))
                checks.append(
                    Check(
                        "realization",
                        f"{label} {kind} model orbit {sigma.orbit[0]}",
                        ident_ok and trace_ok and mult_ok and entry_ok,
                        "L(1)=id, trace, 200 products, pairing entry",
                    )
                )
    return checks


# ---------------------------------------------------------------------------
# vanishing suite (acceptance criterion 4)


def vanishing_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for qq, rr in _groups(((3, 2), (2, 3)), q, r):
        group = gl_group(qq, rr)
        psi = _std_psi(group)
        elems = group.elements(FULL)
        els = _Elements(group)
        cusps = list_cuspidals(group)
        label = f"GL_{rr}(F_{qq})"
        samples = rng.sample(range(len(elems)), min(50, len(elems)))
        for i, s1 in enumerate(cusps):
            for j, s2 in enumerate(cusps):
                if i == j:
                    continue
                ok = all(pair_sum_vanishing(s1, s2, psi, elems[x]).is_zero() for x in samples)
                checks.append(
                    Check(
                        "vanishing",
                        f"{label} distinct pair ({s1.orbit[0]},{s2.orbit[0]})",
                        ok,
                        f"{len(samples)} sampled g",
                    )
                )
        reps = _coset_products(els, group, STABILIZER)
        inverse_pairs = [(x, els.number[elems[x].inv().rows]) for x in samples]
        for sigma in cusps:
            _, nums, js = _bessel_numbers(get_evaluator(sigma, psi), els)
            ok = all(_hankel(nums, js, els, reps, a, b) for a, b in inverse_pairs)
            checks.append(
                Check("vanishing", f"{label} same-sigma stabilizer sums orbit {sigma.orbit[0]}", ok)
            )
    return checks


# ---------------------------------------------------------------------------
# epsilon suite (acceptance criterion 5)


def _quadratic_gauss_sum(p: int) -> CycloNumber:
    """Independent classical oracle: sum of legendre(h) * zeta_p^h over F_p."""
    acc = zero()
    for h in range(1, p):
        ls = pow(h, (p - 1) // 2, p)
        acc = acc + root_of_unity(p, h).scale(1 if ls == 1 else -1)
    return acc


def _cubic_gauss_sum_f7() -> CycloNumber:
    """Independent oracle over plain integers: sum of conj(chi(h)) * zeta_7^h,

    where chi is the cubic character with chi(5) = zeta_3 (5 generates F_7^x,
    matching the field's chosen generator)."""
    acc = zero()
    for j in range(6):
        acc = acc + root_of_unity(3, -j) * root_of_unity(7, pow(5, j, 7))
    return acc


def epsilon_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    for qq, rr in _groups(EPSILON_GROUPS, q, r):
        group = gl_group(qq, rr)
        psi = _std_psi(group)
        cusps = list_cuspidals(group)
        label = f"GL_{rr}(F_{qq})"
        agree_ok = True
        unit_ok = True
        square_ok = True
        pairs = 0
        for s1 in cusps:
            for s2 in cusps:
                t_pairs = [(RootOfUnity(1, 0), RootOfUnity(1, 0))]
                if s1 == s2:
                    t_pairs += [(RootOfUnity(3, 1), RootOfUnity(1, 0)), (RootOfUnity(4, 1), RootOfUnity(8, 1))]
                for t1, t2 in t_pairs:
                    tau1, tau2 = LevelZeroRep(s1, t1), LevelZeroRep(s2, t2)
                    eps = epsilon_pair(tau1, tau2, psi)
                    try:
                        if zeta_tilde_oracle(tau1, tau2, psi) != eps:
                            agree_ok = False
                    except OracleError:
                        agree_ok = False
                    if abs(eps.modulus_at_half() - 1.0) > 1e-9:
                        unit_ok = False
                    if s1 == s2 and t1 == t2:
                        sq = eps.coeff * eps.coeff
                        if not (sq == 1 and eps.half_exp + eps.s_coeff == 0):
                            square_ok = False
                    pairs += 1
        checks.append(Check("epsilon", f"{label} oracle agreement", agree_ok, f"{pairs} pairs"))
        checks.append(Check("epsilon", f"{label} |eps(1/2)| = 1", unit_ok))
        checks.append(Check("epsilon", f"{label} same-tau eps(1/2)^2 = 1", square_ok))
    # classical r = 1 reduction: quadratic Gauss sums for q in {3, 5, 7}
    if q in (None, 3, 5, 7) and r in (None, 1):
        gauss_ok = True
        for p in (3, 5, 7):
            if q is not None and p != q:
                continue
            group = gl_group(p, 1)
            psi = _std_psi(group)
            cusps = list_cuspidals(group)
            quad = next(s for s in cusps if s.exponent == (p - 1) // 2)
            triv = next(s for s in cusps if s.exponent == 0)
            eps = epsilon_pair(LevelZeroRep(quad), LevelZeroRep(triv), psi)
            if eps.coeff != _quadratic_gauss_sum(p) or eps.s_coeff != 0 or eps.half_exp != -1:
                gauss_ok = False
        checks.append(Check("epsilon", "r=1 quadratic Gauss-sum values q=3,5,7", gauss_ok))
        if q in (None, 7):
            group = gl_group(7, 1)
            psi = _std_psi(group)
            cubic = next(s for s in list_cuspidals(group) if s.exponent == 2)
            triv = next(s for s in list_cuspidals(group) if s.exponent == 0)
            eps = epsilon_pair(LevelZeroRep(cubic), LevelZeroRep(triv), psi)
            checks.append(
                Check("epsilon", "r=1 cubic Gauss-sum value q=7", eps.coeff == _cubic_gauss_sum_f7())
            )
        if q in (None, 3):
            group = gl_group(3, 1)
            psi = _std_psi(group)
            cusps = list_cuspidals(group)
            eps = epsilon_pair(LevelZeroRep(cusps[1]), LevelZeroRep(cusps[0]), psi)
            val = eps.value_at(Fraction(1, 2))
            checks.append(
                Check(
                    "epsilon",
                    "q=3 quadratic eps(1/2) = i",
                    abs(val - 1j) < 1e-9,
                    f"{val:.3g}",
                )
            )
    # sampled pairs on the larger groups
    for qq, rr in _groups(EPSILON_SAMPLED, q, r):
        group = gl_group(qq, rr)
        psi = _std_psi(group)
        cusps = list_cuspidals(group)
        ok = True
        for _ in range(3):
            s1, s2 = rng.choice(cusps), rng.choice(cusps)
            tau1 = LevelZeroRep(s1, rng.choice(T_CHOICES))
            tau2 = LevelZeroRep(s2)
            eps = epsilon_pair(tau1, tau2, psi)
            try:
                if zeta_tilde_oracle(tau1, tau2, psi) != eps:
                    ok = False
            except OracleError:
                ok = False
            if abs(eps.modulus_at_half() - 1.0) > 1e-9:
                ok = False
        checks.append(Check("epsilon", f"GL_{rr}(F_{qq}) sampled oracle agreement", ok, "3 pairs"))
    return checks


# ---------------------------------------------------------------------------
# transfer suite (acceptance criterion 6)


def transfer_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    group = gl_group(3, 1)
    psi = _std_psi(group)
    cusps = list_cuspidals(group)
    base_eps = epsilon_pair(LevelZeroRep(cusps[1]), LevelZeroRep(cusps[0]), psi)

    subst_ok = True
    for _ in range(20):
        rr = rng.choice((1, 2, 3))
        e = rng.choice((1, rr))
        f = rng.choice((1, 2))
        data = TransferData(
            r=rr,
            N=rr * e * f,
            e=e,
            vnu=rng.randrange(-2, 3),
            w1=RootOfUnity(rng.choice((1, 2, 3, 4)), rng.randrange(4)),
            w2=RootOfUnity(rng.choice((1, 2, 3, 4)), rng.randrange(4)),
            zeta=RootOfUnity(2, rng.randrange(2)),
        )
        tame = SMonomial(base_eps.coeff, 3**f, base_eps.half_exp, base_eps.s_coeff)
        out = epsilon_transfer(tame, data)
        shift = data.r * data.vnu * data.N // data.e
        weight = (data.zeta * data.w1 * data.w2).value()
        expect = SMonomial(
            base_eps.coeff * weight,
            3,
            base_eps.half_exp * f - shift,
            base_eps.s_coeff * f + shift,
        )
        if out != expect:
            subst_ok = False
        # numeric cross-check of the substituted factor at two points of s
        for s in (Fraction(1, 2), Fraction(2, 1)):
            lhs = out.value_at(s)
            rhs = tame.value_at(s) * weight.embed() * (
                3.0 ** (float(s - Fraction(1, 2)) * shift)
            )
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
                subst_ok = False
    checks.append(Check("transfer", "direct substitution on 20 randomized inputs", subst_ok))

    ident_ok = (
        epsilon_transfer(base_eps, TransferData(r=1, N=1, e=1, vnu=0)) == base_eps
    )
    checks.append(Check("transfer", "identity transfer", ident_ok))

    comp_ok = True
    for _ in range(10):
        v = rng.randrange(-2, 3)
        w = RootOfUnity(4, rng.randrange(4))
        fwd = TransferData(r=1, N=2, e=2, vnu=v, w1=w, w2=RootOfUnity(3, 1), zeta=RootOfUnity(2, 1))
        bwd = TransferData(
            r=1, N=2, e=2, vnu=-v, w1=w.inverse(), w2=RootOfUnity(3, 2), zeta=RootOfUnity(2, 1)
        )
        if epsilon_transfer(epsilon_transfer(base_eps, fwd), bwd) != base_eps:
            comp_ok = False
    checks.append(Check("transfer", "composition with the inverse transfer", comp_ok))

    # twisting consistency on GL_1 pairs over F_3 and F_5
    for p in (3, 5):
        group = gl_group(p, 1)
        psi = _std_psi(group)
        cusps = list_cuspidals(group)
        tau1 = LevelZeroRep(cusps[1], RootOfUnity(3, 1))
        tau2 = LevelZeroRep(cusps[0])
        data = TransferData(r=1, N=2, e=2, vnu=1, w1=RootOfUnity(4, 1), w2=RootOfUnity(3, 2), zeta=RootOfUnity(2, 1))
        twists = [
            TameTwist(unit_exponent=0),  # trivial
            TameTwist(unit_exponent=0, t_mult=RootOfUnity(5, 2), norm_nu=RootOfUnity(5, 3)),  # unramified
            TameTwist(unit_exponent=(p - 1) // 2, t_mult=RootOfUnity(2, 1), norm_nu=RootOfUnity(2, 1)),  # order 2
        ]
        ok = all(twist_ratio_check(tw, tau1, tau2, data, psi) for tw in twists)
        checks.append(Check("transfer", f"twist ratio identities over F_{p}", ok, "3 twists"))
    return checks


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "field": field_suite,
    "cyclo": cyclo_suite,
    "glq": glq_suite,
    "cusp": cusp_suite,
    "bessel": bessel_suite,
    "realization": realization_suite,
    "vanishing": vanishing_suite,
    "epsilon": epsilon_suite,
    "transfer": transfer_suite,
}


def run_suites(names, seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    checks = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        checks.extend(SUITES[name](seed=seed, q=q, r=r))
    return checks

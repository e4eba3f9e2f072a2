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
from .bessel import get_evaluator, operator_L
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
# numbered values: the arithmetic of the bessel, realization and vanishing suites


class _Numbers:
    """The distinct values of one cuspidal's tables as numbers, with exact
    sums and products of them over integers.

    Calling the table with a cyclotomic number gives its number: values are
    numbered by their canonical (m, num, den), and each is written once as the
    integers of D * value at the common order M and denominator D of every
    value numbered.  The remainder modulo Phi_M is linear and unique, so a sum
    of values equals a value exactly when the sums of their integers agree, and
    the product of two values is the convolution of their integers reduced
    modulo Phi_M (D^2 times the product), formed at most once per pair.  A
    value numbered later whose order or denominator does not divide M or D
    widens them and rewrites the table.  No cyclotomic number is formed per
    sum or product; tests check each comparison against the same one over
    :class:`cuspeps.cyclo.CycloNumber` (``bessel.hankel_check``, ``mat_trace``,
    ``mat_mul`` and ``mat_eq`` among them)."""

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


def _hankel(nums: _Numbers, ev, prod, reps, a: tuple, b: tuple) -> bool:
    """``bessel.hankel_check`` at the rows a, b over numbered values: the sum of
    J(a c^-1) J(c b) over the coset representatives (c, c^-1) of ``reps``, as
    rows, is J(a b)."""
    pairs = [(nums(ev(prod(a, c_inv))), nums(ev(prod(c, b)))) for c, c_inv in reps]
    return nums.is_product_sum(pairs, nums(ev(prod(a, b))))


def _coset_rows(group: GLGroup, kind: str) -> list:
    """The coset representatives c of U\\M and their inverses, as pairs of rows."""
    return [(c.rows, c_inv.rows) for c, c_inv in zip(group.coset_reps(kind), group.coset_rep_inverses(kind))]


# ---------------------------------------------------------------------------
# bessel suite (acceptance criterion 2)


def _bessel_property_checks(group: GLGroup, samples, checks, label, rng):
    """J(1) = 1, central and U-equivariance on both sides, support on U and
    the Hankel identity, for each cuspidal, with ``samples`` all of G.

    Every comparison but J(1) and the support reads J through the evaluator
    and then works over one numbered table per cuspidal (:class:`_Numbers`:
    J over ``samples``, then the central values and the psi_U roots).  The sum over
    U at each sampled g (``ev.direct``) stays the reference: it must equal J(g),
    which is the check at u = 1, and then J(u g) = J(g u) = psi_U(u) J(g) for
    every u is checked on the numbers."""
    psi = _std_psi(group)
    cusps = list_cuspidals(group)
    unip = [(u.rows, group.psi_u(u, psi)) for u in group.elements(UNIPOTENT)]
    idm, prod = group.identity(), row_product(group.field, group.r)
    reps = _coset_rows(group, STABILIZER)
    zs = [tuple(tuple(z if i == j else ZERO for j in range(group.r)) for i in range(group.r)) for z in range(group.q - 1)]
    for sigma in cusps:
        ev = get_evaluator(sigma, psi)
        nums = _Numbers(ev(g.rows) for g in samples)
        centrals = [nums(sigma.central_value(z)) for z in range(group.q - 1)]
        roots = [(u, nums(pu)) for u, pu in unip]
        ok_one = ev(idm.rows) == 1
        checks.append(Check("bessel", f"{label} J(1)=1 orbit {sigma.orbit[0]}", ok_one))

        def equivariant(x, factor, jg, g):
            """J(x g) == J(g x) == value ``factor`` times value ``jg``, for rows x and g."""
            want = ((factor, jg),)
            return nums.is_product_sum(want, nums(ev(prod(x, g)))) and nums.is_product_sum(
                want, nums(ev(prod(g, x)))
            )

        scal_ok = True
        for zrows, central in zip(zs, centrals):
            for g in rng.sample(samples, min(150, len(samples))):
                if not equivariant(zrows, central, nums(ev(g.rows)), g.rows):
                    scal_ok = False
        checks.append(Check("bessel", f"{label} central equivariance orbit {sigma.orbit[0]}", scal_ok))
        equi_ok = True
        for g in rng.sample(samples, min(150, len(samples))):
            jg = ev(g.rows)
            # ev holds the sum over U by construction; compare them, then the other u on the numbers
            if ev.direct(g.rows) != jg or not all(equivariant(u, pu, nums(jg), g.rows) for u, pu in roots):
                equi_ok = False
        checks.append(Check("bessel", f"{label} U-equivariance orbit {sigma.orbit[0]}", equi_ok))
        supp_ok = True
        for kind in (MIRABOLIC, STABILIZER):
            for m in group.iterate(kind):
                v = ev(m.rows)
                if group.contains(UNIPOTENT, m):
                    if v != group.psi_u(m, psi):
                        supp_ok = False
                elif not v.is_zero():
                    supp_ok = False
        checks.append(Check("bessel", f"{label} support on U orbit {sigma.orbit[0]}", supp_ok))
        hankel_ok = True
        n_pairs = 500 if len(samples) > 36 else len(samples) ** 2
        for _ in range(min(n_pairs, 500)):
            g1, g2 = rng.choice(samples), rng.choice(samples)
            if not _hankel(nums, ev, prod, reps, g1.rows, g2.rows):
                hankel_ok = False
                break
        checks.append(Check("bessel", f"{label} Hankel identity orbit {sigma.orbit[0]}", hankel_ok))


def bessel_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    groups = _groups(((2, 2),) + BESSEL_SAMPLED, q, r)
    for qq, rr in groups:
        group = gl_group(qq, rr)
        elems = list(group.elements(FULL))
        label = f"GL_{rr}(F_{qq})"
        _bessel_property_checks(group, elems, checks, label, rng)
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


def realization_suite(seed: int = DEFAULT_SEED, q=None, r=None) -> list[Check]:
    """L(1) = id, trace L(g) = chi(g), L(g1) L(g2) = L(g1 g2) on 200 random
    pairs and L(g)[0][0] = J(g), for each cuspidal and each model space.

    The trace, product and pairing-entry checks work over one numbered table
    per cuspidal (:class:`_Numbers`: J over G, then chi over G): L(g) becomes a
    matrix of value numbers, its trace is the sum of the diagonal numbers'
    integers, and each pair of values is multiplied once.  ``bessel.mat_trace``,
    ``mat_mul`` and ``mat_eq`` are the reference these checks are tested against."""
    rng = random.Random(seed)
    checks = []
    for qq, rr in _groups(((3, 2), (2, 3)), q, r):
        group = gl_group(qq, rr)
        psi = _std_psi(group)
        elems = list(group.elements(FULL))
        label = f"GL_{rr}(F_{qq})"
        prod = row_product(group.field, rr)
        idm = group.identity().rows
        for sigma in list_cuspidals(group):
            ev = get_evaluator(sigma, psi)
            nums = _Numbers(ev(g.rows) for g in elems)
            chis = [nums(sigma.char_at(g)) for g in elems]
            for kind in (MIRABOLIC, STABILIZER):
                ls = {g.rows: operator_L(sigma, psi, g, kind) for g in elems}  # keyed by rows, which hash in C
                ident_ok = all(
                    (ls[idm][i][j] == (1 if i == j else 0))
                    for i in range(len(ls[idm]))
                    for j in range(len(ls[idm]))
                )
                ns = {g: tuple(tuple(map(nums, row)) for row in a) for g, a in ls.items()}
                trace_ok = all(
                    nums.is_sum([a[i][i] for i in range(len(a))], chi) for a, chi in zip(ns.values(), chis)
                )
                mult_ok = True
                for _ in range(200):
                    g1, g2 = rng.choice(elems), rng.choice(elems)
                    if not nums.agree(ns[g1.rows], ns[g2.rows], ns[prod(g1.rows, g2.rows)]):
                        mult_ok = False
                        break
                entry_ok = all(nums.is_sum((ns[g.rows][0][0],), nums(ev(g.rows))) for g in elems)
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
        elems = list(group.elements(FULL))
        cusps = list_cuspidals(group)
        label = f"GL_{rr}(F_{qq})"
        samples = rng.sample(elems, min(50, len(elems)))
        inverse_pairs = [(g.rows, g.inv().rows) for g in samples]
        for i, s1 in enumerate(cusps):
            for j, s2 in enumerate(cusps):
                if i == j:
                    continue
                ok = all(pair_sum_vanishing(s1, s2, psi, g).is_zero() for g in samples)
                checks.append(
                    Check(
                        "vanishing",
                        f"{label} distinct pair ({s1.orbit[0]},{s2.orbit[0]})",
                        ok,
                        f"{len(samples)} sampled g",
                    )
                )
        prod, reps = row_product(group.field, rr), _coset_rows(group, STABILIZER)
        for sigma in cusps:
            ev = get_evaluator(sigma, psi)
            nums = _Numbers(ev(g.rows) for g in elems)
            ok = all(_hankel(nums, ev, prod, reps, a, b) for a, b in inverse_pairs)
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

"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A :class:`CycloNumber` of order ``m`` is ``(num_0 + num_1 zeta + ... +
num_{d-1} zeta^{d-1}) / den`` with ``d = phi(m)``: integer numerators over
one positive denominator, in lowest terms, after reduction modulo the m-th
cyclotomic polynomial.  So each value has exactly one representation at a
given order.  Arithmetic between values of different orders works at the
least common multiple.  This makes "this character sum vanishes" an exact,
decidable statement, which the rest of the library relies on.

The module is also the package's one home for integer number theory:
:func:`_prime_factors` and :func:`_exact_log` answer, for every layer,
whether q is a prime power p^k or a power of a smaller base.

Products, promotions and conjugates are formed as integer counts on the
exponents 0..m-1 of zeta (zeta^m = 1) and then reduced by long division,
touching only nonzero coefficients, by a chain of multiples of Phi_m of
falling degree: Phi_{p_1...p_j}(x^(m/(p_1...p_j))) for the primes of m in
ascending order, ending with Phi_m.  The early links are sparse (x^(m/2) + 1
for even m, then x^(m/3) - x^(m/6) + 1 if 6 | m, ...), so the dense Phi_m
divides only the last few rows.  Counts that reach past zeta^(m-1) (every
sum of :func:`dot`, a product whose exponents add up past it) are first
put in a list of 2m and folded once, by :func:`_fold`: zeta^m = 1 and the
first link, zeta^(m/2) = -1, in one pass over slices.  Nothing per order is
kept beyond that chain, so memory stays O(m) even for the large orders a
user-chosen root of unity can bring in.  :class:`fractions.Fraction` appears
only where rationals enter or leave: constructors, ``scale``,
``rational_value``, ``to_dict``/``from_dict``, ``embed`` and ``repr``.

The character sums of the library, sum_i zeta_n^k * a_i * b_i, go through one
kernel, :func:`dot`: the root of unity is an exponent shift, conjugating b_i
negates its exponents, and every product is added as integer counts into one
work list over a common denominator, so Phi_m and the gcd are applied once
per sum, not once per term.  The result is the value, and the order, of the
left fold ``zero() + w_1 * a_1 * b_1 + ...`` with ``*``, ``conjugate()`` and
``+``: a term with a zero factor is skipped, and the order is the lcm, from
1, of the orders of the remaining factors, even when their sum cancels to 0.
Since ``to_dict`` prints the order, this rule is part of the output.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

__all__ = [
    "CycloNumber",
    "UNIT",
    "cyclotomic_polynomial",
    "dot",
    "root_of_unity",
    "zero",
    "one",
]


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending; [] for m < 2.  The package's
    one trial division, up to sqrt(m): a caller with a size bound checks it first."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _exact_log(value: int, base: int) -> int | None:
    """The k >= 0 with base**k == value, or None if there is none (base >= 2)."""
    k, power = 0, 1
    while power < value:
        power *= base
        k += 1
    return k if power == value else None


@functools.cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, monic.

    Phi_m = prod_{d | m squarefree} (x^(m/d) - 1)^mu(d): multiply in the
    factors with mu(d) = 1, then divide out those with mu(d) = -1, each in
    O(degree) steps.
    """
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    up, down = [m], []  # the exponents e of the factors x^e - 1, by sign of mu
    for p in _prime_factors(m):
        up, down = up + [e // p for e in down], down + [e // p for e in up]
    poly = [1]
    for e in up:  # times x^e - 1
        poly = [0] * e + poly
        for i in range(len(poly) - e):
            poly[i] -= poly[i + e]
    for e in down:  # over x^e - 1, from the top: q_k = p_{k+e} + q_{k+e}
        for i in range(len(poly) - e - 1, -1, -1):
            poly[i] += poly[i + e]
        if any(poly[:e]):
            raise ArithmeticError("polynomial division left a remainder")
        del poly[:e]
    return tuple(poly)


@functools.cache
def _phi_chain(m: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The multiples of Phi_m, of falling degree, that _mod_phi divides by in turn.

    With the primes p_1 < ... < p_k of m and P_j = p_1...p_j, each
    Phi_{P_j}(x^(m/P_j)) vanishes at every primitive m-th root of unity, so it
    is a multiple of Phi_m; the last one (j = k) is Phi_m itself.  Each is
    given as (degree, the nonzero (i, c) below its leading term), and the
    early ones are sparse: Phi_{P_j} has few terms for small j."""
    chain, rad = [], 1
    for p in _prime_factors(m) or [1]:  # m = 1: Phi_1 alone
        rad *= p
        phi, step = cyclotomic_polynomial(rad), m // rad
        chain.append(((len(phi) - 1) * step, tuple((i * step, c) for i, c in enumerate(phi[:-1]) if c)))
    return tuple(chain)


def _mod_phi(m: int, work: list[int]) -> tuple[int, ...]:
    """Remainder of sum work[k] x^k modulo Phi_m, as phi(m) integers (work is consumed).

    Long division by each divisor of :func:`_phi_chain` in turn: the
    remainder modulo a multiple of Phi_m has the same remainder modulo Phi_m,
    and that remainder is unique, so only the last few rows meet the dense
    Phi_m."""
    for d, tail in _phi_chain(m):
        if len(work) > d:
            for i in range(len(work) - 1, d - 1, -1):
                c = work[i]
                if c:
                    base = i - d
                    for j, pj in tail:
                        work[base + j] -= c * pj
            del work[d:]
    if len(work) < d:
        work.extend([0] * (d - len(work)))
    return tuple(work)


def _fold(m: int, work: list[int]) -> list[int]:
    """Exponent counts 0..2m-1 folded by zeta^m = 1 and, for even m, by zeta^(m/2) = -1
    (link 1 of :func:`_phi_chain`, so the remainder modulo Phi_m is kept), in one pass over slices."""
    if m % 2:
        return list(map(add, work[:m], work[m:]))
    h = m // 2
    return list(map(sub, map(add, work[:h], work[m:m + h]), map(add, work[h:m], work[m + h:])))


def _make(m: int, num: tuple[int, ...], den: int) -> "CycloNumber":
    """Wrap numerators and a denominator already in lowest terms."""
    out = object.__new__(CycloNumber)
    out.m = m
    out.num = num
    out.den = den
    return out


def _lowest(num, den: int) -> tuple[tuple[int, ...], int]:
    """Numerators and a positive denominator divided by their gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(x // g for x in num), den // g
    return tuple(num), den


class CycloNumber:
    """An element of Q(zeta_m) in canonical (reduced, lowest-terms) form.

    ``CycloNumber(m, coeffs)`` takes the rational coefficients of
    ``1, zeta, zeta^2, ...`` (any length) and reduces them.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs):
        if m < 1:
            raise ValueError("cyclotomic order must be >= 1")
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        self.m = m
        self.num, self.den = _lowest(
            _mod_phi(m, [f.numerator * (den // f.denominator) for f in fracs]), den
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value) -> "CycloNumber":
        value = Fraction(value)
        return _make(1, (value.numerator,), value.denominator)

    # -- promotion ----------------------------------------------------

    def promote(self, order: int) -> "CycloNumber":
        """Rewrite at a larger order (order must be a multiple of self.m)."""
        if order == self.m:
            return self
        if order % self.m:
            raise ValueError("can only promote to a multiple of the order")
        step = order // self.m
        work = [0] * ((len(self.num) - 1) * step + 1)
        work[::step] = self.num
        # Z[zeta_order] meets Q(zeta_m) in Z[zeta_m], so the content, hence den, is kept.
        return _make(order, _mod_phi(order, work), self.den)

    def _pair(self, other: "CycloNumber"):
        if self.m == other.m:
            return self, other, self.m
        order = lcm(self.m, other.m)
        return self.promote(order), other.promote(order), order

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        a, b, order = self._pair(_coerce(other))
        da, db = a.den, b.den
        if da == db:
            return _make(order, *_lowest([x + y for x, y in zip(a.num, b.num)], da))
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make(order, *_lowest([x * fa + y * fb for x, y in zip(a.num, b.num)], da * fa))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __neg__(self):
        return _make(self.m, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if type(other) is not CycloNumber:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            other = _coerce(other)
        order = self.m if self.m == other.m else lcm(self.m, other.m)
        sa, sb = order // self.m, order // other.m
        terms_b = [(j * sb, c) for j, c in enumerate(other.num) if c]
        # Exponent counts: zeta^(i*sa) * zeta^(j*sb), both below order, so
        # every index is below 2*order; a list reaching order is folded first.
        n = (len(self.num) - 1) * sa + (len(other.num) - 1) * sb + 1
        work = [0] * (2 * order if n > order else n)
        for i, ci in enumerate(self.num):
            if ci:
                i *= sa
                for j, cj in terms_b:
                    work[i + j] += ci * cj
        if n > order:
            work = _fold(order, work)
        return _make(order, *_lowest(_mod_phi(order, work), self.den * other.den))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = CycloNumber.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "CycloNumber":
        # c is an int or a Fraction; both carry numerator and denominator.
        n = c.numerator
        return _make(self.m, *_lowest([x * n for x in self.num], self.den * c.denominator))

    def conjugate(self) -> "CycloNumber":
        """Image under zeta -> zeta^{-1} (complex conjugation on the embedding)."""
        m = self.m
        work = [0] * m
        for j, c in enumerate(self.num):
            if c:
                work[-j % m] += c
        # An automorphism of Z[zeta_m] keeps the content, hence den.
        return _make(m, _mod_phi(m, work), self.den)

    # -- predicates and conversions -------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if type(other) is not CycloNumber:
            if isinstance(other, (int, Fraction)):
                other = CycloNumber.rational(other)
            elif not isinstance(other, CycloNumber):
                return NotImplemented
        if self.m == other.m:
            return self.den == other.den and self.num == other.num
        a, b, _ = self._pair(other)
        return a.den == b.den and a.num == b.num

    def embed(self) -> complex:
        """Evaluate at zeta_m = exp(2*pi*i/m)."""
        den = self.den
        return sum(
            complex(n / den) * cmath.exp(2j * cmath.pi * j / self.m)
            for j, n in enumerate(self.num)
            if n
        ) or complex(0.0)

    def _fractions(self) -> list[Fraction]:
        return [Fraction(n, self.den) for n in self.num]

    def to_dict(self) -> dict:
        return {"m": self.m, "coeffs": [str(c) for c in self._fractions()]}

    @classmethod
    def from_dict(cls, data: dict) -> "CycloNumber":
        """Read the to_dict form: m a JSON integer, not a float or a boolean,
        and coeffs a list of strings or integers."""
        m, coeffs = data["m"], data["coeffs"]
        if type(m) is not int:
            raise ValueError(f"'m' must be an integer, got {m!r}")
        if not isinstance(coeffs, list) or any(type(c) not in (str, int) for c in coeffs):
            raise ValueError("'coeffs' must be a list of strings or integers")
        return cls(m, [Fraction(c) for c in coeffs])

    def __repr__(self):
        if self.is_rational():
            return f"CycloNumber({Fraction(self.num[0], self.den)})"
        terms = [f"{c}*z{self.m}^{j}" for j, c in enumerate(self._fractions()) if c]
        return "CycloNumber(" + " + ".join(terms) + ")"


def _coerce(value) -> CycloNumber:
    if isinstance(value, CycloNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNumber.rational(value)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")


# The root of unity 1 = zeta_1^0 as (order, exponent), for a term of dot
# without a root-of-unity factor.
UNIT = (1, 0)


def dot(terms, conjugate: bool = False) -> CycloNumber:
    """sum of zeta_n^k * a * b over the terms ((n, k), a, b), reduced once.

    b may be None (a factor 1); with ``conjugate`` every b is conjugated.
    Equals, value and order, the left fold of ``*``, ``conjugate()`` and
    ``+`` from ``zero()`` that skips terms with a zero factor.  The terms are
    read once, as a stream: the work list holds exponent counts 0..2*order-1
    over the common denominator ``den``.  The first term with no zero factor
    sets the order and ``den``; a later term that raises the order respreads
    the list, one that raises the denominator rescales it."""
    work = None
    for (n, k), a, b in terms:
        anum = a.num
        if not any(anum):
            continue
        if b is None:
            mb, d = 1, a.den
        elif any(b.num):
            mb, d = b.m, a.den * b.den
        else:
            continue
        ma = a.m
        if work is None:
            order, den = lcm(n, ma, mb), d
            work = [0] * (2 * order)
        else:
            if order % n or order % ma or order % mb:
                new = lcm(order, n, ma, mb)
                spread = [0] * (2 * new)
                spread[:new:new // order] = map(add, work[:order], work[order:])
                work, order = spread, new
            if den % d:
                new = lcm(den, d)
                work = [x * (new // den) for x in work]
                den = new
        f = den // d
        sa, shift = order // ma, k * (order // n)
        if b is None:
            bt = [(0, f)]
        else:
            sb = -order // mb if conjugate else order // mb
            bt = [(j * sb % order, c * f) for j, c in enumerate(b.num) if c]
        for i, c in enumerate(anum):
            if c:
                base = (i * sa + shift) % order
                for j, cb in bt:
                    work[base + j] += c * cb
    if work is None:  # every term has a zero factor
        return _make(1, (0,), 1)
    return _make(order, *_lowest(_mod_phi(order, _fold(order, work)), den))


def root_of_unity(m: int, j: int) -> CycloNumber:
    """zeta_m^j in canonical form."""
    if m < 1:
        raise ValueError("root-of-unity order must be >= 1")
    j %= m
    work = [0] * (j + 1)
    work[j] = 1
    return _make(m, _mod_phi(m, work), 1)


def zero() -> CycloNumber:
    return CycloNumber.rational(0)


def one() -> CycloNumber:
    return CycloNumber.rational(1)

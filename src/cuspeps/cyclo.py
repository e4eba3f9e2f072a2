"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A :class:`CycloNumber` of order ``m`` stores the rational coefficients of
``1, zeta, ..., zeta^{phi(m)-1}`` after reduction modulo the m-th cyclotomic
polynomial, so each value has exactly one representation at a given order.
Arithmetic between values of different orders promotes both operands to the
least common multiple first.  This makes "this character sum vanishes" an
exact, decidable statement, which the rest of the library relies on.

Orders stay tiny in practice (lcm of the field characteristic and q^n - 1),
so dense coefficient lists over :class:`fractions.Fraction` are plenty fast.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm

__all__ = [
    "CycloNumber",
    "cyclotomic_polynomial",
    "root_of_unity",
    "zero",
    "one",
]


def _divisors(m: int) -> list[int]:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


def _int_poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials (low-degree-first), den monic; remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num[:dd]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, monic."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if m == 1:
        return (-1, 1)
    work = [0] * (m + 1)
    work[0], work[m] = -1, 1
    for d in _divisors(m)[:-1]:
        work = _int_poly_div_exact(work, cyclotomic_polynomial(d))
    return tuple(work)


def _reduce(m: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a coefficient list (any length) modulo Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
        work[i] = Fraction(0)
    out = work[:deg]
    out.extend(Fraction(0) for _ in range(deg - len(out)))
    return tuple(out)


class CycloNumber:
    """An element of Q(zeta_m) in canonical (reduced) form."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs, *, _reduced: bool = False):
        if m < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.m = m
        if _reduced:
            self.coeffs = tuple(coeffs)
        else:
            self.coeffs = _reduce(m, [Fraction(c) for c in coeffs])

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value) -> "CycloNumber":
        return cls(1, [Fraction(value)])

    @classmethod
    def zeta_power(cls, m: int, j: int) -> "CycloNumber":
        if m < 1:
            raise ValueError("root-of-unity order must be >= 1")
        j %= m
        coeffs = [Fraction(0)] * (j + 1)
        coeffs[j] = Fraction(1)
        return cls(m, coeffs)

    # -- promotion ----------------------------------------------------

    def promote(self, order: int) -> "CycloNumber":
        """Rewrite at a larger order (order must be a multiple of self.m)."""
        if order == self.m:
            return self
        if order % self.m:
            raise ValueError("can only promote to a multiple of the order")
        step = order // self.m
        coeffs = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                coeffs[j * step] = c
        return CycloNumber(order, coeffs)

    def _pair(self, other: "CycloNumber"):
        order = lcm(self.m, other.m)
        return self.promote(order), other.promote(order), order

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if self.m == other.m:
            return CycloNumber(
                self.m,
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                _reduced=True,
            )
        a, b, order = self._pair(other)
        return CycloNumber(order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), _reduced=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + _coerce(other)

    def __neg__(self):
        return CycloNumber(self.m, tuple(-c for c in self.coeffs), _reduced=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b, order = self._pair(_coerce(other))
        n1, n2 = len(a.coeffs), len(b.coeffs)
        conv = [Fraction(0)] * (n1 + n2 - 1)
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        conv[i + j] += ci * cj
        return CycloNumber(order, conv)

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
        c = Fraction(c)
        return CycloNumber(self.m, tuple(x * c for x in self.coeffs), _reduced=True)

    def conjugate(self) -> "CycloNumber":
        """Image under zeta -> zeta^{-1} (complex conjugation on the embedding)."""
        coeffs = [Fraction(0)] * self.m
        for j, c in enumerate(self.coeffs):
            if c:
                coeffs[(-j) % self.m] += c
        return CycloNumber(self.m, coeffs)

    # -- predicates and conversions -------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

    def embed(self) -> complex:
        """Evaluate at zeta_m = exp(2*pi*i/m)."""
        return sum(
            complex(c) * cmath.exp(2j * cmath.pi * j / self.m)
            for j, c in enumerate(self.coeffs)
            if c
        ) or complex(0.0)

    def to_dict(self) -> dict:
        return {"m": self.m, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_dict(cls, data: dict) -> "CycloNumber":
        return cls(int(data["m"]), [Fraction(c) for c in data["coeffs"]])

    def __repr__(self):
        if self.is_rational():
            return f"CycloNumber({self.coeffs[0]})"
        terms = [f"{c}*z{self.m}^{j}" for j, c in enumerate(self.coeffs) if c]
        return "CycloNumber(" + " + ".join(terms) + ")"


def _coerce(value) -> CycloNumber:
    if isinstance(value, CycloNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNumber.rational(value)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")


def root_of_unity(m: int, j: int) -> CycloNumber:
    """zeta_m^j in canonical form."""
    return CycloNumber.zeta_power(m, j)


def zero() -> CycloNumber:
    return CycloNumber.rational(0)


def one() -> CycloNumber:
    return CycloNumber.rational(1)

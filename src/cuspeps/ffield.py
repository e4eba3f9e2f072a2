"""Finite field towers GF(p^k) in Zech-logarithm form.

Every field is built once per (p, k) and carries a fixed primitive generator
g, the root of the chosen modulus.  Elements are discrete logs: the integer
``e`` stands for ``g^e`` and the sentinel :data:`ZERO` stands for 0.  With a
Zech table (``zech[l] = log(1 + g^l)``) addition is a single lookup, and the
group sums downstream are multiplication-heavy, so this representation keeps
the inner loops cheap.

For the matrix products of :mod:`cuspeps.glq` each field also builds, on
first use, q x q addition and multiplication tables (:meth:`FieldSpec.tables`)
whose last slot holds 0, so a lookup needs no test for ZERO.

The modulus is the primitive monic polynomial of degree k whose coefficient
vector, read as an integer ``sum(c_i * p^i)``, is smallest.  That makes every
table reproducible from (p, k) alone.

Subfield embeddings GF(p^a) -> GF(p^b) (a | b) send the small generator to
the smallest power ``g_b^{t*(p^b-1)/(p^a-1)}`` that is a root of the small
modulus; this is a genuine field embedding (additive as well as
multiplicative), whereas bare exponent scaling is only guaranteed to respect
multiplication.
"""

from __future__ import annotations

import functools
from math import gcd

from ._frozen import Frozen, set_field
from .cyclo import CycloNumber, _exact_log, _prime_factors, root_of_unity

__all__ = [
    "ZERO",
    "FieldSpec",
    "build_field",
    "subfield_embed",
    "AdditiveChar",
    "MultChar",
    "is_regular_char",
    "frobenius_orbit",
]

ZERO = -1  # log encoding of the zero element
MAX_Q = 4096
MAX_K = MAX_Q.bit_length() - 1  # 12: p^k >= 2^k > MAX_Q for any larger k


def _mul_by_x(vec: list[int], modulus: list[int], p: int) -> list[int]:
    """Multiply an element of F_p[x]/(f) by x; vec low-degree-first, f monic."""
    k = len(vec)
    lead = vec[-1]
    out = [0] + vec[:-1]
    if lead:
        for i in range(k):
            out[i] = (out[i] - lead * modulus[i]) % p
    return out


def _power_table(modulus: list[int], p: int, k: int) -> list[tuple[int, ...]] | None:
    """Successive powers 1, x, x^2, ... mod f, or None if x is not primitive."""
    q = p**k
    one = tuple([1] + [0] * (k - 1))
    powers = [one]
    cur = list(one)
    for _ in range(q - 2):
        cur = _mul_by_x(cur, modulus, p)
        t = tuple(cur)
        if t == one:
            return None
        powers.append(t)
    if tuple(_mul_by_x(cur, modulus, p)) != one:
        return None
    return powers


class FieldSpec:
    """GF(p^k) with Zech-log arithmetic; immutable once constructed."""

    __slots__ = (
        "p",
        "k",
        "q",
        "modulus",
        "zech",
        "powers",
        "_log",
        "_prime_embed",
        "_prime_decode",
        "_neg_shift",
        "_tables",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...], powers: list[tuple[int, ...]]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.powers = tuple(powers)
        self._log = {vec: e for e, vec in enumerate(powers)}
        zech = []
        for l in range(self.q - 1):
            s = tuple((a + b) % p for a, b in zip(powers[l], powers[0]))
            zech.append(ZERO if not any(s) else self._log[s])
        self.zech = tuple(zech)
        # c * 1 for c = 0..p-1, as logs
        embed = [ZERO]
        for c in range(1, p):
            vec = tuple([c] + [0] * (k - 1))
            embed.append(self._log[vec])
        self._prime_embed = tuple(embed)
        self._prime_decode = {e: c for c, e in enumerate(embed)}
        self._neg_shift = 0 if p == 2 else (self.q - 1) // 2
        self._tables = None

    # -- arithmetic on logs --------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        z = self.zech[(b - a) % (self.q - 1)]
        if z == ZERO:
            return ZERO
        return (a + z) % (self.q - 1)

    def tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(add, mul) as q x q tables indexed by log, ZERO in the last slot.

        Built on first use by slicing, not by q^2 calls: row a of ``mul`` is
        the slots rotated by a, and g^a + g^b = g^a * (1 + g^(b-a)) makes row
        a of ``add`` row a of ``mul`` read at the Zech table rotated by a.
        Every entry is one of the q objects of ``slots``, so the two tables
        hold 2 q^2 references (about 270 MB at q = 4096)."""
        if self._tables is None:
            n = self.q - 1
            slots = (*range(n), ZERO)
            mul = tuple(slots[a:n] + slots[:a] + (ZERO,) for a in range(n)) + ((ZERO,) * self.q,)
            zech = self.zech
            add = tuple(
                tuple(map(mul[a].__getitem__, zech[n - a:] + zech[:n - a])) + (slots[a],)
                for a in range(n)
            ) + (slots,)
            self._tables = (add, mul)
        return self._tables

    def neg(self, a: int) -> int:
        if a == ZERO:
            return ZERO
        return (a + self._neg_shift) % (self.q - 1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        return (a + b) % (self.q - 1)

    def inv(self, a: int) -> int:
        if a == ZERO:
            raise ZeroDivisionError("inverting the zero element")
        return (-a) % (self.q - 1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == ZERO:
            if n <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return ZERO
        return (a * n) % (self.q - 1)

    def one(self) -> int:
        return 0

    def from_int(self, c: int) -> int:
        """The prime-field element c*1 as a log."""
        return self._prime_embed[c % self.p]

    def to_int(self, a: int) -> int:
        """Inverse of from_int; raises if a is not in the prime field."""
        try:
            return self._prime_decode[a]
        except KeyError:
            raise ValueError("element does not lie in the prime field") from None

    def trace_to_prime(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer in [0, p)."""
        acc = ZERO
        for i in range(self.k):
            acc = self.add(acc, self.pow(a, self.p**i))  # a^(p^i), Frobenius i times
        return self._prime_decode[acc]

    # -- enumeration and formatting --------------------------------------

    def elements(self):
        """All elements: 0 first, then g^0, g^1, ... (the canonical order)."""
        yield ZERO
        yield from range(self.q - 1)

    @staticmethod
    def format_element(a: int) -> str:
        return "0" if a == ZERO else f"g^{a}"

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.k}))"


def build_field(p: int, k: int = 1) -> FieldSpec:
    """The one GF(p^k) (built on first use) with a verified primitive modulus.

    The size bound comes first, so no input factors p or computes p^k above
    it: k > MAX_K is refused before p^k is formed, then p^k > MAX_Q, and
    only then is p tested for primality (ValueError in each case)."""
    if p >= 2 and (k > MAX_K or k >= 1 and p**k > MAX_Q):
        size = p**k if k <= MAX_K else f"{p}^{k}"
        raise ValueError(f"field size {size} exceeds the configured bound {MAX_Q}")
    if _prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    return _field(p, k)


@functools.cache
def _field(p: int, k: int) -> FieldSpec:
    for val in range(1, p**k):
        cand = tuple((val // p**i) % p for i in range(k)) + (1,)
        if cand[0] == 0:
            continue
        powers = _power_table(list(cand), p, k)
        if powers is not None:
            return FieldSpec(p, k, cand, powers)
    raise AssertionError("no primitive polynomial found; this cannot happen")


@functools.cache
def _embedding_multiplier(src: FieldSpec, dst: FieldSpec) -> int:
    """Exponent multiplier of the canonical embedding src -> dst."""
    if src.p != dst.p:
        raise ValueError("fields have different characteristic")
    if dst.k % src.k:
        raise ValueError(f"GF({src.p}^{src.k}) does not embed in GF({dst.p}^{dst.k})")
    step = (dst.q - 1) // (src.q - 1)
    for t in range(1, src.q):
        if gcd(t, src.q - 1) != 1:
            continue
        h = (t * step) % (dst.q - 1)
        # Horner evaluation of the source modulus at g_dst^h
        acc = ZERO
        for c in reversed(src.modulus):
            acc = dst.add(dst.mul(acc, h), dst.from_int(c))
        if acc == ZERO:
            return h
    raise AssertionError("no compatible embedding found; this cannot happen")


def subfield_embed(x: int, src: FieldSpec, dst: FieldSpec) -> int:
    """Image of x under the canonical embedding GF(p^a) -> GF(p^b), a | b."""
    if src is dst:
        return x
    mult = _embedding_multiplier(src, dst)
    if x == ZERO:
        return ZERO
    return (x * mult) % (dst.q - 1)


class AdditiveChar(Frozen):
    """psi_a(x) = zeta_p^{Tr(a*x)}, the additive character of GF(q) shifted by a."""

    __slots__ = ("field", "a")

    def __init__(self, field: FieldSpec, a: int = 0):  # a: log of the shift; 0 is the element 1
        set_field(self, "field", field)
        # Reduced like MultChar.c, so that equal characters compare and hash equal.
        set_field(self, "a", a if a == ZERO else a % (field.q - 1))

    def root(self, x: int) -> tuple[int, int]:
        """psi(x) as (order, exponent): (1, 0) where a*x = 0, else (p, Tr(a*x)),
        of order p even when the trace is 0."""
        t = self.field.mul(self.a, x)
        if t == ZERO:
            return (1, 0)
        return (self.field.p, self.field.trace_to_prime(t))

    def eval(self, x: int) -> CycloNumber:
        return root_of_unity(*self.root(x))

    def conjugate(self) -> "AdditiveChar":
        return AdditiveChar(self.field, self.field.neg(self.a))

    @property
    def nontrivial(self) -> bool:
        return self.a != ZERO


class MultChar(Frozen):
    """theta_c(g^j) = zeta_{q-1}^{c*j}, a character of GF(q)^x."""

    __slots__ = ("field", "c")

    def __init__(self, field: FieldSpec, c: int = 0):
        set_field(self, "field", field)
        set_field(self, "c", c % (field.q - 1))

    def root(self, x: int) -> tuple[int, int]:
        """theta(x) as (order, exponent): (q - 1, c * x)."""
        if x == ZERO:
            raise ValueError("multiplicative characters are not defined at 0")
        return (self.field.q - 1, self.c * x)

    def eval(self, x: int) -> CycloNumber:
        return root_of_unity(*self.root(x))


def frobenius_orbit(c: int, q: int, modulus: int) -> tuple[int, ...]:
    """Orbit of the exponent c under multiplication by q, sorted."""
    orbit = {c % modulus}
    cur = (c * q) % modulus
    while cur not in orbit:
        orbit.add(cur)
        cur = (cur * q) % modulus
    return tuple(sorted(orbit))


def is_regular_char(theta: MultChar, q: int) -> bool:
    """True when the Frobenius orbit of theta has full length n (q^n = |field|)."""
    if q < 2:
        raise ValueError(f"a base must be at least 2, got {q}")
    big = theta.field.q
    n = _exact_log(big, q)
    if n is None:
        raise ValueError(f"{big} is not a power of {q}")
    return len(frobenius_orbit(theta.c, q, big - 1)) == n

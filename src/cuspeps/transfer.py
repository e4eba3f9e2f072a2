"""Exact epsilon monomials and the tame transfer.

An epsilon factor is an exact monomial c * q^{h/2} * q^{k*s} with c a
cyclotomic number (:class:`SMonomial`).  The transfer from the tame level
(:func:`epsilon_transfer`) rewrites one such monomial over a smaller base q
and multiplies it by roots of unity (:class:`RootOfUnity`) and a power of
q^{s - 1/2}.  Nothing here sums over a group, so the module needs only
:mod:`cuspeps.cyclo`; the pair sums that produce the monomials, and the
twisting identities, are in :mod:`cuspeps.epsilon`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._frozen import Frozen, set_field
from .cyclo import CycloNumber, _exact_log, root_of_unity

__all__ = [
    "RootOfUnity",
    "SMonomial",
    "TransferData",
    "epsilon_transfer",
]

# Largest root-of-unity order RootOfUnity.parse accepts.  Arithmetic runs at
# the lcm of this order and the group's, and Phi of that order is built in
# full, so an unbounded order from the command line could exhaust memory.
MAX_ROOT_ORDER = 1000

# Largest cyclotomic order SMonomial.from_dict accepts for the coefficient of
# an input document, and epsilon_transfer for the coefficient times the
# weight zeta * w1 * w2, for the same reason: Phi_m is built as lists of
# length m.
MAX_COEFF_ORDER = 10**6


class RootOfUnity(Frozen):
    """zeta_order^exp, kept in lowest terms so inverses stay exact."""

    __slots__ = ("order", "exp")

    def __init__(self, order: int, exp: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        e = exp % order
        g = gcd(e, order) if e else order
        set_field(self, "order", order // g)
        set_field(self, "exp", e // g)

    def value(self) -> CycloNumber:
        return root_of_unity(self.order, self.exp)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        m = lcm(self.order, other.order)
        return RootOfUnity(m, self.exp * (m // self.order) + other.exp * (m // other.order))

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exp)

    def __pow__(self, n: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exp * n)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(1, 0)

    @classmethod
    def parse(cls, text: str) -> "RootOfUnity":
        """Parse "j/m" as zeta_m^j; "1" and "-1" also work."""
        text = text.strip()
        if text in ("1", "+1"):
            return cls(1, 0)
        if text == "-1":
            return cls(2, 1)
        j, m = text.split("/")
        root = cls(int(m), int(j))
        if root.order > MAX_ROOT_ORDER:
            raise ValueError(f"root-of-unity order {root.order} exceeds {MAX_ROOT_ORDER}")
        return root

    def __str__(self):
        return f"{self.exp}/{self.order}"


class SMonomial(Frozen):
    """An exact monomial c * qbase^{half_exp/2} * qbase^{s_coeff * s}."""

    __slots__ = ("coeff", "qbase", "half_exp", "s_coeff")

    def __init__(self, coeff: CycloNumber, qbase: int, half_exp: int, s_coeff: Fraction):
        set_field(self, "coeff", coeff)
        set_field(self, "qbase", qbase)
        set_field(self, "half_exp", half_exp)
        set_field(self, "s_coeff", s_coeff)

    def __mul__(self, other: "SMonomial") -> "SMonomial":
        if self.qbase != other.qbase:
            raise ValueError("monomials have different q-bases; rebase first")
        return SMonomial(
            self.coeff * other.coeff,
            self.qbase,
            self.half_exp + other.half_exp,
            self.s_coeff + other.s_coeff,
        )

    def scale(self, c) -> "SMonomial":
        return SMonomial(self.coeff * c, self.qbase, self.half_exp, self.s_coeff)

    # Zero monomials are equal whatever their exponents.  Defining __eq__ here
    # also leaves SMonomial unhashable, as its CycloNumber coefficient is.
    def __eq__(self, other):
        if not isinstance(other, SMonomial):
            return NotImplemented
        if self.qbase != other.qbase:
            return False
        if self.coeff.is_zero() and other.coeff.is_zero():
            return True
        return (
            self.coeff == other.coeff
            and self.half_exp == other.half_exp
            and self.s_coeff == other.s_coeff
        )

    def rebase(self, new_qbase: int) -> "SMonomial":
        """Rewrite over a smaller base q with qbase = q^f."""
        if new_qbase < 2:
            raise ValueError(f"a base must be at least 2, got {new_qbase}")
        if new_qbase == self.qbase:
            return self
        f = _exact_log(self.qbase, new_qbase)
        if f is None:
            raise ValueError(f"{self.qbase} is not a power of {new_qbase}")
        return SMonomial(self.coeff, new_qbase, self.half_exp * f, self.s_coeff * f)

    def value_at(self, s) -> complex:
        """The complex value at s; ValueError if it overflows a float."""
        s = Fraction(s)
        exponent = Fraction(self.half_exp, 2) + self.s_coeff * s
        try:
            return self.coeff.embed() * (self.qbase ** float(exponent))
        except OverflowError:
            raise ValueError(f"the value at s = {s} of the monomial {self.to_dict()} overflows a float") from None

    def modulus_at_half(self) -> float:
        return abs(self.value_at(Fraction(1, 2)))

    def to_dict(self) -> dict:
        return {
            "coeff": self.coeff.to_dict(),
            "qbase": self.qbase,
            "half_exp": self.half_exp,
            "s_coeff": str(self.s_coeff),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SMonomial":
        """Read the to_dict form; s_coeff may also be a JSON integer."""
        if not isinstance(data, dict) or not isinstance(data.get("coeff"), dict):
            raise ValueError("expected an object with an object 'coeff'")
        qbase = _json_int(data, "qbase")
        if qbase < 2:
            raise ValueError(f"qbase must be at least 2, got {qbase}")
        order = _json_int(data["coeff"], "m")
        if order > MAX_COEFF_ORDER:
            raise ValueError(f"coefficient order {order} exceeds {MAX_COEFF_ORDER}")
        s_coeff = data["s_coeff"]
        if type(s_coeff) not in (str, int):
            raise ValueError(f"'s_coeff' must be a string or an integer, got {s_coeff!r}")
        return cls(
            CycloNumber.from_dict(data["coeff"]),
            qbase,
            _json_int(data, "half_exp"),
            Fraction(s_coeff),
        )


def _json_int(data: dict, key: str) -> int:
    """data[key], which must be a JSON integer: a float or a boolean is refused, not truncated."""
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


class TransferData(Frozen):
    """Numerical data relating a tame-level epsilon to the wild-level one.

    r, N, e describe the ambient sizes (e divides N, r divides N/e); vnu is
    the valuation of the transfer invariant; w1, w2, zeta are the root-of-
    unity weights.  The invariant itself is input data, never computed here."""

    __slots__ = ("r", "N", "e", "vnu", "w1", "w2", "zeta")

    def __init__(
        self,
        r: int,
        N: int,
        e: int,
        vnu: int,
        w1: RootOfUnity = RootOfUnity(1, 0),
        w2: RootOfUnity = RootOfUnity(1, 0),
        zeta: RootOfUnity = RootOfUnity(1, 0),
    ):
        if r < 1 or N < 1:
            raise ValueError("r and N must be >= 1")
        if e < 1 or N % e:
            raise ValueError("e must divide N")
        if (N // e) % r:
            raise ValueError("r must divide N/e")
        set_field(self, "r", r)
        set_field(self, "N", N)
        set_field(self, "e", e)
        set_field(self, "vnu", vnu)
        set_field(self, "w1", w1)
        set_field(self, "w2", w2)
        set_field(self, "zeta", zeta)


def epsilon_transfer(eps_tame: SMonomial, data: TransferData) -> SMonomial:
    """Pass from the tame-side epsilon (base q_E = q^{N/(e*r)}) to base q.

    Multiplies by zeta * w1 * w2 * q^{(s - 1/2) * r * vnu * N / e}."""
    f = data.N // (data.e * data.r)
    base = _integer_root(eps_tame.qbase, f)  # q_E = base^f: rebasing multiplies the exponents by f
    shift = data.r * data.vnu * data.N // data.e
    weight = data.zeta * data.w1 * data.w2
    order = lcm(eps_tame.coeff.m, weight.order)
    if order > MAX_COEFF_ORDER:
        raise ValueError(
            f"the weight zeta*w1*w2 of order {weight.order} times a coefficient of order "
            f"{eps_tame.coeff.m} has order {order}, over {MAX_COEFF_ORDER}"
        )
    return SMonomial(
        eps_tame.coeff * weight.value(),
        base,
        eps_tame.half_exp * f - shift,
        eps_tame.s_coeff * f + shift,
    )


def _integer_root(value: int, f: int) -> int:
    """The integer b >= 2 with b**f == value, found exactly by Newton's method."""
    if f == 1:
        return value
    if f < value.bit_length():  # else 2**f > value
        root = 1 << -(-value.bit_length() // f)  # above the real root
        while True:  # decreases to the floor of the real root, then stops
            step = ((f - 1) * root + value // root ** (f - 1)) // f
            if step >= root:
                break
            root = step
        if root**f == value:
            return root
    raise ValueError(f"{value} is not an exact {f}-th power")

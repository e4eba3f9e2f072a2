"""Cuspidal representations of GL_r(F_q), with exact character values.

Cuspidal representations are parameterized by regular characters of
GF(q^r)^x, i.e. characters whose Frobenius orbit (c, cq, cq^2, ...) has full
length r; two exponents in one orbit give the same representation.  The
character vanishes off the primary classes; on the class with irreducible
eigenvalue data (d, x) and Jordan partition blocks it equals

    (-1)^(r-1) * (theta(x) + theta(x^q) + ... + theta(x^{q^{d-1}}))
               * prod_{i=1}^{len(blocks)-1} (1 - q^{d*i}),

with x embedded into GF(q^r).  This classical formula is not taken on
faith: :func:`mirabolic_restriction_check` and :func:`gelfand_graev_mult`
re-derive its defining properties by brute force (induced-character sums
over the mirabolic / stabilizer subgroups and over the whole group), and the
test suite requires them to pass for every cuspidal of the desk-scale groups
before anything downstream is trusted.  Past the check of a :class:`Mat`,
those sums work on row tuples, multiplied by :func:`cuspeps.glq.row_product`.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .cyclo import UNIT, CycloNumber, dot, one, zero
from .ffield import ZERO, AdditiveChar, MultChar, frobenius_orbit, subfield_embed
from .glq import (
    FULL,
    MIRABOLIC,
    STABILIZER,
    UNIPOTENT,
    ClassKey,
    GLGroup,
    Mat,
    row_product,
)

__all__ = [
    "CuspidalRep",
    "list_cuspidals",
    "contragredient",
    "inner_product",
    "induced_psi_character",
    "mirabolic_restriction_check",
    "gelfand_graev_mult",
]


class CuspidalRep:
    """A cuspidal representation of GL_r(F_q), given by a regular-character orbit."""

    __slots__ = ("group", "orbit", "exponent", "theta", "_values")

    def __init__(self, group: GLGroup, exponent: int):
        modulus = group.big_field.q - 1
        orbit = frobenius_orbit(exponent, group.q, modulus)
        if len(orbit) != group.r:
            raise ValueError(
                f"exponent {exponent} is not regular for (q, r) = ({group.q}, {group.r})"
            )
        self.group = group
        self.orbit = orbit
        self.exponent = orbit[0]
        self.theta = MultChar(group.big_field, self.exponent)
        self._values: dict[ClassKey, CycloNumber] = {}

    @property
    def q(self) -> int:
        return self.group.q

    @property
    def r(self) -> int:
        return self.group.r

    def dim(self) -> int:
        out = 1
        for i in range(1, self.r):
            out *= self.q**i - 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CuspidalRep)
            and self.group is other.group
            and self.orbit == other.orbit
        )

    def __hash__(self):
        return hash((self.q, self.r, self.orbit))

    def __repr__(self):
        return f"CuspidalRep(q={self.q}, r={self.r}, orbit={self.orbit})"

    # -- character values -------------------------------------------------

    def char_value(self, key: ClassKey) -> CycloNumber:
        """Exact character value on a conjugacy key."""
        cached = self._values.get(key)
        if cached is not None:
            return cached
        if not key.primary:
            value = zero()
        else:
            group = self.group
            big = group.big_field
            x = subfield_embed(key.eig, group.ext_field(key.d), big)
            theta, unit = self.theta, one()
            acc = dot((theta.root(big.pow(x, group.q**i)), unit, None) for i in range(key.d))
            factor = 1
            for i in range(1, len(key.blocks)):
                factor *= 1 - group.q ** (key.d * i)
            if self.r % 2 == 0:
                factor = -factor
            value = acc.scale(factor)
        self._values[key] = value
        return value

    def char_at(self, g: Mat) -> CycloNumber:
        return self.char_value(self.group.class_key(g))

    def char_table(self) -> dict[ClassKey, CycloNumber]:
        """Complete class-function table over the group's conjugacy keys."""
        return {key: self.char_value(key) for key in self.group.class_map()}

    def central_value(self, z: int) -> CycloNumber:
        """theta at a scalar z in GF(q)^x, i.e. the central character."""
        if z == ZERO:
            raise ValueError("scalar must be nonzero")
        big = self.group.big_field
        return self.theta.eval(subfield_embed(z, self.group.field, big))


def list_cuspidals(group: GLGroup) -> list[CuspidalRep]:
    """One representative per regular orbit, ordered by smallest exponent."""
    modulus = group.big_field.q - 1
    seen: set[int] = set()
    out = []
    for c in range(modulus):
        if c in seen:
            continue
        orbit = frobenius_orbit(c, group.q, modulus)
        seen.update(orbit)
        if len(orbit) == group.r:
            out.append(CuspidalRep(group, c))
    return out


def contragredient(sigma: CuspidalRep) -> CuspidalRep:
    """The dual representation: theta-exponent negated."""
    return CuspidalRep(sigma.group, -sigma.exponent)


def inner_product(
    table1: dict[ClassKey, CycloNumber],
    table2: dict[ClassKey, CycloNumber],
    group: GLGroup,
) -> CycloNumber:
    """<f1, f2> = |G|^-1 sum_g f1(g) conj(f2(g)), from complete class tables."""
    cmap = group.class_map()
    missing = set(cmap) - set(table1) | set(cmap) - set(table2)
    if missing:
        raise ValueError(f"class-function tables are incomplete: missing {sorted(missing, key=str)}")
    terms = ((UNIT, table1[key].scale(count), table2[key]) for key, (count, _) in cmap.items())
    return dot(terms, conjugate=True).scale(Fraction(1, group.order()))


def induced_psi_character(
    group: GLGroup, kind: str, psi: AdditiveChar, g: Mat
) -> CycloNumber:
    """Character of Ind_U^M(psi_U) at g, by the coset sum over M/U.

    The value depends on no cuspidal, so each sum runs once per (group, kind,
    psi, g), kept in the dict of :func:`_induced_values`.  A matrix of another
    group raises ValueError."""
    group.check_matrix(g)
    values, rows = _induced_values(group, kind, psi), g.rows
    acc = values.get(rows)
    if acc is None:
        prod = row_product(group.field, group.r)
        reps = zip(group.coset_reps(kind), group.coset_rep_inverses(kind))
        conjugates = (prod(prod(c.rows, rows), c_inv.rows) for c, c_inv in reps)
        unipotent = (h for h in conjugates if group.has_leads(UNIPOTENT, h))
        unit = one()
        acc = values[rows] = dot((group.psi_u_root(h, psi), unit, None) for h in unipotent)
    return acc


@functools.cache
def _induced_values(group: GLGroup, kind: str, psi: AdditiveChar) -> dict[tuple, CycloNumber]:
    """rows of g -> character of Ind_U^kind(psi_U) at g, filled by :func:`induced_psi_character`."""
    return {}


def mirabolic_restriction_check(sigma: CuspidalRep, psi: AdditiveChar) -> bool:
    """Restriction to the mirabolic (and stabilizer) equals Ind_U(psi_U), exactly."""
    return _restriction_matches(sigma.char_at, sigma.group, psi, MIRABOLIC) and _restriction_matches(
        sigma.char_at, sigma.group, psi, STABILIZER
    )


def _restriction_matches(char_at, group: GLGroup, psi: AdditiveChar, kind: str) -> bool:
    for m in group.iterate(kind):
        if char_at(m) != induced_psi_character(group, kind, psi, m):
            return False
    return True


def gelfand_graev_mult(sigma: CuspidalRep, psi: AdditiveChar) -> int:
    """Multiplicity <Ind_U^G psi_U, chi_sigma>, via the induced-character sum.

    The induced character is evaluated on one representative per primary key
    (non-primary classes contribute nothing since the cuspidal character
    vanishes there); the result must be a nonnegative integer."""
    group = sigma.group

    def terms():
        for key, (count, rep) in group.class_map().items():
            if key.primary:
                chi = sigma.char_value(key)
                if not chi.is_zero():
                    yield UNIT, induced_psi_character(group, FULL, psi, rep).scale(count), chi

    acc = dot(terms(), conjugate=True).scale(Fraction(1, group.order()))
    value = acc.rational_value()
    if value.denominator != 1:
        raise AssertionError(f"multiplicity came out non-integral: {value}")
    return int(value)

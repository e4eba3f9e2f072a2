"""Bessel functions of cuspidal representations and their operator model.

For a cuspidal sigma of GL_r(F_q) and a nondegenerate character psi_U of the
unipotent upper-triangular subgroup U, the Bessel function is the normalized
twisted trace

    J(g) = |U|^-1 * sum_{u in U} psi_U(u) * chi_sigma(g u^-1),

an exact cyclotomic number.  J(1) = 1, J transforms by psi_U under U on both
sides, and on the mirabolic (or first-vector stabilizer) subgroup it is
supported exactly on U.  The operator

    L(g)[i][j] = J(c_i g c_j^-1),   c_i coset representatives of U\\M,

realizes sigma on the |M|/|U|-dimensional space of psi_U-equivariant
functions on M: L is multiplicative, has trace chi_sigma, and its
(identity, identity) entry recovers J itself.

Since J(u1 n u2) = psi_U(u1 u2) J(n), J is fixed by its values on the
monomials n.  A new J(g) row-reduces g = u1 n u2 (:meth:`GLGroup.bruhat_cell`,
O(r^3) field operations that also add up s, the sum of the superdiagonals of
u1 and u2) and returns psi(s) J(n).  J(n) is the sum over U above, taken once
per monomial (:meth:`BesselEvaluator.direct`, also the tests' reference for
the bessel suite's sum over U).  A zero J(n) or s = 0 returns J(n) itself,
which is also the value and the printed order of the sum over U at g.  So a full
table over GL_r costs |G| row reductions plus r! (q-1)^r * |U| class
lookups.  Inside, an element is its row tuple and no :class:`Mat` is built:
J and ``direct`` take rows, the key of the one memo dict (J(n) is kept under
the rows of n, whose Bruhat cell is (n, 0)), and every sum multiplies rows with
:func:`cuspeps.glq.row_product`; the public functions check a ``Mat`` first.
psi_U(u) is kept as an exponent (order, k), and each sum over U, Hankel sum
and entry of an operator product is one call of :func:`cuspeps.cyclo.dot`,
reduced modulo Phi_m once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .cyclo import UNIT, CycloNumber, dot, root_of_unity, zero
from .cusp import CuspidalRep
from .ffield import AdditiveChar, FieldSpec
from .glq import MIRABOLIC, STABILIZER, UNIPOTENT, GLGroup, Mat, row_product

__all__ = [
    "BesselEvaluator",
    "bessel_value",
    "build_table",
    "operator_L",
    "hankel_check",
    "contragredient_table",
    "mat_mul",
    "mat_eq",
    "mat_trace",
]


class BesselEvaluator:
    """Memoized Bessel function of (sigma, psi), evaluated by Bruhat cell."""

    __slots__ = ("sigma", "psi", "_terms", "_norm", "_cache")

    def __init__(self, sigma: CuspidalRep, psi: AdditiveChar):
        if psi.field is not sigma.group.field:
            raise ValueError("additive character lives on the wrong field")
        if not psi.nontrivial:
            raise ValueError("psi must be nontrivial (nondegenerate on U)")
        self.sigma = sigma
        self.psi = psi
        group, conj = sigma.group, psi.conjugate()
        # the sum over v = u^-1 in U: psi_U(u) = psi_U(v^-1) = conj psi_U(v)
        self._terms = tuple((group.psi_u_root(v.rows, conj), v.rows) for v in group.elements(UNIPOTENT))
        self._norm = Fraction(1, len(self._terms))
        self._cache: dict[tuple, CycloNumber] = {}

    def direct(self, rows: tuple) -> CycloNumber:
        """J at an element's rows by the defining sum over U, uncached: the
        formula for monomials and the reference the bessel suite's sum over U
        on numbered values is tested against."""
        group, char_value = self.sigma.group, self.sigma.char_value
        key, prod = group.row_key, row_product(group.field, group.r)
        return dot((w, char_value(key(prod(rows, v))), None) for w, v in self._terms).scale(self._norm)

    def __call__(self, rows: tuple) -> CycloNumber:
        cache = self._cache  # keyed by rows, which hash in C; rows of another group are not refused
        value = cache.get(rows)
        if value is None:
            n, s = self.sigma.group.bruhat_cell(rows)
            jn = cache.get(n)
            if jn is None:
                jn = cache[n] = self.direct(n)
            root = self.psi.root(s)
            # A zero J(n), or s = 0, keeps the order that the direct sum prints.
            value = cache[rows] = jn if root == UNIT or jn.is_zero() else jn * root_of_unity(*root)
        return value


def get_evaluator(sigma: CuspidalRep, psi: AdditiveChar) -> BesselEvaluator:
    """The one evaluator of (sigma, psi), shared by every equal pair."""
    return _evaluator(sigma.group, sigma.exponent, psi.field, psi.a)


@functools.cache
def _evaluator(group: GLGroup, exponent: int, field: FieldSpec, a: int) -> BesselEvaluator:
    # keyed by what hashes in C, not by the records, whose hashes run in Python
    return BesselEvaluator(CuspidalRep(group, exponent), AdditiveChar(field, a))


def bessel_value(sigma: CuspidalRep, psi: AdditiveChar, g: Mat) -> CycloNumber:
    """J(g), exact."""
    sigma.group.check_matrix(g)
    return get_evaluator(sigma, psi)(g.rows)


def build_table(sigma: CuspidalRep, psi: AdditiveChar, domain: str) -> dict:
    """{g: J(g)} over a whole subgroup, in enumeration order (bound-checked by the enumerator)."""
    ev = get_evaluator(sigma, psi)
    return {g: ev(g.rows) for g in sigma.group.iterate(domain)}


def _check_model_kind(kind: str) -> None:
    if kind not in (MIRABOLIC, STABILIZER):
        raise ValueError("the model space lives on the mirabolic or the stabilizer")


def operator_L(sigma: CuspidalRep, psi: AdditiveChar, g: Mat, kind: str):
    """Matrix of L(g) in the delta basis indexed by U\\M representatives."""
    _check_model_kind(kind)
    group = sigma.group
    group.check_matrix(g)
    ev, prod = get_evaluator(sigma, psi), row_product(group.field, group.r)
    inverses = [c.rows for c in group.coset_rep_inverses(kind)]
    cigs = (prod(ci.rows, g.rows) for ci in group.coset_reps(kind))
    return tuple(tuple(ev(prod(cig, cj_inv)) for cj_inv in inverses) for cig in cigs)


def hankel_check(sigma: CuspidalRep, psi: AdditiveChar, g1: Mat, g2: Mat, kind: str) -> bool:
    """sum_{m in M/U} J(g1 m) J(m^-1 g2) == J(g1 g2), exactly; M is the mirabolic or the stabilizer."""
    _check_model_kind(kind)
    group = sigma.group
    group.check_matrix(g1)
    group.check_matrix(g2)
    ev, prod, a, b = get_evaluator(sigma, psi), row_product(group.field, group.r), g1.rows, g2.rows
    reps = zip(group.coset_reps(kind), group.coset_rep_inverses(kind))
    return dot((UNIT, ev(prod(a, c_inv.rows)), ev(prod(c.rows, b))) for c, c_inv in reps) == ev(prod(a, b))


def contragredient_table(table: dict) -> dict:
    """{g: J(g^-1)} for a table {g: J(g)}: the table of (sigma-check, psi-bar)."""
    try:
        return {g: table[g.inv()] for g in table}
    except KeyError:
        raise ValueError("domain is not closed under inversion") from None


# -- small helpers for matrices of cyclotomic numbers -----------------------


def mat_mul(a, b):
    """Product of square matrices of cyclotomic numbers, skipping zero factors."""
    cols, units = list(zip(*b)), (UNIT,) * len(b)
    return tuple(tuple(dot(zip(units, row, col, strict=True)) for col in cols) for row in a)


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b, strict=True) for x, y in zip(ra, rb, strict=True))


def mat_trace(a):
    if any(len(row) != len(a) for row in a):
        raise ValueError("the trace needs a square matrix")
    return sum((a[i][i] for i in range(len(a))), zero())

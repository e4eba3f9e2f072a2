"""Epsilon factors of pairs of level-zero supercuspidal representations.

A level-zero supercuspidal of GL_r(E) (E a local field with residue field
GF(q)) is encoded by a cuspidal sigma of GL_r(F_q) together with the value t
of its central character at a uniformizer.  With the additive character of E
trivial on the maximal ideal and nontrivial on the integers, the epsilon
factor of a pair reduces to finite data:

* distinct sigmas:  eps(s) = w * q^{-r/2} * sum_{h in U\\GL_r(F_q)}
  psi(h_{r,1}) J_1(h^-1) J_2(h^-1), with w = omega_2(-1)^{r-1}, J_1 the
  Bessel function of sigma_1 and J_2 the entrywise conjugate of the Bessel
  function of sigma_2 (i.e. the Bessel function of the contragredient with
  the conjugate character).  No dependence on s or on t_1, t_2.  J
  transforms by psi_U under U on both sides and vanishes off a few Bruhat
  monomials n = t*w, so the sum over U\\G is computed as the sum of
  q^len(w) psi(n_{r,1}) J_1(n^-1) J_2(n^-1) over those (q - 1) q^(r-1)
  monomials (:func:`gauss_pair_sum`): neither G nor U\\G is enumerated.  The
  monomials are listed once, in a list closed under inversion, so the sum
  runs over m = n^-1 and reads psi at the (r,1) entry of m^-1.

* equal sigmas:  eps(s) = w * (t_2/t_1) * q^{r*s - r/2}, and the L-factor is
  (1 - (t_1/t_2) q^{-r*s})^{-1}; for tau_1 = tau_2 this gives eps(1/2)^2 = 1.

Everything above is cross-validated by :func:`zeta_tilde_oracle`, which
reruns the defining zeta-integral computation: the zero-valuation shell is
summed by brute force over the Singer torus against stabilizer cosets, the
negative-valuation geometric tail is summed in closed form, and the
functional equation is solved for epsilon by exact polynomial division
(raising :class:`OracleError` if the division does not come out exact).  The
oracle and the direct formula must agree as exact monomials.  They share no
decomposition: the direct formula uses Bruhat cells, the oracle U\\Stab x T,
which covers all of G; so only the oracle is held to the element bound on |G|.

The monomial and root-of-unity records and the tame transfer live in
:mod:`cuspeps.transfer`, which needs no group; the twisting identities
(:func:`twist_ratio_check`), which do, stay here.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._frozen import Frozen, set_field
from .bessel import get_evaluator
from .cyclo import UNIT, CycloNumber, dot, one
from .cusp import CuspidalRep
from .ffield import ZERO, AdditiveChar, FieldSpec
from .glq import FULL, STABILIZER, GLGroup, Mat, row_product
from .transfer import RootOfUnity, SMonomial, TransferData, epsilon_transfer

__all__ = [
    "LevelZeroRep",
    "LFactorSpec",
    "TameTwist",
    "OracleError",
    "gauss_pair_sum",
    "pair_sum_vanishing",
    "epsilon_pair",
    "l_factor_pair",
    "zeta_tilde_oracle",
    "twist_ratio_check",
    "whittaker_eval",
]


class OracleError(RuntimeError):
    """The zeta-integral recomputation contradicted a structural identity."""


class LevelZeroRep(Frozen):
    """A level-zero supercuspidal: cuspidal sigma plus the uniformizer value t."""

    __slots__ = ("sigma", "t")

    def __init__(self, sigma: CuspidalRep, t: RootOfUnity = RootOfUnity(1, 0)):
        set_field(self, "sigma", sigma)
        set_field(self, "t", t)

    @property
    def group(self) -> GLGroup:
        return self.sigma.group

    def central_sign(self) -> CycloNumber:
        """omega(-1)^{r-1}, the sign showing up in the epsilon prefactor."""
        group = self.group
        if (group.r - 1) % 2 == 0 or group.field.p == 2:
            return one()
        minus_one = group.field.neg(0)
        return self.sigma.central_value(minus_one)



class LFactorSpec(Frozen):
    """L(s) = (1 - u * qbase^{-s*m})^{-1}, or the constant 1."""

    __slots__ = ("trivial", "u", "m", "qbase")

    def __init__(
        self,
        trivial: bool,
        u: CycloNumber | None = None,
        m: int | None = None,
        qbase: int | None = None,
    ):
        set_field(self, "trivial", trivial)
        set_field(self, "u", u)
        set_field(self, "m", m)
        set_field(self, "qbase", qbase)

    def to_dict(self) -> dict:
        if self.trivial:
            return {"trivial": True}
        return {"trivial": False, "u": self.u.to_dict(), "m": self.m, "qbase": self.qbase}


def _check_compatible(tau1: LevelZeroRep, tau2: LevelZeroRep):
    if tau1.group is not tau2.group:
        raise ValueError("representations live on different groups")


def _psi_check(group: GLGroup, psi: AdditiveChar):
    if psi.field is not group.field:
        raise ValueError("additive character lives on the wrong field")
    if not psi.nontrivial:
        raise ValueError("additive character must be nontrivial")


def gauss_pair_sum(
    sigma1: CuspidalRep, sigma2: CuspidalRep, psi: AdditiveChar
) -> CycloNumber:
    """sum over U\\G of psi(h_{r,1}) J_1(h^-1) J_2(h^-1), exact, over the support of J.

    J_2 is the entrywise conjugate of the Bessel function of sigma2, i.e. the
    Bessel function of its contragredient for the conjugate character.  Every
    coset of U\\G is U n u' for one monomial n = t*w and u' in a subgroup of U
    of order q^len(w).  (n u')_{r,1} = n_{r,1}, and the psi_U(u') that J_1 and
    conj J_2 pick up cancel, so the sum is that of q^len(w) psi(n_{r,1})
    J_1(n^-1) conj J_2(n^-1) over the monomials n where J can be nonzero
    (:meth:`GLGroup.bessel_support`).  That list is closed under inversion,
    so each listed monomial m is read as n^-1: its term is q^len psi(x)
    J_1(m) conj J_2(m), x = (m^-1)_{r,1} the inverse of m_{1,r}.  Raises
    ValueError when that support times |U| exceeds the element bound."""
    if sigma1.group is not sigma2.group:
        raise ValueError("cuspidals live on different groups")
    group = sigma1.group
    _psi_check(group, psi)
    j1, j2 = get_evaluator(sigma1, psi), get_evaluator(sigma2, psi)
    F, q, r = group.field, group.q, group.r

    def corner(m):  # (m^-1)_{r,1} of the monomial m
        x = m[0][r - 1]
        return x if x == ZERO else F.inv(x)

    terms = ((psi.root(corner(m)), j1(m).scale(q**length), j2(m)) for m, length in group.bessel_support())
    return dot(terms, conjugate=True)


def pair_sum_vanishing(
    sigma1: CuspidalRep, sigma2: CuspidalRep, psi: AdditiveChar, g: Mat
) -> CycloNumber:
    """sum over U\\G of J_1(hg) J_2(hg); zero exactly when the sigmas differ.

    For sigma1 = sigma2 the value at g = 1 is q^r - 1 (one per torus element,
    each stabilizer-coset subsum collapsing to 1)."""
    if sigma1.group is not sigma2.group:
        raise ValueError("cuspidals live on different groups")
    group = sigma1.group
    _psi_check(group, psi)
    group.check_matrix(g)
    j1, j2 = get_evaluator(sigma1, psi), get_evaluator(sigma2, psi)
    return _pair_sum(j1, j2, group.coset_reps(FULL), g)


def _pair_sum(j1, j2, reps, g: Mat) -> CycloNumber:
    """sum over h in reps of J_1(hg) conj J_2(hg), reduced once; hg as bare rows."""
    prod = row_product(g.field, len(g.rows))
    return dot(((UNIT, j1(hg), j2(hg)) for hg in (prod(h.rows, g.rows) for h in reps)), conjugate=True)


def _t_ratio(tau1: LevelZeroRep, tau2: LevelZeroRep) -> RootOfUnity:
    return tau1.t * tau2.t.inverse()


def epsilon_pair(
    tau1: LevelZeroRep, tau2: LevelZeroRep, psi: AdditiveChar
) -> SMonomial:
    """The epsilon factor of the pair (tau1, dual of tau2), as an exact monomial."""
    _check_compatible(tau1, tau2)
    group = tau1.group
    _psi_check(group, psi)
    r, q = group.r, group.q
    w = tau2.central_sign()
    if tau1.sigma == tau2.sigma:
        # unramified-twist case: the Gauss sum degenerates to a power of q^s
        ratio = _t_ratio(tau2, tau1).value()  # t2/t1
        return SMonomial(w * ratio, q, -r, Fraction(r))
    coeff = w * gauss_pair_sum(tau1.sigma, tau2.sigma, psi)
    return SMonomial(coeff, q, -r, Fraction(0))


def l_factor_pair(tau1: LevelZeroRep, tau2: LevelZeroRep) -> LFactorSpec:
    """L(tau1 x dual(tau2), s): trivial unless the sigmas agree."""
    _check_compatible(tau1, tau2)
    if tau1.sigma != tau2.sigma:
        return LFactorSpec(trivial=True)
    group = tau1.group
    u = _t_ratio(tau1, tau2).value()  # t1/t2
    return LFactorSpec(trivial=False, u=u, m=group.r, qbase=group.q)


def _phi_weight(group: GLGroup, psi: AdditiveChar, torus_exp: int) -> tuple[int, int]:
    """psi of the (r,1) entry of the inverse torus element, as (order, exponent)."""
    return psi.root(group.singer_coeffs(-torus_exp)[group.r - 1])  # column 0 of y^-1: its coordinates


def zeta_tilde_oracle(
    tau1: LevelZeroRep, tau2: LevelZeroRep, psi: AdditiveChar
) -> SMonomial:
    """Epsilon reconstructed through the zeta-integral functional equation.

    With the measure normalized so the untransformed zeta integral is 1, the
    transformed side decomposes by valuation shells:

    * shell 0 is A = q^{-r/2} * sum_{y in torus} phi(y^-1)
      sum_{h in U\\Stab} J_1(hy) J_2(hy), summed by brute force;
    * shells v < 0 carry a common factor P = sum_{U\\G} J_1 J_2, read off
      shell 0 as the sum over the torus of the inner sums over U\\Stab, and a
      geometric variable x = (t2/t1) q^{-r} * Y with Y = q^{r*s}.

    Dividing by the dual L-factor and multiplying by L(tau1 x dual(tau2), s)
    must produce an exact monomial in Y; the polynomial division is performed
    exactly and any nonzero remainder raises OracleError.  A and P depend on
    (sigma1, sigma2, psi) alone, not on t1 or t2, so they are summed once per
    such triple and kept (:func:`_shell_sums`); the L-factor algebra runs on
    every call.  The shells cover all of G, so a group over the element bound
    is refused (ValueError) before any sum."""
    _check_compatible(tau1, tau2)
    group = tau1.group
    _psi_check(group, psi)
    group.check_bound(FULL)
    r, q = group.r, group.q
    q_b = q**r
    w = tau2.central_sign()
    a_value, p_value = _shell_sums(group, tau1.sigma.exponent, tau2.sigma.exponent, psi.field, psi.a)
    lfac = l_factor_pair(tau1, tau2)

    if tau1.sigma != tau2.sigma:
        if not p_value.is_zero():
            raise OracleError("full-group pair sum failed to vanish for distinct cuspidals")
        if not lfac.trivial:
            raise OracleError("L-factor should be trivial for distinct cuspidals")
        # every nonzero valuation shell vanishes; epsilon is the shell-0 term
        return SMonomial(w * a_value, q, -r, Fraction(0))

    # equal-sigma case: Ztilde = c*(A + P * x/(1-x)), x = u' * Y / q_b,
    # u' = t2/t1.  Dividing by the dual L-factor 1/(1-x) and multiplying by
    # L = 1/(1 - u/Y) with u = t1/t2 gives
    #     c * (A + (P - A) * u'/q_b * Y) * Y / (Y - u),
    # which is a monomial iff the numerator is divisible by (Y - u), i.e.
    # iff A + (P - A)/q_b = 0; then eps = w * c * (P - A) * u'/q_b * Y.
    u_round = _t_ratio(tau1, tau2)  # t1/t2
    if lfac.trivial or lfac.u != u_round.value() or lfac.m != r:
        raise OracleError("L-factor data inconsistent with the equal-sigma case")
    remainder = a_value + (p_value - a_value).scale(Fraction(1, q_b))
    if not remainder.is_zero():
        raise OracleError(
            "functional equation does not reduce to a monomial: "
            f"division remainder {remainder!r}"
        )
    coeff = (p_value - a_value).scale(Fraction(1, q_b)) * u_round.inverse().value()
    return SMonomial(w * coeff, q, -r, Fraction(r))


@functools.cache
def _shell_sums(group: GLGroup, exponent1: int, exponent2: int, field: FieldSpec, a: int) -> tuple:
    """A, without its factor q^{-r/2}, and P of :func:`zeta_tilde_oracle`
    for the cuspidals of these exponents and psi = AdditiveChar(field, a);
    keyed, like ``bessel._evaluator``, by what hashes in C."""
    psi = AdditiveChar(field, a)
    j1 = get_evaluator(CuspidalRep(group, exponent1), psi)
    j2 = get_evaluator(CuspidalRep(group, exponent2), psi)
    # S_e = sum over U\Stab of J_1(h y_e) J_2(h y_e); (h, y) -> h y is a
    # bijection U\Stab x T -> U\G, so P is the sum of the S_e
    stab_reps = group.coset_reps(STABILIZER)
    shells = [_pair_sum(j1, j2, stab_reps, group.singer_matrix(e)) for e in range(group.q**group.r - 1)]
    a_value = dot((_phi_weight(group, psi, e), s_e, None) for e, s_e in enumerate(shells))
    return a_value, dot((UNIT, s_e, None) for s_e in shells)


class TameTwist(Frozen):
    """A tame character twist acting on level-zero data.

    unit_exponent is the character of GF(q)^x by which sigma_1 is twisted
    (composed with the norm to GF(q^r)); t_mult multiplies t_1; norm_nu is
    the character value at the norm of the transfer invariant to the power
    -r^2."""

    __slots__ = ("unit_exponent", "t_mult", "norm_nu")

    def __init__(
        self,
        unit_exponent: int,
        t_mult: RootOfUnity = RootOfUnity(1, 0),
        norm_nu: RootOfUnity = RootOfUnity(1, 0),
    ):
        set_field(self, "unit_exponent", unit_exponent)
        set_field(self, "t_mult", t_mult)
        set_field(self, "norm_nu", norm_nu)


def twist_rep(tau: LevelZeroRep, twist: TameTwist) -> LevelZeroRep:
    """tau twisted by the tame character: sigma by the norm-pulled unit part, t by t_mult."""
    group = tau.group
    big_order = group.big_field.q - 1
    norm_exp = twist.unit_exponent * (big_order // (group.q - 1))
    sigma = CuspidalRep(group, tau.sigma.exponent + norm_exp)
    return LevelZeroRep(sigma, tau.t * twist.t_mult)


def twist_ratio_check(
    twist: TameTwist,
    tau1: LevelZeroRep,
    tau2: LevelZeroRep,
    data: TransferData,
    psi: AdditiveChar,
) -> bool:
    """Consistency of the transfer with tame twisting.

    Checks, purely algebraically on exact monomials (cross-multiplied to
    avoid division), that

        T(eps(tau1', tau2)) / T(eps(tau1, tau2))
            = norm_nu * eps(tau1', tau2) / eps(tau1, tau2)

    where tau1' is the twisted representation, T the transfer with w1
    multiplied by norm_nu, and T' the original transfer."""
    tau1t = twist_rep(tau1, twist)
    data_twisted = TransferData(
        data.r, data.N, data.e, data.vnu, data.w1 * twist.norm_nu, data.w2, data.zeta
    )
    eps_plain = epsilon_pair(tau1, tau2, psi)
    eps_twisted = epsilon_pair(tau1t, tau2, psi)
    lhs_num = epsilon_transfer(eps_twisted, data_twisted)
    lhs_den = epsilon_transfer(eps_plain, data)
    rhs_num = eps_twisted.rebase(lhs_num.qbase).scale(twist.norm_nu.value())
    rhs_den = eps_plain.rebase(lhs_den.qbase)
    return lhs_num * rhs_den == rhs_num * lhs_den


def whittaker_eval(
    tau: LevelZeroRep, psi: AdditiveChar, u: Mat, z: int, gbar: Mat
) -> CycloNumber:
    """Whittaker value at u * (uniformizer)^z * k, with k reducing to gbar.

    Equals psi_U(u) * t^z * J(gbar); on the mirabolic the support is exactly
    the unipotent subgroup.  A matrix of another group raises ValueError."""
    group = tau.group
    _psi_check(group, psi)
    group.check_matrix(gbar)
    value = group.psi_u(u, psi) * (tau.t**z).value()
    return value * get_evaluator(tau.sigma, psi)(gbar.rows)

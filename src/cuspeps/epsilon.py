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
  the conjugate character).  No dependence on s or on t_1, t_2.

* equal sigmas:  eps(s) = w * (t_2/t_1) * q^{r*s - r/2}, and the L-factor is
  (1 - (t_1/t_2) q^{-r*s})^{-1}; for tau_1 = tau_2 this gives eps(1/2)^2 = 1.

Everything above is cross-validated by :func:`zeta_tilde_oracle`, which
reruns the defining zeta-integral computation: the zero-valuation shell is
summed by brute force over the Singer torus against stabilizer cosets, the
negative-valuation geometric tail is summed in closed form, and the
functional equation is solved for epsilon by exact polynomial division
(raising :class:`OracleError` if the division does not come out exact).  The
oracle and the direct formula must agree as exact monomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ._frozen import Frozen, set_field
from .bessel import get_evaluator
from .cyclo import UNIT, CycloNumber, dot, one, root_of_unity
from .cusp import CuspidalRep
from .ffield import AdditiveChar
from .glq import FULL, STABILIZER, GLGroup, Mat

__all__ = [
    "RootOfUnity",
    "LevelZeroRep",
    "SMonomial",
    "LFactorSpec",
    "TransferData",
    "TameTwist",
    "OracleError",
    "gauss_pair_sum",
    "pair_sum_vanishing",
    "epsilon_pair",
    "l_factor_pair",
    "zeta_tilde_oracle",
    "epsilon_transfer",
    "twist_ratio_check",
    "whittaker_eval",
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


class OracleError(RuntimeError):
    """The zeta-integral recomputation contradicted a structural identity."""


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
        if new_qbase == self.qbase:
            return self
        f, qq = 0, 1
        while qq < self.qbase:
            qq *= new_qbase
            f += 1
        if qq != self.qbase:
            raise ValueError(f"{self.qbase} is not a power of {new_qbase}")
        return SMonomial(self.coeff, new_qbase, self.half_exp * f, self.s_coeff * f)

    def value_at(self, s) -> complex:
        s = Fraction(s)
        exponent = Fraction(self.half_exp, 2) + self.s_coeff * s
        return self.coeff.embed() * (self.qbase ** float(exponent))

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
        if not isinstance(data, dict) or not isinstance(data.get("coeff"), dict):
            raise ValueError("expected an object with an object 'coeff'")
        qbase = int(data["qbase"])
        if qbase < 2:
            raise ValueError(f"qbase must be at least 2, got {qbase}")
        order = int(data["coeff"]["m"])
        if order > MAX_COEFF_ORDER:
            raise ValueError(f"coefficient order {order} exceeds {MAX_COEFF_ORDER}")
        return cls(
            CycloNumber.from_dict(data["coeff"]),
            qbase,
            int(data["half_exp"]),
            Fraction(data["s_coeff"]),
        )


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
    """sum over U\\G of psi(h_{r,1}) J_1(h^-1) J_2(h^-1), exact.

    J_2 is the entrywise conjugate of the Bessel function of sigma2, i.e. the
    Bessel function of its contragredient for the conjugate character.  The
    value does not depend on the choice of coset representatives."""
    if sigma1.group is not sigma2.group:
        raise ValueError("cuspidals live on different groups")
    group = sigma1.group
    _psi_check(group, psi)
    j1 = get_evaluator(sigma1, psi)
    j2 = get_evaluator(sigma2, psi)
    r = group.r
    reps = zip(group.coset_reps(FULL), group.coset_rep_inverses(FULL))
    terms = ((psi.root(h.rows[r - 1][0]), j1(h_inv), j2(h_inv)) for h, h_inv in reps)
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
    j1 = get_evaluator(sigma1, psi)
    j2 = get_evaluator(sigma2, psi)
    return _pair_sum(j1, j2, group.coset_reps(FULL), g)


def _pair_sum(j1, j2, reps, g: Mat) -> CycloNumber:
    """sum over h in reps of J_1(hg) conj J_2(hg), reduced once."""
    return dot(((UNIT, j1(hg), j2(hg)) for hg in (h * g for h in reps)), conjugate=True)


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
    y_inv = group.singer_matrix(-torus_exp)
    return psi.root(y_inv.rows[group.r - 1][0])


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
    exactly and any nonzero remainder raises OracleError."""
    _check_compatible(tau1, tau2)
    group = tau1.group
    _psi_check(group, psi)
    r, q = group.r, group.q
    q_b = q**r
    j1 = get_evaluator(tau1.sigma, psi)
    j2 = get_evaluator(tau2.sigma, psi)
    w = tau2.central_sign()

    # S_e = sum over U\Stab of J_1(h y_e) J_2(h y_e); (h, y) -> h y is a
    # bijection U\Stab x T -> U\G, so P is the sum of the S_e
    stab_reps = group.coset_reps(STABILIZER)
    shells = [_pair_sum(j1, j2, stab_reps, group.singer_matrix(e)) for e in range(q_b - 1)]
    a_value = dot((_phi_weight(group, psi, e), s_e, None) for e, s_e in enumerate(shells))
    p_value = dot((UNIT, s_e, None) for s_e in shells)
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
    base = _integer_root(eps_tame.qbase, f)
    rebased = eps_tame.rebase(base)
    shift = data.r * data.vnu * data.N // data.e
    weight = data.zeta * data.w1 * data.w2
    order = lcm(rebased.coeff.m, weight.order)
    if order > MAX_COEFF_ORDER:
        raise ValueError(
            f"the weight zeta*w1*w2 of order {weight.order} times a coefficient of order "
            f"{rebased.coeff.m} has order {order}, over {MAX_COEFF_ORDER}"
        )
    return SMonomial(
        rebased.coeff * weight.value(),
        base,
        rebased.half_exp - shift,
        rebased.s_coeff + shift,
    )


def _integer_root(value: int, f: int) -> int:
    if f == 1:
        return value
    base = round(value ** (1.0 / f))
    for cand in (base - 1, base, base + 1):
        if cand >= 2 and cand**f == value:
            return cand
    raise ValueError(f"{value} is not an exact {f}-th power")


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
    the unipotent subgroup."""
    group = tau.group
    _psi_check(group, psi)
    value = group.psi_u(u, psi) * (tau.t**z).value()
    return value * get_evaluator(tau.sigma, psi)(gbar)

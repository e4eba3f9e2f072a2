import random
from fractions import Fraction

import pytest

from cuspeps import epsilon, verify
from cuspeps.bessel import get_evaluator
from cuspeps.cusp import list_cuspidals
from cuspeps.cyclo import root_of_unity, zero
from cuspeps.epsilon import (
    LevelZeroRep,
    OracleError,
    RootOfUnity,
    SMonomial,
    TameTwist,
    TransferData,
    epsilon_pair,
    epsilon_transfer,
    gauss_pair_sum,
    l_factor_pair,
    pair_sum_vanishing,
    twist_rep,
    twist_ratio_check,
    whittaker_eval,
    zeta_tilde_oracle,
)
from cuspeps.ffield import AdditiveChar, build_field
from cuspeps.glq import FULL, MIRABOLIC, STABILIZER, UNIPOTENT, GLGroup, Mat, gl_group


def _setup(q, r):
    group = gl_group(q, r)
    psi = AdditiveChar(group.field, 0)
    return group, psi, list_cuspidals(group)


# -- RootOfUnity and SMonomial ------------------------------------------------


def test_root_of_unity_algebra():
    i = RootOfUnity(4, 1)
    assert i * i == RootOfUnity(2, 1)
    assert i.inverse() == RootOfUnity(4, 3)
    assert (i**4) == RootOfUnity.one()
    assert RootOfUnity.parse("1") == RootOfUnity.one()
    assert RootOfUnity.parse("-1") == RootOfUnity(2, 1)
    assert RootOfUnity.parse("2/8") == RootOfUnity(4, 1)
    assert RootOfUnity(6, 2).value() == root_of_unity(3, 1)


def test_smonomial_algebra():
    a = SMonomial(root_of_unity(3, 1), 3, -2, Fraction(2))
    b = SMonomial(root_of_unity(3, 2), 3, 2, Fraction(-2))
    prod = a * b
    assert prod.coeff == 1 and prod.half_exp == 0 and prod.s_coeff == 0
    assert abs(prod.value_at(Fraction(1, 2)) - 1.0) < 1e-12
    assert a.rebase(3) is a
    wide = SMonomial(root_of_unity(3, 1), 9, -1, Fraction(1))
    assert wide.rebase(3) == SMonomial(root_of_unity(3, 1), 3, -2, Fraction(2))
    with pytest.raises(ValueError):
        wide.rebase(2)
    with pytest.raises(ValueError):
        a * wide
    assert SMonomial.from_dict(a.to_dict()) == a


# -- Gauss pair sums ----------------------------------------------------------


def test_gauss_pair_sum_rank_one():
    group, psi, cusps = _setup(3, 1)
    quad, triv = cusps[1], cusps[0]
    assert gauss_pair_sum(quad, triv, psi) == root_of_unity(3, 1) - root_of_unity(3, 2)
    assert gauss_pair_sum(triv, triv, psi) == -1
    group5, psi5, cusps5 = _setup(5, 1)
    assert gauss_pair_sum(cusps5[0], cusps5[0], psi5) == -1


def test_gauss_pair_sum_coset_independence():
    group, psi, cusps = _setup(3, 2)
    s1, s2 = cusps[0], cusps[1]
    reference = gauss_pair_sum(s1, s2, psi)
    # recompute with every representative moved inside its coset
    rng = random.Random(13)
    unip = group.elements(UNIPOTENT)
    j1 = get_evaluator(s1, psi)
    j2 = get_evaluator(s2, psi)
    acc = zero()
    for h in group.coset_reps(FULL):
        h = rng.choice(unip) * h
        h_inv = h.inv()
        acc = acc + psi.eval(h.rows[group.r - 1][0]) * j1(h_inv) * j2(h_inv).conjugate()
    assert acc == reference


def test_gauss_pair_sum_reuses_coset_inverses(monkeypatch):
    group, psi, cusps = _setup(3, 2)
    s1, s2 = cusps[0], cusps[1]
    reference = gauss_pair_sum(s1, s2, psi)  # warms the caches
    calls = []
    original = Mat.inv

    def counting_inv(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Mat, "inv", counting_inv)
    assert gauss_pair_sum(s1, s2, psi) == reference
    assert calls == []


def test_gauss_pair_sum_modulus():
    group, psi, cusps = _setup(3, 2)
    value = gauss_pair_sum(cusps[0], cusps[1], psi)
    assert abs(abs(value.embed()) - 3.0) < 1e-9  # q^{r/2} = 3


def test_gauss_pair_sum_same_sigma_degenerates():
    # for sigma1 = sigma2 the weighted sum collapses to the zero-shell value -1
    for q, r in ((2, 2), (3, 2)):
        group, psi, cusps = _setup(q, r)
        for sigma in cusps:
            assert gauss_pair_sum(sigma, sigma, psi) == -1


# -- epsilon_pair -------------------------------------------------------------


def test_epsilon_rank_one_quadratic():
    group, psi, cusps = _setup(3, 1)
    eps = epsilon_pair(LevelZeroRep(cusps[1]), LevelZeroRep(cusps[0]), psi)
    assert eps.coeff == root_of_unity(3, 1) - root_of_unity(3, 2)
    assert eps.qbase == 3 and eps.half_exp == -1 and eps.s_coeff == 0
    assert abs(eps.value_at(Fraction(1, 2)) - 1j) < 1e-9
    assert abs(eps.modulus_at_half() - 1.0) < 1e-9


def test_epsilon_same_tau_square_is_one():
    for q, r in ((3, 1), (2, 2), (3, 2)):
        group, psi, cusps = _setup(q, r)
        for sigma in cusps:
            tau = LevelZeroRep(sigma, RootOfUnity(4, 1))
            eps = epsilon_pair(tau, tau, psi)
            assert eps.s_coeff == r and eps.half_exp == -r
            assert eps.coeff * eps.coeff == 1
            value = eps.value_at(Fraction(1, 2))
            assert abs(value * value - 1.0) < 1e-9


def test_epsilon_same_sigma_t_ratio():
    # unramified-twist case over GL_1: classical Tate value chi(pi)^{-1} q^{s-1/2}
    group, psi, cusps = _setup(3, 1)
    t1 = RootOfUnity(3, 1)
    eps = epsilon_pair(LevelZeroRep(cusps[0], t1), LevelZeroRep(cusps[0]), psi)
    assert eps.coeff == root_of_unity(3, 2)  # (t2/t1) = zeta_3^{-1}
    assert eps.s_coeff == 1 and eps.half_exp == -1


def test_epsilon_distinct_is_s_independent():
    group, psi, cusps = _setup(3, 2)
    t1 = RootOfUnity(8, 3)
    eps_plain = epsilon_pair(LevelZeroRep(cusps[0]), LevelZeroRep(cusps[1]), psi)
    eps_t = epsilon_pair(LevelZeroRep(cusps[0], t1), LevelZeroRep(cusps[1]), psi)
    assert eps_plain == eps_t
    assert eps_plain.s_coeff == 0
    assert abs(eps_plain.modulus_at_half() - 1.0) < 1e-9


def test_epsilon_group_mismatch():
    _, psi, cusps = _setup(3, 2)
    _, _, other = _setup(2, 2)
    with pytest.raises(ValueError):
        epsilon_pair(LevelZeroRep(cusps[0]), LevelZeroRep(other[0]), psi)


# -- L factors ----------------------------------------------------------------


def test_l_factor_pair():
    group, psi, cusps = _setup(3, 2)
    assert l_factor_pair(LevelZeroRep(cusps[0]), LevelZeroRep(cusps[1])).trivial
    same = l_factor_pair(LevelZeroRep(cusps[0]), LevelZeroRep(cusps[0]))
    assert not same.trivial and same.u == 1 and same.m == 2 and same.qbase == 3
    # unramified parameter of the pair is t1/t2
    twisted = l_factor_pair(
        LevelZeroRep(cusps[0], RootOfUnity(2, 1)), LevelZeroRep(cusps[0])
    )
    assert twisted.u == -1 and twisted.m == 2


# -- vanishing sums -----------------------------------------------------------


def test_pair_sum_vanishing():
    group, psi, cusps = _setup(3, 2)
    rng = random.Random(3)
    elems = group.elements(FULL)
    for g in rng.sample(elems, 20):
        assert pair_sum_vanishing(cusps[0], cusps[1], psi, g).is_zero()
    assert pair_sum_vanishing(cusps[0], cusps[0], psi, group.identity()) == group.q**2 - 1


def test_pair_sum_vanishing_rank_one_orthogonality():
    group, psi, cusps = _setup(5, 1)
    for s1 in cusps:
        for s2 in cusps:
            value = pair_sum_vanishing(s1, s2, psi, group.identity())
            assert value.is_zero() == (s1 != s2)


# -- oracle -------------------------------------------------------------------


@pytest.mark.parametrize("q,r", [(3, 1), (5, 1), (2, 2), (3, 2)])
def test_oracle_agrees_all_pairs(q, r):
    group, psi, cusps = _setup(q, r)
    t_options = (RootOfUnity.one(), RootOfUnity(3, 1))
    for s1 in cusps:
        for s2 in cusps:
            for t1 in t_options:
                tau1, tau2 = LevelZeroRep(s1, t1), LevelZeroRep(s2)
                eps = epsilon_pair(tau1, tau2, psi)
                assert zeta_tilde_oracle(tau1, tau2, psi) == eps
                assert abs(eps.modulus_at_half() - 1.0) < 1e-9


def test_oracle_sampled_larger_groups():
    rng = random.Random(17)
    for q, r in ((4, 2), (2, 3)):
        group, psi, cusps = _setup(q, r)
        for _ in range(3):
            tau1 = LevelZeroRep(rng.choice(cusps), RootOfUnity(4, rng.randrange(4)))
            tau2 = LevelZeroRep(rng.choice(cusps))
            eps = epsilon_pair(tau1, tau2, psi)
            assert zeta_tilde_oracle(tau1, tau2, psi) == eps


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_shell_sums_add_up_to_full_pair_sum(q, r):
    """The oracle's P: the stabilizer shell sums S_e over the torus give the U\\G sum."""
    group, psi, cusps = _setup(q, r)
    stab_reps = group.coset_reps(STABILIZER)
    for s1 in cusps:
        for s2 in cusps:
            j1, j2 = get_evaluator(s1, psi), get_evaluator(s2, psi)
            total = zero()
            for e in range(group.q**r - 1):
                total = total + epsilon._pair_sum(j1, j2, stab_reps, group.singer_matrix(e))
            assert total == pair_sum_vanishing(s1, s2, psi, group.identity())


def test_oracle_builds_no_full_coset_reps():
    group = GLGroup(build_field(3, 1), 2)
    psi = AdditiveChar(group.field, 0)
    tau = LevelZeroRep(list_cuspidals(group)[0], RootOfUnity(3, 1))
    assert zeta_tilde_oracle(tau, LevelZeroRep(tau.sigma), psi) == epsilon_pair(tau, LevelZeroRep(tau.sigma), psi)
    assert FULL not in group._coset_cache


def test_sampled_oracle_failure_is_reported(monkeypatch):
    def broken(tau1, tau2, psi):
        raise OracleError("forced failure")

    monkeypatch.setattr(verify, "zeta_tilde_oracle", broken)
    checks = {c.name: c.ok for c in verify.epsilon_suite(q=4, r=2)}
    assert checks["GL_2(F_4) sampled oracle agreement"] is False


# -- transfer -----------------------------------------------------------------


def _base_eps():
    group, psi, cusps = _setup(3, 1)
    return epsilon_pair(LevelZeroRep(cusps[1]), LevelZeroRep(cusps[0]), psi)


def test_transfer_identity():
    eps = _base_eps()
    assert epsilon_transfer(eps, TransferData(r=1, N=1, e=1, vnu=0)) == eps


def test_transfer_shift_example():
    eps = _base_eps()
    out = epsilon_transfer(eps, TransferData(r=1, N=2, e=2, vnu=1))
    assert out.s_coeff == eps.s_coeff + 1
    assert out.half_exp == eps.half_exp - 1
    assert out.coeff == eps.coeff


def test_transfer_composition_inverse():
    eps = _base_eps()
    w = RootOfUnity(4, 1)
    fwd = TransferData(r=1, N=2, e=2, vnu=2, w1=w, w2=RootOfUnity(3, 1), zeta=RootOfUnity(2, 1))
    bwd = TransferData(
        r=1, N=2, e=2, vnu=-2, w1=w.inverse(), w2=RootOfUnity(3, 2), zeta=RootOfUnity(2, 1)
    )
    assert epsilon_transfer(epsilon_transfer(eps, fwd), bwd) == eps


def test_transfer_rebases_tame_side():
    eps = _base_eps()
    tame = SMonomial(eps.coeff, 9, eps.half_exp, eps.s_coeff)  # over GF(9) = q_E
    out = epsilon_transfer(tame, TransferData(r=1, N=2, e=1, vnu=1))
    assert out.qbase == 3
    assert out.half_exp == 2 * eps.half_exp - 2
    assert out.s_coeff == 2 * eps.s_coeff + 2


def test_transfer_data_validation():
    with pytest.raises(ValueError):
        TransferData(r=1, N=3, e=2, vnu=0)
    with pytest.raises(ValueError):
        TransferData(r=2, N=3, e=3, vnu=0)
    with pytest.raises(ValueError):
        TransferData(r=0, N=1, e=1, vnu=0)
    with pytest.raises(ValueError):
        TransferData(r=1, N=0, e=1, vnu=0)


# -- twisting -----------------------------------------------------------------


def test_twist_rep_action():
    group, psi, cusps = _setup(3, 2)
    tau = LevelZeroRep(cusps[0], RootOfUnity(4, 1))
    twist = TameTwist(unit_exponent=1, t_mult=RootOfUnity(2, 1), norm_nu=RootOfUnity(2, 1))
    tau_t = twist_rep(tau, twist)
    # unit part pulls back through the norm: exponent shifts by (q^r-1)/(q-1) = 4
    assert tau_t.sigma.orbit == (5, 7)
    assert tau_t.t == RootOfUnity(4, 3)


@pytest.mark.parametrize("p", [3, 5])
def test_twist_ratio_identities(p):
    group, psi, cusps = _setup(p, 1)
    tau1 = LevelZeroRep(cusps[1], RootOfUnity(3, 1))
    tau2 = LevelZeroRep(cusps[0])
    data = TransferData(
        r=1, N=2, e=2, vnu=1, w1=RootOfUnity(4, 1), w2=RootOfUnity(3, 2), zeta=RootOfUnity(2, 1)
    )
    twists = [
        TameTwist(unit_exponent=0),
        TameTwist(unit_exponent=0, t_mult=RootOfUnity(5, 1), norm_nu=RootOfUnity(7, 2)),
        TameTwist(unit_exponent=(p - 1) // 2, t_mult=RootOfUnity(2, 1), norm_nu=RootOfUnity(2, 1)),
    ]
    for twist in twists:
        assert twist_ratio_check(twist, tau1, tau2, data, psi)


# -- Whittaker values ---------------------------------------------------------


def test_whittaker_values():
    group, psi, cusps = _setup(3, 2)
    t = RootOfUnity(8, 1)
    tau = LevelZeroRep(cusps[0], t)
    ident = group.identity()
    assert whittaker_eval(tau, psi, ident, 0, ident) == 1
    u = Mat.from_ints(group.field, [[1, 1], [0, 1]])
    assert whittaker_eval(tau, psi, u, 0, ident) == group.psi_u(u, psi)
    assert whittaker_eval(tau, psi, ident, 1, ident) == t.value()
    assert whittaker_eval(tau, psi, ident, -2, ident) == (t ** -2).value()


def test_whittaker_mirabolic_support():
    group, psi, cusps = _setup(3, 2)
    tau = LevelZeroRep(cusps[0])
    ident = group.identity()
    for m in group.iterate(MIRABOLIC):
        value = whittaker_eval(tau, psi, ident, 0, m)
        assert value.is_zero() != group.contains(UNIPOTENT, m)

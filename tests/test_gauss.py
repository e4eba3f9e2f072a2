"""Epsilon factors of distinct cuspidal pairs against a product of Gauss sums.

For sigma_1 = sigma(theta_1) != sigma_2 = sigma(theta_2) of GL_r(F_q), with
K = GF(q^r) and psi the additive character of F_q (shift ``--a`` included),

    coeff(eps) * q^(r(r-1)/2) = prod_{i<r} tau(theta_2^(q^i) / theta_1),
    tau(chi) = sum over x in K^x of chi(x) psi(Tr_{K/F_q}(x)),

the shape the Galois side predicts (Ind theta_1 x Ind theta_2^vee splits into
r tame characters of the unramified extension, each giving one Gauss sum
over K).  The reference below is built from field logs and ``cyclo.dot``
alone, with nothing from ``bessel``, ``glq`` or ``epsilon``, so it also
covers the groups beyond the element bound, which the zeta-integral oracle
refuses.
"""

import itertools

import pytest

from cuspeps.cusp import list_cuspidals
from cuspeps.cyclo import dot, one
from cuspeps.epsilon import LevelZeroRep, epsilon_pair
from cuspeps.ffield import AdditiveChar, build_field, subfield_embed
from cuspeps.glq import gl_group


def _gauss_product(p, k, r, a, c1, c2):
    """prod_{i<r} tau(theta_2^(q^i) / theta_1) for theta_j(g^x) = zeta_{Q-1}^(c_j x)."""
    F, K = build_field(p, k), build_field(p, k * r)
    q, n = F.q, K.q - 1
    a_k = subfield_embed(a, F, K)
    # psi(Tr_{K/F_q} x) = zeta_p^Tr_{K/F_p}(a x), since a lies in F_q
    traces = [K.trace_to_prime(K.mul(a_k, x)) for x in range(n)]
    out = one()
    for i in range(r):
        c = c2 * q**i - c1
        out = out * dot(((p * n, c * x * p + t * n), one(), None) for x, t in enumerate(traces))
    return out


def _check_pair(q, r, a, s1, s2):
    group = s1.group
    eps = epsilon_pair(LevelZeroRep(s1), LevelZeroRep(s2), AdditiveChar(group.field, a))
    expected = _gauss_product(group.field.p, group.field.k, r, a, s1.exponent, s2.exponent)
    assert eps.coeff.scale(q ** (r * (r - 1) // 2)) == expected, (q, r, a, s1.orbit, s2.orbit)


@pytest.mark.parametrize("q,r", [(3, 2), (4, 2), (5, 2), (2, 3), (2, 4)])
def test_epsilon_is_a_product_of_gauss_sums(q, r):
    """Every ordered distinct pair, for two shifts a where F_q^x has two elements."""
    group = gl_group(q, r)
    cusps = list_cuspidals(group)
    for a in range(min(2, q - 1)):
        for s1, s2 in itertools.permutations(cusps, 2):
            _check_pair(q, r, a, s1, s2)


@pytest.mark.parametrize("q,r,theta1,theta2", [(5, 3, 1, 2), (3, 4, 1, 2), (2, 5, 1, 3)])
def test_golden_answers_beyond_the_element_bound(q, r, theta1, theta2):
    """The pairs pinned by tests/test_golden.py on GL_3(F_5), GL_4(F_3) and GL_5(F_2)."""
    cusps = list_cuspidals(gl_group(q, r))
    s1, s2 = (next(s for s in cusps if t in s.orbit) for t in (theta1, theta2))
    _check_pair(q, r, 0, s1, s2)


def test_reference_is_not_trivially_satisfied():
    """The swapped quotient theta_1 / theta_2^(q^i) fails on some pair, so the check has teeth."""
    group = gl_group(5, 2)
    psi = AdditiveChar(group.field, 0)
    assert any(
        epsilon_pair(LevelZeroRep(s1), LevelZeroRep(s2), psi).coeff.scale(5)
        != _gauss_product(5, 1, 2, 0, -s1.exponent, -s2.exponent)
        for s1, s2 in itertools.permutations(list_cuspidals(group), 2)
    )

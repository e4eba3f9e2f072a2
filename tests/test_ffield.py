import pytest

from cuspeps import ffield, verify
from cuspeps.cyclo import root_of_unity
from cuspeps.ffield import (
    ZERO,
    AdditiveChar,
    MultChar,
    build_field,
    frobenius_orbit,
    is_regular_char,
    subfield_embed,
)


def test_build_field_examples():
    f4 = build_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1, the unique irreducible quadratic
    f9 = build_field(3, 2)
    assert len(f9.zech) == 8
    f8 = build_field(2, 3)
    assert f8.modulus == (1, 1, 0, 1)  # x^3 + x + 1, smallest primitive cubic


def test_build_field_is_one_object_per_field():
    assert build_field(3) is build_field(3, 1) is build_field(p=3, k=1) is build_field(3, k=1)
    assert build_field(2, 2) is not build_field(2, 1)


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(2, 13)  # 8192 over the default cap


def test_build_field_refuses_every_non_prime_below_5000(monkeypatch):
    """Primes up to the bound reach _field; every other p is refused, p above the
    bound before it is factored.  _field is replaced, so no field is built."""
    monkeypatch.setattr(ffield, "_field", lambda p, k: (p, k))
    for p in range(-2, 5000):
        prime = p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))
        if p > 4096:
            message = f"field size {p} exceeds the configured bound 4096"
        elif not prime:
            message = f"{p} is not prime"
        else:
            assert build_field(p) == (p, 1)
            continue
        with pytest.raises(ValueError) as info:
            build_field(p)
        assert str(info.value) == message


@pytest.mark.parametrize("p, k, message", [
    (2, 12, None),
    (61, 2, None),
    (2, 13, "field size 2^13 exceeds the configured bound 4096"),
    (65, 2, "field size 4225 exceeds the configured bound 4096"),
    (4, 7, "field size 16384 exceeds the configured bound 4096"),  # over the bound before p is factored
    (3, 10**8, "field size 3^100000000 exceeds the configured bound 4096"),  # p^k is never formed
    (4, 6, "4 is not prime"),
    (4, 0, "4 is not prime"),
    (1, 100, "1 is not prime"),
    (-3, 13, "-3 is not prime"),
    (3, 0, "extension degree must be >= 1"),
    (2, -5, "extension degree must be >= 1"),
])
def test_build_field_checks_the_bound_first(monkeypatch, p, k, message):
    monkeypatch.setattr(ffield, "_field", lambda p, k: (p, k))
    if message is None:
        assert build_field(p, k) == (p, k)
    else:
        with pytest.raises(ValueError) as info:
            build_field(p, k)
        assert str(info.value) == message


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (5, 1)])
def test_field_axioms_exhaustive(p, k):
    F = build_field(p, k)
    elems = list(F.elements())
    one = 0
    for a in elems:
        assert F.add(a, ZERO) == a
        assert F.mul(a, one) == a
        assert F.add(a, F.neg(a)) == ZERO
        if a != ZERO:
            assert F.mul(a, F.inv(a)) == one
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_zech_consistency():
    for p, k in ((2, 3), (3, 2), (2, 4), (5, 2)):
        F = build_field(p, k)
        for l in range(F.q - 1):
            vec = tuple((a + b) % p for a, b in zip(F.powers[l], F.powers[0]))
            if not any(vec):
                assert F.zech[l] == ZERO
            else:
                assert F.powers[F.zech[l]] == vec


def test_subfield_embed_examples():
    f2, f4, f16 = build_field(2, 1), build_field(2, 2), build_field(2, 4)
    assert subfield_embed(ZERO, f4, f16) == ZERO
    assert subfield_embed(0, f4, f16) == 0  # 1 -> 1
    assert subfield_embed(0, f2, f4) == 0  # generator of F_2^x is 1
    assert subfield_embed(1, f4, f16) == 5  # g_4 -> g_16^5


def test_subfield_embed_requires_divisibility():
    f4, f8 = build_field(2, 2), build_field(2, 3)
    with pytest.raises(ValueError):
        subfield_embed(1, f4, f8)


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((3, 1), (3, 2)), ((2, 2), (2, 6)), ((2, 3), (2, 6))])
def test_embedding_is_field_homomorphism(src, dst):
    S, D = build_field(*src), build_field(*dst)
    elems = list(S.elements())
    for x in elems:
        fx = subfield_embed(x, S, D)
        if x != ZERO:
            assert subfield_embed(S.pow(x, S.q), S, D) == D.pow(fx, S.q)  # Frobenius
        for y in elems:
            assert subfield_embed(S.mul(x, y), S, D) == D.mul(fx, subfield_embed(y, S, D))
            assert subfield_embed(S.add(x, y), S, D) == D.add(fx, subfield_embed(y, S, D))


def test_additive_char_examples():
    f3 = build_field(3, 1)
    psi = AdditiveChar(f3, 0)
    assert psi.eval(ZERO) == 1
    assert psi.eval(0) == root_of_unity(3, 1)  # psi_1(1) = zeta_3
    f4 = build_field(2, 2)
    psi4 = AdditiveChar(f4, 0)
    assert psi4.eval(1) == -1  # trace of the generator is 1


def test_additive_char_laws():
    for p, k in ((3, 2), (2, 3)):
        F = build_field(p, k)
        psi = AdditiveChar(F, 1)
        for x in F.elements():
            for y in F.elements():
                assert psi.eval(F.add(x, y)) == psi.eval(x) * psi.eval(y)
    assert not AdditiveChar(build_field(3, 1), ZERO).nontrivial


def test_additive_char_shift_is_reduced():
    """Shifts that agree modulo q - 1 give one character: equal, with one hash,
    as MultChar reduces its exponent; ZERO stays the trivial character."""
    f3 = build_field(3, 1)
    psi7, psi1 = AdditiveChar(f3, 7), AdditiveChar(f3, 1)
    assert psi7 == psi1 and hash(psi7) == hash(psi1) and psi7.a == 1
    assert AdditiveChar(f3, -2) == AdditiveChar(f3, 0)
    assert AdditiveChar(f3, ZERO).a == ZERO


def test_mult_char_examples():
    f9 = build_field(3, 2)
    theta1 = MultChar(f9, 1)
    assert theta1.eval(1) == root_of_unity(8, 1)  # the generator has log 1
    assert MultChar(f9, 2).eval(4) == 1  # 2*4 = 8 = 0 mod 8
    assert MultChar(f9, 5).eval(f9.one()) == 1
    with pytest.raises(ValueError):
        theta1.eval(ZERO)
    for x in range(8):
        for y in range(8):
            assert theta1.eval(f9.mul(x, y)) == theta1.eval(x) * theta1.eval(y)


def test_is_regular_char():
    f4 = build_field(2, 2)
    assert is_regular_char(MultChar(f4, 1), 2)
    assert not is_regular_char(MultChar(f4, 0), 2)
    f9 = build_field(3, 2)
    assert not is_regular_char(MultChar(f9, 4), 3)  # orbit {4} is Frobenius-fixed
    # degenerate rank-one case: every character of GL_1 counts, including c = 0
    f3 = build_field(3, 1)
    assert is_regular_char(MultChar(f3, 0), 3)
    with pytest.raises(ValueError):
        is_regular_char(MultChar(f9, 1), 2)


@pytest.mark.parametrize("q", [1, 0, -3])
def test_is_regular_char_refuses_a_base_below_2(q):
    with pytest.raises(ValueError, match="at least 2"):
        is_regular_char(MultChar(build_field(3, 2), 1), q)


def test_frobenius_orbits():
    assert frobenius_orbit(1, 3, 8) == (1, 3)
    assert frobenius_orbit(5, 3, 8) == (5, 7)
    assert frobenius_orbit(4, 3, 8) == (4,)


def test_prime_field_roundtrip():
    F = build_field(5, 2)
    for c in range(5):
        assert F.to_int(F.from_int(c)) == c
    with pytest.raises(ValueError):
        F.to_int(1)  # the generator of GF(25) is not in GF(5)


def test_field_suite_mobius_matches_the_divisor_sum():
    """verify._mobius, which the necklace counts of the field suite use, is mu(n)
    for n <= 1000: the values with sum_{d | n} mu(d) = [n == 1], built up from mu(1) = 1."""
    mu = {1: 1}
    for n in range(2, 1001):
        mu[n] = -sum(mu[d] for d in range(1, n) if n % d == 0)
    assert all(verify._mobius(n) == mu[n] for n in mu)

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspeps import cyclo
from cuspeps.cyclo import UNIT, CycloNumber, _fold, _mod_phi, cyclotomic_polynomial, dot, one, root_of_unity, zero
from cuspeps.ffield import ZERO, AdditiveChar, build_field


def test_basic_roots():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 1) * root_of_unity(4, 1) == -1
    assert (root_of_unity(3, 0) + root_of_unity(3, 1) + root_of_unity(3, 2)).is_zero()


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_arith_examples():
    a = root_of_unity(8, 3)
    assert a + 0 == a
    assert root_of_unity(8, 1) * root_of_unity(8, 7) == 1
    g = root_of_unity(3, 1) - root_of_unity(3, 2)
    assert g * g == -3


def test_conjugation():
    assert root_of_unity(1, 0).conjugate() == 1
    assert root_of_unity(3, 1).conjugate() == root_of_unity(3, 2)
    g = root_of_unity(3, 1) - root_of_unity(3, 2)
    assert g.conjugate() == -g


def test_embed_values():
    assert abs(root_of_unity(1, 0).embed() - 1.0) < 1e-12
    assert abs(root_of_unity(4, 1).embed() - 1j) < 1e-12
    g = root_of_unity(3, 1) - root_of_unity(3, 2)
    assert abs(g.embed() - 1j * 3**0.5) < 1e-12


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    # prod_{d | m} Phi_d = x^m - 1 determines every Phi_m by induction on m.
    for m in range(1, 181):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1]


def _random_value(rng):
    m = rng.choice((1, 3, 4, 6, 8, 12))
    acc = CycloNumber.rational(0)
    for _ in range(rng.randrange(4)):
        acc = acc + root_of_unity(m, rng.randrange(m)).scale(
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        )
    return acc


def test_ring_axioms_sampled():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_zero_iff_embed_small():
    rng = random.Random(5)
    for _ in range(1000):
        a = _random_value(rng)
        assert a.is_zero() == (abs(a.embed()) < 1e-9)


def test_promotion_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        a = _random_value(rng)
        assert a.promote(a.m * rng.choice((2, 3, 4))) == a


def test_serialization_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_value(rng)
        assert CycloNumber.from_dict(a.to_dict()) == a


def test_rational_extraction():
    assert (root_of_unity(4, 1) ** 2).rational_value() == -1
    with pytest.raises(ValueError):
        root_of_unity(4, 1).rational_value()


def _long_division(m, work):
    """Remainder modulo Phi_m by plain long division against the dense Phi_m."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    work = list(work)
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            for j in range(d + 1):
                work[i - d + j] -= c * phi[j]
    return tuple(work[:d] + [0] * (d - len(work)))


@pytest.mark.parametrize("m", [1, 2, 4, 7, 9, 14, 30, 120, 240, 510, 728, 1023, 2046])
def test_chained_mod_phi_matches_long_division(m):
    """The reduction through multiples of Phi_m gives the unique remainder, on
    sparse and dense vectors up to two full periods long."""
    rng = random.Random(m)
    for _ in range(8 if m < 500 else 2):
        density = rng.choice((0.05, 0.5, 1.0))
        work = [rng.randrange(-99, 100) if rng.random() < density else 0 for _ in range(rng.randrange(1, 2 * m + 1))]
        assert _mod_phi(m, list(work)) == _long_division(m, work)
    assert _mod_phi(m, [0] * (2 * m - 1) + [1]) == _long_division(m, [0] * (m - 1) + [1])  # x^(2m-1) = x^(m-1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 9, 14, 15, 24, 30, 120, 255, 510, 1023, 2046, 4095, 8190])
def test_one_pass_fold_matches_two_step_fold(m):
    """Folding 2m exponent counts by zeta^m = 1 and, for even m, zeta^(m/2) = -1
    in one pass, then dividing, gives the remainder of the plain fold by
    zeta^m = 1 alone: the same tuple, of phi(m) entries, so the same value at
    the same order."""
    rng = random.Random(m)
    for _ in range(6 if m < 1000 else 2):
        density = rng.choice((0.02, 0.5, 1.0))
        work = [rng.randrange(-99, 100) if rng.random() < density else 0 for _ in range(2 * m)]
        two_step = _mod_phi(m, [x + y for x, y in zip(work[:m], work[m:])])
        folded = _fold(m, list(work))
        assert len(folded) == (m // 2 if m % 2 == 0 else m)
        assert _mod_phi(m, folded) == two_step
        assert len(two_step) == len(cyclotomic_polynomial(m)) - 1


def test_root_of_unity_matches_long_division():
    """zeta_m^j is the remainder of x^(j mod m)."""
    for m in range(1, 65):
        for j in range(-m, 2 * m):
            unit = [0] * (j % m) + [1]
            z = root_of_unity(m, j)
            assert (z.m, z.den) == (m, 1)
            assert z.num == _mod_phi(m, list(unit)) == _long_division(m, unit)


@pytest.mark.parametrize("c", [0, 1, -1, 2, -6, 35, 10**20, -(10**20) + 1])
def test_scale_by_int_matches_fraction(monkeypatch, c):
    """scale(c) for an int c equals scale(Fraction(c)), and builds no Fraction."""
    rng = random.Random(c % 1009)
    values = [_random_value(rng) for _ in range(20)] + [root_of_unity(6, 1).scale(Fraction(1, 6)), zero()]
    expected = [a.scale(Fraction(c)) for a in values]
    monkeypatch.setattr(cyclo, "Fraction", None)
    for a, want in zip(values, expected):
        got = a.scale(c)
        assert (got.m, got.num, got.den) == (want.m, want.num, want.den)


def test_eq_fast_paths():
    """Equal orders compare (den, num); ints, Fractions and other orders still work."""
    z = root_of_unity(12, 5)
    assert z == CycloNumber(12, [0] * 5 + [1]) and z != root_of_unity(12, 7)
    assert CycloNumber(6, [Fraction(1, 2)]) == Fraction(1, 2) and CycloNumber(6, [2]) == 2
    assert root_of_unity(6, 3) == root_of_unity(2, 1) == -1
    assert z.__eq__("z") is NotImplemented and z != "z"
    assert z * 2 == z + z and z * Fraction(1, 2) == CycloNumber(12, [0] * 5 + [Fraction(1, 2)])


# -- reference: the Fraction-list arithmetic this module used to run on ------


def _ref_reduce(m, coeffs):
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
        work[i] = Fraction(0)
    out = work[:deg]
    out.extend(Fraction(0) for _ in range(deg - len(out)))
    return m, tuple(out)


def _ref_promote(a, order):
    m, coeffs = a
    step = order // m
    work = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for j, c in enumerate(coeffs):
        work[j * step] = c
    return _ref_reduce(order, work)


def _ref_pair(a, b):
    order = lcm(a[0], b[0])
    return _ref_promote(a, order)[1], _ref_promote(b, order)[1], order


def _ref_mul(a, b):
    ca, cb, order = _ref_pair(a, b)
    conv = [Fraction(0)] * (len(ca) + len(cb) - 1)
    for i, ci in enumerate(ca):
        if ci:
            for j, cj in enumerate(cb):
                if cj:
                    conv[i + j] += ci * cj
    return _ref_reduce(order, conv)


def _ref_add(a, b):
    ca, cb, order = _ref_pair(a, b)
    return order, tuple(x + y for x, y in zip(ca, cb))


def _ref_conjugate(a):
    m, coeffs = a
    work = [Fraction(0)] * m
    for j, c in enumerate(coeffs):
        work[-j % m] += c
    return _ref_reduce(m, work)


def _ref_dict(a):
    return {"m": a[0], "coeffs": [str(c) for c in a[1]]}


def _random_coeffs(rng, n, density):
    return [
        Fraction(rng.randrange(-20, 21), rng.choice((1, 1, 2, 3, 8, 25)))
        if rng.random() < density
        else Fraction(0)
        for _ in range(n)
    ]


@pytest.mark.parametrize(
    "ma, mb", [(1, 1), (2, 2), (7, 7), (31, 31), (120, 120), (336, 336), (5, 24)]
)
def test_matches_fraction_reference(ma, mb):
    rng = random.Random(ma * 1000 + mb)
    for _ in range(4 if ma == 336 else 12):
        density = rng.choice((0.1, 0.5, 1.0))
        # Unreduced inputs (up to two full periods) exercise the constructor too.
        ca = _random_coeffs(rng, rng.randrange(1, 2 * ma + 1), density)
        cb = _random_coeffs(rng, rng.randrange(1, 2 * mb + 1), density)
        a, b = CycloNumber(ma, ca), CycloNumber(mb, cb)
        ra, rb = _ref_reduce(ma, ca), _ref_reduce(mb, cb)
        assert a.to_dict() == _ref_dict(ra) and b.to_dict() == _ref_dict(rb)
        assert (a * b).to_dict() == _ref_dict(_ref_mul(ra, rb))
        assert (b * a).to_dict() == _ref_dict(_ref_mul(rb, ra))
        assert (a * a).to_dict() == _ref_dict(_ref_mul(ra, ra))
        assert (a + b).to_dict() == _ref_dict(_ref_add(ra, rb))
        assert a.conjugate().to_dict() == _ref_dict(_ref_conjugate(ra))
        assert b.conjugate().to_dict() == _ref_dict(_ref_conjugate(rb))
        order = lcm(ma, mb) * rng.choice((1, 2, 3))
        assert a.promote(order).to_dict() == _ref_dict(_ref_promote(ra, order))
        j = rng.randrange(mb)
        rz = _ref_reduce(mb, [0] * j + [1])
        assert (a * root_of_unity(mb, j)).to_dict() == _ref_dict(_ref_mul(ra, rz))


# -- ring laws against the complex embedding ---------------------------------

EMBED_TOL = 1e-9
ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 24)


@st.composite
def cyclo_numbers(draw):
    m = draw(st.sampled_from(ORDERS))
    coeffs = [Fraction(0)] * m
    for _ in range(draw(st.integers(0, 4))):
        j = draw(st.integers(0, m - 1))
        coeffs[j] += Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    return CycloNumber(m, coeffs)


def _close(x, y):
    return abs(x - y) <= EMBED_TOL * max(1.0, abs(y))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers())
def test_ring_laws_property(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and (a - a).is_zero() and (a * 0).is_zero()
    ea, eb, ec = a.embed(), b.embed(), c.embed()
    assert _close((a + b).embed(), ea + eb)
    assert _close((a * b).embed(), ea * eb)
    assert _close(((a * b) * c).embed(), ea * eb * ec)
    assert _close((a * (b + c)).embed(), ea * (eb + ec))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cyclo_numbers(), cyclo_numbers())
def test_conjugation_involution_property(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert _close(a.conjugate().embed(), a.embed().conjugate())
    assert _close((a * a.conjugate()).embed(), abs(a.embed()) ** 2)


# -- the summation kernel against the left fold it replaces ------------------

# 1, primes p, orders q^r - 1 (8 = 3^2 - 1, 7 = 2^3 - 1, 24 = 5^2 - 1, 15 = 4^2 - 1)
# and their lcms.
DOT_ORDERS = (1, 2, 3, 5, 7, 8, 15, 24, 40, 120)


@st.composite
def dot_factors(draw):
    m = draw(st.sampled_from(DOT_ORDERS))
    if draw(st.integers(0, 4)) == 0:
        return CycloNumber(m, [])  # zero, still of order m
    coeffs = [Fraction(0)] * m
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.integers(0, m - 1))
        coeffs[j] += Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    return CycloNumber(m, coeffs)


@st.composite
def dot_terms(draw):
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from(DOT_ORDERS))
        b = draw(st.none() | dot_factors())
        terms.append(((n, draw(st.integers(-2 * n, 2 * n))), draw(dot_factors()), b))
    if draw(st.booleans()):  # every term twice, once negated: the sum cancels to 0
        terms = draw(st.permutations(terms + [(w, -a, b) for w, a, b in terms]))
    return terms


def _left_fold(terms, conjugate):
    acc = zero()
    for (n, k), a, b in terms:
        term = a if b is None else a * (b.conjugate() if conjugate else b)
        if not term.is_zero():
            acc = acc + root_of_unity(n, k) * term
    return acc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dot_terms(), st.booleans())
def test_dot_matches_left_fold(terms, conjugate):
    assert dot(terms, conjugate).to_dict() == _left_fold(terms, conjugate).to_dict()


def test_dot_order_rules():
    assert dot([]).to_dict() == {"m": 1, "coeffs": ["0"]}
    z24, z5 = root_of_unity(24, 5), root_of_unity(5, 2)
    # a zero factor adds nothing, not even its order
    assert dot([((5, 1), CycloNumber(120, []), z24), (UNIT, z24, None)]).m == 24
    assert dot([(UNIT, z24, CycloNumber(7, []))], conjugate=True).m == 1
    # cancellation keeps the lcm of the orders of the cancelled terms
    cancelled = dot([((5, 1), z24, None), ((5, 1), -z24, None)])
    assert cancelled.is_zero() and cancelled.to_dict() == {"m": 120, "coeffs": ["0"] * 32}
    assert dot([((3, 0), z5, z24), ((1, 0), z5, -z24)]).m == 120


def test_dot_psi_at_trace_zero():
    F = build_field(2, 2)
    psi = AdditiveChar(F, 0)
    x = next(x for x in range(F.q - 1) if F.trace_to_prime(x) == 0)
    assert psi.root(x) == (2, 0) and psi.root(ZERO) == (1, 0)
    value = dot([(psi.root(x), one(), None)])
    assert value.to_dict() == psi.eval(x).to_dict() == {"m": 2, "coeffs": ["1"]}
    assert dot([(psi.root(ZERO), one(), None)]).m == 1


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = [True] * n
    for p in range(2, n):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    return [p for p in range(2, n) if sieve[p]]


def test_prime_factors_match_a_sieve():
    """The distinct primes of n, ascending, for every n below 5000; none for n < 2."""
    primes = _primes_below(5000)
    for n in range(2, 5000):
        assert cyclo._prime_factors(n) == [p for p in primes if n % p == 0]
    for n in (1, 0, -1, -2, -12, -4999):
        assert cyclo._prime_factors(n) == []


def test_exact_log_matches_powers():
    """_exact_log(value, base) is the k with base**k == value, else None, for
    bases 2..64 at the powers, their neighbours and every value up to 300."""
    for base in range(2, 65):
        values = set(range(-2, 301))
        for k in range(40):
            values |= {base**k - 1, base**k, base**k + 1}
        for value in values:
            expect = next((k for k in range(value.bit_length() + 1) if base**k == value), None)
            assert cyclo._exact_log(value, base) == expect

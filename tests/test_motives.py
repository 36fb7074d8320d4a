import random
from fractions import Fraction
from math import comb

import pytest

from motivic_cc.lpoly import RING_L, RING_UV
from motivic_cc.series import TSeries
from motivic_cc.lambda_power import euler_exp, euler_log, power
from motivic_cc.motives import (
    L, L_HALF, U, V, Y, Y_HALF, UnsupportedRangeError,
    config_space_series, hilb_motive_series,
    kapranov_zeta, l_binomial, macmahon_series, map_series,
    proj_space_class, punctual_exponents_small, punctual_hilb_small,
    spec_chi, spec_chi_minus_y, spec_e,
    virtual_alpha, virtual_exponents,
    virtual_hilb_series,
)
from helpers import exps, random_lpoly


def gauss_binomial_recurrence(n, k):
    """Independent oracle: Pascal-type recurrence [n;k] = [n-1;k-1] + L^k [n-1;k]."""
    if k in (0, n):
        return RING_L.one
    return gauss_binomial_recurrence(n - 1, k - 1) + L ** k * gauss_binomial_recurrence(n - 1, k)


def test_l_binomial_examples():
    assert l_binomial(5, 0) == 1
    assert l_binomial(2, 1) == 1 + L
    assert l_binomial(3, 2) == 1 + L + L ** 2
    assert l_binomial(4, 2) == 1 + L + 2 * L ** 2 + L ** 3 + L ** 4


def test_l_binomial_matches_recurrence_oracle():
    for n in range(7):
        for k in range(n + 1):
            assert l_binomial(n, k) == gauss_binomial_recurrence(n, k)


def test_punctual_series_small():
    assert punctual_hilb_small(1).coeffs == (RING_L.one,) * 4
    assert punctual_hilb_small(2).coeffs == \
        (RING_L.one, RING_L.one, 1 + L, 1 + L + L ** 2)
    # the t^3 coefficient of the d=3 series comes out of exact division
    assert punctual_hilb_small(3).coeffs[3] == l_binomial(4, 2)
    with pytest.raises(UnsupportedRangeError):
        hilb_motive_series(1, 4, 5)


def test_punctual_exponents():
    assert punctual_exponents_small(1).coeffs[1:] == (RING_L.one, RING_L.zero, RING_L.zero)
    assert punctual_exponents_small(2).coeffs[1:] == (RING_L.one, L, L ** 2)
    a1, a2, a3 = punctual_exponents_small(3).coeffs[1:]
    assert (a1, a2) == (RING_L.one, L + L ** 2)
    assert a3 == L ** 2 + L ** 3 + L ** 4
    # d = 4 closed forms survive the internal two-route check as well
    punctual_exponents_small(4)


def test_chi_of_punctual_exponents_is_k_for_threefolds():
    for k, a in enumerate(punctual_exponents_small(3).coeffs[1:], start=1):
        assert spec_chi(a) == k


def test_surface_two_route():
    s = hilb_motive_series(1, 2, 3)
    assert s == punctual_hilb_small(2)
    assert s.coeffs[2] == 1 + L
    assert s.coeffs[3] == 1 + L + L ** 2


def test_hilb_series_point_is_punctual():
    one = RING_L.coerce(1)
    for d in (1, 2, 3):
        assert hilb_motive_series(one, d, 3) == punctual_hilb_small(d)


def test_hilb_series_unknown_range():
    with pytest.raises(UnsupportedRangeError):
        hilb_motive_series(proj_space_class(3), 3, 4)


def test_hilb_series_curve_is_symmetric_products():
    # Hilbert schemes of a curve are its symmetric products
    s = hilb_motive_series(proj_space_class(1), 1, 6)
    for n in range(7):
        assert s.coeffs[n] == proj_space_class(n)


def test_hilb_series_curve_collapse_vs_kapranov():
    rng = random.Random(9)
    for _ in range(10):
        x = random_lpoly(rng, RING_L, max_deg=2, terms=3)
        s = map_series(hilb_motive_series(x, 1, 6), "e")
        z = kapranov_zeta(spec_e(x), 6)
        assert s == z


def test_hilb_series_surface_vs_euler_product():
    x = proj_space_class(2)
    s = hilb_motive_series(x, 2, 3)
    b = exps(RING_L, tuple(L ** (k - 1) * x for k in (1, 2, 3)))
    assert s == euler_exp(b)


def test_kapranov_zeta_p1():
    z = kapranov_zeta(1 + U * V, 3)
    assert z.coeffs[2] == 1 + U * V + (U * V) ** 2
    assert kapranov_zeta(RING_UV.coerce(1), 4) == TSeries(RING_UV, [RING_UV.one] * 5)
    assert kapranov_zeta(RING_UV.coerce(0), 4) == TSeries.one(RING_UV, 4)


def test_config_space_series():
    s = config_space_series(proj_space_class(1), 4)
    assert s.coeffs[0] == RING_L.one
    assert s.coeffs[1] == 1 + L
    assert s.coeffs[2] == L ** 2


def test_config_chi_binomial():
    for d in range(4):
        x = proj_space_class(d)
        chi = d + 1
        s = map_series(config_space_series(x, 6), "chi")
        assert s.coeffs == tuple(Fraction(comb(chi, n)) for n in range(7))


def test_specializations():
    assert spec_e(L) == U * V
    assert spec_chi_minus_y(L) == Y
    assert spec_chi_minus_y(-L_HALF) == Y_HALF
    for k in range(1, 5):
        assert spec_chi_minus_y(L ** (k - 1)) == Y ** (k - 1)
    assert spec_chi(L) == 1
    assert spec_chi(L_HALF) == -1


def test_specializations_are_ring_homs():
    rng = random.Random(10)
    for _ in range(50):
        a = random_lpoly(rng, RING_L, max_deg=3, laurent=True, halves=True)
        b = random_lpoly(rng, RING_L, max_deg=3, laurent=True, halves=True)
        assert spec_chi_minus_y(a * b) == spec_chi_minus_y(a) * spec_chi_minus_y(b)
        assert spec_chi_minus_y(a + b) == spec_chi_minus_y(a) + spec_chi_minus_y(b)
        assert spec_chi(a * b) == spec_chi(a) * spec_chi(b)
        ai = random_lpoly(rng, RING_L, max_deg=3)
        bi = random_lpoly(rng, RING_L, max_deg=3)
        assert spec_e(ai * bi) == spec_e(ai) * spec_e(bi)


def test_specialization_respects_power_structure():
    # pre-lambda ring homomorphisms respect the power structure
    rng = random.Random(12)
    for _ in range(10):
        coeffs = [RING_L.one] + [random_lpoly(rng, RING_L, max_deg=2, terms=2)
                                 for _ in range(5)]
        a = TSeries(RING_L, coeffs)
        m = random_lpoly(rng, RING_L, max_deg=2, terms=2)
        lhs = map_series(power(a, m), "chi-y")
        rhs = power(map_series(a, "chi-y"), spec_chi_minus_y(m))
        assert lhs == rhs


def test_specializations_commute_with_the_euler_maps():
    """chi_{-y}, chi and, on integral powers of L, e commute with euler_exp and euler_log: the
    class scalars are the specialized punctual exponents because of this.  The exponents are
    Laurent, with half powers of L and coefficients of both signs."""
    rng = random.Random(27)
    for _ in range(30):
        n = rng.randint(1, 8)
        for halves, specs in ((True, ("chi-y", "chi")), (False, ("chi-y", "chi", "e"))):
            b = exps(RING_L, [random_lpoly(rng, RING_L, max_deg=2, terms=3, laurent=True,
                                           halves=halves) for _ in range(n)])
            a = euler_exp(b)
            for which in specs:
                b_spec = map_series(b, which)
                assert map_series(a, which) == euler_exp(b_spec), (which, b)
                assert euler_log(map_series(a, which)) == b_spec, which


def test_virtual_alpha():
    assert virtual_alpha(1) == -(L_HALF ** (-3))
    assert virtual_alpha(2) == L ** (-2) * (1 + L)
    for k in range(1, 7):
        assert spec_chi(virtual_alpha(k)) == k


def test_virtual_punctual_series():
    s = virtual_hilb_series(1, 4)
    assert s.coeffs[1] == L_HALF ** (-3)
    # flipping t back recovers the Euler product of the virtual exponents
    assert s.subst(1, -1) == euler_exp(virtual_exponents(4))
    # round trip through the generic decomposition
    assert euler_exp(euler_log(s)) == s


def test_virtual_hilb_point():
    # the point as a class of the ring gives the punctual series, and a lower
    # order is its truncation
    one = RING_L.coerce(1)
    s = virtual_hilb_series(one, 4)
    assert s == virtual_hilb_series(1, 4)
    assert virtual_hilb_series(one, 2).coeffs == s.coeffs[:3]


def test_motive_series_match_the_power_structure_route():
    """One exponential of the scaled exponents against power(), which takes the Euler
    log of the assembled series again, on random L-classes."""
    rng = random.Random(15)
    for n in range(7):
        for _ in range(4):
            x = random_lpoly(rng, RING_L, max_deg=2, terms=3, laurent=True, halves=True,
                             denom_bound=3)
            for d in (1, 2, 3, 4) if n <= 3 else (1, 2):
                assert hilb_motive_series(x, d, n) == \
                    power(hilb_motive_series(1, d, n), x), (x, d, n)
            assert virtual_hilb_series(x, n) == \
                power(euler_exp(virtual_exponents(n)), x).subst(1, -1), (x, n)


def test_virtual_hilb_euler_specialization_is_macmahon():
    # chi of the virtual Hilbert series, read against (-t)^n, is M(t)^chi(X):
    # the degree-zero count in which all the half-power conventions cancel
    for d in (0, 1, 2, 3):
        x = proj_space_class(d)
        chi = d + 1
        got = map_series(virtual_hilb_series(x, 6), "chi")
        assert got == macmahon_series(6, chi).subst(1, -1)


def test_macmahon_fixture():
    # frozen regression fixture, generated once by the Euler-product oracle
    m = macmahon_series(8)
    assert m.coeffs == tuple(Fraction(c) for c in (1, 1, 3, 6, 13, 24, 48, 86, 160))
    assert euler_log(m).coeffs[1:] == tuple(Fraction(k) for k in range(1, 9))

import random
from fractions import Fraction
from math import comb

import pytest

from motivic_cc.lpoly import LPoly, QQ, RING_L, RING_UV, RING_Y
from motivic_cc.series import TSeries, NonUnitError
from motivic_cc.lambda_power import euler_exp, euler_log, power, pre_lambda_polyring
from motivic_cc.checks import pre_lambda
from helpers import (
    euler_log_bruteforce, exps, mobius, random_lpoly, random_series, ref_euler_exp, ref_euler_log,
)

L = LPoly.var(RING_L, "L")
Y = LPoly.var(RING_Y, "y")
U = LPoly.var(RING_UV, "u")
V = LPoly.var(RING_UV, "v")


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_pre_lambda_examples():
    assert pre_lambda(QQ, 1, 6) == TSeries(QQ, [1] * 7)
    assert pre_lambda(QQ, 0, 6) == TSeries.one(QQ, 6)
    # lambda_t(y) = (1 - y t)^(-1), checked by multiplying back
    lam = pre_lambda(RING_Y, Y, 6)
    assert lam == TSeries(RING_Y, [Y ** n for n in range(7)])
    one_minus_yt = TSeries.from_terms(RING_Y, 6, {0: 1, 1: -Y})
    assert lam * one_minus_yt == TSeries.one(RING_Y, 6)


def test_euler_exp_examples():
    assert euler_exp(exps(QQ, (1, 0, 0, 0))) == TSeries(QQ, [1] * 5)
    assert euler_exp(exps(QQ, (1, -1, 0, 0))) == TSeries.from_terms(QQ, 4, {0: 1, 1: 1})
    b = exps(RING_L, tuple(L ** k for k in range(3)))
    s = euler_exp(b)
    assert s.coeffs == (RING_L.one, RING_L.one, 1 + L, 1 + L + L ** 2)


def test_euler_log_examples():
    geo = TSeries(QQ, [1] * 7)
    assert euler_log(geo).coeffs[1:] == (Fraction(1),) + (Fraction(0),) * 5
    one_plus = TSeries.from_terms(QQ, 5, {0: 1, 1: 1})
    assert euler_log(one_plus).coeffs[1:] == (1, -1, 0, 0, 0)
    # surface punctual series decomposes to alpha_k = L^(k-1)
    b = exps(RING_L, tuple(L ** k for k in range(3)))
    assert euler_log(euler_exp(b)) == b


def test_euler_log_matches_bruteforce_oracle():
    # design obligation: validate the peeled Euler log against the degree-by-degree
    # divide-out oracle before relying on it
    rng = random.Random(42)
    for _ in range(100):
        a = random_series(rng, RING_Y, 8, normalized=True)
        assert euler_log(a).coeffs[1:] == euler_log_bruteforce(a).coeffs[1:]


def test_euler_roundtrips_random():
    rng = random.Random(43)
    for _ in range(100):
        b = exps(RING_Y, tuple(random_lpoly(rng, RING_Y, max_deg=3, terms=3)
                               for _ in range(8)))
        assert euler_log(euler_exp(b)) == b
        a = random_series(rng, RING_Y, 8, normalized=True)
        assert euler_exp(euler_log(a)) == a


def test_euler_exp_refuses_a_constant_exponent():
    """The exponents start at t^1: a nonzero b_0 raises, as ``TSeries.exp`` does for a nonzero
    constant term, instead of being dropped."""
    for b in (TSeries.from_terms(QQ, 3, {0: 1, 1: 1}), TSeries(RING_L, [L])):
        with pytest.raises(NonUnitError, match="^Euler exponents need zero constant term, got"):
            euler_exp(b)


def test_euler_maps_raise_on_every_call_and_match_references():
    """An input that raises raises on every call, also after a call that returned rational
    exponents; on integral and rational inputs over every ring both maps equal the
    reference routes, Moebius inversion for the log."""
    bad = TSeries.from_terms(QQ, 3, {0: 1, 1: Fraction(1, 2)})
    for _ in range(3):
        with pytest.raises(NonUnitError):
            euler_log(bad * 2)
        assert euler_log(bad).coeffs[1:] == ref_euler_log(bad)
    rng = random.Random(46)
    for _ in range(20):
        a = random_series(rng, RING_Y, 6, normalized=True, halves=True, denom_bound=3)
        b = exps(RING_Y, [random_lpoly(rng, RING_Y, max_deg=3, terms=3, halves=True)
                          for _ in range(6)])
        assert euler_log(a).coeffs[1:] == ref_euler_log(a)
        assert euler_exp(b) == ref_euler_exp(b, 6)
    # every ring through t^12, so composite indices 4, 6, 8, 9 and 12 meet Psi_2 and Psi_3;
    # over L, Laurent and half exponents: Psi_2 flips the sign of the negative root's odd powers
    for ring, kw in ((RING_L, dict(laurent=True, halves=True)), (RING_UV, {}), (QQ, {})):
        for denom_bound in (1, 3):  # integral, then rational coefficients
            for n in (8, 12):
                a = random_series(rng, ring, n, normalized=True, denom_bound=denom_bound, **kw)
                b = exps(ring, [random_lpoly(rng, ring, max_deg=2, terms=2,
                                             denom_bound=denom_bound, **kw)
                                for _ in range(n)])
                assert euler_log(a).coeffs[1:] == ref_euler_log(a)
                assert euler_exp(b) == ref_euler_exp(b, n)


def test_power_examples():
    one_plus = TSeries.from_terms(QQ, 6, {0: 1, 1: 1})
    assert power(one_plus, 1) == one_plus
    a = random_series(random.Random(3), RING_Y, 6, normalized=True)
    assert power(a, 0) == TSeries.one(RING_Y, 6)


def test_power_binomial():
    one_plus = TSeries.from_terms(QQ, 8, {0: 1, 1: 1})
    for m in range(0, 7):
        expected = TSeries(QQ, [comb(m, n) for n in range(9)])
        assert power(one_plus, m) == expected


def test_power_structure_axioms():
    # Def of a power structure, checked on random data over Z[y], N = 6
    rng = random.Random(44)
    ring = RING_Y
    for _ in range(25):
        a = random_series(rng, ring, 6, normalized=True)
        b = random_series(rng, ring, 6, normalized=True)
        m = random_lpoly(rng, RING_Y, max_deg=2, terms=2)
        n = random_lpoly(rng, RING_Y, max_deg=2, terms=2)
        one = TSeries.one(ring, 6)
        assert power(a, ring.zero) == one                           # (i)
        assert power(a, ring.one) == a                              # (ii)
        assert power(a * b, m) == power(a, m) * power(b, m)         # (iii)
        assert power(a, m + n) == power(a, m) * power(a, n)         # (iv)
        assert power(a, m * n) == power(power(a, n), m)             # (v)
        k = rng.randint(1, 3)
        assert power(a.subst(k), m) == power(a, m).subst(k)         # (vii)
    # (vi): (1+t)^m = 1 + m t + O(t^2)
    one_plus = TSeries.from_terms(ring, 6, {0: 1, 1: 1})
    m = 2 + 3 * Y
    s = power(one_plus, m)
    assert s.coeffs[0] == ring.one and s.coeffs[1] == m


def test_pre_lambda_polyring_examples():
    # p = 1 + uv: two-factor product 1/((1-t)(1-uvt))
    s = pre_lambda_polyring(1 + U * V, 4)
    geo1 = TSeries(RING_UV, [RING_UV.one] * 5)
    geo2 = TSeries(RING_UV, [(U * V) ** n for n in range(5)])
    assert s == geo1 * geo2
    assert pre_lambda_polyring(RING_UV.coerce(0), 4) == TSeries.one(RING_UV, 4)
    assert pre_lambda_polyring(RING_UV.coerce(2), 4) == geo1 * geo1


def test_pre_lambda_polyring_matches_adams_route():
    """Over Z[u,v], and over Q[L] with Laurent and half-integer powers, where an odd power
    of the root -L^(1/2) flips the sign of the even Adams operations."""
    rng = random.Random(45)
    for ring, kw in ((RING_UV, {}), (RING_L, {"laurent": True, "halves": True})):
        for _ in range(50):
            p = random_lpoly(rng, ring, max_deg=3, terms=3, **kw)
            n = rng.randint(1, 6)
            assert pre_lambda_polyring(p, n) == pre_lambda(ring, p, n), p
    root = LPoly.var(RING_L, "L", 1)  # L^(1/2): lambda_t(L^(1/2)) = 1 + L^(1/2) t
    for p in (root, -root + L, 2 * root ** -3 - root ** 5):
        assert pre_lambda_polyring(p, 4) == pre_lambda(RING_L, p, 4), p
    assert pre_lambda_polyring(root, 3) == TSeries(RING_L, [1, root, 0, 0])


def test_pre_lambda_polyring_factor_coefficients_match_adams_route():
    # (1 - w t)^(-a) has the coefficients C(a+n-1, n) w^n; for a < 0 they stop at n = |a|
    for a in (1, -1, 7, -7, 10 ** 6, -10 ** 6):
        for b in (1, -7, 10 ** 6):
            p = a * U * V ** 2 + b * U ** 3 + (a - b)
            for n in (1, 5, 8):
                assert pre_lambda_polyring(p, n) == pre_lambda(RING_UV, p, n)
    assert pre_lambda_polyring(-7 * U, 8).coeffs == \
        tuple((-1) ** n * comb(7, n) * U ** n for n in range(9))


def test_pre_lambda_polyring_takes_no_power_or_inverse(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a geometric series was powered or inverted")

    monkeypatch.setattr(TSeries, "pow_int", forbidden)
    monkeypatch.setattr(TSeries, "invert", forbidden)
    for p in (-3 + U * V - 2 * V, 2 * U - V ** 2, RING_UV.coerce(-1)):
        assert pre_lambda_polyring(p, 6) == pre_lambda(RING_UV, p, 6)

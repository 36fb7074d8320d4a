"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line once its assertions hold, so running
``pytest -s tests/test_acceptance.py`` gives a one-line-per-criterion log.
"""

from fractions import Fraction
from math import comb

from motivic_cc.lpoly import LPoly, QQ, RING_L, RING_Y
from motivic_cc.series import TSeries
from motivic_cc.lambda_power import euler_exp, euler_log
from motivic_cc.motives import (
    L, U, V, Y, alpha_closed_small, kapranov_zeta, l_binomial, macmahon_series,
    map_series, proj_space_class, punctual_hilb_small, spec_chi,
    virtual_alpha, hilb_motive_series,
    config_space_series,
)
from motivic_cc.hirzebruch import chern_class_of, proj_space_model
from motivic_cc.pontrjagin import class_exponents
from motivic_cc.checks import (
    kind_series, mt2_series, normalized_y1_limit, pont_degree, qyhat_series, run_suite,
    subst_neg_t,
)
from helpers import euler_log_bruteforce, exps

from test_hirzebruch import coth_oracle, eval_at_y, todd_oracle
from test_pontrjagin import aluffi_reference, reference_product, virtual_euler_log_scalars


def ok(n, text):
    print(f"ACCEPTANCE {n:2d}: {text} PASS")


def test_criterion_01_eq9_exponents():
    for d in (1, 2, 3, 4):
        got = euler_log(punctual_hilb_small(d)).coeffs[1:]
        a1 = RING_L.one
        a2 = (L ** d - 1).exact_div(L - 1) - 1
        a3 = ((L ** (d + 1) - 1) * (L ** d - 1)).exact_div((L ** 2 - 1) * (L - 1)) \
            - (L ** d - 1).exact_div(L - 1)
        assert got == (a1, a2, a3), f"d={d}"
    assert euler_log(punctual_hilb_small(1)).coeffs[2:] == (RING_L.zero, RING_L.zero)
    assert euler_log(punctual_hilb_small(2)).coeffs[1:] == (RING_L.one, L, L ** 2)
    ok(1, "Euler-log of the punctual series matches the closed-form exponents, d = 1..4;")


def test_criterion_02_surface_two_route():
    lhs = euler_exp(exps(RING_L, (RING_L.one, L, L ** 2)))
    rhs = TSeries(RING_L, [RING_L.one, RING_L.one, 1 + L, 1 + L + L ** 2])
    assert lhs == rhs
    assert rhs == punctual_hilb_small(2)
    assert rhs.coeffs[2] == l_binomial(2, 1) and rhs.coeffs[3] == l_binomial(3, 2)
    ok(2, "surface Euler product equals the lambda-binomial punctual series;")


def test_criterion_03_chi_exponents():
    for k, a in enumerate(alpha_closed_small(3), start=1):
        assert spec_chi(a) == k
    for k in range(1, 7):
        assert spec_chi(virtual_alpha(k)) == k
    ok(3, "chi(alpha_k) = k for threefolds (k <= 3) and chi(virtual alpha_k) = k (k <= 6);")


def test_criterion_04_macmahon_degree():
    m = macmahon_series(8)
    # independently generated fixture (euler_exp oracle at order 8, audited once)
    assert m.coeffs == tuple(Fraction(c) for c in (1, 1, 3, 6, 13, 24, 48, 86, 160))
    aluffi = kind_series(proj_space_model(0), "aluffi", 3, 8)
    deg = pont_degree(proj_space_model(0), aluffi)
    assert deg.subst(1, -1) == m
    ok(4, "point-level Aluffi degree series with the (-t)^n convention is M(t) (fixture 1,1,3,6,13);")


def test_criterion_05_kapranov_p1():
    z = kapranov_zeta(1 + U * V, 2)
    assert z.coeffs[2] == 1 + U * V + (U * V) ** 2
    ok(5, "t^2 of the P^1 zeta function equals e(P^2) = 1 + uv + u^2v^2;")


def test_criterion_06_hirzebruch_p1_and_degrees():
    p1 = proj_space_model(1)
    assert p1.ty == {"P1": RING_Y.one - Y, "P0": RING_Y.one + Y}
    for d in range(5):
        m = proj_space_model(d)
        expected = LPoly(RING_Y, {(2 * i,): 1 for i in range(d + 1)})
        assert m.degree_of(m.ty) == expected
    ok(6, "T_{(-y)*}(P^1) = (1-y)[P^1] + (1+y)[P^0]; degrees are 1 + y + ... + y^d, d <= 4;")


def test_criterion_07_qhat_specializations():
    qh = qyhat_series(8)
    assert eval_at_y(qh, Fraction(-1)) == TSeries.from_terms(QQ, 8, {0: 1, 1: 1})
    assert eval_at_y(qh, Fraction(0)) == todd_oracle(8)
    assert eval_at_y(qh, Fraction(1)) == coth_oracle(8, half=False)
    ok(7, "Qhat_y at y = -1, 0, 1 equals 1+a, the Todd series, a*coth(a) through a^8;")


def test_criterion_08_chern_limit():
    for d in (1, 2, 3):
        m = proj_space_model(d)
        for r in (1, 2, 3, 4):
            got = chern_class_of(m, r)
            expected = {f"P{d - j}": Fraction(comb(d + 1, j)) for j in range(d + 1)}
            assert got == expected, f"P{d}, r={r}"
    ok(8, "the y->1 normalization limit returns c_*(P^d) from (1+h)^(d+1), every r <= 4;")


def test_criterion_09_thm1_degree_cross_check():
    p2 = proj_space_model(2)
    lhs = pont_degree(p2, kind_series(p2, "hilb", 2, 3))
    rhs = map_series(hilb_motive_series(proj_space_class(2), 2, 3), "chi-y")
    assert lhs == rhs
    p1 = proj_space_model(1)
    lhs = pont_degree(p1, kind_series(p1, "hilb", 1, 6))
    rhs = map_series(hilb_motive_series(proj_space_class(1), 1, 6), "chi-y")
    assert lhs == rhs
    ok(9, "Hilbert-scheme class degrees match the motivic genus series (P^2 N=3, P^1 N=6);")


def test_criterion_10_config_coherence():
    p1 = proj_space_model(1)
    one_plus = TSeries.from_terms(RING_L, 4, {0: 1, 1: 1})
    assert kind_series(p1, "config", None, 4) == mt2_series(p1, one_plus, 4)
    deg = pont_degree(p1, kind_series(p1, "config", None, 4))
    assert deg.coeffs[2] == Y ** 2
    assert deg == map_series(config_space_series(proj_space_class(1), 4), "chi-y")
    ok(10, "configuration-space class series equals the exponentiation route; P^1 degree t^2 = y^2;")


def test_criterion_11_virtual_two_route_and_sign():
    p3 = proj_space_model(3)
    scalars = virtual_euler_log_scalars(3)
    assert scalars == class_exponents("virtual", 3, 3)
    t_form = kind_series(p3, "virtual", 3, 3)
    assert subst_neg_t(t_form) == reference_product(p3, p3.ty, scalars, 3)
    assert subst_neg_t(kind_series(p3, "aluffi", 3, 4)) == aluffi_reference(p3, 4)
    assert normalized_y1_limit(t_form) == kind_series(p3, "aluffi", 3, 3)
    ok(11, "virtual class series two-route equality on P^3 (t^3); Aluffi series at -t vs "
           "the hom_exp_inv Chern product (t^4); y -> 1 limit of the virtual classes is the "
           "Aluffi series (t^3);")


def test_criterion_12_property_suites():
    results = run_suite("all", 8, 0)
    bad = [r for r in results if r["status"] != "ok"]
    assert not bad, bad
    assert len(results) >= 30
    # the Euler log is additionally pinned to the brute-force oracle
    import random
    from helpers import random_series
    rng = random.Random(1234)
    for _ in range(20):
        a = random_series(rng, RING_Y, 8, normalized=True)
        assert euler_log(a).coeffs[1:] == euler_log_bruteforce(a).coeffs[1:]
    ok(12, "all randomized property suites pass (seeded, >= 100 instances each family);")

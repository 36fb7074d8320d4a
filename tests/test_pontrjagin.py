import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest

from motivic_cc.lpoly import LPoly, VarSet, QQ, RING_L, RING_UV, RING_Y
from motivic_cc.series import TSeries
from motivic_cc.lambda_power import euler_log
from motivic_cc.motives import (
    Y, alpha_closed_small, chi_of_y, macmahon_series, map_series, proj_space_class, spec_chi,
    hilb_motive_series, config_space_series, spec_chi_minus_y, virtual_alpha,
    virtual_hilb_series, UnsupportedRangeError,
)
from motivic_cc.hirzebruch import (
    adams_h, chern_class_of, product_model, proj_space_model,
)
from motivic_cc.pontrjagin import KINDS, class_exponents, class_terms, exp_terms, log_atoms
from motivic_cc.checks import (
    PontElement, PontSeries, d_push, hom_exp_inv, hom_exponentiation, kind_series, mt2_series,
    normalized_y1_limit, pont_degree, pont_exp, power_op, pre_lambda,
    subst_neg_t, y1_limit_atoms,
)
from motivic_cc.cli import builtin_model, model_from_doc
from helpers import (
    exp_series, exps, random_hclass, random_lpoly, random_series,
    ref_exp_series, ref_pont_exp,
)
from reports import load_bench_cases

POINT = proj_space_model(0)
P1 = proj_space_model(1)
P2 = proj_space_model(2)
P3 = proj_space_model(3)
# non-proper, with half-integer powers of y and rational coefficients
GEN = model_from_doc(load_bench_cases().generate_model(5))


def embed(model, element: PontElement, order: int, ring=RING_Y) -> PontSeries:
    dicts = [dict() for _ in range(order + 1)]
    dicts[element.n] = dict(element.terms)
    return PontSeries(model, ring, dicts)


def random_pont(rng, model, order, ring=RING_Y) -> PontSeries:
    dicts = []
    for n in range(order + 1):
        d = {}
        for _ in range(rng.randint(0, 2)):
            if n == 0:
                ms = ()
            else:
                parts = []
                left = n
                while left > 0:
                    k = rng.randint(1, left)
                    parts.append((k, rng.choice(model.basis)[0]))
                    left -= k
                ms = tuple(sorted(parts))
            c = LPoly(RING_Y, {(2 * rng.randint(0, 2),): rng.randint(-3, 3)})
            if not c.is_zero():
                d[ms] = d.get(ms, RING_Y.zero) + c
        dicts.append(d)
    return PontSeries(model, ring, dicts)


def test_unit_law():
    rng = random.Random(0)
    a = random_pont(rng, P1, 5)
    assert PontSeries.unit(P1, RING_Y, 5) * a == a


def test_product_of_single_pushforwards():
    gamma = {"P1": RING_Y.one}
    delta = {"P0": RING_Y.one + Y}
    a = embed(P1, d_push(P1, 1, gamma), 3)
    b = embed(P1, d_push(P1, 1, delta), 3)
    prod = a * b
    assert prod.components[2].terms[(1, "P0"), (1, "P1")] == RING_Y.one + Y
    assert prod.components[1].terms == {}


def test_ring_laws_random():
    rng = random.Random(1)
    for _ in range(20):
        a = random_pont(rng, P1, 5)
        b = random_pont(rng, P1, 5)
        c = random_pont(rng, P1, 5)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_d_push():
    el = d_push(P1, 2, {"P1": RING_Y.one - Y, "P0": RING_Y.one + Y})
    assert el.terms == {((2, "P1"),): RING_Y.one - Y, ((2, "P0"),): RING_Y.one + Y}
    assert d_push(P1, 3, {}).terms == {}
    with pytest.raises(ValueError):
        d_push(P1, 0, {"P0": RING_Y.one})


def test_adams_h():
    gamma = {"P0": RING_Y.one + Y, "P1": RING_Y.one}
    assert adams_h(P1, 1, gamma) == gamma
    a2 = adams_h(P1, 2, gamma)
    assert a2["P0"] == RING_Y.one + Y ** 2
    assert a2["P1"] == RING_Y.one.scale(Fraction(1, 2))


def test_adams_h_refuses_twists_past_the_digit_limit():
    """1/r^k is refused where r^k over the smallest numerator passes 10^limit, before r^k
    is built; not at r = 1, not at the limit 0, and not where the numerator cancels it."""
    def model(k, c):
        return model_from_doc({
            "name": "deep", "dim": k, "proper": False, "basis": [{"id": "a", "deg": k}],
            "zeroDegreeBasisId": None, "ty_class": {"a": [{"yNum": 0, "c": str(c)}]},
            "e_poly": [{"u": 0, "v": 0, "c": 1}]})

    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        # 3^(10^7), refused by its bit length, has 4.8 million digits: small enough that a
        # regression which builds it fails here instead of exhausting memory
        for k, c, r in ((10 ** 7, 1, 3), (14290, 1, 2), (4300, 1, 10), (4301, 7, 10)):
            with pytest.raises(UnsupportedRangeError, match=f"basis class a has degree {k}: "
                               f"its Adams twist 1/{r}\\^{k} passes Python's 4300-digit"):
                adams_h(model(k, c), r, {"a": RING_Y.one * c})
        # 1024 / 2^14290 = 1 / 2^14280 (4,299 digits); 10^4299 has 4,300 digits
        assert adams_h(model(14290, 1024), 2, {"a": RING_Y.one * 1024}) == \
            {"a": RING_Y.one * Fraction(1, 2 ** 14280)}
        assert adams_h(model(4299, 1), 10, {"a": RING_Y.one})["a"].den == 10 ** 4299
        assert adams_h(model(10 ** 18, 1), 1, {"a": RING_Y.one}) == {"a": RING_Y.one}
        sys.set_int_max_str_digits(0)
        assert adams_h(model(20000, 1), 3, {"a": Y})["a"] == \
            (Y ** 3).scale(Fraction(1, 3 ** 20000))
    finally:
        sys.set_int_max_str_digits(limit)


def test_adams_h_screens_accept_by_bit_length():
    """k*bl(r) < 3*limit + bl(n) proves r^k < 8^limit n <= 10^limit n, so the twist is taken
    without building 10^limit; at and past that the exact comparison decides, both ways."""
    def twist(k, c, r):
        model = model_from_doc({
            "name": "deep", "dim": k, "proper": False, "basis": [{"id": "a", "deg": k}],
            "zeroDegreeBasisId": None, "ty_class": {"a": [{"yNum": 0, "c": str(c)}]},
            "e_poly": [{"u": 0, "v": 0, "c": 1}]})
        return adams_h(model, r, {"a": RING_Y.one * c})["a"]

    limit = sys.get_int_max_str_digits()
    low = sys.int_info.str_digits_check_threshold  # the smallest nonzero limit, 640
    try:
        sys.set_int_max_str_digits(low)
        # the last twists the screen accepts, k*bl(r) = 3*low + bl(n) - 1, and one degree
        # past them, where the exact comparison accepts
        for k, c, r in ((3 * low // 2, 1, 2), ((3 * low + 2) // 2, 5, 3)):
            assert k * r.bit_length() == 3 * low + c.bit_length() - 1
            assert twist(k, c, r) == RING_Y.one * Fraction(c, r ** k)
            assert twist(k + 1, c, r) == RING_Y.one * Fraction(c, r ** (k + 1))
        # and between the screens it refuses where r^k >= 10^limit n, a numerator cancelling
        for k, c, accepted in ((low - 1, 1, True), (low, 1, False),
                               (low + 1, 10, False), (low + 1, 11, True)):
            assert 4 * k >= 3 * low + c.bit_length() and 3 * k <= 4 * low + c.bit_length()
            if accepted:
                assert twist(k, c, 10) == RING_Y.one * Fraction(c, 10 ** k)
            else:
                with pytest.raises(UnsupportedRangeError, match=f"twist 1/10\\^{k} passes"):
                    twist(k, c, 10)
        # r = 1 twists nothing, however deep the class
        assert twist(10 ** 18, 3, 1) == RING_Y.one * 3
        # the limit 0 refuses nothing
        sys.set_int_max_str_digits(0)
        assert twist(5 * low, 1, 10).den == 10 ** (5 * low)
    finally:
        sys.set_int_max_str_digits(limit)


def test_power_op_on_atoms():
    rng = random.Random(2)
    gamma = random_hclass(rng, P1)
    for r in (1, 2, 3):
        for k in (1, 2):
            s = embed(P1, d_push(P1, r, gamma), 6)
            moved = power_op(k, s)
            expected = embed(P1, d_push(P1, r * k, gamma), 6)
            assert moved == expected


def pad(s: PontSeries, order: int) -> PontSeries:
    dicts = [dict(el.terms) for el in s.components]
    dicts += [dict() for _ in range(order - s.order)]
    return PontSeries(s.model, s.ring, dicts)


def test_power_op_is_ring_hom_and_composes():
    rng = random.Random(3)
    for _ in range(10):
        # low-order series padded so no truncation hides terms
        a = pad(random_pont(rng, P1, 2), 4)
        b = pad(random_pont(rng, P1, 2), 4)
        k = rng.randint(1, 3)
        assert power_op(k, a * b, order=12) == \
            power_op(k, a, order=12) * power_op(k, b, order=12)
        assert power_op(2, power_op(3, a, order=12), order=12) == \
            power_op(6, a, order=12)
        assert power_op(1, a) == a


@pytest.mark.parametrize("ring", [RING_Y, QQ], ids=str)
def test_pont_exp_matches_repeated_products(ring):
    """The one-pass graded recurrence of ``pont_exp`` against sum arg^m / m! built from
    Pontrjagin products, on arguments with terms in every grading 1..N and rational,
    half-integer-power coefficients; a nonzero constant component is refused."""
    rng = random.Random(str(ring))
    for order in range(7):
        for _ in range(4):
            dicts = [{}]
            for n in range(1, order + 1):
                d = {}
                while not d:
                    for _ in range(rng.randint(1, 3)):
                        parts, left = [], n
                        while left > 0:
                            k = rng.randint(1, left)
                            parts.append((k, rng.choice(P1.basis)[0]))
                            left -= k
                        c = random_lpoly(rng, ring, max_deg=2, terms=2, halves=True,
                                         denom_bound=3)
                        if c.num:
                            d[tuple(sorted(parts))] = c
                dicts.append(d)
            arg = PontSeries(P1, ring, dicts)
            assert pont_exp(arg) == ref_pont_exp(arg)
            with pytest.raises(ValueError, match="zero constant component"):
                pont_exp(PontSeries(P1, ring, [{(): ring.one}] + dicts[1:]))


def test_hom_exp_inv_zero_class():
    assert hom_exp_inv(P1, {}, 1, 4) == PontSeries.unit(P1, RING_Y, 4)


def test_hom_exp_inv_point_degree_is_geometric():
    for k in (1, 2):
        s = hom_exp_inv(POINT, {"P0": RING_Y.one}, k, 6)
        deg = pont_degree(POINT, s)
        expected = TSeries.from_terms(RING_Y, 6,
                                      {k * j: 1 for j in range(6 // k + 1)})
        assert deg == expected


def test_hom_exp_inv_p1_t2_degree():
    s = hom_exp_inv(P1, P1.ty, 1, 3)
    deg = pont_degree(P1, s)
    assert deg.coeffs[2] == RING_Y.one + Y + Y ** 2
    assert deg.coeffs[3] == RING_Y.one + Y + Y ** 2 + Y ** 3


def test_hom_exp_inv_additivity():
    rng = random.Random(4)
    for _ in range(10):
        g1 = random_hclass(rng, P1)
        g2 = random_hclass(rng, P1)
        total = dict(g1)
        for b, c in g2.items():
            total[b] = total.get(b, RING_Y.zero) + c
        k = rng.randint(1, 2)
        assert hom_exp_inv(P1, total, k, 5) == \
            hom_exp_inv(P1, g1, k, 5) * hom_exp_inv(P1, g2, k, 5)


def test_power_op_intertwines_hom_exp():
    rng = random.Random(5)
    for k in (2, 3):
        gamma = random_hclass(rng, P1)
        lhs = power_op(k, hom_exp_inv(P1, gamma, 1, 4), order=4 * k)
        rhs = hom_exp_inv(P1, gamma, k, 4 * k)
        assert lhs == rhs


def test_pont_degree_intertwines_pre_lambda():
    rng = random.Random(6)
    for _ in range(10):
        gamma = random_hclass(rng, P2)
        k = rng.randint(1, 3)
        lhs = pont_degree(P2, hom_exp_inv(P2, gamma, k, 6))
        eps = P2.degree_of(gamma)
        rhs = pre_lambda(RING_Y, eps, 6).subst(k)
        assert lhs == rhs


def test_pont_degree_is_ring_hom():
    rng = random.Random(7)
    for _ in range(10):
        a = random_pont(rng, P1, 4)
        b = random_pont(rng, P1, 4)
        assert pont_degree(P1, a * b) == pont_degree(P1, a) * pont_degree(P1, b)


def test_hom_exponentiation_geometric_collapse():
    rng = random.Random(8)
    gamma = random_hclass(rng, P1)
    geo = TSeries(RING_Y, [RING_Y.one] * 5)
    assert hom_exponentiation(P1, geo, gamma) == hom_exp_inv(P1, gamma, 1, 4)
    assert hom_exponentiation(P1, TSeries.one(RING_Y, 4), gamma) == \
        PontSeries.unit(P1, RING_Y, 4)


def test_hom_exponentiation_additive_in_class():
    rng = random.Random(9)
    a = TSeries.from_terms(RING_Y, 4, {0: 1, 1: 1})
    g1 = random_hclass(rng, P1)
    g2 = random_hclass(rng, P1)
    total = dict(g1)
    for b, c in g2.items():
        total[b] = total.get(b, RING_Y.zero) + c
    assert hom_exponentiation(P1, a, total) == \
        hom_exponentiation(P1, a, g1) * hom_exponentiation(P1, a, g2)


def test_sym_prod_series():
    s = kind_series(POINT, "sym", None, 5)
    assert pont_degree(POINT, s) == TSeries(RING_Y, [RING_Y.one] * 6)
    s1 = kind_series(P1, "sym", None, 5)
    assert s1.components[1].terms[(1, "P1"),] == RING_Y.one - Y
    assert s1.components[1].terms[(1, "P0"),] == RING_Y.one + Y
    deg = pont_degree(P1, s1)
    for n in range(6):
        assert deg.coeffs[n] == LPoly(RING_Y, {(2 * i,): 1 for i in range(n + 1)})


def test_hilb_class_series_curve_is_sym():
    assert kind_series(P1, "hilb", 1, 5) == kind_series(P1, "sym", None, 5)


def test_hilb_class_series_range_errors():
    from motivic_cc.motives import UnsupportedRangeError
    with pytest.raises(UnsupportedRangeError):
        kind_series(P3, "hilb", 3, 4)
    with pytest.raises(UnsupportedRangeError):
        kind_series(P3, "chern", 4, 4)
    # d = 2 carries no order restriction
    kind_series(P2, "hilb", 2, 4)


def test_class_exponents_of_each_kind():
    """Each kind's exponents at N = 8, written out: t, t - t^2, sum_k k t^k, and chi_{-y}
    or chi of the punctual and the virtual exponents; d = 3, 4 are known through t^3."""
    n = 8
    macmahon = exps(QQ, range(1, n + 1))
    want = {
        ("sym", None, n): exps(RING_Y, [1], n),
        ("config", None, n): exps(RING_Y, [1, -1], n),
        ("hilb", 1, n): exps(RING_Y, [1], n),
        ("hilb", 2, n): exps(RING_Y, [Y ** (k - 1) for k in range(1, n + 1)]),
        ("chern", 1, n): exps(QQ, [1], n),
        ("chern", 2, n): exps(QQ, [1] * n),
        ("chern", 3, n): macmahon,
        ("aluffi", 3, n): macmahon,
        ("virtual", 3, n): exps(RING_Y, [spec_chi_minus_y(virtual_alpha(k))
                                          for k in range(1, n + 1)]),
        ("hilb", 3, 3): exps(RING_Y, map(spec_chi_minus_y, alpha_closed_small(3))),
        ("hilb", 4, 3): exps(RING_Y, map(spec_chi_minus_y, alpha_closed_small(4))),
        ("chern", 4, 3): exps(QQ, map(spec_chi, alpha_closed_small(4))),
    }
    for (kind, d, order), b in want.items():
        got = class_exponents(kind, d, order)
        assert got == b and got.ring == b.ring, (kind, d)


def test_class_exponents_refuse_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind 'hilbert'"):
        class_exponents("hilbert", 2, 3)


def reference_product(model, gamma, b: TSeries, order):
    """prod_k (1 - t^k d^k_*)^(-b_k gamma) as a product of hom_exp_inv factors over
    the ring of b; over QQ they carry no Adams twist."""
    ring = b.ring
    out = PontSeries.unit(model, ring, order)
    for k, s in enumerate(b.coeffs[1:order + 1], start=1):
        scaled = {x: ring.coerce(c) * s for x, c in gamma.items()}
        out = out * hom_exp_inv(model, scaled, k, order, ring)
    return out


def rational_class(model):
    """c_*(X) of a proper model; the y = 1 value of the stored class otherwise."""
    if model.proper:
        return chern_class_of(model)
    return {b: chi_of_y(c) for b, c in model.ty.items()}


N = 4


def hilb_case(d, n):
    return lambda m: (kind_series(m, "hilb", d, n),
                      reference_product(m, m.ty, class_exponents("hilb", d, n), n))


def chern_case(d, kind="chern"):
    """A Chern-level kind; aluffi is read at -t.  A non-proper model has no c_*(X), so its
    rational class is exponentiated directly."""
    sign = -1 if kind == "aluffi" else 1

    def case(m):
        scalars = class_exponents(kind, d, N)
        gamma = rational_class(m)
        fast = (kind_series(m, kind, d, N) if m.proper
                else exp_series(m, gamma, scalars, sign))
        return (fast if sign == 1 else subst_neg_t(fast),
                reference_product(m, gamma, scalars, N))
    return case


def virtual_euler_log_scalars(order):
    """The Euler-log route: exponents of chi_{-y} of the virtual punctual series at -t."""
    a_y = map_series(virtual_hilb_series(1, order), "chi-y")
    return euler_log(a_y.subst(1, -1))


def virtual_route_case(route):
    def case(m):
        if route == 1:
            scalars = virtual_euler_log_scalars(N)
        else:
            scalars = exps(
                RING_Y, [spec_chi_minus_y(virtual_alpha(k)) for k in range(1, N + 1)])
        return (subst_neg_t(kind_series(m, "virtual", 3, N)),
                reference_product(m, m.ty, scalars, N))
    return case


def hom_exponentiation_case(m):
    a = random_series(random.Random(10), RING_Y, N, normalized=True, halves=True)
    return (hom_exponentiation(m, a, m.ty),
            reference_product(m, m.ty, euler_log(a), N))


KIND_CASES = {
    "hilb": {"hilb1": hilb_case(1, N), "hilb2": hilb_case(2, N), "hilb3": hilb_case(3, 3)},
    "sym": {"sym": lambda m: (kind_series(m, "sym", None, N),
                              reference_product(m, m.ty, exps(RING_Y, [1]), N))},
    "config": {"config": lambda m: (kind_series(m, "config", None, N),
                                    reference_product(m, m.ty, exps(RING_Y, [1, -1]), N))},
    "chern": {"chern2": chern_case(2), "chern3": chern_case(3)},
    "virtual": {"virtual-route1": virtual_route_case(1),
                "virtual-route2": virtual_route_case(2)},
    "aluffi": {"aluffi": chern_case(3, "aluffi")},
}
# every kind needs a reference product: a kind missing from KIND_CASES stops the module here
CASES = {name: case for kind in KINDS for name, case in KIND_CASES[kind].items()}
CASES["hom-exponentiation"] = hom_exponentiation_case
MODELS = {"point": POINT, "P1": P1, "P2": P2, "P1xP1": product_model(P1, P1), "gen5": GEN}


@pytest.mark.parametrize("model_name,kind",
                         [(m, k) for m in MODELS for k in CASES],
                         ids=[f"{m}-{k}" for m in MODELS for k in CASES])
def test_exp_series_matches_reference(model_name, kind):
    """The closed-form exponential against the product of one-factor exponentials."""
    fast, ref = CASES[kind](MODELS[model_name])
    assert fast == ref


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_exp_series_degenerate_inputs_give_unit(model):
    def b(order, *seq, ring=RING_Y):
        return exps(ring, seq, order)

    assert exp_series(model, model.ty, b(0, 1, Y)) == PontSeries.unit(model, RING_Y, 0)
    unit = PontSeries.unit(model, RING_Y, 3)
    assert exp_series(model, {}, b(3, 1, Y, -1)) == unit
    assert exp_series(model, model.ty, b(3, 0, RING_Y.zero, 0)) == unit
    assert exp_series(model, model.ty, b(3)) == unit
    assert exp_series(model, rational_class(model), b(3, 0, 0, ring=QQ)) == \
        PontSeries.unit(model, QQ, 3)


def assert_rebuilds(s: PontSeries):
    """A result built without the checks: the checking constructor rebuilds it exactly."""
    assert PontSeries(s.model, s.ring, [el.terms for el in s.components]) == s
    for el in s.components:
        assert all(ms == tuple(sorted(ms)) and c.num and c.vars == s.ring
                   for ms, c in el.terms.items())


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_unchecked_results_pass_the_checks(model):
    """Products, sums, scalings, t -> -t, power operations, the closed-form exponential and the
    y = 1 limit build their elements unchecked; every result still passes the public checks."""
    rng = random.Random(model.name)
    s = kind_series(model, "hilb", 2, N)
    t = random_pont(rng, model, N)
    unit = PontSeries.unit(model, RING_Y, N)
    x = embed(model, d_push(model, 1, model.ty), N)
    cancelled_product, cancelled_sum = (unit + x) * (unit + x.scale(-1)), s + s.scale(-1)
    assert not cancelled_product.components[1].terms and cancelled_product.components[2].terms
    assert not any(el.terms for el in cancelled_sum.components)
    results = [s, t, unit, s * t, cancelled_product, s + t, cancelled_sum, s.scale(Y),
               s.scale(0), subst_neg_t(s), power_op(2, s), power_op(3, t, 2 * N), pont_exp(x),
               exp_series(model, rational_class(model), exps(QQ, [1, 2], N))]
    if model.proper:
        results.append(normalized_y1_limit(kind_series(model, "virtual", 3, 3)))
    for r in results:
        assert_rebuilds(r)


def test_public_constructors_check_their_input():
    """PontElement, PontSeries and d_push reject bad multisets, sort multisets and drop
    zero coefficients; PontSeries coerces each coefficient into its ring."""
    c = RING_Y.one + Y
    for bad in ({((1, "P0"),): c}, {((0, "P0"), (2, "P1")): c}, {((-1, "P0"), (3, "P1")): c}):
        with pytest.raises(ValueError):
            PontElement(2, bad)
        with pytest.raises(ValueError):
            PontSeries(P1, RING_Y, [{}, {}, bad])
    for k in (0, -1):
        with pytest.raises(ValueError):
            d_push(P1, k, {"P0": c})
    el = PontElement(3, {((2, "P1"), (1, "P0")): c, ((3, "P0"),): RING_Y.zero})
    assert el.terms == {((1, "P0"), (2, "P1")): c}
    s = PontSeries(P1, RING_Y, [{(): RING_Y.one}, {((1, "P0"),): RING_Y.zero},
                                {((1, "P1"), (1, "P0")): c}])
    assert [el.terms for el in s.components] == [{(): RING_Y.one}, {},
                                                 {((1, "P0"), (1, "P1")): c}]
    assert d_push(P1, 2, {"P0": RING_Y.zero, "P1": c}).terms == {((2, "P1"),): c}
    with pytest.raises(TypeError):
        PontSeries(P1, RING_Y, [{(): RING_L.one}])
    assert PontSeries(P1, RING_Y, [{(): 1}]) == PontSeries.unit(P1, RING_Y, 0)


def test_two_spellings_of_one_multiset_add():
    """In the free ring each multiset is one basis element: keys that spell it in different
    orders add their coefficients, and a sum of zero drops the term."""
    c1, c2 = RING_Y.one, RING_Y.one.scale(2)
    terms = {((2, "P1"), (1, "P0")): c1, ((1, "P0"), (2, "P1")): c2}
    three = {((1, "P0"), (2, "P1")): RING_Y.one.scale(3)}
    assert PontElement(3, terms).terms == three
    assert PontSeries(P1, RING_Y, [{}, {}, {}, terms]).components[3].terms == three
    cancel = {((2, "P1"), (1, "P0")): c2, ((1, "P0"), (2, "P1")): -c2, ((3, "P0"),): c1}
    assert PontElement(3, cancel).terms == {((3, "P0"),): c1}
    assert PontSeries(P1, RING_Y, [{}, {}, {}, cancel]).components[3].terms == \
        {((3, "P0"),): c1}


def test_hilb_degree_matches_cheah_route_p2():
    s = kind_series(P2, "hilb", 2, 3)
    lhs = pont_degree(P2, s)
    rhs = map_series(hilb_motive_series(proj_space_class(2), 2, 3), "chi-y")
    assert lhs == rhs


def test_hilb_degree_matches_cheah_route_p1():
    s = kind_series(P1, "hilb", 1, 6)
    lhs = pont_degree(P1, s)
    rhs = map_series(hilb_motive_series(proj_space_class(1), 1, 6), "chi-y")
    assert lhs == rhs


def test_mt2_collapses():
    geo = map_series(hilb_motive_series(1, 1, 4), "chi-y")
    assert geo == TSeries(RING_Y, [RING_Y.one] * 5)
    assert mt2_series(P1, hilb_motive_series(1, 1, 4), 4) == kind_series(P1, "sym", None, 4)


def test_mt2_equals_hilb_for_surfaces():
    assert mt2_series(P2, hilb_motive_series(1, 2, 3), 3) == kind_series(P2, "hilb", 2, 3)


def test_config_equals_mt2_of_one_plus_t():
    one_plus = TSeries.from_terms(RING_L, 4, {0: 1, 1: 1})
    for model in (POINT, P1):
        assert kind_series(model, "config", None, 4) == mt2_series(model, one_plus, 4)


def test_config_point_terminates():
    s = kind_series(POINT, "config", None, 4)
    deg = pont_degree(POINT, s)
    assert deg == TSeries.from_terms(RING_Y, 4, {0: 1, 1: 1})


def test_config_p1():
    s = kind_series(P1, "config", None, 4)
    assert s.components[1].terms[(1, "P1"),] == RING_Y.one - Y
    assert s.components[1].terms[(1, "P0"),] == RING_Y.one + Y
    deg = pont_degree(P1, s)
    assert deg.coeffs[2] == Y ** 2
    rhs = map_series(config_space_series(proj_space_class(1), 4), "chi-y")
    assert deg == rhs


def test_chern_point_threefold_degree_is_macmahon():
    s = kind_series(POINT, "chern", 3, 8)
    assert pont_degree(POINT, s) == macmahon_series(8)


def no_pole_model():
    """A non-proper ModelFile whose class has no pole at y = 1: degree k carries (1-y)^k p_k(y)."""
    one_minus_y = RING_Y.one - Y
    classes = {"a": 3 - Y.scale(Fraction(1, 2)), "b": one_minus_y * (2 + Y),
               "c": one_minus_y ** 2 * (1 + 3 * Y),
               "d": one_minus_y ** 3 * (Y ** 2 - Fraction(1, 3))}
    return model_from_doc({
        "name": "no-pole", "dim": 3, "proper": False, "zeroDegreeBasisId": None, "e_poly": [],
        "basis": [{"id": b, "deg": k} for k, b in enumerate(classes)],
        "ty_class": {b: [{"yNum": e[0], "c": str(c)} for e, c in sorted(p.terms.items())]
                     for b, p in classes.items()}})


ATOM_MODELS = {name: builtin_model(name) for name in ("point", "P1", "P2", "P3", "P1xP1")}
ATOM_MODELS["no-pole"] = no_pole_model()


@pytest.mark.parametrize("model", ATOM_MODELS.values(), ids=ATOM_MODELS)
def test_log_atoms_y1_limit_is_chern_level(model):
    """At N = 12, y -> 1 of the normalized log atoms of hilb (d = 1, 2) and of virtual is the
    log atoms of chern with the same d and with d = 3 (the Aluffi series before t -> -t)."""
    n = 12
    gamma = chern_class_of(model)
    for y_scalars, d in ((class_exponents("hilb", 1, n), 1), (class_exponents("hilb", 2, n), 2),
                         (class_exponents("virtual", 3, n), 3)):
        limited = y1_limit_atoms(model, log_atoms(model, model.ty, y_scalars))
        assert limited and limited == log_atoms(model, gamma, class_exponents("chern", d, n)), d
    if not model.proper:  # the series route on the model no digest pins
        for d in (1, 2):
            assert normalized_y1_limit(kind_series(model, "hilb", d, 3)) == \
                kind_series(model, "chern", d, 3)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_exp_series_is_the_exponential_of_log_atoms(model):
    """The one-atom terms of exp_series are its log atoms, and a zero atom is left out."""
    b = class_exponents("hilb", 2, N)
    atoms = log_atoms(model, model.ty, b)
    s = exp_series(model, model.ty, b)
    assert atoms and all(c.num and c.vars == RING_Y for c in atoms.values())
    assert atoms == {ms[0]: c for el in s.components for ms, c in el.terms.items() if len(ms) == 1}
    # over Q, atom (2, x) collects gamma_x / 2 from b_1 = 1 and -gamma_x / 2 from b_2 = -1/2
    half = exps(QQ, [1, Fraction(-1, 2)])
    assert {j for j, _ in log_atoms(model, rational_class(model), half)} == {1}


# the test models and random ModelFiles: non-proper, rational, Laurent and half exponents
WALK_MODELS = dict(MODELS, **{f"gen{seed}": model_from_doc(load_bench_cases().generate_model(seed))
                              for seed in (0, 1, 2, 7)})
# (kind, d, order) for every kind; hilb and chern at d = 3 are known through t^3
WALK_KINDS = [("hilb", 2, 6), ("hilb", 3, 3), ("sym", None, 6), ("config", None, 6),
              ("chern", 2, 6), ("chern", 3, 6), ("virtual", 3, 5), ("aluffi", 3, 5)]
assert {kind for kind, _, _ in WALK_KINDS} == set(KINDS)


def assert_walk_matches_reference(model, gamma, b, sign, terms):
    """``terms`` is the stream of ``ref_exp_series``: each grading's multisets strictly
    increasing, no zero coefficient, every coefficient over the ring of b."""
    last = {}
    dicts = [dict() for _ in range(b.order + 1)]
    for n, ms, c in terms:
        assert n not in last or last[n] < ms, (n, ms)
        assert c.num and c.vars == b.ring, (n, ms)
        last[n], dicts[n][ms] = ms, c
    ref = ref_exp_series(model, gamma, b, sign)
    assert dicts == [el.terms for el in ref.components]


@pytest.mark.parametrize("model", WALK_MODELS.values(), ids=WALK_MODELS)
def test_exp_terms_match_the_dict_walk(model):
    """The depth-first walk of exp_terms against the grading-by-grading dict walk it
    replaced, on every kind's exponents and on random exponents with negative, rational,
    Laurent and half-integer coefficients, at both signs."""
    for kind, d, order in WALK_KINDS:
        b = class_exponents(kind, d, order)
        gamma = model.ty if b.ring == RING_Y else rational_class(model)
        sign = -1 if kind in ("virtual", "aluffi") else 1
        terms = (class_terms(model, kind, b) if b.ring == RING_Y or model.proper
                 else exp_terms(model, gamma, b, sign))
        assert_walk_matches_reference(model, gamma, b, sign, terms)
    rng = random.Random(model.name)
    for order in range(5):
        for ring, gamma in ((RING_Y, model.ty), (QQ, rational_class(model))):
            b = random_series(rng, ring, order, zero_constant=True, laurent=True, halves=True,
                              denom_bound=3)
            for sign in (1, -1):
                assert_walk_matches_reference(model, gamma, b, sign,
                                              exp_terms(model, gamma, b, sign))


def test_normalization_limit_matches_chern_series():
    for model, d in ((P1, 1), (P2, 2), (P3, 3)):
        hilb = kind_series(model, "hilb", d, 3)
        assert normalized_y1_limit(hilb) == kind_series(model, "chern", d, 3)


def test_virtual_two_route_p3():
    scalars = virtual_euler_log_scalars(3)
    assert scalars == class_exponents("virtual", 3, 3)
    t_form = kind_series(P3, "virtual", 3, 3)
    assert subst_neg_t(t_form) == reference_product(P3, P3.ty, scalars, 3)
    assert t_form.components[0].terms == {(): RING_Y.one}


def test_virtual_degree_matches_motivic_route():
    t_form = kind_series(P3, "virtual", 3, 3)
    lhs = pont_degree(P3, t_form)
    rhs = map_series(virtual_hilb_series(proj_space_class(3), 3), "chi-y")
    assert lhs == rhs


def aluffi_reference(model, order):
    """prod_k (1 - t^k d^k_*)^(-k c_*(X)) as hom_exp_inv factors over Q, without Adams twist."""
    return reference_product(model, chern_class_of(model),
                             exps(QQ, range(1, order + 1)), order)


def test_aluffi_sign_relation_eq220():
    # read at -t, the Aluffi series is the MacMahon-exponent product of the Chern class
    assert subst_neg_t(kind_series(P3, "aluffi", 3, 4)) == aluffi_reference(P3, 4)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS)
def test_signed_atoms_read_the_series_at_minus_t(model):
    """sign = -1 multiplies atom (j, x) by (-1)^j, and the exponential of the signed atoms is
    the unsigned series read at -t, with and without the Adams twist."""
    for gamma, b in ((model.ty, class_exponents("virtual", 3, N)),
                     (rational_class(model), class_exponents("chern", 3, N))):
        atoms = log_atoms(model, gamma, b)
        assert log_atoms(model, gamma, b, -1) == \
            {(j, x): -c if j % 2 else c for (j, x), c in atoms.items()}
        assert exp_series(model, gamma, b, -1) == subst_neg_t(exp_series(model, gamma, b))
        with pytest.raises(ValueError, match="bad sign"):  # an order in the sign's place
            exp_series(model, gamma, b, N)
    if model.proper:
        assert subst_neg_t(kind_series(model, "aluffi", 3, N)) == aluffi_reference(model, N)


@pytest.mark.parametrize("order", (3, 4))
@pytest.mark.parametrize("model", (POINT, P1, P3, product_model(P1, P1)),
                         ids=("point", "P1", "P3", "P1xP1"))
def test_chern_mnop_virtual_limit_is_aluffi(model, order):
    """Chern-class MNOP: the y -> 1 limit of the virtual classes is the signed Aluffi series."""
    assert normalized_y1_limit(kind_series(model, "virtual", 3, order)) == \
        kind_series(model, "aluffi", 3, order)


def test_aluffi_point_degree_is_macmahon_with_sign():
    aluffi = kind_series(POINT, "aluffi", 3, 8)
    deg = pont_degree(POINT, aluffi)
    m = macmahon_series(8)
    assert deg.subst(1, -1) == m


def test_chern_level_coefficients_are_constant_lpolys():
    """Q is the Laurent ring with no variables, and Chern-level series hold its elements."""
    assert QQ == VarSet(()) and hash(QQ) == hash(VarSet(())) and QQ != RING_Y
    assert [str(r) for r in (QQ, RING_L, RING_UV, RING_Y)] == ["Q", "Q[L]", "Q[u,v]", "Q[y]"]
    coefficients = []
    for s in (kind_series(P2, "chern", 2, 4), kind_series(P3, "aluffi", 3, 4),
              normalized_y1_limit(kind_series(P2, "hilb", 2, 3))):
        assert s.ring == QQ
        coefficients += [c for el in s.components for c in el.terms.values()]
    chi = map_series(hilb_motive_series(proj_space_class(2), 2, 4), "chi")
    assert chi.ring == QQ
    coefficients += chi.coeffs
    assert coefficients and all(isinstance(c, LPoly) and c.vars == QQ
                                for c in coefficients)


VALUES = {
    "LPoly": lambda: Y.scale(Fraction(-2, 3)) + LPoly.var(RING_Y, "y", 1),
    "TSeries": lambda: map_series(hilb_motive_series(1, 2, 3), "chi-y"),
    "PontElement": lambda: d_push(P1, 2, P1.ty),
    "PontSeries": lambda: kind_series(P2, "chern", 2, 3),
    "VarSet": lambda: RING_Y,
}


@pytest.mark.parametrize("kind", VALUES)
def test_values_copy_and_pickle(kind):
    value = VALUES[kind]()
    before = pickle.dumps(value)
    str(value)  # printing memoizes monomial text in the variable set; pickles leave it out
    assert pickle.dumps(value) == before
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        if type(value).__hash__ is not None:
            assert hash(twin) == hash(value)
    if kind == "VarSet":  # a ring rebuilt from its names has its own zero and one
        twin = pickle.loads(before)
        assert (twin.zero, twin.one, str(twin)) == (value.zero, value.one, str(value))
    with pytest.raises(AttributeError, match="is immutable"):
        value.ring = QQ

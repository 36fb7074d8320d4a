import random
from fractions import Fraction

import pytest

from motivic_cc.lpoly import LPoly, QQ, RING_L, RING_UV, RING_Y
from motivic_cc.series import TSeries, NonUnitError, OrderMismatchError, IntegralityError
from motivic_cc.lambda_power import euler_exp, euler_log, power
from motivic_cc.motives import map_series
from motivic_cc.hirzebruch import proj_space_model
from motivic_cc.checks import PontSeries
from helpers import (
    exps, random_lpoly, random_series, ref_euler_exp, ref_euler_log, ref_exp, ref_invert, ref_log,
    ref_pont_mul, ref_series_mul,
)

Y = LPoly.var(RING_Y, "y")


def geometric(ring, order):
    return TSeries(ring, [ring.one] * (order + 1))


def test_mul_basic():
    one_plus = TSeries.from_terms(QQ, 4, {0: 1, 1: 1})
    one_minus = TSeries.from_terms(QQ, 4, {0: 1, 1: -1})
    assert one_plus * one_minus == TSeries.from_terms(QQ, 4, {0: 1, 2: -1})
    a = random_series(random.Random(0), QQ, 4)
    assert a * TSeries.one(QQ, 4) == a


def test_mul_geometric_telescopes():
    g = geometric(QQ, 8)
    one_minus = TSeries.from_terms(QQ, 8, {0: 1, 1: -1})
    assert g * one_minus == TSeries.one(QQ, 8)


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        TSeries.one(QQ, 3) * TSeries.one(QQ, 4)
    with pytest.raises(OrderMismatchError):
        TSeries.one(QQ, 3) + TSeries.one(RING_Y, 3)


def test_invert():
    one_minus = TSeries.from_terms(QQ, 6, {0: 1, 1: -1})
    assert one_minus.invert() == geometric(QQ, 6)
    assert TSeries.one(QQ, 6).invert() == TSeries.one(QQ, 6)
    one_plus = TSeries.from_terms(QQ, 6, {0: 1, 1: 1})
    inv = one_plus.invert()
    assert inv == TSeries(QQ, [(-1) ** n for n in range(7)])
    assert one_plus * inv == TSeries.one(QQ, 6)


def test_invert_requires_unit():
    with pytest.raises(NonUnitError):
        TSeries.from_terms(QQ, 3, {0: 2}).invert()


def test_pow_int_rejects_negative_powers():
    # a unit, so only the sign of the power can raise
    with pytest.raises(ValueError):
        geometric(QQ, 4).pow_int(-1)


def test_exp_classical():
    # exp(sum t^r/r) = 1/(1-t)
    arg = TSeries.from_terms(QQ, 8, {r: Fraction(1, r) for r in range(1, 9)})
    assert arg.exp() == geometric(QQ, 8)
    assert TSeries(QQ, [0] * 6).exp() == TSeries.one(QQ, 5)
    assert TSeries.one(QQ, 5).log() == TSeries(QQ, [0] * 6)


def test_exp_over_polynomial_ring():
    # exp(yt + y^2 t^2/2 + ...) = sum y^n t^n
    arg = TSeries(RING_Y, [RING_Y.zero] + [(Y ** r).scale(Fraction(1, r)) for r in range(1, 7)])
    assert arg.exp() == TSeries(RING_Y, [Y ** n for n in range(7)])


def test_exp_log_roundtrip_random():
    rng = random.Random(5)
    for _ in range(100):
        a = random_series(rng, RING_Y, 8, zero_constant=True)
        assert a.exp().log() == a
        b = random_series(rng, RING_Y, 8, normalized=True)
        assert b.log().exp() == b


def test_exp_additive_to_multiplicative():
    rng = random.Random(6)
    for _ in range(30):
        a = random_series(rng, RING_Y, 6, zero_constant=True)
        b = random_series(rng, RING_Y, 6, zero_constant=True)
        assert (a + b).exp() == a.exp() * b.exp()


def test_subst():
    a = TSeries.from_terms(QQ, 5, {0: 1, 1: 1})
    assert a.subst(2) == TSeries.from_terms(QQ, 5, {0: 1, 2: 1})
    assert a.subst(1) == a
    b = TSeries.from_terms(QQ, 4, {0: 1, 1: 1, 2: 3})
    assert b.subst(1, sign=-1) == TSeries.from_terms(QQ, 4, {0: 1, 1: -1, 2: 3})


def test_subst_composition():
    rng = random.Random(8)
    for _ in range(30):
        a = random_series(rng, QQ, 8)
        j, k = rng.randint(1, 3), rng.randint(1, 3)
        assert a.subst(k).subst(j) == a.subst(j * k)


def test_assert_integral():
    TSeries.from_terms(QQ, 2, {0: 1, 2: -4}).assert_integral()
    with pytest.raises(IntegralityError):
        TSeries.from_terms(QQ, 2, {1: Fraction(1, 2)}).assert_integral()
    with pytest.raises(IntegralityError):
        TSeries(RING_Y, [RING_Y.one, Y.scale(Fraction(1, 3))]).assert_integral()


def test_zero_coefficients_pass_through(monkeypatch):
    """The scalar product and map_coeffs leave a zero coefficient untouched: power scales no
    zero exponent (b_0 is always one), and map_series specializes no zero coefficient."""
    touched = []
    real_mul, real_substitute = LPoly.__mul__, LPoly.substitute

    def mul(a, b):
        if not a.num or isinstance(b, LPoly) and not b.num:
            touched.append(("mul", a, b))
        return real_mul(a, b)

    def substitute(a, *args, **kw):
        if not a.num:
            touched.append(("substitute", a))
        return real_substitute(a, *args, **kw)

    monkeypatch.setattr(LPoly, "__mul__", mul)
    monkeypatch.setattr(LPoly, "substitute", substitute)
    L = LPoly.var(RING_L, "L")
    a = TSeries(RING_L, [1, L, 0, 2 * L ** 3, 0, 1 - L])
    for m in (L + 2, -L, 3):
        power(a, m)
    for which in ("e", "chi-y", "chi"):
        mapped = map_series(a, which)
        assert not mapped.coeffs[2].num and not mapped.coeffs[4].num
    assert touched == []
    assert (a * 0).coeffs == (RING_L.zero,) * 6 and (a * L).coeffs[2] == RING_L.zero


# coefficient rings with the exponents their variables admit
RINGS = {"QQ": (QQ, {}), "L": (RING_L, {"laurent": True, "halves": True}),
         "y": (RING_Y, {"halves": True}), "uv": (RING_UV, {})}


def random_pont(rng, model, ring, order) -> PontSeries:
    """Rational coefficients on few atoms, so products collide on their multisets."""
    dicts = [{(): random_lpoly(rng, ring, max_deg=2, terms=3, denom_bound=4)}]
    for n in range(1, order + 1):
        d = {}
        for _ in range(rng.randint(0, 3)):
            parts, left = [], n
            while left > 0:
                k = rng.randint(1, left)
                parts.append((k, rng.choice(model.basis)[0]))
                left -= k
            d[tuple(sorted(parts))] = random_lpoly(rng, ring, max_deg=2, terms=3,
                                                  halves=bool(ring.names), denom_bound=4)
        dicts.append(d)
    return PontSeries(model, ring, dicts)


@pytest.mark.parametrize("name", RINGS)
def test_sums_of_products_match_accumulate_route(name):
    # every sum of coefficient products is one LPoly.dot; the reference adds
    # one product at a time
    ring, kw = RINGS[name]
    rng = random.Random(name)
    for _ in range(15):
        order = rng.randint(0, 6)
        a = random_series(rng, ring, order, denom_bound=5, **kw)
        b = random_series(rng, ring, order, denom_bound=5, **kw)
        unit = random_series(rng, ring, order, normalized=True, denom_bound=5, **kw)
        nil = random_series(rng, ring, order, zero_constant=True, denom_bound=5, **kw)
        assert a * b == ref_series_mul(a, b)
        assert unit.invert() == ref_invert(unit)
        assert nil.exp() == ref_exp(nil)
        assert unit.log() == ref_log(unit)
        assert euler_log(unit).coeffs[1:] == ref_euler_log(unit)
        nonzero = rng.randint(0, order)  # the rest of b_1 .. b_order are padded with zeros
        e = exps(ring, (random_lpoly(rng, ring, max_deg=2, terms=3, denom_bound=5, **kw)
                        for _ in range(nonzero)), order)
        assert euler_exp(e) == ref_euler_exp(e, order)


def assert_rebuilds(s: TSeries):
    """A series built without coercion: the coercing constructor rebuilds it, and every
    coefficient is a canonical LPoly over the ring's variables."""
    assert TSeries(s.ring, s.coeffs) == s
    for c in s.coeffs:
        assert type(c) is LPoly and c.vars == s.ring
        canonical = LPoly._reduce(c.vars, dict(c.num), c.den)
        assert (canonical.num, canonical.den) == (c.num, c.den)


@pytest.mark.parametrize("name", RINGS)
def test_unchecked_results_pass_the_checks(name):
    """Series arithmetic, the Euler log and the scaling of exponents build their results
    without coercing; every result still passes the coercing constructors."""
    ring, kw = RINGS[name]
    rng = random.Random(f"unchecked-{name}")
    for _ in range(10):
        order = rng.randint(0, 5)
        a = random_series(rng, ring, order, denom_bound=5, **kw)
        b = random_series(rng, ring, order, denom_bound=5, **kw)
        unit = random_series(rng, ring, order, normalized=True, denom_bound=5, **kw)
        nil = random_series(rng, ring, order, zero_constant=True, denom_bound=5, **kw)
        m = random_lpoly(rng, ring, max_deg=2, terms=3, denom_bound=5, **kw)
        k = rng.randint(1, 3)
        lu = euler_log(unit)
        for s in (a + b, a * b, a * m, a * 0, unit.invert(), nil.exp(),
                  unit.log(), a.subst(k), a.subst(1, -1), TSeries(ring, [0] * (order + 1)),
                  TSeries.one(ring, order), euler_exp(lu * m), unit.invert().pow_int(2)):
            assert_rebuilds(s)
        for e in (lu, lu * m, lu * 0):
            assert exps(e.ring, e.coeffs[1:]) == e
            assert all(type(c) is LPoly and c.vars == ring for c in e.coeffs[1:])


def test_public_constructors_coerce_and_reject():
    """TSeries, from_terms, map_coeffs and the scalar product coerce ints and Fractions,
    also as Euler exponents, and reject coefficients of another ring."""
    s = TSeries(RING_Y, [1, Fraction(-1, 2), Y])
    assert s.coeffs == (RING_Y.one, RING_Y.one.scale(Fraction(-1, 2)), Y)
    assert all(type(c) is LPoly and c.vars == RING_Y for c in s.coeffs)
    assert TSeries.from_terms(RING_Y, 2, {0: 1, 2: Fraction(1, 3)}) == \
        TSeries(RING_Y, [RING_Y.one, RING_Y.zero, RING_Y.one.scale(Fraction(1, 3))])
    assert (s * Fraction(2)).coeffs[1] == -RING_Y.one
    assert exps(RING_Y, (1, Fraction(1, 2))).coeffs[1:] == \
        (RING_Y.one, RING_Y.one.scale(Fraction(1, 2)))
    el = LPoly.var(RING_L, "L")
    b = exps(RING_Y, (Y,))
    for build in (lambda: TSeries(RING_Y, [RING_Y.one, el]), lambda: TSeries(RING_Y, [0.5]),
                  lambda: TSeries.from_terms(RING_Y, 2, {1: el}), lambda: s * el,
                  lambda: s.map_coeffs(RING_L, lambda c: c),
                  lambda: exps(RING_Y, (el,)), lambda: b * el):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(ValueError):
        TSeries(RING_Y, [])


@pytest.mark.parametrize("ring", [QQ, RING_Y], ids=["QQ", "y"])
def test_pontrjagin_product_matches_accumulate_route(ring):
    rng = random.Random(ring.name)
    model = proj_space_model(1)
    for _ in range(15):
        order = rng.randint(0, 5)
        s, t = random_pont(rng, model, ring, order), random_pont(rng, model, ring, order)
        assert [el.terms for el in s.mul(t).components] == ref_pont_mul(s, t)

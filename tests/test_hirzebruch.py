import random
from fractions import Fraction
from math import comb

import pytest

from motivic_cc.lpoly import LPoly, QQ, RING_UV, RING_Y
from motivic_cc.series import TSeries
from motivic_cc.motives import TwoRouteMismatchError, Y, Y_HALF, chi_of_y, hodge_spec
from motivic_cc.hirzebruch import (
    HomologyModel, chern_class_of,
    product_model, proj_space_model, qy_series, y1_limit,
)
from motivic_cc.checks import kind_series, qyhat_series
from helpers import random_lpoly


def eval_at_y(s: TSeries, c: Fraction) -> TSeries:
    return s.map_coeffs(QQ, lambda p: p.substitute(QQ, whole={"y": c}).as_fraction())


def bernoulli_plus(n: int) -> list[Fraction]:
    """B^+_0 .. B^+_n by the defining recurrence (independent Todd oracle)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(comb(m + 1, j)) * b[j]
        b.append(-acc / (m + 1))
    b_plus = list(b)
    if n >= 1:
        b_plus[1] = -b_plus[1]
    return b_plus


def todd_oracle(order: int) -> TSeries:
    """a/(1 - e^(-a)) = sum B^+_n a^n / n!."""
    b = bernoulli_plus(order)
    fact = [1]
    for i in range(1, order + 1):
        fact.append(fact[-1] * i)
    return TSeries(QQ, [b[n] / fact[n] for n in range(order + 1)])


def coth_oracle(order: int, half: bool) -> TSeries:
    """a*coth(a/2) (half) or a*coth(a) from explicit cosh/sinh expansions."""
    fact = [1]
    for i in range(1, order + 2):
        fact.append(fact[-1] * i)
    s = Fraction(1, 2) if half else Fraction(1)
    cosh = TSeries(QQ, [s ** n / fact[n] if n % 2 == 0 else Fraction(0)
                        for n in range(order + 1)])
    sinh_over = TSeries(QQ, [s ** n / fact[n + 1] if n % 2 == 0 else Fraction(0)
                             for n in range(order + 1)])
    scale = 2 if half else 1
    return cosh * sinh_over.invert() * Fraction(scale)


def test_qy_low_order_coefficients():
    q = qy_series(4)
    assert q.coeffs[0] == RING_Y.one + Y
    assert q.coeffs[1] == (RING_Y.one - Y).scale(Fraction(1, 2))


def test_qy_specializations():
    q = qy_series(8)
    assert eval_at_y(q, Fraction(0)) == todd_oracle(8)
    # y = -1: exactly the top Chern root a
    assert eval_at_y(q, Fraction(-1)) == TSeries.from_terms(QQ, 8, {1: 1})
    # y = 1: a*coth(a/2)
    assert eval_at_y(q, Fraction(1)) == coth_oracle(8, half=True)


def test_qyhat_specializations():
    qh = qyhat_series(8)
    assert qh.coeffs[0] == RING_Y.one
    assert eval_at_y(qh, Fraction(-1)) == TSeries.from_terms(QQ, 8, {0: 1, 1: 1})
    assert eval_at_y(qh, Fraction(0)) == todd_oracle(8)
    assert eval_at_y(qh, Fraction(1)) == coth_oracle(8, half=False)


def test_qyhat_defining_relation():
    # (1+y) * Qhat_y(a) = Q_y(a(1+y)), i.e. coefficientwise (1+y)^j scaling
    n = 8
    q = qy_series(n)
    qh = qyhat_series(n)
    one_plus_y = RING_Y.one + Y
    lhs = TSeries(RING_Y, [c * one_plus_y for c in qh.coeffs])
    rhs = TSeries(RING_Y, [q.coeffs[j] * one_plus_y ** j for j in range(n + 1)])
    assert lhs == rhs


def test_proj_space_p1_class():
    m = proj_space_model(1)
    assert m.ty == {"P1": RING_Y.one - Y, "P0": RING_Y.one + Y}
    assert m.degree_of(m.ty) == RING_Y.one + Y


def test_point_model():
    m = proj_space_model(0)
    assert m.ty == {"P0": RING_Y.one}
    assert m.degree_of(m.ty) == RING_Y.one


def test_degree_is_chi_y_genus():
    for d in range(5):
        m = proj_space_model(d)
        expected = LPoly(RING_Y, {(2 * i,): 1 for i in range(d + 1)})
        assert m.degree_of(m.ty) == expected
        assert m.degree_of(m.ty) == hodge_spec(m.e_poly, "chi-y")
    assert proj_space_model(2).degree_of({}) == RING_Y.zero


def test_product_with_point_is_unit():
    x = proj_space_model(2)
    p = product_model(proj_space_model(0), x)
    assert p.dim == x.dim
    assert p.degree_of(p.ty) == x.degree_of(x.ty)
    assert p.e_poly == x.e_poly
    assert {b.removeprefix("P0*"): c for b, c in p.ty.items()} == x.ty


def test_product_p1xp1():
    p = product_model(proj_space_model(1), proj_space_model(1))
    assert p.dim == 2
    assert p.degree_of(p.ty) == (RING_Y.one + Y) * (RING_Y.one + Y)
    assert p.chern == {"P1*P1": 1, "P1*P0": 2, "P0*P1": 2, "P0*P0": 4}


def test_chern_limit_small():
    assert chern_class_of(proj_space_model(0), 1) == {"P0": 1}
    assert chern_class_of(proj_space_model(1), 1) == {"P1": 1, "P0": 2}
    for r in (1, 2, 3):
        assert chern_class_of(proj_space_model(2), r) == {"P2": 1, "P1": 3, "P0": 3}


def test_chern_limit_independent_of_r():
    for d in (1, 2, 3):
        m = proj_space_model(d)
        results = [chern_class_of(m, r) for r in (1, 2, 3, 4)]
        assert all(res == results[0] for res in results)
        assert results[0] == m.chern


def test_chern_limit_products():
    p = product_model(proj_space_model(1), proj_space_model(1))
    for r in (1, 2, 3):
        assert chern_class_of(p, r) == p.chern


def test_chern_limit_detects_bad_class():
    # a class whose degree-1 coordinate is not divisible by (1-y) has a pole
    e_p1 = LPoly(RING_UV, {(0, 0): 1, (2, 2): 1})
    bad = HomologyModel("bad", 1, True, (("a", 1), ("b", 0)), "b",
                        {"a": RING_Y.one, "b": RING_Y.one + Y}, e_p1)
    with pytest.raises(TwoRouteMismatchError):
        chern_class_of(bad, 1)


def test_y1_limit_matches_two_step_reference():
    """y1_limit(c, m) against exact division by (1-y)^m followed by y = 1."""
    one_minus_y = RING_Y.one - Y

    def reference(c, m):
        return chi_of_y(c.exact_div(one_minus_y ** m))

    def outcome(limit, c, m):
        try:
            return limit(c, m)
        except ArithmeticError:
            return ArithmeticError

    rng = random.Random(14)
    # 1 - y^(1/2) vanishes at y = 1 but is not divisible by 1 - y: a pole
    bases = [RING_Y.one - Y_HALF, Y_HALF.scale(Fraction(3, 2))] + [
        random_lpoly(rng, RING_Y, max_deg=3, terms=5, laurent=rng.random() < 0.5,
                     halves=True, denom_bound=4) for _ in range(30)]
    poles = 0
    for base in bases:
        for j in range(6):
            c = base * one_minus_y ** j
            for m in range(6):
                got = outcome(y1_limit, c, m)
                assert got == outcome(reference, c, m), (base, j, m)
                poles += got is ArithmeticError
    assert 0 < poles < len(bases) * 36
    # zero vanishes to every order and has limit 0, and the Descartes bound: one term
    # vanishes to order 0 at y = 1
    assert y1_limit(RING_Y.zero, 5) == 0
    with pytest.raises(ArithmeticError):
        y1_limit(Y_HALF.scale(7), 10 ** 9)


def test_chern_class_takes_one_route(monkeypatch):
    """Every model's Chern class is the y -> 1 limit, with no polynomial division, and a
    built-in model's stored class is the reference that limit must equal."""
    e_a = LPoly(RING_UV, {(0, 0): 1})
    small = HomologyModel("small", 1, False, (("a", 1), ("b", 0)), None,
                          {"a": RING_Y.one - Y.scale(2) + Y ** 3}, e_a)
    divisions = []
    exact_div = LPoly.exact_div
    monkeypatch.setattr(LPoly, "exact_div",
                        lambda self, other: divisions.append(other) or exact_div(self, other))
    assert chern_class_of(small) == {"a": -1}
    assert divisions == []

    p2 = proj_space_model(2)
    wrong = HomologyModel(p2.name, p2.dim, p2.proper, p2.basis, p2.zero_id, p2.ty, p2.e_poly,
                          chern={**p2.chern, "P0": Fraction(4)}, l_class=p2.l_class)
    assert chern_class_of(p2) == p2.chern
    with pytest.raises(TwoRouteMismatchError):
        kind_series(wrong, "chern", 2, 2)


def test_model_chi_consistency_guard():
    with pytest.raises(ValueError):
        HomologyModel("wrong", 1, True, (("a", 1), ("b", 0)), "b",
                      {"a": RING_Y.one, "b": RING_Y.one},
                      LPoly(RING_UV, {(0, 0): 1, (2, 2): 1}))

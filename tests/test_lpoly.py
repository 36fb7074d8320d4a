import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from motivic_cc.lpoly import (
    EXP_LIMIT, HALF_ADMISSIBLE, LPoly, VarSet, RING_L, QQ, RING_UV, RING_Y,
    ExactDivisionError, ExponentLimitError, SubstitutionError, VariableMismatchError,
)
from motivic_cc.motives import chi_of_y, hodge_spec, spec_chi_minus_y, spec_e
from motivic_cc.hirzebruch import proj_space_model, qy_series
from helpers import (
    random_lpoly, ref_adams, ref_add, ref_mul, ref_pow, ref_scale, ref_str, ref_substitute,
)

L = LPoly.var(RING_L, "L")
LHALF = LPoly.var(RING_L, "L", 1)
U = LPoly.var(RING_UV, "u")
V = LPoly.var(RING_UV, "v")
Y = LPoly.var(RING_Y, "y")
YHALF = LPoly.var(RING_Y, "y", 1)


def test_mul_difference_of_squares():
    assert (1 + L) * (L - 1) == L ** 2 - 1


def test_mul_identity():
    p = 3 * L ** 2 - 7 * L + Fraction(1, 2)
    assert RING_L.coerce(1) * p == p


def test_mul_hand_expansion():
    assert (1 + L + L ** 2) * (1 + L) == 1 + 2 * L + 2 * L ** 2 + L ** 3


def test_mul_varset_mismatch():
    with pytest.raises(VariableMismatchError):
        (1 + L) * (1 + Y)


def test_exact_div_factorizations():
    assert (L ** 2 - 1).exact_div(L - 1) == 1 + L
    assert (L ** 3 - 1).exact_div(L - 1) == 1 + L + L ** 2


def test_exact_div_virtual_alpha1():
    # ((-L^(1/2))^(-1) - (-L^(1/2))^1) / (L(1-L)), confirmed by multiplying back
    num = (-LHALF) ** (-1) - (-LHALF)
    den = L * (1 - L)
    q = num.exact_div(den)
    assert q == -(LHALF ** (-3))
    assert q * den == num


def test_exact_div_rejects_nonexact():
    with pytest.raises(ExactDivisionError):
        (L ** 2 + 1).exact_div(L - 1)
    with pytest.raises(ExactDivisionError):
        (1 + L).exact_div(RING_L.coerce(0))


def test_exact_div_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        a = random_lpoly(rng, RING_UV, max_deg=3)
        b = random_lpoly(rng, RING_UV, max_deg=3)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_adams_examples():
    assert (3 + 2 * U * V).adams(2) == 3 + 2 * U ** 2 * V ** 2
    p = random_lpoly(random.Random(1), RING_UV)
    assert p.adams(1) == p
    assert YHALF.adams(2) == Y


def test_adams_tracks_negative_root_of_l():
    # the distinguished root of L is -L^(1/2): Psi_r(-L^(1/2)) = (-L^(1/2))^r
    nu = -LHALF
    for r in range(1, 6):
        assert nu.adams(r) == nu ** r
    # whole powers of L are untouched by the sign
    assert L.adams(2) == L ** 2
    assert (L ** (-1)).adams(3) == L ** (-3)


def test_adams_composition():
    rng = random.Random(2)
    for _ in range(50):
        p = random_lpoly(rng, RING_Y, halves=True, laurent=True)
        r, s = rng.randint(1, 5), rng.randint(1, 5)
        assert p.adams(r).adams(s) == p.adams(r * s)


def test_adams_ring_endomorphism():
    rng = random.Random(3)
    for _ in range(50):
        a = random_lpoly(rng, RING_UV)
        b = random_lpoly(rng, RING_UV)
        r = rng.randint(1, 4)
        assert (a * b).adams(r) == a.adams(r) * b.adams(r)
        assert (a + b).adams(r) == a.adams(r) + b.adams(r)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        a = random_lpoly(rng, RING_UV, max_deg=6)
        b = random_lpoly(rng, RING_UV, max_deg=6)
        c = random_lpoly(rng, RING_UV, max_deg=6)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_normalization_no_zero_terms():
    p = (1 + L) - (1 + L)
    assert p.is_zero() and p.terms == {}
    q = L + (-1) * L + L ** 2
    assert list(q.terms.values()) == [Fraction(1)]


def test_half_exponent_guard():
    with pytest.raises(ValueError):
        LPoly.var(RING_UV, "u", 1)
    # the constructor's checks, term by term: shape, exactness, then parity of the
    # integral variables, which a zero coefficient skips
    with pytest.raises(ValueError, match="^half-integer exponent -3/2 on integral variable v$"):
        LPoly(RING_UV, {(2, 0): 1, (4, -3): Fraction(1, 2)})
    with pytest.raises(VariableMismatchError,
                       match=r"^exponent vector \(1,\) does not match variables Q\[u,v\]$"):
        LPoly(RING_UV, {(1,): 1})
    with pytest.raises(TypeError, match=r"^not an exact coefficient: 0.5$"):
        LPoly(RING_UV, {(2, 2): 0.5})
    assert LPoly(RING_UV, {(1, 3): 0, (2, 2): Fraction(4, 6)}) == U * V * Fraction(2, 3)
    assert LPoly(RING_Y, {(3,): 1, (0,): Fraction(1, 2)}) == YHALF ** 3 + Fraction(1, 2)
    assert LPoly(RING_L, {(-1,): 5}) == LHALF ** -1 * 5


def test_substitute_hodge_to_chi_y():
    # (u,v) -> (-y, 1) realizes chi_y
    p = U * V
    assert p.substitute(RING_Y, whole={"u": -Y, "v": 1}) == -Y


def test_substitute_identity():
    p = 1 + 2 * U * V + U ** 3
    assert p.substitute(RING_UV, whole={"u": U, "v": V}) == p


def test_substitute_declared_root():
    assert LHALF.substitute(QQ, half={"L": Fraction(-1)}) == QQ.coerce(-1)
    # L = (L^(1/2))^2 is forced to the square of the declared root
    assert L.substitute(QQ, half={"L": Fraction(-1)}) == QQ.coerce(1)


def test_substitute_requires_root():
    with pytest.raises(SubstitutionError):
        LHALF.substitute(QQ, whole={"L": Fraction(1)})


def test_substitute_uncovered_variable():
    with pytest.raises(SubstitutionError):
        (U * V).substitute(RING_Y, whole={"u": Y})
    with pytest.raises(SubstitutionError):  # no variable is kept, even one of the target
        (1 + U * V).substitute(RING_UV)


def test_substitute_negative_power_at_zero():
    with pytest.raises(ExactDivisionError):
        (L ** (-1)).substitute(QQ, whole={"L": 0})
    zero = QQ.coerce(0)
    # the zero image meets the negative exponent first, second, or after a
    # positive power of zero has already cleared the term
    for p, whole in ((U ** -1 * V, {"u": 0, "v": 1}), (U * V ** -1, {"u": 1, "v": zero}),
                     (U * V ** -1, {"u": zero, "v": 0})):
        with pytest.raises(ExactDivisionError):
            p.substitute(QQ, whole=whole)


def test_substitute_keeps_half_admissible_variable():
    p = LPoly(VarSet(("L", "y")), {(1, 3): 2, (-3, 0): 1})  # 2 L^(1/2) y^(3/2) + L^(-3/2)
    assert p.substitute(RING_L, half={"L": LHALF, "y": 1}) == 2 * LHALF + LHALF ** -3
    assert p.substitute(RING_L, half={"L": LHALF, "y": -1}) == -2 * LHALF + LHALF ** -3


def test_substitute_values_are_monomials():
    with pytest.raises(SubstitutionError):
        (U * V).substitute(RING_UV, whole={"u": 1 + U})
    with pytest.raises(VariableMismatchError):
        (U * V).substitute(RING_Y, whole={"u": Y, "v": U})
    with pytest.raises(TypeError):
        (U * V).substitute(QQ, whole={"u": 1, "v": 0.5})
    # a value is 0, +-1 or +- a monomial: no other coefficient
    with pytest.raises(SubstitutionError):
        (U * V).substitute(RING_UV, whole={"u": 2 * V, "v": U})
    with pytest.raises(SubstitutionError):
        (U * V).substitute(QQ, whole={"u": Fraction(2, 3), "v": 1})


def test_str_is_canonical_and_exact():
    p = LHALF ** (-3) - 2 * L + Fraction(1, 2)
    s = str(p)
    assert s == "L^(-3/2)+1/2-2*L"
    assert "." not in s


# -- the integer-numerator representation against a dict-of-Fraction reference ----

# variable set -> whether half exponents are legal on it
VARSETS = {"none": (QQ, False), "L": (RING_L, True), "y": (RING_Y, True), "uv": (RING_UV, False)}

# per variable set: (target, whole, half) signed monomial substitutions whose
# values stay invertible, so Laurent exponents are legal
SUBSTITUTIONS = {
    "none": [(RING_Y, {}, {})],
    "L": [(RING_Y, {}, {"L": -YHALF}), (QQ, {}, {"L": Fraction(-1)})],
    "y": [(QQ, {}, {"y": -1}), (RING_L, {}, {"y": -LHALF})],
    "uv": [(RING_Y, {"u": Y, "v": 1}, {}), (RING_UV, {"u": -V, "v": U}, {})],
}


def rational_lpoly(rng, vars, halves):
    return random_lpoly(rng, vars, max_deg=3, terms=4, laurent=True, halves=halves,
                        denom_bound=6)


def assert_canonical(p: LPoly):
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    if p.is_zero():
        assert p.den == 1
    reduced = LPoly._reduce(p.vars, dict(p.num), p.den)  # negation and adams skip the reduction
    assert (reduced.num, reduced.den) == (p.num, p.den)


@pytest.mark.parametrize("name", VARSETS)
def test_ops_match_fraction_reference(name):
    vars, halves = VARSETS[name]
    n = len(vars)
    rng = random.Random(name)
    for _ in range(40):
        a, b = rational_lpoly(rng, vars, halves), rational_lpoly(rng, vars, halves)
        ta, tb = dict(a.terms), dict(b.terms)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        assert dict((a + b).terms) == ref_add(ta, tb)
        assert dict((a - b).terms) == ref_add(ta, ref_scale(tb, -1))
        assert dict((a * b).terms) == ref_mul(ta, tb)
        assert dict(a.scale(c).terms) == ref_scale(ta, c)
        assert dict(a.div_int(-4).terms) == ref_scale(ta, Fraction(-1, 4))
        k = rng.randint(0, 3)
        assert dict((a ** k).terms) == ref_pow(ta, k, n)
        r = rng.randint(1, 4)
        assert dict(a.adams(r).terms) == ref_adams(ta, r, vars)
        if ta:
            mono = {next(iter(ta)): c or Fraction(1, 5)}
            k = rng.randint(1, 3)
            assert dict((LPoly(vars, mono) ** -k).terms) == ref_pow(mono, -k, n)
        if tb:
            q = (a * b).exact_div(b)
            assert dict(q.terms) == ta
            assert ref_mul(dict(q.terms), tb) == ref_mul(ta, tb)
        for target, whole, half in SUBSTITUTIONS[name]:
            got = a.substitute(target, whole=whole, half=half)
            assert dict(got.terms) == ref_substitute(ta, vars, target, whole, half)


def dot_operand(rng, vars, halves):
    """A random operand, a constant (zero and one included), or a very sparse one."""
    pick = rng.random()
    if pick < 0.1:
        return vars.coerce(rng.choice([0, 1]))
    if pick < 0.2:
        return vars.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
    if pick < 0.25 and vars.names:
        return LPoly(vars, {(2000,) * len(vars): Fraction(1, 3), (0,) * len(vars): 1})
    return rational_lpoly(rng, vars, halves)


@pytest.mark.parametrize("name", VARSETS)
def test_dot_matches_reference(name):
    vars, halves = VARSETS[name]
    rng = random.Random(f"dot-{name}")
    assert LPoly.dot(vars, []) == vars.zero
    assert LPoly.dot(vars, [], 5) == vars.zero

    def check(triples, div=1):
        expect: dict = {}
        for w, a, b in triples:
            expect = ref_add(expect, ref_scale(ref_mul(dict(a.terms), dict(b.terms)),
                                               Fraction(w, div)))
        got = LPoly.dot(vars, triples, div)
        assert_canonical(got)
        assert dict(got.terms) == expect
        assert LPoly.dot(vars, iter(triples), div) == got
        return got

    def monomial():  # one term, a zero-free coefficient of either sign over 1..6
        exps = next(iter(rational_lpoly(rng, vars, halves).terms), (0,) * len(vars))
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 6))
        return LPoly(vars, {exps: c})

    for _ in range(60):
        triples = [(rng.randint(-4, 4), dot_operand(rng, vars, halves),
                    dot_operand(rng, vars, halves)) for _ in range(rng.randint(0, 5))]
        check(triples, rng.randint(1, 6))
        # one-term operands on either side, weights of both signs
        p, q = dot_operand(rng, vars, halves), monomial()
        w = rng.choice([-1, 1]) * rng.randint(1, 4)
        check([(w, p, q), (-w - 1, q, p), (w, q, monomial()), (1, vars.one, q)],
              rng.randint(1, 6))
        # integral operands over n > 1 (or n < 0): the denominator is |n|'s, reduced
        a, b = random_lpoly(rng, vars, 3, laurent=True), random_lpoly(rng, vars, 3, laurent=True)
        for div in (rng.randint(2, 6), -rng.randint(1, 6)):
            check([(rng.randint(-4, 4), a, b), (1, vars.one, a), (2, b, vars.one)], div)
        # a sum that cancels to zero after widening the denominator is the canonical zero
        a, b = dot_operand(rng, vars, halves), rational_lpoly(rng, vars, halves)
        for div in (1, rng.randint(2, 6)):
            got = check([(2, a, b), (1, vars.coerce(Fraction(1, 7)), b), (-1, b, a),
                         (-1, b, vars.coerce(Fraction(1, 7))), (-1, a, b)], div)
            assert got == vars.zero and got.den == 1
        with pytest.raises(ZeroDivisionError):
            LPoly.dot(vars, triples, 0)
    if len(vars) > 1:  # products reach one step inside the packed field, from both sides
        a, b = near_limit_operands(vars)
        triples = [(1, a, b), (-3, b, a), (2, a, vars.coerce(Fraction(1, 7)))]
        expect = ref_add(ref_scale(ref_mul(dict(a.terms), dict(b.terms)), -2),
                         ref_scale(dict(a.terms), Fraction(2, 7)))
        got = LPoly.dot(vars, triples)
        assert_canonical(got)
        assert dict(got.terms) == expect
        assert {e[1] for e in expect} >= {EXP_LIMIT - 2, 2 - EXP_LIMIT}
        with pytest.raises(ExponentLimitError):
            LPoly.dot(vars, [(1, a, a)])
    other = RING_Y if vars != RING_Y else RING_L
    zero_elsewhere = other.coerce(0)
    with pytest.raises(VariableMismatchError):
        LPoly.dot(vars, [(1, vars.coerce(1), zero_elsewhere)])
    with pytest.raises(VariableMismatchError):
        LPoly.dot(vars, [(0, zero_elsewhere, vars.coerce(1))])


def near_limit_operands(vars):
    """Two operands over ``(u,v)`` whose product reaches ``v^(+-(EXP_LIMIT - 2)/2)``."""
    top = EXP_LIMIT // 2
    a = LPoly(vars, {(2, top): Fraction(1, 3), (-4, -top): 2, (0, 0): -1})
    b = LPoly(vars, {(0, top - 2): 5, (2, 2 - top): Fraction(-1, 2), (-2, 0): 1})
    return a, b


def test_canonical_form():
    rng = random.Random(5)
    for vars, halves in VARSETS.values():
        for _ in range(40):
            a, b = rational_lpoly(rng, vars, halves), rational_lpoly(rng, vars, halves)
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            results = [a, b, a + b, a - b, a * b, -a, -(a - a), a.scale(c), a.scale(0), a - a,
                       a ** 2, a.adams(2), a.adams(3), a.div_int(6), a.div_int(-6),
                       LPoly(vars, {(0,) * len(vars): True})]
            if not b.is_zero():
                results.append((a * b).exact_div(b))
            for p in results:
                assert_canonical(p)
            # one value reached by different routes: equal, so equally hashed
            for x, y in ((a + b, b + a), (a * b, b * a), ((a + b) - b, a),
                         (LPoly(vars, a.terms), a), (a.scale(Fraction(1, 3)).scale(3), a),
                         ((a * 6).div_int(6), a), (a - a, vars.zero)):
                assert x == y and hash(x) == hash(y)


# the monomial maps the library uses: (map, source, halves, target, whole, half)
PRODUCTION_MAPS = {
    "spec_e": (spec_e, RING_L, False, RING_UV, {"L": U * V}, {}),
    "spec_chi_minus_y": (spec_chi_minus_y, RING_L, True, RING_Y, {}, {"L": -YHALF}),
    "chi_of_y": (chi_of_y, RING_Y, True, QQ, {}, {"y": 1}),
    "hodge_spec_chi": (lambda e: hodge_spec(e, "chi"), RING_UV, False, QQ,
                       {"u": 1, "v": 1}, {}),
    "hodge_spec_chi_y": (lambda e: hodge_spec(e, "chi-y"), RING_UV, False, RING_Y,
                         {"u": Y, "v": 1}, {}),
    "proj_space_y_sign": (lambda p: p.substitute(RING_Y, whole={"y": -Y}), RING_Y, False, RING_Y,
                          {"y": -Y}, {}),
    # Psi_r relabels the root -L^(1/2) to its r-th power: L^(1/2) -> (-1)^(r+1) L^(r/2)
    **{f"adams_{r}": (lambda p, r=r: p.adams(r), RING_L, True, RING_L, {},
                      {"L": (-1) ** (r + 1) * LHALF ** r}) for r in range(1, 7)},
}


@pytest.mark.parametrize("name", PRODUCTION_MAPS)
def test_production_maps_match_reference(name):
    fn, vars, halves, target, whole, half = PRODUCTION_MAPS[name]
    rng = random.Random(name)
    # the last inputs add terms one step inside the packed field of v, at either sign
    near = {(s * (EXP_LIMIT - 2),) * len(vars): Fraction(s, 3) for s in (1, -1)}
    for i in range(42):
        a = rational_lpoly(rng, vars, halves)
        if i >= 40:
            a = a + LPoly(vars, near) * (i - 39)
        got = fn(a)
        if not isinstance(got, LPoly):
            got = QQ.coerce(got)
        assert dict(got.terms) == ref_substitute(dict(a.terms), vars, target, whole, half)


def test_proj_space_classes_flip_the_sign_of_y():
    # T_{(-y)*}(P^d) stores the Euler-sequence coefficients at y -> -y
    for d in range(4):
        q = qy_series(d).pow_int(d + 1)
        for j in range(d + 1):
            coeff = q.coeffs[j].exact_div(1 + Y)
            expect = ref_substitute(dict(coeff.terms), RING_Y, RING_Y, {"y": -Y}, {})
            assert dict(proj_space_model(d).ty[f"P{d - j}"].terms) == expect


# -- packed monomial keys -------------------------------------------------------------

def exponent_vectors(vars):
    """Doubled exponent vectors: the first exponent unbounded, the rest inside the limit."""
    def entry(i, name):
        k = st.integers(-2 ** 70, 2 ** 70) if i == 0 else \
            st.integers(1 - EXP_LIMIT // 2, EXP_LIMIT // 2 - 1)
        odd = st.booleans() if name in HALF_ADMISSIBLE else st.just(False)
        return st.tuples(k, odd).map(lambda x: 2 * x[0] + x[1])
    return st.tuples(*(entry(i, name) for i, name in enumerate(vars.names)))


COEFFS = st.fractions(max_denominator=50).filter(bool)


@st.composite
def term_maps(draw):
    vars = draw(st.sampled_from([QQ, RING_L, RING_Y, RING_UV]))
    return vars, draw(st.dictionaries(exponent_vectors(vars), COEFFS, max_size=6))


@given(term_maps())
def test_packed_terms_round_trip(case):
    vars, terms = case
    p = LPoly(vars, terms)
    assert p.terms == terms
    assert all(type(k) is int for k in p.num)
    assert LPoly(vars, p.terms) == p


@given(term_maps())
def test_str_orders_terms_as_sorted_exponent_tuples(case):
    vars, terms = case
    parts = [str(LPoly(vars, {e: terms[e]})) for e in sorted(terms)]
    expect = "".join(t if not i or t.startswith("-") else "+" + t for i, t in enumerate(parts))
    assert str(LPoly(vars, terms)) == (expect or "0")


# integers (a polynomial of them has den == 1), +-1 and fractions
STR_COEFFS = st.one_of(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2)]),
                       st.integers(-10 ** 30, 10 ** 30).filter(bool), COEFFS)


@given(term_maps(), st.data())
def test_str_matches_the_first_printer(case, data):
    """``str`` against ``helpers.ref_str``, the printer it replaced, over all four rings."""
    vars, terms = case
    p = LPoly(vars, {e: data.draw(STR_COEFFS) for e in terms})
    for q in (p, -p, p * p.den, -p * p.den):  # both leading signs; numerators alone, den == 1
        assert str(q) == ref_str(q)
    assert str(LPoly(vars, {})) == ref_str(LPoly(vars, {})) == "0"


def test_str_of_unit_and_integer_coefficients():
    for p, text in ((-(Y ** 2) + 1, "1-y^2"), (-Y - 1, "-1-y"), (YHALF * 4 - 3, "-3+4*y^(1/2)"),
                    ((L - 2) * Fraction(-1, 2), "1-1/2*L"), (U * V - U ** -1, "-u^(-1)+uv")):
        assert str(p) == ref_str(p) == text


def test_exponent_limit_guards():
    # every way into a packed field of v: construction, products, Adams, substitution,
    # negative powers and exact division
    with pytest.raises(ExponentLimitError, match="2\\^61"):
        LPoly(RING_UV, {(0, EXP_LIMIT): 1})
    with pytest.raises(ExponentLimitError):
        LPoly(RING_UV, {(0, -EXP_LIMIT): 1})
    assert LPoly(RING_UV, {(0, EXP_LIMIT): 0}).is_zero()
    inside = LPoly(RING_UV, {(0, EXP_LIMIT - 2): 1})
    assert str(inside) == f"v^{(EXP_LIMIT - 2) // 2}"
    far = LPoly(RING_UV, {(2 ** 80, 2 - EXP_LIMIT): 1})  # the first exponent is unbounded
    assert str(far) == f"u^{2 ** 79}v^({1 - EXP_LIMIT // 2})"
    with pytest.raises(ExponentLimitError):
        inside * V
    assert inside * V ** -1 == LPoly(RING_UV, {(0, EXP_LIMIT - 4): 1})
    half_way = LPoly(RING_UV, {(0, EXP_LIMIT // 2): 1, (2, 0): 3})
    assert half_way.adams(1) is half_way
    with pytest.raises(ExponentLimitError):
        half_way.adams(2)
    assert LPoly(RING_UV, {(0, EXP_LIMIT // 2 - 2): 1, (2, 0): 3}).adams(2) == \
        LPoly(RING_UV, {(0, EXP_LIMIT - 4): 1, (4, 0): 3})
    with pytest.raises(ExponentLimitError):
        LPoly(RING_L, {(EXP_LIMIT,): 1}).substitute(RING_UV, whole={"L": U * V})
    assert LPoly(RING_L, {(EXP_LIMIT - 2,): 1}).substitute(RING_UV, whole={"L": U * V}) == \
        LPoly(RING_UV, {(EXP_LIMIT - 2, EXP_LIMIT - 2): 1})
    with pytest.raises(ExponentLimitError):
        (inside * V ** -2) ** -2
    low = LPoly(RING_UV, {(0, 2 - EXP_LIMIT): 1})
    assert (low * (1 + U)).exact_div(1 + U) == low
    with pytest.raises(ExponentLimitError):
        low.exact_div(V)

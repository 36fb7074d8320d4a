"""Seeded randomized verification suites behind the ``verify`` command, and the
reference routes they check the production routes against.

Each suite returns a list of {name, status, detail} records; a failing check
carries the counterexample in ``detail``, and :func:`run_suite` appends the
``verify`` command line that reruns it.  Identical (suite, order, seed)
inputs produce identical reports.  The reference routes (pre-lambda series,
the punctual series, Qhat_y, pushforwards, power operations, t -> -t, one-factor
homological exponentials, the motivic route and the normalized y -> 1 limit
of a Pontrjagin series) live here and nowhere else: only ``verify`` and the
tests call them, so no other command pays for loading them.  So does the container they
build, :class:`PontSeries` (one multiset -> coefficient dict per grading, with the Pontrjagin
product), with :func:`collect` of a ``pontrjagin.exp_terms`` walk and :func:`pont_degree`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from .lpoly import LPoly, VarSet, QQ, RING_L, RING_UV, RING_Y
from .series import TSeries
from .lambda_power import euler_exp, euler_log, power, pre_lambda_polyring
from . import motives as mo
from . import hirzebruch as hz
from . import pontrjagin as po


# -- the Pontrjagin series container -----------------------------------------

Multiset = tuple[tuple[int, str], ...]


class PontElement:
    """Homogeneous piece of grading n: multisets of atoms with sum of k's = n."""

    __slots__ = ("n", "terms")

    def __new__(cls, n: int, terms: dict[Multiset, LPoly]):
        """Multisets are sorted; two spellings of one multiset add their coefficients."""
        clean = {}
        for ms, c in terms.items():
            if sum(k for k, _ in ms) != n:
                raise ValueError(f"multiset {ms} does not have total index {n}")
            if any(k < 1 for k, _ in ms):
                raise ValueError(f"atom index must be >= 1 in {ms}")
            ms = tuple(sorted(ms))
            clean[ms] = clean[ms] + c if ms in clean else c
        return cls._of(n, clean)

    @classmethod
    def _of(cls, n: int, terms: dict[Multiset, LPoly]) -> "PontElement":
        """Sorted multisets of total index ``n`` taken as they are; zero coefficients drop."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "terms", {ms: c for ms, c in terms.items() if c.num})
        return obj

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PontElement is immutable")

    def __reduce__(self):
        return PontElement, (self.n, self.terms)

    def __eq__(self, other):
        return (isinstance(other, PontElement)
                and self.n == other.n and self.terms == other.terms)


class PontSeries:
    """t-graded element of the free Pontrjagin ring, truncated at a fixed order.

    ``PontSeries(model, ring, dicts)`` takes one multiset -> coefficient dict
    per grading n = 0..N, coerces each coefficient into ``ring`` and checks
    each dict as :class:`PontElement` does.
    """

    __slots__ = ("model", "ring", "components")

    def __new__(cls, model: hz.HomologyModel, ring: VarSet, dicts):
        return cls._with(model, ring, tuple(
            PontElement(n, {ms: ring.coerce(c) for ms, c in d.items()})
            for n, d in enumerate(dicts)))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PontSeries is immutable")

    def __reduce__(self):
        return PontSeries, (self.model, self.ring, [el.terms for el in self.components])

    @property
    def order(self) -> int:
        return len(self.components) - 1

    @classmethod
    def _of(cls, model, ring, dicts) -> "PontSeries":
        """``PontSeries(...)`` of dicts fit for :meth:`PontElement._of`; nothing is checked."""
        return cls._with(model, ring, tuple(PontElement._of(n, d) for n, d in enumerate(dicts)))

    @classmethod
    def _with(cls, model, ring, components: tuple) -> "PontSeries":
        """The series of one :class:`PontElement` per grading, taken as they are."""
        obj = object.__new__(cls)
        for attr, val in (("model", model), ("ring", ring), ("components", components)):
            object.__setattr__(obj, attr, val)
        return obj

    @classmethod
    def unit(cls, model, ring, order: int) -> "PontSeries":
        return cls._of(model, ring, [{(): ring.one}] + [{}] * order)

    def _check(self, other: "PontSeries") -> None:
        if self.model is not other.model and self.model != other.model:
            raise ValueError("Pontrjagin operands live over different models")
        if self.order != other.order or self.ring != other.ring:
            raise ValueError("Pontrjagin operands have different order or ring")

    def __add__(self, other: "PontSeries") -> "PontSeries":
        self._check(other)
        out = []
        for a, b in zip(self.components, other.components):
            d = dict(a.terms)
            for ms, c in b.terms.items():
                d[ms] = d.get(ms, self.ring.zero) + c
            out.append(d)
        return PontSeries._of(self.model, self.ring, out)

    def scale(self, c) -> "PontSeries":
        c = self.ring.coerce(c)
        return PontSeries._of(
            self.model, self.ring,
            [{ms: cc * c for ms, cc in el.terms.items()} for el in self.components])

    def mul(self, other: "PontSeries") -> "PontSeries":
        """The Pontrjagin product: multiset union, t-degrees add."""
        self._check(other)
        n = self.order
        pairs = [dict() for _ in range(n + 1)]  # target multiset -> its (1, c1, c2) triples
        for i, a in enumerate(self.components):
            for j in range(0, n - i + 1):
                tgt = pairs[i + j]
                for ms1, c1 in a.terms.items():
                    for ms2, c2 in other.components[j].terms.items():
                        tgt.setdefault(tuple(sorted(ms1 + ms2)), []).append((1, c1, c2))
        return PontSeries._of(self.model, self.ring, [
            {ms: LPoly.dot(self.ring, t) for ms, t in d.items()} for d in pairs])

    __mul__ = mul

    def __eq__(self, other):
        return (isinstance(other, PontSeries)
                and self.model == other.model and self.ring == other.ring
                and self.components == other.components)

    def __repr__(self):
        return f"PontSeries[{self.model.name}; {self.ring}; N={self.order}]"


def collect(model: hz.HomologyModel, b: TSeries, terms) -> PontSeries:
    """A walk's terms as the series over ``b.ring`` through t^``b.order``."""
    dicts = [dict() for _ in range(b.order + 1)]
    for n, ms, c in terms:
        dicts[n][ms] = c
    return PontSeries._of(model, b.ring, dicts)


def pont_degree(model: hz.HomologyModel, s: PontSeries) -> TSeries:
    """Push a Pontrjagin series down to a point: genus-level generating series.

    An atom contributes 1 when its basis class has degree zero and kills the
    term otherwise; this is a ring homomorphism onto scalar t-series.
    """
    if not model.proper:
        raise ValueError(f"model {model.name} is not proper; no degree map")
    degs = model.degs()
    return TSeries(s.ring, [
        LPoly.dot(s.ring, [(1, c, s.ring.one) for ms, c in el.terms.items()
                           if all(degs[b] == 0 for _, b in ms)])
        for el in s.components])


# -- reference routes ----------------------------------------------------------

def pre_lambda(ring: VarSet, m, order: int) -> TSeries:
    """lambda_t(m) = exp(sum_r Psi_r(m) t^r / r), a normalized series."""
    m = ring.coerce(m)
    return TSeries.from_terms(ring, order, {r: m.adams(r).div_int(r)
                                            for r in range(1, order + 1)}).exp()


def qyhat_series(order: int) -> TSeries:
    """Qhat_y(a) = Q_y(a(1+y))/(1+y) = a(1+y)/(1 - e^(-a(1+y))) - a y, the normalized series."""
    one_plus_y = RING_Y.one + mo.Y
    den = TSeries(RING_Y, [(one_plus_y ** j).scale(Fraction((-1) ** j, factorial(j + 1)))
                           for j in range(order + 1)])
    return den.invert() + TSeries.from_terms(RING_Y, order, {1: -mo.Y})


def d_push(model: hz.HomologyModel, k: int, hclass: po.HClass) -> PontElement:
    """d^k_* of a homology class: linear expansion into atoms (k, basis id)."""
    if k < 1:
        raise ValueError("pushforward index must be >= 1")
    return PontElement(k, {((k, b),): c for b, c in hclass.items()})


def power_op(k: int, s: PontSeries, order: int | None = None) -> PontSeries:
    """P_k: atoms (j, b) -> (jk, b), gradings scale by k; a ring map for the product."""
    if k < 1:
        raise ValueError("power operation index must be >= 1")
    n = s.order if order is None else order
    out = [dict() for _ in range(n + 1)]
    for m, el in enumerate(s.components[: n // k + 1]):
        for ms, c in el.terms.items():
            out[m * k][tuple((j * k, b) for j, b in ms)] = c
    return PontSeries._of(s.model, s.ring, out)


def subst_neg_t(s: PontSeries) -> PontSeries:
    """t -> -t: flip the sign of every odd component."""
    return PontSeries._of(s.model, s.ring, [
        {ms: (-c if n % 2 else c) for ms, c in el.terms.items()}
        for n, el in enumerate(s.components)])


def pont_exp(arg: PontSeries) -> PontSeries:
    """exp for the Pontrjagin product, given a vanishing 0-th component: one pass of the graded
    recurrence n E_n = sum_{k<=n} k A_k E_(n-k), one ``LPoly.dot`` per multiset of E_n."""
    if arg.components[0].terms:
        raise ValueError("Pontrjagin exp needs zero constant component")
    ring, out = arg.ring, [{(): arg.ring.one}]
    for n in range(1, arg.order + 1):
        triples = {}  # target multiset -> its (k, c1, c2) triples
        for k in range(1, n + 1):
            for ms1, c1 in arg.components[k].terms.items():
                for ms2, c2 in out[n - k].items():
                    triples.setdefault(tuple(sorted(ms1 + ms2)), []).append((k, c1, c2))
        out.append({ms: c for ms, t in triples.items() if (c := LPoly.dot(ring, t, n)).num})
    return PontSeries._of(arg.model, ring, out)


def hom_exp_inv(model: hz.HomologyModel, gamma: po.HClass, k: int, order: int,
                ring: VarSet = RING_Y) -> PontSeries:
    """(1 - t^k d^k_*)^(-gamma) = exp(sum_r d^{rk}_*(Psi_r gamma) t^{rk} / r); over ``QQ``,
    the Chern level, Psi_r is the identity."""
    gamma = {b: ring.coerce(c) for b, c in gamma.items()}
    dicts = [dict() for _ in range(order + 1)]
    for r in range(1, order // k + 1):
        g = gamma if ring == QQ else hz.adams_h(model, r, gamma)
        for b, c in g.items():
            dicts[r * k][((r * k, b),)] = c * Fraction(1, r)
    return pont_exp(PontSeries(model, ring, dicts))


def hom_exponentiation(model: hz.HomologyModel, a: TSeries, gamma: po.HClass) -> PontSeries:
    """(1 + sum a_n t^n d^n_*)^gamma: prod_k (1 - t^k d^k_*)^(-b_k gamma) over the Euler
    exponents b_k of a, taken in its own coefficient ring."""
    b = euler_log(a)
    return collect(model, b, po.exp_terms(model, gamma, b))


def mt2_series(model: hz.HomologyModel, a_motivic: TSeries, order: int) -> PontSeries:
    """Hirzebruch transformation of a motivic exponentiation (A(t))^X:
    apply chi_{-y} to the coefficients of A, then exponentiate homologically."""
    if a_motivic.ring != RING_L:
        raise ValueError("mt2_series expects a series over the motivic L ring")
    if a_motivic.order < order:
        raise mo.UnsupportedRangeError(f"series stops at t^{a_motivic.order}, need t^{order}")
    a_y = mo.map_series(TSeries(RING_L, a_motivic.coeffs[: order + 1]), "chi-y")
    return hom_exponentiation(model, a_y, model.ty)


def _y1_limit(c: LPoly, m: int, what: str, key) -> LPoly:
    """``hirzebruch.y1_limit`` as a Chern-level coefficient; a pole names ``what key``."""
    try:
        return QQ.coerce(hz.y1_limit(c, m))
    except ArithmeticError as exc:
        raise mo.TwoRouteMismatchError(f"pole at y=1 for {what} {key}") from exc


def normalized_y1_limit(s: PontSeries) -> PontSeries:
    """The normalization Psi_(1-y) at y = 1, exactly: a term over a multiset of total
    homological degree m goes through ``hirzebruch.y1_limit`` with that m (a pole raises)."""
    if s.ring != RING_Y:
        raise ValueError("normalization limit applies to y-level series")
    degs = s.model.degs()
    return PontSeries._of(s.model, QQ, [
        {ms: _y1_limit(c, sum(degs[b] for _, b in ms), "multiset", ms)
         for ms, c in el.terms.items()} for el in s.components])


def y1_limit_atoms(model: hz.HomologyModel, atoms: dict) -> dict:
    """:func:`normalized_y1_limit` on ``pontrjagin.log_atoms``, atom (j, x) in degree deg x.

    The limit is a ring map where finite, so it commutes with the atomwise exponential of
    ``exp_terms``, which is injective on atoms: the limited atoms are the limit's atoms."""
    degs = model.degs()
    lim = {(j, x): _y1_limit(c, degs[x], "atom", (j, x)) for (j, x), c in atoms.items()}
    return {a: c for a, c in lim.items() if c.num}


def _random_lpoly(rng, vars: VarSet, max_deg=3, terms=3, laurent=False, halves=False) -> LPoly:
    out = {}
    for _ in range(rng.randint(0, terms)):
        exps = []
        for name in vars.names:
            lo = -max_deg if laurent else 0
            e = 2 * rng.randint(lo, max_deg)
            if halves and rng.random() < 0.3:
                e += 1
            exps.append(e)
        out[tuple(exps)] = rng.randint(-4, 4)
    return LPoly(vars, out)


def _random_series(rng, ring, order, normalized=False):
    coeffs = [_random_lpoly(rng, ring, max_deg=2, terms=3) for _ in range(order + 1)]
    if normalized:
        coeffs[0] = ring.one
    return TSeries(ring, coeffs)


def _random_hclass(rng, model):
    out = {}
    for b, _ in model.basis:
        if rng.random() < 0.75:
            p = _random_lpoly(rng, RING_Y, max_deg=2, terms=2)
            if not p.is_zero():
                out[b] = p
    return out


def _run_all(*checks) -> list[dict]:
    """Run each check; its record is named after the function, with dashes for underscores."""
    out = []
    for fn in checks:
        name = fn.__name__.replace("_", "-")
        try:
            fn()
            out.append({"name": name, "status": "ok"})
        except Exception as exc:
            out.append({"name": name, "status": "fail", "detail": str(exc)})
    return out


def _require(cond: bool, detail) -> None:
    """Fail with ``detail``, a string or a function that formats one only on failure."""
    if not cond:
        raise AssertionError(detail() if callable(detail) else detail)


# -- lambda / series suite ---------------------------------------------------

def suite_lambda(order: int, seed: int) -> list[dict]:
    rng = random.Random(seed)

    def lpoly_ring_axioms():
        for _ in range(200):
            a = _random_lpoly(rng, RING_UV, max_deg=6, terms=4)
            b = _random_lpoly(rng, RING_UV, max_deg=6, terms=4)
            c = _random_lpoly(rng, RING_UV, max_deg=6, terms=4)
            ab = a * b
            _require(ab * c == a * (b * c), lambda: f"assoc: {a}; {b}; {c}")
            _require(a * (b + c) == ab + a * c, lambda: f"distrib: {a}; {b}; {c}")
            _require(ab == b * a, lambda: f"comm: {a}; {b}")

    def adams_composition():
        for _ in range(100):
            p = _random_lpoly(rng, RING_L, laurent=True, halves=True)
            r, s = rng.randint(1, 5), rng.randint(1, 5)
            _require(p.adams(r).adams(s) == p.adams(r * s),
                     lambda: f"adams compose: {p}, r={r}, s={s}")

    def exact_div_roundtrip():
        for _ in range(100):
            a = _random_lpoly(rng, RING_UV)
            b = _random_lpoly(rng, RING_UV)
            if b.is_zero():
                continue
            _require((a * b).exact_div(b) == a, lambda: f"divide: {a}; {b}")

    def exp_log_roundtrip():
        for _ in range(100):
            a = _random_series(rng, RING_Y, order)
            z = TSeries(RING_Y, [RING_Y.zero] + list(a.coeffs[1:]))
            _require(z.exp().log() == z, lambda: f"exp-log: {z}")
            n = TSeries(RING_Y, [RING_Y.one] + list(a.coeffs[1:]))
            _require(n.log().exp() == n, lambda: f"log-exp: {n}")

    def exp_additivity():
        for _ in range(50):
            a = TSeries(RING_Y, [RING_Y.zero] + list(_random_series(rng, RING_Y, order).coeffs[1:]))
            b = TSeries(RING_Y, [RING_Y.zero] + list(_random_series(rng, RING_Y, order).coeffs[1:]))
            _require((a + b).exp() == a.exp() * b.exp(), lambda: f"exp-add: {a}; {b}")

    def subst_composition():
        for _ in range(50):
            a = _random_series(rng, RING_Y, order)
            j, k = rng.randint(1, 3), rng.randint(1, 3)
            _require(a.subst(k).subst(j) == a.subst(j * k), lambda: f"subst: {a}, j={j}, k={k}")

    def euler_roundtrips():
        for _ in range(100):
            b = TSeries._of(RING_Y, [RING_Y.zero] + [_random_lpoly(rng, RING_Y)
                                                     for _ in range(order)])
            _require(euler_log(euler_exp(b)) == b, lambda: f"log(exp): {b}")
            a = _random_series(rng, RING_Y, order, normalized=True)
            _require(euler_exp(euler_log(a)) == a, lambda: f"exp(log): {a}")

    def power_structure_axioms():
        n = min(order, 6)
        for _ in range(100):
            a = _random_series(rng, RING_Y, n, normalized=True)
            b = _random_series(rng, RING_Y, n, normalized=True)
            m = _random_lpoly(rng, RING_Y, max_deg=2, terms=2)
            mm = _random_lpoly(rng, RING_Y, max_deg=2, terms=2)
            la = euler_log(a)  # taken once: a^e is pa(e)
            pa = lambda e: euler_exp(la * e)
            a_m, a_mm = pa(m), pa(mm)
            _require(pa(RING_Y.zero) == TSeries.one(RING_Y, n), lambda: f"(i): {a}")
            _require(pa(RING_Y.one) == a, lambda: f"(ii): {a}")
            _require(power(a * b, m) == a_m * power(b, m), lambda: f"(iii): {a}; {b}; {m}")
            _require(pa(m + mm) == a_m * a_mm, lambda: f"(iv): {a}; {m}; {mm}")
            # euler_exp is a bijection, so (a^mm)^m == a^(m mm) compares exponents
            _require(euler_log(a_mm) * m == la * (m * mm), lambda: f"(v): {a}; {m}; {mm}")
            k = rng.randint(1, 3)
            _require(power(a.subst(k), m) == a_m.subst(k), lambda: f"(vii): {a}; {m}; k={k}")
        one_plus = TSeries.from_terms(RING_Y, max(n, 1), {0: 1, 1: 1})
        m = _random_lpoly(rng, RING_Y, max_deg=2, terms=2)
        s = power(one_plus, m)
        _require(s.coeffs[1] == m,
                 lambda: f"(vi): linear term of (1+t)^({m}) is {s.coeffs[1]}")

    def polyring_lambda_consistency():
        for _ in range(50):
            p = _random_lpoly(rng, RING_UV, max_deg=3, terms=3)
            n = rng.randint(1, max(1, min(order, 6)))
            _require(pre_lambda_polyring(p, n) == pre_lambda(RING_UV, p, n),
                     lambda: f"polyring lambda: {p}")

    def chi_power_compatibility():
        n = min(order, 6)
        for _ in range(25):
            coeffs = [RING_L.one] + [_random_lpoly(rng, RING_L, max_deg=2, terms=2)
                                     for _ in range(n)]
            a = TSeries(RING_L, coeffs)
            m = _random_lpoly(rng, RING_L, max_deg=2, terms=2)
            lhs = mo.map_series(power(a, m), "chi-y")
            rhs = power(mo.map_series(a, "chi-y"), mo.spec_chi_minus_y(m))
            _require(lhs == rhs, lambda: f"chi_-y power compat: {a}; {m}")

    return _run_all(lpoly_ring_axioms, adams_composition, exact_div_roundtrip,
                    exp_log_roundtrip, exp_additivity, subst_composition, euler_roundtrips,
                    power_structure_axioms, polyring_lambda_consistency,
                    chi_power_compatibility)


# -- motives suite -----------------------------------------------------------

def suite_motives(order: int, seed: int) -> list[dict]:
    rng = random.Random(seed)

    def eq9_closed_forms():
        for d in (1, 2, 3, 4):
            mo.punctual_exponents_small(d)
        _require(mo.punctual_exponents_small(1).coeffs[2:] == (RING_L.zero,) * 2,
                 "curve exponents should vanish past k=1")
        _require(mo.punctual_exponents_small(2).coeffs[1:] ==
                 (RING_L.one, mo.L, mo.L ** 2), "surface exponents")

    def surface_two_route():
        _require(mo.hilb_motive_series(1, 2, 3) == mo.punctual_hilb_small(2),
                 "surface Euler product vs lambda-binomial series")

    def chi_alpha_threefold():
        for k, a in enumerate(mo.punctual_exponents_small(3).coeffs[1:], start=1):
            _require(mo.spec_chi(a) == k, lambda: f"chi(alpha_{k}) = {mo.spec_chi(a)} != {k}")

    def curve_collapse():
        n = min(order, 6)
        for _ in range(10):
            x = _random_lpoly(rng, RING_L, max_deg=2, terms=3)
            lhs = mo.map_series(mo.hilb_motive_series(x, 1, n), "e")
            rhs = mo.kapranov_zeta(mo.spec_e(x), n)
            _require(lhs == rhs, lambda: f"curve collapse at [X]={x}")

    def config_chi_binomial():
        for d in range(4):
            x = mo.proj_space_class(d)
            s = mo.map_series(mo.config_space_series(x, min(order, 6)), "chi")
            for n, c in enumerate(s.coeffs):
                _require(c == comb(d + 1, n), lambda: f"config chi: d={d}, n={n}, got {c}")

    def specialization_homs():
        for _ in range(50):
            a = _random_lpoly(rng, RING_L, laurent=True, halves=True)
            b = _random_lpoly(rng, RING_L, laurent=True, halves=True)
            _require(mo.spec_chi_minus_y(a * b) == mo.spec_chi_minus_y(a) * mo.spec_chi_minus_y(b),
                     lambda: f"chi_-y hom: {a}; {b}")
            _require(mo.spec_chi(a * b) == mo.spec_chi(a) * mo.spec_chi(b),
                     lambda: f"chi hom: {a}; {b}")
            ai = _random_lpoly(rng, RING_L)
            bi = _random_lpoly(rng, RING_L)
            _require(mo.spec_e(ai * bi) == mo.spec_e(ai) * mo.spec_e(bi),
                     lambda: f"e hom: {ai}; {bi}")

    def virtual_alpha_chi():
        for k in range(1, 7):
            got = mo.spec_chi(mo.virtual_alpha(k))
            _require(got == k, lambda: f"chi(virtual alpha_{k}) = {got} != {k}")

    def macmahon_fixture():
        m = mo.macmahon_series(max(order, 8))
        _require(tuple(m.coeffs[:5]) == tuple(Fraction(c) for c in (1, 1, 3, 6, 13)),
                 lambda: f"MacMahon prefix: {m.coeffs[:5]}")

    return _run_all(eq9_closed_forms, surface_two_route, chi_alpha_threefold, curve_collapse,
                    config_chi_binomial, specialization_homs, virtual_alpha_chi,
                    macmahon_fixture)


# -- hirzebruch suite ---------------------------------------------------------

def _bernoulli_plus(n: int) -> list[Fraction]:
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    if n >= 1:
        b[1] = -b[1]
    return b


def _eval_y(s: TSeries, c: Fraction) -> TSeries:
    return s.map_coeffs(QQ, lambda p: p.substitute(QQ, whole={"y": c}).as_fraction())


def suite_hirzebruch(order: int, seed: int) -> list[dict]:
    n = max(order, 8)

    def qy_specializations():
        q = hz.qy_series(n)
        bern = _bernoulli_plus(n)
        todd = TSeries(QQ, [bern[j] / factorial(j) for j in range(n + 1)])
        _require(_eval_y(q, Fraction(0)) == todd, "Q_y at y=0 vs Bernoulli oracle")
        _require(_eval_y(q, Fraction(-1)) == TSeries.from_terms(QQ, n, {1: 1}),
                 "Q_y at y=-1 should be the bare Chern root")

    def qyhat_defining_relation():
        q = hz.qy_series(n)
        qh = qyhat_series(n)
        opy = RING_Y.one + mo.Y
        lhs = TSeries(RING_Y, [c * opy for c in qh.coeffs])
        rhs = TSeries(RING_Y, [q.coeffs[j] * opy ** j for j in range(n + 1)])
        _require(lhs == rhs, "(1+y) Qhat_y(a) vs Q_y(a(1+y))")

    def degree_chi_y():
        for d in range(5):
            m = hz.proj_space_model(d)
            _require(m.degree_of(m.ty) == mo.hodge_spec(m.e_poly, "chi-y"),
                     lambda: f"degree vs chi_-y for P{d}")

    def chern_limit_r_independence():
        models = [hz.proj_space_model(d) for d in (1, 2, 3)]
        models.append(hz.product_model(hz.proj_space_model(1), hz.proj_space_model(1)))
        for m in models:
            for r in (1, 2, 3, 4):
                hz.chern_class_of(m, r)

    return _run_all(qy_specializations, qyhat_defining_relation, degree_chi_y,
                    chern_limit_r_independence)


# -- pontrjagin suite ---------------------------------------------------------

def _random_pont(rng, model, order):
    dicts = []
    for m in range(order + 1):
        d = {}
        for _ in range(rng.randint(0, 2)):
            if m == 0:
                ms = ()
            else:
                parts, left = [], m
                while left > 0:
                    k = rng.randint(1, left)
                    parts.append((k, rng.choice(model.basis)[0]))
                    left -= k
                ms = tuple(sorted(parts))
            c = LPoly(RING_Y, {(2 * rng.randint(0, 2),): rng.randint(-3, 3)})
            if not c.is_zero():
                d[ms] = d.get(ms, RING_Y.zero) + c
        dicts.append(d)
    return PontSeries(model, RING_Y, dicts)


def kind_series(model, kind: str, d: int | None, order: int) -> PontSeries:
    """The class series of a kind through t^order: the terms of its own exponents, collected."""
    b = po.class_exponents(kind, d, order)
    return collect(model, b, po.class_terms(model, kind, b))


def _limit_atoms_match(model, y_scalars: TSeries, q_scalars: TSeries) -> bool:
    """y -> 1 of the atoms of the stored class over ``y_scalars`` against the atoms of the
    Chern class over ``q_scalars``: the two series agree through their order."""
    return (y1_limit_atoms(model, po.log_atoms(model, model.ty, y_scalars)) ==
            po.log_atoms(model, hz.chern_class_of(model), q_scalars))


def suite_pontrjagin(order: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    point, p1, p2, p3 = map(hz.proj_space_model, range(4))

    def pont_ring_laws():
        for _ in range(100):
            a = _random_pont(rng, p1, 5)
            b = _random_pont(rng, p1, 5)
            c = _random_pont(rng, p1, 5)
            ab = a * b
            _require(ab == b * a, "pontrjagin commutativity")
            _require(ab * c == a * (b * c), "pontrjagin associativity")
            _require(a * (b + c) == ab + a * c, "pontrjagin distributivity")
            _require(PontSeries.unit(p1, RING_Y, 5) * a == a, "pontrjagin unit")

    def power_op_laws():
        for _ in range(100):
            gamma = _random_hclass(rng, p1)
            r, k = rng.randint(1, 3), rng.randint(1, 3)
            lhs = power_op(k, PontSeries(p1, RING_Y, [
                d_push(p1, r, gamma).terms if m == r else {}
                for m in range(r + 1)]), order=r * k)
            rhs = PontSeries(p1, RING_Y, [
                d_push(p1, r * k, gamma).terms if m == r * k else {}
                for m in range(r * k + 1)])
            _require(lhs == rhs, lambda: f"P_k d^r = d^rk at r={r}, k={k}")
            a = _random_pont(rng, p1, 2)
            _require(power_op(2, power_op(3, a, order=12), order=12) ==
                     power_op(6, a, order=12), "P_2 P_3 = P_6")

    def hom_exp_additivity():
        for _ in range(100):
            g1 = _random_hclass(rng, p1)
            g2 = _random_hclass(rng, p1)
            tot = dict(g1)
            for b, c in g2.items():
                tot[b] = tot.get(b, RING_Y.zero) + c
            k = rng.randint(1, 2)
            _require(hom_exp_inv(p1, tot, k, 5) ==
                     hom_exp_inv(p1, g1, k, 5) * hom_exp_inv(p1, g2, k, 5),
                     "hom exp additivity in the class")

    def power_op_intertwines_exp():
        for k in (2, 3):
            gamma = _random_hclass(rng, p1)
            _require(power_op(k, hom_exp_inv(p1, gamma, 1, 4), order=4 * k) ==
                     hom_exp_inv(p1, gamma, k, 4 * k),
                     lambda: f"P_{k} of one-factor exponential")

    def degree_intertwines_pre_lambda():
        for _ in range(100):
            gamma = _random_hclass(rng, p2)
            k = rng.randint(1, 3)
            lhs = pont_degree(p2, hom_exp_inv(p2, gamma, k, 6))
            rhs = pre_lambda(RING_Y, p2.degree_of(gamma), 6).subst(k)
            _require(lhs == rhs, "degree of exponential vs pre-lambda")

    def mt2_hilb_config_coherence():
        _require(mt2_series(p2, mo.hilb_motive_series(1, 2, 3), 3) ==
                 kind_series(p2, "hilb", 2, 3), "mt2 vs surface hilb series")
        one_plus = TSeries.from_terms(RING_L, 4, {0: 1, 1: 1})
        for model in (point, p1):
            _require(kind_series(model, "config", None, 4) ==
                     mt2_series(model, one_plus, 4), "config vs mt2(1+t)")

    def chern_normalization_limit():
        for model, d in ((p1, 1), (p2, 2), (p3, 3)):
            _require(normalized_y1_limit(kind_series(model, "hilb", d, 3)) ==
                     kind_series(model, "chern", d, 3),
                     lambda: f"y->1 normalization limit on {model.name}")
        for model, d in ((p1, 1), (p2, 2)):
            _require(_limit_atoms_match(model, po.class_exponents("hilb", d, order),
                                        po.class_exponents("chern", d, order)),
                     lambda: f"y->1 limit of the log atoms on {model.name} at t^{order}")

    def virtual_two_route():
        # the reference route: hom_exp_inv factors over the Euler-log scalars
        a_y = mo.map_series(mo.virtual_hilb_series(1, 3), "chi-y")
        ref = PontSeries.unit(p3, RING_Y, 3)
        for k, s in enumerate(euler_log(a_y.subst(1, -1)).coeffs[1:], start=1):
            ref = ref * hom_exp_inv(p3, {b: c * s for b, c in p3.ty.items()}, k, 3)
        _require(kind_series(p3, "virtual", 3, 3) == subst_neg_t(ref), "virtual class two routes")

    def eq220_sign_relation():
        # the Chern-class MNOP statement: y -> 1 of the virtual classes is the Aluffi series
        n = min(order, 3)
        for model in (point, p1, p3, hz.product_model(p1, p1)):
            _require(normalized_y1_limit(kind_series(model, "virtual", 3, n)) ==
                     kind_series(model, "aluffi", 3, n),
                     lambda: f"Chern-MNOP on {model.name} at t^{n}")
            _require(_limit_atoms_match(model, po.class_exponents("virtual", 3, order),
                                        po.class_exponents("aluffi", 3, order)),
                     lambda: f"Chern-MNOP on the log atoms of {model.name} at t^{order}")

    def aluffi_macmahon_degree():
        deg = pont_degree(point, kind_series(point, "aluffi", 3, max(order, 8)))
        _require(deg.subst(1, -1) == mo.macmahon_series(max(order, 8)),
                 "point-level Aluffi degree vs MacMahon")

    return _run_all(pont_ring_laws, power_op_laws, hom_exp_additivity, power_op_intertwines_exp,
                    degree_intertwines_pre_lambda, mt2_hilb_config_coherence,
                    chern_normalization_limit, virtual_two_route, eq220_sign_relation,
                    aluffi_macmahon_degree)


SUITES = {
    "lambda": suite_lambda,
    "motives": suite_motives,
    "hirzebruch": suite_hirzebruch,
    "pontrjagin": suite_pontrjagin,
}


def run_suite(name: str, order: int, seed: int) -> list[dict]:
    """The records of one suite, or of all of them with each name prefixed by its suite's.

    A failing record's detail ends with the command that reruns its suite.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    out = []
    for key in (SUITES if name == "all" else (name,)):
        for rec in SUITES[key](order, seed):
            if rec["status"] == "fail":
                rec["detail"] += (f"; reproduce: motivic-cc verify --suite {key} "
                                  f"--order {order} --seed {seed}, check {rec['name']}")
            out.append({**rec, "name": f"{key}/{rec['name']}"} if name == "all" else rec)
    return out

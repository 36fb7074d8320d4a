"""Pre-lambda structures, Euler products and the induced power structure.

The pre-lambda series of a coefficient m is

    (1 - t)^(-m) := lambda_t(m) = exp( sum_r Psi_r(m) t^r / r ),

with Psi_r the ring's Adams endomorphisms.  Every normalized series A then
factors uniquely as an Euler product prod_k (1 - t^k)^(-b_k); decomposing,
re-assembling and exponentiating by ring elements,

    A^m := prod_k (1 - t^k)^(-m b_k),

is the whole calculus this module provides.  One relation ties the log
coefficients c_m = [t^m] log A to the exponents,

    m c_m = sum_{k | m} k Psi_{m/k}(b_k),

and both directions read it: ``euler_exp`` sums it for c_m, and ``euler_log``
peels the k = m term off to solve for b_m one index at a time.  The test
suite validates both against Moebius inversion and a brute-force divide-out
oracle before anything else relies on them.
"""

from __future__ import annotations

from .lpoly import EXP_LIMIT, LPoly, VarSet
from .series import IntegralityError, NonUnitError, TSeries


class EulerExponents:
    """The exponent sequence b_1 .. b_N of prod_k (1 - t^k)^(-b_k)."""

    __slots__ = ("ring", "exps")

    def __new__(cls, ring: VarSet, exps):
        return cls._of(ring, tuple(ring.coerce(b) for b in exps))

    @classmethod
    def _of(cls, ring: VarSet, exps: tuple) -> "EulerExponents":
        """Exponents already in ``ring``: nothing is coerced."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "exps", exps)
        return obj

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("EulerExponents is immutable")

    def __reduce__(self):
        return EulerExponents, (self.ring, self.exps)

    def __eq__(self, other):
        if not isinstance(other, EulerExponents):
            return NotImplemented
        return self.ring == other.ring and self.exps == other.exps

    def __hash__(self):
        return hash((self.ring, self.exps))

    def __repr__(self):
        return f"EulerExponents[{self.ring}]{self.exps}"

    @property
    def order(self) -> int:
        return len(self.exps)

    def scale(self, m) -> "EulerExponents":
        m = self.ring.coerce(m)
        return EulerExponents._of(self.ring, tuple(b * m for b in self.exps))


def _adams_sum(ring: VarSet, exps, m: int, w: int = 1) -> list:
    """The ``LPoly.dot`` triples (w k, Psi_{m/k}(b_k), 1) over the divisors k <= len(exps)
    of m with b_k nonzero: w times the sum in m c_m = sum_{k | m} k Psi_{m/k}(b_k)."""
    return [(w * k, exps[k - 1].adams(m // k), ring.one)
            for k in range(1, min(m, len(exps)) + 1) if not m % k and exps[k - 1].num]


def euler_exp(b: EulerExponents) -> TSeries:
    """Assemble prod_{k<=N} (1 - t^k)^(-b_k), N = ``b.order``, through t^N.

    Computed as one exponential, exp(sum_m c_m t^m) with m c_m = sum_{k | m} k Psi_{m/k}(b_k),
    which is the factor-by-factor product with the logs combined first.
    """
    ring = b.ring
    return TSeries._of(ring, [ring.zero] + [LPoly.dot(ring, _adams_sum(ring, b.exps, m), m)
                                            for m in range(1, b.order + 1)]).exp()


def euler_log(a: TSeries, require_integral: bool = True) -> EulerExponents:
    """Decompose a normalized series into its Euler exponents.

    The relation of :func:`euler_exp` is solved one index at a time: with c = log A,
    b_m = c_m - (1/m) sum_{k | m, k < m} k Psi_{m/k}(b_k), one ``LPoly.dot`` per m.
    With ``require_integral`` the b_k must stay in the declared integral subring; a surviving
    denominator signals a bug or a false claim.
    """
    if a.coeffs[0] != a.ring.one:
        raise NonUnitError("Euler decomposition needs a normalized series")
    ring = a.ring
    c = a.log().coeffs
    out: list[LPoly] = []
    for m in range(1, a.order + 1):
        bm = LPoly.dot(ring, [(m, c[m], ring.one)] + _adams_sum(ring, out, m, -1), m)
        if require_integral and not bm.is_integral():
            raise IntegralityError(f"Euler exponent b_{m} = {bm} is not integral")
        out.append(bm)
    return EulerExponents._of(ring, tuple(out))


def power(a: TSeries, m, require_integral: bool = True) -> TSeries:
    """The power structure A(t)^m induced by the pre-lambda ring."""
    b = euler_log(a, require_integral=require_integral)
    return euler_exp(b.scale(m))


def pre_lambda_polyring(p: LPoly, order: int) -> TSeries:
    """lambda_t of an integer polynomial via the monomial product formula.

    For p = sum a_w * w over monomials w this is prod_w (1 - w t)^(-a_w), the pre-lambda
    structure on a polynomial ring.  Each factor is multiplied in once, built from its
    coefficients C(a+n-1, n) w^n, which vanish past n = |a| when a < 0.  It must agree with
    ``checks.pre_lambda`` over the same ring; ``verify`` and the tests check that.
    """
    ring = p.vars
    if not p.is_integral():
        raise IntegralityError(f"polynomial-ring lambda needs integer coefficients: {p}")
    result = None
    for key, a in sorted(p.num.items()):
        coeffs, c, span = [ring.one] + [ring.zero] * order, 1, ring.span([key])
        for n in range(1, (order if a > 0 else min(order, -a)) + 1):  # the nonzero C(a+n-1, n)
            if n * span >= EXP_LIMIT:  # w^n would leave the packed field, as in adams
                raise ring.limit_error()
            c = c * (a + n - 1) // n  # C(a+n-1, n) from C(a+n-2, n-1), exactly
            coeffs[n] = LPoly._of(ring, {key * n: c}, 1)
        factor = TSeries._of(ring, coeffs)
        result = factor if result is None else result * factor
    return TSeries.one(ring, order) if result is None else result

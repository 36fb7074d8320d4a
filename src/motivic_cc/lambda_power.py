"""Pre-lambda structures, Euler products and the induced power structure.

The pre-lambda series of a coefficient m is

    (1 - t)^(-m) := lambda_t(m) = exp( sum_r Psi_r(m) t^r / r ),

with Psi_r the ring's Adams endomorphisms.  Every normalized series A then
factors uniquely as an Euler product prod_k (1 - t^k)^(-b_k), and its Euler
exponents are themselves a series, b = sum_{k>=1} b_k t^k with b_0 = 0.
``euler_exp`` and ``euler_log`` are the plethystic exp and log: the exp and
log of :class:`TSeries` twisted by the Adams operations, with their shapes
and their ``NonUnitError`` contract.  Exponentiating by a ring element is the
scalar product of the exponent series,

    A^m := euler_exp(euler_log(A) * m) = prod_k (1 - t^k)^(-m b_k).

One relation ties the log coefficients c_m = [t^m] log A to the exponents,

    m c_m = sum_{k | m} k Psi_{m/k}(b_k),

and both directions read it: ``euler_exp`` sums it for c_m, and ``euler_log``
peels the k = m term off to solve for b_m one index at a time.  Both maps
take rational coefficients and never check integrality; ``exponents --series``
checks the exponents it prints with ``TSeries.assert_integral``.  The test
suite validates both against Moebius inversion and a brute-force divide-out
oracle before anything else relies on them.
"""

from __future__ import annotations

from .lpoly import EXP_LIMIT, LPoly, VarSet
from .series import IntegralityError, NonUnitError, TSeries


def _adams_sum(ring: VarSet, b, m: int, w: int = 1) -> list:
    """The ``LPoly.dot`` triples (w k, Psi_{m/k}(b_k), 1) over the divisors 1 <= k < len(b)
    of m with b_k nonzero: w times the sum in m c_m = sum_{k | m} k Psi_{m/k}(b_k)."""
    return [(w * k, b[k].adams(m // k), ring.one)
            for k in range(1, min(m, len(b) - 1) + 1) if not m % k and b[k].num]


def euler_exp(b: TSeries) -> TSeries:
    """Assemble prod_{k<=N} (1 - t^k)^(-b_k), N = ``b.order``, through t^N.

    Computed as one exponential, exp(sum_m c_m t^m) with m c_m = sum_{k | m} k Psi_{m/k}(b_k),
    which is the factor-by-factor product with the logs combined first.
    """
    if b.coeffs[0] != b.ring.zero:
        raise NonUnitError(f"Euler exponents need zero constant term, got {b.coeffs[0]}")
    ring = b.ring
    return TSeries._of(ring, [ring.zero] + [LPoly.dot(ring, _adams_sum(ring, b.coeffs, m), m)
                                            for m in range(1, b.order + 1)]).exp()


def euler_log(a: TSeries) -> TSeries:
    """Decompose a normalized series into its Euler exponents b = sum_{k>=1} b_k t^k.

    The relation of :func:`euler_exp` is solved one index at a time: with c = log A,
    b_m = c_m - (1/m) sum_{k | m, k < m} k Psi_{m/k}(b_k), one ``LPoly.dot`` per m.
    Rational exponents are returned as they are; no integrality is checked.
    """
    if a.coeffs[0] != a.ring.one:
        raise NonUnitError("Euler decomposition needs a normalized series")
    ring = a.ring
    c = a.log().coeffs
    out = [ring.zero]
    for m in range(1, a.order + 1):
        out.append(LPoly.dot(ring, [(m, c[m], ring.one)] + _adams_sum(ring, out, m, -1), m))
    return TSeries._of(ring, out)


def power(a: TSeries, m) -> TSeries:
    """The power structure A(t)^m induced by the pre-lambda ring."""
    return euler_exp(euler_log(a) * m)


def pre_lambda_polyring(p: LPoly, order: int) -> TSeries:
    """lambda_t of an integer polynomial via the monomial product formula.

    For p = sum a_w * w over monomials w this is prod_w (1 - w t)^(-a_w), the pre-lambda
    structure on a polynomial ring (w and a_w negated where ``LPoly.adams`` twists w).  Each
    factor is built once from its coefficients C(a+n-1, n) w^n, zero past n = |a| if a < 0.
    It must agree with ``checks.pre_lambda``; ``verify`` and the tests check that.
    """
    ring = p.vars
    if not p.is_integral():
        raise IntegralityError(f"polynomial-ring lambda needs integer coefficients: {p}")
    result = None
    for key, a in sorted(p.num.items()):
        s = (-1) ** ((key + ring.low_half) & ring.neg_root).bit_count()  # as adams reads it
        a *= s
        coeffs, c, span = [ring.one] + [ring.zero] * order, 1, ring.span([key])
        for n in range(1, (order if a > 0 else min(order, -a)) + 1):  # the nonzero C(a+n-1, n)
            if n * span >= EXP_LIMIT:  # w^n would leave the packed field, as in adams
                raise ring.limit_error()
            c = s * c * (a + n - 1) // n  # s^n C(a+n-1, n) from s^(n-1) C(a+n-2, n-1), exactly
            coeffs[n] = LPoly._of(ring, {key * n: c}, 1)
        factor = TSeries._of(ring, coeffs)
        result = factor if result is None else result * factor
    return TSeries.one(ring, order) if result is None else result

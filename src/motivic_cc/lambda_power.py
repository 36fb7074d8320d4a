"""Pre-lambda structures, Euler products and the induced power structure.

The pre-lambda series of a coefficient m is

    (1 - t)^(-m) := lambda_t(m) = exp( sum_r Psi_r(m) t^r / r ),

with Psi_r the ring's Adams endomorphisms.  Every normalized series A then
factors uniquely as an Euler product prod_k (1 - t^k)^(-b_k); decomposing,
re-assembling and exponentiating by ring elements,

    A^m := prod_k (1 - t^k)^(-m b_k),

is the whole calculus this module provides.  The inverse direction computes
b_k from c_n = [t^n] log A by the Adams-twisted Moebius inversion

    b_k = (1/k) * sum_{d | k} mu(k/d) Psi_{k/d}(d * c_d),

which the test suite validates against a brute-force divide-out oracle
before anything else relies on it.
"""

from __future__ import annotations

from .lpoly import LPoly, VarSet
from .series import IntegralityError, NonUnitError, TSeries


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    if n == 1:
        return 1
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


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


def euler_exp(b: EulerExponents) -> TSeries:
    """Assemble prod_{k<=N} (1 - t^k)^(-b_k), N = ``b.order``, through t^N.

    Computed as one exponential, exp(sum_{k,r} Psi_r(b_k) t^{kr} / r), which is the
    factor-by-factor product with the logs combined first.
    """
    ring, exps = b.ring, b.exps
    # [t^m] of the argument is (1/m) sum_{kr=m} k Psi_r(b_k)
    arg = [ring.zero] + [
        LPoly.dot(ring, [(k, exps[k - 1].adams(m // k), ring.one)
                         for k in divisors(m) if exps[k - 1].num], m)
        for m in range(1, b.order + 1)]
    return TSeries._of(ring, arg).exp()


def euler_log(a: TSeries, require_integral: bool = True) -> EulerExponents:
    """Decompose a normalized series into its Euler exponents.

    With ``require_integral`` the b_k must stay in the declared integral subring; a surviving
    denominator signals a bug or a false claim.
    """
    if a.coeffs[0] != a.ring.one:
        raise NonUnitError("Euler decomposition needs a normalized series")
    ring = a.ring
    c = a.log().coeffs
    out = []
    for k in range(1, a.order + 1):
        bk = LPoly.dot(ring, [(mu * d, c[d].adams(k // d), ring.one)
                              for d in divisors(k) if (mu := mobius(k // d))], k)
        if require_integral and not bk.is_integral():
            raise IntegralityError(f"Euler exponent b_{k} = {bk} is not integral")
        out.append(bk)
    return EulerExponents._of(ring, tuple(out))


def power(a: TSeries, m, require_integral: bool = True) -> TSeries:
    """The power structure A(t)^m induced by the pre-lambda ring."""
    b = euler_log(a, require_integral=require_integral)
    return euler_exp(b.scale(m))


def pre_lambda_polyring(p: LPoly, order: int) -> TSeries:
    """lambda_t of an integer polynomial via the monomial product formula.

    For p = sum a_w * w over monomials w this is prod_w (1 - w t)^(-a_w),
    the pre-lambda structure on a polynomial ring.  It must agree with
    ``checks.pre_lambda`` over the same ring; ``verify`` and the tests check that.
    """
    ring = p.vars
    if not p.is_integral():
        raise IntegralityError(f"polynomial-ring lambda needs integer coefficients: {p}")
    result = TSeries.one(ring, order)
    for key, a in sorted(p.num.items()):
        w = LPoly._of(ring, {key: 1}, 1)  # the monomial of the packed key
        geom = TSeries(ring, [w ** n for n in range(order + 1)])
        result = result * geom.pow_int(a)
    return result

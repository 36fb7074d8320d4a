"""Motivic generating series and their specialization homomorphisms.

Classes of varieties are proxied by Laurent polynomials in L = [affine line]
(half powers of L allowed, for the virtual series), general varieties enter
through their Hodge polynomial e(X;u,v).  The punctual Hilbert series, its
Euler exponents, the Kapranov zeta function, configuration-space series and
the virtual-motive series of threefolds are all assembled from the
lambda/Euler calculus; every closed form carried here is recomputed by
exact division and cross-checked against the series route.
"""

from __future__ import annotations

from fractions import Fraction

from .lpoly import LPoly, QQ, RING_L, RING_UV, RING_Y
from .series import TSeries
from .lambda_power import euler_exp, euler_log, power, pre_lambda_polyring


class UnsupportedRangeError(ValueError):
    """The requested (dimension, order) range has no known closed-form data."""


class TwoRouteMismatchError(ArithmeticError):
    """Two independent computation routes disagree; signals a bug."""


L = LPoly.var(RING_L, "L")
L_HALF = LPoly.var(RING_L, "L", 1)
Y = LPoly.var(RING_Y, "y")
Y_HALF = LPoly.var(RING_Y, "y", 1)
U = LPoly.var(RING_UV, "u")
V = LPoly.var(RING_UV, "v")


# -- lambda-factorials and binomials -------------------------------------

def l_factorial(n: int) -> LPoly:
    """[n]_L! = (L^n - 1)(L^(n-1) - 1) ... (L - 1)."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    out = RING_L.one
    for i in range(1, n + 1):
        out = out * (L ** i - 1)
    return out


def l_binomial(n: int, k: int) -> LPoly:
    """The lambda-binomial, a genuine polynomial in L by exact division."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial out of range: ({n}, {k})")
    return l_factorial(n).exact_div(l_factorial(n - k) * l_factorial(k))


def proj_space_class(d: int) -> LPoly:
    """[P^d] = 1 + L + ... + L^d."""
    return LPoly(RING_L, {(2 * i,): 1 for i in range(d + 1)})


# -- punctual Hilbert series ----------------------------------------------

def punctual_hilb_small(d: int) -> TSeries:
    """1 + t + [d;1]_L t^2 + [d+1;2]_L t^3, the punctual series through t^3, the
    furthest a closed form is known for general d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return TSeries(RING_L, [RING_L.one, RING_L.one, l_binomial(d, 1), l_binomial(d + 1, 2)])


def alpha_closed_small(d: int) -> tuple[LPoly, LPoly, LPoly]:
    """Closed forms of the first three punctual Euler exponents."""
    a1 = RING_L.one
    a2 = (L ** d - 1).exact_div(L - 1) - 1
    a3 = ((L ** (d + 1) - 1) * (L ** d - 1)).exact_div((L ** 2 - 1) * (L - 1)) \
        - (L ** d - 1).exact_div(L - 1)
    return a1, a2, a3


def punctual_exponents_small(d: int) -> TSeries:
    """Euler exponents of the punctual series, cross-checked two ways.

    The Euler-log inversion of the t^3 series must reproduce the closed
    forms; a mismatch signals an inversion bug and raises.
    """
    b = euler_log(punctual_hilb_small(d))
    closed = alpha_closed_small(d)
    if b.coeffs[1:] != closed:
        raise TwoRouteMismatchError(
            f"punctual exponents for d={d}: inversion gave {b.coeffs[1:]}, closed forms {closed}")
    return b


def punctual_exponents(d: int, order: int) -> TSeries:
    """sum_k alpha_k t^k through t^order, the Euler exponents of the punctual Hilbert series.

    The one table of which punctual data exist: curves and surfaces at every
    order, d = 3 and 4 through k = 3; anything else is out of range.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > 4 or (d > 2 and order > 3):
        raise UnsupportedRangeError(f"no punctual data for d={d} at order {order}: "
                                    "d = 1, 2 at any order, d = 3, 4 through k = 3")
    if d == 1:
        return TSeries.from_terms(RING_L, order, {1: 1})
    if d == 2:
        return TSeries.from_terms(RING_L, order, {k: L ** (k - 1) for k in range(1, order + 1)})
    return TSeries._of(RING_L, punctual_exponents_small(d).coeffs[: order + 1])


# -- specialization homomorphisms ----------------------------------------

def spec_e(m: LPoly) -> LPoly:
    """Hodge-polynomial specialization: L -> uv (integer powers of L only)."""
    return m.substitute(RING_UV, whole={"L": U * V})


def spec_chi_minus_y(m: LPoly) -> LPoly:
    """chi_{-y} specialization, with the square-root convention -L^(1/2) -> y^(1/2)."""
    return m.substitute(RING_Y, half={"L": -Y_HALF})


def chi_of_y(p: LPoly) -> Fraction:
    """Evaluate a y-polynomial at y = 1 (and y^(1/2) = 1)."""
    return p.substitute(QQ, half={"y": Fraction(1)}).as_fraction()


def spec_chi(m: LPoly) -> Fraction:
    """Euler characteristic: chi_{-y} followed by y -> 1; chi(L^(1/2)) = -1."""
    return chi_of_y(spec_chi_minus_y(m))


def hodge_spec(e: LPoly, which: str) -> LPoly | Fraction:
    """chi_{-y} (u -> y, v -> 1) or chi (u, v -> 1) of a Hodge polynomial e(u,v)."""
    if which == "chi":
        return e.substitute(QQ, whole={"u": 1, "v": 1}).as_fraction()
    return e.substitute(RING_Y, whole={"u": Y, "v": 1})


def map_series(a: TSeries, which: str) -> TSeries:
    """Apply a named specialization coefficientwise to an L-series."""
    if which == "e":
        return a.map_coeffs(RING_UV, spec_e)
    if which == "chi-y":
        return a.map_coeffs(RING_Y, spec_chi_minus_y)
    if which == "chi":
        return a.map_coeffs(QQ, spec_chi)
    raise ValueError(f"unknown specialization {which!r}")


# -- the main motivic series -----------------------------------------------

def hilb_motive_series(x: LPoly, d: int, order: int) -> TSeries:
    """Generating series of Hilbert-scheme classes: (punctual series)^[X] = prod_k
    (1 - t^k)^(-alpha_k [X]), one exponential of the scaled punctual exponents.  At
    [X] = 1 this is the punctual series itself."""
    return euler_exp(punctual_exponents(d, order) * x)


def kapranov_zeta(e: LPoly, order: int) -> TSeries:
    """Symmetric-product series of Hodge polynomials, via the monomial product."""
    return pre_lambda_polyring(RING_UV.coerce(e), order)


def config_space_series(x: LPoly, order: int) -> TSeries:
    """(1 + t)^[X]: classes of configuration spaces of unlabeled points."""
    return power(TSeries.from_terms(RING_L, order, {0: 1, 1: 1}), RING_L.coerce(x))


# -- virtual motives of threefolds ----------------------------------------

def virtual_alpha(k: int) -> LPoly:
    """Euler exponent of the virtual punctual series of a threefold.

    Built by exact division from ((-L^(1/2))^(-k) - (-L^(1/2))^k) / (L(1-L))
    and verified against the closed form (-1)^k L^(-k/2-1) (1 + ... + L^(k-1)).
    """
    if k < 1:
        raise ValueError("exponent index must be >= 1")
    s = -L_HALF
    q = (s ** (-k) - s ** k).exact_div(L * (1 - L))
    closed = LPoly(RING_L, {(2 * j - k - 2,): (-1) ** k for j in range(k)})
    if q != closed:
        raise TwoRouteMismatchError(
            f"virtual alpha_{k}: division gave {q}, closed product form {closed}")
    return q


def virtual_exponents(order: int) -> TSeries:
    return TSeries.from_terms(RING_L, order, {k: virtual_alpha(k) for k in range(1, order + 1)})


def virtual_hilb_series(x: LPoly, order: int) -> TSeries:
    """Virtual Hilbert-scheme classes of a threefold with class x.

    Exponentiation happens on the -t side, where the punctual series is the
    honest Euler product over the closed-form exponents; the result is read
    back at -t.  (The power structure does not commute with t -> -t over a
    ring with nontrivial Adams operations, so the side matters; this is the
    side on which the closed-form exponents live.)  At x = 1 this is the virtual
    punctual series.
    """
    return euler_exp(virtual_exponents(order) * x).subst(1, -1)


def macmahon_series(order: int, chi: int = 1) -> TSeries:
    """prod_k (1 - t^k)^(-k*chi): the MacMahon function M(t)^chi."""
    b = TSeries.from_terms(QQ, order, {k: k * chi for k in range(1, order + 1)})
    return euler_exp(b).assert_integral("MacMahon series")

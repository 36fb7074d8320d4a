"""Hirzebruch power series and finite homology models with stored classes.

The generating power series

    Q_y(a) = a (1 + y e^(-a)) / (1 - e^(-a)),      Q_y(0) = 1 + y,

is expanded exactly over Q[y]; the nilpotent cohomology variable is the
truncation variable of a :class:`TSeries` over Q[y] (order = dimension).

A :class:`HomologyModel` is a finite graded basis of the even Borel-Moore
homology with a stored class T_{(-y)*}(X); built-in models (point, P^d,
binary products) also carry an independently computed MacPherson Chern class,
the reference for the y -> 1 normalization limit.  This module is the one home
of the homological Adams operation :func:`adams_h` and of the exact y -> 1 limit
:func:`y1_limit` of the normalization Psi_(1-y).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, factorial

from .lpoly import ExactDivisionError, LPoly, RING_UV, RING_Y
from .series import TSeries
from .motives import TwoRouteMismatchError, UnsupportedRangeError, Y, hodge_spec


def qy_series(order: int) -> TSeries:
    """Expansion of a(1 + y e^(-a))/(1 - e^(-a)) through a^order."""
    # (1 - e^(-a))/a  and  1 + y e^(-a)
    den = TSeries(RING_Y, [Fraction((-1) ** j, factorial(j + 1)) for j in range(order + 1)])
    num = TSeries(RING_Y, [RING_Y.one + Y] +
                  [Y.scale(Fraction((-1) ** j, factorial(j))) for j in range(1, order + 1)])
    return num * den.invert()


class HomologyModel:
    """Finite basis of H^BM_even(X) tensor Q[y] with stored classes.

    ``basis`` lists (id, homological degree k) pairs; ``ty`` maps basis ids
    to the y-polynomial coefficients of T_{(-y)*}(X).  Proper connected
    models name their degree-zero point class, which the degree map picks
    out.  Only built-in models carry ``chern``: an independent Chern class over
    Q, not a cache but the reference the y -> 1 limit of ``ty`` must equal.
    """

    __slots__ = ("name", "dim", "proper", "basis", "zero_id", "ty",
                 "e_poly", "chern")

    def __init__(self, name: str, dim: int, proper: bool,
                 basis: tuple[tuple[str, int], ...], zero_id: str | None,
                 ty: dict[str, LPoly], e_poly: LPoly,
                 chern: dict[str, Fraction] | None = None):
        if dim < 0:
            raise ValueError(f"model {name} has negative dimension {dim}")
        ids = [b for b, _ in basis]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate basis ids in model {name}")
        degs = dict(basis)
        for b, k in basis:
            if not 0 <= k <= dim:
                raise ValueError(f"basis degree {k} outside 0..{dim} in model {name}")
        if zero_id is not None and zero_id not in degs:
            raise ValueError(f"zero-degree id {zero_id!r} is no basis id of model {name}")
        if proper and degs.get(zero_id) != 0:
            raise ValueError(f"proper model {name} needs a degree-0 point class")
        for b in ty:
            if b not in degs:
                raise ValueError(f"ty class mentions unknown basis id {b!r}")
        self.name = name
        self.dim = dim
        self.proper = proper
        self.basis = tuple(basis)
        self.zero_id = zero_id
        self.ty = {b: c for b, c in zip(ty, map(RING_Y.coerce, ty.values())) if c.num}
        self.e_poly = RING_UV.coerce(e_poly)
        self.chern = dict(chern) if chern is not None else None
        if proper:
            got = self.degree_of(self.ty)
            want = hodge_spec(self.e_poly, "chi-y")
            if got != want:
                raise ValueError(
                    f"model {name}: degree of stored class is {got}, "
                    f"but the Hodge polynomial gives {want}")

    def degs(self) -> dict[str, int]:
        return dict(self.basis)

    def degree_of(self, hclass: dict[str, LPoly]) -> LPoly:
        """Push a homology class down to a point (proper models only)."""
        if not self.proper:
            raise ValueError(f"model {self.name} is not proper; no degree map")
        return hclass.get(self.zero_id, RING_Y.zero)

    def __eq__(self, other):
        # equality covers the serialized surface; chern is an independent
        # reference carried only by built-in models
        return (isinstance(other, HomologyModel)
                and self.name == other.name and self.dim == other.dim
                and self.proper == other.proper and self.basis == other.basis
                and self.zero_id == other.zero_id and self.ty == other.ty
                and self.e_poly == other.e_poly)

    def __repr__(self):
        return f"HomologyModel({self.name}, dim={self.dim})"


def proj_space_model(d: int) -> HomologyModel:
    """Projective space with basis [P^0], ..., [P^d].

    The cohomology class is Q_y(h)^(d+1)/(1+y) (Euler sequence route); the
    coefficientwise divisibility by 1+y is asserted, not assumed.  Capping
    with [P^d] turns the h^j coefficient into the [P^(d-j)] coordinate, and
    y -> -y converts T_y* into the stored T_{(-y)*}.  The Chern class comes
    independently from (1+h)^(d+1).
    """
    if d < 0:
        raise ValueError("dimension must be >= 0")
    q = qy_series(d).pow_int(d + 1)
    one_plus_y = RING_Y.one + Y
    ty: dict[str, LPoly] = {}
    for j in range(d + 1):
        coeff = q.coeffs[j].exact_div(one_plus_y)
        ty[f"P{d - j}"] = coeff.substitute(RING_Y, whole={"y": -Y})
    basis = tuple((f"P{i}", i) for i in range(d, -1, -1))
    e_poly = LPoly(RING_UV, {(2 * i, 2 * i): 1 for i in range(d + 1)})
    chern = {f"P{d - j}": Fraction(comb(d + 1, j)) for j in range(d + 1)}
    name = "point" if d == 0 else f"P{d}"
    return HomologyModel(name, d, True, basis, "P0", ty, e_poly, chern=chern)


def product_model(m1: HomologyModel, m2: HomologyModel) -> HomologyModel:
    """External product of two proper models (tensor basis, classes multiply)."""
    if not (m1.proper and m2.proper):
        raise ValueError("product model needs proper factors")
    basis = tuple((f"{b1}*{b2}", k1 + k2) for b1, k1 in m1.basis for b2, k2 in m2.basis)
    ty = {f"{b1}*{b2}": c1 * c2 for b1, c1 in m1.ty.items() for b2, c2 in m2.ty.items()}
    chern = None
    if m1.chern is not None and m2.chern is not None:
        chern = {f"{b1}*{b2}": c1 * c2
                 for b1, c1 in m1.chern.items() for b2, c2 in m2.chern.items()
                 if c1 * c2 != 0}
    return HomologyModel(f"{m1.name}x{m2.name}", m1.dim + m2.dim, True, basis,
                         f"{m1.zero_id}*{m2.zero_id}", ty, m1.e_poly * m2.e_poly, chern=chern)


def adams_h(model: HomologyModel, r: int, hclass: dict[str, LPoly]) -> dict[str, LPoly]:
    """Homological Adams operation Psi_r: 1/r^k in degree k, and y -> y^r.

    A term n y^e in degree k keeps r^k/|n| in its denominator, as does the one-atom term
    that carries it.  Past 10^limit (``sys.get_int_max_str_digits()``, 0 for none) no report
    can print that, so it is refused, by bit lengths first: a huge r^k is never built.  They
    accept each r^k below 8^limit |n| too; only between the two is 10^limit |n| built.
    """
    if r < 1:
        raise ValueError("Adams index must be >= 1")
    degs, limit = model.degs(), sys.get_int_max_str_digits()
    for b, c in hclass.items():
        k, n = degs[b], min(map(abs, c.num.values()), default=0)
        if limit and r > 1 and n and (k * (r.bit_length() - 1) > 4 * limit + n.bit_length()
                                      or k * r.bit_length() >= 3 * limit + n.bit_length()
                                      and r ** k >= 10 ** limit * n):
            raise UnsupportedRangeError(
                f"basis class {b} has degree {k}: its Adams twist 1/{r}^{k} passes "
                f"Python's {limit}-digit limit for printing integers")
    return {b: c.adams(r) * Fraction(1, r ** degs[b])
            for b, c in hclass.items()}


def y1_limit(c: LPoly, m: int) -> Fraction:
    """c / (1-y)^m at y = 1, exactly: the y -> 1 limit of Psi_(1-y) in degree m.

    With z = y^(1/2) and c = sum a_e z^e / den, (1-y)^m = (1-z)^m (1+z)^m divides c iff the
    Taylor sums sum a_e C(e, i) at z = 1 and sum a_e (-1)^e C(e, i) at z = -1 vanish for
    i < m, or ExactDivisionError flags a pole; the limit is sum a_e C(e, m) / (den (-2)^m).
    C(e, i) is an integer.  By Descartes' rule of signs a c with t terms stops by step t.
    """
    terms = c.num.items()
    for i in range(m):
        if sum(a for _, a in terms) or sum(-a if e % 2 else a for e, a in terms):
            raise ExactDivisionError(f"c does not vanish to order {m} at y=1")
        terms = [(e, a * (e - i) // (i + 1)) for e, a in terms]
    return Fraction(sum(a for _, a in terms), c.den * (-2) ** m)


def chern_class_of(model: HomologyModel, r: int = 1) -> dict[str, Fraction]:
    """The Chern class c_*(X): the y -> 1 limit of the twisted normalization of the stored class.

    Computes Psi_(1-y) Psi_r T_{(-y)*}(X) exactly: the degree-k coordinate
    tau(y) becomes tau(y^r) / (r^k (1-y)^k), whose (1-y)-power must cancel
    (a pole means the divisibility claim failed), then y = 1 is substituted.
    A stored, independently computed Chern class must equal the result.
    """
    degs = model.degs()
    out: dict[str, Fraction] = {}
    for b, tau in adams_h(model, r, model.ty).items():
        try:
            val = y1_limit(tau, degs[b])
        except ArithmeticError as exc:
            raise TwoRouteMismatchError(
                f"model {model.name}, basis {b}: pole at y=1 "
                f"after (1-y)-cancellation") from exc
        if val != 0:
            out[b] = val
    if model.chern is not None and out != model.chern:
        raise TwoRouteMismatchError(
            f"model {model.name}: chern limit (r={r}) gave {out}, "
            f"stored class is {model.chern}")
    return out

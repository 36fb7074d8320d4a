"""Free symbolic Pontrjagin ring over a homology model.

Classes living on the n-th symmetric product are written in terms of pushforward atoms
d^k_*(basis class); a term is a multiset of such atoms with total index n, stored as a sorted
tuple of (k, basis id) pairs.  The grading variable t keeps track of n, the product is
multiset union with coefficients multiplying.  Coefficients are :class:`LPoly` values over
``RING_Y`` = Q[y^(1/2)] (Hirzebruch level) or over ``QQ``, the ring with no variables (Chern
level); the series records which, and the ring decides whether homological exponentiation
carries the Adams twist: ``RING_Y`` does, and ``QQ``, the y -> 1 limit, does not.

Every class series is one homological exponentiation prod_k (1 - (sign t)^k d^k_*)^(-b_k
gamma).  The kinds in :data:`KINDS` differ only in the exponents b, the class gamma and the
sign of t: :func:`class_exponents` gives a kind's b, whose ring sets gamma, and
:func:`class_terms` walks its terms, which a report writes and ``collect`` gathers.

The free model deliberately ignores any relations holding in the honest homology of
symmetric products: every identity proved by the calculus is generated by the same operations
on both sides, so equality of free-model expressions is the verifiable notion, and
degree-level (genus) equalities provide the numeric cross-checks for proper models.  This
module holds the one production route; the reference routes live in ``checks``.
"""

from __future__ import annotations

from .lpoly import LPoly, VarSet, QQ, RING_L, RING_Y
from .series import TSeries
from .motives import map_series, punctual_exponents, virtual_exponents
from .hirzebruch import HomologyModel, adams_h, chern_class_of

Multiset = tuple[tuple[int, str], ...]
HClass = dict[str, object]


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

    def __new__(cls, model: HomologyModel, ring: VarSet, dicts):
        return cls._of(model, ring, [
            PontElement(n, {ms: ring.coerce(c) for ms, c in d.items()}).terms
            for n, d in enumerate(dicts)])

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
        obj = object.__new__(cls)
        object.__setattr__(obj, "model", model)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "components",
                           tuple(PontElement._of(n, d) for n, d in enumerate(dicts)))
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


# -- the homological exponential -------------------------------------------

def log_atoms(model: HomologyModel, gamma: HClass, b: TSeries,
              sign: int = 1) -> dict[tuple[int, str], LPoly]:
    """The log of prod_k (1 - (sign t)^k d^k_*)^(-b_k gamma) through t^N, N = ``b.order``,
    over ``b.ring``, for Euler exponents b = sum_k b_k t^k.

    The log is linear in atoms: atom (rk, x) collects sign^(rk) Psi_r(b_k gamma)_x / r, where
    Psi_r is the identity over ``QQ``.  Only nonzero atoms are kept.
    """
    if sign not in (1, -1):
        raise ValueError(f"bad sign {sign} in t -> sign * t")
    ring, order = b.ring, b.order
    gamma = {x: ring.coerce(c) for x, c in gamma.items()}
    log: dict[tuple[int, str], LPoly] = {}
    for k, s in enumerate(b.coeffs[1:], start=1):
        if not s.num:
            continue
        g = {x: c * s for x, c in gamma.items()}
        for r in range(1, order // k + 1):
            for x, c in (g if ring == QQ else adams_h(model, r, g)).items():
                log[r * k, x] = log.get((r * k, x), ring.zero) + c.div_int(sign ** (r * k) * r)
    return {atom: c for atom, c in log.items() if c.num}


def exp_terms(model: HomologyModel, gamma: HClass, b: TSeries, sign: int = 1):
    """The terms ``(n, multiset, coefficient)`` of prod_k (1 - (sign t)^k d^k_*)^(-b_k gamma)
    through t^N, N = ``b.order``: a multiset of :func:`log_atoms` a_x with multiplicities m_x
    gets prod_x a_x^(m_x) / m_x!, never zero.  The walk is a preorder of the multiset trie, a
    child adding an atom x no smaller than its parent's last, at multiplicity m, for one
    product: a_x / m times the parent's.  Children go in atom order, so multisets increase."""
    log = log_atoms(model, gamma, b, sign)
    atoms, order = sorted(log), b.order
    ends = [sum(j <= r for j, _ in atoms) for r in range(order + 1)]  # atoms of index <= r
    steps = [[None] + [log[x].div_int(m) for m in range(1, order // x[0] + 1)] for x in atoms]
    stack = [(0, (), b.ring.one, 0, 0)]  # grading, multiset, coefficient, last atom, its m
    while stack:
        n, ms, c, i, m = stack.pop()
        yield n, ms, c
        for k in range(ends[order - n] - 1, i - 1, -1):
            mk = m + 1 if k == i else 1
            stack.append((n + atoms[k][0], ms + (atoms[k],), c * steps[k][mk], k, mk))


def collect(model: HomologyModel, b: TSeries, terms) -> PontSeries:
    """A walk's terms as the series over ``b.ring`` through t^``b.order``, for ``checks``."""
    dicts = [dict() for _ in range(b.order + 1)]
    for n, ms, c in terms:
        dicts[n][ms] = c
    return PontSeries._of(model, b.ring, dicts)


# -- the generating series of the main results -------------------------------

KINDS = ("hilb", "sym", "config", "chern", "virtual", "aluffi")


def class_exponents(kind: str, d: int | None, order: int) -> TSeries:
    """The Euler exponents b of a class kind through t^order, at the kind's level.

    The Hirzebruch kinds take chi_{-y} of their L-exponents over ``RING_Y``: the
    punctual exponents of a d-fold (``hilb``) or of a curve (``sym``), t - t^2, those
    of (1 + t) (``config``), and the closed-form virtual exponents (``virtual``).
    ``chern`` takes chi of the punctual exponents over ``QQ``.  The one chi-level
    exception lives here: chi(alpha_k) = k, the MacMahon exponent, is known at every
    order for threefolds although alpha_k itself is only known through k = 3, so
    ``aluffi`` and ``chern`` at d = 3 are sum_k k t^k.
    """
    if kind == "aluffi" or kind == "chern" and d == 3:
        return TSeries.from_terms(QQ, order, {k: k for k in range(1, order + 1)})
    if kind == "chern":
        return map_series(punctual_exponents(d, order), "chi")
    if kind in ("hilb", "sym"):
        e = punctual_exponents(1 if kind == "sym" else d, order)
    elif kind == "config":
        e = TSeries.from_terms(RING_L, order, {1: 1, 2: -1})
    elif kind == "virtual":
        e = virtual_exponents(order)
    else:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
    return map_series(e, "chi-y")


def class_terms(model: HomologyModel, kind: str, b: TSeries):
    """The :func:`exp_terms` of a kind's class series, for its b = :func:`class_exponents`.

    The ring of b sets the class: gamma is T_{(-y)*}(X) over ``RING_Y`` and c_*(X) over
    ``QQ``.  The virtual t-form and the Aluffi classes are read against (-t)^n, so their
    atoms are signed: t -> -t commutes with the atomwise exponential.
    """
    gamma = model.ty if b.ring == RING_Y else chern_class_of(model)
    return exp_terms(model, gamma, b, -1 if kind in ("virtual", "aluffi") else 1)


def pont_degree(model: HomologyModel, s: PontSeries) -> TSeries:
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


"""Class series in the free symbolic Pontrjagin ring over a homology model.

Classes living on the n-th symmetric product are written in terms of pushforward atoms
d^k_*(basis class); a term is a multiset of such atoms with total index n, a sorted tuple of
(k, basis id) pairs, and the product is multiset union with coefficients multiplying.
Coefficients are :class:`LPoly` values over ``RING_Y`` = Q[y^(1/2)] (Hirzebruch level) or
over ``QQ``, the ring with no variables (Chern level); the ring decides whether homological
exponentiation carries the Adams twist: ``RING_Y`` does, and ``QQ``, the y -> 1 limit, does
not.

Every class series is one homological exponentiation prod_k (1 - (sign t)^k d^k_*)^(-b_k
gamma).  The kinds in :data:`KINDS` differ only in the exponents b, the class gamma and the
sign of t: :func:`class_exponents` gives a kind's b, whose ring sets gamma, and
:func:`class_terms` walks its terms in the order a report writes them.

The free model deliberately ignores any relations holding in the honest homology of
symmetric products: every identity proved by the calculus is generated by the same operations
on both sides, so equality of free-model expressions is the verifiable notion, and
degree-level (genus) equalities provide the numeric cross-checks for proper models.  This
module holds the one production route; the reference routes live in ``checks``.
"""

from __future__ import annotations

from .lpoly import LPoly, QQ, RING_L, RING_Y
from .series import TSeries
from .motives import map_series, punctual_exponents, virtual_exponents
from .hirzebruch import HomologyModel, adams_h, chern_class_of

HClass = dict[str, object]


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

"""Seeded random generators and independent oracles shared across tests."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

from motivic_cc.lpoly import LPoly, VarSet, RING_Y
from motivic_cc.series import TSeries
from motivic_cc.pontrjagin import exp_terms, log_atoms
from motivic_cc.checks import PontSeries, collect, pre_lambda


def random_lpoly(rng: random.Random, vars: VarSet, max_deg: int = 6,
                 terms: int = 4, coeff_bound: int = 5, laurent: bool = False,
                 halves: bool = False, denom_bound: int = 1) -> LPoly:
    out: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(0, terms)):
        exps = []
        for name in vars.names:
            lo = -max_deg if laurent else 0
            e = 2 * rng.randint(lo, max_deg)
            if halves and rng.random() < 0.3:
                e += 1
            exps.append(e)
        c = rng.randint(-coeff_bound, coeff_bound)
        if denom_bound > 1:
            c = Fraction(c, rng.randint(1, denom_bound))
        out[tuple(exps)] = c
    return LPoly(vars, out)


# -- a dict-of-Fraction reference for LPoly arithmetic -----------------------------
# polynomials are plain {doubled exponent vector: nonzero Fraction} dicts

def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_scale(a: dict, c) -> dict:
    return {e: x * c for e, x in a.items() if x * c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out = ref_add(out, {e: c1 * c2})
    return out


def ref_pow(a: dict, n: int, nvars: int) -> dict:
    """a^n by repeated squaring (monomials take huge exponents); a negative n needs a monomial."""
    if n < 0:
        ((e, c),) = a.items()
        a, n = {tuple(-x for x in e): 1 / c}, -n
    out = {(0,) * nvars: Fraction(1)}
    while n:
        if n & 1:
            out = ref_mul(out, a)
        a, n = ref_mul(a, a), n >> 1
    return out


def ref_adams(a: dict, r: int, vars: VarSet) -> dict:
    """Exponents times r; odd L-exponents flip sign for even r (the root -L^(1/2))."""
    out = {}
    for e, c in a.items():
        odd_l = sum(x for name, x in zip(vars.names, e) if name == "L") % 2
        out[tuple(x * r for x in e)] = -c if r % 2 == 0 and odd_l else c
    return out


def ref_substitute(a: dict, vars: VarSet, target: VarSet, whole=None, half=None) -> dict:
    """Term by term: ``whole`` values raised to e/2, ``half`` values to e, the rest kept."""
    whole, half = whole or {}, half or {}

    def value(v):
        return dict(v.terms) if isinstance(v, LPoly) else {(0,) * len(target): Fraction(v)}

    out: dict = {}
    for e, c in a.items():
        term = {(0,) * len(target): c}
        for name, x in zip(vars.names, e):
            if name in half:
                term = ref_mul(term, ref_pow(value(half[name]), x, len(target)))
            elif name in whole:
                term = ref_mul(term, ref_pow(value(whole[name]), x // 2, len(target)))
            elif x:
                mono = [0] * len(target)
                mono[target.names.index(name)] = x
                term = ref_mul(term, {tuple(mono): Fraction(1)})
        out = ref_add(out, term)
    return out


# -- the accumulate-one-product-at-a-time route that LPoly.dot replaced ---------------
# each partial sum is a separate LPoly sum of LPoly products, reduced every step

def ref_series_mul(a: TSeries, b: TSeries) -> TSeries:
    n = a.order
    out = [a.ring.zero] * (n + 1)
    for i in range(n + 1):
        for j in range(n - i + 1):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return TSeries(a.ring, out)


def ref_invert(a: TSeries) -> TSeries:
    out = [a.ring.one] + [a.ring.zero] * a.order
    for m in range(1, a.order + 1):
        acc = a.ring.zero
        for k in range(1, m + 1):
            acc = acc + a.coeffs[k] * out[m - k]
        out[m] = -acc
    return TSeries(a.ring, out)


def ref_exp(a: TSeries) -> TSeries:
    out = [a.ring.one] + [a.ring.zero] * a.order
    for m in range(1, a.order + 1):
        acc = a.ring.zero
        for k in range(1, m + 1):
            acc = acc + (a.coeffs[k] * out[m - k]) * k
        out[m] = acc.div_int(m)
    return TSeries(a.ring, out)


def ref_log(a: TSeries) -> TSeries:
    out = [a.ring.zero] * (a.order + 1)
    for m in range(1, a.order + 1):
        acc = a.ring.zero
        for k in range(1, m):
            acc = acc + (out[k] * a.coeffs[m - k]) * k
        out[m] = a.coeffs[m] - acc.div_int(m)
    return TSeries(a.ring, out)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    """The Moebius function, by trial division."""
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


def ref_euler_log(a: TSeries) -> tuple:
    """b_k = (1/k) sum_{d | k} mu(k/d) Psi_{k/d}(d c_d), the Moebius inversion of the
    relation ``euler_log`` peels, one term at a time."""
    c = ref_log(a).coeffs
    out = []
    for k in range(1, a.order + 1):
        acc = a.ring.zero
        for d in divisors(k):
            if mobius(k // d):
                acc = acc + (c[d] * d).adams(k // d) * mobius(k // d)
        out.append(acc.div_int(k))
    return tuple(out)


def exps(ring: VarSet, seq, order: int | None = None) -> TSeries:
    """The Euler exponents ``seq`` = b_1, b_2, ... as the series sum_k b_k t^k through t^order,
    by default through the last of them."""
    seq = tuple(seq)
    return TSeries.from_terms(ring, len(seq) if order is None else order,
                              dict(enumerate(seq, start=1)))


def ref_euler_exp(b: TSeries, order: int) -> TSeries:
    """exp(sum_{k,r} Psi_r(b_k) t^{kr} / r), the argument summed one term at a time."""
    arg = [b.ring.zero] * (order + 1)
    for k in range(1, min(b.order, order) + 1):
        for r in range(1, order // k + 1):
            arg[k * r] = arg[k * r] + b.coeffs[k].adams(r).div_int(r)
    return ref_exp(TSeries(b.ring, arg))


def ref_pont_mul(s, t) -> list:
    """The Pontrjagin product as {multiset: coefficient} dicts, one pair at a time."""
    out = [dict() for _ in range(s.order + 1)]
    for i, a in enumerate(s.components):
        for j in range(s.order - i + 1):
            for ms1, c1 in a.terms.items():
                for ms2, c2 in t.components[j].terms.items():
                    ms = tuple(sorted(ms1 + ms2))
                    out[i + j][ms] = out[i + j].get(ms, s.ring.zero) + c1 * c2
    return [{ms: c for ms, c in d.items() if c.num} for d in out]


def ref_pont_exp(arg):
    """sum arg^m / m! by repeated Pontrjagin products, stopping at the first power that
    vanishes: the definition ``checks.pont_exp`` computed before its graded recurrence."""
    if arg.components[0].terms:
        raise ValueError("Pontrjagin exp needs zero constant component")
    result = term = PontSeries.unit(arg.model, arg.ring, arg.order)
    for m in range(1, arg.order + 1):
        term = (term * arg).scale(Fraction(1, m))
        if all(not el.terms for el in term.components):
            break
        result = result + term
    return result


def exp_series(model, gamma, b: TSeries, sign: int = 1) -> PontSeries:
    """The walk of ``pontrjagin.exp_terms`` collected into a series."""
    return collect(model, b, exp_terms(model, gamma, b, sign))


def ref_exp_series(model, gamma, b: TSeries, sign: int = 1) -> PontSeries:
    """The exponential of ``log_atoms`` by the route ``pontrjagin.exp_terms`` replaced: one
    grading dict at a time, multiplying in one atom at a time; the oracle of the walk."""
    ring, order = b.ring, b.order
    log = log_atoms(model, gamma, b, sign)
    dicts = [dict() for _ in range(order + 1)]
    dicts[0][()] = ring.one
    # walking n downward never extends a multiset that already contains the current atom
    for atom in sorted(log):
        a, j = log[atom], atom[0]
        powers = [ring.one]
        for m in range(1, order // j + 1):
            powers.append((powers[-1] * a).div_int(m))
        for n in range(order - j, -1, -1):
            for ms, c in dicts[n].items():
                for m in range(1, (order - n) // j + 1):
                    dicts[n + m * j][ms + (atom,) * m] = c * powers[m]
    return PontSeries(model, ring, dicts)


def series_terms(s: PontSeries) -> list:
    """The terms ``(n, multiset, coefficient)`` of a series, each grading's multisets in
    increasing order: the stream ``pontrjagin.exp_terms`` yields."""
    return [(n, ms, el.terms[ms]) for n, el in enumerate(s.components) for ms in sorted(el.terms)]


# -- the printers the production writers replaced: oracles for their text -----------

def ref_str(p: LPoly) -> str:
    """``str(p)`` as the first ``LPoly.__str__`` built it: every term reduced with
    ``gcd``, and the ``+`` read off the text of the term."""
    if not p.num:
        return "0"
    den, monomial = p.den, p.vars.monomial
    parts: list[str] = []
    for key, c in sorted(p.num.items()):
        mono = monomial(key)
        g = gcd(c, den)
        cs = str(c // g) if g == den else f"{c // g}/{den // g}"
        body = (cs if not mono else mono if c == den else "-" + mono if c == -den
                else f"{cs}*{mono}")
        parts.append("+" + body if parts and not body.startswith("-") else body)
    return "".join(parts)


def ref_report(command: str, params: dict, order: int, coefficients, checks: list,
               pretty: bool) -> str:
    """A report as the dict-tree writer printed it: the document as nested dicts and
    lists, then ``json.dumps(indent=2)`` or the plain-text table, line by line.
    ``coefficients`` is a ``PontSeries`` or a list of scalar-series records."""
    if isinstance(coefficients, PontSeries):
        coefficients = [
            {"n": n, "terms": [{"atoms": [f"d{k}*[{b}]" for k, b in ms], "c": str(c)}
                               for ms, c in sorted(el.terms.items())]}
            for n, el in enumerate(coefficients.components)]
    doc = {"command": command, "params": params, "order": order,
           "coefficients": coefficients, "checks": checks}
    if not pretty:
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"# {doc['command']} {doc['params']}"]
    for rec in doc["coefficients"]:
        if "terms" in rec:
            body = " + ".join(
                f"({t['c']}) {' '.join(t['atoms']) or '1'}" for t in rec["terms"]) or "0"
            lines.append(f"t^{rec['n']}: {body}")
        elif "alpha" in rec:
            lines.append(f"alpha_{rec['k']}: {rec['alpha']}")
        else:
            lines.append(f"t^{rec['n']}: {rec['c']}")
    for chk in doc["checks"]:
        detail = f" [{chk['detail']}]" if "detail" in chk else ""
        lines.append(f"check {chk['name']}: {chk['status']}{detail}")
    return "".join(line + "\n" for line in lines)


def random_series(rng: random.Random, ring: VarSet, order: int,
                  normalized: bool = False, zero_constant: bool = False,
                  **poly_kw) -> TSeries:
    coeffs = [random_lpoly(rng, ring, max_deg=3, terms=3, **poly_kw)
              for _ in range(order + 1)]
    if normalized:
        coeffs[0] = ring.one
    if zero_constant:
        coeffs[0] = ring.zero
    return TSeries(ring, coeffs)


def euler_log_bruteforce(a: TSeries) -> TSeries:
    """Solve for the Euler exponents degree by degree by dividing factors out.

    Independent of the peeled ``euler_log`` and of the Moebius inversion in
    :func:`ref_euler_log`: after b_1 .. b_{k-1} are
    known, A / prod_{j<k} (1-t^j)^(-b_j) = 1 + b_k t^k + O(t^{k+1}).
    """
    ring = a.ring
    rest = a
    out = []
    for k in range(1, a.order + 1):
        bk = rest.coeffs[k]
        out.append(bk)
        # divide out: multiply by (1 - t^k)^(+b_k) = lambda_{t^k}(-b_k)
        lam = pre_lambda(ring, -bk, a.order // k)
        factor = TSeries.from_terms(ring, a.order,
                                    {i * k: c for i, c in enumerate(lam.coeffs)})
        rest = rest * factor
    return exps(ring, out)


def random_hclass(rng: random.Random, model, terms: int = 2,
                  max_deg: int = 2, halves: bool = False) -> dict:
    out = {}
    for b, _ in model.basis:
        if rng.random() < 0.75:
            p = random_lpoly(rng, RING_Y, max_deg=max_deg, terms=terms, halves=halves)
            if not p.is_zero():
                out[b] = p
    return out

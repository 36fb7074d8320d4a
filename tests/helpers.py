"""Seeded random generators and independent oracles shared across tests."""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from motivic_cc.lpoly import LPoly, VarSet
from motivic_cc.series import CoeffRing, TSeries
from motivic_cc.lambda_power import EulerExponents, pre_lambda


def random_lpoly(rng: random.Random, vars: VarSet, max_deg: int = 6,
                 terms: int = 4, coeff_bound: int = 5, laurent: bool = False,
                 halves: bool = False) -> LPoly:
    out: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(0, terms)):
        exps = []
        for name in vars.names:
            lo = -max_deg if laurent else 0
            e = 2 * rng.randint(lo, max_deg)
            if halves and rng.random() < 0.3:
                e += 1
            exps.append(e)
        out[tuple(exps)] = rng.randint(-coeff_bound, coeff_bound)
    return LPoly(vars, out)


def random_series(rng: random.Random, ring: CoeffRing, order: int,
                  normalized: bool = False, zero_constant: bool = False,
                  **poly_kw) -> TSeries:
    def coeff():
        if hasattr(ring, "vars"):
            return random_lpoly(rng, ring.vars, max_deg=3, terms=3, **poly_kw)
        return Fraction(rng.randint(-5, 5))

    coeffs = [coeff() for _ in range(order + 1)]
    if normalized:
        coeffs[0] = ring.one
    if zero_constant:
        coeffs[0] = ring.zero
    return TSeries(ring, coeffs)


def euler_log_bruteforce(a: TSeries) -> EulerExponents:
    """Solve for the Euler exponents degree by degree by dividing factors out.

    Independent of the Moebius-inversion route: after b_1 .. b_{k-1} are
    known, A / prod_{j<k} (1-t^j)^(-b_j) = 1 + b_k t^k + O(t^{k+1}).
    """
    ring = a.ring
    rest = a
    exps = []
    for k in range(1, a.order + 1):
        bk = rest.coeffs[k]
        exps.append(bk)
        # divide out: multiply by (1 - t^k)^(+b_k) = lambda_{t^k}(-b_k)
        lam = pre_lambda(ring, -bk, a.order // k)
        factor = TSeries.from_terms(ring, a.order,
                                    {i * k: c for i, c in enumerate(lam.coeffs)})
        rest = rest * factor
    return EulerExponents(ring, tuple(exps))


def random_hclass(rng: random.Random, model, terms: int = 2,
                  max_deg: int = 2, halves: bool = False) -> dict:
    from motivic_cc.lpoly import VS_Y

    out = {}
    for b, _ in model.basis:
        if rng.random() < 0.75:
            p = random_lpoly(rng, VS_Y, max_deg=max_deg, terms=terms, halves=halves)
            if not p.is_zero():
                out[b] = p
    return out


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def load_bench_cases():
    """The benchmark's ``perfbench/cases.py``, loaded from its file (it is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up while decorating
    spec.loader.exec_module(module)
    return module

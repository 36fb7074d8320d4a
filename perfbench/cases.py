"""The benchmark's workloads: fixed CLI cases plus the inputs made from the seed.

Each case is one ``motivic-cc`` command line.  Fixed cases have a committed
SHA-256 of their stdout in ``digests.json``; seeded cases (the generated
model and ``verify``) have none and are checked by exit code and check
statuses instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Case:
    id: str
    args: tuple[str, ...]
    fixed: bool  # True when the stdout digest is committed in digests.json


def _fixed(case_id: str, cmdline: str) -> Case:
    return Case(case_id, tuple(cmdline.split()), True)


FIXED_CASES = {
    "classes": [
        _fixed("hilb-P2-8", "classes --builtin P2 --dim 2 --kind hilb --order 8"),
        _fixed("hilb-P1xP1-6", "classes --builtin P1xP1 --dim 2 --kind hilb --order 6"),
        _fixed("virtual-P3-5", "classes --builtin P3 --dim 3 --kind virtual --order 5"),
        _fixed("config-P2-8", "classes --builtin P2 --kind config --order 8"),
        _fixed("sym-P2-8", "classes --builtin P2 --kind sym --order 8"),
        _fixed("chern-P3-8", "classes --builtin P3 --dim 3 --kind chern --order 8"),
        _fixed("aluffi-point-20", "classes --builtin point --dim 3 --kind aluffi --order 20"),
    ],
    "motivic": [
        _fixed("zeta-P2xP2-24", "zeta --builtin P2xP2 --order 24"),
        _fixed("zeta-chiy-P2xP2xP2-20", "zeta --builtin P2xP2xP2 --order 20 --spec chi-y"),
        _fixed("zeta-chi-P4xP4-20", "zeta --builtin P4xP4 --order 20 --spec chi"),
        _fixed("zeta-P3-40", "zeta --builtin P3 --order 40"),
        _fixed("exponents-2-40", "exponents --dim 2 --order 40"),
    ],
    "verify": [],
}

WORKLOADS = tuple(FIXED_CASES)


def generate_model(seed: int) -> dict:
    """A valid non-proper ModelFile document drawn from ``seed``.

    The stored class has rational y-coefficients with small denominators and
    at least one odd ``yNum`` (a half-integer power of y); the integer Hodge
    polynomial has a negative coefficient, so ``zeta`` reaches
    ``TSeries.invert`` through a negative power in the monomial product.
    """
    rng = random.Random(seed)
    dim = 2
    basis = [{"id": f"g{i}", "deg": rng.randint(0, dim)} for i in range(2)]
    ty = {}
    for i, rec in enumerate(basis):
        nums = rng.sample(range(-2, 6), 2)
        coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
                  for _ in nums]
        if i == 0:
            if all(n % 2 == 0 for n in nums):
                nums[0] += 1  # one half-integer power of y; the others stay even
            coeffs[0] = Fraction(rng.choice((-1, 1)) * rng.choice((1, 5, 7)), rng.choice((2, 3, 4)))
        ty[rec["id"]] = [{"yNum": n, "c": str(c)} for n, c in sorted(zip(nums, coeffs))]
    monomials = rng.sample([(u, v) for u in range(3) for v in range(3)], 3)
    e_poly = [{"u": u, "v": v, "c": rng.choice((-1, 1)) * rng.randint(1, 3)} for u, v in monomials]
    e_poly[0]["c"] = -abs(e_poly[0]["c"])  # guarantee one negative coefficient
    return {
        "name": f"gen{seed}",
        "dim": dim,
        "proper": False,
        "basis": basis,
        "zeroDegreeBasisId": None,
        "ty_class": ty,
        "e_poly": sorted(e_poly, key=lambda t: (t["u"], t["v"])),
    }


def workload_cases(workload: str, seed: int, scratch: Path) -> list[Case]:
    """The cases of one workload; seeded inputs are written under ``scratch``."""
    if workload not in FIXED_CASES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cases = list(FIXED_CASES[workload])
    if workload == "verify":
        cases.append(Case("verify-all-8", ("verify", "--suite", "all", "--order", "8",
                                           "--seed", str(seed)), False))
        return cases
    model = scratch / f"model-seed{seed}.json"
    model.write_text(json.dumps(generate_model(seed), indent=2) + "\n")
    if workload == "classes":
        args = ("classes", "--model", str(model), "--dim", "2", "--kind", "hilb", "--order", "6")
        cases.append(Case("hilb-gen-6", args, False))
    else:
        cases.append(Case("zeta-gen-20", ("zeta", "--model", str(model), "--order", "20"), False))
    return cases

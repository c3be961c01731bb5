"""Seeded fuzz of the return map, the cycle scan and the Bautin
construction: every draw gives a record or a ``LotkaError``.

pytest does not collect this file; it runs longer than Tier-1 affords.
Run it from the repository root as

    PYTHONPATH=src python tests/fuzz_dynamics.py --seconds 60 --seed 0

Draws cycle through three families: elliptic (trace-free, det > 0),
mixed (all five parameters free) and saddle (det < 0).  Exponents lie in
[-100, 100], K in e**[-4, 4], the start x0 in 1 + 10**[-6, 1] and
rel_tol in {1e-6, 1e-8, 1e-9}; a third of the draws set a3 = 0 or
|a3| <= 1e-9 (an elliptic draw redraws until det > 0).  Each draw maps
x0 and scans the radii x0 - 1 and 2 (x0 - 1).

Every 10th draw also calls ``bautin_scenario`` on a base of its own
stream, seeded from the same seed: b1 and a3 uniform in [-5, 5] and
dK = +-10**U(-5, -1).  Its outcome is accepted, BadBase at the base,
at stage 1 or at stage 2, or the name of another ``LotkaError``; an
accepted result must show one stable cycle in stage 1 and an unstable
cycle inside a stable one in stage 2.

Prints the outcomes per family and exits 1 if any draw raised anything
else or an accepted Bautin result lacks its shape.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
import traceback
from collections import Counter

from lotkacenter import (
    BadBase,
    CanonicalParams,
    CycleStability,
    LotkaError,
    bautin_scenario,
    detect_limit_cycles,
    jacobian,
    poincare_return,
)

FAMILIES = ("elliptic", "mixed", "saddle")


def _draw(rng: random.Random, family: str) -> CanonicalParams:
    while True:
        a1, b1, a3, b3 = (rng.uniform(-100.0, 100.0) for _ in range(4))
        roll = rng.random()
        if roll < 1 / 6:
            a3 = 0.0
        elif roll < 1 / 3:
            a3 = rng.uniform(-1e-9, 1e-9)
        K = math.exp(rng.uniform(-4.0, 4.0))
        if family == "elliptic":
            b3 = a1 / K
        c = CanonicalParams(a1, b1, a3, b3, K)
        det = jacobian(c).determinant
        if family == "mixed" or (det > 0.0) == (family == "elliptic"):
            return c


def _bautin_outcome(b1: float, a3: float, delta_k: float) -> str:
    """"accepted", "BadBase <where>" or another LotkaError's name; raises
    RuntimeError when an accepted result lacks the two-cycle shape."""
    try:
        result = bautin_scenario(b1, a3, delta_k)
    except BadBase as exc:
        where = str(exc).split(" of base", 1)[0]
        return f"BadBase {where if where.startswith('stage') else 'base'}"
    except LotkaError as exc:
        return type(exc).__name__
    shape1 = tuple(cyc.stability for cyc in result.stage1_report.cycles)
    shape2 = tuple(cyc.stability for cyc in result.stage2_report.cycles)
    if shape1 != (CycleStability.STABLE,) or shape2 != (CycleStability.UNSTABLE, CycleStability.STABLE):
        raise RuntimeError(f"accepted without the two-cycle shape: {shape1}, {shape2}")
    return "accepted"


def _outcome(call) -> str:
    try:
        call()
    except LotkaError as exc:
        return type(exc).__name__
    return "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    bautin_rng = random.Random(f"bautin {args.seed}")
    outcomes: Counter = Counter()
    escaped = 0
    deadline = time.perf_counter() + args.seconds
    n = 0
    while time.perf_counter() < deadline:
        family = FAMILIES[n % len(FAMILIES)]
        n += 1
        c = _draw(rng, family)
        radius = 10.0 ** rng.uniform(-6.0, 1.0)
        rel_tol = rng.choice((1e-6, 1e-8, 1e-9))
        try:
            outcomes[family, "map", _outcome(lambda: poincare_return(c, 1.0 + radius, rel_tol))] += 1
            outcomes[family, "scan", _outcome(lambda: detect_limit_cycles(c, radius, 2.0 * radius, 2))] += 1
        except Exception:
            escaped += 1
            print(f"escaped on {c}, radius {radius!r}, rel_tol {rel_tol}", file=sys.stderr)
            traceback.print_exc()
        if n % 10 == 0:
            b1, a3 = bautin_rng.uniform(-5.0, 5.0), bautin_rng.uniform(-5.0, 5.0)
            delta_k = bautin_rng.choice((-1.0, 1.0)) * 10.0 ** bautin_rng.uniform(-5.0, -1.0)
            try:
                outcomes["bautin", "construct", _bautin_outcome(b1, a3, delta_k)] += 1
            except Exception:
                escaped += 1
                print(f"escaped on bautin base ({b1!r}, {a3!r}, {delta_k!r})", file=sys.stderr)
                traceback.print_exc()
    print(f"{n} draws, seed {args.seed}, {escaped} escaped")
    for (family, call, outcome), count in sorted(outcomes.items()):
        print(f"{family}\t{call}\t{outcome}\t{count}")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())

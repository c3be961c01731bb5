"""Seeded parameter samplers shared across the test modules.

Every sampler returns parameter sets with det(J) bounded away from
zero, trace-zero ones but for the inner-cycle systems of
``near_bautin_draws`` (whose trace is small and negative), and keeps
constructed factors either exactly on their algebraic set or at a safe
distance from it, so tolerance-window artifacts cannot blur the
center/focus decision under test.
"""

from __future__ import annotations

import math

import numpy as np

from lotkacenter import CanonicalParams, closed_form_focal, jacobian
from lotkacenter.classifier import CASE_CONSTRAINTS, CenterCase

EXP_BOUND = 5.0
DET_FLOOR = 1e-2
MARGIN = 0.05


def _det(c: CanonicalParams) -> float:
    return jacobian(c).determinant


def elliptic_draws(seed: int, n: int) -> list[CanonicalParams]:
    """Generic trace-zero draws; focal values are almost surely nonzero."""
    rng = np.random.default_rng(seed)
    out: list[CanonicalParams] = []
    while len(out) < n:
        a1, b1, a3 = rng.uniform(-EXP_BOUND, EXP_BOUND, 3)
        K = math.exp(rng.uniform(-1.5, 1.5))
        b3 = a1 / K
        if abs(b3) > EXP_BOUND:
            continue
        c = CanonicalParams(float(a1), float(b1), float(a3), float(b3), float(K))
        if _det(c) >= DET_FLOOR:
            out.append(c)
    return out


def _row_draw(rng, case: CenterCase) -> CanonicalParams | None:
    """The free parameters of ``case`` in the RNG's order, built into a
    point through the family table."""
    if case is CenterCase.I:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        a3, b1 = sign * rng.uniform(0.3, EXP_BOUND), sign * rng.uniform(0.3, EXP_BOUND)
        free = b1, a3, math.exp(rng.uniform(-1.5, 1.5))
    elif case is CenterCase.II:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        a1, b3 = sign * rng.uniform(0.2, 2.0), sign * rng.uniform(0.2, 2.0)
        if a1 + b3 > 1.0 - MARGIN:
            return None
        free = a1, b3
    elif case is CenterCase.III:
        a1 = rng.uniform(0.2, 4.0)
        free = a1, rng.uniform(-EXP_BOUND, -a1 - MARGIN)
    elif case is CenterCase.IV:
        b3 = rng.uniform(0.2, 4.0)
        free = rng.uniform(-EXP_BOUND, -b3 - MARGIN), b3
    elif case is CenterCase.R1:
        b1 = rng.uniform(0.3, EXP_BOUND) * (1.0 if rng.uniform() < 0.5 else -1.0)
        free = rng.uniform(-abs(b1) + MARGIN, abs(b1) - MARGIN), b1
    else:
        b1 = rng.uniform(-EXP_BOUND, -0.6)
        lo, hi = b1 + 1.0 + MARGIN, -b1 - MARGIN
        if lo >= hi:
            return None
        free = b1, rng.uniform(lo, hi)
    c = CanonicalParams(*CASE_CONSTRAINTS[case].point(*free))
    if case is CenterCase.R2 and (abs(c.a1) > EXP_BOUND or abs(c.a3) > EXP_BOUND or c.K > 25.0):
        return None
    if _det(c) < DET_FLOOR:
        return None
    return c


def center_row_draws(seed: int, case: CenterCase, n: int) -> list[CanonicalParams]:
    """Draws satisfying one Table row exactly, inequalities with margin."""
    rng = np.random.default_rng(seed)
    out: list[CanonicalParams] = []
    while len(out) < n:
        c = _row_draw(rng, case)
        if c is not None:
            out.append(c)
    return out


def case_b_stratum_draws(seed: int, n: int) -> list[CanonicalParams]:
    """First focal value zero via the generic branch; second almost surely not."""
    rng = np.random.default_rng(seed)
    out: list[CanonicalParams] = []
    while len(out) < n:
        a3, b3 = rng.uniform(-4.5, 4.5, 2)
        K = math.exp(rng.uniform(-1.3, 1.3))
        d_value = 1.0 + a3 - a3 * K - b3 * K
        if abs(d_value) < MARGIN or abs(b3) < MARGIN or abs(b3 - 1.0) < MARGIN:
            continue
        b1 = a3 * (1.0 - b3) * K / d_value
        if abs(b1) > EXP_BOUND or abs(b1) < MARGIN or abs(K * b3) > EXP_BOUND:
            continue
        c = CanonicalParams(float(K * b3), float(b1), float(a3), float(b3), float(K))
        if _det(c) >= DET_FLOOR:
            out.append(c)
    return out


def c2_stratum_draws(seed: int, n: int) -> list[CanonicalParams]:
    """b3 = 1, K = 1 draws (first focal value identically zero)."""
    rng = np.random.default_rng(seed)
    out: list[CanonicalParams] = []
    while len(out) < n:
        b1, a3 = rng.uniform(-4.5, 4.5, 2)
        if abs(b1) < MARGIN:
            continue
        c = CanonicalParams(1.0, float(b1), float(a3), 1.0, 1.0)
        if _det(c) >= DET_FLOOR:
            out.append(c)
    return out


def near_bautin_draws(seed: int, n: int) -> list[CanonicalParams]:
    """Systems next to a weak focus of order two, with small limit cycles.

    Each starts from a C2-stratum draw with L2 < 0 and sets b3 = 1 and
    a1 = K = 1 + dk (trace zero), with dk of the sign and size that make
    L1 about r**2 |L2| for r uniform in [0.2, 0.6]: one stable cycle.
    Every second system lowers a1 below K by half the normal-form fold,
    as stage two of the Bautin construction does, which adds an unstable
    inner cycle.
    """
    rng = np.random.default_rng(seed)
    out: list[CanonicalParams] = []
    for base in c2_stratum_draws(seed, 4 * n):
        if len(out) == n:
            break
        L2 = closed_form_focal(base).L2
        if not L2 < 0.0:
            continue
        # L1 is linear in dk near the stratum
        slope = closed_form_focal(CanonicalParams(1.001, base.b1, base.a3, 1.0, 1.001)).L1 / 1e-3
        K = 1.0 + rng.uniform(0.2, 0.6) ** 2 * abs(L2) / slope
        c = CanonicalParams(K, base.b1, base.a3, 1.0, K)
        if len(out) % 2:
            L1 = closed_form_focal(c).L1
            eps = jacobian(c).omega * L1**2 / (8.0 * math.pi * abs(L2))
            c = CanonicalParams(K - eps, base.b1, base.a3, 1.0, K)
        out.append(c)
    return out


def r_intersection_draws(seed: int, n: int) -> list[CanonicalParams]:
    """Draws in both reversible families: a1 = b3 = b1 + 2, a3 = b1, K = 1."""
    rng = np.random.default_rng(seed)
    out: list[CanonicalParams] = []
    while len(out) < n:
        b1 = rng.uniform(-EXP_BOUND, -1.0 - MARGIN)
        c = CanonicalParams(float(b1 + 2.0), float(b1), float(b1), float(b1 + 2.0), 1.0)
        if _det(c) >= DET_FLOOR:
            out.append(c)
    return out


def raw_draws(seed: int, n: int):
    """Random kinetic rate sets with a well-conditioned exponent matrix.

    Each set is seeded from a random equilibrium near (1, 1) by choosing
    k2, k3 to balance the power terms there, which keeps those terms of
    moderate size; an absolute residual bound at the recovered
    equilibrium is then meaningful.  Returns (raw, seeded equilibrium)
    pairs.
    """
    from lotkacenter import RawLotkaParams

    rng = np.random.default_rng(seed)
    out: list[tuple[RawLotkaParams, tuple[float, float]]] = []
    while len(out) < n:
        e = rng.uniform(-3.0, 3.0, 6)
        a1, b1 = e[0] - e[2], e[1] - e[3]
        a3, b3 = e[4] - e[2], e[5] - e[3]
        if abs(a1 * b3 - b1 * a3) < 0.3:
            continue
        x_eq, y_eq = np.exp(rng.uniform(-0.7, 0.7, 2))
        k1, k4 = np.exp(rng.uniform(-0.7, 0.7, 2))
        k2 = k1 * x_eq**a1 * y_eq**b1
        k3 = k4 * x_eq**a3 * y_eq**b3
        raw = RawLotkaParams(
            float(k1), float(k2), float(k3), float(k4), *map(float, e)
        )
        out.append((raw, (float(x_eq), float(y_eq))))
    return out


def quadrant_points(seed: int, n: int, spread: float = 4.0) -> list[tuple[float, float]]:
    """Log-uniform positive points centered on (1, 1)."""
    rng = np.random.default_rng(seed)
    logs = rng.uniform(-math.log(spread), math.log(spread), size=(n, 2))
    return [(float(math.exp(u)), float(math.exp(v))) for u, v in logs]

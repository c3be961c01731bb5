"""Seeded input generators for the benchmark workloads.

Everything here depends on numpy and the seed only; nothing imports
lotkacenter, so the program under test receives generated inputs and
never helps to make them.  Parameter sets are plain tuples
(a1, b1, a3, b3, K) of the canonical system

    dx/dt = x**a1 * y**b1 - 1
    dy/dt = K * (1 - x**a3 * y**b3)

and the constructions follow the samplers of the test suite: exact
center-table rows with their strict inequalities kept at a margin, the
(b3 = 1, K = 1) stratum where the first focal value vanishes
identically, the generic stratum where only the first focal value
vanishes, and generic trace-free elliptic draws.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

EXP_BOUND = 5.0
DET_FLOOR = 1e-2
MARGIN = 0.05

ROWS = ("I", "II", "III", "IV", "R1", "R2")
#: the four perturbation scales of the near-locus set; 0 keeps the draw exact
NEAR_LOCUS_SCALES = (0.0, 1e-9, 1e-8, 1e-6)
#: the near-locus set is drawn from this seed whatever the run's seed, so
#: the raises it provokes in ``classify`` are the same count in every run
NEAR_LOCUS_SEED = 7
#: the two acceptance bases of the Bautin construction: (b1, a3, delta_k)
BAUTIN_BASES = ((-2.0, -3.0, 0.02), (2.0, 1.0, -0.02))

# stream tags, so that each generator draws from its own stream of the seed
_TAG_ROW = 1
_TAG_C2 = 20
_TAG_CASE_B = 21
_TAG_GENERIC = 22
_TAG_PERTURB = 30
_TAG_RAW = 31
_TAG_SCAN = 40
_TAG_CERTIFY = 50
_TAG_POINTS = 60


def _rng(seed: int, tag: int, sub: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, sub]))


def det(p: tuple) -> float:
    """Determinant of the Jacobian at (1, 1): K * (a3*b1 - a1*b3)."""
    a1, b1, a3, b3, K = p
    return K * (a3 * b1 - a1 * b3)


def _row_draw(rng: np.random.Generator, row: str):
    if row == "I":
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        a3 = sign * rng.uniform(0.3, EXP_BOUND)
        b1 = sign * rng.uniform(0.3, EXP_BOUND)
        K = math.exp(rng.uniform(-1.5, 1.5))
        p = (0.0, float(b1), float(a3), 0.0, float(K))
    elif row == "II":
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        a1 = sign * rng.uniform(0.2, 2.0)
        b3 = sign * rng.uniform(0.2, 2.0)
        if a1 + b3 > 1.0 - MARGIN:
            return None
        p = (float(a1), float(b3 - 1.0), float(a1 - 1.0), float(b3), float(a1 / b3))
    elif row == "III":
        a1 = rng.uniform(0.2, 4.0)
        b1 = rng.uniform(-EXP_BOUND, -a1 - MARGIN)
        p = (float(a1), float(b1), -1.0, 1.0, float(a1))
    elif row == "IV":
        b3 = rng.uniform(0.2, 4.0)
        a3 = rng.uniform(-EXP_BOUND, -b3 - MARGIN)
        p = (1.0, -1.0, float(a3), float(b3), float(1.0 / b3))
    elif row == "R1":
        b1 = rng.uniform(0.3, EXP_BOUND) * (1.0 if rng.uniform() < 0.5 else -1.0)
        a1 = rng.uniform(-abs(b1) + MARGIN, abs(b1) - MARGIN)
        p = (float(a1), float(b1), float(b1), float(a1), 1.0)
    elif row == "R2":
        b1 = rng.uniform(-EXP_BOUND, -0.6)
        lo, hi = b1 + 1.0 + MARGIN, -b1 - MARGIN
        if lo >= hi:
            return None
        b3 = rng.uniform(lo, hi)
        K = 1.0 / (b3 - b1 - 1.0)
        p = (float(K * b3), float(b1), float(K * b1), float(b3), float(K))
        if abs(p[0]) > EXP_BOUND or abs(p[2]) > EXP_BOUND or K > 25.0:
            return None
    else:
        raise ValueError(f"unknown center row {row!r}")
    return p if det(p) >= DET_FLOOR else None


def center_row_draws(seed: int, row: str, n: int, tag: int = _TAG_ROW) -> list[tuple]:
    """Draws on one center-table row exactly, inequalities with margin."""
    rng = _rng(seed, tag, ROWS.index(row))
    out: list[tuple] = []
    while len(out) < n:
        p = _row_draw(rng, row)
        if p is not None:
            out.append(p)
    return out


def c2_stratum_draws(seed: int, n: int, tag: int = _TAG_C2) -> list[tuple]:
    """b3 = 1, K = 1 draws: the first focal value vanishes identically."""
    rng = _rng(seed, tag)
    out: list[tuple] = []
    while len(out) < n:
        b1, a3 = rng.uniform(-4.5, 4.5, 2)
        if abs(b1) < MARGIN:
            continue
        p = (1.0, float(b1), float(a3), 1.0, 1.0)
        if det(p) >= DET_FLOOR:
            out.append(p)
    return out


def case_b_stratum_draws(seed: int, n: int, tag: int = _TAG_CASE_B) -> list[tuple]:
    """First focal value zero on the generic branch; the second is not."""
    rng = _rng(seed, tag)
    out: list[tuple] = []
    while len(out) < n:
        a3, b3 = rng.uniform(-4.5, 4.5, 2)
        K = math.exp(rng.uniform(-1.3, 1.3))
        d_value = 1.0 + a3 - a3 * K - b3 * K
        if abs(d_value) < MARGIN or abs(b3) < MARGIN or abs(b3 - 1.0) < MARGIN:
            continue
        b1 = a3 * (1.0 - b3) * K / d_value
        if abs(b1) > EXP_BOUND or abs(b1) < MARGIN or abs(K * b3) > EXP_BOUND:
            continue
        p = (float(K * b3), float(b1), float(a3), float(b3), float(K))
        if det(p) >= DET_FLOOR:
            out.append(p)
    return out


def elliptic_draws(seed: int, n: int, tag: int = _TAG_GENERIC, bound: float = EXP_BOUND) -> list[tuple]:
    """Generic trace-free elliptic draws; focal values almost surely nonzero."""
    rng = _rng(seed, tag)
    out: list[tuple] = []
    while len(out) < n:
        a1, b1, a3 = rng.uniform(-bound, bound, 3)
        K = math.exp(rng.uniform(-1.5, 1.5))
        b3 = a1 / K
        if abs(b3) > bound:
            continue
        p = (float(a1), float(b1), float(a3), float(b3), float(K))
        if det(p) >= DET_FLOOR:
            out.append(p)
    return out


def quadrant_points(seed: int, n: int, spread: float = 4.0) -> list[tuple[float, float]]:
    """Log-uniform positive points centered on (1, 1)."""
    rng = _rng(seed, _TAG_POINTS)
    logs = rng.uniform(-math.log(spread), math.log(spread), size=(n, 2))
    return [(float(math.exp(u)), float(math.exp(v))) for u, v in logs]


# ---------------------------------------------------------------------------
# atlas


def near_locus_set(seed: int, per_group: int = 300) -> list[dict]:
    """Center-row and stratum draws perturbed off the locus.

    ``per_group`` draws from each of the six rows, the C2 stratum and
    the case-B stratum are each perturbed at every scale s in
    NEAR_LOCUS_SCALES: a1, b1 and a3 get N(0, s) added, K is multiplied
    by 1 + N(0, s), and b3 is reset to a1/K so the trace stays zero.
    At s = 0 the draw is kept exactly as constructed.
    """
    groups = [(row, center_row_draws(seed, row, per_group)) for row in ROWS]
    groups.append(("C2", c2_stratum_draws(seed, per_group)))
    groups.append(("B", case_b_stratum_draws(seed, per_group)))
    rng = _rng(seed, _TAG_PERTURB)
    out: list[dict] = []
    for s in NEAR_LOCUS_SCALES:
        for group, draws in groups:
            for p in draws:
                noise = rng.normal(0.0, 1.0, 4) * s
                if s == 0.0:
                    q = p
                else:
                    a1 = p[0] + float(noise[0])
                    K = p[4] * (1.0 + float(noise[3]))
                    q = (a1, p[1] + float(noise[1]), p[2] + float(noise[2]), a1 / K, K)
                out.append({"group": group, "scale": s, "params": q})
    return out


def raw_form(seed: int, params: list[tuple]) -> list[tuple]:
    """Four-term kinetic versions of canonical parameter sets.

    Each set gets random exponent offsets (alpha2, beta2), a random
    positive equilibrium near (1, 1) and a random k1; the other rates
    are solved so the reduction returns the original exponents and K.
    Returns (k1, k2, k3, k4, alpha1, beta1, alpha2, beta2, alpha3, beta3).
    """
    rng = _rng(seed, _TAG_RAW)
    out = []
    for a1, b1, a3, b3, K in params:
        alpha2, beta2 = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        xs, ys, k1 = (float(v) for v in np.exp(rng.uniform(-0.7, 0.7, 3)))
        k2 = k1 * xs**a1 * ys**b1
        k3 = K * k2 * ys / xs
        k4 = k3 / (xs**a3 * ys**b3)
        out.append(
            (k1, k2, k3, k4, a1 + alpha2, b1 + beta2, alpha2, beta2, a3 + alpha2, b3 + beta2)
        )
    return out


def sweep_grid(n: int = 50, lo: float = -3.0, hi: float = 3.0) -> list[float]:
    """The sweep's default axis, as numpy.linspace builds it."""
    return [float(v) for v in np.linspace(lo, hi, n)]


# ---------------------------------------------------------------------------
# cycles


#: weak-focus asymptotics in the section coordinate, fitted at each
#: acceptance base (b1, a3): the stable cycle's radius**2 is about
#: r2_coef * L1 / |L2|, and the two cycles of stage two merge when a1 is
#: lowered below K by about fold_coef * L1**2 / |L2|
_NEAR_BAUTIN = (
    {"b1": -2.0, "a3": -3.0, "r2_coef": 3.6, "fold_coef": 0.17},
    {"b1": 2.0, "a3": 1.0, "r2_coef": 1.9, "fold_coef": 0.09},
)


def scan_systems(seed: int, n: int) -> list[dict]:
    """Near-Bautin systems for standalone cycle scans.

    Bases (b1, a3) lie within 0.25 of the two acceptance bases, on the
    C2 stratum where L2 < 0.  Each system sets b3 = 1 and K = 1 + dk,
    with dk of the sign that makes the first focal value L1 positive and
    of the size that puts the predicted stable cycle at a radius in
    [0.3, 0.9].  ``one_cycle`` systems keep a1 = K (trace zero);
    ``two_cycles`` systems lower a1 below K by 40-60% of the predicted
    fold distance, which adds an unstable inner cycle, and keep the
    stable one beyond 0.45 so that the inner one stays wide enough for a
    30-radius scan to find; ``no_cycle``
    systems lower it well past the fold.  The kinds come in fixed
    proportions 3:4:3 and alternate between the bases, so every seed has
    the same mix; the predictions only shape the mix and are never
    checked.  Each parameter is drawn stratified within a kind: the
    kind's range is cut into as many equal strata as the kind has
    systems, and each system takes a random point of its own stratum.
    Which stratum of each parameter goes to which system is fixed, the
    same for every seed, so the seed moves every system only within its
    cell, and every percentile of the scan costs stays nearly the same
    from seed to seed.
    """
    rng = _rng(seed, _TAG_SCAN)
    pattern = ["one_cycle"] * 3 + ["two_cycles"] * 4 + ["no_cycle"] * 3
    kinds = [pattern[j % len(pattern)] for j in range(n)]
    total = {k: kinds.count(k) for k in pattern}
    design = _rng(0, _TAG_SCAN)
    order = {k: [design.permutation(total[k]) for _ in range(4)] for k in pattern}
    seen = dict.fromkeys(pattern, 0)
    out: list[dict] = []
    for j, kind in enumerate(kinds):
        m = seen[kind]
        seen[kind] += 1

        def draw(which: int, lo: float, hi: float) -> float:
            return lo + (hi - lo) * (order[kind][which][m] + float(rng.uniform())) / total[kind]

        near = _NEAR_BAUTIN[j % 2]
        b1 = near["b1"] + draw(0, -0.25, 0.25)
        a3 = near["a3"] + draw(1, -0.25, 0.25)
        root = math.sqrt(a3 * b1 - 1.0)
        l2 = (math.pi / 288.0) * a3 * (1.0 + a3) * (1.0 + b1) * (a3 - b1) / (root * b1)
        radius = draw(2, 0.45 if kind == "two_cycles" else 0.3, 0.9)
        l1 = radius * radius * abs(l2) / near["r2_coef"]
        dk = l1 * root / ((math.pi / 8.0) * abs(1.0 + a3))
        K = 1.0 - math.copysign(dk, 1.0 + a3)
        fold = near["fold_coef"] * l1 * l1 / abs(l2)
        if kind == "one_cycle":
            a1 = K
        elif kind == "two_cycles":
            a1 = K - draw(3, 0.4, 0.6) * fold
        else:
            a1 = K - draw(3, 5.0, 20.0) * fold
        out.append({"kind": kind, "params": (a1, b1, a3, 1.0, K)})
    return out


# ---------------------------------------------------------------------------
# certify


#: start of every return map in the certify workload, on the section y = 1
CERTIFY_X0 = 1.2


def returns_once(params: list[tuple], x0: float = CERTIFY_X0) -> np.ndarray:
    """Which systems bring the orbit from (x0, 1) back to y = 1 on x > 1.

    A fixed-step RK4 over all systems at once, 400 steps per linear
    period for at most three periods, inside the box [0.05, 20]**2.
    The box and the time limit are tighter than the program's own, so a
    system kept here is one whose return map is expected to succeed.
    """
    p = np.asarray(params, dtype=float)
    a1, b1, a3, b3, K = p.T
    period = 2.0 * np.pi / np.sqrt(np.maximum(K * (a3 * b1 - a1 * b3), 1e-12))
    h = period / 400.0
    x = np.full(len(p), x0)
    y = np.ones(len(p))
    alive = np.ones(len(p), dtype=bool)
    done = np.zeros(len(p), dtype=bool)

    def field(x, y):
        return x**a1 * y**b1 - 1.0, K * (1.0 - x**a3 * y**b3)

    direction = np.sign(field(x, y)[1])
    with np.errstate(all="ignore"):
        for step in range(1200):
            k1 = field(x, y)
            k2 = field(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
            k3 = field(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
            k4 = field(x + h * k3[0], y + h * k3[1])
            xn = x + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            yn = y + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            alive &= np.isfinite(xn) & np.isfinite(yn) & (xn > 0.05) & (yn > 0.05)
            alive &= (xn < 20.0) & (yn < 20.0)
            crossed = (np.sign(yn - 1.0) == direction) & (np.sign(y - 1.0) != direction)
            done |= alive & crossed & (xn > 1.0) & (step > 10)
            x = np.where(alive, xn, x)
            y = np.where(alive, yn, y)
            if not (alive & ~done).any():
                break
    return done


def certify_mix(seed: int, per_row: int, per_stratum: int, generic: int) -> list[dict]:
    """Center-row, stratum and generic focus systems for evidence bundles.

    Candidates whose orbit through the section point (1.2, 1) does not
    come back (it leaves the period annulus or spirals out) are drawn
    again, so every bundle can be completed.
    """
    wanted = [(row, per_row) for row in ROWS] + [("C2", per_stratum), ("B", per_stratum)]
    wanted.append(("generic", generic))
    candidates: list[tuple[str, int, list[tuple]]] = []
    for kind, n in wanted:
        if kind in ROWS:
            draws = center_row_draws(seed, kind, 4 * n, tag=_TAG_CERTIFY)
        elif kind == "C2":
            draws = c2_stratum_draws(seed, 4 * n, tag=_TAG_CERTIFY + 1)
        elif kind == "B":
            draws = case_b_stratum_draws(seed, 4 * n, tag=_TAG_CERTIFY + 2)
        else:
            draws = elliptic_draws(seed, 4 * n, tag=_TAG_CERTIFY + 3, bound=3.0)
        candidates.append((kind, n, draws))
    ok = iter(returns_once([p for _, _, draws in candidates for p in draws]))
    out: list[dict] = []
    for kind, n, draws in candidates:
        kept = [p for p in draws if next(ok)][:n]
        if len(kept) < n:
            raise RuntimeError(f"only {len(kept)} of {n} {kind} systems return from x0 = 1.2")
        out.extend({"kind": kind, "params": p} for p in kept)
    return out


# ---------------------------------------------------------------------------


def digest(obj) -> str:
    """SHA-256 over every float of a nested structure, in order."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, float):
            h.update(struct.pack("<d", x))
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()[:16]

"""Adaptive integration, return maps and limit-cycle detection.

The stepper is an embedded Dormand-Prince 5(4) pair on plain scalars,
written once, inside the stepping loop of ``_drive``, with the field
inlined into each stage, so a step makes no Python call.  Two behaviors
are deliberate rather than generic:

* a positivity guard rejects and halves any step whose stages leave the
  open quadrant (or overflow), so power-law evaluation never sees a
  non-positive base;
* the step size is capped at a multiple of sqrt(relTol) times the local
  rotation period, which ties conserved-quantity drift to roughly
  relTol**2.5 and keeps tolerance halving an honest accuracy knob.

A return map cuts the orbit on one section, the line y = 1.  It counts
the crossing against the return direction and polishes only the return:
Newton iterations, seeded by the secant of the crossing step, re-run the
loop's stage block on a substep, so the reported crossing lies on the
numerical orbit itself.  Each map also reports an error bound: its
steps' embedded error estimates plus a round-off term.

Cycle search scans the displacement over radii.  One rule trusts a
sign: a map vouches for it when |displacement| exceeds the map's error
bound.  A scan value is mapped at a loose tolerance, and re-mapped at
the sign tolerance when that map does not vouch for it.  An end of a
sign change that the scan cannot vouch for is mapped once at the
refinement tolerance, and the sign changes of the vouched values are the
brackets.  Brent's method finds the root of the sign maps in each
bracket, and secant steps on refinement maps finish it.  They go on
while each value comes closer to 0 and stop once a step falls under that
tolerance: the root of a return map at relTol is only as good as the
map, so iterating below relTol, or in its round-off, buys return maps,
not accuracy.  The Bautin construction takes
its trace perturbation from the generalized-Hopf normal form and keeps
the return-map scan as the certificate of the two-cycle shape.

Each cycle-layer setting with one value in use is a module constant:
the scan, sign and refinement tolerances, the return map's period and
step budgets and the Bautin scan window.  Callers choose a scan's radii,
the rel_tol of a single map or trajectory, and a trajectory's length and
step budget.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import BadBase, DomainError, IntegrationFailure, NoReturn, PreconditionViolated
from .focal import FocalValues, closed_form_focal
from .model import CanonicalParams, EigenvalueKind, Point, _positive_xy, jacobian, vector_field

__all__ = [
    "BautinResult",
    "CycleRecord",
    "CycleStability",
    "LimitCycleReport",
    "ReturnRecord",
    "TerminationReason",
    "Trajectory",
    "bautin_scenario",
    "detect_limit_cycles",
    "integrate",
    "poincare_return",
    "section_displacement",
]

STEP_BUDGET_DEFAULT = 10_000_000
#: a return map gives up after this many characteristic periods
_PERIODS_BUDGET = 50.0

# Dormand-Prince 5(4) tableau
_A2 = (1 / 5,)
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

#: cap h <= _CAP_GAMMA * sqrt(relTol) * T_char (and never above _CAP_STATIC * T_char)
_CAP_GAMMA = 100.0
_CAP_STATIC = 0.08

# orbits leaving this box count as escaped; the bound is generous for
# every bounded orbit in scope but stops stiff boundary creep early
_ESCAPE_LOW = 1e-4
_ESCAPE_HIGH = 1e4

#: return-map tolerances of a cycle scan.  A scan value is first mapped at
#: _SCAN_REL_TOL and kept when it clears its own error bound; otherwise it
#: is re-mapped at _SIGN_REL_TOL.  Against
#: 1e-11 maps a 1e-7 map's error reached 0.33 of its bound (a 1e-6 map's
#: 2.7), and no kept 1e-7 value had the wrong sign (84 near-Bautin
#: systems at 30 radii)
_SCAN_REL_TOL = 1e-7
_SIGN_REL_TOL = 1e-8
#: return-map tolerance of the root refinement; its secant steps stop
#: once the next step is at most half of it, or the next value is no
#: closer to 0.  Mapping at 1e-11 instead moves a refined root by a
#: median 3.5e-11 and at most 7e-10, on small flat cycles (1,305 cycles
#: of seeded near-Bautin systems), so smaller steps spend return maps
#: inside the maps' own noise
_REFINE_REL_TOL = 1e-10
#: the first secant step takes the slope of the sign maps from a value
#: more than this share of the radius from their root: closer values
#: differ by little more than the maps' error, and the nearest one made 6%
#: more refinement maps
_SLOPE_SPAN = 1e-6
#: the radius window and scan length of both Bautin stages
_BAUTIN_SCAN = (0.02, 1.5, 30)


class TerminationReason(Enum):
    TIME_LIMIT = "TimeLimit"
    SECTION_RETURN = "SectionReturn"
    QUADRANT_ESCAPE = "QuadrantEscape"
    STEP_BUDGET = "StepBudget"
    STEP_SIZE_FLOOR = "StepSizeFloor"


class CycleStability(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"


class Trajectory(NamedTuple):
    times: tuple[float, ...]
    points: tuple[tuple[float, float], ...]  # (x, y) at each time
    n_accepted: int
    n_rejected: int
    termination: TerminationReason


class ReturnRecord(NamedTuple):
    """One full turn of the return map on the section through (1, 1).

    ``crossings`` is 2 on a first return of the flow: on y = 1 the sign
    of dy/dt = K(1 - x**a3) is fixed on each side of x = 1, and a3 = 0 is
    refused, so an orbit from x0 > 1 crosses once at x < 1 and returns
    at x > 1.  A map that counts other crossings is no first return and
    raises NoReturn.

    ``error_bound`` bounds the error of ``return_x``: the sum of the
    embedded error estimates of the map's steps (local truncation errors,
    without their growth along the orbit) plus the round-off eps n (1 +
    w t) x that an embedded pair cannot see.  Each of the n accepted
    steps rounds x by eps x, and its rounding of y moves the rate of x by
    up to w eps x, w = |a1| + |b1| + |a3| + |b3|, for at most the return
    time t; x = ``return_x``.  A return within ``error_bound`` of x = 1
    cannot be told from (1, 1) and is NoReturn.
    """

    start_x: float
    return_x: float
    displacement: float
    return_time: float
    crossings: int
    error_bound: float


class CycleRecord(NamedTuple):
    radius: float
    displacement: float
    stability: CycleStability


class LimitCycleReport(NamedTuple):
    cycles: tuple[CycleRecord, ...]
    scan_radii: tuple[float, ...]
    scan_displacements: tuple[float, ...]


class BautinResult(NamedTuple):
    """Staged evidence for the coexisting-cycles construction."""

    base_params: CanonicalParams
    base_focal: FocalValues
    stage1_params: CanonicalParams
    stage1_focal: FocalValues
    stage1_report: LimitCycleReport
    stage2_params: CanonicalParams
    stage2_eps: float
    stage2_report: LimitCycleReport


def _char_period(det: float) -> float:
    rate = max(0.05, math.sqrt(abs(det)))
    return 2.0 * math.pi / rate


def _step_cap(t_char: float, rel_tol: float) -> float:
    return t_char * min(_CAP_STATIC, _CAP_GAMMA * math.sqrt(rel_tol))


class _OffQuadrant(Exception):
    """A DP54 stage state left the open quadrant, or the field at the
    step's end is not finite."""


def _drive(
    c: CanonicalParams,
    x0: float,
    y0: float,
    t_max: float,
    rel_tol: float,
    t_char: float,
    *,
    step_budget: int = STEP_BUDGET_DEFAULT,
    section: float | None = None,
):
    """Shared stepping loop; ``t_char`` is ``_char_period`` of ``c``'s determinant.

    The loop runs the DP54 stages itself, with the field inlined into
    each, so a step makes no Python call.  A stage block that leaves the
    open quadrant, overflows or ends on a non-finite field raises
    ``_OffQuadrant`` or ``OverflowError``; a step rejected so is halved.
    Every stage is guarded by the positivity test on the state it is
    evaluated at: a non-finite k2..k6 enters the next state with a
    nonzero tableau coefficient, so that state is inf or NaN and fails
    the test before any power runs.  Only k7, which leaves the step, is
    tested for finiteness itself.

    A step size under ``h_min`` ends the run: as TIME_LIMIT at the
    horizon, as QUADRANT_ESCAPE near the escape box and as
    STEP_SIZE_FLOOR elsewhere.

    ``section`` is the direction, +1 or -1, of the return to the section
    y = 1: a crossing where dy/dt has its sign is the return.  The straddle
    test is strict at the step's start, so a start on y = 1 is no crossing.
    A step across y = 1 against ``section``, read from its two ends, only
    counts a crossing.  One in ``section``'s direction puts the loop into
    its polish state: from the secant seed dt = h (1 - y) / (y1 - y), up
    to six Newton iterations re-run the stage block from the step's start
    with the substep ``dt``, so the reported crossing lies on the
    numerical orbit.  A failed substep ends the polish on the last good
    one.

    The start, the horizon and the tolerance are taken as built-in
    floats, as the parameters are, so no numpy scalar reaches the
    stepper.  Returns (reason, hit, (accepted, rejected), (times,
    points), last (t, x, y)); ``hit`` is the return's (t, x, crossings,
    err_sum) and None unless the section was reached, and the samples
    are kept exactly when there is no section.  ``err_sum`` adds up the
    embedded error estimate sqrt(ex**2 + ey**2) of every step that passes
    the error test, the return's own step included.
    """
    if not 1e-13 <= rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in [1e-13, 1e-3], got {rel_tol}")
    x0, y0, t_max, rel_tol = float(x0), float(y0), float(t_max), float(rel_tol)
    a1, b1, a3, b3, K = c.a1, c.b1, c.a3, c.b3, c.K
    (a21,) = _A2
    a31, a32 = _A3
    a41, a42, a43 = _A4
    a51, a52, a53, a54 = _A5
    a61, a62, a63, a64, a65 = _A6
    b_1, _, b_3, b_4, b_5, b_6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    inf = math.inf
    isfinite = math.isfinite
    sqrt = math.sqrt
    low, high = _ESCAPE_LOW, _ESCAPE_HIGH
    atol = 1e-3 * rel_tol
    h_cap = _step_cap(t_char, rel_tol)
    h_min = 1e-14 * t_char

    try:
        fx, fy = vector_field(c, (x0, y0))
    except DomainError:
        raise IntegrationFailure(f"field not evaluable at start ({x0}, {y0})") from None
    t, x, y = 0.0, x0, y0
    h = min(h_cap, 0.01 * t_char, t_max if t_max > 0 else h_cap)
    n_acc = 0
    n_rej = 0
    crossings = 0
    err_sum = 0.0
    record = section is None
    times = [t] if record else []
    pts = [(x, y)] if record else []
    hit = None
    reason = TerminationReason.TIME_LIMIT
    # Newton iterations left in the polish of a section crossing: while
    # positive, the stage block runs the substep dt from the state (x, y)
    # instead of a step; -1 ends the polish in the pass that sets it
    polish = 0

    # the per-step path spells max/min as comparisons that pick the same
    # floats; x, x1, y and y1 are positive, so the scales need no abs
    while t < t_max:
        if polish:
            if 0.0 > dt:
                dt = 0.0
            if h < dt:
                dt = h
            hs = dt
        else:
            if n_acc + n_rej >= step_budget:
                reason = TerminationReason.STEP_BUDGET
                break
            if t_max - t < h:
                h = t_max - t
            if h < h_min:
                if t_max - t < 100.0 * h_min:
                    reason = TerminationReason.TIME_LIMIT
                elif x < 10.0 * low or y < 10.0 * low or x > 0.1 * high or y > 0.1 * high:
                    reason = TerminationReason.QUADRANT_ESCAPE
                else:
                    reason = TerminationReason.STEP_SIZE_FLOOR
                break
            hs = h

        try:
            xs = x + hs * (a21 * fx)
            ys = y + hs * (a21 * fy)
            if not (0.0 < xs < inf and 0.0 < ys < inf):
                raise _OffQuadrant
            k2x = xs**a1 * ys**b1 - 1.0
            k2y = K * (1.0 - xs**a3 * ys**b3)

            xs = x + hs * (a31 * fx + a32 * k2x)
            ys = y + hs * (a31 * fy + a32 * k2y)
            if not (0.0 < xs < inf and 0.0 < ys < inf):
                raise _OffQuadrant
            k3x = xs**a1 * ys**b1 - 1.0
            k3y = K * (1.0 - xs**a3 * ys**b3)

            xs = x + hs * (a41 * fx + a42 * k2x + a43 * k3x)
            ys = y + hs * (a41 * fy + a42 * k2y + a43 * k3y)
            if not (0.0 < xs < inf and 0.0 < ys < inf):
                raise _OffQuadrant
            k4x = xs**a1 * ys**b1 - 1.0
            k4y = K * (1.0 - xs**a3 * ys**b3)

            xs = x + hs * (a51 * fx + a52 * k2x + a53 * k3x + a54 * k4x)
            ys = y + hs * (a51 * fy + a52 * k2y + a53 * k3y + a54 * k4y)
            if not (0.0 < xs < inf and 0.0 < ys < inf):
                raise _OffQuadrant
            k5x = xs**a1 * ys**b1 - 1.0
            k5y = K * (1.0 - xs**a3 * ys**b3)

            xs = x + hs * (a61 * fx + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x)
            ys = y + hs * (a61 * fy + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y)
            if not (0.0 < xs < inf and 0.0 < ys < inf):
                raise _OffQuadrant
            k6x = xs**a1 * ys**b1 - 1.0
            k6y = K * (1.0 - xs**a3 * ys**b3)

            x1 = x + hs * (b_1 * fx + b_3 * k3x + b_4 * k4x + b_5 * k5x + b_6 * k6x)
            y1 = y + hs * (b_1 * fy + b_3 * k3y + b_4 * k4y + b_5 * k5y + b_6 * k6y)
            if not (0.0 < x1 < inf and 0.0 < y1 < inf):
                raise _OffQuadrant
            fx1 = x1**a1 * y1**b1 - 1.0
            fy1 = K * (1.0 - x1**a3 * y1**b3)
            if not (isfinite(fx1) and isfinite(fy1)):
                raise _OffQuadrant
        except (OverflowError, _OffQuadrant):
            if not polish:
                n_rej += 1
                h *= 0.5
                continue
            polish = -1

        if polish:
            if polish > 0:
                xr, fr = x1, fy1
                g = y1 - 1.0
                if abs(g) <= 1e-14 or fr == 0.0:
                    polish = -1
                else:
                    dt -= g / fr
                    polish -= 1
                    if polish:
                        continue
            polish = 0
            crossings += 1
            if math.copysign(1.0, fr) == section:
                hit = t + dt, xr, crossings, err_sum
                reason = TerminationReason.SECTION_RETURN
                break
            x1, y1, fx1, fy1 = step_end
        else:
            ex = h * (e1 * fx + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * fx1)
            ey = h * (e1 * fy + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * fy1)
            u = ex / (atol + rel_tol * (x if x > x1 else x1))
            v = ey / (atol + rel_tol * (y if y > y1 else y1))
            # a capped step with 0.5 * (u*u + v*v) <= 0.2 has err <= 0.448:
            # it is accepted, and its growth factor, at least 1.05, is
            # clamped back to the cap, so the step keeps h = h_cap without
            # the sqrt and the power below; every other step takes them
            if h == h_cap and 0.5 * (u * u + v * v) <= 0.2:
                h_next = h_cap
            else:
                err = sqrt(0.5 * (u * u + v * v))
                if err > 1.0:
                    n_rej += 1
                    fac = 0.9 * err**-0.2
                    h *= fac if fac > 0.2 else 0.2
                    continue
                # err <= 1 here (a NaN err takes 5.0), so the growth factor
                # is at least 0.9 and only its upper clamp can act
                fac = 0.9 * err**-0.2 if err > 0 else 5.0
                h_next = h * (fac if fac < 5.0 else 5.0)
                if h_next > h_cap:
                    h_next = h_cap
            err_sum += sqrt(ex * ex + ey * ey)

            if section is not None and ((y < 1.0 <= y1) or (y > 1.0 >= y1)):
                if (y < y1) != (section > 0.0):
                    crossings += 1
                else:
                    step_end = x1, y1, fx1, fy1
                    dt = h * (1.0 - y) / (y1 - y)
                    xr, fr = x1, fy1
                    polish = 6
                    continue

        t, x, y, fx, fy = t + h, x1, y1, fx1, fy1
        n_acc += 1
        if record:
            times.append(t)
            pts.append((x, y))
        if not (low < x < high and low < y < high):
            reason = TerminationReason.QUADRANT_ESCAPE
            break
        h = h_next

    return reason, hit, (n_acc, n_rej), (times, pts), (t, x, y)


def integrate(
    c: CanonicalParams,
    start: Point | tuple[float, float],
    t_max: float,
    rel_tol: float = 1e-9,
    *,
    step_budget: int = STEP_BUDGET_DEFAULT,
) -> Trajectory:
    """Integrate forward for ``t_max`` time units, recording accepted steps."""
    x0, y0 = _positive_xy(start)
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if not (hasattr(step_budget, "__index__") and step_budget >= 1):
        raise ValueError(f"step_budget must be an integer of at least 1, got {step_budget!r}")
    t_char = _char_period(jacobian(c).determinant)
    reason, _, (n_acc, n_rej), (times, pts), _ = _drive(
        c, x0, y0, t_max, rel_tol, t_char, step_budget=step_budget
    )
    return Trajectory(tuple(times), tuple(pts), n_acc, n_rej, reason)


def poincare_return(
    c: CanonicalParams,
    x0: float,
    rel_tol: float = 1e-9,
) -> ReturnRecord:
    """First return to the section y = 1 on the start side of (1, 1).

    ``x0`` is the start's x on the section and must exceed 1.  The orbit
    gets ``_PERIODS_BUDGET`` characteristic periods to return.  A return
    after other than 2 crossings, or within its ``error_bound`` of x = 1,
    is NoReturn.  A start
    where the field is not evaluable, or where dy/dt = 0 so the section
    is not transversal, raises PreconditionViolated.  At a3 = 0 the line
    y = 1 is invariant, since dy/dt = K(1 - y**b3) vanishes on it: no
    orbit crosses it, so the map refuses every start there.

    A saddle (``jacobian`` says NOT_ELLIPTIC with no omega, so det < 0)
    raises NoReturn before any step.  When det != 0, (1, 1) is the only
    equilibrium in the open quadrant, and a saddle has index -1.  A first
    return would close a curve out of the orbit arc and the section
    segment between its ends, which misses (1, 1); the field crosses that
    segment in one direction only, so the curve has index +1 and would
    have to enclose equilibria of total index +1.  No orbit can return.
    """
    if not x0 > 1.0:
        raise PreconditionViolated(f"in-section coordinate must exceed 1, got {x0}")
    x0 = float(x0)
    summary = jacobian(c)
    if summary.eigenvalue_kind is EigenvalueKind.NOT_ELLIPTIC and not summary.omega:
        raise NoReturn(
            f"orbit from in-section coordinate {x0} cannot return: (1, 1) is a saddle "
            f"(determinant {summary.determinant:.6g})"
        )
    try:
        _, fy = vector_field(c, (x0, 1.0))
    except DomainError:
        raise PreconditionViolated(f"field not evaluable at ({x0}, 1.0)") from None
    if fy == 0.0:
        raise PreconditionViolated(
            "section is not transversal at the start point; "
            f"derivative of the section coordinate vanishes at ({x0}, 1.0)"
        )
    t_char = _char_period(summary.determinant)
    reason, hit, (n_acc, _), _, last = _drive(
        c, x0, 1.0, _PERIODS_BUDGET * t_char, rel_tol, t_char, section=math.copysign(1.0, fy)
    )
    if hit is None:
        raise NoReturn(
            f"orbit from in-section coordinate {x0} did not return "
            f"({reason.value}; last state t={last[0]:.6g}, x={last[1]:.6g}, y={last[2]:.6g})"
        )
    return_time, return_x, crossings, err_sum = hit
    if crossings != 2:
        raise NoReturn(
            f"orbit from in-section coordinate {x0} crossed the section {crossings} times, "
            "not 2, before it returned"
        )
    weight = abs(c.a1) + abs(c.b1) + abs(c.a3) + abs(c.b3)
    error_bound = err_sum + sys.float_info.epsilon * n_acc * (1.0 + weight * return_time) * return_x
    if return_x - 1.0 <= error_bound:
        raise NoReturn(
            f"orbit from in-section coordinate {x0} returned within {error_bound:.3g} of x = 1"
        )
    return ReturnRecord(
        start_x=x0,
        return_x=return_x,
        displacement=return_x - x0,
        return_time=return_time,
        crossings=crossings,
        error_bound=error_bound,
    )


def section_displacement(c: CanonicalParams, radius: float, rel_tol: float) -> float:
    """Displacement of one return, parameterized by radius = coord - 1."""
    return poincare_return(c, 1.0 + radius, rel_tol).displacement


def brentq(f, lo, hi, f_lo, f_hi, xtol=2e-12, rtol=4 * sys.float_info.epsilon):
    """Brent's bracketed root of ``f`` between ``lo`` and ``hi``, whose
    values ``f_lo`` and ``f_hi`` the caller already has.

    Returns ``(root, f(root))``.  The iteration is that of
    ``scipy.optimize.brentq`` step for step, so it returns the same root
    after the same evaluations, but it never evaluates ``f`` at the two
    ends.  Raises ValueError when the values do not change sign or one
    is NaN, and RuntimeError after 100 iterations.
    """
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise ValueError(f"bracket value is NaN: f({lo!r}) = {f_lo}, f({hi!r}) = {f_hi}")
    if f_lo == 0.0:
        return lo, f_lo
    if f_hi == 0.0:
        return hi, f_hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(f"f({lo!r}) = {f_lo} and f({hi!r}) = {f_hi} have the same sign")
    # cur is the best estimate, blk the other end of the bracket, pre the
    # previous estimate; scur and spre are the last two steps
    xpre, fpre, xcur, fcur = lo, f_lo, hi, f_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"f({xcur!r}) is NaN")
    raise RuntimeError(f"no convergence after 100 iterations, last estimate {xcur!r}")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced floats from ``lo`` to ``hi``, bit for bit as
    ``numpy.linspace`` gives them, also when the step underflows to 0."""
    span, div = hi - lo, n - 1
    step = span / div
    out = [i * step + lo if step else i / div * span + lo for i in range(n)]
    out[-1] = hi
    return out


def _scan_value(c: CanonicalParams, r: float) -> ReturnRecord:
    """Return map at radius ``r`` for the cycle scan: the ``_SCAN_REL_TOL``
    map when it vouches for its sign (|d| > its ``error_bound``), else the
    ``_SIGN_REL_TOL`` map.  Either map's raise is the caller's."""
    rec = poincare_return(c, 1.0 + r, _SCAN_REL_TOL)
    if abs(rec.displacement) > rec.error_bound:
        return rec
    return poincare_return(c, 1.0 + r, _SIGN_REL_TOL)


def _scan(c: CanonicalParams, radii: list[float]) -> list[tuple[float, float]]:
    """(displacement, error bound) of ``_scan_value`` at each radius;
    (NaN, NaN) where the orbit does not return."""
    scan = []
    for r in radii:
        try:
            rec = _scan_value(c, r)
            scan.append((rec.displacement, rec.error_bound))
        except (NoReturn, PreconditionViolated):
            scan.append((math.nan, math.nan))
    return scan


def _brackets(c: CanonicalParams, radii: list[float], disp: tuple, bounds: tuple):
    """Yield ``(lo, hi, f_lo, f_hi)`` for each sign change of the vouched
    values of the scan.

    A scan value is vouched for when |d| exceeds its map's bound.  An end
    of a sign change that its scan map cannot vouch for is mapped once at
    ``_REFINE_REL_TOL`` and takes that map's value when the map vouches
    for it, or NaN.  A new value can open a sign change with a neighbour,
    so this repeats until no sign change has an end left to vouch for.
    """
    value = list(disp)
    unvouched = {i for i, (d, b) in enumerate(zip(disp, bounds)) if not abs(d) > b}

    def sign_changes() -> list[int]:
        return [i for i in range(len(radii) - 1) if value[i] * value[i + 1] < 0.0]

    while ends := sorted(unvouched.intersection(j for i in sign_changes() for j in (i, i + 1))):
        for i in ends:
            unvouched.remove(i)
            try:
                rec = poincare_return(c, 1.0 + radii[i], _REFINE_REL_TOL)
                value[i] = rec.displacement if abs(rec.displacement) > rec.error_bound else math.nan
            except (NoReturn, PreconditionViolated):
                value[i] = math.nan
    for i in sign_changes():
        yield radii[i], radii[i + 1], value[i], value[i + 1]


def _refine(c: CanonicalParams, lo: float, hi: float, f_lo: float, f_hi: float):
    """Root ``(radius, displacement)`` of the refinement map in a bracket
    from ``_brackets``, by secant steps from the sign maps' root.

    Brent finds the root of the ``_SIGN_REL_TOL`` maps to their own
    accuracy.  That root is mapped at ``_REFINE_REL_TOL``, and the first
    step takes the sign maps' slope, from the nearest sign value more than
    ``_SLOPE_SPAN`` of the radius away; each later step is the secant of
    the last two refinement values.  The steps go on while each new value
    is closer to 0 than the last, and the search ends on the closer of the
    last two mapped radii.  It also ends on the last mapped radius at a
    step of at most half of ``_REFINE_REL_TOL``, a step that would leave
    the bracket, or two equal values.
    """
    sign_values = [(lo, f_lo), (hi, f_hi)]

    def sign_map(r: float) -> float:
        d = section_displacement(c, r, _SIGN_REL_TOL)
        sign_values.append((r, d))
        return d

    x, s = brentq(sign_map, lo, hi, f_lo, f_hi, xtol=_SIGN_REL_TOL)
    # the nearest sign value more than _SLOPE_SPAN away, or else the nearest
    px, ps = min(sign_values, key=lambda v: (abs(v[0] - x) <= _SLOPE_SPAN * x, abs(v[0] - x)))
    dx, dd = x - px, s - ps
    d = section_displacement(c, x, _REFINE_REL_TOL)
    while dd != 0.0:
        step = -d * dx / dd
        if abs(step) <= 0.5 * _REFINE_REL_TOL or not lo < x + step < hi:
            break
        d_next = section_displacement(c, x + step, _REFINE_REL_TOL)
        if not abs(d_next) < abs(d):
            break
        x, dx, dd, d = x + step, step, d_next - d, d_next
    return x, d


def detect_limit_cycles(
    c: CanonicalParams,
    r_min: float,
    r_max: float,
    n_scan: int,
) -> LimitCycleReport:
    """Scan the displacement over log-spaced radii with ``_scan_value`` and
    refine each sign change to a periodic orbit at ``_REFINE_REL_TOL``.

    A scan value is mapped at ``_SCAN_REL_TOL`` and kept when it clears
    its error bound, or else re-mapped at ``_SIGN_REL_TOL``; the
    brackets are the sign changes of the values that ``_brackets``
    vouches for by a map's bound.  ``_refine`` finds the root of the
    ``_SIGN_REL_TOL`` maps in each bracket and takes secant steps on
    ``_REFINE_REL_TOL`` maps from there.  It stops once a step is within
    ``_REFINE_REL_TOL``, the accuracy of those maps, or a value comes no
    closer to 0, so a radius is refined to about that tolerance, not
    below it, and its displacement is the map at that radius.

    A sign change of values within their bounds, such as the drift of an
    exact center, is integration noise and yields no cycle.  Radii that
    fail to return contribute NaN and break the scan into independently
    searched segments.
    """
    if not (0.0 < r_min < r_max < math.inf):
        raise ValueError(f"need 0 < r_min < r_max < inf, got {r_min}, {r_max}")
    if not (hasattr(n_scan, "__index__") and n_scan >= 2):
        raise ValueError(f"n_scan must be an integer of at least 2, got {n_scan!r}")
    radii = [10.0**v for v in _linspace(math.log10(r_min), math.log10(r_max), n_scan)]
    radii[0], radii[-1] = float(r_min), float(r_max)
    disp, bounds = zip(*_scan(c, radii))

    cycles: list[CycleRecord] = []
    for lo, hi, f_lo, f_hi in _brackets(c, radii, disp, bounds):
        root, d_root = _refine(c, lo, hi, f_lo, f_hi)
        # orbits just inside a stable cycle move outward
        stability = CycleStability.STABLE if f_lo > 0.0 else CycleStability.UNSTABLE
        cycles.append(CycleRecord(radius=root, displacement=d_root, stability=stability))

    return LimitCycleReport(
        cycles=tuple(cycles),
        scan_radii=tuple(radii),
        scan_displacements=disp,
    )


def bautin_scenario(b1: float, a3: float, delta_k: float) -> BautinResult:
    """Two-stage construction of coexisting small cycles.

    Stage one perturbs K away from 1 (keeping a1 = K, b3 = 1, so the
    trace stays zero) to make the first focal value positive over a
    negative second one, which births a stable cycle.  Stage two lowers
    a1 below K by eps so the now-stable equilibrium sheds an additional
    unstable inner cycle.

    eps is half the normal-form fold omega L1**2 / (4 pi |L2|), read from
    stage one's frequency and first focal value and the base's second.
    Both stages scan the radii ``_BAUTIN_SCAN`` once.  The result has the
    two-cycle shape; a base, a ``delta_k`` or a scan that cannot give it
    raises BadBase.  That includes a non-finite ``b1`` or ``a3``
    and a ``delta_k`` that leaves stage one without a finite positive K
    or a positive determinant.
    """
    try:
        base = CanonicalParams(a1=1.0, b1=b1, a3=a3, b3=1.0, K=1.0)
        base_focal = closed_form_focal(base)
    except (ValueError, PreconditionViolated) as exc:
        raise BadBase(f"base (b1={b1}, a3={a3}) is not an elliptic system: {exc}") from exc
    if base_focal.L2 is None or base_focal.L2 >= 0.0:
        raise BadBase(
            f"base (b1={b1}, a3={a3}) needs a negative second focal value, "
            f"got {base_focal.L2}"
        )

    k1 = 1.0 + delta_k
    try:
        stage1 = CanonicalParams(a1=k1, b1=b1, a3=a3, b3=1.0, K=k1)
        stage1_linear = jacobian(stage1)
        stage1_focal = closed_form_focal(stage1, summary=stage1_linear)
    except (ValueError, PreconditionViolated) as exc:
        raise BadBase(
            f"stage 1 of base (b1={b1}, a3={a3}, dK={delta_k}) is not an "
            f"elliptic system: {exc}"
        ) from exc
    stage1_report = detect_limit_cycles(stage1, *_BAUTIN_SCAN)
    shape1 = tuple(cyc.stability for cyc in stage1_report.cycles)
    if shape1 != (CycleStability.STABLE,):
        raise BadBase(
            f"stage 1 of base (b1={b1}, a3={a3}, dK={delta_k}) needs exactly "
            f"one stable cycle, found {[s.value for s in shape1]}"
        )
    # with d(r)/r ~ -pi*eps/omega + L1 r**2 + L2 r**4 two cycles exist for
    # 0 < eps < omega L1**2 / (4 pi |L2|); take half that fold
    eps = stage1_linear.omega * stage1_focal.L1**2 / (8.0 * math.pi * abs(base_focal.L2))

    stage2 = CanonicalParams(a1=k1 - eps, b1=b1, a3=a3, b3=1.0, K=k1)
    stage2_report = detect_limit_cycles(stage2, *_BAUTIN_SCAN)
    shape2 = tuple(cyc.stability for cyc in stage2_report.cycles)
    if shape2 != (CycleStability.UNSTABLE, CycleStability.STABLE):
        raise BadBase(
            f"stage 2 of base (b1={b1}, a3={a3}, dK={delta_k}) at eps = {eps:.3g} "
            f"needs an unstable cycle inside a stable one, found {[s.value for s in shape2]}"
        )

    return BautinResult(
        base_params=base,
        base_focal=base_focal,
        stage1_params=stage1,
        stage1_focal=stage1_focal,
        stage1_report=stage1_report,
        stage2_params=stage2,
        stage2_eps=eps,
        stage2_report=stage2_report,
    )

"""Correctness checks on the program's outputs.

Every checker returns None when the output is right and a one-line
reason when it is not.  The checkers read plain values (verdict names,
case names, focal values, radii), so they apply equally to library
results and to the records the ``sweep`` subcommand writes.
"""

from __future__ import annotations

import json
import math

from inputs import det

FOCUS_VERDICTS = {"FocusStable", "FocusUnstable"}
KNOWN_VERDICTS = FOCUS_VERDICTS | {
    "Center",
    "NotElliptic",
    "DegenerateDetZero",
    "WeakFocusOrder2Plus",
}

#: a center's return map at CRITERION_4_REL_TOL may move the start point
#: by at most this share of its distance from the equilibrium (acceptance
#: criterion 4, which sets both numbers)
CENTER_DISPLACEMENT_SHARE = 1e-6
CRITERION_4_REL_TOL = 1e-11
#: a map at a looser rel_tol agrees with the criterion-4 map to within this
#: many times rel_tol * x0, room for the integration error that a looser
#: tolerance allows (an R1 center of the certify mix moves x0 = 1.2 by
#: 2.3e-7 at rel_tol 1e-8, about 19 * rel_tol * x0)
RETURN_AGREEMENT = 1000.0
#: largest scaled residual of a first integral (criterion 5) and of a
#: reversibility identity (criterion 6)
INTEGRAL_RESIDUAL_MAX = 1e-10
REVERSIBLE_RESIDUAL_MAX = 1e-12
#: |L1| above which its sign must agree with the numeric engine (criterion 2)
L1_SIGN_FLOOR = 1e-6


def check_verdict(
    params: tuple,
    verdict: str,
    cases: list[str],
    L1: float | None,
    L2: float | None,
    row: str | None = None,
) -> str | None:
    """Internal consistency of one classification of a trace-free system.

    ``row`` names the center family the parameters were built on exactly;
    the verdict must then be Center and list that family.
    """
    if verdict not in KNOWN_VERDICTS:
        return f"unknown verdict {verdict!r}"
    if row is not None and (verdict != "Center" or row not in cases):
        return f"row {row} draw classified {verdict} with cases {cases}"
    if verdict == "Center" and not cases:
        return "Center verdict without a center family"
    if verdict != "Center" and cases:
        return f"{verdict} verdict lists center families {cases}"
    if verdict in FOCUS_VERDICTS:
        deciding = L2 if L2 is not None else L1
        if deciding is None or not math.isfinite(deciding) or deciding == 0.0:
            return f"{verdict} without a deciding focal value (L1={L1}, L2={L2})"
        if (deciding < 0.0) != (verdict == "FocusStable"):
            return f"{verdict} but the deciding focal value is {deciding!r}"
    if verdict == "NotElliptic" and not det(params) < 0.0:
        return f"NotElliptic at det = {det(params)!r} with zero trace"
    if (verdict == "Center" or verdict in FOCUS_VERDICTS) and not det(params) > 0.0:
        return f"{verdict} at det = {det(params)!r}"
    return None


def check_classification(params: tuple, result, row: str | None = None) -> str | None:
    """check_verdict on a library CenterClassification."""
    fv = result.focal
    return check_verdict(
        params,
        result.verdict.value,
        sorted(case.value for case in result.cases),
        None if fv is None else fv.L1,
        None if fv is None else fv.L2,
        row,
    )


def check_sweep_line(line: str, K: float) -> tuple[str, str] | None:
    """One JSON line of ``sweep`` output.  Returns (kind, reason) on a
    problem: kind "raised" for an Error record, "wrong" otherwise."""
    try:
        rec = json.loads(line)
        params = (rec["a1"], rec["b1"], rec["a3"], rec["b3"], K)
        verdict = rec["verdict"]
        cases, L1, L2 = rec["cases"], rec["L1"], rec["L2"]
    except (ValueError, KeyError, TypeError) as exc:
        return "wrong", f"malformed sweep record ({exc}): {line[:120]!r}"
    if verdict == "Error":
        return "raised", rec.get("error", "")
    reason = check_verdict(params, verdict, cases, L1, L2)
    return None if reason is None else ("wrong", reason)


def check_raw_reduction(raw: tuple, canonical, expected: tuple) -> str | None:
    """The four-term form reduces to the exponents and K it was built from."""
    alpha2, beta2 = raw[6], raw[7]
    got = (canonical.a1, canonical.b1, canonical.a3, canonical.b3)
    for name, g, e, off in zip(("a1", "b1", "a3", "b3"), got, expected, (alpha2, beta2, alpha2, beta2)):
        if abs(g - e) > 1e-12 * (1.0 + abs(e) + abs(off)):
            return f"raw form gives {name} = {g!r}, built from {e!r}"
    if abs(canonical.K - expected[4]) > 1e-9 * expected[4]:
        return f"raw form gives K = {canonical.K!r}, built from {expected[4]!r}"
    return None


def check_bautin(result) -> str | None:
    """Stage one has one stable cycle; stage two an unstable inner cycle
    inside a stable outer one (acceptance criterion 7)."""
    s1 = result.stage1_report.cycles
    if len(s1) != 1 or s1[0].stability.value != "Stable":
        return f"stage 1 found {[c.stability.value for c in s1]}, expected one stable cycle"
    s2 = sorted(result.stage2_report.cycles, key=lambda cy: cy.radius)
    shape = [c.stability.value for c in s2]
    if shape != ["Unstable", "Stable"]:
        return f"stage 2 found {shape} by radius, expected ['Unstable', 'Stable']"
    return None


def check_scan(report, r_min: float, r_max: float) -> str | None:
    """A cycle scan is self-consistent: cycles lie inside the scanned
    range in increasing radius, alternate in stability, and each one's
    stability matches the scanned displacement just inside it (outward
    drift inside a stable cycle, inward inside an unstable one)."""
    radii = report.scan_radii
    disp = report.scan_displacements
    last_r, last_s = 0.0, None
    for cyc in report.cycles:
        if not (r_min <= cyc.radius <= r_max) or cyc.radius <= last_r:
            return f"cycle radius {cyc.radius!r} out of order or outside [{r_min}, {r_max}]"
        s = cyc.stability.value
        if s == last_s:
            return f"two {s} cycles in a row"
        inside = [d for r, d in zip(radii, disp) if r < cyc.radius and math.isfinite(d)]
        if inside and inside[-1] != 0.0 and (inside[-1] > 0.0) != (s == "Stable"):
            return f"{s} cycle at {cyc.radius!r} but displacement inside it is {inside[-1]!r}"
        last_r, last_s = cyc.radius, s
    return None


def check_center_returns(displacements: dict[float, float], x0: float) -> str | None:
    """Return maps of a center from (x0, 1), keyed by rel_tol.

    Criterion 4 bounds only the map at CRITERION_4_REL_TOL; a looser map
    must agree with that one to within RETURN_AGREEMENT * rel_tol * x0.
    """
    tight = displacements.get(CRITERION_4_REL_TOL)
    if tight is None:
        return None
    if abs(tight) > CENTER_DISPLACEMENT_SHARE * (x0 - 1.0):
        return f"center return map at rel_tol {CRITERION_4_REL_TOL:g} moved x0 = {x0} by {tight!r}"
    for tol, d in displacements.items():
        if abs(d - tight) > RETURN_AGREEMENT * tol * x0:
            return (
                f"center return map at rel_tol {tol:g} moved x0 = {x0} by {d!r}, "
                f"at {CRITERION_4_REL_TOL:g} by {tight!r}"
            )
    return None


def check_l1_sign(L1: float, ell1: float) -> str | None:
    if abs(L1) > L1_SIGN_FLOOR and (ell1 > 0.0) != (L1 > 0.0):
        return f"numeric first Lyapunov quantity {ell1!r} disagrees in sign with L1 = {L1!r}"
    return None


def check_residual(residual: float, bound: float, what: str) -> str | None:
    if not residual <= bound:
        return f"{what} residual {residual!r} above {bound:g}"
    return None

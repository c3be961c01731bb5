"""Acceptance checklist: one test and one printed verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import hashlib
import math
import time

import numpy as np

import helpers
from lotkacenter import (
    CanonicalParams,
    CenterCase,
    CycleStability,
    IntegralCase,
    bautin_scenario,
    build_integral,
    canonicalize,
    closed_form_focal,
    evaluate,
    invariance_residual,
    lyapunov_numeric,
    match_table_cases,
    poincare_return,
    r1_residual,
    r2_residual,
    taylor_expand,
    vector_field,
)

ROWS = (
    CenterCase.I,
    CenterCase.II,
    CenterCase.III,
    CenterCase.IV,
    CenterCase.R1,
    CenterCase.R2,
)

ROW_REPRESENTATIVES = {
    CenterCase.I: CanonicalParams(0.0, 0.9, 1.7, 0.0, 1.3),
    CenterCase.II: CanonicalParams(0.5, -0.7, -0.5, 0.3, 0.5 / 0.3),
    CenterCase.III: CanonicalParams(0.8, -1.5, -1.0, 1.0, 0.8),
    CenterCase.IV: CanonicalParams(1.0, -1.0, -1.2, 0.5, 2.0),
    CenterCase.R1: CanonicalParams(0.5, 2.0, 2.0, 0.5, 1.0),
    CenterCase.R2: CanonicalParams(1.0 / 3.0, -3.0, -1.0, 1.0, 1.0 / 3.0),
}


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _closed_form_vanishes(fv, tol=1e-10):
    if abs(fv.L1) > tol:
        return False
    return fv.L2 is not None and abs(fv.L2) <= tol


def test_criterion_1_algebraic_set_equals_vanishing_locus():
    # >= 1e5 trace-zero draws; L1 = L2 = 0 exactly when a table row matches
    draws = list(helpers.elliptic_draws(1001, 40_000))
    for row_index, case in enumerate(ROWS):
        draws.extend(helpers.center_row_draws(1100 + row_index, case, 5_000))
    draws.extend(helpers.case_b_stratum_draws(1201, 15_000))
    draws.extend(helpers.c2_stratum_draws(1301, 15_000))
    assert len(draws) >= 100_000

    started = time.perf_counter()
    bad = 0
    n_zero = 0
    case_sets = []
    for c in draws:
        vanishes = _closed_form_vanishes(closed_form_focal(c))
        case_sets.append(match_table_cases(c))
        n_zero += vanishes
        if vanishes != bool(case_sets[-1]):
            bad += 1
    elapsed = time.perf_counter() - started
    # the matched sets themselves, one bit per family in ROWS order, as
    # captured before the families moved into one table
    masks = bytes(sum(1 << i for i, case in enumerate(ROWS) if case in s) for s in case_sets)
    assert hashlib.sha256(masks).hexdigest() == (
        "bf8ca3e4693ec6301b5714d3bc4ebd0aa18ecbf3be6cf5865b557aa3c68517e2"
    )
    ok = bad == 0 and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"{len(draws)} draws, {n_zero} on the vanishing locus, "
        f"{bad} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_numeric_engine_cross_validation():
    draws = list(helpers.elliptic_draws(2001, 700))
    for row_index, case in enumerate(ROWS):
        draws.extend(helpers.center_row_draws(2100 + row_index, case, 25))
    draws.extend(helpers.case_b_stratum_draws(2202, 150))
    assert len(draws) >= 1000

    ratios = []
    sign_bad = vanish_bad = 0
    for c in draws:
        fv = closed_form_focal(c)
        q = lyapunov_numeric(taylor_expand(c, 3), 1)
        ell1 = q.ell[0]
        if abs(fv.L1) > 1e-6 and (ell1 > 0) != (fv.L1 > 0):
            sign_bad += 1
        if (abs(ell1) <= 1e-8) != (abs(fv.L1) <= 1e-10):
            vanish_bad += 1
        if abs(fv.L1) > 1e-10 and abs(ell1) > 1e-8:
            ratios.append(ell1 / fv.L1)
    ratios = np.array(ratios)
    spread1 = float((ratios.max() - ratios.min()) / abs(np.median(ratios)))
    ok1 = sign_bad == 0 and vanish_bad == 0 and spread1 <= 0.01 and np.all(ratios > 0)

    stratum = list(helpers.c2_stratum_draws(2303, 200))
    stratum.extend(
        CanonicalParams(1.0, b1, -1.0, 1.0, 1.0)
        for b1 in np.linspace(-5.0, -1.2, 30)
    )
    ratios2 = []
    sign_bad2 = vanish_bad2 = 0
    for c in stratum:
        fv = closed_form_focal(c)
        assert abs(fv.L1) <= 1e-10
        q = lyapunov_numeric(taylor_expand(c, 5), 2)
        ell2 = q.ell[1]
        if abs(fv.L2) > 1e-6 and (ell2 > 0) != (fv.L2 > 0):
            sign_bad2 += 1
        if (abs(ell2) <= 1e-8) != (abs(fv.L2) <= 1e-10):
            vanish_bad2 += 1
        if abs(fv.L2) > 1e-10 and abs(ell2) > 1e-8:
            ratios2.append(ell2 / fv.L2)
    ratios2 = np.array(ratios2)
    spread2 = float((ratios2.max() - ratios2.min()) / abs(np.median(ratios2)))
    ok2 = sign_bad2 == 0 and vanish_bad2 == 0 and spread2 <= 0.01 and np.all(ratios2 > 0)

    _verdict(
        2,
        ok1 and ok2,
        f"first value: {len(draws)} draws, ratio spread {spread1:.2e}; "
        f"second value: {len(stratum)} stratum draws, ratio spread {spread2:.2e}",
    )


def test_criterion_3_pinned_second_focal_values():
    a = closed_form_focal(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0)).L2
    b = closed_form_focal(CanonicalParams(1.0, -2.0, -3.0, 1.0, 1.0)).L2
    err_a = abs(a - (-math.pi / 96.0))
    err_b = abs(b - (-math.pi / (96.0 * math.sqrt(5.0))))
    ok = err_a <= 1e-12 and err_b <= 1e-12
    _verdict(3, ok, f"deviations {err_a:.2e} and {err_b:.2e} from -pi/96 and -pi/(96*sqrt(5))")


def test_criterion_4_return_map_certifies_each_row():
    worst = 0.0
    slowest = 0.0
    for case, c in ROW_REPRESENTATIVES.items():
        assert case in match_table_cases(c)
        for x0 in (1.05, 1.1, 1.2):
            started = time.perf_counter()
            rec = poincare_return(c, x0, rel_tol=1e-11)
            elapsed = time.perf_counter() - started
            slowest = max(slowest, elapsed)
            worst = max(worst, abs(rec.displacement) / (x0 - 1.0))
    ok = worst <= 1e-6 and slowest < 5.0
    _verdict(4, ok, f"worst relative displacement {worst:.2e}, slowest run {slowest:.2f}s")


def test_criterion_5_first_integral_conservation():
    pts = helpers.quadrant_points(5001, 100)
    worst_res = 0.0
    for row_index, case in enumerate(
        (CenterCase.I, CenterCase.II, CenterCase.III, CenterCase.IV)
    ):
        for c in helpers.center_row_draws(5100 + row_index, case, 50):
            fi = build_integral(case, c)
            worst_res = max(worst_res, invariance_residual(fi, c, pts))
    for c in helpers.r_intersection_draws(5201, 50):
        fi = build_integral(IntegralCase.R1_CAP_R2, c)
        worst_res = max(worst_res, invariance_residual(fi, c, pts))

    worst_drift = 0.0
    drift_cases = [
        (case, ROW_REPRESENTATIVES[case])
        for case in (CenterCase.I, CenterCase.II, CenterCase.III, CenterCase.IV)
    ]
    drift_cases.append((IntegralCase.R1_CAP_R2, CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0)))
    for case, c in drift_cases:
        fi = build_integral(case, c)
        rec = poincare_return(c, 1.2, rel_tol=1e-9)
        v0 = evaluate(fi, (1.2, 1.0))
        v1 = evaluate(fi, (rec.return_x, 1.0))
        worst_drift = max(worst_drift, abs(v1 - v0) / max(abs(v0 - fi.level0), 1e-300))
    ok = worst_res <= 1e-10 and worst_drift <= 1e-7
    _verdict(5, ok, f"worst residual {worst_res:.2e}, worst return drift {worst_drift:.2e}")


def test_criterion_6_reversibility_identities():
    pts = helpers.quadrant_points(6001, 1000)
    worst_r1 = max(
        r1_residual(c, pts) for c in helpers.center_row_draws(6101, CenterCase.R1, 50)
    )
    worst_r2 = max(
        r2_residual(c, pts) for c in helpers.center_row_draws(6102, CenterCase.R2, 50)
    )
    control_generic = r1_residual(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0), pts)
    control_r2 = r1_residual(ROW_REPRESENTATIVES[CenterCase.R2], pts)
    ok = (
        worst_r1 <= 1e-12
        and worst_r2 <= 1e-12
        and control_generic > 1e-3
        and control_r2 > 1e-3
    )
    _verdict(
        6,
        ok,
        f"worst residuals {worst_r1:.2e} / {worst_r2:.2e}, "
        f"controls {control_generic:.2f} / {control_r2:.2f}",
    )


def _two_cycle_shape(report):
    if len(report.cycles) != 2:
        return False
    inner, outer = sorted(report.cycles, key=lambda cy: cy.radius)
    return (
        inner.stability is CycleStability.UNSTABLE
        and outer.stability is CycleStability.STABLE
    )


def test_criterion_7_two_limit_cycles_from_degenerate_base():
    results = []
    for b1, a3, delta_k in ((-2.0, -3.0, 0.02), (2.0, 1.0, -0.02)):
        started = time.perf_counter()
        res = bautin_scenario(b1, a3, delta_k)
        elapsed = time.perf_counter() - started
        stage1_ok = (
            len(res.stage1_report.cycles) == 1
            and res.stage1_report.cycles[0].stability is CycleStability.STABLE
        )
        stage2_ok = _two_cycle_shape(res.stage2_report)
        results.append((stage1_ok and stage2_ok and elapsed < 60.0, elapsed, res))
    ok = all(r[0] for r in results)
    detail = "; ".join(
        f"base ({int(res.base_params.b1)},{int(res.base_params.a3)}): "
        f"eps={res.stage2_eps:.1e}, {elapsed:.1f}s"
        for passed, elapsed, res in results
    )
    _verdict(7, ok, detail)


def test_criterion_8_drift_scales_with_tolerance():
    systems = [
        (CenterCase.I, ROW_REPRESENTATIVES[CenterCase.I]),
        (CenterCase.IV, ROW_REPRESENTATIVES[CenterCase.IV]),
        (IntegralCase.R1_CAP_R2, CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0)),
    ]
    min_ratio = math.inf
    for case, c in systems:
        fi = build_integral(case, c)
        v0 = evaluate(fi, (1.3, 1.0))
        drifts = []
        for tol in (1e-8, 5e-9, 2.5e-9):
            rec = poincare_return(c, 1.3, rel_tol=tol)
            v1 = evaluate(fi, (rec.return_x, 1.0))
            drifts.append(abs(v1 - v0) / max(abs(v0 - fi.level0), 1e-300))
        for a, b in zip(drifts, drifts[1:]):
            min_ratio = min(min_ratio, a / b)
    ok = min_ratio >= 4.0
    _verdict(8, ok, f"smallest halving ratio {min_ratio:.2f} over three systems")


def test_criterion_9_canonicalization_round_trip():
    worst_raw = 0.0
    exact_eq = True
    draws = helpers.raw_draws(9001, 1000)
    for raw, _ in draws:
        c, eq = canonicalize(raw)
        m2 = eq.x**raw.alpha2 * eq.y**raw.beta2
        fx = raw.k1 * eq.x**raw.alpha1 * eq.y**raw.beta1 - raw.k2 * m2
        fy = raw.k3 * m2 - raw.k4 * eq.x**raw.alpha3 * eq.y**raw.beta3
        worst_raw = max(worst_raw, abs(fx), abs(fy))
        if vector_field(c, (1.0, 1.0)) != (0.0, 0.0):
            exact_eq = False
    ok = worst_raw <= 1e-12 and exact_eq
    _verdict(
        9,
        ok,
        f"{len(draws)} raw systems, worst equilibrium residual {worst_raw:.2e}, "
        f"canonical field exact at (1,1): {exact_eq}",
    )

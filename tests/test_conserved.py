"""First integrals: construction, evaluation, invariance along the flow."""

import math

import numpy as np
import pytest

import helpers
from lotkacenter import (
    CanonicalParams,
    CaseMismatch,
    CenterCase,
    DomainError,
    IntegralCase,
    NoKnownIntegral,
    build_integral,
    evaluate,
    gradient,
    integrate,
    invariance_residual,
    match_table_cases,
)
from lotkacenter.cli import main
from lotkacenter.conserved import TermKind
from lotkacenter.dynamics import brentq

TABLE_ROWS = (CenterCase.I, CenterCase.II, CenterCase.III, CenterCase.IV)


def test_case_i_polynomial_form():
    c = CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0)
    fi = build_integral(CenterCase.I, c)
    assert fi.case is CenterCase.I
    assert evaluate(fi, (1.0, 1.0)) == 1.0
    assert fi.level0 == 1.0
    # V = (x - x^2/2) + (y - y^2/2)
    assert evaluate(fi, (2.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert evaluate(fi, (2.0, 2.0)) == pytest.approx(0.0, abs=1e-15)
    assert invariance_residual(fi, c, helpers.quadrant_points(1, 100)) <= 1e-12


def test_case_ii_equilibrium_value():
    c = CanonicalParams(-0.5, -1.25, -1.5, -0.25, 2.0)
    fi = build_integral(CenterCase.II, c)
    assert evaluate(fi, (1.0, 1.0)) == pytest.approx(-1.75, abs=1e-15)
    for i, d in enumerate(helpers.center_row_draws(61, CenterCase.II, 30)):
        fi = build_integral(CenterCase.II, d)
        assert evaluate(fi, (1.0, 1.0)) == pytest.approx(d.a1 + d.b3 - 1.0, abs=1e-12), f"draw {i}"


def test_case_iv_invariance_example():
    c = CanonicalParams(1.0, -1.0, -3.0, 2.0, 0.5)
    fi = build_integral(CenterCase.IV, c)
    assert invariance_residual(fi, c, helpers.quadrant_points(2, 100)) <= 1e-10


def test_invariance_across_table_rows():
    pts = helpers.quadrant_points(3, 50)
    for row_index, case in enumerate(TABLE_ROWS):
        for i, c in enumerate(helpers.center_row_draws(500 + row_index, case, 25)):
            fi = build_integral(case, c)
            assert invariance_residual(fi, c, pts) <= 1e-10, f"{case} draw {i}"


def test_intersection_family():
    c = CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0)
    fi = build_integral(IntegralCase.R1_CAP_R2, c)
    assert evaluate(fi, (1.0, 1.0)) == 4.0
    assert fi.factor.kind is TermKind.SUM_POWER
    assert fi.factor.x_exp == 0.0
    # a reversible-row request inside the shared subfamily resolves to it
    assert build_integral(CenterCase.R1, c).case is IntegralCase.R1_CAP_R2
    assert build_integral(CenterCase.R2, c).case is IntegralCase.R1_CAP_R2


def test_intersection_invariance():
    pts = helpers.quadrant_points(4, 50)
    for i, c in enumerate(helpers.r_intersection_draws(71, 25)):
        fi = build_integral(IntegralCase.R1_CAP_R2, c)
        assert invariance_residual(fi, c, pts) <= 1e-10, f"draw {i}"


def test_reversible_request_resolves_to_intersection_iff_both_families_match():
    # shared-subfamily draws moved off it at 1e-9 with the trace kept zero,
    # where any second family test would disagree with the matcher
    rng = np.random.default_rng(7)
    both_seen = one_seen = 0
    for i, d in enumerate(helpers.r_intersection_draws(3, 5000)):
        a1, b1, a3 = (v + rng.normal(0.0, 1e-9) for v in (d.a1, d.b1, d.a3))
        K = d.K * (1.0 + rng.normal(0.0, 1e-9))
        c = CanonicalParams(float(a1), float(b1), float(a3), float(a1 / K), float(K))
        both = {CenterCase.R1, CenterCase.R2} <= match_table_cases(c)
        both_seen += both
        one_seen += not both
        for case in (CenterCase.R1, CenterCase.R2):
            try:
                resolved = build_integral(case, c).case
            except (CaseMismatch, NoKnownIntegral):
                resolved = None
            assert (resolved is IntegralCase.R1_CAP_R2) == both, f"draw {i}, {case.value}"
    assert both_seen and one_seen


def test_log_replacement_case_iii():
    c = CanonicalParams(1.0, -1.5, -1.0, 1.0, 1.0)
    fi = build_integral(CenterCase.III, c)
    logs = [t for t in fi.terms if t.kind is TermKind.LOG_X]
    assert len(logs) == 1
    assert logs[0].coeff == 1.0
    assert invariance_residual(fi, c, helpers.quadrant_points(5, 100)) <= 1e-12

    c = CanonicalParams(0.5, -1.0, -1.0, 1.0, 0.5)
    fi = build_integral(CenterCase.III, c)
    logs = [t for t in fi.terms if t.kind is TermKind.LOG_Y]
    assert len(logs) == 1
    assert logs[0].coeff == -1.0
    assert invariance_residual(fi, c, helpers.quadrant_points(6, 100)) <= 1e-12


def test_log_replacement_case_i():
    c = CanonicalParams(0.0, -2.0, -1.0, 0.0, 1.3)
    fi = build_integral(CenterCase.I, c)
    assert any(t.kind is TermKind.LOG_X for t in fi.terms)
    assert invariance_residual(fi, c, helpers.quadrant_points(7, 100)) <= 1e-12


def test_log_switch_is_continuous():
    pts = helpers.quadrant_points(8, 100)
    base = build_integral(CenterCase.I, CanonicalParams(0.0, -2.0, -1.0, 0.0, 1.3))
    for eps in (1e-6, -1e-6):
        near = build_integral(CenterCase.I, CanonicalParams(0.0, -2.0, -1.0 + eps, 0.0, 1.3))
        worst = max(
            abs((evaluate(near, p) - near.level0) - (evaluate(base, p) - base.level0))
            for p in pts
        )
        assert worst <= 1e-4, f"eps={eps}: {worst}"


def test_gradient_vanishes_at_equilibrium():
    fi = build_integral(CenterCase.I, CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0))
    assert gradient(fi, (1.0, 1.0)) == (0.0, 0.0)
    fi = build_integral(CenterCase.II, CanonicalParams(-0.5, -1.25, -1.5, -0.25, 2.0))
    assert gradient(fi, (1.0, 1.0)) == (0.0, 0.0)


def test_gradient_matches_finite_differences():
    h = 1e-6
    cases = [
        (CenterCase.I, CanonicalParams(0.0, -2.0, -1.5, 0.0, 0.7)),
        (CenterCase.II, CanonicalParams(0.5, -0.7, -0.5, 0.3, 0.5 / 0.3)),
        (CenterCase.III, CanonicalParams(0.8, -1.5, -1.0, 1.0, 0.8)),
        (CenterCase.IV, CanonicalParams(1.0, -1.0, -1.2, 0.5, 2.0)),
        (IntegralCase.R1_CAP_R2, CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0)),
    ]
    for case, c in cases:
        fi = build_integral(case, c)
        for x, y in helpers.quadrant_points(9, 20, spread=2.0):
            gx, gy = gradient(fi, (x, y))
            fdx = (evaluate(fi, (x + h, y)) - evaluate(fi, (x - h, y))) / (2 * h)
            fdy = (evaluate(fi, (x, y + h)) - evaluate(fi, (x, y - h))) / (2 * h)
            assert gx == pytest.approx(fdx, rel=1e-5, abs=1e-5), f"{case} at ({x}, {y})"
            assert gy == pytest.approx(fdy, rel=1e-5, abs=1e-5), f"{case} at ({x}, {y})"


def test_mismatched_parameters_break_invariance():
    fi = build_integral(CenterCase.I, CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0))
    wrong = CanonicalParams(0.8, -1.5, -1.0, 1.0, 0.8)
    assert invariance_residual(fi, wrong, helpers.quadrant_points(10, 100)) > 1e-3


def test_a_nan_point_residual_makes_the_residual_nan():
    # a III center whose gradient at (0.25, 4) is (nan, inf) while the
    # field there is finite: the point must not be skipped as 0
    c = CanonicalParams(511.0, -600.0, -1.0, 1.0, 511.0)
    fi = build_integral(CenterCase.III, c)
    gx, gy = gradient(fi, (0.25, 4.0))
    assert math.isnan(gx) and gy == math.inf
    assert math.isnan(invariance_residual(fi, c, [(0.25, 4.0)]))
    assert math.isnan(invariance_residual(fi, c, [(1.5, 1.0), (0.25, 4.0), (1.2, 1.1)]))


def test_build_rejects_wrong_family():
    with pytest.raises(CaseMismatch):
        build_integral(CenterCase.I, CanonicalParams(0.8, -1.5, -1.0, 1.0, 0.8))
    with pytest.raises(CaseMismatch):
        build_integral(CenterCase.II, CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0))


def test_reversible_rows_alone_have_no_integral():
    with pytest.raises(NoKnownIntegral):
        build_integral(CenterCase.R1, CanonicalParams(0.5, 2.0, 2.0, 0.5, 1.0))
    with pytest.raises(NoKnownIntegral):
        build_integral(CenterCase.R2, CanonicalParams(1.0 / 3.0, -3.0, -1.0, 1.0, 1.0 / 3.0))


def test_evaluate_rejects_boundary():
    fi = build_integral(CenterCase.I, CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        evaluate(fi, (0.0, 1.0))
    with pytest.raises(DomainError):
        gradient(fi, (1.0, -1.0))


def test_evaluators_refuse_an_infinite_coordinate():
    # the quadrant rule of vector_field: positive and finite coordinates
    fi = build_integral(CenterCase.I, CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0))
    with pytest.raises(DomainError, match=r"first integral not evaluable at \(inf, 1\.0\)"):
        evaluate(fi, (math.inf, 1.0))
    with pytest.raises(DomainError, match=r"first integral gradient not evaluable at \(inf, 1\.0\)"):
        gradient(fi, (math.inf, 1.0))


def test_gradient_refuses_a_point_where_a_power_overflows():
    # 0.25**-600 overflows in the III center's y-term
    fi = build_integral(CenterCase.III, CanonicalParams(511.0, -600.0, -1.0, 1.0, 511.0))
    with pytest.raises(DomainError, match=r"first integral gradient not evaluable at \(0\.25, 0\.25\)"):
        gradient(fi, (0.25, 0.25))


def test_orbit_follows_level_set():
    c = CanonicalParams(1.0, -1.0, -3.0, 2.0, 0.5)
    fi = build_integral(CenterCase.IV, c)
    v0 = evaluate(fi, (1.3, 1.0))
    tr = integrate(c, (1.3, 1.0), t_max=12.0, rel_tol=1e-10)

    def offset(x, yy):
        return evaluate(fi, (x, yy)) - v0

    checked = 0
    for x, y in tr.points[:: max(1, len(tr.points) // 150)]:
        if abs(gradient(fi, (x, y))[1]) < 0.2:
            continue
        lo = hi = y
        flo = fhi = offset(x, y)
        for _ in range(60):
            if flo * fhi < 0.0:
                break
            lo *= 0.999
            hi *= 1.001
            flo, fhi = offset(x, lo), offset(x, hi)
        if flo * fhi > 0.0:
            continue
        y_level, _ = brentq(lambda yy: offset(x, yy), lo, hi, flo, fhi, xtol=1e-13)
        assert abs(y_level - y) <= 1e-5, f"at x={x}"
        checked += 1
    assert checked >= 30


def test_format_integral_text(capsys):
    # verify-integral prints the integral the CLI renders as its first line
    assert main(["verify-integral", "--case", "i", "--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "1"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("V(x, y) = ")
    assert "integrating factor" in text
    assert main(["verify-integral", "--case", "r1r2", "--a1", "0", "--b1", "-2", "--a3", "-2", "--b3", "0", "--K", "1"]) == 0
    assert "(x + y)" in capsys.readouterr().out.splitlines()[0]

"""Integration, return maps, and limit-cycle detection."""

import hashlib
import math
import random
import re
import statistics
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from lotkacenter import (
    BadBase,
    BautinResult,
    CanonicalParams,
    CenterCase,
    CycleStability,
    DomainError,
    IntegrationFailure,
    LimitCycleReport,
    LotkaError,
    NoReturn,
    PreconditionViolated,
    ReturnRecord,
    TerminationReason,
    Verdict,
    bautin_scenario,
    build_integral,
    classify,
    closed_form_focal,
    detect_limit_cycles,
    evaluate,
    integrate,
    jacobian,
    poincare_return,
    section_displacement,
)
from lotkacenter import dynamics
from lotkacenter.cli import main
from lotkacenter.dynamics import brentq

LINEAR_CENTER = CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0)
LINEAR_CENTER_FLAGS = ["--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "1"]
WEAK_FOCUS = CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0)


def test_linear_center_closes_after_one_turn():
    rec = poincare_return(LINEAR_CENTER, 1.3, rel_tol=1e-11)
    assert rec.return_time == pytest.approx(2.0 * math.pi, abs=1e-8)
    assert abs(rec.displacement) <= 1e-9
    assert rec.crossings == 2
    assert rec.start_x == 1.3


def test_equilibrium_is_stationary():
    tr = integrate(WEAK_FOCUS, (1.0, 1.0), t_max=5.0)
    assert tr.termination is TerminationReason.TIME_LIMIT
    assert all(p == (1.0, 1.0) for p in tr.points)


def test_trajectory_invariants():
    tr = integrate(WEAK_FOCUS, (1.2, 1.0), t_max=10.0, rel_tol=1e-9)
    assert tr.termination is TerminationReason.TIME_LIMIT
    assert all(t1 > t0 for t0, t1 in zip(tr.times, tr.times[1:]))
    assert all(x > 0.0 and y > 0.0 for x, y in tr.points)
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(10.0, abs=1e-12)
    assert tr.n_accepted == len(tr.times) - 1
    with pytest.raises(TypeError):
        tr.points[0][0] = 2.0


def test_conserved_quantity_drift():
    c = CanonicalParams(0.0, 0.9, 1.7, 0.0, 1.3)
    fi = build_integral(CenterCase.I, c)
    tr = integrate(c, (1.4, 1.0), t_max=20.0, rel_tol=1e-10)
    v0 = evaluate(fi, (1.4, 1.0))
    step = max(1, len(tr.points) // 200)
    drift = max(abs(evaluate(fi, p) - v0) for p in tr.points[::step])
    assert drift <= 1e-9


def test_reversible_center_return():
    d = section_displacement(CanonicalParams(0.5, 2.0, 2.0, 0.5, 1.0), 0.2, rel_tol=1e-10)
    assert abs(d) <= 1e-7


@pytest.mark.parametrize("radius", [0.05, 0.3, 1.0])
def test_return_map_round_off_floor(radius):
    # 40 maps 1e-12 apart on a center differ by round-off alone: their
    # displacements' std reads 1.7e-15, 1.7e-15 and 3.5e-15 at these radii.
    # A crossing that left the numerical orbit would raise it
    c = CanonicalParams(0.5, 2.0, 2.0, 0.5, 1.0)
    disp = [section_displacement(c, radius + k * 1e-12, 1e-10) for k in range(40)]
    assert statistics.pstdev(disp) <= 5e-15


_ELLIPTIC_SAMPLERS = {
    "elliptic": helpers.elliptic_draws,
    "case-b": helpers.case_b_stratum_draws,
    "c2": helpers.c2_stratum_draws,
    "near-bautin": helpers.near_bautin_draws,
    "r-intersection": helpers.r_intersection_draws,
    **{
        f"row-{case.value}": lambda seed, n, case=case: helpers.center_row_draws(seed, case, n)
        for case in CenterCase
    },
}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.sampled_from(sorted(_ELLIPTIC_SAMPLERS)),
    st.integers(0, 2**16),
    st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
    st.sampled_from([1e-6, 1e-8]),
)
def test_a_return_crosses_the_section_twice(sampler, seed, radius, rel_tol):
    # on y = 1, dy/dt = K(1 - x**a3) has one sign for x > 1 and the other
    # for x < 1, so a first return crosses once at x < 1 and returns at x > 1
    (c,) = _ELLIPTIC_SAMPLERS[sampler](seed, 1)
    try:
        rec = poincare_return(c, 1.0 + radius, rel_tol)
    except NoReturn:
        return
    assert (rec.crossings, rec.return_x > 1.0) == (2, True), (c, radius, rel_tol, rec)


def test_weak_focus_contracts():
    d = section_displacement(WEAK_FOCUS, 0.05, rel_tol=1e-11)
    assert d < 0.0
    assert abs(d) == pytest.approx(3.556e-8, rel=0.05)


def test_return_time_approaches_linear_period():
    rec = poincare_return(WEAK_FOCUS, 1.001, rel_tol=1e-11)
    omega = 1.0
    assert abs(rec.return_time - 2.0 * math.pi / omega) / (2.0 * math.pi) <= 1e-3


def test_no_return_on_escape():
    c = CanonicalParams(2.0, -1.0, -3.0, 1.0, 1.0)
    with pytest.raises(NoReturn) as err:
        poincare_return(c, 1.8)
    assert "QuadrantEscape" in str(err.value)


def test_no_return_on_small_budget(monkeypatch):
    monkeypatch.setattr(dynamics, "_PERIODS_BUDGET", 0.05)
    with pytest.raises(NoReturn) as err:
        poincare_return(LINEAR_CENTER, 1.3)
    assert "TimeLimit" in str(err.value)


def test_return_map_linearizes_once_and_refuses_a_saddle_before_any_step(monkeypatch):
    calls = []

    def counted(arg):
        calls.append(arg)
        return jacobian(arg)

    def no_step(*args, **kwargs):
        raise AssertionError("a saddle's return map stepped")

    monkeypatch.setattr(dynamics, "jacobian", counted)
    poincare_return(WEAK_FOCUS, 1.2, 1e-6)
    assert calls == [WEAK_FOCUS]
    # det < 0: (1, 1) has index -1, so no orbit returns; the map's one
    # jacobian call decides it, and the scan records NaN
    monkeypatch.setattr(dynamics, "_drive", no_step)
    saddle = CanonicalParams(2.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(NoReturn, match=r"cannot return: \(1, 1\) is a saddle \(determinant -1\)"):
        poincare_return(saddle, 1.2)
    assert calls == [WEAK_FOCUS, saddle]
    report = detect_limit_cycles(saddle, 0.1, 0.5, 3)
    assert report.cycles == () and all(math.isnan(d) for d in report.scan_displacements)


#: elliptic and trace-free; a step's error norm overflows at |u| ~ 1e154
_OVERFLOWING_NORM = CanonicalParams(
    47.582143249860835, -58.44143025743802, -45.76684529094912, 32.09693224523002, 1.4824514344959585
)


def test_an_overflowing_error_norm_rejects_the_step():
    # u*u gives inf where u**2 raises OverflowError: the infinite norm
    # rejects the step until the step size falls under its floor
    with pytest.raises(NoReturn, match="StepSizeFloor"):
        poincare_return(_OVERFLOWING_NORM, 1.3345921063318036, 1e-6)
    report = detect_limit_cycles(_OVERFLOWING_NORM, 0.3345921063318036, 0.5, 2)
    assert report.cycles == () and math.isnan(report.scan_displacements[0])


#: elliptic and trace-free; 10**400 overflows, so the field is not
#: evaluable at (10, 1)
_OVERFLOWING_START = CanonicalParams(400.0, -1000.0, -1000.0, 400.0, 1.0)


@pytest.mark.parametrize("x0", [10.0, math.inf])
def test_a_start_where_the_field_is_not_evaluable_is_refused(x0):
    # vector_field's DomainError becomes the error each entry point raised
    # when it tested the start itself, with the same message
    with pytest.raises(PreconditionViolated, match=re.escape(f"field not evaluable at ({x0}, 1.0)")):
        poincare_return(_OVERFLOWING_START, x0)
    with pytest.raises(IntegrationFailure, match=re.escape(f"field not evaluable at start ({x0}, 1.0)")):
        integrate(_OVERFLOWING_START, (x0, 1.0), 1.0)


def test_a3_zero_makes_the_section_invariant_and_the_map_refuses_it(monkeypatch):
    # at a3 = 0, dy/dt = K(1 - y**b3) vanishes on y = 1, so no orbit
    # crosses the section: the map refuses the start before any step
    def no_step(*args, **kwargs):
        raise AssertionError("a map on an invariant section stepped")

    monkeypatch.setattr(dynamics, "_drive", no_step)
    node = CanonicalParams(1.0, -1.0, 0.0, -1.0, 1.0)
    with pytest.raises(PreconditionViolated, match=r"not transversal.* at \(1\.05, 1\.0\)"):
        poincare_return(node, 1.05)
    report = detect_limit_cycles(node, 0.1, 0.5, 3)
    assert report.cycles == () and all(math.isnan(d) for d in report.scan_displacements)


def test_a_center_with_a_tiny_a3_returns(capsys):
    # a rotating system with |a3| <= 1e-9 needs a huge b1; the displacement
    # is round-off of y**1e10, so only its finiteness is pinned
    c = CanonicalParams(0.0, 1e10, 1e-10, 0.0, 1.0)
    assert classify(c).verdict is Verdict.CENTER
    rec = poincare_return(c, 1.05)
    assert math.isfinite(rec.displacement) and rec.crossings == 2
    flags = ["--a1", "0", "--b1", "1e10", "--a3", "1e-10", "--b3", "0", "--K", "1"]
    assert main(["poincare", *flags, "--x0", "1.05"]) == 0
    assert "crossings = 2" in capsys.readouterr().out


def test_a_return_within_its_bound_of_the_equilibrium_is_no_return():
    # a damped focus absorbs the orbit: at 1e-7 it "returned" at
    # return_x - 1 = 1.49e-7, inside its error bound of 1.32e-4
    c = CanonicalParams(
        -14.614113652136766, -10.475821873051501, 75.47247605284161, 79.75172149931703,
        30.415773627314394,
    )
    with pytest.raises(NoReturn, match=r"returned within 0\.000132 of x = 1"):
        poincare_return(c, 1.00272, 1e-7)


def _family_i_centers(seed: int, n: int) -> list[tuple[CanonicalParams, float, float]]:
    """(center, radius, rel_tol) draws on family I (a1 = b3 = 0) with
    |a3| <= 1e-9, |b1| in 10**[8, 11] of a3's sign, K in e**[-4, 4], the
    radius in 10**[-6, 1] and rel_tol in {1e-6, 1e-7, 1e-8}."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        a3 = rng.uniform(-1e-9, 1e-9)
        b1 = math.copysign(10.0 ** rng.uniform(8.0, 11.0), a3)
        c = CanonicalParams(0.0, b1, a3, 0.0, math.exp(rng.uniform(-4.0, 4.0)))
        out.append((c, 10.0 ** rng.uniform(-6.0, 1.0), rng.choice((1e-6, 1e-7, 1e-8))))
    return out


def test_the_error_bound_covers_round_off_on_family_i_centers():
    # y**b1 with |b1| >= 1e8 turns each rounding of y into a relative
    # error of |b1| eps in the rate of x: the displacement of these centers
    # is round-off, which the bound's round-off term covers, and a scan
    # finds no cycle in it.  Without that term 50 of the 77 maps that
    # returned here exceeded their bound, by up to 50 times, and each of
    # the three scans reported 2 to 4 cycles
    returned = 0
    for c, radius, rel_tol in _family_i_centers(2, 100):
        try:
            rec = poincare_return(c, 1.0 + radius, rel_tol)
        except LotkaError:
            continue
        assert abs(rec.displacement) <= rec.error_bound, (c, radius, rel_tol, rec)
        returned += 1
    assert returned == 61, returned
    for c, _, _ in _family_i_centers(2, 3):
        assert detect_limit_cycles(c, 0.02, 1.5, 8).cycles == (), c


def test_saddle_orbit_escapes():
    tr = integrate(CanonicalParams(2.0, 1.0, 1.0, 1.0, 1.0), (1.5, 1.5), t_max=50.0)
    assert tr.termination is TerminationReason.QUADRANT_ESCAPE
    x, y = tr.points[-1]
    assert x > 1e3 or y < 1e-3


def test_step_budget_termination():
    tr = integrate(LINEAR_CENTER, (1.3, 1.0), t_max=1000.0, step_budget=40)
    assert tr.termination is TerminationReason.STEP_BUDGET
    assert tr.n_accepted + tr.n_rejected <= 40


def test_rel_tol_validation():
    with pytest.raises(ValueError):
        integrate(LINEAR_CENTER, (1.3, 1.0), t_max=1.0, rel_tol=1e-2)
    with pytest.raises(ValueError):
        integrate(LINEAR_CENTER, (1.3, 1.0), t_max=1.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        poincare_return(LINEAR_CENTER, 1.3, rel_tol=0.5)


def _return_map_sign(c: CanonicalParams) -> tuple[int, float, float]:
    """Sign of the larger of the displacements at radii 1e-2 and 5e-3
    (0 when both are under 1e-9), and the two displacements."""
    d_full = section_displacement(c, 1e-2, rel_tol=1e-10)
    d_half = section_displacement(c, 5e-3, rel_tol=1e-10)
    if abs(d_full) <= 1e-9 and abs(d_half) <= 1e-9:
        return 0, d_full, d_half
    lead = d_full if abs(d_full) >= abs(d_half) else d_half
    return (1 if lead > 0.0 else -1), d_full, d_half


def test_sign_probe_agrees_with_first_focal_value():
    sign, d_full, d_half = _return_map_sign(CanonicalParams(2.0, -1.0, -3.0, 1.0, 2.0))
    assert sign == 1
    assert d_full > 1e-9
    assert d_half > 1e-9

    count = 0
    for c in helpers.elliptic_draws(77, 200):
        fv = closed_form_focal(c)
        if abs(fv.L1) < 1e-2:
            continue
        sign, _, _ = _return_map_sign(c)
        if sign == 0:
            continue
        assert sign == (1 if fv.L1 > 0 else -1), f"{c}"
        count += 1
        if count >= 25:
            break
    assert count >= 25


def test_exact_center_yields_no_cycles():
    rep = detect_limit_cycles(CanonicalParams(0.5, 2.0, 2.0, 0.5, 1.0), 0.1, 1.0, 12)
    assert rep.cycles == ()
    assert len(rep.scan_radii) == 12


def test_single_stable_cycle_detection():
    rep = detect_limit_cycles(CanonicalParams(0.98, 2.0, 1.0, 1.0, 0.98), 0.2, 1.4, 15)
    assert len(rep.cycles) == 1
    cyc = rep.cycles[0]
    assert cyc.stability is CycleStability.STABLE
    assert cyc.radius == pytest.approx(0.9454, abs=5e-3)
    assert abs(cyc.displacement) <= 1e-10


@pytest.mark.parametrize("n_scan", [30, 117])
def test_a_flat_inner_cycle_is_found_at_every_scan_density(n_scan):
    # system 6 of perfbench cycles seed 2: the scan values -7.58e-8 and
    # +4.53e-8 around the inner cycle clear their 1e-8 maps' bounds of
    # 7.9e-9 and 9.4e-9, and 1e-10 and 1e-11 maps agree to 5 digits, so
    # the sign change is real, though a fixed floor of 1e-7 would drop it
    c = CanonicalParams(
        1.0025552853899085, -1.8904279259665744, -2.999036703291685, 1.0, 1.0025595025218335
    )
    report = detect_limit_cycles(c, 0.02, 1.5, n_scan)
    assert [cyc.stability for cyc in report.cycles] == [
        CycleStability.UNSTABLE,
        CycleStability.STABLE,
    ]
    inner, outer = (cyc.radius for cyc in report.cycles)
    assert inner == pytest.approx(0.0845155886, abs=5e-10)
    assert outer == pytest.approx(0.2486271412, abs=5e-10)


def test_scan_records_no_return_radii_as_nan():
    rep = detect_limit_cycles(CanonicalParams(2.0, -1.0, -3.0, 1.0, 1.0), 0.5, 3.0, 6)
    assert any(math.isnan(d) for d in rep.scan_displacements)


def _report_hex(report) -> tuple:
    scan = tuple(float.hex(v) for v in (*report.scan_radii, *report.scan_displacements))
    return scan, tuple(
        (float.hex(c.radius), float.hex(c.displacement), c.stability) for c in report.cycles
    )


@pytest.mark.parametrize(
    "params, radii",
    [
        ((0.98, 2.0, 1.0, 1.0, 0.98), (0.2, 1.4, 8)),
        ((1.02 - float.fromhex("0x1.44b5031ba9994p-12"), -2.0, -3.0, 1.0, 1.02), (0.1, 1.0, 5)),
        ((1.0, 2.0, 1.0, 1.0, 1.0), (0.1, 1.0, 6)),
    ],
    ids=["stable-cycle", "unstable-cycle", "no-cycle"],
)
def test_numpy_scalar_systems_scan_like_float_ones(params, radii):
    as_float = detect_limit_cycles(CanonicalParams(*params), *radii)
    r_min, r_max, n_scan = radii
    as_numpy = detect_limit_cycles(
        CanonicalParams(*map(np.float64, params)), np.float64(r_min), np.float64(r_max), n_scan
    )
    assert _report_hex(as_numpy) == _report_hex(as_float)


def _linspace_cases():
    fixed = [
        (-3.0, 3.0, 50),  # the default sweep axis
        (math.log10(0.02), math.log10(1.5), 30),  # the default scan exponents
        (-1e300, 1e300, 11),
        (1.0, 1.0 + 2.0**-52, 3),
        (0.0, 5e-324, 4),  # the step underflows to 0
        (-5e-324, 5e-324, 9),
    ]
    rng = random.Random(3)
    drawn = []
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-320.0, 300.0)
        lo = rng.uniform(-1.0, 1.0) * scale
        drawn.append((lo, lo + rng.uniform(0.0, 2.0) * scale, rng.randint(2, 60)))
    return fixed + drawn


def test_linspace_matches_numpy_bit_for_bit():
    for lo, hi, n in _linspace_cases():
        expected = [float(v).hex() for v in np.linspace(lo, hi, n)]
        assert [v.hex() for v in dynamics._linspace(lo, hi, n)] == expected, (lo, hi, n)


def test_poincare_return_of_numpy_scalars_is_built_in_floats():
    c = CanonicalParams(*map(np.float64, (1.0, 2.0, 1.0, 1.0, 1.0)))
    rec = poincare_return(c, np.float64(1.2), np.float64(1e-8))
    assert [type(v) for v in tuple(rec)] == [float, float, float, float, int, float]
    assert rec == poincare_return(WEAK_FOCUS, 1.2, 1e-8)


def test_format_trajectory_is_plain_tsv(capsys):
    # the CLI renders the trajectory
    argv = ["simulate", *LINEAR_CENTER_FLAGS, "--x0", "1.3", "--y0", "1.0", "--t-max", "0.5"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "t\tx\ty"
    assert "np." not in text
    t, x, y = (float(v) for v in lines[1].split("\t"))
    assert (t, x, y) == (0.0, 1.3, 1.0)


def test_format_return_record_text(capsys):
    assert main(["poincare", *LINEAR_CENTER_FLAGS, "--x0", "1.3"]) == 0
    text = capsys.readouterr().out
    assert "start_x = 1.3" in text
    assert "displacement = " in text
    assert "crossings = 2" in text
    assert "\nerror_bound = " in text


def test_format_cycle_report_text(capsys):
    argv = ["cycles", "--a1", "0.98", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "0.98"]
    assert main([*argv, "--r-min", "0.4", "--r-max", "1.4", "--n-scan", "8"]) == 0
    text = capsys.readouterr().out
    assert "cycles = 1" in text
    assert "Stable" in text
    assert "sign pattern" in text


# Roots from scipy.optimize.brentq with the same brackets and tolerances.
BRENT_CASES = [
    # (f, lo, hi, tolerances, exact root, scipy root)
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, {}, 2.0945514815423265, "0x1.0c1a4350819e4p+1"),
    (lambda x: math.cos(x) - x, 0.0, 1.0, {"xtol": 1e-12, "rtol": 8.9e-16},
     0.7390851332151607, "0x1.7a695dd83ce03p-1"),
    (lambda x: math.exp(x) - 3.0, 0.0, 2.0, {"xtol": 1e-13}, math.log(3.0), "0x1.193ea7aad030bp+0"),
    (lambda x: math.tanh(50.0 * (x - 0.1)), -1.0, 2.0, {}, 0.1, "0x1.999999999999ap-4"),
    (lambda x: math.sin(10.0 * x) + 0.3, 0.2, 0.5, {"xtol": 1e-6},
     (math.pi + math.asin(0.3)) / 10.0, "0x1.60e64d4a1df2dp-2"),
    (lambda x: math.atan(x - 0.3) * 1e-9, -2.0, 0.31, {"xtol": 1e-12, "rtol": 8.9e-16},
     0.3, "0x1.333333333430fp-2"),
]


@pytest.mark.parametrize(
    "f, lo, hi, tols, exact, scipy_hex",
    BRENT_CASES,
    ids=["cubic", "cos", "exp", "tanh", "sin", "flat-atan"],
)
def test_brentq_roots(f, lo, hi, tols, exact, scipy_hex):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    root, value = brentq(counted, lo, hi, f(lo), f(hi), **tols)
    xtol = tols.get("xtol", 2e-12)
    assert abs(root - exact) <= xtol + 1e-15 * abs(exact)
    assert root.hex() == scipy_hex
    assert value == f(root)
    assert calls and lo not in calls and hi not in calls


def test_brentq_zero_end_needs_no_evaluation():
    def never(x):
        raise AssertionError(f"evaluated at {x}")

    assert brentq(never, 1.0, 2.0, 0.0, 3.0) == (1.0, 0.0)
    assert brentq(never, 1.0, 2.0, -3.0, 0.0) == (2.0, 0.0)


def test_brentq_rejects_bad_brackets():
    f = lambda x: x - 0.5  # noqa: E731
    with pytest.raises(ValueError):
        brentq(f, 1.0, 2.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0, math.nan, 0.5)
    with pytest.raises(ValueError):
        brentq(lambda x: math.nan, 0.0, 1.0, -0.5, 0.5)
    # scipy.optimize.brentq also gives up on this triple root
    with pytest.raises(RuntimeError):
        brentq(lambda x: (x - 0.7) ** 3, 0.0, 1.3, (-0.7) ** 3, 0.6**3, xtol=1e-12, rtol=8.9e-16)


def _count_maps(monkeypatch) -> list:
    """Record (params, x0, rel_tol) of every return map from now on."""
    calls = []
    inner = dynamics.poincare_return

    def counted(c, x0, rel_tol=1e-9, **kwargs):
        calls.append((c, x0, rel_tol))
        return inner(c, x0, rel_tol, **kwargs)

    monkeypatch.setattr(dynamics, "poincare_return", counted)
    return calls


#: the two acceptance bases (b1, a3, dK) of criterion 7
BAUTIN_BASES = ((-2.0, -3.0, 0.02), (2.0, 1.0, -0.02))


def _count_steps(monkeypatch) -> list:
    """Record (rel_tol, accepted steps) of every integration from now on."""
    runs = []
    inner = dynamics._drive

    def counted(c, x0, y0, t_max, rel_tol, t_char, **kwargs):
        out = inner(c, x0, y0, t_max, rel_tol, t_char, **kwargs)
        runs.append((rel_tol, out[2][0]))
        return out

    monkeypatch.setattr(dynamics, "_drive", counted)
    return runs


@pytest.fixture(scope="module")
def bautin_runs() -> dict[tuple[float, float, float], tuple[BautinResult, list]]:
    """bautin_scenario on each acceptance base and the (rel_tol, accepted
    steps) of each return map it made."""
    runs = {}
    for base in BAUTIN_BASES:
        with pytest.MonkeyPatch.context() as mp:
            maps = _count_steps(mp)
            result = bautin_scenario(*base)
        runs[base] = result, maps
    return runs


def _cycle_hex(report) -> list[tuple[str, str, str]]:
    return [(c.radius.hex(), c.displacement.hex(), c.stability.value) for c in report.cycles]


def test_bautin_golden_bits(bautin_runs):
    # eps captured when it came to be read off the normal form, the cycles
    # when roots came to be finished by secant steps from the sign maps' root
    result, _ = bautin_runs[BAUTIN_BASES[0]]
    assert result.stage2_eps.hex() == "0x1.44b5031ba9994p-12"
    assert _cycle_hex(result.stage1_report) == [
        ("0x1.52cc9187d08d7p+0", "0x1.5f80000000000p-42", "Stable"),
    ]
    assert _cycle_hex(result.stage2_report) == [
        ("0x1.3bbe436fbe632p-2", "0x1.9000000000000p-48", "Unstable"),
        ("0x1.20592157465bcp+0", "-0x1.6000000000000p-47", "Stable"),
    ]


def test_bautin_return_map_budget(bautin_runs):
    # two scans and their refinements; eps is predicted, not searched for.
    # Brent finds each root on sign maps and secant steps finish it, so
    # refinement maps go only to those steps and to ends the scan cannot
    # sign.  Narrowing each bracket on scan values and running Brent on
    # refinement maps took 13 and 11 refinement maps, 90 and 94 scan maps
    # and 26,144 and 17,387 accepted steps
    budget = {  # base: (refinement maps, most scan maps, most re-maps, most accepted steps)
        BAUTIN_BASES[0]: (8, 60, 19, 16_700),
        BAUTIN_BASES[1]: (7, 60, 14, 11_500),
    }
    tols = {dynamics._SCAN_REL_TOL, dynamics._SIGN_REL_TOL, dynamics._REFINE_REL_TOL}
    for base, (_, maps) in bautin_runs.items():
        refine, scan_cap, remap_cap, step_cap = budget[base]
        per_tol = Counter(tol for tol, _ in maps)
        assert set(per_tol) == tols, base
        assert per_tol[dynamics._REFINE_REL_TOL] == refine, base
        assert per_tol[dynamics._SCAN_REL_TOL] <= scan_cap, base
        assert per_tol[dynamics._SIGN_REL_TOL] <= remap_cap, base
        assert sum(steps for _, steps in maps) <= step_cap, base


@pytest.fixture(scope="module")
def premise_runs(bautin_runs):
    """The 12 systems of the refinement premises: eight seeded
    near-Bautin systems and both stages of both Bautin bases, each with
    its report over ``_BAUTIN_SCAN``, and the (system, radius) of every
    scan end next to a sign change of those scans."""
    systems = helpers.near_bautin_draws(2020, 8)
    for result, _ in bautin_runs.values():
        systems += [result.stage1_params, result.stage2_params]
    ends = set()
    inner = dynamics._brackets

    def spy(c, radii, disp, bounds):
        for r0, r1, d0, d1 in zip(radii, radii[1:], disp, disp[1:]):
            if d0 * d1 < 0.0:
                ends.update({(c, r0), (c, r1)})
        for bracket in inner(c, radii, disp, bounds):
            assert {(c, bracket[0]), (c, bracket[1])} <= ends
            yield bracket

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_brackets", spy)
        reports = {c: detect_limit_cycles(c, *dynamics._BAUTIN_SCAN) for c in systems}
    return reports, ends


def test_scan_signs_beyond_their_own_bound_hold_at_the_refinement_tolerance(premise_runs):
    # the premises of trusting a scan sign by its map's own bound:
    # - a _SCAN_REL_TOL map's error_bound covers its distance to the
    #   refinement map at every scan radius, and so does a _SIGN_REL_TOL
    #   map's at every scan end next to a sign change;
    # - every such end that _scan_value vouches for has the refinement sign
    reports, ends = premise_runs
    refined_at = {}

    def refined(c, r):
        if (c, r) not in refined_at:
            refined_at[c, r] = section_displacement(c, r, dynamics._REFINE_REL_TOL)
        return refined_at[c, r]

    radii = dynamics._linspace(*(math.log10(v) for v in dynamics._BAUTIN_SCAN[:2]), 30)
    radii = [10.0**v for v in radii]
    radii[0], radii[-1] = dynamics._BAUTIN_SCAN[:2]
    bounded = 0
    for c in reports:
        for r in radii:
            rec = poincare_return(c, 1.0 + r, dynamics._SCAN_REL_TOL)
            error = abs(rec.displacement - refined(c, r))
            assert error <= rec.error_bound, (c, r, rec, error)
            bounded += 1
    assert bounded == 360, bounded
    vouched = 0
    for c, r in ends:
        sign_map = poincare_return(c, 1.0 + r, dynamics._SIGN_REL_TOL)
        error = abs(sign_map.displacement - refined(c, r))
        assert error <= sign_map.error_bound, (c, r, sign_map, error)
        rec = dynamics._scan_value(c, r)
        if abs(rec.displacement) > rec.error_bound:
            assert (rec.displacement > 0.0) == (refined(c, r) > 0.0), (c, r, rec, refined(c, r))
            vouched += 1
    # on these systems the scan vouches for every end of a sign change
    assert vouched == len(ends) == 36, (vouched, len(ends))


def test_the_refinement_map_changes_sign_across_each_refined_root(premise_runs):
    # each returned radius lies within _REFINE_REL_TOL of a sign change of
    # the refinement map: that map takes opposite signs a tolerance away on
    # either side of it
    reports, _ = premise_runs
    straddled = 0
    for c, report in reports.items():
        assert report.cycles, c
        for cyc in report.cycles:
            below, above = (
                section_displacement(c, cyc.radius + dr, dynamics._REFINE_REL_TOL)
                for dr in (-dynamics._REFINE_REL_TOL, dynamics._REFINE_REL_TOL)
            )
            assert (below > 0.0) != (above > 0.0), (c, cyc, below, above)
            straddled += 1
    assert straddled == 18, straddled


def _refined_against_reference(monkeypatch, c, radii, report) -> list[float]:
    """|radius - reference radius| of each cycle of ``report``, the
    reference refined with maps at, and Brent stopped at, 1e-11."""
    monkeypatch.setattr(dynamics, "_REFINE_REL_TOL", 1e-11)
    ref = detect_limit_cycles(c, *radii)
    monkeypatch.undo()
    assert [cyc.stability for cyc in ref.cycles] == [cyc.stability for cyc in report.cycles]
    return [abs(cyc.radius - r.radius) for cyc, r in zip(report.cycles, ref.cycles)]


def test_refined_radii_match_a_finer_reference(monkeypatch, bautin_runs):
    # a root is only as good as the maps it solves; 5e-10 holds for all but
    # one of 180 roots of seeded near-Bautin systems and both bases (that
    # one, a small flat cycle, is 5.2e-10 off)
    single = CanonicalParams(0.98, 2.0, 1.0, 1.0, 0.98)
    errors = _refined_against_reference(
        monkeypatch, single, (0.2, 1.4, 15), detect_limit_cycles(single, 0.2, 1.4, 15)
    )
    result, _ = bautin_runs[BAUTIN_BASES[0]]
    errors += _refined_against_reference(
        monkeypatch, result.stage2_params, dynamics._BAUTIN_SCAN, result.stage2_report
    )
    assert len(errors) == 3
    assert max(errors) <= 5e-10, errors


def test_bautin_eps_is_half_the_normal_form_fold(bautin_runs):
    for base, (result, _) in bautin_runs.items():
        omega = math.sqrt(jacobian(result.stage1_params).determinant)
        fold = omega * result.stage1_focal.L1**2 / (4.0 * math.pi * abs(result.base_focal.L2))
        assert result.stage2_eps == pytest.approx(fold / 2.0, rel=1e-12), base


@pytest.mark.parametrize(
    "b1, a3, delta_k",
    [
        (2.0, 3.0, 0.02),
        (1.0, 0.5, 0.02),
        (-2.0, -3.0, -0.02),
        (2.0, 1.0, 0.02),
        (math.nan, -3.0, 0.02),
        (-2.0, math.inf, 0.02),
    ],
    ids=["L2-positive", "not-elliptic", "dK-sign-base1", "dK-sign-base2", "b1-nan", "a3-inf"],
)
def test_bautin_bad_base_raises(b1, a3, delta_k):
    with pytest.raises(BadBase):
        bautin_scenario(b1, a3, delta_k)


@pytest.mark.parametrize("delta_k", [6.0, -1.0, -2.0, math.nan, math.inf])
def test_bautin_bad_delta_k_is_bad_base(delta_k):
    # a stage 1 with det <= 0, K <= 0 or a non-finite K is a bad base too
    with pytest.raises(BadBase, match="dK="):
        bautin_scenario(-2.0, -3.0, delta_k)


def test_single_cycle_golden_bits():
    rep = detect_limit_cycles(CanonicalParams(0.98, 2.0, 1.0, 1.0, 0.98), 0.2, 1.4, 15)
    # captured when roots came to be finished by secant steps from the sign
    # maps' root
    assert _cycle_hex(rep) == [("0x1.e4052af715156p-1", "-0x1.7b80000000000p-43", "Stable")]


@pytest.mark.parametrize(
    "c, radii",
    [
        (CanonicalParams(0.98, 2.0, 1.0, 1.0, 0.98), (0.2, 1.4, 15)),
        # two cycles in adjacent scan intervals share the middle radius
        (CanonicalParams(1.02 - 3e-4, -2.0, -3.0, 1.0, 1.02), (0.2, 1.5, 3)),
    ],
    ids=["one-cycle", "adjacent-cycles"],
)
def test_scan_maps_each_point_once(monkeypatch, c, radii):
    calls = _count_maps(monkeypatch)
    rep = detect_limit_cycles(c, *radii)
    assert rep.cycles
    assert len(calls) == len(set(calls))


def test_scan_maps_a_bracket_end_at_the_refinement_tolerance(monkeypatch):
    # system 1 of perfbench cycles seed 7: the scan value -2.07e-8 at
    # r = 0.3385 is within its 1e-8 map's bound of 3.4e-8, so that end is
    # the one refinement map at a scan radius, and its -2.06e-8 clears the
    # 1.5e-11 bound of that map.  Brent on sign maps makes 4 maps; the root
    # and one secant step are the other refinement maps
    c = CanonicalParams(
        0.9950329712341762, 1.8254744393649363, 0.9621358029091333, 1.0, 0.9950329712341762
    )
    calls = _count_maps(monkeypatch)
    brent_maps = []
    inner = dynamics.brentq

    def counted(*args, **kwargs):
        before = len(calls)
        out = inner(*args, **kwargs)
        brent_maps.append((kwargs["xtol"], len(calls) - before))
        return out

    monkeypatch.setattr(dynamics, "brentq", counted)
    report = detect_limit_cycles(c, 0.02, 1.5, 30)
    scan_x = {1.0 + r for r in report.scan_radii}
    refine = [x0 for _, x0, tol in calls if tol == dynamics._REFINE_REL_TOL]
    (end,) = [x0 for x0 in refine if x0 in scan_x]
    assert len(refine) == 3
    assert brent_maps == [(dynamics._SIGN_REL_TOL, 4)]
    monkeypatch.undo()
    scan = dynamics._scan_value(c, end - 1.0)
    assert scan.error_bound == poincare_return(c, end, dynamics._SIGN_REL_TOL).error_bound
    assert abs(scan.displacement) <= scan.error_bound
    ref = poincare_return(c, end, dynamics._REFINE_REL_TOL)
    assert abs(ref.displacement) > ref.error_bound
    assert _cycle_hex(report) == [("0x1.5a93dfa56f5a5p-2", "0x1.6000000000000p-49", "Stable")]


def test_secant_steps_past_the_cap_hand_over_to_brent(monkeypatch):
    # system 6 of perfbench cycles seed 4: the steps to its small, flat
    # inner cycle wander in the maps' round-off for _SECANT_STEPS steps,
    # and Brent finishes the root on refinement maps; the outer cycle's
    # steps settle on their own
    c = CanonicalParams(
        1.0027006038625466, -1.8847439603907201, -2.9959015406166034, 1.0, 1.0027053870966984
    )
    events = []
    inner_map, inner_brent = dynamics.poincare_return, dynamics.brentq

    def mapped(c, x0, rel_tol=1e-9):
        events.append(rel_tol)
        return inner_map(c, x0, rel_tol)

    def brent(*args, **kwargs):
        events.append(("call", kwargs["xtol"]))
        out = inner_brent(*args, **kwargs)
        events.append(("return", kwargs["xtol"]))
        return out

    monkeypatch.setattr(dynamics, "poincare_return", mapped)
    monkeypatch.setattr(dynamics, "brentq", brent)
    report = detect_limit_cycles(c, *dynamics._BAUTIN_SCAN)
    sign, refine = dynamics._SIGN_REL_TOL, dynamics._REFINE_REL_TOL
    calls = [e[1] for e in events if isinstance(e, tuple) and e[0] == "call"]
    assert calls == [sign, refine, sign]
    start, hand_over = events.index(("return", sign)), events.index(("call", refine))
    assert events[start + 1 : hand_over] == [refine] * (1 + dynamics._SECANT_STEPS)
    errors = _refined_against_reference(monkeypatch, c, dynamics._BAUTIN_SCAN, report)
    assert len(errors) == 2
    assert max(errors) <= 5e-10, errors


def test_scan_value_re_maps_what_its_first_map_cannot_vouch_for(monkeypatch):
    # a first map beyond its bound is kept, and one within it gives way to
    # the map at _SIGN_REL_TOL; a first map that raises is final, and no
    # re-map follows it
    c = CanonicalParams(0.98, 2.0, 1.0, 1.0, 0.98)
    r = 0.4
    first = poincare_return(c, 1.0 + r, dynamics._SCAN_REL_TOL)
    assert abs(first.displacement) > first.error_bound
    assert dynamics._scan_value(c, r) == first
    sign_map = poincare_return(c, 1.0 + r, dynamics._SIGN_REL_TOL)
    assert sign_map.displacement != first.displacement
    inner = dynamics.poincare_return

    def loose_bound(c, x0, rel_tol):
        rec = inner(c, x0, rel_tol)
        return rec._replace(error_bound=math.inf) if rel_tol == dynamics._SCAN_REL_TOL else rec

    monkeypatch.setattr(dynamics, "poincare_return", loose_bound)
    assert dynamics._scan_value(c, r) == sign_map

    def no_first_return(c, x0, rel_tol):
        assert rel_tol == dynamics._SCAN_REL_TOL, "a re-map followed a raise"
        raise NoReturn("first map")

    monkeypatch.setattr(dynamics, "poincare_return", no_first_return)
    with pytest.raises(NoReturn, match="first map"):
        dynamics._scan_value(c, r)


def test_bautin_stage2_shrinks_eps_when_the_half_fold_lacks_the_shape(monkeypatch):
    # at half the fold this base's stage-2 scan lacks the two-cycle shape;
    # one shrink by 0.6 gives it
    scanned = []
    inner = dynamics.detect_limit_cycles

    def counted(c, *radii):
        scanned.append(c)
        return inner(c, *radii)

    monkeypatch.setattr(dynamics, "detect_limit_cycles", counted)
    result = bautin_scenario(-2.2531572471748147, -0.9224533511859776, -0.014972105237481066)
    # stage 1, then two stage-2 scans: the half fold's and the accepted one
    assert scanned[::2] == [result.stage1_params, result.stage2_params] and len(scanned) == 3
    omega = math.sqrt(jacobian(result.stage1_params).determinant)
    half_fold = omega * result.stage1_focal.L1**2 / (8.0 * math.pi * abs(result.base_focal.L2))
    assert result.stage2_eps == 0.6 * half_fold == 8.343369408680072e-06
    radii = [round(cyc.radius, 4) for cyc in result.stage2_report.cycles]
    stabilities = [cyc.stability for cyc in result.stage2_report.cycles]
    assert radii == [0.2074, 1.0127]
    assert stabilities == [CycleStability.UNSTABLE, CycleStability.STABLE]


#: float.hex of (return_x, return_time) and the crossings, captured when
#: the return crossing came to be polished from the step's secant
_RETURN_GOLDEN = {
    "focus": (
        WEAK_FOCUS,
        {
            1e-8: ("0x1.33317acabe969p+0", "0x1.9703dda7914aap+2", 2),
            1e-9: ("0x1.33317acbd6033p+0", "0x1.9703dda7e36d3p+2", 2),
            1e-11: ("0x1.33317acbd6e93p+0", "0x1.9703dda7e3ab7p+2", 2),
        },
    ),
    "center": (
        CanonicalParams(0.5, 2.0, 2.0, 0.5, 1.0),
        {
            1e-8: ("0x1.333333319cf8ep+0", "0x1.a2ff34afb531fp+1", 2),
            1e-9: ("0x1.3333333331e5cp+0", "0x1.a2ff34afebec4p+1", 2),
            1e-11: ("0x1.3333333333316p+0", "0x1.a2ff34afebdb2p+1", 2),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_RETURN_GOLDEN))
def test_return_map_golden_bits(name):
    c, golden = _RETURN_GOLDEN[name]
    for rel_tol, (ret_x, ret_t, crossings) in golden.items():
        rec = poincare_return(c, 1.2, rel_tol)
        assert (rec.return_x.hex(), rec.return_time.hex(), rec.crossings) == (
            ret_x,
            ret_t,
            crossings,
        ), rel_tol


def _trajectory_digest(tr) -> str:
    """sha256 of the bytes of float64 arrays of the times and of the (x, y) rows."""
    raw = array("d", tr.times).tobytes() + array("d", [v for p in tr.points for v in p]).tobytes()
    return hashlib.sha256(raw).hexdigest()


def test_trajectory_golden_digest():
    tr = integrate(WEAK_FOCUS, (1.2, 1.0), t_max=10.0, rel_tol=1e-9)
    digest = _trajectory_digest(tr)
    assert digest == "cd30565cf4a4a10bc5a8af01f071d64842ea38ed881a5829aae25f7b2ddc00c9"
    assert (tr.n_accepted, tr.n_rejected) == (504, 0)


#: the stepper's cold paths, captured before its stages moved into the
#: stepping loop: (params, start, t_max, rel_tol, step_budget) -> (sha256,
#: accepted, rejected, termination)
_COLD_PATH_GOLDEN = {
    # two positivity-guard halvings at the start, then two error rejections
    "error-rejections-escape": (
        ((4.0, -3.0, -3.0, 4.0, 1.0), (2.5, 0.4), 20.0, 1e-9, None),
        ("86cac71acbd5e26f58249ace4bf30a8d869304247ba2f75472d1b3bd15cf10a1", 295, 4, "QuadrantEscape"),
    ),
    "step-budget": (
        ((0.0, 1.0, 1.0, 0.0, 1.0), (1.3, 1.0), 1000.0, 1e-9, 40),
        ("1dbcad0c95d1c45398e6653e452d25adec53c8ccce38ea5ef509b180bc4bd668", 40, 0, "StepBudget"),
    ),
    # any integer type, here one with __index__, binds the same way
    "step-budget-index": (
        ((0.0, 1.0, 1.0, 0.0, 1.0), (1.3, 1.0), 1000.0, 1e-9, np.int64(40)),
        ("1dbcad0c95d1c45398e6653e452d25adec53c8ccce38ea5ef509b180bc4bd668", 40, 0, "StepBudget"),
    ),
    # one mid-run stage leaves the quadrant; the halved step is accepted
    "guard-halving": (
        ((1.0, 2.0, 1.0, 1.0, 1.0), (6.0, 1.0), 20.0, 1e-3, None),
        ("dce6023adb86ee6681a315463621469a0125d5db0b20812a835c7c1918c151c0", 45, 1, "TimeLimit"),
    ),
}


@pytest.mark.parametrize("name", sorted(_COLD_PATH_GOLDEN))
def test_trajectory_cold_path_golden(name):
    (params, start, t_max, rel_tol, budget), golden = _COLD_PATH_GOLDEN[name]
    kwargs = {} if budget is None else {"step_budget": budget}
    tr = integrate(CanonicalParams(*params), start, t_max, rel_tol, **kwargs)
    got = (_trajectory_digest(tr), tr.n_accepted, tr.n_rejected, tr.termination.value)
    assert got == golden


def test_step_rejects_stage_overflow_without_raising():
    # from this start, stage 2's x-field is inf as the product of two
    # finite powers (about 1e195 * 1e200); the next stage's state turns
    # inf and the positivity guard rejects the step.  Every step fails so,
    # and 39 halvings take h from the cap (3.2e11 h_min) below h_min
    start = (1e-50, 1e100)
    tr = integrate(CanonicalParams(2.0, 2.0, 1.0, 1.0, 1.0), start, 1.0)
    assert (tr.n_accepted, tr.n_rejected) == (0, 39)
    assert tr.termination is TerminationReason.QUADRANT_ESCAPE
    assert tr.times == (0.0,) and tr.points == (start,)


@pytest.mark.parametrize("t_max", [math.nan, 0.0, -1.0])
def test_integrate_rejects_non_positive_t_max(t_max):
    with pytest.raises(ValueError, match="t_max"):
        integrate(WEAK_FOCUS, (1.2, 1.0), t_max)


def test_integrate_rejects_infinite_t_max():
    # a budget-limited run would otherwise record every step up to the budget
    with pytest.raises(ValueError, match="t_max"):
        integrate(WEAK_FOCUS, (1.2, 1.0), math.inf, step_budget=5)


@pytest.mark.parametrize("start", [(0.0, 1.0), (1.2, -1.0), (math.nan, 1.0)])
def test_integrate_rejects_non_positive_start(start):
    with pytest.raises(DomainError, match="not strictly positive"):
        integrate(WEAK_FOCUS, start, 1.0)


@pytest.mark.parametrize("step_budget", [0, -5])
def test_integrate_rejects_non_positive_step_budget(step_budget):
    with pytest.raises(ValueError, match="step_budget"):
        integrate(WEAK_FOCUS, (1.2, 1.0), 1.0, step_budget=step_budget)


@pytest.mark.parametrize("step_budget", [40.5, math.inf, 40.0], ids=["fractional", "inf", "integral-float"])
def test_integrate_rejects_non_integer_step_budget(step_budget):
    # the budget counts steps, so it is an integer (anything with __index__);
    # a float, even a whole one, is refused
    with pytest.raises(ValueError, match="step_budget must be an integer"):
        integrate(CanonicalParams(0.0, 1.0, 1.0, 0.0, 1.0), (1.3, 1.0), 1000.0, step_budget=step_budget)


@pytest.mark.parametrize("n_scan", [15.0, 15.5], ids=["integral-float", "fractional"])
def test_detect_limit_cycles_rejects_non_integer_n_scan(n_scan):
    # the scan counts radii, so n_scan is an integer (anything with
    # __index__), checked as integrate checks step_budget
    with pytest.raises(ValueError, match="n_scan must be an integer"):
        detect_limit_cycles(WEAK_FOCUS, 0.2, 1.4, n_scan)


@pytest.mark.parametrize(
    "r_min, r_max",
    [(0.1, math.inf), (0.0, 1.0), (0.5, 0.5), (math.nan, 1.0), (0.1, math.nan)],
    ids=["inf", "zero", "equal", "nan-min", "nan-max"],
)
def test_scan_needs_finite_ordered_radii(r_min, r_max):
    with pytest.raises(ValueError, match="r_min"):
        detect_limit_cycles(WEAK_FOCUS, r_min, r_max, 5)


#: the ranges of the seeded dynamics fuzz (tests/fuzz_dynamics.py); a3 = 0
#: and |a3| <= 1e-9 are branches of their own beside the wide range
_EXPONENT = st.floats(-100.0, 100.0)
_A3 = st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), _EXPONENT)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    _EXPONENT,
    _EXPONENT,
    _A3,
    _EXPONENT,
    st.floats(-4.0, 4.0).map(math.exp),
    st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
    st.sampled_from([1e-6, 1e-8, 1e-9]),
)
def test_return_map_and_scan_are_total(a1, b1, a3, b3, K, radius, rel_tol):
    c = CanonicalParams(a1, b1, a3, b3, K)
    try:
        assert isinstance(poincare_return(c, 1.0 + radius, rel_tol), ReturnRecord)
    except LotkaError:
        pass
    try:
        assert isinstance(detect_limit_cycles(c, radius, 2.0 * radius, 2), LimitCycleReport)
    except LotkaError:
        pass

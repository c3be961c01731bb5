"""Reversibility: swap symmetry of the field, directly and after transform."""

import math

import pytest

import helpers
from lotkacenter import (
    CanonicalParams,
    CaseMismatch,
    CenterCase,
    DomainError,
    integrate,
    match_table_cases,
    r1_residual,
    r2_residual,
    r2_transform,
    transformed_field_value,
)
from lotkacenter import symmetry


def test_transform_exponents_collapse_to_constants():
    # b1 = -2, b3 = 0 forces K = 1 and kills every exponent
    c = CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0)
    tf = r2_transform(c)
    assert (tf.e_u1, tf.e_u2, tf.e_v1, tf.e_v2) == (0.0, 0.0, 0.0, 0.0)
    assert tf.b1 == -2.0
    du, dv = transformed_field_value(tf, (2.0, 4.0))
    assert du == pytest.approx(1.0 - 4.0**-2.0, abs=1e-15)
    assert dv == pytest.approx(2.0**-2.0 - 1.0, abs=1e-15)


def test_transform_exponent_identity():
    c = CanonicalParams(1.0 / 3.0, -3.0, -1.0, 1.0, 1.0 / 3.0)
    tf = r2_transform(c)
    assert tf.e_u2 == pytest.approx(-2.0, abs=1e-12)
    assert tf.e_v2 == pytest.approx(-2.0, abs=1e-12)
    assert tf.e_u1 == pytest.approx(-1.0, abs=1e-12)
    assert tf.e_v1 == pytest.approx(-1.0, abs=1e-12)
    assert transformed_field_value(tf, (1.0, 1.0)) == (0.0, 0.0)


def test_transform_rejects_degenerate_denominator():
    with pytest.raises(CaseMismatch):
        r2_transform(CanonicalParams(1.0, -0.5, 1.0, 0.0, 1.0))


def test_transform_rejects_other_families():
    with pytest.raises(CaseMismatch):
        r2_transform(CanonicalParams(1.0, -2.0, -3.0, 1.0, 1.0))


def test_transform_accepts_every_matched_second_family_point():
    # K off the exact identity 1 - 1/K = 2 + b1 - b3 by far less than CLOSE_TOL:
    # the matcher calls these R2, so the transform takes them too
    pts = helpers.quadrant_points(16, 200)
    draws = helpers.center_row_draws(602, CenterCase.R2, 20)
    draws.append(CanonicalParams(1.0 / 3.0, -3.0, -1.0, 1.0, 1.0 / 3.0))
    for i, c0 in enumerate(draws):
        for rel in (-1e-10, 1e-10):
            c = CanonicalParams(c0.a1, c0.b1, c0.a3, c0.b3, c0.K * (1.0 + rel))
            assert CenterCase.R2 in match_table_cases(c), f"draw {i}"
            assert r2_residual(c, pts) <= 1e-8, f"draw {i}"


def test_transformed_field_rejects_boundary():
    tf = r2_transform(CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        transformed_field_value(tf, (0.0, 1.0))


def test_first_family_is_reversible():
    pts = helpers.quadrant_points(12, 200)
    for i, c in enumerate(helpers.center_row_draws(600, CenterCase.R1, 50)):
        assert r1_residual(c, pts) <= 1e-13, f"draw {i}"


def test_second_family_is_reversible_after_transform():
    pts = helpers.quadrant_points(13, 200)
    for i, c in enumerate(helpers.center_row_draws(601, CenterCase.R2, 50)):
        assert r2_residual(c, pts) <= 1e-12, f"draw {i}"


def test_generic_field_is_not_reversible():
    pts = helpers.quadrant_points(14, 200)
    assert r1_residual(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0), pts) > 0.1


def test_second_family_is_not_swap_symmetric_directly():
    pts = helpers.quadrant_points(15, 200)
    assert r1_residual(CanonicalParams(1.0 / 3.0, -3.0, -1.0, 1.0, 1.0 / 3.0), pts) > 0.05


def test_a_nan_point_residual_makes_the_residual_nan():
    # on this second-family center the transformed field at (0.25, 0.25)
    # is (-inf, inf), so the swap residual there is inf - inf
    K = 1.0 / 300.0
    c = CanonicalParams(K, -300.0, -1.0, 1.0, K)
    assert math.isnan(r2_residual(c, [(0.25, 0.25)]))
    assert math.isnan(r2_residual(c, [(1.2, 0.9), (0.25, 0.25), (1.1, 1.3)]))
    # a NaN in the second component counts as much as one in the first
    field = {(1.0, 2.0): (3.0, 0.0), (2.0, 1.0): (0.0, math.nan)}.__getitem__
    assert math.isnan(symmetry._swap_residual(field, [(1.0, 2.0)]))


def test_r1_residual_refuses_a_point_where_the_field_is_not_evaluable():
    # 4**250 * 3.9**300 overflows to inf without raising
    with pytest.raises(DomainError, match=r"field not evaluable at \(4\.0, 3\.9\)"):
        r1_residual(CanonicalParams(250.0, 300.0, 300.0, 250.0, 1.0), [(4.0, 3.9)])


def test_r2_residual_refuses_a_point_where_a_power_overflows():
    # on this second-family center 0.25**-599 overflows in du
    K = 1.0 / 600.0
    c = CanonicalParams(K, -600.0, -1.0, 1.0, K)
    with pytest.raises(DomainError, match=r"transformed field not evaluable at \(0\.25, 0\.25\)"):
        r2_residual(c, [(0.25, 0.25)])


def test_reversible_orbit_conjugacy():
    # if the flow carries p to q in time T, it carries R(q) to R(p)
    c = CanonicalParams(0.5, 2.0, 2.0, 0.5, 1.0)
    p = (1.3, 0.9)
    T = 3.0
    fwd = integrate(c, p, t_max=T, rel_tol=1e-11)
    qx, qy = fwd.points[-1]
    back = integrate(c, (qy, qx), t_max=T, rel_tol=1e-11)
    rx, ry = back.points[-1]
    assert math.hypot(rx - p[1], ry - p[0]) <= 1e-8

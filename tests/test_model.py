"""Parameter containers, linearization, and canonicalization."""

import math
import random
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from lotkacenter import (
    CanonicalParams,
    DomainError,
    EigenvalueKind,
    NonIsolatedEquilibrium,
    NoPositiveEquilibrium,
    Point,
    RawLotkaParams,
    canonicalize,
    jacobian,
    vector_field,
)


def test_point_rejects_nonpositive_coordinates():
    with pytest.raises(DomainError):
        Point(0.0, 1.0)
    with pytest.raises(DomainError):
        Point(1.0, -2.0)
    with pytest.raises(DomainError):
        Point(float("nan"), 1.0)


def test_point_rejects_infinite_coordinates():
    with pytest.raises(ValueError):
        Point(float("inf"), 1.0)


def test_raw_params_reject_nonpositive_rates():
    with pytest.raises(ValueError):
        RawLotkaParams(0.0, 1.0, 1.0, 1.0, 1, 0, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        RawLotkaParams(1.0, -1.0, 1.0, 1.0, 1, 0, 1, 1, 0, 1)


def test_canonical_params_reject_bad_k():
    with pytest.raises(ValueError):
        CanonicalParams(0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CanonicalParams(0.0, 1.0, 1.0, 0.0, -3.0)
    with pytest.raises(ValueError):
        CanonicalParams(float("nan"), 1.0, 1.0, 0.0, 1.0)


def _reals(positive: bool = False):
    """Finite reals as numpy scalars, ints and Fractions."""
    floats = st.floats(
        min_value=0.0 if positive else None,
        exclude_min=positive,
        allow_nan=False,
        allow_infinity=False,
    )
    return st.one_of(
        floats.map(np.float64),
        st.integers(min_value=1 if positive else -(2**64), max_value=2**64),
        floats.map(Fraction),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    st.lists(_reals(), min_size=4, max_size=4),
    _reals(positive=True),
    st.lists(_reals(positive=True), min_size=4, max_size=4),
    st.lists(_reals(), min_size=6, max_size=6),
    st.lists(_reals(positive=True), min_size=2, max_size=2),
)
def test_records_hold_builtin_floats(exponents, K, rates, raw_exponents, xy):
    for record, given_values in (
        (CanonicalParams(*exponents, K), [*exponents, K]),
        (RawLotkaParams(*rates, *raw_exponents), [*rates, *raw_exponents]),
        (Point(*xy), xy),
    ):
        held = [getattr(record, f.name) for f in fields(record)]
        assert all(type(v) is float for v in held)
        assert held == [float(v) for v in given_values]


@pytest.mark.parametrize("bad", [np.float64("nan"), np.float64("inf"), np.float64("-inf")])
def test_nonfinite_numpy_scalars_keep_their_messages(bad):
    with pytest.raises(ValueError, match=re.escape(f"b1 must be finite, got {bad!r}")):
        CanonicalParams(1.0, bad, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"beta2 must be finite, got {bad!r}")):
        RawLotkaParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, bad, 0.0, 0.0)
    if bad > 0:
        with pytest.raises(ValueError, match=re.escape(f"y must be finite, got {bad!r}")):
            Point(2.0, bad)


def test_checks_print_values_as_given():
    with pytest.raises(ValueError, match="K must be positive, got -1$"):
        CanonicalParams(0, 1, 1, 0, -1)
    with pytest.raises(ValueError, match=re.escape("rate k2 must be positive, got -1/2")):
        RawLotkaParams(1, Fraction(-1, 2), 1, 1, 1, 0, 1, 1, 0, 1)
    with pytest.raises(TypeError):
        CanonicalParams("1.0", 1.0, 1.0, 1.0, 1.0)


def test_vector_field_values():
    c = CanonicalParams(0.0, 1.0, 1.0, 0.0, 4.0)
    assert vector_field(c, (2.0, 3.0)) == (2.0, -4.0)
    c = CanonicalParams(1.0, -1.0, 0.0, 0.0, 2.5)
    assert vector_field(c, (4.0, 2.0)) == (1.0, 0.0)


def test_vector_field_rejects_boundary_points():
    c = CanonicalParams(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        vector_field(c, (0.0, 1.0))
    with pytest.raises(DomainError):
        vector_field(c, (1.0, -1.0))


@pytest.mark.parametrize(
    "c, pt",
    [
        (CanonicalParams(400.0, -1000.0, -1000.0, 400.0, 1.0), (10.0, 1.0)),
        (CanonicalParams(250.0, 300.0, 300.0, 250.0, 1.0), (4.0, 3.9)),
        (CanonicalParams(-1.0, 1.0, -1.0, 1.0, 1.0), (math.inf, 1.0)),
    ],
    ids=["power-overflows", "component-infinite", "infinite-coordinate"],
)
def test_vector_field_rejects_points_where_it_is_not_evaluable(c, pt):
    # a power that overflows, a product of finite powers that overflows
    # without raising, and a coordinate that is not finite (where both
    # components would be finite: inf**-1 is 0)
    with pytest.raises(DomainError, match=re.escape(f"field not evaluable at {pt}")):
        vector_field(c, pt)


def test_equilibrium_is_exact():
    for i, c in enumerate(helpers.elliptic_draws(11, 40)):
        assert vector_field(c, (1.0, 1.0)) == (0.0, 0.0), f"draw {i}"
    assert vector_field(CanonicalParams(2.7, -3.1, 0.4, 9.9, 0.03), Point(1.0, 1.0)) == (0.0, 0.0)


def test_jacobian_purely_imaginary_example():
    js = jacobian(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0))
    assert js.trace == 0.0
    assert js.determinant == 1.0
    assert js.omega == 1.0
    assert js.eigenvalue_kind is EigenvalueKind.PURELY_IMAGINARY


def test_jacobian_classical_volume_preserving_family():
    js = jacobian(CanonicalParams(0.0, 1.0, 1.0, 0.0, 3.0))
    assert js.trace == 0.0
    assert js.determinant == 3.0
    assert js.eigenvalue_kind is EigenvalueKind.PURELY_IMAGINARY


def test_jacobian_zero_eigenvalue():
    js = jacobian(CanonicalParams(1.0, 1.0, 1.0, 1.0, 1.0))
    assert js.determinant == 0.0
    assert js.eigenvalue_kind is EigenvalueKind.ZERO_EIGENVALUE


def test_jacobian_saddle():
    js = jacobian(CanonicalParams(2.0, 1.0, 1.0, 1.0, 1.0))
    assert js.determinant == -1.0
    assert js.eigenvalue_kind is EigenvalueKind.NOT_ELLIPTIC
    assert js.omega == 0.0


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-6
    for i in range(60):
        vals = rng.uniform(-10.0, 10.0, 4)
        c = CanonicalParams(*(float(v) for v in vals), float(np.exp(rng.uniform(-1, 1))))
        js = jacobian(c)
        expected = np.array([[c.a1, c.b1], [-c.K * c.a3, -c.K * c.b3]])
        fd = np.empty((2, 2))
        for j, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            fp = vector_field(c, (1.0 + dx, 1.0 + dy))
            fm = vector_field(c, (1.0 - dx, 1.0 - dy))
            fd[0, j] = (fp[0] - fm[0]) / (2 * h)
            fd[1, j] = (fp[1] - fm[1]) / (2 * h)
        scale = np.maximum(1.0, np.abs(expected))
        assert np.all(np.abs(fd - expected) <= 1e-6 * scale), f"draw {i}"
        assert js.trace == c.a1 - c.K * c.b3
        assert js.determinant == c.K * (c.a3 * c.b1 - c.a1 * c.b3)


def test_canonicalize_classical_system():
    raw = RawLotkaParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    c, eq = canonicalize(raw)
    assert (eq.x, eq.y) == (1.0, 1.0)
    assert c == CanonicalParams(0.0, -1.0, -1.0, 0.0, 1.0)


def test_canonicalize_decoupled_rates():
    raw = RawLotkaParams(2.0, 1.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    c, eq = canonicalize(raw)
    assert eq.x == pytest.approx(0.5, abs=1e-15)
    assert eq.y == pytest.approx(0.5, abs=1e-15)
    assert (c.a1, c.b1, c.a3, c.b3) == (1.0, 0.0, 0.0, 1.0)
    assert c.K == pytest.approx(1.0, abs=1e-15)


def test_canonicalize_singular_inconsistent():
    raw = RawLotkaParams(1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(NoPositiveEquilibrium):
        canonicalize(raw)


def test_canonicalize_singular_consistent():
    raw = RawLotkaParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(NonIsolatedEquilibrium):
        canonicalize(raw)


def _singular_raw_draws(seed, n):
    """Raw systems whose exponent matrix is exactly singular in floats: rank
    one (proportional rows, or a zero first row) or zero, with rates whose
    logs sit on the matrix's column line or off it by 1e-12 to 1."""
    rng = random.Random(seed)
    offsets = (0.0, 1e-12, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-2, 1.0)

    def dyadic():
        return rng.randint(-40, 40) / 8.0

    for i in range(n):
        lam = rng.randint(-8, 8) / 4.0
        if i % 4 < 2:
            a1, b1 = dyadic(), dyadic()
            a3, b3 = lam * a1, lam * b1
        elif i % 4 == 2:
            a1 = b1 = 0.0
            a3, b3 = dyadic(), dyadic()
        else:
            a1 = b1 = a3 = b3 = 0.0
        alpha2, beta2 = dyadic(), dyadic()
        k1, k2, k4 = (math.exp(rng.uniform(-2.0, 2.0)) for _ in range(3))
        off = rng.choice(offsets) * rng.choice((-1.0, 1.0))
        if i % 4 < 2:
            k3 = k4 * math.exp(lam * math.log(k2 / k1) + off)
        else:
            k2 = k1 * math.exp(off)
            k3 = k4 * math.exp(rng.choice(offsets) if i % 4 == 3 else rng.uniform(-2.0, 2.0))
        yield RawLotkaParams(
            k1, k2, k3, k4, a1 + alpha2, b1 + beta2, alpha2, beta2, a3 + alpha2, b3 + beta2
        )


def test_canonicalize_singular_decision_matches_least_squares():
    # oracle: numpy's least-squares residual against 1e-9 * (1 + |r|)
    decided = set()
    for i, raw in enumerate(_singular_raw_draws(31, 400)):
        a1, b1, a3, b3 = raw.exponent_differences()
        assert a1 * b3 - b1 * a3 == 0.0
        mat = np.array([[a1, b1], [a3, b3]])
        rhs = np.array([math.log(raw.k2 / raw.k1), math.log(raw.k3 / raw.k4)])
        sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        consistent = np.linalg.norm(mat @ sol - rhs) <= 1e-9 * (1.0 + np.linalg.norm(rhs))
        expected = NonIsolatedEquilibrium if consistent else NoPositiveEquilibrium
        with pytest.raises((NonIsolatedEquilibrium, NoPositiveEquilibrium)) as err:
            canonicalize(raw)
        assert err.type is expected, f"draw {i}: {raw}"
        decided.add((i % 4, expected))
    # every matrix shape meets both decisions
    assert len(decided) == 8


def _raw_field(raw, x, y):
    m2 = x**raw.alpha2 * y**raw.beta2
    fx = raw.k1 * x**raw.alpha1 * y**raw.beta1 - raw.k2 * m2
    fy = raw.k3 * m2 - raw.k4 * x**raw.alpha3 * y**raw.beta3
    return fx, fy


def test_canonicalize_zeroes_raw_field():
    for i, (raw, _) in enumerate(helpers.raw_draws(5, 200)):
        c, eq = canonicalize(raw)
        fx, fy = _raw_field(raw, eq.x, eq.y)
        scale = max(1.0, raw.k1 * eq.x**raw.alpha1 * eq.y**raw.beta1)
        assert abs(fx) <= 1e-12 * scale, f"draw {i}"
        assert abs(fy) <= 1e-12 * scale, f"draw {i}"
        assert (c.a1, c.b1, c.a3, c.b3) == raw.exponent_differences()
        assert c.K > 0.0


def test_exponent_differences():
    raw = RawLotkaParams(1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 1.5, 1.0, -0.5, 2.0)
    assert raw.exponent_differences() == (0.5, 2.0, -2.0, 1.0)


def test_trace_and_omega_consistency():
    for i, c in enumerate(helpers.elliptic_draws(3, 60)):
        js = jacobian(c)
        assert abs(js.trace) <= 1e-12 * (1.0 + abs(c.a1) + c.K * abs(c.b3)), f"draw {i}"
        assert js.determinant > 0.0, f"draw {i}"
        assert js.omega == pytest.approx(math.sqrt(js.determinant), rel=1e-15), f"draw {i}"
        assert js.eigenvalue_kind is EigenvalueKind.PURELY_IMAGINARY, f"draw {i}"

"""Parameter forms and basic local data for planar power-law kinetics.

The canonical system studied throughout the package is

    dx/dt = x**a1 * y**b1 - 1
    dy/dt = K * (1 - x**a3 * y**b3)

on the open positive quadrant, with K > 0 and equilibrium (1, 1).
Powers of positive reals are principal-branch throughout.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple

from .errors import (
    DomainError,
    NonIsolatedEquilibrium,
    NoPositiveEquilibrium,
    PreconditionViolated,
)

__all__ = [
    "CLOSE_TOL",
    "CanonicalParams",
    "EigenvalueKind",
    "JacobianSummary",
    "Point",
    "RawLotkaParams",
    "canonicalize",
    "close",
    "jacobian",
    "vector_field",
]


#: tolerance of ``close``, shared by the family, branch and transform tests
CLOSE_TOL = 1e-9


def close(u: float, v: float) -> bool:
    """Relative equality: |u - v| <= CLOSE_TOL * (1 + |u| + |v|)."""
    return abs(u - v) <= CLOSE_TOL * (1.0 + abs(u) + abs(v))


def _hold_finite_floats(record: object, names: tuple[str, ...]) -> None:
    """Check that the named fields of a frozen record are finite, in
    order, and hold each as a built-in float, so no numpy scalar, int or
    Fraction reaches the arithmetic on it.  A message prints the value
    as it was given."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if type(value) is not float:
            object.__setattr__(record, name, float(value))


@dataclass(frozen=True)
class Point:
    """A point in the open positive quadrant, held as built-in floats."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _positive_xy(self)
        _hold_finite_floats(self, ("x", "y"))


@dataclass(frozen=True)
class RawLotkaParams:
    """Rate constants and exponents of the four-term kinetic form.

    dx/dt = k1 x**alpha1 y**beta1 - k2 x**alpha2 y**beta2
    dy/dt = k3 x**alpha2 y**beta2 - k4 x**alpha3 y**beta3

    The fields are held as built-in floats, whatever real numbers are
    passed in.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    alpha3: float
    beta3: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3", "k4"):
            value = getattr(self, name)
            _hold_finite_floats(self, (name,))
            if value <= 0.0:
                raise ValueError(f"rate {name} must be positive, got {value}")
        _hold_finite_floats(self, ("alpha1", "beta1", "alpha2", "beta2", "alpha3", "beta3"))

    def exponent_differences(self) -> tuple[float, float, float, float]:
        """(a1, b1, a3, b3) of the orbitally equivalent reduced form."""
        return (
            self.alpha1 - self.alpha2,
            self.beta1 - self.beta2,
            self.alpha3 - self.alpha2,
            self.beta3 - self.beta2,
        )


@dataclass(frozen=True)
class CanonicalParams:
    """Exponents and time-scale ratio of the canonical system.

    The fields are built-in floats whatever real numbers are passed in
    (numpy scalars, ints, Fractions), so the stepper, the focal values
    and the classifier compute on built-in floats and return them.
    """

    a1: float
    b1: float
    a3: float
    b3: float
    K: float

    def __post_init__(self) -> None:
        K = self.K  # as given, for the message
        _hold_finite_floats(self, ("a1", "b1", "a3", "b3", "K"))
        if K <= 0.0:
            raise ValueError(f"K must be positive, got {K}")


class EigenvalueKind(Enum):
    PURELY_IMAGINARY = "PurelyImaginary"
    ZERO_EIGENVALUE = "ZeroEigenvalue"
    NOT_ELLIPTIC = "NotElliptic"


# EnumType.__getattr__ makes each EigenvalueKind.X a slow lookup on Python 3.11
_PURELY_IMAGINARY, _ZERO_EIGENVALUE, _NOT_ELLIPTIC = EigenvalueKind

# the hot path builds its records as _new_record(Record, (field, ...)): the
# __new__ that NamedTuple generates is a Python function, 305-338 ns a record
# on Python 3.11 against 188-190 ns for tuple.__new__, which checks no field
# count, so each call passes every field in order
_new_record = tuple.__new__


class JacobianSummary(NamedTuple):
    """Linearization data at (1, 1); ``omega`` is sqrt(det) if det > 0, else 0."""

    trace: float
    determinant: float
    omega: float
    eigenvalue_kind: EigenvalueKind


def _positive_xy(pt: Point | tuple[float, float]) -> tuple[float, float]:
    """The coordinates of a Point or pair, which must be strictly positive."""
    x, y = (pt.x, pt.y) if isinstance(pt, Point) else pt
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"point ({x}, {y}) is not strictly positive")
    return x, y


def _evaluate_at(
    what: str, fn: Callable[[Any, float, float], Any], data: Any, pt: Point | tuple[float, float]
) -> Any:
    """``fn(data, x, y)`` at the coordinates of a Point or pair.

    Raises DomainError unless both coordinates are positive and finite
    and no power in ``fn`` overflows; the message names ``what``.  A value
    that is not finite at such a point is returned as it is.  This is the
    one quadrant-and-overflow rule of every pointwise evaluator: the field,
    a first integral and its gradient, and the transformed field.
    """
    x, y = _positive_xy(pt)
    if x < math.inf and y < math.inf:
        try:
            return fn(data, x, y)
        except OverflowError:
            pass
    raise DomainError(f"{what} not evaluable at ({x}, {y})")


def _field_xy(c: CanonicalParams, x: float, y: float) -> tuple[float, float]:
    """The field's components at (x, y).  OverflowError also where a
    component is not finite: a product of two finite powers can overflow
    to inf without raising."""
    fx = x**c.a1 * y**c.b1 - 1.0
    fy = c.K * (1.0 - x**c.a3 * y**c.b3)
    if math.isfinite(fx) and math.isfinite(fy):
        return fx, fy
    raise OverflowError("field component is not finite")


def vector_field(c: CanonicalParams, pt: Point | tuple[float, float]) -> tuple[float, float]:
    """Evaluate the canonical field at a point of the open quadrant.

    The field is evaluable where both coordinates are positive and
    finite, no power overflows and both components are finite; anywhere
    else this raises DomainError.  It is the one test of that rule: the
    return map and the stepper's start apply it through this function,
    and only the stepper's unrolled stages repeat it inline.
    """
    return _evaluate_at("field", _field_xy, c, pt)


def jacobian(c: CanonicalParams) -> JacobianSummary:
    """Linearization summary at (1, 1), and the one test of ellipticity.

    The Jacobian there is [[a1, b1], [-K*a3, -K*b3]], so
    trace = a1 - K*b3 and det = K*(a3*b1 - a1*b3).  The kind is
    ZERO_EIGENVALUE when |det| <= 1e-12 * max(1, |a1*K*b3| + |b1*K*a3|),
    PURELY_IMAGINARY when otherwise det > 0 and
    |trace| <= 1e-12 * (1 + |a1| + K*|b3|), and NOT_ELLIPTIC in every other
    case.  Raises PreconditionViolated when the trace, the determinant or
    either threshold is not finite.
    """
    a1, b1, a3, b3, K = c.a1, c.b1, c.a3, c.b3, c.K
    tr = a1 - K * b3
    det = K * (a3 * b1 - a1 * b3)
    tr_tol = 1e-12 * (1.0 + abs(a1) + K * abs(b3))
    det_mag = abs(a1 * K * b3) + abs(b1 * K * a3)
    # max(1, det_mag), spelled as dynamics._drive does: the same float, NaN too
    det_tol = 1e-12 * (det_mag if det_mag > 1.0 else 1.0)
    finite = math.isfinite
    if not (finite(tr) and finite(det) and finite(tr_tol) and finite(det_tol)):
        raise PreconditionViolated(
            f"linearization of {c} is not finite: trace {tr}, determinant {det}"
        )
    omega = math.sqrt(det) if det > 0.0 else 0.0

    if abs(det) <= det_tol:
        kind = _ZERO_EIGENVALUE
    elif det > 0.0 and abs(tr) <= tr_tol:
        kind = _PURELY_IMAGINARY
    else:
        kind = _NOT_ELLIPTIC
    return _new_record(JacobianSummary, (tr, det, omega, kind))


def canonicalize(raw: RawLotkaParams) -> tuple[CanonicalParams, Point]:
    """Reduce raw kinetics to the canonical form.

    The positive equilibrium solves two equations that are linear in
    (ln x, ln y):

        a1*ln x + b1*ln y = ln(k2/k1)
        a3*ln x + b3*ln y = ln(k3/k4)

    Scaling coordinates by the equilibrium and time by k2/x* yields the
    canonical system with the same exponents and K = (k3/k2)*(x*/y*).

    Raises NoPositiveEquilibrium when the log-linear system is singular
    and inconsistent, NonIsolatedEquilibrium when singular but consistent.
    """
    a1, b1, a3, b3 = raw.exponent_differences()
    r1 = math.log(raw.k2 / raw.k1)
    r2 = math.log(raw.k3 / raw.k4)
    det = a1 * b3 - b1 * a3
    scale = max(1.0, abs(a1 * b3) + abs(b1 * a3))
    if abs(det) <= 1e-12 * scale:
        # the least-squares residual: the distance from r to the line of A's
        # columns, by the two other 2x2 minors of [A | r] (|r| when A = 0)
        size, rhs = math.hypot(a1, b1, a3, b3), math.hypot(r1, r2)
        off = math.hypot(a1 * r2 - a3 * r1, b1 * r2 - b3 * r1)
        if (off / size if size else rhs) <= 1e-9 * (1.0 + rhs):
            raise NonIsolatedEquilibrium(
                "balance equations are degenerate but consistent; "
                "equilibria form a continuum"
            )
        raise NoPositiveEquilibrium("balance equations have no positive solution")
    lx = (r1 * b3 - b1 * r2) / det
    ly = (a1 * r2 - r1 * a3) / det
    # iterative refinement; one pass brings the balance residual to eps-level
    for _ in range(2):
        d1 = r1 - (a1 * lx + b1 * ly)
        d2 = r2 - (a3 * lx + b3 * ly)
        lx += (d1 * b3 - b1 * d2) / det
        ly += (a1 * d2 - d1 * a3) / det
    x_star = math.exp(lx)
    y_star = math.exp(ly)
    K = (raw.k3 / raw.k2) * (x_star / y_star)
    return CanonicalParams(a1=a1, b1=b1, a3=a3, b3=b3, K=K), Point(x_star, y_star)

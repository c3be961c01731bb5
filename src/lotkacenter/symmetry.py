"""Time-reversal structure behind the two reversible center families.

A field F is reversible under the swap R(x, y) = (y, x) when
F(R(p)) = -R(F(p)); orbits are then mirror images of their own time
reversals and an elliptic equilibrium on the symmetry axis is a center.
One family has this property in the original variables.  The other
acquires it after the change u = x**K, v = 1/y together with an orbital
rescaling, which is what ``r2_transform`` encodes.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from .classifier import CASE_CONSTRAINTS, CenterCase
from .errors import CaseMismatch
from .model import CanonicalParams, Point, _evaluate_at, _positive_xy, close, vector_field

__all__ = [
    "TransformedField",
    "r1_residual",
    "r2_residual",
    "r2_transform",
    "transformed_field_value",
]


def _swap_residual(field, pts: list[Point] | list[tuple[float, float]]) -> float:
    """Largest sup-norm of field(R p) + R(field(p)) over the points, each
    scaled by max(1, |field(p)|); NaN when a point's residual is NaN."""
    worst = 0.0
    for pt in pts:
        x, y = _positive_xy(pt)
        g1, g2 = field((x, y))
        f1, f2 = field((y, x))
        scale = max(1.0, abs(g1), abs(g2))
        for r in (abs(f1 + g2) / scale, abs(f2 + g1) / scale):
            if math.isnan(r):
                return r
            worst = max(worst, r)
    return worst


def r1_residual(
    c: CanonicalParams, pts: list[Point] | list[tuple[float, float]]
) -> float:
    """Largest scaled reversibility defect of the canonical field itself."""
    return _swap_residual(partial(vector_field, c), pts)


class TransformedField(NamedTuple):
    """Exponent data of the rescaled field in u = x**K, v = 1/y.

    du/dtau = u**e_u1 - u**e_u2 * v**b1
    dv/dtau = -v**e_v1 + u**b1 * v**e_v2

    with e_u1 = 1 - 1/K + b3, e_u2 = 1 - 1/K, e_v1 = 2 + b1 and
    e_v2 = 2 + b1 - b3.  The identity 1 - 1/K = 2 + b1 - b3 pins the
    time-scale ratio and makes the field reversible under (u, v) swap;
    ``r2_transform`` checks it as K = 1/(b3 - b1 - 1).
    """

    e_u1: float
    e_u2: float
    e_v1: float
    e_v2: float
    b1: float


def r2_transform(c: CanonicalParams) -> TransformedField:
    """Build the reversible form for the second reversible family.

    Requires the family's ``holds`` in ``CASE_CONSTRAINTS``, not ellipticity:
    a1 = K*b3, a3 = K*b1 and K = 1/(b3 - b1 - 1) within ``CLOSE_TOL``, with
    b3 - b1 - 1 > 0.  Raises CaseMismatch otherwise, a non-positive
    denominator included.
    """
    if not CASE_CONSTRAINTS[CenterCase.R2].holds(close, c.a1, c.b1, c.a3, c.b3, c.K):
        raise CaseMismatch(f"{c} does not satisfy the second reversible family")
    return TransformedField(
        e_u1=1.0 - 1.0 / c.K + c.b3,
        e_u2=1.0 - 1.0 / c.K,
        e_v1=2.0 + c.b1,
        e_v2=2.0 + c.b1 - c.b3,
        b1=c.b1,
    )


def _transformed_uv(tfield: TransformedField, u: float, v: float) -> tuple[float, float]:
    du = u**tfield.e_u1 - u**tfield.e_u2 * v**tfield.b1
    dv = -(v**tfield.e_v1) + u**tfield.b1 * v**tfield.e_v2
    return du, dv


def transformed_field_value(
    tfield: TransformedField, pt: Point | tuple[float, float]
) -> tuple[float, float]:
    """The transformed field at (u, v), under ``conserved.evaluate``'s
    rule: DomainError unless both coordinates are positive and finite and
    no power overflows; components that are not finite are returned."""
    return _evaluate_at("transformed field", _transformed_uv, tfield, pt)


def r2_residual(
    c: CanonicalParams, pts: list[Point] | list[tuple[float, float]]
) -> float:
    """Largest scaled reversibility defect of the transformed field."""
    return _swap_residual(partial(transformed_field_value, r2_transform(c)), pts)

"""Closed-form first integrals for each center family.

Each integral is a short sum of elementary terms (powers, logs, mixed
monomials, and powered sums) with an explicit integrating factor.  When
a denominator exponent degenerates to zero the corresponding power term
x**e / e is replaced by its log limit, keeping the family continuous in
the parameters modulo an additive constant.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .classifier import CenterCase, match_table_cases
from .errors import CaseMismatch, NoKnownIntegral
from .model import CanonicalParams, Point, _evaluate_at, jacobian, vector_field

__all__ = [
    "FirstIntegral",
    "IntegralCase",
    "IntegratingFactor",
    "Term",
    "TermKind",
    "build_integral",
    "evaluate",
    "gradient",
    "invariance_residual",
]

#: absolute threshold under which a denominator exponent counts as zero
LOG_SWITCH_TOL = 1e-12


class TermKind(Enum):
    POWER_X = "x**e"
    POWER_Y = "y**e"
    LOG_X = "ln x"
    LOG_Y = "ln y"
    MIXED_POWER = "x**p * y**q"
    SUM_RECIP_POWER = "(1/x + 1/y)**e"
    SUM_POWER = "(x + y)**e"


# EnumType.__getattr__ makes each TermKind.X a slow lookup on Python 3.11
_POWER_X, _POWER_Y, _LOG_X, _LOG_Y, _MIXED_POWER, _SUM_RECIP_POWER, _SUM_POWER = TermKind


class Term(NamedTuple):
    coeff: float
    kind: TermKind
    x_exp: float = 0.0
    y_exp: float = 0.0


class IntegratingFactor(NamedTuple):
    """Either x**a * y**b or (x + y)**e (with a carrying e, b unused)."""

    kind: TermKind
    x_exp: float = 0.0
    y_exp: float = 0.0


class IntegralCase(Enum):
    """The one integral that no ``CenterCase`` names: the shared
    subfamily of the two reversible families."""

    R1_CAP_R2 = "R1capR2"


class FirstIntegral(NamedTuple):
    case: CenterCase | IntegralCase
    terms: tuple[Term, ...]
    factor: IntegratingFactor
    params: CanonicalParams
    level0: float  # value at the equilibrium (1, 1)


def _term_value(t: Term, x: float, y: float) -> float:
    if t.kind is _POWER_X:
        return t.coeff * x**t.x_exp
    if t.kind is _POWER_Y:
        return t.coeff * y**t.y_exp
    if t.kind is _LOG_X:
        return t.coeff * math.log(x)
    if t.kind is _LOG_Y:
        return t.coeff * math.log(y)
    if t.kind is _MIXED_POWER:
        return t.coeff * x**t.x_exp * y**t.y_exp
    if t.kind is _SUM_RECIP_POWER:
        return t.coeff * (1.0 / x + 1.0 / y) ** t.x_exp
    return t.coeff * (x + y) ** t.x_exp


def _term_gradient(t: Term, x: float, y: float) -> tuple[float, float]:
    if t.kind is _POWER_X:
        return t.coeff * t.x_exp * x ** (t.x_exp - 1.0), 0.0
    if t.kind is _POWER_Y:
        return 0.0, t.coeff * t.y_exp * y ** (t.y_exp - 1.0)
    if t.kind is _LOG_X:
        return t.coeff / x, 0.0
    if t.kind is _LOG_Y:
        return 0.0, t.coeff / y
    if t.kind is _MIXED_POWER:
        base = t.coeff * x**t.x_exp * y**t.y_exp
        return base * t.x_exp / x, base * t.y_exp / y
    if t.kind is _SUM_RECIP_POWER:
        shell = t.coeff * t.x_exp * (1.0 / x + 1.0 / y) ** (t.x_exp - 1.0)
        return -shell / (x * x), -shell / (y * y)
    shell = t.coeff * t.x_exp * (x + y) ** (t.x_exp - 1.0)
    return shell, shell


def _power_or_log_x(coeff_over_exp_num: float, exponent: float) -> Term:
    """coeff_over_exp_num * (x**exponent / exponent), log form at zero."""
    if abs(exponent) <= LOG_SWITCH_TOL:
        return Term(coeff=coeff_over_exp_num, kind=TermKind.LOG_X)
    return Term(coeff=coeff_over_exp_num / exponent, kind=TermKind.POWER_X, x_exp=exponent)


def _power_or_log_y(coeff_over_exp_num: float, exponent: float) -> Term:
    if abs(exponent) <= LOG_SWITCH_TOL:
        return Term(coeff=coeff_over_exp_num, kind=TermKind.LOG_Y)
    return Term(coeff=coeff_over_exp_num / exponent, kind=TermKind.POWER_Y, y_exp=exponent)


#: requests that resolve to the shared subfamily when the matcher lists
#: both reversible families for ``c``
_R_CASES = (CenterCase.R1, CenterCase.R2, IntegralCase.R1_CAP_R2)


def build_integral(case: CenterCase | IntegralCase, c: CanonicalParams) -> FirstIntegral:
    """Construct the conserved quantity for ``c`` in the given family.

    Raises CaseMismatch when ``c`` violates the family constraints or has
    det <= 0, and NoKnownIntegral for the reversible families away from
    their shared subfamily, where no closed form is on record.
    """
    a1, b1, a3, b3, K = c.a1, c.b1, c.a3, c.b3, c.K
    matched = match_table_cases(c)
    if matched and not jacobian(c).omega:
        matched = frozenset()

    if case in _R_CASES and {CenterCase.R1, CenterCase.R2} <= matched:
        case = IntegralCase.R1_CAP_R2
    elif case is IntegralCase.R1_CAP_R2:
        raise CaseMismatch(
            f"{c} is not in the shared subfamily a1 = b3 = b1 + 2, a3 = b1, K = 1"
        )
    elif case not in matched:
        raise CaseMismatch(f"{c} does not satisfy the case {case.value} constraints")
    elif case in _R_CASES:
        raise NoKnownIntegral(
            f"no closed-form integral recorded for family {case.value} "
            "outside the shared subfamily a1 = b3 = b1 + 2, a3 = b1, K = 1"
        )

    if case is CenterCase.I:
        terms = (
            Term(1.0, TermKind.POWER_X, x_exp=1.0),
            _power_or_log_x(-1.0, a3 + 1.0),
            Term(1.0 / K, TermKind.POWER_Y, y_exp=1.0),
            _power_or_log_y(-1.0 / K, b1 + 1.0),
        )
        factor = IntegratingFactor(TermKind.MIXED_POWER, 0.0, 0.0)
    elif case is CenterCase.II:
        terms = (
            Term(a1, TermKind.POWER_X, x_exp=1.0),
            Term(b3, TermKind.POWER_Y, y_exp=1.0),
            Term(-1.0, TermKind.MIXED_POWER, x_exp=a1, y_exp=b3),
        )
        factor = IntegratingFactor(TermKind.MIXED_POWER, 0.0, 0.0)
    elif case is CenterCase.III:
        terms = (
            _power_or_log_x(a1, 1.0 - a1),
            _power_or_log_y(-1.0, b1 + 1.0),
            Term(1.0, TermKind.MIXED_POWER, x_exp=-a1, y_exp=1.0),
        )
        factor = IntegratingFactor(TermKind.MIXED_POWER, -a1, 0.0)
    elif case is CenterCase.IV:
        terms = (
            _power_or_log_x(-1.0, a3 + 1.0),
            _power_or_log_y(b3, 1.0 - b3),
            Term(1.0, TermKind.MIXED_POWER, x_exp=1.0, y_exp=-b3),
        )
        factor = IntegratingFactor(TermKind.MIXED_POWER, 0.0, -b3)
    else:  # R1_CAP_R2
        e = -(b1 + 1.0)
        terms = (
            Term(1.0, TermKind.SUM_RECIP_POWER, x_exp=e),
            Term(1.0, TermKind.SUM_POWER, x_exp=e),
        )
        factor = IntegratingFactor(TermKind.SUM_POWER, e - 1.0)

    level0 = sum(_term_value(t, 1.0, 1.0) for t in terms)
    return FirstIntegral(case=case, terms=terms, factor=factor, params=c, level0=level0)


def _value(terms: tuple[Term, ...], x: float, y: float) -> float:
    return sum(_term_value(t, x, y) for t in terms)


def _gradient(terms: tuple[Term, ...], x: float, y: float) -> tuple[float, float]:
    gx = 0.0
    gy = 0.0
    for t in terms:
        tx, ty = _term_gradient(t, x, y)
        gx += tx
        gy += ty
    return gx, gy


def evaluate(fi: FirstIntegral, pt: Point | tuple[float, float]) -> float:
    """V at a point.  Raises DomainError unless both coordinates are
    positive and finite and no power overflows; a value that is not finite
    at such a point is returned as it is."""
    return _evaluate_at("first integral", _value, fi.terms, pt)


def gradient(fi: FirstIntegral, pt: Point | tuple[float, float]) -> tuple[float, float]:
    """grad V at a point, under ``evaluate``'s rule."""
    return _evaluate_at("first integral gradient", _gradient, fi.terms, pt)


def invariance_residual(
    fi: FirstIntegral,
    c: CanonicalParams,
    pts: list[Point] | list[tuple[float, float]],
) -> float:
    """Largest scaled |grad V . F| over the points.

    Each point is scaled by the magnitude of the two directional terms
    before cancellation, so the result is comparable to 1e-10 regardless
    of how large the monomials grow.  A point whose residual is NaN makes
    the result NaN.
    """
    worst = 0.0
    for pt in pts:
        gx, gy = gradient(fi, pt)
        fx, fy = vector_field(c, pt)
        scale = max(1.0, abs(gx * fx) + abs(gy * fy))
        r = abs(gx * fx + gy * fy) / scale
        if math.isnan(r):
            return r
        worst = max(worst, r)
    return worst

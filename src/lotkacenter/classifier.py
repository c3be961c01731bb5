"""Six-case center classification of the canonical system.

A trace-free elliptic equilibrium is a center exactly when the
parameters land on one of six algebraic families.  ``CASE_CONSTRAINTS``
below holds each family's equalities and guards, which the matcher, the
R2 transform and the CLI witness read; the det > 0 that closes each is
``model.jacobian``'s.  Once L1 vanishes, a family match alone decides
Center, and the focal values (L2, then L1) only sign a focus.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .errors import PreconditionViolated
from .focal import FocalValues, closed_form_focal
from .model import (
    CLOSE_TOL, _PURELY_IMAGINARY, _ZERO_EIGENVALUE, CanonicalParams, _new_record, close, jacobian
)

__all__ = [
    "CASE_CONSTRAINTS",
    "CaseConstraints",
    "CenterCase",
    "CenterClassification",
    "Verdict",
    "classify",
    "match_table_cases",
]


class CenterCase(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    R1 = "R1"
    R2 = "R2"


class Verdict(Enum):
    CENTER = "Center"
    FOCUS_STABLE = "FocusStable"
    FOCUS_UNSTABLE = "FocusUnstable"
    NOT_ELLIPTIC = "NotElliptic"
    DEGENERATE_DET_ZERO = "DegenerateDetZero"


# EnumType.__getattr__ makes each Verdict.X a slow lookup on Python 3.11
_CENTER, _FOCUS_STABLE, _FOCUS_UNSTABLE, _NOT_ELLIPTIC, _DEGENERATE_DET_ZERO = Verdict
#: the cases of every verdict but Center
_NO_CASES = frozenset()


class CenterClassification(NamedTuple):
    """``cases`` holds the matched families of a Center and is empty for
    every other verdict; ``focal`` is None unless (1, 1) is elliptic."""

    verdict: Verdict
    cases: frozenset[CenterCase]
    focal: FocalValues | None


class CaseConstraints(NamedTuple):
    """One center family: ``point`` maps the ``free`` parameters to (a1,
    b1, a3, b3, K); ``holds(eq, a1, b1, a3, b3, K)`` hands ``eq`` each
    equality as the (lhs, rhs) pair that ``close`` compares, among the
    strict inequalities the pairs need, and stops at the first that fails.
    No entry tests det > 0: that is ``jacobian``'s.  Arithmetic uses
    integer literals: both are exact on Fractions, and on floats they give
    the bits that float literals would.  The factors are the L2
    factor that the family makes vanish on the (b3 = 1, K = 1) corner and
    on the generic branch, as the witness prints them."""

    free: tuple[str, ...]
    point: Callable[..., tuple]
    holds: Callable[..., bool]
    c2_factor: str | None
    generic_factor: str | None


#: the six families in ``CenterCase`` order: the matcher tests them and the
#: witness prints their factors in this order
CASE_CONSTRAINTS = {
    CenterCase.I: CaseConstraints(
        ("b1", "a3", "K"), lambda b1, a3, K: (0, b1, a3, 0, K),
        lambda eq, a1, b1, a3, b3, K: eq(a1, 0.0) and eq(b3, 0.0),
        None, None,
    ),
    CenterCase.II: CaseConstraints(
        ("a1", "b3"), lambda a1, b3: (a1, b3 - 1, a1 - 1, b3, a1 / b3),
        lambda eq, a1, b1, a3, b3, K: abs(b3) > CLOSE_TOL and eq(a1, a3 + 1)
        and eq(b3, b1 + 1) and a1 / b3 > 0.0 and eq(K, a1 / b3),
        None, "1+a3-b3*K = 0",
    ),
    CenterCase.III: CaseConstraints(
        ("a1", "b1"), lambda a1, b1: (a1, b1, -1, 1, a1),
        lambda eq, a1, b1, a3, b3, K: eq(a3, -1.0) and eq(b3, 1.0) and a1 > 0.0 and eq(K, a1),
        "a3 = -1", None,
    ),
    CenterCase.IV: CaseConstraints(
        ("a3", "b3"), lambda a3, b3: (1, -1, a3, b3, 1 / b3),
        lambda eq, a1, b1, a3, b3, K: eq(a1, 1.0) and eq(b1, -1.0) and b3 > 0.0 and eq(K, 1 / b3),
        "b1 = -1", "1-b3*K = 0",
    ),
    CenterCase.R1: CaseConstraints(
        ("a1", "b1"), lambda a1, b1: (a1, b1, b1, a1, 1),
        lambda eq, a1, b1, a3, b3, K: eq(a1, b3) and eq(a3, b1) and eq(K, 1.0),
        "a3 = b1", "1-K = 0",
    ),
    CenterCase.R2: CaseConstraints(
        ("b1", "b3"), lambda b1, b3: ((K := 1 / (b3 - b1 - 1)) * b3, b1, K * b1, b3, K),
        lambda eq, a1, b1, a3, b3, K: b3 - b1 - 1 > 0.0 and eq(a1, K * b3)
        and eq(a3, K * b1) and eq(K, 1 / (b3 - b1 - 1)),
        None, "1+a3+K-b3*K = 0",
    ),
}
#: the matcher's flat view: one attribute lookup fewer per family and call
_MATCH_ORDER = tuple((case, fam.holds) for case, fam in CASE_CONSTRAINTS.items())


def match_table_cases(c: CanonicalParams) -> frozenset[CenterCase]:
    """All families of ``CASE_CONSTRAINTS`` whose equalities hold within
    ``CLOSE_TOL`` (``holds`` with ``close``) and whose guards hold, each
    family's tests in table order up to the first that fails.  Families
    overlap, so the result may list several; ellipticity is ``jacobian``'s,
    so on a point that is not elliptic it can list some too."""
    a1, b1, a3, b3, K = c.a1, c.b1, c.a3, c.b3, c.K
    out = []
    for case, holds in _MATCH_ORDER:
        if holds(close, a1, b1, a3, b3, K):
            out.append(case)
    return frozenset(out)


def classify(c: CanonicalParams) -> CenterClassification:
    """Full verdict for one parameter set.

    ``jacobian`` alone decides the linearization, and it runs once per
    call: ZERO_EIGENVALUE gives DegenerateDetZero, NOT_ELLIPTIC gives
    NotElliptic, and a linearization that is not finite raises
    PreconditionViolated.  Otherwise the closed-form focal values, handed
    the same summary, decide in one order: an L1 that does not vanish (L2
    None) signs a focus; else a family match gives Center; else a finite,
    nonzero L2 signs a focus, or where L2 is 0 a finite, nonzero L1 does
    (L2 None); anything else, such as an overflowed L2, is refused.
    """
    summary = jacobian(c)
    kind = summary.eigenvalue_kind
    if kind is _ZERO_EIGENVALUE:
        return _new_record(CenterClassification, (_DEGENERATE_DET_ZERO, _NO_CASES, None))
    if kind is not _PURELY_IMAGINARY:
        return _new_record(CenterClassification, (_NOT_ELLIPTIC, _NO_CASES, None))

    fv = closed_form_focal(c, summary=summary)
    if fv.L2 is not None:
        cases = match_table_cases(c)
        if cases:
            return _new_record(CenterClassification, (_CENTER, cases, fv))
        if fv.L2 == 0.0 and 0.0 < abs(fv.L1) < math.inf:
            fv = _new_record(FocalValues, (fv.L1, None, fv.d_value, fv.branch))
        elif not 0.0 < abs(fv.L2) < math.inf:
            raise PreconditionViolated(
                f"no family matches {c}; neither L2 = {fv.L2} nor L1 = {fv.L1} signs a focus"
            )
    deciding = fv.L1 if fv.L2 is None else fv.L2
    verdict = _FOCUS_STABLE if deciding < 0.0 else _FOCUS_UNSTABLE
    return _new_record(CenterClassification, (verdict, _NO_CASES, fv))

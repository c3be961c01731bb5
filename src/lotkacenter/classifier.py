"""Six-case center classification of the canonical system.

A trace-free elliptic equilibrium is a center exactly when the
parameters land on one of six algebraic families, listed in
``CASE_CONSTRAINTS`` below.  The classifier cross-checks the focal-value
route (L1, L2) against direct membership testing and refuses to emit an
answer when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InternalInconsistency
from .focal import L2_ZERO_TOL, FocalValues, closed_form_focal
from .model import CLOSE_TOL, CanonicalParams, EigenvalueKind, close, jacobian

__all__ = [
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


@dataclass(frozen=True)
class CenterClassification:
    """``cases`` holds the matched families of a Center and is empty for
    every other verdict; ``focal`` is None unless (1, 1) is elliptic."""

    verdict: Verdict
    cases: frozenset[CenterCase]
    focal: FocalValues | None


def _r2_equalities(c: CanonicalParams) -> bool:
    """The equalities of the second reversible family: a1 = K*b3,
    a3 = K*b1 and K = 1/(b3 - b1 - 1) with b3 - b1 - 1 > 0."""
    denom = c.b3 - c.b1 - 1.0
    return (
        denom > 0.0
        and close(c.a1, c.K * c.b3)
        and close(c.a3, c.K * c.b1)
        and close(c.K, 1.0 / denom)
    )


def match_table_cases(c: CanonicalParams) -> frozenset[CenterCase]:
    """All center families whose equalities hold within ``CLOSE_TOL`` and
    whose strict inequalities hold strictly.  Families overlap, so the result
    may contain several members."""
    a1, b1, a3, b3, K = c.a1, c.b1, c.a3, c.b3, c.K
    out = set()
    if close(a1, 0.0) and close(b3, 0.0) and a3 * b1 > 0.0:
        out.add(CenterCase.I)
    if (
        abs(b3) > CLOSE_TOL
        and close(a1, a3 + 1.0)
        and close(b3, b1 + 1.0)
        and a1 / b3 > 0.0
        and close(K, a1 / b3)
        and a1 + b3 < 1.0
    ):
        out.add(CenterCase.II)
    if (
        close(a3, -1.0)
        and close(b3, 1.0)
        and a1 > 0.0
        and close(K, a1)
        and a1 + b1 < 0.0
    ):
        out.add(CenterCase.III)
    if (
        close(a1, 1.0)
        and close(b1, -1.0)
        and b3 > 0.0
        and close(K, 1.0 / b3)
        and a3 + b3 < 0.0
    ):
        out.add(CenterCase.IV)
    if (
        close(a1, b3)
        and close(a3, b1)
        and close(K, 1.0)
        and abs(a1) < abs(b1)
    ):
        out.add(CenterCase.R1)
    if _r2_equalities(c) and abs(b3) < abs(b1):
        out.add(CenterCase.R2)
    return frozenset(out)


def classify(c: CanonicalParams) -> CenterClassification:
    """Full verdict for one parameter set.

    ``jacobian`` alone decides the linearization: ZERO_EIGENVALUE gives
    DegenerateDetZero, NOT_ELLIPTIC gives NotElliptic, and a linearization
    that is not finite raises PreconditionViolated.  Otherwise
    the closed-form focal values decide focus versus center, and the
    center verdict must be corroborated by at least one family match or
    an ``InternalInconsistency`` is raised.
    """
    summary = jacobian(c)
    if summary.eigenvalue_kind is EigenvalueKind.ZERO_EIGENVALUE:
        return CenterClassification(Verdict.DEGENERATE_DET_ZERO, frozenset(), None)
    if summary.eigenvalue_kind is not EigenvalueKind.PURELY_IMAGINARY:
        return CenterClassification(Verdict.NOT_ELLIPTIC, frozenset(), None)

    fv = closed_form_focal(c)
    if fv.L2 is None or abs(fv.L2) > L2_ZERO_TOL:
        deciding = fv.L1 if fv.L2 is None else fv.L2
        verdict = Verdict.FOCUS_STABLE if deciding < 0.0 else Verdict.FOCUS_UNSTABLE
        return CenterClassification(verdict, frozenset(), fv)

    cases = match_table_cases(c)
    if not cases:
        raise InternalInconsistency(
            f"L1 and L2 vanish for {c} but no center family matches"
        )
    return CenterClassification(Verdict.CENTER, cases, fv)

"""Exception types shared across the package."""

from __future__ import annotations


class LotkaError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LotkaError):
    """A point lies outside the open positive quadrant."""


class NoPositiveEquilibrium(LotkaError):
    """The balance equations admit no positive solution."""


class NonIsolatedEquilibrium(LotkaError):
    """The balance equations are rank deficient but consistent, so the
    equilibrium set is a continuum rather than a single point."""


class PreconditionViolated(LotkaError):
    """An operation was called outside its stated domain of validity."""


class InsufficientDegree(LotkaError):
    """A Taylor field is truncated below the degree an operation needs."""


class IntegrationFailure(LotkaError):
    """Numerical integration could not produce the requested result."""


class NoReturn(IntegrationFailure):
    """The orbit failed to come back to the section within budget."""


class CaseMismatch(LotkaError):
    """Parameters do not satisfy the algebraic constraints of the
    requested center case."""


class NoKnownIntegral(LotkaError):
    """No closed-form first integral is available for these parameters."""


class InternalInconsistency(LotkaError):
    """A self-check of the numeric Lyapunov engine, its only raiser, failed."""


class BadBase(LotkaError):
    """A base parameter pair is unsuitable for the two-cycle build."""

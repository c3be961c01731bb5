"""Focal quantities of the canonical system at its equilibrium.

Two independent routes are provided.  ``closed_form_focal`` evaluates the
exact expressions for the first two focal values L1, L2 of the
trace-free linearization.  ``lyapunov_numeric`` knows nothing about
those expressions: it builds a formal Lyapunov function degree by degree
from a Taylor expansion of the field and reads off the obstruction
coefficients.  Agreement of the two routes, and of either with the
return map, is what the test suite leans on.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

from .errors import InsufficientDegree, InternalInconsistency, PreconditionViolated
from .model import (
    CLOSE_TOL, _PURELY_IMAGINARY, CanonicalParams, JacobianSummary, _new_record, close, jacobian
)

__all__ = [
    "FocalBranch",
    "FocalValues",
    "LyapunovQuantities",
    "TaylorField",
    "closed_form_focal",
    "lyapunov_numeric",
    "taylor_expand",
]

#: L1 counts as zero within this multiple of the magnitude of its terms
L1_ZERO_TOL = 1e-10
#: numeric Lyapunov quantities below this absolute value count as vanished
_VANISH_TOL = 1e-8
#: the leading factors of L1 and L2, divided once at import
_PI_8, _PI_288 = math.pi / 8.0, math.pi / 288.0


class FocalBranch(Enum):
    """Which algebraic branch supplied L2 (or made it unnecessary)."""

    CASE_A_B3_ZERO = "CaseA_b3Zero"
    CASE_B_D_NONZERO = "CaseB_DNonzero"
    CASE_C1 = "CaseC1"
    CASE_C2 = "CaseC2"
    NOT_APPLICABLE = "NotApplicable"


# EnumType.__getattr__ makes each FocalBranch.X a slow lookup on Python 3.11
_CASE_A_B3_ZERO, _CASE_B_D_NONZERO, _CASE_C1, _CASE_C2, _NOT_APPLICABLE = FocalBranch


class FocalValues(NamedTuple):
    """Closed-form focal values at the equilibrium.

    ``L2`` is None when L1 decides: it does not vanish, or the algebra
    rules L1 = 0 out (b3 = 1 off both corners, or D = 0 off b3 = 1).
    ``d_value`` is D = 1 + a3 - a3*K - b3*K, which organizes the case split.
    """

    L1: float
    L2: float | None
    d_value: float
    branch: FocalBranch


def _require_elliptic(js: JacobianSummary) -> float:
    """omega of a PURELY_IMAGINARY linearization; other kinds raise."""
    if js.eigenvalue_kind is not _PURELY_IMAGINARY:
        raise PreconditionViolated(
            f"linearization is {js.eigenvalue_kind.value}: trace {js.trace}, det {js.determinant}"
        )
    return js.omega


def closed_form_focal(
    c: CanonicalParams, *, summary: JacobianSummary | None = None
) -> FocalValues:
    """Exact first and second focal values for a trace-free elliptic point.

    Raises PreconditionViolated unless ``jacobian`` calls the linearization
    PURELY_IMAGINARY, and when omega*b1 is 0 in floating point.  A caller
    that already holds ``jacobian(c)`` passes it as ``summary``, and its
    kind and omega are used instead of computing the linearization again;
    a summary of another system gives meaningless values.  When L1
    vanishes the branch for L2 is decided on the algebra: b3 = 0 and the
    (b3 = 1, a3 = -1) corner force L2 = 0, the (b3 = 1, K = 1) corner has
    its own quartic product formula, and the generic branch (D != 0, b3
    not in {0, 1}) has the six-factor formula.  Elsewhere L1 decides, as
    when it does not vanish, and a 0 or non-finite L1 there is refused.
    """
    a1, b1, a3, b3, K = c.a1, c.b1, c.a3, c.b3, c.K
    root = _require_elliptic(jacobian(c) if summary is None else summary)

    d_value = 1.0 + a3 - a3 * K - b3 * K
    bracket = b1 * d_value - a3 * (1.0 - b3) * K
    # omega*b1 divides L1, its scale and the corner L2; it underflows to 0
    # for a subnormal b1
    root_b1 = root * b1
    if root_b1 == 0.0:
        raise PreconditionViolated(f"omega * b1 is 0 in floating point: omega {root}, b1 {b1}")
    l1 = _PI_8 * K * b3 * bracket / root_b1

    # magnitude of the two bracket contributions, for a scale-aware zero test
    abs_a3, abs_b3 = abs(a3), abs(b3)
    l1_scale = (
        _PI_8
        * K
        * abs_b3
        * (abs(b1) * (1.0 + abs_a3 * (1.0 + K) + abs_b3 * K) + abs_a3 * (1.0 + abs_b3) * K)
        / abs(root_b1)
    )
    # max(1, l1_scale), spelled as dynamics._drive does: the same float, NaN too
    if abs(l1) > L1_ZERO_TOL * (l1_scale if l1_scale > 1.0 else 1.0):
        return _new_record(FocalValues, (l1, None, d_value, _NOT_APPLICABLE))

    if close(b3, 0.0):
        # a1 = K*b3 = 0 as well; every focal value vanishes
        return _new_record(FocalValues, (l1, 0.0, d_value, _CASE_A_B3_ZERO))

    if close(b3, 1.0):
        # here D = (1 + a3)(1 - K), and L1 = 0 forces D = 0
        if close(K, 1.0) and (not close(a3, -1.0) or abs(K - 1.0) <= abs(a3 + 1.0)):
            l2 = _PI_288 * a3 * (1.0 + a3) * (1.0 + b1) * (a3 - b1) / root_b1
            return _new_record(FocalValues, (l1, l2, d_value, _CASE_C2))
        if close(a3, -1.0):
            return _new_record(FocalValues, (l1, 0.0, d_value, _CASE_C1))
    elif abs(d_value) > CLOSE_TOL * (1.0 + abs_a3 * (1.0 + K) + abs_b3 * K):
        # generic branch: b3 not in {0, 1} and D != 0
        l2 = (
            _PI_288
            * ((a3 + b3) * (a3 + b3))
            * b3
            * (1.0 + a3 - b3 * K)
            * (1.0 - b3 * K)
            * (1.0 - K)
            * (1.0 + a3 + K - b3 * K)
            / (root * d_value * (1.0 - b3))
        )
        return _new_record(FocalValues, (l1, l2, d_value, _CASE_B_D_NONZERO))
    # b3 = 1 off both corners, or D = 0 off b3 = 1: L1 = 0 has no solution
    if not 0.0 < abs(l1) < math.inf:
        raise PreconditionViolated(f"L1 = {l1} is 0 or not finite where it decides: b3 {b3}")
    return _new_record(FocalValues, (l1, None, d_value, _NOT_APPLICABLE))


# ---------------------------------------------------------------------------
# Taylor expansion of the shifted field


class TaylorField(NamedTuple):
    """Polynomial truncation of the field around (1, 1).

    With u = x - 1 and v = y - 1, the coefficient of u**i v**j is
    ``fx[i][j]`` in the first component and ``fy[i][j]`` in the second;
    each is a (degree+1) x (degree+1) tuple of tuples of floats.  Entries
    with i + j > degree are zero.  ``params`` is the expanded system.
    """

    degree: int
    fx: tuple[tuple[float, ...], ...]
    fy: tuple[tuple[float, ...], ...]
    params: CanonicalParams


def _binom_coeffs(a: float, n: int) -> list[float]:
    """Generalized binomial coefficients C(a, 0..n) for real a."""
    out = [1.0]
    for k in range(1, n + 1):
        out.append(out[-1] * (a - (k - 1)) / k)
    return out


def taylor_expand(c: CanonicalParams, degree: int) -> TaylorField:
    """Expand the canonical field about the equilibrium to total degree."""
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    n = degree

    def product(xs: list[float], ys: list[float], scale: float) -> tuple[tuple[float, ...], ...]:
        return tuple(
            tuple(scale * (xs[i] * ys[j]) if 0 < i + j <= n else 0.0 for j in range(n + 1))
            for i in range(n + 1)
        )

    fx = product(_binom_coeffs(c.a1, n), _binom_coeffs(c.b1, n), 1.0)
    fy = product(_binom_coeffs(c.a3, n), _binom_coeffs(c.b3, n), -c.K)
    return TaylorField(degree=n, fx=fx, fy=fy, params=c)


# ---------------------------------------------------------------------------
# Numerical Lyapunov quantities
#
# Polynomials in two variables are (cap+1) x (cap+1) nested lists.  Every
# coefficient of a product is summed from 0 over the left factor's nonzero
# entries in row-major order; that order fixes its bits, and skipping zero
# terms or unread coefficients does not change them.


class LyapunovQuantities(NamedTuple):
    """Obstruction coefficients of a formal Lyapunov function.

    ``ell[k-1]`` is the k-th quantity, reported per unit angular
    frequency.  Entries after the first one that fails the vanish test
    are NaN, because they are not invariant once an earlier quantity is
    nonzero.
    """

    ell: tuple[float, ...]
    omega: float


def _zeros(cap: int) -> list[list]:
    return [[0.0] * (cap + 1) for _ in range(cap + 1)]


def _terms(P) -> list[tuple[int, int, complex]]:
    """Nonzero coefficients of P as (i, j, coefficient), row-major."""
    return [(i, j, c) for i, row in enumerate(P) for j, c in enumerate(row) if c]


def _poly_mul(A, B, cap: int) -> list[list]:
    """Product of two bivariate polynomials, truncated to total degree <= cap."""
    out = _zeros(cap)
    b_terms = _terms(B)
    for i, j, a in _terms(A):
        for p, q, b in b_terms:
            if i + j + p + q <= cap:
                out[i + p][j + q] += a * b
    return out


def _poly_powers(P, cap: int) -> list[list[list]]:
    """P**0 .. P**cap, truncated to total degree <= cap; each power is
    the one before times P."""
    out = [_zeros(cap)]
    out[0][0][0] = 1.0
    for _ in range(cap):
        out.append(_poly_mul(out[-1], P, cap))
    return out


@functools.cache
def _pq_monomials(cap: int) -> tuple[tuple[tuple[tuple[int, int, complex], ...], ...], ...]:
    """Read-only table of p**m * q**n in (z, conj z) for m + n <= cap:
    ``[m][n]`` holds its nonzero coefficients of z**i conj(z)**j as
    (i, j, coefficient), with p = (z + conj z)/2 and q = -i(z - conj z)/2.
    It depends on ``cap`` alone, so each cap builds it once."""
    Zp = _zeros(cap)
    Zp[1][0] = Zp[0][1] = 0.5 + 0j
    Zq = _zeros(cap)
    Zq[1][0] = -0.5j
    Zq[0][1] = 0.5j
    zp_pows = _poly_powers(Zp, cap)
    zq_pows = _poly_powers(Zq, cap)
    return tuple(
        tuple(tuple(_terms(_poly_mul(zp_pows[m], zq_pows[n], cap))) for n in range(cap + 1 - m))
        for m in range(cap + 1)
    )


def _complexified_field(tf: TaylorField, cap: int) -> tuple[float, list[list[complex]]]:
    """Rewrite the shifted field in a complex eigencoordinate.

    The linear part [[a, b], [c, d]] with a + d = 0 and det > 0 is
    brought to a rotation by the substitution p = (a*u + b*v)/omega,
    q = u, and the complex variable z = p + i*q then satisfies
    dz/dt = i*omega*z + f(z, conj z).  Returns (omega, coefficients of f)
    where f has no constant or linear part.  ``jacobian`` of the expanded
    system must be PURELY_IMAGINARY; omega comes from the Taylor part.
    """
    _require_elliptic(jacobian(tf.params))
    a, b = tf.fx[1][0], tf.fx[0][1]
    cc, d = tf.fy[1][0], tf.fy[0][1]
    omega = math.sqrt(a * d - b * cc)

    # u, v as polynomials in (p, q): u = q, v = (omega*p - a*q)/b
    V = _zeros(cap)
    V[1][0] = omega / b
    V[0][1] = -a / b
    v_terms = [_terms(Vj) for Vj in _poly_powers(V, cap)]

    def substitute(coeffs) -> list[list[float]]:
        # u**i is a shift by i in the q index
        out = _zeros(cap)
        for i, j, w in _terms(coeffs):
            if i + j <= cap:
                for p, q, c in v_terms[j]:
                    out[p][i + q] += w * c
        return out

    G1 = substitute(tf.fx)
    G2 = substitute(tf.fy)
    pq = _pq_monomials(cap)
    H = [[0j] * (cap + 1) for _ in range(cap + 1)]
    for m, pq_row in enumerate(pq):
        for n, terms in enumerate(pq_row):
            # dp/dt = (a*G1 + b*G2)/omega and dq/dt = G1
            w = complex((a * G1[m][n] + b * G2[m][n]) / omega, G1[m][n])
            if w:
                for i, j, c in terms:
                    H[i][j] += w * c

    lin_err = max(abs(H[1][0] - 1j * omega), abs(H[0][1]))
    if lin_err > 1e-9 * omega:
        raise InternalInconsistency(f"complexified linear part off by {lin_err}, omega = {omega}")
    H[0][0] = H[1][0] = H[0][1] = 0j
    return omega, H


def lyapunov_numeric(tf: TaylorField, order: int) -> LyapunovQuantities:
    """Numerical Lyapunov quantities from the Taylor field alone.

    Builds V = z*conj(z) + higher terms so that dV/dt along the flow is
    eta_2 r**4 + eta_3 r**6 + ... with r**2 = z*conj(z); the homological
    equations are diagonal in the monomial basis and the resonant
    coefficients eta cannot be removed.  The k-th reported quantity is
    eta_{k+1} / omega, the per-unit-frequency normalization that makes
    values comparable across parameter sets.  A resonant coefficient
    counts as real when its imaginary part is at most 1e-9 times the sum
    of the magnitudes of the products it is made of.

    Needs tf.degree >= 2*order + 1 (else InsufficientDegree) and a
    PURELY_IMAGINARY ``jacobian(tf.params)`` (else PreconditionViolated).
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if tf.degree < 2 * order + 1:
        raise InsufficientDegree(
            f"degree {tf.degree} cannot support order {order}; need {2 * order + 1}"
        )
    cap = 2 * order + 2
    omega, f = _complexified_field(tf, cap)
    fbar = [[f[q][p].conjugate() for q in range(cap + 1)] for p in range(cap + 1)]
    v = [[0j] * (cap + 1) for _ in range(cap + 1)]
    v[1][1] = 1.0 + 0j
    etas: list[float] = []

    for d in range(3, cap + 1):
        # dV/dz and dV/d(conj z) paired with the field they multiply
        factors = (
            ([(p - 1, q, w * p) for p, q, w in _terms(v) if p], f),
            ([(p, q - 1, w * q) for p, q, w in _terms(v) if q], fbar),
        )
        # only the degree-d coefficients of dV/dt are read
        for j in range(d + 1):
            k = d - j
            g = 0j
            for terms, field in factors:
                s = 0j
                for p, q, w in terms:
                    if p <= j and q <= k:
                        s += w * field[j - p][k - q]
                g += s
            if j == k:
                size = sum(
                    abs(w) * abs(field[j - p][k - q])
                    for terms, field in factors
                    for p, q, w in terms
                    if p <= j and q <= k
                )
                if abs(g.imag) > 1e-9 * size:
                    raise InternalInconsistency(
                        f"resonant coefficient at degree {d} is not real: {g}"
                    )
                etas.append(g.real)
            else:
                # -g / (1j*omega*(j - k)) by Smith's method with a reciprocal
                scl = 1.0 / (omega * (j - k))
                v[j][k] = complex(-g.imag * scl, g.real * scl)

    ell = [eta / omega for eta in etas[:order]]
    for k in range(1, order):
        if any(abs(e) > _VANISH_TOL for e in ell[:k] if math.isfinite(e)):
            ell[k] = math.nan
    return LyapunovQuantities(ell=tuple(ell), omega=omega)

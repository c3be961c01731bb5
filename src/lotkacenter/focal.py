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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InsufficientDegree, InternalInconsistency, PreconditionViolated
from .model import CLOSE_TOL, CanonicalParams, EigenvalueKind, close, jacobian

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
#: L2 counts as zero below this absolute value
L2_ZERO_TOL = 1e-10
#: numeric Lyapunov quantities below this absolute value count as vanished
_VANISH_TOL = 1e-8


class FocalBranch(Enum):
    """Which algebraic branch supplied L2 (or made it unnecessary)."""

    CASE_A_B3_ZERO = "CaseA_b3Zero"
    CASE_B_D_NONZERO = "CaseB_DNonzero"
    CASE_C1 = "CaseC1"
    CASE_C2 = "CaseC2"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class FocalValues:
    """Closed-form focal values at the equilibrium.

    ``L2`` is None when L1 does not vanish, in which case it carries no
    stability information anyway.  ``d_value`` is the recurring
    combination D = 1 + a3 - a3*K - b3*K that organizes the case split.
    """

    L1: float
    L2: float | None
    d_value: float
    branch: FocalBranch


def _require_elliptic(c: CanonicalParams) -> float:
    """omega of a PURELY_IMAGINARY ``jacobian(c)``; other kinds raise."""
    js = jacobian(c)
    if js.eigenvalue_kind is not EigenvalueKind.PURELY_IMAGINARY:
        raise PreconditionViolated(
            f"linearization is {js.eigenvalue_kind.value}: trace {js.trace}, det {js.determinant}"
        )
    return js.omega


def closed_form_focal(c: CanonicalParams) -> FocalValues:
    """Exact first and second focal values for a trace-free elliptic point.

    Raises PreconditionViolated unless ``jacobian`` calls the linearization
    PURELY_IMAGINARY, and when omega*b1 is 0 in floating point.  When L1
    vanishes the branch for L2 is decided on the algebra: b3 = 0 and the
    (b3 = 1, a3 = -1) corner force L2 = 0, the (b3 = 1, K = 1) corner has
    its own quartic product formula, and the generic branch (D != 0, b3
    not in {0, 1}) has the six-factor formula.
    """
    a1, b1, a3, b3, K = c.a1, c.b1, c.a3, c.b3, c.K
    root = _require_elliptic(c)

    d_value = 1.0 + a3 - a3 * K - b3 * K
    bracket = b1 * d_value - a3 * (1.0 - b3) * K
    # omega*b1 divides L1, its scale and the corner L2; it underflows to 0
    # for a subnormal b1
    root_b1 = root * b1
    if root_b1 == 0.0:
        raise PreconditionViolated(f"omega * b1 is 0 in floating point: omega {root}, b1 {b1}")
    l1 = (math.pi / 8.0) * K * b3 * bracket / root_b1

    # magnitude of the two bracket contributions, for a scale-aware zero test
    l1_scale = (
        (math.pi / 8.0)
        * K
        * abs(b3)
        * (abs(b1) * (1.0 + abs(a3) * (1.0 + K) + abs(b3) * K) + abs(a3) * (1.0 + abs(b3)) * K)
        / abs(root_b1)
    )
    if abs(l1) > L1_ZERO_TOL * max(1.0, l1_scale):
        return FocalValues(L1=l1, L2=None, d_value=d_value, branch=FocalBranch.NOT_APPLICABLE)

    if close(b3, 0.0):
        # a1 = K*b3 = 0 as well; every focal value vanishes
        return FocalValues(L1=l1, L2=0.0, d_value=d_value, branch=FocalBranch.CASE_A_B3_ZERO)

    if close(b3, 1.0):
        # here D = (1 + a3)(1 - K), and L1 = 0 forces D = 0
        if close(K, 1.0) and (not close(a3, -1.0) or abs(K - 1.0) <= abs(a3 + 1.0)):
            l2 = (
                (math.pi / 288.0)
                * a3
                * (1.0 + a3)
                * (1.0 + b1)
                * (a3 - b1)
                / root_b1
            )
            return FocalValues(L1=l1, L2=l2, d_value=d_value, branch=FocalBranch.CASE_C2)
        if close(a3, -1.0):
            return FocalValues(L1=l1, L2=0.0, d_value=d_value, branch=FocalBranch.CASE_C1)
        raise InternalInconsistency(
            f"L1 = {l1} is below tolerance with b3 = 1 but neither K = 1 nor a3 = -1"
        )

    # generic branch: b3 not in {0, 1}; D = 0 here would force L1 away from 0
    if abs(d_value) <= CLOSE_TOL * (1.0 + abs(a3) * (1.0 + K) + abs(b3) * K):
        raise InternalInconsistency(
            f"L1 = {l1} is below tolerance with D = {d_value} ~ 0 but b3 = {b3} not 1"
        )
    l2 = (
        (math.pi / 288.0)
        * ((a3 + b3) * (a3 + b3))
        * b3
        * (1.0 + a3 - b3 * K)
        * (1.0 - b3 * K)
        * (1.0 - K)
        * (1.0 + a3 + K - b3 * K)
        / (root * d_value * (1.0 - b3))
    )
    return FocalValues(L1=l1, L2=l2, d_value=d_value, branch=FocalBranch.CASE_B_D_NONZERO)


# ---------------------------------------------------------------------------
# Taylor expansion of the shifted field


@dataclass(frozen=True)
class TaylorField:
    """Polynomial truncation of the field around (1, 1).

    With u = x - 1 and v = y - 1, the coefficient of u**i v**j is
    ``fx[i, j]`` in the first component and ``fy[i, j]`` in the second.
    Entries with i + j > degree are zero.  ``params`` is the expanded system.
    """

    degree: int
    fx: np.ndarray
    fy: np.ndarray
    params: CanonicalParams

    def __post_init__(self) -> None:
        self.fx.setflags(write=False)
        self.fy.setflags(write=False)


def _binom_coeffs(a: float, n: int) -> np.ndarray:
    """Generalized binomial coefficients C(a, 0..n) for real a."""
    out = np.empty(n + 1)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = out[k - 1] * (a - (k - 1)) / k
    return out


@functools.cache
def _over_cap(cap: int) -> np.ndarray:
    """Read-only mask of the (cap+1, cap+1) entries of total degree > cap."""
    ii, jj = np.indices((cap + 1, cap + 1))
    mask = ii + jj > cap
    mask.setflags(write=False)
    return mask


def taylor_expand(c: CanonicalParams, degree: int) -> TaylorField:
    """Expand the canonical field about the equilibrium to total degree."""
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    n = degree
    fx = np.outer(_binom_coeffs(c.a1, n), _binom_coeffs(c.b1, n))
    fy = -c.K * np.outer(_binom_coeffs(c.a3, n), _binom_coeffs(c.b3, n))
    fx[0, 0] = 0.0
    fy[0, 0] = 0.0
    over = _over_cap(n)
    fx[over] = 0.0
    fy[over] = 0.0
    return TaylorField(degree=n, fx=fx, fy=fy, params=c)


# ---------------------------------------------------------------------------
# Numerical Lyapunov quantities


@dataclass(frozen=True)
class LyapunovQuantities:
    """Obstruction coefficients of a formal Lyapunov function.

    ``ell[k-1]`` is the k-th quantity, reported per unit angular
    frequency.  Entries after the first one that fails the vanish test
    are NaN, because they are not invariant once an earlier quantity is
    nonzero.
    """

    ell: tuple[float, ...]
    omega: float


def _poly_mul(A: np.ndarray, B: np.ndarray, cap: int) -> np.ndarray:
    """Product of two bivariate coefficient arrays, truncated to total
    degree <= cap.  Arrays are (cap+1, cap+1)."""
    out = np.zeros((cap + 1, cap + 1), dtype=np.result_type(A, B, np.float64))
    for i, j in zip(*np.nonzero(A)):
        ni = cap + 1 - i
        nj = cap + 1 - j
        out[i:, j:] += A[i, j] * B[:ni, :nj]
    out[_over_cap(cap)] = 0.0
    return out


def _poly_powers(P: np.ndarray, cap: int) -> list[np.ndarray]:
    """P**0 .. P**cap, truncated to total degree <= cap; each power is
    the one before times P."""
    one = np.zeros((cap + 1, cap + 1), dtype=P.dtype)
    one[0, 0] = 1.0
    out = [one]
    for _ in range(cap):
        out.append(_poly_mul(out[-1], P, cap))
    return out


@functools.cache
def _pq_monomials(cap: int) -> np.ndarray:
    """Read-only table of p**m * q**n in (z, conj z) at ``[m, n]``,
    truncated to total degree <= cap, with p = (z + conj z)/2 and
    q = -i(z - conj z)/2.  It depends on ``cap`` alone, so each cap
    builds it once; entries with m + n > cap are zero and never read."""
    Zp = np.zeros((cap + 1, cap + 1), dtype=complex)
    Zp[1, 0] = 0.5
    Zp[0, 1] = 0.5
    Zq = np.zeros((cap + 1, cap + 1), dtype=complex)
    Zq[1, 0] = -0.5j
    Zq[0, 1] = 0.5j
    zp_pows = _poly_powers(Zp, cap)
    zq_pows = _poly_powers(Zq, cap)
    table = np.zeros((cap + 1, cap + 1, cap + 1, cap + 1), dtype=complex)
    for m in range(cap + 1):
        for n in range(cap + 1 - m):
            table[m, n] = _poly_mul(zp_pows[m], zq_pows[n], cap)
    table.setflags(write=False)
    return table


def _complexified_field(tf: TaylorField, cap: int) -> tuple[float, np.ndarray]:
    """Rewrite the shifted field in a complex eigencoordinate.

    The linear part [[a, b], [c, d]] with a + d = 0 and det > 0 is
    brought to a rotation by the substitution p = (a*u + b*v)/omega,
    q = u, and the complex variable z = p + i*q then satisfies
    dz/dt = i*omega*z + f(z, conj z).  Returns (omega, coefficients of f)
    where f has no constant or linear part.  ``jacobian`` of the expanded
    system must be PURELY_IMAGINARY; omega comes from the Taylor part.
    """
    _require_elliptic(tf.params)
    a = float(tf.fx[1, 0])
    b = float(tf.fx[0, 1])
    cc = float(tf.fy[1, 0])
    d = float(tf.fy[0, 1])
    omega = math.sqrt(a * d - b * cc)

    # u, v as polynomials in (p, q): u = q, v = (omega*p - a*q)/b
    V = np.zeros((cap + 1, cap + 1))
    V[1, 0] = omega / b
    V[0, 1] = -a / b

    v_pows = _poly_powers(V, cap)

    def substitute(coeffs: np.ndarray) -> np.ndarray:
        # u**i is a shift by i in the q index
        out = np.zeros((cap + 1, cap + 1))
        n = coeffs.shape[0]
        for i in range(min(n, cap + 1)):
            for j in range(min(n, cap + 1 - i)):
                w = coeffs[i, j]
                if w == 0.0:
                    continue
                block = v_pows[j]
                out[:, i:] += w * block[:, : cap + 1 - i]
        out[_over_cap(cap)] = 0.0
        return out

    G1 = substitute(np.asarray(tf.fx))
    G2 = substitute(np.asarray(tf.fy))
    P_dot = (a * G1 + b * G2) / omega
    Q_dot = G1

    W = P_dot + 1j * Q_dot
    H = np.zeros((cap + 1, cap + 1), dtype=complex)
    pq = _pq_monomials(cap)
    for m, n in zip(*np.nonzero(W)):
        H += W[m, n] * pq[m, n]

    lin_err = max(abs(H[1, 0] - 1j * omega), abs(H[0, 1]))
    if lin_err > 1e-9 * omega:
        raise InternalInconsistency(
            f"complexified linear part off by {lin_err}, omega = {omega}"
        )
    H[0, 0] = 0.0
    H[1, 0] = 0.0
    H[0, 1] = 0.0
    return omega, H


def lyapunov_numeric(tf: TaylorField, order: int) -> LyapunovQuantities:
    """Numerical Lyapunov quantities from the Taylor field alone.

    Builds V = z*conj(z) + higher terms so that dV/dt along the flow is
    eta_2 r**4 + eta_3 r**6 + ... with r**2 = z*conj(z); the homological
    equations are diagonal in the monomial basis and the resonant
    coefficients eta cannot be removed.  The k-th reported quantity is
    eta_{k+1} / omega, the per-unit-frequency normalization that makes
    values comparable across parameter sets.

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

    fbar = np.conj(f.T)
    v = np.zeros((cap + 1, cap + 1), dtype=complex)
    v[1, 1] = 1.0
    etas: list[float] = []

    for d in range(3, cap + 1):
        vz = np.zeros_like(v)
        vz[:-1, :] = v[1:, :] * np.arange(1, cap + 1)[:, None]
        vzb = np.zeros_like(v)
        vzb[:, :-1] = v[:, 1:] * np.arange(1, cap + 1)[None, :]
        rhs = _poly_mul(vz, f, cap) + _poly_mul(vzb, fbar, cap)
        for j in range(d + 1):
            k = d - j
            g = rhs[j, k]
            if j == k:
                if abs(g.imag) > 1e-9 * (1.0 + abs(g)):
                    raise InternalInconsistency(
                        f"resonant coefficient at degree {d} is not real: {g}"
                    )
                etas.append(g.real)
            else:
                v[j, k] = -g / (1j * omega * (j - k))

    ell = [eta / omega for eta in etas[:order]]
    for k in range(1, order):
        if any(abs(e) > _VANISH_TOL for e in ell[:k] if math.isfinite(e)):
            ell[k] = math.nan
    return LyapunovQuantities(ell=tuple(ell), omega=omega)

"""Singular-value splits of factor matrices against the target's spans.

Each r x d factor matrix M is split at a threshold sigma into a large part
M1 (singular values strictly above sigma) and a small part M - M1.  The
split keeps M1 and four orthonormal bases:

    v1, v2: left singular directions in R^r (coefficient space),
    u1, u2: right singular directions in R^d (ambient space),

where u2 and v2 are the full orthogonal complements of u1 and v1, including
any nullspace, so [u1 u2] and [v1 v2] are always square orthogonal.

The escape stage draws its sampled directions from these bases, fixes
the core on the large parts, and deletes the part of each factor that
points outside the span of the target's mode slices (SubspaceSplit.m3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import FactorPoint, _column_signs, flatten


@dataclass(frozen=True)
class ModeSplit:
    """Threshold split of one factor matrix at singular value sigma: its
    large part m1 and the bases v1, v2 (R^r) and u1, u2 (R^d)."""
    m1: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    sigma: float

    @property
    def rank1(self) -> int:
        """Number of singular values above the threshold."""
        return self.u1.shape[1]


def split(M: np.ndarray, sigma: float) -> ModeSplit:
    """Split M at threshold sigma; ties (values equal to sigma) go to the
    small part M - m1."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if sigma < 0:
        raise ValueError(f"threshold must be nonnegative, got {sigma}")
    V, s, Ut = np.linalg.svd(M, full_matrices=True)
    U = Ut.T
    nmin = min(M.shape)
    # paired singular directions flip together, by the sign of their V
    # column, so they still factor M; trailing complement-only columns
    # take their own signs
    sv, su = _column_signs(V), _column_signs(U)
    su[:nmin] = sv[:nmin]
    V *= sv
    U *= su
    k = int(np.sum(s > sigma))
    m1 = (V[:, :k] * s[:k]) @ U[:, :k].T
    return ModeSplit(m1=m1, v1=V[:, :k], v2=V[:, k:], u1=U[:, :k],
                     u2=U[:, k:], sigma=float(sigma))


def true_projection(T: np.ndarray, mode: int) -> np.ndarray:
    """Orthogonal projection in R^d onto the span of mode-`mode` slices of
    T, i.e. the column space of its mode flattening.  Directions with
    singular value at most 1e-10 times the largest are treated as zero.

    The flattening F is d x d^2.  With F^T = QR, F = R^T Q^T and Q has
    orthonormal columns, so F's left singular vectors and values are those
    of the small triangular factor's transpose: one QR of F^T and an SVD
    of a d x d matrix in place of an SVD of F."""
    F = flatten(T, mode)
    R = np.linalg.qr(F.T, mode="r")
    U, s, _ = np.linalg.svd(R.T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((F.shape[0], F.shape[0]))
    keep = s > 1e-10 * s[0]
    Uk = U[:, keep]
    return Uk @ Uk.T


@dataclass(frozen=True)
class SubspaceSplit:
    """Mode splits of the three factors plus target-span data.

    m3[m] = M (I - P[m]) is the part of factor m pointing outside the span
    of the target's mode-m slices; it contributes nothing to the fit."""
    modes: tuple[ModeSplit, ModeSplit, ModeSplit]
    p_true: tuple[np.ndarray, np.ndarray, np.ndarray]
    m3: tuple[np.ndarray, np.ndarray, np.ndarray]
    sigma: float


def subspace_split(p: FactorPoint, T: np.ndarray, sigma: float,
                   p_true=None) -> SubspaceSplit:
    """Build all per-mode splits of (A, B, C) against target T.  The
    target's span projectors depend on T alone: a caller that splits
    often against one T passes those of an earlier split as p_true, and
    without them they are computed here."""
    modes = tuple(split(M, sigma) for M in (p.A, p.B, p.C))
    if p_true is None:
        T = np.asarray(T, dtype=float)
        p_true = tuple(true_projection(T, m) for m in (1, 2, 3))
    eye = np.eye(p.d)
    m3 = tuple(M @ (eye - P) for M, P in zip((p.A, p.B, p.C), p_true))
    return SubspaceSplit(modes=modes, p_true=p_true, m3=m3, sigma=float(sigma))


def projection_distance_bound(M: np.ndarray, M1: np.ndarray,
                              M2: np.ndarray) -> tuple[float, float]:
    """Row-space projection distance against its perturbation bound.

    For M = M1 + M2 with rank(M) >= rank(M1), returns (lhs, rhs) with

        lhs = || P - P1 ||_F,   rhs = 2 ||M2||_F / sigma_min(M),

    where P, P1 project onto the row spaces of M and M1.  lhs <= rhs
    whenever sigma_min(M) > 0 over nonzero singular values of M restricted
    to rank(M1) directions; callers check lhs <= rhs.
    """
    M = np.asarray(M, dtype=float)
    M1 = np.asarray(M1, dtype=float)
    M2 = np.asarray(M2, dtype=float)
    if M.shape != M1.shape or M.shape != M2.shape:
        raise ValueError("M, M1, M2 must share one shape")

    def row_projection(X, rank=None):
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return np.zeros((X.shape[1], X.shape[1])), 0
        k = int(np.sum(s > 1e-12 * s[0])) if rank is None else rank
        Vk = Vt[:k].T
        return Vk @ Vk.T, k

    P1, k1 = row_projection(M1)
    P, _ = row_projection(M, rank=k1)
    s = np.linalg.svd(M, compute_uv=False)
    smin = float(s[k1 - 1]) if k1 >= 1 else float("inf")
    lhs = float(np.linalg.norm(P - P1))
    rhs = 2.0 * float(np.linalg.norm(M2)) / smin if smin > 0 else float("inf")
    return lhs, rhs

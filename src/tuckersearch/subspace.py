"""Singular-value splits of factor matrices.

Each r x d factor matrix M is split at a threshold sigma into a large part
M1 = v1 diag(s1) u1^T (singular values s1 strictly above sigma) and a small
part M - M1.  The split keeps s1 and four orthonormal bases:

    v1, v2: left singular directions in R^r (coefficient space),
    u1, u2: right singular directions in R^d (ambient space),

where u2 and v2 are the full orthogonal complements of u1 and v1, including
any nullspace, so [u1 u2] and [v1 v2] are always square orthogonal.  The
pseudoinverse of M1 is u1 diag(1/s1) v1^T, so the escape needs no SVD of
its own.

The escape stage draws its sampled directions from these bases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import FactorPoint, _column_signs


@dataclass(frozen=True)
class ModeSplit:
    """Threshold split of one factor matrix at singular value sigma: the
    singular values s1 above sigma, and the bases v1, v2 (R^r) and u1, u2
    (R^d); the large part is v1 diag(s1) u1^T."""
    s1: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    @property
    def rank1(self) -> int:
        """Number of singular values above the threshold."""
        return self.u1.shape[1]


def split(M: np.ndarray, sigma: float) -> ModeSplit:
    """Split M at threshold sigma; ties (values equal to sigma) go to the
    small part."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if sigma < 0:
        raise ValueError(f"threshold must be nonnegative, got {sigma}")
    if not M.any():
        # every factor of a zero-start point is zero: every direction is
        # singular with value 0, and the identities are the bases the SVD
        # gives it, so they are taken without one
        r, d = M.shape
        Ir, Id = np.eye(r), np.eye(d)
        return ModeSplit(s1=np.zeros(0), v1=Ir[:, :0], v2=Ir, u1=Id[:, :0],
                         u2=Id)
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
    return ModeSplit(s1=s[:k], v1=V[:, :k], v2=V[:, k:], u1=U[:, :k],
                     u2=U[:, k:])


@dataclass(frozen=True)
class SubspaceSplit:
    """Mode splits of the three factors at one threshold sigma."""
    modes: tuple[ModeSplit, ModeSplit, ModeSplit]
    sigma: float


def subspace_split(p: FactorPoint, sigma: float) -> SubspaceSplit:
    """Split each of (A, B, C) at threshold sigma."""
    modes = tuple(split(M, sigma) for M in (p.A, p.B, p.C))
    return SubspaceSplit(modes=modes, sigma=float(sigma))


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

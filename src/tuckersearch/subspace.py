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
class SubspaceSplit:
    """Splits of the three factors at one threshold sigma, stacked by mode:
    mode m's bases [v1 v2] and [u1 u2] are the columns of V[m] (r x r) and
    U[m] (d x d), its singular values s[m], and ranks[m] of them lie above
    sigma, so its large part is V[m, :, :k] diag(s[m, :k]) U[m, :, :k]^T
    with k = ranks[m]."""
    V: np.ndarray
    s: np.ndarray
    U: np.ndarray
    ranks: tuple[int, int, int]


def subspace_split(p: FactorPoint, sigma: float) -> SubspaceSplit:
    """Split each of (A, B, C) at threshold sigma, ties (values equal to
    sigma) to the small part, with one SVD of the three; the bases of each
    singular pair are signed as `hosvd` signs them."""
    F = p.factors
    k, r, d = F.shape
    if not F.any():
        # every factor of a zero-start point is zero: every direction is
        # singular with value 0, and the identities are the bases the SVD
        # gives it, so they are taken without one
        return SubspaceSplit(V=np.broadcast_to(np.eye(r), (k, r, r)),
                             s=np.zeros((k, min(r, d))),
                             U=np.broadcast_to(np.eye(d), (k, d, d)),
                             ranks=(0,) * k)
    # one SVD of the stack runs LAPACK on each matrix as a call of its own
    # would; a zero matrix among nonzero ones gets the identities, as above
    V, s, Ut = np.linalg.svd(F, full_matrices=True)
    U = Ut.transpose(0, 2, 1)
    # paired singular directions flip together, by the sign of their V
    # column, so they still factor M; trailing complement-only columns
    # take their own signs
    sv, su = _column_signs(V), _column_signs(U)
    su[:, :s.shape[1]] = sv[:, :s.shape[1]]
    V *= sv[:, None, :]
    U *= su[:, None, :]
    return SubspaceSplit(V=V, s=s, U=U,
                         ranks=tuple((s > sigma).sum(axis=1).tolist()))


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
        """The projector onto X's top-rank row space, the rank (by default
        the numerical rank), and X's singular values."""
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return np.zeros((X.shape[1], X.shape[1])), 0, s
        k = int(np.sum(s > 1e-12 * s[0])) if rank is None else rank
        Vk = Vt[:k].T
        return Vk @ Vk.T, k, s

    P1, k1, _ = row_projection(M1)
    P, _, s = row_projection(M, rank=k1)
    smin = float(s[k1 - 1]) if k1 >= 1 else float("inf")
    lhs = float(np.linalg.norm(P - P1))
    rhs = 2.0 * float(np.linalg.norm(M2)) / smin if smin > 0 else float("inf")
    return lhs, rhs

"""Singular-value splits of factor matrices.

Each r x d factor matrix M = v diag(s) u^T is split at a threshold sigma
into a large part M1 = v1 diag(s1) u1^T (singular values s1 strictly above
sigma) and a small part M - M1.  The split keeps no bases, only three maps
per factor, each a product of paired singular vectors:

    v1 diag(1/s1) v1^T   (r x r) the preimage map of the large part: for
                         any x, u = v1 diag(1/s1) v1^T x has M1^T u =
                         u1 v1^T x, with a multiplier of at least min(s1);
    I - v1 v1^T          (r x r) the projector onto the coefficient
                         directions the factor does not use;
    I - u1 u1^T          (d x d) the projector onto the ambient directions
                         it does not use.

A standard normal vector pushed through a projector and normalized is
uniform on the unit sphere of its range, so the escape stage draws its
sampled directions through these maps.  Negating a singular pair leaves
every map unchanged, bit for bit, so the split fixes no signs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import FactorPoint


@dataclass(frozen=True)
class SubspaceSplit:
    """Splits of the three factors at one threshold sigma, stacked by mode:
    ranks[m] singular values of mode m lie above sigma, coef[m, 0] is its
    preimage map and coef[m, 1] its coefficient complement (r x r), and
    amb[m] its ambient complement (d x d)."""
    coef: np.ndarray
    amb: np.ndarray
    ranks: tuple[int, int, int]


def subspace_split(p: FactorPoint, sigma: float) -> SubspaceSplit:
    """Split each of (A, B, C) at threshold sigma, ties (values equal to
    sigma) to the small part, with one reduced SVD of the three."""
    F = p.factors
    k, r, d = F.shape
    if not F.any():
        # every factor of a zero-start point is zero: no value lies above
        # sigma, so the maps are 0 and the identities, taken without an SVD
        coef, amb = np.zeros((k, 2, r, r)), np.empty((k, d, d))
        coef[:, 1], amb[:] = np.eye(r), np.eye(d)
        return SubspaceSplit(coef=coef, amb=amb, ranks=(0,) * k)
    # one SVD of the stack runs LAPACK on each matrix as a call of its own
    # would; the columns of the small part are zeroed, so each map sums
    # over the large part's singular pairs alone
    V, s, Ut = np.linalg.svd(F, full_matrices=False)
    large = s > sigma
    v1, u1t = V * large[:, None, :], Ut * large[:, :, None]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    coef = np.stack(((v1 * inverse[:, None, :]) @ v1.transpose(0, 2, 1),
                     np.eye(r) - v1 @ v1.transpose(0, 2, 1)), axis=1)
    return SubspaceSplit(coef=coef,
                         amb=np.eye(d) - u1t.transpose(0, 2, 1) @ u1t,
                         ranks=tuple(large.sum(axis=1).tolist()))


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

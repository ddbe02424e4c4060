"""Escape directions at approximate second-order stationary points.

Near a stationary point the loss can hide improvement in directions the
factors do not yet span.  Indexing each mode by 1 (inside the large part of
the factor's singular split) or 2 (in the complement), a block label
ijk in {1, 2}^3 names where a candidate rank-one update lives.  For each
label with at least two 2s the sampler draws

    a, b, c: unit ambient vectors, uniform in the chosen U subspaces,
    u, v, w: unit coefficient vectors; uniform in the V complement for
             index 2, or the normalized preimage of the ambient draw under
             the large part's transpose for index 1, from the split's SVD,

and the direction updates the core by u x v x w plus each index-2 factor by
the outer product of its coefficient and ambient vectors.  Because every
piece multiplies at least one other piece of the same update, the objective
change along the direction starts at order 3 or 4 in the step size for two
or three missing modes; a short sign-and-magnitude sweep then finds a
strictly improving step whenever the relevant residual block is large
enough.  With one mode missing the change starts at order 2: that is
negative curvature, which the driver's Lanczos probe finds, so no label
with a single 2 is drawn.

The sign search scores a direction without evaluating f at each
candidate.  A candidate moves block b of (S, A, B, C) by a_b = t s_b, and
S(A, B, C) is multilinear, so its residual is D + sum_U c_U X_U over the
nonempty subsets U of the blocks, with c_U the product of a_b over U and
X_U the transform that takes the direction's block for b in U.  The Gram
matrix <X_U, X_V>, the products <D, X_U> and the pieces of the Gram gaps
(quadratic in a_m and a_S) are r x r or r^3 sized.  They are formed for
a whole stack of directions at once, the directions on a leading axis,
and every (sign pattern, step) candidate is then a few small array
products; the driver scores all draws of one block label as one stack.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .objective import ObjectiveReport, objective
from .subspace import SubspaceSplit
from .tensor_core import FactorPoint


class NoMissingDirection(Exception):
    """The requested block has an empty sampling subspace."""


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Each row of X over its norm."""
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def sample_missing_directions(splits: SubspaceSplit, ijk,
                              rng: np.random.Generator,
                              size: int) -> np.ndarray:
    """Draw `size` rank-one updates for the block label ijk; returns the
    (size, r^3 + 3 r d) stack of their flat vectors, in draw order.

    Each draw takes, mode by mode, a unit vector per orthonormal basis
    the mode uses (u1 for index 1; u2, then v2 for index 2): a standard
    normal vector of the basis's width over its norm.  All of them come
    from one rng.standard_normal((size, k)) call, split by column.  For
    index 1 the unit vector w gives the ambient draw a = w u1^T and the
    coefficient is its preimage under the large part's transpose,
    unit((w / s1) v1^T), for which m1^T u = c a with c >= min(s1) > sigma.

    The core moves by u x v x w.  Each index-2 factor moves by the outer
    product of its coefficient and ambient vectors.

    A label must be in {1, 2}^3 with at least two 2s (a ValueError
    otherwise).  Raises NoMissingDirection, before drawing anything, when
    any requested subspace is empty, e.g. asking for a complement
    direction of a factor that already uses all r of its rows.
    """
    ijk = tuple(int(x) for x in ijk)
    if (len(ijk) != 3 or any(x not in (1, 2) for x in ijk)
            or ijk.count(2) < 2):
        raise ValueError(f"block label must be in {{1,2}}^3 with at least "
                         f"two 2s, got {ijk}")
    widths = []
    for m, (ms, idx) in enumerate(zip(splits.modes, ijk)):
        if idx == 1 and ms.rank1 == 0:
            reason = f"no singular values above {splits.sigma}"
        elif idx == 2 and ms.v2.shape[1] == 0:
            reason = "no unused coefficient rows (rank1 = r)"
        elif idx == 2 and ms.u2.shape[1] == 0:
            reason = "no unused ambient directions"
        else:
            widths += ([ms.rank1] if idx == 1
                       else [ms.u2.shape[1], ms.v2.shape[1]])
            continue
        raise NoMissingDirection(f"mode {m + 1}: {reason}")
    n = int(size)
    Z = rng.standard_normal((n, sum(widths)))
    units = (_unit_rows(X) for X in np.split(Z, np.cumsum(widths)[:-1],
                                             axis=1))
    r, d = splits.modes[0].v1.shape[0], splits.modes[0].u1.shape[0]
    flats = np.zeros((n, r**3 + 3 * r * d))
    mats = flats[:, r**3:].reshape(n, 3, r, d)
    coeff = []
    for m, (ms, idx) in enumerate(zip(splits.modes, ijk)):
        if idx == 1:
            coeff.append(_unit_rows((next(units) / ms.s1) @ ms.v1.T))
        else:
            a = next(units) @ ms.u2.T
            coeff.append(next(units) @ ms.v2.T)
            mats[:, m] = coeff[m][:, :, None] * a[:, None, :]
    flats[:, :r**3] = np.einsum("nx,ny,nz->nxyz", *coeff).reshape(n, r**3)
    return flats


@functools.cache
def delta_grid(sigma: float, n_missing: int) -> np.ndarray:
    """13 log-spaced step sizes covering [center/100, center*100].

    The center is sigma^(1/4) for two missing modes and sigma^(1/8) for
    three, matching where the leading improvement term dominates.  Each
    grid is computed once and shared read-only: `np.geomspace` costs more
    than a small sign search's bookkeeping.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_missing not in (2, 3):
        raise ValueError(f"n_missing must be 2 or 3, got {n_missing}")
    center = sigma ** 0.25 if n_missing == 2 else sigma ** 0.125
    grid = np.geomspace(center / 100.0, center * 100.0, 13)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class SignSearchResult:
    delta: FactorPoint    # the direction, signed as the step takes it
    step: float
    improvement: float
    evals: int

    def apply(self, p: FactorPoint) -> FactorPoint:
        return p + self.step * self.delta


# `_expansion` forms the Gram matrix with its sign bits in the order
# (vS, vC, uC, vB, uB, uS, vA, uA); this takes them to (uS, uA, uB, uC, vS,
# vA, vB, vC), the order of U = 8 uS + 4 uA + 2 uB + uC and then of V
_GRAM_BITS = np.arange(256).reshape((2,) * 8).transpose(
    5, 7, 4, 2, 0, 6, 3, 1).ravel()


def _expansion(p: FactorPoint, flats: np.ndarray, D: np.ndarray):
    """Coefficients of f along the moves (a_S dS, a_A dA, a_B dB, a_C dC),
    for each of the n directions whose flat vectors are the rows of
    `flats`, the directions on a leading axis.

    The reconstruction is the sum over subsets U of {S, A, B, C} of
    c_U X_U, with c_U the product of a_b over b in U and X_U the transform
    that takes the delta's block for b in U and the point's otherwise.
    Indexing U as 8 uS + 4 uA + 2 uB + uC, returns per direction the Gram
    matrix <X_U, X_V> and the products <D, X_U> with the residual D at p,
    both over the 15 nonempty U, and the (3, 5, r^2) basis whose
    combination with (1, a_m, a_m^2, a_S, a_S^2) is the Gram gap of mode m.

    With K = (S, dS) and P_m the Gram of the stacked [M_m; dM_m], the Gram
    matrix is contracted over z' with P_3, over y' with P_2, over (y, z)
    with K in one batched product and over (x', x) with P_1 in another;
    its largest intermediate, the one before the (y, z) product, has
    n 32 r^3 entries.  The result's eight sign bits are then permuted
    into (U, V) order.
    """
    r, d, n = p.r, p.d, len(flats)
    K = np.empty((n, 2, r, r, r))
    K[:, 0] = p.S
    K[:, 1] = flats[:, :r**3].reshape(n, r, r, r)
    Kf = K.reshape(n, 2, r**3)
    W = np.empty((n, 3, 2 * r, d))
    W[:, :, :r] = p.factors
    W[:, :, r:] = flats[:, r**3:].reshape(n, 3, r, d)
    P = (W @ W.transpose(0, 1, 3, 2)).reshape(n, 3, 2, r, 2, r)
    # <X_U, X_V> = sum K[uS]_xyz K[vS]_x'y'z' P1[uA x, vA x'] P2[uB y, vB y']
    # P3[uC z, vC z'], contracted over z', y', then (y, z), then (x', x)
    Pm = P.transpose(0, 1, 5, 4, 2, 3).reshape(n, 3, r, 4 * r)
    Y = K.reshape(n, 2 * r * r, r) @ Pm[:, 2]
    Y = Y.reshape(n, 2, r, r, 4 * r).transpose(0, 1, 2, 4, 3).reshape(
        n, -1, r) @ Pm[:, 1]
    # axes: direction, (vS, x', vC, uC), (vB, uB, y), z
    Y = Y.reshape(n, 8 * r, r, 4 * r).transpose(0, 1, 3, 2).reshape(
        n, 32 * r, r * r)
    # axes: direction, vS, (vC, uC, vB, uB), uS, (x', x)
    Y = (Y @ K.reshape(n, 2 * r, r * r).transpose(0, 2, 1)).reshape(
        n, 2, r, 16, 2, r).transpose(0, 1, 3, 4, 2, 5).reshape(n, 64, r * r)
    Y = Y @ P[:, 0].transpose(0, 4, 2, 3, 1).reshape(n, r * r, 4)
    gram = Y.reshape(n, 256)[:, _GRAM_BITS].reshape(n, 16, 16)
    # D projected onto [M; dM] in every mode, then against S and dS; the
    # mode-3 product takes every direction's factors in one (d^2, d) @
    # (d, n 2r) product
    E = (D.reshape(d * d, d) @ W[:, 2].transpose(2, 0, 1).reshape(
        d, n * 2 * r)).reshape(d, d, n, 2 * r).transpose(2, 0, 1, 3)
    E = W[:, 1, None] @ E
    E = W[:, 0] @ E.reshape(n, d, 4 * r * r)
    E = E.reshape(n, 2, r, 2, r, 2, r).transpose(0, 1, 3, 5, 2, 4, 6)
    proj = (E.reshape(n, 8, r**3) @ Kf.transpose(0, 2, 1)).transpose(
        0, 2, 1).reshape(n, 16)
    # Gram gaps: M M^T from P, S_(m) S_(m)^T from the stacked unfoldings
    F = np.stack((K.reshape(n, 2 * r, r * r),
                  K.transpose(0, 1, 3, 2, 4).reshape(n, 2 * r, r * r),
                  K.transpose(0, 1, 4, 2, 3).reshape(n, 2 * r, r * r)),
                 axis=1)
    Q = (F @ F.transpose(0, 1, 3, 2)).reshape(n, 3, 2, r, 2, r)
    basis = np.stack((P[:, :, 0, :, 0] - Q[:, :, 0, :, 0],
                      P[:, :, 0, :, 1] + P[:, :, 1, :, 0], P[:, :, 1, :, 1],
                      -(Q[:, :, 0, :, 1] + Q[:, :, 1, :, 0]),
                      -Q[:, :, 1, :, 1]), axis=2).reshape(n, 3, 5, r * r)
    return gram[:, 1:, 1:], proj[:, 1:], basis


def sign_step_values(at: ObjectiveReport, deltas, patterns,
                     grid) -> np.ndarray:
    """f(p + t * (s o delta)) at the point p and weight lam of the report
    `at`, for every delta of `deltas`, every sign row s of `patterns` (one
    sign per block S, A, B, C) and every step t of `grid`, as a
    (len(deltas), len(patterns), len(grid)) array.  `deltas` is the stack
    of the directions' flat vectors, one per row.

    With a_b = t s_b the residual is D + sum_U c_U X_U, so
    L = L(p) + 2 sum_U c_U <D, X_U> + sum_UV c_U c_V <X_U, X_V>, and each
    Gram gap is quadratic in (a_m, a_S); both come from one `_expansion`
    of all the deltas, and every candidate is then a few small array
    products.  The sum adds terms as large as L(p) and the c_U X_U, so a
    value is accurate to a few ulps of the largest of these, not of itself:
    an exact fit can read 0.0 or a rounding-sized value of either sign.
    """
    gram, proj, basis = _expansion(at.point, deltas, at.stages[2])
    patterns = np.asarray(patterns, dtype=float)
    grid = np.asarray(grid, dtype=float)
    a = (patterns[:, None, :] * grid[:, None]).reshape(-1, 4)
    # c_U for U = 8 uS + 4 uA + 2 uB + uC: each block, from C to S, doubles
    # the subsets with a new leading bit
    c = np.empty((len(a), 16))
    c[:, 0] = 1.0
    for k, col in enumerate(a.T[::-1]):
        c[:, 2**k:2**(k + 1)] = c[:, :2**k] * col[:, None]
    c = c[:, 1:]
    L = (at.L + 2.0 * (c @ proj[:, :, None])[:, :, 0]
         + np.einsum("knu,nu->kn", c @ gram, c))
    # the Gram gap of mode m takes only (a_m, a_S), so it is formed for the
    # four sign pairs (s_m, s_S) = (+, +), (+, -), (-, +), (-, -) at each
    # step, and each pattern gathers its pair's squared norm per mode
    pair = (np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
            [:, None, :] * grid[:, None]).reshape(-1, 2)
    coef = np.empty((len(pair), 5))
    coef[:, 0] = 1.0
    coef[:, 1] = pair[:, 0]
    coef[:, 2] = pair[:, 0] ** 2
    coef[:, 3] = pair[:, 1]
    coef[:, 4] = pair[:, 1] ** 2
    gaps = coef @ basis
    sq = np.einsum("kmnj,kmnj->kmn", gaps, gaps).reshape(
        len(deltas), 12, len(grid))
    # mode m's row of sq for a pattern is 4 m + 2 [s_m < 0] + [s_S < 0];
    # summing the modes in order keeps phi bit-equal to one einsum over
    # (m, j) of every pattern's gaps
    neg = patterns < 0
    rows = np.arange(0, 12, 4) + 2 * neg[:, 1:] + neg[:, :1]
    phi = sq[:, rows].sum(axis=2).reshape(len(deltas), -1)
    return (L + at.lam * (phi * phi)).reshape(len(deltas), len(patterns),
                                              len(grid))


def sign_flip_search(p: FactorPoint, T: np.ndarray, deltas: np.ndarray,
                     grid, lam: float | None = None,
                     at: ObjectiveReport | None = None
                     ) -> list[SignSearchResult]:
    """For each direction, a row of the stack `deltas` of flat vectors,
    try every sign pattern of its nonzero blocks over the step grid and
    keep the best objective value; returns one result per direction, in
    order.

    The directions must share their nonzero blocks, at least one of them
    (a ValueError otherwise), so that they share the sign patterns.  All
    candidates of all directions are scored together by
    `sign_step_values`, which expands f along the directions once instead
    of evaluating f at each candidate.  f and the residual at p come from
    `at` when it is a report of p (taken with the same T and lam), and
    otherwise from one `objective` call.  A direction's candidates are
    ranked in the order of a loop over the patterns (the k-th active block
    flipped when bit k of the pattern number is set), then over the grid:
    the first smallest value wins, NaN never, and it must be strictly
    below f at p.  Never returns a step that makes f worse: if nothing
    improves, the result has step 0, improvement 0 and the unsigned
    direction.  `evals` counts the objective values computed for the
    direction, and where the call made the `objective` call at p the first
    result also counts it, so the results' evals add up to the call's.
    """
    if not len(deltas):
        raise ValueError("no directions to score")
    sizes = (p.r**3,) + (p.r * p.d,) * 3
    # one row per direction, one column per block: is any entry nonzero?
    nonzero = np.logical_or.reduceat(deltas != 0.0,
                                     np.cumsum((0,) + sizes[:3]), axis=1)
    if (nonzero != nonzero[0]).any():
        raise ValueError("the directions' nonzero blocks differ")
    active = np.flatnonzero(nonzero[0])
    if not active.size:
        raise ValueError("the directions are identically zero")
    baseline = at is None or at.point is not p
    if baseline:
        at = objective(p, T, lam)
    f0 = at.f
    patterns = np.ones((2 ** active.size, 4))
    bits = np.arange(len(patterns))[:, None] >> np.arange(active.size) & 1
    patterns[:, active] = 1.0 - 2.0 * bits
    grid = np.asarray(grid, dtype=float)
    values = sign_step_values(at, deltas, patterns, grid)
    # NaN never wins, as it never compares smaller
    ranked = np.where(np.isnan(values), np.inf, values).reshape(
        len(deltas), -1)
    won = np.zeros(len(deltas), dtype=bool)
    if grid.size:
        best = ranked.argmin(axis=1)
        f_best = ranked[np.arange(len(deltas)), best]
        won = f_best < f0
        signed = np.repeat(patterns[best // len(grid)], sizes, axis=1) * deltas
    out = []
    for k, flat in enumerate(deltas):
        step, f_after = 0.0, f0
        if won[k]:
            flat = signed[k]
            step = float(grid[best[k] % len(grid)])
            f_after = float(f_best[k])
        out.append(SignSearchResult(
            delta=p._like(flat), step=step, improvement=f0 - f_after,
            evals=values[k].size + (k == 0 and baseline)))
    return out


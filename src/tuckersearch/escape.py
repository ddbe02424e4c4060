"""Escape directions at approximate second-order stationary points.

Near a stationary point the loss can hide improvement in directions the
factors do not yet span.  Indexing each mode by 1 (inside the large part of
the factor's singular split) or 2 (in the complement), a block label
ijk in {1, 2}^3 names where a candidate rank-one update lives.  For each
label with at least one 2 the sampler draws

    a, b, c: unit ambient vectors, uniform in the chosen U subspaces,
    u, v, w: unit coefficient vectors; uniform in the V complement for
             index 2, or the normalized preimage of the ambient draw under
             the large part's transpose for index 1,

and the direction updates the core by u x v x w plus each index-2 factor by
the outer product of its coefficient and ambient vectors.  Because every
piece multiplies at least one other piece of the same update, the objective
change along the direction starts at order 2, 3 or 4 in the step size
depending on how many modes are missing; a short sign-and-magnitude sweep
then finds a strictly improving step whenever the relevant residual block
is large enough.

Two deterministic directions complete the menu: replacing the core's
large-part block by the target compressed onto the large subspaces
(core fix), and deleting the part of one factor that points outside the
span of the target's slices (remove extraneous).

The sign search scores a direction without evaluating f at each
candidate.  A candidate moves block b of (S, A, B, C) by a_b = t s_b, and
S(A, B, C) is multilinear, so its residual is D + sum_U c_U X_U over the
nonempty subsets U of the blocks, with c_U the product of a_b over U and
X_U the transform that takes the direction's block for b in U.  The Gram
matrix <X_U, X_V>, the products <D, X_U> and the pieces of the Gram gaps
(quadratic in a_m and a_S) are r x r or r^3 sized and formed once per
direction; every (sign pattern, step) candidate is then a few small
array products.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .objective import _check_target, _fit, default_lambda, objective
from .subspace import SubspaceSplit
from .tensor_core import FactorPoint, _transform, multilinear_transform


class NoMissingDirection(Exception):
    """The requested block has an empty sampling subspace."""


class NoDirection(Exception):
    """The requested deterministic direction degenerates to zero."""


@dataclass(frozen=True)
class SampledVectors:
    """One draw of ambient (a, b, c) and coefficient (u, v, w) vectors."""
    ijk: tuple[int, int, int]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class ImprovementDirection:
    delta: FactorPoint
    kind: str    # the step kind a trace records when the search takes it
    ijk: tuple[int, int, int] | None = None
    mode: int | None = None
    vectors: SampledVectors | None = None
    sign_pattern: tuple[int, ...] | None = None


def _unit_in_span(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector in the column span of an orthonormal basis."""
    while True:
        g = rng.standard_normal(basis.shape[1])
        n = np.linalg.norm(g)
        if n > 1e-12:
            return basis @ (g / n)


def sample_missing_directions(splits: SubspaceSplit, ijk,
                              rng: np.random.Generator) -> SampledVectors:
    """Draw (a, b, c, u, v, w) for the block label ijk.

    Raises NoMissingDirection when any requested subspace is empty, e.g.
    asking for a complement direction of a factor that already uses all r
    of its rows.
    """
    ijk = tuple(int(x) for x in ijk)
    if len(ijk) != 3 or any(x not in (1, 2) for x in ijk):
        raise ValueError(f"block label must be in {{1,2}}^3, got {ijk}")
    ambient, coeff = [], []
    for m, idx in enumerate(ijk):
        ms = splits.modes[m]
        if idx == 1:
            if ms.rank1 == 0:
                raise NoMissingDirection(
                    f"mode {m + 1}: no singular values above {ms.sigma}")
            a = _unit_in_span(ms.u1, rng)
            # preimage under the large part: m1^T u is a positive multiple
            # of a, with multiplier at least sigma
            u = np.linalg.pinv(ms.m1.T, rcond=1e-12) @ a
            u = u / np.linalg.norm(u)
        else:
            if ms.v2.shape[1] == 0:
                raise NoMissingDirection(
                    f"mode {m + 1}: no unused coefficient rows (rank1 = r)")
            if ms.u2.shape[1] == 0:
                raise NoMissingDirection(
                    f"mode {m + 1}: no unused ambient directions")
            a = _unit_in_span(ms.u2, rng)
            u = _unit_in_span(ms.v2, rng)
        ambient.append(a)
        coeff.append(u)
    return SampledVectors(ijk=ijk, a=ambient[0], b=ambient[1], c=ambient[2],
                          u=coeff[0], v=coeff[1], w=coeff[2])


def build_sampled_direction(vectors: SampledVectors,
                            sigma: float) -> ImprovementDirection:
    """Assemble the rank-one update for a sampled block.

    The core moves by u x v x w.  Each index-2 factor moves by the outer
    product of its coefficient and ambient vectors; when only one mode is
    missing that single factor block is scaled by sigma to match the size
    of the preimage multipliers in the present modes.
    """
    ijk = vectors.ijk
    n_missing = sum(1 for x in ijk if x == 2)
    if n_missing == 0:
        raise ValueError("block (1,1,1) has no direction to build")
    scale = float(sigma) if n_missing == 1 else 1.0
    dS = np.einsum("x,y,z->xyz", vectors.u, vectors.v, vectors.w)
    r, d = vectors.u.shape[0], vectors.a.shape[0]
    mats = []
    for idx, cvec, avec in zip(ijk, (vectors.u, vectors.v, vectors.w),
                               (vectors.a, vectors.b, vectors.c)):
        if idx == 2:
            mats.append(scale * np.outer(cvec, avec))
        else:
            mats.append(np.zeros((r, d)))
    return ImprovementDirection(delta=FactorPoint(dS, *mats),
                                kind="sampled({},{},{})".format(*ijk),
                                ijk=ijk, vectors=vectors)


def delta_grid(sigma: float, n_missing: int, span: float = 100.0,
               points: int = 13) -> np.ndarray:
    """Log-spaced step sizes covering [center/span, center*span].

    The center is sigma^(1/4) for one or two missing modes and sigma^(1/8)
    for three, matching where the leading improvement term dominates.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_missing not in (1, 2, 3):
        raise ValueError(f"n_missing must be 1, 2 or 3, got {n_missing}")
    if span <= 1.0 or points < 3:
        raise ValueError("need span > 1 and at least 3 grid points")
    center = sigma ** 0.25 if n_missing <= 2 else sigma ** 0.125
    return np.geomspace(center / span, center * span, points)


@dataclass(frozen=True)
class SignSearchResult:
    direction: ImprovementDirection
    step: float
    improvement: float
    f_before: float
    f_after: float
    evals: int

    def apply(self, p: FactorPoint) -> FactorPoint:
        return p + self.step * self.direction.delta


def _expansion(p: FactorPoint, delta: FactorPoint, D: np.ndarray):
    """Coefficients of f along the moves (a_S dS, a_A dA, a_B dB, a_C dC).

    The reconstruction is the sum over subsets U of {S, A, B, C} of
    c_U X_U, with c_U the product of a_b over b in U and X_U the transform
    that takes the delta's block for b in U and the point's otherwise.
    Indexing U as 8 uS + 4 uA + 2 uB + uC, returns the Gram matrix
    <X_U, X_V> and the products <D, X_U> with the residual D at p, both
    over the 15 nonempty U, and the (3, 5, r^2) basis whose combination
    with (1, a_m, a_m^2, a_S, a_S^2) is the Gram gap of mode m.
    """
    r = p.r
    K = np.stack((p.S, delta.S))
    Kf = K.reshape(2, r**3)
    W = np.concatenate((p.factors, delta.factors), axis=1)
    P = (W @ W.transpose(0, 2, 1)).reshape(3, 2, r, 2, r)
    # <X_U, X_V> = sum K[uS]_xyz K[vS]_x'y'z' P1[uA x, vA x'] P2[uB y, vB y']
    # P3[uC z, vC z'], contracted over z', y', then x'
    Pm = P.transpose(0, 4, 3, 1, 2).reshape(3, r, 4 * r)
    Y = K.reshape(2 * r * r, r) @ Pm[2]
    Y = Y.reshape(2, r, r, 4 * r).transpose(0, 1, 3, 2).reshape(-1, r) @ Pm[1]
    Y = Y.reshape(2, r, -1).transpose(0, 2, 1).reshape(-1, r) @ Pm[0]
    # axes: vS, (vC, uC, z), (vB, uB, y), (vA, uA, x)
    Y = Y.reshape(2, 2, 2, r, 2, 2, r, 2, 2, r).transpose(
        0, 7, 4, 1, 8, 5, 2, 9, 6, 3).reshape(16, 8, r**3)
    gram = (Y @ Kf.T).transpose(2, 1, 0).reshape(16, 16)
    # D projected onto [M; dM] in every mode, then against S and dS
    E = _transform(D, *W.transpose(0, 2, 1))[2]
    E = E.reshape(2, r, 2, r, 2, r).transpose(0, 2, 4, 1, 3, 5)
    proj = (E.reshape(8, r**3) @ Kf.T).T.ravel()
    # Gram gaps: M M^T from P, S_(m) S_(m)^T from the stacked unfoldings
    F = np.stack((K.reshape(2 * r, r * r),
                  K.transpose(0, 2, 1, 3).reshape(2 * r, r * r),
                  K.transpose(0, 3, 1, 2).reshape(2 * r, r * r)))
    Q = (F @ F.transpose(0, 2, 1)).reshape(3, 2, r, 2, r)
    basis = np.stack((P[:, 0, :, 0] - Q[:, 0, :, 0],
                      P[:, 0, :, 1] + P[:, 1, :, 0], P[:, 1, :, 1],
                      -(Q[:, 0, :, 1] + Q[:, 1, :, 0]), -Q[:, 1, :, 1]),
                     axis=1).reshape(3, 5, r * r)
    return gram[1:, 1:], proj[1:], basis


def sign_step_values(p: FactorPoint, T: np.ndarray, delta: FactorPoint,
                     patterns, grid, lam: float | None = None) -> np.ndarray:
    """f(p + t * (s o delta)) for every sign row s of `patterns` (one sign
    per block S, A, B, C) and every step t of `grid`, as a
    (len(patterns), len(grid)) array.

    With a_b = t s_b the residual is D + sum_U c_U X_U, so
    L = L(p) + 2 sum_U c_U <D, X_U> + sum_UV c_U c_V <X_U, X_V>, and each
    Gram gap is quadratic in (a_m, a_S); both come from `_expansion` once,
    and every candidate is then a few small array products.  The sum adds
    terms as large as L(p) and the c_U X_U, so a value is accurate to a few
    ulps of the largest of these, not of itself: an exact fit can read 0.0
    or a rounding-sized value of either sign.
    """
    if lam is None:
        lam = default_lambda(p.r)
    D = _fit(p, _check_target(p, T))[2]
    gram, proj, basis = _expansion(p, delta, D)
    patterns = np.asarray(patterns, dtype=float)
    grid = np.asarray(grid, dtype=float)
    a = (patterns[:, None, :] * grid[:, None]).reshape(-1, 4)
    # c_U for U = 8 uS + 4 uA + 2 uB + uC: each block, from C to S, doubles
    # the subsets with a new leading bit
    c = np.ones((len(a), 1))
    for col in a.T[::-1]:
        c = np.concatenate((c, c * col[:, None]), axis=1)
    c = c[:, 1:]
    Dv = D.ravel()
    L = Dv @ Dv + 2.0 * (c @ proj) + np.einsum("nu,nu->n", c @ gram, c)
    coef = np.empty((3, len(a), 5))
    coef[:, :, 0] = 1.0
    coef[:, :, 1] = a[:, 1:].T
    coef[:, :, 2] = coef[:, :, 1] ** 2
    coef[:, :, 3] = a[:, 0]
    coef[:, :, 4] = a[:, 0] ** 2
    gaps = coef @ basis
    phi = np.einsum("mnj,mnj->n", gaps, gaps)
    return (L + lam * (phi * phi)).reshape(len(patterns), len(grid))


def sign_flip_search(p: FactorPoint, T: np.ndarray,
                     direction: ImprovementDirection, grid,
                     lam: float | None = None) -> SignSearchResult:
    """Try every sign pattern of the direction's nonzero blocks over the
    step grid and keep the best objective value.

    The candidates are scored together by `sign_step_values`, which
    expands f along the direction once instead of evaluating f at each
    candidate.  They are ranked in the order of a loop over the patterns
    (the k-th active block flipped when bit k of the pattern number is
    set), then over the grid: the first smallest value wins, NaN never,
    and it must be strictly below f at p, which is one `objective` call.
    Never returns a step that makes f worse: if nothing improves, the
    result has step 0 and improvement 0.  `evals` counts the objective
    values computed, the baseline at p included.
    """
    blocks = direction.delta.blocks()
    active = [i for i, blk in enumerate(blocks) if np.any(blk != 0.0)]
    if not active:
        raise NoDirection("direction is identically zero")
    f0 = objective(p, T, lam).f
    patterns = np.ones((2 ** len(active), 4))
    bits = np.arange(len(patterns))
    for pos, i in enumerate(active):
        patterns[bits >> pos & 1 == 1, i] = -1.0
    grid = np.asarray(grid, dtype=float)
    values = sign_step_values(p, T, direction.delta, patterns, grid, lam)
    # NaN never wins, as it never compares smaller
    ranked = np.where(np.isnan(values), np.inf, values).ravel()
    best = int(np.argmin(ranked)) if ranked.size else 0
    out_dir = replace(direction, sign_pattern=None)
    step, f_after = 0.0, f0
    if ranked.size and ranked[best] < f0:
        row, col = divmod(best, len(grid))
        pattern = tuple(int(s) for s in patterns[row])
        signed = FactorPoint(*(s * blk for s, blk in zip(pattern, blocks)))
        out_dir = replace(direction, delta=signed, sign_pattern=pattern)
        step, f_after = float(grid[col]), float(ranked[best])
    return SignSearchResult(direction=out_dir, step=step,
                            improvement=f0 - f_after, f_before=f0,
                            f_after=f_after, evals=1 + values.size)


def remove_extraneous_direction(p: FactorPoint, splits: SubspaceSplit,
                                mode: int) -> ImprovementDirection:
    """Direction that deletes the part of factor `mode` lying outside the
    span of the target's slices; a unit step removes it entirely."""
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    m3 = splits.m3[mode - 1]
    M = (p.A, p.B, p.C)[mode - 1]
    if np.linalg.norm(m3) <= 1e-12 * max(1.0, np.linalg.norm(M)):
        raise NoDirection(f"mode {mode}: no off-span factor mass")
    zero = np.zeros_like(p.A)
    mats = [zero.copy(), zero.copy(), zero.copy()]
    mats[mode - 1] = -m3
    return ImprovementDirection(delta=FactorPoint(np.zeros_like(p.S), *mats),
                                kind="remove-extraneous", mode=mode)


def core_fix_direction(p: FactorPoint, T: np.ndarray,
                       splits: SubspaceSplit) -> ImprovementDirection:
    """Direction that replaces the core's large-subspace block with the
    target compressed by the pseudoinverses of the large factor parts.

    When the large parts already span the target, a unit step makes the
    fitting term vanish.
    """
    if any(ms.rank1 == 0 for ms in splits.modes):
        raise NoDirection("a mode has no singular values above the threshold")
    pinvs = [np.linalg.pinv(ms.m1, rcond=1e-12) for ms in splits.modes]
    s_star = multilinear_transform(np.asarray(T, dtype=float), *pinvs)
    pv1 = [ms.v1 @ ms.v1.T for ms in splits.modes]
    s_large = multilinear_transform(p.S, *pv1)
    dS = s_star - s_large
    zero = np.zeros_like(p.A)
    return ImprovementDirection(delta=FactorPoint(dS, zero, zero.copy(),
                                                  zero.copy()),
                                kind="core-fix")

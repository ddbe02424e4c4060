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
(quadratic in a_m and a_S) are r x r or r^3 sized.  They are formed for
a whole stack of directions at once, the directions on a leading axis,
and every (sign pattern, step) candidate is then a few small array
products; the driver scores all draws of one block label as one stack.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .objective import (ObjectiveReport, _evaluation, default_lambda,
                        objective)
from .subspace import SubspaceSplit
from .tensor_core import FactorPoint, multilinear_transform


class NoMissingDirection(Exception):
    """The requested block has an empty sampling subspace."""


class NoDirection(Exception):
    """The requested deterministic direction degenerates to zero."""


@dataclass(frozen=True)
class ImprovementDirection:
    delta: FactorPoint
    kind: str    # the step kind a trace records when the search takes it


def _unit_rows(X: np.ndarray, rng: np.random.Generator | None = None
               ) -> np.ndarray:
    """Each row of X over its norm; with rng, a row of norm at most 1e-12
    is first drawn again from it, in place.  The squared norms are one
    stacked product of length-1 matrices, a dot product per row, so each
    row comes out bit for bit as X[i] / np.linalg.norm(X[i])."""
    norms = np.sqrt(X[:, None, :] @ X[:, :, None])[:, 0]
    if rng is not None and not (norms > 1e-12).all():
        for i in np.flatnonzero(norms[:, 0] <= 1e-12):
            while np.linalg.norm(X[i]) <= 1e-12:
                X[i] = rng.standard_normal(X.shape[1])
        norms = np.sqrt(X[:, None, :] @ X[:, :, None])[:, 0]
    return X / norms


def _span_rows(basis: np.ndarray, X: np.ndarray) -> np.ndarray:
    """basis @ X[i] for each row of X, one matrix-vector product per row
    (a stacked product with a trailing axis of 1), so each row matches
    the product of basis and that row alone bit for bit."""
    return np.matmul(basis, X[:, :, None])[:, :, 0]


def sample_missing_directions(splits: SubspaceSplit, ijk,
                              rng: np.random.Generator,
                              size: int) -> list[ImprovementDirection]:
    """Draw `size` rank-one updates for the block label ijk, built as one
    stack; returns their ImprovementDirections in draw order.

    Each draw takes, mode by mode, one standard normal vector per unit
    vector it needs (the ambient vector, then for index 2 the coefficient
    vector), each the size of the orthonormal basis it is mapped by; all
    draws come from one rng.standard_normal((size, k)) call, whose rows
    hold the same numbers as drawing one after another.  A normal vector
    of norm at most 1e-12 is drawn again.

    The core moves by u x v x w.  Each index-2 factor moves by the outer
    product of its coefficient and ambient vectors; when only one mode is
    missing that single factor block is scaled by the split's sigma to
    match the size of the preimage multipliers in the present modes.

    Raises NoMissingDirection when any requested subspace is empty, e.g.
    asking for a complement direction of a factor that already uses all r
    of its rows.  The normals of the modes before the empty one are drawn
    first, as one draw that stops there takes them, so the generator
    moves on as it does when the draws are made one at a time.
    """
    ijk = tuple(int(x) for x in ijk)
    if len(ijk) != 3 or any(x not in (1, 2) for x in ijk) or 2 not in ijk:
        raise ValueError(f"block label must be in {{1,2}}^3 and have a 2, "
                         f"got {ijk}")
    bases = []
    for m, idx in enumerate(ijk):
        ms = splits.modes[m]
        if idx == 1 and ms.rank1 == 0:
            reason = f"no singular values above {ms.sigma}"
        elif idx == 2 and ms.v2.shape[1] == 0:
            reason = "no unused coefficient rows (rank1 = r)"
        elif idx == 2 and ms.u2.shape[1] == 0:
            reason = "no unused ambient directions"
        else:
            bases += [ms.u1] if idx == 1 else [ms.u2, ms.v2]
            continue
        rng.standard_normal(sum(basis.shape[1] for basis in bases))
        raise NoMissingDirection(f"mode {m + 1}: {reason}")
    n = int(size)
    Z = rng.standard_normal((n, sum(basis.shape[1] for basis in bases)))
    units, lo = [], 0
    for basis in bases:
        X = Z[:, lo:lo + basis.shape[1]]
        lo += basis.shape[1]
        units.append(_span_rows(basis, _unit_rows(X, rng)))
    units = iter(units)
    ambient, coeff = [], []
    for ms, idx in zip(splits.modes, ijk):
        a = next(units)
        ambient.append(a)
        if idx == 1:
            # preimage under the large part: m1^T u is a positive multiple
            # of a, with multiplier at least sigma
            coeff.append(_unit_rows(_span_rows(
                np.linalg.pinv(ms.m1.T, rcond=1e-12), a)))
        else:
            coeff.append(next(units))
    scale = splits.sigma if ijk.count(2) == 1 else 1.0
    r, d = coeff[0].shape[1], ambient[0].shape[1]
    flats = np.zeros((n, r**3 + 3 * r * d))
    flats[:, :r**3] = np.einsum("nx,ny,nz->nxyz", *coeff).reshape(n, r**3)
    mats = flats[:, r**3:].reshape(n, 3, r, d)
    for m, (idx, cvec, avec) in enumerate(zip(ijk, coeff, ambient)):
        if idx == 2:
            mats[:, m] = scale * (cvec[:, :, None] * avec[:, None, :])
    template = FactorPoint.zeros(r, d)
    kind = "sampled({},{},{})".format(*ijk)
    return [ImprovementDirection(delta=template._like(flat), kind=kind)
            for flat in flats]


def delta_grid(sigma: float, n_missing: int) -> np.ndarray:
    """13 log-spaced step sizes covering [center/100, center*100].

    The center is sigma^(1/4) for one or two missing modes and sigma^(1/8)
    for three, matching where the leading improvement term dominates.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_missing not in (1, 2, 3):
        raise ValueError(f"n_missing must be 1, 2 or 3, got {n_missing}")
    center = sigma ** 0.25 if n_missing <= 2 else sigma ** 0.125
    return np.geomspace(center / 100.0, center * 100.0, 13)


@dataclass(frozen=True)
class SignSearchResult:
    direction: ImprovementDirection
    step: float
    improvement: float
    evals: int

    def apply(self, p: FactorPoint) -> FactorPoint:
        return p + self.step * self.direction.delta


def _expansion(p: FactorPoint, deltas, D: np.ndarray):
    """Coefficients of f along the moves (a_S dS, a_A dA, a_B dB, a_C dC),
    for each of the n directions `deltas` on a leading axis.

    The reconstruction is the sum over subsets U of {S, A, B, C} of
    c_U X_U, with c_U the product of a_b over b in U and X_U the transform
    that takes the delta's block for b in U and the point's otherwise.
    Indexing U as 8 uS + 4 uA + 2 uB + uC, returns per direction the Gram
    matrix <X_U, X_V> and the products <D, X_U> with the residual D at p,
    both over the 15 nonempty U, and the (3, 5, r^2) basis whose
    combination with (1, a_m, a_m^2, a_S, a_S^2) is the Gram gap of mode m.
    """
    r, d, n = p.r, p.d, len(deltas)
    flats = np.stack([q.flat for q in deltas])
    K = np.empty((n, 2, r, r, r))
    K[:, 0] = p.S
    K[:, 1] = flats[:, :r**3].reshape(n, r, r, r)
    Kf = K.reshape(n, 2, r**3)
    W = np.empty((n, 3, 2 * r, d))
    W[:, :, :r] = p.factors
    W[:, :, r:] = flats[:, r**3:].reshape(n, 3, r, d)
    P = (W @ W.transpose(0, 1, 3, 2)).reshape(n, 3, 2, r, 2, r)
    # <X_U, X_V> = sum K[uS]_xyz K[vS]_x'y'z' P1[uA x, vA x'] P2[uB y, vB y']
    # P3[uC z, vC z'], contracted over z', y', then x'
    Pm = P.transpose(0, 1, 5, 4, 2, 3).reshape(n, 3, r, 4 * r)
    Y = K.reshape(n, 2 * r * r, r) @ Pm[:, 2]
    Y = Y.reshape(n, 2, r, r, 4 * r).transpose(0, 1, 2, 4, 3).reshape(
        n, -1, r) @ Pm[:, 1]
    Y = Y.reshape(n, 2, r, -1).transpose(0, 1, 3, 2).reshape(
        n, -1, r) @ Pm[:, 0]
    # axes: direction, vS, (vC, uC, z), (vB, uB, y), (vA, uA, x)
    Y = Y.reshape(n, 2, 2, 2, r, 2, 2, r, 2, 2, r).transpose(
        0, 1, 8, 5, 2, 9, 6, 3, 10, 7, 4).reshape(n, 16, 8, r**3)
    KfT = Kf.transpose(0, 2, 1)
    gram = (Y @ KfT[:, None]).transpose(0, 3, 2, 1).reshape(n, 16, 16)
    # D projected onto [M; dM] in every mode, then against S and dS; the
    # mode-3 product takes every direction's factors in one (d^2, d) @
    # (d, n 2r) product
    E = (D.reshape(d * d, d) @ W[:, 2].transpose(2, 0, 1).reshape(
        d, n * 2 * r)).reshape(d, d, n, 2 * r).transpose(2, 0, 1, 3)
    E = W[:, 1, None] @ E
    E = W[:, 0] @ E.reshape(n, d, 4 * r * r)
    E = E.reshape(n, 2, r, 2, r, 2, r).transpose(0, 1, 3, 5, 2, 4, 6)
    proj = (E.reshape(n, 8, r**3) @ KfT).transpose(0, 2, 1).reshape(n, 16)
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


def sign_step_values(p: FactorPoint, T: np.ndarray, deltas, patterns, grid,
                     lam: float | None = None,
                     at: ObjectiveReport | None = None) -> np.ndarray:
    """f(p + t * (s o delta)) for every delta of the sequence `deltas`,
    every sign row s of `patterns` (one sign per block S, A, B, C) and
    every step t of `grid`, as a (len(deltas), len(patterns), len(grid))
    array.

    With a_b = t s_b the residual is D + sum_U c_U X_U, so
    L = L(p) + 2 sum_U c_U <D, X_U> + sum_UV c_U c_V <X_U, X_V>, and each
    Gram gap is quadratic in (a_m, a_S); both come from one `_expansion`
    of all the deltas, and every candidate is then a few small array
    products.  The sum adds terms as large as L(p) and the c_U X_U, so a
    value is accurate to a few ulps of the largest of these, not of itself:
    an exact fit can read 0.0 or a rounding-sized value of either sign.
    The residual at p comes from `at` when it is a report of p.
    """
    if lam is None:
        lam = default_lambda(p.r)
    D = _evaluation(p, T, at)[0][2]
    gram, proj, basis = _expansion(p, deltas, D)
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
    L = (Dv @ Dv + 2.0 * (c @ proj[:, :, None])[:, :, 0]
         + np.einsum("knu,nu->kn", c @ gram, c))
    coef = np.empty((3, len(a), 5))
    coef[:, :, 0] = 1.0
    coef[:, :, 1] = a[:, 1:].T
    coef[:, :, 2] = coef[:, :, 1] ** 2
    coef[:, :, 3] = a[:, 0]
    coef[:, :, 4] = a[:, 0] ** 2
    gaps = coef @ basis
    phi = np.einsum("kmnj,kmnj->kn", gaps, gaps)
    return (L + lam * (phi * phi)).reshape(len(deltas), len(patterns),
                                           len(grid))


def _active_blocks(direction: ImprovementDirection) -> tuple[int, ...]:
    return tuple(i for i, blk in enumerate(direction.delta.blocks())
                 if np.any(blk != 0.0))


def sign_flip_search(p: FactorPoint, T: np.ndarray, directions, grid,
                     lam: float | None = None,
                     at: ObjectiveReport | None = None
                     ) -> list[SignSearchResult]:
    """For each of `directions`, try every sign pattern of its nonzero
    blocks over the step grid and keep the best objective value; returns
    one result per direction, in order.

    The directions must share their nonzero blocks (a ValueError
    otherwise), so that they share the sign patterns.  All candidates of
    all directions are scored together by `sign_step_values`, which
    expands f along the directions once instead of evaluating f at each
    candidate.  f and the residual at p come from `at` when it is a report
    of p (taken with the same T and lam), and otherwise from one
    `objective` call.  A direction's candidates are ranked in the order
    of a loop over the patterns (the k-th active block flipped when bit k
    of the pattern number is set), then over the grid: the first smallest
    value wins, NaN never, and it must be strictly below f at p.  Never
    returns a step that makes f worse: if nothing improves, the result
    has step 0 and improvement 0.  `evals` counts the objective values
    computed for the direction, and where the call made the `objective`
    call at p the first result also counts it, so the results' evals add
    up to the call's.
    """
    directions = list(directions)
    if not directions:
        raise ValueError("no directions to score")
    active = _active_blocks(directions[0])
    if any(_active_blocks(q) != active for q in directions[1:]):
        raise ValueError("the directions' nonzero blocks differ")
    if not active:
        raise NoDirection("direction is identically zero")
    baseline = at is None or at.point is not p
    if baseline:
        at = objective(p, T, lam)
    f0 = at.f
    patterns = np.ones((2 ** len(active), 4))
    bits = np.arange(len(patterns))
    for pos, i in enumerate(active):
        patterns[bits >> pos & 1 == 1, i] = -1.0
    grid = np.asarray(grid, dtype=float)
    values = sign_step_values(p, T, [q.delta for q in directions], patterns,
                              grid, lam, at)
    # NaN never wins, as it never compares smaller
    ranked = np.where(np.isnan(values), np.inf, values).reshape(
        len(directions), -1)
    out = []
    for k, direction in enumerate(directions):
        best = int(np.argmin(ranked[k])) if grid.size else 0
        step, f_after = 0.0, f0
        if grid.size and ranked[k, best] < f0:
            row, col = divmod(best, len(grid))
            signed = FactorPoint(*(s * blk for s, blk in
                                   zip(patterns[row].tolist(),
                                       direction.delta.blocks())))
            direction = replace(direction, delta=signed)
            step, f_after = float(grid[col]), float(ranked[k, best])
        out.append(SignSearchResult(
            direction=direction, step=step, improvement=f0 - f_after,
            evals=values[k].size + (k == 0 and baseline)))
    return out


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
                                kind="remove-extraneous")


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

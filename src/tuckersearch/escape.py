"""Escape directions at approximate second-order stationary points.

Near a stationary point the loss can hide improvement in directions the
factors do not yet span.  Indexing each mode by 1 (inside the large part of
the factor's singular split) or 2 (in the complement), a block label
ijk in {1, 2}^3 names where a candidate rank-one update lives.  For each
label with at least two 2s the sampler draws, through the split's maps,

    a, b, c: unit ambient vectors, uniform in the ambient complement, for
             index 2;
    u, v, w: unit coefficient vectors; uniform in the coefficient
             complement for index 2, or for index 1 the normalized
             preimage, under the large part's transpose, of a direction
             uniform in its ambient span,

and the direction updates the core by u x v x w plus each index-2 factor by
the outer product of its coefficient and ambient vectors.  Because every
piece multiplies at least one other piece of the same update, the objective
change along the direction starts at order 3 or 4 in the step size for two
or three missing modes; a short sign-and-magnitude sweep then finds a
strictly improving step whenever the relevant residual block is large
enough.  With one mode missing the change starts at order 2: that is
negative curvature, which the driver's Lanczos probe finds, so no label
with a single 2 is drawn.  The sweep's steps are 13 log-spaced sizes
around SIGMA^(1/4) for two missing modes and SIGMA^(1/8) for three, where
the leading improvement term dominates; so a direction's grid is fixed by
the blocks it moves, the core and two or three factors.

The sign search scores a direction without evaluating f at each
candidate.  A candidate moves block b of (S, A, B, C) by t s_b, and
S(A, B, C) is multilinear, so f along it is a polynomial of degree 8 in
t: the fit term sums t^(|U| + |V|) times the Gram entries <X_U, X_V> and
t^|U| times the products <D, X_U> of the subset transforms X_U, each
signed by the product of the signs over U and V; each Gram gap is
quadratic in t, so phi has degree 4 and R = phi^2 degree 8.  Its
coefficients for all 16 sign patterns are fixed linear maps of these
r x r or r^3 sized products, which are formed for a whole stack of
directions at once, the directions on a leading axis; every (sign
pattern, step) candidate is then one small matrix product.

The zero point needs no sign search.  There every block of the point is
zero, so only the label (2,2,2) draws, every X_U but X_{SABC} = X_d
vanishes, and each Gram gap is t^2 times the direction's own.  With
u = t^4 and s the product of the four signs,

    f = |T|^2 - 2 s u <T, X_d> + u^2 (|X_d|^2 + lam phi(d)^2),

a quadratic in u in which a flipped block flips only the middle term, so
at the zero point the sign search takes each direction's exact best step
in closed form from the draws' own transforms and Gram gaps, and scores
no grid.

An escape round of the driver is one pass over its block labels: one
sampler call draws every label's samples, in the stream order of a loop
over the labels, and one sign search scores them all, from one expansion
of every draw and one evaluation of every draw's polynomial.
"""
from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .objective import ObjectiveReport, objective
from .subspace import SubspaceSplit
from .tensor_core import FactorPoint


# the singular value threshold of the escape's split, fixed in place of the
# paper's cascade
SIGMA = 0.05
# the step grid of a direction by its count of missing modes (see the
# module docstring)
_GRIDS = {n: np.geomspace(center / 100.0, center * 100.0, 13)
          for n, center in ((2, SIGMA ** 0.25), (3, SIGMA ** 0.125))}


def _unit(X: np.ndarray) -> np.ndarray:
    """Each vector along the last axis of X over its norm, with the
    arithmetic of np.linalg.norm(X, axis=-1)."""
    return X / np.sqrt(np.add.reduce(X * X, axis=-1, keepdims=True))


# the block labels, the labels in {1, 2}^3 with at least two 2s: a label
# with a single 2 gains at second order, where the curvature probe looks
SAMPLED_BLOCKS = ((1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2))


def _label(ijk) -> tuple[int, int, int]:
    if not (isinstance(ijk, Sequence) and len(ijk) == 3
            and all(isinstance(x, numbers.Integral) for x in ijk)
            and tuple(ijk) in SAMPLED_BLOCKS):
        raise ValueError(f"block label must be three integers in {{1,2}} "
                         f"with at least two 2s, got {ijk!r}")
    return tuple(map(int, ijk))


def _missing(splits: SubspaceSplit, ijk) -> bool:
    """Whether the label ijk has an empty sampling subspace: index 1 of a
    mode without a large part, or index 2 of one with no unused
    coefficient rows or ambient directions."""
    r, d = splits.coef.shape[-1], splits.amb.shape[-1]
    return any(k == 0 if idx == 1 else k in (r, d)
               for k, idx in zip(splits.ranks, ijk))


def sample_missing_directions(splits: SubspaceSplit, labels,
                              rng: np.random.Generator, size: int):
    """Draw `size` rank-one updates for each block label of the sequence
    `labels` that has directions at the split; returns (drawn, flats),
    the tuple of the labels drawn, in order, and the (len(drawn), size,
    r^3 + 3 r d) stack of their flat vectors, in draw order.

    One rng.standard_normal((len(drawn), size, 3, d + r)) call gives each
    draw, mode by mode, a normal ambient vector g (d wide) and then a
    normal coefficient vector h (r wide).  Mode m's coefficient vector is
    unit(coef[m, i - 1] h) for index i: uniform in the complement for
    index 2, and for index 1 the preimage of unit(u1 v1^T h), uniform in
    the large part's ambient span, for which m1^T u = c a with c >=
    min(s1) > sigma.  An index-2 mode's ambient vector is unit(amb[m] g);
    an index-1 mode's g is drawn and left unused.

    The core moves by u x v x w.  Each index-2 factor moves by the outer
    product of its coefficient and ambient vectors.

    Each label must be a sequence of three integers in {1, 2} with at
    least two 2s (a ValueError, before drawing anything, otherwise).  A
    label with an empty subspace, e.g. a complement direction of a factor
    that already uses all r of its rows, is left out and draws nothing,
    so several labels draw as calls of one label each would, in order.
    """
    drawn = tuple(label for label in map(_label, labels)
                  if not _missing(splits, label))
    n, L = int(size), len(drawn)
    r, d = splits.coef.shape[-1], splits.amb.shape[-1]
    # axes: mode, label, draw, column
    Z = rng.standard_normal((L, n, 3, d + r)).transpose(2, 0, 1, 3)
    index = np.array(drawn, dtype=int).reshape(L, 3).T - 1
    coeff = _unit(Z[..., d:] @ splits.coef[np.arange(3)[:, None], index])
    flats = np.zeros((L, n, r**3 + 3 * r * d))
    flats[..., :r**3] = np.einsum(
        "nx,ny,nz->nxyz", *coeff.reshape(3, L * n, r)).reshape(
            L, n, r**3)
    # only the index-2 modes normalize their ambient draw: an index-1
    # mode's complement can be {0}, whose draw would normalize to NaN
    two = index == 1
    a = _unit(Z[..., :d][two] @ splits.amb[np.nonzero(two)[0]])
    mats = flats[..., r**3:].reshape(L, n, 3, r, d).transpose(2, 0, 1, 3, 4)
    mats[two] = coeff[two][..., None] * a[..., None, :]
    return drawn, flats


@dataclass(frozen=True, eq=False)
class SignSearchResults:
    """The sign searches of L stacks of m directions, kept as arrays over
    the directions in order: each one's step (0 where it takes none), its
    flat vector signed as the step takes it, its improvement and the
    objective values computed for it.  `best` and `apply` pick the winner
    and build only its point."""
    point: FactorPoint
    steps: np.ndarray
    deltas: np.ndarray
    improvements: np.ndarray
    evals: np.ndarray

    def best(self) -> int:
        """The first direction of the largest improvement."""
        return int(np.argmax(self.improvements))

    def apply(self, k: int) -> FactorPoint:
        """The point moved by direction k's step."""
        p = self.point
        return p._like(p.flat + self.steps[k] * self.deltas[k])


# `_expansion` forms the Gram matrix with its sign bits in the order
# (vS, vC, uC, vB, uB, uS, vA, uA); this takes them to (uS, uA, uB, uC, vS,
# vA, vB, vC), the order of U = 8 uS + 4 uA + 2 uB + uC and then of V
_GRAM_BITS = np.arange(256).reshape((2,) * 8).transpose(
    5, 7, 4, 2, 0, 6, 3, 1).ravel()


def _expansion(p: FactorPoint, stacks: np.ndarray, D: np.ndarray):
    """Coefficients of f along the moves (a_S dS, a_A dA, a_B dB, a_C dC),
    for each of the n = L m directions of the (L, m, size) stack `stacks`
    of L stacks of m flat vectors, the directions in order on a leading
    axis.

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
    into (U, V) order.  Every product takes each direction on its own,
    but the first of the residual's: it takes each stack's directions in
    one product, so a stack's results are those of a call on it alone,
    bit for bit.
    """
    r, d = p.r, p.d
    L, m = stacks.shape[:2]
    flats = stacks.reshape(L * m, -1)
    n = len(flats)
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
    # mode-3 product takes each stack's factors in one (d^2, d) @
    # (d, m 2r) product
    Ws = W.reshape(L, m, 3, 2 * r, d)
    E = (D.reshape(d * d, d) @ Ws[:, :, 2].transpose(0, 3, 1, 2).reshape(
        L, d, m * 2 * r)).reshape(L, d, d, m, 2 * r).transpose(0, 3, 1, 2, 4)
    E = Ws[:, :, 1, None] @ E
    E = W[:, 0] @ E.reshape(n, d, 4 * r * r)
    E = E.reshape(n, 2, r, 2, r, 2, r).transpose(0, 1, 3, 5, 2, 4, 6)
    proj = (E.reshape(n, 8, r**3) @ Kf.transpose(0, 2, 1)).transpose(
        0, 2, 1).reshape(n, 16)
    # Gram gaps: M M^T from P, S_(m) S_(m)^T from the stacked unfoldings
    F = np.empty((n, 3, 2, r, r, r))
    F[:, 0] = K
    F[:, 1] = K.transpose(0, 1, 3, 2, 4)
    F[:, 2] = K.transpose(0, 1, 4, 2, 3)
    F = F.reshape(n, 3, 2 * r, r * r)
    Q = (F @ F.transpose(0, 1, 3, 2)).reshape(n, 3, 2, r, 2, r)
    basis = np.stack((P[:, :, 0, :, 0] - Q[:, :, 0, :, 0],
                      P[:, :, 0, :, 1] + P[:, :, 1, :, 0], P[:, :, 1, :, 1],
                      -(Q[:, :, 0, :, 1] + Q[:, :, 1, :, 0]),
                      -Q[:, :, 1, :, 1]), axis=2).reshape(n, 3, 5, r * r)
    return gram[:, 1:, 1:], proj[:, 1:], basis


# the sign patterns, one sign per block (S, A, B, C): bit b of the pattern
# number flips block b
_PATTERNS = 1.0 - 2.0 * (np.arange(16)[:, None] >> np.arange(4) & 1)


def _polynomial_tables():
    """The constant tables of `_coefficients`: FIT takes (<D, X_U>,
    <X_U, X_V>) to the fit term's t^0 ... t^8 for each pattern, PHI each
    mode's 5 x 5 Gram of its gap basis to phi's t^0 ... t^4, and SQUARE
    the outer product of phi's coefficients with themselves to R's."""
    # block b is in subset U = 8 uS + 4 uA + 2 uB + uC where bit 3 - b is
    # set; signs[s, U] is the product of pattern s's signs over U
    members = np.arange(16)[:, None] >> np.arange(3, -1, -1) & 1
    signs = np.where(members, _PATTERNS[:, None], 1.0).prod(axis=2)[:, 1:]
    size = members.sum(axis=1)[1:]
    degree = np.eye(9)
    fit = np.concatenate((
        2.0 * np.einsum("su,uk->usk", signs, degree[size]),
        np.einsum("su,sv,uvk->uvsk", signs, signs,
                  degree[np.add.outer(size, size)]).reshape(225, 16, 9)))
    # the gap of mode m is sum_j e_j B_j with e = (1, a_m, a_m^2, a_S,
    # a_S^2) and a_b = t s_b, so e_j is a sign times t^power[j]
    gap_signs = np.stack(np.broadcast_arrays(
        1.0, _PATTERNS[:, 1:], 1.0, _PATTERNS[:, :1], 1.0), axis=2)
    power = np.array([0, 1, 2, 1, 2])
    phi = np.einsum("smj,smi,jik->mjisk", gap_signs, gap_signs,
                    degree[np.add.outer(power, power), :5])
    return (fit.reshape(240, 144), phi.reshape(75, 80),
            degree[np.add.outer(np.arange(5), np.arange(5))].reshape(25, 9))


_FIT, _PHI, _SQUARE = _polynomial_tables()


def _coefficients(at: ObjectiveReport, gram, proj, basis) -> np.ndarray:
    """The coefficients of f(p + t s o d) in t^0 ... t^8 for L stacks of m
    directions d and each sign pattern s of `_PATTERNS`, as an (L, m, 16,
    9) array, from the directions' `_expansion` (gram, proj and basis, with
    (L, m) leading axes) and the report `at` of p.  With a_b = t s_b the
    fit term is L(p) + 2 sum_U c_U <D, X_U> + sum_UV c_U c_V <X_U, X_V>,
    c_U the product of a_b over U, and the constant tables take it and the
    gap basis's Grams to the coefficients a stack at a time, so a stack's
    are those of a call on it alone, bit for bit; t^0 is f at p."""
    L, m = proj.shape[:2]
    fit = np.concatenate((proj, gram.reshape(L, m, 225)), axis=2) @ _FIT
    G = basis @ basis.swapaxes(-1, -2)
    phi = (G.reshape(L, m, 75) @ _PHI).reshape(L, m * 16, 5)
    R = (phi[..., None] * phi[..., None, :]).reshape(L, m * 16, 25) @ _SQUARE
    coef = (fit.reshape(L, m * 16, 9) + at.lam * R).reshape(L, m, 16, 9)
    coef[..., 0] = at.f
    return coef


def _candidate_values(at: ObjectiveReport, gram, proj, basis,
                      grids: np.ndarray) -> np.ndarray:
    """f at every (pattern, step) candidate of L stacks of m directions, as
    an (L, m, 16, steps) array: each direction's `_coefficients` on the
    steps of its stack's row of the (L, steps) `grids`."""
    return _coefficients(at, gram, proj, basis) @ (
        grids[:, None, None] ** np.arange(9)[:, None])


def sign_flip_search(p: FactorPoint, T: np.ndarray, flats: np.ndarray,
                     lam: float | None = None,
                     at: ObjectiveReport | None = None
                     ) -> SignSearchResults:
    """For each direction of the (L, m, size) stack `flats` of L stacks of
    m flat vectors, try every sign pattern of its nonzero blocks over its
    step grid and keep the best objective value; returns the results of
    the L m directions, stack by stack.

    The directions of a stack must share their nonzero blocks, the core
    and two or three factors (a ValueError otherwise), so that they share
    the step grid.  One `_expansion` expands f along all the directions,
    instead of evaluating f at each candidate, and each direction's
    degree-8 polynomial in the step (`_coefficients`) is evaluated on its
    stack's grid.  f and the residual at p come from `at` when it is a
    report of p (taken with the same T and lam), and otherwise from one
    `objective` call.  A direction's candidates are ranked in the order of
    a loop over the 16 sign patterns (bit b of the pattern number flips
    block b of (S, A, B, C)), then over the grid: the first smallest value
    wins, NaN never, and it must be strictly below f at p.  A pattern that
    flips a block the direction leaves at zero scores exactly as its twin
    that does not, which comes first, so it never wins.  At the zero point
    each direction takes its exact best step in closed form instead (see
    `_zero_point_search`).  Never returns a step that makes f worse: if
    nothing improves, the result has step 0, improvement 0 and the
    unsigned direction.  `evals` counts the objective values computed for
    each direction, its 13 2^k distinct candidates for k moved blocks, and
    where the call made the `objective` call at p the first direction also
    counts it, so the evals add up to the call's.
    """
    L, m, size = flats.shape
    if not L * m:
        raise ValueError("no directions to score")
    r3, rd = p.r**3, p.r * p.d
    sizes = (r3, rd, rd, rd)
    # per stack, one row per direction, one column per block: is any entry
    # nonzero?
    nonzero = np.logical_or.reduceat(
        flats != 0.0, [0, r3, r3 + rd, r3 + 2 * rd], axis=2)
    if (nonzero != nonzero[:, :1]).any():
        raise ValueError("the directions' nonzero blocks differ")
    counts = nonzero[:, 0].sum(axis=1)
    if not (nonzero[:, 0, 0].all() and (counts > 2).all()):
        raise ValueError("a direction must move the core and two or three "
                         "factors")
    baseline = at is None or at.point is not p
    if baseline:
        at = objective(p, T, lam)
    if p.flat.any():
        steps, signs, improvements, evals = _grid_search(at, flats, counts)
    else:
        steps, signs, improvements, evals = _zero_point_search(at, flats)
    evals[0] += baseline
    return SignSearchResults(
        point=p, steps=steps, improvements=improvements, evals=evals,
        deltas=np.repeat(signs, sizes, axis=1) * flats.reshape(-1, size))


def _grid_search(at: ObjectiveReport, flats: np.ndarray, counts):
    """The sign search of `sign_flip_search` on the step grids, away from
    the zero point, of stacks that move counts[l] blocks: per direction,
    in order, its step, its signs (one per block S, A, B, C), its
    improvement and its count of values."""
    L, m, _ = flats.shape
    gram, proj, basis = (x.reshape((L, m) + x.shape[1:]) for x in
                         _expansion(at.point, flats, at.stages[2]))
    grids = np.array([_GRIDS[k - 1] for k in counts.tolist()])
    values = _candidate_values(at, gram, proj, basis, grids)
    # NaN never wins, as it never compares smaller
    ranked = np.where(np.isnan(values), np.inf, values).reshape(L, m, -1)
    candidate = ranked.argmin(axis=2)
    f_best = ranked.min(axis=2)
    steps = np.take_along_axis(grids, candidate % grids.shape[1], axis=1)
    signs = _PATTERNS[candidate // grids.shape[1]]
    won = f_best < at.f
    return (np.where(won, steps, 0.0).ravel(),
            np.where(won[..., None], signs, 1.0).reshape(-1, 4),
            (at.f - np.where(won, f_best, at.f)).ravel(),
            np.repeat(grids.shape[1] << counts, m))


def _zero_point_search(at: ObjectiveReport, flats: np.ndarray):
    """The exact best step along each direction of the (L, m, size) stack
    `flats` from the zero point of the report `at`, in closed form, as
    `_grid_search` returns its results: each direction with one objective
    value.

    At p = 0 every block of the point is zero, so along t d, with
    X_d = S_d(A_d, B_d, C_d) and u = t^4,

        f(t d) = |T|^2 - 2 u b + u^2 q,   b = <T, X_d>,
                 q = |X_d|^2 + lam phi(d)^2,

    since the transform is multilinear in the four blocks and each Gram gap
    quadratic in its mode's block and the core's.  Flipping the sign of any
    block flips the sign of b alone, so the best step takes the core
    flipped where b < 0, u* = |b| / q and t = u*^(1/4), and gains b^2 / q.
    X_d and the Gram gaps of d are formed for all the directions at once,
    one batched product per mode, and b is minus the product of the
    residual -T with X_d.  A direction that gains nothing takes step 0."""
    r, d, n = at.point.r, at.point.d, flats.shape[0] * flats.shape[1]
    S = flats[..., :r**3].reshape(n, r, r, r)
    M = flats[..., r**3:].reshape(n, 3, r, d)
    # X_d by modes 3, 2 and 1, as `tensor_core._transform` takes them
    X = (S.reshape(n, r * r, r) @ M[:, 2]).reshape(n, r, r, d)
    X = M[:, 1, None].swapaxes(2, 3) @ X
    X = (M[:, 0].swapaxes(1, 2) @ X.reshape(n, r, d * d)).reshape(n, -1)
    b = -(X @ at.stages[2].ravel())
    F = np.stack((S, S.transpose(0, 2, 1, 3), S.transpose(0, 3, 1, 2)),
                 axis=1).reshape(n, 3, r, r * r)
    gaps = M @ M.swapaxes(2, 3) - F @ F.swapaxes(2, 3)
    phi = np.einsum("nmij,nmij->n", gaps, gaps)
    q = np.einsum("nx,nx->n", X, X) + at.lam * phi * phi
    gains = b * b / q
    won = gains > 0.0
    # pattern 1 flips the core alone
    signs = _PATTERNS[np.where(won & (b < 0.0), 1, 0)]
    return (np.where(won, (np.abs(b) / q) ** 0.25, 0.0), signs,
            np.where(won, gains, 0.0), np.ones(n, dtype=int))

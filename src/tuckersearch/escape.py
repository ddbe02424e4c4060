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
products.

The zero point needs no sign search.  There every block of the point is
zero, so only the label (2,2,2) draws, every X_U but X_{SABC} = X_d
vanishes, and each Gram gap is a_m^2 and a_S^2 times the direction's own.
With a_b = t s_b, u = t^4 and s the product of the four signs,

    f = |T|^2 - 2 s u <T, X_d> + u^2 (|X_d|^2 + lam phi(d)^2),

a quadratic in u in which a flipped block flips only the middle term, so
`zero_point_search` takes each direction's exact best step in closed form
from one expansion of the draws.

An escape round of the driver is one pass over its block labels: one
sampler call draws every label's samples, in the stream order of a loop
over the labels, and one sign search scores them all, from one expansion
of every draw and one scoring of each step grid's labels together; at the
zero point `zero_point_search` scores them instead.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .objective import ObjectiveReport, objective
from .subspace import SubspaceSplit
from .tensor_core import FactorPoint


class NoMissingDirection(Exception):
    """The requested block has an empty sampling subspace."""


def _unit(X: np.ndarray) -> np.ndarray:
    """Each vector along the last axis of X over its norm, with the
    arithmetic of np.linalg.norm(X, axis=-1)."""
    return X / np.sqrt(np.add.reduce(X * X, axis=-1, keepdims=True))


# the block labels in {1, 2}^3 with at least two 2s
_LABELS = frozenset(((1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)))


def _label(ijk) -> tuple[int, int, int]:
    ijk = tuple(map(int, ijk))
    if ijk not in _LABELS:
        raise ValueError(f"block label must be in {{1,2}}^3 with at least "
                         f"two 2s, got {ijk}")
    return ijk


def _missing(splits: SubspaceSplit, ijk) -> str | None:
    """Why the label ijk has an empty sampling subspace, or None."""
    r, d = splits.V.shape[1], splits.U.shape[1]
    for m, (k, idx) in enumerate(zip(splits.ranks, ijk)):
        if idx == 1 and k == 0:
            reason = f"no singular values above {splits.sigma}"
        elif idx == 2 and k == r:
            reason = "no unused coefficient rows (rank1 = r)"
        elif idx == 2 and k == d:
            reason = "no unused ambient directions"
        else:
            continue
        return f"mode {m + 1}: {reason}"
    return None


def sample_missing_directions(splits: SubspaceSplit, ijk,
                              rng: np.random.Generator, size: int):
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

    ijk may also be a sequence of labels.  Then a label with an empty
    subspace is left out, and the others draw as a loop of one-label calls
    would, in order, from one rng.standard_normal call of their joint
    length; the result is (drawn, flats), the tuple of the labels drawn
    and the (len(drawn), size, r^3 + 3 r d) stack of their draws.  Each
    step of the construction takes the labels that share it together, in
    stacks with the labels on a leading axis, whose arithmetic is that of
    the one-label calls, bit for bit.
    """
    several = len(ijk) > 0 and hasattr(ijk[0], "__len__")
    drawn = []
    for label in map(_label, ijk if several else (ijk,)):
        reason = _missing(splits, label)
        if reason is None:
            drawn.append(label)
        elif not several:
            raise NoMissingDirection(reason)
    n, labels = int(size), len(drawn)
    r, d = splits.V.shape[1], splits.U.shape[1]
    # the slots (label, mode) of each index, grouped with the mode's rank
    # k; a slot's pieces are columns of its label's draw, mode by mode: w
    # (k wide) for index 1, u (d - k) then v (r - k) for index 2
    slots, widths = {}, []
    for i, ijk in enumerate(drawn):
        col = 0
        for m, (k, idx) in enumerate(zip(splits.ranks, ijk)):
            slots.setdefault((idx, k), []).append((i, m, col))
            col += k if idx == 1 else d + r - 2 * k
        widths.append(col)
    Z = rng.standard_normal(n * sum(widths))
    draws, end = [], 0
    for k in widths:
        draws.append(Z[end:end + n * k].reshape(n, k))
        end += n * k

    def units(group, shift, width):
        # the pieces `width` wide at `shift` past each slot's column,
        # normalized, as a (len(group), n, width) stack
        out = np.concatenate([draws[i][:, c + shift:c + shift + width]
                              for i, _, c in group])
        return _unit(out.reshape(len(group), n, width))

    flats = np.zeros((labels, n, r**3 + 3 * r * d))
    mats = flats[..., r**3:].reshape(labels, n, 3, r, d)
    coeff = np.empty((3, labels, n, r))
    # each group's products take every slot's bases from the stacks, each
    # as the one-label construction takes them: v1^T, v2^T as transposed
    # views of V's columns, and u2^T as rows of U^T
    for (idx, k), group in slots.items():
        i, m = np.array([g[:2] for g in group]).T
        V = splits.V[m].transpose(0, 2, 1)
        if idx == 1:
            w = units(group, 0, k) / splits.s[m, None, :k]
            coeff[m, i] = _unit(w @ V[:, :k])
        else:
            a = units(group, 0, d - k) @ splits.U.transpose(0, 2, 1)[m][:, k:]
            coeff[m, i] = b = units(group, d - k, r - k) @ V[:, k:]
            mats[i, :, m] = b[..., None] * a[:, :, None]
    flats[..., :r**3] = np.einsum(
        "nx,ny,nz->nxyz", *coeff.reshape(3, labels * n, r)).reshape(
            labels, n, r**3)
    return (tuple(drawn), flats) if several else flats[0]


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


@dataclass(frozen=True, eq=False)
class SignSearchResults(Sequence):
    """The sign searches of L stacks of m directions, kept as arrays over
    the directions in order: the unsigned flat vectors, whether each took
    a step, its improvement, the objective values computed for it, and
    the index of its best candidate among its stack's (sign pattern, step)
    candidates, pattern-major; tables[k // m] holds the patterns and the
    grid of direction k's stack.  Indexing builds one direction's
    SignSearchResult; `best` and `apply` pick the winner and build only
    its point."""
    point: FactorPoint
    deltas: np.ndarray
    won: np.ndarray
    improvements: np.ndarray
    evals: np.ndarray
    candidate: np.ndarray
    tables: tuple

    def __len__(self) -> int:
        return len(self.deltas)

    def step(self, k: int) -> float:
        """Direction k's step, 0 where it takes none."""
        if not self.won[k]:
            return 0.0
        _, grid = self.tables[k * len(self.tables) // len(self)]
        return float(grid[self.candidate[k] % len(grid)])

    def _delta(self, k: int) -> np.ndarray:
        if not self.won[k]:
            return self.deltas[k]
        patterns, grid = self.tables[k * len(self.tables) // len(self)]
        sizes = (self.point.r**3,) + (self.point.r * self.point.d,) * 3
        return (np.repeat(patterns[self.candidate[k] // len(grid)], sizes)
                * self.deltas[k])

    def __getitem__(self, k: int) -> SignSearchResult:
        k = range(len(self))[k]
        return SignSearchResult(
            delta=self.point._like(self._delta(k)), step=self.step(k),
            improvement=float(self.improvements[k]),
            evals=int(self.evals[k]))

    def best(self) -> int:
        """The first direction of the largest improvement."""
        return int(np.argmax(self.improvements))

    def apply(self, k: int) -> FactorPoint:
        """The point moved by direction k's step, as the result's `apply`
        forms it."""
        p = self.point
        return p._like(p.flat + self.step(k) * self._delta(k))


# `_expansion` forms the Gram matrix with its sign bits in the order
# (vS, vC, uC, vB, uB, uS, vA, uA); this takes them to (uS, uA, uB, uC, vS,
# vA, vB, vC), the order of U = 8 uS + 4 uA + 2 uB + uC and then of V
_GRAM_BITS = np.arange(256).reshape((2,) * 8).transpose(
    5, 7, 4, 2, 0, 6, 3, 1).ravel()


def _expansion(p: FactorPoint, flats: np.ndarray, D: np.ndarray):
    """Coefficients of f along the moves (a_S dS, a_A dA, a_B dB, a_C dC),
    for each of the n directions whose flat vectors are the rows of
    `flats`, the directions on a leading axis.  `flats` may also be an
    (L, m, size) stack of L stacks of m directions; the results then list
    its n = L m directions in order.

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
    stacks = flats[None] if flats.ndim == 2 else flats
    L, m = stacks.shape[:2]
    flats = stacks.reshape(-1, flats.shape[-1])
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


def _tables(patterns: np.ndarray, grid: np.ndarray):
    """The candidate tables of the sign patterns (one row of signs per
    pattern) on the step grid, candidates pattern-major: c, whose columns
    1 to 15 are each candidate's c_U (every scoring takes them as that
    view, so its products see one layout); coef, the (1, a_m, a_m^2, a_S,
    a_S^2) of the four sign pairs (s_m, s_S) at each step; and rows,
    where mode m's row of a pattern's pair is 4 m + 2 [s_m < 0] +
    [s_S < 0]."""
    a = (patterns[:, None, :] * grid[:, None]).reshape(-1, 4)
    # c_U for U = 8 uS + 4 uA + 2 uB + uC: each block, from C to S, doubles
    # the subsets with a new leading bit
    c = np.empty((len(a), 16))
    c[:, 0] = 1.0
    for k, col in enumerate(a.T[::-1]):
        c[:, 2**k:2**(k + 1)] = c[:, :2**k] * col[:, None]
    pair = (np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
            [:, None, :] * grid[:, None]).reshape(-1, 2)
    coef = np.empty((len(pair), 5))
    coef[:, 0] = 1.0
    coef[:, 1] = pair[:, 0]
    coef[:, 2] = pair[:, 0] ** 2
    coef[:, 3] = pair[:, 1]
    coef[:, 4] = pair[:, 1] ** 2
    neg = patterns < 0
    return c, coef, np.arange(0, 12, 4) + 2 * neg[:, 1:] + neg[:, :1]


@functools.lru_cache(maxsize=64)
def _search_tables(actives: tuple[tuple[int, ...], ...], grid: bytes):
    """For stacks whose nonzero blocks are the `actives`, each of one
    count, and the step grid with these bytes: the stacked sign patterns,
    the k-th active block flipped when bit k of the pattern number is
    set, and their stacked c (columns 1 to 15), coef and rows of
    `_tables`.  They are built once and shared read-only, as `delta_grid`
    is: every escape round scores the same labels on the same grids."""
    grid = np.frombuffer(grid)
    patterns = np.ones((len(actives), 2 ** len(actives[0]), 4))
    bits = (np.arange(patterns.shape[1])[:, None]
            >> np.arange(len(actives[0])) & 1)
    for i, active in enumerate(actives):
        patterns[i][:, list(active)] = 1.0 - 2.0 * bits
    c, coef, rows = zip(*(_tables(x, grid) for x in patterns))
    out = patterns, np.stack(c)[:, :, 1:], coef[0], np.stack(rows)
    for x in out:
        x.flags.writeable = False
    return out


def _step_values(at: ObjectiveReport, gram, proj, basis, c, coef,
                 rows) -> np.ndarray:
    """f at every candidate of L stacks of m directions that share a step
    grid and a count of sign patterns, as an (L, m, patterns, steps)
    array.  gram, proj and basis are the directions' `_expansion`, with
    (L, m) leading axes, and c (L, candidates, 15), coef and rows
    (L, patterns, 3) each stack's `_tables`.

    With a_b = t s_b the residual is D + sum_U c_U X_U, so
    L = L(p) + 2 sum_U c_U <D, X_U> + sum_UV c_U c_V <X_U, X_V>, and each
    Gram gap is quadratic in (a_m, a_S).  A stack's products take its
    tables as a stack of one would, so its values are those of a call on
    it alone, bit for bit."""
    L = (at.L + 2.0 * (c[:, None] @ proj[..., None])[..., 0]
         + np.einsum("lnku,lku->lnk", c[:, None] @ gram, c))
    # the Gram gap of mode m takes only (a_m, a_S), so it is formed for the
    # four sign pairs (s_m, s_S) = (+, +), (+, -), (-, +), (-, -) at each
    # step, and each pattern gathers its pair's squared norm per mode
    gaps = coef @ basis
    sq = np.einsum("lkmnj,lkmnj->lkmn", gaps, gaps).reshape(
        gaps.shape[:2] + (12, -1))
    # summing the modes in order keeps phi bit-equal to one einsum over
    # (m, j) of every pattern's gaps
    phi = sq[np.arange(len(rows))[:, None, None, None],
             np.arange(sq.shape[1])[:, None, None], rows[:, None]]
    phi = phi[:, :, :, 0] + phi[:, :, :, 1] + phi[:, :, :, 2]
    return (L + at.lam * (phi * phi).reshape(L.shape)).reshape(phi.shape)


def sign_step_values(at: ObjectiveReport, deltas, patterns,
                     grid) -> np.ndarray:
    """f(p + t * (s o delta)) at the point p and weight lam of the report
    `at`, for every delta of `deltas`, every sign row s of `patterns` (one
    sign per block S, A, B, C) and every step t of `grid`, as a
    (len(deltas), len(patterns), len(grid)) array.  `deltas` is the stack
    of the directions' flat vectors, one per row.

    The values come from one `_expansion` of all the deltas and one
    `_step_values` call, the scoring a sign search makes.  The sum adds
    terms as large as L(p) and the c_U X_U, so a value is accurate to a
    few ulps of the largest of these, not of itself: an exact fit can read
    0.0 or a rounding-sized value of either sign.
    """
    c, coef, rows = _tables(np.asarray(patterns, dtype=float),
                            np.asarray(grid, dtype=float))
    gram, proj, basis = _expansion(at.point, deltas, at.stages[2])
    return _step_values(at, gram[None], proj[None], basis[None],
                        c[None, :, 1:], coef, rows[None])[0]


def sign_flip_search(p: FactorPoint, T: np.ndarray, deltas: np.ndarray,
                     grid, lam: float | None = None,
                     at: ObjectiveReport | None = None
                     ) -> SignSearchResults:
    """For each direction, a row of the stack `deltas` of flat vectors,
    try every sign pattern of its nonzero blocks over the step grid and
    keep the best objective value; returns the results of the directions,
    in order.

    The directions must share their nonzero blocks, at least one of them
    (a ValueError otherwise), so that they share the sign patterns.
    `deltas` may also be an (L, m, size) stack of L such stacks, one per
    block label, and `grid` one grid per stack; the results then list the
    L m directions stack by stack.  One `_expansion` expands f along all
    the directions, instead of evaluating f at each candidate, and the
    stacks of one grid and one count of sign patterns are scored by one
    `_step_values` call.  f and the residual at p come from `at` when it
    is a report of p (taken with the same T and lam), and otherwise from
    one `objective` call.  A direction's candidates are ranked in the
    order of a loop over the patterns (the k-th active block flipped when
    bit k of the pattern number is set), then over the grid: the first
    smallest value wins, NaN never, and it must be strictly below f at p.
    Never returns a step that makes f worse: if nothing improves, the
    result has step 0, improvement 0 and the unsigned direction.  `evals`
    counts the objective values computed for each direction, and where
    the call made the `objective` call at p the first direction also
    counts it, so the evals add up to the call's.
    """
    stacks = deltas[None] if deltas.ndim == 2 else deltas
    L, m, size = stacks.shape
    if not L * m:
        raise ValueError("no directions to score")
    grids = np.asarray(grid, dtype=float)
    if grids.shape[:-1] != (L,):
        # one grid for all stacks; a count of grids that is not L raises
        grids = np.broadcast_to(grids, (L, grids.shape[-1]))
    sizes = (p.r**3,) + (p.r * p.d,) * 3
    # per stack, one row per direction, one column per block: is any entry
    # nonzero?
    nonzero = np.logical_or.reduceat(stacks != 0.0,
                                     np.cumsum((0,) + sizes[:3]), axis=2)
    if (nonzero != nonzero[:, :1]).any():
        raise ValueError("the directions' nonzero blocks differ")
    actives = [tuple(b for b, x in enumerate(row) if x)
               for row in nonzero[:, 0].tolist()]
    if not all(actives):
        raise ValueError("the directions are identically zero")
    baseline = at is None or at.point is not p
    if baseline:
        at = objective(p, T, lam)
    f0 = at.f
    gram, proj, basis = (x.reshape((L, m) + x.shape[1:]) for x in
                         _expansion(at.point, stacks, at.stages[2]))
    # each direction's best value, its best candidate and its count
    f_best = np.full((L, m), np.inf)
    candidate = np.zeros((L, m), dtype=int)
    evals = np.empty((L, m), dtype=int)
    tables = [None] * L
    groups = {}
    for i, (active, g) in enumerate(zip(actives, grids)):
        groups.setdefault((g.tobytes(), len(active)), []).append(i)
    for (key, _), ids in groups.items():
        patterns, c, coef, rows = _search_tables(
            tuple(actives[i] for i in ids), key)
        for i, x in zip(ids, patterns):
            tables[i] = x, grids[i]
        # a run of stacks is taken as a view
        at_ids = (slice(ids[0], ids[-1] + 1)
                  if ids[-1] - ids[0] == len(ids) - 1 else ids)
        values = _step_values(at, gram[at_ids], proj[at_ids],
                              basis[at_ids], c, coef, rows)
        evals[at_ids] = values[0, 0].size
        if not values.size:
            continue
        # NaN never wins, as it never compares smaller
        ranked = np.where(np.isnan(values), np.inf, values).reshape(
            len(ids), m, -1)
        candidate[at_ids] = ranked.argmin(axis=2)
        f_best[at_ids] = ranked.min(axis=2)
    won = f_best < f0
    evals[0, 0] += baseline
    return SignSearchResults(
        point=p, deltas=stacks.reshape(-1, size), won=won.ravel(),
        improvements=f0 - np.where(won, f_best, f0).ravel(),
        candidate=candidate.ravel(), tables=tuple(tables),
        evals=evals.ravel())


# the two sign patterns of a zero-point step: as drawn, and the core flipped
_ZERO_POINT_PATTERNS = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0]])
_ZERO_POINT_PATTERNS.flags.writeable = False


def zero_point_search(at: ObjectiveReport,
                      deltas: np.ndarray) -> SignSearchResults:
    """The exact best step along each direction of the stack `deltas`
    (rows of flat vectors, or an (L, m, size) stack of stacks) from the
    zero point of the report `at`, in closed form, as the results of a
    sign search: the directions in order, each with one objective value.

    At p = 0 every block of the point is zero, so along t d, with
    X_d = S_d(A_d, B_d, C_d) and u = t^4,

        f(t d) = |T|^2 - 2 u b + u^2 q,   b = <T, X_d>,
                 q = |X_d|^2 + lam phi(d)^2,

    since the transform is multilinear in the four blocks and each Gram gap
    quadratic in its mode's block and the core's.  Flipping the sign of any
    block flips the sign of b alone, so the best step takes the core
    flipped where b < 0, u* = |b| / q and t = u*^(1/4), and gains b^2 / q.
    b, |X_d|^2 and phi(d) are read off one `_expansion` of the directions:
    b is minus the product of the residual -T with X_U for U = {S, A, B, C},
    |X_d|^2 is that U's Gram entry, and phi(d) is the squared norm of the
    Gram gaps' a_m^2 and a_S^2 pieces, the only ones at p = 0.  Each
    direction's result holds its own one-step grid, t, and the two sign
    patterns, as drawn and with the core flipped; one that gains nothing
    takes step 0."""
    flats = deltas.reshape(-1, deltas.shape[-1])
    gram, proj, basis = _expansion(at.point, flats, at.stages[2])
    b = -proj[:, -1]
    gaps = basis[:, :, 2] + basis[:, :, 4]
    phi = np.einsum("nmj,nmj->n", gaps, gaps)
    q = gram[:, -1, -1] + at.lam * phi * phi
    gains = b * b / q
    won = gains > 0.0
    steps = (np.abs(b) / q) ** 0.25
    return SignSearchResults(
        point=at.point, deltas=flats, won=won,
        improvements=np.where(won, gains, 0.0),
        evals=np.ones(len(flats), dtype=int),
        candidate=(b < 0.0).astype(int),
        tables=tuple((_ZERO_POINT_PATTERNS, steps[k:k + 1])
                     for k in range(len(flats))))

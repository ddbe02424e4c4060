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
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .objective import objective
from .subspace import SubspaceSplit
from .tensor_core import FactorPoint, multilinear_transform


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
    kind: str
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
    return ImprovementDirection(delta=FactorPoint(dS, *mats), kind="sampled",
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


def sign_flip_search(p: FactorPoint, T: np.ndarray,
                     direction: ImprovementDirection, grid,
                     lam: float | None = None) -> SignSearchResult:
    """Try every sign pattern of the direction's nonzero blocks over the
    step grid and keep the best objective value.

    Never returns a step that makes f worse: if nothing improves, the
    result has step 0 and improvement 0.  `evals` counts the objective
    evaluations made, the baseline at p included.
    """
    blocks = direction.delta.blocks()
    active = [i for i, blk in enumerate(blocks) if np.any(blk != 0.0)]
    if not active:
        raise NoDirection("direction is identically zero")
    f0 = objective(p, T, lam).f
    evals = 1
    best = (f0, 0.0, None, direction.delta)
    for bits in range(2 ** len(active)):
        signs = [1.0] * 4
        for pos, i in enumerate(active):
            if bits >> pos & 1:
                signs[i] = -1.0
        signed = FactorPoint(*(s * blk for s, blk in zip(signs, blocks)))
        for step in grid:
            f = objective(p + float(step) * signed, T, lam).f
            evals += 1
            if f < best[0]:
                best = (f, float(step), tuple(int(s) for s in signs), signed)
    f_after, step, pattern, signed = best
    out_dir = replace(direction, delta=signed, sign_pattern=pattern)
    return SignSearchResult(direction=out_dir, step=step,
                            improvement=f0 - f_after, f_before=f0,
                            f_after=f_after, evals=evals)


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
                                kind="remove_extraneous", mode=mode)


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
                                kind="core_fix")

"""Named views of a subspace split and the escape's scoring of chosen
candidates, shared by the escape, subspace and search tests."""
from types import SimpleNamespace

import numpy as np

from tuckersearch.escape import _candidate_values, _expansion


def mode_split(splits, m):
    """Mode m's split of the SubspaceSplit `splits` by its named parts: the
    singular values s1 above the threshold, their count rank1, the
    coefficient bases v1, v2 (in R^r) and the ambient bases u1, u2 (in
    R^d), views into the stacks; the large part is v1 diag(s1) u1^T."""
    k = splits.ranks[m]
    V, U = splits.V[m], splits.U[m]
    return SimpleNamespace(rank1=k, s1=splits.s[m, :k], v1=V[:, :k],
                           v2=V[:, k:], u1=U[:, :k], u2=U[:, k:])


def sign_patterns(active):
    """The sign patterns of the blocks `active` (indices into S, A, B, C)
    in the sign search's order: the k-th active block flipped when bit k
    of the pattern number is set."""
    out = []
    for bits in range(2 ** len(active)):
        signs = [1] * 4
        for pos, i in enumerate(active):
            if bits >> pos & 1:
                signs[i] = -1
        out.append(signs)
    return out


def sign_step_values(at, deltas, patterns, grid) -> np.ndarray:
    """f(p + t * (s o delta)) at the point p and weight lam of the report
    `at`, for every delta of `deltas`, every sign row s of `patterns` (one
    sign per block S, A, B, C) and every step t of `grid`, as a
    (len(deltas), len(patterns), len(grid)) array.  `deltas` is the stack
    of the directions' flat vectors, one per row.

    The values are each delta's degree-8 polynomial in t
    (`escape._coefficients`, from one `_expansion` of all the deltas)
    evaluated on the grid, as the sign search scores a stack of them, and
    each sign row picks its pattern's values.  The polynomial adds terms
    as large as L(p) and the c_U X_U, so a value is accurate to a few ulps
    of the largest of these, not of itself: an exact fit can read 0.0 or a
    rounding-sized value of either sign.
    """
    # pattern k flips block b where bit b of k is set
    rows = [sum(1 << b for b, s in enumerate(signs) if s < 0)
            for signs in patterns]
    gram, proj, basis = _expansion(at.point, deltas[None], at.stages[2])
    return _candidate_values(at, gram[None], proj[None], basis[None],
                             np.asarray(grid, dtype=float)[None])[0][:, rows]

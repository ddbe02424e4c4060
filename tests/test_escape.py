import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersearch.escape import (NoMissingDirection, _expansion, delta_grid,
                                 sample_missing_directions, sign_flip_search,
                                 sign_step_values)
from tuckersearch.objective import eval_along, objective
from tuckersearch.search import SAMPLED_BLOCKS
from tuckersearch.subspace import subspace_split
from tuckersearch.tensor_core import (FactorPoint, multilinear_transform,
                                      norm_f, random_point, trilinear)


def outer3(a, b, c):
    return np.einsum("i,j,k->ijk", a, b, c)


def sampled(splits, ijk, rng, size=1):
    """The sampler's draws, each as the FactorPoint of its flat vector."""
    ms = splits.modes[0]
    template = FactorPoint.zeros(ms.v1.shape[0], ms.u1.shape[0])
    return [template._like(flat) for flat in
            sample_missing_directions(splits, ijk, rng, size)]


def stack(*deltas):
    """The flat vectors of the FactorPoints deltas, one per row."""
    return np.stack([q.flat for q in deltas])


def _generic_setup(seed=229, r=2, d=4, sigma=0.1):
    """Factors with spectra (2.0, 0.01) so every split has a nonempty large
    part and a nonempty complement on both sides."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        U = np.linalg.qr(rng.standard_normal((d, r)))[0]
        mats.append((V * np.array([2.0, 0.01])) @ U.T)
    p = FactorPoint(rng.standard_normal((r, r, r)), *mats)
    T = rng.standard_normal((d, d, d))
    return p, T, subspace_split(p, sigma), rng


# ---------------------------------------------------------------------------
# sampling


def test_sampled_vectors_live_in_their_subspaces():
    # the core moves by u x v x w and an index-2 factor by the outer
    # product of its coefficient and ambient vectors: unit vectors, in the
    # complements for index 2; for index 1 the coefficient is the
    # preimage of an ambient draw in the large span, so m1^T maps it back
    # with multiplier at least sigma
    p, T, splits, rng = _generic_setup()
    for ijk in SAMPLED_BLOCKS:
        for _ in range(3):
            delta, ambient, coeff = draw_with_vectors(splits, ijk, rng)
            assert norm_f(delta.S) == pytest.approx(1.0, abs=1e-12)
            for m, (idx, M) in enumerate(zip(ijk, delta.factors)):
                ms = splits.modes[m]
                Sm = np.moveaxis(delta.S, m, 0).reshape(p.r, -1)
                if idx == 1:
                    assert not M.any()
                    assert np.linalg.norm(ms.v2.T @ Sm) <= 1e-10
                    # m1^T u = c a with c >= sigma, for the sampler's u:
                    # the core's unfolding is u t^T, with t the other two
                    # coefficient vectors' Kronecker product
                    t = np.kron(*(coeff[k] for k in range(3) if k != m))
                    y = large_part(ms).T @ (Sm @ t)
                    c = float(y @ ambient[m])
                    assert c >= splits.sigma
                    np.testing.assert_allclose(y, c * ambient[m],
                                               atol=1e-12)
                else:
                    assert norm_f(M) == pytest.approx(1.0, abs=1e-12)
                    assert np.linalg.norm(ms.v1.T @ Sm) <= 1e-10
                    assert np.linalg.norm(ms.v1.T @ M) <= 1e-10
                    assert np.linalg.norm(M @ ms.u1) <= 1e-10


def test_sampler_raises_when_no_rows_left():
    # factors already use their only coefficient row: nothing to add
    e = np.eye(2)
    p = FactorPoint(np.ones((1, 1, 1)), e[:1], e[:1], e[:1])
    splits = subspace_split(p, sigma=0.5)
    with pytest.raises(NoMissingDirection, match="mode 1"):
        sample_missing_directions(splits, (2, 2, 2),
                                  np.random.default_rng(0), 1)
    # mode 1 admits index 1, mode 2 fails: nothing is drawn
    rng = np.random.default_rng(0)
    state = copy.deepcopy(rng.bit_generator.state)
    with pytest.raises(NoMissingDirection, match="mode 2"):
        sample_missing_directions(splits, (1, 2, 2), rng, 1)
    assert rng.bit_generator.state == state


def test_sampler_raises_when_large_part_empty():
    p = FactorPoint.zeros(2, 3)
    splits = subspace_split(p, sigma=0.1)
    with pytest.raises(NoMissingDirection, match="no singular values"):
        sample_missing_directions(splits, (1, 2, 2),
                                  np.random.default_rng(0), 1)


def test_sampler_rejects_bad_labels():
    p, T, splits, rng = _generic_setup()
    with pytest.raises(ValueError):
        sample_missing_directions(splits, (0, 1, 2), rng, 1)
    with pytest.raises(ValueError):
        sample_missing_directions(splits, (2, 2), rng, 1)


def test_sampler_rejects_one_missing_labels():
    # a label with a single 2 changes f at second order, where the
    # curvature probe looks: the sampler builds no such direction, and
    # draws nothing
    p, T, splits, rng = _generic_setup()
    state = copy.deepcopy(rng.bit_generator.state)
    for ijk in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        with pytest.raises(ValueError, match="two 2s"):
            sample_missing_directions(splits, ijk, rng, 1)
    assert rng.bit_generator.state == state


def test_sampler_is_deterministic_given_seed():
    p, T, splits, _ = _generic_setup()
    v1 = sample_missing_directions(splits, (2, 2, 1),
                                   np.random.default_rng(42), 3)
    v2 = sample_missing_directions(splits, (2, 2, 1),
                                   np.random.default_rng(42), 3)
    assert v1.shape == (3, 2**3 + 3 * 2 * 4)
    assert np.array_equal(v1, v2)


def test_sampler_draws_are_centered():
    # the sampled rank-one update's transform a x b x c and its factor
    # blocks average to zero over many draws
    p, T, splits, rng = _generic_setup(233)
    n = 10_000
    deltas = sampled(splits, (2, 2, 2), rng, n)
    assert norm_f(sum(q.apply() for q in deltas) / n) <= 0.05
    for m in range(3):
        assert norm_f(sum(q.factors[m] for q in deltas) / n) <= 0.05


def large_part(ms):
    """The split's large part, v1 diag(s1) u1^T."""
    return (ms.v1 * ms.s1) @ ms.u1.T


def reference_vectors(splits, ijk, rng):
    """The ambient and coefficient unit vectors of one draw, each from its
    own normal draw, with the index-1 coefficient the normalized
    np.linalg.pinv preimage of its ambient vector under m1^T."""
    def unit_in_span(basis):
        g = rng.standard_normal(basis.shape[1])
        return basis @ (g / np.linalg.norm(g))

    ambient, coeff = [], []
    for ms, idx in zip(splits.modes, ijk):
        if idx == 1:
            a = unit_in_span(ms.u1)
            u = np.linalg.pinv(large_part(ms).T) @ a
            u = u / np.linalg.norm(u)
        else:
            a = unit_in_span(ms.u2)
            u = unit_in_span(ms.v2)
        ambient.append(a)
        coeff.append(u)
    return ambient, coeff


def draw_with_vectors(splits, ijk, rng):
    """One sampled direction and the reference's unit vectors of it, read
    from a copy of rng; the direction built from them block by block must
    match the sampler's within 1e-12 of its largest entry."""
    ambient, coeff = reference_vectors(splits, ijk, copy.deepcopy(rng))
    r, d = coeff[0].size, ambient[0].size
    mats = [np.outer(u, a) if idx == 2 else np.zeros((r, d))
            for idx, u, a in zip(ijk, coeff, ambient)]
    want = FactorPoint(outer3(*coeff), *mats)
    [direction] = sampled(splits, ijk, rng)
    _assert_close(direction.flat, want.flat)
    return direction, ambient, coeff


@pytest.mark.parametrize("seed", range(8))
def test_split_pseudoinverse_matches_numpy_pinv(seed):
    # the sampler's index-1 preimage takes the pseudoinverse of each large
    # part m1 = v1 diag(s1) u1^T from the split's own SVD; np.linalg.pinv
    # of m1 is the reference inside draw_with_vectors
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 5))
    d = r + int(rng.integers(1, 5))
    mats = []
    for _ in range(3):
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        U = np.linalg.qr(rng.standard_normal((d, r)))[0]
        spectrum = rng.uniform(0.2, 3.0, r)
        spectrum[rng.integers(1, r):] = 0.01
        mats.append((V * spectrum) @ U.T)
    p = FactorPoint(rng.standard_normal((r, r, r)), *mats)
    splits = subspace_split(p, 0.1)
    assert all(0 < ms.rank1 < r for ms in splits.modes)
    for ijk in SAMPLED_BLOCKS:
        if 1 in ijk:
            draw_with_vectors(splits, ijk, rng)


# ---------------------------------------------------------------------------
# building directions


def test_build_direction_blocks_and_scaling():
    # each index-2 factor moves by the unscaled outer product of its unit
    # coefficient and ambient vectors, an index-1 factor not at all
    p, T, splits, rng = _generic_setup()
    direction, (a, _, c), (u, v, w) = draw_with_vectors(splits, (2, 1, 2),
                                                        rng)
    d = direction
    np.testing.assert_allclose(d.S, outer3(u, v, w), atol=1e-12)
    np.testing.assert_allclose(d.A, np.outer(u, a), atol=1e-12)
    assert np.linalg.norm(d.B) == 0.0
    np.testing.assert_allclose(d.C, np.outer(w, c), atol=1e-12)

    direction, (a, b, c), (u, v, w) = draw_with_vectors(splits, (2, 2, 2),
                                                        rng)
    np.testing.assert_allclose(direction.A, np.outer(u, a), atol=1e-12)
    np.testing.assert_allclose(direction.B, np.outer(v, b), atol=1e-12)
    np.testing.assert_allclose(direction.C, np.outer(w, c), atol=1e-12)


def test_two_missing_core_times_factor_deltas_identity():
    # the core delta applied to (factor delta, B, factor delta) collapses
    # to a x (B^T v) x c, the rank-one update the label adds at third order
    p, T, splits, rng = _generic_setup(239)
    direction, (a, _, c), (_, v, _) = draw_with_vectors(splits, (2, 1, 2),
                                                        rng)
    got = multilinear_transform(direction.S, direction.A, p.B, direction.C)
    want = outer3(a, p.B.T @ v, c)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_build_direction_rejects_full_block():
    # the sampler builds no direction for (1, 1, 1), and draws nothing
    p, T, splits, rng = _generic_setup()
    state = copy.deepcopy(rng.bit_generator.state)
    with pytest.raises(ValueError):
        sample_missing_directions(splits, (1, 1, 1), rng, 1)
    assert rng.bit_generator.state == state


def test_delta_grid_shape_and_centers():
    g = delta_grid(0.05, 2)
    assert g.shape == (13,)
    assert g[6] == pytest.approx(0.05**0.25, rel=1e-12)
    assert g[0] == pytest.approx(0.05**0.25 / 100.0, rel=1e-12)
    assert g[-1] == pytest.approx(0.05**0.25 * 100.0, rel=1e-12)
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)
    g3 = delta_grid(0.05, 3)
    assert g3[6] == pytest.approx(0.05**0.125, rel=1e-12)
    with pytest.raises(ValueError):
        delta_grid(0.0, 2)
    with pytest.raises(ValueError):
        delta_grid(0.1, 4)
    # one missing mode is not an escape label
    with pytest.raises(ValueError):
        delta_grid(0.1, 1)


def test_delta_grid_is_computed_once_and_read_only():
    # a run asks for the same two grids in every escape round; each is
    # made once, its values those of np.geomspace, and no caller can
    # change it for the others
    for n_missing, center in ((2, 0.05**0.25), (3, 0.05**0.125)):
        g = delta_grid(0.05, n_missing)
        assert delta_grid(0.05, n_missing) is g
        assert np.array_equal(g, np.geomspace(center / 100.0,
                                              center * 100.0, 13))
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0] = 1.0


# ---------------------------------------------------------------------------
# sign flip search


def test_sign_search_at_origin_matches_closed_form():
    rng = np.random.default_rng(241)
    d = 4
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint.zeros(2, d)
    splits = subspace_split(p, sigma=0.05)
    direction, (a, b, c), _ = draw_with_vectors(splits, (2, 2, 2), rng)
    grid = delta_grid(splits.sigma, 3)
    res = sign_flip_search(p, T, stack(direction), grid)[0]
    tval = abs(trilinear(T, a, b, c))
    expect = max(2.0 * s**4 * tval - s**8 for s in grid)
    assert res.improvement == pytest.approx(expect, rel=1e-9, abs=1e-12)
    assert objective(p, T).f == pytest.approx(1.0, rel=1e-12)
    assert 1.0 - res.improvement == pytest.approx(
        objective(res.apply(p), T).f, rel=1e-12)
    assert res.improvement > 0


def test_sign_search_never_returns_a_worse_point():
    # a direction pointing at nothing useful: target orthogonal to it
    e = np.eye(3)
    T = outer3(e[0], e[0], e[0])
    p = FactorPoint.zeros(1, 3)
    delta = FactorPoint(np.ones((1, 1, 1)), e[2][None, :], e[2][None, :],
                        e[2][None, :])
    res = sign_flip_search(p, T, stack(delta), [10.0, 20.0])[0]
    assert res.step == 0.0
    assert res.improvement == 0.0
    assert res.apply(p) is not None
    assert objective(res.apply(p), T).f == objective(p, T).f


def test_sign_search_explores_flips():
    # improvement requires a negative core sign: T points away from the draw
    rng = np.random.default_rng(251)
    d = 4
    T = rng.standard_normal((d, d, d))
    p = FactorPoint.zeros(2, d)
    splits = subspace_split(p, sigma=0.05)
    [direction] = sampled(splits, (2, 2, 2), rng)
    grid = delta_grid(splits.sigma, 3)
    res = sign_flip_search(p, T, stack(direction), grid)[0]
    assert res.improvement > 0
    assert _pattern(res, direction) is not None
    # flipping all active signs is the same as negating the step, so the
    # search must do at least as well as either orientation of the raw delta
    raw = min(r.f for _, r in eval_along(p, direction, T,
                                         list(grid) + [-s for s in grid]))
    assert objective(p, T).f - res.improvement <= raw + 1e-12


def test_sign_search_rejects_zero_direction(monkeypatch):
    import tuckersearch.escape as escape_module
    calls = []
    monkeypatch.setattr(escape_module, "objective",
                        lambda *args: calls.append(args))
    p = FactorPoint.zeros(1, 2)
    with pytest.raises(ValueError, match="identically zero"):
        sign_flip_search(p, np.zeros((2, 2, 2)), stack(p), [0.1])
    assert calls == []


def test_sign_search_counts_its_evaluations():
    p, T, splits, rng = _generic_setup()
    deltas = sample_missing_directions(splits, (1, 2, 2), rng, 1)
    grid = delta_grid(0.1, 2)
    res = sign_flip_search(p, T, deltas, grid)[0]
    # the baseline at p, then every sign of core, B and C at every step
    assert res.evals == 1 + len(grid) * 2 ** 3
    empty = sign_flip_search(p, T, deltas, [])[0]
    assert (empty.evals, empty.step, empty.improvement) == (1, 0.0, 0.0)


def _loop_patterns(direction):
    """The sign patterns in the per-candidate loop's order: the k-th
    nonzero block of the direction flipped when bit k is set."""
    blocks = direction.blocks()
    active = [i for i, blk in enumerate(blocks) if np.any(blk != 0.0)]
    out = []
    for bits in range(2 ** len(active)):
        signs = [1] * 4
        for pos, i in enumerate(active):
            if bits >> pos & 1:
                signs[i] = -1
        out.append(signs)
    return out


def _pattern(res, direction):
    """The sign pattern a search result applied to direction, one sign per
    block (S, A, B, C), or None where it took no step."""
    if res.step == 0.0:
        return None
    return tuple(-1 if blk.any() and np.array_equal(got, -blk) else 1
                 for got, blk in zip(res.delta.blocks(), direction.blocks()))


def _reference_sign_search(p, T, direction, grid, lam=None):
    """The per-candidate loop: one objective call per (pattern, step), in
    pattern-major order, keeping the first strictly smaller value.
    Returns (step, sign pattern, evals, f_after, every candidate's f)."""
    blocks = direction.blocks()
    f0 = objective(p, T, lam).f
    best = (f0, 0.0, None)
    values = []
    for signs in _loop_patterns(direction):
        signed = FactorPoint(*(s * blk for s, blk in zip(signs, blocks)))
        row = []
        for step in grid:
            f = objective(p + float(step) * signed, T, lam).f
            row.append(f)
            if f < best[0]:
                best = (f, float(step), tuple(signs))
        values.append(row)
    return best[1], best[2], 1 + len(values) * len(grid), best[0], values


def _escape_instance(r, d, norm, seed):
    """A point whose factors have r - r // 2 singular values 2, 1.5, ...
    and the rest 0.01, and a target of multilinear rank d - 1 (so factors
    have off-span mass), both scaled so that ||T|| = norm."""
    rng = np.random.default_rng(seed)
    s = norm ** 0.25
    spectrum = np.array([2.0 - 0.5 * i if i < r - r // 2 else 0.01
                         for i in range(r)])
    mats = []
    for _ in range(3):
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        U = np.linalg.qr(rng.standard_normal((d, r)))[0]
        mats.append(s * (V * spectrum) @ U.T)
    p = FactorPoint(s * rng.standard_normal((r, r, r)), *mats)
    m = max(1, d - 1)
    Qs = [np.linalg.qr(rng.standard_normal((d, m)))[0].T for _ in range(3)]
    T = multilinear_transform(rng.standard_normal((m, m, m)), *Qs)
    T *= norm / norm_f(T)
    sigma = 0.1 * s
    return p, T, subspace_split(p, sigma), sigma, rng


def _escape_directions(p, T, splits, sigma, rng):
    """(label, direction, grid) for one draw of every sampled block and one
    direction moving all four blocks, skipping the blocks the instance does
    not admit."""
    out = []
    for ijk in SAMPLED_BLOCKS:
        n_missing = sum(1 for x in ijk if x == 2)
        try:
            [direction] = sampled(splits, ijk, rng)
        except NoMissingDirection:
            continue
        out.append((f"missing{n_missing}", direction,
                    delta_grid(sigma, n_missing)))
    full = random_point(p.r, p.d, rng, scale=float(np.abs(p.flat).max()))
    out.append(("all_blocks", full, delta_grid(sigma, 3)))
    return out


def _term_scale(p, T, delta, patterns, grid):
    """(|D| + sum_U |c_U| |X_U|)^2 at every candidate: the square of the
    largest sum the expansion of the fitting term can form."""
    pairs = list(zip(p.blocks(), delta.blocks()))
    norms = np.array([norm_f(multilinear_transform(
        *(pair[u >> (3 - b) & 1] for b, pair in enumerate(pairs))))
        for u in range(1, 16)])
    a = np.array(patterns, dtype=float)[:, None, :] * np.asarray(grid)[:, None]
    c = np.array([[np.prod([ab[b] for b in range(4) if u >> (3 - b) & 1])
                   for u in range(1, 16)] for ab in a.reshape(-1, 4)])
    total = norm_f(p.apply() - T) + np.abs(c) @ norms
    return (total ** 2).reshape(len(patterns), len(grid))


def _subset_transforms(p, delta):
    """X_U for U = 8 uS + 4 uA + 2 uB + uC from 1 to 15, one raveled row
    each: the transform that takes delta's block for b in U and p's
    otherwise."""
    rows = []
    for U in range(1, 16):
        blocks = [db if U >> (3 - b) & 1 else pb for b, (pb, db) in
                  enumerate(zip(p.blocks(), delta.blocks()))]
        rows.append(multilinear_transform(*blocks).ravel())
    return np.array(rows)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("origin", [False, True])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_expansion_matches_explicit_subset_transforms(r, n, origin):
    # the Gram matrix, the residual products and the Gram-gap basis of
    # the stacked expansion against <X_U, X_V>, <D, X_U> and the Gram gaps
    # of the moved point, each formed on its own
    d = r + 2
    rng = np.random.default_rng(100 * r + 10 * n + origin)
    p = FactorPoint.zeros(r, d) if origin else random_point(r, d, rng)
    deltas = [random_point(r, d, rng) for _ in range(n)]
    D = rng.standard_normal((d, d, d))
    gram, proj, basis = _expansion(p, np.stack([q.flat for q in deltas]), D)
    assert basis.shape == (n, 3, 5, r * r)
    for k, delta in enumerate(deltas):
        X = _subset_transforms(p, delta)
        _assert_close(gram[k], X @ X.T)
        _assert_close(proj[k], X @ D.ravel())
        for a_S, a_m in ((0.0, (0.0, 0.0, 0.0)), (0.7, (-1.3, 0.4, 2.0)),
                         (-2.0, (1.1, 0.0, -0.6))):
            moved = FactorPoint(p.S + a_S * delta.S, *(
                M + a * dM for M, a, dM in zip(p.factors, a_m,
                                               delta.factors)))
            coef = np.array([[1.0, a, a * a, a_S, a_S * a_S] for a in a_m])
            got = np.einsum("mj,mjx->mx", coef, basis[k])
            _assert_close(got.reshape(3, r, r), objective(moved, D).gaps)


@pytest.mark.parametrize("r,d", [(1, 1), (2, 4), (2, 8), (3, 16), (4, 24)])
def test_sign_search_matches_the_per_candidate_loop(r, d):
    kinds = set()
    for norm in (1e-2, 1.0, 1e2):
        for lam in (0.0, None):
            p, T, splits, sigma, rng = _escape_instance(r, d, norm, 10 * r + d)
            for label, direction, grid in _escape_directions(p, T, splits,
                                                             sigma, rng):
                kinds.add(label)
                step, pattern, evals, f_after, ref = _reference_sign_search(
                    p, T, direction, grid, lam)
                patterns = _loop_patterns(direction)
                got = sign_step_values(objective(p, T, lam),
                                       stack(direction), patterns, grid)[0]
                assert got.shape == (len(patterns), len(grid))
                # the expansion adds terms of the size of f(p), so its error
                # is relative to the larger of f(p) and f at the candidate
                scale = np.maximum(np.array(ref), objective(p, T, lam).f)
                if label == "all_blocks":
                    # its terms can cancel: at (1, 1) they reach 2e5 times
                    # f, so the bound is the size of the largest sum
                    scale = np.maximum(scale, _term_scale(
                        p, T, direction, patterns, grid))
                assert np.all(np.abs(got - ref) <= 1e-12 * scale), label
                res = sign_flip_search(p, T, stack(direction), grid, lam)[0]
                assert res.step == step, label
                assert _pattern(res, direction) == pattern, label
                assert res.evals == evals
                f0 = objective(p, T, lam).f
                assert abs(res.improvement - (f0 - f_after)) <= 1e-12 * max(
                    f_after, f0), label
    want = {"all_blocks"}
    if r > 1:
        want |= {"missing2", "missing3"}
    assert want <= kinds


def _every_pattern_values(at, deltas, patterns, grid):
    """sign_step_values with each mode's Gram gap formed for every
    (pattern, step) candidate, as one einsum over (mode, entry): the
    reference for the gaps formed once per sign pair (s_m, s_S)."""
    gram, proj, basis = _expansion(at.point, deltas, at.stages[2])
    a = (patterns[:, None, :] * grid[:, None]).reshape(-1, 4)
    c = np.empty((len(a), 16))
    c[:, 0] = 1.0
    for k, col in enumerate(a.T[::-1]):
        c[:, 2**k:2**(k + 1)] = c[:, :2**k] * col[:, None]
    c = c[:, 1:]
    L = (at.L + 2.0 * (c @ proj[:, :, None])[:, :, 0]
         + np.einsum("knu,nu->kn", c @ gram, c))
    coef = np.empty((3, len(a), 5))
    coef[:, :, 0] = 1.0
    coef[:, :, 1] = a[:, 1:].T
    coef[:, :, 2] = coef[:, :, 1] ** 2
    coef[:, :, 3] = a[:, 0]
    coef[:, :, 4] = a[:, 0] ** 2
    gaps = coef @ basis
    phi = np.einsum("kmnj,kmnj->kn", gaps, gaps)
    return (L + at.lam * (phi * phi)).reshape(len(deltas), len(patterns),
                                              len(grid))


@pytest.mark.parametrize("r,d", [(1, 1), (2, 4), (3, 16), (4, 24)])
def test_sign_pair_gaps_equal_every_patterns_gaps_bit_for_bit(r, d):
    # each Gram gap takes only (a_m, a_S), so the values may not move by a
    # bit when the gaps are formed for the four sign pairs and gathered
    checked = 0
    for norm in (1e-2, 1.0, 1e2):
        p, T, splits, sigma, rng = _escape_instance(r, d, norm, 3 * r + d)
        at = objective(p, T)
        for label, direction, grid in _escape_directions(p, T, splits,
                                                         sigma, rng):
            patterns = np.array(_loop_patterns(direction), dtype=float)
            deltas = stack(direction, -1.5 * direction)
            got = sign_step_values(at, deltas, patterns, grid)
            want = _every_pattern_values(at, deltas, patterns, grid)
            assert got.tobytes() == want.tobytes(), label
            checked += got.size
    assert checked > 0


def test_sign_search_skips_overflowing_candidates():
    p, T, splits, rng = _generic_setup()
    [direction] = sampled(splits, (2, 2, 2), rng)
    grid = [1e90, 0.05, 0.1, 0.2, 1e150]
    with np.errstate(all="ignore"):
        values = sign_step_values(objective(p, T), stack(direction),
                                  _loop_patterns(direction), grid)[0]
        step, pattern, evals, f_after, _ = _reference_sign_search(
            p, T, direction, grid)
        res = sign_flip_search(p, T, stack(direction), grid)[0]
    # a bare argmin would land on the first NaN
    assert np.isnan(values).any()
    assert np.isnan(values.ravel()[np.argmin(values)])
    assert step in (0.05, 0.1, 0.2)
    assert res.step == step and _pattern(res, direction) == pattern
    assert np.isfinite(res.improvement) and res.improvement > 0
    assert res.improvement == objective(p, T).f - np.nanmin(
        np.where(np.isinf(values), np.nan, values))


def test_sign_search_keeps_the_first_of_exact_ties():
    # at the origin only the all-blocks term of the expansion survives, so
    # f depends on the signs through their product alone: eight patterns
    # tie exactly for the best value
    rng = np.random.default_rng(241)
    d = 4
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint.zeros(2, d)
    splits = subspace_split(p, sigma=0.05)
    [direction] = sampled(splits, (2, 2, 2), rng)
    grid = delta_grid(splits.sigma, 3)
    patterns = _loop_patterns(direction)
    values = sign_step_values(objective(p, T), stack(direction), patterns,
                              grid)[0]
    best = values.min()
    rows = [i for i in range(len(patterns)) if values[i].min() == best]
    assert len(rows) == 8
    res = sign_flip_search(p, T, stack(direction), grid)[0]
    assert _pattern(res, direction) == tuple(patterns[rows[0]])
    step, pattern, _, _, _ = _reference_sign_search(p, T, direction, grid)
    assert (res.step, _pattern(res, direction)) == (step, pattern)


@pytest.mark.parametrize("r,d", [(2, 5), (3, 7)])
def test_stacked_sign_search_matches_one_direction_at_a_time(r, d):
    # a stack of n directions is scored from one expansion; each of its
    # values must match a stack of one and a direct objective call, to
    # rounding of the largest term the expansion adds
    p, T, splits, sigma, rng = _escape_instance(r, d, 1.0, 7 * r + d)
    stacks = {}
    # (1, 2, 2) leaves factor A out of the direction
    for ijk in ((2, 2, 2), (1, 2, 2)):
        directions = [sampled(splits, ijk, rng)[0] for _ in range(4)]
        stacks[ijk] = directions
        grid = delta_grid(sigma, sum(x == 2 for x in ijk))
        patterns = _loop_patterns(directions[0])
        stacked = sign_step_values(objective(p, T), stack(*directions),
                                   patterns, grid)
        assert stacked.shape == (4, len(patterns), len(grid))
        for k, q in enumerate(directions):
            scale = _term_scale(p, T, q, patterns, grid)
            single = sign_step_values(objective(p, T), stack(q), patterns,
                                      grid)[0]
            assert np.all(np.abs(stacked[k] - single) <= 1e-10 * scale)
            for row, col in zip(rng.integers(len(patterns), size=12),
                                rng.integers(len(grid), size=12)):
                signed = FactorPoint(*(s * blk for s, blk in
                                       zip(patterns[row], q.blocks())))
                f = objective(p + float(grid[col]) * signed, T).f
                assert abs(stacked[k, row, col] - f) <= 1e-10 * max(
                    scale[row, col], f), (ijk, k, row, col)
        results = sign_flip_search(p, T, stack(*directions), grid)
        singles = [sign_flip_search(p, T, stack(q), grid)[0]
                   for q in directions]
        assert [(res.step, res.delta.flat.tobytes()) for res in results] == \
            [(res.step, res.delta.flat.tobytes()) for res in singles]
        assert any(res.improvement > 0 for res in results)
        # f at p is computed, and counted, once for the whole stack
        assert sum(res.evals for res in results) == 1 + stacked.size
    with pytest.raises(ValueError, match="nonzero blocks"):
        sign_flip_search(p, T, stack(stacks[2, 2, 2][0], stacks[1, 2, 2][0]),
                         delta_grid(sigma, 3))
    with pytest.raises(ValueError):
        sign_flip_search(p, T, np.empty((0, p.flat.size)),
                         delta_grid(sigma, 3))


def _result_fields(res):
    """Every field of a SignSearchResult but evals, the delta as bytes."""
    return res.delta.flat.tobytes(), res.step, res.improvement


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(((2, 5), (3, 6), (2, 4))),
       st.sampled_from((1.0, 1e-2, 1e2)), st.sampled_from((None, 0.0, 0.2)))
def test_sign_search_from_a_report_matches_a_fresh_baseline(
        seed, shape, norm, lam):
    # f and the residual at p taken from p's report give every field of
    # the results bit for bit, and only the baseline's count goes; a
    # report of another point is ignored
    import tuckersearch.escape as escape_module
    r, d = shape
    p, T, splits, sigma, rng = _escape_instance(r, d, norm, seed)
    rep = objective(p, T, lam)
    other = objective(p._like(p.flat.copy()), T, lam)
    baselines = []

    def counting(*args, **kwargs):
        baselines.append(1)
        return objective(*args, **kwargs)

    for _, direction, grid in _escape_directions(p, T, splits, sigma, rng):
        fresh = sign_flip_search(p, T, stack(direction, direction), grid,
                                 lam)
        escape_module.objective, saved = counting, escape_module.objective
        try:
            cached = sign_flip_search(p, T, stack(direction, direction),
                                      grid, lam, at=rep)
            assert baselines == []
            ignored = sign_flip_search(p, T, stack(direction, direction),
                                       grid, lam, at=other)
            assert baselines == [1]
            baselines.clear()
        finally:
            escape_module.objective = saved
        assert [_result_fields(x) for x in cached] == \
            [_result_fields(x) for x in fresh]
        assert [x.evals for x in cached] == \
            [fresh[0].evals - 1, fresh[1].evals]
        assert [(_result_fields(x), x.evals) for x in ignored] == \
            [(_result_fields(x), x.evals) for x in fresh]

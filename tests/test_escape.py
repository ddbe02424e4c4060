import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersearch.escape import (ImprovementDirection, NoDirection,
                                 NoMissingDirection, core_fix_direction,
                                 delta_grid, remove_extraneous_direction,
                                 sample_missing_directions, sign_flip_search,
                                 sign_step_values)
from tuckersearch.objective import eval_along, objective
from tuckersearch.search import SAMPLED_BLOCKS
from tuckersearch.subspace import subspace_split
from tuckersearch.tensor_core import (FactorPoint, multilinear_transform,
                                      norm_f, random_point, trilinear)


def outer3(a, b, c):
    return np.einsum("i,j,k->ijk", a, b, c)


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
    return p, T, subspace_split(p, T, sigma), rng


# ---------------------------------------------------------------------------
# sampling


def test_sampled_vectors_live_in_their_subspaces():
    # the core moves by u x v x w and an index-2 factor by the outer
    # product of its coefficient and ambient vectors: unit vectors, in the
    # complements for index 2; for index 1 the coefficient is the
    # preimage of an ambient draw in the large span, so m1^T maps it back
    # with multiplier at least sigma
    p, T, splits, rng = _generic_setup()
    for ijk in [(1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 1, 1)]:
        scale = splits.sigma if ijk.count(2) == 1 else 1.0
        for direction in sample_missing_directions(splits, ijk, rng, 3):
            delta = direction.delta
            assert norm_f(delta.S) == pytest.approx(1.0, abs=1e-12)
            for m, (idx, M) in enumerate(zip(ijk, delta.factors)):
                ms = splits.modes[m]
                Sm = np.moveaxis(delta.S, m, 0).reshape(p.r, -1)
                if idx == 1:
                    assert not M.any()
                    assert np.linalg.norm(ms.v2.T @ Sm) <= 1e-10
                    assert np.linalg.norm(ms.m1.T @ Sm) >= ms.sigma
                else:
                    assert norm_f(M) == pytest.approx(scale, abs=1e-12)
                    assert np.linalg.norm(ms.v1.T @ Sm) <= 1e-10
                    assert np.linalg.norm(ms.v1.T @ M) <= 1e-10
                    assert np.linalg.norm(M @ ms.u1) <= 1e-10


def test_sampler_raises_when_no_rows_left():
    # factors already use their only coefficient row: nothing to add
    e = np.eye(2)
    p = FactorPoint(np.ones((1, 1, 1)), e[:1], e[:1], e[:1])
    T = np.zeros((2, 2, 2))
    splits = subspace_split(p, T, sigma=0.5)
    with pytest.raises(NoMissingDirection, match="mode 1"):
        sample_missing_directions(splits, (2, 2, 2),
                                  np.random.default_rng(0), 1)


def test_sampler_raises_when_large_part_empty():
    p = FactorPoint.zeros(2, 3)
    T = np.zeros((3, 3, 3))
    splits = subspace_split(p, T, sigma=0.1)
    with pytest.raises(NoMissingDirection, match="no singular values"):
        sample_missing_directions(splits, (1, 2, 2),
                                  np.random.default_rng(0), 1)


def test_sampler_rejects_bad_labels():
    p, T, splits, rng = _generic_setup()
    with pytest.raises(ValueError):
        sample_missing_directions(splits, (0, 1, 2), rng, 1)
    with pytest.raises(ValueError):
        sample_missing_directions(splits, (2, 2), rng, 1)


def test_sampler_is_deterministic_given_seed():
    p, T, splits, _ = _generic_setup()
    v1 = sample_missing_directions(splits, (2, 2, 1),
                                   np.random.default_rng(42), 3)
    v2 = sample_missing_directions(splits, (2, 2, 1),
                                   np.random.default_rng(42), 3)
    assert [q.delta.flat.tobytes() for q in v1] == \
        [q.delta.flat.tobytes() for q in v2]


def test_sampler_draws_are_centered():
    # the sampled rank-one update's transform a x b x c and its factor
    # blocks average to zero over many draws
    p, T, splits, rng = _generic_setup(233)
    n = 10_000
    deltas = [q.delta for q in
              sample_missing_directions(splits, (2, 2, 2), rng, n)]
    assert norm_f(sum(q.apply() for q in deltas) / n) <= 0.05
    for m in range(3):
        assert norm_f(sum(q.factors[m] for q in deltas) / n) <= 0.05


def sequential_vectors(splits, ijk, rng):
    """The sampler's ambient and coefficient unit vectors of one draw,
    each from its own normal draw."""
    def unit_in_span(basis):
        while True:
            g = rng.standard_normal(basis.shape[1])
            n = np.linalg.norm(g)
            if n > 1e-12:
                return basis @ (g / n)

    ambient, coeff = [], []
    for m, (ms, idx) in enumerate(zip(splits.modes, ijk)):
        if idx == 1:
            if ms.rank1 == 0:
                raise NoMissingDirection(f"mode {m + 1}")
            a = unit_in_span(ms.u1)
            u = np.linalg.pinv(ms.m1.T, rcond=1e-12) @ a
            u = u / np.linalg.norm(u)
        else:
            if ms.v2.shape[1] == 0 or ms.u2.shape[1] == 0:
                raise NoMissingDirection(f"mode {m + 1}")
            a = unit_in_span(ms.u2)
            u = unit_in_span(ms.v2)
        ambient.append(a)
        coeff.append(u)
    return ambient, coeff


def sequential_draw(splits, ijk, rng):
    """The sampler one draw at a time and its direction built block by
    block: the reference the stacked sampler must match bit for bit."""
    ambient, coeff = sequential_vectors(splits, ijk, rng)
    scale = splits.sigma if sum(x == 2 for x in ijk) == 1 else 1.0
    r, d = coeff[0].size, ambient[0].size
    mats = [scale * np.outer(u, a) if idx == 2 else np.zeros((r, d))
            for idx, u, a in zip(ijk, coeff, ambient)]
    return FactorPoint(outer3(*coeff), *mats)


def draw_with_vectors(splits, ijk, rng):
    """One sampled direction and the unit vectors it was built from, read
    by the reference from a copy of rng; the direction must be the
    reference's bit for bit."""
    ambient, coeff = sequential_vectors(splits, ijk, copy.deepcopy(rng))
    want = sequential_draw(splits, ijk, copy.deepcopy(rng))
    [direction] = sample_missing_directions(splits, ijk, rng, 1)
    assert np.array_equal(direction.delta.flat, want.flat)
    return direction, ambient, coeff


def test_stacked_draws_match_one_draw_at_a_time():
    # modes 1 and 2 split (2.0, 0.01), mode 3 (2.0, 1.0): at sigma 0.1
    # mode 3 has no unused coefficient row, so a label with a 2 there
    # fails after the normals of modes 1 and 2, which it must still take
    rng = np.random.default_rng(17)
    r, d = 2, 5
    mats = []
    for spectrum in ((2.0, 0.01), (2.0, 0.01), (2.0, 1.0)):
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        U = np.linalg.qr(rng.standard_normal((d, r)))[0]
        mats.append((V * np.array(spectrum)) @ U.T)
    p = FactorPoint(rng.standard_normal((r, r, r)), *mats)
    splits = subspace_split(p, rng.standard_normal((d, d, d)), 0.1)
    stacked, sequential = np.random.default_rng(5), np.random.default_rng(5)
    failed = 0
    for ijk in SAMPLED_BLOCKS:
        try:
            want = [sequential_draw(splits, ijk, sequential)
                    for _ in range(6)]
        except NoMissingDirection:
            with pytest.raises(NoMissingDirection):
                sample_missing_directions(splits, ijk, stacked, 6)
            assert ijk[2] == 2
            failed += 1
            continue
        got = sample_missing_directions(splits, ijk, stacked, 6)
        assert len(got) == 6
        for direction, point in zip(got, want):
            assert isinstance(direction, ImprovementDirection)
            assert direction.kind == "sampled({},{},{})".format(*ijk)
            assert np.array_equal(direction.delta.flat, point.flat)
        [one] = sample_missing_directions(splits, ijk, stacked, 1)
        assert np.array_equal(one.delta.flat,
                              sequential_draw(splits, ijk, sequential).flat)
    assert 0 < failed < len(SAMPLED_BLOCKS)
    # the generators have taken the same numbers
    assert stacked.standard_normal() == sequential.standard_normal()


class ZerosFirst:
    """A generator whose first batch of normals is all zeros."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.first = True

    def standard_normal(self, size):
        if self.first:
            self.first = False
            return np.zeros(size)
        return self.rng.standard_normal(size)


def test_sampler_draws_again_where_a_normal_vector_vanishes():
    # every unit vector is drawn again, so the core and each factor block
    # of every draw still has norm 1
    p, T, splits, _ = _generic_setup()
    for direction in sample_missing_directions(splits, (2, 2, 2),
                                               ZerosFirst(), 3):
        for blk in direction.delta.blocks():
            assert norm_f(blk) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# building directions


def test_build_direction_blocks_and_scaling():
    p, T, splits, rng = _generic_setup()
    direction, (a, _, _), (u, v, w) = draw_with_vectors(splits, (2, 1, 1),
                                                        rng)
    d = direction.delta
    np.testing.assert_allclose(d.S, outer3(u, v, w), atol=1e-12)
    np.testing.assert_allclose(d.A, splits.sigma * np.outer(u, a),
                               atol=1e-12)
    assert np.linalg.norm(d.B) == 0.0
    assert np.linalg.norm(d.C) == 0.0

    direction, (a, _, c), (u, _, w) = draw_with_vectors(splits, (2, 2, 2),
                                                        rng)
    # no sigma scaling when more than one mode is missing
    np.testing.assert_allclose(direction.delta.A, np.outer(u, a), atol=1e-12)
    np.testing.assert_allclose(direction.delta.C, np.outer(w, c), atol=1e-12)


def test_one_missing_core_times_factor_delta_identity():
    # the core delta applied to (factor delta, B, C) collapses to
    # sigma a x (B^T v) x (C^T w)
    p, T, splits, rng = _generic_setup(239)
    direction, (a, _, _), (_, v, w) = draw_with_vectors(splits, (2, 1, 1),
                                                        rng)
    got = multilinear_transform(direction.delta.S, direction.delta.A, p.B, p.C)
    want = splits.sigma * outer3(a, p.B.T @ v, p.C.T @ w)
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


# ---------------------------------------------------------------------------
# sign flip search


def test_sign_search_at_origin_matches_closed_form():
    rng = np.random.default_rng(241)
    d = 4
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint.zeros(2, d)
    splits = subspace_split(p, T, sigma=0.05)
    direction, (a, b, c), _ = draw_with_vectors(splits, (2, 2, 2), rng)
    grid = delta_grid(splits.sigma, 3)
    res = sign_flip_search(p, T, [direction], grid)[0]
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
    from tuckersearch.escape import ImprovementDirection
    direction = ImprovementDirection(delta=delta, kind="sampled")
    res = sign_flip_search(p, T, [direction], [10.0, 20.0])[0]
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
    splits = subspace_split(p, T, sigma=0.05)
    [direction] = sample_missing_directions(splits, (2, 2, 2), rng, 1)
    grid = delta_grid(splits.sigma, 3)
    res = sign_flip_search(p, T, [direction], grid)[0]
    assert res.improvement > 0
    assert _pattern(res, direction) is not None
    # flipping all active signs is the same as negating the step, so the
    # search must do at least as well as either orientation of the raw delta
    raw = min(r.f for _, r in eval_along(p, direction.delta, T,
                                         list(grid) + [-s for s in grid]))
    assert objective(p, T).f - res.improvement <= raw + 1e-12


def test_sign_search_rejects_zero_direction(monkeypatch):
    import tuckersearch.escape as escape_module
    from tuckersearch.escape import ImprovementDirection
    calls = []
    monkeypatch.setattr(escape_module, "objective",
                        lambda *args: calls.append(args))
    p = FactorPoint.zeros(1, 2)
    direction = ImprovementDirection(delta=FactorPoint.zeros(1, 2),
                                     kind="sampled")
    with pytest.raises(NoDirection):
        sign_flip_search(p, np.zeros((2, 2, 2)), [direction], [0.1])
    assert calls == []


def test_sign_search_counts_its_evaluations():
    p, T, splits, rng = _generic_setup()
    [direction] = sample_missing_directions(splits, (1, 2, 2), rng, 1)
    grid = delta_grid(0.1, 2)
    res = sign_flip_search(p, T, [direction], grid)[0]
    # the baseline at p, then every sign of core, B and C at every step
    assert res.evals == 1 + len(grid) * 2 ** 3
    empty = sign_flip_search(p, T, [direction], [])[0]
    assert (empty.evals, empty.step, empty.improvement) == (1, 0.0, 0.0)


def _loop_patterns(direction):
    """The sign patterns in the per-candidate loop's order: the k-th
    nonzero block of the direction flipped when bit k is set."""
    blocks = direction.delta.blocks()
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
                 for got, blk in zip(res.direction.delta.blocks(),
                                     direction.delta.blocks()))


def _reference_sign_search(p, T, direction, grid, lam=None):
    """The per-candidate loop: one objective call per (pattern, step), in
    pattern-major order, keeping the first strictly smaller value.
    Returns (step, sign pattern, evals, f_after, every candidate's f)."""
    blocks = direction.delta.blocks()
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
    return p, T, subspace_split(p, T, sigma), sigma, rng


def _escape_directions(p, T, splits, sigma, rng):
    """(label, direction, grid) for the core fix, each remove-extraneous
    mode, one draw of every sampled block and one direction moving all
    four blocks, skipping those the instance does not admit."""
    fixed_grid = np.geomspace(1e-4, 1.0, 17)
    out = []
    try:
        out.append(("core_fix", core_fix_direction(p, T, splits), fixed_grid))
    except NoDirection:
        pass
    for mode in (1, 2, 3):
        try:
            out.append(("remove_extraneous",
                        remove_extraneous_direction(p, splits, mode),
                        fixed_grid))
        except NoDirection:
            pass
    for ijk in SAMPLED_BLOCKS:
        n_missing = sum(1 for x in ijk if x == 2)
        try:
            [direction] = sample_missing_directions(splits, ijk, rng, 1)
        except NoMissingDirection:
            continue
        out.append((f"missing{n_missing}", direction,
                    delta_grid(sigma, n_missing)))
    full = random_point(p.r, p.d, rng, scale=float(np.abs(p.flat).max()))
    out.append(("all_blocks", ImprovementDirection(delta=full, kind="sampled"),
                delta_grid(sigma, 3)))
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
                got = sign_step_values(p, T, [direction.delta], patterns,
                                       grid, lam)[0]
                assert got.shape == (len(patterns), len(grid))
                # the expansion adds terms of the size of f(p), so its error
                # is relative to the larger of f(p) and f at the candidate:
                # the (1, 1) core fix fits exactly, 0.0 here, 3e-36 there
                scale = np.maximum(np.array(ref), objective(p, T, lam).f)
                if label == "all_blocks":
                    # its terms can cancel: at (1, 1) they reach 2e5 times
                    # f, so the bound is the size of the largest sum
                    scale = np.maximum(scale, _term_scale(
                        p, T, direction.delta, patterns, grid))
                assert np.all(np.abs(got - ref) <= 1e-12 * scale), label
                res = sign_flip_search(p, T, [direction], grid, lam)[0]
                assert res.step == step, label
                assert _pattern(res, direction) == pattern, label
                assert res.evals == evals
                f0 = objective(p, T, lam).f
                assert abs(res.improvement - (f0 - f_after)) <= 1e-12 * max(
                    f_after, f0), label
    want = {"core_fix", "all_blocks"}
    if d > 1:
        want.add("remove_extraneous")
    if r > 1:
        want |= {"missing1", "missing2", "missing3"}
    assert want <= kinds


def test_sign_search_skips_overflowing_candidates():
    p, T, splits, rng = _generic_setup()
    [direction] = sample_missing_directions(splits, (2, 2, 2), rng, 1)
    grid = [1e90, 0.05, 0.1, 0.2, 1e150]
    with np.errstate(all="ignore"):
        values = sign_step_values(p, T, [direction.delta],
                                  _loop_patterns(direction), grid)[0]
        step, pattern, evals, f_after, _ = _reference_sign_search(
            p, T, direction, grid)
        res = sign_flip_search(p, T, [direction], grid)[0]
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
    splits = subspace_split(p, T, sigma=0.05)
    [direction] = sample_missing_directions(splits, (2, 2, 2), rng, 1)
    grid = delta_grid(splits.sigma, 3)
    patterns = _loop_patterns(direction)
    values = sign_step_values(p, T, [direction.delta], patterns, grid)[0]
    best = values.min()
    rows = [i for i in range(len(patterns)) if values[i].min() == best]
    assert len(rows) == 8
    res = sign_flip_search(p, T, [direction], grid)[0]
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
        directions = [sample_missing_directions(splits, ijk, rng, 1)[0]
                      for _ in range(4)]
        stacks[ijk] = directions
        grid = delta_grid(sigma, sum(x == 2 for x in ijk))
        patterns = _loop_patterns(directions[0])
        stacked = sign_step_values(p, T, [q.delta for q in directions],
                                   patterns, grid)
        assert stacked.shape == (4, len(patterns), len(grid))
        for k, q in enumerate(directions):
            scale = _term_scale(p, T, q.delta, patterns, grid)
            single = sign_step_values(p, T, [q.delta], patterns, grid)[0]
            assert np.all(np.abs(stacked[k] - single) <= 1e-10 * scale)
            for row, col in zip(rng.integers(len(patterns), size=12),
                                rng.integers(len(grid), size=12)):
                signed = FactorPoint(*(s * blk for s, blk in
                                       zip(patterns[row], q.delta.blocks())))
                f = objective(p + float(grid[col]) * signed, T).f
                assert abs(stacked[k, row, col] - f) <= 1e-10 * max(
                    scale[row, col], f), (ijk, k, row, col)
        results = sign_flip_search(p, T, directions, grid)
        singles = [sign_flip_search(p, T, [q], grid)[0] for q in directions]
        assert [(res.step, res.direction.delta.flat.tobytes())
                for res in results] == \
            [(res.step, res.direction.delta.flat.tobytes())
             for res in singles]
        assert any(res.improvement > 0 for res in results)
        # f at p is computed, and counted, once for the whole stack
        assert sum(res.evals for res in results) == 1 + stacked.size
    with pytest.raises(ValueError, match="nonzero blocks"):
        sign_flip_search(p, T, stacks[2, 2, 2][:1] + stacks[1, 2, 2][:1],
                         delta_grid(sigma, 3))
    with pytest.raises(ValueError):
        sign_flip_search(p, T, [], delta_grid(sigma, 3))


def _result_fields(res):
    """Every field of a SignSearchResult but evals, the delta as bytes."""
    q = res.direction
    return q.delta.flat.tobytes(), q.kind, res.step, res.improvement


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
        fresh = sign_flip_search(p, T, [direction, direction], grid, lam)
        escape_module.objective, saved = counting, escape_module.objective
        try:
            cached = sign_flip_search(p, T, [direction, direction], grid,
                                      lam, at=rep)
            assert baselines == []
            ignored = sign_flip_search(p, T, [direction, direction], grid,
                                       lam, at=other)
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


# ---------------------------------------------------------------------------
# remove extraneous


def _planted_extraneous():
    e = np.eye(5)
    T = outer3(e[0], e[0], e[0]) + outer3(e[1], e[1], e[1])
    A = np.array([e[0], e[4]])
    B = np.array([e[0], e[1]])
    C = np.array([e[0], e[1]])
    S = np.zeros((2, 2, 2))
    S[1, 0, 0] = 1.0
    p = FactorPoint(S, A, B, C)
    return p, T, subspace_split(p, T, sigma=0.5)


def test_remove_extraneous_deletes_off_span_mass():
    p, T, splits = _planted_extraneous()
    direction = remove_extraneous_direction(p, splits, mode=1)
    assert direction.kind == "remove-extraneous"
    # only the mode-1 factor moves
    assert [np.any(blk != 0.0) for blk in direction.delta.blocks()] \
        == [False, True, False, False]
    np.testing.assert_allclose(direction.delta.A,
                               -np.vstack([np.zeros(5), np.eye(5)[4]]),
                               atol=1e-12)
    # a unit step removes the off-span contribution entirely
    stepped = p + 1.0 * direction.delta
    assert objective(stepped, T, lam=0.0).L == pytest.approx(2.0, abs=1e-12)
    # initial slope of L is -2 |S(A3, B, C)|^2
    rows = eval_along(p, direction.delta, T, [0.0, 1e-5], lam=0.0)
    slope = (rows[1][1].L - rows[0][1].L) / 1e-5
    assert slope == pytest.approx(-2.0, abs=1e-4)


def test_remove_extraneous_raises_when_clean():
    rng = np.random.default_rng(257)
    truth = random_point(2, 4, rng)
    T = truth.apply()
    splits = subspace_split(truth, T, sigma=0.1)
    for mode in (1, 2, 3):
        with pytest.raises(NoDirection):
            remove_extraneous_direction(truth, splits, mode)
    with pytest.raises(ValueError):
        remove_extraneous_direction(truth, splits, 0)


# ---------------------------------------------------------------------------
# core fix


def _well_conditioned_truth(seed=263, r=2, d=5):
    rng = np.random.default_rng(seed)
    while True:
        truth = random_point(r, d, rng)
        spectra = [np.linalg.svd(M, compute_uv=False)
                   for M in (truth.A, truth.B, truth.C)]
        if min(s.min() for s in spectra) > 0.25:
            return truth


def test_core_fix_restores_exact_fit_in_one_step():
    truth = _well_conditioned_truth()
    T = truth.apply()
    rng = np.random.default_rng(269)
    p = FactorPoint(rng.standard_normal(truth.S.shape), truth.A, truth.B,
                    truth.C)
    splits = subspace_split(p, T, sigma=0.1)
    assert all(ms.rank1 == 2 for ms in splits.modes)
    direction = core_fix_direction(p, T, splits)
    stepped = p + 1.0 * direction.delta
    assert objective(stepped, T).L <= 1e-10
    assert objective(stepped, T).L < objective(p, T).L


def test_core_fix_is_zero_at_consistent_core():
    truth = _well_conditioned_truth(271)
    T = truth.apply()
    splits = subspace_split(truth, T, sigma=0.1)
    direction = core_fix_direction(truth, T, splits)
    assert direction.delta.norm() <= 1e-9


def test_core_fix_requires_nonempty_large_parts():
    p = FactorPoint.zeros(2, 4)
    T = np.zeros((4, 4, 4))
    splits = subspace_split(p, T, sigma=0.1)
    with pytest.raises(NoDirection):
        core_fix_direction(p, T, splits)

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckersearch.escape as escape_module
from tuckersearch.escape import (_GRIDS, _PATTERNS, _coefficients, _expansion,
                                 sample_missing_directions, sign_flip_search)
from tuckersearch.objective import eval_along, objective
from tuckersearch.search import SAMPLED_BLOCKS
from tuckersearch.subspace import subspace_split
from tuckersearch.tensor_core import (FactorPoint, multilinear_transform,
                                      norm_f, random_point, trilinear)

from escape_tools import mode_split, sign_patterns, sign_step_values


def outer3(a, b, c):
    return np.einsum("i,j,k->ijk", a, b, c)


def sampled(splits, ijk, rng, size=1):
    """The sampler's draws of the label ijk, each as the FactorPoint of its
    flat vector; none where the label has no directions."""
    template = FactorPoint.zeros(splits.coef.shape[-1],
                                 splits.amb.shape[-1])
    _, flats = sample_missing_directions(splits, (ijk,), rng, size)
    return [template._like(flat) for stack in flats for flat in stack]


def stack(*deltas):
    """The flat vectors of the FactorPoints deltas, one per row."""
    return np.stack([q.flat for q in deltas])


def search(p, T, *deltas, lam=None, at=None):
    """The sign search of the FactorPoints deltas as one stack."""
    return sign_flip_search(p, T, stack(*deltas)[None], lam, at=at)


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
            delta, ambient, coeff = draw_with_vectors(p, 0.1, ijk, rng)
            assert norm_f(delta.S) == pytest.approx(1.0, abs=1e-12)
            for m, (idx, M) in enumerate(zip(ijk, delta.factors)):
                ms = mode_split(p, m, 0.1)
                Sm = np.moveaxis(delta.S, m, 0).reshape(p.r, -1)
                if idx == 1:
                    assert not M.any()
                    assert np.linalg.norm(ms.v2.T @ Sm) <= 1e-10
                    # m1^T u = c a with c >= sigma, for the sampler's u:
                    # the core's unfolding is u t^T, with t the other two
                    # coefficient vectors' Kronecker product
                    t = np.kron(*(coeff[k] for k in range(3) if k != m))
                    y = ms.m1.T @ (Sm @ t)
                    c = float(y @ ambient[m])
                    assert c >= 0.1    # the split's threshold
                    np.testing.assert_allclose(y, c * ambient[m],
                                               atol=1e-12)
                else:
                    assert norm_f(M) == pytest.approx(1.0, abs=1e-12)
                    assert np.linalg.norm(ms.v1.T @ Sm) <= 1e-10
                    assert np.linalg.norm(ms.v1.T @ M) <= 1e-10
                    assert np.linalg.norm(M @ ms.u1) <= 1e-10


def test_sampler_leaves_out_labels_without_rows():
    # factors already use their only coefficient row: no label has a
    # complement direction in mode 1, and (1, 2, 2), whose mode 1 admits
    # index 1, has none in mode 2; nothing is drawn
    e = np.eye(2)
    p = FactorPoint(np.ones((1, 1, 1)), e[:1], e[:1], e[:1])
    splits = subspace_split(p, sigma=0.5)
    rng = np.random.default_rng(0)
    state = copy.deepcopy(rng.bit_generator.state)
    drawn, flats = sample_missing_directions(splits, SAMPLED_BLOCKS, rng, 1)
    assert drawn == () and flats.shape == (0, 1, p.flat.size)
    assert rng.bit_generator.state == state


def test_sampler_leaves_out_labels_without_large_part():
    # the zero point's factors have no singular value above sigma: every
    # label with an index 1 is left out, and (2, 2, 2) draws as alone
    p = FactorPoint.zeros(2, 3)
    splits = subspace_split(p, sigma=0.1)
    drawn, flats = sample_missing_directions(
        splits, SAMPLED_BLOCKS, np.random.default_rng(0), 2)
    _, alone = sample_missing_directions(
        splits, ((2, 2, 2),), np.random.default_rng(0), 2)
    assert drawn == ((2, 2, 2),)
    assert flats.tobytes() == alone.tobytes()


def test_sampler_rejects_bad_labels():
    p, T, splits, rng = _generic_setup()
    with pytest.raises(ValueError):
        sample_missing_directions(splits, [(0, 1, 2)], rng, 1)
    with pytest.raises(ValueError):
        sample_missing_directions(splits, [(2, 2)], rng, 1)


@pytest.mark.parametrize("labels", [
    (2, 2, 2),              # a bare label, not a sequence of labels
    [(2, 2, 2), (2, 2)],    # a label of the wrong length
    [(2, 2.0, 2)],          # a label with an entry that is no integer
])
def test_sampler_takes_only_a_sequence_of_labels(labels):
    # anything but a sequence of labels, each three integers, is refused
    # with the label's ValueError before anything is drawn
    p, T, splits, rng = _generic_setup()
    state = copy.deepcopy(rng.bit_generator.state)
    with pytest.raises(ValueError, match="three integers"):
        sample_missing_directions(splits, labels, rng, 1)
    assert rng.bit_generator.state == state


def test_sampler_rejects_one_missing_labels():
    # a label with a single 2 changes f at second order, where the
    # curvature probe looks: the sampler builds no such direction, and
    # draws nothing
    p, T, splits, rng = _generic_setup()
    state = copy.deepcopy(rng.bit_generator.state)
    for ijk in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        with pytest.raises(ValueError, match="two 2s"):
            sample_missing_directions(splits, [ijk], rng, 1)
    assert rng.bit_generator.state == state


def test_sampler_is_deterministic_given_seed():
    p, T, splits, _ = _generic_setup()
    _, v1 = sample_missing_directions(splits, [(2, 2, 1)],
                                      np.random.default_rng(42), 3)
    _, v2 = sample_missing_directions(splits, [(2, 2, 1)],
                                      np.random.default_rng(42), 3)
    assert v1.shape == (1, 3, 2**3 + 3 * 2 * 4)
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize("r,d,spectrum", [
    (2, 4, (2.0, 0.01)), (3, 5, (2.0, 1.5, 0.01)), (3, 6, (2.0, 0.01, 0.0)),
    (4, 6, (0.0, 0.0, 0.0, 0.0)), (2, 2, (2.0, 1.0))])
def test_sampler_of_several_labels_is_the_one_label_loop(r, d, spectrum):
    # several labels draw as calls of one label each in order would, from
    # one state, bit for bit, and leave the generator where the loop does;
    # a label with an empty subspace is left out and draws nothing
    rng = np.random.default_rng(10 * r + d)
    mats = []
    for _ in range(3):
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        U = np.linalg.qr(rng.standard_normal((d, r)))[0]
        mats.append((V * np.array(spectrum)) @ U.T)
    p = FactorPoint(rng.standard_normal((r, r, r)), *mats)
    splits = subspace_split(p, 0.1)
    order = SAMPLED_BLOCKS[::-1] + SAMPLED_BLOCKS[:2]
    for size in (1, 4):
        loop, want = np.random.default_rng(size), []
        for ijk in order:
            drawn, flats = sample_missing_directions(splits, [ijk], loop,
                                                     size)
            want.extend(zip(drawn, flats))
        one = np.random.default_rng(size)
        drawn, flats = sample_missing_directions(splits, order, one, size)
        assert drawn == tuple(ijk for ijk, _ in want)
        assert flats.shape == (len(want), size, p.flat.size)
        assert flats.tobytes() == b"".join(x.tobytes() for _, x in want)
        assert one.bit_generator.state == loop.bit_generator.state
    with pytest.raises(ValueError, match="two 2s"):
        sample_missing_directions(splits, [(2, 2, 2), (1, 1, 2)],
                                  np.random.default_rng(0), 1)


def test_sampler_draws_are_centered():
    # the sampled rank-one update's transform a x b x c and its factor
    # blocks average to zero over many draws
    p, T, splits, rng = _generic_setup(233)
    n = 10_000
    deltas = sampled(splits, (2, 2, 2), rng, n)
    assert norm_f(sum(q.apply() for q in deltas) / n) <= 0.05
    for m in range(3):
        assert norm_f(sum(q.factors[m] for q in deltas) / n) <= 0.05


def test_sampled_pieces_are_uniform_on_their_subspaces():
    # a normal vector pushed through a projector P and normalized is
    # uniform on the unit sphere of P's range, so the mean outer product
    # of each piece tends to P / rank(P): the ambient and coefficient
    # vectors of an index-2 mode on the reference's complements, and for
    # an index-1 mode the direction of m1^T u on the ambient span of m1
    n = 20_000
    p, T, splits, sigma, rng = _escape_instance(4, 7, 1.0, 233)
    assert splits.ranks == (2, 2, 2)
    [flats] = sample_missing_directions(splits, [(1, 2, 2)], rng, n)[1]
    S = flats[:, :p.r**3].reshape(n, p.r, p.r**2)
    mats = flats[:, p.r**3:].reshape(n, 3, p.r, p.d)
    for m in (1, 2):
        ms = mode_split(p, m, sigma)
        # a factor block is b a^T with unit a and b, so M^T M = a a^T and
        # M M^T = b b^T
        M = mats[:, m]
        for mean, P in ((M.transpose(0, 2, 1) @ M, ms.u2 @ ms.u2.T),
                        (M @ M.transpose(0, 2, 1), ms.v2 @ ms.v2.T)):
            np.testing.assert_allclose(np.trace(mean, axis1=1, axis2=2),
                                       1.0, rtol=1e-12)
            np.testing.assert_allclose(mean.mean(axis=0), P / np.trace(P),
                                       atol=0.02)
    # the core's first unfolding is u t^T with unit t, so S_(1) S_(1)^T =
    # u u^T, and Y = m1^T u u^T m1 over its trace is y y^T for the unit y
    # along m1^T u
    ms = mode_split(p, 0, sigma)
    Y = ms.m1.T @ (S @ S.transpose(0, 2, 1)) @ ms.m1
    Y /= np.trace(Y, axis1=1, axis2=2)[:, None, None]
    np.testing.assert_allclose(Y.mean(axis=0), ms.u1 @ ms.u1.T / ms.rank1,
                               atol=0.02)


def test_sampler_leaves_a_full_rank_index_one_mode_untouched():
    # at d = r a full-rank factor uses every ambient direction, so its
    # ambient complement is {0}: the diagonal factor's map is exactly 0,
    # whose draw would normalize to NaN.  An index-1 mode never
    # normalizes its ambient draw: no warning, and its factor block is
    # exactly 0.0
    rng = np.random.default_rng(0)
    V, U, W = (np.linalg.qr(rng.standard_normal((3, 3)))[0]
               for _ in range(3))
    p = FactorPoint(rng.standard_normal((3, 3, 3)), np.diag([2.0, 1.5, 1.0]),
                    (V * [2.0, 0.01, 0.01]) @ U.T,
                    (V * [2.0, 0.01, 0.01]) @ W.T)
    splits = subspace_split(p, 0.1)
    assert splits.ranks == (3, 1, 1)
    assert not splits.amb[0].any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drawn, flats = sample_missing_directions(splits, SAMPLED_BLOCKS,
                                                 rng, 50)
    assert drawn == ((1, 2, 2),)
    A = flats[..., p.r**3:p.r**3 + p.r * p.d]
    assert np.isfinite(flats).all()
    assert not A.any() and not np.signbit(A).any()


@pytest.mark.parametrize("r,d", [(1, 1), (2, 4), (3, 7)])
def test_sampler_at_the_origin_draws_unit_gaussian_pieces(r, d):
    # every map is an identity at the zero point, so a draw is its normal
    # pieces normalized, mode by mode the ambient vector (d wide) and then
    # the coefficient vector (r wide), bit for bit
    splits = subspace_split(FactorPoint.zeros(r, d), 0.05)
    n = 5
    drawn, flats = sample_missing_directions(
        splits, SAMPLED_BLOCKS, np.random.default_rng(r + d), n)
    assert drawn == ((2, 2, 2),)
    g = np.random.default_rng(r + d).standard_normal((n, 3, d + r))
    a = g[..., :d] / np.linalg.norm(g[..., :d], axis=-1, keepdims=True)
    b = g[..., d:] / np.linalg.norm(g[..., d:], axis=-1, keepdims=True)
    want = np.concatenate((
        np.einsum("nx,ny,nz->nxyz", *b.transpose(1, 0, 2)).reshape(n, -1),
        (b[..., :, None] * a[..., None, :]).reshape(n, -1)), axis=1)
    assert flats[0].tobytes() == want.tobytes()


def reference_vectors(p, sigma, ijk, rng):
    """The ambient and coefficient unit vectors of one draw, from the
    reference split of each mode and, mode by mode, a normal ambient
    vector g then a normal coefficient vector h: an index-2 mode's are g
    and h projected onto u2 and v2 and normalized, and an index-1 mode's
    ambient vector is u1 v1^T h normalized, with the coefficient its
    normalized np.linalg.pinv preimage under m1^T."""
    ambient, coeff = [], []
    for m, idx in enumerate(ijk):
        ms = mode_split(p, m, sigma)
        g, h = rng.standard_normal(p.d), rng.standard_normal(p.r)
        if idx == 1:
            a = ms.u1 @ (ms.v1.T @ h)
            a = a / np.linalg.norm(a)
            u = np.linalg.pinv(ms.m1.T) @ a
        else:
            a = ms.u2 @ (ms.u2.T @ g)
            a = a / np.linalg.norm(a)
            u = ms.v2 @ (ms.v2.T @ h)
        ambient.append(a)
        coeff.append(u / np.linalg.norm(u))
    return ambient, coeff


def draw_with_vectors(p, sigma, ijk, rng):
    """One sampled direction at the split of p at sigma and the
    reference's unit vectors of it, read from a copy of rng; the direction
    built from them block by block must match the sampler's within 1e-12
    of its largest entry."""
    ambient, coeff = reference_vectors(p, sigma, ijk, copy.deepcopy(rng))
    mats = [np.outer(u, a) if idx == 2 else np.zeros((p.r, p.d))
            for idx, u, a in zip(ijk, coeff, ambient)]
    want = FactorPoint(outer3(*coeff), *mats)
    [direction] = sampled(subspace_split(p, sigma), ijk, rng)
    _assert_close(direction.flat, want.flat)
    return direction, ambient, coeff


@pytest.mark.parametrize("seed", range(8))
def test_split_pseudoinverse_matches_numpy_pinv(seed):
    # the sampler's index-1 preimage takes each large part m1 = v1
    # diag(s1) u1^T through the split's preimage map; np.linalg.pinv of
    # m1 is the reference inside draw_with_vectors
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
    assert all(0 < k < r for k in subspace_split(p, 0.1).ranks)
    for ijk in SAMPLED_BLOCKS:
        if 1 in ijk:
            draw_with_vectors(p, 0.1, ijk, rng)


# ---------------------------------------------------------------------------
# building directions


def test_build_direction_blocks_and_scaling():
    # each index-2 factor moves by the unscaled outer product of its unit
    # coefficient and ambient vectors, an index-1 factor not at all
    p, T, splits, rng = _generic_setup()
    direction, (a, _, c), (u, v, w) = draw_with_vectors(p, 0.1, (2, 1, 2),
                                                        rng)
    d = direction
    np.testing.assert_allclose(d.S, outer3(u, v, w), atol=1e-12)
    np.testing.assert_allclose(d.A, np.outer(u, a), atol=1e-12)
    assert np.linalg.norm(d.B) == 0.0
    np.testing.assert_allclose(d.C, np.outer(w, c), atol=1e-12)

    direction, (a, b, c), (u, v, w) = draw_with_vectors(p, 0.1, (2, 2, 2),
                                                        rng)
    np.testing.assert_allclose(direction.A, np.outer(u, a), atol=1e-12)
    np.testing.assert_allclose(direction.B, np.outer(v, b), atol=1e-12)
    np.testing.assert_allclose(direction.C, np.outer(w, c), atol=1e-12)


def test_two_missing_core_times_factor_deltas_identity():
    # the core delta applied to (factor delta, B, factor delta) collapses
    # to a x (B^T v) x c, the rank-one update the label adds at third order
    p, T, splits, rng = _generic_setup(239)
    direction, (a, _, c), (_, v, _) = draw_with_vectors(p, 0.1, (2, 1, 2),
                                                        rng)
    got = multilinear_transform(direction.S, direction.A, p.B, direction.C)
    want = outer3(a, p.B.T @ v, c)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_build_direction_rejects_full_block():
    # the sampler builds no direction for (1, 1, 1), and draws nothing
    p, T, splits, rng = _generic_setup()
    state = copy.deepcopy(rng.bit_generator.state)
    with pytest.raises(ValueError):
        sample_missing_directions(splits, [(1, 1, 1)], rng, 1)
    assert rng.bit_generator.state == state


def test_delta_grid_shape_and_centers():
    # 13 log-spaced steps over [center / 100, center * 100], the center
    # SIGMA^(1/4) for two missing modes and SIGMA^(1/8) for three, and no
    # grid for one
    assert set(_GRIDS) == {2, 3}
    for n_missing, center in ((2, 0.05**0.25), (3, 0.05**0.125)):
        g = _GRIDS[n_missing]
        assert g.shape == (13,)
        assert g[6] == pytest.approx(center, rel=1e-12)
        assert g[0] == pytest.approx(center / 100.0, rel=1e-12)
        assert g[-1] == pytest.approx(center * 100.0, rel=1e-12)
        ratios = g[1:] / g[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)


# ---------------------------------------------------------------------------
# sign flip search


def test_sign_search_at_origin_matches_closed_form():
    # at the origin f along t d is |T|^2 - 2 t^4 b + t^8 q, and a sampled
    # (2,2,2) direction keeps the point balanced (phi = 0), so q = |X_d|^2
    # = 1: the search takes t = |b|^(1/4), the core flipped where b < 0,
    # and gains b^2
    rng = np.random.default_rng(241)
    d = 4
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint.zeros(2, d)
    direction, (a, b, c), _ = draw_with_vectors(p, 0.05, (2, 2, 2), rng)
    found = search(p, T, direction)
    tval = trilinear(T, a, b, c)
    assert found.improvements[0] == pytest.approx(tval**2, rel=1e-9)
    assert found.steps[0] == pytest.approx(abs(tval) ** 0.25, rel=1e-9)
    assert _pattern(found, 0, direction) == (np.sign(tval), 1, 1, 1)
    assert objective(p, T).f == pytest.approx(1.0, rel=1e-12)
    assert 1.0 - found.improvements[0] == pytest.approx(
        objective(found.apply(0), T).f, rel=1e-12)
    assert found.evals.tolist() == [2]


def test_sign_search_never_returns_a_worse_point():
    # a direction pointing at nothing useful: target orthogonal to it
    e = np.eye(3)
    T = outer3(e[0], e[0], e[0])
    p = FactorPoint.zeros(1, 3)
    delta = FactorPoint(np.ones((1, 1, 1)), e[2][None, :], e[2][None, :],
                        e[2][None, :])
    found = search(p, T, delta)
    assert found.steps[0] == 0.0
    assert found.improvements[0] == 0.0
    assert found.deltas[0].tobytes() == delta.flat.tobytes()
    assert objective(found.apply(0), T).f == objective(p, T).f


def test_sign_search_explores_flips():
    # improvement requires a negative core sign: T points away from the draw
    rng = np.random.default_rng(251)
    d = 4
    T = rng.standard_normal((d, d, d))
    p = FactorPoint.zeros(2, d)
    splits = subspace_split(p, sigma=0.05)
    [direction] = sampled(splits, (2, 2, 2), rng)
    found = search(p, T, direction)
    assert found.improvements[0] > 0
    assert _pattern(found, 0, direction) is not None
    # flipping all active signs is the same as negating the step, so the
    # search must do at least as well as either orientation of the raw
    # delta on the grid
    grid = _GRIDS[3]
    raw = min(r.f for _, r in eval_along(p, direction, T,
                                         list(grid) + [-s for s in grid]))
    assert objective(p, T).f - found.improvements[0] <= raw + 1e-12


def test_sign_search_rejects_zero_direction(monkeypatch):
    calls = []
    monkeypatch.setattr(escape_module, "objective",
                        lambda *args: calls.append(args))
    p = FactorPoint.zeros(1, 2)
    with pytest.raises(ValueError, match="core and two or three"):
        search(p, np.zeros((2, 2, 2)), p)
    assert calls == []


@pytest.mark.parametrize("moved", [(0,), (0, 1), (0, 3), (1, 2, 3)])
def test_sign_search_rejects_stacks_that_move_too_few_blocks(moved):
    # a stack must move the core and two or three factors, the blocks of a
    # sampled label, whose count fixes its step grid: one that moves only
    # the core, the core and one factor, or no core is refused, before f
    # at p is taken, away from the zero point and at it
    p, T, splits, rng = _generic_setup()
    direction = FactorPoint(*(blk if b in moved else 0.0 * blk for b, blk in
                              enumerate(random_point(p.r, p.d, rng).blocks())))
    for at in (p, FactorPoint.zeros(p.r, p.d)):
        with pytest.raises(ValueError, match="core and two or three"):
            search(at, T, direction, direction, at=objective(at, T))


def test_sign_search_counts_its_evaluations():
    p, T, splits, rng = _generic_setup()
    _, deltas = sample_missing_directions(splits, [(1, 2, 2)], rng, 1)
    found = sign_flip_search(p, T, deltas)
    # the baseline at p, then every sign of core, B and C at every step
    assert found.evals.tolist() == [1 + len(_GRIDS[2]) * 2 ** 3]
    assert sign_flip_search(p, T, deltas, at=objective(p, T)).evals.tolist() \
        == [len(_GRIDS[2]) * 2 ** 3]


def _loop_patterns(direction):
    """The sign patterns in the per-candidate loop's order: the k-th
    nonzero block of the direction flipped when bit k is set."""
    return sign_patterns([i for i, blk in enumerate(direction.blocks())
                          if np.any(blk != 0.0)])


def _pattern(found, k, direction):
    """The sign pattern the search results `found` applied to direction k,
    the FactorPoint direction, one sign per block (S, A, B, C), or None
    where it took no step."""
    if found.steps[k] == 0.0:
        return None
    return tuple(-1 if blk.any() and np.array_equal(got, -blk) else 1
                 for got, blk in zip(direction._like(found.deltas[k]).blocks(),
                                     direction.blocks()))


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


def _escape_directions(p, T, splits, rng):
    """(label, direction, grid) for one draw of every sampled block and one
    direction moving all four blocks, skipping the blocks the instance does
    not admit; the grid is the one the sign search takes for the blocks
    the direction moves."""
    out = []
    for ijk in SAMPLED_BLOCKS:
        n_missing = ijk.count(2)
        for direction in sampled(splits, ijk, rng):
            out.append((f"missing{n_missing}", direction, _GRIDS[n_missing]))
    full = random_point(p.r, p.d, rng, scale=float(np.abs(p.flat).max()))
    out.append(("all_blocks", full, _GRIDS[3]))
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
    gram, proj, basis = _expansion(p, stack(*deltas)[None], D)
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
            p, T, splits, _, rng = _escape_instance(r, d, norm, 10 * r + d)
            for label, direction, grid in _escape_directions(p, T, splits,
                                                             rng):
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
                found = search(p, T, direction, lam=lam)
                assert found.steps[0] == step, label
                assert _pattern(found, 0, direction) == pattern, label
                assert found.evals.tolist() == [evals]
                f0 = objective(p, T, lam).f
                assert abs(found.improvements[0] - (f0 - f_after)) <= \
                    1e-12 * max(f_after, f0), label
    want = {"all_blocks"}
    if r > 1:
        want |= {"missing2", "missing3"}
    assert want <= kinds


@pytest.mark.parametrize("r,d", [(1, 2), (2, 4), (3, 5)])
def test_coefficients_match_the_objective_along_each_signed_line(r, d):
    # f(p + t s o q) is a polynomial of degree 8 in t for every sign
    # pattern s: its coefficients, from the expansion and the constant
    # tables, give f at steps of both signs, with and without the balance
    # term, at a generic point, the zero point and one with a zero factor
    rng = np.random.default_rng(31 * r + d)
    generic = random_point(r, d, rng)
    points = (generic, FactorPoint.zeros(r, d),
              FactorPoint(generic.S, generic.A, 0.0 * generic.B, generic.C))
    T = rng.standard_normal((d, d, d))
    checked = 0
    for p in points:
        for lam in (0.0, None):
            at = objective(p, T, lam)
            deltas = [random_point(r, d, rng) for _ in range(2)]
            gram, proj, basis = _expansion(p, stack(*deltas)[None],
                                           at.stages[2])
            coef = _coefficients(at, gram[None], proj[None], basis[None])[0]
            assert coef.shape == (2, 16, 9)
            for q, rows in zip(deltas, coef):
                for signs, row in zip(_PATTERNS, rows):
                    signed = FactorPoint(*(s * blk for s, blk in
                                           zip(signs, q.blocks())))
                    for t in (0.0, 0.4, -1.3, 2.2):
                        want = objective(p + t * signed, T, lam).f
                        got = row @ t ** np.arange(9)
                        assert abs(got - want) <= 1e-12 * abs(want)
                        checked += 1
    assert checked == 3 * 2 * 2 * 16 * 4


def test_a_pattern_flipping_an_unmoved_block_never_beats_its_twin():
    # a (1, 2, 2) draw leaves factor A at zero: flipping A changes no
    # coefficient, so each pattern that flips it scores exactly as its
    # twin that does not, which comes first, and the search never takes it
    flips_a = [k for k in range(16) if k & 2]
    taken = 0
    for seed in range(4):
        p, T, splits, _, rng = _escape_instance(3, 7, 1.0, 50 + seed)
        at = objective(p, T)
        drawn, flats = sample_missing_directions(splits, [(1, 2, 2)], rng, 6)
        assert drawn == ((1, 2, 2),)
        gram, proj, basis = (x[None] for x in _expansion(p, flats,
                                                         at.stages[2]))
        coef = _coefficients(at, gram, proj, basis)
        assert np.array_equal(coef[..., flips_a, :],
                              coef[..., [k - 2 for k in flips_a], :])
        values = escape_module._candidate_values(
            at, gram, proj, basis, _GRIDS[2][None])
        assert np.array_equal(values[..., flips_a, :],
                              values[..., [k - 2 for k in flips_a], :])
        found = sign_flip_search(p, T, flats, at=at)
        moved = found.steps > 0.0
        taken += moved.sum()
        template = FactorPoint.zeros(3, 7)
        for k in np.flatnonzero(moved):
            A = template._like(found.deltas[k]).A
            assert not np.signbit(A).any()
    assert taken > 0


def test_sign_search_skips_overflowing_candidates(monkeypatch):
    # candidates whose values overflow, to inf or to NaN, among them the
    # ones a bare argmin would take: the first smallest finite value wins
    p, T, splits, rng = _generic_setup()
    [direction] = sampled(splits, (2, 2, 2), rng)
    candidate_values = escape_module._candidate_values
    seen = []

    def overflowing(*args):
        values = candidate_values(*args)
        best = np.unravel_index(np.argmin(values), values.shape)
        values[best] = np.nan
        values[..., -1] = np.inf
        seen.append(values)
        return values

    monkeypatch.setattr(escape_module, "_candidate_values", overflowing)
    found = search(p, T, direction)
    [values] = seen
    # a bare argmin would land on the NaN
    assert np.isnan(values.ravel()[np.argmin(values)])
    finite = np.where(np.isfinite(values), values, np.inf).ravel()
    k = int(np.argmin(finite))
    patterns, grid = _loop_patterns(direction), _GRIDS[3]
    assert found.steps[0] == grid[k % len(grid)]
    assert _pattern(found, 0, direction) == tuple(patterns[k // len(grid)])
    assert np.isfinite(found.improvements[0])
    assert found.improvements[0] == objective(p, T).f - finite[k] > 0


def test_sign_search_keeps_the_first_of_exact_ties():
    # at a point with a core and zero factors only the terms of the
    # expansion that take all three factor deltas survive, and the Gram
    # gaps do not see a factor's sign, so f depends on the signs through
    # the core's and the product of the factors' alone: four patterns
    # tie exactly for the best value
    rng = np.random.default_rng(241)
    d = 4
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint(rng.standard_normal((2, 2, 2)), *np.zeros((3, 2, d)))
    splits = subspace_split(p, sigma=0.05)
    [direction] = sampled(splits, (2, 2, 2), rng)
    patterns = _loop_patterns(direction)
    values = sign_step_values(objective(p, T), stack(direction), patterns,
                              _GRIDS[3])[0]
    best = values.min()
    rows = [i for i in range(len(patterns)) if values[i].min() == best]
    assert len(rows) == 4
    found = search(p, T, direction)
    assert _pattern(found, 0, direction) == tuple(patterns[rows[0]])
    step, pattern, _, _, _ = _reference_sign_search(p, T, direction,
                                                    _GRIDS[3])
    assert (found.steps[0], _pattern(found, 0, direction)) == (step, pattern)


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
        grid = _GRIDS[ijk.count(2)]
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
        results = search(p, T, *directions)
        singles = [search(p, T, q) for q in directions]
        assert [(x.steps[0], x.deltas[0].tobytes()) for x in singles] == \
            list(zip(results.steps, map(bytes, results.deltas)))
        assert (results.improvements > 0).any()
        # f at p is computed, and counted, once for the whole stack
        assert results.evals.sum() == 1 + stacked.size
    with pytest.raises(ValueError, match="nonzero blocks"):
        search(p, T, stacks[2, 2, 2][0], stacks[1, 2, 2][0])
    with pytest.raises(ValueError):
        sign_flip_search(p, T, np.empty((1, 0, p.flat.size)))


@pytest.mark.parametrize("r,d", [(2, 5), (3, 7)])
def test_sign_search_of_several_stacks_is_one_search_per_stack(r, d):
    # stacks of several labels, each on the grid of its count of blocks,
    # scored by one call give every field of a call per stack, bit for
    # bit; f at p is computed, and counted, once for the whole call
    p, T, splits, sigma, rng = _escape_instance(r, d, 1.0, 11 * r + d)
    drawn, flats = sample_missing_directions(splits, SAMPLED_BLOCKS, rng, 3)
    assert len(drawn) == 4
    found = sign_flip_search(p, T, flats)
    assert len(found.steps) == 12
    singles = [sign_flip_search(p, T, x[None]) for x in flats]
    for name in ("steps", "deltas", "improvements"):
        assert getattr(found, name).tobytes() == b"".join(
            getattr(x, name).tobytes() for x in singles), name
    assert found.evals.tolist() == [
        n - (k % 3 == 0 and k > 0) for k, n in
        enumerate(np.concatenate([x.evals for x in singles]).tolist())]
    assert found.evals.sum() == sum(x.evals.sum() for x in singles) - 3
    # the winner's point is the one its stack's search applies
    k = found.best()
    assert found.improvements[k] == max(x.improvements.max()
                                        for x in singles) > 0
    assert found.apply(k).flat.tobytes() == \
        singles[k // 3].apply(k % 3).flat.tobytes()
    # a stack whose directions move different blocks is refused
    mixed = flats.copy()
    mixed[1, 0] = flats[3, 0]
    with pytest.raises(ValueError, match="nonzero blocks"):
        sign_flip_search(p, T, mixed)


def _result_fields(found):
    """The steps, signed deltas and improvements of the results, as
    bytes."""
    return (found.steps.tobytes(), found.deltas.tobytes(),
            found.improvements.tobytes())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(((2, 5), (3, 6), (2, 4))),
       st.sampled_from((1.0, 1e-2, 1e2)), st.sampled_from((None, 0.0, 0.2)))
def test_sign_search_from_a_report_matches_a_fresh_baseline(
        seed, shape, norm, lam):
    # f and the residual at p taken from p's report give every field of
    # the results bit for bit, and only the baseline's count goes; a
    # report of another point is ignored
    r, d = shape
    p, T, splits, sigma, rng = _escape_instance(r, d, norm, seed)
    rep = objective(p, T, lam)
    other = objective(p._like(p.flat.copy()), T, lam)
    baselines = []

    def counting(*args, **kwargs):
        baselines.append(1)
        return objective(*args, **kwargs)

    for _, direction, _ in _escape_directions(p, T, splits, rng):
        fresh = search(p, T, direction, direction, lam=lam)
        escape_module.objective, saved = counting, escape_module.objective
        try:
            cached = search(p, T, direction, direction, lam=lam, at=rep)
            assert baselines == []
            ignored = search(p, T, direction, direction, lam=lam, at=other)
            assert baselines == [1]
            baselines.clear()
        finally:
            escape_module.objective = saved
        assert _result_fields(cached) == _result_fields(fresh)
        assert cached.evals.tolist() == [fresh.evals[0] - 1, fresh.evals[1]]
        assert _result_fields(ignored) == _result_fields(fresh)
        assert ignored.evals.tolist() == fresh.evals.tolist()


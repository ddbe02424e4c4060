import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersearch.objective import (balanced_random_point, default_lambda,
                                    eval_along, grad, grad_loss, grad_phi,
                                    grad_reg, hvp, load_point, objective,
                                    point_from_dict, point_to_dict, reg,
                                    reg_phi, save_point)
from tuckersearch.tensor_core import FactorPoint, random_point


def brute_force_loss(p, T):
    r, d = p.r, p.d
    acc = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x = 0.0
                for a in range(r):
                    for b in range(r):
                        for c in range(r):
                            x += p.S[a, b, c] * p.A[a, i] * p.B[b, j] * p.C[c, k]
                acc += (x - T[i, j, k]) ** 2
    return acc


def brute_force_reg_phi(p):
    """Gram gaps assembled entry by entry from the definition."""
    r, d = p.r, p.d
    total = 0.0
    mats = {1: p.A, 2: p.B, 3: p.C}
    for mode in (1, 2, 3):
        M = mats[mode]
        for x in range(r):
            for y in range(r):
                mm = sum(M[x, t] * M[y, t] for t in range(d))
                ss = 0.0
                for u in range(r):
                    for v in range(r):
                        if mode == 1:
                            ss += p.S[x, u, v] * p.S[y, u, v]
                        elif mode == 2:
                            ss += p.S[u, x, v] * p.S[u, y, v]
                        else:
                            ss += p.S[u, v, x] * p.S[u, v, y]
                total += (mm - ss) ** 2
    return total


# The objective kernels contract on unfoldings with matrix products.  The
# references below contract mode by mode with tensordot and assemble the
# Gram gaps with einsum, sharing no code with the kernels.

REFERENCE_SHAPES = ((1, 1), (1, 4), (2, 2), (2, 8), (3, 16), (4, 24))


def tensordot_transform(S, A, B, C):
    out = np.tensordot(S, A, axes=([0], [0]))
    out = np.tensordot(out, B, axes=([0], [0]))
    return np.tensordot(out, C, axes=([0], [0]))


def reference_loss(p, T):
    D = tensordot_transform(p.S, p.A, p.B, p.C) - T
    return float(np.sum(D * D))


def reference_gram_gaps(p):
    S = p.S
    return [np.einsum("xi,yi->xy", p.A, p.A) - np.einsum("xuv,yuv->xy", S, S),
            np.einsum("xi,yi->xy", p.B, p.B) - np.einsum("uxv,uyv->xy", S, S),
            np.einsum("xi,yi->xy", p.C, p.C) - np.einsum("uvx,uvy->xy", S, S)]


def reference_phi(p):
    return float(sum(np.sum(G * G) for G in reference_gram_gaps(p)))


def reference_grad_loss(p, T):
    """Blocks (gS, gA, gB, gC) of the fitting-term gradient."""
    I = np.eye(p.r)
    D = tensordot_transform(p.S, p.A, p.B, p.C) - T
    gS = 2.0 * tensordot_transform(D, p.A.T, p.B.T, p.C.T)
    gA = 2.0 * np.tensordot(tensordot_transform(p.S, I, p.B, p.C), D,
                            axes=([1, 2], [1, 2]))
    gB = 2.0 * np.tensordot(tensordot_transform(p.S, p.A, I, p.C), D,
                            axes=([0, 2], [0, 2]))
    gC = 2.0 * np.tensordot(tensordot_transform(p.S, p.A, p.B, I), D,
                            axes=([0, 1], [0, 1]))
    return gS, gA, gB, gC


def reference_grad_phi(p):
    G1, G2, G3 = reference_gram_gaps(p)
    I = np.eye(p.r)
    gS = -4.0 * (tensordot_transform(p.S, G1, I, I)
                 + tensordot_transform(p.S, I, G2, I)
                 + tensordot_transform(p.S, I, I, G3))
    return gS, 4.0 * G1 @ p.A, 4.0 * G2 @ p.B, 4.0 * G3 @ p.C


def reference_grad(p, T, lam):
    c = 2.0 * lam * reference_phi(p)
    return tuple(gl + c * gp for gl, gp in zip(reference_grad_loss(p, T),
                                               reference_grad_phi(p)))


def assert_relative(got, want, rel=1e-12):
    """Largest entrywise error at most rel times the largest reference
    entry, over all blocks together."""
    got = np.concatenate([np.ravel(x) for x in got])
    want = np.concatenate([np.ravel(x) for x in want])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def finite_difference_grad(p, T, lam, h):
    """Central differences through the block structure, one coordinate at a
    time, using the same flattened layout as FactorPoint arithmetic."""
    blocks = []
    for name in ("S", "A", "B", "C"):
        base = getattr(p, name)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            bump = np.zeros_like(base)
            bump[idx] = h
            kw = {n: getattr(p, n) for n in ("S", "A", "B", "C")}
            kwp = dict(kw, **{name: base + bump})
            kwm = dict(kw, **{name: base - bump})
            fp = objective(FactorPoint(**kwp), T, lam).f
            fm = objective(FactorPoint(**kwm), T, lam).f
            g[idx] = (fp - fm) / (2.0 * h)
            it.iternext()
        blocks.append(g)
    return FactorPoint(*blocks)


def test_default_lambda_values():
    assert default_lambda(1) == pytest.approx(1.0 / 16.0)
    assert default_lambda(2) == pytest.approx(1.0 / 256.0)
    with pytest.raises(ValueError):
        default_lambda(0)


def test_loss_matches_brute_force_small_dims():
    rng = np.random.default_rng(61)
    for _ in range(20):
        r, d = rng.integers(1, 4, size=2)
        p = random_point(r, d, rng)
        T = rng.standard_normal((d, d, d))
        assert objective(p, T).L == pytest.approx(brute_force_loss(p, T),
                                                  abs=1e-11)


@pytest.mark.parametrize("r,d", REFERENCE_SHAPES)
def test_kernels_match_tensordot_reference(r, d):
    rng = np.random.default_rng([107, r, d])
    T = rng.standard_normal((d, d, d))
    for p in (random_point(r, d, rng), random_point(r, d, rng, scale=0.3)):
        assert_relative([objective(p, T).L], [reference_loss(p, T)])
        assert_relative([reg_phi(p)], [reference_phi(p)])
        assert_relative(grad_loss(p, T).blocks(), reference_grad_loss(p, T))
        assert_relative(grad_phi(p).blocks(), reference_grad_phi(p))
        for lam in (0.0, default_lambda(r)):
            assert_relative(grad(p, T, lam).blocks(),
                            reference_grad(p, T, lam))
            rep = objective(p, T, lam)
            assert_relative([rep.f], [reference_loss(p, T)
                                      + lam * reference_phi(p) ** 2])


def test_loss_zero_at_exact_fit_and_norm_at_origin():
    rng = np.random.default_rng(67)
    p = random_point(2, 4, rng)
    assert objective(p, p.apply()).L == pytest.approx(0.0, abs=1e-20)
    T = rng.standard_normal((4, 4, 4))
    origin = FactorPoint.zeros(2, 4)
    assert objective(origin, T).L == pytest.approx(np.sum(T * T), abs=1e-12)


def test_reg_phi_matches_brute_force_small_dims():
    rng = np.random.default_rng(71)
    for _ in range(20):
        r, d = rng.integers(1, 4, size=2)
        p = random_point(r, d, rng)
        assert reg_phi(p) == pytest.approx(brute_force_reg_phi(p), abs=1e-10)


def test_reg_phi_zero_on_balanced_points():
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = balanced_random_point(2, 5, rng)
        assert reg_phi(p) <= 1e-24
        assert reg(p) <= 1e-40


def test_objective_report_is_consistent():
    rng = np.random.default_rng(79)
    p = random_point(2, 3, rng)
    T = rng.standard_normal((3, 3, 3))
    rep = objective(p, T)
    assert rep.lam == pytest.approx(default_lambda(2))
    assert rep.R == pytest.approx(rep.phi**2, rel=1e-12)
    assert rep.f == pytest.approx(rep.L + rep.lam * rep.R, rel=1e-12)
    assert rep.L == pytest.approx(brute_force_loss(p, T), abs=1e-11)
    rep2 = objective(p, T, lam=0.5)
    assert rep2.f == pytest.approx(rep.L + 0.5 * rep.R, rel=1e-12)


def test_objective_rejects_shape_mismatch():
    p = FactorPoint.zeros(2, 3)
    with pytest.raises(ValueError):
        objective(p, np.zeros((4, 4, 4)))


# ---------------------------------------------------------------------------
# gradients


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(83)
    for trial in range(4):
        p = random_point(2, 3, rng, scale=0.7)
        T = rng.standard_normal((3, 3, 3))
        lam = default_lambda(2)
        g = grad(p, T, lam)
        h = 1e-5 * (1.0 + p.norm())
        fd = finite_difference_grad(p, T, lam, h)
        for gb, fb in zip(g.blocks(), fd.blocks()):
            np.testing.assert_allclose(gb, fb, atol=1e-7, rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((None, 0.0, 0.3)))
def test_grad_from_a_report_of_the_point_is_bit_equal(seed, lam):
    # the report keeps the fit stages and Gram gaps objective formed;
    # starting the gradient from them must not change a bit of it
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    d = int(rng.integers(r, 6))
    p = random_point(r, d, rng, scale=float(rng.uniform(0.1, 3.0)))
    T = rng.standard_normal((d, d, d))
    rep = objective(p, T, lam)
    assert rep.point is p
    assert grad(p, T, lam, at=rep).flat.tobytes() == \
        grad(p, T, lam).flat.tobytes()


def test_grad_ignores_a_report_of_another_point():
    rng = np.random.default_rng(101)
    p = random_point(2, 4, rng)
    T = rng.standard_normal((4, 4, 4))
    full = grad(p, T).flat.tobytes()
    # a different point, and an equal point that is not the same object
    for other in (random_point(2, 4, rng), p._like(p.flat.copy())):
        assert grad(p, T, at=objective(other, T)).flat.tobytes() == full
    # the report's extra fields take no part in comparison or repr
    assert objective(p, T) == objective(p._like(p.flat.copy()), T)
    assert "stages" not in repr(objective(p, T))


def test_grad_vanishes_at_balanced_exact_fit():
    rng = np.random.default_rng(89)
    p = balanced_random_point(2, 4, rng)
    T = p.apply()
    assert grad(p, T).norm() <= 1e-10


def test_grad_vanishes_at_origin():
    rng = np.random.default_rng(97)
    T = rng.standard_normal((4, 4, 4))
    g = grad(FactorPoint.zeros(2, 4), T)
    assert g.norm() == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_loss_and_reg_gradients_are_orthogonal(seed):
    # the regularizer gradient is tangent to the group orbit on which the
    # fitting term is constant, so the two gradient fields are orthogonal
    # at every point
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    d = int(rng.integers(r, 6))
    p = random_point(r, d, rng)
    T = rng.standard_normal((d, d, d))
    gl, gr = grad_loss(p, T), grad_reg(p)
    scale = max(gl.norm() * gr.norm(), 1.0)
    assert abs(gl.inner(gr)) <= 1e-9 * scale


def test_gradient_norm_splits_by_pythagoras():
    rng = np.random.default_rng(101)
    for _ in range(10):
        p = random_point(2, 4, rng)
        T = rng.standard_normal((4, 4, 4))
        lam = default_lambda(2)
        total = grad(p, T, lam).norm() ** 2
        parts = grad_loss(p, T).norm() ** 2 + lam**2 * grad_reg(p).norm() ** 2
        assert total == pytest.approx(parts, rel=1e-9)


def test_phi_euler_identity():
    # phi is homogeneous of degree 4: <grad phi, p> = 4 phi
    rng = np.random.default_rng(103)
    for _ in range(10):
        p = random_point(2, 3, rng)
        assert grad_phi(p).inner(p) == pytest.approx(4.0 * reg_phi(p), rel=1e-10)


def test_loss_is_gauge_invariant():
    # rotating the core against the factors leaves both L and phi unchanged
    rng = np.random.default_rng(107)
    p = random_point(2, 4, rng)
    T = rng.standard_normal((4, 4, 4))
    from tuckersearch.tensor_core import multilinear_transform
    Qs = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(3)]
    q = FactorPoint(multilinear_transform(p.S, *Qs), Qs[0].T @ p.A,
                    Qs[1].T @ p.B, Qs[2].T @ p.C)
    assert objective(q, T).L == pytest.approx(objective(p, T).L, rel=1e-10)
    assert reg_phi(q) == pytest.approx(reg_phi(p), rel=1e-9, abs=1e-12)


def test_loss_is_scaling_invariant():
    rng = np.random.default_rng(109)
    p = random_point(2, 4, rng)
    T = rng.standard_normal((4, 4, 4))
    for c in (0.5, 2.0):
        q = FactorPoint(p.S / c**3, c * p.A, c * p.B, c * p.C)
        assert objective(q, T).L == pytest.approx(objective(p, T).L, rel=1e-10)


def test_reg_grows_quartically_off_the_balanced_set():
    rng = np.random.default_rng(113)
    p = balanced_random_point(2, 4, rng)
    delta = random_point(2, 4, rng)
    delta = (1.0 / delta.norm()) * delta
    eps = np.geomspace(1e-3, 1e-1, 7)
    vals = np.array([reg(p + float(e) * delta) for e in eps])
    assert np.all(vals > 0)
    slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
    assert 3.5 <= slope <= 4.5


# ---------------------------------------------------------------------------
# Hessian-vector products


def analytic_hessian_1d(s, a, b, c, t):
    """Hand-differentiated Hessian of (s a b c - t)^2 in (s, a, b, c)."""
    e = s * a * b * c - t
    H = np.zeros((4, 4))
    H[0, 0] = 2 * (a * b * c) ** 2
    H[1, 1] = 2 * (s * b * c) ** 2
    H[2, 2] = 2 * (s * a * c) ** 2
    H[3, 3] = 2 * (s * a * b) ** 2
    H[0, 1] = H[1, 0] = 2 * ((a * b * c) * (s * b * c) + e * b * c)
    H[0, 2] = H[2, 0] = 2 * ((a * b * c) * (s * a * c) + e * a * c)
    H[0, 3] = H[3, 0] = 2 * ((a * b * c) * (s * a * b) + e * a * b)
    H[1, 2] = H[2, 1] = 2 * ((s * b * c) * (s * a * c) + e * s * c)
    H[1, 3] = H[3, 1] = 2 * ((s * b * c) * (s * a * b) + e * s * b)
    H[2, 3] = H[3, 2] = 2 * ((s * a * c) * (s * a * b) + e * s * a)
    return H


def _point_1d(s, a, b, c):
    return FactorPoint(np.full((1, 1, 1), s), np.full((1, 1), a),
                       np.full((1, 1), b), np.full((1, 1), c))


def test_hvp_matches_analytic_hessian_in_one_dim():
    s, a, b, c, t = 1.0, 0.5, -2.0, 1.5, 2.0
    p = _point_1d(s, a, b, c)
    T = np.full((1, 1, 1), t)
    H = analytic_hessian_1d(s, a, b, c, t)
    rng = np.random.default_rng(127)
    for _ in range(5):
        v = rng.standard_normal(4)
        dv = _point_1d(*v)
        got = hvp(p, dv, T, lam=0.0)
        want = H @ v
        np.testing.assert_allclose(
            [got.S[0, 0, 0], got.A[0, 0], got.B[0, 0], got.C[0, 0]], want,
            atol=1e-4, rtol=1e-4)


def test_hvp_is_symmetric_as_a_bilinear_form():
    rng = np.random.default_rng(131)
    p = random_point(2, 3, rng)
    T = rng.standard_normal((3, 3, 3))
    u = random_point(2, 3, rng)
    v = random_point(2, 3, rng)
    left = hvp(p, u, T).inner(v)
    right = hvp(p, v, T).inner(u)
    assert left == pytest.approx(right, rel=1e-5, abs=1e-6)


def test_hvp_rejects_zero_direction():
    p = FactorPoint.zeros(1, 2)
    with pytest.raises(ValueError):
        hvp(p, FactorPoint.zeros(1, 2), np.zeros((2, 2, 2)))


def test_eval_along_is_exact():
    rng = np.random.default_rng(137)
    p = random_point(2, 3, rng)
    delta = random_point(2, 3, rng)
    T = rng.standard_normal((3, 3, 3))
    rows = eval_along(p, delta, T, [0.0, 0.25, -1.0])
    assert rows[0][1].f == pytest.approx(objective(p, T).f, rel=1e-12)
    shifted = p + 0.25 * delta
    assert rows[1][1].f == pytest.approx(objective(shifted, T).f, rel=1e-12)
    assert rows[2][0] == -1.0


# ---------------------------------------------------------------------------
# serialization


def test_point_round_trip(tmp_path):
    rng = np.random.default_rng(139)
    p = random_point(2, 4, rng)
    path = tmp_path / "p.json"
    save_point(path, p)
    q = load_point(path)
    np.testing.assert_array_equal(q.S, p.S)
    np.testing.assert_array_equal(q.A, p.A)
    np.testing.assert_array_equal(q.B, p.B)
    np.testing.assert_array_equal(q.C, p.C)


def test_point_dict_rejects_malformed_documents():
    rng = np.random.default_rng(149)
    doc = point_to_dict(random_point(2, 3, rng))
    bad = dict(doc)
    bad["A"] = [[0.0, 0.0, 0.0]]
    with pytest.raises(ValueError):
        point_from_dict(bad)
    bad = dict(doc)
    bad["S"] = {"dims": [2, 2, 2], "data": [0.0] * 7}
    with pytest.raises(ValueError):
        point_from_dict(bad)
    bad = dict(doc)
    del bad["C"]
    with pytest.raises(ValueError):
        point_from_dict(bad)

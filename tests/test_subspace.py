import numpy as np
import pytest

from tuckersearch.subspace import (projection_distance_bound, split,
                                   subspace_split, true_projection)
from tuckersearch.tensor_core import (FactorPoint, flatten,
                                      multilinear_transform, random_point)


def outer3(a, b, c):
    return np.einsum("i,j,k->ijk", a, b, c)


# ---------------------------------------------------------------------------
# split


def test_split_diagonal_example():
    M = np.array([[3.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    ms = split(M, 1.0)
    assert ms.rank1 == 1
    np.testing.assert_allclose(ms.m1, [[3, 0, 0], [0, 0, 0]], atol=1e-12)
    np.testing.assert_allclose(ms.u1[:, 0], [1, 0, 0], atol=1e-12)
    assert ms.u2.shape == (3, 2)
    assert ms.v1.shape == (2, 1)
    assert ms.v2.shape == (2, 1)
    # the small part M - m1 is the second singular pair, 0.5 v2 u2[:, 0]^T
    np.testing.assert_allclose(0.5 * ms.v2 @ ms.u2[:, :1].T, M - ms.m1,
                               atol=1e-12)


def test_split_tie_goes_to_small_part():
    M = np.diag([2.0, 1.0])
    ms = split(M, 1.0)
    assert ms.rank1 == 1
    np.testing.assert_allclose(M - ms.m1, np.diag([0.0, 1.0]), atol=1e-12)


def test_split_reconstructs_and_bases_are_orthonormal():
    rng = np.random.default_rng(151)
    for _ in range(20):
        r, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        M = rng.standard_normal((r, d))
        sigma = float(rng.uniform(0, 1.5))
        ms = split(M, sigma)
        # m1 lives on the large bases and M - m1 on their complements
        small = M - ms.m1
        for X in (ms.v2.T @ ms.m1, ms.m1 @ ms.u2, ms.v1.T @ small,
                  small @ ms.u1):
            np.testing.assert_allclose(X, 0.0, atol=1e-12)
        for basis, dim in ((np.hstack([ms.u1, ms.u2]), d),
                           (np.hstack([ms.v1, ms.v2]), r)):
            assert basis.shape == (dim, dim)
            np.testing.assert_allclose(basis.T @ basis, np.eye(dim),
                                       atol=1e-12)
        # the large part keeps only singular values above the threshold
        kept = np.linalg.svd(ms.m1, compute_uv=False)
        assert np.all(kept[:ms.rank1] > sigma)
        assert np.all(np.linalg.svd(small, compute_uv=False) <= sigma + 1e-12)


def test_split_zero_threshold_keeps_all_nonzero_directions():
    M = np.array([[1.0, 0.0], [0.0, 0.0]])
    ms = split(M, 0.0)
    assert ms.rank1 == 1
    np.testing.assert_array_equal(ms.m1, M)
    # the zero singular direction still lands in the complement bases
    assert ms.u2.shape == (2, 1)
    assert ms.v2.shape == (2, 1)


def test_split_is_deterministic():
    rng = np.random.default_rng(157)
    M = rng.standard_normal((3, 5))
    a, b = split(M, 0.3), split(M, 0.3)
    np.testing.assert_array_equal(a.u1, b.u1)
    np.testing.assert_array_equal(a.v2, b.v2)


def _first_entries(basis):
    """Each column's first entry of magnitude > 1e-12."""
    return [col[np.abs(col) > 1e-12][0] for col in basis.T]


def test_split_bases_have_positive_first_entries():
    # each v column's first entry above 1e-12 is positive, and its paired
    # u column flips with it; u columns past min(r, d) pair with nothing
    # and take their own sign
    rng = np.random.default_rng(163)
    for r, d in ((2, 5), (3, 3), (3, 2)):
        M = rng.standard_normal((r, d))
        ms = split(M, 0.5)
        V, U = np.hstack([ms.v1, ms.v2]), np.hstack([ms.u1, ms.u2])
        assert all(x > 0 for x in _first_entries(V))
        assert all(x > 0 for x in _first_entries(U[:, min(r, d):]))
        s = np.linalg.svd(M, compute_uv=False)
        k = min(r, d)
        np.testing.assert_allclose((V[:, :k] * s) @ U[:, :k].T, M,
                                   atol=1e-12)


def test_split_rejects_bad_input():
    with pytest.raises(ValueError):
        split(np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        split(np.zeros((2, 2)), -1.0)


# ---------------------------------------------------------------------------
# true span projections


def test_true_projection_axis_aligned_example():
    T = outer3(*[np.eye(4)[i] for i in (0, 0, 0)]) \
        + outer3(*[np.eye(4)[i] for i in (1, 1, 1)])
    P = true_projection(T, 1)
    expect = np.diag([1.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(P, expect, atol=1e-12)
    assert np.trace(P) == pytest.approx(2.0, abs=1e-12)


def test_true_projection_is_an_orthogonal_projection():
    rng = np.random.default_rng(163)
    T = random_point(2, 5, rng).apply()
    for mode in (1, 2, 3):
        P = true_projection(T, mode)
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)
        assert np.trace(P) == pytest.approx(2.0, abs=1e-9)


def test_true_projection_zero_tensor():
    np.testing.assert_array_equal(true_projection(np.zeros((3, 3, 3)), 2),
                                  np.zeros((3, 3)))


def test_true_projection_matches_the_full_svd_of_the_flattening():
    # the projector comes from a QR of the flattening's transpose and an
    # SVD of its triangular factor; the reference is the full SVD
    rng = np.random.default_rng(173)
    d = 7
    targets = [random_point(k, d, rng).apply() for k in range(1, 5)]
    targets.append(targets[-1] + 1e-2 * rng.standard_normal((d, d, d)))
    for T in targets:
        for mode in (1, 2, 3):
            U, s, _ = np.linalg.svd(flatten(T, mode), full_matrices=False)
            Uk = U[:, s > 1e-10 * s[0]]
            P = true_projection(T, mode)
            assert round(np.trace(P)) == Uk.shape[1]
            assert np.abs(P - Uk @ Uk.T).max() <= 1e-12
    assert [round(np.trace(true_projection(T, 2))) for T in targets] \
        == [1, 2, 3, 4, d]


def test_true_projection_ignores_other_mode_rotations():
    rng = np.random.default_rng(167)
    T = random_point(2, 4, rng).apply()
    Q2 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    Q3 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    T2 = multilinear_transform(T, np.eye(4), Q2, Q3)
    np.testing.assert_allclose(true_projection(T2, 1), true_projection(T, 1),
                               atol=1e-9)


# ---------------------------------------------------------------------------
# point-level split


def test_subspace_split_off_span_part_vanishes_for_consistent_factors():
    rng = np.random.default_rng(173)
    truth = random_point(2, 5, rng)
    T = truth.apply()
    splits = subspace_split(truth, T, sigma=0.1)
    for m3 in splits.m3:
        assert np.linalg.norm(m3) <= 1e-9


def test_subspace_split_detects_off_span_factor_part():
    # T lives on axes 1..2 in mode 1; give A an extra row along axis 4
    e = np.eye(5)
    T = outer3(e[0], e[0], e[0]) + outer3(e[1], e[1], e[1])
    A = np.array([e[0], e[4]])
    B = np.array([e[0], e[1]])
    C = np.array([e[0], e[1]])
    p = FactorPoint(np.zeros((2, 2, 2)), A, B, C)
    splits = subspace_split(p, T, sigma=0.5)
    np.testing.assert_allclose(splits.m3[0], np.array([e[0] * 0, e[4]]),
                               atol=1e-12)
    assert np.linalg.norm(splits.m3[1]) <= 1e-12


# ---------------------------------------------------------------------------
# projection perturbation bound


def test_projection_bound_trivial_when_unperturbed():
    rng = np.random.default_rng(211)
    M = rng.standard_normal((2, 5))
    lhs, rhs = projection_distance_bound(M, M, np.zeros_like(M))
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_projection_bound_closed_form_two_by_three():
    # rows of M1 span axes 1, 2; the perturbation tilts row 2 toward axis 3
    M1 = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    M2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    lhs, rhs = projection_distance_bound(M1 + M2, M1, M2)
    # |P - P1|_F = sqrt(2) sin(angle), sin = 1/sqrt(5); sigma_min = sqrt(5)
    assert lhs == pytest.approx(np.sqrt(0.4), rel=1e-12)
    assert rhs == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-12)
    assert lhs <= rhs


def test_projection_bound_holds_on_random_perturbations():
    rng = np.random.default_rng(223)
    for _ in range(50):
        r, d = 3, 6
        U = np.linalg.qr(rng.standard_normal((d, r)))[0]
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        s = rng.uniform(0.5, 2.0, size=r)
        M1 = (V * s) @ U.T
        M2 = 0.05 * rng.standard_normal((r, d))
        lhs, rhs = projection_distance_bound(M1 + M2, M1, M2)
        assert lhs <= rhs + 1e-12


def test_projection_bound_shape_check():
    with pytest.raises(ValueError):
        projection_distance_bound(np.zeros((2, 3)), np.zeros((2, 3)),
                                  np.zeros((2, 2)))

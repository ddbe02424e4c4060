import numpy as np
import pytest

from tuckersearch.subspace import projection_distance_bound, subspace_split
from tuckersearch.tensor_core import FactorPoint

from escape_tools import mode_split


def split(M, sigma):
    """The split of M at threshold sigma: mode 1's of a point whose three
    factors are M."""
    r = M.shape[0]
    return mode_split(subspace_split(
        FactorPoint(np.zeros((r, r, r)), M, M, M), sigma), 0)


def large_part(ms):
    """The split's large part, v1 diag(s1) u1^T."""
    return (ms.v1 * ms.s1) @ ms.u1.T


# ---------------------------------------------------------------------------
# subspace_split


def test_split_diagonal_example():
    M = np.array([[3.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    ms = split(M, 1.0)
    assert ms.rank1 == 1
    np.testing.assert_allclose(ms.s1, [3.0], atol=1e-12)
    np.testing.assert_allclose(large_part(ms), [[3, 0, 0], [0, 0, 0]],
                               atol=1e-12)
    np.testing.assert_allclose(ms.u1[:, 0], [1, 0, 0], atol=1e-12)
    assert ms.u2.shape == (3, 2)
    assert ms.v1.shape == (2, 1)
    assert ms.v2.shape == (2, 1)
    # the small part M - m1 is the second singular pair, 0.5 v2 u2[:, 0]^T
    np.testing.assert_allclose(0.5 * ms.v2 @ ms.u2[:, :1].T,
                               M - large_part(ms), atol=1e-12)


def test_split_tie_goes_to_small_part():
    M = np.diag([2.0, 1.0])
    ms = split(M, 1.0)
    assert ms.rank1 == 1
    np.testing.assert_allclose(M - large_part(ms), np.diag([0.0, 1.0]),
                               atol=1e-12)


def test_split_reconstructs_and_bases_are_orthonormal():
    rng = np.random.default_rng(151)
    for _ in range(20):
        r, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        M = rng.standard_normal((r, d))
        sigma = float(rng.uniform(0, 1.5))
        ms = split(M, sigma)
        # v1 diag(s1) u1^T is the rank-k truncation of M, with k the
        # number of singular values above sigma
        V, s, Ut = np.linalg.svd(M)
        k = int(np.sum(s > sigma))
        m1 = large_part(ms)
        np.testing.assert_allclose(ms.s1, s[:k], rtol=1e-12)
        np.testing.assert_allclose(m1, (V[:, :k] * s[:k]) @ Ut[:k],
                                   atol=1e-12)
        # m1 lives on the large bases and M - m1 on their complements
        small = M - m1
        for X in (ms.v2.T @ m1, m1 @ ms.u2, ms.v1.T @ small,
                  small @ ms.u1):
            np.testing.assert_allclose(X, 0.0, atol=1e-12)
        for basis, dim in ((np.hstack([ms.u1, ms.u2]), d),
                           (np.hstack([ms.v1, ms.v2]), r)):
            assert basis.shape == (dim, dim)
            np.testing.assert_allclose(basis.T @ basis, np.eye(dim),
                                       atol=1e-12)
        # the large part keeps only singular values above the threshold
        kept = np.linalg.svd(m1, compute_uv=False)
        assert np.all(kept[:ms.rank1] > sigma)
        assert np.all(np.linalg.svd(small, compute_uv=False) <= sigma + 1e-12)


def test_split_zero_threshold_keeps_all_nonzero_directions():
    M = np.array([[1.0, 0.0], [0.0, 0.0]])
    ms = split(M, 0.0)
    assert ms.rank1 == 1
    np.testing.assert_array_equal(ms.s1, [1.0])
    np.testing.assert_array_equal(large_part(ms), M)
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


@pytest.mark.parametrize("r,d", [(1, 1), (1, 3), (2, 8), (3, 5), (4, 24)])
def test_split_of_a_zero_factor_takes_the_bases_the_svd_gives(r, d):
    # the zero start's factors skip the SVD; its bases are the identities,
    # exactly what the SVD returns for a zero matrix
    V, _, Ut = np.linalg.svd(np.zeros((r, d)), full_matrices=True)
    ms = split(np.zeros((r, d)), 0.05)
    assert ms.rank1 == 0 and ms.v1.shape == (r, 0) and ms.u1.shape == (d, 0)
    assert np.array_equal(ms.v2, V) and np.array_equal(ms.u2, Ut.T)
    assert not np.signbit(ms.v2).any() and not np.signbit(ms.u2).any()
    assert ms.s1.shape == (0,)
    assert np.array_equal(large_part(ms), np.zeros((r, d)))


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

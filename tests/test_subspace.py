import itertools

import numpy as np
import pytest

from tuckersearch.subspace import projection_distance_bound, subspace_split
from tuckersearch.tensor_core import FactorPoint

from escape_tools import mode_split


def point(M):
    """A point whose three factors are M."""
    r = M.shape[0]
    return FactorPoint(np.zeros((r, r, r)), M, M, M)


def split(M, sigma):
    """Mode 1's part of the split of point(M) at threshold sigma: its rank
    and its maps, the preimage map, the coefficient complement and the
    ambient complement."""
    splits = subspace_split(point(M), sigma)
    return (splits.ranks[0], splits.coef[0, 0], splits.coef[0, 1],
            splits.amb[0])


def assert_projector(P):
    """P is symmetric and idempotent, to rounding."""
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    np.testing.assert_allclose(P @ P, P, atol=1e-12)


# ---------------------------------------------------------------------------
# subspace_split


def test_split_diagonal_example():
    M = np.array([[3.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    k, pre, cv, amb = split(M, 1.0)
    assert k == 1
    np.testing.assert_allclose(pre, np.diag([1 / 3, 0.0]), atol=1e-12)
    np.testing.assert_allclose(cv, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(amb, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    # the small part M - m1, the second singular pair, lives on both
    # complements
    small = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    np.testing.assert_allclose(cv @ small @ amb, small, atol=1e-12)


def test_split_tie_goes_to_small_part():
    k, pre, cv, amb = split(np.diag([2.0, 1.0]), 1.0)
    assert k == 1
    np.testing.assert_allclose(pre, np.diag([0.5, 0.0]), atol=1e-12)
    np.testing.assert_allclose(cv, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(amb, np.diag([0.0, 1.0]), atol=1e-12)


def test_split_maps_match_the_reference_and_complements_are_projectors():
    rng = np.random.default_rng(151)
    for _ in range(20):
        r, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        M = rng.standard_normal((r, d))
        sigma = float(rng.uniform(0, 1.5))
        k, pre, cv, amb = split(M, sigma)
        ms = mode_split(point(M), 0, sigma)
        assert k == ms.rank1
        # the complements are symmetric idempotent: the projectors onto
        # the reference's v2 and u2, which m1 does not touch and which
        # hold the small part M - m1
        assert_projector(cv)
        assert_projector(amb)
        np.testing.assert_allclose(cv, ms.v2 @ ms.v2.T, atol=1e-12)
        np.testing.assert_allclose(amb, ms.u2 @ ms.u2.T, atol=1e-12)
        small = M - ms.m1
        for X in (cv @ ms.m1, ms.m1 @ amb, cv @ small - small,
                  small @ amb - small):
            np.testing.assert_allclose(X, 0.0, atol=1e-12)
        # the preimage map is the reference's v1 diag(1/s1) v1^T: m1^T
        # takes its image of any x to u1 v1^T x, shrunk by at least sigma
        np.testing.assert_allclose(pre, (ms.v1 / ms.s1) @ ms.v1.T,
                                   atol=1e-12)
        for x in rng.standard_normal((5, r)):
            u = pre @ x
            np.testing.assert_allclose(ms.m1.T @ u, ms.u1 @ (ms.v1.T @ x),
                                       atol=1e-12)
            assert np.linalg.norm(ms.m1.T @ u) >= sigma * np.linalg.norm(u)


def test_split_zero_threshold_keeps_all_nonzero_directions():
    k, pre, cv, amb = split(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.0)
    assert k == 1
    np.testing.assert_allclose(pre, np.diag([1.0, 0.0]), atol=1e-15)
    # the zero singular direction still lands in the complements
    np.testing.assert_allclose(cv, np.diag([0.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(amb, np.diag([0.0, 1.0]), atol=1e-15)


def test_split_is_deterministic():
    p = point(np.random.default_rng(157).standard_normal((3, 5)))
    a, b = subspace_split(p, 0.3), subspace_split(p, 0.3)
    assert a.coef.tobytes() == b.coef.tobytes()
    assert a.amb.tobytes() == b.amb.tobytes()


def test_split_maps_ignore_the_signs_of_singular_pairs(monkeypatch):
    # negating any set of singular pairs, a column of V with the matching
    # row of U^T, leaves every map unchanged, bit for bit: the split needs
    # no sign convention
    rng = np.random.default_rng(163)
    svd = np.linalg.svd
    for r, d in ((2, 5), (3, 3), (3, 2)):
        p = FactorPoint(np.zeros((r, r, r)),
                        *rng.standard_normal((3, r, d)))
        want = subspace_split(p, 0.5)
        for signs in itertools.product((1.0, -1.0), repeat=min(r, d)):
            def negated(F, *args, signs=np.array(signs), **kwargs):
                V, s, Ut = svd(F, *args, **kwargs)
                return V * signs, s, Ut * signs[:, None]

            monkeypatch.setattr(np.linalg, "svd", negated)
            got = subspace_split(p, 0.5)
            monkeypatch.setattr(np.linalg, "svd", svd)
            assert got.ranks == want.ranks
            assert got.coef.tobytes() == want.coef.tobytes()
            assert got.amb.tobytes() == want.amb.tobytes()


@pytest.mark.parametrize("r,d", [(1, 1), (1, 3), (2, 8), (3, 5), (4, 24)])
def test_split_of_a_zero_factor_takes_the_bases_the_svd_gives(r, d):
    # the zero start's factors skip the SVD; their maps are the ones
    # built from the bases the SVD gives a zero factor among nonzero
    # ones: no preimage map, and identities for both complements
    zero = subspace_split(FactorPoint.zeros(r, d), 0.05)
    rng = np.random.default_rng(10 * r + d)
    mixed = subspace_split(FactorPoint(
        np.zeros((r, r, r)), np.zeros((r, d)),
        *rng.standard_normal((2, r, d))), 0.05)
    assert zero.ranks == (0, 0, 0) and mixed.ranks[0] == 0
    for m in range(3):
        assert np.array_equal(zero.coef[m, 0], np.zeros((r, r)))
        assert np.array_equal(zero.coef[m, 1], np.eye(r))
        assert np.array_equal(zero.amb[m], np.eye(d))
        assert zero.coef[m].tobytes() == mixed.coef[0].tobytes()
        assert zero.amb[m].tobytes() == mixed.amb[0].tobytes()
    assert not np.signbit(zero.coef).any() and not np.signbit(zero.amb).any()


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

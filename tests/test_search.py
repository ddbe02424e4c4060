"""Tests for the local search driver: stationary-point finding, negative
curvature, and the full run loop."""
import dataclasses
import importlib
import json
import math
from collections import deque

import numpy as np
import pytest

import tuckersearch.escape as escape_module
import tuckersearch.search as search_module
from tuckersearch.escape import (_GRIDS, SignSearchResults,
                                 sample_missing_directions, sign_flip_search)
from tuckersearch.objective import (balanced_random_point, default_lambda,
                                    eval_along, grad, grad_loss, hvp,
                                    objective, reg_phi, save_point)
from tuckersearch.search import (LANCZOS_STEPS, SAMPLED_BLOCKS,
                                 SAMPLES_PER_BLOCK, STALL_GRAD, STALL_TOL,
                                 STALL_WINDOW, TAU1, TAU2, Evaluator,
                                 NonFiniteError, SearchConfig, SearchTrace,
                                 TraceRecord, _negative_curvature, run)
from tuckersearch.subspace import subspace_split
from tuckersearch.tensor_core import (FactorPoint, multilinear_transform,
                                      norm_f, random_point)

from escape_tools import sign_patterns, sign_step_values
from instances import desk_instance, exact_instance, noisy_desk_instance

# the package's `objective` names the function, which hides the module
objective_module = importlib.import_module("tuckersearch.objective")


# ---------------------------------------------------------------------------
# stationary-point finding


def find_sosp(p0, T, lam=None, budget=10_000, seed=0, epsilon=-math.inf):
    """The search of search._find_sosp from p0 with an Evaluator of the
    given budget, its curvature probes and escape rounds drawn from
    streams of seed; returns (final report, FindSospInfo, Evaluator)."""
    ev = Evaluator(T, default_lambda(p0.r) if lam is None else lam, budget)
    probe_rng, sampler = (np.random.default_rng(s)
                          for s in np.random.SeedSequence(seed).spawn(2))
    rep, info = search_module._find_sosp(ev.objective(p0), ev, probe_rng,
                                         SearchTrace(seed=seed), epsilon,
                                         sampler)
    return rep, info, ev


def count_objective_calls(monkeypatch):
    """Count every `objective` call through each binding a run reaches it
    by: the search's own, `hvp`'s gradient difference in the objective
    module, and a sign search's baseline in the escape module; returns the
    list that grows by one per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return objective(*args, **kwargs)

    for module in (search_module, objective_module, escape_module):
        monkeypatch.setattr(module, "objective", counting)
    return calls


def record_calls(monkeypatch, name):
    """Wrap the search function `name`, which takes a report first and an
    Evaluator among its arguments; log each call as (point bytes, gradient
    evaluations spent when it started, result)."""
    calls = []
    fn = getattr(search_module, name)

    def recording(*args):
        ev = next(a for a in args if isinstance(a, Evaluator))
        start = ev.used
        out = fn(*args)
        calls.append((args[0].point.flat.tobytes(), start, out))
        return out

    monkeypatch.setattr(search_module, name, recording)
    return calls


def fail_gradient_line_searches(monkeypatch, first_only,
                                where=lambda rep: True):
    """Make the first gradient line search fail, or every one, of those
    from a report that `where` accepts; returns the points at which they
    failed."""
    line_search = search_module._line_search
    failed = []

    def failing(rep, *args, slope=None, **kwargs):
        if (slope is not None and where(rep)
                and not (first_only and failed)):
            failed.append(rep.point)
            return None
        return line_search(rep, *args, slope=slope, **kwargs)

    monkeypatch.setattr(search_module, "_line_search", failing)
    return failed


def test_find_sosp_descends_to_tolerance_near_optimum():
    rng = np.random.default_rng(0)
    truth = balanced_random_point(2, 3, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    p0 = truth + 0.01 * random_point(2, 3, rng)
    f0 = objective(p0, T).f
    rep, info, _ = find_sosp(p0, T, budget=20_000, seed=0)
    p = rep.point
    # a small gradient ends the descent; no escape step gains there, and
    # the curvature probe that follows finds nothing and certifies it
    assert info.converged and info.rounds == 1
    assert rep.f <= f0 + 1e-15
    assert grad(objective(p, T)).norm() <= TAU1
    direction, rho = _negative_curvature(
        p, np.random.default_rng(0), Evaluator(T, default_lambda(2), 10**9))
    assert direction is None and rho > -TAU2 / 2.0


def test_find_sosp_returns_origin_unchanged(monkeypatch):
    # every derivative vanishes at the origin: the descent stops there
    # after one gradient and scores the escape round first.  With that
    # round made to find nothing, the curvature probe sees a flat Hessian
    # in two products and certifies the origin, which comes back unchanged
    monkeypatch.setattr(search_module, "_escape_round",
                        lambda *args: None)
    escapes = record_calls(monkeypatch, "_escape_round")
    probes = record_calls(monkeypatch, "_curvature_step")
    T = exact_instance(2, 3, 0)
    p0 = FactorPoint.zeros(2, 3)
    rep, info, ev = find_sosp(p0, T, budget=5_000)
    for blk0, blk1 in zip(p0.blocks(), rep.point.blocks()):
        assert np.array_equal(blk0, blk1)
    origin = p0.flat.tobytes()
    assert [call[:2] for call in escapes] == [(origin, 1)]
    assert [call[:2] for call in probes] == [(origin, 1)]
    assert probes[0][2][0] is None
    assert info.converged and info.rounds == 1
    assert ev.used == 5


def test_find_sosp_budget_exhaustion_flagged():
    T = exact_instance(2, 4, 1)
    rng = np.random.default_rng(3)
    p0 = random_point(2, 4, rng)
    _, info, ev = find_sosp(p0, T, budget=5, seed=0)
    assert not info.converged and ev.exhausted


def make_flat_saddle(theta):
    """Exact critical point whose Hessian has an eigenvalue <= -2*theta.

    The core uses only its first slice, the first factor row spans a
    one-dimensional subspace, and the target adds a theta-sized rank-one
    block outside every factor row space; coupling a new core slice with a
    new factor row captures it at second order.
    """
    S = np.zeros((3, 3, 3))
    S[0, 0, 0] = 1.0
    S[0, 1, 1] = 1.0
    A = np.zeros((3, 3))
    A[0, 0] = math.sqrt(2.0)
    B = np.zeros((3, 3))
    B[0, 0] = 1.0
    B[1, 1] = 1.0
    C = B.copy()
    p = FactorPoint(S, A, B, C)
    T = multilinear_transform(S, A, B, C)
    T[2, 0, 1] += theta
    return p, T


def test_find_sosp_escapes_constructed_strict_saddle(monkeypatch):
    # the gradient vanishes at the saddle, so the descent stops there at
    # once; no escape step gains, and the curvature step that follows
    # leaves it.  The descent resumed from that step fits T
    theta = 0.3
    p, T = make_flat_saddle(theta)
    assert grad(objective(p, T)).norm() <= 1e-12
    f0 = objective(p, T).f
    assert math.isclose(f0, theta**2, rel_tol=1e-12)
    escapes = record_calls(monkeypatch, "_escape_round")
    probes = record_calls(monkeypatch, "_curvature_step")
    rep, info, ev = find_sosp(p, T, budget=1_500, epsilon=1e-4)
    saddle = p.flat.tobytes()
    assert escapes[0] == (saddle, 1, None)
    at, start, (hit, rho) = probes[0]
    assert (at, start) == (saddle, 1)
    assert hit is not None and rho <= -TAU2 / 2.0
    assert hit[0] == "negative-curvature" and hit[1].f < f0
    assert rep.f <= 1e-4 < f0
    assert not info.converged


def test_curvature_step_searches_one_direction_signed_against_the_gradient(
        monkeypatch):
    # near the strict saddle the gradient is not orthogonal to the probe's
    # direction v: the step line-searches v once, negated where g.v > 0,
    # from a first trial step of max(2 |rho|, 1e-3)
    p, T = make_flat_saddle(0.3)
    p = p + 1e-3 * random_point(3, 3, np.random.default_rng(1))
    directions, searches = [], []
    negative_curvature = search_module._negative_curvature
    line_search = search_module._line_search

    def probing(*args):
        out = negative_curvature(*args)
        directions.append(out)
        return out

    def searching(rep, direction, ev, kind, **kwargs):
        searches.append((direction, kind, kwargs))
        return line_search(rep, direction, ev, kind, **kwargs)

    monkeypatch.setattr(search_module, "_negative_curvature", probing)
    monkeypatch.setattr(search_module, "_line_search", searching)
    negated = set()
    for seed in range(4):
        directions.clear()
        searches.clear()
        ev = Evaluator(T, default_lambda(3), 10**6)
        rep = ev.objective(p)
        g = grad(rep)
        step, rho = search_module._curvature_step(
            rep, g, np.random.default_rng(seed), ev)
        [(v, theta)] = directions
        [(d, kind, kwargs)] = searches
        assert v is not None and rho == theta <= -TAU2 / 2.0
        assert kind == "negative-curvature"
        assert kwargs == {"init_step": max(2.0 * abs(rho), 1e-3)}
        assert g.inner(v) != 0.0 and g.inner(d) <= 0.0
        negated.add(g.inner(v) > 0.0)
        want = -v if g.inner(v) > 0.0 else v
        assert d.flat.tobytes() == want.flat.tobytes()
        assert step[0] == "negative-curvature" and step[1].f < rep.f
    # both branches of the sign rule ran
    assert negated == {False, True}


def test_find_sosp_curvature_probe_cut_short_is_not_converged(
        monkeypatch):
    # a failed line search is a stop.  Near the saddle a probe finds its
    # negative curvature in 8 products (16 evaluations); with every
    # gradient line search made to fail, the first gradient's stop takes
    # its escape round's step, which starts a second round.  That round's
    # gradient fails as well, its escape round finds nothing, and a budget
    # of 12 stops its probe after 5 products.  The search must not claim a
    # stationary point
    p, T = make_flat_saddle(0.3)
    p = p + 1e-3 * random_point(3, 3, np.random.default_rng(1))
    ev = Evaluator(T, default_lambda(3), 10**6)
    direction, _ = _negative_curvature(p, np.random.default_rng(0), ev)
    assert direction is not None and ev.used == 16
    failed = fail_gradient_line_searches(monkeypatch, first_only=False)
    escapes = record_calls(monkeypatch, "_escape_round")
    probes = record_calls(monkeypatch, "_curvature_step")
    _, info, ev = find_sosp(p, T, budget=12, epsilon=1e-4)
    points = [q.flat.tobytes() for q in failed]
    assert points[0] == p.flat.tobytes() and len(points) == 2
    assert [call[:2] for call in escapes] == [(points[0], 1), (points[1], 2)]
    assert escapes[0][2] is not None and escapes[1][2] is None
    assert probes == [(points[1], 2, (None, math.inf))]
    assert ev.used == 12 and info.rounds == 2
    assert not info.converged


def record_gradient_line_searches(monkeypatch):
    """Wrap search._line_search; for each gradient line search record the
    point, the direction, the first trial step, the Armijo slope and the
    accepted step."""
    calls = []
    line_search = search_module._line_search

    def recording(rep, direction, ev, kind, init_step=1.0, slope=None):
        hit = line_search(rep, direction, ev, kind, init_step=init_step,
                          slope=slope)
        if slope is not None:
            calls.append((rep.point, direction, init_step, slope,
                          None if hit is None else hit[2]))
        return hit

    monkeypatch.setattr(search_module, "_line_search", recording)
    return calls


def gauss_newton_blocks(p):
    """W_A, W_B, W_C and G_A, G_B, G_C at p by einsum: G_m = M M^T and
    W_m = S_(m) (G_k kron G_l) S_(m)^T over the other two modes."""
    S = p.S
    G = [M @ M.T for M in p.factors]
    W = [np.einsum("xyz,yb,zc,abc->xa", S, G[1], G[2], S),
         np.einsum("xyz,xa,zc,abc->yb", S, G[0], G[2], S),
         np.einsum("xyz,xa,yb,abc->zc", S, G[0], G[1], S)]
    return W + G


def block_diagonal(p, blocks):
    """The dense matrix with kron(G_A, G_B, G_C) on the core and
    kron(W_m, I_d) on factor m, from r x r blocks ordered as in
    gauss_newton_blocks."""
    r, d = p.r, p.d
    n = r**3
    P = np.zeros((p.flat.size, p.flat.size))
    P[:n, :n] = np.kron(np.kron(blocks[3], blocks[4]), blocks[5])
    for m in range(3):
        lo = n + m * r * d
        P[lo:lo + r * d, lo:lo + r * d] = np.kron(blocks[m], np.eye(d))
    return P


def dense_preconditioner_inverse(p, blocks=None):
    """P^-1 as a dense matrix: each r x r block (by default those of
    gauss_newton_blocks) shifted by GN_DAMPING tr / r plus 1e-12 of the
    largest such mean, then block_diagonal, inverted."""
    blocks = gauss_newton_blocks(p) if blocks is None else blocks
    means = [np.trace(X) / p.r for X in blocks]
    shifted = [X + (search_module.GN_DAMPING * m + 1e-12 * max(means))
               * np.eye(p.r) for X, m in zip(blocks, means)]
    return np.linalg.inv(block_diagonal(p, shifted))


def dense_inverse_bfgs(pairs, Pinv):
    """The inverse-Hessian estimate of BFGS as a dense matrix: from
    gamma P^-1 with gamma = s.y / (y.P^-1 y) of the newest pair, one update
    per pair, oldest first."""
    s, y = pairs[-1]
    H = (float(s @ y) / float(y @ Pinv @ y)) * Pinv
    n = Pinv.shape[0]
    for s, y in pairs:
        rho = 1.0 / float(s @ y)
        V = np.eye(n) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return H


def report_at(p):
    """An objective report at p; the preconditioner reads only the point and
    its factor Grams, so the target does not matter."""
    return objective(p, np.zeros((p.d,) * 3))


def test_lbfgs_direction_matches_dense_inverse_bfgs():
    rng = np.random.default_rng(3)
    for r, d in ((2, 3), (3, 4)):
        p = random_point(r, d, rng)
        n = p.flat.size
        Pinv = dense_preconditioner_inverse(p)
        M = rng.standard_normal((n, n))
        curvature = M @ M.T + 0.1 * np.eye(n)
        g = random_point(r, d, rng)
        pairs = []
        for _ in range(search_module.LBFGS_MEMORY):
            s = rng.standard_normal(n)
            y = curvature @ s
            pairs.append((s, y))
            direction = search_module._lbfgs_direction(
                report_at(p), g, [(s, y, float(s @ y)) for s, y in pairs])
            want = -dense_inverse_bfgs(pairs, Pinv) @ g.flat
            assert np.linalg.norm(direction.flat - want) <= (
                1e-10 * np.linalg.norm(want))
        assert search_module._lbfgs_direction(report_at(p), g, []) is None


def test_gauss_newton_blocks_match_the_hessian_at_an_exact_fit():
    # at T = S(A, B, C) with lambda = 0 the residual vanishes, so the
    # Hessian is the Gauss-Newton matrix 2 J^T J: its diagonal blocks are
    # 2 kron(W_m, I_d) on factor m and 2 kron(G_A, G_B, G_C) on the core,
    # which central differences get to about 1e-12.  The preconditioner
    # applied to a stack of vectors, and the direction from one (s, Hs)
    # pair, must agree with P built from those blocks
    rng = np.random.default_rng(8)
    for r, d in ((2, 3), (3, 4)):
        p = random_point(r, d, rng)
        T = multilinear_transform(p.S, p.A, p.B, p.C)
        H = dense_hessian(p, T, 0.0)
        n, rd = r**3, r * d
        spans = [(0, n)] + [(n + m * rd, n + (m + 1) * rd) for m in range(3)]
        want = 2.0 * block_diagonal(p, gauss_newton_blocks(p))
        for lo, hi in spans:
            assert np.abs(H[lo:hi, lo:hi] - want[lo:hi, lo:hi]).max() <= (
                1e-9 * np.abs(want[lo:hi, lo:hi]).max())
        # W_m read off the Hessian: kron(W_m, I_d) holds W_m at every d-th
        # row and column; the core's Grams are determined by their
        # Kronecker product only up to scalars, so they come from einsum
        blocks = [0.5 * H[lo:hi:d, lo:hi:d] for lo, hi in spans[1:]]
        Pinv = dense_preconditioner_inverse(
            p, blocks + gauss_newton_blocks(p)[3:])
        v = rng.standard_normal((2, p.flat.size))
        got = search_module._gn_apply(search_module._gn_inverse(report_at(p)),
                                      v)
        assert np.abs(got - v @ Pinv.T).max() <= 1e-9 * np.abs(got).max()
        s = rng.standard_normal(p.flat.size)
        y = H @ s
        g = random_point(r, d, rng)
        direction = search_module._lbfgs_direction(
            report_at(p), g, [(s, y, float(s @ y))])
        want = -dense_inverse_bfgs([(s, y)], Pinv) @ g.flat
        assert np.linalg.norm(direction.flat - want) <= (
            1e-9 * np.linalg.norm(want))


def test_gradient_line_search_follows_the_lbfgs_direction(monkeypatch):
    calls = record_gradient_line_searches(monkeypatch)
    # a start from which all 12 steps keep their (s, y) pair
    T = exact_instance(2, 4, 0)
    p0 = random_point(2, 4, np.random.default_rng(2), scale=0.5)
    # lambda = 0 keeps rebalance moves out of the way
    find_sosp(p0, T, lam=0.0, budget=12)
    assert len(calls) == 12
    # no pair yet: along -g from twice the initial hint of 1
    p, direction, first, slope, _ = calls[0]
    g = grad(objective(p, T, 0.0))
    assert np.array_equal(direction.flat, -g.flat)
    assert first == 2.0
    assert math.isclose(slope, g.inner(g), rel_tol=1e-12)
    pairs = []
    for (p_prev, *_), (p, direction, first, slope, _) in zip(calls,
                                                             calls[1:]):
        g_prev = grad(objective(p_prev, T, 0.0))
        g = grad(objective(p, T, 0.0))
        s, y = p.flat - p_prev.flat, g.flat - g_prev.flat
        assert float(s @ y) > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y)
        pairs = (pairs + [(s, y)])[-search_module.LBFGS_MEMORY:]
        want = -dense_inverse_bfgs(
            pairs, dense_preconditioner_inverse(p)) @ g.flat
        assert np.linalg.norm(direction.flat - want) <= (
            1e-10 * np.linalg.norm(want))
        assert first == 1.0
        assert math.isclose(slope, -g.inner(direction), rel_tol=1e-12)


def test_gradient_line_search_falls_back_where_curvature_is_negative(
        monkeypatch):
    # r = d = 1, lambda = 0: f = (s a b c - 1)^2.  Along s = a = eps,
    # b = c = 1 the gradient grows while f falls (curvature -2 at eps = 0),
    # so s.y < 0 after the first step and the hint rule applies
    calls = record_gradient_line_searches(monkeypatch)
    received = []
    lbfgs_direction = search_module._lbfgs_direction

    def recording(rep, g, pairs):
        received.append(list(pairs))
        return lbfgs_direction(rep, g, pairs)

    monkeypatch.setattr(search_module, "_lbfgs_direction", recording)
    eps = 0.01
    p0 = FactorPoint(np.full((1, 1, 1), eps), np.full((1, 1), eps),
                     np.ones((1, 1)), np.ones((1, 1)))
    T = np.ones((1, 1, 1))
    find_sosp(p0, T, lam=0.0, budget=2)
    assert len(calls) == 2
    # the (s, y) pair of the first step has s.y < 0, and no such pair may
    # reach the two-loop recursion
    assert len(received) == 2
    for s, y, sy in (pair for pairs in received for pair in pairs):
        assert sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y)
    (p_prev, d_prev, first0, _, step0), (p, d, first1, _, _) = calls
    assert first0 == 2.0 and step0 is not None
    g_prev = grad(objective(p_prev, T, 0.0))
    g = grad(objective(p, T, 0.0))
    # with no pair kept, both steps go along -g
    assert np.array_equal(d_prev.flat, -g_prev.flat)
    assert np.array_equal(d.flat, -g.flat)
    s = p.flat - p_prev.flat
    assert float(s @ (g.flat - g_prev.flat)) < 0.0
    assert first1 == 2.0 * step0


def tilted_two_missing_saddle(tilt):
    """The saddle gallery's two-missing point (r = 2, d = 3, theta = 0.3),
    with factor A scaled by 1 + tilt and the core by 1 / (1 + tilt): the
    fit and L are unchanged, and only lambda R, quartic in the tilt,
    pulls the point back along the scaling orbit.  Returns (p, T)."""
    S = np.zeros((2, 2, 2))
    S[0, 0, 0] = 1.0
    row = np.zeros((2, 3))
    row[0, 0] = 1.0
    T = multilinear_transform(S, row, row, row)
    T[1, 1, 0] += 0.3
    return FactorPoint(S / (1.0 + tilt), (1.0 + tilt) * row, row, row), T


def test_plateau_descent_hands_off_to_escape(monkeypatch):
    # the two-missing saddle tilted by 1e-2: the regularizer's gradient,
    # from 6e-6 to 8e-6 and above TAU1 = 1e-6, moves f by less than
    # 1e-6 f over the first 5 steps, so the stall rule ends the descent
    # before a slow window could score an escape round, and only the
    # progress window can end it
    events = record_round_events(monkeypatch)
    line_searches = record_gradient_line_searches(monkeypatch)
    res = run_from(*tilted_two_missing_saddle(1e-2), monkeypatch)
    assert res.status == "converged"
    # with every gradient line search succeeding, the escape round is
    # scored at a stall above TAU1: the progress hand-off
    assert all(step is not None for *_, step in line_searches)
    assert [name for name, _ in events
            if name not in ("grad", "step")] == ["stall", "escape"]
    assert res.grad_evals <= 1_000


def test_rebalance_evaluates_only_the_accepted_move(monkeypatch):
    # an orbit move leaves S(A, B, C) and so L unchanged: each trial is
    # scored from its Gram gaps, and only the accepted point, here the
    # second trial, is evaluated in full
    trials = []
    apply_balance = search_module._apply_balance

    def counting(*args):
        trials.append(1)
        return apply_balance(*args)

    monkeypatch.setattr(search_module, "_apply_balance", counting)
    T = exact_instance(2, 5, 0)
    ev = Evaluator(T, default_lambda(2), 100)
    rep = ev.objective(random_point(2, 5, np.random.default_rng(1)))
    kind, cand_rep, eta, gain = search_module._rebalance_once(rep, ev)
    assert kind == "rebalance" and gain == rep.f - cand_rep.f
    assert len(trials) == 2
    assert ev.used == 1 and ev.objective_evals == 2
    assert cand_rep.f == objective(cand_rep.point, T, ev.lam).f < rep.f
    assert cand_rep.L == pytest.approx(rep.L, rel=1e-12)


def test_negative_curvature_exits_at_a_flat_hessian():
    # every term of f is quartic or higher at the origin, so H = 0 there:
    # the norm probes alone show that no eigenvalue lies below -TAU2/2
    u, v, w = np.random.default_rng(4).standard_normal((3, 8))
    T = np.einsum("i,j,k->ijk", u, v, w)
    T /= norm_f(T)
    ev = Evaluator(T, default_lambda(2), 10**9)
    direction, rho = _negative_curvature(FactorPoint.zeros(2, 8),
                                         np.random.default_rng(0), ev)
    assert direction is None
    assert math.isfinite(rho)
    assert ev.used <= 6


class RankOneHessian:
    """An evaluator whose Hessian is H = c e e^T at every point."""

    def __init__(self, c, e):
        self.c, self.e, self.used = c, e, 0

    def affords(self, cost):
        return True

    def hvp(self, p, v):
        self.used += 2
        return p._like(self.c * (self.e @ v.flat) * self.e)


def test_negative_curvature_finds_a_lone_eigenvalue_past_the_flat_test():
    # H = -3 TAU2 e e^T at n = 352 (r = 4, d = 24): a random unit start
    # meets e by about n^-1/2, so |Hq| of the first product is near
    # 0.16 TAU2, below the flat test's TAU2 / 4.  The second Lanczos vector
    # is the first's image, e itself, so the test waits for it; on the
    # first product alone 18 of these 20 starts passed H as flat
    p = FactorPoint.zeros(4, 24)
    e = np.random.default_rng(99).standard_normal(p.flat.size)
    e /= np.linalg.norm(e)
    for seed in range(20):
        ev = RankOneHessian(-3.0 * TAU2, e)
        direction, rho = _negative_curvature(p, np.random.default_rng(seed),
                                             ev)
        assert direction is not None, seed
        assert rho == pytest.approx(-3.0 * TAU2, rel=1e-9)
        assert abs(direction.flat @ e) == pytest.approx(1.0, rel=1e-9)
        assert ev.used == 4


def curvature_direction(p, T, lam, rng):
    """Unit direction with Rayleigh quotient at most -TAU2/2, or None."""
    direction, _ = _negative_curvature(p, rng, Evaluator(T, lam, 10**9))
    return direction


def test_negative_curvature_on_hand_solved_instance():
    # r = d = 1 with lam = 0: f = (s*a*b*c - t)^2; at s = a = 0, b = c = 1
    # the Hessian eigenvalues are {-2t, 2t, 0, 0}
    p = FactorPoint(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.ones((1, 1)),
                    np.ones((1, 1)))
    T = np.ones((1, 1, 1))
    direction = curvature_direction(p, T, lam=0.0,
                                    rng=np.random.default_rng(0))
    assert direction is not None
    assert math.isclose(direction.norm(), 1.0, rel_tol=1e-9)
    rho = direction.inner(hvp(p, direction, T, 0.0))
    assert rho <= -TAU2 / 2
    assert abs(rho - (-2.0)) <= 0.2


def test_negative_curvature_none_at_global_minimum():
    rng = np.random.default_rng(1)
    truth = balanced_random_point(2, 3, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    direction = curvature_direction(truth, T, default_lambda(2),
                                    rng=np.random.default_rng(2))
    assert direction is None


def dense_hessian(p, T, lam):
    """The Hessian at p assembled column by column from hvp, symmetrized."""
    n = p.flat.size
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        H[:, j] = hvp(p, p._like(e), T, lam).flat
    return 0.5 * (H + H.T)


def test_lanczos_ritz_value_matches_dense_hessian_spectrum():
    # exact saddles with r = 3, d = 3 (their smallest eigenvalue is -2
    # theta) and r = d = 1 (eigenvalues {-2, 2, 0, 0}); the probe's Ritz
    # value lies above the smallest eigenvalue and within its own
    # residual bound, 0.1 |rho|, of it, and it is the Rayleigh quotient of
    # the direction returned
    saddles = [make_flat_saddle(theta) + (lam,)
               for theta in (0.1, 0.3, 1.0) for lam in (0.0, 1e-3)]
    saddles.append((FactorPoint(np.zeros((1, 1, 1)), np.zeros((1, 1)),
                                np.ones((1, 1)), np.ones((1, 1))),
                    np.ones((1, 1, 1)), 0.0))
    for p, T, lam in saddles:
        H = dense_hessian(p, T, lam)
        lowest = np.linalg.eigvalsh(H)[0]
        assert lowest < -0.1
        for seed in range(3):
            ev = Evaluator(T, lam, 10**9)
            direction, rho = _negative_curvature(
                p, np.random.default_rng(seed), ev)
            assert ev.used <= 2 * search_module.LANCZOS_STEPS
            assert direction is not None
            assert math.isclose(direction.norm(), 1.0, rel_tol=1e-9)
            assert lowest - 1e-8 <= rho <= lowest + 0.1 * abs(rho)
            assert abs(direction.flat @ H @ direction.flat - rho) <= 1e-6
    # at a global minimum the spectrum is nonnegative and no direction
    # comes back
    rng = np.random.default_rng(1)
    truth = balanced_random_point(2, 3, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    lowest = np.linalg.eigvalsh(dense_hessian(truth, T, 1e-3))[0]
    direction, rho = _negative_curvature(truth, np.random.default_rng(2),
                                         Evaluator(T, 1e-3, 10**9))
    assert direction is None
    assert lowest - 1e-8 <= rho


class MatrixEvaluator:
    """An Evaluator stand-in whose Hessian is a fixed symmetric matrix; it
    affords every product."""

    def __init__(self, H):
        self.H = H
        self.used = 0

    def affords(self, cost):
        return True

    def hvp(self, p, v):
        self.used += 2
        return p._like(self.H @ v.flat)


def test_lanczos_ritz_values_have_no_ghosts_on_a_clustered_spectrum():
    # eigenvalue -0.1, 22 eigenvalues spread over [0, 1] and the outliers
    # 1e2, 1e4 and 1e6.  The outliers converge within a few products, and
    # three-term Lanczos then loses orthogonality to them: after 12
    # products from seed 0 its tridiagonal holds three copies of 1e6 and
    # two of 1e4, and its smallest Ritz value is -0.060.  With full
    # reorthogonalization the probe comes within 2% of -0.1 from each start
    n = 26
    lam = np.concatenate(([-0.1], np.linspace(0.0, 1.0, n - 4),
                          [1e2, 1e4, 1e6]))
    V = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
    H = (V * lam) @ V.T
    H = 0.5 * (H + H.T)
    lowest = np.linalg.eigvalsh(H)[0]
    p = FactorPoint.zeros(2, 3)
    assert p.flat.size == n
    for seed in range(6):
        direction, rho = _negative_curvature(
            p, np.random.default_rng(seed), MatrixEvaluator(H))
        assert direction is not None
        assert lowest - 1e-8 <= rho <= lowest + 0.1 * abs(rho)
        assert abs(direction.flat @ H @ direction.flat - rho) <= (
            1e-8 * abs(rho))


# ---------------------------------------------------------------------------
# the run loop


def test_run_rejects_a_zero_target():
    # the zero start fits such a target exactly, so a run would report
    # converged after no work; a norm that underflows counts as zero
    for T in (np.zeros((4, 4, 4)), np.full((3, 3, 3), 1e-200)):
        with pytest.raises(ValueError, match="zero norm"):
            run(T, SearchConfig(r=2, seed=0))


def test_run_exact_rank_instance_converges():
    T = exact_instance(2, 5, 0)
    res = run(T, SearchConfig(r=2, epsilon=1e-4, seed=0))
    assert res.status == "converged"
    assert res.f <= 1e-4
    assert res.grad_evals <= 50_000


def test_run_stops_descending_at_epsilon():
    # the descent returns as soon as f <= epsilon: the first record at the
    # target is the last
    for T in (exact_instance(2, 5, 0), desk_instance(2, 8, 1)):
        res = run(T, SearchConfig(r=2, epsilon=1e-4, seed=0))
        assert res.status == "converged"
        at_target = [rec.iteration for rec in res.trace.records
                     if rec.f <= 1e-4]
        assert at_target == [len(res.trace.records) - 1]


# desk targets, exact and with noise of norm 1e-2, and the start of each
# scale test
SCALE_CASES = ((2, 8, 0.0, "zero"), (2, 8, 1e-2, "zero"),
               (3, 16, 0.0, "zero"), (3, 16, 1e-2, "zero"),
               (2, 8, 0.0, "hosvd"), (2, 8, 1e-2, "random:0.5"))


def relative_error(res, T):
    return norm_f(res.point.apply() - T) / norm_f(T)


@pytest.mark.parametrize("r,d,noise,init", SCALE_CASES)
def test_run_repeats_exactly_at_power_of_two_scales(r, d, noise, init):
    # 2^k T / |2^k T| is T / |T| bit for bit, so the search on the unit-norm
    # problem repeats exactly: the same status and counts, the same step
    # kinds, sizes, gradient norms and curvatures.  f, L, R and the
    # improvements are in the target's units, 4^k times the unscaled
    # run's, also exactly, and the final record agrees with the result
    T = noisy_desk_instance(r, d, 0, noise)
    cfg = SearchConfig(r=r, seed=0, init=init)
    base = run(T, cfg)
    for k in (-10, -3, 3, 10):
        res = run(2.0**k * T, cfg)
        assert (res.status, res.grad_evals, res.objective_evals,
                res.rounds) == (base.status, base.grad_evals,
                                base.objective_evals, base.rounds)
        assert len(res.trace.records) == len(base.trace.records)
        for got, want in zip(res.trace.records, base.trace.records):
            assert (got.step_kind, got.step_size, got.grad_norm,
                    got.min_curvature) == (want.step_kind, want.step_size,
                                           want.grad_norm, want.min_curvature)
            assert (got.f, got.L, got.R, got.improvement) == tuple(
                4.0**k * v for v in (want.f, want.L, want.R,
                                     want.improvement))
        last = res.trace.records[-1]
        assert (res.f, res.L, res.R) == (last.f, last.L, last.R)
        assert (res.f, res.L, res.R) == (4.0**k * base.f, 4.0**k * base.L,
                                         4.0**k * base.R)
        # the point's blocks scale by (2^k |T|)^(1/4), so S(A, B, C) by 2^k
        moved = res.point.apply() - 2.0**k * base.point.apply()
        assert norm_f(moved) <= 1e-12 * 2.0**k * norm_f(base.point.apply())


@pytest.mark.parametrize("r,d,noise,init", SCALE_CASES[:4])
def test_run_status_and_accuracy_do_not_depend_on_scale(r, d, noise, init):
    # a decimal scale rounds T / |T| differently, which moves the counts
    # (64 to 113 gradient evaluations on the exact (3, 16) target), but
    # neither the status nor the accuracy: a converged run has
    # f <= epsilon |T|^2 and so a relative error of at most
    # epsilon^(1/2) = 1e-2
    T = noisy_desk_instance(r, d, 0, noise)
    statuses = set()
    for scale in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3):
        res = run(scale * T, SearchConfig(r=r, seed=0, init=init))
        statuses.add(res.status)
        if res.status == "converged":
            assert res.f <= 1e-4 * norm_f(scale * T) ** 2
            assert relative_error(res, scale * T) <= 1e-2
    assert len(statuses) == 1


def test_small_desk_targets_are_fitted_not_converged_at_the_start():
    # at norm 1e-2 the zero start's f, |T|^2 = 1e-4, meets an absolute
    # epsilon of 1e-4 with a relative error of 1; against epsilon |T|^2
    # the target is as hard as at norm 1, and the run must fit it
    for r, d in ((2, 8), (3, 16), (4, 24)):
        for seed in range(3):
            T = 1e-2 * desk_instance(r, d, seed)
            res = run(T, SearchConfig(r=r, seed=seed))
            assert res.status == "converged"
            assert res.grad_evals > 10 and len(res.trace.records) > 2
            assert relative_error(res, T) <= 1e-2


def test_desk_grid_gradient_evaluation_count():
    # a guard on the descent policy: the desk grid, (r, d) in (2, 8),
    # (3, 16), (4, 24) x seeds 0-2, takes 461 gradient evaluations with
    # BLAS at one thread and 447 at two.  With the slow window disabled it
    # takes 562 (570 at two), and L-BFGS from the scalar H0 = (s.y / y.y) I
    # takes 1,059 (1,645 without the slow window), so the bound catches
    # both.  Before the zero point's escape step was taken in closed form
    # the grid took 480 (443 at two), 659 with the slow window disabled;
    # before the search solved on T / |T| it took 650, and 812 when every
    # first-order stop probed the curvature before its escape round;
    # before the escape round went first, steepest descent with
    # Barzilai-Borwein steps took 4,965 and a descent that ends only on a
    # small gradient or a fixed cap of 3,000 38,844.  For a given BLAS
    # build and thread count the count repeats exactly
    total = 0
    for r, d in ((2, 8), (3, 16), (4, 24)):
        for seed in range(3):
            res = run(desk_instance(r, d, seed), SearchConfig(r=r, seed=seed))
            assert res.status == "converged"
            total += res.grad_evals
    assert total <= 520


def test_noisy_desk_grid_gradient_evaluation_count():
    # a guard on the stall window: with noise of norm 5e-2 every desk
    # target ends no_direction on a plateau near the noise floor (f from
    # 2.2e-3 to 2.5e-3, against |N|^2 = 2.5e-3), where slow windows find
    # nothing to escape to and only the stall rule ends the descent.  The
    # grid takes 1,201 gradient evaluations with BLAS at one thread (1,168
    # at two), 1,670 with the stall rule disabled (1,623 at two; each
    # descent then runs on to its small-gradient stop), 1,322 with the slow
    # window disabled, and 2,259 from the scalar H0 = (s.y / y.y) I.  The
    # bound sits between the stall rule's disabled and enabled counts, so
    # deleting the rule fails it.  Before the zero point's escape step was
    # taken in closed form the grid took 1,067 (1,641 without the stall
    # rule).  Before the slow window it took 1,504
    # with a 10-step stall window and 2,029 with 50; before the search
    # solved on T / |T| it took 1,395, and 1,622 when every first-order
    # stop probed the curvature before its escape round
    total = 0
    for r, d in ((2, 8), (3, 16), (4, 24)):
        for seed in range(3):
            res = run(noisy_desk_instance(r, d, seed, 5e-2),
                      SearchConfig(r=r, seed=seed))
            assert res.status == "no_direction"
            total += res.grad_evals
    assert total <= 1_400


def test_reports_handed_on_leave_the_desk_grid_byte_equal(monkeypatch,
                                                          tmp_path):
    # the reports the search hands to `grad` and the sign searches (`at`)
    # only save work: with each gradient taken from a fresh evaluation of
    # its point and every `at` dropped, the desk grid, exact and with
    # noise 5e-2, writes the same factor and trace bytes after the same
    # gradient evaluations and objective count, and each sign search then
    # evaluates its own baseline, an `objective` call of the escape module
    # that the Evaluator does not count
    targets = []

    def outputs():
        out = []
        for noise in (0.0, 5e-2):
            for r, d in ((2, 8), (3, 16), (4, 24)):
                for seed in range(3):
                    T = noisy_desk_instance(r, d, seed, noise)
                    targets.append(T)
                    res = run(T, SearchConfig(r=r, seed=seed))
                    save_point(tmp_path / "factors.json", res.point)
                    res.trace.to_jsonl(tmp_path / "trace.jsonl")
                    out.append(((tmp_path / "factors.json").read_bytes(),
                                (tmp_path / "trace.jsonl").read_bytes(),
                                res.grad_evals, res.status,
                                res.objective_evals))
        return out

    searches, baselines = [], []

    def fresh_grad(rep):
        # the search evaluates on T / |T|
        T = targets[-1]
        return grad(objective(rep.point, T / np.linalg.norm(T), rep.lam))

    def dropping(fn, log):
        def wrapped(*args, at=None, **kwargs):
            log.append(at is not None)
            return fn(*args, **kwargs)
        return wrapped

    def baseline(*args, **kwargs):
        baselines.append(1)
        return objective(*args, **kwargs)

    handed = outputs()
    monkeypatch.setattr(search_module, "grad", fresh_grad)
    monkeypatch.setattr(search_module, "sign_flip_search",
                        dropping(sign_flip_search, searches))
    monkeypatch.setattr(escape_module, "objective", baseline)
    fresh = outputs()
    assert handed == fresh
    assert {x[3] for x in handed} == {"converged", "no_direction"}
    assert searches and all(searches)
    assert len(baselines) == len(searches)


def _predicted(p, deltas, worse):
    """Scores in place of the sign search: every direction steps by 1 to
    `worse` past p, with a predicted gain of 1e-9."""
    n = deltas.size // p.flat.size
    return SignSearchResults(
        point=p, steps=np.ones(n), deltas=np.tile(worse.flat, (n, 1)),
        improvements=np.full(n, 1e-9))


def test_run_refuses_an_escape_step_that_raises_f(monkeypatch):
    # the sign search at the zero point predicts a gain of 1e-9 for a step
    # that raises f: the run keeps its point and ends the round as if
    # nothing had gained enough.  At the origin, where the descent stops
    # after one gradient, that leaves the curvature probe, whose two
    # products find H flat: status no_direction after 5 evaluations, with
    # no second gradient
    rng = np.random.default_rng(5)
    worse = random_point(2, 4, rng, scale=2.0)
    evaluated, scored = [], []

    def predicting(p, T, deltas, lam=None, at=None):
        scored.append(at.point.norm())
        return _predicted(p, deltas, worse)

    def recording(p, *args, **kwargs):
        rep = objective(p, *args, **kwargs)
        evaluated.append(rep.f)
        return rep

    monkeypatch.setattr(search_module, "sign_flip_search", predicting)
    monkeypatch.setattr(search_module, "objective", recording)
    T = exact_instance(1, 4, 0)
    res = run(T, SearchConfig(r=2, seed=0))
    assert res.status == "no_direction" and res.rounds == 1
    assert res.grad_evals == 5
    assert scored == [0.0]
    assert [rec.step_kind for rec in res.trace.records] == ["init"]
    # the search evaluates on T / |T|: the point it kept is the origin, and
    # its f, in the target's units, is that of the first evaluation
    assert res.point.norm() == 0.0
    assert res.f == evaluated[0] * norm_f(T) ** 2
    # the refused step was evaluated at `worse`, and it would have raised f
    assert evaluated[-1] > evaluated[0]
    assert evaluated[-1] == objective(worse, T / norm_f(T),
                                      default_lambda(2)).f


def test_escape_round_refuses_a_sign_search_step_that_raises_f(
        monkeypatch):
    # away from the zero point the round scores its draws by the sign
    # search; a step it predicts to gain 1e-9 but that raises f is refused
    # there too: the round evaluates and counts the step's point, and
    # takes no step
    rng = np.random.default_rng(5)
    worse = random_point(2, 4, rng, scale=2.0)
    T = exact_instance(1, 4, 0)
    lam = default_lambda(2)
    rep = objective(_low_rank_point(2, 4, 1, rng), T, lam)
    searched = []

    def predicting(p, T, deltas, lam=None, at=None):
        searched.append(at is rep)
        return _predicted(p, deltas, worse)

    monkeypatch.setattr(search_module, "sign_flip_search", predicting)
    ev = Evaluator(T, lam, 1)
    taken = search_module._escape_round(rep, ev, np.random.default_rng(0))
    assert taken is None and searched == [True]
    assert ev.objective_evals == 1 and ev.used == 0
    assert objective(rep.point + worse, T, lam).f > rep.f


# the step kinds of a run: descent, then the sampled escape labels
STEP_KINDS = ({"init", "gradient", "negative-curvature", "rebalance"}
              | {"sampled({},{},{})".format(*ijk) for ijk in SAMPLED_BLOCKS})


def run_from(p, T, monkeypatch, **config):
    """`run` started at the point p, handed over as the hosvd start, with
    any other SearchConfig fields given; every step kind it records is in
    STEP_KINDS.  The search solves on T / |T|, where the point that
    corresponds to p is p / |T|^(1/4)."""
    start = norm_f(T) ** -0.25 * p
    monkeypatch.setattr(search_module, "hosvd", lambda T, r: start)
    res = run(T, SearchConfig(r=p.r, seed=0, init="hosvd", **config))
    assert {rec.step_kind for rec in res.trace.records} <= STEP_KINDS
    return res


@pytest.mark.parametrize("r,d", [(2, 8), (3, 16)])
def test_run_fixes_a_wrong_core_on_the_target_subspaces(monkeypatch, r, d):
    # the paper's first non-optimal case: the factors span the target's
    # subspaces and only the core is wrong.  With K = G_A kron G_B kron G_C
    # the loss is quadratic in the core, L = g_S.K^-1 g_S / 4, so a core
    # error that leaves L above epsilon shows a gradient of at least
    # 2 (lambda_min(K) epsilon)^(1/2): descent, not an escape, fixes it
    rng = np.random.default_rng([r, d])
    truth = random_point(r, d, rng)
    T = truth.apply()
    truth = FactorPoint(truth.S / norm_f(T), *truth.factors)
    T = T / norm_f(T)
    K = np.ones((1, 1))
    for M in truth.factors:
        K = np.kron(K, M @ M.T)
    lam_min = np.linalg.eigvalsh(K)[0]
    for size in (1e-1, 1e-2):
        p = FactorPoint(truth.S + size * rng.standard_normal(truth.S.shape),
                        *truth.factors)
        L = objective(p, T, 0.0).L
        g_S = grad_loss(p, T).S
        assert L == pytest.approx(g_S.ravel() @ np.linalg.solve(
            K, g_S.ravel()) / 4.0, rel=1e-8)
        assert L > 1e-4 and norm_f(g_S) >= 2.0 * math.sqrt(lam_min * 1e-4)
        res = run_from(p, T, monkeypatch)
        assert res.status == "converged"


@pytest.mark.parametrize("r,d", [(2, 8), (3, 16)])
def test_run_removes_factor_mass_off_the_target_span(monkeypatch, r, d):
    # the paper's second case: factor A has mass E, of unit norm, outside
    # the target's mode-1 span, and removing it fits T exactly.  The
    # residual is size S(E, B, C), so L falls along -E at the rate 2 L /
    # size: off-span mass that leaves L above epsilon shows a gradient of
    # at least 2 epsilon / size, and descent removes it
    rng = np.random.default_rng([r, d, 1])
    truth = random_point(r, d, rng)
    T = truth.apply()
    truth = FactorPoint(truth.S / norm_f(T), *truth.factors)
    T = T / norm_f(T)
    off_span = np.linalg.svd(truth.A)[2][r:]
    E = rng.standard_normal((r, d - r)) @ off_span
    E /= norm_f(E)
    for size in (1.0, 1e-1):
        p = FactorPoint(truth.S, truth.A + size * E, truth.B, truth.C)
        L = objective(p, T, 0.0).L
        g = grad_loss(p, T)
        assert L > 1e-4
        assert -g.A.ravel() @ E.ravel() == pytest.approx(-2.0 * L / size,
                                                         rel=1e-8)
        assert g.norm() >= 2.0 * L / size
        res = run_from(p, T, monkeypatch)
        assert res.status == "converged"


@pytest.mark.parametrize("theta", [0.3, 3e-2])
def test_run_escapes_a_single_missing_mode(monkeypatch, theta):
    # the paper's third case, a single missing mode: an exact critical
    # point whose one-missing direction gains at second order, as
    # negative curvature of at most -2 theta, which the Lanczos probe
    # finds for every theta with f = theta^2 above epsilon
    p, T = make_flat_saddle(theta)
    assert grad(objective(p, T)).norm() <= 1e-12
    assert objective(p, T).f > 1e-4
    res = run_from(p, T, monkeypatch)
    assert res.status == "converged"
    assert "negative-curvature" in {rec.step_kind
                                    for rec in res.trace.records}


def record_round_events(monkeypatch):
    """Log, in order, each gradient, Hessian-vector product, escape round,
    curvature probe and accepted step of the runs that follow, with the
    point it is at (a step with its kind).  Each escape round is preceded
    by an entry, at its point, that names why the search scored it:
    "small gradient" or "stall" at a first-order stop, or "slow" in a slow
    window (no line search is made to fail in these runs).  A stall
    is told from a slow window by the stall rule, replayed on the f of the
    steps recorded since the descent last started afresh (at the start, an
    escape step or a negative-curvature step), as the search keeps them."""
    events = []
    norms = []
    recent = deque(maxlen=STALL_WINDOW + 1)

    def logging(name, fn, at=lambda *args: args[0].flat.tobytes()):
        def wrapped(*args, **kwargs):
            events.append((name, at(*args)))
            return fn(*args, **kwargs)
        return wrapped

    def grading(rep):
        events.append(("grad", rep.point.flat.tobytes()))
        g = grad(rep)
        norms.append(g.norm())
        return g

    def why():
        fall = (recent[0] - recent[-1] if len(recent) > STALL_WINDOW
                else math.inf)
        if norms[-1] <= TAU1:
            return "small gradient"
        if fall <= STALL_TOL * recent[-1] and norms[-1] <= STALL_GRAD:
            return "stall"
        return "slow"

    escape_round = search_module._escape_round

    def escaping(rep, *args):
        events.append((why(), rep.point.flat.tobytes()))
        return escape_round(rep, *args)

    monkeypatch.setattr(search_module, "grad", grading)
    monkeypatch.setattr(search_module, "hvp", logging("hvp", hvp))
    monkeypatch.setattr(search_module, "subspace_split",
                        logging("escape", subspace_split))
    monkeypatch.setattr(search_module, "_negative_curvature",
                        logging("probe", _negative_curvature))
    monkeypatch.setattr(search_module, "_escape_round", escaping)
    append = SearchTrace.append

    def appending(self, rep, step_kind, *args, **kwargs):
        events.append(("step", step_kind))
        if step_kind == "init" or step_kind.startswith(
                ("sampled", "negative")):
            recent.clear()
        recent.append(rep.f)
        return append(self, rep, step_kind, *args, **kwargs)

    monkeypatch.setattr(SearchTrace, "append", appending)
    return events


def test_zero_start_takes_no_hvp_before_its_first_escape_step(monkeypatch):
    # every derivative vanishes at the zero start: one gradient shows it,
    # and the escape round, which charges nothing, moves off the origin
    # before any curvature probe is paid for
    events = record_round_events(monkeypatch)
    for T, r in ((exact_instance(1, 8, 0), 2), (desk_instance(2, 8, 0), 2),
                 (desk_instance(3, 16, 1), 3)):
        events.clear()
        res = run(T, SearchConfig(r=r, seed=0))
        assert res.status == "converged"
        first = next(i for i, (name, kind) in enumerate(events)
                     if name == "step" and kind.startswith("sampled"))
        assert [name for name, _ in events[:first]] == [
            "step", "grad", "small gradient", "escape"]


def test_stall_whose_escape_succeeds_takes_no_probe(monkeypatch):
    # the plateau of test_plateau_descent_hands_off_to_escape: the stall
    # hands its point to the escape round, whose step is taken, and no
    # curvature probe runs there
    events = record_round_events(monkeypatch)
    res = run_from(*tilted_two_missing_saddle(1e-2), monkeypatch)
    assert res.status == "converged"
    stalls = [i for i, (name, _) in enumerate(events) if name == "stall"]
    assert len(stalls) == 1
    stall = stalls[0]
    assert [name for name, _ in events[stall:stall + 3]] == [
        "stall", "escape", "step"]
    assert events[stall + 2][1].startswith("sampled")
    assert "probe" not in {name for name, _ in events}


def test_slow_window_scores_the_escape_round_before_the_stall(monkeypatch):
    # criterion 05's r=2, d=8, seed-0 target: after the first escape step
    # the descent crawls onto a saddle plateau near f = 0.0665, where the
    # stall rule used to end it after 5 flat steps.  A slow window scores
    # the escape round from inside the descent, at the point of its
    # gradient, and its step is taken; no stall is left to fire
    events = record_round_events(monkeypatch)
    res = run(desk_instance(2, 8, 0), SearchConfig(r=2, seed=0))
    assert res.status == "converged"
    names = [name for name, _ in events]
    assert "stall" not in names
    slow = [i for i, name in enumerate(names) if name == "slow"]
    assert slow
    for i in slow:
        assert events[i - 1] == ("grad", events[i][1])
        assert events[i + 1] == ("escape", events[i][1])
    assert any(events[i + 2][0] == "step"
               and events[i + 2][1].startswith("sampled") for i in slow)


def test_failed_slow_window_descends_on_from_the_same_gradient(
        monkeypatch):
    # the noisy desk target at the noise floor: slow windows score escape
    # rounds that find nothing.  The descent then steps from the gradient
    # it has, so no point takes a second gradient or a second escape
    # round, and each later try in the same descent waits twice as many
    # accepted steps as the one before (5, 10, 20, ...)
    events = record_round_events(monkeypatch)
    res = run(noisy_desk_instance(2, 8, 0, 5e-2), SearchConfig(r=2, seed=0))
    assert res.status == "no_direction"
    for name in ("grad", "escape"):
        at = [point for kind, point in events if kind == name]
        assert len(at) == len(set(at)), name
    failed = checked = 0
    wait, steps = STALL_WINDOW, None
    for i, (name, point) in enumerate(events):
        if name == "slow":
            if steps is not None:
                assert steps >= wait
                checked += 1
            if events[i + 2][0] == "step" and \
                    events[i + 2][1].startswith("sampled"):
                wait, steps = STALL_WINDOW, None
            else:
                assert events[i + 2] == ("step", "gradient")
                failed += 1
                wait, steps = 2 * wait, 0
        elif name == "step" and steps is not None:
            steps += 1
        elif name in ("stall", "small gradient"):
            wait, steps = STALL_WINDOW, None
    assert failed >= 3 and checked >= 2


def test_post_escape_gradient_ramp_scores_no_slow_window(monkeypatch):
    # a rank-1 target at r = 3: after the zero start's escape step the
    # memory is empty and the descent steps along -g from 2, 4, 8, ...,
    # with every pair of that ramp rejected by negative curvature.  f
    # falls by less than SLOW_TOL f over 5 of its steps, so only the
    # condition that the memory holds a pair keeps a slow window from
    # scoring an escape round mid-ramp
    events = record_round_events(monkeypatch)
    line_searches = record_gradient_line_searches(monkeypatch)
    res = run(exact_instance(1, 16, 10), SearchConfig(r=3, seed=10))
    assert res.status == "converged"
    assert "slow" not in {name for name, _ in events}
    assert [init for _, _, init, *_ in line_searches[:5]] == [
        2.0, 4.0, 8.0, 16.0, 32.0]


def test_lambda_zero_run_is_not_stopped_at_a_large_gradient():
    # at lambda = 0 the start-set target (2, 4), seed 2, from random:10
    # crawls with a gradient norm far above STALL_GRAD.  When a stall
    # handed on any point, this run ended no_direction after 82
    # evaluations at f = 0.98 with a gradient norm of 0.17; now the
    # descent goes on, and the budget ends a run that cannot progress
    T = exact_instance(2, 4, 2)
    res = run(T, SearchConfig(r=2, seed=2, budget=500, init="random:10",
                              lam=0.0))
    assert res.status == "budget"
    p = norm_f(T) ** -0.25 * res.point
    assert grad(objective(p, T / norm_f(T), 0.0)).norm() > STALL_GRAD


def test_lambda_zero_descent_hands_off_only_near_stationary(monkeypatch):
    # lambda = 0, (2, 6), random:10, seed 0, with a budget of 2,000: every
    # first-order stop, and so every escape round and probe after one, is
    # at a gradient norm of at most STALL_GRAD.  The run takes 2 rounds
    # (BLAS at one thread): its one stop's escape round finds nothing, and
    # the probe there gives a step.  When a stall handed on any point it
    # took 14 (375, 1.2M objective values and a no_direction verdict with
    # the full budget of 20,000), and 10 with the slow window from the
    # scalar H0 = (s.y / y.y) I; the slow window alone does not move this
    # count.  Each probe follows a stop's failed escape round, and the many
    # slow windows' rounds each step on.  No line search fails here
    events = record_round_events(monkeypatch)
    line_searches = record_gradient_line_searches(monkeypatch)
    T = exact_instance(2, 6, 0)
    res = run(T, SearchConfig(r=2, seed=0, budget=2_000, init="random:10",
                              lam=0.0))
    assert res.status == "budget"
    assert all(step is not None for *_, step in line_searches)
    probed = [at for name, at in events if name == "probe"]
    assert probed
    unit = FactorPoint.zeros(2, 6)
    for at in probed:
        p = unit._like(np.frombuffer(at).copy())
        assert grad(objective(p, T / norm_f(T), 0.0)).norm() <= STALL_GRAD
    assert res.rounds <= 5


@pytest.mark.parametrize("case", ["noisy", "saddle"])
def test_failed_escape_probes_its_point_once(monkeypatch, case):
    # when no escape step is taken at a first-order stop, the curvature
    # probe runs at that point, from its report: no point takes a second
    # gradient or a second escape round.  The noisy desk target ends on a
    # flat probe (no_direction); at the saddle the probe's negative
    # curvature step resumes the descent (converged).  Every probe follows
    # an escape round: a failed line search is a stop too
    if case == "noisy":
        events = record_round_events(monkeypatch)
        res = run(noisy_desk_instance(2, 8, 0, 5e-2),
                  SearchConfig(r=2, seed=0))
        assert res.status == "no_direction"
    else:
        events = record_round_events(monkeypatch)
        res = run_from(*make_flat_saddle(0.3), monkeypatch)
        assert res.status == "converged"
        assert res.trace.records[1].step_kind == "negative-curvature"
    for name in ("grad", "escape"):
        at = [point for kind, point in events if kind == name]
        assert len(at) == len(set(at)), name
    probes = [i for i, (name, _) in enumerate(events) if name == "probe"]
    assert probes
    for i in probes:
        point = events[i][1]
        before = [e for e in events[:i] if e[0] != "hvp"][-3:]
        assert [e[1] for e in before] == [point] * 3
        assert [e[0] for e in before] in (["grad", "stall", "escape"],
                                          ["grad", "small gradient",
                                           "escape"])


@pytest.mark.parametrize("gains", [False, True])
def test_stop_after_a_descent_probe_step_is_probed_afresh(monkeypatch,
                                                          gains):
    # near the flat saddle the first gradient line search is made to fail:
    # a stop, whose escape round is made to find nothing, so the probe
    # there gives a negative-curvature step.  TAU1 is then raised until
    # the next escape round, so the next gradient is a first-order stop.
    # That probe's Ritz value certifies nothing at the new stop: where its
    # escape round finds nothing (made so with gains False), the stop
    # probes its own point, and where the round gains, its step's record
    # carries no min_curvature
    p, T = make_flat_saddle(0.3)
    p = p + 1e-3 * random_point(3, 3, np.random.default_rng(1))
    failed = fail_gradient_line_searches(monkeypatch, first_only=True)
    curvature_step = search_module._curvature_step
    escape_round = search_module._escape_round
    probes, stops = [], []

    def probing(rep, *args):
        probes.append(rep.point.flat.tobytes())
        out = curvature_step(rep, *args)
        if len(probes) == 1:
            monkeypatch.setattr(search_module, "TAU1", math.inf)
        return out

    def escaping(rep, *args):
        stops.append(rep.point.flat.tobytes())
        if len(stops) == 1:
            return None
        monkeypatch.setattr(search_module, "TAU1", TAU1)
        return escape_round(rep, *args) if gains else None

    monkeypatch.setattr(search_module, "_curvature_step", probing)
    monkeypatch.setattr(search_module, "_escape_round", escaping)
    res = run_from(p, T, monkeypatch)
    kinds = [rec.step_kind for rec in res.trace.records]
    assert kinds[:2] == ["init", "negative-curvature"]
    assert res.trace.records[1].min_curvature <= -TAU2 / 2.0
    assert probes[0] == failed[0].flat.tobytes() == stops[0] != stops[1]
    assert len(failed) == 1
    if gains:
        assert kinds[2].startswith("sampled")
        stop = res.trace.records[2]
        assert stop.grad_norm > TAU1 and stop.min_curvature is None
        assert len(probes) == 1
    else:
        assert probes[1] == stops[1]
    assert res.status == "converged"


def test_failed_line_search_above_stall_grad_ends_budget(monkeypatch):
    # every gradient line search is made to fail from a random:10 start,
    # whose gradient norm is far above STALL_GRAD, and the stop's escape
    # round and probe are made to give nothing.  That gradient certifies
    # nothing, so the run ends budget with budget left, never no_direction
    failed = fail_gradient_line_searches(monkeypatch, first_only=False)
    monkeypatch.setattr(search_module, "_escape_round", lambda *args: None)
    probed = []

    def flat_probe(rep, g, rng, ev):
        # the two products of a probe that sees a flat Hessian, or an
        # infinite value where the budget cannot pay for them
        probed.append(rep.point)
        if not ev.affords(4):
            return None, math.inf
        for _ in range(2):
            ev.hvp(rep.point, rep.point)
        return None, 0.0

    monkeypatch.setattr(search_module, "_curvature_step", flat_probe)
    T = exact_instance(2, 4, 0)
    res = run(T, SearchConfig(r=2, seed=0, budget=500, init="random:10"))
    assert res.status == "budget" and res.grad_evals == 5
    assert probed == failed and len(failed) == 1
    assert [rec.step_kind for rec in res.trace.records] == ["init"]
    assert grad(objective(failed[0], T / norm_f(T))).norm() > STALL_GRAD


@pytest.mark.parametrize("case", ["certified", "escaped"])
def test_failed_line_search_near_stationary_escapes_before_one_probe(
        monkeypatch, case):
    # a failed line search at a gradient norm of at most STALL_GRAD is a
    # stop like a small gradient: its escape round is scored first, and a
    # probe runs at its point only where that round takes no step, once.
    # Near an exact fit, with every line search failing, the round finds
    # nothing and the probe certifies the point (no_direction); at the
    # tilted saddle, with the first failing, the round's step is taken and
    # no probe runs
    failed = fail_gradient_line_searches(monkeypatch,
                                         first_only=case == "escaped")
    events = []
    for name in ("_escape_round", "_curvature_step"):
        def logging(rep, *args, fn=getattr(search_module, name), name=name):
            events.append((name, rep.point.flat.tobytes()))
            return fn(rep, *args)
        monkeypatch.setattr(search_module, name, logging)
    if case == "certified":
        truth = balanced_random_point(2, 3, np.random.default_rng(0))
        p = truth + 1e-4 * random_point(2, 3, np.random.default_rng(1))
        T = truth.apply()
        res = run_from(p, T, monkeypatch, epsilon=1e-10, budget=400)
        assert res.status == "no_direction"
    else:
        p, T = tilted_two_missing_saddle(1e-2)
        res = run_from(p, T, monkeypatch)
        assert res.status == "converged"
        assert res.trace.records[1].step_kind.startswith("sampled")
    at = failed[0].flat.tobytes()
    assert grad(objective(failed[0], T / norm_f(T))).norm() <= STALL_GRAD
    expected = [("_escape_round", at)]
    if case == "certified":
        expected.append(("_curvature_step", at))
    assert events == expected


def test_a_slow_window_round_that_finds_nothing_repeats_at_its_stop(
        monkeypatch):
    # a slow window's escape round that finds nothing leaves the descent
    # to step on from the same gradient; where that line search fails,
    # the failure is a stop, and the stop scores a second escape round at
    # the same report, with fresh draws and no gradient between.  No
    # census run takes this path: the line search made to fail at the
    # point of the first such round forces it
    escapes = record_calls(monkeypatch, "_escape_round")

    def after_a_failed_round(rep):
        return bool(escapes) and escapes[-1][0] == rep.point.flat.tobytes() \
            and escapes[-1][2] is None

    failed = fail_gradient_line_searches(monkeypatch, first_only=True,
                                         where=after_a_failed_round)
    res = run(exact_instance(2, 3, 0), SearchConfig(r=2, seed=0))
    [point] = [q.flat.tobytes() for q in failed]
    at = [k for k, call in enumerate(escapes) if call[0] == point]
    assert len(at) == 2 and at[1] == at[0] + 1
    (_, start, first), (_, again, _) = (escapes[k] for k in at)
    assert first is None and again == start
    assert res.status == "converged"


def rare_exit_run(case, monkeypatch):
    """A run that takes an exit no census run takes."""
    saddle, T = make_flat_saddle(0.3)
    near_saddle = saddle + 1e-3 * random_point(3, 3,
                                               np.random.default_rng(1))
    if case == "failed line search, then probe step":
        fail_gradient_line_searches(monkeypatch, first_only=True)
        monkeypatch.setattr(search_module, "_escape_round",
                            lambda *args: None)
        return run_from(near_saddle, T, monkeypatch)
    if case == "probe cut short with budget left":
        fail_gradient_line_searches(monkeypatch, first_only=False)
        return run_from(near_saddle, T, monkeypatch, budget=13)
    if case == "failed line search, then escaped":
        fail_gradient_line_searches(monkeypatch, first_only=True)
        return run_from(*tilted_two_missing_saddle(1e-2), monkeypatch)
    if case == "certified, then no_direction":
        fail_gradient_line_searches(monkeypatch, first_only=False)
        truth = balanced_random_point(2, 3, np.random.default_rng(0))
        p = truth + 1e-4 * random_point(2, 3, np.random.default_rng(1))
        return run_from(p, truth.apply(), monkeypatch, epsilon=1e-10,
                        budget=400)
    if case == "failed rebalance":
        apply_balance = search_module._apply_balance
        monkeypatch.setattr(search_module, "_apply_balance",
                            lambda *args: (math.inf,)
                            + apply_balance(*args)[1:])
    T = random_point(2, 4, np.random.default_rng(0)).apply()
    return run(T, SearchConfig(r=2, seed=0, budget=2, init="random:10"))


# each rare exit's case, status, (grad_evals, objective_evals, rounds) and
# step kinds
RARE_EXITS = [
    ("failed line search, then probe step", "converged", (20, 22, 2),
     ["init", "negative-curvature*"] + ["gradient"] * 3),
    ("probe cut short with budget left", "budget", (12, 12, 2),
     ["init", "sampled(2,2,2)"]),
    ("failed line search, then escaped", "converged", (6, 9, 2),
     ["init", "sampled(2,2,1)"] + ["gradient"] * 5),
    ("certified, then no_direction", "no_direction", (25, 25, 1), ["init"]),
    ("rebalance", "budget", (2, 29, 1), ["init", "gradient", "rebalance"]),
    ("failed rebalance", "budget", (2, 28, 1), ["init", "gradient"]),
]


@pytest.mark.parametrize("case, status, counts, steps", RARE_EXITS)
def test_rare_exits_keep_their_records_and_counts(monkeypatch, case, status,
                                                  counts, steps):
    # the exits of the search loop that no census run reaches.  A failed
    # line search is a stop: its escape round, made to find nothing, is
    # followed by a probe step, or its escape step is taken, or at a small
    # gradient its probe certifies the point (no_direction).  With every
    # line search failing, a probe that the budget cuts short with an
    # evaluation left follows an escape step and a failed escape round.  A
    # rebalance, taken or failed, spends the last evaluation.  A step
    # marked * carries a min_curvature.  The objective count is the run's
    # `objective` calls
    calls = count_objective_calls(monkeypatch)
    res = rare_exit_run(case, monkeypatch)
    assert res.status == status
    assert (res.grad_evals, res.objective_evals, res.rounds) == counts
    assert res.objective_evals == len(calls)
    assert [rec.step_kind + "*" * (rec.min_curvature is not None)
            for rec in res.trace.records] == steps


def test_objective_count_is_the_runs_objective_calls(monkeypatch):
    # objective_evals is the number of `objective` calls a run makes,
    # through the search's binding and `hvp`'s, and not a tally of the
    # sign search's candidates: on the rare exits and the noisy desk
    # target, which between them take an escape step at the zero point
    # and away from it, a rebalance and a curvature probe
    reached = set()
    for case in [case for case, *_ in RARE_EXITS] + ["noisy desk"]:
        with monkeypatch.context() as patched:
            calls = count_objective_calls(patched)
            rounds = record_calls(patched, "_escape_round")
            products = []

            def counting_hvp(*args, fn=search_module.hvp):
                products.append(1)
                return fn(*args)

            patched.setattr(search_module, "hvp", counting_hvp)
            if case == "noisy desk":
                res = run(noisy_desk_instance(2, 8, 0, 5e-2),
                          SearchConfig(r=2, seed=0))
            else:
                res = rare_exit_run(case, patched)
            assert res.objective_evals == len(calls), case
        reached.update("escape" if np.frombuffer(point).any()
                       else "zero-point escape"
                       for point, _, step in rounds if step is not None)
        if "rebalance" in {rec.step_kind for rec in res.trace.records}:
            reached.add("rebalance")
        if products:
            reached.add("curvature probe")
    assert reached == {"zero-point escape", "escape", "rebalance",
                       "curvature probe"}


def test_trace_records_what_each_step_source_returns(monkeypatch):
    # every step source returns its step as (kind, report, size, gain),
    # and the search records it as handed: the record's kind, step size,
    # improvement and f are the step's, and its grad_norm is None only
    # for a rebalance, the one step taken without a gradient.  The rare
    # exits reach every kind; a step source called inside another (the
    # curvature step's line search) is counted once, by the outer one
    returned, recorded = [], []
    depth = [0]

    def spying(name):
        fn = getattr(search_module, name)

        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            step = out[0] if name == "_curvature_step" else out
            if step is not None and depth[0] == 0:
                returned.append(step)
            return out
        monkeypatch.setattr(search_module, name, wrapped)

    append = SearchTrace.append

    def appending(self, *args, **kwargs):
        rec = append(self, *args, **kwargs)
        recorded.append((rec.step_kind, rec.step_size, rec.improvement,
                         rec.f, rec.grad_norm))
        return rec

    monkeypatch.setattr(SearchTrace, "append", appending)
    for name in ("_rebalance_once", "_line_search", "_escape_round",
                 "_curvature_step"):
        spying(name)
    kinds = set()
    for case in ("failed line search, then probe step",
                 "failed line search, then escaped", "rebalance"):
        returned.clear()
        recorded.clear()
        with monkeypatch.context() as patched:
            rare_exit_run(case, patched)
        assert recorded[0][0] == "init"
        assert len(recorded) == len(returned) + 1
        for (kind, size, gain, f, gn), step in zip(recorded[1:], returned):
            assert (kind, size, gain, f) == (step[0], float(step[2]),
                                             float(step[3]), step[1].f)
            assert (gn is None) == (kind == "rebalance")
            kinds.add(kind.split("(")[0])
    assert kinds == {"gradient", "rebalance", "negative-curvature",
                     "sampled"}


def test_scale_table_gradient_evaluation_count():
    # the desk shapes' seed-0 targets at norms 1 to 1e3 all converge, in
    # 565 gradient evaluations together with BLAS at one thread (581 at
    # two).  The bound catches the slow window disabled (774, 792 at two)
    # and the scalar H0 (1,227; 1,854 without the slow window).  Before
    # the zero point's escape step was taken in closed form the set took
    # 565 (569 at two) and 1,111 with the slow window disabled.  The search
    # solves on T / |T|, so the norms differ only in the rounding of
    # T / |T|; the thresholds in the target's units took 1,161
    total = 0
    for r, d in ((2, 8), (3, 16), (4, 24)):
        for scale in (1.0, 10.0, 1e2, 1e3):
            res = run(scale * desk_instance(r, d, 0), SearchConfig(r=r))
            assert res.status == "converged"
            total += res.grad_evals
    assert total <= 700


START_SHAPES = ((1, 3), (2, 4), (2, 6), (3, 5), (4, 6))
START_INITS = ("zero", "hosvd", "random:1e-3", "random:0.5", "random:10")


def test_start_set_gradient_evaluation_count():
    # a guard beyond the zero start: five shapes x five inits x seeds 0-2
    # of the exact targets, at the default lambda, all converge, in 2,748
    # gradient evaluations together with BLAS at one and at two threads
    # (2,987 with the slow window disabled).  L-BFGS from the scalar
    # H0 = (s.y / y.y) I takes 4,156 (4,742 without the slow window) and a
    # deleted `_rebalance_once` 4,000, which the bound catches; dropping
    # gamma from H0 = gamma P^-1 took 3,081 (+3%) before the slow window,
    # which it does not.  Before the zero point's escape step was taken in
    # closed form the set took 2,764, the scalar H0 4,016 and a deleted
    # `_rebalance_once` 4,009, against a bound of 4,000 then
    total = 0
    for r, d in START_SHAPES:
        for init in START_INITS:
            for seed in range(3):
                res = run(exact_instance(r, d, seed),
                          SearchConfig(r=r, seed=seed, budget=20_000,
                                       init=init))
                assert res.status == "converged", (r, d, init, seed)
                total += res.grad_evals
    assert total <= 3_500


def test_large_random_starts_converge(monkeypatch):
    # from random:100 or random:1000 the first steps must shrink the point
    # by many orders of magnitude, and a line search needs more than 40
    # halvings of its first trial step to find one: when it gave up there,
    # this (2, 6) run from random:100 ended with status budget at
    # f = 3.4e18 after 2,521 objective values, with only its init record.
    # No gradient line search fails, the premise of a failed one being a
    # stop
    line_searches = record_gradient_line_searches(monkeypatch)
    T = exact_instance(2, 6, 3)
    for init in ("random:100", "random:1000"):
        res = run(T, SearchConfig(r=2, budget=500, init=init))
        assert res.status == "converged", init
        assert res.f <= 1e-4 and len(res.trace.records) > 2
    assert line_searches
    assert all(step is not None for *_, step in line_searches)


def test_line_search_halves_past_40_only_while_the_point_moves():
    # uphill, every trial fails: after 40 of them the halving goes on
    # while the step still moves the point, step |d| > 1e-16 max(|p|, 1),
    # and then gives up
    T = exact_instance(2, 4, 0)
    p = random_point(2, 4, np.random.default_rng(1))
    ev = Evaluator(T, default_lambda(2), 10)
    rep = ev.objective(p)
    up = grad(rep)
    assert search_module._line_search(rep, up, ev, "gradient") is None
    floor = 1e-16 * max(p.norm(), 1.0)
    trials = 40 + sum(1 for k in range(40, 2000)
                      if 0.5 ** k * up.norm() > floor)
    assert trials > 40
    assert ev.objective_evals == 1 + trials


def test_run_hosvd_start_keeps_fit_while_balancing():
    T = exact_instance(2, 5, 0)
    res = run(T, SearchConfig(r=2, epsilon=1e-6, seed=0, init="hosvd"))
    assert res.status == "converged"
    recs = res.trace.records
    assert max(rec.L for rec in recs) <= 1e-8
    assert recs[-1].R < recs[0].R


def test_run_traces_are_bitwise_reproducible(tmp_path):
    T = exact_instance(2, 4, 2)
    paths = []
    points = []
    for i in range(2):
        res = run(T, SearchConfig(r=2, epsilon=1e-4, seed=7,
                                  init="random:0.5"))
        path = tmp_path / f"trace_{i}.jsonl"
        res.trace.to_jsonl(path)
        paths.append(path)
        points.append(res.point)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for blk0, blk1 in zip(points[0].blocks(), points[1].blocks()):
        assert np.array_equal(blk0, blk1)


def test_trace_lines_exclude_wall_time(tmp_path):
    T = exact_instance(2, 4, 0)
    res = run(T, SearchConfig(r=2, epsilon=1e-4, seed=1))
    path = tmp_path / "trace.jsonl"
    res.trace.to_jsonl(path)
    expected = {"iteration", "f", "L", "R", "grad_norm", "min_curvature",
                "step_kind", "step_size", "improvement", "seed"}
    for line in path.read_text().splitlines():
        assert set(json.loads(line)) == expected


def test_trace_lines_match_the_asdict_serialization(tmp_path):
    # a trace of 120 records built directly, so its length does not
    # depend on the search: every step kind, null fields (the init and
    # rebalance records' gradient norm, every step's curvature but a
    # negative-curvature one) and floats from 1e-300 to 1e300 of both
    # signs.  The shared encoder writes what a fresh json.dumps per record
    # wrote
    rng = np.random.default_rng(0)
    kinds = sorted(STEP_KINDS - {"init"})

    def value():
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))

    trace = SearchTrace(seed=3)
    for i in range(120):
        kind = "init" if i == 0 else kinds[i % len(kinds)]
        trace.records.append(TraceRecord(
            iteration=i, f=value(), L=value(), R=value(),
            grad_norm=None if kind in ("init", "rebalance") else value(),
            min_curvature=value() if kind == "negative-curvature" else None,
            step_kind=kind, step_size=value(), improvement=value(), seed=3))
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    reference = []
    for rec in trace.records:
        fields = dataclasses.asdict(rec)
        reference.append(json.dumps(fields, sort_keys=True) + "\n")
    assert len(reference) > 100
    assert '"grad_norm": null' in reference[0]
    assert path.read_bytes() == "".join(reference).encode()


def test_accepted_sampled_step_matches_prediction():
    # no drift between the sign-flip search and a fresh evaluation along
    # the chosen direction at the chosen step
    T = exact_instance(2, 4, 5)
    p = FactorPoint.zeros(2, 4)
    lam = default_lambda(2)
    splits = subspace_split(p, 0.05)
    rng = np.random.default_rng(9)
    found = 0
    f0 = objective(p, T, lam).f
    _, deltas = sample_missing_directions(splits, [(2, 2, 2)], rng, 20)
    res = sign_flip_search(p, T, deltas, lam)
    for k, gain in enumerate(res.improvements):
        if gain <= 0.0:
            continue
        found += 1
        _, report = eval_along(p, p._like(res.deltas[k]), T,
                               [res.steps[k]], lam)[0]
        predicted = report.f
        assert abs((f0 - predicted) - gain) <= 1e-10
        realized = objective(res.apply(k), T, lam).f
        assert abs(realized - (f0 - gain)) <= 1e-10
    assert found >= 5


def test_run_terminal_points_without_directions_are_global(tmp_path):
    # from many random starts on one exact-rank instance, any run that
    # halts because nothing improves must already be at target accuracy
    T = exact_instance(2, 4, 3)
    statuses = {}
    for seed in range(50):
        res = run(T, SearchConfig(r=2, epsilon=1e-4, seed=seed,
                                  init="random:0.7", budget=30_000))
        statuses[res.status] = statuses.get(res.status, 0) + 1
        if res.status == "no_direction":
            assert res.f <= 1e-4
    assert statuses.get("converged", 0) >= 40


def test_run_budget_status():
    T = exact_instance(2, 5, 9)
    res = run(T, SearchConfig(r=2, epsilon=1e-11, seed=0, budget=50))
    assert res.status == "budget"
    assert res.grad_evals >= 50
    assert res.grad_evals <= 50
    # every round charges a gradient evaluation, so the budget bounds them
    assert res.rounds <= res.grad_evals


def test_exact_targets_converge_at_the_epsilon_floor():
    # a fixed first-order stop, a gradient norm of at most TAU1, left a
    # descent near f = 1e-12, and at epsilon = 1e-12 each of these exact
    # targets ended no_direction, at f from 1.06e-12 to 2.17e-12, a
    # verdict the floor exists to rule out.  At EPSILON_FLOOR = 1e-11 they
    # converge, as do all 72 exact targets of shapes (2, 8), (3, 16),
    # (4, 24), (2, 4), (2, 6) and (3, 6), seeds 0-5, of both streams, at
    # 1e-11 and at 1e-10
    for r, d, seed, entropy in ((2, 4, 0, 505), (2, 4, 3, 505),
                                (3, 6, 2, 11), (3, 6, 2, 505),
                                (3, 6, 3, 505)):
        res = run(exact_instance(r, d, seed, entropy),
                  SearchConfig(r=r, epsilon=search_module.EPSILON_FLOOR))
        assert res.status == "converged", (r, d, seed, entropy, res.f)
        assert res.f <= search_module.EPSILON_FLOOR


def test_exact_targets_converge_below_the_epsilon_floor(monkeypatch):
    # the first-order stop is relative, a gradient norm of at most TAU1
    # sqrt(f): a flat exact target's descent goes on below f = 1e-12.
    # Under the fixed stop gn <= TAU1 these five of the 72 exact targets
    # ended no_direction at epsilon = 1e-12, at f from 1.04e-12 to
    # 1.81e-12; with the floor lowered they converge
    monkeypatch.setattr(search_module, "EPSILON_FLOOR", 1e-12)
    for r, d, seed, entropy in ((3, 16, 2, 11), (4, 24, 3, 505),
                                (2, 4, 2, 505), (2, 6, 2, 505),
                                (3, 6, 3, 11)):
        res = run(exact_instance(r, d, seed, entropy),
                  SearchConfig(r=r, epsilon=1e-12))
        assert res.status == "converged", (r, d, seed, entropy, res.f)


def test_run_never_spends_past_its_budget(monkeypatch):
    # the curvature probes cost two evaluations each and start only when
    # the budget can pay for them.  The budgets come from a reference run
    # on a noisy desk target: it ends no_direction after a full 12-product
    # probe (from 85 to 109 evaluations), and every budget short of its
    # total, inside or at the edges of a probe, ends the run at the budget
    spans = []
    probe = search_module._negative_curvature

    def recording(p, rng, ev):
        start = ev.used
        out = probe(p, rng, ev)
        spans.append((start, ev.used))
        return out

    monkeypatch.setattr(search_module, "_negative_curvature", recording)
    T = noisy_desk_instance(2, 8, 0, 5e-2)
    reference = run(T, SearchConfig(r=2, seed=0))
    assert reference.status == "no_direction"
    total = reference.grad_evals
    assert spans and spans[-1][1] == total
    assert max(end - start for start, end in spans) == 2 * LANCZOS_STEPS
    budgets = {1, 2, 3, total // 3, 2 * total // 3, total - 1}
    for start, end in spans:
        budgets |= {start + 1, start + 2, start + 3, (start + end) // 2,
                    end - 1}
    assert len(budgets) >= 10
    for budget in sorted(budgets):
        res = run(T, SearchConfig(r=2, seed=0, budget=budget))
        assert res.status == "budget", budget
        assert res.grad_evals <= budget


def test_run_validates_inputs():
    cfg = SearchConfig(r=2)
    with pytest.raises(ValueError):
        run(np.zeros((2, 3, 4)), cfg)
    bad = np.zeros((3, 3, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        run(bad, cfg)
    with pytest.raises(ValueError):
        run(np.zeros((3, 3, 3)), SearchConfig(r=4))
    with pytest.raises(ValueError):
        run(np.zeros((3, 3, 3)), SearchConfig(r=2, budget=0))
    with pytest.raises(ValueError):
        run(np.zeros((3, 3, 3)), SearchConfig(r=2, init="random:-1"))
    # a negative weight rewards imbalance, so f runs off to -inf
    with pytest.raises(ValueError, match="lambda"):
        run(exact_instance(2, 4, 0), SearchConfig(r=2, lam=-1.0, budget=2000))
    T = exact_instance(2, 4, 0)
    for bad in ({"lam": math.nan}, {"epsilon": math.nan},
                {"epsilon": 0.0}, {"epsilon": 1e-13}, {"epsilon": 1e-12},
                {"r": 2.5}, {"r": True}, {"budget": 10.0},
                {"seed": 0.5}, {"seed": -1},
                {"init": "random:inf"}, {"init": "random:nan"},
                {"init": 5}):
        with pytest.raises(ValueError):
            run(T, SearchConfig(**{"r": 2, **bad}))


def test_run_counts_every_objective_evaluation(monkeypatch):
    calls = count_objective_calls(monkeypatch)
    search_points = []
    labels = []
    grad_calls = []
    baselines = []
    zero_rounds = []
    counted = search_module.objective
    counted_baseline = escape_module.objective

    def baseline(*args, **kwargs):
        baselines.append(1)
        return counted_baseline(*args, **kwargs)

    def recording(p, *args, **kwargs):
        search_points.append(p.flat.tobytes())
        return counted(p, *args, **kwargs)

    def closed_form(at, flats):
        zero_rounds.append(1)
        return zero_point(at, flats)

    def noting(splits, ijk, *args, **kwargs):
        drawn, flats = sample_missing(splits, ijk, *args, **kwargs)
        labels.extend(drawn)
        return drawn, flats

    def charging(fn, cost):
        def wrapped(*args, **kwargs):
            grad_calls.append(cost)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(search_module, "objective", recording)
    monkeypatch.setattr(escape_module, "objective", baseline)
    # at the zero point the round scores each draw in closed form
    zero_point = escape_module._zero_point_search
    monkeypatch.setattr(escape_module, "_zero_point_search", closed_form)
    sample_missing = search_module.sample_missing_directions
    monkeypatch.setattr(search_module, "sample_missing_directions", noting)
    # a gradient costs 1, a Hessian-vector product 2, a rebalance move 1
    monkeypatch.setattr(search_module, "grad", charging(grad, 1))
    monkeypatch.setattr(search_module, "hvp", charging(hvp, 2))
    monkeypatch.setattr(search_module, "_rebalance_once",
                        charging(search_module._rebalance_once, 1))
    # a rank-1 target at r=2 needs descent and sampled escapes from the
    # origin; a rank-2 one also reaches a round with a large part, whose
    # labels with an index 1 are drawn and scored; the noisy desk target
    # ends on a curvature probe after an escape round finds nothing
    costs = set()
    for T, status in ((exact_instance(1, 4, 0), "converged"),
                      (exact_instance(2, 4, 0), "converged"),
                      (noisy_desk_instance(2, 8, 0, 5e-2), "no_direction")):
        calls.clear()
        search_points.clear()
        grad_calls.clear()
        baselines.clear()
        zero_rounds.clear()
        res = run(T, SearchConfig(r=2, seed=0))
        assert res.status == status and res.rounds >= 2
        # every run starts at the zero point and scores its first round
        # there
        assert zero_rounds == [1]
        # the sign search's candidates are values of f's polynomial, not
        # `objective` calls: the count is the calls, hvp's included
        assert res.objective_evals == len(calls)
        # every sign search takes f at the round's point from its report,
        # so none evaluates a baseline of its own
        assert baselines == []
        assert res.grad_evals == sum(grad_calls)
        costs.update(grad_calls)
        assert res.rounds <= res.grad_evals
        # run hands each evaluated point's report on instead of
        # evaluating it again
        repeats = sum(a == b
                      for a, b in zip(search_points, search_points[1:]))
        assert repeats == 0
    assert costs == {1, 2}
    assert any(1 in ijk for ijk in labels)


def test_escape_round_scores_each_block_label_in_one_sign_search(
        monkeypatch):
    # a round splits once, draws every label's samples in one sampler call
    # and scores them all in one sign search, one stack per label, and
    # makes no other sign search
    rounds = []

    def splitting(*args, **kwargs):
        rounds.append({"draws": 0, "searches": []})
        return subspace_split(*args, **kwargs)

    def drawing(*args, **kwargs):
        rounds[-1]["draws"] += 1
        return sample_missing_directions(*args, **kwargs)

    def searching(p, T, deltas, lam=None, at=None):
        # the blocks a direction moves name its kind: a sampled one moves
        # the core and the factors of its index-2 modes
        rounds[-1]["searches"].append(
            [[tuple(blk.any() for blk in p._like(row.copy()).blocks())
              for row in stack] for stack in deltas])
        return sign_flip_search(p, T, deltas, lam, at=at)

    monkeypatch.setattr(search_module, "subspace_split", splitting)
    monkeypatch.setattr(search_module, "sample_missing_directions", drawing)
    monkeypatch.setattr(search_module, "sign_flip_search", searching)
    stacked = 0
    for rank in (1, 2):
        rounds.clear()
        res = run(exact_instance(rank, 4, 0), SearchConfig(r=2, seed=0))
        assert res.status == "converged" and rounds
        for found in rounds:
            assert found["draws"] == 1 and len(found["searches"]) <= 1
            for stacks in found["searches"]:
                kinds = [stack[0] for stack in stacks]
                assert len(set(kinds)) == len(kinds) <= len(SAMPLED_BLOCKS)
                for stack in stacks:
                    assert len(stack) == SAMPLES_PER_BLOCK
                    assert len(set(stack)) == 1
                    assert stack[0][0] and sum(stack[0][1:]) >= 2
                stacked = max(stacked, len(stacks))
    # some round scored several labels together
    assert stacked > 1


def _per_label_round(rep, T, lam, rng, samples):
    """The escape round as a loop over SAMPLED_BLOCKS: the draws of one
    label and its sign search per label, the first of the largest gains,
    then the winner's evaluation; returns (kind, report, step, gain) or
    None."""
    splits = subspace_split(rep.point, search_module.SIGMA)
    cands = []
    for ijk in SAMPLED_BLOCKS:
        drawn, flats = sample_missing_directions(splits, [ijk], rng, samples)
        if not drawn:
            continue
        found = sign_flip_search(rep.point, T, flats, lam, at=rep)
        cands.extend(("sampled({},{},{})".format(*ijk), found, k)
                     for k in range(samples))
    kind, best, k = max(cands, key=lambda c: c[1].improvements[c[2]],
                        default=(None, None, None))
    if best is None or best.improvements[k] < search_module.MIN_IMPROVEMENT:
        return None
    cand = objective(best.apply(k), T, lam)
    if search_module._rises(rep.f, cand.f):
        return None
    return kind, cand, float(best.steps[k]), best.improvements[k]


def _low_rank_point(r, d, rank, rng):
    """A random point whose factors have `rank` singular values 1 and the
    rest 1e-3, below the escape's split threshold."""
    mats = []
    for _ in range(3):
        V = np.linalg.qr(rng.standard_normal((r, r)))[0]
        U = np.linalg.qr(rng.standard_normal((d, r)))[0]
        s = np.where(np.arange(r) < rank, 1.0, 1e-3)
        mats.append((V * s) @ U.T)
    return FactorPoint(rng.standard_normal((r, r, r)), *mats)


def _zero_point_round(rep, T, lam, rng, samples):
    """The escape round at the zero point from arithmetic of its own: the
    draws of a sampler call of the label (2,2,2) alone, and along each
    draw d, with X = S_d(A_d, B_d, C_d), f(t d) = |T|^2 - 2 u b + u^2 q in
    u = t^4, b = <T, X> and q = |X|^2 + lam phi(d)^2.  The first draw of the
    largest b^2 / q steps to t = (|b| / q)^(1/4), its core flipped where
    b < 0; returns (kind, report, step, gain)."""
    splits = subspace_split(rep.point, search_module.SIGMA)
    best = None
    _, flats = sample_missing_directions(splits, [(2, 2, 2)], rng, samples)
    for flat in flats[0]:
        d = rep.point._like(flat)
        X = multilinear_transform(d.S, d.A, d.B, d.C)
        b = float(np.sum(T * X))
        q = float(np.sum(X * X)) + lam * reg_phi(d) ** 2
        if best is None or b * b / q > best[0]:
            best = b * b / q, (abs(b) / q) ** 0.25, d, b
    gain, step, d, b = best
    signed = FactorPoint(math.copysign(1.0, b) * d.S, d.A, d.B, d.C)
    return "sampled(2,2,2)", objective(step * signed, T, lam), step, gain


@pytest.mark.parametrize("r,d", [(2, 4), (3, 8), (4, 9)])
def test_one_pass_escape_round_matches_the_per_label_loop(r, d):
    # the round draws, scores and picks as a loop over the labels with a
    # sampler call and a sign search per label would, from the same sampler
    # state: the same kind, step, gain and point bytes, after one
    # `objective` call, the winner's, at a full-rank point (no label
    # draws) and at a rank-deficient one (all four draw).  At the zero
    # start (only (2,2,2) draws) it takes the exact step along each draw,
    # which `_zero_point_round` forms from its own arithmetic, so the two
    # agree to rounding
    T = exact_instance(r, d, 7)
    lam = default_lambda(r)
    taken = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        points = {"zero": FactorPoint.zeros(r, d),
                  "full": _low_rank_point(r, d, r, rng),
                  "deficient": _low_rank_point(r, d, r - 1, rng)}
        for name, p in points.items():
            rep = objective(p, T, lam)
            labels, _ = sample_missing_directions(
                subspace_split(p, search_module.SIGMA), SAMPLED_BLOCKS,
                np.random.default_rng(0), 1)
            assert len(labels) == {"zero": 1, "full": 0,
                                   "deficient": 4}[name]
            ev = Evaluator(T, lam, 1)
            got = search_module._escape_round(
                rep, ev, np.random.default_rng(seed))
            reference = (_zero_point_round if name == "zero"
                         else _per_label_round)
            want = reference(rep, T, lam, np.random.default_rng(seed),
                             SAMPLES_PER_BLOCK)
            if want is None:
                assert got is None, name
                continue
            taken.add(name)
            kind, cand, step, gain = got
            assert ev.objective_evals == 1 and ev.used == 0
            if name == "zero":
                assert kind == want[0]
                assert step == pytest.approx(want[2], rel=1e-12)
                assert gain == pytest.approx(want[3], rel=1e-12)
                np.testing.assert_allclose(cand.point.flat,
                                           want[1].point.flat, rtol=0,
                                           atol=1e-12 * step)
                continue
            assert (kind, step, gain) == want[0:1] + want[2:4], name
            assert cand.point.flat.tobytes() == want[1].point.flat.tobytes()
    assert taken == {"zero", "deficient"}


def test_the_zero_point_has_one_escape_rule(monkeypatch):
    # verify's check of the origin and the first round of a zero-start run
    # both score their draws by the closed form, and no step grid is
    # scored at p = 0; the run's later rounds score grids away from it
    from tuckersearch.verify import gallery_origin
    zero_point = escape_module._zero_point_search
    candidate_values = escape_module._candidate_values
    calls = []

    def closed_form(at, flats):
        calls.append(("closed form", bool(at.point.flat.any())))
        return zero_point(at, flats)

    def grid(at, *args):
        calls.append(("grid", bool(at.point.flat.any())))
        return candidate_values(at, *args)

    monkeypatch.setattr(escape_module, "_zero_point_search", closed_form)
    monkeypatch.setattr(escape_module, "_candidate_values", grid)
    assert gallery_origin(np.random.default_rng(0)).passed
    assert calls == [("closed form", False)]
    calls.clear()
    res = run(exact_instance(2, 4, 0), SearchConfig(r=2, seed=0))
    assert res.status == "converged"
    assert calls[0] == ("closed form", False)
    assert ("grid", True) in calls and ("grid", False) not in calls


@pytest.mark.parametrize("r,d", [(1, 3), (2, 4), (2, 8), (3, 6), (4, 9)])
def test_zero_point_round_takes_the_exact_step_along_its_draws(r, d):
    # at the zero point f along a draw t d is quadratic in u = t^4, so the
    # round takes the best draw's exact step: the evaluated gain is the
    # largest b^2 / q over the draws, from `_zero_point_round`'s own
    # arithmetic, to rounding; no step of the sign search's grid over the
    # same draws gains more; and the round takes from the sampler's stream
    # only what its one sampler call draws
    lam = default_lambda(r)
    p = FactorPoint.zeros(r, d)
    grid = _GRIDS[3]
    patterns = sign_patterns(range(4))
    for T in (exact_instance(r, d, 3), noisy_desk_instance(r, d, 3, 5e-2)):
        rep = objective(p, T, lam)
        for seed in range(3):
            ev = Evaluator(T, lam, 1)
            rng = np.random.default_rng(seed)
            kind, cand, step, gain = search_module._escape_round(rep, ev,
                                                                 rng)
            want = _zero_point_round(rep, T, lam,
                                     np.random.default_rng(seed),
                                     SAMPLES_PER_BLOCK)
            assert kind == want[0] and ev.objective_evals == 1
            assert gain == pytest.approx(want[3], rel=1e-10)
            assert rep.f - cand.f == pytest.approx(want[3], rel=1e-10)
            assert step == pytest.approx(want[2], rel=1e-10)
            alone = np.random.default_rng(seed)
            _, drawn = sample_missing_directions(
                subspace_split(p, search_module.SIGMA), SAMPLED_BLOCKS,
                alone, SAMPLES_PER_BLOCK)
            assert rng.bit_generator.state == alone.bit_generator.state
            values = sign_step_values(rep, drawn[0], patterns, grid)
            assert want[3] >= rep.f - values.min() > 0.0


def test_run_raises_on_non_finite_objective():
    with pytest.raises(NonFiniteError), pytest.warns(RuntimeWarning,
                                                     match="overflow"):
        run(np.full((2, 2, 2), 1e200), SearchConfig(r=1))


def test_run_raises_where_the_target_units_overflow():
    # |T| = 1e150 and |T|^2 are finite, but the random:10 start's f, about
    # 5e9 on the unit-norm problem, overflows in the target's units: the
    # run ends in NonFiniteError, not in a trace or summary with infinite
    # values
    T = 1e150 * exact_instance(2, 4, 0)
    with pytest.raises(NonFiniteError):
        run(T, SearchConfig(r=2, init="random:10", budget=1))
    assert run(T, SearchConfig(r=2, seed=0)).status == "converged"


def test_trace_append_rejects_increase():
    # the zero point has f = |T|^2 = 1; a random:10 point lies far above
    T = exact_instance(2, 4, 0)
    low = objective(FactorPoint.zeros(2, 4), T)
    high = objective(random_point(2, 4, np.random.default_rng(0), scale=10.0),
                     T)
    assert high.f > 2.0 * low.f
    tr = SearchTrace(seed=0)
    rec = tr.append(low, "init", 0.0, 0.0)
    assert (rec.f, rec.L, rec.R) == (low.f, low.L, low.R)
    with pytest.raises(AssertionError):
        tr.append(high, "gradient", 0.1, low.f - high.f)


def test_config_checks_itself_and_is_immutable():
    # a config is checked when it is made, a copy by dataclasses.replace
    # included, so no run starts from a bad one, and none can be changed
    # after its check
    with pytest.raises(ValueError, match="r must be at least 1"):
        SearchConfig(r=0)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        dataclasses.replace(SearchConfig(r=2), budget=0)
    cfg = SearchConfig(r=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.budget = 0
    assert cfg.budget == 50_000


def test_config_sample_count_resolution(monkeypatch):
    # every escape round draws SAMPLES_PER_BLOCK = 6 samples per label,
    # whatever the run's epsilon
    counts = []
    sample_missing = search_module.sample_missing_directions

    def drawing(splits, labels, rng, samples):
        counts.append(samples)
        return sample_missing(splits, labels, rng, samples)

    monkeypatch.setattr(search_module, "sample_missing_directions", drawing)
    assert SAMPLES_PER_BLOCK == 6
    for epsilon in (SearchConfig(r=2).epsilon, 0.5, 0.9):
        counts.clear()
        run(exact_instance(1, 4, 0), SearchConfig(r=2, epsilon=epsilon))
        assert counts and set(counts) == {6}, epsilon


def test_budget_counts_hvp_double():
    T = exact_instance(2, 4, 0)
    p = random_point(2, 4, np.random.default_rng(0))
    ev = Evaluator(T, default_lambda(2), 5)
    ev.grad(objective(p, T, ev.lam))
    ev.hvp(p, p)
    assert ev.used == 3
    assert not ev.exhausted
    assert ev.affords(2) and not ev.affords(3)
    rep = ev.objective(p)
    # the product's gradient difference made two `objective` calls, which
    # count as objective values but are charged only through its 2
    assert ev.used == 3 and ev.objective_evals == 3
    # the gaps come from the report, but a rebalance move still pays for
    # the regularizer gradient they stand for
    assert ev.gram_gaps(rep) is rep.gaps
    ev.gram_gaps(rep)
    assert ev.used == 5
    assert ev.exhausted

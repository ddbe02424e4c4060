"""Tests for the local search driver: schedule, stationary-point finding,
negative curvature, and the full run loop."""
import json
import math

import numpy as np
import pytest

from tuckersearch.escape import (build_sampled_direction, delta_grid,
                                 sample_missing_directions, sign_flip_search)
from tuckersearch.objective import (balanced_random_point, default_lambda,
                                    eval_along, grad, hvp, objective)
from tuckersearch.search import (Evaluator, NonFiniteError, ScheduleError,
                                 SearchConfig, SearchTrace, Thresholds,
                                 _negative_curvature, find_sosp, run,
                                 schedule)
from tuckersearch.subspace import subspace_split
from tuckersearch.tensor_core import (FactorPoint, multilinear_transform,
                                      norm_f, random_point)

# a small running-norm bound makes the theory cascade feasible at desk scale
FEASIBLE_K = 0.02


def exact_instance(r, d, seed):
    rng = np.random.default_rng(np.random.SeedSequence([11, seed]))
    p = random_point(r, d, rng)
    T = multilinear_transform(p.S, p.A, p.B, p.C)
    return T / norm_f(T)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_formulas():
    th = schedule(0.5, 1, 2, k_bound=FEASIBLE_K)
    K = FEASIBLE_K
    assert th.lam == 1.0 / 16.0
    assert math.isclose(th.sigma, math.sqrt(th.gamma), rel_tol=1e-12)
    assert th.kappa0 == th.sigma
    assert math.isclose(th.kappa1, 2 * K * th.sigma ** 0.75, rel_tol=1e-12)
    assert math.isclose(th.kappa2, 2 * K * th.sigma ** 0.125, rel_tol=1e-12)
    assert math.isclose(th.kappa3, 2 * K * th.sigma ** 0.5, rel_tol=1e-12)
    assert math.isclose(th.tau1, 4 * th.lam * th.tau / K, rel_tol=1e-12)
    assert math.isclose(th.tau2, th.sigma ** 3.75, rel_tol=1e-12)


def test_schedule_satisfies_cascade_inequalities():
    epsilon, d = 0.5, 2
    th = schedule(epsilon, 1, d, k_bound=FEASIBLE_K)
    K = FEASIBLE_K
    target = math.sqrt(epsilon) / 4.0
    assert th.gamma < 1.0
    assert th.kappa0 < target
    assert d * th.kappa1 + K**3 * th.sigma < target
    assert d * th.kappa2 + K**2 * th.sigma**2 < target
    assert d * th.kappa3 + K * th.sigma**3 < target
    assert th.tau < epsilon / 2.0


def test_schedule_monotone_in_epsilon():
    ths = [schedule(e, 1, 2, k_bound=FEASIBLE_K) for e in (0.5, 0.3, 0.2)]
    for a, b in zip(ths, ths[1:]):
        assert b.tau < a.tau
        assert b.tau1 < a.tau1
        assert b.tau2 < a.tau2


def test_schedule_infeasible_for_realistic_norm_bound():
    with pytest.raises(ScheduleError, match="practical"):
        schedule(1e-4, 2, 8, k_bound=1.0)


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        schedule(0.0, 1, 2)
    with pytest.raises(ValueError):
        schedule(1.5, 1, 2)
    with pytest.raises(ValueError):
        schedule(0.5, 3, 2)


def test_thresholds_flags_breached_ordering():
    # sigma = 1 makes all three block bounds equal, so the strict ordering
    # kappa2 > kappa3 > kappa1 fails even though each formula is satisfied
    with pytest.raises(ValueError, match="ordered"):
        Thresholds(epsilon=0.5, r=1, d=2, k_bound=1.0, lam=1.0 / 16.0,
                   tau=1e-4, gamma=1.0, sigma=1.0, kappa0=1.0, kappa1=2.0,
                   kappa2=2.0, kappa3=2.0, tau1=1e-5, tau2=1e-5)


def test_thresholds_flags_formula_mismatch():
    th = schedule(0.5, 1, 2, k_bound=FEASIBLE_K)
    with pytest.raises(ValueError, match="kappa1"):
        Thresholds(epsilon=th.epsilon, r=th.r, d=th.d, k_bound=th.k_bound,
                   lam=th.lam, tau=th.tau, gamma=th.gamma, sigma=th.sigma,
                   kappa0=th.kappa0, kappa1=2.0 * th.kappa1,
                   kappa2=th.kappa2, kappa3=th.kappa3, tau1=th.tau1,
                   tau2=th.tau2)


# ---------------------------------------------------------------------------
# find_sosp


def test_find_sosp_descends_to_tolerance_near_optimum():
    rng = np.random.default_rng(0)
    truth = balanced_random_point(2, 3, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    p0 = truth + 0.01 * random_point(2, 3, rng)
    f0 = objective(p0, T).f
    p, info = find_sosp(p0, T, budget=20_000, seed=0)
    assert info.converged
    assert info.f <= f0 + 1e-15
    assert grad(p, T).norm() <= 1e-6


def test_find_sosp_returns_origin_unchanged():
    T = exact_instance(2, 3, 0)
    p0 = FactorPoint.zeros(2, 3)
    p, info = find_sosp(p0, T, budget=5_000, seed=0)
    for blk0, blk1 in zip(p0.blocks(), p.blocks()):
        assert np.array_equal(blk0, blk1)
    assert info.converged
    assert info.grad_norm == 0.0
    assert info.min_curvature is not None and info.min_curvature >= -1e-4


def test_find_sosp_budget_exhaustion_flagged():
    T = exact_instance(2, 4, 1)
    rng = np.random.default_rng(3)
    p0 = random_point(2, 4, rng)
    p, info = find_sosp(p0, T, budget=5, seed=0)
    assert not info.converged


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


def test_find_sosp_escapes_constructed_strict_saddle():
    theta = 0.3
    p, T = make_flat_saddle(theta)
    assert grad(p, T).norm() <= 1e-12
    f0 = objective(p, T).f
    assert math.isclose(f0, theta**2, rel_tol=1e-12)
    q, info = find_sosp(p, T, budget=1_500, seed=0)
    assert info.f < 1e-4
    assert info.f < f0


def test_find_sosp_curvature_probe_cut_short_is_not_converged():
    # the saddle has curvature at most -2 theta, but 30 evaluations cannot
    # pay for a whole power iteration: the descent must not claim a
    # stationary point
    p, T = make_flat_saddle(0.3)
    _, info = find_sosp(p, T, budget=30, seed=0)
    assert not info.converged
    assert info.min_curvature is None


def curvature_direction(p, T, lam, tau2, iters, rng):
    """Unit direction with Rayleigh quotient at most -tau2/2, or None."""
    direction, _ = _negative_curvature(p, tau2, iters, 2, rng,
                                       Evaluator(T, lam, 10**9))
    return direction


def test_negative_curvature_on_hand_solved_instance():
    # r = d = 1 with lam = 0: f = (s*a*b*c - t)^2; at s = a = 0, b = c = 1
    # the Hessian eigenvalues are {-2t, 2t, 0, 0}
    p = FactorPoint(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.ones((1, 1)),
                    np.ones((1, 1)))
    T = np.ones((1, 1, 1))
    direction = curvature_direction(p, T, lam=0.0, tau2=1e-4, iters=50,
                                    rng=np.random.default_rng(0))
    assert direction is not None
    assert math.isclose(direction.norm(), 1.0, rel_tol=1e-9)
    rho = direction.inner(hvp(p, direction, T, 0.0))
    assert rho <= -5e-5
    assert abs(rho - (-2.0)) <= 0.2


def test_negative_curvature_none_at_global_minimum():
    rng = np.random.default_rng(1)
    truth = balanced_random_point(2, 3, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    direction = curvature_direction(truth, T, default_lambda(2), tau2=1e-4,
                                    iters=30, rng=np.random.default_rng(2))
    assert direction is None


# ---------------------------------------------------------------------------
# the run loop


def test_run_zero_target_terminates_immediately():
    res = run(np.zeros((3, 3, 3)), SearchConfig(r=2, seed=0))
    assert res.status == "converged"
    assert res.f == 0.0
    assert res.rounds == 0
    assert res.grad_evals == 0
    assert len(res.trace.records) == 1


def test_run_exact_rank_instance_converges():
    T = exact_instance(2, 5, 0)
    res = run(T, SearchConfig(r=2, epsilon=1e-4, seed=0))
    assert res.status == "converged"
    assert res.f <= 1e-4
    assert res.grad_evals <= 50_000


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
    assert all(rec.wall_time >= 0.0 for rec in res.trace.records)


def test_accepted_sampled_step_matches_prediction():
    # no drift between the sign-flip search and a fresh evaluation along
    # the chosen direction at the chosen step
    T = exact_instance(2, 4, 5)
    p = FactorPoint.zeros(2, 4)
    lam = default_lambda(2)
    splits = subspace_split(p, T, 0.05)
    rng = np.random.default_rng(9)
    found = 0
    for _ in range(20):
        vectors = sample_missing_directions(splits, (2, 2, 2), rng)
        direction = build_sampled_direction(vectors, 0.05)
        res = sign_flip_search(p, T, direction, delta_grid(0.05, 3), lam)
        if res.improvement <= 0.0:
            continue
        found += 1
        _, report = eval_along(p, res.direction.delta, T, [res.step], lam)[0]
        predicted = report.f
        assert abs(res.f_after - predicted) <= 1e-10
        assert abs((res.f_before - predicted) - res.improvement) <= 1e-10
        realized = objective(res.apply(p), T, lam).f
        assert abs(realized - res.f_after) <= 1e-10
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
    res = run(T, SearchConfig(r=2, epsilon=1e-12, seed=0, budget=50))
    assert res.status == "budget"
    assert res.grad_evals >= 50
    assert res.grad_evals <= 50
    # every round charges a gradient evaluation, so the budget bounds them
    assert res.rounds <= res.grad_evals


def test_run_never_spends_past_its_budget():
    # the curvature probes cost two evaluations each and start only when
    # the budget can pay for them
    T = exact_instance(2, 8, 0)
    for budget in (1, 2, 3, 5, 10, 50, 100, 333):
        res = run(T, SearchConfig(r=2, seed=0, budget=budget))
        assert res.status == "budget"
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
                {"sigma": math.nan}, {"tau1": math.inf}, {"tau2": math.nan},
                {"min_improvement": math.inf}, {"delta_span": math.inf},
                {"r": 2.5}, {"r": True}, {"budget": 10.0},
                {"delta_points": 13.0}, {"sosp_eval_cap": "3000"},
                {"samples_per_block": 1.5}, {"seed": 0.5}, {"seed": -1},
                {"init": "random:inf"}, {"init": "random:nan"},
                {"init": 5}):
        with pytest.raises(ValueError):
            run(T, SearchConfig(**{"r": 2, **bad}))


def test_run_counts_every_objective_evaluation(monkeypatch):
    import tuckersearch.escape as escape_module
    import tuckersearch.search as search_module
    calls = []
    search_points = []
    deterministic = []
    grad_calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return objective(*args, **kwargs)

    def recording(p, *args, **kwargs):
        search_points.append(p.flat.tobytes())
        return counting(p, *args, **kwargs)

    def expanded(*args, **kwargs):
        values = sign_step_values(*args, **kwargs)
        calls.extend([1] * values.size)
        return values

    def noting(*args, **kwargs):
        out = deterministic_candidates(*args, **kwargs)
        deterministic.extend(out)
        return out

    def charging(fn, cost):
        def wrapped(*args, **kwargs):
            grad_calls.append(cost)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(search_module, "objective", recording)
    monkeypatch.setattr(escape_module, "objective", counting)
    # the sign search scores its candidates from one expansion of f; each
    # value it returns is an objective value and counts as one
    sign_step_values = escape_module.sign_step_values
    monkeypatch.setattr(escape_module, "sign_step_values", expanded)
    deterministic_candidates = search_module._deterministic_candidates
    monkeypatch.setattr(search_module, "_deterministic_candidates", noting)
    # a gradient costs 1, a Hessian-vector product 2, a rebalance move 1
    monkeypatch.setattr(search_module, "grad", charging(grad, 1))
    monkeypatch.setattr(search_module, "hvp", charging(hvp, 2))
    monkeypatch.setattr(search_module, "_rebalance_once",
                        charging(search_module._rebalance_once, 1))
    # a rank-1 target at r=2 needs descent, curvature probes and sampled
    # escapes; a rank-2 one also reaches the deterministic directions
    for rank in (1, 2):
        calls.clear()
        search_points.clear()
        grad_calls.clear()
        res = run(exact_instance(rank, 4, 0), SearchConfig(r=2, seed=0))
        assert res.status == "converged" and res.rounds >= 2
        assert res.objective_evals == len(calls)
        assert res.grad_evals == sum(grad_calls)
        assert 2 in grad_calls
        assert res.rounds <= res.grad_evals
        # run hands each evaluated point's report on instead of
        # evaluating it again
        repeats = sum(a == b
                      for a, b in zip(search_points, search_points[1:]))
        assert repeats == 0
    assert deterministic


def test_run_raises_on_non_finite_objective():
    with pytest.raises(NonFiniteError), pytest.warns(RuntimeWarning,
                                                     match="overflow"):
        run(np.full((2, 2, 2), 1e200), SearchConfig(r=1))


def test_trace_append_rejects_increase():
    tr = SearchTrace(seed=0)
    tr.append(f=1.0, L=1.0, R=0.0, step_kind="init", step_size=0.0,
              improvement=0.0)
    with pytest.raises(AssertionError):
        tr.append(f=2.0, L=2.0, R=0.0, step_kind="gradient", step_size=0.1,
                  improvement=-1.0)


def test_config_sample_count_resolution():
    assert SearchConfig(r=2, samples_per_block=3).resolved_samples_per_block() == 3
    practical = SearchConfig(r=2, epsilon=1e-4)
    assert practical.resolved_samples_per_block() == 6
    # below the cap of 6 the count is ceil(8 log(1/epsilon))
    assert SearchConfig(r=2, epsilon=0.9).resolved_samples_per_block() == 1


def test_budget_counts_hvp_double():
    T = exact_instance(2, 4, 0)
    p = random_point(2, 4, np.random.default_rng(0))
    ev = Evaluator(T, default_lambda(2), 5)
    ev.grad(p)
    ev.hvp(p, p)
    assert ev.used == 3
    assert not ev.exhausted
    assert ev.affords(2) and not ev.affords(3)
    ev.objective(p)
    assert ev.used == 3 and ev.objective_evals == 1
    ev.gram_gaps(p)
    ev.gram_gaps(p)
    assert ev.used == 5
    assert ev.exhausted

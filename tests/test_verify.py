import inspect
import json

import numpy as np
import pytest

import tuckersearch.verify as verify_module
from tuckersearch.objective import grad_loss, grad_reg, objective
from tuckersearch.tensor_core import (FactorPoint, multilinear_transform,
                                      norm_f, random_point)
from tuckersearch.verify import (ANTI_CONCENTRATION_FLOOR, CHECKS,
                                 LemmaReport, SUBLEVEL_NORM_CONSTANT,
                                 _boundary_scale, _evaluate_at_rows,
                                 check_anti_concentration,
                                 check_core_lower_bound, check_euler,
                                 check_orthogonality, check_sublevel_bound,
                                 check_submultiplicativity, check_wedin,
                                 gallery_one_missing, gallery_origin,
                                 gallery_three_missing, gallery_two_missing,
                                 gallery_unregularized_counterexample,
                                 run_suite, saddle_gallery, suite_to_json)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_pass_flag_follows_failures():
    rep = LemmaReport(lemma="x", trials=3, failures=1, worst_margin=0.1,
                      tolerance=0.0)
    assert not rep.passed and rep.to_json_dict()["passed"] is False
    rep.failures = 0
    assert rep.passed and rep.to_json_dict()["passed"] is True


def test_report_json_dict_has_stable_keys():
    rep = check_euler(trials=5, rng=np.random.default_rng(0))
    doc = rep.to_json_dict()
    assert set(doc) == {"lemma", "trials", "failures", "worst_margin",
                       "tolerance", "passed", "details"}
    json.dumps(doc)


# ---------------------------------------------------------------------------
# identity checks


def test_orthogonality_clean_gradients_pass():
    rep = check_orthogonality(trials=60, rng=np.random.default_rng(1))
    assert rep.passed and rep.failures == 0
    assert rep.worst_margin <= 0.0


def test_orthogonality_negative_control_catches_corruption():
    def bad_grad_reg(p):
        g = grad_reg(p)
        return g + 0.05 * grad_loss_cache[0]

    grad_loss_cache = [None]

    def spying_grad_loss(p, T):
        g = grad_loss(p, T)
        grad_loss_cache[0] = g
        return g

    rep = check_orthogonality(trials=40, rng=np.random.default_rng(2),
                              grad_loss_fn=spying_grad_loss,
                              grad_reg_fn=bad_grad_reg)
    assert not rep.passed
    assert rep.failures > 0
    assert rep.worst_margin > 0.0


def test_orthogonality_counts_nan_margins_as_failures():
    # NaN > 0 is false, so a check that only counted positive margins
    # passed a gradient that is NaN everywhere
    rep = check_orthogonality(np.random.default_rng(0), trials=20,
                              grad_loss_fn=lambda p, T: grad_loss(p, T)
                              * np.nan)
    assert not rep.passed
    assert rep.failures == rep.trials == 20
    assert np.isnan(rep.worst_margin)


def test_euler_identity_holds():
    rep = check_euler(trials=80, rng=np.random.default_rng(3))
    assert rep.passed
    assert rep.worst_margin <= 0.0


# ---------------------------------------------------------------------------
# inequality checks


def test_sublevel_norms_stay_under_frozen_constant():
    rep = check_sublevel_bound(trials=20, rng=np.random.default_rng(4))
    assert rep.passed
    assert rep.details["fitted_constant"] <= SUBLEVEL_NORM_CONSTANT
    assert rep.details["exponent"] <= 0.25
    # boundary points at higher levels really are bigger
    ex = rep.details["extremes"]
    assert ex["100.0"] > ex["1.0"]


def _bisect_boundary_scale(q, T, gamma):
    """Reference: the largest s with f(s*q) <= gamma by doubling then
    bisection on the package's objective."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if objective(q * hi, T).f > gamma:
            break
        lo, hi = hi, 2.0 * hi
    else:
        return hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if objective(q * mid, T).f <= gamma:
            lo = mid
        else:
            hi = mid
    return lo


def _sublevel_instance(seed, trials=40):
    """The target and the direction pool check_sublevel_bound draws."""
    rng = np.random.default_rng(seed)
    truth = random_point(2, 4, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    T = T / norm_f(T)
    pool = []
    for _ in range(trials):
        q = random_point(2, 4, rng)
        pool.append(q * (1.0 / max(float(np.linalg.norm(b))
                                   for b in q.blocks())))
    return T, pool


@pytest.mark.parametrize("seed", [2, 11])
def test_boundary_scale_matches_bisection_reference(seed):
    T, pool = _sublevel_instance(seed)
    c = float(T.ravel() @ T.ravel())
    gammas = inspect.signature(check_sublevel_bound).parameters["gammas"]
    levels = [g for g in gammas.default if g > 0]
    for gamma in levels:
        for q in pool:
            s = _boundary_scale(q, T, gamma)
            ref = _bisect_boundary_scale(q, T, gamma)
            if abs(gamma - c) > 1e-9:
                assert abs(s - ref) <= 1e-12 * ref
            else:
                # at gamma = |T|^2 the boundary root is set by rounding: f
                # is within an ulp of gamma over a whole stretch of the ray
                # near s = 0.  Both answers lie on the boundary to rounding
                for t in (s, ref):
                    assert abs(objective(q * t, T).f - gamma) <= 4e-16 * gamma


def test_boundary_scale_is_zero_when_the_ray_leaves_the_target_level():
    T, pool = _sublevel_instance(2)
    c = float(T.ravel() @ T.ravel())
    for q in pool[:10]:
        if float(q.apply().ravel() @ T.ravel()) > 0.0:
            # X is linear in the core, and R sees it only through S S^T
            q = FactorPoint(-q.S, q.A, q.B, q.C)
        assert float(q.apply().ravel() @ T.ravel()) <= 0.0
        assert _boundary_scale(q, T, c) == 0.0
        # the bisection stops inside the stretch of the ray where f
        # rounds to c
        ref = _bisect_boundary_scale(q, T, c)
        assert objective(q * ref, T).f == c
        # just below |T|^2 both roots are negative and the set is empty
        below = (1.0 - 1e-6) * c
        assert _boundary_scale(q, T, below) == 0.0
        assert _bisect_boundary_scale(q, T, below) == 0.0
    # a zero core gives X = 0 and <X, T> = 0 exactly
    q = pool[0]
    q = FactorPoint(0.0 * q.S, q.A, q.B, q.C)
    assert _boundary_scale(q, T, c) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_sublevel_boundary_points_stay_in_their_sublevel_set(seed):
    # every point the closed form returns passes the check's own
    # membership test, so no trial is skipped but the vacuous ones
    rep = check_sublevel_bound(rng=np.random.default_rng(seed))
    assert rep.trials + rep.details["vacuous_trials"] == 200
    assert rep.passed


def test_sublevel_check_calls_objective_at_most_twice_per_trial(monkeypatch):
    # a guard on the boundary search: the closed form needs one objective
    # call per trial, for the membership test, where the doubling and
    # bisection made about 8,600 over the check.  The count repeats exactly
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return objective(*args, **kwargs)

    monkeypatch.setattr(verify_module, "objective", counting)
    rep = check_sublevel_bound(rng=np.random.default_rng(2))
    assert rep.trials + rep.details["vacuous_trials"] == 200
    assert 0 < len(calls) <= 2 * rep.trials


def test_sublevel_counts_no_trial_that_cannot_fail(monkeypatch):
    # along a ray with <X, T> <= 0, f >= |T|^2, so at a level gamma <=
    # |T|^2 the boundary point is all but zero and cannot fail the bound;
    # every counted trial (a point that passed the membership test) must
    # have <X, T> > 0 at such a level.  Each positive level's objective
    # call follows the _boundary_scale call that names its level
    levels, trials = [0.0], []

    def scaling(q, T, gamma):
        levels.append(gamma)
        return _boundary_scale(q, T, gamma)

    def recording(p, T, *args):
        rep = objective(p, T, *args)
        trials.append((p, T, levels[-1], rep.f))
        return rep

    monkeypatch.setattr(verify_module, "_boundary_scale", scaling)
    monkeypatch.setattr(verify_module, "objective", recording)
    [rep] = run_suite(0, ["sublevel"])
    counted = [(p, T, gamma) for p, T, gamma, f in trials if f <= gamma + 1e-9]
    assert len(counted) == rep.trials
    flat = [float(p.apply().ravel() @ T.ravel()) for p, T, gamma in counted
            if gamma <= float(T.ravel() @ T.ravel()) + 1e-9]
    assert flat and min(flat) > 0.0
    assert rep.details["vacuous_trials"] > 0


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_per_mode_contraction_matches_four_operand_einsum(d):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((d, d, d))
    A, B, C = (rng.standard_normal((500, d)) for _ in range(3))
    ref = np.einsum("ijk,si,sj,sk->s", X, A, B, C)
    assert np.allclose(_evaluate_at_rows(X, A, B, C), ref, rtol=0.0,
                       atol=1e-12)


def test_core_lower_bound_holds():
    rep = check_core_lower_bound(trials=80, rng=np.random.default_rng(5))
    assert rep.passed


def test_submultiplicativity_holds_and_rank_one_is_tight():
    rep = check_submultiplicativity(trials=80, rng=np.random.default_rng(6))
    assert rep.passed
    assert abs(rep.details["tight_case_gap"]) <= 1e-10


def test_wedin_bound_has_zero_violations():
    rep = check_wedin(trials=100, rng=np.random.default_rng(7))
    assert rep.failures == 0


def test_anti_concentration_floor_and_oracle():
    rep = check_anti_concentration(trials=2, rng=np.random.default_rng(8),
                                   samples=4000)
    assert rep.passed
    assert rep.details["worst_probability"] >= ANTI_CONCENTRATION_FLOOR
    assert rep.details["rank_one_oracle_gap"] <= 0.03


# ---------------------------------------------------------------------------
# saddle gallery


def test_origin_gallery_point_is_flat_but_escapable():
    rep = gallery_origin(np.random.default_rng(9), attempts=60)
    assert rep.passed
    assert rep.details["grad_norm"] <= 1e-10
    assert rep.details["curvature"] <= 1e-8
    assert rep.details["improved_fraction"] >= 0.3
    assert rep.details["regularizer_drift"] <= 1e-20


def test_unregularized_counterexample_report():
    rep = gallery_unregularized_counterexample(np.random.default_rng(10),
                                               directions=300)
    assert rep.passed
    assert rep.details["loss_grad_norm"] <= 1e-10
    assert rep.details["regularizer_value"] == 9.0
    assert (rep.details["full_grad_norm"]
            >= rep.details["gradient_lower_bound"] > 0.0)


@pytest.mark.parametrize("factory,expected", [
    (gallery_one_missing, 2.0),
    (gallery_two_missing, 3.0),
    pytest.param(lambda: gallery_three_missing(np.random.default_rng(9)),
                 4.0, id="gallery_three_missing-4.0"),
])
def test_gallery_slopes_classify_saddle_order(factory, expected):
    rep = factory()
    assert rep.passed
    assert abs(rep.details["slope"] - expected) <= 0.5


def test_gallery_points_are_exact_critical_points():
    for rep in (gallery_one_missing(), gallery_two_missing()):
        assert rep.details["grad_norm"] <= 1e-12
        assert rep.details["regularizer"] <= 1e-20


def test_saddle_gallery_returns_all_five():
    reports = saddle_gallery(np.random.default_rng(11))
    assert [r.lemma for r in reports] == [
        "origin-flat-saddle", "unregularized-counterexample",
        "one-missing-direction", "two-missing-direction",
        "three-missing-direction"]
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# the suite


def test_suite_runs_every_registered_check():
    reports = run_suite(seed=0)
    assert len(reports) == len(CHECKS) - 1 + 5
    assert all(r.passed for r in reports)


def test_suite_is_deterministic_given_seed():
    a = suite_to_json(run_suite(seed=3))
    b = suite_to_json(run_suite(seed=3))
    assert a == b
    c = suite_to_json(run_suite(seed=4))
    assert a != c


def test_suite_selector_runs_named_check_on_matching_stream():
    one = run_suite(seed=5, names=["euler"])
    assert len(one) == 1
    full = [r for r in run_suite(seed=5) if r.lemma == one[0].lemma]
    assert full[0].worst_margin == one[0].worst_margin


def test_suite_rejects_unknown_selector_and_reports_choices():
    with pytest.raises(ValueError, match="unknown checks"):
        run_suite(names=["euler", "bogus"])


def test_suite_rejects_empty_and_repeated_selections():
    with pytest.raises(ValueError, match="no checks"):
        run_suite(names=[])
    with pytest.raises(ValueError, match="more than once"):
        run_suite(names=["euler", "wedin", "euler"])


def test_suite_json_reports_aggregate_flag():
    doc = json.loads(suite_to_json(run_suite(seed=0, names=["wedin"])))
    assert doc["all_passed"] is True
    assert doc["reports"][0]["lemma"] == "projector-perturbation-bound"

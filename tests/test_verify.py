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
                                 _boundary_scale, _evaluate_at_rows, _gauge,
                                 _random_units, _rank_one_law,
                                 _ray_coefficients, _unit_rows,
                                 _unit_step_losses,
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
            s = _boundary_scale(_ray_coefficients(q, T), gamma)
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
        assert _boundary_scale(_ray_coefficients(q, T), c) == 0.0
        # the bisection stops inside the stretch of the ray where f
        # rounds to c
        ref = _bisect_boundary_scale(q, T, c)
        assert objective(q * ref, T).f == c
        # just below |T|^2 both roots are negative and the set is empty
        below = (1.0 - 1e-6) * c
        assert _boundary_scale(_ray_coefficients(q, T), below) == 0.0
        assert _bisect_boundary_scale(q, T, below) == 0.0
    # a zero core gives X = 0 and <X, T> = 0 exactly
    q = pool[0]
    q = FactorPoint(0.0 * q.S, q.A, q.B, q.C)
    assert _ray_coefficients(q, T)[1] == 0.0
    assert _boundary_scale(_ray_coefficients(q, T), c) == 0.0


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


def test_sublevel_takes_each_directions_ray_once(monkeypatch):
    # one transform and one regularizer per pool direction serve all four
    # positive levels: 40 rays per check, not one per (level, direction)
    rays = []

    def counting(q, T):
        rays.append(1)
        return _ray_coefficients(q, T)

    monkeypatch.setattr(verify_module, "_ray_coefficients", counting)
    rep = check_sublevel_bound(rng=np.random.default_rng(2))
    assert rep.passed and len(rays) == 40


def test_sublevel_counts_no_trial_that_cannot_fail(monkeypatch):
    # along a ray with <X, T> <= 0, f >= |T|^2, so at a level gamma <=
    # |T|^2 the boundary point is all but zero and cannot fail the bound;
    # every counted trial (a point that passed the membership test) must
    # have <X, T> > 0 at such a level.  Each positive level's objective
    # call follows the _boundary_scale call that names its level
    levels, trials = [0.0], []

    def scaling(ray, gamma):
        levels.append(gamma)
        return _boundary_scale(ray, gamma)

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


def _unit_row_margins(rng, dims, trials, samples):
    """check_anti_concentration's margins and oracle gap with each
    dimension's sample rows drawn as three unit-row sets, one after the
    other, and shared by that dimension's trials + 1 tensors, the rank-one
    estimate measured against the exact law: the reference for the one
    unnormalized (3, samples, d) draw per dimension."""
    margins, oracle_gap = [], 0.0
    for d in dims:
        thresh = verify_module.ANTI_CONCENTRATION_CUTOFF / d ** 1.5
        A, B, C = (_unit_rows(rng, samples, d) for _ in range(3))
        for t in range(trials + 1):
            if t == trials:
                u, v, w = (_unit_rows(rng, 1, d)[0] for _ in range(3))
                X = np.einsum("i,j,k->ijk", u, v, w)
            else:
                X = rng.standard_normal((d, d, d))
                X /= norm_f(X)
            phat = float(np.mean(np.abs(_evaluate_at_rows(X, A, B, C))
                                 >= thresh))
            margins.append(ANTI_CONCENTRATION_FLOOR - phat)
            if t == trials:
                oracle_gap = max(oracle_gap,
                                 abs(phat - _rank_one_law(d, thresh)))
    return margins, oracle_gap


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_anti_concentration_matches_the_unit_row_reference(seed,
                                                           monkeypatch):
    # each dimension's one (3, samples, d) draw into a prefix of the
    # buffer is the stream of three successive row draws, taken before
    # its tensors, and the unnormalized test counts as the unit rows do:
    # every trial's margin and the oracle gap equal the reference's
    seen = []
    report = verify_module._margin_report
    monkeypatch.setattr(verify_module, "_margin_report",
                        lambda lemma, margins, *a, **kw: seen.append(
                            margins) or report(lemma, margins, *a, **kw))
    rep = check_anti_concentration(np.random.default_rng(seed), trials=2,
                                   samples=3000)
    margins, gap = _unit_row_margins(np.random.default_rng(seed),
                                     (3, 4, 5, 6), 2, 3000)
    assert seen == [margins]
    assert rep.details["rank_one_oracle_gap"] == gap


class _RecordingGenerator:
    """A generator that logs the shape of every normal draw and the name of
    every other generator method used."""

    def __init__(self, rng):
        self.rng, self.normals, self.others = rng, [], []

    def standard_normal(self, size=None, out=None):
        self.normals.append(np.shape(out) if size is None else size)
        return self.rng.standard_normal(size, out=out)

    def __getattr__(self, name):
        self.others.append(name)
        return getattr(self.rng, name)


def test_anti_concentration_work_is_pinned(monkeypatch):
    # a guard on the check's work, so a speed-up cannot buy its time by
    # scoring fewer tensors or fewer samples: 4 dimensions x (5 Gaussian +
    # 1 rank-one) tensors, each evaluated once on (3, 10,000, d) rows,
    # one row draw per dimension, and no draw but normals: the rank-one
    # estimate is measured against the exact law, not a Beta sample
    calls = []

    def recording(X, A, B, C):
        calls.append((X.shape, A.shape, B.shape, C.shape))
        return _evaluate_at_rows(X, A, B, C)

    monkeypatch.setattr(verify_module, "_evaluate_at_rows", recording)
    rng = _RecordingGenerator(np.random.default_rng(0))
    rep = check_anti_concentration(rng)
    samples = 10_000
    assert rep.trials == 24 and rep.passed
    assert calls == [((d,) * 3, (samples, d), (samples, d), (samples, d))
                     for d in (3, 4, 5, 6) for _ in range(6)]
    assert rng.normals == [shape for d in (3, 4, 5, 6) for shape in
                           [(3, samples, d)] + [(d, d, d)] * 5 + [(1, d)] * 3]
    assert rng.others == []
    calls.clear()
    [suite_rep] = run_suite(0, ["anti-concentration"])
    assert suite_rep.trials == 24 and len(calls) == 24


@pytest.mark.parametrize("shrink,floor_fails", [(1e-2, True), (0.6, False)])
def test_anti_concentration_fails_on_shrunk_evaluations(monkeypatch, shrink,
                                                        floor_fails):
    # negative controls: evaluations shrunk by 1e-2 fall under the cutoff
    # almost everywhere, so every tensor's floor margin and every rank-one
    # oracle gap fails; shrunk by 0.6 every tensor still clears the floor,
    # and only the oracle, exact for rank-one tensors, sees the change
    monkeypatch.setattr(verify_module, "_evaluate_at_rows",
                        lambda *args: shrink * _evaluate_at_rows(*args))
    rep = check_anti_concentration(np.random.default_rng(8), trials=2,
                                   samples=4000)
    assert not rep.passed
    assert rep.details["rank_one_oracle_gap"] > 0.03
    dims = 4
    if floor_fails:
        assert rep.failures == rep.trials + dims
        assert rep.worst_margin > 0.0
    else:
        assert rep.failures == dims
        assert rep.worst_margin <= 0.0


def test_core_lower_bound_holds():
    rep = check_core_lower_bound(trials=80, rng=np.random.default_rng(5))
    assert rep.passed


def test_submultiplicativity_holds_and_rank_one_is_tight():
    rep = check_submultiplicativity(trials=80, rng=np.random.default_rng(6))
    assert rep.passed
    assert abs(rep.details["tight_case_gap"]) <= 1e-10


def test_submultiplicativity_fails_a_tight_case_off_the_top_vectors(
        monkeypatch):
    # with the singular vectors reversed, a tight case takes the bottom
    # ones: lhs falls below rhs, so no margin is positive and only the
    # tight-case rule can fail the check
    svd = np.linalg.svd

    def bottom_vectors_first(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if not kwargs.get("compute_uv", True):
            return out
        U, s, Vt = out
        return U[..., ::-1], s, Vt

    monkeypatch.setattr(np.linalg, "svd", bottom_vectors_first)
    rep = check_submultiplicativity(trials=80, rng=np.random.default_rng(6))
    assert rep.worst_margin <= 0.0
    assert rep.failures > 0 and not rep.passed


def reference_submultiplicativity(rng, trials):
    """check_submultiplicativity's margins and tight-case gap, from one
    draw, one operator norm and one SVD per factor."""
    margins, tight_gap = [], np.inf
    for i in range(trials):
        r = int(rng.integers(1, 4))
        d = int(rng.integers(r, 7))
        A, B, C = (rng.standard_normal((r, d)) for _ in range(3))
        bound_factor = (np.linalg.norm(A, 2) * np.linalg.norm(B, 2)
                        * np.linalg.norm(C, 2))
        if i % 10 == 0:
            ua, ub, uc = (np.linalg.svd(M)[0][:, 0] for M in (A, B, C))
            S = np.einsum("x,y,z->xyz", ua, ub, uc)
        elif i == 1:
            A = B = C = np.eye(r)
            bound_factor = 1.0
            S = rng.standard_normal((r, r, r))
        else:
            S = rng.standard_normal((r, r, r))
        lhs = norm_f(multilinear_transform(S, A, B, C))
        rhs = norm_f(S) * bound_factor
        margins.append(lhs - rhs - 1e-10 * (1.0 + rhs))
        if i % 10 == 0:
            tight_gap = min(tight_gap, float(rhs - lhs))
    return margins, tight_gap


@pytest.mark.parametrize("seed", (0, 6, 17))
def test_submultiplicativity_stacked_svds_are_the_per_matrix_calls(seed):
    rep = check_submultiplicativity(np.random.default_rng(seed), trials=60)
    margins, tight_gap = reference_submultiplicativity(
        np.random.default_rng(seed), 60)
    assert rep.worst_margin == max(margins)
    assert rep.details["tight_case_gap"] == tight_gap


@pytest.mark.parametrize("r, d, seed", ((1, 1, 0), (1, 4, 1), (2, 3, 2),
                                        (3, 6, 3), (3, 3, 4)))
def test_stacked_operator_norms_and_gauge_are_the_per_matrix_calls(r, d,
                                                                   seed):
    M = np.random.default_rng(seed).standard_normal((3, r, d))
    norms = np.linalg.svd(M, compute_uv=False).max(axis=1)
    assert np.array_equal(norms, [np.linalg.norm(m, 2) for m in M])
    p = random_point(r, d, np.random.default_rng(seed))
    got = _gauge(p, np.random.default_rng(seed + 50))
    rng = np.random.default_rng(seed + 50)
    qs = [np.linalg.qr(rng.standard_normal((r, r)))[0] for _ in range(3)]
    want = FactorPoint(multilinear_transform(p.S, *qs), qs[0].T @ p.A,
                       qs[1].T @ p.B, qs[2].T @ p.C)
    assert np.array_equal(got.flat, want.flat)


def test_wedin_bound_has_zero_violations():
    rep = check_wedin(trials=100, rng=np.random.default_rng(7))
    assert rep.failures == 0


def test_anti_concentration_floor_and_oracle():
    rep = check_anti_concentration(trials=2, rng=np.random.default_rng(8),
                                   samples=4000)
    assert rep.passed
    assert rep.details["worst_probability"] >= ANTI_CONCENTRATION_FLOOR
    assert rep.details["rank_one_oracle_gap"] <= 0.03
    assert rep.details["rank_one_law"] == {
        str(d): _rank_one_law(d, verify_module.ANTI_CONCENTRATION_CUTOFF
                              / d ** 1.5) for d in (3, 4, 5, 6)}


@pytest.mark.parametrize("tau", [0.1 / 27 ** 0.5, 0.05, 0.3, 0.9])
def test_rank_one_law_matches_the_closed_form_at_d3(tau):
    # in R^3 the first coordinate of a uniform unit vector is uniform on
    # [-1, 1], so P(|c1 c2 c3| >= tau) = 1 - tau (1 + L + L^2 / 2) with
    # L = ln(1 / tau)
    L = np.log(1.0 / tau)
    assert abs(_rank_one_law(3, tau) - (1.0 - tau * (1.0 + L + L * L / 2))
               ) <= 1e-6


@pytest.mark.parametrize("d", range(2, 9))
def test_rank_one_law_agrees_with_beta_sampling(d):
    # squared first coordinates of random unit vectors in R^d follow
    # Beta(1/2, (d-1)/2), so a seeded Monte Carlo estimate of the law must
    # lie within five of its standard errors
    tau, n = 0.1 / d ** 1.5, 200_000
    betas = np.random.default_rng(d).beta(0.5, (d - 1) / 2.0, size=(3, n))
    p = _rank_one_law(d, tau)
    estimate = float(np.mean(np.sqrt(betas.prod(axis=0)) >= tau))
    assert abs(estimate - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("d", range(2, 9))
def test_rank_one_law_falls_as_the_cutoff_rises(d):
    laws = [_rank_one_law(d, tau) for tau in np.geomspace(1e-4, 0.95, 15)]
    assert all(0.0 < p <= 1.0 for p in laws)
    assert all(a > b for a, b in zip(laws, laws[1:]))


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


def _counterexample_point():
    row = np.zeros((1, 3))
    row[0, 1] = 1.0
    return FactorPoint(np.zeros((1, 1, 1)), row, row.copy(), row.copy())


@pytest.mark.parametrize("seed", [0, 10, 11])
@pytest.mark.parametrize("instance", ["counterexample", "random"])
def test_batched_counterexample_losses_equal_the_objective(seed, instance):
    # the check's one draw is the stream of its per-direction points, and
    # each batched loss is the objective at that point, bit for bit; at a
    # random point and target, where the fit is not near |T|^2, every
    # entry's rounding reaches the loss
    if instance == "counterexample":
        p = _counterexample_point()
        T = np.zeros((3, 3, 3))
        T[0, 0, 0] = 1.0
    else:
        rng = np.random.default_rng([99, seed])
        p = random_point(1, 3, rng)
        T = p.apply() + 0.1 * rng.standard_normal((3, 3, 3))
    reference = [objective(p + 1e-2 * q, T, 0.0).f
                 for q in _random_units(1, 3, np.random.default_rng(seed),
                                        500)]
    Z = np.random.default_rng(seed).standard_normal((500, 10))
    assert _unit_step_losses(p, T, Z).tolist() == reference


def test_batched_counterexample_losses_find_a_dip_where_the_core_can_grow():
    # negative control: with the target along the point's own rows the
    # zero core can grow, so about half of the directions improve the fit
    p = _counterexample_point()
    T = np.zeros((3, 3, 3))
    T[1, 1, 1] = 1.0
    Z = np.random.default_rng(10).standard_normal((300, 10))
    dips = objective(p, T, 0.0).f - _unit_step_losses(p, T, Z)
    assert dips.max() > 1e-3
    assert 0.3 < np.mean(dips > 0.0) < 0.7


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


@pytest.mark.parametrize("seed", [1315, 2131])
def test_three_missing_gallery_redraws_a_near_orthogonal_draw(seed):
    # the first (a, b, c) of these seeds has |T(a, b, c)| near 2.2e-5,
    # below max(eps)^4 / 2, so the largest step's octic term outweighs the
    # quartic gain; the check draws again instead of failing
    reports = run_suite(seed=seed, names=["saddle-gallery"])
    assert all(r.passed for r in reports), [
        (r.lemma, r.details) for r in reports if not r.passed]


def test_saddle_gallery_fails_on_nan_gradients_and_curvature(monkeypatch):
    # a NaN gradient or curvature must fail every gallery point whose
    # report reads it, not slip past a comparison that NaN makes false
    def nan_valued(fn):
        def wrapped(*args, **kwargs):
            return np.nan * fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(verify_module, "grad", nan_valued(verify_module.grad))
    monkeypatch.setattr(verify_module, "hvp", nan_valued(verify_module.hvp))
    reports = saddle_gallery(np.random.default_rng(11))
    assert [r.passed for r in reports] == [False] * 5
    origin, counterexample, *slopes = reports
    assert np.isnan(origin.details["curvature"])
    assert np.isnan(counterexample.details["full_grad_norm"])
    assert all(np.isnan(r.details["grad_norm"]) for r in slopes)


# ---------------------------------------------------------------------------
# the suite


def test_suite_runs_every_registered_check():
    reports = run_suite(seed=0)
    assert len(reports) == len(CHECKS) - 1 + 5
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("seed", range(1, 8))
def test_suite_passes_on_every_check(seed):
    # the frozen constants and bounds hold on the suite's own streams;
    # seed 0 is the test above's
    reports = run_suite(seed=seed)
    assert all(r.passed for r in reports), [
        (r.lemma, r.details) for r in reports if not r.passed]


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


def test_suite_rejects_a_negative_seed():
    # numpy's own message names no seed: "expected non-negative integer"
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        run_suite(seed=-1, names=["euler"])


def test_suite_json_reports_aggregate_flag():
    doc = json.loads(suite_to_json(run_suite(seed=0, names=["wedin"])))
    assert doc["all_passed"] is True
    assert doc["reports"][0]["lemma"] == "projector-perturbation-bound"

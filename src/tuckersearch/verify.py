"""Numerical verification of the landscape facts the search relies on.

Each check draws random instances from the generator it is handed (the
suite gives each its own stream), tests one identity, inequality, or
saddle construction, and returns a LemmaReport with a failure count and
the worst margin observed.  A margin is normalized so that positive means
violation, and a NaN margin fails too; the worst margin of a healthy check
is therefore negative or zero, with its distance from zero showing how
much slack the data had.

Empirical constants (the sublevel norm constant and the
anti-concentration floor) were calibrated once on a pilot run and are
frozen here; the checks measure against them rather than fitting fresh
values, so a regression cannot silently re-tune its own pass bar.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .escape import SIGMA, sample_missing_directions, sign_flip_search
from .objective import (balanced_random_point, default_lambda, eval_along,
                        grad, grad_loss, grad_phi, grad_reg, hvp, objective,
                        reg, reg_phi)
from .subspace import projection_distance_bound, subspace_split
from .tensor_core import (FactorPoint, flatten, multilinear_transform,
                          norm_f, random_point, trilinear)

# worst accepted-point ratio over the calibration pilot was 2.22 at
# gamma = 10; frozen with ~25% headroom
SUBLEVEL_NORM_CONSTANT = 2.8
# worst pilot estimate was 0.69 (rank-one tensors at d = 6); the floor
# stays at the design value well below it
ANTI_CONCENTRATION_FLOOR = 0.3
ANTI_CONCENTRATION_CUTOFF = 0.1


@dataclass
class LemmaReport:
    lemma: str
    trials: int
    failures: int
    worst_margin: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return dict(vars(self), passed=self.passed)


def _report(lemma, trials, failures, worst_margin, tolerance, **details):
    return LemmaReport(lemma, trials, failures, float(worst_margin),
                       tolerance, details)


def _nan_max(values, floor=-math.inf) -> float:
    """The largest of values and floor, NaN if any value is NaN."""
    return float(np.max(values, initial=floor))


def _margin_report(lemma, margins, tolerance, failures=0, **details):
    """One trial per margin.  A margin that is not <= 0, NaN included, is
    a failure on top of the caller's `failures`; the worst margin is the
    largest, NaN if any is."""
    failures += sum(not m <= 0 for m in margins)
    return _report(lemma, len(margins), failures, _nan_max(margins),
                   tolerance, **details)


def _random_shapes(rng, trials, r_max=3, d_max=6):
    for _ in range(trials):
        r = int(rng.integers(1, r_max + 1))
        d = int(rng.integers(r, d_max + 1))
        yield r, d


def _gauge(p, rng):
    """Rotate the core against orthogonal mixes of the factor rows, from
    one stacked `qr`; the objective and both gradient fields transform
    covariantly."""
    Q = np.linalg.qr(rng.standard_normal((3, p.r, p.r)))[0]
    S = multilinear_transform(p.S, *Q)
    return FactorPoint(S, Q[0].T @ p.A, Q[1].T @ p.B, Q[2].T @ p.C)


def check_orthogonality(rng, trials: int = 100, grad_loss_fn=grad_loss,
                        grad_reg_fn=grad_reg) -> LemmaReport:
    """The fit gradient and the regularizer gradient are perpendicular at
    every point, not just at stationary ones.

    The gradient functions are injectable so a corrupted gradient can be
    shown to fail the check (negative control).
    """
    tol = 1e-8
    margins = []
    for i, (r, d) in enumerate(_random_shapes(rng, trials)):
        T = rng.standard_normal((d, d, d))
        if i == 0:
            p = FactorPoint.zeros(r, d)
        else:
            p = random_point(r, d, rng)
            if i % 5 == 0:
                p = _gauge(p, rng)
        gl = grad_loss_fn(p, T)
        gr = grad_reg_fn(p)
        margins.append(abs(gl.inner(gr)) - tol * (1.0 + gl.norm() * gr.norm()))
    return _margin_report("gradient-orthogonality", margins, tol)


def check_euler(rng, trials: int = 100) -> LemmaReport:
    """The balance defect is homogeneous of degree four: its gradient
    paired with the point itself returns four times its value."""
    tol = 1e-8
    margins = []
    for i, (r, d) in enumerate(_random_shapes(rng, trials)):
        if i == 0:
            p = FactorPoint.zeros(r, d)
        elif i % 7 == 0:
            p = balanced_random_point(r, d, rng)
        else:
            p = random_point(r, d, rng)
        phi = reg_phi(p)
        margins.append(abs(4.0 * phi - grad_phi(p).inner(p))
                       - tol * (1.0 + 4.0 * phi))
    return _margin_report("defect-euler-identity", margins, tol)


def _max_block_norm(p):
    return max(norm_f(b) for b in p.blocks())


def _ray_coefficients(q, T):
    """(a, b, c) with f(s*q) = a u^2 - 2 b u + c along the ray, u = s^4.

    The transform of s*q is s^4 X and its regularizer s^8 R(q), so
    a = |X|^2 + lam R(q), b = <X, T> and c = |T|^2, all from one
    transform of q.
    """
    X = q.apply().ravel()
    t = T.ravel()
    a = float(X @ X) + default_lambda(q.r) * reg(q)
    return a, float(X @ t), float(t @ t)


def _boundary_scale(ray, gamma):
    """Largest multiplier s keeping f(s*q) within the sublevel set f <= gamma,
    from the ray's coefficients (a, b, c) (`_ray_coefficients`).

    The boundary is the largest root of a u^2 - 2 b u + (c - gamma), taken
    in the form that does not cancel.  With no positive root (gamma = |T|^2
    and b <= 0, or no real root) the answer is 0; the caller's membership
    test decides whether that point counts.  a must be positive.
    """
    a, b, c = ray
    k = c - gamma
    disc = b * b - a * k
    if disc < 0.0:
        return 0.0
    if b >= 0.0:
        u = (b + math.sqrt(disc)) / a
    else:
        u = k / (b - math.sqrt(disc))
    return max(u, 0.0) ** 0.25


def check_sublevel_bound(rng, gammas=(0.0, 1.0, 10.0, 100.0, 1000.0),
                         trials: int = 40) -> LemmaReport:
    """Points inside an objective sublevel set have bounded factor norms:
    every accepted point must satisfy
    max block norm <= SUBLEVEL_NORM_CONSTANT * (gamma+1)^{1/8}.

    The zero level is exercised with constructed exact solutions; each
    positive level with the same pool of random directions pushed to the
    sublevel boundary, where the bound is tightest.  Reusing one pool
    across levels pairs the extremes, so the growth exponent fitted over
    the positive levels is not order-statistic noise; it must stay at or
    below 0.25, twice the predicted 1/8.  The boundary point comes from
    the closed form of f along the ray (`_boundary_scale`), whose
    coefficients each pool direction computes once for all levels; one
    objective call per trial then tests that it lies in the set.

    A pool direction whose transform X has <X, T> <= 0 keeps f >= |T|^2
    along its whole ray, so at a level gamma <= |T|^2 (within the
    membership test's 1e-9) its boundary point is all but zero and
    cannot fail the bound.  Such trials are left out of `trials` and
    counted in the details as `vacuous_trials`.
    """
    r, d = 2, 4
    c = SUBLEVEL_NORM_CONSTANT
    margins = []
    extremes = {}
    truth = random_point(r, d, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    T = T / norm_f(T)
    pool = []
    for _ in range(trials):
        q = random_point(r, d, rng)
        pool.append(q * (1.0 / max(1e-12, _max_block_norm(q))))
    t = T.ravel()
    # each direction's ray serves every level
    rays = [_ray_coefficients(q, T) for q in pool]
    vacuous = 0
    for gamma in gammas:
        bound = c * (gamma + 1.0) ** 0.125
        best = 0.0
        for i in range(trials):
            if gamma == 0.0:
                q = balanced_random_point(r, d, rng)
                Tq = multilinear_transform(q.S, q.A, q.B, q.C)
                nq = norm_f(Tq)
                if nq < 1e-12:
                    continue
                p = q * nq ** -0.25
                f = objective(p, Tq / nq).f
            else:
                if rays[i][1] <= 0.0 and gamma <= float(t @ t) + 1e-9:
                    vacuous += 1
                    continue
                p = pool[i] * _boundary_scale(rays[i], gamma)
                f = objective(p, T).f
            if f > gamma + 1e-9:
                continue
            norm = _max_block_norm(p)
            best = max(best, norm)
            margins.append(norm - bound)
        extremes[gamma] = best
    xs = [math.log(g + 1.0) for g in gammas if g > 0 and extremes[g] > 0]
    ys = [math.log(extremes[g]) for g in gammas if g > 0 and extremes[g] > 0]
    exponent = float(np.polyfit(xs, ys, 1)[0])
    fitted = max(extremes[g] / (g + 1.0) ** 0.125
                 for g in gammas if extremes[g] > 0)
    return _margin_report("sublevel-norm-bound", margins, 0.0,
                          int(exponent > 0.25), frozen_constant=c,
                          fitted_constant=fitted, exponent=exponent,
                          extremes={str(g): v for g, v in extremes.items()},
                          vacuous_trials=vacuous)


def check_core_lower_bound(rng, trials: int = 100) -> LemmaReport:
    """Transforming a core by its own three flattenings cannot lose more
    than an r^4 factor of the fourth power of its norm."""
    tol = 1e-10
    margins = []
    for i in range(trials):
        r = int(rng.integers(1, 4))
        if i == 0:
            S = np.zeros((2, 2, 2))
        elif i == 1:
            S = np.zeros((2, 2, 2))
            S[0, 0, 0] = 1.0
        else:
            S = rng.standard_normal((r, r, r))
            if i % 3 == 0:
                S /= max(norm_f(S), 1e-12)
        r_eff = S.shape[0]
        lhs = norm_f(multilinear_transform(S, flatten(S, 1), flatten(S, 2),
                                           flatten(S, 3)))
        rhs = norm_f(S) ** 4 / r_eff ** 4
        margins.append(rhs - lhs - tol * (1.0 + rhs))
    return _margin_report("core-self-transform-lower-bound", margins, tol)


def check_submultiplicativity(rng, trials: int = 100) -> LemmaReport:
    """The transformed core norm is at most the core norm times the three
    factor operator norms; rank-one cores built from top singular vectors
    meet the bound with equality, and each such tight case that misses
    equality by more than the tolerance is a failure.  The operator norms
    and the top singular vectors come from stacked `svd` calls, bit for
    bit the per-matrix ones."""
    tol = 1e-10
    margins = []
    failures = 0
    tight_gap = math.inf
    for i, (r, d) in enumerate(_random_shapes(rng, trials)):
        M = rng.standard_normal((3, r, d))
        A, B, C = M
        na, nb, nc = np.linalg.svd(M, compute_uv=False).max(axis=1)
        bound_factor = na * nb * nc
        if i % 10 == 0:
            ua, ub, uc = np.linalg.svd(M)[0][:, :, 0]
            S = np.einsum("x,y,z->xyz", ua, ub, uc)
        elif i == 1:
            A = B = C = np.eye(r)
            bound_factor = 1.0
            S = rng.standard_normal((r, r, r))
        else:
            S = rng.standard_normal((r, r, r))
        lhs = norm_f(multilinear_transform(S, A, B, C))
        rhs = norm_f(S) * bound_factor
        margins.append(lhs - rhs - tol * (1.0 + rhs))
        if i % 10 == 0:
            tight_gap = min(tight_gap, float(rhs - lhs))
            failures += not abs(rhs - lhs) <= tol * (1.0 + rhs)
    return _margin_report("transform-submultiplicativity", margins, tol,
                          failures, tight_case_gap=tight_gap)


def check_wedin(rng, trials: int = 100) -> LemmaReport:
    """Perturbing a rank-k matrix moves its top-k right-singular projector
    by at most twice the perturbation norm over the k-th singular value."""
    tol = 1e-12
    margins = []
    for _ in range(trials):
        rows = int(rng.integers(3, 8))
        cols = int(rng.integers(3, 8))
        k = int(rng.integers(1, min(rows, cols)))
        G = rng.standard_normal((rows, cols))
        U, s, Vt = np.linalg.svd(G, full_matrices=False)
        M1 = (U[:, :k] * s[:k]) @ Vt[:k]
        sigma_k = s[k - 1]
        M2 = rng.standard_normal((rows, cols))
        M2 *= 0.3 * sigma_k / max(norm_f(M2), 1e-12)
        lhs, rhs = projection_distance_bound(M1 + M2, M1, M2)
        margins.append(lhs - rhs - tol * (1.0 + rhs))
    return _margin_report("projector-perturbation-bound", margins, tol)


def _unit_rows(rng, n, d):
    M = rng.standard_normal((n, d))
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def _evaluate_at_rows(X, A, B, C):
    """X(a_s, b_s, c_s) for every row s of A, B and C, one mode-1 slice of X
    at a time: sum_i A[s, i] <B[s] X[i], C[s]>.  Its temporaries are
    (samples, d), never (samples, d, d)."""
    vals = np.zeros(A.shape[0])
    for i in range(X.shape[0]):
        vals += A[:, i] * np.einsum("sk,sk->s", B @ X[i], C)
    return vals


@functools.cache
def _law_rule():
    """The 32-point Gauss-Legendre rule of `_rank_one_law`, built once:
    `leggauss` takes about 0.4 ms, twice the law's four dimensions."""
    return np.polynomial.legendre.leggauss(32)


def _sine_power_integral(n, phi, s, c):
    """The integral of sin^n over [0, phi], elementwise, given sin phi = s
    and cos phi = c: S_n = -s^(n-1) c / n + (n-1)/n S_(n-2), from S_0 = phi
    and S_1 = 1 - c."""
    S = phi if n % 2 == 0 else 1.0 - c
    for k in range(2 + n % 2, n + 1, 2):
        S = (k - 1) / k * S - s ** (k - 1) * c / k
    return S


def _rank_one_law(d: int, tau: float) -> float:
    """P(|c1 c2 c3| >= tau) for c1, c2, c3 the first coordinates of three
    independent uniform unit vectors in R^d, d >= 2 and 0 < tau < 1: the
    probability that a unit rank-one tensor clears tau at random unit rows.

    With c = cos(theta), theta has density sin^(d-2) over its integral on
    [0, pi/2].  Given theta1 and theta2, |c3| >= tau / (c1 c2) is the event
    theta3 <= arccos(tau / (c1 c2)), whose mass is closed-form
    (`_sine_power_integral`).  The integrals over theta1 in
    [0, arccos(tau)] and theta2 in [0, arccos(tau / c1)] are 32-point
    Gauss-Legendre rules, the inner one mapped onto its own interval so
    that the kink at c1 c2 = tau lies on the edge of the domain.  The value
    is within 1.3e-5 of a 400-point rule's for d = 2-8, and within 1e-7 of
    the closed form at d = 3.
    """
    x, w = _law_rule()
    m = d - 2
    half = 0.5 * math.acos(tau)
    theta1 = half * (x + 1.0)
    c1 = np.cos(theta1)
    halves = 0.5 * np.arccos(np.minimum(tau / c1, 1.0))
    theta2 = halves[:, None] * (x + 1.0)
    c3 = np.minimum(tau / (c1[:, None] * np.cos(theta2)), 1.0)
    mass3 = _sine_power_integral(m, np.arccos(c3), np.sqrt(1.0 - c3 * c3), c3)
    inner = halves * ((w * np.sin(theta2) ** m * mass3).sum(axis=1))
    total = half * float(w @ (np.sin(theta1) ** m * inner))
    return total / _sine_power_integral(m, 0.5 * math.pi, 1.0, 0.0) ** 3


def check_anti_concentration(rng, dims=(3, 4, 5, 6), trials: int = 5,
                             samples: int = 10_000) -> LemmaReport:
    """A tensor evaluated at random unit vectors lands above a tenth of
    its root-mean-square value with probability at least the frozen floor.

    Each dimension scores trials Gaussian tensors and one rank-one tensor,
    the most concentrated case, whose estimate must lie within 0.03 of
    the exact probability (`_rank_one_law`, reported per dimension as
    `rank_one_law`); the estimate's sampling noise is the only noise in
    that comparison.  The three sets of sample vectors are one
    (3, samples, d) Gaussian draw per dimension, shared by all of its
    tensors (common random numbers: each tensor's estimate keeps its
    sample size and its variance, and the draws, the largest cost of the
    check, are paid once per dimension).  The rows are tested
    unnormalized and each tensor is evaluated one mode-1 slice at a time,
    as matrix products (`_evaluate_at_rows`), the rank-one tensor too,
    since that evaluator is what the exact law checks.
    """
    phats = []
    failures = 0
    oracle_gap = 0.0
    laws = {}
    # every dimension's rows fill a prefix of one buffer, the size of the
    # largest draw, so the draws do not churn the heap
    buf = np.empty(3 * samples * max(dims, default=0))
    for d in dims:
        thresh = ANTI_CONCENTRATION_CUTOFF / d ** 1.5
        rows = buf[:3 * samples * d].reshape(3, samples, d)
        rng.standard_normal(out=rows)
        # X is trilinear, so the test at the unit rows is the raw rows'
        # against thresh times their norms
        norms = np.sqrt(np.einsum("msk,msk->ms", rows, rows))
        bar = thresh * norms[0] * norms[1] * norms[2]
        for t in range(trials + 1):
            rank_one = t == trials
            if rank_one:
                u, v, w = (_unit_rows(rng, 1, d)[0] for _ in range(3))
                X = np.einsum("i,j,k->ijk", u, v, w)
            else:
                X = rng.standard_normal((d, d, d))
                X /= norm_f(X)
            phat = float(np.mean(np.abs(_evaluate_at_rows(X, *rows)) >= bar))
            phats.append(phat)
            if rank_one:
                laws[str(d)] = law = _rank_one_law(d, thresh)
                gap = abs(phat - law)
                oracle_gap = max(oracle_gap, gap)
                if gap > 0.03:
                    failures += 1
    return _margin_report("evaluation-anti-concentration",
                          [ANTI_CONCENTRATION_FLOOR - p for p in phats], 0.03,
                          failures, floor=ANTI_CONCENTRATION_FLOOR,
                          worst_probability=min(phats, default=math.inf),
                          rank_one_oracle_gap=oracle_gap, rank_one_law=laws)


# ---------------------------------------------------------------------------
# the saddle gallery


def _fit_slope(eps, gains):
    xs = [math.log(e) for e, g in zip(eps, gains) if g > 0]
    ys = [math.log(g) for g in gains if g > 0]
    if len(xs) < 3:
        return math.nan
    return float(np.polyfit(xs, ys, 1)[0])


def _slope_eps():
    return np.geomspace(10 ** -2.5, 10 ** -1, 9)


def _random_units(r, d, rng, n):
    """n random points of unit norm, each drawn as it is taken."""
    for _ in range(n):
        q = random_point(r, d, rng)
        yield (1.0 / q.norm()) * q


def _improvements(p, direction, T, eps):
    f0 = objective(p, T).f
    return [f0 - rep.f for _, rep in eval_along(p, direction, T, eps)]


def gallery_origin(rng, attempts: int = 100) -> LemmaReport:
    """The all-zero point against a unit target: an exact critical point
    with vanishing curvature that only the fully-sampled block escapes."""
    d, r = 4, 2
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint.zeros(r, d)
    failures = 0
    gn = grad(objective(p, T)).norm()
    if not gn <= 1e-10:
        failures += 1
    curv = _nan_max([abs(v.inner(hvp(p, v, T)))
                     for v in _random_units(r, d, rng, 5)], 0.0)
    if not curv <= 1e-8:
        failures += 1
    lam = default_lambda(r)
    _, deltas = sample_missing_directions(subspace_split(p, SIGMA),
                                          ((2, 2, 2),), rng, attempts)
    # the escape's own rule at the zero point, the exact step of each draw
    improved = int(np.count_nonzero(
        sign_flip_search(p, T, deltas, lam).improvements > 0.0))
    # core and factor moves share the same unit vectors, so the fully
    # sampled step keeps the point exactly balanced
    reg_drift = _nan_max([reg(p._like(p.flat + t * delta))
                          for delta in deltas[0, :5] for t in (0.1, 1.0)])
    if not reg_drift <= 1e-20:
        failures += 1
    if improved < 0.3 * attempts:
        failures += 1
    return _report("origin-flat-saddle", attempts + 2, failures,
                   0.3 - improved / attempts, 1e-8, grad_norm=gn,
                   curvature=curv, improved_fraction=improved / attempts,
                   regularizer_drift=reg_drift)


def _unit_step_losses(p, T, Z):
    """The fitting loss |S(A, B, C) - T|^2 at p + 1e-2 z / |z| for each row
    z of Z and a rank-1 point p, in one batched pass.  Each equals
    objective(p + 1e-2 q, T, 0.0).f, q = z / |z| as `_random_units` builds
    it, bit for bit: the dots are per-row `matmul`s, the kernel of the
    point's and the objective's dots, and at r = 1 each transform entry is
    the one product a_i (b_j (s c_k)) that `objective`'s mode products form.
    """
    n, d = len(Z), p.d
    norms = np.sqrt(Z[:, None, :] @ Z[:, :, None]).ravel()
    flats = p.flat + 1e-2 * ((1.0 / norms)[:, None] * Z)
    s = flats[:, :1]
    a, b, c = flats[:, 1:].reshape(n, 3, d).transpose(1, 0, 2)
    X = a[:, :, None, None] * (b[:, :, None] * (s * c)[:, None, :])[:, None]
    D = (X - T).reshape(n, d ** 3)
    return (D[:, None, :] @ D[:, :, None]).ravel()


def gallery_unregularized_counterexample(rng, directions: int = 1000
                                         ) -> LemmaReport:
    """Without the regularizer there is a spurious stationary point: zero
    core with factor rows orthogonal to a rank-one target.  The fit term
    alone cannot improve locally, while any positive weight on the
    regularizer certifies a gradient of size 4*lam*R over the point norm.
    """
    d = 3
    T = np.zeros((d, d, d))
    T[0, 0, 0] = 1.0
    row = np.zeros((1, d))
    row[0, 1] = 1.0
    p = FactorPoint(np.zeros((1, 1, 1)), row, row.copy(), row.copy())
    failures = 0
    gl_norm = grad_loss(p, T).norm()
    if not gl_norm <= 1e-10:
        failures += 1
    f_loss = objective(p, T, 0.0).f
    # random_point(1, d) draws S, A, B and C in flat order, so one draw of
    # all the directions is the stream of `_random_units(1, d, rng, ...)`
    Z = rng.standard_normal((directions, 1 + 3 * d))
    worst_dip = _nan_max(f_loss - _unit_step_losses(p, T, Z), 0.0)
    if not worst_dip <= 1e-12:
        failures += 1
    # independent regularizer value: zero core makes the defect the sum
    # of squared factor Gram norms
    R_direct = float(sum(np.sum((M @ M.T) ** 2) for M in (p.A, p.B, p.C))
                     ** 2)
    if not abs(reg(p) - R_direct) <= 1e-12 * (1.0 + R_direct):
        failures += 1
    lam = 1.0 / 16.0
    lower = 4.0 * lam * R_direct / p.norm()
    gf_norm = grad(objective(p, T, lam)).norm()
    if not gf_norm >= lower - 1e-10:
        failures += 1
    return _report("unregularized-counterexample", directions + 3, failures,
                   worst_dip - 1e-12, 1e-12, loss_grad_norm=gl_norm,
                   full_grad_norm=gf_norm, gradient_lower_bound=lower,
                   regularizer_value=R_direct)


def gallery_one_missing() -> LemmaReport:
    """One new factor direction suffices: a second-order saddle whose
    escape improves the objective quadratically in the step size."""
    theta = 0.3
    S = np.zeros((3, 3, 3))
    S[0, 0, 0] = 1.0
    S[0, 1, 1] = 1.0
    A = np.zeros((3, 3))
    A[0, 0] = math.sqrt(2.0)
    B = np.zeros((3, 3))
    B[0, 0] = 1.0
    B[1, 1] = 1.0
    p = FactorPoint(S, A, B, B.copy())
    T = multilinear_transform(S, A, B, B)
    T[2, 0, 1] += theta
    dS = np.zeros((3, 3, 3))
    dS[1, 0, 1] = 1.0
    dA = np.zeros((3, 3))
    dA[1, 2] = 1.0
    direction = FactorPoint(dS, dA, np.zeros((3, 3)), np.zeros((3, 3)))
    return _gallery_slope_report("one-missing-direction", p, T, direction,
                                 expected=2.0)


def gallery_two_missing() -> LemmaReport:
    """Two modes missing the residual direction: improvement is cubic in
    the step, so neither gradient nor curvature sees it."""
    theta = 0.3
    S = np.zeros((2, 2, 2))
    S[0, 0, 0] = 1.0
    row = np.zeros((2, 3))
    row[0, 0] = 1.0
    p = FactorPoint(S, row, row.copy(), row.copy())
    T = multilinear_transform(S, row, row, row)
    T[1, 1, 0] += theta
    dS = np.zeros((2, 2, 2))
    dS[1, 1, 0] = 1.0
    dA = np.zeros((2, 3))
    dA[1, 1] = 1.0
    direction = FactorPoint(dS, dA, dA.copy(), np.zeros((2, 3)))
    return _gallery_slope_report("two-missing-direction", p, T, direction,
                                 expected=3.0)


def gallery_three_missing(rng) -> LemmaReport:
    """All three modes missing: the origin against a unit target improves
    quartically along a fully sampled rank-one update."""
    d, r = 4, 2
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint.zeros(r, d)
    # along the direction R stays 0 and f falls by 2 t^4 T(a, b, c) - t^8,
    # so every step gains only if |T(a, b, c)| > t^4 / 2 at the largest
    # step t; (a, b, c) is drawn again until |T(a, b, c)| >= t^4 there,
    # where the octic term is at most half the quartic one and the fitted
    # slope is at least 3.88, inside the check's bound of 4 +- 0.5
    floor = _slope_eps()[-1] ** 4
    while True:
        a, b, c = (_unit_rows(rng, 1, d)[0] for _ in range(3))
        tau = trilinear(T, a, b, c)
        if abs(tau) >= floor:
            break
    if tau < 0:
        a = -a
    dS = np.zeros((r, r, r))
    dS[0, 0, 0] = 1.0
    direction = FactorPoint(dS, np.outer(np.eye(r)[0], a),
                            np.outer(np.eye(r)[0], b),
                            np.outer(np.eye(r)[0], c))
    return _gallery_slope_report("three-missing-direction", p, T, direction,
                                 expected=4.0)


def _gallery_slope_report(name, p, T, direction, expected) -> LemmaReport:
    failures = 0
    gn = grad(objective(p, T)).norm()
    if not gn <= 1e-10:
        failures += 1
    R0 = reg(p)
    if not R0 <= 1e-20:
        failures += 1
    eps = _slope_eps()
    gains = _improvements(p, direction, T, eps)
    if not all(g > 0 for g in gains):
        failures += 1
    slope = _fit_slope(eps, gains)
    if not math.isfinite(slope) or abs(slope - expected) > 0.5:
        failures += 1
    return _report(name, len(eps) + 2, failures, abs(slope - expected) - 0.5,
                   0.5, slope=slope, expected=expected, grad_norm=gn,
                   regularizer=R0)


def saddle_gallery(rng) -> list[LemmaReport]:
    """All canonical flat and spurious points with their expected escape
    behavior."""
    streams = rng.spawn(3)
    return [
        gallery_origin(streams[0]),
        gallery_unregularized_counterexample(streams[1]),
        gallery_one_missing(),
        gallery_two_missing(),
        gallery_three_missing(streams[2]),
    ]


# ---------------------------------------------------------------------------
# the suite

CHECKS = {
    "orthogonality": lambda rng: [check_orthogonality(rng)],
    "euler": lambda rng: [check_euler(rng)],
    "sublevel": lambda rng: [check_sublevel_bound(rng)],
    "core-lower-bound": lambda rng: [check_core_lower_bound(rng)],
    "submultiplicativity": lambda rng: [check_submultiplicativity(rng)],
    "wedin": lambda rng: [check_wedin(rng)],
    "anti-concentration": lambda rng: [check_anti_concentration(rng)],
    "saddle-gallery": saddle_gallery,
}


def suite_streams(seed: int = 0, names=None) -> dict:
    """The named checks (all by default), in the order named, each with
    its own seeded stream, so single-check runs reproduce the full-suite
    results: {name: generator}.  An empty selection, a repeated name, an
    unknown one or a negative seed is a ValueError."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; "
                         f"available: {sorted(CHECKS)}")
    if not names:
        raise ValueError(f"no checks selected; available: {sorted(CHECKS)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"checks selected more than once: {repeated}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    root = np.random.SeedSequence(seed)
    streams = {name: np.random.default_rng(s)
               for name, s in zip(CHECKS, root.spawn(len(CHECKS)))}
    return {name: streams[name] for name in names}


def run_suite(seed: int = 0, names=None) -> list[LemmaReport]:
    """Run the named checks (all by default) one after another on the
    streams of `suite_streams`, which also checks the selection."""
    reports = []
    for name, rng in suite_streams(seed, names).items():
        reports.extend(CHECKS[name](rng))
    return reports


def suite_to_json(reports: list[LemmaReport]) -> str:
    payload = {
        "all_passed": all(r.passed for r in reports),
        "reports": [r.to_json_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

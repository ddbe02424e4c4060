"""Local search driver.

The driver alternates two stages until the objective reaches the target,
no direction helps, or the gradient-evaluation budget runs out:

  1. descend to an approximate second-order stationary point with
     backtracking gradient descent, exploiting negative curvature found by
     power iteration on a shifted Hessian-vector product;
  2. at the stationary point, propose escape directions: the sampled
     rank-one block updates, the deterministic core fix, and removal of
     off-span factor mass; accept the best if it improves enough.

Stage 1 handles first and second order saddles, stage 2 the flat third and
fourth order ones that gradient information cannot see.

Budget accounting: one `Evaluator` holds the target, lambda and the
counters, and each of its methods charges its own cost: a gradient 1, a
Hessian-vector product 2 (a gradient difference), the Gram gaps of a
rebalance move 1 (the content of the regularizer gradient).  Objective
values, the sign search's included, are counted but not charged.  No
curvature probe starts that the budget cannot pay for, so a run never
spends past its budget.

`run` uses the fixed thresholds of SearchConfig.  `schedule` gives the
paper's threshold cascade, which ties every tolerance to a norm bound; it
is kept as a statement of the theory, not used by `run`, because it is
infeasible at every realistic size.
"""
from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .escape import (NoDirection, NoMissingDirection, build_sampled_direction,
                     core_fix_direction, delta_grid,
                     remove_extraneous_direction, sample_missing_directions,
                     sign_flip_search)
from .objective import (ObjectiveReport, _gram_gaps, default_lambda, grad,
                        hvp, objective)
from .subspace import subspace_split
from .tensor_core import FactorPoint, _transform, hosvd, random_point

SAMPLED_BLOCKS = ((1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 1, 2),
                  (2, 2, 1), (2, 2, 2))


class ScheduleError(Exception):
    """No feasible schedule parameter exists in floating point."""


class NonFiniteError(Exception):
    """The objective or gradient became non-finite; carries the trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


# ---------------------------------------------------------------------------
# parameter schedule


@dataclass(frozen=True)
class Thresholds:
    """Scale cascade tying every tolerance to the regularizer bound tau.

    gamma grows like tau^(1/48); sigma = kappa0 = sqrt(gamma) is the
    singular-value split threshold; kappa1..3 bound residual blocks with
    one, two and three missing modes; tau1 and tau2 are the stationarity
    tolerances; epsilon is the target objective value.
    """
    epsilon: float
    r: int
    d: int
    k_bound: float
    lam: float
    tau: float
    gamma: float
    sigma: float
    kappa0: float
    kappa1: float
    kappa2: float
    kappa3: float
    tau1: float
    tau2: float

    def __post_init__(self):
        vals = (self.epsilon, self.k_bound, self.lam, self.tau, self.gamma,
                self.sigma, self.kappa0, self.kappa1, self.kappa2,
                self.kappa3, self.tau1, self.tau2)
        if not all(v > 0 for v in vals):
            raise ValueError("all thresholds must be positive")
        K = self.k_bound
        checks = {
            "lam": (self.lam, 1.0 / (16.0 * self.r**4)),
            "sigma": (self.sigma, math.sqrt(self.gamma)),
            "kappa0": (self.kappa0, math.sqrt(self.gamma)),
            "kappa1": (self.kappa1, 2.0 * K * self.sigma**0.75),
            "kappa2": (self.kappa2, 2.0 * K * self.sigma**0.125),
            "kappa3": (self.kappa3, 2.0 * K * self.sigma**0.5),
        }
        for name, (got, want) in checks.items():
            if not math.isclose(got, want, rel_tol=1e-12):
                raise ValueError(f"schedule inconsistency: {name}={got} "
                                 f"but the formulas give {want}")
        if not (self.kappa2 > self.kappa3 > self.kappa1):
            raise ValueError(
                "schedule inconsistency: the block bounds must be ordered "
                "kappa2 > kappa3 > kappa1, which requires sigma < 1")


def schedule(epsilon: float, r: int, d: int,
             k_bound: float = 1.0) -> Thresholds:
    """Largest regularizer bound tau on a geometric grid whose induced
    cascade keeps every residual block below sqrt(epsilon)/4.

    Raises ScheduleError when no tau above the floating-point floor works;
    `run` uses the fixed practical thresholds of SearchConfig in any
    case.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if r < 1 or d < r:
        raise ValueError(f"need 1 <= r <= d, got r={r} d={d}")
    K = float(k_bound)
    lam = default_lambda(r)
    target = math.sqrt(epsilon) / 4.0
    for k in range(2, 1200):
        tau = 10.0 ** (-k / 4.0)
        g2 = max(r * (tau ** (1 / 24) + tau ** 0.25),
                 r**4 * (4.0 * K**6 * tau ** 0.125 + K**4 * tau ** 0.375))
        gamma = math.sqrt(g2)
        if gamma >= 1.0:
            continue
        sigma = math.sqrt(gamma)
        kappa1 = 2.0 * K * sigma**0.75
        kappa2 = 2.0 * K * sigma**0.125
        kappa3 = 2.0 * K * sigma**0.5
        feasible = (sigma < target
                    and d * kappa1 + K**3 * sigma < target
                    and d * kappa2 + K**2 * sigma**2 < target
                    and d * kappa3 + K * sigma**3 < target
                    and tau < epsilon / 2.0)
        if feasible:
            return Thresholds(epsilon=epsilon, r=r, d=d, k_bound=K, lam=lam,
                              tau=tau, gamma=gamma, sigma=sigma, kappa0=sigma,
                              kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
                              tau1=4.0 * lam * tau / K,
                              tau2=sigma ** 3.75)
    raise ScheduleError(
        "no feasible tau above the floating-point floor for "
        f"epsilon={epsilon}, r={r}, d={d}, k_bound={k_bound}; "
        "use the fixed practical thresholds tau1, tau2 and sigma of "
        "SearchConfig instead")


# ---------------------------------------------------------------------------
# configuration and trace


@dataclass
class SearchConfig:
    """Knobs for one run, with fixed practical thresholds.  No round
    limit is needed: every round charges at least one gradient evaluation,
    so the budget bounds the rounds."""
    r: int
    epsilon: float = 1e-4
    lam: float | None = None
    seed: int = 0
    budget: int = 50_000
    samples_per_block: int | None = None
    sigma: float = 0.05
    tau1: float = 1e-6
    tau2: float = 1e-4
    min_improvement: float = 1e-10
    delta_span: float = 100.0
    delta_points: int = 13
    init: str = "zero"
    sosp_eval_cap: int = 3000

    def validate(self) -> None:
        """Reject what a run cannot use: a count that is not an integer, a
        number that is not finite, a value out of range, a bad init."""
        for name, low in (("r", 1), ("seed", 0), ("budget", 1),
                          ("sosp_eval_cap", 1), ("delta_points", 1),
                          ("samples_per_block", 1)):
            v = getattr(self, name)
            if v is None and name == "samples_per_block":
                continue
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < low:
                raise ValueError(f"{name} must be at least {low}, got {v}")
        for name in ("lam", "epsilon", "sigma", "tau1", "tau2",
                     "min_improvement", "delta_span"):
            v = getattr(self, name)
            if v is None and name == "lam":
                continue
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            if v <= 0 and name != "lam":
                raise ValueError(f"{name} must be positive, got {v}")
        if self.lam is not None and self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if self.epsilon >= 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        _parse_init(self.init)

    def resolved_samples_per_block(self) -> int:
        if self.samples_per_block is not None:
            return int(self.samples_per_block)
        return min(math.ceil(8.0 * math.log(1.0 / self.epsilon)), 6)


def _parse_init(spec: str):
    if spec in ("zero", "hosvd"):
        return spec, None
    if isinstance(spec, str) and spec.startswith("random:"):
        try:
            scale = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad init spec {spec!r}") from None
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"init scale must be positive and finite, "
                             f"got {scale}")
        return "random", scale
    raise ValueError(f"init must be zero, hosvd or random:<scale>, got {spec!r}")


@dataclass
class TraceRecord:
    """One accepted step.  step_kind is init, gradient, negative-curvature,
    rebalance, sampled(i,j,k), core-fix or remove-extraneous."""
    iteration: int
    f: float
    L: float
    R: float
    grad_norm: float | None
    min_curvature: float | None
    step_kind: str
    step_size: float
    improvement: float
    seed: int
    wall_time: float

    def to_json_dict(self) -> dict:
        # wall time stays out of the serialized record so that traces from
        # identical (config, seed) runs are byte-identical
        out = asdict(self)
        del out["wall_time"]
        return out


@dataclass
class SearchTrace:
    seed: int
    records: list[TraceRecord] = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)

    def append(self, f: float, L: float, R: float, step_kind: str,
               step_size: float, improvement: float,
               grad_norm: float | None = None,
               min_curvature: float | None = None) -> TraceRecord:
        if self.records:
            prev = self.records[-1].f
            if f > prev + 1e-12 * (1.0 + abs(prev)):
                raise AssertionError(
                    f"objective increased along accepted steps: {prev} -> {f}")
        rec = TraceRecord(iteration=len(self.records), f=float(f), L=float(L),
                          R=float(R), grad_norm=grad_norm,
                          min_curvature=min_curvature, step_kind=step_kind,
                          step_size=float(step_size),
                          improvement=float(improvement), seed=self.seed,
                          wall_time=time.perf_counter() - self.started_at)
        self.records.append(rec)
        return rec

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec.to_json_dict(), sort_keys=True))
                fh.write("\n")


class Evaluator:
    """The target, lambda and counters of one search; each method charges
    its own cost (see the module docstring)."""

    def __init__(self, T: np.ndarray, lam: float, limit: int):
        self.T = T
        self.lam = lam
        self.limit = int(limit)
        self.used = 0
        self.objective_evals = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def affords(self, cost: int) -> bool:
        return self.used + cost <= self.limit

    def objective(self, p: FactorPoint) -> ObjectiveReport:
        self.objective_evals += 1
        return objective(p, self.T, self.lam)

    def grad(self, p: FactorPoint) -> FactorPoint:
        self.used += 1
        return grad(p, self.T, self.lam)

    def hvp(self, p: FactorPoint, v: FactorPoint) -> FactorPoint:
        self.used += 2
        return hvp(p, v, self.T, self.lam)

    def gram_gaps(self, p: FactorPoint) -> np.ndarray:
        self.used += 1
        return _gram_gaps(p)

    def sign_search(self, p: FactorPoint, direction, grid):
        cand = sign_flip_search(p, self.T, direction, grid, self.lam)
        self.objective_evals += cand.evals
        return cand


# ---------------------------------------------------------------------------
# stationary point finding


def _apply_balance(p: FactorPoint, eta: float, eigs) -> FactorPoint:
    """Move along the loss-preserving symmetry orbit: each factor shrinks by
    exp(-eta G_m) where its Gram matrix exceeds the core's, and the core
    absorbs the inverse, so the reconstructed tensor is unchanged while the
    balance defect decreases.  `eigs` holds the (w, V) eigendecomposition
    of each Gram gap G_m."""
    shrink = []
    grow = []
    for w, V in eigs:
        shrink.append((V * np.exp(-eta * w)) @ V.T)
        grow.append((V * np.exp(eta * w)) @ V.T)
    S = _transform(p.S, grow[0], grow[1], grow[2])[2]
    return FactorPoint(S, shrink[0] @ p.A, shrink[1] @ p.B, shrink[2] @ p.C)


def _rebalance_once(p: FactorPoint, f0: float, ev: Evaluator):
    """One line-searched orbit move; returns (point, report, eta) or None."""
    gaps = ev.gram_gaps(p)
    scale = max(float(np.abs(G).max()) for G in gaps)
    if scale <= 1e-15 * (1.0 + p.norm() ** 2):
        return None
    eta = 1.0 / (1.0 + scale)
    eigs = [np.linalg.eigh(G) for G in gaps]
    for _ in range(12):
        cand = _apply_balance(p, eta, eigs)
        rep = ev.objective(cand)
        if math.isfinite(rep.f) and rep.f < f0 - 1e-12 * (1.0 + abs(f0)):
            return cand, rep, eta
        eta *= 0.5
    return None


@dataclass(frozen=True)
class FindSospInfo:
    converged: bool
    report: ObjectiveReport
    grad_norm: float | None
    min_curvature: float | None

    @property
    def f(self) -> float:
        return self.report.f


def _require_finite(value: float, what: str, trace=None) -> None:
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} became non-finite", trace=trace)


def _negative_curvature(p: FactorPoint, tau2: float, iters: int,
                        restarts: int, rng: np.random.Generator,
                        ev: Evaluator):
    """Power iteration on (c I - H); returns (direction or None, rayleigh).
    c is a conservative shift above ||H|| estimated from a few product
    probes.  A probe the budget cannot pay for ends the search with an
    infinite Rayleigh quotient: nothing was measured."""
    r, d = p.r, p.d
    hnorm = 0.0
    q = random_point(r, d, rng)
    q = (1.0 / q.norm()) * q
    for _ in range(3):
        if not ev.affords(2):
            return None, math.inf
        Hq = ev.hvp(p, q)
        n = Hq.norm()
        hnorm = max(hnorm, n)
        if n <= 1e-14:
            break
        q = (1.0 / n) * Hq
    c = 2.0 * hnorm + tau2
    best_rho = math.inf
    best_dir = None
    for _ in range(restarts):
        v = random_point(r, d, rng)
        v = (1.0 / v.norm()) * v
        for _ in range(iters):
            if not ev.affords(2):
                return None, math.inf
            Hv = ev.hvp(p, v)
            w = c * v - Hv
            nw = w.norm()
            if nw <= 1e-300:
                break
            v = (1.0 / nw) * w
        if not ev.affords(2):
            return None, math.inf
        Hv = ev.hvp(p, v)
        rho = v.inner(Hv)
        _require_finite(rho, "curvature estimate")
        if rho < best_rho:
            best_rho = rho
            best_dir = v
        if best_rho <= -tau2 / 2.0:
            return best_dir, best_rho
    return None, best_rho


def _line_search(p, direction, f0, ev, init_step=1.0,
                 slope: float | None = None, shrink=0.5, max_backtracks=40):
    """Backtrack from init_step until sufficient decrease; returns
    (point, report, step) or None.  With a slope (for gradient steps) the
    Armijo rule applies; otherwise any strict decrease wins."""
    step = init_step
    for _ in range(max_backtracks):
        cand = p + step * direction
        rep = ev.objective(cand)
        fc = rep.f
        if math.isfinite(fc):
            if slope is not None:
                if fc <= f0 - 1e-4 * step * slope:
                    return cand, rep, step
            elif fc < f0 - 1e-12 * (1.0 + abs(f0)):
                return cand, rep, step
        step *= shrink
    return None


def _find_sosp(p: FactorPoint, budget: Evaluator, tau1: float, tau2: float,
               rng: np.random.Generator, rep: ObjectiveReport,
               trace: SearchTrace, eval_cap: float = math.inf,
               nc_iters: int = 25, nc_restarts: int = 2):
    """Descend from p, whose finite objective report the caller passes as
    rep, recording each accepted step in trace.  Returns (point,
    FindSospInfo) with the final point's report.  (`budget` keeps its name:
    the benchmark's tracer reads `budget.exhausted` to classify the stop.)"""
    start_used = budget.used
    step_hint = 1.0
    gn = None
    min_curv = None
    while True:
        if budget.exhausted or budget.used - start_used >= eval_cap:
            return p, FindSospInfo(False, rep, gn, min_curv)
        kind, hit, seen = "rebalance", None, {}
        # orbit moves only pay off once the regularizer carries a real
        # share of the objective; while the loss dominates, plain descent
        # handles both components
        if rep.f > 0.0 and budget.lam * rep.R >= 0.25 * rep.f:
            hit = _rebalance_once(p, rep.f, budget)
            if hit is None and budget.exhausted:
                return p, FindSospInfo(False, rep, gn, min_curv)
        if hit is None:
            g = budget.grad(p)
            gn = g.norm()
            _require_finite(gn, "gradient", trace)
            kind, seen = "gradient", {"grad_norm": gn}
            if gn > tau1:
                hit = _line_search(p, -1.0 * g, rep.f, budget,
                                   init_step=2.0 * step_hint, slope=gn * gn)
            if hit is not None:
                step_hint = hit[2]
        if hit is None:
            # the gradient is small, or the line search cannot realize the
            # descent it promises: probe the curvature
            direction, rho = _negative_curvature(p, tau2, nc_iters,
                                                 nc_restarts, rng, budget)
            if direction is None:
                if not math.isfinite(rho):
                    # the budget died before a Rayleigh quotient came back
                    return p, FindSospInfo(False, rep, gn, None)
                return p, FindSospInfo(True, rep, gn, rho)
            min_curv = rho if min_curv is None else min(min_curv, rho)
            kind = "negative-curvature"
            seen = {"grad_norm": gn, "min_curvature": rho}
            scale = max(2.0 * abs(rho), 1e-3)
            for signed in (direction, -1.0 * direction):
                cand = _line_search(p, signed, rep.f, budget,
                                    init_step=scale, max_backtracks=25)
                if cand is not None and (hit is None
                                         or cand[1].f < hit[1].f):
                    hit = cand
            if hit is None:
                # curvature below -tau2/2 that no step can realize at this
                # floating-point scale: accept the point as stationary
                return p, FindSospInfo(True, rep, gn, rho)
        prev_f = rep.f
        p, rep, step = hit
        trace.append(f=rep.f, L=rep.L, R=rep.R, step_kind=kind,
                     step_size=step, improvement=prev_f - rep.f, **seen)


def find_sosp(p0: FactorPoint, T: np.ndarray, lam: float | None = None,
              tau1: float = 1e-6, tau2: float = 1e-4, budget: int = 10_000,
              seed: int = 0):
    """Descend from p0 to a point with gradient norm <= tau1 and estimated
    smallest Hessian eigenvalue >= -tau2.

    Returns (point, FindSospInfo); info.converged is False when the budget
    ran out first.
    """
    if lam is None:
        lam = default_lambda(p0.r)
    ev = Evaluator(T, lam, budget)
    rep = ev.objective(p0)
    _require_finite(rep.f, "objective")
    return _find_sosp(p0, ev, tau1, tau2, np.random.default_rng(seed), rep,
                      SearchTrace(seed=seed))


# ---------------------------------------------------------------------------
# the full driver


@dataclass
class RunResult:
    point: FactorPoint
    trace: SearchTrace
    status: str
    f: float
    L: float
    R: float
    grad_evals: int
    objective_evals: int
    rounds: int
    wall_time: float


def _deterministic_candidates(p, splits, ev):
    """Core-fix and remove-extraneous directions with their own step grid;
    a unit step is always included because both are exact at step 1 in the
    clean regime."""
    grid = np.geomspace(1e-4, 1.0, 17)
    out = []
    try:
        out.append(ev.sign_search(p, core_fix_direction(p, ev.T, splits),
                                  grid))
    except NoDirection:
        pass
    for mode in (1, 2, 3):
        try:
            direction = remove_extraneous_direction(p, splits, mode)
            out.append(ev.sign_search(p, direction, grid))
        except NoDirection:
            pass
    return out


def run(T: np.ndarray, config: SearchConfig) -> RunResult:
    """Full local search on target T.  Returns the final point, the trace
    and the termination status: converged (f <= epsilon), no_direction
    (stationary and nothing improves), or budget."""
    t_start = time.perf_counter()
    config.validate()
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or len(set(T.shape)) != 1:
        raise ValueError(f"target must be a d x d x d tensor, got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("target contains non-finite entries")
    d = T.shape[0]
    r = config.r
    if r > d:
        raise ValueError(f"rank {r} exceeds dimension {d}")
    lam = config.lam if config.lam is not None else default_lambda(r)

    sigma = config.sigma
    samples = config.resolved_samples_per_block()

    seeds = np.random.SeedSequence(config.seed).spawn(3)
    rng_init = np.random.default_rng(seeds[0])
    rng_sosp = np.random.default_rng(seeds[1])
    rng_sampler = np.random.default_rng(seeds[2])

    kind, scale = _parse_init(config.init)
    if kind == "zero":
        p = FactorPoint.zeros(r, d)
    elif kind == "hosvd":
        p = hosvd(T, r)
    else:
        p = random_point(r, d, rng_init, scale=scale)

    ev = Evaluator(T, lam, config.budget)
    trace = SearchTrace(seed=config.seed)
    rep = ev.objective(p)
    _require_finite(rep.f, "objective", trace)
    trace.append(f=rep.f, L=rep.L, R=rep.R, step_kind="init", step_size=0.0,
                 improvement=0.0)

    status = "converged" if rep.f <= config.epsilon else None
    rounds = 0
    while status is None:
        rounds += 1
        p, info = _find_sosp(p, ev, config.tau1, config.tau2, rng_sosp, rep,
                             trace, eval_cap=config.sosp_eval_cap)
        rep = info.report
        if rep.f <= config.epsilon:
            status = "converged"
            break
        if ev.exhausted:
            status = "budget"
            break

        splits = subspace_split(p, T, sigma)
        best = None
        for cand in _deterministic_candidates(p, splits, ev):
            if best is None or cand.improvement > best.improvement:
                best = cand
        for ijk in SAMPLED_BLOCKS:
            n_missing = sum(1 for x in ijk if x == 2)
            grid = delta_grid(sigma, n_missing, config.delta_span,
                              config.delta_points)
            for _ in range(samples):
                try:
                    vec = sample_missing_directions(splits, ijk, rng_sampler)
                except NoMissingDirection:
                    break
                cand = ev.sign_search(p, build_sampled_direction(vec, sigma),
                                      grid)
                if best is None or cand.improvement > best.improvement:
                    best = cand

        if best is not None and best.improvement >= config.min_improvement:
            p = best.apply(p)
            rep = ev.objective(p)
            _require_finite(rep.f, "objective", trace)
            trace.append(f=rep.f, L=rep.L, R=rep.R,
                         step_kind=best.direction.kind, step_size=best.step,
                         improvement=best.improvement,
                         grad_norm=info.grad_norm,
                         min_curvature=info.min_curvature)
            if rep.f <= config.epsilon:
                status = "converged"
        elif info.converged:
            status = "no_direction"
        elif ev.exhausted:
            status = "budget"
        # otherwise: descent had not finished, go around again

    return RunResult(point=p, trace=trace, status=status, f=rep.f, L=rep.L,
                     R=rep.R, grad_evals=ev.used,
                     objective_evals=ev.objective_evals, rounds=rounds,
                     wall_time=time.perf_counter() - t_start)

"""Local search driver.

`run` checks its input, solves on the unit-norm target and hands the
start to `_find_sosp`, the one search loop.  It descends, handles each
stop itself, and has three exits: f reaches the target (converged), the
gradient-evaluation budget runs out (budget), or a stop at a gradient norm
of at most STALL_GRAD whose point takes no escape step and which a
curvature probe certifies stationary (no_direction).

  1. The descent line-searches L-BFGS directions, built from the last
     LBFGS_MEMORY (s, y) pairs between gradient points, halving the step
     up to 40 times and then while the trial still moves the point, as
     every line search does.  It stops when the gradient norm is at
     most TAU1 sqrt(f) (relative to f, so that a flat exact target
     descends on below f = 1e-12), at a stall: f has fallen by no more
     than STALL_TOL f over the last STALL_WINDOW accepted steps at a
     gradient norm of at most STALL_GRAD, or when its line search finds
     no step.  A stop probes nothing yet.
     While the descent crawls, with f fallen by no more than SLOW_TOL f
     over the last STALL_WINDOW accepted steps and at least one pair in
     the memory (a slow window), it scores the escape round of stage 2
     at its point first: a step taken is recorded and the descent starts
     afresh from it, memory cleared; after none it goes on from the same
     gradient and memory, and its next slow window waits twice as many
     accepted steps (5, 10, 20, ...), until a step is taken;
  2. at a stop, the escape round proposes the sampled rank-one block
     updates of every label in SAMPLED_BLOCKS and takes the best if it
     improves enough; it is one pass over the labels, with one split,
     one sampler call and one sign search of every label's draws.  At
     the zero point, where f along a draw t d is a quadratic in t^4
     (see `escape`), that search takes each draw's exact best step in
     closed form.  Only when no escape step is taken does a Lanczos
     probe of at most LANCZOS_STEPS Hessian-vector products look for
     negative curvature there, from the same report: a direction,
     signed against the gradient, is line-searched once; none certifies
     the point stationary.  The step either takes starts a new descent
     (a round), memory cleared.

A gradient line search fails only where no representable step lowers f
(the halving floor), so it is a stop like the others.  The escape is
scored from the exact expansion of f and charges no gradient evaluation,
while a probe costs 2 to 2 LANCZOS_STEPS, so the cheaper test goes
first.  Stage 1 handles first
order saddles, the probe second order ones, and the escape round the flat
third and fourth order ones that gradient information cannot see, so the
escape draws only labels with two or three missing modes.  On the zero
start, where every derivative vanishes, the escape round follows the
first gradient and no probe is paid for.

The L-BFGS recursion starts from H0 = gamma P^-1, after scaled gradient
descent for Tucker (Tong, Ma and Chi, arXiv:2104.14526): P is the damped
block-diagonal Gauss-Newton matrix of the fitting term (`_gn_inverse`),
so each factor and the core take a step scaled to their own curvature
rather than one scalar step for all.

The tuned constants, each chosen from a sweep in the README's "Tuning"
section:

  GN_DAMPING = 4e-2   the lowest total over five check sets;
  SLOW_TOL = 1e-2     fewer gradient evaluations up to it, no more wall
                      time, and more objective values (as the sign
                      search's candidates were then counted) beyond it;
  STALL_WINDOW = 5    shorter windows leave noisy runs further above
                      their floor;
  STALL_GRAD = 1e-2   keeps a crawl far from any stationary point, as at
                      lambda = 0, from being handed on, and no stall on
                      the check sets comes near it.

Budget accounting: one `Evaluator` holds the target, lambda and the
counters, and each of its methods charges its own cost: a gradient 1, a
Hessian-vector product 2 (a gradient difference), the Gram gaps of a
rebalance move 1 (the content of the regularizer gradient).  It is also
the only counter of objective values, which are counted but not charged:
its `objective` counts 1 and its Hessian-vector product 2, for the two
`objective` calls of the gradient difference, so `objective_evals` is
the number of `objective` calls a run makes.  The sign search's
candidates are values of f's polynomial along each draw, or at the zero
point its closed form, and a rebalance trial is scored from its Gram
gaps alone; none is an `objective` call.  Each
point is evaluated once: its `ObjectiveReport` keeps the point, the fit
stages, the factor Grams and the Gram gaps, and it is the search's only
state of the point.  The gradient at the point, the preconditioner of
its L-BFGS direction, and each step source (a line search, a rebalance
move, the escape round and a curvature step) start from that report, so
they form neither again and a sign search makes no `objective` call of
its own.  Every step source returns its step as (kind, report, size,
gain), the fields of its trace record, with the report of the point it
steps to, or None where it finds no step.  No point takes a second
gradient.  After a slow window's escape round finds
nothing, the descent steps on from the gradient it has; where that line
search fails, the stop scores a second escape round at the same point,
with fresh draws.  After a stop's round finds nothing, the search either
steps along negative curvature to a new point or ends.  No curvature
probe starts that the budget cannot pay for, so a run never spends past
its budget; a probe the budget cuts short ends the run with status
budget.

An escape step is taken on its predicted gain, the sign search's, only
if the evaluated f does not rise by more than the trace allows; the
expansion's rounding can exceed a gain near MIN_IMPROVEMENT, and a
refused step ends the round as if nothing had gained enough.

The search is scale-free.  `run` solves on T / |T| and scales each block
of the point it returns by c = |T|^(1/4): S(A, B, C) scales by |T|, the
point stays balanced, and f(c p; T) = |T|^2 f(p; T / |T|) with the same
lambda.  So every threshold above, the Hessian-vector product's step and
epsilon apply to the unit-norm problem, and a run converges when
f <= epsilon |T|^2.  Its starts are drawn for that problem: hosvd is
taken of T / |T|, and random:<scale> is relative to it.  f, L and R of
the result, and f, L, R and improvement of each trace record, are in the
target's units, so the trace and the summary agree; the trace's
grad_norm, min_curvature and step_size are those of the unit-norm
problem.  Scaling T by a power of two leaves T / |T| and so the whole
search unchanged, bit for bit; at |T| = 1.0 every rescaling is a
multiplication by 1.0.
"""
from __future__ import annotations

import json
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .escape import (SAMPLED_BLOCKS, SIGMA, sample_missing_directions,
                     sign_flip_search)
from .objective import (ObjectiveReport, _core_grams, _phi,
                        default_lambda, grad, hvp, objective)
from .subspace import subspace_split
from .tensor_core import FactorPoint, _transform, hosvd, random_point

# a descent whose f falls by no more than STALL_TOL * f over STALL_WINDOW
# accepted steps stops as on a small gradient and hands its point to the
# escape round, if its gradient norm is at most STALL_GRAD; one whose f
# falls by no more than SLOW_TOL * f scores an escape round and goes on
# (see the module docstring)
STALL_WINDOW = 5
STALL_TOL = 1e-6
STALL_GRAD = 1e-2
SLOW_TOL = 1e-2
# (s, y) pairs the L-BFGS direction keeps, the relative damping of its
# Gauss-Newton preconditioner, and Hessian-vector products a Lanczos
# curvature probe may take
LBFGS_MEMORY = 5
GN_DAMPING = 4e-2
LANCZOS_STEPS = 12
# draws per sampled block label in an escape round
SAMPLES_PER_BLOCK = 6
# fixed thresholds in place of the paper's cascade (the escape's split
# takes escape.SIGMA): the gradient tolerance of a stationary point,
# relative to sqrt(f) (a descent stops at a gradient norm of at most
# TAU1 sqrt(f)), its curvature tolerance, and the least gain an escape
# step must make
TAU1 = 1e-6
TAU2 = 1e-4
MIN_IMPROVEMENT = 1e-10
# the least epsilon a run accepts, of the unit-norm problem.  A fixed
# stop at a gradient norm of TAU1 ended 5 of 72 exact targets of six
# shapes in a misleading no_direction at f = 1.0e-12 to 1.8e-12 at
# epsilon = 1e-12; under the relative stop all 72 converge there, as at
# 1e-11 and 1e-10, and the floor keeps its margin at 1e-11
EPSILON_FLOOR = 1e-11


class NonFiniteError(Exception):
    """The objective or gradient became non-finite."""


# ---------------------------------------------------------------------------
# configuration and trace


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one run; the thresholds are the module's constants.
    epsilon is relative: a run converges when f <= epsilon |T|^2.  init is
    zero, hosvd or random:<scale>, the last with entries of standard
    deviation scale on the unit-norm problem the search solves.  No round
    limit is needed: every round charges at least one gradient evaluation,
    so the budget bounds the rounds.  A config is immutable and checks
    itself when made: a count that is not an integer, a number that is
    not finite, a value out of range (epsilon below EPSILON_FLOOR
    included) or a bad init is a ValueError."""
    r: int
    epsilon: float = 1e-4
    lam: float | None = None
    seed: int = 0
    budget: int = 50_000
    init: str = "zero"

    def __post_init__(self) -> None:
        for name, low in (("r", 1), ("seed", 0), ("budget", 1)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < low:
                raise ValueError(f"{name} must be at least {low}, got {v}")
        for name in ("lam", "epsilon"):
            v = getattr(self, name)
            if v is None and name == "lam":
                continue
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.lam is not None and self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if not EPSILON_FLOOR <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [{EPSILON_FLOOR:g}, 1), "
                             f"got {self.epsilon}")
        _parse_init(self.init)


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
    rebalance or sampled(i,j,k), with ijk a label of SAMPLED_BLOCKS.  The
    module docstring's last paragraph gives the units of the fields."""
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

    def to_json_dict(self) -> dict:
        # every field is a scalar, so a shallow copy of the fields
        # serializes as asdict would
        return dict(vars(self))


# json.dumps(..., sort_keys=True) builds an encoder per call; one shared
# encoder writes the same bytes
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def _rises(prev: float, f: float) -> bool:
    """f exceeds prev by more than the rounding a trace allows."""
    return f > prev + 1e-12 * (1.0 + abs(prev))


@dataclass
class SearchTrace:
    seed: int
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, rep: ObjectiveReport, step_kind: str, step_size: float,
               improvement: float, grad_norm: float | None = None,
               min_curvature: float | None = None) -> TraceRecord:
        """Record the step to the point of the report rep, with its f, L
        and R."""
        if self.records and _rises(self.records[-1].f, rep.f):
            raise AssertionError("objective increased along accepted "
                                 f"steps: {self.records[-1].f} -> {rep.f}")
        rec = TraceRecord(iteration=len(self.records), f=float(rep.f),
                          L=float(rep.L), R=float(rep.R), grad_norm=grad_norm,
                          min_curvature=min_curvature, step_kind=step_kind,
                          step_size=float(step_size),
                          improvement=float(improvement), seed=self.seed)
        self.records.append(rec)
        return rec

    def rescale(self, c: float) -> None:
        """Multiply the f, L, R and improvement of every record by c; a
        product that is not finite raises NonFiniteError."""
        for rec in self.records:
            rec.f, rec.L, rec.R, rec.improvement = values = (
                rec.f * c, rec.L * c, rec.R * c, rec.improvement * c)
            if not all(map(math.isfinite, values)):
                raise NonFiniteError("objective at the target's scale is "
                                     "not finite")

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(_RECORD_ENCODER.encode(rec.to_json_dict()))
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

    def grad(self, rep: ObjectiveReport) -> FactorPoint:
        self.used += 1
        return grad(rep)

    def hvp(self, p: FactorPoint, v: FactorPoint) -> FactorPoint:
        self.used += 2
        self.objective_evals += 2
        return hvp(p, v, self.T, self.lam)

    def gram_gaps(self, rep: ObjectiveReport) -> np.ndarray:
        self.used += 1
        return rep.gaps


# ---------------------------------------------------------------------------
# stationary point finding


def _apply_balance(p: FactorPoint, eta: float, w: np.ndarray, V: np.ndarray,
                   grams: np.ndarray):
    """One trial move along the loss-preserving symmetry orbit: each factor
    M_m shrinks to E_m M_m, E_m = exp(-eta G_m), and the core absorbs the
    inverses, so the reconstructed tensor is unchanged while the balance
    defect decreases.  (w, V) is the stacked eigendecomposition of the Gram
    gaps G_m and grams the factor Grams M_m M_m^T.  Returns (phi, E,
    core): the trial's balance defect, scored from E_m M_m M_m^T E_m and
    the core's Grams, the (3, r, r) stack E and the moved core.  The
    factor matrices are left to the caller, which forms them only for the
    trial it accepts."""
    e = np.exp(eta * np.stack((-w, w)))
    shrink, grow = (V * e[:, :, None, :]) @ V.transpose(0, 2, 1)
    core = _transform(p.S, grow[0], grow[1], grow[2])[2]
    gaps = shrink @ grams @ shrink - _core_grams(core)
    return _phi(gaps), shrink, core


def _rebalance_once(rep: ObjectiveReport, ev: Evaluator):
    """One line-searched orbit move from the point of the report rep;
    returns the step ("rebalance", report, eta, gain) or None.

    An orbit move leaves S(A, B, C), and so L, unchanged: each trial is
    scored as rep.L + lam R from its own Gram gaps, and only the accepted
    point is built and evaluated in full."""
    p, f0 = rep.point, rep.f
    gaps = ev.gram_gaps(rep)
    scale = max(float(np.abs(G).max()) for G in gaps)
    if scale <= 1e-15 * (1.0 + p.norm() ** 2):
        return None
    eta = 1.0 / (1.0 + scale)
    w, V = np.linalg.eigh(gaps)
    for _ in range(12):
        phi, shrink, core = _apply_balance(p, eta, w, V, rep.grams)
        fc = rep.L + ev.lam * (phi * phi)
        if math.isfinite(fc) and fc < f0 - 1e-12 * (1.0 + abs(f0)):
            cand = ev.objective(p._like(np.concatenate(
                (core.ravel(), (shrink @ p.factors).ravel()))))
            return "rebalance", cand, eta, f0 - cand.f
        eta *= 0.5
    return None


@dataclass(frozen=True)
class FindSospInfo:
    """How a search ended: converged only where a stop at a gradient norm
    of at most STALL_GRAD took no escape step and a curvature probe
    certified its point stationary; epsilon, the budget, or a stop above
    STALL_GRAD (a failed line search) that steps nowhere leave it False,
    and that last run ends budget with budget left.  rounds counts the
    descents started."""
    converged: bool
    rounds: int


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} became non-finite")


def _negative_curvature(p: FactorPoint, rng: np.random.Generator,
                        ev: Evaluator):
    """Lanczos on the Hessian from one random unit start, with full
    reorthogonalization; returns (unit Ritz direction or None, smallest
    Ritz value).

    The first two products are also the flat-Hessian probe: with
    4 |Hq| < TAU2 for both, the search stops there with no direction.
    The second start is the first one's image, so an eigenvalue that
    dominates H shows in it even where the random start barely meets its
    eigenvector.  The iteration stops once the smallest Ritz value theta
    is at most -TAU2/2 with residual beta |e_k.y| <= 0.1 |theta|, or once
    beta vanishes and the Ritz values are exact, and otherwise after
    LANCZOS_STEPS products; a direction comes back whenever
    theta <= -TAU2/2.  A product the
    budget cannot pay for ends the search with an infinite value: nothing
    was measured."""
    q = rng.standard_normal(p.flat.size)
    basis = [q / np.linalg.norm(q)]
    alphas, betas = [], []
    hnorm = 0.0
    for _ in range(LANCZOS_STEPS):
        if not ev.affords(2):
            return None, math.inf
        q = basis[-1]
        w = ev.hvp(p, p._like(q)).flat
        alpha = float(q @ w)
        _require_finite(alpha, "curvature estimate")
        hnorm = max(hnorm, float(np.linalg.norm(w)))
        alphas.append(alpha)
        # full reorthogonalization, in two passes; it also takes out the
        # alpha q and beta q_prev terms of the three-term recurrence
        Q = np.array(basis)
        for _ in range(2):
            w = w - Q.T @ (Q @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1)
                                    + np.diag(betas, -1))
        theta, y = float(ritz[0]), vecs[:, 0]
        if (beta <= 1e-10 * hnorm or (len(alphas) == 2 and 4.0 * hnorm < TAU2)
                or (theta <= -TAU2 / 2.0
                    and beta * abs(y[-1]) <= 0.1 * abs(theta))):
            break
        betas.append(beta)
        basis.append(w / beta)
    if theta > -TAU2 / 2.0:
        return None, theta
    v = y @ Q
    return p._like(v / np.linalg.norm(v)), theta


def _gn_inverse(rep: ObjectiveReport):
    """Inverses of the damped Gauss-Newton blocks of the fitting term at the
    point of the report rep, as a (6, r, r) stack: W_A, W_B, W_C, then
    G_A, G_B, G_C.

    G_m = M M^T is a factor's Gram matrix, which the report keeps, and
    W_m = S_(m) (G_k kron G_l) S_(m)^T, with k and l the other two modes,
    is the Gram matrix of the transform's mode-m unfolding without M.  The
    fitting term's
    Gauss-Newton matrix is 2 (W_m kron I_d) on factor m and
    2 G_A kron G_B kron G_C on the core.  Each block gets GN_DAMPING times
    its mean eigenvalue, tr / r, on its diagonal, plus 1e-12 of the
    largest such mean, which keeps a zero block invertible.  None when
    every block is zero, as at a point whose factors are all zero."""
    p = rep.point
    S, r = p.S, p.r
    blocks = np.empty((6, r, r))
    blocks[3:] = rep.grams
    GA, GB, GC = rep.grams
    # Z_(m) is the mode-m unfolding of S times the other two Grams, so
    # W_m = S_(m) Z_(m)^T; the core and its unfoldings are r x r^2
    SC = (S.reshape(r * r, r) @ GC).reshape(r, r, r)
    SAB = np.matmul(GB, (GA @ S.reshape(r, r * r)).reshape(r, r, r))
    Z = np.concatenate((np.matmul(GB, SC),
                        (GA @ SC.reshape(r, r * r)).reshape(r, r, r)
                        .transpose(1, 0, 2),
                        SAB.transpose(2, 0, 1))).reshape(3, r, r * r)
    F = np.concatenate((S, S.transpose(1, 0, 2), S.transpose(2, 0, 1))
                       ).reshape(3, r, r * r)
    np.matmul(F, Z.transpose(0, 2, 1), out=blocks[:3])
    diag = blocks.reshape(6, r * r)[:, ::r + 1]
    trace = diag.sum(axis=1)
    top = trace.max()
    if not top > 0.0:
        return None
    diag += (GN_DAMPING / r) * trace[:, None] + (1e-12 / r) * top
    return np.linalg.inv(blocks)


def _gn_apply(inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P^-1 v for each row of the (k, n) array v, with the block inverses
    of `_gn_inverse`: the core block as mode products by the Gram
    inverses, each factor block from the left."""
    k, r = v.shape[0], inv.shape[1]
    n = r**3
    core = v[:, :n].reshape(k * r * r, r) @ inv[5].T
    core = np.matmul(inv[4], core.reshape(k * r, r, r))
    core = np.matmul(inv[3], core.reshape(k, r, r * r))
    mats = np.matmul(inv[:3], v[:, n:].reshape(k, 3, r, -1))
    return np.concatenate((core.reshape(k, n), mats.reshape(k, -1)), axis=1)


def _lbfgs_direction(rep: ObjectiveReport, g: FactorPoint, pairs):
    """The L-BFGS direction -H g at the point of the report rep by the
    two-loop recursion over the (s, y, s.y) pairs, oldest first, from
    H0 = gamma P^-1.

    P is the damped block-diagonal Gauss-Newton matrix of the fitting term
    at that point (see `_gn_inverse`; the regularizer's curvature is left
    out), so each factor and the core get a step scaled to their own
    curvature; gamma = s.y / (y.P^-1 y) of the newest pair sets the
    overall length.
    The blocks are built and inverted once per call and applied to y and
    to the recursion's vector together.  None without a pair, where every
    block of P is zero, or where -H g is not a descent direction."""
    if not pairs:
        return None
    inv = _gn_inverse(rep)
    if inv is None:
        return None
    q = g.flat.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        a = float(s @ q) / sy
        q -= a * y
        alphas.append(a)
    s, y, sy = pairs[-1]
    Py, q = _gn_apply(inv, np.array((y, q)))
    q *= sy / float(y @ Py)
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q += (a - float(y @ q) / sy) * s
    if not float(g.flat @ q) > 0.0:
        return None
    return g._like(-q)


def _line_search(rep: ObjectiveReport, direction: FactorPoint,
                 ev: Evaluator, kind: str, init_step=1.0,
                 slope: float | None = None):
    """Halve the step from init_step until sufficient decrease from the
    point of the report rep; returns the step (kind, report, step, gain),
    kind the caller's, or None.  With a slope (for gradient steps) the
    Armijo rule applies; otherwise any strict decrease wins.  After 40
    trials the halving goes on only while a trial still moves the point,
    step |d| > 1e-16 max(|p|, 1): a start far out, where f is huge, can
    need more halvings than that to come back to scale."""
    p, f = rep.point, rep.f
    step, trials, floor, size = init_step, 0, None, None
    while True:
        cand = ev.objective(p._like(p.flat + step * direction.flat))
        if math.isfinite(cand.f) and (
                cand.f <= f - 1e-4 * step * slope if slope is not None
                else cand.f < f - 1e-12 * (1.0 + abs(f))):
            return kind, cand, step, f - cand.f
        step *= 0.5
        trials += 1
        if trials >= 40:
            if floor is None:
                # formed only here, so a search that ends sooner pays
                # nothing for it
                floor = 1e-16 * max(p.norm(), 1.0)
                size = direction.norm()
            if not step * size > floor:
                return None


def _curvature_step(rep: ObjectiveReport, g: FactorPoint,
                    rng: np.random.Generator, ev: Evaluator):
    """Probe the curvature at the point of the report rep, whose gradient
    is g, and line-search the negative-curvature direction v it finds
    once, from a first trial step of max(2 |rho|, 1e-3); returns (step,
    rho), step ("negative-curvature", report, size, gain) or None, rho
    the probe's smallest Ritz value, infinite when the budget cut the
    probe short.  None with a finite rho makes the point stationary:
    either no curvature lies below -TAU2/2, or none that a step can
    realize at this floating-point scale.

    v is negated where g.v > 0, so that neither the first- nor the
    second-order term of f along it rises (Moré and Sorensen, Math.
    Programming 16, 1979)."""
    v, rho = _negative_curvature(rep.point, rng, ev)
    if v is None:
        return None, rho
    if g.inner(v) > 0.0:
        v = -v
    return _line_search(rep, v, ev, "negative-curvature",
                        init_step=max(2.0 * abs(rho), 1e-3)), rho


def _escape_round(rep: ObjectiveReport, ev: Evaluator,
                  rng: np.random.Generator):
    """Score the labels of SAMPLED_BLOCKS at the point of the report rep
    in one pass: one split, SAMPLES_PER_BLOCK draws of every label that
    has directions there, in one sampler call, and one sign search of all
    the draws (at the zero point their exact steps in closed form).
    Returns the step taken as (kind, report, step, predicted gain), or
    None where no candidate gains MIN_IMPROVEMENT or the evaluated f rises
    (see the module docstring)."""
    labels, drawn = sample_missing_directions(
        subspace_split(rep.point, SIGMA), SAMPLED_BLOCKS, rng,
        SAMPLES_PER_BLOCK)
    if not labels:
        return None
    found = sign_flip_search(rep.point, ev.T, drawn, ev.lam, at=rep)
    # the first of equal gains, label by label and draw by draw
    k = found.best()
    gain = float(found.improvements[k])
    if gain < MIN_IMPROVEMENT:
        return None
    cand = ev.objective(found.apply(k))
    _require_finite(cand.f, "objective")
    if _rises(rep.f, cand.f):
        return None
    return ("sampled({},{},{})".format(*labels[k // SAMPLES_PER_BLOCK]),
            cand, float(found.steps[k]), gain)


def _find_sosp(rep: ObjectiveReport, budget: Evaluator,
               rng: np.random.Generator, trace: SearchTrace, epsilon: float,
               sampler: np.random.Generator):
    """The search from the point of the finite objective report rep,
    recording each accepted step in trace, until one of the three exits in
    the module docstring: f <= epsilon, the budget runs out, or a stop's
    point takes no escape step and its probe gives no step.  Returns the
    final point's report and a FindSospInfo.  Probes draw from rng, and
    each escape round samples draws per label from sampler.
    (`budget` keeps its name: the benchmark's tracer reads
    `budget.exhausted` to classify the end.)

    Each iteration takes one step (kind, report, size, gain) from a step
    source and records it as it comes.  Each descent step line-searches
    the L-BFGS direction from a first trial step of 1.  Without a pair, or
    where that direction does not descend, the memory is cleared and the
    step goes along -g from twice the last such step."""
    step_hint = 1.0
    last_grad = None  # (report, gradient) where the last gradient was taken
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, s.y), oldest first
    recent = deque([rep.f], maxlen=STALL_WINDOW + 1)
    # accepted steps the next slow-window escape round waits for, and the
    # steps left of that wait
    wait, quiet = STALL_WINDOW, 0
    # descents started: this one, and one after each stop's step, unless
    # the point reaches epsilon
    rounds = int(rep.f > epsilon)
    while True:
        if rep.f <= epsilon or budget.exhausted:
            return rep, FindSospInfo(False, rounds)
        # gn: the gradient norm, None where no gradient is taken; rho: the
        # smallest Ritz value of a stop's probe; the descent starts afresh
        # after a stop's step and after a slow window's escape step
        step, gn, rho, stop, afresh = None, None, None, False, False
        # orbit moves only pay off once the regularizer carries a real
        # share of the objective; while the loss dominates, plain descent
        # handles both components
        if rep.f > 0.0 and budget.lam * rep.R >= 0.25 * rep.f:
            step = _rebalance_once(rep, budget)
            if step is None and budget.exhausted:
                return rep, FindSospInfo(False, rounds)
        if step is None:
            g = budget.grad(rep)
            gn = g.norm()
            _require_finite(gn, "gradient")
            if last_grad is not None:
                s = rep.point.flat - last_grad[0].point.flat
                y = g.flat - last_grad[1].flat
                sy = float(s @ y)
                if sy > 1e-12 * math.sqrt(s @ s) * math.sqrt(y @ y):
                    pairs.append((s, y, sy))
            last_grad = (rep, g)
            # no progress over a whole window counts as a small gradient,
            # and little progress earns an escape round
            fall = (recent[0] - recent[-1] if len(recent) > STALL_WINDOW
                    else math.inf)
            stop = gn <= TAU1 * math.sqrt(rep.f) or (
                fall <= STALL_TOL * recent[-1] and gn <= STALL_GRAD)
            if (not stop and pairs and quiet <= 0
                    and fall <= SLOW_TOL * recent[-1]):
                step = _escape_round(rep, budget, sampler)
                afresh = step is not None
                if not afresh:
                    wait *= 2
                    quiet = wait
            if not (stop or afresh):
                direction = _lbfgs_direction(rep, g, pairs)
                if direction is not None:
                    step = _line_search(rep, direction, budget, "gradient",
                                        slope=-g.inner(direction))
                else:
                    pairs.clear()
                    step = _line_search(rep, -1.0 * g, budget, "gradient",
                                        init_step=2.0 * step_hint,
                                        slope=gn * gn)
                    if step is not None:
                        step_hint = step[2]
                # no representable step along it lowers f: a stop
                stop = step is None
        if stop:
            if budget.exhausted:
                return rep, FindSospInfo(False, rounds)
            step = _escape_round(rep, budget, sampler)
            if step is None:
                # only now probe the curvature, from the same report
                step, rho = _curvature_step(rep, g, rng, budget)
                if step is None:
                    # a failed line search's gradient above STALL_GRAD
                    # certifies nothing
                    return rep, FindSospInfo(
                        math.isfinite(rho) and gn <= STALL_GRAD, rounds)
        kind, rep, size, gain = step
        if stop or afresh:
            step_hint, last_grad, wait, quiet = 1.0, None, STALL_WINDOW, 0
            pairs.clear()
            recent.clear()
            rounds += stop and rep.f > epsilon
        recent.append(rep.f)
        quiet -= 1
        trace.append(rep, kind, size, gain, grad_norm=gn, min_curvature=rho)


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


def run(T: np.ndarray, config: SearchConfig) -> RunResult:
    """Full local search on target T.  Returns the final point, the trace
    and the termination status: converged (f <= epsilon |T|^2),
    no_direction (stationary and nothing improves), or budget.

    The search runs on T / |T| (see the module docstring).  A target of
    zero norm is a ValueError: the zero start fits it, so a run would
    report converged after no work.  A target whose norm, or whose f, L or
    R in its own units, is not finite raises NonFiniteError."""
    t_start = time.perf_counter()
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or len(set(T.shape)) != 1:
        raise ValueError(f"target must be a d x d x d tensor, got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("target contains non-finite entries")
    d = T.shape[0]
    r = config.r
    if r > d:
        raise ValueError(f"rank {r} exceeds dimension {d}")
    norm = float(np.linalg.norm(T))
    if norm == 0.0:
        raise ValueError("target has zero norm; there is nothing to fit")
    if not math.isfinite(norm):
        raise NonFiniteError("target norm is not finite")
    T = T / norm
    lam = config.lam if config.lam is not None else default_lambda(r)

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
    _require_finite(rep.f, "objective")
    trace.append(rep, "init", 0.0, 0.0)
    rep, info = _find_sosp(rep, ev, rng_sosp, trace, config.epsilon,
                           rng_sampler)
    if rep.f <= config.epsilon:
        status = "converged"
    else:
        status = "no_direction" if info.converged else "budget"

    # back to the target's units: f, L and R scale by |T|^2.  The last
    # record is the final point's, so rescale checks these values too
    units = norm * norm
    trace.rescale(units)
    return RunResult(point=norm ** 0.25 * rep.point, trace=trace,
                     status=status, f=rep.f * units, L=rep.L * units,
                     R=rep.R * units, grad_evals=ev.used,
                     objective_evals=ev.objective_evals, rounds=info.rounds,
                     wall_time=time.perf_counter() - t_start)

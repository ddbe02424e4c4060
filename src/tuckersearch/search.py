"""Local search driver.

The driver alternates two stages until the objective reaches the target,
no direction helps, or the gradient-evaluation budget runs out:

  1. descend to an approximate second-order stationary point with
     backtracking line searches along L-BFGS directions, built from the
     last LBFGS_MEMORY (s, y) pairs between gradient points, exploiting
     negative curvature found by a Lanczos probe of at most
     LANCZOS_STEPS Hessian-vector products.  A small gradient, or f
     falling by no more than STALL_TOL f over the last STALL_WINDOW
     accepted steps, sends the descent to the curvature probe; no
     negative curvature there makes the point stationary.  The descent
     also ends as soon as f reaches the target;
  2. at the stationary point, propose escape directions, the sampled
     rank-one block updates of every label in SAMPLED_BLOCKS, and accept
     the best if it improves enough.

Stage 1 handles first and second order saddles, stage 2 the flat third and
fourth order ones that gradient information cannot see, so the escape
draws only labels with two or three missing modes.

The L-BFGS recursion starts from H0 = gamma P^-1, after scaled gradient
descent for Tucker (Tong, Ma and Chi, arXiv:2104.14526).  P is the
block-diagonal Gauss-Newton matrix of the fitting term at the current
point: with the Gram matrices G_m = M M^T, factor m's block is
W_m = S_(m) (G_k kron G_l) S_(m)^T, multiplying its r x d gradient block
from the left, and the core's is G_A kron G_B kron G_C, applied as three
mode products.  Each of the six r x r blocks is damped by GN_DAMPING
times its trace / r, and gamma = s.y / (y.P^-1 y) of the newest pair.
Each factor and the core thus take a step scaled to their own curvature
rather than one scalar step for all.  The damping was chosen from this
sweep (mean gradient evaluations over the 36 perfbench `grid` cells of
seeds 51-53, and the totals of the desk grid and of acceptance criterion
05; BLAS at one thread):

    GN_DAMPING   1e-3    1e-2   2e-2   3e-2   4e-2   5e-2   0.1    0.3
    grid mean     902     183    112     95     86     84     97    129
    desk grid  11,840   2,082  1,273    991    923    974  1,097  1,365
    crit. 05    7,584   2,202  1,817  1,687  1,733  1,956  2,165  2,420

against 197, 2,132 and 3,294 from the scalar H0 = (s.y / y.y) I.  Below
about 2e-2 the count rises steeply; the cause of that cliff is not known.

The algorithm needs the descent only to reach an approximate second-order
stationary point, and a saddle plateau where the gradient norm sits
between 1e-7 and 1e-5, above TAU1, is one already: the curvature probe
or the escape does better there than more descent.  STALL_WINDOW = 5
(STALL_TOL = 1e-6) was chosen from this sweep (total gradient
evaluations over the 36 perfbench `grid` cells of seeds 1-3, the desk
grid exact and with noise of norm 5e-2, the 75-run start set, the scale
table and acceptance criterion 05; BLAS at one thread; no status moved
at any window; re-measured with the escape labels of SAMPLED_BLOCKS):

    STALL_WINDOW      1      3      5      8     10     50
    grid cells    2,885  2,820  2,730  2,818  2,905  3,155
    desk            973    918    812    822    867    882
    desk + noise  1,366  1,527  1,622  1,746  1,856  2,239
    start set     3,693  3,400  3,327  3,376  3,533  3,549
    scale table   1,336  1,409  1,485  1,352  1,396  1,569
    crit. 05      2,550  1,858  1,617  1,564  1,635  1,752

The cost is at the noise floor: the noisy desk runs end no_direction at
an f up to 6.2e-5 relative above that of a 50-step window.

Budget accounting: one `Evaluator` holds the target, lambda and the
counters, and each of its methods charges its own cost: a gradient 1, a
Hessian-vector product 2 (a gradient difference), the Gram gaps of a
rebalance move 1 (the content of the regularizer gradient).  Objective
values, the sign search's included, are counted but not charged; a
rebalance trial, scored from its Gram gaps alone, is not counted.  Each
point is evaluated once: its `ObjectiveReport` keeps the fit stages and
Gram gaps, and the gradient at the point and every sign search of the
escape round at it start from that report, so they form neither again
and a sign search adds no baseline value to the count.  No curvature
probe starts that the budget cannot pay for, so a run never spends past
its budget.

An escape step is taken on the sign search's predicted gain only if the
evaluated f does not rise by more than the trace allows; the expansion's
rounding can exceed a gain near MIN_IMPROVEMENT, and a refused step ends
the round as if nothing had gained enough.
"""
from __future__ import annotations

import json
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .escape import (NoMissingDirection, delta_grid,
                     sample_missing_directions, sign_flip_search)
from .objective import (ObjectiveReport, _gram_gaps, _phi, default_lambda,
                        grad, hvp, objective)
from .subspace import subspace_split
from .tensor_core import FactorPoint, _transform, hosvd, random_point

# the escape's block labels, two or three modes missing: a label with a
# single 2 gains at second order, where the curvature probe looks
SAMPLED_BLOCKS = ((1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2))
# a descent whose f falls by no more than STALL_TOL * f over STALL_WINDOW
# accepted steps is treated as stationary and probes the curvature (see
# the module docstring's sweep)
STALL_WINDOW = 5
STALL_TOL = 1e-6
# (s, y) pairs the L-BFGS direction keeps, the relative damping of its
# Gauss-Newton preconditioner, and Hessian-vector products a Lanczos
# curvature probe may take
LBFGS_MEMORY = 5
GN_DAMPING = 4e-2
LANCZOS_STEPS = 12
# fixed thresholds in place of the paper's cascade: the escape's singular
# value split, the gradient and curvature tolerances of a stationary
# point, and the least gain an escape step must make
SIGMA = 0.05
TAU1 = 1e-6
TAU2 = 1e-4
MIN_IMPROVEMENT = 1e-10


class NonFiniteError(Exception):
    """The objective or gradient became non-finite."""


# ---------------------------------------------------------------------------
# configuration and trace


@dataclass
class SearchConfig:
    """Knobs for one run; the thresholds are the module's constants.  No
    round limit is needed: every round charges at least one gradient
    evaluation, so the budget bounds the rounds."""
    r: int
    epsilon: float = 1e-4
    lam: float | None = None
    seed: int = 0
    budget: int = 50_000
    init: str = "zero"

    def validate(self) -> None:
        """Reject what a run cannot use: a count that is not an integer, a
        number that is not finite, a value out of range, a bad init."""
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
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        _parse_init(self.init)


def samples_per_block(epsilon: float) -> int:
    """Draws per sampled block label: min(ceil(8 ln(1/epsilon)), 6)."""
    return min(math.ceil(8.0 * math.log(1.0 / epsilon)), 6)


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
    rebalance or sampled(i,j,k), with ijk a label of SAMPLED_BLOCKS."""
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

    def append(self, f: float, L: float, R: float, step_kind: str,
               step_size: float, improvement: float,
               grad_norm: float | None = None,
               min_curvature: float | None = None) -> TraceRecord:
        if self.records and _rises(self.records[-1].f, f):
            raise AssertionError("objective increased along accepted "
                                 f"steps: {self.records[-1].f} -> {f}")
        rec = TraceRecord(iteration=len(self.records), f=float(f), L=float(L),
                          R=float(R), grad_norm=grad_norm,
                          min_curvature=min_curvature, step_kind=step_kind,
                          step_size=float(step_size),
                          improvement=float(improvement), seed=self.seed)
        self.records.append(rec)
        return rec

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
        return hvp(p, v, self.T, self.lam)

    def gram_gaps(self, rep: ObjectiveReport) -> np.ndarray:
        self.used += 1
        return rep.gaps

    def sign_search(self, rep: ObjectiveReport, deltas: np.ndarray, grid):
        cands = sign_flip_search(rep.point, self.T, deltas, grid, self.lam,
                                 at=rep)
        self.objective_evals += sum(c.evals for c in cands)
        return cands


# ---------------------------------------------------------------------------
# stationary point finding


def _apply_balance(p: FactorPoint, eta: float, eigs) -> FactorPoint:
    """Move along the loss-preserving symmetry orbit: each factor shrinks by
    exp(-eta G_m) where its Gram matrix exceeds the core's, and the core
    absorbs the inverse, so the reconstructed tensor is unchanged while the
    balance defect decreases.  `eigs` holds the (w, V) eigendecomposition
    of each Gram gap G_m.  The trial is assembled in one flat vector: a
    trial needs only its Gram gaps, so it skips the checking constructor."""
    flat = np.empty_like(p.flat)
    n = p.r**3
    mats = flat[n:].reshape(p.factors.shape)
    grow = []
    for m, (w, V) in enumerate(eigs):
        np.matmul((V * np.exp(-eta * w)) @ V.T, p.factors[m], out=mats[m])
        grow.append((V * np.exp(eta * w)) @ V.T)
    flat[:n] = _transform(p.S, grow[0], grow[1], grow[2])[2].ravel()
    return p._like(flat)


def _rebalance_once(rep: ObjectiveReport, ev: Evaluator):
    """One line-searched orbit move from the point of the report rep;
    returns (point, report, eta) or None.

    An orbit move leaves S(A, B, C), and so L, unchanged: each trial is
    scored as rep.L + lam R from its own Gram gaps, and only the accepted
    point is evaluated in full."""
    p, f0 = rep.point, rep.f
    gaps = ev.gram_gaps(rep)
    scale = max(float(np.abs(G).max()) for G in gaps)
    if scale <= 1e-15 * (1.0 + p.norm() ** 2):
        return None
    eta = 1.0 / (1.0 + scale)
    eigs = [np.linalg.eigh(G) for G in gaps]
    for _ in range(12):
        cand = _apply_balance(p, eta, eigs)
        phi = _phi(_gram_gaps(cand))
        fc = rep.L + ev.lam * (phi * phi)
        if math.isfinite(fc) and fc < f0 - 1e-12 * (1.0 + abs(f0)):
            return cand, ev.objective(cand), eta
        eta *= 0.5
    return None


@dataclass(frozen=True)
class FindSospInfo:
    converged: bool
    report: ObjectiveReport
    grad_norm: float | None
    min_curvature: float | None


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} became non-finite")


def _negative_curvature(p: FactorPoint, rng: np.random.Generator,
                        ev: Evaluator):
    """Lanczos on the Hessian from one random unit start, with full
    reorthogonalization; returns (unit Ritz direction or None, smallest
    Ritz value).

    The first product is also the flat-Hessian probe: with 4 |Hq| < TAU2
    the search returns its Rayleigh quotient and no direction.  The
    iteration stops once the smallest Ritz value theta is at most -TAU2/2
    with residual beta |e_k.y| <= 0.1 |theta|, or once beta vanishes and
    the Ritz values are exact, and otherwise after LANCZOS_STEPS products;
    a direction comes back whenever theta <= -TAU2/2.  A product the
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
        if len(basis) == 1 and 4.0 * hnorm < TAU2:
            return None, alpha
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
        if beta <= 1e-10 * hnorm or (theta <= -TAU2 / 2.0 and
                                     beta * abs(y[-1]) <= 0.1 * abs(theta)):
            break
        betas.append(beta)
        basis.append(w / beta)
    if theta > -TAU2 / 2.0:
        return None, theta
    v = y @ Q
    return p._like(v / np.linalg.norm(v)), theta


def _gn_inverse(p: FactorPoint):
    """Inverses of the damped Gauss-Newton blocks of the fitting term at p,
    as a (6, r, r) stack: W_A, W_B, W_C, then G_A, G_B, G_C.

    G_m = M M^T is a factor's Gram matrix and W_m = S_(m) (G_k kron G_l)
    S_(m)^T, with k and l the other two modes, is the Gram matrix of the
    transform's mode-m unfolding without M.  The fitting term's
    Gauss-Newton matrix is 2 (W_m kron I_d) on factor m and
    2 G_A kron G_B kron G_C on the core.  Each block gets GN_DAMPING times
    its mean eigenvalue, tr / r, on its diagonal, plus 1e-12 of the
    largest such mean, which keeps a zero block invertible.  None when
    every block is zero, as at a point whose factors are all zero."""
    S, r = p.S, p.r
    blocks = np.empty((6, r, r))
    G = np.matmul(p.factors, p.factors.transpose(0, 2, 1), out=blocks[3:])
    GA, GB, GC = G
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


def _lbfgs_direction(p: FactorPoint, g: FactorPoint, pairs):
    """The L-BFGS direction -H g at p by the two-loop recursion over the
    (s, y, s.y) pairs, oldest first, from H0 = gamma P^-1.

    P is the damped block-diagonal Gauss-Newton matrix of the fitting term
    at p (see `_gn_inverse`; the regularizer's curvature is left out), so
    each factor and the core get a step scaled to their own curvature;
    gamma = s.y / (y.P^-1 y) of the newest pair sets the overall length.
    The blocks are built and inverted once per call and applied to y and
    to the recursion's vector together.  GN_DAMPING = 4e-2 sits in the
    flat part of the module docstring's sweep, from 3e-2 to 0.1, above
    the cliff below 2e-2.  None without a pair, where every block of P is
    zero, or where -H g is not a descent direction."""
    if not pairs:
        return None
    inv = _gn_inverse(p)
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


def _line_search(p, direction, f0, ev, init_step=1.0,
                 slope: float | None = None, max_backtracks=40):
    """Halve the step from init_step until sufficient decrease; returns
    (point, report, step) or None.  With a slope (for gradient steps) the
    Armijo rule applies; otherwise any strict decrease wins."""
    step = init_step
    for _ in range(max_backtracks):
        cand = p._like(p.flat + step * direction.flat)
        rep = ev.objective(cand)
        fc = rep.f
        if math.isfinite(fc):
            if slope is not None:
                if fc <= f0 - 1e-4 * step * slope:
                    return cand, rep, step
            elif fc < f0 - 1e-12 * (1.0 + abs(f0)):
                return cand, rep, step
        step *= 0.5
    return None


def _find_sosp(p: FactorPoint, budget: Evaluator, rng: np.random.Generator,
               rep: ObjectiveReport, trace: SearchTrace,
               epsilon: float = -math.inf):
    """Descend from p, whose finite objective report the caller passes as
    rep, recording each accepted step in trace, until f <= epsilon, the
    point is stationary or the budget runs out.  Returns (point,
    FindSospInfo) with the final point's report.  (`budget` keeps its name:
    the benchmark's tracer reads `budget.exhausted` to classify the stop.)

    Each descent step line-searches the L-BFGS direction from a first
    trial step of 1.  Without a pair, or where that direction does not
    descend, the memory is cleared and the step goes along -g from twice
    the last such step.  A small gradient, a stalled descent or a failed
    line search probes the curvature; a negative-curvature direction is
    line-searched both ways, and none makes the point stationary."""
    step_hint = 1.0
    gn = None
    min_curv = None
    last_grad = None  # (point, gradient) where the last gradient was taken
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, s.y), oldest first
    recent = deque([rep.f], maxlen=STALL_WINDOW + 1)
    while True:
        if rep.f <= epsilon or budget.exhausted:
            return p, FindSospInfo(False, rep, gn, min_curv)
        kind, hit, seen = "rebalance", None, {}
        # orbit moves only pay off once the regularizer carries a real
        # share of the objective; while the loss dominates, plain descent
        # handles both components
        if rep.f > 0.0 and budget.lam * rep.R >= 0.25 * rep.f:
            hit = _rebalance_once(rep, budget)
            if hit is None and budget.exhausted:
                return p, FindSospInfo(False, rep, gn, min_curv)
        if hit is None:
            g = budget.grad(rep)
            gn = g.norm()
            _require_finite(gn, "gradient")
            kind, seen = "gradient", {"grad_norm": gn}
            if last_grad is not None:
                s = p.flat - last_grad[0].flat
                y = g.flat - last_grad[1].flat
                sy = float(s @ y)
                if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                    pairs.append((s, y, sy))
            last_grad = (p, g)
            # no progress over a whole window counts as a small gradient
            stalled = (len(recent) > STALL_WINDOW
                       and recent[0] - recent[-1] <= STALL_TOL * recent[-1])
            if gn > TAU1 and not stalled:
                direction = _lbfgs_direction(p, g, pairs)
                if direction is not None:
                    hit = _line_search(p, direction, rep.f, budget,
                                       slope=-g.inner(direction))
                else:
                    pairs.clear()
                    hit = _line_search(p, -1.0 * g, rep.f, budget,
                                       init_step=2.0 * step_hint,
                                       slope=gn * gn)
                    if hit is not None:
                        step_hint = hit[2]
        if hit is None:
            # the gradient is small, descent has stalled, or the line
            # search cannot realize the descent it promises: probe the
            # curvature
            direction, rho = _negative_curvature(p, rng, budget)
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
                # curvature below -TAU2/2 that no step can realize at this
                # floating-point scale: accept the point as stationary
                return p, FindSospInfo(True, rep, gn, rho)
            recent.clear()
        prev_f = rep.f
        p, rep, step = hit
        recent.append(rep.f)
        trace.append(f=rep.f, L=rep.L, R=rep.R, step_kind=kind,
                     step_size=step, improvement=prev_f - rep.f, **seen)


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
    and the termination status: converged (f <= epsilon), no_direction
    (stationary and nothing improves), or budget.  A target of zero norm
    is a ValueError: the zero start fits it, so a run would report
    converged after no work."""
    t_start = time.perf_counter()
    config.validate()
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or len(set(T.shape)) != 1:
        raise ValueError(f"target must be a d x d x d tensor, got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("target contains non-finite entries")
    if np.linalg.norm(T) == 0.0:
        raise ValueError("target has zero norm; there is nothing to fit")
    d = T.shape[0]
    r = config.r
    if r > d:
        raise ValueError(f"rank {r} exceeds dimension {d}")
    lam = config.lam if config.lam is not None else default_lambda(r)

    samples = samples_per_block(config.epsilon)

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
    trace.append(f=rep.f, L=rep.L, R=rep.R, step_kind="init", step_size=0.0,
                 improvement=0.0)

    status = "converged" if rep.f <= config.epsilon else None
    rounds = 0
    while status is None:
        rounds += 1
        p, info = _find_sosp(p, ev, rng_sosp, rep, trace,
                             epsilon=config.epsilon)
        rep = info.report
        if rep.f <= config.epsilon:
            status = "converged"
            break
        if ev.exhausted:
            status = "budget"
            break

        splits = subspace_split(p, SIGMA)
        cands = []
        for ijk in SAMPLED_BLOCKS:
            # a block label's draws are scored in one sign search
            try:
                drawn = sample_missing_directions(splits, ijk, rng_sampler,
                                                  samples)
            except NoMissingDirection:
                continue
            kind = "sampled({},{},{})".format(*ijk)
            grid = delta_grid(SIGMA, ijk.count(2))
            cands += [(kind, res) for res in ev.sign_search(rep, drawn, grid)]
        # max keeps the first of equal gains
        kind, best = max(cands, key=lambda c: c[1].improvement,
                         default=(None, None))

        # a predicted gain is taken only if f does not rise (see the
        # module docstring)
        taken = None
        if best is not None and best.improvement >= MIN_IMPROVEMENT:
            cand = best.apply(p)
            cand_rep = ev.objective(cand)
            _require_finite(cand_rep.f, "objective")
            if not _rises(rep.f, cand_rep.f):
                taken = cand, cand_rep
        if taken is not None:
            p, rep = taken
            trace.append(f=rep.f, L=rep.L, R=rep.R,
                         step_kind=kind, step_size=best.step,
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

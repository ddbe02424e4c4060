"""Workloads, instance generation and the independent oracle.

Every workload is a closed loop: one client, one instance at a time, the
next one started only after the previous returned.  Instances come from
the generator below, seeded per cell from the ``--seed`` argument, so the
program sees nothing but generated inputs.  An untraced run measures whole
blocks of ``block`` instances; a traced run cycles over the first
``trace_set`` instances, a fixed set, so its counts repeat exactly.

The oracle does not trust the program's numbers: it rebuilds S(A, B, C)
from the returned factors with its own einsum and compares it with the
target it generated.  An instance is solved iff

    || S(A, B, C) - T ||_F / || T ||_F  <=  1e-2 + noise,

whatever status the program reported.  A "converged" status the oracle
refutes is a false convergence.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SOLVED_TOL = 1e-2
# exit codes of `tuckersearch decompose` for each summary status
DECOMPOSE_EXIT = {"converged": 0, "budget": 2, "no-direction": 3}
# step kinds of the descent stage; every other kind is an accepted escape
DESCENT_KINDS = frozenset({"init", "gradient", "negative-curvature",
                           "rebalance"})


@dataclass
class Instance:
    id: str
    r: int = 0
    d: int = 0
    T: np.ndarray | None = None
    noise: float = 0.0
    path: str | None = None      # tensor file handed to the CLI
    suite_seed: int = 0          # verify-suite seed


@dataclass
class Outcome:
    instance: str
    kind: str                    # "solve" or "suite"
    seconds: float
    status: str = "error"
    solved: bool = False
    false_converged: bool = False
    evals: int = 0               # grad_evals of a solve, trials of a suite
    objective_evals: int = 0
    rounds: int = 0
    rel_err: float = math.nan
    checks_failed: int = 0
    steps: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # file name -> sha256

    @property
    def failed(self) -> bool:
        return not self.solved or bool(self.problems)

    def record(self) -> dict:
        """JSON-ready copy."""
        doc = dict(vars(self))
        doc["steps"] = dict(self.steps)
        doc["rel_err"] = None if math.isnan(self.rel_err) else self.rel_err
        return doc


# ---------------------------------------------------------------------------
# instance generator


def tucker_tensor(rng: np.random.Generator, rank: int, d: int,
                  noise: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """Gaussian core and factors of multilinear rank ``rank``, normalized to
    unit Frobenius norm, plus noise of Frobenius norm ``noise``, times
    ``scale``."""
    core = rng.standard_normal((rank, rank, rank))
    a, b, c = (rng.standard_normal((rank, d)) for _ in range(3))
    T = np.einsum("xyz,xi,yj,zk->ijk", core, a, b, c)
    T = T / np.linalg.norm(T)
    if noise > 0:
        G = rng.standard_normal((d, d, d))
        T = T + (noise / np.linalg.norm(G)) * G
    return scale * T


def relative_error(S, A, B, C, T: np.ndarray) -> float:
    """|| S(A, B, C) - T ||_F / || T ||_F, computed without the package."""
    approx = np.einsum("xyz,xi,yj,zk->ijk", np.asarray(S), np.asarray(A),
                       np.asarray(B), np.asarray(C))
    return float(np.linalg.norm(approx - T) / np.linalg.norm(T))


def _judge(out: Outcome, inst: Instance, point, reported_L) -> None:
    """Fill the oracle verdict for a solve from its returned point."""
    T = inst.T
    out.rel_err = relative_error(point.S, point.A, point.B, point.C, T)
    out.solved = out.rel_err <= SOLVED_TOL + inst.noise
    out.false_converged = out.status == "converged" and not out.solved
    # the reported loss must be the loss of the returned factors
    loss = (out.rel_err * float(np.linalg.norm(T))) ** 2
    if not math.isclose(reported_L, loss, rel_tol=1e-6,
                        abs_tol=1e-12 * float(np.sum(T * T))):
        out.problems.append(f"reported L={reported_L!r} but the factors "
                            f"give {loss!r}")


def _digests(files: dict) -> dict:
    """sha256 of each output file: equal digests mean equal bytes."""
    return {name: hashlib.sha256(blob).hexdigest()
            for name, blob in files.items()}


@contextlib.contextmanager
def _quiet():
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def _timed(call, tracer, instance_id, install):
    """Run call() under the tracer when one is given; returns (value,
    seconds).  The tracer is installed only around the call, so the
    oracle's own use of the package is never traced."""
    if tracer is None:
        t0 = time.perf_counter()
        value = call()
        return value, time.perf_counter() - t0
    tracer.instance = instance_id
    install(tracer)
    try:
        idx = tracer.open("instance")
        try:
            value = call()
        finally:
            tracer.close(idx)
    finally:
        tracer.uninstall()
    span = tracer.spans[idx]
    return value, span[2] - span[1]


# ---------------------------------------------------------------------------
# workloads


class Grid:
    """The ROADMAP grid through `tuckersearch decompose` on tensor files.

    Cells are (r, d) x {exact |T|=1, noise 1e-2, exact |T|=1e-2, exact
    |T|=1e2}.  A block is one sweep over all twelve cells, so every run
    measures the same mix of cells; every four consecutive cells hold each
    kind once and every three hold each (r, d) once.  A traced run covers
    the first eight cells, which hold every kind twice and both
    |T|=1e-2 cells at (4, 24) and (2, 8).
    """
    name = "grid"
    kind = "solve"
    SHAPES = ((2, 8), (3, 16), (4, 24))
    CELLS = (("exact", 1.0, 0.0), ("noise", 1.0, 1e-2),
             ("small", 1e-2, 0.0), ("large", 1e2, 0.0))
    block = len(SHAPES) * len(CELLS)
    trace_set = 8

    def setup(self, pkg, seed: int, work: Path) -> list[Instance]:
        out = []
        for i in range(self.block):
            r, d = self.SHAPES[i % len(self.SHAPES)]
            cell, scale, noise = self.CELLS[i % len(self.CELLS)]
            rng = np.random.default_rng([seed, i])
            T = tucker_tensor(rng, r, d, noise=noise, scale=scale)
            path = work / f"g{i}-r{r}d{d}-{cell}.json"
            pkg.tensor_core.save_tensor_json(
                str(path), T, {"r": r, "d": d, "cell": cell, "noise": noise,
                               "scale": scale})
            out.append(Instance(id=f"r{r}d{d}-{cell}", r=r, d=d, T=T,
                                noise=noise, path=str(path)))
        return out

    def solve(self, pkg, inst: Instance, prefix: Path, tracer=None,
              install=None) -> Outcome:
        argv = ["decompose", inst.path, "--init", "zero", "--out",
                str(prefix)]
        with _quiet():
            code, secs = _timed(lambda: pkg.cli.main(argv), tracer,
                                prefix.name, install)
        out = Outcome(prefix.name, self.kind, secs)
        files = {}
        for name in ("factors.json", "trace.jsonl", "summary.json"):
            path = Path(f"{prefix}.{name}")
            if not path.exists():
                out.problems.append(f"exit {code}: no {path.name}")
                return out
            files[name] = path.read_bytes()
        out.outputs = _digests(files)
        summary = json.loads(files["summary.json"])
        out.status = summary["status"]
        out.evals = int(summary["grad_evals"])
        out.objective_evals = int(summary["objective_evals"])
        out.rounds = int(summary["rounds"])
        if DECOMPOSE_EXIT.get(out.status) != code:
            out.problems.append(f"status {out.status} but exit code {code}")
        out.steps = Counter(json.loads(line)["step_kind"] for line in
                            files["trace.jsonl"].splitlines())
        point = pkg.objective.load_point(f"{prefix}.factors.json")
        _judge(out, inst, point, float(summary["L"]))
        return out


class Rank1Overfit:
    """Exact multilinear-rank-1 targets solved at r = 2, 3, 4 (d = 8, 16,
    24) through search.run.  Descent is short; the time goes to the
    origin-saddle escape and the curvature probes.  The pool holds about
    one run's worth of instances; a longer run starts over."""
    name = "rank1-overfit"
    kind = "solve"
    block = 3
    trace_set = 12
    SHAPES = ((2, 8), (3, 16), (4, 24))
    POOL = 60

    def setup(self, pkg, seed: int, work: Path) -> list[Instance]:
        out = []
        for k in range(self.POOL):
            r, d = self.SHAPES[k % len(self.SHAPES)]
            T = tucker_tensor(np.random.default_rng([seed, k]), 1, d)
            out.append(Instance(id=f"r{r}d{d}-{k}", r=r, d=d, T=T))
        return out

    def solve(self, pkg, inst: Instance, prefix: Path, tracer=None,
              install=None) -> Outcome:
        config = pkg.search.SearchConfig(r=inst.r, init="zero")
        result, secs = _timed(lambda: pkg.search.run(inst.T, config),
                              tracer, prefix.name, install)
        out = Outcome(prefix.name, self.kind, secs, status=result.status,
                      evals=result.grad_evals,
                      objective_evals=result.objective_evals,
                      rounds=result.rounds)
        out.steps = Counter(rec.step_kind for rec in result.trace.records)
        # serialize the way the CLI does, for the byte-identity checks
        pkg.objective.save_point(f"{prefix}.factors.json", result.point)
        result.trace.to_jsonl(f"{prefix}.trace.jsonl")
        summary = {"status": result.status, "f": result.f, "L": result.L,
                   "R": result.R, "grad_evals": result.grad_evals,
                   "objective_evals": result.objective_evals,
                   "rounds": result.rounds}
        out.outputs = _digests({
            "factors.json": Path(f"{prefix}.factors.json").read_bytes(),
            "trace.jsonl": Path(f"{prefix}.trace.jsonl").read_bytes(),
            "summary.json": json.dumps(summary, sort_keys=True).encode()})
        _judge(out, inst, result.point, float(result.L))
        return out


class VerifySuite:
    """`tuckersearch verify` over consecutive suite seeds: many fresh small
    targets (r <= 3, d <= 6), each touched a few times."""
    name = "verify-suite"
    kind = "suite"
    block = 1
    trace_set = 2
    POOL = 16

    def setup(self, pkg, seed: int, work: Path) -> list[Instance]:
        return [Instance(id=f"suite-{seed * self.POOL + k}",
                         suite_seed=seed * self.POOL + k)
                for k in range(self.POOL)]

    def solve(self, pkg, inst: Instance, prefix: Path, tracer=None,
              install=None) -> Outcome:
        report = Path(f"{prefix}.report.json")
        argv = ["verify", "--seed", str(inst.suite_seed), "--out",
                str(report)]
        with _quiet():
            code, secs = _timed(lambda: pkg.cli.main(argv), tracer,
                                prefix.name, install)
        out = Outcome(prefix.name, self.kind, secs)
        if not report.exists():
            out.problems.append(f"exit {code}: no report")
            return out
        blob = report.read_bytes()
        out.outputs = _digests({"report.json": blob})
        doc = json.loads(blob)
        reports = doc["reports"]
        out.evals = sum(int(rep["trials"]) for rep in reports)
        out.checks_failed = sum(1 for rep in reports if not rep["passed"])
        all_passed = out.checks_failed == 0
        out.status = "passed" if all_passed else "failed"
        out.solved = all_passed and bool(reports)
        for rep in reports:
            if rep["passed"] != (rep["failures"] == 0):
                out.problems.append(f"{rep['lemma']}: pass flag disagrees "
                                    "with its failure count")
        if doc["all_passed"] != all_passed or (code == 0) != all_passed:
            out.problems.append(f"all_passed={doc['all_passed']} and exit "
                                f"code {code} disagree with the reports")
        return out


WORKLOADS = {w.name: w for w in (Grid(), Rank1Overfit(), VerifySuite())}

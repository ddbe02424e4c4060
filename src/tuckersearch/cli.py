"""Command-line front ends: generate problem instances, run the
decomposition search, and execute the verification suite.

All JSON outputs are byte-reproducible for fixed arguments and seed;
anything time-dependent goes to a separate metadata file so the main
artifacts can be compared directly.

`verify` runs its checks on one process per available CPU, at most one
per check: the CLI process and workers it forks.  Its report is byte
for byte that of a serial `run_suite`, which stays serial for library
callers, and a check's exception ends the command as it would serially.
Without os.fork, on one CPU, or in a process that already runs more
than one thread (a BLAS library's threads included), the checks run in
the CLI process alone.

Exit codes: 0 converged or success, 1 verification failure, 2 budget
exhausted, 3 no improving direction above the target, 4 input error (a
usage error included) or a run whose objective became non-finite.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import pickle
import sys
import time

import numpy as np

from .objective import save_point
from .search import NonFiniteError, SearchConfig, run
from .tensor_core import (load_tensor, multilinear_transform, norm_f,
                          random_point, save_tensor_binary, save_tensor_json)
from .verify import CHECKS, suite_streams, suite_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_NO_DIRECTION = 3
EXIT_INPUT = 4

_STATUS_EXIT = {"converged": EXIT_OK, "budget": EXIT_BUDGET,
                "no_direction": EXIT_NO_DIRECTION}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _write_failed(exc: OSError) -> int:
    return _fail(f"cannot write output: {exc}")


def _missing_directory(path) -> str | None:
    """The error for an output path whose directory does not exist."""
    out_dir = os.path.dirname(path) or "."
    if not os.path.isdir(out_dir):
        return f"output directory {out_dir} does not exist"
    return None


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    r, d = args.rank, args.dim
    if r < 1 or d < 1:
        return _fail(f"rank and dim must be positive, got {r}, {d}")
    if r > d:
        return _fail(f"rank {r} exceeds dimension {d}")
    if not (np.isfinite(args.noise) and args.noise >= 0):
        return _fail(f"noise must be finite and nonnegative, got {args.noise}")
    if args.seed < 0:
        return _fail("seed must be nonnegative")
    rng = np.random.default_rng(args.seed)
    truth = random_point(r, d, rng)
    T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
    nt = norm_f(T)
    if nt < 1e-12:
        return _fail("degenerate draw, reconstruction is numerically zero")
    T = T / nt
    if args.noise > 0:
        G = rng.standard_normal((d, d, d))
        T = T + (args.noise / norm_f(G)) * G
    meta = {"r": r, "d": d, "seed": args.seed, "noise": args.noise,
            "exact": args.noise == 0.0}
    try:
        if args.binary:
            save_tensor_binary(args.out, T)
            _write_json(args.out + ".meta.json", meta)
        else:
            save_tensor_json(args.out, T, meta)
    except OSError as exc:
        return _write_failed(exc)
    print(f"wrote {args.out}: d={d} rank {r} norm {norm_f(T):.6f} "
          f"exact={meta['exact']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose


def _load_config(args) -> dict:
    """Config keys from the --config file, overridden by explicit flags:
    SearchConfig fields plus the CLI's own out (the output prefix)."""
    doc = {}
    if args.config is not None:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
    known = {f.name for f in dataclasses.fields(SearchConfig)} | {"out"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    # each flag's dest is the key it sets
    for key in known:
        v = getattr(args, key, None)
        if v is not None:
            doc[key] = v
    return doc


def cmd_decompose(args) -> int:
    try:
        doc = _load_config(args)
        T, meta = load_tensor(args.tensor)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if T.shape[0] != T.shape[1] or T.shape[0] != T.shape[2]:
        return _fail(f"tensor must be cubical, got shape {T.shape}")
    d = T.shape[0]
    out = doc.pop("out", "run")
    if doc.get("r") is None:
        meta_r = meta.get("r")
        if meta_r is None:
            return _fail("rank not given and tensor metadata has none; "
                         "pass --rank")
        doc["r"] = meta_r
    try:
        cfg = SearchConfig(**doc)
    except (ValueError, TypeError) as exc:
        return _fail(str(exc))
    if cfg.r > d:
        return _fail(f"rank {cfg.r} exceeds tensor dimension {d}")
    if not isinstance(out, str):
        return _fail(f"out must be a path prefix, got {out!r}")
    # a missing output directory is found before the search, not after it
    missing = _missing_directory(out)
    if missing:
        return _fail(missing)

    restarts = args.restarts
    results = []
    for i in range(restarts):
        sub = dataclasses.replace(cfg, seed=cfg.seed + i)
        prefix = out if restarts == 1 else f"{out}-{i}"
        try:
            result = run(T, sub)
        except (ValueError, NonFiniteError) as exc:
            return _fail(str(exc))
        status = result.status.replace("_", "-")
        try:
            save_point(prefix + ".factors.json", result.point)
            result.trace.to_jsonl(prefix + ".trace.jsonl")
            _write_json(prefix + ".summary.json", {
                "status": status,
                "f": result.f,
                "L": result.L,
                "R": result.R,
                "grad_evals": result.grad_evals,
                "objective_evals": result.objective_evals,
                "rounds": result.rounds,
                "config": dataclasses.asdict(sub),
            })
            _write_json(prefix + ".meta.json", {
                "wall_time": result.wall_time,
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            })
        except OSError as exc:
            return _write_failed(exc)
        results.append((result, prefix))
        print(f"restart {i}: status={status} f={result.f:.6e} "
              f"grad_evals={result.grad_evals} -> {prefix}.*")
    best = min(results, key=lambda pair: pair[0].f)
    if restarts > 1:
        print(f"best: {best[1]}.* f={best[0].f:.6e} "
              f"status={best[0].status.replace('_', '-')}")
    return _STATUS_EXIT[best[0].status]


# ---------------------------------------------------------------------------
# verify


# Checks by serial time, longest first, so the longest starts at once and
# the short ones fill in behind it: anti-concentration takes 43% of a suite
# (33 of 77 ms), then sublevel 11, wedin 8.6, orthogonality 7.8,
# saddle-gallery 6.2, euler 5.0, submultiplicativity 3.6 and
# core-lower-bound 1.7 ms (medians over suite seeds 0-39, BLAS at one
# thread, 2-core x86-64).  A check not listed goes last.
_LONGEST_FIRST = ("anti-concentration", "sublevel", "wedin", "orthogonality",
                  "saddle-gallery", "euler", "submultiplicativity",
                  "core-lower-bound")


def _thread_count() -> int:
    """Threads of this process, a BLAS library's own included where the
    system lists them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading
        return threading.active_count()


def _worker_count(checks: int) -> int:
    """Processes to fork beside this one: one per further available CPU
    and at most one per further check.  None without os.fork or in a
    process that already runs more than one thread, since forking a
    threaded process is unsafe."""
    if not hasattr(os, "fork") or _thread_count() > 1:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every system with fork has it
        cpus = os.cpu_count() or 1
    return min(cpus, checks) - 1


def _outcome(name, rng):
    """A check's reports, or the exception it raised."""
    try:
        return CHECKS[name](rng)
    except Exception as exc:  # raised in names order once all are reaped
        return exc


def _drain(queue: int, checks: list) -> dict:
    """Run the checks whose indices this process takes from the queue
    pipe, one byte each, until it is empty: {index: outcome}."""
    done = {}
    while taken := os.read(queue, 1):
        done[taken[0]] = _outcome(*checks[taken[0]])
    return done


def _worker(queue: int, checks: list, out: int, inherited) -> None:
    """A forked worker: drain the queue and send the pickled outcomes
    through `out`.  It never returns and writes nothing to stdout or
    stderr; an outcome it cannot send is run again by the parent."""
    try:
        for fd in inherited:
            os.close(fd)
        blob = pickle.dumps(_drain(queue, checks))
        with open(out, "wb") as fh:
            fh.write(blob)
    finally:
        os._exit(0)


def _run_checks(streams: dict) -> list:
    """The reports of `run_suite` over the streams of `suite_streams`,
    byte for byte, from one process per available CPU: this process and
    its forked workers take check indices, longest first, from one queue
    pipe, and the workers send their outcomes back over a pipe each.
    Every worker is reaped before this returns or raises; then the first
    exception in names order, if any, is raised as a serial run would."""
    checks = list(streams.items())
    rank = {name: i for i, name in enumerate(_LONGEST_FIRST)}
    order = sorted(range(len(checks)),
                   key=lambda i: rank.get(checks[i][0], len(rank)))
    queue, feed = os.pipe()
    os.write(feed, bytes(order))
    os.close(feed)
    workers = {}
    try:
        for _ in range(_worker_count(len(checks))):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the others do the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _worker(queue, checks, write, [read, *workers.values()])
            os.close(write)
            workers[pid] = read
        done = _drain(queue, checks)
        for read in workers.values():
            with open(read, "rb", closefd=False) as fh:
                blob = fh.read()
            if blob:
                done.update(pickle.loads(blob))
    finally:
        os.close(queue)
        for pid, read in workers.items():
            os.close(read)
            os.waitpid(pid, 0)
    reports = []
    for i, check in enumerate(checks):
        if i not in done:  # its worker ended without sending it
            done[i] = _outcome(*check)
        if isinstance(done[i], Exception):
            raise done[i]
        reports.extend(done[i])
    return reports


def cmd_verify(args) -> int:
    names = None
    if args.checks is not None:
        names = [s for s in args.checks.split(",") if s]
    # as in decompose, a missing output directory fails before any check
    missing = args.out is not None and _missing_directory(args.out)
    if missing:
        return _fail(missing)
    try:
        reports = _run_checks(suite_streams(args.seed, names))
    except ValueError as exc:
        return _fail(str(exc))
    payload = suite_to_json(reports)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
                fh.write("\n")
        except OSError as exc:
            return _write_failed(exc)
    for rep in reports:
        flag = "pass" if rep.passed else "FAIL"
        print(f"[{flag}] {rep.lemma}: trials={rep.trials} "
              f"failures={rep.failures} worst_margin={rep.worst_margin:.3e}")
    ok = all(r.passed for r in reports)
    print("all checks passed" if ok else "some checks FAILED")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT: argparse's 2 means budget here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it unchanged, so it is
    built once."""
    parser = _Parser(
        prog="tuckersearch",
        description="Tucker decomposition by regularized local search")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random exact-rank instance")
    g.add_argument("--rank", type=int, required=True)
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=float, default=0.0,
                   help="additive noise with this Frobenius norm")
    g.add_argument("--out", default="tensor.json")
    g.add_argument("--binary", action="store_true",
                   help="write the binary format with a sidecar meta file")
    g.set_defaults(func=cmd_generate)

    dp = sub.add_parser("decompose", help="run the search on a tensor file")
    dp.add_argument("tensor")
    dp.add_argument("--config", help="JSON file with SearchConfig fields "
                    "plus out; explicit flags take precedence")
    dp.add_argument("--rank", dest="r", type=int, metavar="RANK")
    dp.add_argument("--lambda", dest="lam", type=float)
    dp.add_argument("--epsilon", type=float,
                    help="relative target: converged when f <= epsilon "
                    "|T|^2")
    dp.add_argument("--seed", type=int)
    dp.add_argument("--budget", type=int)
    dp.add_argument("--init", help="zero | hosvd | random:<scale>, the "
                    "scale relative to the unit-norm target")
    dp.add_argument("--out", help="output path prefix")
    dp.add_argument("--restarts", type=int, default=1,
                    help="independent runs with per-restart seeds")
    dp.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="run the lemma verification suite")
    v.add_argument("--checks", help="comma-separated subset of checks")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", help="write the JSON report here")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "restarts", 1) < 1:
        return _fail("restarts must be positive")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

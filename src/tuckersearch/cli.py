"""Command-line front ends: generate problem instances, run the
decomposition search, and execute the verification suite.

All JSON outputs are byte-reproducible for fixed arguments and seed;
anything time-dependent goes to a separate metadata file so the main
artifacts can be compared directly.

Exit codes: 0 converged or success, 1 verification failure, 2 budget
exhausted, 3 no improving direction above the target, 4 input error (a
usage error included) or a run whose objective became non-finite.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .objective import save_point
from .search import NonFiniteError, SearchConfig, run
from .tensor_core import (load_tensor, multilinear_transform, norm_f,
                          random_point, save_tensor_binary, save_tensor_json)
from .verify import run_suite, suite_to_json

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
        T, meta = load_tensor(args.tensor, with_meta=True)
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
        cfg.validate()
    except (ValueError, TypeError) as exc:
        return _fail(str(exc))
    if cfg.r > d:
        return _fail(f"rank {cfg.r} exceeds tensor dimension {d}")
    if not isinstance(out, str):
        return _fail(f"out must be a path prefix, got {out!r}")
    # a missing output directory is found before the search, not after it
    out_dir = os.path.dirname(out) or "."
    if not os.path.isdir(out_dir):
        return _fail(f"output directory {out_dir} does not exist")

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


def cmd_verify(args) -> int:
    names = None
    if args.checks is not None:
        names = [s for s in args.checks.split(",") if s]
    try:
        reports = run_suite(seed=args.seed, names=names)
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


def build_parser() -> argparse.ArgumentParser:
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
    dp.add_argument("--epsilon", type=float)
    dp.add_argument("--seed", type=int)
    dp.add_argument("--budget", type=int)
    dp.add_argument("--init", help="zero | hosvd | random:<scale>")
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

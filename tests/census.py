"""Gradient evaluations and statuses of the census sets.

Run from the repository root as

    PYTHONPATH=src python tests/census.py [SET ...] [--fingerprint OUT]
    PYTHONPATH=src python tests/census.py --compare A B

It prints one line per set (runs, gradient evaluations, objective values,
statuses) and the total, and the start set also by init.  With set names
it runs only those.  `--fingerprint OUT` also writes every run's counts,
final f and digests to OUT, and `--compare A B` lists the runs that
differ between two such files, exiting 1 if any does, and ends with a
tally of the kinds of change and the largest relative change of each
set's final f (see fingerprints.py).
The counts repeat exactly for a given BLAS build and thread count; BLAS
is pinned to one thread unless the environment says otherwise, as the
README's tables were measured.  The sets:

  desk          the exact desk targets, (r, d) in (2, 8), (3, 16), (4, 24),
                seeds 0-2, from the zero start;
  noisy-desk    the same with noise of norm 5e-2;
  x100          the desk targets times 100;
  scale-table   the desk shapes' seed-0 targets at norms 1, 10, 1e2, 1e3;
  start-set     the exact targets of shapes (1, 3), (2, 4), (2, 6), (3, 5),
                (4, 6), seeds 0-2, from five inits, budget 20,000;
  criterion-05  the desk targets at (2, 8), seeds 0-19;
  grid          the 36 perfbench `grid` cells of seeds 1-3, through
                `tuckersearch decompose --init zero`;
  rank-1        the 60 perfbench `rank1-overfit` targets of seed 1;
  landscape     the exact targets at r = 1-5, d in {r, r+1, 2r, 3r+2},
                seeds 0-3, from six inits (zero, hosvd, random:1e-3,
                random:0.5, random:10, random:100), budget 20,000: 456
                runs.  It is not among the sets run without names;
  verify        the reports of `verify.run_suite` for suite seeds 0-199,
                one line per (seed, check): 2,400 lines, with no
                gradient evaluations.  It too runs only by name.

It is not a test: pytest does not collect it, and the tier-1 guards on
these sets live in test_search.py and test_acceptance.py.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import fingerprints  # noqa: E402
from instances import (desk_instance, exact_instance,  # noqa: E402
                       noisy_desk_instance)
from tuckersearch import cli, tensor_core  # noqa: E402
from tuckersearch.objective import load_point  # noqa: E402
from tuckersearch.search import SearchConfig, run  # noqa: E402
from tuckersearch.verify import run_suite  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench  # noqa: E402

DESK_SHAPES = ((2, 8), (3, 16), (4, 24))
START_SHAPES = ((1, 3), (2, 4), (2, 6), (3, 5), (4, 6))
START_INITS = ("zero", "hosvd", "random:1e-3", "random:0.5", "random:10")
LANDSCAPE_INITS = START_INITS + ("random:100",)


def _fingerprint(status, grad_evals, objective_evals, rounds, f, point,
                 trace):
    """A run's fields in a fingerprint file, from its final f and point
    and the bytes of its trace."""
    return {"status": status, "grad_evals": grad_evals,
            "objective_evals": objective_evals, "rounds": rounds, "f": f,
            "point_sha256": fingerprints.digest(point.flat.tobytes()),
            "trace_sha256": fingerprints.digest(trace)}


def _solve(T, **config):
    res = run(T, SearchConfig(**config))
    with tempfile.TemporaryDirectory() as work:
        res.trace.to_jsonl(f"{work}/trace.jsonl")
        trace = Path(f"{work}/trace.jsonl").read_bytes()
    return _fingerprint(res.status, res.grad_evals, res.objective_evals,
                        res.rounds, res.f, res.point, trace)


def desk():
    for r, d in DESK_SHAPES:
        for seed in range(3):
            yield "", _solve(desk_instance(r, d, seed), r=r, seed=seed)


def noisy_desk():
    for r, d in DESK_SHAPES:
        for seed in range(3):
            yield "", _solve(noisy_desk_instance(r, d, seed, 5e-2), r=r,
                             seed=seed)


def x100():
    for r, d in DESK_SHAPES:
        for seed in range(3):
            yield "", _solve(100.0 * desk_instance(r, d, seed), r=r,
                             seed=seed)


def scale_table():
    for r, d in DESK_SHAPES:
        for scale in (1.0, 10.0, 1e2, 1e3):
            yield "", _solve(scale * desk_instance(r, d, 0), r=r)


def start_set():
    for r, d in START_SHAPES:
        for init in START_INITS:
            for seed in range(3):
                yield init, _solve(exact_instance(r, d, seed), r=r,
                                   seed=seed, budget=20_000, init=init)


def criterion_05():
    for seed in range(20):
        yield "", _solve(desk_instance(2, 8, seed), r=2, seed=seed,
                         budget=50_000, init="zero")


def grid():
    pkg = SimpleNamespace(tensor_core=tensor_core)
    with tempfile.TemporaryDirectory() as work:
        for seed in (1, 2, 3):
            for i, inst in enumerate(bench.Grid().setup(pkg, seed,
                                                        Path(work))):
                prefix = f"{work}/s{seed}-{i}"
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["decompose", inst.path, "--init", "zero",
                              "--out", prefix])
                with open(prefix + ".summary.json") as fh:
                    doc = json.load(fh)
                yield "", _fingerprint(
                    doc["status"].replace("-", "_"), doc["grad_evals"],
                    doc["objective_evals"], doc["rounds"], doc["f"],
                    load_point(prefix + ".factors.json"),
                    Path(prefix + ".trace.jsonl").read_bytes())


def rank_1():
    for inst in bench.Rank1Overfit().setup(None, 1, None):
        yield "", _solve(inst.T, r=inst.r, init="zero")


def landscape():
    for r in range(1, 6):
        for d in sorted({r, r + 1, 2 * r, 3 * r + 2}):
            for seed in range(4):
                for init in LANDSCAPE_INITS:
                    yield init, _solve(exact_instance(r, d, seed), r=r,
                                       seed=seed, budget=20_000, init=init)


def verify():
    for seed in range(200):
        for report in run_suite(seed):
            yield "", fingerprints.report_fields(seed, report.to_json_dict())


SETS = {"desk": desk, "noisy-desk": noisy_desk, "x100": x100,
        "scale-table": scale_table, "start-set": start_set,
        "criterion-05": criterion_05, "grid": grid, "rank-1": rank_1,
        "landscape": landscape, "verify": verify}
# the sets run when none is named
DEFAULT_SETS = tuple(name for name in SETS
                     if name not in ("landscape", "verify"))


def compare(path_a, path_b) -> int:
    a, b = fingerprints.read(path_a), fingerprints.read(path_b)
    lines = fingerprints.compare(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(a.keys() | b.keys())} runs differ")
    for line in fingerprints.tally(a, b):
        print(line)
    return int(bool(lines))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="The census sets.")
    parser.add_argument("sets", nargs="*", metavar="SET")
    parser.add_argument("--fingerprint", metavar="OUT")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    names = args.sets
    unknown = sorted(set(names) - set(SETS))
    if unknown:
        print(f"unknown sets {unknown}; known: {', '.join(SETS)}",
              file=sys.stderr)
        return 2
    total = Counter()
    runs = []
    for name in names or DEFAULT_SETS:
        tally, parts = Counter(), {}
        for index, (part, fp) in enumerate(SETS[name]()):
            grads = fp.get("grad_evals", 0)
            tally.update(runs=1, grads=grads,
                         values=fp.get("objective_evals", 0))
            tally[fp["status"]] += 1
            if part:
                parts[part] = parts.get(part, 0) + grads
            runs.append(dict(fp, set=name, index=index))
        statuses = ", ".join(f"{k} {v}" for k, v in sorted(tally.items())
                             if k not in ("runs", "grads", "values"))
        print(f"{name:13s} {tally['runs']:3d} runs  {tally['grads']:6,d} "
              f"gradient evaluations  {tally['values']:9,d} objective "
              f"values  {statuses}")
        for part, grads in parts.items():
            print(f"  {part:11s} {grads:6,d}")
        total.update(runs=tally["runs"], grads=tally["grads"])
    print(f"{'total':13s} {total['runs']:3d} runs  {total['grads']:6,d} "
          "gradient evaluations")
    if args.fingerprint:
        fingerprints.write(args.fingerprint, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

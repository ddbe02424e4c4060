"""tuckersearch benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Workloads (see bench.py): grid, rank1-overfit, verify-suite.  The program
is imported from ``src/`` next to this directory, never from an installed
copy; without it the benchmark exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` cycles over the workload's fixed trace set and runs every
instance twice, once plain and once with the outside-in tracer installed,
in alternating order, and reports the per-layer metrics of layers.py
together with the tracing overhead.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it records the environment.  Per-instance records and the
spans of a traced run are written under .perfbench/ in the checkout.
"""
import os

# BLAS must be pinned before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
# Iterations per second of reference_rate's loop on the machine the bounds
# were tuned on (2-core x86-64 container, OpenBLAS pinned to one thread).
REFERENCE_RATE = 3.5e4
# The same for interpreter_rate's loop.
INTERPRETER_RATE = 1.5e4
UNITS = {"solved_frac": "frac", "status_ok_frac": "frac",
         "solve_s_mean": "s", "instances_per_s": "1/s", "evals_mean": "count",
         "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import the package from this checkout's src/ and nothing else."""
    src = ROOT / "src"
    if not (src / "tuckersearch" / "__init__.py").is_file():
        raise ImportError(f"no tuckersearch package under {src}")
    sys.path.insert(0, str(src))
    pkg = types.SimpleNamespace()
    for name in ("tensor_core", "objective", "subspace", "escape", "search",
                 "verify", "cli"):
        setattr(pkg, name, importlib.import_module(f"tuckersearch.{name}"))
    origin = Path(pkg.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"tuckersearch came from {origin}, not {src}")
    return pkg


def interpreter_rate(seconds: float) -> float:
    """Iterations per second, over `seconds`, of a fixed pure-Python loop.
    Set-up is interpreter work (module loading, file writes), which this
    loop tracks where reference_rate's numpy loop does not."""
    t0 = time.perf_counter()
    n = 0
    while True:
        sum(i * i for i in range(1000))
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


def interpreter_scaled(call, probe_s: float = 0.03):
    """(value of call(), its seconds at INTERPRETER_RATE): the time scaled
    by the interpreter speed sampled just before and just after it."""
    before = interpreter_rate(probe_s)
    t0 = time.perf_counter()
    value = call()
    seconds = time.perf_counter() - t0
    speed = (before + interpreter_rate(probe_s)) / 2 / INTERPRETER_RATE
    return value, seconds * speed


def import_seconds() -> float:
    """Time of a first import of the package (numpy included) in a fresh
    interpreter, scaled there to INTERPRETER_RATE."""
    code = "\n".join([
        "import importlib, time",
        inspect.getsource(interpreter_rate),
        inspect.getsource(interpreter_scaled),
        f"INTERPRETER_RATE = {INTERPRETER_RATE!r}",
        "_, s = interpreter_scaled(lambda: importlib.import_module("
        "'tuckersearch.cli'))",
        "print(s)"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120,
                           check=True)
    return float(child.stdout)


def environment(load_start) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg()}


def attempt(workload, pkg, inst, prefix, tracer=None, install=None):
    """One instance; an exception from the program is a failed outcome."""
    from bench import Outcome
    try:
        return workload.solve(pkg, inst, prefix, tracer, install)
    except Exception as exc:  # noqa: BLE001 - the loop must keep running
        out = Outcome(prefix.name, workload.kind, 0.0)
        out.problems.append(f"{type(exc).__name__}: {exc}")
        return out


def reference_rate(seconds: float) -> float:
    """Iterations per second, over `seconds`, of a fixed loop shaped like
    one objective evaluation: a 3x3x3 core taken to 16x16x16 by three
    mode contractions, then the squared norm of its difference from a
    fixed tensor.  It uses numpy only, never the program."""
    import numpy as np
    S = np.linspace(-1.0, 1.0, 27).reshape(3, 3, 3)
    A = np.linspace(-1.0, 1.0, 48).reshape(3, 16)
    T = np.linspace(-1.0, 1.0, 16 ** 3).reshape(16, 16, 16)
    n = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(10):
            X = np.tensordot(S, A, axes=([0], [0]))
            X = np.tensordot(X, A, axes=([0], [0]))
            X = np.tensordot(X, A, axes=([0], [0]))
            R = (X - T).ravel()
            float(np.dot(R, R))
        n += 10
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


def setup_times(workload, pkg, seed, work):
    """(instances, fresh import seconds, set-up seconds), each timed
    several times and scaled to INTERPRETER_RATE."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        instances, seconds = interpreter_scaled(
            lambda: workload.setup(pkg, seed, work))
        setups.append(seconds)
    return instances, imports, setups


def measure(workload, pkg, instances, block, seconds, work, traced=None):
    """Closed loop over the instances until `seconds` have passed, stopping
    only at a boundary of `block` instances, so a run measures whole blocks
    whatever the machine's speed.  With a tracer every instance runs plain
    and traced, alternating which goes first.

    Before each instance a short reference loop samples how fast the
    machine runs just then.  Returns (plain, traced, busy seconds without
    the samples, machine speed = mean sampled rate / REFERENCE_RATE).  The
    mean is over sampled time: the machine switches between a fast and a
    slow rate, and a median of such samples jumps between the two.
    """
    plain, with_tracer, rates = [], [], []
    probe_s, probe_total = 0.02, 0.0
    probe_iters = 0.0
    t0 = time.perf_counter()
    k = 0
    while k % block or time.perf_counter() - t0 < seconds:
        inst = instances[k % len(instances)]
        prefix = work / f"{k:04d}-{inst.id}"
        t_probe = time.perf_counter()
        rate = reference_rate(probe_s)
        t_probe = time.perf_counter() - t_probe
        rates.append(rate)
        probe_total += t_probe
        probe_iters += rate * t_probe
        if traced is None:
            plain.append(attempt(workload, pkg, inst, prefix))
        else:
            # same prefix for both: the CLI records it in summary.json
            tracer, install = traced
            runs = [(plain, None), (with_tracer, tracer)]
            for sink, tr in runs if k % 2 == 0 else runs[::-1]:
                sink.append(attempt(workload, pkg, inst, prefix, tr, install))
        # sample for about 5% of an instance's time
        probe_s = min(max(0.05 * plain[-1].seconds, 0.02), 0.25)
        k += 1
    busy = time.perf_counter() - t0 - probe_total
    return (plain, with_tracer, busy,
            probe_iters / probe_total / REFERENCE_RATE, rates)


def end_to_end(outcomes, busy, setup_s, speed=1.0) -> dict:
    """End-to-end metrics; solve times are scaled by the machine speed
    measured in the same run, i.e. given at REFERENCE_RATE; setup_s comes
    scaled to INTERPRETER_RATE."""
    good = [o for o in outcomes if not o.failed]
    sample = good or outcomes
    n = len(outcomes)
    return {
        "solved_frac": len(good) / n,
        "status_ok_frac": 1.0 - sum(o.false_converged for o in outcomes) / n,
        "solve_s_mean": statistics.fmean(o.seconds for o in sample) * speed,
        "instances_per_s": len(good) / (busy * speed),
        "evals_mean": statistics.fmean(o.evals for o in sample),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_start = os.getloadavg()

    t_import = time.perf_counter()
    try:
        pkg = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import bench
    import layers
    import tracer as tracing
    import_s = time.perf_counter() - t_import

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        instances, import_times, set_times = setup_times(
            workload, pkg, args.seed, work)

        problems = []
        if args.trace:
            tracer = tracing.Tracer()
            trace_set = instances[:workload.trace_set]
            plain, traced, busy, speed, rates = measure(
                workload, pkg, trace_set, len(trace_set), args.seconds, work,
                traced=(tracer, lambda tr: tracing.install(tr, pkg)))
            outcomes = traced
            for p, t in zip(plain, traced):
                if p.outputs != t.outputs:
                    problems.append(f"{t.instance}: tracing changed the "
                                    "outputs")
                if t.kind == "solve":
                    problems += layers.reconcile(tracer, t)
            metrics = layers.layer_metrics(tracer, traced, plain,
                                           len(trace_set))
            units = {k: v[0] for k, v in layers.LAYER_METRICS.items()}
        else:
            outcomes, _, busy, speed, rates = measure(
                workload, pkg, instances, workload.block, args.seconds, work)
            setup_s = statistics.median(import_times) + statistics.median(
                set_times)
            metrics = end_to_end(outcomes, busy, setup_s, speed)
            units = UNITS
            # outside the timed phase: the first instance again, same bytes
            again = attempt(workload, pkg, instances[0],
                            work / outcomes[0].instance)
            if again.outputs != outcomes[0].outputs or not again.outputs:
                problems.append(f"{outcomes[0].instance}: a rerun did not "
                                "reproduce the outputs byte for byte")

        env = environment(load_start)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"environment": env, "busy_s": busy, "speed": speed,
                  "reference_rates": rates,
                  "setup_times_s": set_times, "import_s": import_s,
                  "fresh_import_s": import_times,
                  "problems": problems, "metrics": metrics,
                  "outcomes": [o.record() for o in outcomes]}
        (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            with open(out_dir / f"{tag}.spans.jsonl", "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s))
                    fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for o in outcomes:
        for p in o.problems:
            print(f"{o.instance}: {p}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own arithmetic: means, medians and failures,
span self times, and the gradient-evaluation reconciliation.

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import self_times  # noqa: E402


def _outcome(seconds, evals, solved=True, false_converged=False):
    return bench.Outcome("x", "solve", seconds, status="converged",
                         solved=solved, false_converged=false_converged,
                         evals=evals)


# -- means and failures -----------------------------------------------------


def test_end_to_end_means_exclude_failures():
    outs = [_outcome(1.0, 10), _outcome(3.0, 30), _outcome(2.0, 20),
            _outcome(0.0, 0, solved=False, false_converged=True)]
    m = run.end_to_end(outs, busy=8.0, setup_s=0.5)
    assert m["solve_s_mean"] == 2.0
    assert m["evals_mean"] == 20.0
    assert m["solved_frac"] == 0.75
    assert m["status_ok_frac"] == 0.75
    assert m["instances_per_s"] == 3 / 8.0


def test_end_to_end_two_solves_and_all_failed():
    m = run.end_to_end([_outcome(1.0, 10), _outcome(2.0, 40)], 3.0, 0.1)
    assert m["solve_s_mean"] == 1.5
    assert m["evals_mean"] == 25.0
    failed = [_outcome(4.0, 7, solved=False), _outcome(6.0, 9, solved=False)]
    m = run.end_to_end(failed, 10.0, 0.1)
    # with nothing solved the means fall back to every attempt
    assert m["solve_s_mean"] == 5.0
    assert m["solved_frac"] == 0.0 and m["instances_per_s"] == 0.0


def test_end_to_end_scales_times_by_machine_speed():
    outs = [_outcome(2.0, 10), _outcome(4.0, 10)]
    slow = run.end_to_end(outs, busy=6.0, setup_s=1.0, speed=0.5)
    assert slow["solve_s_mean"] == pytest.approx(1.5)
    assert slow["instances_per_s"] == pytest.approx(2 / 3.0)
    # set-up is not scaled
    assert slow["setup_s"] == 1.0
    assert slow["evals_mean"] == 10.0


def test_reference_rates_are_positive_and_finite():
    assert 0 < run.reference_rate(0.01) < float("inf")
    assert 0 < run.interpreter_rate(0.01) < float("inf")
    value, seconds = run.interpreter_scaled(lambda: 7, 0.01)
    assert value == 7 and 0 <= seconds < 1.0


class _Quick:
    """Workload stand-in whose instances take no time."""
    kind = "solve"

    def solve(self, pkg, inst, prefix, tracer=None, install=None):
        return bench.Outcome(prefix.name, self.kind, 0.0, solved=True)


def test_measure_stops_only_at_a_block_boundary(tmp_path):
    insts = [bench.Instance(f"i{k}") for k in range(5)]
    plain, _, _, speed, rates = run.measure(_Quick(), None, insts, 3, 0.05,
                                            tmp_path)
    assert len(plain) % 3 == 0 and len(plain) >= 3
    assert speed > 0 and len(rates) == len(plain)
    # each speed sample takes at least 20 ms, so 0.05 s pass after three
    # instances; the run still completes its block of seven
    plain, *_ = run.measure(_Quick(), None, insts, 7, 0.05, tmp_path)
    assert len(plain) == 7
    assert [o.instance[5:] for o in plain] == [f"i{k % 5}" for k in range(7)]


def test_traced_measure_runs_whole_passes_plain_and_traced(tmp_path):
    insts = [bench.Instance(f"i{k}") for k in range(4)]
    tr = tracing.Tracer()
    plain, traced, *_ = run.measure(_Quick(), None, insts, len(insts), 0.05,
                                    tmp_path, traced=(tr, lambda t: None))
    assert len(plain) == len(traced) and len(traced) % len(insts) == 0
    assert [o.instance for o in plain] == [o.instance for o in traced]


def test_problem_makes_an_instance_fail():
    out = _outcome(1.0, 10)
    assert not out.failed
    out.problems.append("reported loss disagrees")
    assert out.failed


# -- self time ---------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, "i"]


def test_self_time_subtracts_children():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 5.0, 6.0, 0),
             _span("c", 2.0, 3.0, 1)]
    st = self_times(spans)
    assert st == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 5.0, 0),
             _span("b", 4.0, 7.0, 0),
             _span("c", 9.0, 12.0, 0)]
    # covered: [1, 7] and [9, 10] -> 7
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_filter_folds_dropped_layers_into_caller():
    spans = [_span("stage", 0.0, 10.0, -1),
             _span("call", 1.0, 9.0, 0),       # dropped layer
             _span("stage", 2.0, 5.0, 1)]      # nested stage under it
    st = self_times(spans, keep=lambda s: s[0] == "stage")
    assert set(st) == {0, 2}
    assert st[0] == pytest.approx(7.0)
    assert st[2] == pytest.approx(3.0)


# -- reconciliation ----------------------------------------------------------


def test_reconcile_counts_hvp_twice():
    tr = tracing.Tracer()
    tr.site_calls.update({("k", "search.grad"): 3180,
                          ("k", "search.hvp"): 110,
                          ("k", "search._rebalance_once"): 14,
                          ("k", "objective.grad"): 220})
    out = bench.Outcome("k", "solve", 1.0, evals=3414)
    assert layers.reconcile(tr, out) == []
    out.evals = 3415
    assert len(layers.reconcile(tr, out)) == 1


@pytest.fixture(scope="module")
def pkg():
    return run.import_program()


def test_wrappers_reconcile_a_real_run_and_restore_bindings(pkg):
    search = pkg.search
    original = (search.grad, search.objective, pkg.escape.objective,
                pkg.verify.CHECKS["euler"],
                pkg.tensor_core.FactorPoint.__dict__["__post_init__"])
    rng = np.random.default_rng(0)
    T = bench.tucker_tensor(rng, 1, 3)
    tr = tracing.Tracer()
    result, _ = bench._timed(
        lambda: search.run(T, search.SearchConfig(r=1, seed=0)), tr,
        "tiny", lambda t: tracing.install(t, pkg))
    out = bench.Outcome("tiny", "solve", 0.0, evals=result.grad_evals,
                        objective_evals=result.objective_evals)
    assert result.grad_evals > 0
    assert layers.reconcile(tr, out) == []
    assert (search.grad, search.objective, pkg.escape.objective,
            pkg.verify.CHECKS["euler"],
            pkg.tensor_core.FactorPoint.__dict__["__post_init__"]) == original
    # spans nest inside the instance root and close in order
    roots = [s for s in tr.spans if s[tracing.PARENT] == -1]
    assert [s[tracing.NAME] for s in roots] == ["instance"]
    assert all(s[tracing.END] is not None for s in tr.spans)
    plain = bench.Outcome("tiny", "solve", 0.0, evals=result.grad_evals)
    out.seconds = plain.seconds = 1.0
    m = layers.layer_metrics(tr, [out], [plain], 1)
    assert set(m) == set(layers.LAYER_METRICS)
    shares = sum(m[f"search.{s}.share"] for s in layers.SEARCH_STAGES)
    assert shares + m["trace.unattributed_share"] == pytest.approx(1.0)


# -- oracle and declared metrics ---------------------------------------------


def test_oracle_relative_error_is_independent_of_the_package():
    rng = np.random.default_rng(1)
    S = rng.standard_normal((2, 2, 2))
    A, B, C = (rng.standard_normal((2, 5)) for _ in range(3))
    T = np.einsum("xyz,xi,yj,zk->ijk", S, A, B, C)
    assert bench.relative_error(S, A, B, C, T) == 0.0
    assert bench.relative_error(0 * S, A, B, C, T) == pytest.approx(1.0)


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        k: v[0] for k, v in layers.LAYER_METRICS.items()}
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = max(doc["end_to_end"], key=lambda m: m["bound"])
    assert setup["name"] == "setup_s"


def test_grid_order_mixes_cells_in_every_block():
    g = bench.Grid()
    n = len(g.SHAPES) * len(g.CELLS)
    kinds = [g.CELLS[i % len(g.CELLS)][0] for i in range(n)]
    shapes = [g.SHAPES[i % len(g.SHAPES)] for i in range(n)]
    assert g.block == n
    for b in range(0, n, len(g.CELLS)):
        assert sorted(kinds[b:b + 4]) == sorted(c[0] for c in g.CELLS)
    assert Counter(zip(shapes, kinds)) == Counter(
        {(s, c[0]): 1 for s in g.SHAPES for c in g.CELLS})
    # the traced cells hold every kind, the |T|=1e-2 cells among them
    traced = Counter(kinds[:g.trace_set])
    assert set(traced) == {c[0] for c in g.CELLS} and traced["small"] == 2


def test_failure_counts_are_per_pass_over_the_trace_set():
    tr = tracing.Tracer()
    outs = [_outcome(1.0, 0, solved=False, false_converged=True),
            _outcome(1.0, 0)] * 3
    m = layers.layer_metrics(tr, outs, outs, 2)
    assert m["search.false_converged_n"] == 1.0

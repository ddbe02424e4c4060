"""Per-layer metrics of a traced run, and the reconciliation checks.

Layers are the package modules.  Each metric is listed in LAYER_METRICS
with its unit and the end-to-end metric and workload it should move; the
per_layer list of BENCHMARK.json carries the same names and units.

Counts and self times are means per traced instance, and the two
failure counts are per pass over the trace set; per-call times and shares
pool every call or span of the run.  A layer a workload never reaches
reads 0.
"""
from __future__ import annotations

import statistics
from collections import Counter

from bench import DESCENT_KINDS
from tracer import END, INSTANCE, NAME, PARENT, START, VERIFY_PREFIX, \
    self_times

VERIFY_CHECKS = ("orthogonality", "euler", "sublevel", "core-lower-bound",
                 "submultiplicativity", "wedin", "anti-concentration",
                 "saddle-gallery")
SEARCH_STAGES = ("descent", "curvature", "rebalance", "escape")
# self time of search.run outside its descent spans is the escape stage:
# subspace split, candidate directions, sign-flip sweeps, step acceptance
STAGE_SPAN = {"descent": "search.descent", "curvature": "search.curvature",
              "rebalance": "search.rebalance", "escape": "search.run"}
STAGE_NAMES = frozenset({"instance", "cli.load_tensor", "cli.write_outputs",
                         *STAGE_SPAN.values(),
                         *(VERIFY_PREFIX + check for check in VERIFY_CHECKS)})
OBJECTIVE_LAYER = frozenset({"objective.objective", "objective.grad",
                             "objective.hvp"})

_G, _R, _V = "grid", "rank1-overfit", "verify-suite"
_GV = "grid (most) and verify-suite"
# search-policy metrics: a descent change moves them on grid only
_S = "grid, not rank1-overfit"
_EV = "evals_mean and solve_s_mean"

# name -> (unit, end-to-end metric it should move, on which workload)
LAYER_METRICS = {
    "tensor_core.multilinear_transform.calls": ("count", "solve_s_mean", _G),
    "tensor_core.multilinear_transform.us_per_call":
        ("us", "solve_s_mean", _G),
    "tensor_core.FactorPoint.constructions": ("count", "solve_s_mean", _G),
    "objective.objective.calls": ("count", "solve_s_mean", _GV),
    "objective.objective.us_per_call": ("us", "solve_s_mean", _GV),
    "objective.grad.calls": ("count", "solve_s_mean", _GV),
    "objective.grad.us_per_call": ("us", "solve_s_mean", _GV),
    "objective.hvp.calls": ("count", "solve_s_mean", _R),
    "objective.hvp.us_per_call": ("us", "solve_s_mean", _R),
    "objective.share": ("frac", "solve_s_mean", _GV),
    "subspace.subspace_split.calls": ("count", "none (under 1%)", _G),
    "subspace.subspace_split.us_per_call": ("us", "none (under 1%)", _G),
    **{name: (unit, "solve_s_mean", _R + " and verify-suite")
       for name, unit in (("escape.sign_flip_search.calls", "count"),
                          ("escape.sign_flip_search.ms_per_call", "ms"),
                          ("escape.objective_calls", "count"),
                          ("escape.accept_ratio", "frac"),
                          ("escape.no_missing_direction_n", "count"))},
    **{f"search.{stage}.self_s": ("s", _EV, _S) for stage in SEARCH_STAGES},
    **{f"search.{stage}.share": ("frac", _EV, _S)
       for stage in SEARCH_STAGES},
    "search.rounds": ("count", _EV, _S),
    "search.descent_stop.stationary": ("count", _EV, _S),
    "search.descent_stop.cap": ("count", _EV, _S),
    "search.descent_stop.budget": ("count", _EV, _S),
    "search.line_search.calls": ("count", _EV, _S),
    "search.line_search.backtracks_per_call": ("count", _EV, _S),
    "search.line_search.fail_frac": ("frac", _EV, _S),
    "search.curvature.hvp_per_call": ("count", _EV, _S),
    "search.objective_tally_gap": ("count", "none (a known tally defect)",
                                   _G),
    "search.false_converged_n": ("count", "status_ok_frac", _G),
    "cli.load_tensor_ms": ("ms", "solve_s_mean", _G),
    "cli.write_outputs_ms": ("ms", "solve_s_mean", _G),
    **{f"verify.{check}.s": ("s", "solve_s_mean", _V)
       for check in VERIFY_CHECKS},
    "verify.checks_failed": ("count", "solved_frac", _V),
    "trace.overhead_s": ("s", "none (tracing cost)", "all"),
    "trace.unattributed_share": ("frac", "none (tracing coverage)", "all"),
}


def reconcile(tracer, outcome) -> list[str]:
    """Problems found by matching the wrapped call counts of one traced
    solve against the grad_evals the program reported: one per gradient,
    two per Hessian-vector product, one per rebalance move."""
    calls = tracer.site_calls
    key = outcome.instance
    counted = (calls[(key, "search.grad")] + 2 * calls[(key, "search.hvp")]
               + calls[(key, "search._rebalance_once")])
    if counted != outcome.evals:
        return [f"wrapped calls account for {counted} gradient evaluations "
                f"but the program reported {outcome.evals}"]
    return []


def _mean_time(outcomes) -> float:
    """Mean seconds over the solved outcomes, as solve_s_mean takes it."""
    good = [o.seconds for o in outcomes if not o.failed]
    return statistics.fmean(good or [o.seconds for o in outcomes])


def layer_metrics(tracer, traced: list, untraced: list,
                  set_size: int) -> dict[str, float]:
    """Every LAYER_METRICS value from a traced run.

    ``traced`` and ``untraced`` are the outcomes of the same instances run
    with and without the tracer: whole passes over a trace set of
    ``set_size`` instances.
    """
    spans = tracer.spans
    n = max(len(traced), 1)
    passes = n / set_size
    count = Counter()
    busy = Counter()
    for s in spans:
        count[s[NAME]] += 1
        busy[s[NAME]] += s[END] - s[START]
    stage_self = Counter()
    for i, t in self_times(spans, keep=lambda s: s[NAME] in STAGE_NAMES
                           ).items():
        stage_self[spans[i][NAME]] += t
    total = busy["instance"] or 1.0

    def per_call(name, scale):
        return busy[name] / count[name] * scale if count[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def site_total(site):
        return sum(v for (_, s), v in tracer.site_calls.items() if s == site)

    leaf_calls = Counter()
    for (_, name), v in tracer.leaf_calls.items():
        leaf_calls[name] += v
    events = Counter()
    for (_, name), v in tracer.events.items():
        events[name] += v

    # outermost objective-layer spans: hvp's inner gradients are not
    # counted twice
    objective_busy = 0.0
    for i, s in enumerate(spans):
        if s[NAME] in OBJECTIVE_LAYER:
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in OBJECTIVE_LAYER:
                p = spans[p][PARENT]
            if p < 0:
                objective_busy += s[END] - s[START]
    # objective evaluations made inside each line search
    line_search_ids = {i for i, s in enumerate(spans)
                       if s[NAME] == "search.line_search"}
    line_search_evals = sum(1 for s in spans
                            if s[NAME] == "objective.objective"
                            and s[PARENT] in line_search_ids)
    objective_per_instance = Counter(s[INSTANCE] for s in spans
                                     if s[NAME] == "objective.objective")
    solves = [o for o in traced if o.kind == "solve"]
    accepted = sum(v for o in solves for k, v in o.steps.items()
                   if k not in DESCENT_KINDS)
    mlt = "tensor_core.multilinear_transform"

    m = {
        f"{mlt}.calls": leaf_calls[mlt] / n,
        f"{mlt}.us_per_call": ratio(tracer.leaf_time[mlt],
                                    leaf_calls[mlt]) * 1e6,
        "tensor_core.FactorPoint.constructions":
            leaf_calls["tensor_core.FactorPoint"] / n,
        "objective.share": objective_busy / total,
        "escape.objective_calls": site_total("escape.objective") / n,
        "escape.accept_ratio": ratio(accepted,
                                     site_total("search.subspace_split")),
        "escape.no_missing_direction_n": sum(
            v for (_, name, exc), v in tracer.errors.items()
            if name == "escape.sample_missing_directions"
            and exc == "NoMissingDirection") / n,
        "search.rounds": sum(o.rounds for o in solves) / n,
        "search.line_search.calls": count["search.line_search"] / n,
        "search.line_search.backtracks_per_call": ratio(
            line_search_evals - count["search.line_search"],
            count["search.line_search"]),
        "search.line_search.fail_frac": ratio(events["line_search.fail"],
                                              count["search.line_search"]),
        "search.curvature.hvp_per_call": ratio(site_total("search.hvp"),
                                               count["search.curvature"]),
        "search.objective_tally_gap": sum(
            o.objective_evals - objective_per_instance[o.instance]
            for o in solves) / n,
        "search.false_converged_n": sum(o.false_converged
                                        for o in traced) / passes,
        "cli.load_tensor_ms": busy["cli.load_tensor"] / n * 1e3,
        "cli.write_outputs_ms": busy["cli.write_outputs"] / n * 1e3,
        "verify.checks_failed": sum(o.checks_failed
                                    for o in traced) / passes,
        "trace.overhead_s": _mean_time(traced) - _mean_time(untraced),
        "trace.unattributed_share": stage_self["instance"] / total,
    }
    for name in ("objective", "grad", "hvp"):
        m[f"objective.{name}.calls"] = count[f"objective.{name}"] / n
        m[f"objective.{name}.us_per_call"] = per_call(f"objective.{name}",
                                                      1e6)
    m["subspace.subspace_split.calls"] = count["subspace.subspace_split"] / n
    m["subspace.subspace_split.us_per_call"] = per_call(
        "subspace.subspace_split", 1e6)
    m["escape.sign_flip_search.calls"] = count["escape.sign_flip_search"] / n
    m["escape.sign_flip_search.ms_per_call"] = per_call(
        "escape.sign_flip_search", 1e3)
    for reason in ("stationary", "cap", "budget"):
        m[f"search.descent_stop.{reason}"] = events[
            f"descent_stop.{reason}"] / n
    for stage, span in STAGE_SPAN.items():
        m[f"search.{stage}.self_s"] = stage_self[span] / n
        m[f"search.{stage}.share"] = stage_self[span] / total
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = busy[VERIFY_PREFIX + check] / n
    missing = set(LAYER_METRICS) ^ set(m)
    if missing:
        raise AssertionError(f"layer metrics out of step: {sorted(missing)}")
    return m

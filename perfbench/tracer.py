"""Outside-in tracing of the tuckersearch package.

Every module of the package imports its collaborators with
``from .x import y``, so a caller looks a function up in its own module's
namespace.  The tracer therefore replaces each module-level binding of a
function (``search.objective``, ``escape.objective``, ``verify.objective``,
...) with a wrapper and puts the originals back when it is uninstalled.
Nothing inside ``src/`` changes.

Two kinds of wrapper exist:

* span wrappers record ``(name, start, end, parent, instance)`` in memory,
  one span per call; they go on functions called at most a few tens of
  thousands of times per instance;
* counter wrappers only count calls and add up their time; they go on the
  hot leaves (``multilinear_transform``, ``FactorPoint`` construction),
  where one span per call would cost more than the call.

Per binding ("site", e.g. ``search.grad``) the tracer also counts calls per
instance, which is what the gradient-evaluation reconciliation needs: the
same ``grad`` is reached from ``search`` directly and from ``hvp`` inside
``objective``, and only the first kind is charged to the search budget
as one gradient evaluation.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

# span name, start, end, parent span index (-1 for a root), instance id
NAME, START, END, PARENT, INSTANCE = range(5)


def self_times(spans, keep=None) -> dict[int, float]:
    """Self time of each kept span: its duration minus the part of it that
    its child spans cover.

    ``keep`` selects the spans that take part (default: all).  A kept
    span's children are the kept spans whose nearest kept ancestor it is,
    so filtering out a layer folds that layer's time into its caller.
    Overlapping children are merged before subtracting, so no interval is
    subtracted twice.
    """
    kept = [i for i, s in enumerate(spans) if keep is None or keep(s)]
    kept_set = set(kept)
    children = defaultdict(list)
    for i in kept:
        p = spans[i][PARENT]
        while p >= 0 and p not in kept_set:
            p = spans[p][PARENT]
        if p >= 0:
            children[p].append((spans[i][START], spans[i][END]))
    out = {}
    for i in kept:
        start, end = spans[i][START], spans[i][END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (end - start) - covered
    return out


class Tracer:
    """Span and counter recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.instance = None
        self.site_calls: Counter = Counter()   # (instance, site) -> calls
        self.errors: Counter = Counter()       # (instance, name, exc) -> n
        self.leaf_calls: Counter = Counter()   # (instance, name) -> calls
        self.leaf_time: Counter = Counter()    # name -> seconds
        self.events: Counter = Counter()       # (instance, event) -> n
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.instance])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped})")

    def span_wrapper(self, name: str, site: str, fn, on_return=None):
        """Wrap fn so each call records a span; ``on_return(tracer, args,
        kwargs, result)`` runs after a normal return."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.site_calls[(self.instance, site)] += 1
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(self.instance, name, type(exc).__name__)] += 1
                raise
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(self, args, kwargs, out)
            return out
        return wrapped

    def counter_wrapper(self, name: str, fn):
        """Wrap fn so each call is counted and timed, without a span."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf_time[name] += time.perf_counter() - t0
                self.leaf_calls[(self.instance, name)] += 1
        return wrapped

    # -- installation ----------------------------------------------------

    def patch(self, owner, key: str, replacement) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) until
        uninstall."""
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, key, owner[key]))
            owner[key] = replacement
        else:
            self._undo.append((functools.partial(setattr, owner), key,
                               vars(owner)[key]))
            setattr(owner, key, replacement)

    def patch_bindings(self, modules: dict, fn, make) -> None:
        """Replace every module-level binding of ``fn`` in ``modules``
        (short name -> module) with ``make(site)``."""
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, make(f"{short}.{attr}"))

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)


def _descent_stop(fn):
    """on_return hook for the descent stage: classify why it stopped from
    the FindSospInfo it returned and the budget it was given."""
    signature = inspect.signature(fn)

    def hook(tr, args, kwargs, out):
        info = out[1]
        budget = signature.bind(*args, **kwargs).arguments.get("budget")
        if info.converged:
            reason = "stationary"
        elif budget is not None and budget.exhausted:
            reason = "budget"
        else:
            reason = "cap"
        tr.events[(tr.instance, "descent_stop." + reason)] += 1
    return hook


def _line_search_result(fn):
    def hook(tr, args, kwargs, out):
        if out is None:
            tr.events[(tr.instance, "line_search.fail")] += 1
    return hook


# (defining module, function, span name, hook factory or None).  Every
# module-level binding of the function, in any package module, is wrapped.
SPANNED = (
    ("objective", "objective", "objective.objective", None),
    ("objective", "grad", "objective.grad", None),
    ("objective", "hvp", "objective.hvp", None),
    ("subspace", "subspace_split", "subspace.subspace_split", None),
    ("escape", "sign_flip_search", "escape.sign_flip_search", None),
    ("escape", "sample_missing_directions",
     "escape.sample_missing_directions", None),
    ("search", "run", "search.run", None),
    ("search", "_find_sosp", "search.descent", _descent_stop),
    ("search", "_negative_curvature", "search.curvature", None),
    ("search", "_rebalance_once", "search.rebalance", None),
    ("search", "_line_search", "search.line_search", _line_search_result),
    ("tensor_core", "load_tensor", "cli.load_tensor", None),
    ("objective", "save_point", "cli.write_outputs", None),
    ("cli", "_write_json", "cli.write_outputs", None),
)
# hot leaves: counted and timed, no span
COUNTED = (("tensor_core", "multilinear_transform",
            "tensor_core.multilinear_transform"),)
MODULES = ("tensor_core", "objective", "subspace", "escape", "search",
           "verify", "cli")
VERIFY_PREFIX = "verify."


def install(tracer: Tracer, pkg) -> None:
    """Wrap every binding of the traced functions in the package.

    ``pkg`` is a namespace with the package modules as attributes.  The
    verify checks are wrapped in place in ``verify.CHECKS``, the trace
    writer and the point constructor on their classes.
    """
    modules = {name: getattr(pkg, name) for name in MODULES}
    try:
        for mod_name, fn_name, span_name, hook in SPANNED:
            fn = getattr(modules[mod_name], fn_name)
            on_return = hook(fn) if hook is not None else None
            tracer.patch_bindings(
                modules, fn,
                lambda site, fn=fn, name=span_name, cb=on_return:
                    tracer.span_wrapper(name, site, fn, cb))
        for mod_name, fn_name, name in COUNTED:
            wrapper = tracer.counter_wrapper(
                name, getattr(modules[mod_name], fn_name))
            tracer.patch_bindings(modules, wrapper.__wrapped__,
                                  lambda site, w=wrapper: w)
        trace_cls = modules["search"].SearchTrace
        tracer.patch(trace_cls, "to_jsonl", tracer.span_wrapper(
            "cli.write_outputs", "search.SearchTrace.to_jsonl",
            trace_cls.to_jsonl))
        point_cls = modules["tensor_core"].FactorPoint
        tracer.patch(point_cls, "__post_init__", tracer.counter_wrapper(
            "tensor_core.FactorPoint", point_cls.__post_init__))
        checks = modules["verify"].CHECKS
        for name, fn in list(checks.items()):
            tracer.patch(checks, name, tracer.span_wrapper(
                VERIFY_PREFIX + name, "verify.CHECKS", fn))
    except BaseException:
        tracer.uninstall()
        raise

"""Spans around iadmm's public names, recorded from outside the package.

A :class:`Tracer` keeps spans in memory as ``[id, name, start, end,
parent, thread, attrs]`` lists.  :func:`patched` swaps the public names
that ``iadmm.bench`` and ``iadmm.solver`` look up at call time for timed
wrappers, and wraps the oracle callables of every ``ProblemSpec`` that
``bench.make_problem`` returns.  Nothing under ``src/`` changes.  A name
that no longer exists is recorded in ``Tracer.absent`` and every metric
built on it is reported as absent.

:func:`grid_metrics` turns the spans of one traced grid into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import threading
import time

# module -> {attribute: span name}; the solver imports these two from core
MODULE_TARGETS = {
    "iadmm.bench": {
        name: f"bench.{name}"
        for name in (
            "run", "gd_run", "make_problem", "write_trace_csv", "summarize",
            "generate_matrix", "initial_factors", "model_objective_metric",
        )
    },
    "iadmm.solver": {
        "update_block": "solver.update_block",
        "update_multiplier": "solver.update_multiplier",
        "update_y": "solver.update_y",
        "lyapunov_value": "solver.lyapunov_value",
        "augmented_lagrangian": "core.augmented_lagrangian",
        "objective_value": "core.objective_value",
    },
}
SPEC_FIELDS = (
    "block_penalty_lipschitz", "coupling_value", "coupling_jac_t",
    "separable_prox", "y_value", "y_grad",
)
# per splitting iteration: calls and ms of each of these spans
PER_ITER_SPANS = tuple(f"logmf.{f}" for f in SPEC_FIELDS) + (
    "logmf.model_objective", "core.augmented_lagrangian", "core.objective_value",
)
ZERO_CALL_SPANS = ("solver.update_y", "solver.lyapunov_value")
INPUT_SPANS = ("bench.generate_matrix", "bench.initial_factors")

ID, NAME, START, END, PARENT, THREAD, ATTRS = range(7)


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), None,
                stack[-1][ID] if stack else None, threading.get_ident(), None]
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, fn, name: str, post=None):
        """``fn`` timed as span ``name``; ``post(result, span)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            return post(out, s) if post is not None else out

        return traced

    def wrap_spec(self, spec) -> None:
        for field in SPEC_FIELDS:
            fn = getattr(spec, field, None)
            if fn is None:
                self.absent.add(f"logmf.{field}")
            else:
                setattr(spec, field, self.wrap(fn, f"logmf.{field}"))


def _post_hooks(tracer: Tracer) -> dict:
    def iterations(result, span):
        span[ATTRS] = result.iterations
        return result

    def gd_iterations(result, span):
        span[ATTRS] = len(result[2]) - 1
        return result

    def spec(result, span):
        tracer.wrap_spec(result)
        return result

    def metric(result, span):
        return tracer.wrap(result, "logmf.model_objective")

    return {"bench.run": iterations, "bench.gd_run": gd_iterations,
            "bench.make_problem": spec, "bench.model_objective_metric": metric}


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    import importlib

    hooks = _post_hooks(tracer)
    saved = []
    try:
        for module_name, targets in MODULE_TARGETS.items():
            module = importlib.import_module(module_name)
            for attr, span_name in targets.items():
                fn = getattr(module, attr, None)
                if fn is None:
                    tracer.absent.add(span_name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(fn, span_name, hooks.get(span_name)))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def self_time(span: list, children: list[list]) -> float:
    """Span duration minus the part of it that its children cover."""
    covered, edge = 0.0, span[START]
    for c in sorted(children, key=lambda c: c[START]):
        lo, hi = max(c[START], edge), min(c[END], span[END])
        if hi > lo:
            covered += hi - lo
            edge = hi
    return (span[END] - span[START]) - covered


def grid_metrics(tracer: Tracer, root: list) -> dict:
    """Per-layer metrics of one traced grid whose root span is ``root``.

    Values are None when a span they rest on is absent.  Per-iteration
    figures divide by the splitting iterations of the grid's solver runs.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s[NAME], []).append(s)
        children.setdefault(s[PARENT], []).append(s)

    def dur(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def have(*names):
        return not tracer.absent.intersection(names)

    runs = by_name.get("bench.run", [])
    iters = sum(s[ATTRS] for s in runs)
    gd_iters = sum(s[ATTRS] for s in by_name.get("bench.gd_run", []))
    wall = root[END] - root[START]

    def per_iter(name, fn):
        return fn(name) / iters if have(name, "bench.run") and iters > 0 else None

    out: dict = {}
    for name in PER_ITER_SPANS + ZERO_CALL_SPANS:
        out[f"{name}.calls_per_iter"] = per_iter(name, count)
    for name in PER_ITER_SPANS + ("solver.update_block", "solver.update_multiplier"):
        out[f"{name}.ms_per_iter"] = per_iter(name, lambda n: 1e3 * dur(n))
    out["solver.self.ms_per_iter"] = (
        1e3 * sum(self_time(s, children.get(s[ID], [])) for s in runs) / iters
        if have("bench.run") and iters > 0 else None
    )
    out["logmf.gd_run.ms_per_iter"] = (
        1e3 * dur("bench.gd_run") / gd_iters if have("bench.gd_run") and gd_iters else None
    )
    n_csv = count("bench.write_trace_csv")
    out["bench.write_trace_csv.ms_per_run"] = (
        1e3 * dur("bench.write_trace_csv") / n_csv if n_csv else None
    )
    out["bench.summarize.ms"] = 1e3 * dur("bench.summarize") if have("bench.summarize") else None
    out["bench.self.ms"] = 1e3 * self_time(root, children.get(root[ID], []))
    out["bench.run.ms_median"] = (
        1e3 * statistics.median(s[END] - s[START] for s in runs) if runs else None
    )
    busy = dur("bench.run") + dur("bench.gd_run")
    out["bench.busy_share"] = busy / wall if have("bench.run", "bench.gd_run") else None
    out["rng.inputs.calls"] = (
        sum(count(n) for n in INPUT_SPANS) if have(*INPUT_SPANS) else None
    )
    out["rng.inputs.ms"] = 1e3 * sum(dur(n) for n in INPUT_SPANS) if have(*INPUT_SPANS) else None
    return out


def dump(tracer: Tracer) -> list[list]:
    """Spans as JSON-ready lists, times in seconds from the first span.

    Each is ``[id, name, start, end, parent, thread, attrs]``; attrs holds
    the iteration count of a ``bench.run`` or ``bench.gd_run`` span.
    """
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    return [[s[ID], s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[THREAD], s[ATTRS]]
            for s in tracer.spans]

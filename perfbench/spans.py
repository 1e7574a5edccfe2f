"""Spans around the package's layer boundaries, installed at run time.

``Tracer.install`` replaces the public entry point of each measured module
with a wrapper that records a span -- name, start, end, parent span, op id
and process id -- plus exact counts read from the call's arguments and
result.  No file of the package changes: the wrappers are set from here, in
every module namespace that holds the wrapped function.  Spans stay in
memory until the benchmark writes them out at its end.

Experiment series fork their process pool after the wrappers are in place,
so pool workers record spans too.  A worker hands its spans back with the
result of each seed chunk: the result is pickled with a reducer whose
unpickling step, in the parent, files the spans with the parent's tracer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

# The tracer whose wrappers are installed; the unpickling step of worker
# results needs a module-level name to find it.
_ACTIVE: "Tracer | None" = None


@dataclass
class Span:
    name: str
    id: str
    parent: str | None
    op: int | None
    pid: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def count_updates(ms, problem, T: int, config, runs: int, discarded: int) -> int:
    """SGD updates a ``run_many`` call performs, summed over its runs.

    ``discarded`` is the per-run count of stream samples the engine never
    drew, as ``BatchResult.discarded_samples`` reports it.
    """
    alg = ms.algorithms
    if isinstance(config, alg.DataDropConfig):
        return (T // alg.resolve_drop_interval(config, problem, T)) * runs
    if isinstance(config, alg.ReplayConfig):
        return (T // config.span) * config.buffer_size * runs
    return (T - discarded) * runs  # plain and parallel SGD: one per sample drawn


class _Carried:
    """A worker's chunk result together with the spans the chunk recorded."""

    def __init__(self, result, spans):
        self.result = result
        self.spans = spans

    def __reduce__(self):
        return (_deliver, (self.result, self.spans))


def _deliver(result, spans):
    # Runs in the parent while the pool's result is unpickled (in the
    # executor's manager thread; list.extend is atomic under the GIL).
    _ACTIVE.spans.extend(spans)
    return result


class Tracer:
    """Collects spans of one benchmark process and of the pools it forks."""

    def __init__(self, ms):
        self.ms = ms
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._undo: list = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            span = Span(
                name=name,
                id=f"{pid}:{next(tracer._ids)}",
                parent=tracer._stack[-1].id if tracer._stack else None,
                op=tracer.op,
                pid=pid,
            )
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return wrapper

    def _carry_from_workers(self, fn):
        """Wrap the pool's chunk function so workers send their spans home."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return fn(*args, **kwargs)
            mark = len(tracer.spans)  # spans before it were copied by fork
            result = fn(*args, **kwargs)
            carried = tracer.spans[mark:]
            del tracer.spans[mark:]
            return _Carried(result, carried)

        return wrapper

    def _replace(self, owners, attr, wrapper_for):
        """Replace ``attr`` wherever an owner holds the same function."""
        original = getattr(owners[0], attr)
        wrapper = wrapper_for(original)
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        ms = self.ms
        package = [m for n, m in sys.modules.items() if n == "markovsgd" or n.startswith("markovsgd.")]

        def take_counts(args, kwargs, result):
            arrays = result if isinstance(result, tuple) else (result,)
            n, runs = arrays[0].shape[:2]
            return {"states": n * runs, "bytes": sum(a.nbytes for a in arrays)}

        run_many_sig = inspect.signature(ms.algorithms.run_many)

        def run_many_counts(args, kwargs, result):
            call = run_many_sig.bind(*args, **kwargs)
            a = call.arguments
            runs = len(a["seeds"])
            return {
                "updates": count_updates(
                    ms, a["problem"], a["T"], a["config"], runs, result.discarded_samples
                ),
                "discarded": result.discarded_samples * runs,
            }

        def write_counts(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}

        for cls in (ms.chains.GaussianPathCursor, ms.chains.FinitePathCursor):
            self._replace([cls], "take", lambda f: self._wrap("chains.take", f, take_counts))
        self._replace(
            [ms.algorithms] + package,
            "run_many",
            lambda f: self._wrap("algorithms.run_many", f, run_many_counts),
        )
        self._replace(
            [ms.algorithms, ms.experiments],
            "excess_risk",
            lambda f: self._wrap("regression.excess_risk", f),
        )
        self._replace(
            [ms.experiments] + package,
            "run_experiment",
            lambda f: self._wrap("experiments.run_experiment", f),
        )
        self._replace(
            [ms.experiments] + package,
            "write_summary_csv",
            lambda f: self._wrap("experiments.write_summary_csv", f, write_counts),
        )
        # The function the pool sends to its workers: its span is a
        # worker's busy time, and its result carries the worker's spans.
        self._replace(
            [ms.experiments],
            "_execute_chunk",
            lambda f: self._carry_from_workers(self._wrap("experiments.chunk", f)),
        )
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        _ACTIVE = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- per-layer metrics ----------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def _self_time(span: Span, children: dict) -> float:
    """Duration minus the part covered by same-process child spans."""
    kids = [(c.start, c.end) for c in children.get(span.id, ()) if c.pid == span.pid]
    return span.duration - _covered(kids)


def layer_metrics(spans: list[Span], parent_pid: int) -> dict:
    """Per-layer times and counts of one op's spans (values only)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    takes = named("chains.take")
    runs = named("algorithms.run_many")
    excess = named("regression.excess_risk")
    experiments = named("experiments.run_experiment")
    writes = named("experiments.write_summary_csv")
    chunks = [s for s in named("experiments.chunk") if s.pid != parent_pid]

    states = sum(s.counts["states"] for s in takes)
    updates = sum(s.counts["updates"] for s in runs)
    take_s = sum(s.duration for s in takes)
    self_s = sum(_self_time(s, children) for s in runs)
    return {
        "chains.take_s": take_s,
        "chains.ns_per_state": 1e9 * take_s / states if states else 0.0,
        "chains.states": states,
        "chains.bytes_computed": sum(s.counts["bytes"] for s in takes),
        "algorithms.run_s": sum(s.duration for s in runs),
        "algorithms.self_s": self_s,
        "algorithms.ns_per_update": 1e9 * self_s / updates if updates else 0.0,
        "algorithms.updates": updates,
        "algorithms.discarded_samples": sum(s.counts["discarded"] for s in runs),
        "algorithms.samples_used_frac": updates / states if states else 0.0,
        "regression.excess_calls": len(excess),
        "regression.excess_s": sum(s.duration for s in excess),
        "experiments.run_s": sum(s.duration for s in experiments),
        "experiments.pool_wait_s": sum(_self_time(s, children) for s in experiments),
        "experiments.worker_busy_s": sum(s.duration for s in chunks),
        "experiments.write_s": sum(s.duration for s in writes),
        "experiments.bytes_written": sum(s.counts["bytes"] for s in writes),
    }


# Units of the layer metrics, in the order ``layer_metrics`` reports them.
LAYER_UNITS = {
    "chains.take_s": "s",
    "chains.ns_per_state": "ns",
    "chains.states": "count",
    "chains.bytes_computed": "B",
    "algorithms.run_s": "s",
    "algorithms.self_s": "s",
    "algorithms.ns_per_update": "ns",
    "algorithms.updates": "count",
    "algorithms.discarded_samples": "count",
    "algorithms.samples_used_frac": "ratio",
    "regression.excess_calls": "count",
    "regression.excess_s": "s",
    "experiments.run_s": "s",
    "experiments.pool_wait_s": "s",
    "experiments.worker_busy_s": "s",
    "experiments.write_s": "s",
    "experiments.bytes_written": "B",
}

# Layer metrics that are exact counts: they must repeat bit for bit.
EXACT_COUNTS = (
    "chains.states",
    "chains.bytes_computed",
    "algorithms.updates",
    "algorithms.discarded_samples",
    "regression.excess_calls",
    "experiments.bytes_written",
)

"""Span recorder for the traced benchmark run.

The recorder wraps public asyncsa functions and methods from outside: it
replaces module attributes (including the copies other modules imported by
name, such as ``stability.apply_tick``), class methods, and the methods of
the sampler and field instances that ``build_runtime`` returns.  Nothing in
``src/`` changes, and every patch is undone when :func:`instrument` exits.

Each span records a name, start, end, parent span, workload and chain id.
Spans live in flat in-memory arrays and are written out once, at the end.
A span's self time is its duration minus the time its child spans cover.
Counts that need the call's arguments or result (activations, delay draws
used, projections, bytes written) are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import os
import time
import tracemalloc
from array import array

import numpy as np

from asyncsa import config, core, experiment, norms, stability, trace

MODULES = (config, core, experiment, norms, stability, trace)

# (module, public function) pairs to wrap wherever the function object is bound
FUNCTIONS = (
    (config, "parse_run_config"),
    (core, "build_runtime"),
    (core, "draw_tick"),
    (core, "apply_tick"),
    (core, "run"),
    (core, "run_light"),
    (norms, "weighted_norm"),
    (stability, "run_paired"),
    (stability, "write_gap_csv"),
    (experiment, "reproduce_experiment"),
    (experiment, "sweep_run"),
    (experiment, "write_aggregate_csv"),
    (experiment, "emit_plot_data"),
    (experiment, "write_sweep_csv"),
)

METHODS = (
    (core.IterateHistory, "gather", "core.gather"),
    (core.ProjectionRegion, "project", "core.project"),
    (trace.RunTrace, "write_csv", "trace.write_csv"),
    (trace.RunTrace, "write_jsonl", "trace.write_jsonl"),
)

DRIVERS = ("core.run", "core.run_light", "stability.run_paired")


class SpanRecorder:
    """Flat span store plus the counters taken at layer boundaries."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.chain_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.chain = -1
        self.counts = {
            "activations": 0,
            "drive_components": 0,
            "delay_draws": 0,
            "delay_draws_used": 0,
            "gather_bytes": 0,
            "projections": 0,
            "trace_bytes": 0,
        }
        self.per_agent = np.zeros(0, dtype=np.int64)
        self.first_delay_ms: list[float] = []
        self.first_delay_alloc_mb: list[float] = []

    def wrap(self, name: str, fn, after=None, before=None):
        """Return ``fn`` recording one span per call.

        ``before(args)`` runs before the span opens; ``after(args, out)``
        runs after it closes, so neither is counted in this span.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parent, chain_id = self.name_id, self.parent, self.chain_id
        start, end, stack = self.start, self.end, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            chain_id.append(self.chain)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- hooks ---------------------------------------------------------------

    def _new_chain(self, args) -> None:
        self.chain += 1

    def _after_build(self, args, bundle) -> None:
        """Wrap the sampler and field methods of a freshly built runtime."""
        sampler = bundle.schedule.sampler
        sampler.next = self.wrap("schedules.next", sampler.next)
        models = bundle.models
        models.errors.sample = self.wrap("stochastics.errors", models.errors.sample)
        models.noise.sample = self.wrap("stochastics.noise", models.noise.sample)
        models.delays.matrix = self._first_call_probe(
            self.wrap("stochastics.delays", models.delays.matrix))
        fld = bundle.field
        mod = type(fld).__module__.rsplit(".", 1)[-1]
        fld.vector = self.wrap(f"{mod}.vector", fld.vector)
        fld.vector_views = self.wrap(f"{mod}.vector_views", fld.vector_views)

    def _first_call_probe(self, traced):
        """Time and trace the allocations of a delay sampler's first call."""
        state = {"first": True}

        def matrix(n):
            if not state["first"]:
                return traced(n)
            state["first"] = False
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return traced(n)
            finally:
                self.first_delay_ms.append(1e3 * (time.perf_counter() - t0))
                self.first_delay_alloc_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        return matrix

    def _after_apply(self, args, info) -> None:
        fld, sample = args[1], args[2]
        d = fld.d
        active = int(np.count_nonzero(sample.active))
        c = self.counts
        c["activations"] += active
        c["drive_components"] += d
        if sample.tau is not None:
            c["delay_draws"] += d * (d - 1)
            c["delay_draws_used"] += active * (d - 1)
        if self.per_agent.shape[0] != d:
            self.per_agent = np.zeros(d, dtype=np.int64)
        self.per_agent += sample.active

    def _after_gather(self, args, views) -> None:
        self.counts["gather_bytes"] += views.nbytes

    def _after_paired(self, args, paired) -> None:
        self.counts["projections"] += len(paired.projection_ticks)

    def _after_trace_write(self, args, out) -> None:
        self.counts["trace_bytes"] += os.path.getsize(args[1])

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "chain": np.asarray(self.chain_id, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, longest call, and
        the names of the spans each call was nested in."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        self_time = dur - child
        parent_name = np.where(nested, a["name_id"][np.maximum(a["parent"], 0)], -1)
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            parents = parent_name[sel]
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "max_s": float(dur[sel].max()) if sel.any() else 0.0,
                "parents": {self.names[p]: int((parents == p).sum())
                            for p in np.unique(parents) if p >= 0},
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), workload=self.workload,
                 **self.arrays())


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Patch the asyncsa layer boundaries to record into ``rec``."""
    hooks = {
        "core.build_runtime": {"after": rec._after_build},
        "core.apply_tick": {"after": rec._after_apply},
        "core.run": {"before": rec._new_chain},
        "core.run_light": {"before": rec._new_chain},
        "stability.run_paired": {"before": rec._new_chain, "after": rec._after_paired},
        "core.gather": {"after": rec._after_gather},
        "trace.write_csv": {"after": rec._after_trace_write},
        "trace.write_jsonl": {"after": rec._after_trace_write},
    }
    undo = []
    try:
        for module, attr in FUNCTIONS:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            traced = rec.wrap(name, original, **hooks.get(name, {}))
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, traced)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, rec.wrap(name, original, **hooks.get(name, {})))
        yield rec
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

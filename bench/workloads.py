"""The benchmark workloads and the fixed-seed delay-kind traces.

Every workload builds its configs from the workload seed and drives the
public asyncsa API.  All calls go through module attributes
(``core.run_light``, ``experiment.reproduce_experiment``, ...) so that the
span recorder in ``spans.py`` can wrap them for a traced run without any
change to ``src/``.

A workload object offers:

* ``setup_probe()``  -- the same work with every horizon set to 1
  (``setup_per_pass`` probes run before each pass);
* ``iterate()``      -- one full pass, returning an :class:`Iteration`;
* ``rewrite(it)``    -- write the outputs of pass ``it`` again and return
  the seconds it took (``rewrites_per_pass`` extra write samples per
  pass; not needed when that is 0);
* ``ticks(it)``      -- executed ``apply_tick`` calls of a pass, counted
  from the results (a paired run counts two per tick);
* ``checks(it)``     -- cross-path equalities that hold for any seed.

Why these workloads (one stresses what another leaves idle):

* ``study-d2``: thousands of tiny d=2 chains under stale-refresh delays,
  all agents active.  Cost is per-tick interpreter overhead and per-cell
  set-up; the large-d machinery sits idle.
* ``wide-d100``: one d=100 chain, one agent active per tick, i.i.d.
  geometric delays.  Sampler refill of the (4096, d, d) delay buffer,
  memory and set-up dominate, and 99% of the gathered views go unused.
* ``traced-d5``: the user-facing output path on the 5-state MDP fixture:
  the traced ``run`` recorder, the repr-per-cell trace writers and the
  paired-run tick loop with its projection region.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from asyncsa import config, core, experiment, stability
from asyncsa.errors import DivergenceError

DEFAULT_SEED = 0
MDP_FIXTURE = "tests/fixtures/mdp_5s2a.txt"  # relative to the checkout root

perf = time.perf_counter


@dataclass
class Iteration:
    """One pass of a workload."""

    wall_s: float
    write_s: float
    chains: int
    files: dict[str, Path]
    results: Any


Check = tuple[str, Callable[[], bool]]


def _same(a, b) -> bool:
    """Bitwise equality of two float arrays."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _divergence_tick(cfg) -> int:
    """Ticks executed by a chain that diverges (the failing tick counts)."""
    try:
        core.run_light(cfg)
    except DivergenceError as exc:
        return exc.n + 1
    raise AssertionError("chain reported divergent but ran to its horizon")


# ---------------------------------------------------------------------------
# study-d2


class StudyD2:
    """Criterion-03 error-scaling study slice plus a d=2 residual sweep."""

    name = "study-d2"
    setup_per_pass = 6
    rewrites_per_pass = 8
    P_CS = (0.4, 0.8)

    def __init__(self, seed: int, small: bool, out: Path):
        self.seeds = (seed,)
        grid = sorted(experiment.EPS_GRID)
        self.eps_grid = tuple(grid if not small else (grid[0], grid[-1]))
        self.sweep_doc = {
            "base": {
                "dimension": 2,
                "horizon": 50 if small else 1000,
                "seed": seed,
                "objective": {"kind": "quadratic", "matrices": "random"},
                "steps": {"kind": "harmonic", "c": 10.0},
                "activation": {"kind": "all"},
                "delays": {"kind": "stale-refresh", "p_c": 0.5},
                "errors": {"kind": "componentwise-uniform", "bound": 0.5},
                "noise": {"kind": "zero"},
            },
            "sweep": {
                "parameters": {
                    "errors.bound": [0.2, 1.0, 2.0],
                    "delays.p_c": [0.4, 0.8],
                },
                "replicates": 2,
                "aggregate": "residual",
            },
        }
        self.out = out
        self._divergent_ticks: dict[tuple, int] = {}

    def _cells(self, p_c: float, horizon: int | None = None):
        """(run_id, config) of every study cell, as reproduce_experiment
        derives them."""
        for s in self.seeds:
            instance = experiment.sample_instance(s)
            for idx, eps in enumerate(self.eps_grid):
                kw = {} if horizon is None else {"horizon": horizon}
                yield (f"s{s}-e{idx:02d}",
                       experiment.cell_config(instance, eps, p_c, seed=s ^ idx, **kw))

    def _sweep_cell_config(self, cell: dict):
        """The config sweep_run builds for one cell."""
        doc = copy.deepcopy(self.sweep_doc["base"])
        for path, value in cell["overrides"].items():
            config.set_by_path(doc, path, value)
        doc["seed"] = cell["seed"]
        return config.parse_run_config(doc)

    def setup_probe(self) -> None:
        for p_c in self.P_CS:
            for _, cfg in self._cells(p_c, horizon=1):
                try:
                    core.run_light(cfg)
                except DivergenceError:
                    pass
        doc = copy.deepcopy(self.sweep_doc)
        doc["base"]["horizon"] = 1
        experiment.sweep_run(config.parse_sweep_config(doc), jobs=1)

    def iterate(self) -> Iteration:
        t0 = perf()
        study = {
            p: experiment.reproduce_experiment(p, self.seeds, self.eps_grid, jobs=1)
            for p in self.P_CS
        }
        w0 = perf()
        self._write_study(study)
        write_s = perf() - w0
        spec = config.parse_sweep_config(self.sweep_doc)
        rows = experiment.sweep_run(spec, jobs=1)
        w0 = perf()
        experiment.write_sweep_csv(spec, rows, self.out / "sweep.csv")
        wall = perf() - t0
        write_s += perf() - w0
        results = {"study": study, "spec": spec, "rows": rows}
        return Iteration(wall, write_s, sum(len(r.rows) for r in study.values()) + len(rows),
                         self._files(), results)

    def _write_study(self, study: dict) -> None:
        for p, res in study.items():
            experiment.write_aggregate_csv(res, self.out / f"scaling_pc{p:g}.csv")
            experiment.emit_plot_data(res, self.out / f"scaling_pc{p:g}_plot.csv",
                                      style="wide")

    def rewrite(self, it: Iteration) -> float:
        res = it.results
        w0 = perf()
        self._write_study(res["study"])
        experiment.write_sweep_csv(res["spec"], res["rows"], self.out / "sweep.csv")
        return perf() - w0

    def _files(self) -> dict[str, Path]:
        files = {}
        for p in self.P_CS:
            files[f"scaling_pc{p:g}.csv"] = self.out / f"scaling_pc{p:g}.csv"
            files[f"scaling_pc{p:g}_plot.csv"] = self.out / f"scaling_pc{p:g}_plot.csv"
        files["sweep.csv"] = self.out / "sweep.csv"
        return files

    def ticks(self, it: Iteration) -> int:
        total = 0
        for p_c, res in it.results["study"].items():
            status = {r["run_id"]: r["status"] for r in res.rows}
            for run_id, cfg in self._cells(p_c):
                total += self._chain_ticks(("study", p_c, run_id), cfg, status[run_id])
        for cell, row in zip(it.results["spec"].cells(), it.results["rows"]):
            cfg = self._sweep_cell_config(cell)
            total += self._chain_ticks(("sweep", cell["index"]), cfg, row["status"])
        return total

    def _chain_ticks(self, key, cfg, status: str) -> int:
        if status == "ok":
            return cfg.horizon
        if key not in self._divergent_ticks:
            self._divergent_ticks[key] = _divergence_tick(cfg)
        return self._divergent_ticks[key]

    def divergent_cells(self, it: Iteration) -> int:
        rows = [r for res in it.results["study"].values() for r in res.rows]
        return sum(r["status"] != "ok" for r in rows + it.results["rows"])

    def checks(self, it: Iteration) -> list[Check]:
        checks: list[Check] = []
        for p_c, res in it.results["study"].items():
            path = self.out / f"scaling_pc{p_c:g}.csv"
            checks.append((f"aggregate p_c={p_c:g} reads back", lambda res=res, path=path:
                           _aggregate_reads_back(res, path)))
            cells = list(self._cells(p_c))
            rows = {r["run_id"]: r for r in res.rows}
            for run_id, cfg in (cells[0], cells[-1]):
                row = rows[run_id]
                checks.append((f"study {run_id} p_c={p_c:g}: run == run_light",
                               lambda cfg=cfg, row=row: _cell_agrees(
                                   cfg, row["status"],
                                   lambda tr: _log_final_norm(tr) == row["log_final_norm"])))
        cells = it.results["spec"].cells()
        for i in (0, len(cells) - 1):
            cfg, row = self._sweep_cell_config(cells[i]), it.results["rows"][i]
            checks.append((f"sweep cell {i}: run == run_light and residual",
                           lambda cfg=cfg, row=row: _cell_agrees(
                               cfg, row["status"],
                               lambda tr: tr.residual[-1] == row["value"])))
        return checks


def _aggregate_reads_back(res, path: Path) -> bool:
    _, rows = experiment.read_aggregate_csv(path)
    if len(rows) != len(res.rows):
        return False
    for got, want in zip(rows, res.rows):
        for key, value in want.items():
            if isinstance(value, float):
                if not _same_float(got[key], value):
                    return False
            elif got[key] != value:
                return False
    return True


def _run_or_divergence(fn, cfg):
    try:
        return fn(cfg), None
    except DivergenceError as exc:
        return None, exc.n


def _cell_agrees(cfg, status: str, reproduces_row) -> bool:
    """``run`` and ``run_light`` diverge on the same tick, or reach the same
    endpoint and the traced run reproduces the row's value."""
    traced, n_traced = _run_or_divergence(core.run, cfg)
    light, n_light = _run_or_divergence(core.run_light, cfg)
    if status != "ok":
        return n_traced is not None and n_traced == n_light
    return (traced is not None and light is not None
            and _same(traced.final_x, light.final_x) and reproduces_row(traced))


def _log_final_norm(trace) -> float:
    return math.log(max(float(np.linalg.norm(trace.final_x)), 1e-300))


# ---------------------------------------------------------------------------
# wide-d100


class WideD100:
    """One wide run_light chain: one active agent of 100 per tick."""

    name = "wide-d100"
    setup_per_pass = 1
    # A rewrite of the 800-byte file right after deleting it takes a tenth of
    # the write that follows the run, so it would measure something else.
    rewrites_per_pass = 0

    def __init__(self, seed: int, small: bool, out: Path):
        self.doc = {
            "dimension": 10 if small else 100,
            "horizon": 64 if small else 8192,
            "seed": seed,
            "objective": {"kind": "quadratic", "matrices": "random"},
            "steps": {"kind": "harmonic", "c": 10.0},
            "activation": {"kind": "round-robin", "k": 1},
            "delays": {"kind": "geometric", "mean": 3.0},
            "errors": {"kind": "componentwise-uniform", "bound": 0.1},
            "noise": {"kind": "bounded-uniform", "level": 0.1},
        }
        self.out = out

    def setup_probe(self) -> None:
        core.run_light(config.parse_run_config(dict(self.doc, horizon=1)))

    def iterate(self) -> Iteration:
        t0 = perf()
        cfg = config.parse_run_config(self.doc)
        result = core.run_light(cfg)
        w0 = perf()
        (self.out / "final_x.f64").write_bytes(result.final_x.tobytes())
        end = perf()
        return Iteration(end - t0, end - w0, 1, {"final_x.f64": self.out / "final_x.f64"},
                         {"cfg": cfg, "result": result})

    def ticks(self, it: Iteration) -> int:
        return it.results["cfg"].horizon

    def divergent_cells(self, it: Iteration) -> int:
        return 0

    def checks(self, it: Iteration) -> list[Check]:
        cfg, light = it.results["cfg"], it.results["result"]

        def run_matches_light() -> bool:
            traced = core.run(cfg)
            return (_same(traced.final_x, light.final_x)
                    and _same(traced.counters[-1], light.counters))

        return [("run == run_light (final_x, counters)", run_matches_light)]


# ---------------------------------------------------------------------------
# traced-d5


class TracedD5:
    """Traced run with trace CSV/JSONL, then a paired run with a gap CSV."""

    name = "traced-d5"
    setup_per_pass = 6
    rewrites_per_pass = 2

    def __init__(self, seed: int, small: bool, out: Path):
        horizon = 200 if small else 12_500
        self.run_doc = {
            "dimension": 5,
            "horizon": horizon,
            "seed": seed,
            "objective": {"kind": "bellman-residual", "fixture": MDP_FIXTURE},
            "steps": {"kind": "harmonic", "c": 10.0},
            "activation": {"kind": "round-robin", "k": 1},
            "delays": {"kind": "zero"},
            "errors": {"kind": "componentwise-uniform", "bound": 0.2},
            "noise": {"kind": "bounded-uniform", "level": 0.1},
        }
        # criterion-05 setting: start outside the region, weighted-max norm
        self.paired_doc = {
            "dimension": 5,
            "horizon": horizon,
            "seed": seed,
            "objective": {"kind": "bellman-residual", "fixture": MDP_FIXTURE},
            "steps": {"kind": "harmonic", "c": 10.0},
            "activation": {"kind": "round-robin", "k": 1},
            "errors": {"kind": "componentwise-uniform", "bound": 0.2},
            "projection": {
                "r_inner": 12.0,
                "r_outer": 20.0,
                "norm": {"kind": "weighted-max", "weights": [1.0] * 5},
            },
            "x0": [30.0] * 5,
        }
        self.out = out

    def setup_probe(self) -> None:
        core.run(config.parse_run_config(dict(self.run_doc, horizon=1)))
        stability.run_paired(config.parse_run_config(dict(self.paired_doc, horizon=1)))

    def iterate(self) -> Iteration:
        t0 = perf()
        cfg = config.parse_run_config(self.run_doc)
        trace = core.run(cfg)
        w0 = perf()
        self._write_trace(trace)
        write_s = perf() - w0
        pcfg = config.parse_run_config(self.paired_doc)
        paired = stability.run_paired(pcfg)
        w0 = perf()
        stability.write_gap_csv(paired, self.out / "gap.csv")
        end = perf()
        write_s += end - w0
        return Iteration(end - t0, write_s, 2, self._files(),
                         {"cfg": cfg, "trace": trace, "pcfg": pcfg, "paired": paired})

    def _write_trace(self, trace) -> None:
        trace.write_csv(self.out / "trace.csv")
        trace.write_jsonl(self.out / "trace.jsonl")

    def rewrite(self, it: Iteration) -> float:
        w0 = perf()
        self._write_trace(it.results["trace"])
        stability.write_gap_csv(it.results["paired"], self.out / "gap.csv")
        return perf() - w0

    def _files(self) -> dict[str, Path]:
        return {name: self.out / name for name in ("trace.csv", "trace.jsonl", "gap.csv")}

    def ticks(self, it: Iteration) -> int:
        return it.results["cfg"].horizon + 2 * it.results["pcfg"].horizon

    def divergent_cells(self, it: Iteration) -> int:
        return 0

    def checks(self, it: Iteration) -> list[Check]:
        res = it.results
        plain_doc = {k: v for k, v in self.paired_doc.items() if k != "projection"}
        return [
            ("run.final_x == run_light.final_x",
             lambda: _same(res["trace"].final_x, core.run_light(res["cfg"]).final_x)),
            ("run_paired.raw_final == run_light(no projection).final_x",
             lambda: _same(res["paired"].raw_final,
                           core.run_light(config.parse_run_config(plain_doc)).final_x)),
            ("run_paired.proj_final == run_light.final_x",
             lambda: _same(res["paired"].proj_final, core.run_light(res["pcfg"]).final_x)),
        ]


WORKLOADS = {cls.name: cls for cls in (StudyD2, WideD100, TracedD5)}


# ---------------------------------------------------------------------------
# one short trace per delay kind, always at the default seed


DELAY_KINDS = {
    "zero": {"kind": "zero"},
    "bounded-uniform": {"kind": "bounded-uniform", "tau_max": 3},
    "geometric": {"kind": "geometric", "mean": 2.0},
    "stale-refresh": {"kind": "stale-refresh", "p_c": 0.5},
}


def delay_kind_doc(delays: dict) -> dict:
    return {
        "dimension": 3,
        "horizon": 300,
        "seed": DEFAULT_SEED,
        "objective": {"kind": "quadratic", "matrices": "random"},
        "steps": {"kind": "harmonic", "c": 10.0},
        "activation": {"kind": "round-robin", "k": 2},
        "delays": delays,
        "errors": {"kind": "componentwise-uniform", "bound": 0.2},
        "noise": {"kind": "bounded-uniform", "level": 0.05},
    }


def write_delay_kind_traces(out: Path) -> tuple[dict[str, Path], list[Check]]:
    """Short trace CSV and JSONL per delay kind, plus run == run_light."""
    files: dict[str, Path] = {}
    checks: list[Check] = []
    for kind, delays in DELAY_KINDS.items():
        cfg = config.parse_run_config(delay_kind_doc(delays))
        trace = core.run(cfg)
        for suffix, writer in (("csv", trace.write_csv), ("jsonl", trace.write_jsonl)):
            files[f"{kind}.{suffix}"] = out / f"delays-{kind}.{suffix}"
            writer(files[f"{kind}.{suffix}"])
        checks.append((f"delays {kind}: run == run_light",
                       lambda cfg=cfg, x=trace.final_x: _same(x, core.run_light(cfg).final_x)))
    return files, checks

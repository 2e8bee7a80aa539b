"""Error-scaling study on delayed two-agent quadratic problems, plus a
generic grid-sweep runner.

The study measures how the size of the final iterate scales with the
persistent error bound eps when the two agents read each other through
stale-refresh delays.  Each sample run fixes a random problem instance
(two positive-definite matrices and a start point) that is shared across
the whole eps grid and across refresh probabilities, so comparisons along
those axes are paired.  Per-cell seeds are derived from the sample seed
and the position of eps in the canonical grid, which makes every cell
reproducible in isolation.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_INSTANCE, stream
from .config import (
    QuadraticObjective,
    RunConfig,
    SweepSpec,
    parse_run_config,
)
from .core import build_field, run_light
from .errors import ConfigError, DivergenceError
from .fields import random_pd_matrix
from .schedules import AllActive, HarmonicSteps
from .stochastics import ComponentUniformErrors, StaleRefreshDelays, ZeroNoise
from .trace import read_table, write_table

__all__ = [
    "EPS_GRID",
    "AggregateResult",
    "sample_instance",
    "cell_config",
    "reproduce_experiment",
    "summarize",
    "write_aggregate_csv",
    "read_aggregate_csv",
    "emit_plot_data",
    "read_plot_data",
    "sweep_run",
    "write_sweep_csv",
]

AGGREGATE_SCHEMA = "aggregate-v1"
SWEEP_SCHEMA = "sweep-v1"

EPS_GRID = tuple(round(k / 10.0, 1) for k in range(2, 31))

_AGG_COLUMNS = (
    "run_id", "epsilon", "error_norm", "log_final_norm", "p_c", "seed", "status",
)
_AGG_FLOATS = ("epsilon", "error_norm", "log_final_norm", "p_c")
_LONG_COLUMNS = ("epsilon", "seed", "log_final_norm")

_STUDY_HORIZON = 1000
_STUDY_STEP_C = 10.0


def sample_instance(run_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Problem instance for one sample run: two PD matrices and a start.

    Drawn from the instance stream of ``run_seed`` so the same instance
    is reused across the whole eps grid and across refresh probabilities.
    """
    rng = stream(run_seed, DOMAIN_INSTANCE)
    mat_a = random_pd_matrix(2, rng)
    mat_b = random_pd_matrix(2, rng)
    x0 = rng.uniform(-1.0, 1.0, 2)
    return mat_a, mat_b, x0


def cell_config(instance, eps: float, p_c: float, seed: int,
                horizon: int = _STUDY_HORIZON) -> RunConfig:
    mat_a, mat_b, x0 = instance
    return RunConfig(
        dimension=2,
        horizon=horizon,
        seed=seed,
        objective=QuadraticObjective(matrices=np.stack([mat_a, mat_b])),
        steps=HarmonicSteps(c=_STUDY_STEP_C),
        activation=AllActive(),
        delays=StaleRefreshDelays(p_c=p_c),
        errors=ComponentUniformErrors(bound=float(eps)),
        noise=ZeroNoise(),
        x0=np.asarray(x0, dtype=float),
    )


def _map(fn, work: list, jobs: int) -> list:
    """``fn`` over ``work`` in order, on up to ``jobs`` worker processes."""
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, work))
    return [fn(w) for w in work]


def _run_cell(cfg: RunConfig, aggregate: str) -> tuple[float, str]:
    """A study or sweep cell's ``(value, status)``: the named aggregate of
    its light run's endpoint, or nan and ``divergent``."""
    try:
        final = run_light(cfg).final_x
    except DivergenceError:
        return float("nan"), "divergent"
    if aggregate == "final-norm":
        return float(np.linalg.norm(final)), "ok"
    if aggregate == "log-final-norm":
        return math.log(max(float(np.linalg.norm(final)), 1e-300)), "ok"
    return float(np.linalg.norm(build_field(cfg).vector(final))), "ok"


def _rows_for_seed(args) -> list[dict]:
    run_seed, p_c, eps_grid = args
    instance = sample_instance(run_seed)
    rows = []
    for idx, eps in enumerate(eps_grid):
        value, status = _run_cell(
            cell_config(instance, eps, p_c, seed=run_seed ^ idx), "log-final-norm")
        rows.append({
            "run_id": f"s{run_seed}-e{idx:02d}",
            "epsilon": float(eps),
            "error_norm": float(eps) * math.sqrt(2.0) / 2.0,
            "log_final_norm": value,
            "p_c": float(p_c),
            "seed": int(run_seed),
            "status": status,
        })
    return rows


@dataclass(eq=False)
class AggregateResult:
    p_c: float
    eps_grid: tuple
    seeds: tuple
    rows: list[dict]


def reproduce_experiment(p_c: float, seeds, eps_grid=EPS_GRID,
                         jobs: int = 1) -> AggregateResult:
    """Run the full eps grid for every sample seed at one refresh rate.

    The grid is sorted before cell seeds are derived from positions in
    it, so listing the same values in a different order cannot change
    any cell's draws.
    """
    seeds = tuple(int(s) for s in seeds)
    eps_grid = tuple(sorted(float(e) for e in eps_grid))
    chunks = _map(_rows_for_seed, [(s, float(p_c), eps_grid) for s in seeds], jobs)
    rows = [row for chunk in chunks for row in chunk]
    return AggregateResult(p_c=float(p_c), eps_grid=eps_grid, seeds=seeds,
                           rows=rows)


def _median(values: list[float]) -> float:
    """``float(np.median(values))`` of a non-empty list, bit for bit, with
    no numpy call: both take the middle value or ``(a + b) / 2`` of the two
    middle ones, and both give NaN when a value is NaN.  Numpy's mean adds
    to 0.0, so its median is never -0.0."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ranked, k = sorted(values), len(values) // 2
    return float(ranked[k] if len(ranked) % 2 else (ranked[k - 1] + ranked[k]) / 2) + 0.0


def summarize(result: AggregateResult) -> dict:
    """Scaling summary: rank correlation and tail medians of the rows."""
    from scipy import stats  # about 70 MiB and 1 s to import: only here

    ok = [r for r in result.rows if r["status"] == "ok"]
    eps = np.array([r["epsilon"] for r in ok])
    vals = np.array([r["log_final_norm"] for r in ok])
    rho, pvalue = stats.spearmanr(eps, vals)
    tail = vals[eps >= 1.0]
    per_eps = []
    for e in result.eps_grid:
        sel = [r["log_final_norm"] for r in ok if r["epsilon"] == e]
        per_eps.append({
            "epsilon": float(e),
            "median_log_final_norm": _median(sel) if sel else None,
            "runs": len(sel),
        })
    return {
        "schema": "scaling-summary-v1",
        "p_c": result.p_c,
        "seeds": list(result.seeds),
        "cells": len(result.rows),
        "divergent_cells": sum(r["status"] != "ok" for r in result.rows),
        "spearman_rho": float(rho),
        "spearman_p": float(pvalue),
        "pooled_median_tail": float(np.median(tail)) if tail.size else None,
        "per_eps_median": per_eps,
    }


def write_aggregate_csv(result: AggregateResult, path) -> None:
    meta = {
        "p_c": result.p_c,
        "eps_grid": list(result.eps_grid),
        "seeds": list(result.seeds),
        "horizon": _STUDY_HORIZON,
        "step_c": _STUDY_STEP_C,
    }
    rows = result.rows
    write_table(path, AGGREGATE_SCHEMA, [("config", meta)], _AGG_COLUMNS, [
        np.array([r[c] for r in rows], dtype=float) if c in _AGG_FLOATS
        else [r[c] for r in rows]
        for c in _AGG_COLUMNS
    ])


def read_aggregate_csv(path) -> tuple[dict, list[dict]]:
    meta, _, records = read_table(path, {AGGREGATE_SCHEMA: _AGG_COLUMNS})
    rows = [
        {
            c: float(v) if c in _AGG_FLOATS else int(v) if c == "seed" else v
            for c, v in zip(_AGG_COLUMNS, record)
        }
        for record in records
    ]
    return meta, rows


def emit_plot_data(result: AggregateResult, path, style: str = "wide") -> None:
    """Plot-ready table: per-eps medians wide, or one row per cell long."""
    if style not in ("wide", "long"):
        raise ConfigError(f"unknown plot style {style!r}")
    ok = [r for r in result.rows if r["status"] == "ok"]
    if style == "long":
        ok.sort(key=lambda r: (r["epsilon"], r["seed"]))
        write_table(path, "plot-long-v1", [], _LONG_COLUMNS, [
            np.array([r["epsilon"] for r in ok], dtype=float),
            [r["seed"] for r in ok],
            np.array([r["log_final_norm"] for r in ok], dtype=float),
        ])
        return
    seeds = list(result.seeds)
    by_cell = {(r["epsilon"], r["seed"]): r["log_final_norm"] for r in ok}
    grid = [[by_cell.get((e, s)) for s in seeds] for e in result.eps_grid]
    present = [[v for v in row if v is not None] for row in grid]
    write_table(path, "plot-wide-v1", [],
                ["epsilon"] + [f"s{s}" for s in seeds] + ["median"],
                [np.array(result.eps_grid, dtype=float), *zip(*grid),
                 [_median(p) if p else None for p in present]])


def read_plot_data(path) -> dict:
    meta, header, rows = read_table(path, {
        "plot-wide-v1": lambda header: ["epsilon"] + [
            c for c in header[1:-1] if re.fullmatch(r"s-?\d+", c)] + ["median"],
        "plot-long-v1": _LONG_COLUMNS,
    })
    return {"schema": meta["schema"], "columns": header, "rows": rows}


# ---------------------------------------------------------------------------
# generic sweeps


def _sweep_cell(args) -> dict:
    spec, cell = args
    value, status = _run_cell(parse_run_config(spec.cell_config(cell)), spec.aggregate)
    return {
        "index": cell["index"],
        **cell["overrides"],
        "replicate": cell["replicate"],
        "seed": cell["seed"],
        "value": value,
        "status": status,
    }


def sweep_run(spec: SweepSpec, jobs: int = 1) -> list[dict]:
    """Execute every sweep cell; row order and content are canonical."""
    return _map(_sweep_cell, [(spec, cell) for cell in spec.cells()], jobs)


def write_sweep_csv(spec: SweepSpec, rows: list[dict], path) -> None:
    axes = sorted(spec.parameters)
    meta = {
        "aggregate": spec.aggregate,
        "parameters": {k: list(v) for k, v in spec.parameters.items()},
        "replicates": spec.replicates,
    }
    header = ["index", *axes, "replicate", "seed", "value", "status"]
    write_table(path, SWEEP_SCHEMA, [("config", meta)], header, [
        np.array([r["value"] for r in rows], dtype=float) if c == "value"
        else [r[c] for r in rows]
        for c in header
    ])

"""Every reader rejects a file of another family, and a file whose schema
line is right but whose column header is not."""

import numpy as np
import pytest

from asyncsa import (
    AggregateResult,
    ConfigError,
    PairedRun,
    emit_plot_data,
    parse_sweep_config,
    read_aggregate_csv,
    read_plot_data,
    read_trace_csv,
    read_trace_jsonl,
    write_aggregate_csv,
    write_gap_csv,
    write_sweep_csv,
)
from asyncsa.trace import RunTrace


def _trace() -> RunTrace:
    return RunTrace(
        meta={"seed": 1, "config": {"dimension": 2}},
        x=np.array([[0.5, -1.0], [0.25, -0.5]]),
        active=np.array([[1, 0], [0, 0]]), step=np.array([[0.1, 0.0], [0.0, 0.0]]),
        eps_norm=np.zeros(2), residual=np.array([1.0, 0.5]),
        projected=np.zeros(2, dtype=int), counters=np.zeros((2, 2), dtype=int),
    )


def _aggregate() -> AggregateResult:
    rows = [{"run_id": "s0-e00", "epsilon": 0.2, "error_norm": 0.1,
             "log_final_norm": -1.0, "p_c": 0.4, "seed": 0, "status": "ok"}]
    return AggregateResult(p_c=0.4, eps_grid=(0.2,), seeds=(0,), rows=rows)


def _paired() -> PairedRun:
    return PairedRun(gap=np.array([1.0, 0.5]), step_bound=np.array([0.1]),
                     error_gap=np.zeros(1), projection_ticks=[0],
                     raw_final=np.zeros(2), proj_final=np.zeros(2),
                     coupled_errors=True, meta={"seed": 0, "config": {}})


def _sweep(path) -> None:
    spec = parse_sweep_config({
        "base": {"dimension": 2, "horizon": 3, "seed": 0,
                 "objective": {"kind": "quadratic", "matrices": "random"},
                 "errors": {"kind": "componentwise-uniform", "bound": 0.1}},
        "sweep": {"parameters": {"errors.bound": [0.1]}},
    })
    rows = [{"index": 0, "errors.bound": 0.1, "replicate": 0, "seed": 0,
             "value": 0.5, "status": "ok"}]
    write_sweep_csv(spec, rows, path)


WRITERS = {
    "trace-csv": lambda path: _trace().write_csv(path),
    "trace-jsonl": lambda path: _trace().write_jsonl(path),
    "gap": lambda path: write_gap_csv(_paired(), path),
    "aggregate": lambda path: write_aggregate_csv(_aggregate(), path),
    "plot-wide": lambda path: emit_plot_data(_aggregate(), path, style="wide"),
    "plot-long": lambda path: emit_plot_data(_aggregate(), path, style="long"),
    "sweep": _sweep,
}

READERS = {
    read_trace_csv: ("trace-csv",),
    read_trace_jsonl: ("trace-jsonl",),
    read_aggregate_csv: ("aggregate",),
    read_plot_data: ("plot-wide", "plot-long"),
}

SCHEMAS = {
    read_trace_csv: "trace-v1",
    read_aggregate_csv: "aggregate-v1",
    read_plot_data: "plot-long-v1",
}


@pytest.mark.parametrize("reader, family", [
    (reader, family) for reader, own in READERS.items()
    for family in WRITERS if family not in own
], ids=lambda v: getattr(v, "__name__", v))
def test_reader_rejects_another_family(reader, family, tmp_path):
    path = tmp_path / family
    WRITERS[family](path)
    with pytest.raises(ConfigError):
        reader(path)


@pytest.mark.parametrize("reader", list(SCHEMAS), ids=lambda r: r.__name__)
def test_reader_rejects_a_foreign_header(reader, tmp_path):
    path = tmp_path / "gap.csv"
    write_gap_csv(_paired(), path)
    path.write_bytes(path.read_bytes().replace(b"gap-v1", SCHEMAS[reader].encode()))
    with pytest.raises(ConfigError, match="header"):
        reader(path)


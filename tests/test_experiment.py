import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asyncsa import (
    EPS_GRID,
    AggregateResult,
    ConfigError,
    emit_plot_data,
    parse_sweep_config,
    read_aggregate_csv,
    read_plot_data,
    reproduce_experiment,
    sample_instance,
    summarize,
    sweep_run,
    write_aggregate_csv,
    write_sweep_csv,
)
from asyncsa.experiment import _median, cell_config


def test_eps_grid_shape():
    assert len(EPS_GRID) == 29
    assert EPS_GRID[0] == 0.2
    assert EPS_GRID[-1] == 3.0
    assert all(b > a for a, b in zip(EPS_GRID, EPS_GRID[1:]))


def test_sample_instance_is_deterministic_and_pd():
    a1, b1, x1 = sample_instance(17)
    a2, b2, x2 = sample_instance(17)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert np.array_equal(x1, x2)
    for m in (a1, b1):
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() > 0
    assert (np.abs(x1) <= 1.0).all()
    a3, _, _ = sample_instance(18)
    assert not np.array_equal(a1, a3)


def test_cell_config_wires_the_instance():
    instance = sample_instance(17)
    cfg = cell_config(instance, eps=0.5, p_c=0.4, seed=99)
    assert cfg.dimension == 2
    assert cfg.errors.bound == 0.5
    assert cfg.delays.p_c == 0.4
    assert cfg.seed == 99
    assert np.array_equal(cfg.x0, instance[2])


def _small_result(p_c=0.4, seeds=(1, 2), eps_grid=(0.2, 1.0, 2.0)):
    return reproduce_experiment(p_c, seeds, eps_grid=eps_grid)


def test_rows_carry_cell_identity():
    result = _small_result()
    assert len(result.rows) == 2 * 3
    first = result.rows[0]
    assert first["run_id"] == "s1-e00"
    assert first["epsilon"] == 0.2
    assert first["error_norm"] == pytest.approx(0.2 * math.sqrt(2) / 2)
    assert first["p_c"] == 0.4
    assert first["seed"] == 1
    assert first["status"] == "ok"
    assert math.isfinite(first["log_final_norm"])


def test_reproduce_is_deterministic_and_order_free():
    a = reproduce_experiment(0.4, (3, 1), eps_grid=(0.5, 1.5))
    b = reproduce_experiment(0.4, (1, 3), eps_grid=(1.5, 0.5))
    key = lambda r: r["run_id"]
    assert sorted(a.rows, key=key) == sorted(b.rows, key=key)


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 70 MiB of resident memory and a second of
    # start-up, and only summarize needs it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, asyncsa; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.split() == ["False"]


def test_summarize_on_monotone_rows():
    result = _small_result(seeds=(1, 2, 3))
    summary = summarize(result)
    assert summary["schema"] == "scaling-summary-v1"
    assert summary["cells"] == 9
    assert summary["divergent_cells"] == 0
    assert -1.0 <= summary["spearman_rho"] <= 1.0
    per_eps = {p["epsilon"]: p for p in summary["per_eps_median"]}
    assert per_eps[1.0]["runs"] == 3
    # the pooled tail uses only cells with eps >= 1.0
    tail_vals = [r["log_final_norm"] for r in result.rows
                 if r["epsilon"] >= 1.0]
    assert summary["pooled_median_tail"] == pytest.approx(
        float(np.median(tail_vals)))


def test_summarize_perfect_rank_correlation():
    rows = [
        {"run_id": f"s0-e{i:02d}", "epsilon": e, "error_norm": e / 2,
         "log_final_norm": float(i), "p_c": 0.4, "seed": 0, "status": "ok"}
        for i, e in enumerate((0.2, 0.5, 1.0, 2.0))
    ]
    result = AggregateResult(p_c=0.4, eps_grid=(0.2, 0.5, 1.0, 2.0),
                             seeds=(0,), rows=rows)
    assert summarize(result)["spearman_rho"] == pytest.approx(1.0)


def test_aggregate_csv_round_trip(tmp_path):
    result = _small_result()
    path = tmp_path / "agg.csv"
    write_aggregate_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: aggregate-v1"
    assert lines[2].split(",")[0] == "run_id"
    meta, rows = read_aggregate_csv(path)
    assert meta["schema"] == "aggregate-v1"
    assert meta["config"]["seeds"] == list(result.seeds)
    assert rows == result.rows  # repr formatting keeps floats exact


def test_aggregate_csv_rejects_wrong_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# schema: aggregate-v1\nwrong,columns\n")
    with pytest.raises(ConfigError):
        read_aggregate_csv(path)


def test_plot_data_styles(tmp_path):
    result = _small_result()
    wide = tmp_path / "wide.csv"
    emit_plot_data(result, wide, style="wide")
    data = read_plot_data(wide)
    assert data["schema"] == "plot-wide-v1"
    assert data["columns"] == ["epsilon", "s1", "s2", "median"]
    assert len(data["rows"]) == 3
    med = [float(v) for v in data["rows"][0][1:3]]
    assert float(data["rows"][0][3]) == pytest.approx(float(np.median(med)))

    long = tmp_path / "long.csv"
    emit_plot_data(result, long, style="long")
    data = read_plot_data(long)
    assert data["schema"] == "plot-long-v1"
    assert data["columns"] == ["epsilon", "seed", "log_final_norm"]
    assert len(data["rows"]) == 6
    with pytest.raises(ConfigError):
        emit_plot_data(result, tmp_path / "x.csv", style="fancy")


_INF, _NAN, _BIG = math.inf, math.nan, 1.7976931348623157e308


@pytest.mark.parametrize("values", [
    [0.5], [-0.0], [-0.0, -0.0], [0.0, -0.0, -0.0], [3.0, -1.0], [0.1, 0.2, 0.7, 0.3],
    [_BIG, _BIG], [_BIG, -_BIG, 1.0, 2.0], [_INF, 1.0], [_INF, -_INF], [-_INF, 2.0, -_INF],
    [_NAN], [1.0, _NAN, 2.0], [_INF, _NAN], [5e-324, 5e-324],
    np.random.default_rng(0).normal(size=9).tolist(),
    np.random.default_rng(1).normal(size=10).tolist(),
], ids=str)
def test_median_is_numpys_median_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.median(np.array(values))  # the per-eps medians numpy gave
    got = np.float64(_median(values))
    assert (math.isnan(got) and math.isnan(want)) or got.tobytes() == want.tobytes()


SWEEP_DOC = {
    "base": {
        "dimension": 2,
        "horizon": 60,
        "seed": 40,
        "objective": {"kind": "quadratic", "matrices": "random"},
        "errors": {"kind": "componentwise-uniform", "bound": 0.1},
        "steps": {"kind": "harmonic", "c": 10.0},
    },
    "sweep": {
        "parameters": {"errors.bound": [0.1, 0.4]},
        "replicates": 2,
        "aggregate": "final-norm",
    },
}


def test_sweep_run_is_deterministic():
    spec = parse_sweep_config(SWEEP_DOC)
    rows_a = sweep_run(spec)
    rows_b = sweep_run(spec)
    assert rows_a == rows_b
    assert len(rows_a) == 4
    assert [r["index"] for r in rows_a] == [0, 1, 2, 3]
    assert all(r["status"] == "ok" for r in rows_a)
    assert all(r["value"] >= 0 for r in rows_a)
    # replicates differ only through the derived seed
    assert rows_a[0]["seed"] != rows_a[1]["seed"]
    assert rows_a[0]["errors.bound"] == rows_a[1]["errors.bound"] == 0.1


def test_sweep_residual_aggregate():
    doc = {"base": dict(SWEEP_DOC["base"]),
           "sweep": {"parameters": {"errors.bound": [0.0]},
                     "aggregate": "residual"}}
    rows = sweep_run(parse_sweep_config(doc))
    assert len(rows) == 1
    # with no errors the drive residual shrinks along the run
    assert rows[0]["value"] < 1.0


def test_sweep_cell_with_a_delay_bound_far_past_the_horizon_runs():
    base = dict(SWEEP_DOC["base"], horizon=10,
                delays={"kind": "bounded-uniform", "tau_max": 10**13})
    rows = sweep_run(parse_sweep_config({"base": base,
                                         "sweep": {"parameters": {"errors.bound": [0.1]}}}))
    assert [r["status"] for r in rows] == ["ok"]


def test_sweep_records_divergent_cells():
    doc = {
        "base": {
            "dimension": 2,
            "horizon": 2000,
            "seed": 1,
            "objective": {"kind": "scaled-identity", "gain": 5.0},
            "steps": {"kind": "constant", "a0": 1.0},
            "x0": [1.0, 1.0],
        },
        "sweep": {"parameters": {"objective.gain": [-1.0, 5.0]}},
    }
    rows = sweep_run(parse_sweep_config(doc))
    by_gain = {r["objective.gain"]: r for r in rows}
    assert by_gain[-1.0]["status"] == "ok"
    assert by_gain[5.0]["status"] == "divergent"
    assert math.isnan(by_gain[5.0]["value"])


def test_sweep_csv_layout(tmp_path):
    spec = parse_sweep_config(SWEEP_DOC)
    rows = sweep_run(spec)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(spec, rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: sweep-v1"
    assert lines[1].startswith("# config: {")
    assert lines[2] == "index,errors.bound,replicate,seed,value,status"
    assert len(lines) == 3 + 4
    cells = lines[3].split(",")
    assert cells[0] == "0" and cells[-1] == "ok"
    assert float(cells[4]) == rows[0]["value"]


def test_worker_processes_give_the_serial_rows():
    # repr compares divergent cells' NaN values too
    serial = reproduce_experiment(0.4, (1, 2), eps_grid=(0.5, 1.0, 1.5), jobs=1)
    pooled = reproduce_experiment(0.4, (1, 2), eps_grid=(0.5, 1.0, 1.5), jobs=2)
    assert repr(pooled.rows) == repr(serial.rows)
    spec = parse_sweep_config(SWEEP_DOC)
    assert repr(sweep_run(spec, jobs=2)) == repr(sweep_run(spec, jobs=1))

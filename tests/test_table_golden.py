"""Byte identity of the gap, aggregate, plot and sweep tables.

Each table is written from a small fixed input and compared with the
SHA-256 digest of the bytes the writers produce, so a change to any
header line, float format, line ending or column order fails here.  The
gap and sweep tables, which have no reader in the package, are also read
back through ``trace.read_table``.
"""

import hashlib
import math

import pytest

from asyncsa import (
    AggregateResult,
    ComponentUniformErrors,
    HarmonicSteps,
    ProjectionSpec,
    QuadraticObjective,
    RunConfig,
    emit_plot_data,
    parse_sweep_config,
    run_paired,
    write_aggregate_csv,
    write_gap_csv,
    write_sweep_csv,
)
from asyncsa.experiment import SWEEP_SCHEMA
from asyncsa.stability import GAP_SCHEMA
from asyncsa.trace import read_table

DIGESTS = {
    "gap.csv":
        "531cf4f808f410d594bd43a8fd80ea4967e987f2fdcd50191956e803d3f22977",
    "aggregate.csv":
        "86e0b471065fd11bfa41ce0a04531cf021a4d93352598fcf30a36e6f7c37711b",
    "plot-wide.csv":
        "d7330a32c64326f68b29b4423f2004908f7baa7faf30f75f50b63ea0c259a5b3",
    "plot-long.csv":
        "1d13caf6355a8c80c89bf8209bfd83a1ac0adc8e082559de8f22bdd019f77a54",
    "sweep.csv":
        "5c8b62c7caa98481022b8789ca2b31fb268804a3b28c91aedb497b8e0c6cb08b",
}


def _paired():
    """Twelve ticks whose projected chain is pulled back at ticks -1, 0, 1, 5
    and 10."""
    cfg = RunConfig(
        dimension=3, horizon=12, seed=3,
        objective=QuadraticObjective(matrices="random"),
        steps=HarmonicSteps(c=1.0),
        errors=ComponentUniformErrors(bound=10.0),
        projection=ProjectionSpec(r_inner=1.0, r_outer=2.0,
                                  norm={"kind": "euclidean"}),
        x0=[3.0, -1.0, 0.5],
    )
    paired = run_paired(cfg)
    assert paired.projection_ticks == [-1, 0, 1, 5, 10]
    return paired


def _aggregate() -> AggregateResult:
    """Two seeds over three error levels; seed 5 diverges at the top level,
    which leaves a hole in the wide plot."""
    rows = []
    for seed in (2, 5):
        for idx, eps in enumerate((0.2, 0.7, 1.3)):
            divergent = seed == 5 and idx == 2
            rows.append({
                "run_id": f"s{seed}-e{idx:02d}",
                "epsilon": eps,
                "error_norm": eps * math.sqrt(2.0) / 2.0,
                "log_final_norm": float("nan") if divergent else -seed / (idx + 3),
                "p_c": 1 / 3,
                "seed": seed,
                "status": "divergent" if divergent else "ok",
            })
    return AggregateResult(p_c=1 / 3, eps_grid=(0.2, 0.7, 1.3), seeds=(2, 5),
                           rows=rows)


def _sweep():
    """Float, int, string and bool axes; the last cell is divergent."""
    spec = parse_sweep_config({
        "base": {
            "dimension": 2, "horizon": 4, "seed": 9,
            "objective": {"kind": "quadratic", "matrices": "random"},
            "activation": {"kind": "all"},
            "delays": {"kind": "stale-refresh", "p_c": 0.5, "symmetric": True},
            "errors": {"kind": "componentwise-uniform", "bound": 0.1},
        },
        "sweep": {
            "parameters": {
                "errors.bound": [0.1, 1 / 3],
                "horizon": [4, 7],
                "activation.kind": ["all", "round-robin"],
                "delays.symmetric": [True, False],
            },
            "aggregate": "log-final-norm",
        },
    })
    cells = spec.cells()
    rows = []
    for cell in cells:
        last = cell["index"] == len(cells) - 1
        rows.append({
            "index": cell["index"],
            **cell["overrides"],
            "replicate": cell["replicate"],
            "seed": cell["seed"],
            "value": float("nan") if last else 1 / (cell["index"] + 3),
            "status": "divergent" if last else "ok",
        })
    return spec, rows


WRITERS = {
    "gap.csv": lambda path: write_gap_csv(_paired(), path),
    "aggregate.csv": lambda path: write_aggregate_csv(_aggregate(), path),
    "plot-wide.csv": lambda path: emit_plot_data(_aggregate(), path, style="wide"),
    "plot-long.csv": lambda path: emit_plot_data(_aggregate(), path, style="long"),
    "sweep.csv": lambda path: write_sweep_csv(*_sweep(), path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_table_bytes_match_pinned_digest(name, tmp_path):
    path = tmp_path / name
    WRITERS[name](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name], name


def test_gap_table_reads_back(tmp_path):
    path = tmp_path / "gap.csv"
    paired = _paired()
    write_gap_csv(paired, path)
    meta, _, rows = read_table(path, {GAP_SCHEMA: ["n", "gap", "projected"]})
    assert meta["schema"] == GAP_SCHEMA
    assert (meta["seed"], meta["config"]) == (str(paired.meta["seed"]), paired.meta["config"])
    assert [int(r[0]) for r in rows] == list(range(len(paired.gap)))
    assert [float(r[1]) for r in rows] == paired.gap.tolist()
    assert [n for n, r in enumerate(rows) if r[2] == "1"] == [0, 1, 5, 10]
    assert {r[2] for r in rows} == {"0", "1"}


def test_sweep_table_reads_back(tmp_path):
    path = tmp_path / "sweep.csv"
    spec, cells = _sweep()
    write_sweep_csv(spec, cells, path)
    header = ["index", "activation.kind", "delays.symmetric", "errors.bound", "horizon",
              "replicate", "seed", "value", "status"]
    meta, _, rows = read_table(path, {SWEEP_SCHEMA: header})
    assert meta["schema"] == SWEEP_SCHEMA
    assert meta["config"] == {"aggregate": "log-final-norm",
                              "parameters": {k: list(v) for k, v in spec.parameters.items()},
                              "replicates": spec.replicates}
    # floats are written with repr, which is their str; the bool axis as True/False
    assert rows == [[str(cell[c]) for c in header] for cell in cells]
    assert rows[-1][-2:] == ["nan", "divergent"]

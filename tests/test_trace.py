import csv
import hashlib
import io
import json

import numpy as np
import pytest

from asyncsa import (
    ComponentUniformErrors,
    ConstantSteps,
    DivergenceError,
    GeometricDelays,
    HarmonicSteps,
    QuadraticObjective,
    RoundRobin,
    RunConfig,
    ScaledIdentityObjective,
    UniformNoise,
    run,
)
from asyncsa.stability import GAP_SCHEMA
from asyncsa.trace import RunTrace, read_trace_csv, read_trace_jsonl, write_table


def _toy_trace() -> RunTrace:
    x = np.array([[1 / 3, -2.0], [0.25, -1.5], [0.2, -1.4]])
    active = np.array([[1, 0], [0, 1], [0, 0]])
    step = np.array([[0.1, 0.0], [0.0, 0.09], [0.0, 0.0]])
    eps_norm = np.array([0.5, 1e-17, 0.0])
    residual = np.array([2.0, 1.5, 1.4])
    projected = np.array([0, 1, 0])
    counters = np.array([[0, 0], [1, 0], [1, 1]])
    meta = {"seed": 42, "config": {"dimension": 2, "horizon": 2}}
    return RunTrace(meta=meta, x=x, active=active, step=step,
                    eps_norm=eps_norm, residual=residual,
                    projected=projected, counters=counters)


def test_shape_properties():
    tr = _toy_trace()
    assert tr.ticks == 2
    assert tr.d == 2
    assert tr.final_x == pytest.approx([0.2, -1.4])


def test_csv_header_and_columns(tmp_path):
    tr = _toy_trace()
    path = tmp_path / "t.csv"
    tr.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: trace-v1"
    assert lines[1] == "# seed: 42"
    assert lines[2].startswith("# config: {")
    assert lines[3] == "n,y1,y2,x1,x2,a1,a2,eps_norm,residual,projected"
    assert len(lines) == 4 + 3  # header + one row per tick incl. final


def test_csv_floats_round_trip_exactly(tmp_path):
    tr = _toy_trace()
    path = tmp_path / "t.csv"
    tr.write_csv(path)
    back = read_trace_csv(path)
    # repr-formatted cells must survive the round trip bit for bit
    assert np.array_equal(back["x"], tr.x)
    assert np.array_equal(back["step"], tr.step)
    assert np.array_equal(back["eps_norm"], tr.eps_norm)
    assert np.array_equal(back["residual"], tr.residual)
    assert np.array_equal(back["active"], tr.active)
    assert np.array_equal(back["projected"], tr.projected)
    assert back["meta"]["config"] == tr.meta["config"]
    assert back["meta"]["seed"] == "42"
    assert np.array_equal(back["n"], [0, 1, 2])


def test_final_row_has_zero_event_fields(tmp_path):
    tr = _toy_trace()
    path = tmp_path / "t.csv"
    tr.write_csv(path)
    back = read_trace_csv(path)
    assert back["active"][-1].tolist() == [0, 0]
    assert back["step"][-1].tolist() == [0.0, 0.0]


def test_jsonl_head_and_round_trip(tmp_path):
    tr = _toy_trace()
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(path)
    first = path.read_text().splitlines()[0]
    assert '"schema": "trace-v1"' in first
    assert '"seed": 42' in first
    back = read_trace_jsonl(path)
    assert back["meta"]["config"] == tr.meta["config"]
    assert np.array_equal(back["x"], tr.x)
    assert np.array_equal(back["step"], tr.step)
    assert np.array_equal(back["eps_norm"], tr.eps_norm)
    assert np.array_equal(back["active"], tr.active)
    assert np.array_equal(back["projected"], tr.projected)


def test_csv_without_header_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_equal_traces_write_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _toy_trace().write_csv(a)
    _toy_trace().write_csv(b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# byte pins of traces longer than one write block

_MULTI_BLOCK_PINS = {
    "run.csv":
        "d1331777c802ecfc0584a46b92f0e86e6dd9510d1ea52653b7893db43399ab31",
    "run.jsonl":
        "5f99b3848973a89a0f4386e3153557a509b6adf19c86da5e9ac3a9999f206562",
    "divergent.csv":
        "f30ee2bb2e47e4b9970d6b789d1157db65b237d83be602516caccac1c5d70dba",
    "divergent.jsonl":
        "0d8b945ee06fa9775de09c3f0a3b5474ee01b0a1bf951d71f1198726093d3ac9",
}


def _multi_block_trace(kind: str) -> RunTrace:
    """A d = 5 round-robin run of 2100 ticks, or the truncated trace of a
    d = 3 chain that diverges at tick 1938 with infinite residuals."""
    if kind == "run":
        return run(RunConfig(
            dimension=5, horizon=2100, seed=7, objective=QuadraticObjective(matrices="random"),
            steps=HarmonicSteps(c=10.0), activation=RoundRobin(k=1),
            delays=GeometricDelays(mean=2.0), errors=ComponentUniformErrors(bound=0.2),
            noise=UniformNoise(level=0.1)))
    with pytest.raises(DivergenceError) as info:
        run(RunConfig(
            dimension=3, horizon=4000, seed=4, objective=ScaledIdentityObjective(gain=2.0),
            steps=ConstantSteps(a0=1.0), activation=RoundRobin(k=1),
            errors=ComponentUniformErrors(bound=0.1), x0=[1.0, -0.5, 0.25]))
    trace = info.value.trace
    assert trace.ticks == 1938 and np.isinf(trace.residual[-1])
    return trace


@pytest.mark.parametrize("kind", ["run", "divergent"])
def test_multi_block_trace_bytes_are_frozen(kind, tmp_path):
    trace = _multi_block_trace(kind)
    assert len(trace.x) > 1025
    for suffix, write in (("csv", trace.write_csv), ("jsonl", trace.write_jsonl)):
        path = tmp_path / f"{kind}.{suffix}"
        write(path)
        name = f"{kind}.{suffix}"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _MULTI_BLOCK_PINS[name], name


# ---------------------------------------------------------------------------
# the writers against csv.writer and json.dumps


def _assert_same_lines(got: str, want: str) -> None:
    """Equal texts, reported by their first differing line (a diff of the
    whole texts would take minutes)."""
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    bad = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, (bad, got[bad], want[bad])
    assert len(got) == len(want)


def _oracle_csv_rows(columns, line_end: str) -> str:
    """Rows as csv.writer writes Python cells: floats by repr, the rest as
    ints."""
    out = io.StringIO()
    csv.writer(out, lineterminator=line_end).writerows(zip(*(
        c.tolist() if c.dtype.kind == "f" else c.astype(np.int64).tolist()
        for c in columns)))
    return out.getvalue()


def _oracle_jsonl_rows(tr: RunTrace) -> str:
    """One json.dumps per row."""
    return "".join(
        json.dumps({"n": n, "active": a, "x": x, "step": st,
                    "eps_norm": e, "residual": r, "projected": p}) + "\n"
        for n, (a, x, st, e, r, p) in enumerate(zip(
            tr.active.astype(np.int64).tolist(), tr.x.tolist(), tr.step.tolist(),
            tr.eps_norm.tolist(), tr.residual.tolist(),
            tr.projected.astype(np.int64).tolist())))


_NEGATIVE_NAN = float(np.copysign(np.nan, -1.0))
_PAYLOAD_NAN = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
# signed zeros, NaNs, infinities, the least subnormal and the values at
# which repr switches to and from exponent form
_SPECIALS = [0.0, -0.0, np.nan, _NEGATIVE_NAN, _PAYLOAD_NAN, np.inf, -np.inf, 5e-324,
             1e16, 9999999999999998.0, 1e-05, 0.0001, 1 / 3, -2.5]


def _runs(rng, rows: int) -> np.ndarray:
    """A column of special values in runs of 1 to 40 equal cells."""
    values = rng.choice(np.array(_SPECIALS), size=rows)
    return np.repeat(values, rng.integers(1, 41, size=rows))[:rows]


def _edge_column(rng, rows: int) -> np.ndarray:
    """Every cell differs from the one above, specials among random ones."""
    column = rng.standard_normal(rows)
    column[1:1 + len(_SPECIALS)] = _SPECIALS
    column[1022:1028] = [0.0, -0.0, 0.0, -0.0, np.nan, _NEGATIVE_NAN]
    return column


def _hand_trace(d: int, rows: int = 2500) -> RunTrace:
    rng = np.random.default_rng(d)
    columns = [_edge_column(rng, rows), np.full(rows, -0.0)] + [
        _runs(rng, rows) for _ in range(d - 2)]
    x = np.column_stack(columns[:d])
    step = np.column_stack([_runs(rng, rows) for _ in range(d)])
    residual = _runs(rng, rows)
    residual[1023:1026] = [np.inf, np.inf, np.nan]
    return RunTrace(
        meta={"seed": d, "config": {"dimension": d}}, x=x,
        active=rng.random((rows, d)) < 0.3, step=step,
        eps_norm=_edge_column(rng, rows), residual=residual,
        projected=np.repeat(rng.random(rows // 50 + 1) < 0.5, 50)[:rows],
        counters=np.zeros((rows, d), dtype=np.int64))


def _trace_columns(tr: RunTrace) -> list:
    return [np.arange(len(tr.x)), *tr.active.T, *tr.x.T, *tr.step.T,
            tr.eps_norm, tr.residual, tr.projected]


@pytest.mark.parametrize("d", [1, 7])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_trace_writers_match_csv_writer_and_json_dumps(d, dtype, tmp_path):
    tr = _hand_trace(d)
    tr.x, tr.step = tr.x.astype(dtype), tr.step.astype(dtype)
    tr.write_csv(tmp_path / "t.csv")
    tr.write_jsonl(tmp_path / "t.jsonl")
    text = (tmp_path / "t.csv").read_bytes().decode()
    _assert_same_lines(text.split("\n", 4)[4], _oracle_csv_rows(_trace_columns(tr), "\n"))
    text = (tmp_path / "t.jsonl").read_bytes().decode()
    _assert_same_lines(text.split("\n", 1)[1], _oracle_jsonl_rows(tr))


def test_gap_table_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(0)
    rows = 2500
    columns = [np.arange(rows), _runs(rng, rows), rng.random(rows) < 0.1]
    columns[1][1024] = -0.0
    write_table(tmp_path / "gap.csv", GAP_SCHEMA, [("seed", 0), ("config", {})],
                ["n", "gap", "projected"], columns)
    text = (tmp_path / "gap.csv").read_bytes().decode()
    _assert_same_lines(text.split("\n", 4)[4], _oracle_csv_rows(columns, "\r\n"))

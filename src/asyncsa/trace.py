"""Run traces, their on-disk forms, and the CSV table codec.

One row per tick n = 0..N.  Row n pairs the iterate x_n with the update
event applied at tick n (active flags, per-agent step sizes, error norm,
projection flag); the final row has no event, so its event fields are
zero.  The CSV and JSON-lines forms carry identical data and both embed
the resolved config and seed, making every output self-describing.

Every CSV the package writes goes through ``write_table`` and is read
back through ``read_table``.  Float cells are written with repr so
parsing them back is exact, and a fixed column order plus canonical JSON
keys make equal runs produce byte-identical files.

A tick moves only the active agents' components, so most cells of a
trace repeat the cell above.  The number-only writers format a cell only
where its bits change and build each line with ``str.join``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError

SCHEMA = "trace-v1"

# trace-v1 rows end in "\n"; every other table keeps csv.writer's "\r\n"
_ROW_END = {SCHEMA: "\n"}
# rows converted to Python cells at a time, which bounds a writer's memory
_BLOCK_ROWS = 1024


def _cells(column) -> list:
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return column.tolist()
        return column.astype(np.int64).tolist()
    return column


# JSON's spelling of the non-finite floats, keyed by their repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _texts(column: np.ndarray, nonfinite: dict | None = None) -> list:
    """The text of every cell of a 1-D numpy column: floats by repr, with
    non-finite ones respelled through ``nonfinite`` when given, anything
    else (bool flags, counts) as ints.

    Only the cells whose bits differ from the cell above are formatted;
    the bits are compared as unsigned ints of the column's own width, so
    ``-0.0`` and ``0.0``, and NaNs of different payloads, each keep their
    own text.
    """
    if column.dtype.kind == "f":
        bits = column.view(f"u{column.itemsize}")
    else:
        column = bits = column.astype(np.int64)
    changed = np.empty(len(bits), dtype=bool)
    changed[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    values = column[changed]
    texts = list(map(repr, values.tolist()))
    if nonfinite:
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = nonfinite[texts[i]]
    if len(texts) == len(bits):
        return texts
    return np.array(texts, dtype=object)[np.cumsum(changed) - 1].tolist()


def _lines(columns, sep: str, nonfinite: dict | None = None):
    """The texts of each row of ``columns``, joined by ``sep``."""
    return map(sep.join, zip(*(_texts(column, nonfinite) for column in columns)))


def write_table(path, schema: str, meta, header, columns) -> None:
    """Write one CSV table: comment lines, the header, then the rows.

    The comment lines are ``# schema: <schema>`` and then one
    ``# key: value`` line per ``(key, value)`` pair of ``meta``, in order,
    with ``config`` as sorted-key JSON.  ``columns`` holds one column per
    header name.  A numpy column is written by its dtype: floats with
    repr, anything else (bool flags, counts) as ints.  A list column is
    written as it is: floats with repr, None as an empty cell, anything
    else with str.  A table of numpy columns only holds number texts,
    which need no CSV quoting, so its rows are joined directly.
    """
    line_end = _ROW_END.get(schema, "\r\n")
    numbers = all(isinstance(column, np.ndarray) for column in columns)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        for key, value in meta:
            if key == "config":
                value = json.dumps(value, sort_keys=True)
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            if numbers:
                fh.writelines(line + line_end for line in
                              _lines((column[block] for column in columns), ","))
            else:
                writer.writerows(zip(*(_cells(column[block]) for column in columns)))


def read_table(path, headers: dict) -> tuple[dict, list[str], list[list[str]]]:
    """Read a table written by ``write_table``: its comment meta (with
    ``config`` parsed as JSON, every other value a string), its header and
    its rows of string cells.

    ``headers`` maps each schema the caller accepts to the header it
    expects: a sequence of column names, or a function of the header read
    that returns them, for tables whose width varies.  A file whose schema
    line or header differs raises ``ConfigError``.
    """
    meta: dict = {}
    with open(path, newline="") as fh:
        line = fh.readline()
        while line.startswith("# "):
            key, _, value = line[2:].rstrip("\r\n").partition(": ")
            meta[key] = json.loads(value) if key == "config" else value
            line = fh.readline()
        schema = meta.get("schema")
        if schema not in headers:
            raise ConfigError(
                f"{path}: schema {schema!r} is not one of {sorted(headers)}")
        reader = csv.reader(chain([line], fh))
        header = next(reader, [])
        expected = headers[schema]
        expected = list(expected(header) if callable(expected) else expected)
        if header != expected:
            raise ConfigError(f"{path}: {schema} header {header} is not {expected}")
        return meta, header, list(reader)


def _trace_header(d: int) -> list[str]:
    return (
        ["n"]
        + [f"y{i + 1}" for i in range(d)]
        + [f"x{i + 1}" for i in range(d)]
        + [f"a{i + 1}" for i in range(d)]
        + ["eps_norm", "residual", "projected"]
    )


@dataclass(eq=False)
class RunTrace:
    meta: dict
    x: np.ndarray          # (N+1, d) iterates
    active: np.ndarray     # (N+1, d) update flags per event
    step: np.ndarray       # (N+1, d) step sizes read at each event
    eps_norm: np.ndarray   # (N+1,) Euclidean norm of the error sample
    residual: np.ndarray   # (N+1,) Euclidean norm of the field at x_n
    projected: np.ndarray  # (N+1,) 1 when the event ended in a projection
    counters: np.ndarray   # (N+1, d) update counts before each tick

    @property
    def ticks(self) -> int:
        return len(self.x) - 1

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def final_x(self) -> np.ndarray:
        return self.x[-1]

    def write_csv(self, path) -> None:
        write_table(
            path, SCHEMA,
            [("seed", self.meta.get("seed")), ("config", self.meta.get("config", {}))],
            _trace_header(self.d),
            [np.arange(len(self.x)), *self.active.T, *self.x.T, *self.step.T,
             self.eps_norm, self.residual, self.projected],
        )

    def write_jsonl(self, path) -> None:
        head = {
            "schema": SCHEMA,
            "seed": self.meta.get("seed"),
            "config": self.meta.get("config", {}),
        }
        with open(path, "w", newline="") as fh:
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for start in range(0, len(self.x), _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                # json.dumps's key order and separators for the row's dict
                fh.writelines(
                    f'{{"n": {n}, "active": [{a}], "x": [{x}], "step": [{st}], '
                    f'"eps_norm": {e}, "residual": {r}, "projected": {p}}}\n'
                    for n, a, x, st, e, r, p in zip(
                        range(start, len(self.x)),
                        *(_lines(matrix[block].T, ", ", _JSON_NONFINITE)
                          for matrix in (self.active, self.x, self.step)),
                        *(_texts(column[block], _JSON_NONFINITE)
                          for column in (self.eps_norm, self.residual, self.projected)))
                )


def read_trace_csv(path) -> dict:
    """Parse a trace CSV back into meta plus float arrays (exact values)."""
    meta, header, rows = read_table(
        path, {SCHEMA: lambda header: _trace_header(max(len(header) - 4, 0) // 3)})
    d = (len(header) - 4) // 3
    data = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(header))
    return {
        "meta": meta,
        "n": data[:, 0].astype(int),
        "active": data[:, 1:1 + d].astype(int),
        "x": data[:, 1 + d:1 + 2 * d],
        "step": data[:, 1 + 2 * d:1 + 3 * d],
        "eps_norm": data[:, -3],
        "residual": data[:, -2],
        "projected": data[:, -1].astype(int),
    }


def read_trace_jsonl(path) -> dict:
    with open(path) as fh:
        try:
            head = json.loads(fh.readline())
        except ValueError:
            head = None
        if not isinstance(head, dict) or head.get("schema") != SCHEMA:
            raise ConfigError(f"{path}: not a {SCHEMA} JSON-lines trace")
        rows = [json.loads(line) for line in fh if line.strip()]
    return {
        "meta": head,
        "n": np.array([r["n"] for r in rows]),
        "active": np.array([r["active"] for r in rows]),
        "x": np.array([r["x"] for r in rows]),
        "step": np.array([r["step"] for r in rows]),
        "eps_norm": np.array([r["eps_norm"] for r in rows]),
        "residual": np.array([r["residual"] for r in rows]),
        "projected": np.array([r["projected"] for r in rows]),
    }

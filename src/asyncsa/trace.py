"""Run traces and their on-disk forms.

One row per tick n = 0..N.  Row n pairs the iterate x_n with the update
event applied at tick n (active flags, per-agent step sizes, error norm,
projection flag); the final row has no event, so its event fields are
zero.  The CSV and JSON-lines forms carry identical data and both embed
the resolved config and seed, making every output self-describing.

Float cells are written with repr so parsing them back is exact, and a
fixed column order plus canonical JSON keys make equal runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCHEMA = "trace-v1"


def _fmt(v: float) -> str:
    return repr(float(v))


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

    def header_lines(self) -> list[str]:
        return [
            f"# schema: {SCHEMA}",
            f"# seed: {self.meta.get('seed')}",
            f"# config: {json.dumps(self.meta.get('config', {}), sort_keys=True)}",
        ]

    def column_names(self) -> list[str]:
        d = self.d
        return (
            ["n"]
            + [f"y{i + 1}" for i in range(d)]
            + [f"x{i + 1}" for i in range(d)]
            + [f"a{i + 1}" for i in range(d)]
            + ["eps_norm", "residual", "projected"]
        )

    def write_csv(self, path) -> None:
        d = self.d
        with open(path, "w") as fh:
            for line in self.header_lines():
                fh.write(line + "\n")
            fh.write(",".join(self.column_names()) + "\n")
            for n in range(len(self.x)):
                cells = [str(n)]
                cells += [str(int(v)) for v in self.active[n]]
                cells += [_fmt(v) for v in self.x[n]]
                cells += [_fmt(v) for v in self.step[n]]
                cells += [_fmt(self.eps_norm[n]), _fmt(self.residual[n])]
                cells += [str(int(self.projected[n]))]
                fh.write(",".join(cells) + "\n")

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            head = {
                "schema": SCHEMA,
                "seed": self.meta.get("seed"),
                "config": self.meta.get("config", {}),
            }
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for n in range(len(self.x)):
                row = {
                    "n": n,
                    "active": [int(v) for v in self.active[n]],
                    "x": [float(v) for v in self.x[n]],
                    "step": [float(v) for v in self.step[n]],
                    "eps_norm": float(self.eps_norm[n]),
                    "residual": float(self.residual[n]),
                    "projected": int(self.projected[n]),
                }
                fh.write(json.dumps(row) + "\n")


def read_trace_csv(path) -> dict:
    """Parse a trace CSV back into meta plus float arrays (exact values)."""
    meta: dict = {}
    rows: list[list[str]] = []
    header: list[str] | None = None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = json.loads(value) if key == "config" else value
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    d = sum(1 for c in header if c.startswith("x"))
    data = np.array([[float(v) for v in row] for row in rows])
    cols = {name: i for i, name in enumerate(header)}
    return {
        "meta": meta,
        "n": data[:, cols["n"]].astype(int),
        "active": data[:, [cols[f"y{i + 1}"] for i in range(d)]].astype(int),
        "x": data[:, [cols[f"x{i + 1}"] for i in range(d)]],
        "step": data[:, [cols[f"a{i + 1}"] for i in range(d)]],
        "eps_norm": data[:, cols["eps_norm"]],
        "residual": data[:, cols["residual"]],
        "projected": data[:, cols["projected"]].astype(int),
    }


def read_trace_jsonl(path) -> dict:
    with open(path) as fh:
        head = json.loads(fh.readline())
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

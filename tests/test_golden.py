"""Byte identity of the short per-delay-kind traces.

The configs and their SHA-256 digests are the benchmark's own
(``bench/workloads.py`` and ``bench/golden.json``), so a refactor that
changes a single trace byte fails here as well as in the benchmark.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from asyncsa import parse_run_config, run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _workloads()
with open(BENCH / "golden.json") as fh:
    GOLDEN = json.load(fh)["delay-kinds"]


@pytest.mark.parametrize("kind", sorted(WORKLOADS.DELAY_KINDS))
def test_delay_kind_traces_match_golden_digests(kind, tmp_path):
    cfg = parse_run_config(WORKLOADS.delay_kind_doc(WORKLOADS.DELAY_KINDS[kind]))
    trace = run(cfg)
    for suffix, write in (("csv", trace.write_csv), ("jsonl", trace.write_jsonl)):
        path = tmp_path / f"{kind}.{suffix}"
        write(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN[f"{kind}.{suffix}"], f"{kind}.{suffix}"

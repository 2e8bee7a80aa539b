"""The benchmark's self-check as part of the suite.

``bench/selfcheck.py`` runs every workload at tiny horizons, untraced and
traced.  The traced passes wrap the layers that ``bench/spans.py`` patches
by name (``core.draw_tick``, ``core.apply_tick``, ``IterateHistory.gather``,
the samplers' and fields' methods), so renaming one fails here, not only
in a full benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_reports_no_problem():
    # no bytecode anywhere, so bench/ is left as it is
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", "bench/selfcheck.py"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "0 problem(s)"

"""Reduced-size self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload at tiny horizons, untraced and traced, and asserts:

* every metric named in BENCHMARK.json is emitted with its unit, and all
  checks pass on the unmodified program;
* a deliberately wrong golden digest counts as a failed operation;
* the cross-path checks fire when run_light's endpoint is nudged by one ulp;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import run


def main() -> int:
    if not run.prepare():
        return 2
    import numpy as np

    import workloads
    from asyncsa import core

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    golden = run.load_golden()
    seed = workloads.DEFAULT_SEED
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok      " if ok else "PROBLEM ") + what)
        if not ok:
            problems.append(what)

    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run_workload(name, seed, 0, trace, golden, small=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(res["correct"] and res["failed"] == 0,
                   f"{name} trace={int(trace)}: every check passes")
            expect(got == want, f"{name} trace={int(trace)}: emits the {key} metrics "
                                "of BENCHMARK.json with their units")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in res["metrics"].values()),
                   f"{name} trace={int(trace)}: every value is a finite number")

    wrong = copy.deepcopy(golden)
    first = next(iter(wrong["delay-kinds"]))
    wrong["delay-kinds"][first] = "0" * 64
    res = run.run_workload("traced-d5", seed, 0, False, wrong, small=True)
    expect(res["failed"] == 1 and not res["correct"],
           "a wrong golden digest counts as one failed operation")

    original = core.run_light

    def nudged(cfg, **kwargs):
        result = original(cfg, **kwargs)
        result.final_x = np.nextafter(result.final_x, np.inf)
        return result

    core.run_light = nudged
    try:
        res = run.run_workload("traced-d5", seed, 0, False, golden, small=True)
    finally:
        core.run_light = original
    # three paired/run checks of traced-d5 plus one per delay kind
    expect(res["failed"] == 3 + len(workloads.DELAY_KINDS) and not res["correct"],
           "the cross-path checks fail when run_light is off by one ulp")

    bare = run.WORK / f"selfcheck-bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "study-d2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        lines = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

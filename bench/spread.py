"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) in a
fresh process and prints, per metric, the median of the runs and the
distance between the first and third quartile as a share of that median
(quartiles as ``statistics.quantiles(values, n=4)`` gives them).  With
``--out`` the figures are also stored in a JSON file under the workload's
name, which is how ``bench/baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds of BENCHMARK.json")
    p.add_argument("--out", type=Path, default=None,
                   help="JSON file to add this workload's figures to")
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(RUN.parent.parent / "BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            + f" (run took {time.perf_counter() - t0:.1f} s)", flush=True)
    figures = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        figures[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "values": vals}
        print(f"{args.workload} {name}: median {med:.6g} spread {(q3 - q1) / med:.4f}")
    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc[args.workload] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "seconds": seconds,
            "metrics": figures,
        }
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

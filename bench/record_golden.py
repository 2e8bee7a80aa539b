"""Record ``bench/golden.json``: SHA-256 digests of every workload output at
the default workload seed, plus the short trace per delay kind.

    python3 bench/record_golden.py

Re-record only when a change is meant to alter output bytes, and say so in
the change; the benchmark counts any digest mismatch as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    if not run.prepare():
        return 2
    import workloads

    out = run.WORK / f"golden-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        golden = {"seed": workloads.DEFAULT_SEED}
        for name, cls in workloads.WORKLOADS.items():
            it = cls(workloads.DEFAULT_SEED, False, out).iterate()
            golden[name] = {k: run.sha256(p) for k, p in it.files.items()}
        files, _ = workloads.write_delay_kind_traces(out)
        golden["delay-kinds"] = {k: run.sha256(p) for k, p in files.items()}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(run.BENCH / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

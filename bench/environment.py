"""Record the machine and environment the baseline was measured on.

    python3 bench/environment.py

Writes ``bench/environment.json``: nproc, CPU model, cache sizes, the
Python, numpy and scipy versions, the BLAS library and the BLAS thread
setting the benchmark forces, and the default workload seed.  Run it on
the machine that measured ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import run


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def caches() -> dict[str, str]:
    """Cache sizes of CPU 0 by level and type, as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def main() -> int:
    if not run.prepare():
        return 2
    import numpy

    import workloads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        **run.environment(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "implementation": sys.implementation.name,
        "default_workload_seed": workloads.DEFAULT_SEED,
    }
    with open(run.BENCH / "environment.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

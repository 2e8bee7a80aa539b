"""asyncsa benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the script works from the checkout root that holds it
and imports asyncsa from that checkout's ``src/``.  Workloads are
described in ``workloads.py`` and the metrics in ``bench/README.md``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes plus the tracing overhead.

Every output file is checked against the digest of the first pass, and at
the default workload seed against ``golden.json``; the cross-path checks of
each workload run for any seed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the workloads are single-process and small-matrix, and a
# fixed setting keeps timings and digests comparable between runs.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES_MIN = 3

END_TO_END = {
    "ticks_per_s": "chain-ticks/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "write_p75_s": "s",
}

PER_LAYER = {
    "core.ticks": "count",
    "core.chains": "count",
    "core.build_runtime.ms": "ms",
    "core.build_runtime.calls_per_cell": "calls/cell",
    "core.draw_tick.self_us": "us",
    "core.apply_tick.self_us": "us",
    "core.driver.self_us": "us/tick",
    "core.gather.us": "us",
    "core.gather.bytes_per_tick": "B/tick",
    "core.project.us": "us",
    "core.drive_useful_frac": "ratio",
    "core.field_evals_per_tick": "calls/tick",
    "schedules.next.us": "us",
    "schedules.activations": "count",
    "schedules.activations_per_agent.min": "count",
    "schedules.activations_per_agent.max": "count",
    "stochastics.delays.us": "us",
    "stochastics.delays.max_ms": "ms",
    "stochastics.delays.first_call_ms": "ms",
    "stochastics.delays.first_call_alloc_mb": "MiB",
    "stochastics.delay_draws": "count",
    "stochastics.delay_draws_used": "count",
    "stochastics.delay_draws_used_frac": "ratio",
    "stochastics.errors.us": "us",
    "stochastics.noise.us": "us",
    "fields.vector_views.us": "us",
    "mdp.vector.us": "us",
    "mdp.vector.calls_per_tick": "calls/tick",
    "norms.weighted_norm.us": "us",
    "norms.weighted_norm.calls_per_tick": "calls/tick",
    "stability.run_paired.self_us": "us/tick",
    "stability.write_gap_csv.s": "s",
    "stability.projections": "count",
    "trace.write_csv.s": "s",
    "trace.write_jsonl.s": "s",
    "trace.bytes": "B",
    "experiment.cell.self_ms": "ms",
    "experiment.write.s": "s",
    "experiment.divergent_cells": "count",
    "config.parse.ms": "ms",
    "workload.bytes_written": "B",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


class Ledger:
    """Attempted and failed operations (chains, cells, files, checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, ok: bool, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            print(f"FAILED: {label}", file=sys.stderr)

    def call(self, label: str, fn):
        """Return ``fn()``; if it raises, count one failed operation and
        return None."""
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.record(label, False)
            return None

    def check(self, label: str, fn) -> None:
        """One operation that passes when ``fn()`` returns true."""
        try:
            ok = bool(fn())
        except Exception:
            traceback.print_exc()
            ok = False
        self.record(label, ok)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_files(ledger: Ledger, label: str, files: dict, reference: dict,
                golden: dict | None) -> dict[str, str]:
    """Digest every file; it must match ``reference`` (an earlier pass) and,
    when given, ``golden``.  Returns the digests."""
    digests = {}
    for name, path in files.items():
        digest = digests[name] = sha256(path)
        ok = reference.get(name, digest) == digest
        if golden is not None:
            ok = ok and golden.get(name) == digest
        ledger.record(f"{label} {name} digest", ok)
    return digests


def clear_outputs(wl) -> None:
    """Delete the previous outputs so every write creates fresh files, as a
    run into a new output directory does; truncating files in place costs
    far more, and far more erratically, on some filesystems.  Then flush,
    so no writeback of an earlier pass overlaps the next one."""
    for path in wl.out.iterdir():
        path.unlink()
    os.sync()


def median(values):
    return float(statistics.median(values)) if values else 0.0


def upper_quartile(values):
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[2])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def layer_metrics(rec, it, wl) -> dict:
    """Per-layer metrics of one traced pass."""
    s = rec.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "parents": {}}

    def get(name):
        return s.get(name, empty)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def mean(name, scale):
        return per(get(name)["total_s"], get(name)["calls"], scale)

    apply = get("core.apply_tick")
    ticks = apply["calls"]
    chains = sum(get(n)["calls"] for n in ("core.run", "core.run_light",
                                           "stability.run_paired"))
    driver_ticks = sum(apply["parents"].get(n, 0) for n in ("core.run", "core.run_light"))
    driver_self = get("core.run")["self_s"] + get("core.run_light")["self_s"]
    cells = sum(get("core.run_light")["parents"].get(n, 0)
                for n in ("experiment.reproduce_experiment", "experiment.sweep_run"))
    cell_self = (get("experiment.reproduce_experiment")["self_s"]
                 + get("experiment.sweep_run")["self_s"])
    field_evals = sum(v["calls"] for k, v in s.items()
                      if k.endswith(".vector") or k.endswith(".vector_views"))
    c = rec.counts
    d = rec.per_agent.shape[0]
    return {
        "core.ticks": ticks,
        "core.chains": chains,
        "core.build_runtime.ms": mean("core.build_runtime", 1e3),
        "core.build_runtime.calls_per_cell": per(get("core.build_runtime")["calls"], chains),
        "core.draw_tick.self_us": per(get("core.draw_tick")["self_s"],
                                      get("core.draw_tick")["calls"], 1e6),
        "core.apply_tick.self_us": per(apply["self_s"], ticks, 1e6),
        "core.driver.self_us": per(driver_self, driver_ticks, 1e6),
        "core.gather.us": mean("core.gather", 1e6),
        "core.gather.bytes_per_tick": per(c["gather_bytes"], ticks),
        "core.project.us": mean("core.project", 1e6),
        "core.drive_useful_frac": per(c["activations"], c["drive_components"]),
        "core.field_evals_per_tick": per(field_evals, ticks),
        "schedules.next.us": mean("schedules.next", 1e6),
        "schedules.activations": c["activations"],
        "schedules.activations_per_agent.min": int(rec.per_agent.min()) if d else 0,
        "schedules.activations_per_agent.max": int(rec.per_agent.max()) if d else 0,
        "stochastics.delays.us": mean("stochastics.delays", 1e6),
        "stochastics.delays.max_ms": 1e3 * get("stochastics.delays")["max_s"],
        "stochastics.delays.first_call_ms": median(rec.first_delay_ms),
        "stochastics.delays.first_call_alloc_mb": median(rec.first_delay_alloc_mb),
        "stochastics.delay_draws": c["delay_draws"],
        "stochastics.delay_draws_used": c["delay_draws_used"],
        "stochastics.delay_draws_used_frac": per(c["delay_draws_used"], c["delay_draws"]),
        "stochastics.errors.us": mean("stochastics.errors", 1e6),
        "stochastics.noise.us": mean("stochastics.noise", 1e6),
        "fields.vector_views.us": mean("fields.vector_views", 1e6),
        "mdp.vector.us": mean("mdp.vector", 1e6),
        "mdp.vector.calls_per_tick": per(get("mdp.vector")["calls"], ticks),
        "norms.weighted_norm.us": mean("norms.weighted_norm", 1e6),
        "norms.weighted_norm.calls_per_tick": per(get("norms.weighted_norm")["calls"], ticks),
        "stability.run_paired.self_us": per(get("stability.run_paired")["self_s"],
                                            apply["parents"].get("stability.run_paired", 0),
                                            1e6),
        "stability.write_gap_csv.s": get("stability.write_gap_csv")["total_s"],
        "stability.projections": c["projections"],
        "trace.write_csv.s": get("trace.write_csv")["total_s"],
        "trace.write_jsonl.s": get("trace.write_jsonl")["total_s"],
        "trace.bytes": c["trace_bytes"],
        "experiment.cell.self_ms": per(cell_self, cells, 1e3),
        "experiment.write.s": sum(get(n)["total_s"] for n in (
            "experiment.write_aggregate_csv", "experiment.emit_plot_data",
            "experiment.write_sweep_csv")),
        "experiment.divergent_cells": wl.divergent_cells(it),
        "config.parse.ms": mean("config.parse_run_config", 1e3),
        "workload.bytes_written": sum(p.stat().st_size for p in it.files.values()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: dict | None, small: bool = False) -> dict:
    """Run one workload and return the result object of the last line."""
    import workloads

    out = WORK / f"{name}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, small, out)
        use_golden = golden is not None and seed == golden["seed"] and not small
        wl_golden = golden.get(name, {}) if use_golden else None
        ledger = Ledger()
        if trace:
            metrics = _traced(wl, seconds, ledger, wl_golden)
            units = PER_LAYER
        else:
            metrics = _untraced(wl, seconds, ledger, wl_golden)
            units = END_TO_END
        if metrics is not None:
            _delay_kind_traces(ledger, out, None if golden is None else golden["delay-kinds"])
        failed_frac = ledger.failed / max(ledger.attempted, 1)
        print(f"failed_frac = {failed_frac:.6g} ratio "
              f"({ledger.failed} of {ledger.attempted} operations)")
        return {
            "correct": metrics is not None and ledger.failed == 0,
            "attempted": max(ledger.attempted, 1),
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
            if metrics is not None else {},
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _iterate(wl, ledger: Ledger, label: str):
    it = ledger.call(f"{wl.name} {label} pass", wl.iterate)
    if it is not None:
        ledger.record(f"{wl.name} {label} chains", True, it.chains)
    return it


def _untraced(wl, seconds: float, ledger: Ledger, golden) -> dict | None:
    """Rounds of set-up probes and one pass until ``seconds`` have passed.
    Interleaving the probes with the passes spreads both kinds of sample
    over the whole window of a noisy machine."""
    setup, passes, writes, reference = [], [], [], {}
    t_start = time.perf_counter()
    while (not passes or time.perf_counter() - t_start < seconds
           or len(setup) < SETUP_PROBES_MIN):
        for _ in range(wl.setup_per_pass):
            t0 = time.perf_counter()
            if not ledger.call(f"{wl.name} set-up probe", lambda: wl.setup_probe() or True):
                return None
            setup.append(time.perf_counter() - t0)
            ledger.record(f"{wl.name} set-up probe", True)
        clear_outputs(wl)
        it = _iterate(wl, ledger, "untraced")
        if it is None:
            return None
        digests = check_files(ledger, wl.name, it.files, reference, golden)
        reference = reference or digests
        writes.append(it.write_s)
        for _ in range(wl.rewrites_per_pass):
            clear_outputs(wl)
            write_s = ledger.call(f"{wl.name} rewrite", lambda: wl.rewrite(it))
            if write_s is None:
                return None
            writes.append(write_s)
            check_files(ledger, f"{wl.name} rewrite", it.files, reference, golden)
        if passes:
            it.results = None  # only the first pass is checked; keep memory flat
        passes.append(it)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for label, fn in wl.checks(passes[0]):
        ledger.check(f"{wl.name} {label}", fn)
    ticks = wl.ticks(passes[0])
    walls = [it.wall_s for it in passes]
    print(f"{wl.name}: {len(passes)} passes, {ticks} chain-ticks each, "
          f"wall {median(walls):.4f} s; "
          f"{len(setup)} set-up probes, {len(writes)} writes")
    # Not medians of samples: the host switches between speeds some
    # 1.3-1.7x apart every few seconds, and a median picks whichever speed
    # held for most of the run.  Throughput is the total over the run,
    # which weighs each speed by the time spent in it.  Writes are short
    # and more sensitive to the switching; nearly every run holds some in
    # the slower state, so their upper quartile is the steadier figure.
    metrics = {
        "ticks_per_s": ticks * len(passes) / sum(walls),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb,
        "write_p75_s": upper_quartile(writes),
    }
    for key, unit in END_TO_END.items():
        print(f"{key} = {metrics[key]:.6g} {unit}")
    return metrics


def _traced(wl, seconds: float, ledger: Ledger, golden) -> dict | None:
    import spans

    samples, walls_u, walls_t, reference = [], [], [], {}
    first = rec = None
    t_start = time.perf_counter()
    while not samples or time.perf_counter() - t_start < seconds:
        clear_outputs(wl)
        it_u = _iterate(wl, ledger, "untraced")
        if it_u is None:
            return None
        first = first or it_u
        digests = check_files(ledger, wl.name, it_u.files, reference, golden)
        reference = reference or digests
        rec = spans.SpanRecorder(wl.name)
        clear_outputs(wl)
        with spans.instrument(rec):
            it_t = _iterate(wl, ledger, "traced")
        if it_t is None:
            return None
        check_files(ledger, f"{wl.name} traced", it_t.files, reference, golden)
        counted = wl.ticks(it_t)
        ledger.check(f"{wl.name} traced apply_tick calls == counted ticks",
                     lambda: rec.summary().get("core.apply_tick", {}).get("calls") == counted)
        samples.append(layer_metrics(rec, it_t, wl))
        walls_u.append(it_u.wall_s)
        walls_t.append(it_t.wall_s)

    for label, fn in wl.checks(first):
        ledger.check(f"{wl.name} {label}", fn)
    rec.save(WORK / f"spans-{wl.name}.npz")
    metrics = {k: median([s[k] for s in samples]) for k in samples[0]}
    metrics["bench.untraced_wall_s"] = median(walls_u)
    metrics["bench.traced_wall_s"] = median(walls_t)
    metrics["bench.trace_overhead_frac"] = median(walls_t) / median(walls_u) - 1.0
    print(f"{wl.name}: {len(samples)} traced passes; spans of the last pass in "
          f"{(WORK / f'spans-{wl.name}.npz').relative_to(ROOT)}")
    for key, unit in PER_LAYER.items():
        print(f"{key} = {metrics[key]:.6g} {unit}")
    return metrics


def _delay_kind_traces(ledger: Ledger, out: Path, golden: dict | None) -> None:
    import workloads

    made = ledger.call("delay-kind traces", lambda: workloads.write_delay_kind_traces(out))
    if made is None:
        return
    files, checks = made
    check_files(ledger, "delay-kind", files, {}, golden)
    for label, fn in checks:
        ledger.check(label, fn)


def load_golden() -> dict:
    with open(BENCH / "golden.json") as fh:
        return json.load(fh)


def prepare() -> bool:
    """Import asyncsa from this checkout; False when it is not there."""
    src = ROOT / "src"
    if not (src / "asyncsa" / "__init__.py").is_file():
        print(f"asyncsa sources not found under {src}", file=sys.stderr)
        return False
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    import asyncsa

    if Path(asyncsa.__file__).resolve().parent != src / "asyncsa":
        print(f"imported asyncsa from {asyncsa.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not prepare():
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"pick one of {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" workload_seed={args.seed}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          load_golden())
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Coupled raw/pull-back runs and non-expansiveness probes.

A paired run drives two chains from the same start through the same random
draws: one plain, one with the radial pull-back region.  When the drive is
non-expansive under the region's norm, every step size is at most one, the
errors are shared, and reads are not delayed, the distance between the two
chains cannot grow on any tick after the last pull-back event.  The gap
report checks exactly that claim (and, for decoupled error draws, the
weaker growth bound paid for by the error mismatch).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rng import DOMAIN_CHECK, DOMAIN_ERROR_ALT, stream
from .config import RunConfig
from .core import _history, _meta, _start, apply_tick, build_runtime, tick_loop
from .errors import ConfigError
from .norms import EuclideanNorm, Norm, weighted_norm
from .stochastics import make_error_sampler
from .trace import write_table

__all__ = [
    "PairedRun",
    "run_paired",
    "gap_report",
    "non_expansiveness_check",
    "write_gap_csv",
]

GAP_SCHEMA = "gap-v1"


@dataclass(eq=False)
class PairedRun:
    """Gap series between a plain chain and its pulled-back twin.

    ``gap[m]`` is the distance between the two chains' m-th iterates in
    the region's norm; ``step_bound[n]`` is the largest step size among
    the agents active on tick n; ``error_gap[n]`` is the distance between
    the two error draws fed to the chains on tick n (zero when coupled).
    Projection tick -1 stands for the initial pull-back of the start
    point.
    """

    gap: np.ndarray
    step_bound: np.ndarray
    error_gap: np.ndarray
    projection_ticks: list[int]
    raw_final: np.ndarray
    proj_final: np.ndarray
    coupled_errors: bool
    meta: dict


def run_paired(cfg: RunConfig, coupled_errors: bool = True) -> PairedRun:
    """Run the plain and pulled-back chains under shared randomness.

    With ``coupled_errors=False`` the pulled-back chain draws its errors
    from an independent stream of the same model, which is the setting
    where the gap can grow by at most step times error mismatch per tick.
    """
    if cfg.projection is None:
        raise ConfigError("paired runs need a projection region in the config")
    bundle = build_runtime(cfg)
    region, N, d = bundle.region, bundle.horizon, bundle.d
    norm = region.norm

    x0_proj, projected0 = _start(bundle)
    projection_ticks: list[int] = [-1] if projected0 else []

    hist_raw, hist_proj = _history(bundle.x0, bundle), _history(x0_proj, bundle)
    alt_errors = None if coupled_errors else make_error_sampler(
        cfg.errors, d, cfg.seed, N, domain=DOMAIN_ERROR_ALT)
    alt_eps, alt_start = (), 0  # the second errors of the chain's drawn block

    gap = np.zeros(N + 1)
    step_bound = np.zeros(N)
    error_gap = np.zeros(N)
    gap[0] = weighted_norm(bundle.x0 - x0_proj, norm)

    # both chains consume the one drawn sample of each tick
    with np.errstate(over="ignore", invalid="ignore"):
        for n, sample, _, _ in tick_loop(hist_raw, bundle, None):
            if alt_errors is None:
                sample_proj = sample
            else:
                if n - alt_start == len(alt_eps):  # tick n starts a drawn block
                    alt_eps = ()  # hold no spent rows while take draws
                    block = bundle.block
                    alt_start, alt_eps = n, alt_errors.take(
                        block.start + len(block.active) - n)
                eps2 = alt_eps[n - alt_start]
                sample_proj = replace(sample, eps=eps2)
                error_gap[n] = weighted_norm(sample.eps - eps2, norm)
            _, projected = apply_tick(hist_proj, bundle.field, sample_proj, region)
            step_bound[n] = float(sample.step[sample.active].max())
            if projected:
                projection_ticks.append(n)
            gap[n + 1] = weighted_norm(hist_raw.latest - hist_proj.latest, norm)

    return PairedRun(
        gap=gap,
        step_bound=step_bound,
        error_gap=error_gap,
        projection_ticks=projection_ticks,
        raw_final=hist_raw.latest.copy(),
        proj_final=hist_proj.latest.copy(),
        coupled_errors=coupled_errors,
        meta=_meta(cfg, bundle, projected0),
    )


def gap_report(paired: PairedRun) -> dict:
    """Verdict on the post-event behaviour of the paired gap.

    The gap may not grow, up to 1e-9, from the first tick after the last
    pull-back event; with decoupled errors the claim weakens to a growth
    bound of step times error mismatch per tick.
    """
    tol = 1e-9
    N = len(paired.step_bound)
    events = paired.projection_ticks
    last_event = max(events) if events else None
    start_tick = 0 if last_event is None else last_event + 1

    diffs = paired.gap[1:] - paired.gap[:-1]
    allowed = paired.step_bound * paired.error_gap
    checked = np.arange(start_tick, N)
    violations = checked[diffs[start_tick:] > allowed[start_tick:] + tol]
    monotone_violations = checked[diffs[start_tick:] > tol]

    return {
        "schema": "gap-report-v1",
        "ticks": N,
        "coupled_errors": paired.coupled_errors,
        "projection_events": list(map(int, events)),
        "last_event": None if last_event is None else int(last_event),
        "checked_from_tick": int(start_tick),
        "monotone": bool(monotone_violations.size == 0),
        "first_violation": (
            None if monotone_violations.size == 0 else int(monotone_violations[0])
        ),
        "growth_bound_ok": bool(violations.size == 0),
        "sup_gap_after": float(paired.gap[start_tick:].max()),
        "final_gap": float(paired.gap[-1]),
    }


def non_expansiveness_check(op, d: int, norm: Norm | None = None,
                            samples: int = 100, seed: int = 0,
                            scale: float = 1.0) -> dict:
    """Empirical Lipschitz probe of a vector map on random point pairs."""
    norm = norm if norm is not None else EuclideanNorm()
    rng = stream(seed, DOMAIN_CHECK)
    ratios = []
    for _ in range(samples):
        u = scale * rng.standard_normal(d)
        v = scale * rng.standard_normal(d)
        den = weighted_norm(u - v, norm)
        if den < 1e-12:
            continue
        num = weighted_norm(np.asarray(op(u)) - np.asarray(op(v)), norm)
        ratios.append(num / den)
    if not ratios:
        raise ConfigError(f"no usable point pair among {samples} samples")
    ratios = np.asarray(ratios)
    return {
        "samples": int(ratios.size),
        "max_ratio": float(ratios.max()),
        "median_ratio": float(np.median(ratios)),
    }


def write_gap_csv(paired: PairedRun, path) -> None:
    """Gap series as CSV; row n carries the tick-n event flag."""
    event_at = np.zeros(len(paired.gap), dtype=bool)
    event_at[[t for t in paired.projection_ticks if t >= 0]] = True
    write_table(
        path, GAP_SCHEMA,
        [("seed", paired.meta["seed"]), ("config", paired.meta["config"])],
        ["n", "gap", "projected"],
        [np.arange(len(paired.gap)), paired.gap, event_at],
    )

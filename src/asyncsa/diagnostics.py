"""Diagnostic checks for run ingredients and endpoint quality.

Numerical checks on infinite-horizon conditions can only ever sample a
finite window, so every windowed check returns one of three verdicts:
``pass`` (statistic comfortably on the good side of its threshold),
``fail`` (comfortably on the bad side), or ``inconclusive`` (in between).
The thresholds were picked so that the step-size families shipped here
land well clear of the gaps; see docs/formats.md for the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import CHUNK, DOMAIN_CHECK, stream
from .errors import ConfigError
from .mdp import FiniteMDP, bellman_apply
from .norms import unit_max_norm, weighted_norm
from .schedules import ActivationPolicy, StepSizePolicy, make_activation_sampler
from .stability import non_expansiveness_check

__all__ = [
    "CheckItem",
    "CheckReport",
    "worst_verdict",
    "check_step_size",
    "activation_rates",
    "check_activation",
    "a2vi_residual_report",
    "a2pg_stationarity_report",
    "contraction_estimate",
    "gradient_fidelity",
    "oscillation",
]


@dataclass(eq=False)
class CheckItem:
    name: str
    verdict: str
    statistic: float
    threshold: str
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "statistic": float(self.statistic),
            "threshold": self.threshold,
            "details": self.details,
        }


def worst_verdict(verdicts) -> str:
    """The worst of some verdicts: fail, then inconclusive, then pass."""
    verdicts = set(verdicts)
    return next((v for v in ("fail", "inconclusive") if v in verdicts), "pass")


@dataclass(eq=False)
class CheckReport:
    name: str
    horizon: int
    items: list[CheckItem]

    @property
    def verdict(self) -> str:
        return worst_verdict(item.verdict for item in self.items)

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "horizon": int(self.horizon),
            "verdict": self.verdict,
            "items": [it.to_json_dict() for it in self.items],
        }


# ---------------------------------------------------------------------------
# step-size checks


def check_step_size(policy: StepSizePolicy, horizon: int = 100_000) -> CheckReport:
    """Window-based verdicts on the standard step-size conditions.

    Items: every step at most one; eventually non-increasing; divergent
    partial sums; square-summable tail; and compatibility with read
    delays growing like n**0.6.
    """
    H = int(horizon)
    if H < 100:
        raise ConfigError("step-size check needs a horizon of at least 100")
    n = np.arange(H, dtype=np.int64)
    a = policy.a_of(n)
    items = []

    amax = float(a.max())
    items.append(CheckItem(
        name="bounded-by-one",
        verdict="pass" if amax <= 1.0 else "fail",
        statistic=amax,
        threshold="max a(n) <= 1",
    ))

    tail = a[H // 10:]
    increases = np.flatnonzero(np.diff(tail) > 1e-15)
    items.append(CheckItem(
        name="eventually-decreasing",
        verdict="pass" if increases.size == 0 else "fail",
        statistic=float(increases.size),
        threshold="a(n+1) <= a(n) on the tail window",
        details={} if increases.size == 0 else {
            "first_increase_at": int(H // 10 + increases[0])
        },
    ))

    s_half = float(a[: H // 2].sum())
    s_full = float(a.sum())
    growth = s_full / s_half if s_half > 0 else float("inf")
    if growth >= 1.05:
        verdict = "pass"
    elif growth < 1.005:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    items.append(CheckItem(
        name="divergent-sum",
        verdict=verdict,
        statistic=growth,
        threshold="S(H)/S(H/2) >= 1.05 pass, < 1.005 fail",
        details={"sum_half": s_half, "sum_full": s_full},
    ))

    sq = a * a
    b1 = float(sq[H // 4: H // 2].sum())
    b2 = float(sq[H // 2:].sum())
    ratio = b2 / b1 if b1 > 0 else float("inf")
    if ratio <= 0.75:
        verdict = "pass"
    elif ratio >= 0.98:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    items.append(CheckItem(
        name="square-summable-tail",
        verdict=verdict,
        statistic=ratio,
        threshold="block ratio <= 0.75 pass, >= 0.98 fail",
        details={"block_1": b1, "block_2": b2},
    ))

    scaled = a * n.astype(float) ** 0.6
    head = float(scaled[H // 10: H // 5].max())
    tail_max = float(scaled[H // 2:].max())
    ratio = tail_max / head if head > 0 else float("inf")
    if ratio <= 1.02:
        verdict = "pass"
    elif ratio >= 1.2:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    items.append(CheckItem(
        name="delay-compatible",
        verdict=verdict,
        statistic=ratio,
        threshold="tail/head max of a(n)*n^0.6 <= 1.02 pass, >= 1.2 fail",
        details={"eta": 0.6, "head_max": head, "tail_max": tail_max},
    ))

    return CheckReport(name="step-size", horizon=H, items=items)


# ---------------------------------------------------------------------------
# activation checks


def activation_rates(policy: ActivationPolicy, d: int, horizon: int = 10_000,
                     seed: int = 0) -> np.ndarray:
    """Fraction of ticks each agent was active over a simulated window."""
    H = int(horizon)
    sampler = make_activation_sampler(policy, d, seed, H)
    counts = np.zeros(d, dtype=np.int64)
    for start in range(0, H, CHUNK):
        counts += sampler.take(min(CHUNK, H - start)).sum(axis=0)
    return counts / float(horizon)


def check_activation(policy: ActivationPolicy, d: int, seed: int = 0,
                     min_rate: float | None = None) -> CheckReport:
    """Verdict on whether every agent keeps getting selected over 10 000 ticks."""
    H = 10_000
    rates = activation_rates(policy, d, H, seed)
    floor = min_rate if min_rate is not None else 1.0 / (20.0 * d)
    lowest = float(rates.min())
    if lowest >= floor:
        verdict = "pass"
    elif lowest == 0.0:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    item = CheckItem(
        name="persistently-active",
        verdict=verdict,
        statistic=lowest,
        threshold=f"min activation rate >= {floor:g}",
        details={"rates": [float(r) for r in rates]},
    )
    return CheckReport(name="activation", horizon=H, items=[item])


# ---------------------------------------------------------------------------
# endpoint reports


def a2vi_residual_report(mdp: FiniteMDP, values: np.ndarray, eps_bound: float,
                         slack: float = 0.0, exact: np.ndarray | None = None) -> dict:
    """Residual of a value vector in the max norm against the error-floor bound.

    The asymptotic guarantee for value iteration run with persistent
    errors of size eps is a residual of at most (dimension * eps); the
    caller can add slack for the finite-horizon remainder.
    """
    values = np.asarray(values, dtype=float)
    norm = unit_max_norm(mdp.states)
    residual = float(weighted_norm(bellman_apply(mdp, values) - values, norm))
    bound = mdp.states * float(eps_bound) + float(slack)
    out = {
        "schema": "a2vi-report-v1",
        "states": int(mdp.states),
        "eps_bound": float(eps_bound),
        "residual": residual,
        "bound": bound,
        "ok": bool(residual <= bound),
    }
    if exact is not None:
        out["error_to_exact"] = float(
            weighted_norm(values - np.asarray(exact, dtype=float), norm)
        )
    return out


def a2pg_stationarity_report(surface, theta: np.ndarray, eps_bound: float,
                             tol: float = 0.05) -> dict:
    """Gradient size at a parameter vector against the error-floor bound."""
    theta = np.asarray(theta, dtype=float)
    grad_norm = float(np.linalg.norm(surface.grad(theta)))
    bound = surface.stationarity_factor * float(eps_bound) + float(tol)
    return {
        "schema": "a2pg-report-v1",
        "surface": surface.name,
        "grad_norm": grad_norm,
        "eps_bound": float(eps_bound),
        "bound": bound,
        "ok": bool(grad_norm <= bound),
    }


def contraction_estimate(mdp: FiniteMDP, samples: int = 200, seed: int = 0) -> float:
    """Largest observed one-step max-norm contraction ratio of the update operator."""
    return non_expansiveness_check(
        lambda v: bellman_apply(mdp, v), mdp.states, unit_max_norm(mdp.states),
        int(samples), seed)["max_ratio"]


def gradient_fidelity(surface) -> float:
    """Largest relative gap between the gradient and central differences
    of step 1e-5, over 20 points drawn from 2 N(0, I)."""
    points = 2.0 * stream(0, DOMAIN_CHECK).standard_normal((20, surface.d))
    h = 1e-5
    worst = 0.0
    for x in points:
        g = np.asarray(surface.grad(x), dtype=float)
        num = np.zeros_like(g)
        for k in range(x.shape[0]):
            e = np.zeros_like(x)
            e[k] = h
            num[k] = (surface.value(x + e) - surface.value(x - e)) / (2 * h)
        denom = max(float(np.linalg.norm(g)), 1e-8)
        worst = max(worst, float(np.linalg.norm(num - g)) / denom)
    return worst


def oscillation(series: np.ndarray, n0: int, n1: int | None = None) -> float:
    """Largest Euclidean excursion of a series from its value at n0.

    With the default n1 = 2 * n0 this measures the excursion over one
    doubling window, the scale on which square-summable and merely
    vanishing step sizes separate.
    """
    series = np.asarray(series, dtype=float)
    if n1 is None:
        n1 = 2 * n0
    if not 0 <= n0 <= n1 < series.shape[0]:
        raise ValueError(f"window [{n0}, {n1}] outside series of length "
                         f"{series.shape[0]}")
    window = series[n0: n1 + 1] - series[n0]
    if window.ndim == 1:
        return float(np.abs(window).max())
    return float(np.linalg.norm(window, axis=1).max())

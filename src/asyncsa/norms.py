"""Norms used for error bounds, projection regions and residual reports.

Weighted max norms take positive per-component weights w and measure
max_i |x_i| / w_i; weighted p-norms measure (sum_i |w_i x_i|^p)^(1/p).
Both are absolutely homogeneous, which the radial projection in
asyncsa.core relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "EuclideanNorm",
    "WeightedMaxNorm",
    "WeightedPNorm",
    "weighted_norm",
]


# in a config, weights need one entry per agent and default to all ones
_PER_AGENT_WEIGHTS = {"length": "norm weights", "fill": np.ones}


@dataclass(frozen=True)
class EuclideanNorm:
    kind: str = field(default="euclidean", init=False)

    def __call__(self, x: np.ndarray) -> float:
        # np.linalg.norm's own path for float64, without its checks
        x = np.asarray(x, dtype=float).ravel(order="K")
        return math.sqrt(x.dot(x))


@dataclass(frozen=True, eq=False)
class WeightedMaxNorm:
    weights: np.ndarray = field(metadata=_PER_AGENT_WEIGHTS)
    kind: str = field(default="weighted-max", init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(w > 0):
            raise ConfigError("weighted-max norm needs a 1-d positive weight vector")
        object.__setattr__(self, "weights", w)

    def __call__(self, x: np.ndarray) -> float:
        return float((np.abs(x) / self.weights).max())


@dataclass(frozen=True, eq=False)
class WeightedPNorm:
    weights: np.ndarray = field(metadata=_PER_AGENT_WEIGHTS)
    p: float = 2.0
    kind: str = field(default="weighted-p", init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(w > 0):
            raise ConfigError("weighted-p norm needs a 1-d positive weight vector")
        if not self.p >= 1.0:
            raise ConfigError("weighted-p norm needs p >= 1")
        object.__setattr__(self, "weights", w)

    def __call__(self, x: np.ndarray) -> float:
        return float(np.sum(np.abs(self.weights * x) ** self.p) ** (1.0 / self.p))


Norm = EuclideanNorm | WeightedMaxNorm | WeightedPNorm


def weighted_norm(x: np.ndarray, norm: Norm) -> float:
    """Evaluate ``norm`` at ``x``; thin dispatch kept for API symmetry."""
    return norm(np.asarray(x, dtype=float))


def unit_max_norm(d: int) -> WeightedMaxNorm:
    """Max norm as the weighted-max norm with unit weights."""
    return WeightedMaxNorm(np.ones(int(d)))

"""Driving fields for the update rule x <- x + a * (f(view) + error + noise).

A field answers two evaluations:

* ``vector(x)``                -- f at a single point, all components;
* ``vector_views(V, agents)``  -- component ``agents[c]`` of f at column c
  of V, where column c of the (d, k) matrix V is that agent's (possibly
  stale) view of the iterate, with the bits of a call for all d agents;
  ``agents`` None stands for every agent, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import ConfigError

try:  # the C function np.einsum calls, without its Python-level dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy < 2
    _einsum = np.einsum

__all__ = [
    "Field",
    "QuadraticField",
    "ScaledIdentityField",
    "QuadraticBowl",
    "Rosenbrock",
    "GradientDescentField",
    "random_pd_matrix",
]


def column_views(views: np.ndarray) -> np.ndarray:
    """(d, k) views as the first k columns of a C-ordered (d, d) buffer:
    einsum's last bits depend on the stride of its summed axis."""
    buf = np.empty((len(views), len(views)))
    buf[:, :views.shape[1]] = views
    return buf[:, :views.shape[1]]


def own_views(views: np.ndarray, agents: np.ndarray | None) -> np.ndarray:
    """Each agent's view of its own component."""
    return np.diagonal(views) if agents is None else views[agents, np.arange(len(agents))]


class Field(Protocol):
    d: int

    def vector(self, x: np.ndarray) -> np.ndarray: ...

    def vector_views(self, views: np.ndarray, agents=None) -> np.ndarray: ...


class QuadraticField:
    """f_i(x) = -(M_i x)_i for one positive-definite matrix per agent.

    A single matrix is shared by all agents.  Only row i of M_i ever
    enters component i, so the field keeps just the stacked own-rows
    matrix.
    """

    def __init__(self, matrices: np.ndarray | list[np.ndarray]):
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim == 2:
            d = mats.shape[0]
            if mats.shape != (d, d):
                raise ConfigError("quadratic field needs a square matrix")
            # a C-order copy: einsum's last bits depend on the layout
            rows = np.array(mats, order="C")
        elif mats.ndim == 3:
            d = mats.shape[0]
            if mats.shape != (d, d, d):
                raise ConfigError("quadratic field needs one (d, d) matrix per agent")
            rows = mats[np.arange(d), np.arange(d)]
        else:
            raise ConfigError("quadratic field needs a matrix or a list of matrices")
        self.d = d
        self.rows = rows

    def vector(self, x):
        return -(self.rows @ x)

    def vector_views(self, views, agents=None):
        if agents is None:
            return -_einsum("ij,ji->i", self.rows, views)
        return -_einsum("ij,ji->i", self.rows[agents], column_views(views))


class ScaledIdentityField:
    """f(x) = gain * x; gain=-1 is the classic stable line, +1 expansive."""

    def __init__(self, gain: float, d: int):
        self.gain = float(gain)
        self.d = int(d)

    def vector(self, x):
        return self.gain * x

    def vector_views(self, views, agents=None):
        return self.gain * own_views(views, agents)


# ---------------------------------------------------------------------------
# smooth benchmark surfaces for gradient runs


@dataclass(eq=False)
class QuadraticBowl:
    """pi(theta) = 0.5 theta' M theta with M positive definite."""

    matrix: np.ndarray
    name: str = field(default="quadratic-bowl", init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("quadratic bowl needs a square matrix")
        if not np.allclose(m, m.T):
            raise ConfigError("quadratic bowl matrix must be symmetric")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise ConfigError("quadratic bowl matrix must be positive definite")
        self.matrix = m
        self.d = m.shape[0]
        # gradient magnification of a bias in the stationarity bound
        self.stationarity_factor = float(np.linalg.norm(m, 2))

    def value(self, theta: np.ndarray) -> float:
        return float(0.5 * theta @ self.matrix @ theta)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.matrix @ theta


@dataclass(eq=False)
class Rosenbrock:
    """pi(theta) = (a - t1)^2 + b (t2 - t1^2)^2 on R^2."""

    a: float = 1.0
    b: float = 100.0
    name: str = field(default="rosenbrock", init=False)

    def __post_init__(self):
        self.d = 2
        self.stationarity_factor = 2.0

    def value(self, theta: np.ndarray) -> float:
        t1, t2 = float(theta[0]), float(theta[1])
        return (self.a - t1) ** 2 + self.b * (t2 - t1 * t1) ** 2

    def grad(self, theta: np.ndarray) -> np.ndarray:
        t1, t2 = theta[0], theta[1]
        g1 = -2.0 * (self.a - t1) - 4.0 * self.b * t1 * (t2 - t1 * t1)
        g2 = 2.0 * self.b * (t2 - t1 * t1)
        return np.array([g1, g2])


Surface = QuadraticBowl | Rosenbrock


class GradientDescentField:
    """f(theta) = -grad pi(theta); the error model stands in for gradient
    estimator bias."""

    def __init__(self, surface: Surface):
        self.surface = surface
        self.d = surface.d

    def vector(self, x):
        return -self.surface.grad(x)

    def vector_views(self, views, agents=None):
        # grad of a (d, d) stack of view columns; agent i keeps entry i of column
        # i.  The bowl's M @ V of chosen columns alone has other bits than the
        # full product, so they go back to their own columns of a full stack
        if agents is None:
            return -np.diagonal(self.surface.grad(views))
        full = np.zeros((self.d, self.d))
        full[:, agents] = views
        return -self.surface.grad(full)[agents, agents]


def random_pd_matrix(
    d: int,
    rng: np.random.Generator,
    eig_range: tuple[float, float] = (0.5, 2.0),
) -> np.ndarray:
    """Random symmetric positive-definite matrix Q' diag(lam) Q with Q from
    the QR factorisation of a Gaussian matrix and lam uniform in eig_range."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = rng.uniform(eig_range[0], eig_range[1], size=d)
    m = q.T @ np.diag(lam) @ q
    return (m + m.T) / 2.0

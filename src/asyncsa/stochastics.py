"""Delay, approximation-error and martingale-noise models.

Samplers draw from per-purpose seed streams (see asyncsa._rng): errors and
noise each own one stream per run, delays own one stream per ordered agent
pair, so swapping one model never perturbs the samples of another.  Every
buffered stream is read through ``_rng.Rows``, one block of ``CHUNK``
rows at a time; each kind's draw function is chosen in its ``make_*``
factory, and zero or constant models draw nothing.

Delay samplers serve a full (d, d) matrix per tick with entry [j, i] the
age of agent i's view of component j; the diagonal is always 0 and every
entry is clamped to the current tick.  They advance tick by tick and
cannot rewind.  Stale-refresh ages follow a recursion, but only through
each view's last refresh, so a whole block of coins becomes a block of
age matrices at once.

Error samplers enforce their declared bound on every sample: each block
is checked before any of its rows is served.  Componentwise-uniform and
constant errors are checked vectorised by their largest component;
norm-ball errors row by row in their own norm.  Noise samplers have zero
mean conditional on the past and components bounded by their level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import DOMAIN_DELAY, DOMAIN_ERROR, DOMAIN_NOISE, Rows, stream
from .errors import ConfigError
from .norms import EuclideanNorm, Norm, WeightedMaxNorm

__all__ = [
    "ZeroDelays",
    "UniformDelays",
    "GeometricDelays",
    "StaleRefreshDelays",
    "ZeroErrors",
    "ComponentUniformErrors",
    "FixedBiasErrors",
    "NormBallErrors",
    "ZeroNoise",
    "UniformNoise",
    "RademacherNoise",
    "make_delay_sampler",
    "make_error_sampler",
    "make_noise_sampler",
]


# ---------------------------------------------------------------------------
# delay models


@dataclass(frozen=True)
class ZeroDelays:
    kind: str = field(default="zero", init=False)


@dataclass(frozen=True)
class UniformDelays:
    """Ages i.i.d. uniform on {0, ..., tau_max}, clamped to the tick."""

    tau_max: int
    kind: str = field(default="bounded-uniform", init=False)

    def __post_init__(self):
        if self.tau_max < 0:
            raise ConfigError("bounded-uniform delays need tau_max >= 0")


@dataclass(frozen=True, eq=False)
class GeometricDelays:
    """Ages i.i.d. geometric on {0, 1, ...} with the given mean, clamped.

    ``mean`` may be a scalar or a (d, d) per-pair matrix.
    """

    mean: float | np.ndarray
    kind: str = field(default="geometric", init=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if not np.all(mean > 0):
            raise ConfigError("geometric delays need mean > 0")
        object.__setattr__(self, "mean", mean if mean.ndim else float(mean))


@dataclass(frozen=True, eq=False)
class StaleRefreshDelays:
    """Markov ages: each tick a view refreshes with probability p_c, else
    its age grows by one.

    A scalar p_c defaults to symmetric coins (both directions of a pair
    share one age); a (d, d) matrix gives independent per-pair coins
    unless ``symmetric`` is forced and the matrix is symmetric.
    """

    p_c: float | np.ndarray
    symmetric: bool | None = None

    kind: str = field(default="stale-refresh", init=False)

    def __post_init__(self):
        p = np.asarray(self.p_c, dtype=float)
        if not np.all((p > 0) & (p <= 1)):
            raise ConfigError("stale-refresh needs p_c in (0, 1]")
        if p.ndim == 0:
            object.__setattr__(self, "p_c", float(p))
            if self.symmetric is None:
                object.__setattr__(self, "symmetric", True)
        elif p.ndim == 2 and p.shape[0] == p.shape[1]:
            object.__setattr__(self, "p_c", p)
            sym = self.symmetric
            if sym is None:
                object.__setattr__(self, "symmetric", False)
            elif sym and not np.allclose(p, p.T):
                raise ConfigError("symmetric stale-refresh needs a symmetric p_c matrix")
        else:
            raise ConfigError("p_c must be a scalar or a square matrix")


DelayModel = ZeroDelays | UniformDelays | GeometricDelays | StaleRefreshDelays


class _DelaySamplerBase:
    """Tick-sequential delay matrices; ``matrix(n)`` may skip forward but
    never backward (the age processes evolve once per tick).

    The diagonal is always zero: delays model communication between
    distinct agents, and an agent reads its own component directly.
    """

    always_zero = False

    def __init__(self, d: int):
        self.d = d
        self._n = -1
        self._cur = np.zeros((d, d), dtype=np.int64)

    def matrix(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("tick must be >= 0")
        if n < self._n:
            raise ValueError("delay sampler cannot rewind")
        while self._n < n:
            self._n += 1
            self._step(self._n)
        return self._cur


class _ZeroDelaySampler(_DelaySamplerBase):
    always_zero = True

    def _step(self, n: int) -> None:
        pass


def _pair_matrix_param(value, d: int) -> np.ndarray:
    """A per-pair parameter as a (d, d) matrix; a scalar is broadcast."""
    arr = np.asarray(value, dtype=float)
    return np.full((d, d), float(arr)) if arr.ndim == 0 else arr


class _IidDelaySampler(_DelaySamplerBase):
    """Per-pair i.i.d. ages; ``draw(rng, j, i, size)`` gives the next
    ``size`` ages of pair (j, i) from that pair's stream."""

    def __init__(self, d: int, seed: int, draw):
        super().__init__(d)
        pairs = [(j, i) for j in range(d) for i in range(d) if j != i]
        rngs = [stream(seed, DOMAIN_DELAY, j, i) for j, i in pairs]

        def fill(size):
            block = np.zeros((size, d, d), dtype=np.int64)
            for (j, i), rng in zip(pairs, rngs):
                block[:, j, i] = draw(rng, j, i, size)
            return block

        self._rows = Rows(fill)

    def _step(self, n: int) -> None:
        self._cur = np.minimum(self._rows.next(), n)


class _StaleRefreshSampler(_DelaySamplerBase):
    def __init__(self, model: StaleRefreshDelays, d: int, seed: int):
        super().__init__(d)
        p = _pair_matrix_param(model.p_c, d)
        if model.symmetric:
            pairs = [(j, i) for j in range(d) for i in range(j + 1, d)]
        else:
            pairs = [(j, i) for j in range(d) for i in range(d) if j != i]
        p = [p[j, i] for j, i in pairs]
        rngs = [stream(seed, DOMAIN_DELAY, j, i) for j, i in pairs]
        ages = np.zeros(len(pairs), dtype=np.int64)  # at the last row filled

        def fill(size):
            """Matrices of the next ``size`` ticks, one pair's coins at a time.

            A view is ``t - s`` ticks old at block row t when s was its last
            refresh in the block, and ``t + 1`` older than at the block's
            start when it had none.
            """
            block = np.zeros((size, d, d), dtype=np.int64)
            t = np.arange(size)
            for k, ((j, i), rng) in enumerate(zip(pairs, rngs)):
                last = np.where(rng.random(size) < p[k], t, -1 - ages[k])
                np.maximum.accumulate(last, out=last)
                np.subtract(t, last, out=last)
                block[:, j, i] = last
                if model.symmetric:
                    block[:, i, j] = last
                ages[k] = last[-1]
            return block

        # tick 0 reads fresh views and draws no coin; tick n >= 1 is row n - 1
        self._matrices = Rows(fill)

    def _step(self, n: int) -> None:
        self._cur = self._matrices.next() if n else np.zeros((self.d, self.d), dtype=np.int64)


def make_delay_sampler(model: DelayModel, d: int, seed: int):
    if isinstance(model, ZeroDelays):
        return _ZeroDelaySampler(d)
    if isinstance(model, UniformDelays):
        high = model.tau_max + 1
        return _IidDelaySampler(
            d, seed, lambda rng, j, i, size: rng.integers(0, high, size=size))
    if isinstance(model, GeometricDelays):
        p = 1.0 / (1.0 + _pair_matrix_param(model.mean, d))
        return _IidDelaySampler(
            d, seed, lambda rng, j, i, size: rng.geometric(p[j, i], size=size) - 1)
    if isinstance(model, StaleRefreshDelays):
        return _StaleRefreshSampler(model, d, seed)
    raise ConfigError(f"unknown delay model {model!r}")


# ---------------------------------------------------------------------------
# error models


@dataclass(frozen=True)
class ZeroErrors:
    kind: str = field(default="zero", init=False)


@dataclass(frozen=True)
class ComponentUniformErrors:
    """Components i.i.d. uniform on [0, bound/2].

    Deliberately biased (mean bound/4 per component); the declared bound
    holds in the max norm since no component exceeds bound/2.
    """

    bound: float
    kind: str = field(default="componentwise-uniform", init=False)

    def __post_init__(self):
        if not self.bound >= 0:
            raise ConfigError("error bound must be >= 0")


@dataclass(frozen=True, eq=False)
class FixedBiasErrors:
    """The same vector every tick; bound is its Euclidean norm."""

    bias: np.ndarray
    kind: str = field(default="fixed-bias", init=False)

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise ConfigError("fixed-bias needs a finite vector")
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True, eq=False)
class NormBallErrors:
    """Zero-mean draws uniform on the radius-``bound`` ball of ``norm``
    (Euclidean or weighted-max)."""

    bound: float
    norm: Norm = field(default=EuclideanNorm(), metadata={"family": "norm"})
    kind: str = field(default="norm-ball-uniform", init=False)

    def __post_init__(self):
        if not self.bound >= 0:
            raise ConfigError("error bound must be >= 0")
        if not isinstance(self.norm, (EuclideanNorm, WeightedMaxNorm)):
            raise ConfigError("norm-ball errors support euclidean or weighted-max norms")


ErrorModel = ZeroErrors | ComponentUniformErrors | FixedBiasErrors | NormBallErrors


def _constant(vec: np.ndarray):
    """A fill that serves ``vec`` in every row and draws nothing."""
    return lambda size: np.broadcast_to(vec, (size, len(vec)))


def _max_abs(rows: np.ndarray) -> float:
    return float(max(rows.max(), -rows.min()))


def _max_norm(norm: Norm):
    return lambda rows: max(norm(row) for row in rows)


class _RowSampler(Rows):
    """Per-tick vectors: ``sample(n)`` is the next row of ``fill``'s blocks."""

    sample = Rows.next


class _ErrorSampler(_RowSampler):
    """Per-tick error vectors.  Every block is checked against ``bound``
    before any of its rows is served; ``worst(block)`` is the block's
    largest norm."""

    def __init__(self, bound: float, fill, worst):
        self.bound = bound = float(bound)

        def checked(size):
            block = fill(size)
            top = worst(block)
            if top > bound + 1e-9:
                raise AssertionError(f"error sample breached its bound: {top} > {bound}")
            return block

        super().__init__(checked)


def make_error_sampler(model: ErrorModel, d: int, seed: int,
                       domain: int = DOMAIN_ERROR):
    if isinstance(model, ZeroErrors):
        return _ErrorSampler(0.0, _constant(np.zeros(d)), _max_abs)
    if isinstance(model, FixedBiasErrors):
        bias = model.bias.copy()
        # checked by its largest component, which never exceeds its norm
        return _ErrorSampler(np.linalg.norm(bias), _constant(bias), _max_abs)
    rng = stream(seed, domain)
    if isinstance(model, ComponentUniformErrors):
        half = model.bound / 2.0
        return _ErrorSampler(
            model.bound, lambda size: rng.uniform(0.0, half, size=(size, d)), _max_abs)
    if isinstance(model, NormBallErrors):
        norm, bound = model.norm, float(model.bound)
        if isinstance(norm, WeightedMaxNorm):
            half = bound * norm.weights
            return _ErrorSampler(
                bound, lambda size: rng.uniform(-half, half, size=(size, d)),
                _max_norm(norm))

        def fill(size):
            g = rng.standard_normal((size, d))
            g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
            radii = bound * rng.random(size) ** (1.0 / d)
            return g * radii[:, None]

        return _ErrorSampler(bound, fill, _max_norm(norm))
    raise ConfigError(f"unknown error model {model!r}")


# ---------------------------------------------------------------------------
# noise models


@dataclass(frozen=True)
class ZeroNoise:
    kind: str = field(default="zero", init=False)


@dataclass(frozen=True)
class UniformNoise:
    """Components i.i.d. uniform on [-level, level]."""

    level: float
    kind: str = field(default="bounded-uniform", init=False)

    def __post_init__(self):
        if not self.level >= 0:
            raise ConfigError("noise level must be >= 0")


@dataclass(frozen=True)
class RademacherNoise:
    """Components i.i.d. +/- level with equal probability."""

    level: float
    kind: str = field(default="bounded-rademacher", init=False)

    def __post_init__(self):
        if not self.level >= 0:
            raise ConfigError("noise level must be >= 0")


NoiseModel = ZeroNoise | UniformNoise | RademacherNoise


def make_noise_sampler(model: NoiseModel, d: int, seed: int):
    if isinstance(model, ZeroNoise):
        return _RowSampler(_constant(np.zeros(d)))
    if not isinstance(model, (UniformNoise, RademacherNoise)):
        raise ConfigError(f"unknown noise model {model!r}")
    rng = stream(seed, DOMAIN_NOISE)
    level = float(model.level)
    if isinstance(model, UniformNoise):
        return _RowSampler(lambda size: rng.uniform(-level, level, size=(size, d)))

    def fill(size):
        signs = rng.integers(0, 2, size=(size, d)) * 2 - 1
        return level * signs.astype(float)

    return _RowSampler(fill)

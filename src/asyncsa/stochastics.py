"""Delay, approximation-error and martingale-noise models.

Samplers draw from per-purpose seed streams (see asyncsa._rng): errors and
noise each own one stream per run, delays own one stream per ordered agent
pair, so swapping one model never perturbs the samples of another.

Delay samplers serve a full (d, d) matrix per tick with entry [j, i] the
age of agent i's view of component j; the diagonal is always 0 and every
entry is clamped to the current tick.  They advance tick by tick and
cannot rewind.

Error samplers enforce their declared norm bound on every sample (checked
vectorised at buffer refill).  Noise samplers have zero mean conditional
on the past and components bounded by their level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import DOMAIN_DELAY, DOMAIN_ERROR, DOMAIN_NOISE, stream
from .errors import ConfigError
from .norms import EuclideanNorm, Norm, WeightedMaxNorm, norm_from_config, unit_max_norm

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
    "delay_model_from_config",
    "error_model_from_config",
    "noise_model_from_config",
]

_CHUNK = 4096


# ---------------------------------------------------------------------------
# delay models


@dataclass(frozen=True)
class ZeroDelays:
    kind: str = field(default="zero", init=False)

    def to_config(self) -> dict:
        return {"kind": "zero"}


@dataclass(frozen=True)
class UniformDelays:
    """Ages i.i.d. uniform on {0, ..., tau_max}, clamped to the tick."""

    tau_max: int
    kind: str = field(default="bounded-uniform", init=False)

    def __post_init__(self):
        if self.tau_max < 0:
            raise ConfigError("bounded-uniform delays need tau_max >= 0")

    def to_config(self) -> dict:
        return {"kind": "bounded-uniform", "tau_max": int(self.tau_max)}


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

    def to_config(self) -> dict:
        m = self.mean
        return {
            "kind": "geometric",
            "mean": m.tolist() if isinstance(m, np.ndarray) else float(m),
        }


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

    def to_config(self) -> dict:
        p = self.p_c
        return {
            "kind": "stale-refresh",
            "p_c": p.tolist() if isinstance(p, np.ndarray) else float(p),
            "symmetric": bool(self.symmetric),
        }


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

    def _step(self, n: int) -> None:
        raise NotImplementedError


class _ZeroDelaySampler(_DelaySamplerBase):
    always_zero = True

    def _step(self, n: int) -> None:
        pass


def _pair_matrix_param(value, d: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full((d, d), float(arr))
    if arr.shape != (d, d):
        raise ConfigError(f"{name} matrix must be ({d}, {d})")
    return arr


class _IidDelaySampler(_DelaySamplerBase):
    """Shared machinery for per-pair i.i.d. age draws."""

    def __init__(self, d: int, seed: int):
        super().__init__(d)
        self._pairs = [(j, i) for j in range(d) for i in range(d) if j != i]
        self._rngs = [stream(seed, DOMAIN_DELAY, j, i) for j, i in self._pairs]
        self._buf = np.zeros((0, d, d), dtype=np.int64)
        self._i = 0

    def _draw(self, j: int, i: int, rng: np.random.Generator) -> np.ndarray:
        """The next ``_CHUNK`` ages of pair (j, i) from its stream."""
        raise NotImplementedError

    def _refill(self) -> None:
        self._buf = np.zeros((_CHUNK, self.d, self.d), dtype=np.int64)
        for (j, i), rng in zip(self._pairs, self._rngs):
            self._buf[:, j, i] = self._draw(j, i, rng)
        self._i = 0

    def _step(self, n: int) -> None:
        if self._i >= len(self._buf):
            self._refill()
        self._cur = np.minimum(self._buf[self._i], n)
        self._i += 1


class _UniformDelaySampler(_IidDelaySampler):
    def __init__(self, model: UniformDelays, d: int, seed: int):
        self._tau_max = model.tau_max
        super().__init__(d, seed)

    def _draw(self, j, i, rng):
        return rng.integers(0, self._tau_max + 1, size=_CHUNK)


class _GeometricDelaySampler(_IidDelaySampler):
    def __init__(self, model: GeometricDelays, d: int, seed: int):
        mean = _pair_matrix_param(model.mean, d, "geometric mean")
        self._p = 1.0 / (1.0 + mean)
        super().__init__(d, seed)

    def _draw(self, j, i, rng):
        return rng.geometric(self._p[j, i], size=_CHUNK) - 1


class _StaleRefreshSampler(_DelaySamplerBase):
    def __init__(self, model: StaleRefreshDelays, d: int, seed: int):
        super().__init__(d)
        p = _pair_matrix_param(model.p_c, d, "p_c")
        if model.symmetric:
            pairs = [(j, i) for j in range(d) for i in range(j + 1, d)]
        else:
            pairs = [(j, i) for j in range(d) for i in range(d) if j != i]
        self._symmetric = bool(model.symmetric)
        self._rows = np.array([j for j, _ in pairs], dtype=np.intp)
        self._cols = np.array([i for _, i in pairs], dtype=np.intp)
        self._p = p[self._rows, self._cols]
        self._ages = np.zeros(len(pairs), dtype=np.int64)
        self._rngs = [stream(seed, DOMAIN_DELAY, j, i) for j, i in pairs]
        self._buf = np.zeros((0, len(pairs)))
        self._i = 0

    def _coins(self) -> np.ndarray:
        if self._i >= len(self._buf):
            self._buf = np.column_stack([rng.random(_CHUNK) for rng in self._rngs])
            self._i = 0
        row = self._buf[self._i]
        self._i += 1
        return row

    def _step(self, n: int) -> None:
        if n == 0:
            self._ages[:] = 0
        else:
            coins = self._coins()
            self._ages = np.where(coins < self._p, 0, self._ages + 1)
        cur = np.zeros((self.d, self.d), dtype=np.int64)
        cur[self._rows, self._cols] = self._ages
        if self._symmetric:
            cur[self._cols, self._rows] = self._ages
        self._cur = cur


def make_delay_sampler(model: DelayModel, d: int, seed: int):
    if isinstance(model, ZeroDelays):
        return _ZeroDelaySampler(d)
    if isinstance(model, UniformDelays):
        return _UniformDelaySampler(model, d, seed)
    if isinstance(model, GeometricDelays):
        return _GeometricDelaySampler(model, d, seed)
    if isinstance(model, StaleRefreshDelays):
        return _StaleRefreshSampler(model, d, seed)
    raise ConfigError(f"unknown delay model {model!r}")


# ---------------------------------------------------------------------------
# error models


@dataclass(frozen=True)
class ZeroErrors:
    kind: str = field(default="zero", init=False)

    def to_config(self) -> dict:
        return {"kind": "zero"}


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

    def to_config(self) -> dict:
        return {"kind": "componentwise-uniform", "bound": float(self.bound)}


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

    def to_config(self) -> dict:
        return {"kind": "fixed-bias", "bias": [float(v) for v in self.bias]}


@dataclass(frozen=True, eq=False)
class NormBallErrors:
    """Zero-mean draws uniform on the radius-``bound`` ball of ``norm``
    (Euclidean or weighted-max)."""

    bound: float
    norm: Norm = EuclideanNorm()
    kind: str = field(default="norm-ball-uniform", init=False)

    def __post_init__(self):
        if not self.bound >= 0:
            raise ConfigError("error bound must be >= 0")
        if not isinstance(self.norm, (EuclideanNorm, WeightedMaxNorm)):
            raise ConfigError("norm-ball errors support euclidean or weighted-max norms")

    def to_config(self) -> dict:
        return {
            "kind": "norm-ball-uniform",
            "bound": float(self.bound),
            "norm": self.norm.to_config(),
        }


ErrorModel = ZeroErrors | ComponentUniformErrors | FixedBiasErrors | NormBallErrors


class _ErrorSamplerBase:
    """Per-tick error vectors; ``bound``/``norm`` echo the model contract."""

    def __init__(self, model, d: int, bound: float, norm: Norm):
        self.model = model
        self.d = d
        self.bound = float(bound)
        self.norm = norm

    def sample(self, n: int) -> np.ndarray:
        raise NotImplementedError


class _ZeroErrorSampler(_ErrorSamplerBase):
    def __init__(self, model, d):
        super().__init__(model, d, 0.0, EuclideanNorm())
        self._zeros = np.zeros(d)

    def sample(self, n: int) -> np.ndarray:
        return self._zeros


class _BufferedErrorSampler(_ErrorSamplerBase):
    def __init__(self, model, d, bound, norm, seed, domain=DOMAIN_ERROR):
        super().__init__(model, d, bound, norm)
        self._rng = stream(seed, domain)
        self._buf = np.empty((0, d))
        self._i = 0

    def _fill(self, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int) -> np.ndarray:
        if self._i >= len(self._buf):
            self._buf = self._fill(_CHUNK)
            self._check(self._buf)
            self._i = 0
        row = self._buf[self._i]
        self._i += 1
        return row

    def _check(self, rows: np.ndarray) -> None:
        worst = max(self.norm(row) for row in rows) if len(rows) else 0.0
        if worst > self.bound + 1e-9:
            raise AssertionError(
                f"error sample breached its bound: {worst} > {self.bound}"
            )


class _ComponentUniformSampler(_BufferedErrorSampler):
    def __init__(self, model: ComponentUniformErrors, d, seed, domain=DOMAIN_ERROR):
        super().__init__(model, d, model.bound, unit_max_norm(d), seed, domain)

    def _fill(self, size):
        return self._rng.uniform(0.0, self.model.bound / 2.0, size=(size, self.d))

    def _check(self, rows):
        worst = float(np.abs(rows).max()) if len(rows) else 0.0
        if worst > self.bound + 1e-9:
            raise AssertionError(
                f"error sample breached its bound: {worst} > {self.bound}"
            )


class _FixedBiasSampler(_ErrorSamplerBase):
    def __init__(self, model: FixedBiasErrors, d, seed):
        if model.bias.shape != (d,):
            raise ConfigError(f"fixed-bias vector must have length {d}")
        super().__init__(model, d, float(np.linalg.norm(model.bias)), EuclideanNorm())
        self._bias = model.bias.copy()

    def sample(self, n: int) -> np.ndarray:
        return self._bias


class _NormBallSampler(_BufferedErrorSampler):
    def __init__(self, model: NormBallErrors, d, seed, domain=DOMAIN_ERROR):
        norm = model.norm
        if isinstance(norm, WeightedMaxNorm) and norm.weights.shape != (d,):
            raise ConfigError(f"norm weights must have length {d}")
        super().__init__(model, d, model.bound, norm, seed, domain)

    def _fill(self, size):
        if isinstance(self.norm, WeightedMaxNorm):
            half = self.bound * self.norm.weights
            return self._rng.uniform(-half, half, size=(size, self.d))
        g = self._rng.standard_normal((size, self.d))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
        radii = self.bound * self._rng.random(size) ** (1.0 / self.d)
        return g * radii[:, None]


def make_error_sampler(model: ErrorModel, d: int, seed: int,
                       domain: int = DOMAIN_ERROR):
    if isinstance(model, ZeroErrors):
        return _ZeroErrorSampler(model, d)
    if isinstance(model, ComponentUniformErrors):
        return _ComponentUniformSampler(model, d, seed, domain)
    if isinstance(model, FixedBiasErrors):
        return _FixedBiasSampler(model, d, seed)
    if isinstance(model, NormBallErrors):
        return _NormBallSampler(model, d, seed, domain)
    raise ConfigError(f"unknown error model {model!r}")


# ---------------------------------------------------------------------------
# noise models


@dataclass(frozen=True)
class ZeroNoise:
    kind: str = field(default="zero", init=False)

    def to_config(self) -> dict:
        return {"kind": "zero"}


@dataclass(frozen=True)
class UniformNoise:
    """Components i.i.d. uniform on [-level, level]."""

    level: float
    kind: str = field(default="bounded-uniform", init=False)

    def __post_init__(self):
        if not self.level >= 0:
            raise ConfigError("noise level must be >= 0")

    def to_config(self) -> dict:
        return {"kind": "bounded-uniform", "level": float(self.level)}


@dataclass(frozen=True)
class RademacherNoise:
    """Components i.i.d. +/- level with equal probability."""

    level: float
    kind: str = field(default="bounded-rademacher", init=False)

    def __post_init__(self):
        if not self.level >= 0:
            raise ConfigError("noise level must be >= 0")

    def to_config(self) -> dict:
        return {"kind": "bounded-rademacher", "level": float(self.level)}


NoiseModel = ZeroNoise | UniformNoise | RademacherNoise


class _NoiseSamplerBase:
    is_zero = False

    def __init__(self, model, d: int, level: float):
        self.model = model
        self.d = d
        self.level = float(level)

    def sample(self, n: int) -> np.ndarray:
        raise NotImplementedError


class _ZeroNoiseSampler(_NoiseSamplerBase):
    is_zero = True

    def __init__(self, model, d):
        super().__init__(model, d, 0.0)
        self._zeros = np.zeros(d)

    def sample(self, n):
        return self._zeros


class _BufferedNoiseSampler(_NoiseSamplerBase):
    def __init__(self, model, d, level, seed):
        super().__init__(model, d, level)
        self._rng = stream(seed, DOMAIN_NOISE)
        self._buf = np.empty((0, d))
        self._i = 0

    def _fill(self, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n):
        if self._i >= len(self._buf):
            self._buf = self._fill(_CHUNK)
            self._i = 0
        row = self._buf[self._i]
        self._i += 1
        return row


class _UniformNoiseSampler(_BufferedNoiseSampler):
    def __init__(self, model: UniformNoise, d, seed):
        super().__init__(model, d, model.level, seed)

    def _fill(self, size):
        return self._rng.uniform(-self.level, self.level, size=(size, self.d))


class _RademacherSampler(_BufferedNoiseSampler):
    def __init__(self, model: RademacherNoise, d, seed):
        super().__init__(model, d, model.level, seed)

    def _fill(self, size):
        signs = self._rng.integers(0, 2, size=(size, self.d)) * 2 - 1
        return self.level * signs.astype(float)


def make_noise_sampler(model: NoiseModel, d: int, seed: int):
    if isinstance(model, ZeroNoise):
        return _ZeroNoiseSampler(model, d)
    if isinstance(model, UniformNoise):
        return _UniformNoiseSampler(model, d, seed)
    if isinstance(model, RademacherNoise):
        return _RademacherSampler(model, d, seed)
    raise ConfigError(f"unknown noise model {model!r}")


# ---------------------------------------------------------------------------
# config parsing


def delay_model_from_config(spec: dict | None) -> DelayModel:
    if spec is None:
        return ZeroDelays()
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("delays config must be a mapping with a 'kind' key")
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        if kind == "zero":
            model = ZeroDelays()
        elif kind == "bounded-uniform":
            model = UniformDelays(tau_max=int(spec.pop("tau_max")))
        elif kind == "geometric":
            model = GeometricDelays(mean=spec.pop("mean"))
        elif kind == "stale-refresh":
            model = StaleRefreshDelays(
                p_c=spec.pop("p_c"), symmetric=spec.pop("symmetric", None)
            )
        else:
            raise ConfigError(f"unknown delays kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"delays config missing key {exc.args[0]!r}") from None
    if spec:
        raise ConfigError(f"unknown delays keys: {sorted(spec)}")
    return model


def error_model_from_config(spec: dict | None, d: int) -> ErrorModel:
    if spec is None:
        return ZeroErrors()
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("errors config must be a mapping with a 'kind' key")
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        if kind == "zero":
            model = ZeroErrors()
        elif kind == "componentwise-uniform":
            model = ComponentUniformErrors(bound=float(spec.pop("bound")))
        elif kind == "fixed-bias":
            model = FixedBiasErrors(bias=spec.pop("bias"))
        elif kind == "norm-ball-uniform":
            model = NormBallErrors(
                bound=float(spec.pop("bound")),
                norm=norm_from_config(spec.pop("norm", None), d),
            )
        else:
            raise ConfigError(f"unknown errors kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"errors config missing key {exc.args[0]!r}") from None
    if spec:
        raise ConfigError(f"unknown errors keys: {sorted(spec)}")
    return model


def noise_model_from_config(spec: dict | None) -> NoiseModel:
    if spec is None:
        return ZeroNoise()
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("noise config must be a mapping with a 'kind' key")
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        if kind == "zero":
            model = ZeroNoise()
        elif kind == "bounded-uniform":
            model = UniformNoise(level=float(spec.pop("level")))
        elif kind == "bounded-rademacher":
            model = RademacherNoise(level=float(spec.pop("level")))
        else:
            raise ConfigError(f"unknown noise kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"noise config missing key {exc.args[0]!r}") from None
    if spec:
        raise ConfigError(f"unknown noise keys: {sorted(spec)}")
    return model

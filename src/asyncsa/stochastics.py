"""Delay, approximation-error and martingale-noise models.

Samplers draw from per-purpose seed streams (see asyncsa._rng): errors and
noise each own one stream per run, delays own one stream per ordered agent
pair, so swapping one model never perturbs the samples of another.  Every
sampler is an ``_rng.Rows`` stream of per-tick rows, drawn by ``Rows``' one
fill policy: a block is as long as the ``take`` that draws it, a run's tick
block, except for the Euclidean norm-ball errors (``CHUNK`` rows) and full
delay matrices (``DELAY_BLOCK_BYTES``), whose blocks are cut at the run's
horizon.  Each kind's fill function is chosen in its ``make_*`` factory,
and zero or constant models draw nothing.  A model whose shape does not
fit the dimension is a ``ConfigError`` (``check_model_shape``).

Delay samplers serve a (d, d) matrix per tick with entry [j, i] the age
of agent i's view of component j; the diagonal is always 0 and no age
reaches before tick 0.  Rows come in tick order.  A drawn delay block
holds at most ``_rng.DELAY_BLOCK_BYTES``.  Ages are ``int64``, except
the ages of every drawn delay kind at a d where a CHUNK-row ``int64``
block would pass that cap (d > 45): those are ``int32`` (``int64`` past
a horizon of 2**31 ticks).  Every drawn delay kind is drawn a block of
ticks at a time, one source component at a time into a small reused
float64 scratch, and only the ages a reader asks for are kept: full
matrices, or the columns a tick reads.  Geometric ages are the bits of
numpy's ``geometric``; below its branch threshold (a mean above 2) numpy
inverts one standard exponential per draw, so those pairs draw the
exponentials in bulk and the inversion runs on the ages kept.
Stale-refresh ages follow a recursion, but only through each view's last
refresh, so a source's block of coins becomes a block of ages at once.

Error samplers enforce their declared bound on every sample: each block
is checked before any of its rows is served.  Componentwise-uniform and
constant errors are checked vectorised by their largest component;
norm-ball errors row by row in their own norm.  Noise samplers have zero
mean conditional on the past and components bounded by their level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import (
    CHUNK,
    DELAY_BLOCK_BYTES,
    DOMAIN_DELAY,
    DOMAIN_ERROR,
    DOMAIN_NOISE,
    Rows,
    constant,
    stream,
    streams,
)
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
    "check_model_shape",
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
        if not np.all(np.isfinite(mean) & (mean > 0)):
            raise ConfigError("geometric delays need a finite mean > 0")
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


class _DelaySampler(Rows):
    """Per-tick (d, d) age matrices, read in tick order with ``take``;
    ``matrix(n)`` reads one, tick n's when the ticks before it were read.
    A block holds ``rows`` ticks, at most ``DELAY_BLOCK_BYTES`` of 8-byte
    cells.  This class serves zero delays; ``_PairDelays`` draws the rest.

    The diagonal is always zero: delays model communication between
    distinct agents, and an agent reads its own component directly.
    """

    matrix = Rows.next
    always_zero = True
    tick_rows = None  # ticks a run should take at a time, if the sampler asks

    def __init__(self, d: int, horizon: int, fill=None):
        self.rows = max(1, min(CHUNK, DELAY_BLOCK_BYTES // (d * d * 8)))
        fill = fill or constant(np.zeros((d, d), dtype=np.int64))
        super().__init__(fill, horizon, self.rows)


def _pair_matrix_param(value, d: int) -> np.ndarray:
    """A per-pair parameter as a (d, d) matrix; a scalar is broadcast."""
    arr = np.asarray(value, dtype=float)
    return np.full((d, d), float(arr)) if arr.ndim == 0 else arr


def _iid_ages(raw, ticks, scale):
    """Float ages of raw i.i.d. draws clamped to their ``ticks``, without
    writing to ``raw``; ``ticks`` and ``scale`` broadcast against it."""
    if scale is None:
        return np.minimum(raw, ticks)
    with np.errstate(over="ignore"):  # an infinite age clamps to its tick
        ages = np.divide(raw, scale)
    np.ceil(ages, out=ages)
    ages -= 1
    return np.minimum(ages, ticks, out=ages)


class _PairDelays(_DelaySampler):
    """Per-pair ages of every drawn kind, drawn one source component at a time.

    ``draw(rng, j, i, out)`` writes the next ``len(out)`` draws of pair
    (j, i), from its own stream, to the float64 row ``out`` of a reused
    (d, ticks) scratch that holds source j's draws.  Kinds differ only in
    how those become ages, computed in float64, where every age up to the
    tick is exact, and then cast to ``dtype``:

    - i.i.d.: a draw is an age, or ``ceil(draw / scale[j, i]) - 1`` with a
      (d, d) ``scale``, clamped to its tick, so no larger draw is cast;
    - stale-refresh (a (d, d) ``p_c``): a draw is a coin.  Tick 0 reads
      none, tick n >= 1 reads coin n - 1, and a view refreshes when its
      coin is below ``p_c[j, i]``, else ages by one: it is ``t - s`` ticks
      old at tick t, s its last refresh, so a block of coins becomes ages
      at once from the age each pair carries.  With ``symmetric`` only the
      pairs j < i own a stream, and each age is both [j, i] and [i, j].

    ``take(size)`` serves full matrices from drawn blocks; ``take(size,
    columns)`` draws ``size`` ticks itself and keeps the cells marked in a
    (size, d) mask: column c of the (d, cells) result is the view of cell
    c in ``np.nonzero`` order, C-ordered as einsum gathers views.  A run
    that reads by columns takes ``tick_rows`` ticks at a time, one call per
    pair stream a block as in a full read.  Read one way, not both.  Each
    source writes its row of every cell kept, also the [j, i] it does not
    own (i < j if ``symmetric``), which source i, run after it, rewrites.

    ``int32`` holds every age up to a horizon of 2**31.  It is used only
    where the byte cap would cut a CHUNK-row ``int64`` block: at small d
    ``int64`` ages are gathered faster (a d = 5 gather: 1.6 against 2.3 us).
    """

    always_zero = False

    def __init__(self, d: int, seed: int, horizon: int, draw, scale=None, p_c=None,
                 symmetric=False):
        wide = CHUNK * d * d * 8 > DELAY_BLOCK_BYTES  # a CHUNK-row int64 block
        self.dtype = dtype = np.dtype(np.int32 if wide and horizon <= 2**31 else np.int64)
        lows = [j + 1 if symmetric else 0 for j in range(d)]  # source j's first pair
        pairs = [(j, i) for j in range(d) for i in range(lows[j], d) if i != j]
        rngs = iter(streams(seed, DOMAIN_DELAY, pairs))
        # source j's generators, of its pairs (j, i) in the order of i
        sources = [(j, lo, list(itertools.islice(rngs, d - lo - (lo <= j))))
                   for j, lo in enumerate(lows)]
        sources = [source for source in reversed(sources) if source[2]]
        scratch, tick = np.zeros((d, 0)), 0  # tick: the first one of the next draw
        carried = None if p_c is None else np.zeros((d, d))  # each coin pair's latest age

        def refresh(coins, ticks, p, age):
            """A source's coins of ``ticks`` to ages, in place, given its
            pairs' ``p`` and carried ``age``."""
            last = np.where(coins < p[:, None], ticks, ticks[0] - 1.0 - age[:, None])
            np.maximum.accumulate(last, axis=1, out=last)
            np.subtract(ticks, last, out=coins)
            age[:] = coins[:, -1]

        def ages(size, columns=None):
            nonlocal scratch, tick
            fresh = int(p_c is not None and tick == 0)  # tick 0 reads no coin
            if fresh == size:  # nothing to draw: tick 0's views are fresh
                tick += size
                return np.zeros((size, d, d) if columns is None
                                else (d, np.count_nonzero(columns)), dtype)
            if scratch.shape[1] < size:  # the first draw is the largest
                scratch = np.zeros((d, size))  # tick 0's coins: 0, below every p_c
            raw, ticks = scratch[:, :size], np.arange(tick, tick + size, dtype=float)
            fill, tick = raw[:, fresh:], tick + size
            if columns is None:  # every cell: source j's ticks to out[:, j, :]
                out, src, cells, at = np.empty((size, d, d), dtype), raw.T, ..., ticks[:, None]
                dest, scales, selves = out.transpose(1, 0, 2), scale, (..., *np.diag_indices(d))

                def mirror(j, lo):  # pair (j, i)'s ages to out[:, i, j]
                    np.copyto(out[:, lo:, j], raw[lo:].T, casting="unsafe")
            else:  # cell c to column c of a (d, cells) block
                t, agent = np.nonzero(columns)
                dest = out = np.empty((d, len(t)), dtype)
                src, cells, at, selves = raw, (agent, t), ticks[t], (agent, np.arange(len(t)))
                scales = scale if scale is None else scale[:, agent]

                def mirror(j, lo):  # pair (j, i)'s ages to row i of agent j's cells
                    mine = np.flatnonzero(agent == j)
                    out[lo:, mine] = raw[lo:, t[mine]]
            for j, lo, own in sources:
                for i, rng in zip(itertools.chain(range(lo, j), range(j + 1, d)), own):
                    draw(rng, j, i, fill[i])
                if p_c is None:  # i.i.d. draws: the read cells' ages
                    got = _iid_ages(src[cells], at, None if scale is None else scales[j])
                else:  # coins: every tick's ages, so that each pair carries its own
                    refresh(raw[lo:], ticks, p_c[j, lo:], carried[j, lo:])
                    got = src[cells]
                np.copyto(dest[j], got, casting="unsafe")
                if symmetric:
                    mirror(j, lo)
            out[selves] = 0  # no pair stream draws a self-view
            return out

        super().__init__(d, horizon, lambda start, size: ages(size))
        self._ages, self.tick_rows = ages, self.rows

    def take(self, size: int, columns: np.ndarray | None = None) -> np.ndarray:
        return super().take(size) if columns is None else self._ages(size, columns)


def make_delay_sampler(model: DelayModel, d: int, seed: int, horizon: int):
    """Age matrices of ticks 0, 1, ... in blocks cut at ``horizon``."""
    check_model_shape(model, d)
    if isinstance(model, ZeroDelays):
        return _DelaySampler(d, horizon)
    if isinstance(model, UniformDelays):
        high = model.tau_max + 1
        return _PairDelays(d, seed, horizon, lambda rng, j, i, out: np.copyto(
            out, rng.integers(0, high, size=out.size)))
    if isinstance(model, GeometricDelays):
        # below its threshold numpy's geometric(p) is ceil(E / s), E a standard
        # exponential and s = -log1p(-p) by the C log1p that math.log1p calls
        p = 1.0 / (1.0 + _pair_matrix_param(model.mean, d))
        search = p >= 0.333333333333333333333333
        scale = np.array([1.0 if hit else -math.log1p(-q)
                          for q, hit in zip(p.flat, search.flat)]).reshape(d, d)

        def draw(rng, j, i, out):
            if search[j, i]:  # a count in {1, 2, ...}, with scale 1
                np.copyto(out, rng.geometric(p[j, i], size=out.size))
            else:
                rng.standard_exponential(out=out)

        return _PairDelays(d, seed, horizon, draw, scale)
    if isinstance(model, StaleRefreshDelays):
        return _PairDelays(d, seed, horizon, lambda rng, j, i, out: rng.random(out=out),
                           p_c=_pair_matrix_param(model.p_c, d), symmetric=model.symmetric)
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


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def check_model_shape(model: DelayModel | ErrorModel, d: int) -> None:
    """Raise ConfigError when a delay or error model does not fit dimension d."""
    if isinstance(model, GeometricDelays):
        _need(np.ndim(model.mean) == 0 or model.mean.shape == (d, d),
              f"geometric mean matrix must be ({d}, {d})")
    elif isinstance(model, StaleRefreshDelays):
        _need(np.ndim(model.p_c) == 0 or model.p_c.shape == (d, d),
              f"p_c matrix must be ({d}, {d})")
    elif isinstance(model, FixedBiasErrors):
        _need(model.bias.shape == (d,), f"fixed-bias vector must have length {d}")
    elif isinstance(model, NormBallErrors) and isinstance(model.norm, WeightedMaxNorm):
        _need(model.norm.weights.shape == (d,), f"norm weights must have length {d}")


def _max_abs(rows: np.ndarray) -> float:
    return float(max(rows.max(), -rows.min()))


def _max_norm(norm: Norm):
    return lambda rows: max(norm(row) for row in rows)


class _RowSampler(Rows):
    """Per-tick vectors, read in tick order with ``take``; ``sample(n)``
    reads one."""

    sample = Rows.next


class _ErrorSampler(_RowSampler):
    """Per-tick error vectors.  Every block is checked against ``bound``
    before any of its rows is served; ``worst(block)`` is the block's
    largest norm.  ``rows`` and ``most`` are those of ``Rows``."""

    def __init__(self, bound: float, fill, worst, rows: int = 0, most: int | None = None):
        self.bound = bound = float(bound)

        def checked(start, size):
            block = fill(start, size)
            top = worst(block)
            if top > bound + 1e-9:
                raise AssertionError(f"error sample breached its bound: {top} > {bound}")
            return block

        super().__init__(checked, rows, most)


def make_error_sampler(model: ErrorModel, d: int, seed: int, horizon: int,
                       domain: int = DOMAIN_ERROR):
    """Error vectors of ticks 0, 1, ...; Euclidean norm-ball blocks are cut
    at ``horizon``."""
    check_model_shape(model, d)
    if isinstance(model, ZeroErrors):
        return _ErrorSampler(0.0, constant(np.zeros(d)), _max_abs)
    if isinstance(model, FixedBiasErrors):
        bias = model.bias.copy()
        # checked by its largest component, which never exceeds its norm
        return _ErrorSampler(np.linalg.norm(bias), constant(bias), _max_abs)
    rng = stream(seed, domain)
    if isinstance(model, ComponentUniformErrors):
        half = model.bound / 2.0
        return _ErrorSampler(
            model.bound, lambda start, size: rng.uniform(0.0, half, size=(size, d)),
            _max_abs)
    if isinstance(model, NormBallErrors):
        norm, bound = model.norm, float(model.bound)
        if isinstance(norm, WeightedMaxNorm):
            half = bound * norm.weights
            return _ErrorSampler(
                bound, lambda start, size: rng.uniform(-half, half, size=(size, d)),
                _max_norm(norm))

        def fill(start, size):
            # a block draws all of its normals before its radii, so every
            # block draws CHUNK of each and keeps the first ``size`` rows
            g = rng.standard_normal((CHUNK, d))[:size]
            g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
            radii = bound * rng.random(CHUNK)[:size] ** (1.0 / d)
            return g * radii[:, None]

        return _ErrorSampler(bound, fill, _max_norm(norm), horizon, CHUNK)
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


def make_noise_sampler(model: NoiseModel, d: int, seed: int, horizon: int):
    """Noise vectors of ticks 0, 1, ...; ``horizon`` is unused, as no noise
    stream is cut at it."""
    if isinstance(model, ZeroNoise):
        return _RowSampler(constant(np.zeros(d)))
    if not isinstance(model, (UniformNoise, RademacherNoise)):
        raise ConfigError(f"unknown noise model {model!r}")
    rng = stream(seed, DOMAIN_NOISE)
    level = float(model.level)
    if isinstance(model, UniformNoise):
        return _RowSampler(lambda start, size: rng.uniform(-level, level, size=(size, d)))

    def fill(start, size):
        signs = rng.integers(0, 2, size=(size, d)) * 2 - 1
        return level * signs.astype(float)

    return _RowSampler(fill)

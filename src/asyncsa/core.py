"""Asynchronous stochastic-approximation engine.

One tick of the recursion updates only the active coordinates:

    x[i] <- x[i] + a(nu(n, i)) * (drive_i(delayed view) + error[i] + noise[i])

where nu(n, i) counts how often agent i was active on ticks m < n, and the
drive for agent i is evaluated on that agent's own (possibly stale) view of
the iterate.  Every run mode iterates :func:`tick_loop`, which draws with
:func:`draw_tick` and updates with :func:`apply_tick`, so traced runs,
light runs, and paired runs cannot drift apart numerically.

An optional projection region turns the plain step into the projective
variant: whenever the tentative iterate leaves the open outer ball, it is
pulled back radially onto the inner sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ._rng import DOMAIN_INIT, DOMAIN_INSTANCE, stream
from .config import (
    BellmanObjective,
    GradientObjective,
    ProjectionSpec,
    QuadraticObjective,
    RunConfig,
    ScaledIdentityObjective,
    run_config_to_dict,
    spec_from_config,
)
from .errors import ConfigError, DivergenceError, HistoryWindowError
from .fields import (
    Field,
    GradientDescentField,
    QuadraticBowl,
    QuadraticField,
    Rosenbrock,
    ScaledIdentityField,
    random_pd_matrix,
)
from .mdp import BellmanResidualField, load_fixture, random_mdp
from .norms import EuclideanNorm, Norm, weighted_norm
from .schedules import AgentSchedule, StepSizePolicy
from .stochastics import (
    UniformDelays,
    make_delay_sampler,
    make_error_sampler,
    make_noise_sampler,
)
from .trace import RunTrace

__all__ = [
    "IterateHistory",
    "ProjectionRegion",
    "StochasticModels",
    "SimState",
    "TickSample",
    "TickInfo",
    "RunResult",
    "RuntimeBundle",
    "build_field",
    "build_runtime",
    "draw_tick",
    "apply_tick",
    "tick_loop",
    "run",
    "run_light",
]


# ---------------------------------------------------------------------------
# iterate history


class IterateHistory:
    """Stores the iterate sequence and answers delayed reads.

    By default every iterate is kept, so arbitrarily old views can be
    gathered.  With ``window=w`` only the last ``w + 1`` iterates are
    retained in a ring; reading anything older raises
    :class:`HistoryWindowError` instead of silently returning garbage.
    """

    def __init__(self, x0: np.ndarray, capacity: int | None = None,
                 window: int | None = None):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 1:
            raise ValueError("x0 must be a vector")
        self.d = x0.shape[0]
        self.n = 0
        self._window = window
        if window is not None:
            if window < 0:
                raise ValueError("window must be >= 0")
            self._buf = np.zeros((window + 1, self.d))
            self._buf[0] = x0
        else:
            cap = max(2, capacity + 1 if capacity is not None else 1024)
            self._buf = np.zeros((cap, self.d))
            self._buf[0] = x0

    @property
    def latest(self) -> np.ndarray:
        if self._window is not None:
            return self._buf[self.n % (self._window + 1)]
        return self._buf[self.n]

    def append(self, x: np.ndarray) -> None:
        self.n += 1
        if self._window is not None:
            self._buf[self.n % (self._window + 1)] = x
            return
        if self.n >= self._buf.shape[0]:
            grown = np.zeros((2 * self._buf.shape[0], self.d))
            grown[: self._buf.shape[0]] = self._buf
            self._buf = grown
        self._buf[self.n] = x

    def value(self, m: int) -> np.ndarray:
        if m < 0 or m > self.n:
            raise IndexError(f"iterate {m} not in [0, {self.n}]")
        if self._window is not None:
            if m < self.n - self._window:
                raise HistoryWindowError(
                    f"iterate {m} is older than the history window "
                    f"({self._window} behind tick {self.n})"
                )
            return self._buf[m % (self._window + 1)]
        return self._buf[m]

    def gather(self, n: int, tau: np.ndarray) -> np.ndarray:
        """View matrix V with V[j, i] = x_{n - tau[j, i]}[j].

        Column i is agent i's delayed view of the full iterate.
        """
        rows = n - tau
        if rows.min() < 0:
            raise IndexError("delay reaches before tick 0")
        if self._window is not None:
            if rows.min() < self.n - self._window:
                raise HistoryWindowError(
                    f"delay of {tau.max()} ticks exceeds the history window "
                    f"of {self._window}"
                )
            rows = rows % (self._window + 1)
        return self._buf[rows, np.arange(self.d)[:, None]]

    def snapshot(self, upto: int) -> np.ndarray:
        """Dense (upto+1, d) array of iterates 0..upto (full storage only)."""
        if self._window is not None:
            raise HistoryWindowError("snapshot needs full history storage")
        return self._buf[: upto + 1].copy()


# ---------------------------------------------------------------------------
# projection region


@dataclass(frozen=True, eq=False)
class ProjectionRegion:
    """Radial pull-back region between two concentric balls.

    A tentative iterate strictly inside the open outer ball is kept; any
    other point is mapped onto the inner sphere along the ray from the
    center.  For an absolutely homogeneous norm that landing point is a
    nearest point of the closed inner ball.
    """

    center: np.ndarray
    r_inner: float
    r_outer: float
    norm: Norm

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ConfigError("projection needs 0 < r_inner < r_outer")

    def contains(self, x: np.ndarray) -> bool:
        return bool(weighted_norm(x - self.center, self.norm) < self.r_outer)

    def project(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        offset = x - self.center
        size = weighted_norm(offset, self.norm)
        if size < self.r_outer:
            return x, False
        return self.center + offset * (self.r_inner / size), True

    @staticmethod
    def from_spec(spec: ProjectionSpec, d: int) -> "ProjectionRegion":
        center = (
            np.zeros(d)
            if spec.center is None
            else np.asarray(spec.center, dtype=float)
        )
        return ProjectionRegion(
            center=center,
            r_inner=float(spec.r_inner),
            r_outer=float(spec.r_outer),
            norm=(
                EuclideanNorm()
                if spec.norm is None
                else spec_from_config("norm", spec.norm, d)
            ),
        )


# ---------------------------------------------------------------------------
# per-tick sampling


@dataclass(eq=False)
class StochasticModels:
    """Bundled per-tick samplers for delays, errors, and noise."""

    delays: Any
    errors: Any
    noise: Any

    @staticmethod
    def create(delay_model, error_model, noise_model, d: int,
               seed: int) -> "StochasticModels":
        return StochasticModels(
            delays=make_delay_sampler(delay_model, d, seed),
            errors=make_error_sampler(error_model, d, seed),
            noise=make_noise_sampler(noise_model, d, seed),
        )


@dataclass(eq=False)
class SimState:
    """Mutable simulation state threaded through the tick functions."""

    history: IterateHistory
    schedule: AgentSchedule
    steps: StepSizePolicy
    noise_sum: np.ndarray
    n: int = 0
    projections: int = 0

    @property
    def x(self) -> np.ndarray:
        return self.history.latest

    @staticmethod
    def create(x0: np.ndarray, schedule: AgentSchedule, steps: StepSizePolicy,
               capacity: int | None = None,
               window: int | None = None) -> "SimState":
        x0 = np.asarray(x0, dtype=float)
        return SimState(
            history=IterateHistory(x0, capacity=capacity, window=window),
            schedule=schedule,
            steps=steps,
            noise_sum=np.zeros(x0.shape[0]),
        )


@dataclass(eq=False)
class TickSample:
    """Everything random drawn for one tick, in draw order."""

    active: np.ndarray
    tau: np.ndarray | None
    eps: np.ndarray
    noise: np.ndarray


@dataclass(eq=False)
class TickInfo:
    """What one applied tick did (step sizes read before advancing).

    ``drive`` is the field evaluated on each agent's view; with zero
    delays every view is the pre-tick iterate, so it is ``field(x_n)``.
    """

    active: np.ndarray
    step: np.ndarray
    drive: np.ndarray
    eps: np.ndarray
    noise: np.ndarray
    projected: bool


def draw_tick(state: SimState, models: StochasticModels) -> TickSample:
    n = state.n
    active = state.schedule.sampler.next(n)
    tau = None if models.delays.always_zero else models.delays.matrix(n)
    return TickSample(
        active=active,
        tau=tau,
        eps=models.errors.sample(n),
        noise=models.noise.sample(n),
    )


def apply_tick(state: SimState, field: Field, sample: TickSample,
               region: ProjectionRegion | None = None) -> TickInfo:
    """Apply one drawn tick to the state.  The single update code path.

    Step sizes are read from the activation counters before they are
    advanced, so the very first activation of an agent uses a(0).
    """
    n = state.n
    x = state.history.latest
    a_vec = state.steps.a_of(state.schedule.counters)
    active = sample.active
    with np.errstate(over="ignore", invalid="ignore"):
        if sample.tau is None:
            drive = field.vector(x)
        else:
            views = state.history.gather(n, sample.tau)
            drive = field.vector_views(views)
        delta = a_vec * (drive + sample.eps + sample.noise)
        x_new = np.where(active, x + delta, x)
    if not np.isfinite(x_new).all():
        bad = int(np.flatnonzero(~np.isfinite(x_new))[0])
        raise DivergenceError(n, bad)
    projected = False
    if region is not None:
        x_new, projected = region.project(x_new)
        if projected:
            state.projections += 1
    if sample.noise.any():
        state.noise_sum += np.where(active, a_vec * sample.noise, 0.0)
    state.schedule.advance(active)
    state.history.append(x_new)
    state.n = n + 1
    return TickInfo(
        active=active,
        step=a_vec,
        drive=drive,
        eps=sample.eps,
        noise=sample.noise,
        projected=projected,
    )


def tick_loop(state: SimState, bundle: RuntimeBundle,
              region: ProjectionRegion | None):
    """Draw and apply ``bundle.horizon`` ticks, yielding ``(n, sample,
    info)`` after each one.  The one tick loop every run driver iterates.
    """
    field, models = bundle.field, bundle.models
    for n in range(bundle.horizon):
        sample = draw_tick(state, models)
        yield n, sample, apply_tick(state, field, sample, region=region)


# ---------------------------------------------------------------------------
# runtime assembly


@dataclass(eq=False)
class RuntimeBundle:
    """Concrete objects built from a declarative :class:`RunConfig`."""

    d: int
    horizon: int
    seed: int
    field: Field
    steps: StepSizePolicy
    schedule: AgentSchedule
    models: StochasticModels
    region: ProjectionRegion | None
    x0: np.ndarray


def build_field(cfg: RunConfig) -> Field:
    """The drive of a config; a Bellman field carries its ``mdp`` and a
    gradient field its ``surface``."""
    d = cfg.dimension
    obj = cfg.objective
    if isinstance(obj, QuadraticObjective):
        if isinstance(obj.matrices, str):
            # agent i reads only row i of its own matrix M_i, so the drive
            # is that of the one matrix whose row i is row i of M_i
            rng = stream(cfg.seed, DOMAIN_INSTANCE)
            mats = np.stack([random_pd_matrix(d, rng)[i] for i in range(d)])
        else:
            mats = np.asarray(obj.matrices, dtype=float)
            if mats.shape not in ((d, d), (d, d, d)):
                raise ConfigError(
                    f"quadratic matrices must have shape ({d}, {d}) or ({d}, {d}, {d})"
                )
        return QuadraticField(mats)
    if isinstance(obj, ScaledIdentityObjective):
        return ScaledIdentityField(obj.gain, d)
    if isinstance(obj, BellmanObjective):
        if obj.fixture is not None:
            mdp = load_fixture(obj.fixture)
        else:
            mdp = random_mdp(obj.states, obj.actions, obj.mdp_seed,
                             discount=obj.discount)
        if mdp.states != d:
            raise ConfigError(
                f"dimension {d} does not match the {mdp.states}-state problem"
            )
        return BellmanResidualField(mdp)
    if isinstance(obj, GradientObjective):
        if obj.surface == "rosenbrock":
            if d != 2:
                raise ConfigError("rosenbrock surface needs dimension 2")
            surface = Rosenbrock(a=obj.a, b=obj.b)
        else:
            mat = (
                np.eye(d)
                if obj.matrix is None
                else np.asarray(obj.matrix, dtype=float)
            )
            if mat.shape != (d, d):
                raise ConfigError(f"bowl matrix must have shape ({d}, {d})")
            surface = QuadraticBowl(mat)
        return GradientDescentField(surface)
    raise ConfigError(f"unsupported objective {type(obj).__name__}")


def build_runtime(cfg: RunConfig) -> RuntimeBundle:
    d = cfg.dimension
    field = build_field(cfg)
    if cfg.x0 is not None:
        x0 = np.asarray(cfg.x0, dtype=float).copy()
    else:
        x0 = stream(cfg.seed, DOMAIN_INIT).uniform(-1.0, 1.0, d)
    schedule = AgentSchedule.create(cfg.activation, d, cfg.seed)
    models = StochasticModels.create(cfg.delays, cfg.errors, cfg.noise, d, cfg.seed)
    region = (
        None
        if cfg.projection is None
        else ProjectionRegion.from_spec(cfg.projection, d)
    )
    return RuntimeBundle(
        d=d,
        horizon=cfg.horizon,
        seed=cfg.seed,
        field=field,
        steps=cfg.steps,
        schedule=schedule,
        models=models,
        region=region,
        x0=x0,
    )


# ---------------------------------------------------------------------------
# run drivers


def run(cfg: RunConfig) -> RunTrace:
    """Execute a full traced run.

    The trace row for tick n holds the pre-update iterate x_n together
    with the events of tick n (activation, step sizes, error size,
    projection flag); the final row holds x_N with zeroed event fields.
    On divergence the raised error carries the truncated trace.
    """
    bundle = build_runtime(cfg)
    N, d = bundle.horizon, bundle.d
    x0, projected0 = (
        bundle.region.project(bundle.x0) if bundle.region is not None
        else (bundle.x0, False)
    )
    state = SimState.create(x0, bundle.schedule, bundle.steps, capacity=N)

    active_tr = np.zeros((N + 1, d), dtype=bool)
    step_tr = np.zeros((N + 1, d))
    eps_tr = np.zeros(N + 1)
    res_tr = np.zeros(N + 1)
    proj_tr = np.zeros(N + 1, dtype=bool)
    xi_tr = None if bundle.models.noise.is_zero else np.zeros((N + 1, d))

    meta = {
        "seed": bundle.seed,
        "config": run_config_to_dict(cfg, x0=bundle.x0),
        "initial_projection": projected0,
    }
    field = bundle.field
    zero_delay = bundle.models.delays.always_zero

    def residual(x: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.linalg.norm(field.vector(x)))

    def trace(upto: int) -> RunTrace:
        counters = np.zeros((upto + 1, d), dtype=np.int64)
        np.cumsum(active_tr[:upto], axis=0, dtype=np.int64, out=counters[1:])
        return RunTrace(
            meta=meta,
            x=state.history.snapshot(upto),
            active=active_tr[: upto + 1],
            step=step_tr[: upto + 1],
            eps_norm=eps_tr[: upto + 1],
            residual=res_tr[: upto + 1],
            projected=proj_tr[: upto + 1],
            counters=counters,
            noise_sum=None if xi_tr is None else xi_tr[: upto + 1],
        )

    try:
        for n, _, info in tick_loop(state, bundle, bundle.region):
            active_tr[n] = info.active
            step_tr[n] = info.step
            eps_tr[n] = float(np.linalg.norm(info.eps))
            with np.errstate(over="ignore", invalid="ignore"):
                # without delays the tick's drive is already field(x_n)
                drive = info.drive if zero_delay else field.vector(state.history.value(n))
                res_tr[n] = float(np.linalg.norm(drive))
            proj_tr[n] = info.projected
            if xi_tr is not None:
                xi_tr[n + 1] = state.noise_sum
    except DivergenceError as exc:
        res_tr[state.n] = residual(state.x)
        exc.trace = trace(state.n)
        raise
    res_tr[N] = residual(state.x)
    return trace(N)


@dataclass(eq=False)
class RunResult:
    """Light run output: endpoint plus whatever series were requested."""

    final_x: np.ndarray
    counters: np.ndarray
    noise_sum: np.ndarray
    projections: int
    initial_projection: bool
    xi: np.ndarray | None = None
    delay_product_max: float | None = None


def run_light(cfg: RunConfig, xi_series: bool = False,
              delay_product_from: int | None = None) -> RunResult:
    """Execute a run keeping only the endpoint (and optional series).

    ``xi_series`` records the running weighted noise sum after every tick.
    ``delay_product_from`` tracks, from that tick on, the largest product
    of a read delay with the reader's current step size.  Past iterates
    are kept only as far back as the delay model can reach: none without
    delays, ``tau_max`` ticks under bounded-uniform delays, all otherwise.
    """
    bundle = build_runtime(cfg)
    N, d = bundle.horizon, bundle.d
    x0, projected0 = (
        bundle.region.project(bundle.x0) if bundle.region is not None
        else (bundle.x0, False)
    )
    if bundle.models.delays.always_zero:
        state = SimState.create(x0, bundle.schedule, bundle.steps, window=0)
    elif isinstance(cfg.delays, UniformDelays):
        state = SimState.create(x0, bundle.schedule, bundle.steps,
                                window=cfg.delays.tau_max)
    else:
        state = SimState.create(x0, bundle.schedule, bundle.steps, capacity=N)

    xi_tr = np.zeros((N + 1, d)) if xi_series else None
    prod_max = 0.0
    for n, sample, info in tick_loop(state, bundle, bundle.region):
        if delay_product_from is not None and n >= delay_product_from \
                and sample.tau is not None:
            scaled = sample.tau * (info.step * sample.active)[None, :]
            prod_max = max(prod_max, float(scaled.max()))
        if xi_tr is not None:
            xi_tr[n + 1] = state.noise_sum
    return RunResult(
        final_x=state.x.copy(),
        counters=state.schedule.counters.copy(),
        noise_sum=state.noise_sum.copy(),
        projections=state.projections,
        initial_projection=projected0,
        xi=xi_tr,
        delay_product_max=(
            prod_max if delay_product_from is not None else None
        ),
    )

"""Asynchronous stochastic-approximation engine.

One tick of the recursion updates only the active coordinates:

    x[i] <- x[i] + a(nu(n, i)) * (drive_i(delayed view) + error[i] + noise[i])

where nu(n, i) counts how often agent i was active on ticks m < n, and the
drive for agent i is evaluated on that agent's own (possibly stale) view of
the iterate.  On a tick of a wide chain with few agents active, only the
active agents' ages are transformed, their views gathered and their drive
components evaluated.  Only the drive depends on the iterate:
:func:`draw_block` draws everything else (active set, step sizes, delays,
errors, noise) a block of ticks at a time, :func:`draw_tick` serves that
block one row per tick, and :func:`apply_tick` only moves the iterate.
Every run mode iterates :func:`tick_loop`, so traced, light and paired
runs cannot drift apart.

An optional projection region turns the plain step into the projective
variant: whenever the tentative iterate leaves the open outer ball, it is
pulled back radially onto the inner sphere.
"""

from __future__ import annotations

import math
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
from .schedules import AgentSchedule
from .stochastics import make_delay_sampler, make_error_sampler, make_noise_sampler
from .trace import RunTrace

__all__ = [
    "IterateHistory",
    "ProjectionRegion",
    "StochasticModels",
    "TickSample",
    "TickBlock",
    "RunResult",
    "RuntimeBundle",
    "build_field",
    "build_runtime",
    "draw_block",
    "draw_tick",
    "apply_tick",
    "tick_loop",
    "run",
    "run_light",
]


# ---------------------------------------------------------------------------
# iterate history


# Rows of the buffer that holds the latest iterates of a history without a
# window.  A full buffer archives its older half and slides its newer half
# to its end, so an age under HISTORY_BUFFER // 2 is always read by the
# ring's unwrapped slice gather (one column at d = 100: 2.3-2.7 us), and an
# older one by a searchsorted in the archive.  A geometric age of mean 3
# passes 128 ticks with probability (3/4)**129, about 1e-16; at d = 100 the
# buffer holds 200 KiB, against 6.25 MiB for wide-d100's 8192-tick ring.
HISTORY_BUFFER = 256


class IterateHistory:
    """The iterates since tick 0, answering delayed reads.

    With a ``window``, the last ``window + 1`` iterates sit in a ring, and
    reading anything older raises :class:`HistoryWindowError` instead of
    silently returning garbage; a window of the run's horizon keeps every
    iterate.

    With ``window=None`` every iterate is kept, in proportion to how often
    its components change: the latest ``HISTORY_BUFFER`` in a buffer, older
    ones in a :class:`_ChangeArchive`, which holds each component's value
    only at the ticks where its bits changed.  An archived change takes 16
    bytes against a ring cell's 8, so this pays only where few components
    move on a tick (see ``_history``).

    Iterate m sits in row ``(base - m) % slots``.  A ring's ``base`` is its
    window; a buffer's moves on by the rows each slide archives, so its rows
    never wrap.  Until a ring wraps, and always in a buffer, row tau of
    ``buf[base - n:]`` is x_{n - tau}: a delay reaching past the oldest row
    falls off the end of that slice, and numpy's own bounds check catches
    it.
    """

    def __init__(self, x0: np.ndarray, window: int | None):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 1:
            raise ValueError("x0 must be a vector")
        if window is not None and window < 0:
            raise ValueError("window must be >= 0")
        self.d = x0.shape[0]
        self.n = 0
        self._window = window
        self._archive = None if window is not None else _ChangeArchive(
            self.d, HISTORY_BUFFER // 2)
        self._slots = HISTORY_BUFFER if window is None else window + 1
        self._base = self._slots - 1
        self._buf = np.zeros((self._slots, self.d))
        self._buf[self._base] = x0
        self._cols = np.arange(self.d)[:, None]
        self._zeros = np.zeros(self.d)  # apply_tick's finiteness probe

    @property
    def latest(self) -> np.ndarray:
        return self._buf[(self._base - self.n) % self._slots]

    def append(self, x: np.ndarray) -> None:
        self.n += 1
        if self.n > self._base and self._archive is not None:  # the buffer is full
            half = self._slots // 2
            self._archive.add(self._buf[half:][::-1])
            self._buf[half:] = self._buf[:half]
            self._base += half
        self._buf[(self._base - self.n) % self._slots] = x

    def value(self, m: int) -> np.ndarray:
        if m < 0 or m > self.n:
            raise IndexError(f"iterate {m} not in [0, {self.n}]")
        if self._archive is not None:
            return self._read(np.full(self.d, m), self._cols[:, 0])
        if m < self.n - self._window:
            raise HistoryWindowError(
                f"iterate {m} is older than the history window "
                f"({self._window} behind tick {self.n})"
            )
        return self._buf[(self._base - m) % self._slots]

    def gather(self, n: int, tau: np.ndarray) -> np.ndarray:
        """View matrix V with V[j, i] = x_{n - tau[j, i]}[j].

        Column i is a delayed view of the full iterate; ``tau`` has one
        row per component and any number of columns.
        """
        base = self._base
        if n <= self.n <= base:  # the rows do not wrap
            try:
                return self._buf[base - n:][tau, self._cols]
            except IndexError:  # past the oldest row
                if self._archive is None:
                    raise IndexError("delay reaches before tick 0") from None
            return self._read(n - tau, self._cols)
        window = self._window
        rows = n - tau
        oldest = rows.min(initial=n)
        if oldest < 0:
            raise IndexError("delay reaches before tick 0")
        if oldest < self.n - window:
            raise HistoryWindowError(
                f"delay of {tau.max()} ticks exceeds the history window "
                f"of {window}"
            )
        return self._buf[(window - rows) % (window + 1), self._cols]

    def _read(self, m: np.ndarray, j: np.ndarray) -> np.ndarray:
        """x_m[j] for every cell of ``m`` and ``j`` (broadcast together),
        from the buffer or, past its oldest row, the archive."""
        m, j = np.broadcast_arrays(m, j)
        if m.size and m.min() < 0:
            raise IndexError("delay reaches before tick 0")
        row = self._base - m
        kept = row < self._slots
        out = np.empty(m.shape)
        out[kept] = self._buf[row[kept], j[kept]]
        old = ~kept
        out[old] = self._archive.read(m[old], j[old])
        return out

    def snapshot(self, upto: int) -> np.ndarray:
        """Dense (upto+1, d) array of iterates 0..upto (a ring must not
        have wrapped)."""
        if self._archive is not None:
            return self._read(np.arange(upto + 1)[:, None], self._cols[:, 0])
        if self.n > self._window:
            raise HistoryWindowError("snapshot needs every iterate since tick 0")
        return self._buf[self._window - upto: self._window + 1][::-1].copy()


class _ChangeArchive:
    """Iterates kept as changes, archived ``span`` ticks at a time.

    Block b holds the iterates of ticks ``b span .. (b + 1) span - 1`` as
    its first row and, for each later tick, the components whose bits
    differ from the tick before: their values, in ``bits``, under a key
    ``(b d + j) span + (tick - b span)`` in one ascending ``int64`` array.
    Bits, not values, are compared and kept, so ``-0.0`` and NaN payloads
    survive.  One ``searchsorted`` finds each read cell's last change at
    or before its tick in its block; a cell with none reads the block's
    first row.
    """

    def __init__(self, d: int, span: int):
        self.d, self.span = d, span
        self._blocks = 0
        self._firsts = np.empty((1, d), dtype=np.int64)
        self._size = 1  # keys and bits in use, after a sentinel below every key
        self._keys = np.full(1, -1, dtype=np.int64)
        self._bits = np.zeros(1, dtype=np.int64)

    def add(self, rows: np.ndarray) -> None:
        """Archive the next block: ``span`` iterates in tick order."""
        bits = rows.view(np.int64)
        j, t = np.nonzero((bits[1:] != bits[:-1]).T)  # by component, then tick
        t += 1
        b, size = self._blocks, self._size
        end = size + len(t)
        self._firsts = _grown(self._firsts, b + 1)
        self._keys, self._bits = _grown(self._keys, end), _grown(self._bits, end)
        self._firsts[b] = bits[0]
        self._keys[size:end] = (b * self.d + j) * self.span + t
        self._bits[size:end] = bits[t, j]
        self._blocks, self._size = b + 1, end

    def read(self, m: np.ndarray, j: np.ndarray) -> np.ndarray:
        """x_m[j] for every cell of the equal-shape ``m`` and ``j``; every
        tick of ``m`` lies in an archived block."""
        block, offset = np.divmod(m.astype(np.int64), self.span)
        group = block * self.d + j
        keys = self._keys[:self._size]
        at = np.searchsorted(keys, group * self.span + offset, side="right") - 1
        changed = keys[at] // self.span == group
        return np.where(changed, self._bits[at], self._firsts[block, j]).view(float)


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` if it has ``rows`` rows, else a copy of it with room for
    ``rows`` rows and at least twice its own."""
    if rows <= len(a):
        return a
    out = np.empty((max(rows, 2 * len(a)), *a.shape[1:]), dtype=a.dtype)
    out[:len(a)] = a
    return out


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

    def project(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        offset = x - self.center
        size = weighted_norm(offset, self.norm)
        if size < self.r_outer:
            return x, False
        return self.center + offset * (self.r_inner / size), True

    @staticmethod
    def from_spec(spec: ProjectionSpec, d: int) -> "ProjectionRegion":
        center, norm = spec.center, spec.norm
        return ProjectionRegion(
            center=np.zeros(d) if center is None else np.asarray(center, dtype=float),
            r_inner=float(spec.r_inner),
            r_outer=float(spec.r_outer),
            norm=EuclideanNorm() if norm is None else spec_from_config("norm", norm, d),
        )


# ---------------------------------------------------------------------------
# per-tick sampling


@dataclass(eq=False)
class StochasticModels:
    """Bundled per-tick samplers for delays, errors, and noise."""

    delays: Any
    errors: Any
    noise: Any


@dataclass(eq=False, slots=True)
class TickSample:
    """Every input of one tick that does not depend on the iterate.

    ``step`` holds every agent's step size a(nu(n, i)), read from its
    count of activations before tick n.
    ``tau[j, c]`` is the age of component j in the c-th view the tick
    reads: agent ``reads[c]``'s, or agent c's when ``reads`` is None.
    ``all_active`` is set when the activation policy activates every agent
    on every tick; the update then skips the mask.
    """

    active: np.ndarray
    step: np.ndarray
    tau: np.ndarray | None
    eps: np.ndarray
    noise: np.ndarray
    reads: np.ndarray | None = None
    all_active: bool = False


@dataclass(eq=False, slots=True)
class TickBlock:
    """The drawn inputs of ticks ``start``, ``start + 1``, ..., one row per
    tick, as in :class:`TickSample`; ``tau`` is None under zero delays.
    With ``reads`` set, ``tau`` and ``reads`` hold one entry per tick: its
    views of one block of the read views' ages and of their agents."""

    start: int
    active: np.ndarray
    step: np.ndarray
    tau: np.ndarray | None
    eps: np.ndarray
    noise: np.ndarray
    reads: list | np.ndarray | None = None


# (tick, agent) cells per block of drawn ticks: hundreds of ticks at small d,
# and 8 KiB of each float64 stream's block at any d
BLOCK_CELLS = 1024


# Least d * d at which a tick with at most a quarter of its agents active
# reads only their columns: their ages, views and drive components.  Its
# extra numpy calls pay only where enough cells are skipped.  With either
# path forced (round-robin run_light of a random quadratic, best of 7 runs
# of 4000 ticks, two runs, 2-core x86 host), one active agent reads columns
# 12-15% slower at d = 12, within 3% at 16 and 8-11%, 12-19%, 25-32% faster
# at 20, 24, 32 (geometric or stale-refresh); a quarter active, 23%, 11-13%,
# 5-9% and 1-2% slower at 12, 16, 20, 24 and 8-9% faster at 32.  The cut
# stays: no benchmark workload runs a d between 5 and 100.
COLUMN_GATHER_CELLS = 2048


def _reads_columns(bundle: RuntimeBundle) -> bool:
    """Whether some ticks of the chain may read only their active agents' views."""
    return not bundle.schedule.all_active and bundle.d * bundle.d >= COLUMN_GATHER_CELLS


def draw_block(n: int, size: int, bundle: RuntimeBundle) -> TickBlock:
    """The inputs of ticks ``n .. n + size - 1``, the next rows of every
    stream; the activation counters move once, past the last of them.
    A tick that reads only its active agents' columns (see
    ``COLUMN_GATHER_CELLS``) gets ages for those columns only."""
    models, d = bundle.models, bundle.d
    active, step = bundle.schedule.take(size)
    tau = reads = None
    if not models.delays.always_zero:
        columns = None  # the agents whose ages each tick reads, if not all
        if _reads_columns(bundle):
            columns = active | (4 * np.count_nonzero(active, axis=1) > d)[:, None]
        tau = models.delays.take(size, columns)
        if columns is not None:  # cut the (d, cells) block into ticks
            ends = np.cumsum(np.count_nonzero(columns, axis=1)).tolist()
            spans, agents = list(zip([0, *ends], ends)), np.nonzero(columns)[1]
            reads = [agents[a:b] if b - a < d else None for a, b in spans]
            tau = [tau[:, a:b] for a, b in spans]
    return TickBlock(n, active, step, tau, models.errors.take(size),
                     models.noise.take(size), reads)


def draw_tick(n: int, bundle: RuntimeBundle) -> TickSample:
    """Tick ``n``'s inputs, one row of ``bundle.block``.

    Ticks are drawn in order by :func:`draw_block`, about ``BLOCK_CELLS``
    (tick, agent) cells at a time, cut at the horizon; a chain that reads
    by columns takes the ticks its delay sampler asks for (``tick_rows``).
    That tick block is also the block each activation, error and noise
    stream draws (see ``_rng.Rows``).
    A block's last row is served as copies, so a caller holding only the
    latest sample keeps no spent block alive.
    """
    block = bundle.block
    if block is None or not 0 <= (k := n - block.start) < len(block.active):
        block = bundle.block = None  # release the spent block before the fills
        rows = _reads_columns(bundle) and bundle.models.delays.tick_rows
        rows = rows or BLOCK_CELLS // bundle.d
        block = bundle.block = draw_block(n, max(1, min(rows, bundle.horizon - n)), bundle)
        k = 0
    if k + 1 == len(block.active):  # the last row: copies, so no sample holds the block
        # (np.array copies an array's rows, and stacks a list's one entry)
        block = bundle.block = TickBlock(n, *(None if a is None else np.array(a[k:]) for a in (
            block.active, block.step, block.tau, block.eps, block.noise, block.reads)))
        k = 0
    tau, reads = block.tau, block.reads
    return TickSample(block.active[k], block.step[k], None if tau is None else tau[k],
                      block.eps[k], block.noise[k], None if reads is None else reads[k],
                      bundle.schedule.all_active)


def apply_tick(history: IterateHistory, field: Field, sample: TickSample,
               region: ProjectionRegion | None = None) -> tuple[np.ndarray, bool]:
    """Move the iterate by one drawn tick.  The single update code path.

    Returns the drive (the field on each agent's view; with zero delays
    every view is the pre-tick iterate, so it is ``field(x_n)``) and
    whether the region pulled the new iterate back.  On a tick that reads
    only some agents' views (``sample.reads``), only those are gathered,
    and the drive holds only their components, in agent order.  Runs under
    the caller's numpy error state; the run drivers silence overflow and invalid-value
    warnings around their tick loop, since a non-finite iterate raises
    :class:`DivergenceError` anyway.
    """
    n = history.n
    x = history.latest
    agents = sample.reads
    if sample.tau is None:
        drive = field.vector(x)
    else:
        drive = field.vector_views(history.gather(n, sample.tau), agents)
    if agents is None:
        delta = sample.step * (drive + sample.eps + sample.noise)
        x_new = x + delta if sample.all_active else np.where(sample.active, x + delta, x)
    else:
        x_new = x.copy()
        x_new[agents] += sample.step[agents] * (drive + sample.eps[agents]
                                                + sample.noise[agents])
    # x . 0 is NaN exactly when some component of x is not finite
    if not math.isfinite(x_new.dot(history._zeros)):
        bad = int(np.flatnonzero(~np.isfinite(x_new))[0])
        raise DivergenceError(n, bad)
    projected = False
    if region is not None:
        x_new, projected = region.project(x_new)
    history.append(x_new)
    return drive, projected


def tick_loop(history: IterateHistory, bundle: RuntimeBundle,
              region: ProjectionRegion | None):
    """Draw and apply ``bundle.horizon`` ticks, yielding ``(n, sample,
    drive, projected)`` after each one.  The one tick loop every run
    driver iterates.
    """
    field = bundle.field
    for n in range(bundle.horizon):
        sample = draw_tick(n, bundle)
        yield n, sample, *apply_tick(history, field, sample, region)


# ---------------------------------------------------------------------------
# runtime assembly


@dataclass(eq=False)
class RuntimeBundle:
    """Concrete objects built from a declarative :class:`RunConfig`."""

    d: int
    horizon: int
    field: Field
    schedule: AgentSchedule
    models: StochasticModels
    region: ProjectionRegion | None
    x0: np.ndarray
    block: TickBlock | None = None  # the block draw_tick serves rows from


def build_field(cfg: RunConfig) -> Field:
    """The drive of a config; a Bellman field carries its ``mdp`` and a
    gradient field its ``surface``.  ``RunConfig`` has already checked
    every shape against the dimension."""
    d = cfg.dimension
    obj = cfg.objective
    if isinstance(obj, QuadraticObjective):
        if isinstance(obj.matrices, str):
            # agent i reads only row i of its own matrix M_i, so the drive
            # is that of the one matrix whose row i is row i of M_i; each
            # row is copied, so that no whole M_i outlives its row
            rng = stream(cfg.seed, DOMAIN_INSTANCE)
            mats = np.empty((d, d))
            for i in range(d):
                mats[i] = random_pd_matrix(d, rng)[i]
        else:
            mats = np.asarray(obj.matrices, dtype=float)
        return QuadraticField(mats)
    if isinstance(obj, ScaledIdentityObjective):
        return ScaledIdentityField(obj.gain, d)
    if isinstance(obj, BellmanObjective):
        if obj.fixture is None:
            return BellmanResidualField(random_mdp(
                obj.states, obj.actions, obj.mdp_seed, discount=obj.discount))
        mdp = load_fixture(obj.fixture)
        if mdp.states != d:  # the one shape check that needs the file
            raise ConfigError(
                f"dimension {d} does not match the {mdp.states}-state problem"
            )
        return BellmanResidualField(mdp)
    if isinstance(obj, GradientObjective):
        if obj.surface == "rosenbrock":
            surface = Rosenbrock(a=obj.a, b=obj.b)
        else:
            surface = QuadraticBowl(
                np.eye(d) if obj.matrix is None else np.asarray(obj.matrix, dtype=float))
        return GradientDescentField(surface)
    raise ConfigError(f"unsupported objective {type(obj).__name__}")


def build_runtime(cfg: RunConfig) -> RuntimeBundle:
    d = cfg.dimension
    field = build_field(cfg)
    x0 = (stream(cfg.seed, DOMAIN_INIT).uniform(-1.0, 1.0, d) if cfg.x0 is None
          else np.asarray(cfg.x0, dtype=float).copy())
    schedule = AgentSchedule(cfg.activation, d, cfg.seed, cfg.steps)
    models = StochasticModels(
        delays=make_delay_sampler(cfg.delays, d, cfg.seed, cfg.horizon),
        errors=make_error_sampler(cfg.errors, d, cfg.seed, cfg.horizon),
        noise=make_noise_sampler(cfg.noise, d, cfg.seed),
    )
    projection = cfg.projection
    region = None if projection is None else ProjectionRegion.from_spec(projection, d)
    return RuntimeBundle(
        d=d,
        horizon=cfg.horizon,
        field=field,
        schedule=schedule,
        models=models,
        region=region,
        x0=x0,
    )


# ---------------------------------------------------------------------------
# run drivers


def _start(bundle: RuntimeBundle) -> tuple[np.ndarray, bool]:
    """The start point, pulled back into the region when there is one."""
    if bundle.region is None:
        return bundle.x0, False
    return bundle.region.project(bundle.x0)


def _meta(cfg: RunConfig, bundle: RuntimeBundle, projected0: bool) -> dict:
    """The meta a traced or paired run writes ahead of its rows."""
    return {"seed": int(cfg.seed), "config": run_config_to_dict(cfg, x0=bundle.x0),
            "initial_projection": projected0}


def run(cfg: RunConfig) -> RunTrace:
    """Execute a full traced run.

    The trace row for tick n holds the pre-update iterate x_n together
    with the events of tick n (activation, step sizes, error size,
    projection flag); the final row holds x_N with zeroed event fields.
    On divergence the raised error carries the truncated trace.
    """
    bundle = build_runtime(cfg)
    N, d = bundle.horizon, bundle.d
    x0, projected0 = _start(bundle)
    history = IterateHistory(x0, window=N)

    active_tr = np.zeros((N + 1, d), dtype=bool)
    step_tr = np.zeros((N + 1, d))
    eps_tr = np.zeros(N + 1)
    res_tr = np.zeros(N + 1)
    proj_tr = np.zeros(N + 1, dtype=bool)

    field, euclidean = bundle.field, EuclideanNorm()
    zero_delay = bundle.models.delays.always_zero

    def trace(upto: int) -> RunTrace:
        """Rows 0..upto; the last one holds the residual of the latest iterate."""
        with np.errstate(over="ignore", invalid="ignore"):
            res_tr[upto] = float(np.linalg.norm(field.vector(history.latest)))
        counters = np.zeros((upto + 1, d), dtype=np.int64)
        np.cumsum(active_tr[:upto], axis=0, dtype=np.int64, out=counters[1:])
        return RunTrace(
            meta=_meta(cfg, bundle, projected0),
            x=history.snapshot(upto),
            active=active_tr[: upto + 1],
            step=step_tr[: upto + 1],
            eps_norm=eps_tr[: upto + 1],
            residual=res_tr[: upto + 1],
            projected=proj_tr[: upto + 1],
            counters=counters,
        )

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n, sample, drive, projected in tick_loop(history, bundle, bundle.region):
                active_tr[n] = sample.active
                step_tr[n] = sample.step
                eps_tr[n] = euclidean(sample.eps)
                # without delays the tick's drive is already field(x_n)
                if not zero_delay:
                    drive = field.vector(history.value(n))
                res_tr[n] = euclidean(drive)
                proj_tr[n] = projected
    except DivergenceError as exc:
        exc.trace = trace(history.n)
        raise
    return trace(N)


@dataclass(eq=False)
class RunResult:
    """Light run output: the endpoint and a few counters."""

    final_x: np.ndarray
    counters: np.ndarray
    projections: int
    initial_projection: bool


def _history(x0: np.ndarray, bundle: RuntimeBundle) -> IterateHistory:
    """The history of a light or paired run.

    Past iterates are kept only as far back as the delay sampler can reach
    (its ``reach``): none without delays, ``tau_max`` ticks under
    bounded-uniform delays, all otherwise, and never more than the horizon.
    A chain that moves at most a quarter of its components on a tick, on
    average, keeps them as changes once that reach passes the buffer
    (``window=None``): its archive then holds at most about half the ring's
    bytes, and a denser chain keeps the ring.
    """
    reach = bundle.models.delays.reach
    changes = bundle.schedule.active_share <= 0.25 and reach >= HISTORY_BUFFER
    return IterateHistory(x0, window=None if changes else reach)


def run_light(cfg: RunConfig) -> RunResult:
    """Execute a run keeping only the endpoint and the iterates its delays
    can still read (see ``_history``)."""
    bundle = build_runtime(cfg)
    x0, projected0 = _start(bundle)
    history = _history(x0, bundle)
    projections = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _, _, _, projected in tick_loop(history, bundle, bundle.region):
            projections += projected
    return RunResult(
        final_x=history.latest.copy(),
        counters=bundle.schedule.counters.copy(),
        projections=projections,
        initial_projection=projected0,
    )

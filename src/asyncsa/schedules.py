"""Step-size policies and agent activation.

Conventions
-----------
* Ticks are global and 0-indexed.  At tick n an active agent i scales its
  update by a(v) where v is the number of ticks *before* n at which i was
  active.  With every agent active at every tick this reduces to a(n).
* Activation masks are an ``_rng.Rows`` stream built by
  ``make_activation_sampler``, one fill per policy kind: all-active serves
  a constant and draws nothing, round-robin computes a block of masks from
  the tick numbers, and Bernoulli keeps the coin rows with an active agent,
  reading coin rows ahead in batches sized from the rate at which rows are
  kept.
* AgentSchedule binds a run's step policy and reads the masks a run of
  ticks at a time with ``take``: each tick's step sizes are read from the
  counters before that tick, for every agent or only the cells a run reads.
* Every policy keeps a(n) in (0, 1]; constants are accepted for
  diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import CHUNK, DOMAIN_ACTIVATION, Rows, constant, stream
from .errors import ConfigError, InsufficientActivationError

__all__ = [
    "HarmonicSteps",
    "PowerSteps",
    "ConstantSteps",
    "AllActive",
    "RoundRobin",
    "BernoulliActivation",
    "AgentSchedule",
    "check_policy_shape",
    "make_activation_sampler",
    "timeline",
    "balance_ratio",
]


# ---------------------------------------------------------------------------
# step-size policies


@dataclass(frozen=True)
class HarmonicSteps:
    """a(n) = 1 / (n + c) with c >= 1 so that a(n) <= 1."""

    c: float = 1.0
    kind: str = field(default="harmonic", init=False)

    def __post_init__(self):
        if not self.c >= 1.0:
            raise ConfigError("harmonic steps need c >= 1")

    def a_of(self, counts: np.ndarray) -> np.ndarray:
        return 1.0 / (counts + self.c)


@dataclass(frozen=True)
class PowerSteps:
    """a(n) = 1 / (n + c)^p for p in (0, 1].

    Square summability holds only for p > 0.5; smaller exponents are still
    constructible so the diagnostics can demonstrate the failure.
    """

    p: float
    c: float = 1.0
    kind: str = field(default="power", init=False)

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError("power steps need p in (0, 1]")
        if not self.c >= 1.0:
            raise ConfigError("power steps need c >= 1")

    def a_of(self, counts: np.ndarray) -> np.ndarray:
        return 1.0 / (counts + self.c) ** self.p


@dataclass(frozen=True)
class ConstantSteps:
    """a(n) = a0; diagnostics and deterministic reductions only."""

    a0: float
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        if not 0.0 < self.a0 <= 1.0:
            raise ConfigError("constant steps need a0 in (0, 1]")

    def a_of(self, counts: np.ndarray) -> np.ndarray:
        return np.full(np.shape(counts), self.a0)


StepSizePolicy = HarmonicSteps | PowerSteps | ConstantSteps


# ---------------------------------------------------------------------------
# activation policies


@dataclass(frozen=True)
class AllActive:
    kind: str = field(default="all", init=False)


@dataclass(frozen=True)
class RoundRobin:
    """k agents per tick, cycling 0..d-1 in index order."""

    k: int = 1
    kind: str = field(default="round-robin", init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("round-robin needs k >= 1")


@dataclass(frozen=True, eq=False)
class BernoulliActivation:
    """Each agent active independently with probability q_i; empty draws
    are resampled so every tick updates at least one agent."""

    q: np.ndarray
    kind: str = field(default="bernoulli", init=False)

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if not np.all((q > 0) & (q <= 1)):
            raise ConfigError("bernoulli activation needs q in (0, 1]")
        object.__setattr__(self, "q", q)


ActivationPolicy = AllActive | RoundRobin | BernoulliActivation


def check_policy_shape(policy: ActivationPolicy, d: int) -> None:
    """Raise ConfigError when an activation policy does not fit dimension d."""
    if isinstance(policy, BernoulliActivation) and policy.q.size != 1 \
            and policy.q.shape != (d,):
        raise ConfigError(f"bernoulli q must be scalar or length {d}")


# Most bytes of coins a Bernoulli fill draws at once.  A tick takes
# 1 / kept_rate coin rows on average, 5e5 at d = 2 and q = 1e-6, so rows are
# read ahead in batches sized from that rate rather than one missing row at
# a time.
COIN_BLOCK_BYTES = 4 * 2**20


def make_activation_sampler(policy: ActivationPolicy, d: int, seed: int) -> Rows:
    """Active masks of ticks 0, 1, ...."""
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    check_policy_shape(policy, d)
    if isinstance(policy, AllActive):
        return Rows(constant(np.ones(d, dtype=bool)))
    if isinstance(policy, RoundRobin):
        k = min(policy.k, d)

        def fill(start, size):
            """Tick t activates agents (t k + j) mod d for j < k."""
            ticks = np.arange(start, start + size)[:, None]
            masks = np.zeros((size, d), dtype=bool)
            np.put_along_axis(masks, (ticks * k + np.arange(k)) % d, True, axis=1)
            return masks

        return Rows(fill)
    q = policy.q
    rng = stream(seed, DOMAIN_ACTIVATION)
    rate, most = kept_rate(q, d), max(1, COIN_BLOCK_BYTES // (8 * d))
    ahead = np.empty((0, d), dtype=bool)  # kept rows drawn for a later fill

    def fill(start, size):
        """The next ``size`` coin rows with an active agent; an empty row
        is dropped.  Coin rows are drawn ahead, as many as the missing rows
        need at the kept-row ``rate``, at most ``most`` a draw, and the kept
        rows left over serve the next fill."""
        nonlocal ahead
        parts, have = [ahead], len(ahead)
        while have < size:
            rows = rng.random((math.ceil(min((size - have) / rate, most)), d)) < q
            parts.append(rows[rows.any(axis=1)])
            have += len(parts[-1])
        masks = np.concatenate(parts)
        ahead = masks[size:].copy()
        return masks[:size]

    return Rows(fill)


def kept_rate(q: np.ndarray, d: int) -> float:
    """The chance 1 - prod(1 - q_i) that a Bernoulli coin row of d agents
    activates one."""
    with np.errstate(divide="ignore"):  # log1p(-1) is -inf: every row is kept
        return float(-np.expm1(np.log1p(-np.broadcast_to(q, d)).sum()))


@dataclass(eq=False)
class AgentSchedule:
    """Activation masks, per-agent update counters and step sizes for one
    run.

    ``sampler`` is the stream of active masks; ``counters`` holds each
    agent's activations over the ticks taken so far; ``all_active`` is true
    when the policy activates every agent on every tick, and
    ``active_share`` is the expected share of agents active on a tick:
    k / d for round-robin, and for Bernoulli the mean q over the rows kept,
    mean(q) / kept_rate.
    """

    policy: ActivationPolicy
    d: int
    seed: int
    steps: StepSizePolicy
    counters: np.ndarray = field(init=False)
    sampler: Rows = field(init=False, repr=False)
    all_active: bool = field(init=False)
    active_share: float = field(init=False)

    def __post_init__(self):
        policy, d = self.policy, self.d
        self.seed = int(self.seed)
        self.sampler = make_activation_sampler(policy, d, self.seed)
        self.counters = np.zeros(d, dtype=np.int64)
        self.all_active = (
            isinstance(policy, AllActive)
            or isinstance(policy, RoundRobin) and policy.k >= d
            or isinstance(policy, BernoulliActivation) and bool(np.all(policy.q == 1.0))
        )
        self.active_share = (
            1.0 if self.all_active
            else min(policy.k, d) / d if isinstance(policy, RoundRobin)
            else float(np.broadcast_to(policy.q, d).mean()) / kept_rate(policy.q, d)
        )

    def take(self, size: int, cells=None):
        """The next ``size`` ticks' ``(active, step)``: active masks and step
        sizes read from the counts before each tick.  With ``cells``, a
        function of the masks that gives the (tick, agent) index arrays of
        the cells the ticks read, in tick order, ``step`` holds only those
        cells' step sizes and the cells come third.  ``counters`` moves
        once, past the last of them."""
        active = self.sampler.take(size)
        if cells is None:
            before = np.cumsum(active, axis=0, dtype=np.int64)
            before += self.counters - active
            self.counters = before[-1] + active[-1]
            return active, self.steps.a_of(before)
        t, agent = read = cells(active)
        on_t, on = np.nonzero(active)
        key = on * size + on_t  # the active cells, by agent and then tick
        key.sort()
        before = np.searchsorted(key, agent * size + t) - np.searchsorted(key, agent * size)
        before += self.counters[agent]
        self.counters = self.counters + np.bincount(on, minlength=self.d)
        return active, self.steps.a_of(before), read


# ---------------------------------------------------------------------------
# derived schedule quantities


def timeline(policy: StepSizePolicy, schedule: AgentSchedule, ticks: int) -> np.ndarray:
    """Cumulative rescaled time t(0..ticks), t(n) = sum of abar over m < n.

    Simulates a fresh copy of the schedule so the caller's counters and
    activation stream are untouched.
    """
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    sched = AgentSchedule(schedule.policy, schedule.d, schedule.seed, policy)
    t = np.zeros(ticks + 1)
    for start in range(0, ticks, CHUNK):
        active, step = sched.take(min(CHUNK, ticks - start))
        t[start + 1: start + 1 + len(active)] = np.where(active, step, 0.0).max(axis=1)
    np.cumsum(t, out=t)
    return t


def balance_ratio(
    counters_trace: np.ndarray,
    policy: StepSizePolicy,
    i: int,
    j: int,
    n: int,
) -> float:
    """Ratio of cumulative step sizes sum_{m<=n} a(v(m,i)) / a(v(m,j)).

    ``counters_trace`` holds one row per tick with the counter values the
    step sizes were read from (row m = counts before tick m).  Requires
    both agents to have updated at least once by tick n; the ratio is not
    meaningful as balance evidence otherwise.
    """
    counters_trace = np.asarray(counters_trace)
    if n < 0 or n >= len(counters_trace):
        raise ValueError("tick n outside the recorded trace")
    if i == j:
        return 1.0
    for agent in (i, j):
        if counters_trace[n, agent] == 0:
            raise InsufficientActivationError(
                f"agent {agent} never active in the first {n} ticks"
            )
    num = float(np.sum(policy.a_of(counters_trace[: n + 1, i])))
    den = float(np.sum(policy.a_of(counters_trace[: n + 1, j])))
    return num / den

"""Step-size policies and agent activation.

Conventions
-----------
* Ticks are global and 0-indexed.  At tick n an active agent i scales its
  update by a(v) where v is the number of ticks *before* n at which i was
  active.  With every agent active at every tick this reduces to a(n).
* Activation counters live in AgentSchedule and are advanced once per tick
  after the step sizes for that tick have been read.
* Every policy keeps a(n) in (0, 1]; constants are accepted for
  diagnostics only and are flagged as neither vanishing nor square
  summable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import DOMAIN_ACTIVATION, Rows, stream
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
    "effective_step",
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
    sum_diverges: bool = field(default=True, init=False)

    def __post_init__(self):
        if not self.c >= 1.0:
            raise ConfigError("harmonic steps need c >= 1")

    @property
    def square_summable(self) -> bool:
        return True

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
    sum_diverges: bool = field(default=True, init=False)

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError("power steps need p in (0, 1]")
        if not self.c >= 1.0:
            raise ConfigError("power steps need c >= 1")

    @property
    def square_summable(self) -> bool:
        return self.p > 0.5

    def a_of(self, counts: np.ndarray) -> np.ndarray:
        return 1.0 / (counts + self.c) ** self.p


@dataclass(frozen=True)
class ConstantSteps:
    """a(n) = a0; diagnostics and deterministic reductions only."""

    a0: float
    kind: str = field(default="constant", init=False)
    sum_diverges: bool = field(default=True, init=False)

    def __post_init__(self):
        if not 0.0 < self.a0 <= 1.0:
            raise ConfigError("constant steps need a0 in (0, 1]")

    @property
    def square_summable(self) -> bool:
        return False

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


class _AllSampler:
    def __init__(self, d: int):
        self._mask = np.ones(d, dtype=bool)

    def next(self, n: int) -> np.ndarray:
        return self._mask


class _RoundRobinSampler:
    def __init__(self, d: int, k: int):
        self._d = d
        self._k = min(k, d)

    def next(self, n: int) -> np.ndarray:
        mask = np.zeros(self._d, dtype=bool)
        start = (n * self._k) % self._d
        idx = (start + np.arange(self._k)) % self._d
        mask[idx] = True
        return mask


class _BernoulliSampler:
    def __init__(self, q: np.ndarray, d: int, seed: int, horizon: int):
        self._q = np.full(d, float(q[0])) if q.size == 1 else q
        rng = stream(seed, DOMAIN_ACTIVATION)
        # an empty draw is redrawn: size the stream by the expected rows
        rows = math.ceil(horizon / (1.0 - np.prod(1.0 - self._q)))
        self._rows = Rows(lambda start, size: rng.random((size, d)), rows)

    def next(self, n: int) -> np.ndarray:
        while True:
            mask = self._rows.next() < self._q
            if mask.any():
                return mask


def check_policy_shape(policy: ActivationPolicy, d: int) -> None:
    """Raise ConfigError when an activation policy does not fit dimension d."""
    if isinstance(policy, BernoulliActivation) and policy.q.size != 1 \
            and policy.q.shape != (d,):
        raise ConfigError(f"bernoulli q must be scalar or length {d}")


def _make_sampler(policy: ActivationPolicy, d: int, seed: int, horizon: int):
    check_policy_shape(policy, d)
    if isinstance(policy, AllActive):
        return _AllSampler(d)
    if isinstance(policy, RoundRobin):
        return _RoundRobinSampler(d, policy.k)
    return _BernoulliSampler(policy.q, d, seed, horizon)


# (tick, agent) cells per block of drawn ticks: hundreds of ticks at small d,
# and small next to a CHUNK-row block of an error or noise stream at any d
_BLOCK_CELLS = 1024


@dataclass
class AgentSchedule:
    """Activation source plus per-agent update counters for one run."""

    d: int
    policy: ActivationPolicy
    seed: int
    horizon: int
    counters: np.ndarray
    sampler: object
    _block: tuple = field(default=(0, (), None, None, None), init=False, repr=False)

    @classmethod
    def create(cls, policy: ActivationPolicy, d: int, seed: int,
               horizon: int) -> "AgentSchedule":
        if d < 1:
            raise ConfigError("dimension must be >= 1")
        return cls(
            d=d,
            policy=policy,
            seed=int(seed),
            horizon=horizon,
            counters=np.zeros(d, dtype=np.int64),
            sampler=_make_sampler(policy, d, int(seed), horizon),
        )

    def draw(self, n: int, steps: StepSizePolicy):
        """Tick n's active mask, step sizes and whether every agent is
        active; moves ``counters`` past tick n.

        Ticks are drawn in order, a block of about ``_BLOCK_CELLS`` (tick,
        agent) cells at a time, cut at ``horizon``: step sizes are read
        from the counts before each tick, all at once.
        """
        start, active, step, after, every = self._block
        k = n - start
        if not 0 <= k < len(active):
            size = max(1, min(_BLOCK_CELLS // self.d, self.horizon - n))
            active = np.array([self.sampler.next(m) for m in range(n, n + size)])
            after = np.cumsum(active, axis=0, dtype=np.int64)
            after += self.counters
            step = steps.a_of(after - active)
            every = np.logical_and.reduce(active, axis=1).tolist()
            self._block = n, active, step, after, every
            k = 0
        self.counters = after[k]
        return active[k], step[k], every[k]


# ---------------------------------------------------------------------------
# derived schedule quantities


def effective_step(
    n: int,
    active: np.ndarray,
    counters: np.ndarray,
    policy: StepSizePolicy,
) -> tuple[float, np.ndarray]:
    """Largest active step size and per-agent fractions for tick n.

    Returns (abar, q) with abar = max over active i of a(counters[i]) and
    q_i = a(counters[i]) / abar for active agents, 0 elsewhere.
    """
    active = np.asarray(active, dtype=bool)
    if not active.any():
        raise ValueError("effective_step needs at least one active agent")
    a = policy.a_of(np.asarray(counters))
    abar = float(a[active].max())
    q = np.where(active, a / abar, 0.0)
    return abar, q


def timeline(policy: StepSizePolicy, schedule: AgentSchedule, ticks: int) -> np.ndarray:
    """Cumulative rescaled time t(0..ticks), t(n) = sum of abar over m < n.

    Simulates a fresh copy of the schedule so the caller's counters and
    activation stream are untouched.
    """
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    sched = AgentSchedule.create(schedule.policy, schedule.d, schedule.seed, ticks)
    t = np.zeros(ticks + 1)
    acc = 0.0
    for m in range(ticks):
        active, step, _ = sched.draw(m, policy)
        acc += float(step[active].max())
        t[m + 1] = acc
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

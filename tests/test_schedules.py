import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asyncsa import (
    AgentSchedule,
    AllActive,
    BernoulliActivation,
    ConfigError,
    ConstantSteps,
    HarmonicSteps,
    InsufficientActivationError,
    PowerSteps,
    RoundRobin,
    balance_ratio,
    timeline,
)
from asyncsa._rng import DOMAIN_ACTIVATION, stream
from asyncsa.config import spec_from_config, spec_to_config
from asyncsa.schedules import kept_rate, make_activation_sampler

import reference


def test_harmonic_values_and_bounds():
    steps = HarmonicSteps(c=10.0)
    assert steps.a_of(0) == pytest.approx(0.1)
    assert steps.a_of(90) == pytest.approx(0.01)
    counts = np.array([0, 10, 990])
    assert steps.a_of(counts) == pytest.approx([0.1, 0.05, 0.001])
    with pytest.raises(ConfigError):
        HarmonicSteps(c=0.5)


def test_power_and_constant_validation():
    assert PowerSteps(p=0.6).a_of(0) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        PowerSteps(p=0.0)
    with pytest.raises(ConfigError):
        PowerSteps(p=1.5)
    assert ConstantSteps(a0=0.5).a_of(10**6) == 0.5
    with pytest.raises(ConfigError):
        ConstantSteps(a0=1.5)


def test_step_policy_config_round_trip_and_errors():
    for policy in (HarmonicSteps(c=3.0), PowerSteps(p=0.6, c=2.0),
                   ConstantSteps(a0=0.25)):
        assert spec_from_config("steps", spec_to_config(policy), 1) == policy
    with pytest.raises(ConfigError):
        spec_from_config("steps", {"kind": "nope"}, 1)
    with pytest.raises(ConfigError):
        spec_from_config("steps", {"kind": "harmonic", "c": 2.0, "junk": 1}, 1)


def test_activation_config_round_trip_and_errors():
    for policy in (AllActive(), RoundRobin(k=2),
                   BernoulliActivation(q=[0.5, 1.0])):
        rebuilt = spec_from_config("activation", spec_to_config(policy), 2)
        assert type(rebuilt) is type(policy)
    with pytest.raises(ConfigError):
        spec_from_config("activation", {"kind": "sometimes"}, 2)
    with pytest.raises(ConfigError):
        RoundRobin(k=0)
    with pytest.raises(ConfigError):
        BernoulliActivation(q=0.0)


def test_all_active_counters_track_tick():
    sched = AgentSchedule(AllActive(), 3, seed=0, steps=HarmonicSteps())
    assert sched.all_active
    for n in range(5):
        (mask,), _ = sched.take(1)
        assert mask.all()
    assert sched.counters.tolist() == [5, 5, 5]


def test_round_robin_cycles_in_index_order():
    sched = AgentSchedule(RoundRobin(k=2), 3, seed=0, steps=HarmonicSteps())
    masks = []
    for n in range(3):
        (mask,), _ = sched.take(1)
        masks.append(np.flatnonzero(mask).tolist())
    assert masks == [[0, 1], [0, 2], [1, 2]]
    assert sched.counters.tolist() == [2, 2, 2]


def test_bernoulli_respects_per_agent_rates():
    sched = AgentSchedule(BernoulliActivation(q=[0.5, 1.0]), 2, seed=0,
                          steps=HarmonicSteps())
    for n in range(10_000):
        (mask,), _ = sched.take(1)
        assert mask.any()
    rates = sched.counters / 10_000
    assert rates[1] == 1.0
    assert rates[0] == pytest.approx(0.5, abs=0.02)


def test_timeline_all_active_matches_harmonic_sum():
    sched = AgentSchedule(AllActive(), 2, seed=0, steps=HarmonicSteps())
    t = timeline(HarmonicSteps(c=10.0), sched, 1000)
    assert t.shape == (1001,)
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    # sum_{n<1000} 1/(n+10), computed once with exact rationals
    assert t[1000] == pytest.approx(4.665457889572304, abs=1e-12)
    # the caller's schedule is untouched
    assert sched.counters.tolist() == [0, 0]


def test_schedule_rejects_a_wrong_length_q():
    # timeline's only input that holds a policy is a schedule
    with pytest.raises(ConfigError, match="bernoulli q must be scalar or length 2"):
        AgentSchedule(BernoulliActivation(q=[0.5, 0.5, 0.5]), 2, seed=0, steps=HarmonicSteps())


def test_timeline_round_robin_uses_active_agent_counter():
    sched = AgentSchedule(RoundRobin(k=1), 2, seed=0, steps=HarmonicSteps())
    t = timeline(HarmonicSteps(c=10.0), sched, 4)
    # ticks 0,1 both run a fresh agent at a(0); ticks 2,3 at a(1)
    assert t == pytest.approx([0.0, 0.1, 0.2, 0.2 + 1 / 11, 0.2 + 2 / 11])


def _counters_trace(policy, d, ticks, seed=0):
    # row n: the counts before tick n
    sched = AgentSchedule(policy, d, seed, steps=HarmonicSteps())
    active, _ = sched.take(ticks)
    return np.cumsum(active, axis=0, dtype=np.int64) - active


def test_balance_ratio_self_is_exactly_one():
    trace = _counters_trace(RoundRobin(k=1), 2, 10)
    for n in range(10):
        assert balance_ratio(trace, HarmonicSteps(c=10.0), 0, 0, n) == 1.0


def test_balance_ratio_round_robin_tends_to_one():
    # the ratio approaches 1 only at 1/log(n) speed, so the window is loose
    trace = _counters_trace(RoundRobin(k=1), 2, 20_000)
    ratio = balance_ratio(trace, HarmonicSteps(c=10.0), 0, 1, 19_999)
    assert ratio == pytest.approx(1.0, abs=0.02)
    shorter = balance_ratio(trace, HarmonicSteps(c=10.0), 0, 1, 199)
    assert abs(ratio - 1.0) < abs(shorter - 1.0)


def test_balance_ratio_requires_activation():
    trace = _counters_trace(RoundRobin(k=1), 3, 2)
    # agent 2 has not run within the first two ticks
    with pytest.raises(InsufficientActivationError):
        balance_ratio(trace, HarmonicSteps(), 0, 2, 1)


def test_balance_ratio_bernoulli_stays_near_one():
    hits = 0
    for seed in range(20):
        tr = _counters_trace(BernoulliActivation(q=0.5), 2, 20_000, seed=seed)
        r = balance_ratio(tr, HarmonicSteps(c=10.0), 0, 1, 19_999)
        hits += 0.9 <= r <= 1.1
    assert hits >= 18


@pytest.mark.parametrize("policy, d, expected", [
    (AllActive(), 3, True),
    (RoundRobin(k=3), 3, True),
    (RoundRobin(k=5), 3, True),
    (RoundRobin(k=2), 3, False),
    (BernoulliActivation(q=1.0), 3, True),
    (BernoulliActivation(q=[1.0, 1.0]), 2, True),
    (BernoulliActivation(q=[1.0, 0.5]), 2, False),
], ids=["all", "round-robin-d", "round-robin-over-d", "round-robin-under-d",
        "bernoulli-1", "bernoulli-ones", "bernoulli-mixed"])
def test_all_active_is_read_from_the_policy(policy, d, expected):
    sched = AgentSchedule(policy, d, seed=0, steps=HarmonicSteps())
    assert sched.all_active is expected
    if expected:
        assert all(sched.take(1)[0].all() for n in range(4))


@pytest.mark.parametrize("policy, d, share", [
    (AllActive(), 3, 1.0),
    (RoundRobin(k=2), 8, 0.25),
    (RoundRobin(k=9), 8, 1.0),
    (BernoulliActivation(q=1.0), 3, 1.0),
    (BernoulliActivation(q=0.5), 2, 0.5 / 0.75),
    (BernoulliActivation(q=[0.1, 0.3]), 2, 0.2 / (1 - 0.9 * 0.7)),
], ids=["all", "round-robin", "round-robin-over-d", "bernoulli-1", "bernoulli",
        "bernoulli-vector"])
def test_active_share_is_the_expected_share_of_a_kept_row(policy, d, share):
    # a Bernoulli row without an active agent is dropped, so the kept rows
    # hold mean(q) / (1 - prod(1 - q)) of the agents on average
    sched = AgentSchedule(policy, d, seed=0, steps=HarmonicSteps())
    assert sched.active_share == pytest.approx(share, rel=1e-12)


def _missing_rows_masks(q, d: int, seed: int, ticks: int) -> np.ndarray:
    """Kept coin rows, drawing each time only as many rows as are missing."""
    rng = stream(seed, DOMAIN_ACTIVATION)
    masks = np.empty((0, d), dtype=bool)
    while len(masks) < ticks:
        rows = rng.random((ticks - len(masks), d)) < q
        masks = np.concatenate((masks, rows[rows.any(axis=1)]))
    return masks


_COIN_QS = {"1e-4": 1e-4, "0.3": 0.3, "vector": [0.02, 0.3, 0.001, 0.6, 0.05]}


@pytest.mark.parametrize("q", _COIN_QS)
def test_bernoulli_masks_read_ahead_keep_their_bits_in_any_cut(q):
    # the fill reads coin rows ahead, sized from the kept-row rate, and
    # carries the kept rows left over to the next block: the masks are
    # those of a fill that draws only the rows still missing, and of the
    # one-row-at-a-time reference, however the ticks are cut into blocks
    d, q = 5, _COIN_QS[q]
    ticks = 60 if np.size(q) == 1 and q < 0.01 else 3000
    policy = BernoulliActivation(q=q)
    want = _missing_rows_masks(policy.q, d, 3, ticks)
    oracle = reference.ReferenceSchedule(policy, d, seed=3, steps=HarmonicSteps())
    assert np.array_equal(np.array([oracle.tick(t)[0] for t in range(ticks)]), want)
    for cut in [(1,), (7, 1, 300), (ticks,), (2, ticks)]:
        sampler, got = make_activation_sampler(policy, d, seed=3), []
        for size in itertools.cycle(cut):
            got.append(sampler.take(min(size, ticks - sum(map(len, got)))))
            if sum(map(len, got)) == ticks:
                break
        assert np.array_equal(np.concatenate(got), want), cut


def test_kept_rate_of_tiny_and_certain_coins():
    assert kept_rate(np.array([1e-6]), 2) == pytest.approx(2e-6 - 1e-12, rel=1e-12)
    assert kept_rate(np.array([1.0, 0.5]), 2) == 1.0
    assert kept_rate(np.array([5e-324]), 3) > 0


def test_tiny_bernoulli_q_run_finishes():
    # a tick takes 1 / (1 - (1 - q)**2), about 5e5, coin rows at d = 2 and
    # q = 1e-6.  Drawn only as many as were still missing, up to 20 a call,
    # a 20-tick run took 12.2 s; read ahead in batches, 0.3 s (2-core x86
    # host, numpy 2.4.6)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from asyncsa import BernoulliActivation, QuadraticObjective, RunConfig, run_light\n"
            "run_light(RunConfig(dimension=2, horizon=20, seed=0, "
            "objective=QuadraticObjective(matrices='random'), "
            "activation=BernoulliActivation(q=1e-6)))")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=6,
                   env={**os.environ, "PYTHONPATH": path})

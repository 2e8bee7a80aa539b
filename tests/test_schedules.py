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
from asyncsa.config import spec_from_config, spec_to_config


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

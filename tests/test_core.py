import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from asyncsa import (
    AllActive,
    BellmanObjective,
    BernoulliActivation,
    ComponentUniformErrors,
    ConfigError,
    ConstantSteps,
    DivergenceError,
    EuclideanNorm,
    FixedBiasErrors,
    GeometricDelays,
    GradientObjective,
    HarmonicSteps,
    HistoryWindowError,
    IterateHistory,
    NormBallErrors,
    PowerSteps,
    ProjectionRegion,
    ProjectionSpec,
    QuadraticObjective,
    RademacherNoise,
    RoundRobin,
    RunConfig,
    ScaledIdentityObjective,
    StaleRefreshDelays,
    UniformDelays,
    UniformNoise,
    WeightedMaxNorm,
    ZeroDelays,
    ZeroErrors,
    ZeroNoise,
    apply_tick,
    build_runtime,
    draw_tick,
    run,
    run_light,
    run_paired,
    weighted_norm,
)
from asyncsa import core
from asyncsa._rng import CHUNK, DELAY_BLOCK_BYTES
from asyncsa.core import COLUMN_GATHER_CELLS, HISTORY_BUFFER, draw_block
from asyncsa.fields import QuadraticBowl, QuadraticField, ScaledIdentityField, random_pd_matrix
from asyncsa.schedules import AgentSchedule, make_activation_sampler
from asyncsa.stochastics import make_delay_sampler, make_error_sampler, make_noise_sampler

import reference


def _cfg(**kw) -> RunConfig:
    base = dict(
        dimension=2,
        horizon=200,
        seed=5,
        objective=QuadraticObjective(matrices="random"),
        steps=HarmonicSteps(c=10.0),
    )
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# exact recursions


def test_linear_decay_matches_telescoping_product():
    # x_{n+1} = (1 - 1/(n+10)) x_n telescopes to x_N = (9 / (N+9)) x_0
    cfg = RunConfig(
        dimension=2,
        horizon=1000,
        seed=0,
        objective=ScaledIdentityObjective(gain=-1.0),
        steps=HarmonicSteps(c=10.0),
        x0=[1.0, 1.0],
    )
    result = run_light(cfg)
    prod = Fraction(1)
    for m in range(1000):
        prod *= 1 - Fraction(1, m + 10)
    assert prod == Fraction(9, 1009)
    expected = float(prod) * np.sqrt(2.0)
    assert abs(np.linalg.norm(result.final_x) - expected) < 1e-12


def test_first_activation_uses_count_zero_step():
    # with a zero field and a unit bias, x_1 = a(0) exactly; reading the
    # counter after advancing would give 1/11 instead of 1/10
    cfg = RunConfig(
        dimension=1,
        horizon=2,
        seed=0,
        objective=ScaledIdentityObjective(gain=0.0),
        steps=HarmonicSteps(c=10.0),
        errors=FixedBiasErrors(bias=[1.0]),
        x0=[0.0],
    )
    trace = run(cfg)
    assert trace.x[1, 0] == 0.1
    assert trace.x[2, 0] == 0.1 + 1 / 11
    assert trace.step[0, 0] == 0.1
    assert trace.step[1, 0] == 1 / 11


def test_counters_record_prior_activations():
    cfg = _cfg(horizon=3, activation=RoundRobin(k=1))
    trace = run(cfg)
    assert trace.counters.tolist() == [[0, 0], [1, 0], [1, 1], [2, 1]]
    assert trace.active[:3].tolist() == [[1, 0], [0, 1], [1, 0]]


def test_golden_endpoint_is_frozen():
    cfg = _cfg(
        delays=StaleRefreshDelays(p_c=0.4),
        errors=ComponentUniformErrors(bound=0.3),
    )
    trace = run(cfg)
    assert trace.final_x[0] == 0.04617775722866827
    assert trace.final_x[1] == 0.04301694412945187
    assert trace.residual[-1] == 0.11046693464758445
    assert trace.counters[-1].tolist() == [200, 200]


# ---------------------------------------------------------------------------
# run drivers agree


def test_traced_and_light_runs_agree():
    cfg = _cfg(
        delays=StaleRefreshDelays(p_c=0.5),
        errors=ComponentUniformErrors(bound=0.2),
        noise=UniformNoise(level=0.1),
        projection=ProjectionSpec(r_inner=2.0, r_outer=4.0),
    )
    trace = run(cfg)
    result = run_light(cfg)
    assert np.array_equal(result.final_x, trace.final_x)
    assert np.array_equal(result.counters, trace.counters[-1])
    assert result.projections == int(trace.projected.sum())
    assert result.initial_projection == trace.meta["initial_projection"]


def test_equal_configs_write_identical_traces(tmp_path):
    cfg = _cfg(delays=StaleRefreshDelays(p_c=0.5),
               errors=ComponentUniformErrors(bound=0.2))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(cfg).write_csv(a)
    run(cfg).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_numpy_integer_seed_writes_the_same_trace_bytes(tmp_path):
    # the trace meta holds the seed as a plain int, whatever its type in the config
    cfg = _cfg(horizon=20, errors=ComponentUniformErrors(bound=0.2))
    wide = _cfg(horizon=20, errors=ComponentUniformErrors(bound=0.2), seed=np.int64(5))
    for suffix in ("csv", "jsonl"):
        a, b = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
        getattr(run(cfg), f"write_{suffix}")(a)
        getattr(run(wide), f"write_{suffix}")(b)
        assert a.read_bytes() == b.read_bytes()


def test_manual_stepping_matches_run():
    cfg = _cfg(horizon=3, errors=ComponentUniformErrors(bound=0.2))
    bundle = build_runtime(cfg)
    history = IterateHistory(bundle.x0, window=3)
    for n in range(3):
        sample = draw_tick(n, bundle)
        apply_tick(history, bundle.field, sample, bundle.region)
    assert np.array_equal(history.latest, run(cfg).final_x)


@pytest.mark.parametrize("activation", [BernoulliActivation(q=0.6), RoundRobin(k=2)],
                         ids=["bernoulli", "round-robin"])
@pytest.mark.parametrize("delays", [
    ZeroDelays(), UniformDelays(tau_max=3), GeometricDelays(mean=2.0),
    StaleRefreshDelays(p_c=0.4),
], ids=lambda m: m.kind)
def test_drawn_ticks_do_not_depend_on_the_iterate(activation, delays):
    # only the drive reads the iterate: another objective and start point
    # leave every drawn input of every tick unchanged
    common = dict(dimension=3, horizon=300, seed=4, activation=activation,
                  delays=delays, errors=ComponentUniformErrors(bound=0.2),
                  noise=UniformNoise(level=0.1))
    a = build_runtime(_cfg(**common))
    b = build_runtime(_cfg(**common, objective=ScaledIdentityObjective(gain=-2.0),
                           x0=[5.0, -3.0, 1.0]))
    for n in range(300):
        ta, tb = draw_tick(n, a), draw_tick(n, b)
        for name in ("active", "step", "tau", "eps", "noise"):
            assert np.array_equal(getattr(ta, name), getattr(tb, name)), (n, name)


# one list per drawn input: every kind, and the stale-refresh and norm-ball
# variants whose blocks are built differently
_DRAWN_KINDS = (
    [ZeroDelays(), UniformDelays(tau_max=3), GeometricDelays(mean=2.0),
     StaleRefreshDelays(p_c=0.4),
     StaleRefreshDelays(p_c=[[1.0, 0.3, 0.5], [0.2, 1.0, 0.6], [0.7, 0.8, 1.0]])],
    [ZeroErrors(), ComponentUniformErrors(bound=0.4),
     FixedBiasErrors(bias=[0.3, -0.4, 0.1]), NormBallErrors(bound=0.5),
     NormBallErrors(bound=0.5, norm=WeightedMaxNorm(weights=[1.0, 2.0, 0.5]))],
    [ZeroNoise(), UniformNoise(level=0.05), RademacherNoise(level=0.5)],
    [AllActive(), RoundRobin(k=2), BernoulliActivation(q=[0.2, 0.5, 0.9]),
     BernoulliActivation(q=0.02), RoundRobin(k=3)],
)


def _drawn_bundle(kinds, horizon: int):
    delays, errors, noise, activation = kinds
    return build_runtime(RunConfig(
        dimension=3, horizon=horizon, seed=6, objective=ScaledIdentityObjective(gain=-1.0),
        steps=PowerSteps(p=0.7), activation=activation, delays=delays, errors=errors,
        noise=noise))


def _drawn_ticks(kinds, horizon: int, ticks: int) -> list:
    bundle = _drawn_bundle(kinds, horizon)
    return [draw_tick(n, bundle) for n in range(ticks)]


def _bits(value):
    return None if value is None else (np.asarray(value).dtype, np.asarray(value).tobytes())


def _check_horizon_cuts(kinds, horizons) -> None:
    """A run of each horizon draws the first ticks of a longer run, and so
    does one drawn block of the longest of them."""
    long = _drawn_ticks(kinds, 2 * CHUNK + 5, max(horizons))
    for horizon in horizons:
        short = _drawn_ticks(kinds, horizon, horizon)
        for n, (a, b) in enumerate(zip(short, long)):
            for name in ("active", "step", "tau", "eps", "noise", "all_active"):
                assert _bits(getattr(a, name)) == _bits(getattr(b, name)), (kinds, n, name)
    bundle = _drawn_bundle(kinds, max(horizons))
    block = draw_block(0, max(horizons), bundle)
    assert block.start == 0 and len(block.active) == len(long)
    for name in ("active", "step", "tau", "eps", "noise"):
        rows = getattr(block, name)
        for n, sample in enumerate(long):
            row = None if rows is None else rows[n]
            assert _bits(row) == _bits(getattr(sample, name)), (kinds, n, name, "block")
    counts = block.active.sum(axis=0, dtype=np.int64)
    assert _bits(bundle.schedule.counters) == _bits(counts)


def test_drawn_ticks_do_not_depend_on_the_horizon():
    # every stream is cut into blocks at the horizon; all kinds are
    # crossed for short horizons, and each kind is cut once past a block
    for kinds in itertools.product(*_DRAWN_KINDS):
        _check_horizon_cuts(kinds, (1, 7))
    for k in range(5):
        _check_horizon_cuts([kinds[k % len(kinds)] for kinds in _DRAWN_KINDS],
                            (1, 7, CHUNK + 3))


@pytest.mark.parametrize("steps", [HarmonicSteps(c=3.0), PowerSteps(p=0.7, c=2.0),
                                   ConstantSteps(a0=0.1)], ids=lambda s: s.kind)
@pytest.mark.parametrize("activation", [AllActive(), RoundRobin(k=2),
                                        BernoulliActivation(q=0.3)],
                         ids=lambda a: a.kind)
def test_block_drawn_activation_matches_tick_by_tick(activation, steps):
    # at d = 300 an activation block holds 3 ticks, so 50 ticks cross 17
    # block boundaries; every row must equal the tick-by-tick reading
    d = 300
    bundle = build_runtime(RunConfig(
        dimension=d, horizon=50, seed=2, objective=ScaledIdentityObjective(gain=-1.0),
        steps=steps, activation=activation))
    sampler = make_activation_sampler(activation, d, seed=2)
    counters = np.zeros(d, dtype=np.int64)
    for n in range(50):
        sample = draw_tick(n, bundle)
        active = sampler.next(n)
        assert np.array_equal(sample.active, active)
        assert sample.all_active == isinstance(activation, AllActive)
        assert np.array_equal(sample.step, steps.a_of(counters))
        counters += active
    assert np.array_equal(bundle.schedule.counters, counters)


_ORACLE_ACTIVATIONS = {
    "all": lambda d: AllActive(),
    "round-robin-1": lambda d: RoundRobin(k=1),
    "round-robin-2": lambda d: RoundRobin(k=2),
    "round-robin-d": lambda d: RoundRobin(k=d),
    "bernoulli-0.3": lambda d: BernoulliActivation(q=0.3),
    "bernoulli-vector": lambda d: BernoulliActivation(q=np.resize([0.05, 0.9, 0.2], d)),
    "bernoulli-1": lambda d: BernoulliActivation(q=1.0),
}


@pytest.mark.parametrize("steps", [HarmonicSteps(c=3.0), PowerSteps(p=0.7, c=2.0),
                                   ConstantSteps(a0=0.1)], ids=lambda s: s.kind)
@pytest.mark.parametrize("activation", _ORACLE_ACTIVATIONS)
@pytest.mark.parametrize("d, ticks", [(300, 50), (3, 2 * CHUNK + 5)],
                         ids=["d300", "d3"])
def test_drawn_activation_matches_the_reference_schedule(d, ticks, activation, steps):
    # at d = 300 a schedule block holds 3 ticks, so 50 ticks cross 17 block
    # boundaries; at d = 3 the Bernoulli coin stream is refilled twice
    policy = _ORACLE_ACTIVATIONS[activation](d)
    bundle = build_runtime(RunConfig(
        dimension=d, horizon=ticks, seed=4, objective=ScaledIdentityObjective(gain=-1.0),
        steps=steps, activation=policy))
    oracle = reference.ReferenceSchedule(policy, d, seed=4, steps=steps)
    for n in range(ticks):
        sample = draw_tick(n, bundle)
        active, step = oracle.tick(n)
        assert _bits(sample.active) == _bits(active)
        assert _bits(sample.step) == _bits(step)
    assert _bits(bundle.schedule.counters) == _bits(oracle.counters)


_COLUMN_OBJECTIVES = {
    "quadratic": lambda d: QuadraticObjective(matrices="random"),
    "bellman": lambda d: BellmanObjective(states=d, actions=2, mdp_seed=1),
    "bowl": lambda d: GradientObjective(
        surface="quadratic-bowl", matrix=random_pd_matrix(d, np.random.default_rng(d))),
}


@pytest.mark.parametrize("objective", _COLUMN_OBJECTIVES)
@pytest.mark.parametrize("delays", [UniformDelays(tau_max=5), GeometricDelays(mean=3.0),
                                    StaleRefreshDelays(p_c=0.3)], ids=lambda m: m.kind)
@pytest.mark.parametrize("activation", [BernoulliActivation(q=0.3), RoundRobin(k=1)],
                         ids=lambda a: a.kind)
@pytest.mark.parametrize("d", [3, 48, 100])
def test_active_column_update_matches_the_full_gather(d, activation, delays, objective):
    # at d = 48 a partly active tick with at most 12 agents active gathers
    # only their views and evaluates only their drive components (every
    # round-robin tick, about a quarter of the Bernoulli ones; at d = 100
    # about a sixth); every new iterate must equal, bit for bit, the update
    # from every agent's view, with the full age matrices, step sizes,
    # errors and noise of twin samplers
    ticks = 300
    steps, errors, noise = HarmonicSteps(c=5.0), ComponentUniformErrors(bound=0.2), \
        UniformNoise(level=0.1)
    bundle = build_runtime(RunConfig(
        dimension=d, horizon=ticks, seed=8, objective=_COLUMN_OBJECTIVES[objective](d),
        steps=steps, activation=activation, delays=delays, errors=errors, noise=noise))
    twins = (AgentSchedule(activation, d, 8, steps), make_delay_sampler(delays, d, 8, ticks),
             make_error_sampler(errors, d, 8, ticks), make_noise_sampler(noise, d, 8))
    history = IterateHistory(bundle.x0, window=ticks)
    field = bundle.field
    for n in range(ticks):
        sample = draw_tick(n, bundle)
        assert not sample.all_active
        (active,), (step,) = twins[0].take(1)
        tau, eps, noise_row = (twin.take(1)[0] for twin in twins[1:])
        assert _bits(sample.active) == _bits(active), n
        x = history.latest.copy()
        views = history.gather(n, tau)
        want = np.where(active, x + step * (field.vector_views(views) + eps + noise_row), x)
        apply_tick(history, field, sample)
        assert _bits(history.latest) == _bits(want), n


def _mixed_means(d):
    # means 1.5 and 2.0 take numpy's search branch, 2.5 and 3.0 its inversion
    return 1.5 + 0.5 * (np.add.outer(np.arange(d), 2 * np.arange(d)) % 4)


_READ_DELAYS = {
    "uniform": lambda d: UniformDelays(tau_max=5),
    "geometric": lambda d: GeometricDelays(mean=3.0),
    "geometric-matrix": lambda d: GeometricDelays(mean=_mixed_means(d)),
    "stale-refresh": lambda d: StaleRefreshDelays(p_c=0.3),  # symmetric coins
    # independent per-pair coins, with p_c[j, i] != p_c[i, j]
    "stale-refresh-matrix": lambda d: StaleRefreshDelays(
        p_c=0.2 + 0.1 * (np.add.outer(np.arange(d), 3 * np.arange(d)) % 7)),
}


def _check_served_ages(bundle, twin, ticks: int) -> int:
    """Every tick's served ``(tau, reads)`` against the full matrices of
    ``twin``, read a tick at a time; returns the ticks that read columns.

    A tick with at most a quarter of a wide chain's agents active reads
    exactly the active agents' views, in order, and every other tick all
    of them.  Each served age equals the twin's, no age passes its tick,
    and a self-view is 0."""
    d, columns_read = bundle.d, 0
    for n in range(ticks):
        sample = draw_tick(n, bundle)
        full = twin.take(1)[0]
        act = np.flatnonzero(sample.active)
        if d * d >= COLUMN_GATHER_CELLS and 4 * len(act) <= d:
            columns_read += 1
            assert np.array_equal(sample.reads, act), n
            reads = act
        else:
            assert sample.reads is None, n
            reads = np.arange(d)
        tau = sample.tau
        assert tau.dtype == full.dtype and tau.shape == (d, len(reads)), n
        assert np.array_equal(tau, full[:, reads]), n
        assert np.all(tau >= 0) and np.all(tau <= n), n
        assert not tau[reads, np.arange(len(reads))].any(), n
    return columns_read


def _block_ticks(cfg: RunConfig) -> int:
    """Ticks per drawn block of ``cfg``'s delays: the tick block of a chain
    that reads by columns, else a block of full age matrices."""
    bundle = build_runtime(cfg)
    return core._tick_rows(bundle) if core._reads_columns(bundle) else bundle.models.delays.rows


@pytest.mark.parametrize("delays", _READ_DELAYS)
@pytest.mark.parametrize("d, activation", [
    (3, RoundRobin(k=1)),                  # small d: every tick reads full matrices
    (48, BernoulliActivation(q=0.25)),     # blocks mixing full and column ticks
    (100, RoundRobin(k=1)),                # every tick reads one column
], ids=["d3", "d48", "d100"])
def test_drawn_ages_of_read_columns_match_the_full_matrices(d, activation, delays):
    # A tick with at most a quarter of a wide chain's agents active gets
    # the ages of its active agents' views only, and every other tick full
    # matrices.  Either way each served age equals that of a twin sampler
    # read with plain take.  The ticks run past the first delay block (4096
    # rows at d = 3, 3640 at d = 48, 4096 at d = 100).
    model = _READ_DELAYS[delays](d)
    cfg = RunConfig(dimension=d, horizon=1, seed=9, objective=ScaledIdentityObjective(gain=-1.0),
                    activation=activation, delays=model)
    ticks = _block_ticks(cfg) + 50
    bundle = build_runtime(replace(cfg, horizon=ticks))
    twin = make_delay_sampler(model, d, seed=9, horizon=ticks)
    columns_read = _check_served_ages(bundle, twin, ticks)
    assert columns_read == {3: 0, 100: ticks}.get(d, columns_read)
    assert d != 48 or 0 < columns_read < ticks


_BLOCK_DELAYS = {
    "uniform": _READ_DELAYS["uniform"],
    "geometric-matrix": _READ_DELAYS["geometric-matrix"],  # both numpy branches
    "stale-refresh": _READ_DELAYS["stale-refresh"],
}


@pytest.mark.parametrize("delays", _BLOCK_DELAYS)
@pytest.mark.parametrize("activation", [RoundRobin(k=1), BernoulliActivation(q=0.22)],
                         ids=lambda a: a.kind)
@pytest.mark.parametrize("d", [48, 100])
def test_served_ages_match_the_full_matrices_across_delay_blocks(d, activation, delays):
    # A wide chain's ticks read their ages from tick blocks drawn for the
    # read cells only (4096 ticks, and with Bernoulli activation 3640 at
    # d = 48 and 838 at d = 100).  The
    # horizon crosses two blocks and cuts a third mid-block.  Round-robin
    # ticks read one column each; Bernoulli blocks mix column and full ticks.
    delays = _BLOCK_DELAYS[delays](d)
    cfg = RunConfig(dimension=d, horizon=1, seed=12,
                    objective=ScaledIdentityObjective(gain=-1.0), activation=activation,
                    delays=delays)
    rows = _block_ticks(cfg)
    ticks = 2 * rows + rows // 2
    bundle = build_runtime(replace(cfg, horizon=ticks))
    twin = make_delay_sampler(delays, d, seed=12, horizon=ticks)
    columns_read = _check_served_ages(bundle, twin, ticks)
    if isinstance(activation, RoundRobin):
        assert columns_read == ticks
    else:
        assert 0 < columns_read < ticks


@pytest.mark.parametrize("d", [48, 100])
def test_huge_geometric_means_reach_back_to_tick_zero_in_read_columns(d):
    # every draw overflows the float64 age: the read columns clamp to their
    # tick, and the self-views stay 0
    ticks = 12
    bundle = build_runtime(RunConfig(
        dimension=d, horizon=ticks, seed=1, objective=ScaledIdentityObjective(gain=-1.0),
        activation=RoundRobin(k=2), delays=GeometricDelays(mean=1e308)))
    for n in range(ticks):
        sample = draw_tick(n, bundle)
        act = np.flatnonzero(sample.active)
        want = np.full((d, len(act)), n, dtype=np.int32)
        want[act, np.arange(len(act))] = 0
        assert np.array_equal(sample.reads, act), n
        assert _bits(sample.tau) == _bits(want), n


_CUT_DELAYS = {**_READ_DELAYS, "stale-refresh-symmetric-matrix": lambda d: StaleRefreshDelays(
    p_c=0.2 + 0.1 * (np.add.outer(np.arange(d), np.arange(d)) % 7), symmetric=True)}
_CUT_ACTIVATIONS = {"round-robin": RoundRobin(k=1), "bernoulli": BernoulliActivation(q=0.22)}
# every delay kind with both activations and at both d, each once
_CUT_CASES = [(d, activation, delays)
              for k, delays in enumerate(_CUT_DELAYS)
              for d, activation in ((48, ("round-robin", "bernoulli")[k % 2]),
                                    (100, ("bernoulli", "round-robin")[k % 2]))]


@pytest.mark.parametrize("d, activation, delays", _CUT_CASES)
def test_column_runs_do_not_depend_on_the_tick_block_length(d, activation, delays,
                                                            monkeypatch):
    # A chain that reads by columns draws each pair stream once a tick
    # block and keeps only the cells its ticks read.  Light runs, and on a
    # short horizon, where one-tick blocks are cheap, paired runs with
    # decoupled errors (whose whole rows are drawn anew), must give the
    # same bits with the block cut anywhere: one tick, 7, 838, the chain's
    # own length and the whole horizon, and with full matrices read on
    # every tick.  The long horizon crosses the chain's own block and is a
    # multiple of none of the lengths.
    cfg = RunConfig(
        dimension=d, horizon=15, seed=3, objective=ScaledIdentityObjective(gain=-0.5),
        steps=PowerSteps(p=0.7, c=2.0), activation=_CUT_ACTIVATIONS[activation],
        delays=_CUT_DELAYS[delays](d), errors=ComponentUniformErrors(bound=0.3),
        noise=UniformNoise(level=0.2), projection=ProjectionSpec(r_inner=0.5, r_outer=1.0))
    own = _block_ticks(cfg)

    def results(horizon):
        light = run_light(replace(cfg, horizon=horizon, projection=None))
        got = [_bits(light.final_x), _bits(light.counters)]
        if horizon == cfg.horizon:
            paired = run_paired(cfg, coupled_errors=False)
            got += [_bits(a) for a in (paired.gap, paired.error_gap, paired.step_bound,
                                       paired.raw_final, paired.proj_final)]
        return got

    wants = {}
    for horizon, lengths in ((15, {1, 7}), (own + 101, {838, own + 101} - {own})):
        wants[horizon] = results(horizon)  # in blocks of the chain's own length
        for rows in sorted(lengths):
            monkeypatch.setattr(core, "_tick_rows", lambda bundle: rows)
            assert results(horizon) == wants[horizon], (horizon, rows)
            monkeypatch.undo()
    monkeypatch.setattr(core, "COLUMN_GATHER_CELLS", d * d + 1)  # every tick reads all
    assert results(15) == wants[15]


# SHA-256 of final_x and counters of d = 100 run_light runs, recorded before
# the active-column ticks skipped the inactive agents' ages and drives
_WIDE_PINS = {
    (1, "geometric"): "795bf053b9b1e4ca4f73475d7090d894edb5bc59285186440ec68d3e413fbcba",
    (1, "bounded-uniform"): "f0e793227dcf96738d8976b12ee2bc97d302cd24fd3620981330068028acddc5",
    (3, "geometric"): "57beb2ec91eb2581dbccabf02f42dcbd6c8175ef86c37c1e27766f0d3b9784db",
    (3, "bounded-uniform"): "abaefd8f9c03ff832235b13d82e498f8a310403ba20cd245aa1e8f7cde04cf2e",
}


@pytest.mark.parametrize("k, kind", _WIDE_PINS, ids=lambda v: str(v))
def test_wide_light_run_bytes_are_frozen(k, kind):
    delays = GeometricDelays(mean=3.0) if kind == "geometric" else UniformDelays(tau_max=5)
    result = run_light(RunConfig(
        dimension=100, horizon=1000, seed=11, objective=QuadraticObjective(matrices="random"),
        steps=HarmonicSteps(c=10.0), activation=RoundRobin(k=k), delays=delays,
        errors=ComponentUniformErrors(bound=0.1), noise=UniformNoise(level=0.1)))
    h = hashlib.sha256()
    h.update(result.final_x.tobytes())
    h.update(result.counters.tobytes())
    assert h.hexdigest() == _WIDE_PINS[k, kind]


def test_paired_run_reads_step_sizes_once_per_tick(monkeypatch):
    # both chains consume one drawn sample, and the step sizes of all 120
    # ticks come from one activation block: a(nu) is evaluated once
    cfg = _cfg(horizon=120, activation=RoundRobin(k=1),
               projection=ProjectionSpec(r_inner=1.0, r_outer=2.0))
    a_of = HarmonicSteps.a_of
    calls = []

    def counted(self, counts):
        calls.append(1)
        return a_of(self, counts)

    monkeypatch.setattr(HarmonicSteps, "a_of", counted)
    run_paired(cfg)
    assert len(calls) == 1


# a d = 100 round-robin k = 1 chain, which reads one view a tick
_ONE_COLUMN = RunConfig(dimension=100, horizon=CHUNK + 1, seed=0,
                        objective=ScaledIdentityObjective(gain=-1.0), activation=RoundRobin(k=1),
                        delays=GeometricDelays(mean=3.0), errors=ComponentUniformErrors(bound=0.2),
                        noise=UniformNoise(level=0.1))


def test_light_run_holds_no_spent_error_or_noise_block():
    # A d = 100 round-robin chain reads by columns and draws 4096-tick
    # blocks; its error and noise streams draw the same blocks, in
    # sub-blocks cut to the cells read.  Over its set-up and history, the
    # run then peaks well under one CHUNK-row float64 block.  One CHUNK-row
    # error or noise block more would pass the budget: with a CHUNK-row
    # block for each, the run peaked 2.7 blocks over them.
    cfg, d = _ONE_COLUMN, _ONE_COLUMN.dimension
    block = CHUNK * d * 8
    history = (cfg.horizon + 1) * d * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bundle = build_runtime(cfg)
        set_up = tracemalloc.get_traced_memory()[0] - start
        del bundle
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_light(cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= set_up + history + 1.5 * block, (peak, set_up, history)


def test_column_light_run_holds_only_the_cells_it_reads():
    # The same chain keeps, of each 4096-tick block, the active masks and
    # the read cells' ages, step sizes, errors and noise, and its pair
    # streams draw into a scratch of at most DELAY_SCRATCH_BYTES.  Over its
    # built runtime, its ticks peaked at 2.81 MiB, history included (2-core
    # x86 host, numpy 2.4.6); the budget leaves 0.44 MiB of margin.  Blocks
    # of 838 ticks that held every agent's step sizes, counts, errors and
    # noise, each an (838, d) array of 8-byte cells, and a (d, 838) delay
    # scratch peaked at 4.01 MiB.
    bundle = build_runtime(_ONE_COLUMN)
    history = core._history(bundle.x0, bundle)
    tracemalloc.start()
    try:
        for _ in core.tick_loop(history, bundle, None):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 2**20, peak


def test_light_run_holds_no_spent_delay_block():
    # at d = 24 a drawn block holds 42 ticks, which does not divide CHUNK,
    # so one block's ages span two delay blocks: the spent block's tail is
    # copied and the block itself released before the next fill.  At d = 24
    # the byte cap leaves CHUNK rows of int64 ages
    d = 24
    block = CHUNK * d * d * 8
    cfg = RunConfig(dimension=d, horizon=2 * CHUNK, seed=0,
                    objective=ScaledIdentityObjective(gain=-1.0),
                    delays=GeometricDelays(mean=3.0))
    tracemalloc.start()
    try:
        run_light(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block


# Measures each child's peak RSS in a fresh parent, so that no earlier child
# of the test process counts: RUSAGE_CHILDREN after a child is the largest
# peak of the children so far, and the run's child imports the same modules.
_PEAK_RSS_KIB = """
import resource, subprocess, sys
def peak(code):
    subprocess.run([sys.executable, "-c", code], check=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak(sys.argv[1]), peak(sys.argv[2]))
"""


def _child_peak_rss_kib(run: str, baseline: str = "import asyncsa") -> tuple[int, int]:
    """Peak RSS of a child that runs ``baseline``, and of one that runs ``run``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_KIB, baseline, run],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    baseline, peak = (int(kib) for kib in proc.stdout.split())
    return baseline, peak


def test_wide_geometric_light_run_peak_rss_is_its_pair_streams():
    # A d = 300 run of two ticks holds its d (d - 1) per-pair delay streams,
    # about 1.04 KiB each, and one two-row block of int32 ages; a block of
    # the byte cap's rows (64 MiB) would pass the budget.  d = 300, not the
    # 500 that wide runs reach, keeps the test short: on a 2-core x86 host the
    # d = 300 run took 0.8-0.9 s and a d = 500 run 1.9-2.7 s (2.1-2.3 s and
    # 7.0-7.1 s with one SeedSequence per stream).
    d, horizon = 300, 2
    run = ("from asyncsa import GeometricDelays, RunConfig, ScaledIdentityObjective, run_light\n"
           f"run_light(RunConfig(dimension={d}, horizon={horizon}, seed=0, "
           "objective=ScaledIdentityObjective(gain=-1.0), delays=GeometricDelays(mean=3.0)))")
    baseline, peak = _child_peak_rss_kib(run)
    block_kib = horizon * d * d * 4 / 1024
    budget = baseline + 1.25 * d * (d - 1) + 1.25 * block_kib
    assert peak <= budget, (peak, baseline, budget)


@pytest.mark.parametrize("delays", ["GeometricDelays(mean=3.0)", "StaleRefreshDelays(p_c=0.3)"],
                         ids=["geometric", "stale-refresh"])
def test_long_wide_run_peak_rss_holds_no_age_block(delays):
    # A d = 100 round-robin run of 9000 ticks crosses two tick blocks of
    # 4096 ticks.  It holds its pair streams, about 1.04 KiB each, and its
    # iterates as changes; each block keeps only the read column's ages.  A
    # block of every pair's raw float64 draws, or of their int64
    # stale-refresh ages (64 MiB), would pass the budget: with one, 1700-tick
    # geometric and stale-refresh runs grew 51 740 and 79 030 KiB over the
    # import's peak, against 20 490 and 15 700 KiB without; 9000-tick runs
    # now grow 17 180 and 13 780 KiB (2-core x86 host, numpy 2.4.6).
    d, horizon = 100, 9000
    baseline, peak = _child_peak_rss_kib(
        "from asyncsa import GeometricDelays, RoundRobin, RunConfig, "
        "ScaledIdentityObjective, StaleRefreshDelays, run_light\n"
        f"run_light(RunConfig(dimension={d}, horizon={horizon}, seed=0, "
        "objective=ScaledIdentityObjective(gain=-1.0), activation=RoundRobin(k=1), "
        f"delays={delays}))")
    budget = baseline + 1.25 * d * (d - 1) + 16 * 1024
    assert peak <= budget, (peak, baseline, budget)


def test_long_sparse_light_run_peak_rss_holds_no_ring():
    # A d = 100 round-robin k = 1 run of 32 000 geometric ticks reads
    # iterates as old as tick 0, so a ring would hold all 32 001 of them,
    # 24.4 MiB, and pass the budget by 8 MiB with nothing else; kept as
    # changes they take 16 B a tick.  The run grew 17.7 MiB over the import
    # with the archive and 41.6 MiB with the ring (2-core x86 host, numpy
    # 2.4.6), and took 3.5 s with its two children.
    d, horizon = 100, 32_000
    baseline, peak = _child_peak_rss_kib(
        "from asyncsa import GeometricDelays, RoundRobin, RunConfig, "
        "ScaledIdentityObjective, run_light\n"
        f"run_light(RunConfig(dimension={d}, horizon={horizon}, seed=0, "
        "objective=ScaledIdentityObjective(gain=-1.0), activation=RoundRobin(k=1), "
        "delays=GeometricDelays(mean=3.0)))")
    assert (horizon + 1) * d * 8 / 1024 >= (16 + 8) * 1024
    budget = baseline + 1.25 * d * (d - 1) + 16 * 1024
    assert peak <= budget, (peak, baseline, budget)


def test_random_quadratic_set_up_holds_one_matrix_at_a_time():
    # agent i keeps row i of its own random matrix: a d = 200 set-up holds
    # the field's (d, d) matrix and one QR's temporaries, about a dozen
    # (d, d) arrays, not the d whole matrices (8 d**3 bytes, 61 MiB) that
    # row views kept alive.  It grew 3.4 MiB over a d = 2 set-up, which
    # makes the same imports, against 64 MiB with row views
    build = ("from asyncsa import QuadraticObjective, RunConfig, build_runtime\n"
             "build_runtime(RunConfig(dimension={}, horizon=10, seed=0, "
             "objective=QuadraticObjective(matrices='random')))")
    d = 200
    baseline, peak = _child_peak_rss_kib(build.format(d), baseline=build.format(2))
    budget = baseline + 24 * 8 * d * d / 1024
    assert peak <= budget, (peak, baseline, budget)


def test_zero_delay_run_evaluates_the_field_once_per_tick(monkeypatch):
    # row n's residual reuses the drive of tick n; only x_N costs a call
    cfg = _cfg(horizon=50, errors=ComponentUniformErrors(bound=0.2))
    field = build_runtime(cfg).field
    vector = QuadraticField.vector
    calls = []

    def counted(self, x):
        calls.append(1)
        return vector(self, x)

    monkeypatch.setattr(QuadraticField, "vector", counted)
    trace = run(cfg)
    assert len(calls) == 51
    assert trace.residual.tolist() == [
        np.linalg.norm(vector(field, x)) for x in trace.x
    ]


def test_delayed_gradient_run_takes_one_grad_per_tick(monkeypatch):
    # every agent's view goes through one batched grad, not one grad each
    cfg = _cfg(dimension=5, horizon=40, delays=GeometricDelays(mean=2.0),
               objective=GradientObjective(surface="quadratic-bowl"))
    grad = QuadraticBowl.grad
    calls = []

    def counted(self, theta):
        calls.append(theta.shape)
        return grad(self, theta)

    monkeypatch.setattr(QuadraticBowl, "grad", counted)
    run_light(cfg)
    assert calls == [(5, 5)] * 40


def test_degenerate_delay_models_reduce_to_zero_delays():
    base = _cfg(errors=ComponentUniformErrors(bound=0.2))
    ref = run_light(base).final_x
    for delays in (UniformDelays(tau_max=0), StaleRefreshDelays(p_c=1.0)):
        got = run_light(_cfg(errors=ComponentUniformErrors(bound=0.2),
                             delays=delays)).final_x
        assert got == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# projection


def test_projection_region_geometry():
    region = ProjectionRegion(center=np.zeros(2), r_inner=1.0, r_outer=2.0,
                              norm=EuclideanNorm())
    kept, flag = region.project(np.array([1.5, 0.0]))
    assert not flag and np.array_equal(kept, [1.5, 0.0])
    pulled, flag = region.project(np.array([0.0, 5.0]))
    assert flag and pulled == pytest.approx([0.0, 1.0])
    # the boundary itself is outside the open ball
    edge, flag = region.project(np.array([2.0, 0.0]))
    assert flag and edge == pytest.approx([1.0, 0.0])


def test_initial_iterate_outside_region_is_projected():
    cfg = _cfg(
        errors=ComponentUniformErrors(bound=0.2),
        projection=ProjectionSpec(r_inner=1.0, r_outer=2.0),
        x0=[30.0, 40.0],
    )
    trace = run(cfg)
    assert trace.meta["initial_projection"] is True
    assert np.linalg.norm(trace.x[0]) == pytest.approx(1.0)
    sizes = np.linalg.norm(trace.x, axis=1)
    assert (sizes < 2.0).all()
    result = run_light(cfg)
    assert result.initial_projection is True
    assert result.projections == int(trace.projected.sum())


def test_projection_keeps_expansive_dynamics_bounded():
    cfg = RunConfig(
        dimension=2,
        horizon=500,
        seed=3,
        objective=ScaledIdentityObjective(gain=1.0),
        steps=ConstantSteps(a0=0.5),
        projection=ProjectionSpec(r_inner=1.0, r_outer=2.0),
        x0=[1.5, 0.0],
    )
    trace = run(cfg)
    assert trace.projected.sum() > 0
    assert (np.linalg.norm(trace.x, axis=1) < 2.0).all()


# ---------------------------------------------------------------------------
# divergence


def _divergent_cfg(horizon=1000):
    return RunConfig(
        dimension=2,
        horizon=horizon,
        seed=1,
        objective=ScaledIdentityObjective(gain=5.0),
        steps=ConstantSteps(a0=1.0),
        x0=[1.0, 1.0],
    )


def test_divergence_raises_with_truncated_trace():
    with pytest.raises(DivergenceError) as info:
        run(_divergent_cfg())
    exc = info.value
    assert 0 < exc.n < 1000
    assert exc.component in (0, 1)
    assert exc.trace is not None
    assert exc.trace.ticks == exc.n
    assert np.isfinite(exc.trace.x).all()
    # row n is x_n, the last finite iterate; its residual is still recorded
    with np.errstate(over="ignore"):
        expected = np.linalg.norm(ScaledIdentityField(5.0, 2).vector(exc.trace.x[-1]))
    assert exc.trace.residual[-1] == expected


def test_divergence_in_light_run():
    with pytest.raises(DivergenceError) as info:
        run_light(_divergent_cfg())
    assert info.value.trace is None


# ---------------------------------------------------------------------------
# history storage


def test_gather_hand_case():
    hist = IterateHistory(np.array([0.0, 10.0]), window=2)
    hist.append(np.array([1.0, 11.0]))
    hist.append(np.array([2.0, 12.0]))
    tau = np.array([[0, 2], [1, 0]])
    views = hist.gather(2, tau)
    # V[j, i] = x_{2 - tau[j, i]}[j]
    assert views.tolist() == [[2.0, 0.0], [11.0, 12.0]]
    with pytest.raises(IndexError):
        hist.gather(2, np.array([[3, 0], [0, 0]]))
    # any number of columns, none included, before and after the ring wraps
    assert hist.gather(2, tau[:, 1:]).tolist() == [[0.0], [12.0]]
    for n in (2, 3):
        assert hist.gather(n, np.zeros((2, 0), dtype=np.int32)).shape == (2, 0)
        hist.append(np.array([3.0, 13.0]))
    assert hist.gather(4, tau[:, 1:]).tolist() == [[2.0], [13.0]]


def test_history_growth_and_value_access():
    hist = IterateHistory(np.zeros(1), window=2999)
    for m in range(1, 3000):
        hist.append(np.array([float(m)]))
    assert hist.value(0)[0] == 0.0
    assert hist.value(1500)[0] == 1500.0
    assert hist.latest[0] == 2999.0
    with pytest.raises(IndexError):
        hist.value(3000)
    snap = hist.snapshot(10)
    assert snap.shape == (11, 1)
    assert snap[7, 0] == 7.0


def test_windowed_history_evicts_old_iterates():
    hist = IterateHistory(np.zeros(1), window=2)
    for m in range(1, 6):
        hist.append(np.array([float(m)]))
    assert hist.value(5)[0] == 5.0
    assert hist.value(3)[0] == 3.0
    with pytest.raises(HistoryWindowError):
        hist.value(2)
    with pytest.raises(HistoryWindowError):
        hist.snapshot(3)


def test_windowed_run_matches_full_history_run(monkeypatch):
    # run_light keeps a ring of tau_max past iterates under bounded-uniform
    # delays; run keeps them all.  Both must read the same views.
    cfg = _cfg(delays=UniformDelays(tau_max=3),
               errors=ComponentUniformErrors(bound=0.2))
    windows = []
    init = IterateHistory.__init__

    def spy(self, x0, window):
        windows.append(window)
        init(self, x0, window)

    monkeypatch.setattr(IterateHistory, "__init__", spy)
    windowed = run_light(cfg).final_x
    full = run(cfg).final_x
    assert windows == [3, cfg.horizon]
    assert np.array_equal(windowed, full)


def _nan(payload: int) -> float:
    """A quiet NaN with its own payload bits."""
    return np.array([0x7FF8000000000000 | payload]).view(float)[0]


def test_archived_history_reads_every_iterate_as_the_ring_does():
    # a history without a window keeps its latest HISTORY_BUFFER iterates
    # in a buffer and archives older ones as per-component changes; every
    # read, through the buffer or the archive, must give the full ring's
    # bits.  Most ticks move one or two components; every seventh moves
    # all of them, as a projected tick does; zeros flip sign and NaNs
    # change payload, which only a comparison of bits tells apart
    d, ticks = 6, 3 * HISTORY_BUFFER + 5
    rng = np.random.default_rng(3)
    x = rng.standard_normal(d)
    x[0], x[1] = 0.0, _nan(1)
    ring, archive = IterateHistory(x, window=ticks), IterateHistory(x, window=None)
    for n in range(1, ticks + 1):
        x = x.copy()
        if n % 7 == 0:
            x *= -1.0
        else:
            x[rng.integers(2, d, size=2)] = rng.standard_normal(2)
        if n % 5 == 0:
            x[0], x[1] = -x[0], _nan(n)
        ring.append(x)
        archive.append(x)
        assert _bits(archive.latest) == _bits(ring.latest), n
        tau = rng.integers(0, n + 1, size=(d, 3))
        tau[:, 0] = rng.geometric(0.2, size=d).clip(max=n + 1) - 1  # mostly buffered
        for m in (n, rng.integers(0, n + 1)):
            ages = tau.clip(max=m)
            assert _bits(archive.gather(m, ages)) == _bits(ring.gather(m, ages)), (n, m)
    for m in (0, 1, HISTORY_BUFFER // 2, ticks - HISTORY_BUFFER, ticks):
        assert _bits(archive.value(m)) == _bits(ring.value(m)), m
    assert _bits(archive.snapshot(ticks)) == _bits(ring.snapshot(ticks))
    for n in (ticks, 10):
        late = np.zeros((d, 2), dtype=np.int32)
        late[3, 1] = n + 1
        for history in (ring, archive):
            with pytest.raises(IndexError):
                history.gather(n, late)
    with pytest.raises(IndexError):
        archive.value(ticks + 1)


_SPARSE_ACTIVATIONS = {"round-robin": RoundRobin(k=1), "bernoulli": BernoulliActivation(q=0.1)}
# a geometric age of mean 40 passes the buffer's guaranteed 128 ticks with
# probability (40/41)**129, about 4%; a stale-refresh one, 7%
_LONG_DELAYS = {"geometric": GeometricDelays(mean=40.0),
                "stale-refresh": StaleRefreshDelays(p_c=0.02)}


@pytest.mark.parametrize("delays", _LONG_DELAYS)
@pytest.mark.parametrize("activation", _SPARSE_ACTIVATIONS)
@pytest.mark.parametrize("d", [5, 48, 100])
def test_archived_light_and_paired_runs_match_full_history_runs(d, activation, delays,
                                                                 monkeypatch):
    # a partly active chain whose delays reach past the buffer keeps its
    # iterates as changes in run_light and in both chains of run_paired;
    # run keeps every iterate in a ring.  Final iterates, counters and the
    # gap series must agree bit for bit, with projected ticks in the
    # pulled-back chain
    cfg = RunConfig(
        dimension=d, horizon=2 * HISTORY_BUFFER + 100, seed=2,
        objective=BellmanObjective(states=d, actions=2, mdp_seed=11, discount=0.9),
        steps=HarmonicSteps(c=5.0), activation=_SPARSE_ACTIVATIONS[activation],
        delays=_LONG_DELAYS[delays], errors=ComponentUniformErrors(bound=0.3),
        noise=UniformNoise(level=0.3),
        projection=ProjectionSpec(r_inner=0.25, r_outer=0.5,
                                  norm={"kind": "weighted-max", "weights": [1.0] * d}))
    plain = replace(cfg, projection=None)
    windows = []
    init = IterateHistory.__init__

    def spy(self, x0, window):
        windows.append(window)
        init(self, x0, window)

    monkeypatch.setattr(IterateHistory, "__init__", spy)
    light, light_proj, paired = run_light(plain), run_light(cfg), run_paired(cfg)
    assert windows == [None] * 4
    full, full_proj = run(plain), run(cfg)
    assert _bits(light.final_x) == _bits(full.final_x)
    assert _bits(light.counters) == _bits(full.counters[-1])
    assert _bits(light_proj.final_x) == _bits(full_proj.final_x)
    assert light_proj.projections == int(full_proj.projected.sum()) > 1
    norm = ProjectionRegion.from_spec(cfg.projection, d).norm
    gaps = [weighted_norm(a - b, norm) for a, b in zip(full.x, full_proj.x)]
    assert _bits(paired.gap) == _bits(np.array(gaps))
    assert _bits(paired.raw_final) == _bits(full.final_x)
    assert _bits(paired.proj_final) == _bits(full_proj.final_x)


def test_dense_or_short_delay_chains_keep_the_ring(monkeypatch):
    # the archive pays only where at most a quarter of the agents move on a
    # tick and the delays reach past the buffer
    windows = []
    init = IterateHistory.__init__

    def spy(self, x0, window):
        windows.append(window)
        init(self, x0, window)

    monkeypatch.setattr(IterateHistory, "__init__", spy)
    horizon, long = 2 * HISTORY_BUFFER, GeometricDelays(mean=3.0)
    for activation, delays in [(AllActive(), long), (RoundRobin(k=2), long),
                               (BernoulliActivation(q=0.3), long),
                               (RoundRobin(k=1), UniformDelays(tau_max=HISTORY_BUFFER - 1)),
                               (RoundRobin(k=1), ZeroDelays())]:
        run_light(RunConfig(dimension=5, horizon=horizon, seed=0,
                            objective=ScaledIdentityObjective(gain=-1.0),
                            activation=activation, delays=delays))
    assert windows == [horizon] * 3 + [HISTORY_BUFFER - 1, 0]


def test_light_run_with_a_delay_bound_far_past_the_horizon_finishes():
    # a window of tau_max iterates would take 146 TiB at d = 2; the ages of
    # a 10-tick run reach back 10 ticks at most
    cfg = _cfg(horizon=10, delays=UniformDelays(tau_max=10**13))
    assert np.array_equal(run_light(cfg).final_x, run(cfg).final_x)


# ---------------------------------------------------------------------------
# config edges


def test_horizon_one_runs():
    trace = run(_cfg(horizon=1))
    assert trace.ticks == 1


def test_bad_horizon_rejected():
    with pytest.raises(ConfigError):
        _cfg(horizon=0)

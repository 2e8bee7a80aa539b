import gc
import hashlib
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from asyncsa import (
    AllActive,
    BernoulliActivation,
    ComponentUniformErrors,
    ConfigError,
    FixedBiasErrors,
    GeometricDelays,
    NormBallErrors,
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
)
from asyncsa._rng import (
    BULK_KEYS,
    CHUNK,
    DELAY_BLOCK_BYTES,
    DOMAIN_DELAY,
    DOMAIN_ERROR_ALT,
    stream,
)
from asyncsa.config import parse_run_config, spec_from_config, spec_to_config
from asyncsa.schedules import make_activation_sampler
from asyncsa.stochastics import (
    make_delay_sampler,
    make_error_sampler,
    make_noise_sampler,
)

D = 3


# ---------------------------------------------------------------------------
# delays


def test_zero_delays_always_zero():
    sampler = make_delay_sampler(ZeroDelays(), D, seed=0, horizon=100)
    assert sampler.always_zero
    assert sampler.matrix(0).tolist() == np.zeros((D, D)).tolist()
    assert max(sampler.matrix(n).max() for n in range(1, 101)) == 0
    # full and column reads serve int64 zeros too
    columns = np.eye(4, D, dtype=bool)
    columns[3] = True  # tick 3 reads every view
    for ages, shape in ((sampler.take(5), (5, D, D)),
                        (sampler.take(4, np.nonzero(columns)), (D, 6))):
        assert ages.dtype == np.int64 and ages.shape == shape and not ages.any()


@pytest.mark.parametrize("model, reach", [
    (ZeroDelays(), 0),
    (UniformDelays(tau_max=7), 7),
    (UniformDelays(tau_max=50), 50),
    (UniformDelays(tau_max=51), 50),
    (UniformDelays(tau_max=10**13), 50),
    (GeometricDelays(mean=3.0), 50),
    (StaleRefreshDelays(p_c=0.4), 50),
], ids=["zero", "uniform-below", "uniform-at", "uniform-past", "uniform-far-past",
        "geometric", "stale-refresh"])
def test_delay_reach_is_the_oldest_age_a_run_reads(model, reach):
    # the reach sizes a light run's history, so it is capped at the horizon
    # and no served age of the run passes it
    sampler = make_delay_sampler(model, D, seed=2, horizon=50)
    assert sampler.reach == reach
    assert sampler.take(50).max() <= reach


def test_uniform_delays_bounded_and_clamped():
    sampler = make_delay_sampler(UniformDelays(tau_max=4), D, seed=1, horizon=500)
    # at tick n no age can reach past tick 0
    assert sampler.matrix(0).max() == 0
    assert sampler.matrix(1).max() <= 1
    seen = 0
    for n in range(2, 500):
        tau = sampler.matrix(n)
        assert tau.min() >= 0
        assert tau.max() <= 4
        seen = max(seen, int(tau.max()))
    assert seen == 4


@pytest.mark.parametrize("d", [D, 5], ids=["streams", "bulk-streams"])
def test_uniform_ages_are_each_pair_streams_integers(d):
    # age [j, i] at tick n is min(integers(0, tau_max + 1), n) on pair
    # (j, i)'s own stream, read across the first refill; d = 5 has 20 pairs,
    # whose streams are seeded in bulk
    assert d == D or d * (d - 1) >= BULK_KEYS
    sampler = make_delay_sampler(UniformDelays(tau_max=6), d, seed=8, horizon=2 * CHUNK)
    got = np.concatenate([sampler.take(CHUNK - 2), sampler.take(5)])
    ticks = np.arange(CHUNK + 3)
    for j, i in itertools.permutations(range(d), 2):
        want = np.minimum(stream(8, DOMAIN_DELAY, j, i).integers(0, 7, len(ticks)), ticks)
        assert np.array_equal(got[:, j, i], want), (j, i)
    assert not np.diagonal(got, axis1=1, axis2=2).any()


def test_geometric_delays_match_mean_off_diagonal():
    sampler = make_delay_sampler(GeometricDelays(mean=5.0), 2, seed=3, horizon=4200)
    draws = np.array([sampler.matrix(n) for n in range(4200)])[200:]
    # self-views carry no delay; the communication entries have mean 5
    assert draws[:, 0, 0].max() == 0
    assert draws[:, 1, 1].max() == 0
    off = draws[:, [0, 1], [1, 0]]
    assert off.mean() == pytest.approx(5.0, abs=0.3)
    assert off.min() >= 0


def test_geometric_delays_per_pair_matrix():
    means = np.array([[1.0, 8.0], [2.0, 1.0]])
    sampler = make_delay_sampler(GeometricDelays(mean=means), 2, seed=3, horizon=3200)
    draws = np.array([sampler.matrix(n) for n in range(3200)])[200:]
    assert draws[:, 0, 1].mean() == pytest.approx(8.0, abs=0.8)
    assert draws[:, 1, 0].mean() == pytest.approx(2.0, abs=0.3)


# the least d at which the byte cap cuts an int32 block below CHUNK rows
_CAPPED_D = next(d for d in range(2, 100) if DELAY_BLOCK_BYTES // (d * d * 4) < CHUNK)


def _mixed_means(d):
    # means 1.5 and 2.0 take numpy's search branch, 2.5 and 3.0 its inversion
    return 1.5 + 0.5 * (np.add.outer(np.arange(d), 2 * np.arange(d)) % 4)


@pytest.mark.parametrize("mean, d", [
    *((mean, D) for mean in (2.0, 2.0000001, 3.0, 1e6, "mixed")),
    # int32 ages: both branches, and ages clamped to their tick
    ("mixed", _CAPPED_D), (1e6, _CAPPED_D),
])
def test_geometric_ages_are_each_pair_streams_geometric_draws(mean, d):
    # the stream contract: age [j, i] at tick n is min(geometric(p) - 1, n)
    # on pair (j, i)'s own stream, p = 1 / (1 + mean), read across the first
    # refill.  The sampler computes the inversion branch itself from the
    # pair's standard exponentials, so a numpy release that changes its
    # geometric algorithm fails here first.
    means = _mixed_means(d) if mean == "mixed" else np.full((d, d), mean)
    sampler = make_delay_sampler(
        GeometricDelays(mean=means if mean == "mixed" else mean), d, seed=5,
        horizon=10 * CHUNK)
    dtype = np.dtype(np.int32 if d == _CAPPED_D else np.int64)
    first = min(CHUNK, DELAY_BLOCK_BYTES // (d * d * 8))  # the first raw block's rows
    got = [sampler.take(first - 2), sampler.take(5)]  # the second spans the refill
    assert got[0].dtype == dtype
    ticks = np.arange(first + 3)
    for j, i in itertools.permutations(range(d), 2):
        p = 1.0 / (1.0 + means[j, i])
        want = np.minimum(stream(5, DOMAIN_DELAY, j, i).geometric(p, len(ticks)) - 1, ticks)
        ages = np.concatenate([rows[:, j, i] for rows in got])
        assert np.array_equal(ages, want), (
            f"pair ({j}, {i}), mean {means[j, i]}: the ages no longer match numpy's "
            "geometric on the pair stream; has numpy changed its geometric algorithm?")
    assert not np.diagonal(got[1], axis1=1, axis2=2).any()


@pytest.mark.parametrize("d", [D, _CAPPED_D], ids=["int64", "int32-capped"])
@pytest.mark.parametrize("mean", [1e25, 1e308])
def test_huge_geometric_means_reach_back_to_tick_zero(mean, d):
    # every draw overflows the age type, and 1e308 even the float scratch:
    # each view is clamped to its tick, never cast to a negative age
    ticks = 6
    tau = make_delay_sampler(GeometricDelays(mean=mean), d, seed=1, horizon=ticks).take(ticks)
    off = ~np.eye(d, dtype=bool)
    assert np.array_equal(tau[:, off], np.broadcast_to(np.arange(ticks)[:, None],
                                                       (ticks, d * (d - 1))))
    assert not np.diagonal(tau, axis1=1, axis2=2).any()


@pytest.mark.parametrize("mean", [np.inf, -np.inf, np.nan, "matrix"])
def test_geometric_mean_must_be_finite(mean):
    mean = [[1.0, np.inf], [2.0, 1.0]] if mean == "matrix" else mean
    with pytest.raises(ConfigError, match="finite mean > 0"):
        spec_from_config("delays", {"kind": "geometric", "mean": mean}, 2)
    doc = {"dimension": 2, "horizon": 5, "seed": 0,
           "objective": {"kind": "scaled-identity", "gain": -1.0},
           "delays": {"kind": "geometric", "mean": mean}}
    with pytest.raises(ConfigError, match="finite mean > 0"):
        parse_run_config(doc)


def test_iid_delay_refill_frees_the_spent_block_first():
    d = 24
    block = CHUNK * d * d * 8  # int64 ages; the byte cap leaves CHUNK rows at d = 24
    tracemalloc.start()
    try:
        sampler = make_delay_sampler(UniformDelays(tau_max=3), d, seed=0,
                                     horizon=2 * CHUNK)
        for n in range(CHUNK):  # uses up the first block
            sampler.matrix(n)
        tracemalloc.reset_peak()
        sampler.matrix(CHUNK)  # draws the second
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding the spent block while drawing the next would read ~2 blocks
    assert peak < 1.5 * block


def test_short_run_draws_a_short_delay_block():
    # a block is cut at the horizon: one tick draws one row, not CHUNK
    d = 24
    block = CHUNK * d * d * 8
    tracemalloc.start()
    try:
        sampler = make_delay_sampler(UniformDelays(tau_max=3), d, seed=0, horizon=1)
        built = tracemalloc.get_traced_memory()[0]  # the pair streams
        tracemalloc.reset_peak()
        sampler.matrix(0)
        peak = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * block


@pytest.mark.parametrize("model", [UniformDelays(tau_max=3), GeometricDelays(mean=3.0),
                                   StaleRefreshDelays(p_c=0.3)], ids=lambda m: m.kind)
@pytest.mark.parametrize("by_columns", [False, True], ids=["full", "columns"])
def test_pair_delay_sampler_is_freed_without_the_cycle_collector(model, by_columns):
    # the sampler's draws (and a stale-refresh sampler's coin recursion)
    # close over its pair streams, not over the sampler, so a run frees its
    # pair streams as soon as it drops the sampler
    d = 50
    sampler = make_delay_sampler(model, d, seed=0, horizon=10)
    sampler.take(3, np.nonzero(np.ones((3, d), dtype=bool)) if by_columns else None)
    freed = weakref.ref(sampler)
    gc.disable()
    try:
        del sampler
        assert freed() is None
    finally:
        gc.enable()


def test_wide_delay_block_is_capped_by_bytes():
    # at d = 200 a CHUNK-row block of float64 raw draws would take 1.25 GiB
    d = 200
    sampler = make_delay_sampler(GeometricDelays(mean=3.0), d, seed=0, horizon=10 * CHUNK)
    tracemalloc.start()  # after the pair streams are built
    try:
        tau = sampler.take(1)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau.dtype == np.int32 and tau.shape == (d, d)
    assert peak <= 1.25 * DELAY_BLOCK_BYTES


_DELAY_KINDS = {
    "zero": ZeroDelays(),
    "uniform": UniformDelays(tau_max=40),
    "geometric": GeometricDelays(mean=30.0),
    "stale-symmetric": StaleRefreshDelays(p_c=0.05),
    "stale-asymmetric": StaleRefreshDelays(p_c=0.05, symmetric=False),
}
# the age dtype of each kind at a d where the byte cap cuts its blocks
_AGE_DTYPES = {"zero": np.int64, "uniform": np.int32, "geometric": np.int32,
               "stale-symmetric": np.int32, "stale-asymmetric": np.int32}


@pytest.mark.parametrize("kind", _DELAY_KINDS)
def test_capped_delay_blocks_keep_their_invariants(kind):
    # d is the smallest at which the byte cap cuts a block below CHUNK rows
    # of 8-byte cells (the int64 zero ages; every drawn kind keeps int32
    # ages there); read two capped blocks and five rows, in runs that cross
    # both block boundaries
    dtype = np.dtype(_AGE_DTYPES[kind])
    d = next(d for d in range(2, 100) if DELAY_BLOCK_BYTES // (d * d * 8) < CHUNK)
    cap = DELAY_BLOCK_BYTES // (d * d * 8)
    ticks = 2 * cap + 5
    sampler = make_delay_sampler(_DELAY_KINDS[kind], d, seed=3, horizon=ticks)
    n = 0
    for size in (1, cap - 2, 3, cap - 3, 6):
        tau = sampler.take(size)
        assert tau.dtype == dtype
        assert tau.shape == (size, d, d)
        assert not np.diagonal(tau, axis1=1, axis2=2).any()
        assert tau.min() >= 0
        assert np.all(tau <= np.arange(n, n + size)[:, None, None])
        n += size
    assert n == ticks
    if kind != "zero":
        assert tau.max() > 0


def test_stale_refresh_starts_fresh_and_tracks_ages():
    sampler = make_delay_sampler(StaleRefreshDelays(p_c=0.4), 2, seed=5, horizon=50)
    prev = sampler.matrix(0)
    assert prev.max() == 0
    for n in range(1, 50):
        tau = sampler.matrix(n)
        # an age either resets to zero or grows by exactly one
        grew = tau == prev + 1
        reset = tau == 0
        assert np.all(grew | reset)
        prev = tau


@pytest.mark.parametrize("model, d", [
    (StaleRefreshDelays(p_c=0.4), D),
    (StaleRefreshDelays(p_c=[[1.0, 0.3, 0.5], [0.2, 1.0, 0.6], [0.7, 0.8, 1.0]]), D),
    # 15 and 30 pairs: streams seeded in bulk
    (StaleRefreshDelays(p_c=0.4), 6),
    (StaleRefreshDelays(p_c=0.2 + 0.1 * (np.arange(36).reshape(6, 6) % 7)), 6),
], ids=["symmetric", "per-pair", "symmetric-d6", "per-pair-d6"])
def test_stale_refresh_ages_follow_the_coin_recursion(model, d):
    # the plain per-tick recursion on each pair's own coin stream, across
    # two block boundaries: tick n >= 1 reads coin n - 1 and resets the
    # age when it falls below p_c, else adds one
    assert d == D or d * (d - 1) // 2 >= BULK_KEYS
    ticks = 2 * CHUNK + 10
    sampler = make_delay_sampler(model, d, seed=4, horizon=ticks)
    got = np.array([sampler.matrix(n) for n in range(ticks)])
    p = np.broadcast_to(model.p_c, (d, d))
    for j in range(d):
        for i in range(d):
            if j == i or (model.symmetric and j > i):
                continue
            coins = stream(4, DOMAIN_DELAY, j, i).random(ticks - 1)
            age, ages = 0, [0]
            for coin in coins:
                age = 0 if coin < p[j, i] else age + 1
                ages.append(age)
            assert got[:, j, i].tolist() == ages
            if model.symmetric:
                assert got[:, i, j].tolist() == ages


def test_stale_refresh_symmetric_ages_mirror():
    sampler = make_delay_sampler(StaleRefreshDelays(p_c=0.3), 3, seed=9, horizon=200)
    for n in range(200):
        tau = sampler.matrix(n)
        assert np.array_equal(tau, tau.T)


def test_stale_refresh_mean_age():
    sampler = make_delay_sampler(StaleRefreshDelays(p_c=0.4), 2, seed=11, horizon=8500)
    ages = np.array([sampler.matrix(n) for n in range(8500)])[500:]
    # stationary mean communication age is (1 - p) / p = 1.5
    assert ages[:, 0, 1].mean() == pytest.approx(1.5, abs=0.2)


def test_stale_refresh_validation():
    with pytest.raises(ConfigError):
        StaleRefreshDelays(p_c=0.0)
    with pytest.raises(ConfigError):
        StaleRefreshDelays(p_c=np.array([[0.4, 0.2], [0.8, 0.4]]),
                           symmetric=True)


def test_stale_refresh_p_one_is_zero_delay():
    sampler = make_delay_sampler(StaleRefreshDelays(p_c=1.0), 2, seed=0, horizon=50)
    for n in range(50):
        assert sampler.matrix(n).max() == 0


def test_delay_config_round_trip_and_errors():
    for model in (ZeroDelays(), UniformDelays(tau_max=3),
                  GeometricDelays(mean=2.0), StaleRefreshDelays(p_c=0.4)):
        rebuilt = spec_from_config("delays", spec_to_config(model), D)
        assert type(rebuilt) is type(model)
    with pytest.raises(ConfigError):
        spec_from_config("delays", {"kind": "psychic"}, D)
    with pytest.raises(ConfigError):
        spec_from_config("delays", {"kind": "zero", "junk": True}, D)


# ---------------------------------------------------------------------------
# errors


def test_zero_errors():
    sampler = make_error_sampler(ZeroErrors(), D, seed=0, horizon=1)
    assert sampler.bound == 0.0
    assert sampler.sample(0).tolist() == [0.0] * D


def test_component_uniform_range_and_mean():
    sampler = make_error_sampler(ComponentUniformErrors(bound=0.4), D, seed=2, horizon=4000)
    draws = np.array([sampler.sample(n) for n in range(4000)])
    assert draws.min() >= 0.0
    assert draws.max() <= 0.2
    # components are uniform on [0, bound/2], so the mean is bound/4
    assert draws.mean() == pytest.approx(0.1, abs=0.01)


def test_fixed_bias_repeats_and_validates_length():
    sampler = make_error_sampler(FixedBiasErrors(bias=[0.3, -0.4]), 2, seed=0, horizon=5)
    assert sampler.bound == pytest.approx(0.5)
    for n in range(5):
        assert sampler.sample(n) == pytest.approx([0.3, -0.4])
    with pytest.raises(ConfigError):
        RunConfig(dimension=2, horizon=1, seed=0,
                  objective=ScaledIdentityObjective(gain=-1.0),
                  errors=FixedBiasErrors(bias=[1.0]))


@pytest.mark.parametrize("model", [
    FixedBiasErrors(bias=[1.0]),
    NormBallErrors(bound=0.5, norm=WeightedMaxNorm(weights=[1.0])),
], ids=["fixed-bias", "weighted-max-box"])
def test_error_sampler_rejects_a_wrong_length_model(model):
    # a length-1 vector would otherwise broadcast to every agent
    with pytest.raises(ConfigError, match="must have length 2"):
        make_error_sampler(model, 2, seed=0, horizon=1)


def test_norm_ball_euclidean_fills_the_ball():
    sampler = make_error_sampler(NormBallErrors(bound=0.5), 2, seed=7, horizon=4000)
    draws = np.array([sampler.sample(n) for n in range(4000)])
    norms = np.linalg.norm(draws, axis=1)
    assert norms.max() <= 0.5 + 1e-12
    assert norms.max() > 0.45
    assert abs(draws.mean()) < 0.02


def test_norm_ball_weighted_max_is_a_box():
    norm = WeightedMaxNorm(weights=[1.0, 2.0])
    sampler = make_error_sampler(NormBallErrors(bound=0.5, norm=norm), 2,
                                 seed=7, horizon=4000)
    draws = np.array([sampler.sample(n) for n in range(4000)])
    assert np.abs(draws[:, 0]).max() <= 0.5 + 1e-12
    assert np.abs(draws[:, 1]).max() <= 1.0 + 1e-12
    assert np.abs(draws[:, 1]).max() > 0.9


def test_error_config_round_trip_and_errors():
    for model in (ZeroErrors(), ComponentUniformErrors(bound=0.2),
                  FixedBiasErrors(bias=[0.1, 0.2, 0.3]),
                  NormBallErrors(bound=1.0)):
        rebuilt = spec_from_config("errors", spec_to_config(model), D)
        assert type(rebuilt) is type(model)
    with pytest.raises(ConfigError):
        spec_from_config("errors", {"kind": "oops"}, D)
    with pytest.raises(ConfigError):
        ComponentUniformErrors(bound=-0.1)


# ---------------------------------------------------------------------------
# noise


def test_uniform_noise_bounds_and_mean():
    sampler = make_noise_sampler(UniformNoise(level=0.05), D, seed=1)
    draws = np.array([sampler.sample(n) for n in range(4000)])
    assert np.abs(draws).max() <= 0.05
    assert abs(draws.mean()) < 0.002


def test_rademacher_noise_is_exactly_pm_level():
    sampler = make_noise_sampler(RademacherNoise(level=0.5), D, seed=1)
    draws = np.array([sampler.sample(n) for n in range(2000)])
    assert set(np.unique(draws).tolist()) == {-0.5, 0.5}
    assert abs(draws.mean()) < 0.05


def test_zero_noise_flag():
    sampler = make_noise_sampler(ZeroNoise(), D, seed=0)
    assert sampler.sample(3).tolist() == [0.0] * D


def test_noise_config_round_trip_and_errors():
    for model in (ZeroNoise(), UniformNoise(level=0.1),
                  RademacherNoise(level=1.0)):
        rebuilt = spec_from_config("noise", spec_to_config(model), D)
        assert type(rebuilt) is type(model)
    with pytest.raises(ConfigError):
        spec_from_config("noise", {"kind": "pink"}, D)
    with pytest.raises(ConfigError):
        UniformNoise(level=-1.0)


# ---------------------------------------------------------------------------
# stream digests: the first 4100 draws of every sampler cross one block
# refill, so a change in how streams are cut into blocks or in the order
# of draws shows here as a changed hash.

_DRAWS = 4100
_P_C = np.array([[0.5, 0.3, 0.7], [0.2, 0.5, 0.6], [0.9, 0.4, 0.5]])
_BOX = WeightedMaxNorm(weights=[1.0, 2.0, 0.5])

_DELAY_VARIANTS = {
    "zero": ZeroDelays(),
    "uniform": UniformDelays(tau_max=3),
    "geometric": GeometricDelays(mean=2.0),
    "geometric-matrix": GeometricDelays(mean=1.0 + 4.0 * _P_C),
    "stale-symmetric": StaleRefreshDelays(p_c=0.4),
    "stale-asymmetric": StaleRefreshDelays(p_c=0.4, symmetric=False),
    "stale-matrix": StaleRefreshDelays(p_c=_P_C),
}
_ERROR_VARIANTS = {
    "zero": ZeroErrors(),
    "componentwise-uniform": ComponentUniformErrors(bound=0.4),
    "fixed-bias": FixedBiasErrors(bias=[0.3, -0.4, 0.1]),
    "euclidean-ball": NormBallErrors(bound=0.5),
    "weighted-max-box": NormBallErrors(bound=0.5, norm=_BOX),
}
_NOISE_VARIANTS = {
    "zero": ZeroNoise(),
    "uniform": UniformNoise(level=0.05),
    "rademacher": RademacherNoise(level=0.5),
}
_ACTIVATION_VARIANTS = {
    "all": AllActive(),
    "round-robin": RoundRobin(k=2),
    "bernoulli-vector": BernoulliActivation(q=[0.2, 0.5, 0.9]),
    "bernoulli-scalar": BernoulliActivation(q=0.3),
}


def _digest(draw) -> str:
    # integer rows are hashed as int64 values, whatever their stored width
    h = hashlib.sha256()
    for n in range(_DRAWS):
        row = np.asarray(draw(n))
        if row.dtype.kind == "i":
            row = row.astype(np.int64)
        h.update(np.ascontiguousarray(row).tobytes())
    return h.hexdigest()


def _stream_digests(reader=lambda sampler: sampler.next) -> dict[str, str]:
    out = {}
    for name, model in _DELAY_VARIANTS.items():
        out[f"delays/{name}"] = _digest(
            reader(make_delay_sampler(model, D, seed=7, horizon=_DRAWS)))
    for name, model in _ERROR_VARIANTS.items():
        out[f"errors/{name}"] = _digest(
            reader(make_error_sampler(model, D, seed=7, horizon=_DRAWS)))
        if name not in ("zero", "fixed-bias"):
            alt = make_error_sampler(model, D, seed=7, horizon=_DRAWS,
                                     domain=DOMAIN_ERROR_ALT)
            out[f"errors/{name}/alt"] = _digest(reader(alt))
    for name, model in _NOISE_VARIANTS.items():
        out[f"noise/{name}"] = _digest(
            reader(make_noise_sampler(model, D, seed=7)))
    for name, policy in _ACTIVATION_VARIANTS.items():
        out[f"activation/{name}"] = _digest(
            reader(make_activation_sampler(policy, D, seed=7)))
    return out


_STREAM_DIGESTS = {
    "delays/zero": "20cd4a123e0ed81ef1976a68f32504336b5beec8b825249b386a392e32e9c7eb",
    "delays/uniform": "36b96c0d2caf6a0d466306e5ba7c8b57e1ce112349d662665b7cbe0c2f04130d",
    "delays/geometric": "25b75ccfd8da44576ddddfa1d9a2fcfad1eda7756d1b861342437dab01135963",
    "delays/geometric-matrix": "56dff389024e3170f1e6b15c963398ecdde56ffc11223bf371fb9ee878b56ab3",
    "delays/stale-symmetric": "7d49bd1fb9a6d73b5f39cac6a7693318f1422ebcd3af072064c6bb680fd6fb29",
    "delays/stale-asymmetric": "714ec1868684256deed865b316879ae3e6f0a276d2f1262a3061a296057da552",
    "delays/stale-matrix": "072316c93eec9ab8f2b460f3e94fa656def4dd6062d0acae18b0329d8adbbf7e",
    "errors/zero": "14e73ff538163c837a4fda31bf808926c265e65bd775c065f60d9d94827e4959",
    "errors/componentwise-uniform": "ea9962940d985db2c24ba7ea5b1a22955565d5e45376a55687413a1644b41fb5",
    "errors/componentwise-uniform/alt": "a5378496d5111fcbb6622d9115a58a80773fd0a521abd1148fb279513b71b2da",
    "errors/fixed-bias": "72e819ecb60485458a7332e8aee1265b0812fb17c1b935e6d9c5a62128141ccc",
    "errors/euclidean-ball": "ea4ab7a53c3915c8263aab9a2b42ae06b9140691d83e23034fcc36816b200132",
    "errors/euclidean-ball/alt": "55e3640feb0bc16b3f824372e199e8d42957728ea59aba20444e00c313717c2c",
    "errors/weighted-max-box": "20d7464ca6c1477436a2752ea4a8cc513d67f6d9af0996098895135ab71a5425",
    "errors/weighted-max-box/alt": "f2ca812a5427b6d7d5ef6448f0e32eca46c0993183ef1468081eef75e992f389",
    "noise/zero": "14e73ff538163c837a4fda31bf808926c265e65bd775c065f60d9d94827e4959",
    "noise/uniform": "8d6f69eb7e8e3045b2b2c9c2b6c33af81278db353ac6b96df7ccd3fe491623f3",
    "noise/rademacher": "3b48d4b15560342665aec15d2324e6854922581a0611d3c389019a54db751ab2",
    "activation/all": "a5b92eddc8664d9b9d564eb542c0492cec3e306e941e71f99bbf957bc2ff2037",
    "activation/round-robin": "2acdc0e5ae697f81d089b57284947cb99fe7ec61b8f25bb1ae2ac19b3247f3d0",
    "activation/bernoulli-vector": "cc01d535fee9c93c8af86abc9dd9ca30ce4ff3b8e96cc7d19c003f3507c2c53e",
    "activation/bernoulli-scalar": "3e88cba7091ec3c688d820dc7b2a4c8ca3fae2d9778574f6c9d0f55552c1a8ca",
}


def test_sampler_streams_are_frozen():
    assert _stream_digests() == _STREAM_DIGESTS


@pytest.mark.parametrize("name", _DELAY_VARIANTS)
def test_delay_samplers_store_their_documented_age_dtype(name):
    # at small d every kind stores int64 ages, across a refill
    model = _DELAY_VARIANTS[name]
    sampler = make_delay_sampler(model, D, seed=7, horizon=_DRAWS)
    assert sampler.take(CHUNK + 1).dtype == np.int64


@pytest.mark.parametrize("model", [ZeroDelays(), UniformDelays(tau_max=3),
                                   GeometricDelays(mean=2.0), StaleRefreshDelays(p_c=0.4)],
                         ids=lambda m: m.kind)
def test_wide_iid_delay_samplers_store_int32_ages(model):
    # drawn ages of every kind are int32 from the least d at which a
    # CHUNK-row int64 block would pass the byte cap, up to a horizon of
    # 2**31; zero delays, and every other d and horizon, keep int64
    wide = next(d for d in range(2, 100) if CHUNK * d * d * 8 > DELAY_BLOCK_BYTES)
    drawn = model.kind != "zero"
    for d, horizon, dtype in ((wide - 1, 2**31, np.int64),
                              (wide, 2**31, np.int32 if drawn else np.int64),
                              (wide, 2**31 + 1, np.int64)):
        sampler = make_delay_sampler(model, d, seed=7, horizon=horizon)
        assert sampler.take(1).dtype == dtype, (d, horizon)


def _in_runs(sizes):
    """A reader: row n of a sampler, read with ``take`` in runs of the
    cycled ``sizes``."""
    def reader(sampler):
        rows, runs = [], itertools.cycle(sizes)
        while len(rows) < _DRAWS:
            rows.extend(sampler.take(min(next(runs), _DRAWS - len(rows))))
        return rows.__getitem__
    return reader


def test_reading_streams_in_runs_keeps_their_digests():
    # the run of 3000 rows from row 3091 spans the block boundary at CHUNK
    assert _stream_digests(_in_runs((1, 42, 3000, 5))) == _STREAM_DIGESTS


# A stream's block is as long as the take that draws it, except the
# Euclidean norm ball's CHUNK rows and full delay matrices' capped blocks,
# so each cut below draws blocks of other lengths: one whole read, and
# runs drawn from seeded generators.
_CUTS = {
    "whole": (_DRAWS,),
    **{f"random-{seed}": tuple(np.random.default_rng(seed).integers(1, high, size=64).tolist())
       for seed, high in ((0, 8), (1, 300), (2, 2000))},
}


@pytest.mark.parametrize("cut", _CUTS)
def test_streams_read_in_any_cut_keep_their_digests(cut):
    assert _stream_digests(_in_runs(_CUTS[cut])) == _STREAM_DIGESTS

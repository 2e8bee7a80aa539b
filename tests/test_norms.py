import itertools
import struct

import numpy as np
import pytest

from asyncsa import (
    ConfigError,
    EuclideanNorm,
    NormBallErrors,
    ProjectionRegion,
    ProjectionSpec,
    WeightedMaxNorm,
    WeightedPNorm,
)
from asyncsa.config import spec_from_config, spec_to_config
from asyncsa.norms import unit_max_norm, weighted_norm


def test_euclidean_matches_numpy():
    x = np.array([3.0, -4.0])
    assert EuclideanNorm()(x) == pytest.approx(5.0)


def _special_vectors(rng):
    """Random float64 vectors with signed zeros, the least subnormal,
    infinities, NaNs and squares that overflow, some of them strided."""
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e200, -1e200]
    for _ in range(400):
        v = rng.standard_normal(int(rng.integers(0, 40))) * 10.0 ** rng.integers(-300, 300)
        hits = rng.random(len(v)) < rng.choice([0.0, 0.1, 0.5])
        v[hits] = rng.choice(special, int(hits.sum()))
        yield v
        if len(v) > 2:
            yield v[::2]  # a strided view
            yield v[::-3]
    yield from (np.array(row) for row in itertools.product(special, repeat=2))


def test_euclidean_and_max_norms_have_the_bits_of_numpy():
    # norms take numpy's own path through ``dot`` and ``.max``, without
    # its overhead: every result has the bits np.linalg.norm and np.max give
    rng = np.random.default_rng(7)
    bits = struct.Struct("<d").pack
    with np.errstate(over="ignore", invalid="ignore"):
        for v in _special_vectors(rng):
            want = float(np.linalg.norm(v))
            assert bits(EuclideanNorm()(v)) == bits(want), v
            if len(v):
                w = rng.uniform(0.1, 10.0, len(v))
                assert bits(WeightedMaxNorm(w)(v)) == bits(float(np.max(np.abs(v) / w))), v


def test_weighted_max_norm_example():
    norm = WeightedMaxNorm(weights=[1.0, 2.0])
    assert norm(np.array([3.0, -8.0])) == pytest.approx(4.0)


def test_unit_max_norm_is_plain_max():
    norm = unit_max_norm(3)
    assert norm(np.array([-1.0, 0.5, 0.25])) == pytest.approx(1.0)


def test_weighted_p_norm_examples():
    norm2 = WeightedPNorm(weights=[2.0, 1.0], p=2.0)
    assert norm2(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(36 + 16))
    norm1 = WeightedPNorm(weights=[1.0, 1.0], p=1.0)
    assert norm1(np.array([3.0, -4.0])) == pytest.approx(7.0)


def test_weight_validation():
    with pytest.raises(ConfigError):
        WeightedMaxNorm(weights=[1.0, 0.0])
    with pytest.raises(ConfigError):
        WeightedMaxNorm(weights=[[1.0, 2.0]])
    with pytest.raises(ConfigError):
        WeightedPNorm(weights=[1.0], p=0.5)


@pytest.mark.parametrize("make", [
    lambda rng: EuclideanNorm(),
    lambda rng: WeightedMaxNorm(weights=rng.uniform(0.1, 1.0, 4)),
    lambda rng: WeightedPNorm(weights=rng.uniform(0.1, 1.0, 4), p=3.0),
])
def test_norm_axioms_on_random_vectors(make):
    rng = np.random.default_rng(7)
    norm = make(rng)
    for _ in range(50):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        s = rng.standard_normal()
        assert norm(x) >= 0
        assert norm(s * x) == pytest.approx(abs(s) * norm(x), rel=1e-12)
        assert norm(x + y) <= norm(x) + norm(y) + 1e-12
    assert norm(np.zeros(4)) == 0.0


def test_euclidean_dominated_by_scaled_weighted_max():
    # for weights in (0, 1]: |x|_2 <= (d / min w) * |x|_w,max
    rng = np.random.default_rng(3)
    d = 5
    for _ in range(100):
        w = rng.uniform(0.1, 1.0, d)
        norm = WeightedMaxNorm(weights=w)
        x = rng.standard_normal(d) * rng.uniform(0.1, 10)
        assert np.linalg.norm(x) <= (d / w.min()) * norm(x) + 1e-12


def test_config_round_trips():
    d = 3
    for norm in (
        EuclideanNorm(),
        WeightedMaxNorm(weights=[0.5, 1.0, 2.0]),
        WeightedPNorm(weights=[1.0, 1.0, 1.0], p=2.5),
    ):
        again = spec_from_config("norm", spec_to_config(norm), d)
        x = np.array([0.3, -1.7, 0.9])
        assert again(x) == pytest.approx(norm(x), rel=1e-15)


def test_config_default_and_errors():
    # an absent norm is Euclidean; absent weights are all ones
    region = ProjectionRegion.from_spec(ProjectionSpec(r_inner=1.0, r_outer=2.0), 2)
    assert isinstance(region.norm, EuclideanNorm)
    assert isinstance(NormBallErrors(bound=1.0).norm, EuclideanNorm)
    unit = spec_from_config("norm", {"kind": "weighted-max"}, 2)
    assert unit.weights.tolist() == [1.0, 1.0]
    with pytest.raises(ConfigError):
        spec_from_config("norm", {"kind": "mystery"}, 2)
    with pytest.raises(ConfigError):
        spec_from_config("norm", {"kind": "euclidean", "extra": 1}, 2)
    with pytest.raises(ConfigError, match="length 2"):
        spec_from_config("norm", {"kind": "weighted-max", "weights": [1.0]}, 2)


def test_weighted_norm_helper_matches_callable():
    norm = WeightedMaxNorm(weights=[1.0, 4.0])
    x = np.array([2.0, -8.0])
    assert weighted_norm(x, norm) == norm(x)

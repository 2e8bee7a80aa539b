import hashlib

import numpy as np
import pytest

from asyncsa import (
    BellmanObjective,
    ComponentUniformErrors,
    ConfigError,
    HarmonicSteps,
    NormBallErrors,
    ProjectionSpec,
    RunConfig,
    WeightedMaxNorm,
    bellman_apply,
    gap_report,
    non_expansiveness_check,
    random_mdp,
    run_paired,
    write_gap_csv,
)
from asyncsa._rng import CHUNK


def _paired_cfg(**kw) -> RunConfig:
    base = dict(
        dimension=5,
        horizon=400,
        seed=7,
        objective=BellmanObjective(states=5, actions=2, mdp_seed=11,
                                   discount=0.9),
        steps=HarmonicSteps(c=10.0),
        errors=ComponentUniformErrors(bound=0.2),
        projection=ProjectionSpec(r_inner=12.0, r_outer=20.0,
                                  norm={"kind": "weighted-max",
                                        "weights": [1.0] * 5}),
        x0=[30.0] * 5,
    )
    base.update(kw)
    return RunConfig(**base)


def test_coupled_gap_never_grows_after_last_event():
    paired = run_paired(_paired_cfg(), coupled_errors=True)
    report = gap_report(paired)
    assert report["schema"] == "gap-report-v1"
    assert report["monotone"] is True
    assert report["first_violation"] is None
    assert report["growth_bound_ok"] is True
    # the start point lies outside the region, so tick -1 is an event
    assert paired.projection_ticks[0] == -1
    assert paired.meta["initial_projection"] is True
    assert paired.gap[0] == pytest.approx(18.0)
    assert report["final_gap"] <= paired.gap[0]


def test_identical_chains_when_region_never_binds():
    cfg = _paired_cfg(
        errors=ComponentUniformErrors(bound=0.0),
        projection=ProjectionSpec(r_inner=500.0, r_outer=1000.0),
        x0=[1.0] * 5,
    )
    paired = run_paired(cfg)
    assert paired.projection_ticks == []
    assert np.array_equal(paired.gap, np.zeros(401))
    assert np.array_equal(paired.raw_final, paired.proj_final)
    report = gap_report(paired)
    assert report["last_event"] is None
    assert report["checked_from_tick"] == 0
    assert report["sup_gap_after"] == 0.0


def test_decoupled_errors_respect_growth_bound():
    paired = run_paired(_paired_cfg(seed=3), coupled_errors=False)
    assert paired.coupled_errors is False
    assert paired.error_gap.max() > 0
    report = gap_report(paired)
    assert report["growth_bound_ok"] is True
    # with independent draws the chains genuinely differ
    assert not np.array_equal(paired.raw_final, paired.proj_final)


@pytest.mark.parametrize("kw, digest", [
    (dict(seed=3), "7f1a59215d61a76bf688d2fae0f3f50f6ff476a81e727ec5675a5b17a30999eb"),
    # past CHUNK ticks, so the second error stream is refilled once
    (dict(seed=3, horizon=CHUNK + 100, errors=NormBallErrors(bound=0.3)),
     "ed948b8dd0e71ea1c4158aa194d3f24bd5a50071d47434df8ee7642b4c714b5c"),
], ids=["uniform", "euclidean-ball-refill"])
def test_decoupled_paired_run_bytes_are_frozen(kw, digest):
    paired = run_paired(_paired_cfg(**kw), coupled_errors=False)
    h = hashlib.sha256()
    for a in (paired.gap, paired.error_gap, paired.raw_final, paired.proj_final):
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_paired_run_requires_projection():
    with pytest.raises(ConfigError):
        run_paired(_paired_cfg(projection=None))


def test_gap_csv_format(tmp_path):
    paired = run_paired(_paired_cfg(horizon=20))
    path = tmp_path / "gap.csv"
    write_gap_csv(paired, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: gap-v1"
    assert lines[1] == "# seed: 7"
    assert lines[2].startswith("# config: {")
    assert lines[3] == "n,gap,projected"
    assert len(lines) == 4 + 21
    first = lines[4].split(",")
    assert first[0] == "0"
    assert float(first[1]) == paired.gap[0]


def test_bellman_operator_is_discount_contractive():
    mdp = random_mdp(5, 2, seed=11, discount=0.9)
    report = non_expansiveness_check(
        lambda v: bellman_apply(mdp, v),
        d=5,
        norm=WeightedMaxNorm(weights=[1.0] * 5),
        samples=200,
        scale=3.0,
    )
    assert report["samples"] == 200
    assert report["max_ratio"] <= 0.9 + 1e-12
    assert report["median_ratio"] <= report["max_ratio"]


def test_non_expansiveness_flags_expansive_map():
    report = non_expansiveness_check(lambda v: 2.0 * v, d=3, samples=50)
    assert report["max_ratio"] == pytest.approx(2.0)


def test_non_expansiveness_check_needs_a_sample():
    mdp = random_mdp(3, 2, 0)
    with pytest.raises(ConfigError, match="no usable point pair among 0 samples"):
        non_expansiveness_check(lambda v: bellman_apply(mdp, v), d=3, samples=0)

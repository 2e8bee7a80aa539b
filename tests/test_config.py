import dataclasses
import json
from typing import get_args

import numpy as np
import pytest

import asyncsa

from asyncsa import (
    BellmanObjective,
    ComponentUniformErrors,
    ConfigError,
    GeometricDelays,
    GradientObjective,
    HarmonicSteps,
    ProjectionSpec,
    QuadraticObjective,
    RoundRobin,
    RunConfig,
    ScaledIdentityObjective,
    SweepSpec,
    build_runtime,
    load_config_file,
    parse_run_config,
    parse_sweep_config,
    run_config_to_dict,
    set_by_path,
)
from asyncsa.config import SPEC_FAMILIES, spec_from_config

RUN_DOC = {
    "dimension": 2,
    "horizon": 100,
    "seed": 9,
    "objective": {"kind": "quadratic", "matrices": "random"},
    "steps": {"kind": "harmonic", "c": 10.0},
    "activation": {"kind": "round-robin", "k": 1},
    "delays": {"kind": "geometric", "mean": 3.0},
    "errors": {"kind": "componentwise-uniform", "bound": 0.2},
    "noise": {"kind": "bounded-uniform", "level": 0.1},
    "projection": {"r_inner": 1.0, "r_outer": 2.0},
    "x0": [0.5, -0.5],
}


# ---------------------------------------------------------------------------
# run config parsing


def test_parse_full_run_document():
    cfg = parse_run_config(RUN_DOC)
    assert cfg.dimension == 2
    assert isinstance(cfg.objective, QuadraticObjective)
    assert isinstance(cfg.steps, HarmonicSteps) and cfg.steps.c == 10.0
    assert isinstance(cfg.activation, RoundRobin) and cfg.activation.k == 1
    assert isinstance(cfg.delays, GeometricDelays) and cfg.delays.mean == 3.0
    assert isinstance(cfg.errors, ComponentUniformErrors)
    assert cfg.projection.r_outer == 2.0
    assert np.array_equal(cfg.x0, [0.5, -0.5])


def test_parse_minimal_document_uses_defaults():
    cfg = parse_run_config({
        "dimension": 3,
        "horizon": 10,
        "seed": 0,
        "objective": {"kind": "scaled-identity", "gain": -1.0},
    })
    assert isinstance(cfg.steps, HarmonicSteps) and cfg.steps.c == 1.0
    assert cfg.activation.kind == "all"
    assert cfg.delays.kind == "zero"
    assert cfg.errors.kind == "zero"
    assert cfg.noise.kind == "zero"
    assert cfg.projection is None and cfg.x0 is None


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("dimension"), "missing key 'dimension'"),
    (lambda d: d.update(extra=1), "unknown run config keys"),
    (lambda d: d["objective"].update(extra=1), "unknown objective keys"),
    (lambda d: d["steps"].update(extra=1), "unknown"),
    (lambda d: d["errors"].update(extra=1), "unknown"),
    (lambda d: d["projection"].update(extra=1), "unknown projection keys"),
    (lambda d: d["objective"].update(kind="mystery"), "unknown objective kind"),
])
def test_unknown_keys_are_hard_errors(mutate, fragment):
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in RUN_DOC.items()}
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(doc)


def test_run_config_validation():
    kw = dict(dimension=2, horizon=10, seed=0,
              objective=ScaledIdentityObjective(gain=-1.0),
              steps=HarmonicSteps(c=1.0))
    with pytest.raises(ConfigError):
        RunConfig(**{**kw, "dimension": 0})
    with pytest.raises(ConfigError):
        RunConfig(**{**kw, "horizon": 0})
    with pytest.raises(ConfigError):
        RunConfig(**{**kw, "seed": -1})
    with pytest.raises(ConfigError):
        RunConfig(**{**kw, "seed": 1 << 64})
    with pytest.raises(ConfigError):
        RunConfig(**{**kw, "x0": [1.0, 2.0, 3.0]})


def test_objective_validation():
    with pytest.raises(ConfigError):
        BellmanObjective()  # neither fixture nor sizes
    with pytest.raises(ConfigError):
        BellmanObjective(fixture="a.txt", states=3, actions=2)
    with pytest.raises(ConfigError):
        BellmanObjective(states=3)  # actions missing
    with pytest.raises(ConfigError):
        GradientObjective(surface="saddle")
    with pytest.raises(ConfigError):
        ProjectionSpec(r_inner=2.0, r_outer=1.0)
    with pytest.raises(ConfigError):
        ProjectionSpec(r_inner=0.0, r_outer=1.0)


def test_build_time_validation():
    kw = dict(dimension=3, horizon=10, seed=0, steps=HarmonicSteps(c=1.0))
    with pytest.raises(ConfigError, match="rosenbrock"):
        build_runtime(RunConfig(objective=GradientObjective(surface="rosenbrock"),
                                **kw))
    with pytest.raises(ConfigError, match="does not match"):
        build_runtime(RunConfig(
            objective=BellmanObjective(states=5, actions=2), **kw))
    with pytest.raises(ConfigError, match="shape"):
        build_runtime(RunConfig(
            objective=QuadraticObjective(matrices=np.eye(2)), **kw))


def test_projection_norm_is_validated_eagerly():
    doc = {
        "dimension": 2,
        "horizon": 10,
        "seed": 0,
        "objective": {"kind": "scaled-identity", "gain": -1.0},
        "projection": {"r_inner": 1.0, "r_outer": 2.0,
                       "norm": {"kind": "weighted-max", "weights": [1.0]}},
    }
    with pytest.raises(ConfigError):
        parse_run_config(doc)
    doc["projection"]["center"] = [0.0, 0.0, 0.0]
    doc["projection"]["norm"] = None
    with pytest.raises(ConfigError, match="center"):
        parse_run_config(doc)


def test_canonical_dict_round_trips():
    cfg = parse_run_config(RUN_DOC)
    out = run_config_to_dict(cfg)
    again = parse_run_config(out)
    assert run_config_to_dict(again) == out
    # materialised start point can be embedded
    embedded = run_config_to_dict(cfg, x0=np.array([1.0, 2.0]))
    assert embedded["x0"] == [1.0, 2.0]


def test_load_config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "dimension: 2\nhorizon: 5\nseed: 1\n"
        "objective: {kind: scaled-identity, gain: -1.0}\n"
    )
    cfg = parse_run_config(load_config_file(path))
    assert cfg.horizon == 5
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config_file(bad)
    broken = tmp_path / "broken.yaml"
    broken.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config_file(broken)


# ---------------------------------------------------------------------------
# canonical dict freeze
#
# Every output file embeds ``run_config_to_dict`` of its config, so the
# dict is part of each run's record.  The strings below are the canonical
# dicts of a corpus covering every kind of every family, each optional key
# present and absent, int-valued floats, the scalar and matrix forms of
# ``mean``, ``p_c`` and ``q``, ``symmetric`` forced both ways, the norm-ball
# norms, projections with and without a center under each norm kind, and
# an explicit ``x0``.  Changing any of them changes recorded output.

BASE_DOC = {
    "dimension": 2,
    "horizon": 10,
    "seed": 3,
    "objective": {"kind": "scaled-identity", "gain": -1.5},
}

FIXTURE = "tests/fixtures/mdp_5s2a.txt"

CORPUS = {
    # objective
    "quadratic-default": {"objective": {"kind": "quadratic"}},
    "quadratic-random": {"objective": {"kind": "quadratic", "matrices": "random"}},
    "quadratic-shared": {"objective": {"kind": "quadratic", "matrices": [[2, 0], [0, 3]]}},
    "quadratic-per-agent": {"objective": {
        "kind": "quadratic", "matrices": [[[2, 0], [0, 1]], [[1, 0], [0, 2.5]]]}},
    "scaled-identity-int": {"objective": {"kind": "scaled-identity", "gain": -1}},
    "bellman-fixture": {"dimension": 5, "objective": {
        "kind": "bellman-residual", "fixture": FIXTURE}},
    "bellman-random": {"dimension": 4, "objective": {
        "kind": "bellman-residual", "states": 4, "actions": 2}},
    "bellman-random-full": {"dimension": 4, "objective": {
        "kind": "bellman-residual", "states": 4, "actions": 3,
        "discount": 0.8, "mdp_seed": 7}},
    "gradient-default": {"objective": {"kind": "gradient-descent"}},
    "gradient-bowl": {"objective": {"kind": "gradient-descent",
                                    "surface": "quadratic-bowl"}},
    "gradient-bowl-matrix": {"objective": {
        "kind": "gradient-descent", "surface": "quadratic-bowl",
        "matrix": [[2, 0], [0, 1]]}},
    "rosenbrock": {"objective": {"kind": "gradient-descent", "surface": "rosenbrock"}},
    "rosenbrock-ab": {"objective": {"kind": "gradient-descent", "surface": "rosenbrock",
                                    "a": 1, "b": 50}},
    # steps
    "harmonic-default": {"steps": {"kind": "harmonic"}},
    "harmonic-int": {"steps": {"kind": "harmonic", "c": 10}},
    "power": {"steps": {"kind": "power", "p": 0.75}},
    "power-full": {"steps": {"kind": "power", "p": 1, "c": 5}},
    "constant": {"steps": {"kind": "constant", "a0": 0.5}},
    # activation
    "all": {"activation": {"kind": "all"}},
    "round-robin-default": {"activation": {"kind": "round-robin"}},
    "round-robin-k": {"activation": {"kind": "round-robin", "k": 2}},
    "bernoulli-scalar": {"activation": {"kind": "bernoulli", "q": 0.5}},
    "bernoulli-vector": {"activation": {"kind": "bernoulli", "q": [0.5, 1]}},
    # delays
    "delays-zero": {"delays": {"kind": "zero"}},
    "bounded-uniform": {"delays": {"kind": "bounded-uniform", "tau_max": 3}},
    "geometric-int": {"delays": {"kind": "geometric", "mean": 3}},
    "geometric-matrix": {"delays": {"kind": "geometric", "mean": [[1, 2], [3, 4.5]]}},
    "stale-scalar": {"delays": {"kind": "stale-refresh", "p_c": 0.5}},
    "stale-scalar-asym": {"delays": {"kind": "stale-refresh", "p_c": 0.5,
                                     "symmetric": False}},
    "stale-scalar-int-sym": {"delays": {"kind": "stale-refresh", "p_c": 1,
                                        "symmetric": True}},
    "stale-matrix": {"delays": {"kind": "stale-refresh",
                                "p_c": [[1, 0.4], [0.4, 1]]}},
    "stale-matrix-sym": {"delays": {"kind": "stale-refresh",
                                    "p_c": [[1, 0.4], [0.4, 1]], "symmetric": True}},
    # errors
    "errors-zero": {"errors": {"kind": "zero"}},
    "componentwise-int": {"errors": {"kind": "componentwise-uniform", "bound": 1}},
    "fixed-bias": {"errors": {"kind": "fixed-bias", "bias": [0.1, -2]}},
    "norm-ball-default": {"errors": {"kind": "norm-ball-uniform", "bound": 0.5}},
    "norm-ball-euclidean": {"errors": {"kind": "norm-ball-uniform", "bound": 1,
                                       "norm": {"kind": "euclidean"}}},
    "norm-ball-max": {"errors": {"kind": "norm-ball-uniform", "bound": 0.5,
                                 "norm": {"kind": "weighted-max"}}},
    "norm-ball-max-weights": {"errors": {"kind": "norm-ball-uniform", "bound": 0.5,
                                         "norm": {"kind": "weighted-max",
                                                  "weights": [1, 2]}}},
    # noise
    "noise-zero": {"noise": {"kind": "zero"}},
    "noise-uniform": {"noise": {"kind": "bounded-uniform", "level": 0.1}},
    "noise-rademacher-int": {"noise": {"kind": "bounded-rademacher", "level": 1}},
    # projection
    "projection-plain": {"projection": {"r_inner": 1, "r_outer": 2}},
    "projection-center": {"projection": {"r_inner": 1, "r_outer": 2,
                                         "center": [0, 1]}},
    "projection-euclidean": {"projection": {"r_inner": 0.5, "r_outer": 3,
                                            "norm": {"kind": "euclidean"}}},
    "projection-euclidean-center": {"projection": {
        "r_inner": 0.5, "r_outer": 3, "center": [0.5, 0.5],
        "norm": {"kind": "euclidean"}}},
    "projection-max": {"projection": {"r_inner": 1, "r_outer": 2,
                                      "norm": {"kind": "weighted-max"}}},
    "projection-max-center": {"projection": {
        "r_inner": 1, "r_outer": 2, "center": [1, -1],
        "norm": {"kind": "weighted-max", "weights": [1, 2]}}},
    "projection-p": {"projection": {"r_inner": 1, "r_outer": 2,
                                    "norm": {"kind": "weighted-p",
                                             "weights": [1, 1]}}},
    "projection-p-center": {"projection": {
        "r_inner": 1, "r_outer": 2, "center": [0.25, 0],
        "norm": {"kind": "weighted-p", "weights": [2, 1], "p": 3}}},
    # start point and a document using every family at once
    "x0": {"x0": [0.5, -1]},
    "everything": {
        "objective": {"kind": "quadratic", "matrices": "random"},
        "steps": {"kind": "harmonic", "c": 10.0},
        "activation": {"kind": "round-robin", "k": 1},
        "delays": {"kind": "geometric", "mean": 3.0},
        "errors": {"kind": "componentwise-uniform", "bound": 0.2},
        "noise": {"kind": "bounded-uniform", "level": 0.1},
        "projection": {"r_inner": 1.0, "r_outer": 2.0},
        "x0": [0.5, -0.5],
    },
}

FROZEN = {
    'quadratic-default': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"kind": "quadratic", "matrices": "random"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'quadratic-random': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"kind": "quadratic", "matrices": "random"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'quadratic-shared': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"kind": "quadratic", "matrices": [[2, 0], [0, 3]]}, '
        '"projection": null, "seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, '
        '"x0": null}'
    ),
    'quadratic-per-agent': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"kind": "quadratic", "matrices": [[[2.0, 0.0], [0.0, 1.0]], '
        '[[1.0, 0.0], [0.0, 2.5]]]}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'scaled-identity-int': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.0, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'bellman-fixture': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 5, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"fixture": "tests/fixtures/mdp_5s2a.txt", '
        '"kind": "bellman-residual"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'bellman-random': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 4, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"actions": 2, "discount": 0.9, "kind": "bellman-residual", '
        '"mdp_seed": 0, "states": 4}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'bellman-random-full': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 4, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"actions": 3, "discount": 0.8, "kind": "bellman-residual", '
        '"mdp_seed": 7, "states": 4}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'gradient-default': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"kind": "gradient-descent", "surface": "quadratic-bowl"}, '
        '"projection": null, "seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, '
        '"x0": null}'
    ),
    'gradient-bowl': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"kind": "gradient-descent", "surface": "quadratic-bowl"}, '
        '"projection": null, "seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, '
        '"x0": null}'
    ),
    'gradient-bowl-matrix': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"kind": "gradient-descent", "matrix": [[2, 0], [0, 1]], '
        '"surface": "quadratic-bowl"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'rosenbrock': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"a": 1.0, "b": 100.0, "kind": "gradient-descent", '
        '"surface": "rosenbrock"}, "projection": null, "seed": 3, "steps": {"c": 1.0, '
        '"kind": "harmonic"}, "x0": null}'
    ),
    'rosenbrock-ab': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"a": 1.0, "b": 50.0, "kind": "gradient-descent", '
        '"surface": "rosenbrock"}, "projection": null, "seed": 3, "steps": {"c": 1.0, '
        '"kind": "harmonic"}, "x0": null}'
    ),
    'harmonic-default': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'harmonic-int': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 10.0, "kind": "harmonic"}, "x0": null}'
    ),
    'power': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "power", "p": 0.75}, "x0": null}'
    ),
    'power-full': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 5.0, "kind": "power", "p": 1.0}, "x0": null}'
    ),
    'constant': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"a0": 0.5, "kind": "constant"}, "x0": null}'
    ),
    'all': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'round-robin-default': (
        '{"activation": {"k": 1, "kind": "round-robin"}, "delays": {"kind": "zero"}, '
        '"dimension": 2, "errors": {"kind": "zero"}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'round-robin-k': (
        '{"activation": {"k": 2, "kind": "round-robin"}, "delays": {"kind": "zero"}, '
        '"dimension": 2, "errors": {"kind": "zero"}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'bernoulli-scalar': (
        '{"activation": {"kind": "bernoulli", "q": [0.5]}, "delays": {"kind": "zero"}, '
        '"dimension": 2, "errors": {"kind": "zero"}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'bernoulli-vector': (
        '{"activation": {"kind": "bernoulli", "q": [0.5, 1.0]}, '
        '"delays": {"kind": "zero"}, "dimension": 2, "errors": {"kind": "zero"}, '
        '"horizon": 10, "noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'delays-zero': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'bounded-uniform': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "bounded-uniform", '
        '"tau_max": 3}, "dimension": 2, "errors": {"kind": "zero"}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'geometric-int': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "geometric", "mean": 3.0}, '
        '"dimension": 2, "errors": {"kind": "zero"}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'geometric-matrix': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "geometric", '
        '"mean": [[1.0, 2.0], [3.0, 4.5]]}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'stale-scalar': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "stale-refresh", '
        '"p_c": 0.5, "symmetric": true}, "dimension": 2, "errors": {"kind": "zero"}, '
        '"horizon": 10, "noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'stale-scalar-asym': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "stale-refresh", '
        '"p_c": 0.5, "symmetric": false}, "dimension": 2, "errors": {"kind": "zero"}, '
        '"horizon": 10, "noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'stale-scalar-int-sym': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "stale-refresh", '
        '"p_c": 1.0, "symmetric": true}, "dimension": 2, "errors": {"kind": "zero"}, '
        '"horizon": 10, "noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'stale-matrix': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "stale-refresh", '
        '"p_c": [[1.0, 0.4], [0.4, 1.0]], "symmetric": false}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'stale-matrix-sym': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "stale-refresh", '
        '"p_c": [[1.0, 0.4], [0.4, 1.0]], "symmetric": true}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'errors-zero': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'componentwise-int': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"bound": 1.0, "kind": "componentwise-uniform"}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'fixed-bias': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"bias": [0.1, -2.0], "kind": "fixed-bias"}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'norm-ball-default': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"bound": 0.5, "kind": "norm-ball-uniform", '
        '"norm": {"kind": "euclidean"}}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'norm-ball-euclidean': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"bound": 1.0, "kind": "norm-ball-uniform", '
        '"norm": {"kind": "euclidean"}}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'norm-ball-max': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"bound": 0.5, "kind": "norm-ball-uniform", '
        '"norm": {"kind": "weighted-max", "weights": [1.0, 1.0]}}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'norm-ball-max-weights': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"bound": 0.5, "kind": "norm-ball-uniform", '
        '"norm": {"kind": "weighted-max", "weights": [1.0, 2.0]}}, "horizon": 10, '
        '"noise": {"kind": "zero"}, "objective": {"gain": -1.5, '
        '"kind": "scaled-identity"}, "projection": null, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'noise-zero': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'noise-uniform': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, '
        '"noise": {"kind": "bounded-uniform", "level": 0.1}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'noise-rademacher-int': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, '
        '"noise": {"kind": "bounded-rademacher", "level": 1.0}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'projection-plain': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"r_inner": 1.0, "r_outer": 2.0}, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'projection-center': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"center": [0, 1], "r_inner": 1.0, "r_outer": 2.0}, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'projection-euclidean': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"norm": {"kind": "euclidean"}, "r_inner": 0.5, '
        '"r_outer": 3.0}, "seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, '
        '"x0": null}'
    ),
    'projection-euclidean-center': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"center": [0.5, 0.5], "norm": {"kind": "euclidean"}, '
        '"r_inner": 0.5, "r_outer": 3.0}, "seed": 3, "steps": {"c": 1.0, '
        '"kind": "harmonic"}, "x0": null}'
    ),
    'projection-max': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"norm": {"kind": "weighted-max"}, "r_inner": 1.0, '
        '"r_outer": 2.0}, "seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, '
        '"x0": null}'
    ),
    'projection-max-center': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"center": [1, -1], "norm": {"kind": "weighted-max", '
        '"weights": [1, 2]}, "r_inner": 1.0, "r_outer": 2.0}, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'projection-p': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"norm": {"kind": "weighted-p", "weights": [1, 1]}, '
        '"r_inner": 1.0, "r_outer": 2.0}, "seed": 3, "steps": {"c": 1.0, '
        '"kind": "harmonic"}, "x0": null}'
    ),
    'projection-p-center': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, '
        '"projection": {"center": [0.25, 0.0], "norm": {"kind": "weighted-p", "p": 3, '
        '"weights": [2, 1]}, "r_inner": 1.0, "r_outer": 2.0}, "seed": 3, '
        '"steps": {"c": 1.0, "kind": "harmonic"}, "x0": null}'
    ),
    'x0': (
        '{"activation": {"kind": "all"}, "delays": {"kind": "zero"}, "dimension": 2, '
        '"errors": {"kind": "zero"}, "horizon": 10, "noise": {"kind": "zero"}, '
        '"objective": {"gain": -1.5, "kind": "scaled-identity"}, "projection": null, '
        '"seed": 3, "steps": {"c": 1.0, "kind": "harmonic"}, "x0": [0.5, -1.0]}'
    ),
    'everything': (
        '{"activation": {"k": 1, "kind": "round-robin"}, '
        '"delays": {"kind": "geometric", "mean": 3.0}, "dimension": 2, '
        '"errors": {"bound": 0.2, "kind": "componentwise-uniform"}, "horizon": 10, '
        '"noise": {"kind": "bounded-uniform", "level": 0.1}, '
        '"objective": {"kind": "quadratic", "matrices": "random"}, '
        '"projection": {"r_inner": 1.0, "r_outer": 2.0}, "seed": 3, '
        '"steps": {"c": 10.0, "kind": "harmonic"}, "x0": [0.5, -0.5]}'
    ),
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_canonical_dict_is_frozen(name):
    doc = json.loads(json.dumps(dict(BASE_DOC, **CORPUS[name])))
    out = run_config_to_dict(parse_run_config(doc))
    assert json.dumps(out, sort_keys=True) == FROZEN[name]
    assert run_config_to_dict(parse_run_config(out)) == out



def test_every_spec_kind_sits_in_one_family():
    exported = {
        obj for obj in (getattr(asyncsa, name) for name in asyncsa.__all__)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and any(f.name == "kind" for f in dataclasses.fields(obj))
    }
    homes = {cls: [family for family, union in SPEC_FAMILIES.items()
                   if cls in get_args(union)] for cls in exported}
    assert {cls.__name__: len(h) for cls, h in homes.items()} == {
        cls.__name__: 1 for cls in exported}
    members = [cls for union in SPEC_FAMILIES.values() for cls in get_args(union)]
    assert set(members) == exported
    for family, union in SPEC_FAMILIES.items():
        kinds = [cls.kind for cls in get_args(union)]
        assert len(kinds) == len(set(kinds)), family


@pytest.mark.parametrize("objective, fragment", [
    ({"kind": "bellman-residual", "fixture": FIXTURE, "discount": 0.5},
     "fixture takes no discount"),
    ({"kind": "bellman-residual", "fixture": FIXTURE, "mdp_seed": 3},
     "fixture takes no discount"),
    ({"kind": "gradient-descent", "surface": "quadratic-bowl", "a": 2.0},
     "takes no a or b"),
    ({"kind": "gradient-descent", "b": 10.0}, "takes no a or b"),
    ({"kind": "gradient-descent", "surface": "rosenbrock", "matrix": [[1, 0], [0, 1]]},
     "takes no matrix"),
])
def test_keys_a_kind_ignores_are_rejected(objective, fragment):
    doc = dict(BASE_DOC, objective=objective)
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(doc)


@pytest.mark.parametrize("patch, fragment", [
    ({"dimension": "two"}, "dimension must be an integer"),
    ({"horizon": [10]}, "horizon must be an integer"),
    ({"seed": None}, "seed must be an integer"),
    ({"steps": {"kind": "harmonic", "c": "ten"}}, "steps c must be a number"),
    ({"delays": {"kind": "bounded-uniform", "tau_max": "3 ticks"}},
     "delays tau_max must be an integer"),
    ({"delays": {"kind": "stale-refresh", "p_c": 0.5, "symmetric": "no"}},
     "delays symmetric must be true or false"),
    ({"delays": {"kind": "geometric", "mean": "three"}}, "bad delays config"),
    ({"errors": {"kind": "norm-ball-uniform", "bound": 0.1,
                 "norm": {"kind": "weighted-p", "weights": [1, 1], "p": "two"}}},
     "norm p must be a number"),
    ({"projection": {"r_inner": "one", "r_outer": 2}},
     "projection r_inner must be a number"),
    ({"x0": ["a", "b"]}, "x0 must be a vector of numbers"),
])
def test_mistyped_values_are_config_errors(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(dict(BASE_DOC, **patch))


@pytest.mark.parametrize("patch, fragment", [
    ({"delays": {"kind": "bounded-uniform", "tau_max": 2.5}},
     "delays tau_max must be an integer"),
    ({"activation": {"kind": "round-robin", "k": 1.9}},
     "activation k must be an integer"),
    ({"dimension": 2.7}, "dimension must be an integer"),
    ({"horizon": 10.5}, "horizon must be an integer"),
    ({"activation": {"kind": "round-robin", "k": True}},
     "activation k must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"delays": {"kind": "bounded-uniform", "tau_max": "3"}},
     "delays tau_max must be an integer"),
])
def test_integer_keys_are_never_truncated(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(dict(BASE_DOC, **patch))


def test_integer_keys_take_integral_floats():
    cfg = parse_run_config(dict(BASE_DOC, dimension=2.0, horizon=np.int64(10),
                                delays={"kind": "bounded-uniform", "tau_max": 3.0}))
    assert (cfg.dimension, cfg.horizon, cfg.delays.tau_max) == (2, 10, 3)
    assert type(cfg.dimension) is int and type(cfg.delays.tau_max) is int


_EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("patch, fragment", [
    ({"errors": {"kind": "fixed-bias", "bias": [0.1, 0.1, 0.1]}},
     "fixed-bias vector must have length 2"),
    ({"activation": {"kind": "bernoulli", "q": [0.5, 0.5, 0.5]}},
     "bernoulli q must be scalar or length 2"),
    ({"delays": {"kind": "geometric", "mean": [[1.0] * 3] * 3}},
     r"geometric mean matrix must be \(2, 2\)"),
    ({"delays": {"kind": "stale-refresh", "p_c": [[0.5] * 3] * 3}},
     r"p_c matrix must be \(2, 2\)"),
    ({"objective": {"kind": "quadratic", "matrices": _EYE3}},
     "quadratic matrices must have shape"),
    ({"objective": {"kind": "gradient-descent", "surface": "quadratic-bowl",
                    "matrix": _EYE3}},
     "bowl matrix must have shape"),
    ({"dimension": 3, "objective": {"kind": "gradient-descent",
                                    "surface": "rosenbrock"}},
     "rosenbrock surface needs dimension 2"),
    ({"objective": {"kind": "bellman-residual", "states": 3, "actions": 2}},
     "does not match the 3-state problem"),
], ids=["fixed-bias", "bernoulli", "geometric", "stale-refresh", "quadratic",
        "bowl", "rosenbrock", "bellman"])
def test_shapes_are_checked_against_the_dimension_at_parse(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_run_config(dict(BASE_DOC, **patch))


def test_programmatic_configs_get_the_shape_checks():
    box = asyncsa.WeightedMaxNorm(weights=[1.0, 1.0, 1.0])
    with pytest.raises(ConfigError, match="norm weights must have length 2"):
        RunConfig(dimension=2, horizon=10, seed=0,
                  objective=ScaledIdentityObjective(gain=-1.0),
                  errors=asyncsa.NormBallErrors(bound=0.1, norm=box))


def test_sweep_rejects_a_wrong_length_grid_point_at_parse():
    base = dict(BASE_DOC, errors={"kind": "fixed-bias", "bias": [0.1, 0.1]})
    doc = {"base": base,
           "sweep": {"parameters": {"errors.bias": [[0.1, 0.1], [0.1, 0.1, 0.1]]}}}
    with pytest.raises(ConfigError, match="fixed-bias vector must have length 2"):
        parse_sweep_config(doc)


# ---------------------------------------------------------------------------
# sweeps


SWEEP_DOC = {
    "base": {
        "dimension": 2,
        "horizon": 50,
        "seed": 100,
        "objective": {"kind": "quadratic", "matrices": "random"},
        "errors": {"kind": "componentwise-uniform", "bound": 0.1},
        "steps": {"kind": "harmonic", "c": 10.0},
    },
    "sweep": {
        "parameters": {"errors.bound": [0.4, 0.2, 0.8], "seed": [1, 2]},
        "replicates": 2,
        "aggregate": "final-norm",
    },
}


def test_sweep_cells_are_canonically_ordered():
    spec = parse_sweep_config(SWEEP_DOC)
    # axes sorted by path, values sorted ascending
    assert list(spec.parameters) == ["errors.bound", "seed"]
    assert spec.parameters["errors.bound"] == [0.2, 0.4, 0.8]
    cells = spec.cells()
    assert len(cells) == 3 * 2 * 2
    assert cells[0]["overrides"] == {"errors.bound": 0.2, "seed": 1}
    assert cells[0]["seed"] == 100 ^ 0
    assert cells[5]["seed"] == 100 ^ 5
    assert [c["replicate"] for c in cells[:4]] == [0, 1, 0, 1]


def test_sweep_cell_config_applies_overrides_then_the_cell_seed():
    spec = parse_sweep_config(SWEEP_DOC)
    cell = spec.cells()[5]
    data = spec.cell_config(cell)
    assert data["errors"]["bound"] == cell["overrides"]["errors.bound"]
    # the swept seed is an override like any other; the cell seed wins
    assert cell["overrides"]["seed"] != cell["seed"] == data["seed"]
    assert spec.base["errors"]["bound"] == 0.1 and spec.base["seed"] == 100


def test_sweep_cells_ignore_declaration_order():
    reordered = {
        "base": dict(SWEEP_DOC["base"]),
        "sweep": {
            "parameters": {"seed": [2, 1], "errors.bound": [0.8, 0.2, 0.4]},
            "replicates": 2,
            "aggregate": "final-norm",
        },
    }
    a = parse_sweep_config(SWEEP_DOC).cells()
    b = parse_sweep_config(reordered).cells()
    assert a == b


def test_sweep_validation():
    with pytest.raises(ConfigError, match="does not resolve"):
        set_by_path(dict(SWEEP_DOC["base"]), "errors.missing", 1.0)
    with pytest.raises(ConfigError, match="at least one"):
        SweepSpec(base={}, parameters={})
    with pytest.raises(ConfigError, match="no values"):
        SweepSpec(base={}, parameters={"seed": []})
    with pytest.raises(ConfigError, match="aggregate"):
        SweepSpec(base={}, parameters={"seed": [1]}, aggregate="mean")
    with pytest.raises(ConfigError, match="replicates"):
        SweepSpec(base={}, parameters={"seed": [1]}, replicates=0)
    bad = {"base": dict(SWEEP_DOC["base"]),
           "sweep": {"parameters": {"errors.nope": [1.0]}}}
    with pytest.raises(ConfigError, match="does not resolve"):
        parse_sweep_config(bad)
    # every grid point is checked, not only the first
    stale = {"kind": "stale-refresh", "p_c": 0.5}
    late = {"base": dict(SWEEP_DOC["base"], delays=stale),
            "sweep": {"parameters": {"delays.p_c": [0.5, 1.5]}}}
    with pytest.raises(ConfigError, match="p_c"):
        parse_sweep_config(late)


def test_set_by_path():
    doc = {"a": {"b": {"c": 1}}, "top": 2}
    set_by_path(doc, "a.b.c", 9)
    set_by_path(doc, "top", 7)
    assert doc == {"a": {"b": {"c": 9}}, "top": 7}
    with pytest.raises(ConfigError):
        set_by_path(doc, "a.x.c", 1)

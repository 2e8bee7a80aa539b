import numpy as np
import pytest

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

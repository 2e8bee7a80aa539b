"""Declarative run and sweep configs.

Configs are YAML (or JSON) mappings with a fixed vocabulary; unknown keys
anywhere are hard errors so typos cannot silently change an experiment.
Parsing produces plain dataclasses; the runtime objects (samplers, fields,
projection region) are assembled from them in asyncsa.core.

The canonical dict form returned by ``run_config_to_dict`` is what gets
embedded in every output file next to the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .errors import ConfigError
from .norms import norm_from_config
from .schedules import (
    ActivationPolicy,
    AllActive,
    StepSizePolicy,
    activation_from_config,
    step_policy_from_config,
)
from .stochastics import (
    DelayModel,
    ErrorModel,
    NoiseModel,
    ZeroDelays,
    ZeroErrors,
    ZeroNoise,
    delay_model_from_config,
    error_model_from_config,
    noise_model_from_config,
)

__all__ = [
    "QuadraticObjective",
    "ScaledIdentityObjective",
    "BellmanObjective",
    "GradientObjective",
    "ProjectionSpec",
    "RunConfig",
    "SweepSpec",
    "load_config_file",
    "parse_run_config",
    "parse_sweep_config",
    "run_config_to_dict",
]


# ---------------------------------------------------------------------------
# objective specs


@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """Per-agent positive-definite quadratic drive.

    matrices is either the string "random" (one seeded PD matrix per
    agent, drawn from the run's instance stream) or an explicit matrix /
    list of per-agent matrices.
    """

    matrices: Any = "random"
    kind: str = field(default="quadratic", init=False)

    def to_config(self) -> dict:
        m = self.matrices
        if isinstance(m, str):
            return {"kind": "quadratic", "matrices": m}
        return {"kind": "quadratic", "matrices": np.asarray(m).tolist()}


@dataclass(frozen=True)
class ScaledIdentityObjective:
    gain: float
    kind: str = field(default="scaled-identity", init=False)

    def to_config(self) -> dict:
        return {"kind": "scaled-identity", "gain": float(self.gain)}


@dataclass(frozen=True)
class BellmanObjective:
    """Value-iteration residual drive on a finite MDP.

    Exactly one of ``fixture`` (path to a fixture file) or ``states``/
    ``actions`` (seeded random instance) must be given.
    """

    fixture: str | None = None
    states: int | None = None
    actions: int | None = None
    discount: float = 0.9
    mdp_seed: int = 0
    kind: str = field(default="bellman-residual", init=False)

    def __post_init__(self):
        have_fixture = self.fixture is not None
        have_random = self.states is not None or self.actions is not None
        if have_fixture == have_random:
            raise ConfigError(
                "bellman objective needs either a fixture path or states/actions"
            )
        if have_random and (self.states is None or self.actions is None):
            raise ConfigError("random bellman objective needs states and actions")

    def to_config(self) -> dict:
        out: dict[str, Any] = {"kind": "bellman-residual"}
        if self.fixture is not None:
            out["fixture"] = self.fixture
        else:
            out.update(
                states=int(self.states),
                actions=int(self.actions),
                discount=float(self.discount),
                mdp_seed=int(self.mdp_seed),
            )
        return out


@dataclass(frozen=True, eq=False)
class GradientObjective:
    """Descent drive -grad(pi) on a named benchmark surface."""

    surface: str = "quadratic-bowl"
    a: float = 1.0
    b: float = 100.0
    matrix: Any = None
    kind: str = field(default="gradient-descent", init=False)

    def __post_init__(self):
        if self.surface not in ("quadratic-bowl", "rosenbrock"):
            raise ConfigError(f"unknown surface {self.surface!r}")

    def to_config(self) -> dict:
        out: dict[str, Any] = {"kind": "gradient-descent", "surface": self.surface}
        if self.surface == "rosenbrock":
            out.update(a=float(self.a), b=float(self.b))
        elif self.matrix is not None:
            out["matrix"] = np.asarray(self.matrix).tolist()
        return out


ObjectiveSpec = (
    QuadraticObjective | ScaledIdentityObjective | BellmanObjective | GradientObjective
)


def _objective_from_config(spec: dict) -> ObjectiveSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("objective config must be a mapping with a 'kind' key")
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        if kind == "quadratic":
            obj = QuadraticObjective(matrices=spec.pop("matrices", "random"))
        elif kind == "scaled-identity":
            obj = ScaledIdentityObjective(gain=float(spec.pop("gain")))
        elif kind == "bellman-residual":
            obj = BellmanObjective(
                fixture=spec.pop("fixture", None),
                states=spec.pop("states", None),
                actions=spec.pop("actions", None),
                discount=float(spec.pop("discount", 0.9)),
                mdp_seed=int(spec.pop("mdp_seed", 0)),
            )
        elif kind == "gradient-descent":
            obj = GradientObjective(
                surface=spec.pop("surface", "quadratic-bowl"),
                a=float(spec.pop("a", 1.0)),
                b=float(spec.pop("b", 100.0)),
                matrix=spec.pop("matrix", None),
            )
        else:
            raise ConfigError(f"unknown objective kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"objective config missing key {exc.args[0]!r}") from None
    if spec:
        raise ConfigError(f"unknown objective keys: {sorted(spec)}")
    return obj


# ---------------------------------------------------------------------------
# projection spec


@dataclass(frozen=True, eq=False)
class ProjectionSpec:
    r_inner: float
    r_outer: float
    center: Any = None
    norm: dict | None = None

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ConfigError("projection needs 0 < r_inner < r_outer")

    def to_config(self) -> dict:
        out: dict[str, Any] = {
            "r_inner": float(self.r_inner),
            "r_outer": float(self.r_outer),
        }
        if self.center is not None:
            out["center"] = np.asarray(self.center).tolist()
        if self.norm is not None:
            out["norm"] = dict(self.norm)
        return out


def _projection_from_config(spec: dict | None, d: int) -> ProjectionSpec | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError("projection config must be a mapping")
    spec = dict(spec)
    try:
        proj = ProjectionSpec(
            r_inner=float(spec.pop("r_inner")),
            r_outer=float(spec.pop("r_outer")),
            center=spec.pop("center", None),
            norm=spec.pop("norm", None),
        )
    except KeyError as exc:
        raise ConfigError(f"projection config missing key {exc.args[0]!r}") from None
    if spec:
        raise ConfigError(f"unknown projection keys: {sorted(spec)}")
    if proj.center is not None and np.asarray(proj.center, dtype=float).shape != (d,):
        raise ConfigError(f"projection center must have length {d}")
    norm_from_config(proj.norm, d)  # validates eagerly
    return proj


# ---------------------------------------------------------------------------
# run config


@dataclass(eq=False)
class RunConfig:
    dimension: int
    horizon: int
    seed: int
    objective: ObjectiveSpec
    steps: StepSizePolicy
    activation: ActivationPolicy = field(default_factory=AllActive)
    delays: DelayModel = field(default_factory=ZeroDelays)
    errors: ErrorModel = field(default_factory=ZeroErrors)
    noise: NoiseModel = field(default_factory=ZeroNoise)
    projection: ProjectionSpec | None = None
    x0: np.ndarray | None = None
    out: str | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.seed < 0 or self.seed > (1 << 64) - 1:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (self.dimension,):
                raise ConfigError(f"x0 must have length {self.dimension}")
            self.x0 = x0


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML/JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return data


def parse_run_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run config must be a mapping")
    data = dict(data)
    try:
        dimension = int(data.pop("dimension"))
        horizon = int(data.pop("horizon"))
        seed = int(data.pop("seed"))
        objective = _objective_from_config(data.pop("objective"))
    except KeyError as exc:
        raise ConfigError(f"run config missing key {exc.args[0]!r}") from None
    steps = step_policy_from_config(data.pop("steps", {"kind": "harmonic", "c": 1.0}))
    activation = activation_from_config(data.pop("activation", None))
    delays = delay_model_from_config(data.pop("delays", None))
    errors = error_model_from_config(data.pop("errors", None), dimension)
    noise = noise_model_from_config(data.pop("noise", None))
    projection = _projection_from_config(data.pop("projection", None), dimension)
    x0 = data.pop("x0", None)
    out = data.pop("out", None)
    if data:
        raise ConfigError(f"unknown run config keys: {sorted(data)}")
    return RunConfig(
        dimension=dimension,
        horizon=horizon,
        seed=seed,
        objective=objective,
        steps=steps,
        activation=activation,
        delays=delays,
        errors=errors,
        noise=noise,
        projection=projection,
        x0=None if x0 is None else np.asarray(x0, dtype=float),
        out=None if out is None else str(out),
    )


def run_config_to_dict(cfg: RunConfig, x0: np.ndarray | None = None) -> dict:
    """Canonical plain-dict form; pass the materialised x0 to embed it."""
    x0_out = x0 if x0 is not None else cfg.x0
    return {
        "dimension": int(cfg.dimension),
        "horizon": int(cfg.horizon),
        "seed": int(cfg.seed),
        "objective": cfg.objective.to_config(),
        "steps": cfg.steps.to_config(),
        "activation": cfg.activation.to_config(),
        "delays": cfg.delays.to_config(),
        "errors": cfg.errors.to_config(),
        "noise": cfg.noise.to_config(),
        "projection": None if cfg.projection is None else cfg.projection.to_config(),
        "x0": None if x0_out is None else [float(v) for v in x0_out],
    }


# ---------------------------------------------------------------------------
# sweep config


_AGGREGATES = ("final-norm", "log-final-norm", "residual")


@dataclass(eq=False)
class SweepSpec:
    """Cartesian grid over dotted config paths, replicated over derived
    seeds.

    Cell seeds are base_seed XOR canonical cell index, where the canonical
    index enumerates the grid with parameter names and values sorted, so
    reordering lists in the file never changes any cell's result.
    """

    base: dict
    parameters: dict[str, list]
    replicates: int = 1
    aggregate: str = "final-norm"

    def __post_init__(self):
        if not self.parameters:
            raise ConfigError("sweep needs at least one parameter axis")
        if self.replicates < 1:
            raise ConfigError("sweep replicates must be >= 1")
        if self.aggregate not in _AGGREGATES:
            raise ConfigError(
                f"unknown aggregate {self.aggregate!r}; pick one of {_AGGREGATES}"
            )
        canon = {}
        for path in sorted(self.parameters):
            values = list(self.parameters[path])
            if not values:
                raise ConfigError(f"sweep axis {path!r} has no values")
            canon[path] = sorted(values)
        self.parameters = canon

    def cells(self) -> list[dict]:
        """Canonical cell list: index, overrides, replicate, derived seed."""
        base_seed = int(self.base.get("seed", 0))
        axes = list(self.parameters.items())
        cells = []
        index = 0

        def rec(k, overrides):
            nonlocal index
            if k == len(axes):
                for rep in range(self.replicates):
                    cells.append(
                        {
                            "index": index,
                            "overrides": dict(overrides),
                            "replicate": rep,
                            "seed": base_seed ^ index,
                        }
                    )
                    index += 1
                return
            path, values = axes[k]
            for v in values:
                overrides[path] = v
                rec(k + 1, overrides)
            del overrides[path]

        rec(0, {})
        return cells


def set_by_path(data: dict, path: str, value) -> None:
    """Set a dotted path like 'errors.bound' inside a nested mapping."""
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            raise ConfigError(f"sweep path {path!r} does not resolve in the base config")
        node = nxt
    if parts[-1] not in node:
        raise ConfigError(f"sweep path {path!r} does not resolve in the base config")
    node[parts[-1]] = value


def parse_sweep_config(data: dict) -> SweepSpec:
    if not isinstance(data, dict):
        raise ConfigError("sweep config must be a mapping")
    data = dict(data)
    try:
        base = data.pop("base")
        sweep = data.pop("sweep")
    except KeyError as exc:
        raise ConfigError(f"sweep config missing key {exc.args[0]!r}") from None
    if data:
        raise ConfigError(f"unknown sweep config keys: {sorted(data)}")
    if not isinstance(base, dict):
        raise ConfigError("sweep 'base' must be a run config mapping")
    if not isinstance(sweep, dict):
        raise ConfigError("'sweep' must be a mapping")
    sweep = dict(sweep)
    try:
        parameters = sweep.pop("parameters")
    except KeyError:
        raise ConfigError("sweep config missing key 'parameters'") from None
    replicates = int(sweep.pop("replicates", 1))
    aggregate = sweep.pop("aggregate", "final-norm")
    if sweep:
        raise ConfigError(f"unknown sweep keys: {sorted(sweep)}")
    if not isinstance(parameters, dict):
        raise ConfigError("sweep parameters must map dotted paths to value lists")
    spec = SweepSpec(
        base=base,
        parameters={str(k): list(v) for k, v in parameters.items()},
        replicates=replicates,
        aggregate=str(aggregate),
    )
    parse_run_config(base)  # the base must stand on its own
    for cell in spec.cells():
        if cell["replicate"]:
            continue  # replicates differ only in their seed
        probe = json.loads(json.dumps(base))
        for path, value in cell["overrides"].items():
            set_by_path(probe, path, value)
        parse_run_config(probe)
    return spec

"""Declarative run and sweep configs.

Configs are YAML (or JSON) mappings with a fixed vocabulary; unknown keys
anywhere are hard errors so typos cannot silently change an experiment.

Every kind-tagged block (objective, steps, activation, delays, errors,
noise, norm) and the projection block is read and written by one codec.
Each spec dataclass is the only statement of its grammar: its init fields
are the block's keys, fields without a default are required, and fields
annotated ``float``, ``int`` or ``bool`` are cast on the way in and out.
``spec_from_config`` looks the ``kind`` up in :data:`SPEC_FAMILIES`;
``spec_to_config`` writes the kind and every init field that is not None.
Field metadata adds what an annotation cannot say: ``family`` for a
nested spec, ``length`` for a vector that needs one entry per agent and
``fill`` for the default of such a vector.  The runtime objects (samplers,
fields, projection region) are assembled from the parsed specs in
asyncsa.core.

The canonical dict form returned by ``run_config_to_dict`` is what gets
embedded in every output file next to the seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import Any, get_args

import numpy as np
import yaml

from .errors import ConfigError
from .norms import Norm
from .schedules import (
    ActivationPolicy,
    AllActive,
    HarmonicSteps,
    StepSizePolicy,
    check_policy_shape,
)
from .stochastics import (
    DelayModel,
    ErrorModel,
    NoiseModel,
    ZeroDelays,
    ZeroErrors,
    ZeroNoise,
    check_model_shape,
)

__all__ = [
    "QuadraticObjective",
    "ScaledIdentityObjective",
    "BellmanObjective",
    "GradientObjective",
    "ProjectionSpec",
    "RunConfig",
    "SweepSpec",
    "SPEC_FAMILIES",
    "spec_from_config",
    "spec_to_config",
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


@dataclass(frozen=True)
class ScaledIdentityObjective:
    gain: float
    kind: str = field(default="scaled-identity", init=False)


@dataclass(frozen=True)
class BellmanObjective:
    """Value-iteration residual drive on a finite MDP.

    Exactly one of ``fixture`` (path to a fixture file) or ``states``/
    ``actions`` (seeded random instance) must be given.  ``discount`` and
    ``mdp_seed`` belong to random instances only (defaults 0.9 and 0); a
    fixture file states its own discount.
    """

    fixture: str | None = None
    states: int | None = None
    actions: int | None = None
    discount: float | None = None
    mdp_seed: int | None = None
    kind: str = field(default="bellman-residual", init=False)

    def __post_init__(self):
        have_fixture = self.fixture is not None
        have_random = self.states is not None or self.actions is not None
        if have_fixture == have_random:
            raise ConfigError(
                "bellman objective needs either a fixture path or states/actions"
            )
        if have_fixture:
            if self.discount is not None or self.mdp_seed is not None:
                raise ConfigError(
                    "a bellman fixture takes no discount or mdp_seed")
            return
        if self.states is None or self.actions is None:
            raise ConfigError("random bellman objective needs states and actions")
        if self.discount is None:
            object.__setattr__(self, "discount", 0.9)
        if self.mdp_seed is None:
            object.__setattr__(self, "mdp_seed", 0)


@dataclass(frozen=True, eq=False)
class GradientObjective:
    """Descent drive -grad(pi) on a named benchmark surface.

    ``a`` and ``b`` belong to rosenbrock only (defaults 1 and 100);
    ``matrix`` to quadratic-bowl only (default identity).
    """

    surface: str = "quadratic-bowl"
    a: float | None = None
    b: float | None = None
    matrix: Any = None
    kind: str = field(default="gradient-descent", init=False)

    def __post_init__(self):
        if self.surface == "rosenbrock":
            if self.matrix is not None:
                raise ConfigError("rosenbrock surface takes no matrix")
            if self.a is None:
                object.__setattr__(self, "a", 1.0)
            if self.b is None:
                object.__setattr__(self, "b", 100.0)
        elif self.surface == "quadratic-bowl":
            if self.a is not None or self.b is not None:
                raise ConfigError("quadratic-bowl surface takes no a or b")
        else:
            raise ConfigError(f"unknown surface {self.surface!r}")


ObjectiveSpec = (
    QuadraticObjective | ScaledIdentityObjective | BellmanObjective | GradientObjective
)


# ---------------------------------------------------------------------------
# projection spec


@dataclass(frozen=True, eq=False)
class ProjectionSpec:
    """Projection region as configured; ``norm`` stays the config mapping
    (None means Euclidean) and is built with the run's dimension."""

    r_inner: float
    r_outer: float
    center: Any = field(default=None, metadata={"length": "projection center"})
    norm: dict | None = None

    def __post_init__(self):
        if not 0 < self.r_inner < self.r_outer:
            raise ConfigError("projection needs 0 < r_inner < r_outer")


# ---------------------------------------------------------------------------
# spec codec

SPEC_FAMILIES = {
    "objective": ObjectiveSpec,
    "steps": StepSizePolicy,
    "activation": ActivationPolicy,
    "delays": DelayModel,
    "errors": ErrorModel,
    "noise": NoiseModel,
    "norm": Norm,
}

_KINDS = {
    family: {cls.kind: cls for cls in get_args(union)}
    for family, union in SPEC_FAMILIES.items()
}


def _boolean(value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise TypeError


def _integer(value) -> int:
    """An integer or an integral float, never a bool or a truncated number."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise TypeError


def _shape(value) -> tuple | None:
    """Shape of ``value`` as a float array; None when it is not one."""
    try:
        return np.asarray(value, dtype=float).shape
    except (TypeError, ValueError):
        return None


# field annotation -> (cast on parse, cast on write, what the parse accepts)
_CASTS = {
    "float": (float, float, "a number"),
    "int": (_integer, int, "an integer"),
    "bool": (_boolean, bool, "true or false"),
}


@cache
def _keys(cls) -> tuple[tuple, frozenset]:
    """``(name, required, cast, metadata)`` of each init field of a spec
    class, and the keys its config block may hold; read once per class."""
    keys = tuple(
        (f.name,
         f.default is MISSING and f.default_factory is MISSING
         and "fill" not in f.metadata,
         _CASTS.get(str(f.type).removesuffix(" | None")),
         f.metadata)
        for f in fields(cls) if f.init
    )
    allowed = {name for name, *_ in keys} | ({"kind"} if hasattr(cls, "kind") else set())
    return keys, frozenset(allowed)


def _checked_cast(family: str, name: str, cast: tuple, value):
    try:
        return cast[0](value)
    except (TypeError, ValueError):
        raise ConfigError(f"{family} {name} must be {cast[2]}, got {value!r}") from None


def spec_from_config(family: str, mapping, d: int):
    """Parse one config block for a run of dimension ``d``; ``family`` is
    a key of :data:`SPEC_FAMILIES` or ``"projection"``."""
    if family == "projection":
        if not isinstance(mapping, dict):
            raise ConfigError("projection config must be a mapping")
        cls = ProjectionSpec
    else:
        if not isinstance(mapping, dict) or "kind" not in mapping:
            raise ConfigError(f"{family} config must be a mapping with a 'kind' key")
        kind = mapping["kind"]
        cls = _KINDS[family].get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ConfigError(f"unknown {family} kind {kind!r}")
    keys, allowed = _keys(cls)
    kwargs = {}
    for name, required, cast, meta in keys:
        value = mapping.get(name)
        if value is None:
            if "fill" in meta:
                value = meta["fill"](d)
            elif required:
                raise ConfigError(f"{family} config missing key {name!r}")
            else:
                continue
        elif "family" in meta:
            value = spec_from_config(meta["family"], value, d)
        elif cast is not None:
            value = _checked_cast(family, name, cast, value)
        if "length" in meta:
            if _shape(value) != (d,):
                raise ConfigError(f"{meta['length']} must have length {d}")
        kwargs[name] = value
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {family} keys: {sorted(unknown)}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {family} config {dict(mapping)!r}: {exc}") from None


def spec_to_config(spec) -> dict:
    """Canonical plain-dict form of a spec: its kind and every init field
    that is not None, nested specs recursively and arrays as lists."""
    out = {"kind": spec.kind} if hasattr(spec, "kind") else {}
    for name, _, cast, meta in _keys(type(spec))[0]:
        value = getattr(spec, name)
        if value is None:
            continue
        if "family" in meta:
            value = spec_to_config(value)
        elif cast is not None:
            value = cast[1](value)
        elif isinstance(value, dict):
            value = dict(value)
        elif not isinstance(value, str):
            value = np.asarray(value).tolist()
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# run config


@dataclass(eq=False)
class RunConfig:
    dimension: int
    horizon: int
    seed: int
    objective: ObjectiveSpec
    steps: StepSizePolicy = field(default_factory=HarmonicSteps)
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
            self.x0 = np.asarray(self.x0, dtype=float)
        _check_dimension(self)


def _check_dimension(cfg: RunConfig) -> None:
    """Check every spec whose shape depends on ``dimension`` against it.
    Only a Bellman fixture's state count waits for the runtime: it needs
    the file."""
    d = cfg.dimension

    def need(ok: bool, message: str) -> None:
        if not ok:
            raise ConfigError(message)

    need(cfg.x0 is None or cfg.x0.shape == (d,), f"x0 must have length {d}")
    obj = cfg.objective
    if isinstance(obj, QuadraticObjective) and not isinstance(obj.matrices, str):
        need(_shape(obj.matrices) in ((d, d), (d, d, d)),
             f"quadratic matrices must have shape ({d}, {d}) or ({d}, {d}, {d})")
    elif isinstance(obj, BellmanObjective) and obj.fixture is None:
        need(obj.states == d,
             f"dimension {d} does not match the {obj.states}-state problem")
    elif isinstance(obj, GradientObjective):
        if obj.surface == "rosenbrock":
            need(d == 2, "rosenbrock surface needs dimension 2")
        elif obj.matrix is not None:
            need(_shape(obj.matrix) == (d, d), f"bowl matrix must have shape ({d}, {d})")
    check_policy_shape(cfg.activation, d)
    check_model_shape(cfg.delays, d)
    check_model_shape(cfg.errors, d)
    projection = cfg.projection
    if projection is not None:
        need(projection.center is None or _shape(projection.center) == (d,),
             f"projection center must have length {d}")
        if projection.norm is not None:
            spec_from_config("norm", projection.norm, d)  # a bad norm block raises


# the optional run-config blocks, in canonical order
_BLOCKS = ("steps", "activation", "delays", "errors", "noise", "projection")


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
        dimension, horizon, seed = (
            _checked_cast("run config", name, _CASTS["int"], data.pop(name))
            for name in ("dimension", "horizon", "seed")
        )
        objective = data.pop("objective")
    except KeyError as exc:
        raise ConfigError(f"run config missing key {exc.args[0]!r}") from None
    if dimension < 1:  # checked first: block defaults are sized by it
        raise ConfigError("dimension must be >= 1")
    blocks = {"objective": spec_from_config("objective", objective, dimension)}
    for name in _BLOCKS:
        value = data.pop(name, None)
        if value is not None:
            blocks[name] = spec_from_config(name, value, dimension)
    x0 = data.pop("x0", None)
    out = data.pop("out", None)
    if data:
        raise ConfigError(f"unknown run config keys: {sorted(data)}")
    if x0 is not None:
        try:
            x0 = np.asarray(x0, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"x0 must be a vector of numbers, got {x0!r}") from None
    return RunConfig(
        dimension=dimension,
        horizon=horizon,
        seed=seed,
        x0=x0,
        out=None if out is None else str(out),
        **blocks,
    )


def run_config_to_dict(cfg: RunConfig, x0: np.ndarray | None = None) -> dict:
    """Canonical plain-dict form; pass the materialised x0 to embed it."""
    x0_out = x0 if x0 is not None else cfg.x0
    out = {
        "dimension": int(cfg.dimension),
        "horizon": int(cfg.horizon),
        "seed": int(cfg.seed),
        "objective": spec_to_config(cfg.objective),
    }
    for name in _BLOCKS:
        spec = getattr(cfg, name)
        out[name] = None if spec is None else spec_to_config(spec)
    out["x0"] = None if x0_out is None else [float(v) for v in x0_out]
    return out


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
        """Canonical cell list: index, overrides, replicate, derived seed.
        Grid points run over the sorted axes, the last axis fastest."""
        base_seed = int(self.base.get("seed", 0))
        points = itertools.product(*self.parameters.values())
        runs = ((dict(zip(self.parameters, point)), rep)
                for point in points for rep in range(self.replicates))
        return [
            {"index": i, "overrides": overrides, "replicate": rep, "seed": base_seed ^ i}
            for i, (overrides, rep) in enumerate(runs)
        ]

    def cell_config(self, cell: dict) -> dict:
        """The run-config mapping of one cell: a copy of ``base`` with the
        cell's overrides and seed."""
        data = json.loads(json.dumps(self.base))
        for path, value in cell["overrides"].items():
            set_by_path(data, path, value)
        data["seed"] = cell["seed"]
        return data


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
    replicates = _checked_cast("sweep", "replicates", _CASTS["int"],
                               sweep.pop("replicates", 1))
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
        parse_run_config(spec.cell_config(cell))
    return spec

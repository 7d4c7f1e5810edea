"""Scenario files: YAML ingestion, validation, defaults and echo.

A scenario fully describes one run: grid, goods, agents (endowment curves
as closed forms sampled at cell midpoints, utility family + coefficients),
the cap slack, the solver parameters and an optional radius schedule.  The
schema is strict: unknown fields are rejected so acceptance fixtures stay
reproducible.  The solver section loads straight into `QVIParams`, which
checks its own fields, as every number goes through the package's own
checks; this module adds only what YAML needs (dotless exponents, unknown
and retired keys) and prefixes each error with its path.  See README for
the documented schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
import yaml

from .economy import Agent, Economy, LogShift, Quadratic, require_cap_slack
from .errors import require_integer, require_positive_real
from .grids import GridFunction, TimeGrid, make_grid
from .qvi import QVIParams, require_radius_schedule

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Parse or semantic validation failure, with a field path."""


@dataclass(frozen=True)
class CurveSpec:
    """A closed-form scalar curve on [0, horizon], sampled at cell midpoints."""

    kind: str
    level: float = 0.0
    start: float = 0.0
    end: float = 0.0
    base: float = 0.0
    amplitude: float = 0.0
    frequency: float = 1.0
    phase: float = 0.0

    def sample(self, grid: TimeGrid) -> np.ndarray:
        t = grid.midpoints()
        if self.kind == "constant":
            return np.full(grid.cells, self.level)
        if self.kind == "linear":
            return self.start + (self.end - self.start) * (t / grid.horizon)
        if self.kind == "sinusoid":
            return self.base + self.amplitude * np.sin(2 * np.pi * self.frequency * t + self.phase)
        raise ScenarioError(f"unknown curve kind {self.kind!r}")

    def to_mapping(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "level": self.level}
        if self.kind == "linear":
            return {"kind": "linear", "start": self.start, "end": self.end}
        return {
            "kind": "sinusoid",
            "base": self.base,
            "amplitude": self.amplitude,
            "frequency": self.frequency,
            "phase": self.phase,
        }


_CURVE_FIELDS = {
    "constant": {"level"},
    "linear": {"start", "end"},
    "sinusoid": {"base", "amplitude", "frequency", "phase"},
}
_CURVE_REQUIRED = {
    "constant": {"level"},
    "linear": {"start", "end"},
    "sinusoid": {"base", "amplitude"},
}


def _parse_curve(node, path: str) -> CurveSpec:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return CurveSpec(kind="constant", level=float(node))
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a number or a curve mapping, got {node!r}")
    kind = node.get("kind")
    if kind not in _CURVE_FIELDS:
        raise ScenarioError(f"{path}.kind: must be one of {sorted(_CURVE_FIELDS)}, got {kind!r}")
    allowed = _CURVE_FIELDS[kind] | {"kind"}
    unknown = set(node) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {sorted(unknown)} for kind {kind!r}")
    missing = _CURVE_REQUIRED[kind] - set(node)
    if missing:
        raise ScenarioError(f"{path}: missing field(s) {sorted(missing)} for kind {kind!r}")
    kwargs = {k: float(v) for k, v in node.items() if k != "kind"}
    return CurveSpec(kind=kind, **kwargs)


@dataclass(frozen=True)
class UtilityConfig:
    family: str
    weights: tuple
    bliss: tuple = ()      # quadratic only: one curve per good
    shift: float = 1.0     # logshift only

    def to_mapping(self) -> dict:
        if self.family == "quadratic":
            return {
                "family": "quadratic",
                "bliss": [c.to_mapping() for c in self.bliss],
                "weights": list(self.weights),
            }
        return {"family": "logshift", "weights": list(self.weights), "shift": self.shift}


@dataclass(frozen=True)
class AgentConfig:
    endowment: tuple
    utility: UtilityConfig

    def to_mapping(self) -> dict:
        return {
            "endowment": [c.to_mapping() for c in self.endowment],
            "utility": self.utility.to_mapping(),
        }


#: solver keys schema v1 still accepts but drops: no bundled scenario set
#: them, and they no longer change a run
_RETIRED_SOLVER_KEYS = {
    "sequential", "product_step", "max_product", "inner_step", "outer_step", "max_inner"
}
#: the `QVIParams` fields a scenario sets; the start price is API-only
_SOLVER_FIELDS = tuple(f.name for f in fields(QVIParams) if f.name != "start_price")


@dataclass(frozen=True)
class Scenario:
    horizon: float
    cells: int
    goods: int
    agents: tuple
    cap_slack: float = 1.1
    solver: QVIParams = field(default_factory=QVIParams)
    radius_schedule: Optional[tuple] = None

    def to_mapping(self) -> dict:
        solver = {name: getattr(self.solver, name) for name in _SOLVER_FIELDS}
        solver["radius_schedule"] = list(self.radius_schedule) if self.radius_schedule else None
        return {
            "schema_version": SCHEMA_VERSION,
            "grid": {"horizon": self.horizon, "cells": self.cells},
            "goods": self.goods,
            "cap_slack": self.cap_slack,
            "agents": [a.to_mapping() for a in self.agents],
            "solver": solver,
        }


def _require_keys(node: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(node).__name__}")
    unknown = set(node) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ScenarioError(f"{path}: missing field(s) {sorted(missing)}")


def _parse_utility(node, goods: int, path: str) -> UtilityConfig:
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    family = node.get("family")
    if family == "quadratic":
        _require_keys(node, {"family", "bliss", "weights"}, {"family", "bliss", "weights"}, path)
        bliss = node["bliss"]
        if not isinstance(bliss, list) or len(bliss) != goods:
            raise ScenarioError(f"{path}.bliss: need one entry per good ({goods})")
        curves = tuple(_parse_curve(b, f"{path}.bliss[{j}]") for j, b in enumerate(bliss))
        weights = _parse_weights(node["weights"], goods, f"{path}.weights")
        return UtilityConfig(family="quadratic", weights=weights, bliss=curves)
    if family == "logshift":
        _require_keys(node, {"family", "weights", "shift"}, {"family", "weights"}, path)
        weights = _parse_weights(node["weights"], goods, f"{path}.weights")
        shift = _positive_real(f"{path}.shift", node.get("shift", 1.0))
        return UtilityConfig(family="logshift", weights=weights, shift=shift)
    raise ScenarioError(f"{path}.family: must be 'quadratic' or 'logshift', got {family!r}")


def _parse_weights(node, goods: int, path: str) -> tuple:
    if not isinstance(node, list) or len(node) != goods:
        raise ScenarioError(f"{path}: need one weight per good ({goods})")
    return tuple(_positive_real(f"{path}[{j}]", w) for j, w in enumerate(node))


def _checked(prefix: str, check, *args, **kwargs):
    """`check(*args, **kwargs)`, a check whose ValueError starts with the
    name it checks, with that error raised as a ScenarioError after the
    path `prefix`."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{prefix}{exc}") from None


def _dotless_exponent(value):
    """PyYAML reads `1e-7` (no dot) as a string; float() reads it as meant.
    Other values are returned as they are, for the caller's check to name."""
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


def _positive_real(path: str, value) -> float:
    return _checked("", require_positive_real, path, _dotless_exponent(value))


def parse_scenario(mapping: dict) -> Scenario:
    """Validate a parsed YAML mapping and fill defaults."""
    _require_keys(
        mapping,
        {"schema_version", "grid", "goods", "cap_slack", "agents", "solver"},
        {"schema_version", "grid", "goods", "agents"},
        "scenario",
    )
    version = mapping["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    _require_keys(mapping["grid"], {"horizon", "cells"}, {"horizon", "cells"}, "scenario.grid")
    horizon = _positive_real("scenario.grid.horizon", mapping["grid"]["horizon"])
    cells = _checked("", require_integer, "scenario.grid.cells", mapping["grid"]["cells"], 1)
    goods = _checked("", require_integer, "scenario.goods", mapping["goods"], 1)
    slack = _dotless_exponent(mapping.get("cap_slack", 1.1))
    cap_slack = _checked("", require_cap_slack, "scenario.cap_slack", slack)

    agents_node = mapping["agents"]
    if not isinstance(agents_node, list) or not agents_node:
        raise ScenarioError("scenario.agents: need a non-empty list")
    agents = []
    for i, a in enumerate(agents_node):
        path = f"scenario.agents[{i}]"
        _require_keys(a, {"endowment", "utility"}, {"endowment", "utility"}, path)
        endow = a["endowment"]
        if not isinstance(endow, list) or len(endow) != goods:
            raise ScenarioError(f"{path}.endowment: need one curve per good ({goods})")
        curves = tuple(_parse_curve(c, f"{path}.endowment[{j}]") for j, c in enumerate(endow))
        utility = _parse_utility(a["utility"], goods, f"{path}.utility")
        agents.append(AgentConfig(endowment=curves, utility=utility))

    solver_node = mapping.get("solver", {}) or {}
    _require_keys(
        solver_node,
        {*_SOLVER_FIELDS, "radius_schedule", *_RETIRED_SOLVER_KEYS},
        set(),
        "scenario.solver",
    )
    kwargs = {k: v for k, v in solver_node.items() if k in _SOLVER_FIELDS}
    for key in ("outer_tol", "inner_tol"):
        if key in kwargs:
            kwargs[key] = _dotless_exponent(kwargs[key])
    solver = _checked("scenario.solver.", QVIParams, **kwargs)
    sched = solver_node.get("radius_schedule")
    if sched is not None:
        if not isinstance(sched, list):
            raise ScenarioError("scenario.solver.radius_schedule: need a list of positive reals")
        sched = _checked(
            "scenario.solver.", require_radius_schedule, "radius_schedule",
            [_dotless_exponent(r) for r in sched],
        )

    return Scenario(
        horizon=horizon,
        cells=cells,
        goods=goods,
        agents=tuple(agents),
        cap_slack=cap_slack,
        solver=solver,
        radius_schedule=sched,
    )


#: libyaml's safe loader where PyYAML was built with it: the same mappings,
#: about ten times faster than the pure-Python one
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            mapping = yaml.load(fh, Loader=_SAFE_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: not parseable YAML: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{path}: scenario file must hold a mapping at top level")
    return parse_scenario(mapping)


def echo_scenario(scn: Scenario) -> str:
    """Canonical YAML rendering with every default made explicit."""
    return yaml.safe_dump(scn.to_mapping(), sort_keys=False)


def build_economy(scn: Scenario) -> Economy:
    """Sample the scenario's closed forms into an Economy on its grid."""
    grid = make_grid(scn.horizon, scn.cells)
    agents = []
    for i, cfg in enumerate(scn.agents):
        cols = [spec.sample(grid) for spec in cfg.endowment]
        values = np.column_stack(cols)
        if np.min(values) < 0:
            raise ScenarioError(
                f"scenario.agents[{i}].endowment: sampled endowment is negative somewhere"
            )
        endowment = GridFunction(grid, values)
        if cfg.utility.family == "quadratic":
            bliss_vals = np.column_stack([spec.sample(grid) for spec in cfg.utility.bliss])
            spec = Quadratic(GridFunction(grid, bliss_vals), cfg.utility.weights)
        else:
            spec = LogShift(cfg.utility.weights, cfg.utility.shift, grid.cells)
        agents.append(Agent(endowment, spec))
    return Economy(grid, scn.goods, tuple(agents))


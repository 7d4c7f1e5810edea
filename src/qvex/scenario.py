"""Scenario files: YAML ingestion, validation, defaults and echo.

A scenario fully describes one run: grid, goods, agents (endowment curves
as closed forms sampled at cell midpoints, utility family + coefficients),
solver parameters and the cap slack.  The schema is strict: unknown fields
are rejected so acceptance fixtures stay reproducible.  See README for the
documented schema.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np
import yaml

from .economy import Agent, Economy, LogShift, Quadratic
from .grids import GridFunction, TimeGrid, make_grid
from .qvi import QVIParams

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


#: solver keys schema v1 still accepts but drops: no result depended on them
_RETIRED_SOLVER_KEYS = {"sequential", "product_step", "max_product", "inner_step", "outer_step"}


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    outer_tol: float = 1e-7
    inner_tol: float = 1e-8
    max_outer: int = 2000
    max_inner: int = 20000
    radius_schedule: Optional[tuple] = None

    def to_mapping(self) -> dict:
        out = asdict(self)
        out["radius_schedule"] = list(self.radius_schedule) if self.radius_schedule else None
        return out


@dataclass(frozen=True)
class Scenario:
    horizon: float
    cells: int
    goods: int
    agents: tuple
    cap_slack: float = 1.1
    solver: SolverConfig = field(default_factory=SolverConfig)
    schema_version: int = SCHEMA_VERSION

    def to_mapping(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "grid": {"horizon": self.horizon, "cells": self.cells},
            "goods": self.goods,
            "cap_slack": self.cap_slack,
            "agents": [a.to_mapping() for a in self.agents],
            "solver": self.solver.to_mapping(),
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
        shift = float(node.get("shift", 1.0))
        if shift <= 0:
            raise ScenarioError(f"{path}.shift: must be positive, got {shift}")
        return UtilityConfig(family="logshift", weights=weights, shift=shift)
    raise ScenarioError(f"{path}.family: must be 'quadratic' or 'logshift', got {family!r}")


def _parse_weights(node, goods: int, path: str) -> tuple:
    if not isinstance(node, list) or len(node) != goods:
        raise ScenarioError(f"{path}: need one weight per good ({goods})")
    weights = tuple(float(w) for w in node)
    if any(w <= 0 for w in weights):
        raise ScenarioError(f"{path}: weights must be strictly positive")
    return weights


def _integer(value, path: str, lowest: int) -> int:
    # bool is an int subclass, so `true` would otherwise load as 1
    if isinstance(value, bool) or not isinstance(value, int) or value < lowest:
        raise ScenarioError(f"{path}: must be an integer >= {lowest}, got {value!r}")
    return value


def _positive_real(value, path: str) -> float:
    # PyYAML reads `1e-7` (no dot) as a string; float() accepts it
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{path}: expected a number, got {value!r}") from None
    if isinstance(value, bool) or not (np.isfinite(number) and number > 0):
        raise ScenarioError(f"{path}: must be a finite positive number, got {value!r}")
    return number


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
    horizon = _positive_real(mapping["grid"]["horizon"], "scenario.grid.horizon")
    cells = _integer(mapping["grid"]["cells"], "scenario.grid.cells", 1)
    goods = _integer(mapping["goods"], "scenario.goods", 1)
    cap_slack = _positive_real(mapping.get("cap_slack", 1.1), "scenario.cap_slack")
    if cap_slack < 1.05:
        raise ScenarioError(f"scenario.cap_slack: must be >= 1.05, got {cap_slack}")

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
    solver_fields = {f.name for f in fields(SolverConfig)}
    _require_keys(solver_node, solver_fields | _RETIRED_SOLVER_KEYS, set(), "scenario.solver")
    kwargs = {k: v for k, v in solver_node.items() if k not in _RETIRED_SOLVER_KEYS}
    for key in ("outer_tol", "inner_tol"):
        if key in kwargs:
            kwargs[key] = _positive_real(kwargs[key], f"scenario.solver.{key}")
    for key, lowest in (("seed", 0), ("max_outer", 1), ("max_inner", 1)):
        if key in kwargs:
            _integer(kwargs[key], f"scenario.solver.{key}", lowest)
    if kwargs.get("radius_schedule") is not None:
        sched = kwargs["radius_schedule"]
        if not isinstance(sched, list) or any(
            not isinstance(r, (int, float)) or r <= 0 for r in sched
        ):
            raise ScenarioError("scenario.solver.radius_schedule: need a list of positive reals")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ScenarioError("scenario.solver.radius_schedule: must be strictly increasing")
        kwargs["radius_schedule"] = tuple(float(r) for r in sched)
    solver = SolverConfig(**kwargs)

    return Scenario(
        horizon=horizon,
        cells=cells,
        goods=goods,
        agents=tuple(agents),
        cap_slack=cap_slack,
        solver=solver,
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            mapping = yaml.safe_load(fh)
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


def solver_params(scn: Scenario, **overrides) -> QVIParams:
    """Translate the scenario's solver section into QVIParams."""
    cfg = scn.solver
    params = QVIParams(
        outer_tol=cfg.outer_tol,
        inner_tol=cfg.inner_tol,
        max_outer=cfg.max_outer,
        max_inner=cfg.max_inner,
        seed=cfg.seed,
    )
    return replace(params, **overrides) if overrides else params

"""Scenario files: YAML ingestion, validation, defaults and echo.

A scenario fully describes one run: grid, goods, agents (endowment curves
as closed forms sampled at cell midpoints, utility family + coefficients),
the cap slack, the solver parameters and an optional radius schedule.  The
schema is strict: unknown fields are rejected so acceptance fixtures stay
reproducible.  Each agent parses into the mapping the echo prints, with
every default filled in, and `build_economy` samples that same mapping.
The solver section loads into `QVIParams`, which checks its own fields, as
every number goes through the package's own checks; this module adds only
what YAML needs (dotless exponents, unknown and retired keys) and prefixes
each error with its path.  See README for the documented schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
import yaml

from .economy import Agent, Economy, LogShift, Quadratic, require_cap_slack
from .errors import require_finite_real, require_integer, require_positive_real
from .grids import GridFunction, TimeGrid, make_grid
from .qvi import QVIParams, require_radius_schedule

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Parse or semantic validation failure, with a field path."""


#: each curve kind's fields in echo order, with the default of each
#: optional one; None marks the fields a curve must state
_CURVE_FIELDS = {
    "constant": {"level": None},
    "linear": {"start": None, "end": None},
    "sinusoid": {"base": None, "amplitude": None, "frequency": 1.0, "phase": 0.0},
}


def _parse_curve(path: str, node) -> dict:
    """A bare number or a curve mapping as the curve's mapping in echo
    order, with its kind's defaults filled in."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        node = {"kind": "constant", "level": node}
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a number or a curve mapping, got {node!r}")
    kind = node.get("kind")
    if kind not in _CURVE_FIELDS:
        raise ScenarioError(f"{path}.kind: must be one of {sorted(_CURVE_FIELDS)}, got {kind!r}")
    table = _CURVE_FIELDS[kind]
    required = {name for name, default in table.items() if default is None}
    _require_keys(node, {"kind", *table}, required, path)
    curve = {"kind": kind}
    for name, default in table.items():
        curve[name] = _real(f"{path}.{name}", node.get(name, default), require_finite_real)
    return curve


def _sample_curve(curve: dict, grid: TimeGrid) -> np.ndarray:
    """A parsed curve's values at the cell midpoints."""
    t = grid.midpoints()
    if curve["kind"] == "constant":
        return np.full(grid.cells, curve["level"])
    if curve["kind"] == "linear":
        return curve["start"] + (curve["end"] - curve["start"]) * (t / grid.horizon)
    wave = np.sin(2 * np.pi * curve["frequency"] * t + curve["phase"])
    return curve["base"] + curve["amplitude"] * wave


#: solver keys schema v1 still accepts but drops: no bundled scenario set
#: them, and they no longer change a run
_RETIRED_SOLVER_KEYS = {
    "sequential", "product_step", "max_product", "inner_step", "outer_step", "max_inner"
}
#: the `QVIParams` fields a scenario sets; the start price is API-only
_SOLVER_FIELDS = tuple(f.name for f in fields(QVIParams) if f.name != "start_price")


@dataclass(frozen=True)
class Scenario:
    """A validated scenario.  `agents` holds each agent as the mapping
    `{"endowment": [curve, ...], "utility": {...}}` that the echo prints."""

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
            "agents": list(self.agents),
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


def _per_good(parent: dict, key: str, path: str, goods: int, what: str, parse) -> list:
    """`parse(entry path, entry)` on each entry of `parent[key]`, a list
    of one `what` per good."""
    node, path = parent[key], f"{path}.{key}"
    if not isinstance(node, list) or len(node) != goods:
        raise ScenarioError(f"{path}: need one {what} per good ({goods})")
    return [parse(f"{path}[{j}]", v) for j, v in enumerate(node)]


def _parse_utility(node, goods: int, path: str) -> dict:
    """The utility as its family's mapping in echo order."""
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    family = node.get("family")
    if family == "quadratic":
        _require_keys(node, {"family", "bliss", "weights"}, {"family", "bliss", "weights"}, path)
        return {
            "family": family,
            "bliss": _per_good(node, "bliss", path, goods, "entry", _parse_curve),
            "weights": _per_good(node, "weights", path, goods, "weight", _real),
        }
    if family == "logshift":
        _require_keys(node, {"family", "weights", "shift"}, {"family", "weights"}, path)
        return {
            "family": family,
            "weights": _per_good(node, "weights", path, goods, "weight", _real),
            "shift": _real(f"{path}.shift", node.get("shift", 1.0)),
        }
    raise ScenarioError(f"{path}.family: must be 'quadratic' or 'logshift', got {family!r}")


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


def _real(path: str, value, check=require_positive_real) -> float:
    return _checked("", check, path, _dotless_exponent(value))


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
    horizon = _real("scenario.grid.horizon", mapping["grid"]["horizon"])
    cells = _checked("", require_integer, "scenario.grid.cells", mapping["grid"]["cells"], 1)
    goods = _checked("", require_integer, "scenario.goods", mapping["goods"], 1)
    cap_slack = _real("scenario.cap_slack", mapping.get("cap_slack", 1.1), require_cap_slack)

    agents_node = mapping["agents"]
    if not isinstance(agents_node, list) or not agents_node:
        raise ScenarioError("scenario.agents: need a non-empty list")
    agents = []
    for i, a in enumerate(agents_node):
        path = f"scenario.agents[{i}]"
        _require_keys(a, {"endowment", "utility"}, {"endowment", "utility"}, path)
        agents.append({
            "endowment": _per_good(a, "endowment", path, goods, "curve", _parse_curve),
            "utility": _parse_utility(a["utility"], goods, f"{path}.utility"),
        })

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
        values = np.column_stack([_sample_curve(c, grid) for c in cfg["endowment"]])
        if np.min(values) < 0:
            raise ScenarioError(
                f"scenario.agents[{i}].endowment: sampled endowment is negative somewhere"
            )
        utility = cfg["utility"]
        if utility["family"] == "quadratic":
            bliss = np.column_stack([_sample_curve(c, grid) for c in utility["bliss"]])
            spec = Quadratic(GridFunction(grid, bliss), utility["weights"])
        else:
            spec = LogShift(utility["weights"], utility["shift"], grid.cells)
        agents.append(Agent(GridFunction(grid, values), spec))
    return Economy(grid, scn.goods, tuple(agents))

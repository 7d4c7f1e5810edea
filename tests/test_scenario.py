import re
from dataclasses import fields

import numpy as np
import pytest
import yaml

from qvex.qvi import QVIParams
from qvex.scenario import (
    ScenarioError,
    SolverConfig,
    build_economy,
    echo_scenario,
    load_scenario,
    parse_scenario,
    solver_params,
)

MINIMAL = {
    "schema_version": 1,
    "grid": {"horizon": 1.0, "cells": 2},
    "goods": 1,
    "agents": [
        {"endowment": [1.0], "utility": {"family": "logshift", "weights": [1.0], "shift": 1.0}}
    ],
}


def write(tmp_path, mapping, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return path


def test_minimal_scenario_fills_defaults(tmp_path):
    scn = load_scenario(write(tmp_path, MINIMAL))
    assert scn.cap_slack == 1.1
    assert scn.solver.seed == 0
    assert scn.solver.outer_tol == 1e-7
    assert scn.solver.radius_schedule is None
    assert scn.agents[0].endowment[0].kind == "constant"


def test_unknown_fields_rejected(tmp_path):
    bad = dict(MINIMAL)
    bad["extra_knob"] = 3
    with pytest.raises(ScenarioError, match="unknown field"):
        load_scenario(write(tmp_path, bad))
    bad2 = {**MINIMAL, "solver": {"outer_tolerance": 1e-6}}
    with pytest.raises(ScenarioError, match="unknown field"):
        load_scenario(write(tmp_path, bad2))


def test_schema_version_checked(tmp_path):
    bad = {**MINIMAL, "schema_version": 2}
    with pytest.raises(ScenarioError, match="schema_version"):
        load_scenario(write(tmp_path, bad))


def test_cap_slack_strictness(tmp_path):
    bad = {**MINIMAL, "cap_slack": 0.9}
    with pytest.raises(ScenarioError, match="cap_slack"):
        load_scenario(write(tmp_path, bad))
    ok = {**MINIMAL, "cap_slack": 1.05}
    assert load_scenario(write(tmp_path, ok)).cap_slack == 1.05


def test_endowment_arity_checked(tmp_path):
    bad = {
        **MINIMAL,
        "goods": 2,
        "agents": [
            {"endowment": [1.0], "utility": {"family": "logshift", "weights": [1.0, 1.0]}}
        ],
    }
    with pytest.raises(ScenarioError, match="endowment"):
        load_scenario(write(tmp_path, bad))


def test_curve_validation(tmp_path):
    bad = {
        **MINIMAL,
        "agents": [
            {
                "endowment": [{"kind": "sinusoid", "base": 1.0}],
                "utility": {"family": "logshift", "weights": [1.0]},
            }
        ],
    }
    with pytest.raises(ScenarioError, match="missing field"):
        load_scenario(write(tmp_path, bad))
    bad2 = {
        **MINIMAL,
        "agents": [
            {
                "endowment": [{"kind": "constant", "level": 1.0, "slope": 2.0}],
                "utility": {"family": "logshift", "weights": [1.0]},
            }
        ],
    }
    with pytest.raises(ScenarioError, match="unknown field"):
        load_scenario(write(tmp_path, bad2))


def test_parse_error_carries_path(tmp_path):
    bad = {
        **MINIMAL,
        "agents": [
            {"endowment": [1.0], "utility": {"family": "nope", "weights": [1.0]}}
        ],
    }
    with pytest.raises(ScenarioError, match=r"agents\[0\].utility"):
        load_scenario(write(tmp_path, bad))


def test_radius_schedule_validation(tmp_path):
    bad = {**MINIMAL, "solver": {"radius_schedule": [2.0, 1.0]}}
    with pytest.raises(ScenarioError, match="increasing"):
        load_scenario(write(tmp_path, bad))
    ok = {**MINIMAL, "solver": {"radius_schedule": [1.0, 2.0, 4.0]}}
    assert load_scenario(write(tmp_path, ok)).solver.radius_schedule == (1.0, 2.0, 4.0)


def test_echo_round_trip(tmp_path):
    scn = parse_scenario(MINIMAL)
    echoed = tmp_path / "echo.yaml"
    echoed.write_text(echo_scenario(scn), encoding="utf-8")
    again = load_scenario(echoed)
    assert again == scn
    # echo is canonical: echoing the reloaded scenario is byte-identical
    assert echo_scenario(again) == echo_scenario(scn)


def test_echo_round_trip_rich_scenario(scenario_dir):
    scn = load_scenario(scenario_dir / "sinusoid_seasonal.yaml")
    again = parse_scenario(yaml.safe_load(echo_scenario(scn)))
    assert again == scn


def test_build_economy_samples_midpoints(scenario_dir):
    scn = load_scenario(scenario_dir / "sinusoid_seasonal.yaml")
    eco = build_economy(scn)
    assert eco.grid.cells == 16
    assert eco.n_agents == 2
    t = eco.grid.midpoints()
    expected = 1.0 + 0.4 * np.sin(2 * np.pi * t)
    np.testing.assert_allclose(eco.agents[0].endowment.values[:, 0], expected, atol=1e-12)
    lin = 0.4 + (0.8 - 0.4) * t / scn.horizon
    np.testing.assert_allclose(eco.agents[1].endowment.values[:, 1], lin, atol=1e-12)


def test_negative_sampled_endowment_rejected(tmp_path):
    bad = {
        **MINIMAL,
        "agents": [
            {
                "endowment": [{"kind": "sinusoid", "base": 0.1, "amplitude": 5.0}],
                "utility": {"family": "logshift", "weights": [1.0]},
            }
        ],
    }
    with pytest.raises(ScenarioError, match="negative"):
        build_economy(load_scenario(write(tmp_path, bad)))


def test_solver_params_translation(tmp_path):
    mapping = {**MINIMAL, "solver": {"seed": 5, "outer_tol": 1e-6, "max_outer": 77}}
    scn = load_scenario(write(tmp_path, mapping))
    params = solver_params(scn)
    assert params.seed == 5
    assert params.outer_tol == 1e-6
    assert params.max_outer == 77
    overridden = solver_params(scn, seed=9, max_inner=11)
    assert overridden.seed == 9 and overridden.max_inner == 11

    # schema v1 keys that no longer change a run still load, and are dropped
    retired = {
        "sequential": False,
        "product_step": 0.01,
        "max_product": 5,
        "inner_step": 0.1,
        "outer_step": 0.5,
    }
    old = {**MINIMAL, "solver": {**mapping["solver"], **retired}}
    old_scn = load_scenario(write(tmp_path, old, name="old.yaml"))
    assert solver_params(old_scn) == params
    echoed = echo_scenario(old_scn)
    assert not any(key in echoed for key in retired)


def test_every_solver_setting_is_settable_from_a_scenario():
    # the start price is API-only and the radius schedule picks the truncated
    # solve; every other setting must exist on both sides
    params = {f.name for f in fields(QVIParams)} - {"start_price"}
    config = {f.name for f in fields(SolverConfig)} - {"radius_schedule"}
    assert params == config


# raw text: yaml.safe_dump writes floats as `1.0e-07`, never the dotless
# `1e-7` that PyYAML reads back as a string
RAW_MINIMAL = """\
schema_version: 1
grid:
  horizon: 1.0
  cells: 2
goods: 1
cap_slack: 1.1
agents:
  - endowment: [1.0]
    utility: {family: logshift, weights: [1.0], shift: 1.0}
solver:
  seed: 0
"""


def write_raw(tmp_path, old, new):
    assert old in RAW_MINIMAL
    path = tmp_path / "raw.yaml"
    path.write_text(RAW_MINIMAL.replace(old, new), encoding="utf-8")
    return path


def test_dotless_exponent_tolerances_load_as_numbers(tmp_path):
    scn = load_scenario(write_raw(tmp_path, "  seed: 0", "  outer_tol: 1e-7\n  inner_tol: 1e-9"))
    params = solver_params(scn)
    assert params.outer_tol == 1e-7 and params.inner_tol == 1e-9


BAD_FIELDS = [
    ("  seed: 0", "  outer_tol: tight", "scenario.solver.outer_tol"),
    ("  seed: 0", "  outer_tol: 0", "scenario.solver.outer_tol"),
    ("  seed: 0", "  inner_tol: -1e-8", "scenario.solver.inner_tol"),
    ("  seed: 0", "  inner_tol: .inf", "scenario.solver.inner_tol"),
    ("  seed: 0", "  inner_tol: true", "scenario.solver.inner_tol"),
    ("  seed: 0", "  seed: -1", "scenario.solver.seed"),
    ("  seed: 0", "  seed: 1.5", "scenario.solver.seed"),
    ("  seed: 0", "  max_outer: 2.5", "scenario.solver.max_outer"),
    ("  seed: 0", "  max_outer: 0", "scenario.solver.max_outer"),
    ("  seed: 0", "  max_inner: true", "scenario.solver.max_inner"),
    ("  seed: 0", "  max_inner: '100'", "scenario.solver.max_inner"),
    ("horizon: 1.0", "horizon: one", "scenario.grid.horizon"),
    ("cap_slack: 1.1", "cap_slack: .nan", "scenario.cap_slack"),
    ("cells: 2", "cells: true", "scenario.grid.cells"),
    ("goods: 1", "goods: true", "scenario.goods"),
    ("schema_version: 1", "schema_version: true", "scenario.schema_version"),
]


@pytest.mark.parametrize("old, new, path", BAD_FIELDS, ids=[new.strip() for _, new, _ in BAD_FIELDS])
def test_solver_and_count_fields_checked_on_load(tmp_path, old, new, path):
    with pytest.raises(ScenarioError, match=re.escape(path)):
        load_scenario(write_raw(tmp_path, old, new))


def test_oracle_fixture_parses(scenario_dir):
    scn = load_scenario(scenario_dir / "oracle_cd_quad.yaml")
    eco = build_economy(scn)
    assert eco.goods == 2 and eco.n_agents == 2 and eco.grid.cells == 1
    np.testing.assert_allclose(eco.agents[0].endowment.values, [[1.0, 0.2]])

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from qvex.cli import run_solve
from qvex.qvi import QVIParams
from qvex.scenario import (
    ScenarioError,
    build_economy,
    echo_scenario,
    load_scenario,
    parse_scenario,
)

README = Path(__file__).resolve().parent.parent / "README.md"
#: `qvex echo-scenario` of each bundled scenario, one file per scenario
GOLDEN_ECHO = Path(__file__).resolve().parent / "golden" / "echo"

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
    assert scn.radius_schedule is None
    assert scn.agents[0]["endowment"][0]["kind"] == "constant"


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


def test_libyaml_loader_reads_every_scenario_as_the_python_loader_does(scenario_dir):
    files = sorted(scenario_dir.glob("*.yaml"))
    assert len(files) >= 4
    for path in files:
        text = path.read_text(encoding="utf-8")
        mapping = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) == mapping
        assert load_scenario(path) == parse_scenario(mapping), path.name


@pytest.mark.parametrize("text", ["grid: [1, 2", "goods: 1\n  agents: x\n", "a: {b: 1\n", "\t- 1"])
def test_malformed_yaml_names_the_file(tmp_path, text):
    path = tmp_path / "broken.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: not parseable YAML")):
        load_scenario(path)


def test_radius_schedule_validation(tmp_path):
    bad = {**MINIMAL, "solver": {"radius_schedule": [2.0, 1.0]}}
    with pytest.raises(ScenarioError, match="increasing"):
        load_scenario(write(tmp_path, bad))
    ok = {**MINIMAL, "solver": {"radius_schedule": [1.0, 2.0, 4.0]}}
    assert load_scenario(write(tmp_path, ok)).radius_schedule == (1.0, 2.0, 4.0)


@pytest.mark.parametrize(
    "sched", [[True, 2.0], [float("nan"), 50.0], [1.0, float("inf")], [-1.0, 2.0], "5", []]
)
def test_radius_schedule_entries_must_be_finite_positive_numbers(tmp_path, sched):
    bad = {**MINIMAL, "solver": {"radius_schedule": sched}}
    with pytest.raises(ScenarioError, match="radius_schedule"):
        load_scenario(write(tmp_path, bad))


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


def test_every_bundled_scenario_has_a_golden_echo(scenario_dir):
    assert sorted(p.name for p in GOLDEN_ECHO.glob("*.yaml")) == sorted(
        p.name for p in scenario_dir.glob("*.yaml")
    )


@pytest.mark.parametrize("golden", sorted(GOLDEN_ECHO.glob("*.yaml")), ids=lambda p: p.stem)
def test_echo_is_byte_identical_to_its_golden_file(scenario_dir, golden):
    # pins the text itself: key order, number spelling and filled defaults
    text = echo_scenario(load_scenario(scenario_dir / golden.name))
    assert text.encode("utf-8") == golden.read_bytes()


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


def test_every_solver_setting_is_settable_from_a_scenario(tmp_path):
    # the start price is API-only; every other QVIParams field is a key
    solver = {"outer_tol": 1e-6, "inner_tol": 1e-9, "max_outer": 77, "seed": 5}
    assert set(solver) == {f.name for f in fields(QVIParams)} - {"start_price"}
    mapping = {**MINIMAL, "solver": {**solver, "radius_schedule": [3.0, 6.0]}}
    scn = load_scenario(write(tmp_path, mapping))
    assert scn.solver == QVIParams(**solver)
    assert scn.radius_schedule == (3.0, 6.0)
    assert yaml.safe_load(echo_scenario(scn))["solver"] == mapping["solver"]


def test_retired_solver_keys_load_and_drop(scenario_dir, tmp_path):
    # schema v1 keys that no longer change a run still load, are dropped,
    # and the scenario solves as it does without them
    retired = {
        "sequential": False,
        "product_step": 0.01,
        "max_product": 5,
        "inner_step": 0.1,
        "outer_step": 0.5,
        "max_inner": 3,
    }
    plain = scenario_dir / "oracle_cd_quad.yaml"
    mapping = yaml.safe_load(plain.read_text())
    mapping["solver"].update(retired)
    old = write(tmp_path, mapping, name="old.yaml")
    old_scn = load_scenario(old)
    assert old_scn == load_scenario(plain)
    echoed = echo_scenario(old_scn)
    assert not any(key in echoed for key in retired)

    assert run_solve(str(plain), str(tmp_path / "plain")) == 0
    assert run_solve(str(old), str(tmp_path / "old")) == 0
    for name in ("prices.csv", "allocations.csv"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_readme_schema_block_parses_with_the_echoed_solver_keys():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Scenario schema"):]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    mapping = yaml.safe_load(block)
    scn = parse_scenario(mapping)
    assert list(mapping["solver"]) == list(yaml.safe_load(echo_scenario(scn))["solver"])


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
    params = scn.solver
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
    ("horizon: 1.0", "horizon: one", "scenario.grid.horizon"),
    ("cap_slack: 1.1", "cap_slack: .nan", "scenario.cap_slack"),
    ("cells: 2", "cells: true", "scenario.grid.cells"),
    ("goods: 1", "goods: true", "scenario.goods"),
    ("schema_version: 1", "schema_version: true", "scenario.schema_version"),
    ("weights: [1.0]", "weights: [.nan]", "scenario.agents[0].utility.weights"),
    ("weights: [1.0]", "weights: [.inf]", "scenario.agents[0].utility.weights"),
    ("weights: [1.0]", "weights: [-1.0]", "scenario.agents[0].utility.weights"),
    ("shift: 1.0", "shift: .inf", "scenario.agents[0].utility.shift"),
    ("shift: 1.0", "shift: .nan", "scenario.agents[0].utility.shift"),
    ("shift: 1.0", "shift: 0", "scenario.agents[0].utility.shift"),
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

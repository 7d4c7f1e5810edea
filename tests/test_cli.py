import argparse
import csv
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import qvex
from qvex.cli import _parse_radius_schedule, main
from qvex.errors import NonConvergence


def run(args):
    return main([str(a) for a in args])


def read_series(path):
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["series_name"], []).append(
                (int(row["time_cell"]), float(row["value"]))
            )
    return {k: np.array([v for _, v in sorted(rows)]) for k, rows in out.items()}


def test_solve_no_trade_exits_zero(scenario_dir, tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--scenario", scenario_dir / "symmetric_no_trade.yaml", "--out", out])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "converged: True" in report
    series = read_series(out / "prices.csv")
    np.testing.assert_allclose(series["price[0]"], 0.5, atol=1e-8)
    np.testing.assert_allclose(series["price[1]"], 0.5, atol=1e-8)
    allocs = read_series(out / "allocations.csv")
    np.testing.assert_allclose(allocs["alloc[0].good[0]"], 0.5, atol=1e-8)


def test_solve_oracle_matches_kkt_price(scenario_dir, tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out])
    assert code == 0
    series = read_series(out / "prices.csv")
    assert abs(series["price[0]"][0] - 0.5) <= 1e-4
    assert abs(series["price[1]"][0] - 0.5) <= 1e-4


def test_solve_nonconvergent_budget_exits_nonzero(scenario_dir, tmp_path):
    out = tmp_path / "run"
    code = run(["solve", "--scenario", scenario_dir / "tiny_budget.yaml", "--out", out])
    assert code == 1
    report = (out / "report.txt").read_text()
    assert "converged: False" in report
    assert (out / "prices.csv").exists()  # best iterate still written


def test_solve_inner_failure_still_writes_files(scenario_dir, tmp_path, monkeypatch):
    # starve the iterative inner solves, which run when the problem
    # carries no exact demand map
    assemble = qvex.cli.assemble_qvi
    monkeypatch.setattr(
        qvex.cli, "assemble_qvi", lambda eco, caps: replace(assemble(eco, caps), demand=None)
    )
    monkeypatch.setattr(qvex.qvi, "MAX_INNER", 5)
    out = tmp_path / "run"
    assert run(["solve", "--scenario", scenario_dir / "sinusoid_seasonal.yaml", "--out", out]) == 1
    for name in ("report.txt", "prices.csv", "allocations.csv"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "converged: False" in report
    assert "failed to certify" in report


def test_solve_overrides_replace_the_scenario_settings(scenario_dir, tmp_path):
    out = tmp_path / "run"
    # sinusoid_seasonal takes 10 outer iterations, so one leaves it unconverged
    scn = scenario_dir / "sinusoid_seasonal.yaml"
    args = ["--tol", "1e-6", "--max-iter", "1", "--seed", "4"]
    assert run(["solve", "--scenario", scn, "--out", out, *args]) == 1
    report = (out / "report.txt").read_text()
    for line in ("outer_tol: 1e-06", "inner_tol: 1e-08", "max_outer: 1", "seed: 4"):
        assert f"\n  {line}\n" in report
    assert "iterations: 1\n" in report


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--tol=nan", "outer_tol"),
        ("--tol=-1e-7", "outer_tol"),
        ("--tol=0", "outer_tol"),
        ("--seed=-1", "seed"),
        ("--max-iter=0", "max_outer"),
    ],
)
def test_solve_rejects_a_bad_override_before_solving(
    scenario_dir, tmp_path, capsys, monkeypatch, flag, field
):
    solves = []
    solve = qvex.cli.solve_qvi
    monkeypatch.setattr(qvex.cli, "solve_qvi", lambda *a: solves.append(a) or solve(*a))
    out = tmp_path / "run"
    code = run(["solve", "--scenario", scenario_dir / "sinusoid_seasonal.yaml", "--out", out, flag])
    assert code == 2
    assert f"qvex: error: {field}: " in capsys.readouterr().err
    assert not solves and not out.exists()


def _failing_plan(*args):
    raise NonConvergence("LogShift cap multiplier search did not converge")


def test_solve_demand_failure_still_writes_files(scenario_dir, tmp_path, monkeypatch):
    # every LogShift plan evaluation fails, whichever the demand takes first
    monkeypatch.setattr(qvex.economy, "_logshift_plan", _failing_plan)
    out = tmp_path / "run"
    assert run(["solve", "--scenario", scenario_dir / "sinusoid_seasonal.yaml", "--out", out]) == 1
    for name in ("report.txt", "prices.csv", "allocations.csv"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "converged: False" in report
    assert "failed to certify" in report and "agents [0, 1]" in report
    assert "agent 0: LogShift cap multiplier search did not converge" in report


def _stuck_cone(*args):
    raise NonConvergence("budget-cone Newton iteration did not converge")


def test_solve_certificate_failure_still_writes_files(scenario_dir, tmp_path, monkeypatch):
    # the certificate's budget-cone projection never finishes: the solved
    # pair is written and fails certification instead of being lost
    monkeypatch.setattr(qvex.sets, "_project_budget_cone", _stuck_cone)
    out = tmp_path / "run"
    assert run(["solve", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out]) == 1
    for name in ("report.txt", "prices.csv", "allocations.csv"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "converged: True" in report
    assert "best_response[0]: inf" in report


def test_csv_determinism(scenario_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out1]) == 0
    assert run(["solve", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out2]) == 0
    assert (out1 / "prices.csv").read_bytes() == (out2 / "prices.csv").read_bytes()
    assert (out1 / "allocations.csv").read_bytes() == (out2 / "allocations.csv").read_bytes()


def test_verify_accepts_solver_output(scenario_dir, tmp_path):
    out = tmp_path / "run"
    scn = scenario_dir / "oracle_cd_quad.yaml"
    assert run(["solve", "--scenario", scn, "--out", out]) == 0
    code = run(
        [
            "verify",
            "--scenario",
            scn,
            "--price",
            out / "prices.csv",
            "--allocation",
            out / "allocations.csv",
            "--out",
            out,
            "--tol",
            "1e-5",
        ]
    )
    assert code == 0
    ledger = (out / "certification.txt").read_text()
    assert "verdict: pass" in ledger
    assert "clearing[0]" in ledger and "best_response[1]" in ledger


def test_verify_rejects_perturbed_candidate(scenario_dir, tmp_path):
    out = tmp_path / "run"
    scn = scenario_dir / "oracle_cd_quad.yaml"
    assert run(["solve", "--scenario", scn, "--out", out]) == 0

    # perturb one allocation value beyond tolerance (keeps budget feasible)
    rows = (out / "allocations.csv").read_text().splitlines()
    header, body = rows[0], rows[1:]
    patched = []
    for line in body:
        cell, name, value = line.split(",")
        if name == "alloc[0].good[0]":
            value = repr(float(value) - 0.05)
        patched.append(f"{cell},{name},{value}")
    (out / "allocations.csv").write_text("\n".join([header] + patched) + "\n")

    code = run(
        [
            "verify",
            "--scenario",
            scn,
            "--price",
            out / "prices.csv",
            "--allocation",
            out / "allocations.csv",
            "--out",
            out,
        ]
    )
    assert code == 1
    assert "verdict: fail" in (out / "certification.txt").read_text()


def test_verify_shape_mismatch_diagnostic(scenario_dir, tmp_path, capsys):
    out = tmp_path / "run"
    scn = scenario_dir / "oracle_cd_quad.yaml"
    assert run(["solve", "--scenario", scn, "--out", out]) == 0
    # drop a series entirely
    rows = [r for r in (out / "allocations.csv").read_text().splitlines() if "alloc[1]" not in r]
    (out / "allocations.csv").write_text("\n".join(rows) + "\n")
    code = run(
        [
            "verify",
            "--scenario",
            scn,
            "--price",
            out / "prices.csv",
            "--allocation",
            out / "allocations.csv",
            "--out",
            out,
        ]
    )
    assert code == 2
    assert "missing series" in capsys.readouterr().err


def test_verify_names_the_missing_and_the_unexpected_price_series(scenario_dir, tmp_path, capsys):
    out = tmp_path / "run"
    scn = scenario_dir / "oracle_cd_quad.yaml"
    assert run(["solve", "--scenario", scn, "--out", out]) == 0
    prices = out / "prices.csv"
    prices.write_text(prices.read_text().replace("price[1]", "price[9]"))
    assert run(_verify_args(scn, out)) == 2
    err = capsys.readouterr().err
    assert "missing series ['price[1]'], unexpected series ['price[9]']" in err


def _verify_args(scn, out, *extra):
    return [
        "verify",
        "--scenario",
        scn,
        "--price",
        out / "prices.csv",
        "--allocation",
        out / "allocations.csv",
        "--out",
        out,
        *extra,
    ]


def test_verify_rejects_a_series_with_a_repeated_or_missing_cell(scenario_dir, tmp_path, capsys):
    out = tmp_path / "run"
    scn = scenario_dir / "symmetric_no_trade.yaml"
    assert run(["solve", "--scenario", scn, "--out", out]) == 0
    # list cell 0 twice and omit cell 3: the count still matches the grid
    rows = (out / "prices.csv").read_text().splitlines()
    patched = [r.replace("3,price[", "0,price[", 1) if r.startswith("3,") else r for r in rows]
    assert patched != rows
    (out / "prices.csv").write_text("\n".join(patched) + "\n")
    assert run(_verify_args(scn, out)) == 2
    assert "candidate rejected" in capsys.readouterr().err
    assert not (out / "certification.txt").exists()


@pytest.mark.parametrize(
    "row, reason",
    [
        ("1,price[0]", "expected the fields time_cell,series_name,value"),
        ("1,price[0],abc", "could not convert string to float: 'abc'"),
        ("1,price[0],nan", "value: must be a finite real number, got nan"),
        ("1,price[0],inf", "value: must be a finite real number, got inf"),
    ],
    ids=["short-row", "not-a-number", "nan", "inf"],
)
def test_verify_names_the_line_of_a_malformed_row(scenario_dir, tmp_path, capsys, row, reason):
    out = tmp_path / "run"
    scn = scenario_dir / "symmetric_no_trade.yaml"
    assert run(["solve", "--scenario", scn, "--out", out]) == 0
    prices = out / "prices.csv"
    rows = prices.read_text().splitlines()
    assert rows[2].startswith("1,price[0],")
    rows[2] = row
    prices.write_text("\n".join(rows) + "\n")
    assert run(_verify_args(scn, out)) == 2
    assert f"candidate rejected: {prices}:3: {reason}" in capsys.readouterr().err
    assert not (out / "certification.txt").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5", "tight"])
def test_verify_rejects_a_bad_tolerance_as_a_usage_error(scenario_dir, tmp_path, capsys, tol):
    out = tmp_path / "run"
    scn = scenario_dir / "oracle_cd_quad.yaml"
    assert run(["solve", "--scenario", scn, "--out", out]) == 0
    with pytest.raises(SystemExit) as exc:
        run(_verify_args(scn, out, "--tol", tol))
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err
    assert not (out / "certification.txt").exists()


def test_probes_pass_on_supported_scenario(scenario_dir, tmp_path):
    out = tmp_path / "probes"
    code = run(["probes", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out])
    assert code == 0
    text = (out / "probes.txt").read_text()
    assert "coercivity" in text and "pass (vacuous)" in text
    assert "growth[0]: pass" in text and "concavity[1]: pass" in text


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_probes_rejects_a_bad_seed_as_a_usage_error(scenario_dir, tmp_path, capsys, seed):
    out = tmp_path / "probes"
    with pytest.raises(SystemExit) as exc:
        run(["probes", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out, "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not out.exists()


def test_probes_loads_its_scenario_once(scenario_dir, tmp_path, monkeypatch):
    loads = []
    load = qvex.cli.load_scenario
    monkeypatch.setattr(qvex.cli, "load_scenario", lambda path: loads.append(path) or load(path))
    out = tmp_path / "probes"
    assert run(["probes", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out]) == 0
    assert len(loads) == 1
    assert "seed: 0\n" in (out / "probes.txt").read_text()


def test_run_probes_checks_its_seed(scenario_dir, tmp_path):
    with pytest.raises(ValueError, match="seed: must be an integer >= 0"):
        qvex.cli.run_probes(scenario_dir / "oracle_cd_quad.yaml", tmp_path / "probes", -1)
    assert not (tmp_path / "probes").exists()


@pytest.mark.parametrize("utility", ["{family: logshift, weights: [.nan], shift: .inf}",
                                     "{family: logshift, weights: [1.0], shift: .inf}"])
def test_solve_rejects_non_finite_utility_parameters(tmp_path, capsys, utility):
    scn = tmp_path / "scn.yaml"
    scn.write_text(
        "schema_version: 1\ngrid: {horizon: 1.0, cells: 2}\ngoods: 1\n"
        f"agents:\n  - endowment: [1.0]\n    utility: {utility}\n",
        encoding="utf-8",
    )
    assert run(["solve", "--scenario", scn, "--out", tmp_path / "run"]) == 2
    assert "agents[0].utility." in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_solve_with_radius_schedule(scenario_dir, tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "solve",
            "--scenario",
            scenario_dir / "oracle_cd_quad.yaml",
            "--out",
            out,
            "--radius-schedule",
            "50.0,100.0",
        ]
    )
    assert code == 0
    assert "truncation_radius_used: 50.0" in (out / "report.txt").read_text()


@pytest.mark.parametrize("text", ["nan,50", "10,inf", "-1,2", "0"])
def test_radius_schedule_option_needs_finite_positive_radii(text):
    with pytest.raises(argparse.ArgumentTypeError, match="finite positive"):
        _parse_radius_schedule(text)


def test_solve_rejects_a_nan_radius_as_a_usage_error(scenario_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(
            [
                "solve",
                "--scenario",
                scenario_dir / "oracle_cd_quad.yaml",
                "--out",
                tmp_path / "run",
                "--radius-schedule",
                "nan,50",
            ]
        )
    assert exc.value.code == 2
    assert "finite positive" in capsys.readouterr().err


def test_echo_scenario_round_trip(scenario_dir, tmp_path, capsys):
    code = run(["echo-scenario", "--scenario", scenario_dir / "oracle_cd_quad.yaml"])
    assert code == 0
    text = capsys.readouterr().out
    assert "schema_version: 1" in text
    assert "inner_tol: 1.0e-08" in text  # defaults made explicit

    echo_file = tmp_path / "echo.yaml"
    code = run(
        ["echo-scenario", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", echo_file]
    )
    assert code == 0
    out = tmp_path / "run"
    assert run(["solve", "--scenario", echo_file, "--out", out]) == 0


def test_bad_scenario_is_a_diagnostic_not_a_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\ngrid: {horizon: -1.0, cells: 2}\ngoods: 1\nagents: []\n")
    code = run(["solve", "--scenario", bad, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert "qvex: error:" in err


def test_importing_qvex_loads_neither_the_command_line_nor_yaml():
    # the library's import stays as light as its core modules: the CLI and
    # the scenario parser, with yaml behind them, load only when used
    src = os.path.dirname(os.path.dirname(qvex.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, qvex; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "qvex.economy" in loaded
    assert not {"yaml", "qvex.cli", "qvex.scenario"} & set(loaded)

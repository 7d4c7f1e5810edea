import csv

import numpy as np
import yaml

from qvex.cli import main


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


def test_solve_inner_failure_still_writes_files(scenario_dir, tmp_path):
    scn = yaml.safe_load((scenario_dir / "sinusoid_seasonal.yaml").read_text())
    scn["solver"]["max_inner"] = 5
    path = tmp_path / "starved.yaml"
    path.write_text(yaml.safe_dump(scn), encoding="utf-8")
    out = tmp_path / "run"
    assert run(["solve", "--scenario", path, "--out", out]) == 1
    for name in ("report.txt", "prices.csv", "allocations.csv"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "converged: False" in report
    assert "failed to certify" in report


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


def test_probes_pass_on_supported_scenario(scenario_dir, tmp_path):
    out = tmp_path / "probes"
    code = run(["probes", "--scenario", scenario_dir / "oracle_cd_quad.yaml", "--out", out])
    assert code == 0
    text = (out / "probes.txt").read_text()
    assert "coercivity" in text and "pass (vacuous)" in text
    assert "growth[0]: pass" in text and "concavity[1]: pass" in text


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

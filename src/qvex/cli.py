"""Command line front end: solve, verify, probes, echo-scenario.

Exit status contract: 0 exactly when the run converged / the certification
or all probes passed.  Reports are plain text with every tolerance and
iteration budget echoed; series go to long-format CSV
(time_cell, series_name, value) for external plotting.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .economy import (
    Economy,
    assemble_qvi,
    check_concavity,
    check_growth_condition,
    default_caps,
    survivability_check,
)
from .errors import require_finite_real, require_integer, require_positive_real
from .grids import GridFunction, PriceCurve, make_grid
from .qvi import QVIParams, require_radius_schedule, solve_qvi, solve_qvi_truncated
from .scenario import Scenario, build_economy, echo_scenario, load_scenario
from .verify import certify_equilibrium, coercivity_probe, pseudomonotonicity_probe


def _write_series_csv(path: Path, series: dict) -> None:
    """series maps name -> 1-d array over cells; rows are (cell, name, value)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_cell", "series_name", "value"])
        for name in series:
            for k, v in enumerate(series[name]):
                writer.writerow([k, name, repr(float(v))])


def _read_series_csv(path: Path) -> dict:
    series = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["time_cell", "series_name", "value"]:
            raise ValueError(f"{path}: expected header time_cell,series_name,value")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            # a short row fills the missing fields with None, a long one adds a None key
            if len(row) != 3 or None in row.values():
                raise ValueError(f"{where}: expected the fields time_cell,series_name,value")
            try:
                cell, value = int(row["time_cell"]), float(row["value"])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            series.setdefault(row["series_name"], []).append(
                (cell, require_finite_real(f"{where}: value", value))
            )
    out = {}
    for name, pairs in series.items():
        pairs.sort()
        if [k for k, _ in pairs] != list(range(len(pairs))):
            raise ValueError(f"{path}: series {name} must list cells 0, 1, ... once each")
        out[name] = np.array([v for _, v in pairs])
    return out


def _series_names(goods: int, n_agents: int) -> tuple:
    """The price and the allocation series names, each in column order."""
    return (
        [f"price[{j}]" for j in range(goods)],
        [f"alloc[{i}].good[{j}]" for i in range(n_agents) for j in range(goods)],
    )


def _params_lines(params: QVIParams) -> list:
    return [f"  {k}: {v}" for k, v in asdict(params).items() if k != "start_price"]


def _solve_report_text(scn_path, scn: Scenario, eco: Economy, caps, params, report, cert) -> str:
    lines = [
        "qvex solve report",
        f"scenario: {scn_path}",
        f"grid: horizon={scn.horizon} cells={scn.cells} goods={scn.goods} agents={eco.n_agents}",
        f"caps: {np.asarray(caps).tolist()} (cap_slack={scn.cap_slack})",
        "parameters:",
        *_params_lines(params),
        f"converged: {report.converged}",
        f"iterations: {report.iterations}",
        f"outer_residual: {report.outer_residual:.6e}",
        f"inner_residuals: {[f'{r:.3e}' for r in report.inner_residuals]}",
        f"truncation_radius_used: {report.truncation_radius_used}",
    ]
    if report.message:
        lines.append(f"message: {report.message}")
    # the certificate's lines carry the budget gaps, clearing integrals and
    # Walras aggregate, evaluated on the report's own pair
    lines += [
        f"survivability: {survivability_check(eco)}",
        f"certification (tol {cert.tolerance:g}): {'pass' if cert.verdict else 'fail'}",
    ]
    lines += [f"  {k}: {v:.6e}" for k, v in cert.residuals.items()]
    lines += [
        "",
        "prices (rows = cells):",
    ]
    for k in range(scn.cells):
        lines.append("  " + " ".join(f"{v:.10f}" for v in report.price.values[k]))
    for i, b in enumerate(report.agent_allocations()):
        lines.append(f"allocation of agent {i} (rows = cells):")
        for k in range(scn.cells):
            lines.append("  " + " ".join(f"{v:.10f}" for v in b.values[k]))
    return "\n".join(lines) + "\n"


def run_solve(scn_path: str, out_dir: str, radius_schedule=None, **overrides) -> int:
    """Solve a scenario, with `overrides` replacing its `QVIParams` fields."""
    scn = load_scenario(scn_path)
    params = replace(scn.solver, **overrides)
    radius_schedule = radius_schedule or scn.radius_schedule
    eco = build_economy(scn)
    caps = default_caps(eco, scn.cap_slack)
    prob = assemble_qvi(eco, caps)

    if radius_schedule:
        report = solve_qvi_truncated(prob, radius_schedule, params)
    else:
        report = solve_qvi(prob, params)

    # every emitted pair is certified against the equilibrium definition
    cert = certify_equilibrium(
        eco,
        report.price,
        report.agent_allocations(),
        tol=10.0 * params.outer_tol,
        seed=params.seed,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(
        _solve_report_text(scn_path, scn, eco, caps, params, report, cert), encoding="utf-8"
    )
    price_names, alloc_names = _series_names(scn.goods, eco.n_agents)
    _write_series_csv(out / "prices.csv", dict(zip(price_names, report.price.values.T)))
    _write_series_csv(out / "allocations.csv", dict(zip(alloc_names, report.allocation.values.T)))
    return 0 if report.converged and cert.verdict else 1


def _series_columns(series: dict, names: list, cells: int, what: str) -> np.ndarray:
    """The named series as the columns of a (cells, len(names)) array;
    ValueError, naming the missing and the unexpected series, unless
    `series` holds exactly `names`, each with one value per cell."""
    missing = [n for n in names if n not in series]
    extra = sorted(set(series) - set(names))
    if missing or extra:
        raise ValueError(f"{what} CSV: missing series {missing}, unexpected series {extra}")
    if any(len(series[n]) != cells for n in names):
        raise ValueError(f"{what} CSV cell count does not match the scenario grid")
    return np.column_stack([series[n] for n in names])


def _candidate_from_csv(scn: Scenario, price_path, alloc_path, n_agents):
    price = _read_series_csv(Path(price_path))
    alloc = _read_series_csv(Path(alloc_path))
    price_names, alloc_names = _series_names(scn.goods, n_agents)
    price = _series_columns(price, price_names, scn.cells, "price")
    alloc = _series_columns(alloc, alloc_names, scn.cells, "allocation")
    grid = make_grid(scn.horizon, scn.cells)
    return PriceCurve(grid, price), [GridFunction(grid, a) for a in np.hsplit(alloc, n_agents)]


def run_verify(scn_path: str, price_path: str, alloc_path: str, out_dir: str, tol: float) -> int:
    scn = load_scenario(scn_path)
    eco = build_economy(scn)
    try:
        price, blocks = _candidate_from_csv(scn, price_path, alloc_path, eco.n_agents)
    except ValueError as exc:
        print(f"candidate rejected: {exc}", file=sys.stderr)
        return 2
    report = certify_equilibrium(eco, price, blocks, tol=tol, seed=scn.solver.seed)

    lines = [
        "qvex certification ledger",
        f"scenario: {scn_path}",
        f"candidate: {price_path}, {alloc_path}",
        f"tolerance: {tol}",
        f"seed: {scn.solver.seed}",
        f"samples: {report.samples_used}",
        f"verdict: {'pass' if report.verdict else 'fail'}",
        "residuals:",
    ]
    lines += [f"  {k}: {v:.6e}" for k, v in report.residuals.items()]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "certification.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(lines[6])
    return 0 if report.verdict else 1


def run_probes(scn_path: str, out_dir: str, seed=None) -> int:
    """Run the structural probes; `seed` defaults to the scenario's."""
    scn = load_scenario(scn_path)
    seed = require_integer("seed", scn.solver.seed if seed is None else seed, 0)
    eco = build_economy(scn)
    caps = default_caps(eco, scn.cap_slack)
    prob = assemble_qvi(eco, caps)
    uniform = PriceCurve.uniform(eco.grid, eco.goods)

    reports = []
    for i, agent in enumerate(eco.agents):
        g = check_growth_condition(agent, samples=300, seed=seed + i)
        g.name = f"growth[{i}]"
        c = check_concavity(agent, samples=300, seed=seed + 100 + i)
        c.name = f"concavity[{i}]"
        reports += [g, c]
    sets = prob.constraint_map(uniform)
    for i, (op, s, w) in enumerate(zip(prob.agent_operators, sets, prob.warm_starts)):
        r = pseudomonotonicity_probe(op, s, w, pairs=150, seed=seed + 200 + i, scale=2.0)
        r.name = f"pseudomonotonicity[{i}]"
        reports.append(r)
    # caps bound the feasible set, so any sampled norm stays below this radius
    r_d = 1.0 + float(np.sqrt(eco.n_agents * np.sum(np.asarray(caps) ** 2) / eco.grid.dt))
    cr = coercivity_probe(prob, uniform, r_d, samples=48, seed=seed + 500)
    cr.name = "coercivity"
    reports.append(cr)

    lines = [f"qvex probe report for {scn_path}", f"seed: {seed}"]
    lines += [r.summary() for r in reports]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "probes.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for r in reports:
        print(r.summary())
    return 0 if all(r.verdict for r in reports) else 1


def _option(name, convert, check, *args):
    """An argparse `type`: `check(name, convert(text), *args)`, with its
    ValueError a usage error, which argparse reports under the flag."""

    def parse(text):
        try:
            return check(name, convert(text), *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_parse_radius_schedule = _option(
    "radius_schedule", lambda text: [float(t) for t in text.split(",") if t.strip()],
    require_radius_schedule,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default="qvex-out", help="output directory")

    p_solve = sub.add_parser("solve", help="solve a scenario and emit report + CSV series")
    common(p_solve)
    # each override parses into the `QVIParams` field it replaces
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument(
        "--tol", type=float, dest="outer_tol", metavar="TOL", help="override outer tolerance"
    )
    p_solve.add_argument(
        "--max-iter", type=int, dest="max_outer", metavar="MAX_ITER",
        help="override outer iteration budget",
    )
    p_solve.add_argument(
        "--radius-schedule",
        type=_parse_radius_schedule,
        default=None,
        help="comma-separated increasing radii; enables the truncated solve",
    )

    p_verify = sub.add_parser("verify", help="certify an externally supplied candidate")
    common(p_verify)
    p_verify.add_argument("--price", required=True, help="candidate prices CSV")
    p_verify.add_argument("--allocation", required=True, help="candidate allocations CSV")
    p_verify.add_argument("--tol", type=_option("tol", float, require_positive_real), default=1e-6)

    p_probes = sub.add_parser("probes", help="run the structural probes on a scenario")
    common(p_probes)
    p_probes.add_argument("--seed", type=_option("seed", int, require_integer, 0), default=None)

    p_echo = sub.add_parser("echo-scenario", help="print the scenario with defaults filled")
    p_echo.add_argument("--scenario", required=True)
    p_echo.add_argument("--out", default=None, help="write to file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            names = {f.name for f in fields(QVIParams)}
            overrides = {k: v for k, v in vars(args).items() if k in names and v is not None}
            return run_solve(
                args.scenario, args.out, radius_schedule=args.radius_schedule, **overrides
            )
        if args.command == "verify":
            return run_verify(args.scenario, args.price, args.allocation, args.out, args.tol)
        if args.command == "probes":
            return run_probes(args.scenario, args.out, args.seed)
        if args.command == "echo-scenario":
            text = echo_scenario(load_scenario(args.scenario))
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
            return 0
    except Exception as exc:  # surfaced as diagnostics, not tracebacks
        print(f"qvex: error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

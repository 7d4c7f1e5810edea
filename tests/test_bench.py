"""Opt-in timings with pytest-benchmark: equilibrium certification of two
planted pairs, the two-level solves of the seasonal scenario and of the
32- and 128-agent ladder economies on exact demand, and the truncated solve
of the oracle economy on the exact ball-cut projection.

A plain test run skips them (see conftest.py); run them with
`PYTHONPATH=src python -m pytest tests/test_bench.py --benchmark-only`.
"""

from __future__ import annotations

from corpus import make_agent_ladder_economy, make_planted_pair
from qvex import (
    QVIParams,
    assemble_qvi,
    certify_equilibrium,
    default_caps,
    solve_qvi,
    solve_qvi_truncated,
)
from qvex.scenario import build_economy, load_scenario


def test_bench_certify_planted_8x2x1024(benchmark):
    eco, price, plans, _ = make_planted_pair(8, 2, 1024, seed=0)
    cert = benchmark(certify_equilibrium, eco, price, plans, tol=1e-6, seed=0)
    assert cert.verdict


def test_bench_certify_planted_8x3x512(benchmark):
    # four LogShift and four quadratic agents: each family's block reduction
    eco, price, plans, _ = make_planted_pair(8, 3, 512, seed=0)
    cert = benchmark(certify_equilibrium, eco, price, plans, tol=1e-6, seed=0)
    assert cert.verdict


def test_bench_solve_agent_ladder_32(benchmark):
    eco = make_agent_ladder_economy(32)
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = benchmark(solve_qvi, prob, QVIParams())
    assert rep.converged


def test_bench_solve_agent_ladder_128(benchmark):
    eco = make_agent_ladder_economy(128)
    prob = assemble_qvi(eco, default_caps(eco, 1.1))
    rep = benchmark(solve_qvi, prob, QVIParams())
    assert rep.converged


def test_bench_solve_sinusoid_seasonal(benchmark, scenario_dir):
    scn = load_scenario(scenario_dir / "sinusoid_seasonal.yaml")
    eco = build_economy(scn)
    prob = assemble_qvi(eco, default_caps(eco, scn.cap_slack))
    rep = benchmark(solve_qvi, prob, scn.solver)
    assert rep.converged


def test_bench_truncated_solve_oracle(benchmark, oracle_problem):
    rep = benchmark(solve_qvi_truncated, oracle_problem, [50.0, 100.0])
    assert rep.converged and rep.truncation_radius_used == 50.0

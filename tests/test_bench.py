"""Opt-in timing of equilibrium certification with pytest-benchmark.

A plain test run skips it (see conftest.py); run it with
`PYTHONPATH=src python -m pytest tests/test_bench.py --benchmark-only`.
"""

from __future__ import annotations

from corpus import make_planted_pair
from qvex import certify_equilibrium


def test_bench_certify_planted_8x2x1024(benchmark):
    eco, price, plans, _ = make_planted_pair(8, 2, 1024, seed=0)
    cert = benchmark(certify_equilibrium, eco, price, plans, tol=1e-6, seed=0)
    assert cert.verdict

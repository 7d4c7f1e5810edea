from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import qvex

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def pytest_collection_modifyitems(config, items):
    """Timing tests (those taking pytest-benchmark's `benchmark` fixture) run
    only under --benchmark-only, or once each, untimed, under
    --benchmark-disable, which checks their asserts."""
    if config.getoption("benchmark_only", default=False) or config.getoption(
        "benchmark_disable", default=False
    ):
        return
    skip = pytest.mark.skip(reason="timing test; run with --benchmark-only or --benchmark-disable")
    for item in items:
        if "benchmark" in getattr(item, "fixturenames", ()):
            item.add_marker(skip)


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def oracle_economy():
    """The two-agent quadratic acceptance instance with its default caps."""
    g = qvex.make_grid(1.0, 1)
    a1 = qvex.Agent(
        qvex.GridFunction.constant(g, [1.0, 0.2]),
        qvex.Quadratic(qvex.GridFunction.constant(g, [2.0, 1.0]), (1.0, 1.0)),
    )
    a2 = qvex.Agent(
        qvex.GridFunction.constant(g, [0.2, 1.0]),
        qvex.Quadratic(qvex.GridFunction.constant(g, [1.0, 2.0]), (1.0, 1.0)),
    )
    eco = qvex.Economy(g, 2, (a1, a2))
    caps = qvex.default_caps(eco, 1.1)
    return eco, caps


@pytest.fixture(scope="session")
def oracle_problem(oracle_economy):
    eco, caps = oracle_economy
    return qvex.assemble_qvi(eco, caps)


@pytest.fixture()
def skewed_start(oracle_economy):
    eco, _ = oracle_economy
    return qvex.PriceCurve(eco.grid, np.array([[0.8, 0.2]]))

"""The benchmark's three workloads.

`WORKLOADS[name](root, seed, scratch)` does the set-up that precedes the
first timed item (input generation or parsing, plus `assemble_qvi`) and
returns the workload's items.  Each item runs one user-visible operation
through qvex's public functions and checks its outcome against the
expected one; it returns an `Outcome` whose `fingerprint` holds the exact
bytes of every price and allocation (or certificate) it produced.

qvex is reached through module attributes at call time (`qvex.qvi.solve_qvi`,
not a name imported here), so a tracer that rebinds those attributes sees
the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qvex.cli
import qvex.economy
import qvex.qvi
import qvex.scenario
import qvex.verify

from inputs import CORPUS_SIZE, corpus_economy, planted_pair

CERT_TOL = 1e-6
CLEARING_TOL = 1e-6
BUDGET_TOL = 1e-8
ORACLE_PRICE = 0.5
ORACLE_PRICE_TOL = 1e-4
SOLVE_FILES = ("report.txt", "prices.csv", "allocations.csv")

#: scenario file, radius schedule, expected exit status, closed-form price check
SCENARIO_ITEMS = (
    ("oracle_cd_quad.yaml", None, 0, True),
    ("sinusoid_seasonal.yaml", None, 0, False),
    ("symmetric_no_trade.yaml", None, 0, False),
    ("tiny_budget.yaml", None, 1, False),
    ("oracle_cd_quad.yaml", (50.0, 100.0), 0, True),
)

#: corpus items whose solve takes over 5 s each (items 4, 7, 9 and 11, about
#: 43 s together on a 2-core x86 VM) would not let a pass fit in one run
CORPUS_ITEMS = tuple(k for k in range(CORPUS_SIZE) if k not in (4, 7, 9, 11))

#: (agents, goods, cells) of the planted certification pairs
CERTIFY_SHAPES = (
    (2, 2, 16),
    (3, 3, 64),
    (4, 2, 256),
    (8, 2, 1024),
    (2, 3, 1024),
    (5, 3, 32),
    (6, 2, 128),
    (8, 3, 512),
)


@dataclass
class Outcome:
    ok: bool
    fingerprint: bytes
    detail: str = ""
    bytes_written: int = 0


@dataclass
class Item:
    label: str
    run: Callable[[], Outcome]


def _arrays_bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


# --- scenarios: the CLI path, in-process ---


def _csv_values(path: Path) -> list:
    """The value column of a long-format series CSV written by `qvex solve`."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row["value"]) for row in csv.DictReader(fh)]


def _scenario_item(path: str, radius_schedule, expected_exit: int, oracle: bool, scratch: Path):
    def run() -> Outcome:
        out = Path(tempfile.mkdtemp(dir=scratch))
        try:
            code = qvex.cli.run_solve(path, str(out), radius_schedule=radius_schedule)
            missing = [name for name in SOLVE_FILES if not (out / name).is_file()]
            problems = []
            if code != expected_exit:
                problems.append(f"exit {code}, expected {expected_exit}")
            if missing:
                problems.append(f"missing {missing}")
            if oracle and not missing:
                gap = max(abs(v - ORACLE_PRICE) for v in _csv_values(out / "prices.csv"))
                if not gap <= ORACLE_PRICE_TOL:
                    problems.append(f"price gap {gap:.2e} from the closed form")
            fingerprint = b"".join(
                (out / name).read_bytes() for name in ("prices.csv", "allocations.csv")
                if (out / name).is_file()
            )
            written = sum(f.stat().st_size for f in out.iterdir())
            return Outcome(not problems, fingerprint, "; ".join(problems), written)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return run


def prepare_scenarios(root: Path, seed: int, scratch: Path) -> list:
    """Parse and assemble every scenario once, then one CLI solve per item.

    The solves use each file's own solver seed, as `qvex solve` without
    `--seed` does: the solve seed moves the seasonal solve's work by a factor
    of six, so the workload seed is not passed to it.
    """
    files = sorted(p.name for p in (root / "scenarios").glob("*.yaml"))
    listed = sorted({name for name, *_ in SCENARIO_ITEMS})
    if files != listed:
        raise RuntimeError(f"scenario files {files} differ from the benchmark's list {listed}")
    for name in files:
        scn = qvex.scenario.load_scenario(f"scenarios/{name}")
        eco = qvex.scenario.build_economy(scn)
        qvex.economy.assemble_qvi(eco, qvex.economy.default_caps(eco, scn.cap_slack))
    # paths stay relative to the checkout, the working directory, so that
    # report.txt and `cli.bytes_written` are the same in every checkout
    return [
        Item(
            name if radius is None else f"{name}@radius",
            _scenario_item(f"scenarios/{name}", radius, expected, oracle, scratch),
        )
        for name, radius, expected, oracle in SCENARIO_ITEMS
    ]


# --- corpus: solve, then certify under the acceptance gates ---


def _corpus_item(k: int, eco, prob, cert_seed: int):
    def run() -> Outcome:
        report = qvex.qvi.solve_qvi(prob, qvex.qvi.QVIParams(seed=k))
        blocks = report.agent_allocations()
        cert = qvex.verify.certify_equilibrium(
            eco, report.price, blocks, tol=CERT_TOL, seed=cert_seed
        )
        clearing = qvex.verify.market_clearing_residual(eco, blocks)
        budgets = qvex.verify.budget_residuals(eco, report.price, blocks)
        problems = []
        if not report.converged:
            problems.append(f"not converged: {report.message}")
        if not cert.verdict:
            problems.append("certification failed")
        if not clearing.max() <= CLEARING_TOL:
            problems.append(f"clearing {clearing.max():.2e}")
        if not budgets.max() <= BUDGET_TOL:
            problems.append(f"budget {budgets.max():.2e}")
        fingerprint = _arrays_bytes(report.price.values, report.allocation.values)
        return Outcome(not problems, fingerprint, "; ".join(problems))

    return run


def prepare_corpus(root: Path, seed: int, scratch: Path) -> list:
    """The canonical corpus (value seed 0); the workload seed moves only the
    certification samples, whose number is fixed, so every seed does the
    same solver work."""
    items = []
    for k in CORPUS_ITEMS:
        eco = corpus_economy(0, k)
        prob = qvex.economy.assemble_qvi(eco, qvex.economy.default_caps(eco, 1.1))
        items.append(Item(f"corpus[{k}]", _corpus_item(k, eco, prob, 1000 * seed + k)))
    return items


# --- certify: planted equilibria, no solver ---


def _certify_item(eco, price, plans, endowments, cert_seed: int):
    def run() -> Outcome:
        good = qvex.verify.certify_equilibrium(eco, price, plans, tol=CERT_TOL, seed=cert_seed)
        bad = qvex.verify.certify_equilibrium(eco, price, endowments, tol=CERT_TOL, seed=cert_seed)
        problems = []
        if not good.verdict:
            problems.append(f"planted pair rejected: {good.residuals}")
        if bad.verdict:
            problems.append("endowment candidate accepted")
        fingerprint = repr(sorted(good.residuals.items()) + sorted(bad.residuals.items()))
        return Outcome(not problems, fingerprint.encode(), "; ".join(problems))

    return run


def prepare_certify(root: Path, seed: int, scratch: Path) -> list:
    items = []
    for k, (n, m, cells) in enumerate(CERTIFY_SHAPES):
        rng = np.random.default_rng([seed, k])
        eco, price, plans, endowments = planted_pair(rng, n, m, cells, k)
        items.append(
            Item(f"planted[{n}x{m}x{cells}]", _certify_item(eco, price, plans, endowments, seed + k))
        )
    return items


WORKLOADS = {
    "scenarios": prepare_scenarios,
    "corpus": prepare_corpus,
    "certify": prepare_certify,
}

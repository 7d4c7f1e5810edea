"""Checks of the benchmark's own inputs, tracer and result line.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from inputs import CORPUS_SIZE, corpus_economy, corpus_shape, planted_pair
from layertrace import LAYERS, Tracer
from qvex import certify_equilibrium
from workloads import CERTIFY_SHAPES, WORKLOADS, Item, Outcome, prepare_scenarios

ROOT = Path(__file__).resolve().parent.parent
GATED = ("price_simplex", "budget[", "clearing[", "best_response[")
REPEATED_COUNTERS = (
    "qvi.outer_iters",
    "vi.eg_iters",
    "sets.proj_calls",
    "economy.op_evals",
    "grids.gf_new",
)


def _load_test_corpus():
    spec = importlib.util.spec_from_file_location("qvex_test_corpus", ROOT / "tests" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _utility_fields(spec):
    return {
        k: (v.values if hasattr(v, "values") else v) for k, v in vars(spec).items()
    }


@pytest.mark.parametrize("k", range(CORPUS_SIZE))
def test_corpus_copy_reproduces_test_corpus_at_seed_0(k):
    ours, theirs = corpus_economy(0, k), _load_test_corpus().make_random_economy(k)
    assert ours.grid == theirs.grid and ours.goods == theirs.goods
    assert ours.n_agents == theirs.n_agents
    for a, b in zip(ours.agents, theirs.agents):
        assert a.endowment.values.tobytes() == b.endowment.values.tobytes()
        assert type(a.utility) is type(b.utility)
        fa, fb = _utility_fields(a.utility), _utility_fields(b.utility)
        assert fa.keys() == fb.keys()
        for key in fa:
            assert np.asarray(fa[key]).tobytes() == np.asarray(fb[key]).tobytes(), key


@pytest.mark.parametrize("seed", [1, 7])
def test_corpus_items_keep_their_shape_across_seeds(seed):
    for k in range(CORPUS_SIZE):
        eco = corpus_economy(seed, k)
        assert (eco.n_agents, eco.goods, eco.grid.cells) == corpus_shape(k)
        assert eco.agents[0].endowment.values.tobytes() != (
            corpus_economy(0, k).agents[0].endowment.values.tobytes()
        )


def _planted_cases():
    cases = [(0, k, shape) for k, shape in enumerate(CERTIFY_SHAPES)]
    cases += [(seed, k, CERTIFY_SHAPES[k]) for seed in (1, 2, 3) for k in (0, 1, 5)]
    return cases


@pytest.mark.parametrize("seed,k,shape", _planted_cases())
def test_planted_pairs_pass_and_endowment_candidates_fail(seed, k, shape):
    eco, price, plans, endowments = planted_pair(np.random.default_rng([seed, k]), *shape, k)
    good = certify_equilibrium(eco, price, plans, tol=1e-6, seed=seed)
    assert good.verdict
    gated = {name: r for name, r in good.residuals.items() if name.startswith(GATED)}
    assert len(gated) == 1 + 2 * shape[0] + shape[1]
    assert max(abs(r) for r in gated.values()) <= 1e-12, gated

    bad = certify_equilibrium(eco, price, endowments, tol=1e-6, seed=seed)
    assert not bad.verdict
    # budgets and clearing still hold, so only optimality rejects the endowments
    for name, r in bad.residuals.items():
        if name.startswith(("budget[", "clearing[")):
            assert abs(r) <= 1e-12, (name, r)
    assert all(bad.residuals[f"best_response[{i}]"] > 1e-6 for i in range(shape[0]))


def _cheap_scenario_items(tmp_path):
    items = prepare_scenarios(ROOT, 0, tmp_path)
    return [item for item in items if "seasonal" not in item.label]


def _traced_pass(tmp_path):
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        _, outcomes = run._one_pass(_cheap_scenario_items(tmp_path))
        total = time.perf_counter() - start
    return tracer, total, outcomes


def test_tracer_keeps_outputs_and_repeats_its_counters(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    _, plain = run._one_pass(_cheap_scenario_items(tmp_path))
    first, total, traced = _traced_pass(tmp_path)
    second, _, _ = _traced_pass(tmp_path)

    assert all(o.ok for o in plain + traced)
    assert [o.fingerprint for o in plain] == [o.fingerprint for o in traced]
    assert not first.missing
    a, b = first.metrics(total), second.metrics(total)
    for name in REPEATED_COUNTERS:
        assert a[name][0] > 0 and a[name][0] == b[name][0], name
    covered = sum(first.self_s[layer] for layer in LAYERS)
    assert covered + a["trace.untraced_s"][0] == pytest.approx(total, abs=1e-9)
    assert a["trace.untraced_s"][0] >= 0


def test_tracer_restores_every_binding():
    import qvex.grids
    import qvex.qvi

    before = (qvex.qvi.solve_qvi, qvex.grids.GridFunction.__dict__["__post_init__"])
    with Tracer():
        assert qvex.qvi.solve_qvi is not before[0]
    assert (qvex.qvi.solve_qvi, qvex.grids.GridFunction.__dict__["__post_init__"]) == before


def test_failing_item_is_counted_and_the_run_goes_on():
    def boom():
        raise ZeroDivisionError("planted")

    items = [
        Item("raises", boom),
        Item("wrong", lambda: Outcome(False, b"", "wrong answer")),
        Item("fine", lambda: Outcome(True, b"")),
    ]
    times, failures = run._measure(items, 0.0)
    assert [len(ts) for ts in times.values()] == [1, 1, 1]
    assert failures == {"raises: ZeroDivisionError: planted": 1, "wrong: wrong answer": 1}


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("unit") for m in spec[kind]}


def test_declared_workloads_exist():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert set(_declared("workloads")) <= set(WORKLOADS)


def test_result_lines_carry_exactly_the_declared_metrics(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)

    def prepare(root, seed, scratch):
        return _cheap_scenario_items(tmp_path)[:1]

    attempted, failures, metrics = run._end_to_end(prepare, 0, 0.0, tmp_path, 0.1)
    assert attempted == 1 and not failures
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())

    attempted, failures, metrics = run._per_layer(prepare, 0, tmp_path)
    assert attempted == 2 and not failures
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Per-layer spans and counters, recorded from outside the qvex package.

`Tracer.install` replaces qvex functions under the names their calling
modules bound them to (for example ``qvex.qvi.solve_vi_extragradient``),
so nothing under ``src/`` changes.  A call made while a span of the same
layer is open passes straight through: recursion inside ``qvex.sets`` (the
composite and Dykstra projections) is counted once, as one projection.

Each span adds its duration minus the time of the spans it encloses to its
layer's self time, so the self times of all layers plus the time no span
covers add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

from qvex.errors import InnerSolveFailure
from qvex.sets import Intersection, PointwiseSimplex

#: every layer whose self time is reported; `metrics` sums over these
LAYERS = (
    "sets.proj",
    "vi.eg",
    "vi.residual",
    "vi.lipschitz",
    "economy.op",
    "economy.assemble",
    "grids.gf",
    "qvi",
    "verify.cert",
    "verify.br",
    "scenario.load",
    "cli.io",
    "cli.solve",
)


def _projection_kind(args, kwargs):
    s = args[1] if len(args) > 1 else kwargs.get("s")
    if isinstance(s, PointwiseSimplex):
        return "simplex"
    if isinstance(s, Intersection):
        names = sorted(type(part).__name__ for part in s.parts)
        return "budget_capbox" if names == ["BudgetHalfspace", "CapBox"] else "dykstra"
    return "other"


def _on_solve_qvi(counts, report, fn, args, kwargs):
    prob = args[0] if args else kwargs["prob"]
    counts["qvi.outer_iters"] += report.iterations
    counts["qvi.agent_iters"] += report.iterations * prob.n_agents
    counts["qvi.nonconverged"] += not report.converged


def _on_solve_qvi_raise(counts, exc):
    if isinstance(exc, InnerSolveFailure):
        counts["qvi.inner_failures"] += 1


def _on_extragradient(counts, report, fn, args, kwargs):
    counts["vi.eg_iters"] += report.iterations
    counts["vi.eg_unconverged"] += not report.converged


def _on_best_response(counts, _residual, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    counts["verify.samples"] += bound.arguments["samples"]


#: (module, attribute path, layer, kind function, return hook, raise hook)
TARGETS = (
    ("qvex.qvi", "project_values", "sets.proj", _projection_kind, None, None),
    ("qvex.qvi", "project", "sets.proj", _projection_kind, None, None),
    ("qvex.vi", "project_values", "sets.proj", _projection_kind, None, None),
    # sample_feasible, in qvex.sets, projects through the module's own `project`
    ("qvex.sets", "project", "sets.proj", _projection_kind, None, None),
    ("qvex.qvi", "solve_vi_extragradient", "vi.eg", None, _on_extragradient, None),
    ("qvex.qvi", "vi_residual", "vi.residual", None, None, None),
    ("qvex.verify", "vi_residual", "vi.residual", None, None, None),
    ("qvex.qvi", "estimate_lipschitz", "vi.lipschitz", None, None, None),
    ("qvex.vi", "estimate_lipschitz", "vi.lipschitz", None, None, None),
    # agent operators evaluate the gradient through the economy module's global
    ("qvex.economy", "utility_gradient", "economy.op", None, None, None),
    ("qvex.economy", "assemble_qvi", "economy.assemble", None, None, None),
    ("qvex.cli", "assemble_qvi", "economy.assemble", None, None, None),
    ("qvex.grids", "GridFunction.__post_init__", "grids.gf", None, None, None),
    ("qvex.grids", "PriceCurve.__post_init__", "grids.gf", None, None, None),
    ("qvex.qvi", "solve_qvi", "qvi", None, _on_solve_qvi, _on_solve_qvi_raise),
    ("qvex.cli", "solve_qvi", "qvi", None, _on_solve_qvi, _on_solve_qvi_raise),
    ("qvex.verify", "certify_equilibrium", "verify.cert", None, None, None),
    ("qvex.cli", "certify_equilibrium", "verify.cert", None, None, None),
    ("qvex.verify", "best_response_residual", "verify.br", None, _on_best_response, None),
    ("qvex.scenario", "load_scenario", "scenario.load", None, None, None),
    ("qvex.scenario", "build_economy", "scenario.load", None, None, None),
    ("qvex.cli", "load_scenario", "scenario.load", None, None, None),
    ("qvex.cli", "build_economy", "scenario.load", None, None, None),
    ("qvex.cli", "_solve_report_text", "cli.io", None, None, None),
    ("qvex.cli", "_write_series_csv", "cli.io", None, None, None),
    ("qvex.cli", "run_solve", "cli.solve", None, None, None),
)


class Tracer:
    """Span stack, self times and counters for one traced region."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, layer, kind_of, on_return, on_raise):
        stack, counts, self_s = self._stack, self.counts, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            for frame in stack:
                if frame[0] == layer:
                    return fn(*args, **kwargs)
            kind = kind_of(args, kwargs) if kind_of else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise:
                    on_raise(counts, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                counts[layer] += 1
                self_s[layer] += own
                if kind:
                    counts[f"{layer}.{kind}"] += 1
                    self_s[f"{layer}.{kind}"] += own
            if on_return:
                on_return(counts, out, fn, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; missing ones are listed, not fatal."""
        for module_name, path, layer, kind_of, on_return, on_raise in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(orig, layer, kind_of, on_return, on_raise))
            self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, traced_s: float) -> dict:
        """Per-layer metrics; `traced_s` is the wall time of the traced region."""
        c, s = self.counts, self.self_s
        proj_calls = c["sets.proj"]
        out = {
            "sets.proj_calls": (proj_calls, "count"),
            "sets.proj_s": (s["sets.proj"], "s"),
            "sets.proj_us": (1e6 * s["sets.proj"] / proj_calls if proj_calls else 0.0, "us"),
        }
        for kind in ("budget_capbox", "simplex", "dykstra"):
            out[f"sets.proj.{kind}.calls"] = (c[f"sets.proj.{kind}"], "count")
            out[f"sets.proj.{kind}.s"] = (s[f"sets.proj.{kind}"], "s")
        agent_iters = c["qvi.agent_iters"]
        out.update(
            {
                "vi.eg_calls": (c["vi.eg"], "count"),
                "vi.eg_iters": (c["vi.eg_iters"], "count"),
                "vi.eg_unconverged": (c["vi.eg_unconverged"], "count"),
                "vi.eg_self_s": (s["vi.eg"], "s"),
                "vi.residual_calls": (c["vi.residual"], "count"),
                "vi.residual_s": (s["vi.residual"], "s"),
                "vi.lipschitz_calls": (c["vi.lipschitz"], "count"),
                "vi.lipschitz_s": (s["vi.lipschitz"], "s"),
                "economy.op_evals": (c["economy.op"], "count"),
                "economy.op_s": (s["economy.op"], "s"),
                "economy.assemble_s": (s["economy.assemble"], "s"),
                "grids.gf_new": (c["grids.gf"], "count"),
                "grids.gf_s": (s["grids.gf"], "s"),
                "qvi.solves": (c["qvi"], "count"),
                "qvi.outer_iters": (c["qvi.outer_iters"], "count"),
                "qvi.self_s": (s["qvi"], "s"),
                "qvi.inner_retry_ratio": (c["vi.eg"] / agent_iters if agent_iters else 0.0, "ratio"),
                "qvi.inner_failures": (c["qvi.inner_failures"], "count"),
                "qvi.nonconverged": (c["qvi.nonconverged"], "count"),
                "verify.cert_calls": (c["verify.cert"], "count"),
                "verify.cert_s": (s["verify.cert"], "s"),
                "verify.br_s": (s["verify.br"], "s"),
                "verify.samples": (c["verify.samples"], "count"),
                "scenario.load_s": (s["scenario.load"], "s"),
                "cli.io_s": (s["cli.io"], "s"),
                "cli.self_s": (s["cli.solve"], "s"),
                "trace.untraced_s": (traced_s - sum(s[layer] for layer in LAYERS), "s"),
                "trace.missing_bindings": (len(self.missing), "count"),
            }
        )
        return out

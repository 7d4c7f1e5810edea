"""qvex benchmark: one workload per process, outcomes checked, metrics as JSON.

    python3 perfbench/run.py --workload scenarios --seed 0 --seconds 60 --trace 0

Workloads are `scenarios`, `corpus` and `certify` (see README.md here);
`--workload all` runs each in its own process.  Runs from any working
directory: qvex is imported from the `src/` tree next to this directory,
and numpy is kept single-threaded.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics:

* `setup_s`: median fresh-interpreter import time of qvex plus the median
  of three input preparations (generation or parsing, plus `assemble_qvi`);
* `wall_s`: one pass over the items, as the sum of per-item mean times;
* `ok_frac`: the share of item runs whose outcome matched the expected one;
* `peak_rss_mb`: the process's peak resident set.

The median over items of their mean times, `time_to_cert_s.p50`, is
printed as a diagnostic line before the result.

Items run round-robin until `--seconds` have passed; the first pass
always completes, and after it an item starts only if it still fits before
the deadline.  With `--trace 1` the run makes one untraced pass, then one
traced preparation and pass, checks that both passes produced
bit-identical outputs, and reports the per-layer metrics of `layertrace`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("scenarios", "corpus", "certify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SCRATCH = ".perfbench_tmp"
IMPORT_PROBE = "import time; t = time.perf_counter(); import qvex; print(time.perf_counter() - t)"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_seconds() -> float:
    """Time `import qvex` in a fresh interpreter, as a user's first call pays it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def _speed_probe() -> float:
    """A fixed numpy loop, logged as a diagnostic of the machine's speed only."""
    import numpy as np

    a = np.random.default_rng(0).random((200, 200))
    start = time.perf_counter()
    for _ in range(300):
        a @ a
        np.sort(a, axis=0)
    return time.perf_counter() - start


def _run_item(item):
    from workloads import Outcome

    start = time.perf_counter()
    try:
        outcome = item.run()
    except Exception as exc:  # an item that raises counts as failed; the run goes on
        outcome = Outcome(False, b"", f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, outcome


def _measure(items, seconds):
    """Run the items round-robin until `seconds` have passed.

    The first pass always completes.  After it, an item starts only if its
    median time still fits before the deadline, so a run ends close to
    `seconds` and cheap items fill the time that slow ones leave.
    """
    times = {item.label: [] for item in items}
    failures = Counter()
    start = time.perf_counter()
    for n in itertools.count():
        item = items[n % len(items)]
        if n >= len(items):
            left = seconds - (time.perf_counter() - start)
            fits = {label: statistics.median(ts) <= left for label, ts in times.items()}
            if not any(fits.values()):
                break
            if not fits[item.label]:
                continue
        elapsed, outcome = _run_item(item)
        times[item.label].append(elapsed)
        if not outcome.ok:
            failures[f"{item.label}: {outcome.detail}"] += 1
    return times, failures


def _one_pass(items):
    start = time.perf_counter()
    outcomes = [_run_item(item)[1] for item in items]
    return time.perf_counter() - start, outcomes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(prepare, seed, seconds, scratch, import_s):
    prep_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        items = prepare(ROOT, seed, scratch)
        prep_times.append(time.perf_counter() - start)
    times, failures = _measure(items, seconds)
    # under heavy contention a fast sample is rare luck, so an item's fastest
    # repeat swings more between runs than its mean does (README.md)
    typical = {label: statistics.fmean(ts) for label, ts in times.items()}
    attempted = sum(len(ts) for ts in times.values())
    for label, ts in times.items():
        print(f"# item {label}: best {min(ts):.4f} s, mean {typical[label]:.4f} s"
              f" over {len(ts)} runs")
    # one small item sets the median, so machine noise moves it too much to gate
    print(f"# time_to_cert_s.p50 (diagnostic only): {statistics.median(typical.values()):.4f} s")
    metrics = {
        "setup_s": _metric(import_s + statistics.median(prep_times), "s"),
        "wall_s": _metric(sum(typical.values()), "s"),
        "ok_frac": _metric(1.0 - sum(failures.values()) / attempted, "fraction"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failures, metrics


def _per_layer(prepare, seed, scratch):
    from layertrace import Tracer

    items = prepare(ROOT, seed, scratch)
    untraced_wall, plain = _one_pass(items)
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        items = prepare(ROOT, seed, scratch)
        setup_s = time.perf_counter() - start
        wall_s, traced = _one_pass(items)
    failures = Counter(
        f"{item.label}: {outcome.detail}"
        for item, outcome in itertools.chain(zip(items, plain), zip(items, traced))
        if not outcome.ok
    )
    failures.update(
        f"{item.label}: traced outputs differ from untraced ones"
        for item, a, b in zip(items, plain, traced)
        if a.fingerprint != b.fingerprint
    )
    for name in tracer.missing:
        print(f"# trace target not found: {name}")
    layers = tracer.metrics(setup_s + wall_s)
    layers["cli.bytes_written"] = (sum(o.bytes_written for o in traced), "B")
    layers["trace.setup_s"] = (setup_s, "s")
    layers["trace.wall_s"] = (wall_s, "s")
    layers["trace.untraced_wall_s"] = (untraced_wall, "s")
    layers["trace.overhead_s"] = (wall_s - untraced_wall, "s")
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    return 2 * len(items), failures, metrics


def run_workload(args) -> int:
    import_s = statistics.median(_import_seconds() for _ in range(SETUP_REPEATS))
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import qvex

    if Path(qvex.__file__).resolve().parent != ROOT / "src" / "qvex":
        print(f"qvex imported from {qvex.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    prepare = WORKLOADS[args.workload]
    print(f"# speed probe (diagnostic only): {_speed_probe():.4f} s")
    scratch = ROOT / SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            attempted, failures, metrics = _per_layer(prepare, args.seed, scratch)
        else:
            attempted, failures, metrics = _end_to_end(
                prepare, args.seed, args.seconds, scratch, import_s
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"# speed probe (diagnostic only): {_speed_probe():.4f} s")
    for failure, count in failures.items():
        print(f"# failed {count}x {failure}")
    failed = sum(failures.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(f"== {name}")
        for line in lines:
            if "time_to_cert_s.p50" in line:
                print(line)
        for metric, entry in result["metrics"].items():
            print(f"{name:10s} {metric:28s} {entry['value']:.6g} {entry['unit']}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in ("src/qvex/__init__.py", "scenarios") if not (ROOT / p).exists()]
    if missing:
        print(f"not a qvex checkout: {ROOT} lacks {missing}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""qdpool benchmark: one workload, one seed, end-to-end or traced metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_ucb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paper_ucb --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``--smoke`` runs every workload at a tiny size in both modes and
validates the result files.  Every metric is printed with its unit, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(including machine facts and ``failed_ratio``) is written to
``perfbench/_out/result_<workload>_seed<seed>_trace<t>.json``.

Each measurement runs in fresh worker processes (``worker.py``) with the
BLAS thread count fixed, so that parent and change run under the same
setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("desk_sweep", "paper_ucb", "arm_map_elites")
SETUP_PROBES = 9
BLAS_THREADS = "1"  # the engine runs with threads=1; must not exceed nproc
DEADLINE_S = 170.0
FAILED_RATIO = {"name": "failed_ratio", "unit": "ratio"}  # printed, not in BENCHMARK.json


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def call_worker(args: list[str], timeout: float) -> dict:
    """Runs one worker process to completion and returns its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_facts() -> dict:
    """The git revision if the checkout is a repository, and in any case a
    digest of the library source that was measured."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Runs the set-up probes (untraced only) and the measuring worker,
    and returns the full result record."""
    started = time.perf_counter()
    flags = [workload, str(seed), "1" if smoke else "0"]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(call_worker(["setup", *flags], timeout=30))
    remaining = DEADLINE_S - (time.perf_counter() - started)
    m = call_worker(["measure", *flags, repr(seconds), "1" if trace else "0"], timeout=remaining)

    attempted, failed = m["attempted"], m["failed"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "machine": {**m["machine"], **source_facts()},
        "attempted": attempted, "failed": failed, "failures": m["failures"],
        "run_seeds": m["run_seeds"], "digests": m["digests"],
    }
    if trace:
        layers = m["layers"]
        record["per_layer"] = layers["metrics"]
        record["trace_checks"] = layers["checks"]
        record["self_ms_per_gen"] = layers["self_ms_per_gen"]
        record["first_step_excess_ms"] = m["first_step_excess_ms"]
        record["spans_file"] = m["spans_file"]
    else:
        record["end_to_end"] = {
            "evals_per_s": m.get("evals_per_s"),
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "peak_rss_mb": m["peak_rss_mb"],
            "qd_score": m.get("qd_score"),
            "coverage": m.get("coverage"),
            "failed_ratio": failed / attempted,
        }
        record["evals_per_wall_s"] = m.get("evals_per_wall_s")
        record["samples"] = {
            "probe_ms_median": m["probe_ms_median"],
            "evals_per_s_runs": m["evals_per_s_runs"],
            "setup_s_probes": [p["setup_s"] for p in setup],
            "setup_wall_s_probes": [p["setup_wall_s"] for p in setup],
            "first_step_ms_runs": m["first_step_ms_runs"],
        }
    return record


def metric_table(record: dict, spec: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric the mode declares and
    the runs measured (runs that failed can leave one unmeasured)."""
    if record["trace"]:
        declared, values = spec["per_layer"], record["per_layer"]
    else:
        declared = spec["end_to_end"] + [FAILED_RATIO]
        values = record["end_to_end"]
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if isinstance(values.get(m["name"]), (int, float)) and math.isfinite(values[m["name"]])
    }


def validate(record: dict, table: dict, spec: dict) -> list[str]:
    """Problems with a result record: a declared metric missing or without
    a unit, or a broken trace tree."""
    declared = spec["per_layer"] if record["trace"] else spec["end_to_end"] + [FAILED_RATIO]
    problems = [f"missing {m['name']}" for m in declared if m["name"] not in table]
    problems += [f"{k} has no unit" for k, v in table.items() if not v.get("unit")]
    checks = record.get("trace_checks")
    if checks:
        step = checks["step_ms_total"]
        if abs(checks["self_ms_in_step_total"] - step) > 0.02 * step:
            problems.append("per-layer self times do not add up to engine.step")
        if checks["min_self_ms"] < -1e-3:
            problems.append("a span has negative self time")
    return problems


def report(record: dict, table: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"workload {record['workload']}  seed {record['seed']}  {mode}"
          f"  runs {record['attempted']}  failed {record['failed']}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for name, m in table.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        print(f"  {'(evals_per_s by the wall clock, uncalibrated)':<44}"
              f" {record['evals_per_wall_s']:>14.6g} 1/s")
    if record["trace"]:
        print("  self time inside engine.step, ms/gen:")
        for name, ms in record["self_ms_per_gen"].items():
            print(f"    {name:<42} {ms:>10.4f}")
        excess = record["first_step_excess_ms"]
        if excess:
            layer, ms = next(iter(excess.items()))
            print(f"  first generation: {record['per_layer']['engine.step.first_ms']:.3f} ms,"
                  f" largest excess {ms:.3f} ms in {layer}")


def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"result_{workload}_seed{seed}_trace{trace}.json"


def run_one(args, spec: dict, smoke: bool) -> tuple[dict, dict]:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke)
    table = metric_table(record, spec)
    path = result_path(args.workload, args.seed, args.trace)
    path.write_text(json.dumps({**record, "metrics": table}, indent=1) + "\n")
    return record, table


def smoke(spec: dict) -> int:
    """Every workload, tiny, both modes; the result files must hold every
    declared metric with its unit."""
    problems, attempted, failed = [], 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace)
            record, _ = run_one(args, spec, smoke=True)
            saved = json.loads(result_path(workload, 1, trace).read_text())
            found = validate(saved, saved["metrics"], spec)
            problems += [f"{workload} trace {trace}: {p}" for p in found + saved["failures"]]
            attempted += record["attempted"]
            failed += record["failed"]
            print(f"smoke {workload} trace {trace}: {len(saved['metrics'])} metrics,"
                  f" {'ok' if not found else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required without --smoke")

    if not (ROOT / "src" / "qdpool" / "__init__.py").is_file():
        print(f"error: no qdpool source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(spec)

    record, table = run_one(args, spec, smoke=False)
    problems = validate(record, table, spec)
    report(record, table)
    for p in problems:
        print(f"  CHECK: {p}")
    if any(p.startswith("missing ") for p in problems):
        print("error: a declared metric was not measured; no result", file=sys.stderr)
        return 1
    declared = spec["per_layer" if args.trace else "end_to_end"]
    contract = {m["name"]: table[m["name"]] for m in declared}
    correct = record["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": contract}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, through the same code path as a real run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = ("evals_per_s", "setup_s", "peak_rss_mb", "qd_score", "coverage", "failed_ratio")


def run_bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_writes_every_metric_with_its_unit():
    proc = run_bench(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 12

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} | {"failed_ratio"} == set(END_TO_END)
    per_layer = [m["name"] for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, END_TO_END), (1, per_layer)):
            path = HERE / "_out" / f"result_{workload}_seed1_trace{trace}.json"
            saved = json.loads(path.read_text())
            assert saved["smoke"] and saved["failed"] == 0
            for name in names:
                assert saved["metrics"][name]["unit"], (workload, name)
            assert saved["machine"]["blas_threads"] == 1


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench(["--workload", "paper_ucb", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

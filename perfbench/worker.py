"""One benchmark process: ``setup`` times a fresh process up to its first
generation; ``measure`` repeats a workload's run for a given time and
prints one JSON object as its last line.

Run by ``run.py``, which sets the BLAS thread count in the environment
before this process loads numpy.  Usage::

    python3 perfbench/worker.py setup   WORKLOAD SEED SMOKE
    python3 perfbench/worker.py measure WORKLOAD SEED SMOKE SECONDS TRACE
"""

import time

START = time.perf_counter()  # before qdpool and numpy are imported

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "_out"
sys.path.insert(0, str(ROOT / "src"))

import qdpool  # noqa: E402

import workloads  # noqa: E402


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(w, seed: int, seconds: float, trace: bool) -> dict:
    """Makes ``w.runs(seconds)`` runs, cycling through the run seeds (at
    least one seed runs twice, so the byte-identity check has a repeat to
    compare).  In the traced mode the first pass over the seeds is traced
    and the rest is not, so the process's first generation is one the
    trace sees."""
    import resource

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    run_seeds = w.run_seeds(seed)
    out_dir = OUT / f"tree_{w.name}_{seed}_{os.getpid()}"
    first, times, traced_times = {}, {s: [] for s in run_seeds}, []
    failures = []
    for i in range(w.runs(seconds)):
        run_seed = run_seeds[i % len(run_seeds)]
        traced = tracer is not None and i < len(run_seeds)
        if traced:
            tracer.install()
        try:
            outcome = workloads.run_once(w, run_seed, out_dir)
        except Exception as exc:  # a failed run is counted, not fatal
            trace_lines = traceback.format_exception(exc, limit=-3)
            failures.append(f"seed {run_seed}: " + "".join(trace_lines))
            continue
        finally:
            if traced:
                tracer.uninstall()
        if first.setdefault(run_seed, outcome).digest != outcome.digest:
            failures.append(f"seed {run_seed}: a repeated run wrote different bytes")
            continue
        (traced_times if traced else times[run_seed]).append(outcome)
    shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "attempted": w.runs(seconds),
        "failed": len(failures),
        "failures": failures,
        "run_seeds": run_seeds,
        "digests": {s: o.digest for s, o in first.items()},
        "evals_per_s_runs": {s: [o.evals_per_s for o in runs] for s, runs in times.items()},
        "probe_ms_median": median(p * 1e3 for runs in times.values() for o in runs
                                  for p in o.probe_seconds) if all(times.values()) else None,
        "first_step_ms_runs": [o.first_step_seconds * 1e3 for runs in times.values()
                               for o in runs if o.first_step_seconds is not None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if len(first) == len(run_seeds):
        result["qd_score"] = sum(o.qd_score for o in first.values()) / len(first)
        result["coverage"] = sum(o.coverage for o in first.values()) / len(first)
    if tracer is None and all(times.values()):
        result["evals_per_s"] = rate(times)
        result["evals_per_wall_s"] = rate(times, lambda o: o.wall_seconds)
    if tracer is not None:
        layers = tracer.layers()
        # the traced first pass against the untraced repeats of the same seeds
        pairs = [(t, times[s][0]) for s, t in zip(run_seeds, traced_times) if times[s]]
        if pairs and len(traced_times) == len(run_seeds):
            traced_s = sum(t.seconds for t, _ in pairs)
            layers["metrics"]["trace.overhead_ratio"] = sum(u.seconds for _, u in pairs) / traced_s
        result["layers"] = layers
        result["first_step_excess_ms"] = tracer.first_step_excess()
        spans_path = OUT / f"spans_{w.name}_seed{seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def rate(runs_by_seed: dict, seconds=lambda o: o.seconds) -> float:
    """Evaluations per second over one pass of the run seeds, each seed
    timed by the median of its runs."""
    evaluations = sum(runs[0].evaluations for runs in runs_by_seed.values())
    return evaluations / sum(median(seconds(o) for o in runs) for runs in runs_by_seed.values())


def main(argv: list[str]) -> int:
    role, name, seed, smoke = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    src = (ROOT / "src").resolve()
    if src not in Path(qdpool.__file__).resolve().parents:
        print(f"qdpool imported from {qdpool.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[name]
    if smoke:
        w = w.scaled_down()
    OUT.mkdir(exist_ok=True)
    if role == "setup":
        workloads.setup(w, seed)
        wall = time.perf_counter() - START
        workloads.reference_probe()  # the first eigh of a process starts BLAS up
        probe = median(workloads.reference_probe() for _ in range(3))
        result = {"setup_s": wall * workloads.REFERENCE_S / probe, "setup_wall_s": wall}
    else:
        result = measure(w, seed, float(argv[4]), argv[5] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

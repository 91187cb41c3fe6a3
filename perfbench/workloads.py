"""The benchmark's three workloads, each a client of the public qdpool API.

A workload builds its configs from the benchmark seed alone.  One run is
one fixed evaluation budget with one run seed; a workload has a fixed
number of run seeds derived from the benchmark seed, because QD-score
and the emitter mix (hence the speed) vary from seed to seed by ~6% on
``paper_ucb`` and the mean over several seeds varies less.  Each run is
checked as it ends.  The benchmark makes a fixed number of runs, cycling
through the run seeds; a repeat must write the same bytes as the first
run with that seed, which is itself one of the checks.

Why these three (layer shares are untraced cProfile shares, 2 cores):

* ``desk_sweep`` -- the ``qdpool run`` path (``cli.run_experiment``) on
  ``sphere`` n=20: Python-overhead bound (``Engine.step`` self time and
  per-candidate insertion), the only workload that exercises the CLI and
  the CSV writers.  ``sphere`` rather than ``rastrigin_multi`` because the
  latter fills the whole 50x50 grid and its QD-score stops moving.
* ``paper_ucb`` -- one Engine run of ``rastrigin_proj`` n=100 with the
  full emitter pool: LAPACK bound (``eigh`` in ``CmaesState.tell``),
  insertion is small.
* ``arm_map_elites`` -- one Engine run of ``redundant_arm`` n=100 with
  random emitters only: no CMA-ES at all; a large archive that is read
  more than written (``genotype_matrix`` rebuilds, insertion).
"""

from __future__ import annotations

import csv
import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qdpool import cli
from qdpool.archive import Archive, cell_indices
from qdpool.engine import Engine, RunConfig
from qdpool.metrics import write_metrics_csv
from qdpool.tasks import make_task


class CheckFailed(AssertionError):
    """A run produced output that violates one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    """One fixed-budget run: a task, its variants and the loop sizes."""

    name: str
    task: str
    dim: int
    resolution: int
    variants: tuple[str, ...]
    generations: int
    slots: int = 12
    batch: int = 50
    init_samples: int = 100
    replications: int = 1
    seeds: int = 1  # run seeds per benchmark seed
    sweep: bool = False  # through cli.run_experiment rather than Engine
    # Wall time of one run on the 2-core box the bounds were set on.  A
    # measurement of S seconds makes S // run_seconds runs, cycling through
    # the run seeds, and at least one more than there are seeds, so one
    # seed is always repeated.  How much work is measured thus depends on
    # the seconds asked for, never on how fast the machine happens to be.
    run_seconds: float = 1.0

    def runs(self, seconds: float) -> int:
        return max(self.seeds + 1, int(seconds // self.run_seconds))

    def scaled_down(self) -> "Workload":
        """The same code path at a size that runs in well under a second."""
        return replace(self, dim=6, resolution=10, generations=6, slots=2, batch=4, init_samples=20)

    def run_seeds(self, seed: int) -> list[int]:
        """Distinct run seeds for one benchmark seed (a sweep's replication
        k adds k to its run seed, so they stay distinct too)."""
        return [1000 * seed + 10 * i for i in range(self.seeds)]

    @property
    def engine_runs(self) -> int:
        return len(self.variants) * self.replications

    @property
    def evaluations_per_engine_run(self) -> int:
        return self.init_samples + self.generations * self.slots * self.batch

    @property
    def total_cells(self) -> int:
        return self.resolution**2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_sweep", "sphere", 20, 50, ("me-map-elites-ucb", "map-elites"),
            generations=200, replications=2, sweep=True, run_seconds=4.0,
        ),
        Workload(
            "paper_ucb", "rastrigin_proj", 100, 100, ("me-map-elites-ucb",),
            generations=300, seeds=3, run_seconds=7.5,
        ),
        Workload(
            "arm_map_elites", "redundant_arm", 100, 100, ("map-elites",),
            generations=400, seeds=3, run_seconds=5.0,
        ),
    )
}


CHUNK = 10  # generations per timed stretch of an Engine run

# The machine this benchmark runs on is shared: its speed swings by up to
# 1.6x, in bursts of about a second and in phases of minutes, and every
# piece of code slows alike.  So the benchmark times its work in short
# stretches and, between stretches, times a fixed kernel that touches no
# qdpool code.  A stretch's time is scaled by how much slower than
# REFERENCE_S the kernel ran around it.  That removes most of the machine's
# swing (run-to-run spread of one seed fell from 8-22% to 2-5%) and none
# of a change to qdpool, whose code the kernel does not run.
REFERENCE_S = 0.0025  # the kernel's time on an idle core (2-core x86_64 box)
_REFERENCE_MATRIX = np.cov(np.random.default_rng(0).standard_normal((100, 200)))


def reference_probe() -> float:
    """Seconds the machine takes right now for a fixed kernel: the two
    kinds of work qdpool does, a 100x100 eigh and a pure-Python loop."""
    start = time.perf_counter()
    np.linalg.eigh(_REFERENCE_MATRIX)
    np.linalg.eigh(_REFERENCE_MATRIX)
    total = 0
    for i in range(20_000):
        total += i
    return time.perf_counter() - start


class Stopwatch:
    """Times consecutive stretches of work and probes the machine's speed
    before the first and after each stretch, outside the stretches."""

    def __init__(self):
        self.stretches: list[float] = []
        self.probes = [reference_probe()]
        self.started = time.perf_counter()

    def lap(self) -> None:
        self.stretches.append(time.perf_counter() - self.started)
        self.probes.append(reference_probe())
        self.started = time.perf_counter()


@dataclass
class RunOutcome:
    """What one run of a workload yields for the end-to-end metrics.

    ``stretch_seconds[i]`` times the i-th stretch of ``CHUNK`` generations
    (of one (variant, rep) run for the sweep); ``probe_seconds[i]`` and
    ``probe_seconds[i + 1]`` are the reference kernel just before and after
    it."""

    evaluations: int
    stretch_seconds: list[float]
    probe_seconds: list[float]
    qd_score: float
    coverage: float
    digest: str
    first_step_seconds: float | None = None

    @property
    def wall_seconds(self) -> float:
        return sum(self.stretch_seconds)

    @property
    def seconds(self) -> float:
        """The run's time on a machine where the kernel takes REFERENCE_S:
        each stretch scaled by the median of the four probes around it."""
        p = self.probe_seconds
        return sum(
            t * REFERENCE_S / statistics.median(p[max(i - 1, 0) : i + 3])
            for i, t in enumerate(self.stretch_seconds)
        )

    @property
    def evals_per_s(self) -> float:
        return self.evaluations / self.seconds


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        with open(path, "rb") as f:  # streamed, so peak_rss_mb stays the workload's
            for chunk in iter(lambda: f.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def _check_archive(archive: Archive) -> None:
    """Every elite must bin to the cell it is stored under."""
    cells = np.array([cell for cell, _ in archive], dtype=np.int64)
    descriptors = np.array([elite.descriptor for _, elite in archive])
    _check(len(cells) > 0, "archive is empty")
    rebinned = cell_indices(descriptors, archive.spec)
    _check(np.array_equal(rebinned, cells), "an archive elite does not bin to its own cell")


def _check_quality(qd: float, size: int, coverage: float) -> None:
    _check(qd <= size + 1e-9, f"qd_score {qd} exceeds archive size {size}")
    _check(0.0 <= coverage <= 1.0, f"coverage {coverage} outside [0, 1]")


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def sweep_flags(w: Workload, seed: int, out_dir: Path) -> dict:
    """The flags `qdpool run` would receive for this workload."""
    return dict(
        task_name=w.task, variants=list(w.variants), generations=w.generations,
        slots=w.slots, batch=w.batch, init_samples=w.init_samples,
        replications=w.replications, base_seed=seed, dim=w.dim,
        resolution=w.resolution, out_dir=str(out_dir), threads=1,
    )


def engine_config(w: Workload, seed: int, variant: str | None = None) -> RunConfig:
    task = make_task(w.task, dim=w.dim, resolution=w.resolution)
    return RunConfig(
        task=task, variant=variant or w.variants[0], generations=w.generations,
        slots=w.slots, batch_per_emitter=w.batch, init_samples=w.init_samples,
        seed=seed, threads=1,
    )


def setup(w: Workload, seed: int) -> None:
    """Everything the first run does before its first generation: config,
    task, ``Engine(...)`` and ``initialize()``."""
    run_seed = w.run_seeds(seed)[0]
    if w.sweep:
        cfg = cli.parse_config(sweep_flags(w, run_seed, Path(".")))
        run_config = engine_config(w, cfg.base_seed, cfg.variants[0])
    else:
        run_config = engine_config(w, run_seed)
    Engine(run_config).initialize()


def run_once(w: Workload, seed: int, out_dir: Path) -> RunOutcome:
    """One fixed-budget run with run seed ``seed``, timed, then checked.

    Raises:
        CheckFailed: If any output check fails.
    """
    out_dir = _fresh_dir(out_dir)
    if w.sweep:
        return _run_sweep(w, seed, out_dir)
    return _run_engine(w, seed, out_dir)


def _run_engine(w: Workload, seed: int, out_dir: Path) -> RunOutcome:
    eng = Engine(engine_config(w, seed))
    eng.initialize()
    watch = Stopwatch()
    for generation in range(1, w.generations + 1):
        eng.step()
        if generation == 1:
            first = time.perf_counter() - watch.started
        if generation % CHUNK == 0 or generation == w.generations:
            watch.lap()

    final = eng.records[-1]
    evaluations = w.generations * w.slots * w.batch
    _check(
        eng.evaluations == w.evaluations_per_engine_run == final.evaluations,
        f"evaluations {eng.evaluations} != init + generations x slots x batch",
    )
    _check(final.generation == w.generations, "last metrics record is not the final generation")
    coverage = len(eng.archive) / w.total_cells
    _check_quality(final.qd_score, len(eng.archive), coverage)
    _check_archive(eng.archive)
    write_metrics_csv(eng.records, out_dir / "metrics.csv")
    eng.archive.write_csv(out_dir / "archive.csv")
    return RunOutcome(
        evaluations, watch.stretches, watch.probes, final.qd_score, coverage,
        tree_digest(out_dir), first,
    )


def _run_sweep(w: Workload, seed: int, out_dir: Path) -> RunOutcome:
    cfg = cli.parse_config(sweep_flags(w, seed, out_dir))
    # run_experiment echoes one line as each (variant, rep) run is written:
    # those moments split the sweep into stretches
    watch = Stopwatch()
    status = cli.run_experiment(cfg, echo=lambda *args, **kwargs: watch.lap())
    watch.lap()
    _check(status == 0, f"run_experiment returned {status}")
    _check(len(watch.stretches) == w.engine_runs + 1, "run_experiment echoed an unexpected line")

    with open(out_dir / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    _check(len(rows) == w.engine_runs, f"summary.csv has {len(rows)} rows, not variants x reps")
    grid = make_task(w.task, dim=w.dim, resolution=w.resolution).grid()
    qd = coverage = 0.0
    for row in rows:
        _check(
            int(row["evaluations"]) == w.evaluations_per_engine_run,
            f"{row['variant']}/rep{row['rep']}: evaluations != init + generations x slots x batch",
        )
        size = int(row["archive_size"])
        _check_quality(float(row["qd_score"]), size, size / w.total_cells)
        rep_dir = out_dir / w.task / row["variant"] / f"rep{row['rep']}"
        archive = Archive.read_csv(rep_dir / "archive.csv", grid)
        _check(len(archive) == size, "archive.csv row count differs from summary.csv")
        _check_archive(archive)
        qd += float(row["qd_score"])
        coverage += size / w.total_cells
    n = len(rows)
    evaluations = n * w.evaluations_per_engine_run
    return RunOutcome(
        evaluations, watch.stretches, watch.probes, qd / n, coverage / n, tree_digest(out_dir)
    )

"""Run engine: the generational loop that couples archive, emitters, and
scheduler, with deterministic RNG management and optional threaded
evaluation.

Every compared algorithm variant is expressed as a pool composition of
this one engine, scheduled by the same UCB1 bandit:

=====================  =================================  ==========
variant                pool composition                   scheduler
=====================  =================================  ==========
me-map-elites-ucb      ``slots`` instances of each kind   UCB1
me-map-elites-uniform  ``slots/4`` instances of each      UCB1
cma-me-opt             ``slots`` optimising               UCB1
cma-me-dir             ``slots`` random-direction         UCB1
cma-me-imp             ``slots`` improvement              UCB1
map-elites             ``slots`` random                   UCB1
=====================  =================================  ==========

(Every pool but the first holds exactly ``slots`` emitters, so the
bandit's choices are forced: each generation it re-activates every idle
emitter, which is plain round-robin reactivation.  Each emitter draws
from its own random stream, so the order of activation cannot matter.)

Determinism contract: a run's outputs depend only on (config, seed).
The root seed spawns one named substream for initialization and one per
emitter instance; all random draws happen on the main thread.  Worker
threads only evaluate pure numpy batches row-wise, so the thread count
cannot change any result bit.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from qdpool.archive import AddStatus, Archive, cell_indices
from qdpool.emitters import EMITTER_CLASSES, Emitter, EmitterKind
from qdpool.metrics import GenerationRecord, snapshot
from qdpool.scheduler import GRANULARITIES, UcbScheduler
from qdpool.tasks import TaskSpec, evaluate_batch

VARIANT_NAMES = (
    "me-map-elites-ucb",
    "me-map-elites-uniform",
    "cma-me-opt",
    "cma-me-dir",
    "cma-me-imp",
    "map-elites",
)

_SINGLE_KIND_VARIANTS = {
    "cma-me-opt": EmitterKind.OPTIMISING,
    "cma-me-dir": EmitterKind.RANDOM_DIRECTION,
    "cma-me-imp": EmitterKind.IMPROVEMENT,
    "map-elites": EmitterKind.RANDOM,
}


def variant_composition(variant: str, slots: int) -> dict[EmitterKind, int]:
    """Pool composition (kind -> instance count) for a named variant."""
    if variant == "me-map-elites-ucb":
        return {kind: slots for kind in EmitterKind}
    if variant == "me-map-elites-uniform":
        if slots % len(EmitterKind) != 0:
            raise ValueError("uniform variant needs slots divisible by the four kinds")
        return {kind: slots // len(EmitterKind) for kind in EmitterKind}
    if variant in _SINGLE_KIND_VARIANTS:
        return {_SINGLE_KIND_VARIANTS[variant]: slots}
    raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANT_NAMES}")


def build_pool(composition: dict[EmitterKind, int], batch_size: int) -> list[Emitter]:
    """Instantiates the emitter pool with stable ids: kinds in canonical
    enum order, instances of a kind consecutive."""
    emitters: list[Emitter] = []
    for kind in EmitterKind:
        for _ in range(int(composition.get(kind, 0))):
            emitters.append(EMITTER_CLASSES[kind](len(emitters), batch_size))
    if not emitters:
        raise ValueError("pool composition is empty")
    return emitters


@dataclass
class RunConfig:
    """Everything that determines a single run (together with nothing
    else): task, variant, loop sizes, scheduler knobs, and the seed.

    Construction checks every setting, including the scheduler knobs and,
    for a named variant's pool, that the variant accepts ``slots``.
    """

    task: TaskSpec
    variant: str = "me-map-elites-ucb"
    generations: int = 20_000
    slots: int = 12
    batch_per_emitter: int = 50
    init_samples: int = 100
    seed: int = 0
    zeta: float = 0.05
    window: int = 50
    stats_granularity: str = "instance"
    metrics_every: int = 10
    threads: int = 1
    pool_composition: dict[EmitterKind, int] | None = None

    def __post_init__(self):
        if self.variant not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANT_NAMES}")
        for name in ("generations", "slots", "init_samples", "window", "metrics_every", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.batch_per_emitter < 2:
            raise ValueError("batch_per_emitter must be at least 2")
        if not 0 <= self.zeta < np.inf:
            raise ValueError("zeta must be non-negative and finite")
        if self.stats_granularity not in GRANULARITIES:
            raise ValueError(f"stats_granularity must be one of {GRANULARITIES}")
        if self.pool_composition is None:
            variant_composition(self.variant, self.slots)


@dataclass
class RunResult:
    """Outcome of one run: the final archive, the thinned metric series,
    the full per-generation emitter-mix series, and timing (timing never
    enters any serialized artifact)."""

    config: RunConfig
    archive: Archive
    records: list[GenerationRecord]
    kind_series: list[tuple[int, int, int, int]]
    evaluations: int
    wall_time: float

    @property
    def final_record(self) -> GenerationRecord:
        return self.records[-1]


def _substream(seed: int, spawn_key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


class Engine:
    """Stepwise driver of one run; :func:`run` is the one-call wrapper.

    The per-generation cycle is strictly ordered: terminated emitters
    return to the pool, freed slots are refilled by the scheduler, new
    emitters are activated, the active emitters generate their batches
    against the frozen archive with one :meth:`Emitter.generate_batch`
    call per family (active emitters are in ascending id order and
    :func:`build_pool` numbers kinds in canonical order, so each family is
    one contiguous run and the rows stay in (slot, sample) order), all
    samples are evaluated (the only parallel region), the whole generation
    is inserted by one :meth:`Archive.insert_batch` whose outcome equals
    sequential insertion in (slot, sample) order, each emitter absorbs its
    slice of the outcome in one :meth:`Emitter.finish_generation` call and
    reports termination, and finally the bandit statistics are recorded.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.task: TaskSpec = config.task
        self.archive = Archive(self.task.grid())
        composition = config.pool_composition or variant_composition(
            config.variant, config.slots
        )
        pool = build_pool(composition, config.batch_per_emitter)
        self.scheduler = UcbScheduler(
            pool, config.slots, config.zeta, config.window, config.stats_granularity
        )
        self._rngs = {e.id: _substream(config.seed, (1, e.id)) for e in pool}
        self._terminated: list[Emitter] = []
        self._executor: ThreadPoolExecutor | None = None
        self.generation = 0
        self.evaluations = 0
        self.records: list[GenerationRecord] = []
        self.kind_series: list[tuple[int, int, int, int]] = []

    def _evaluate(self, genotypes: np.ndarray):
        """Evaluates a batch, chunked row-wise across worker threads.

        Rows are independent, so the chunk boundaries (and hence the
        thread count) cannot affect any output value.
        """
        if self._executor is None or len(genotypes) < 2 * self.config.threads:
            return evaluate_batch(genotypes, self.task)
        chunks = np.array_split(genotypes, self.config.threads)
        parts = list(self._executor.map(lambda c: evaluate_batch(c, self.task), chunks))
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.vstack([p[2] for p in parts]),
        )

    def initialize(self) -> None:
        """Fills the archive with uniformly sampled genotypes and records
        the generation-0 snapshot."""
        rng = _substream(self.config.seed, (0,))
        genotypes = rng.uniform(
            self.task.lower, self.task.upper, (self.config.init_samples, self.task.dim)
        )
        raw, norm, descriptors = self._evaluate(genotypes)
        cells = cell_indices(descriptors, self.archive.spec)
        self.archive.insert_batch(cells, genotypes, descriptors, raw, norm)
        self.evaluations = len(genotypes)
        self.records.append(snapshot(self.archive, 0, self.evaluations, (0, 0, 0, 0)))

    def step(self) -> None:
        """Advances the run by one generation."""
        cfg = self.config
        for emitter in self._terminated:
            self.scheduler.deactivate(emitter)
        self._terminated = []

        for emitter in self.scheduler.select():
            emitter.activate(self.archive, self.task, self._rngs[emitter.id])

        active = self.scheduler.active  # ascending id = slot order
        counts = dict.fromkeys(EmitterKind, 0)
        for emitter in active:
            counts[emitter.kind] += 1
        kind_counts = tuple(counts[k] for k in EmitterKind)

        families = []
        by_family = itertools.groupby(active, key=lambda e: type(e).generate_batch)
        for generate_batch, group in by_family:
            group = list(group)
            rngs = [self._rngs[e.id] for e in group]
            families.append(generate_batch(group, self.archive, self.task, rngs))
        genotypes = families[0] if len(families) == 1 else np.concatenate(families)
        raw, norm, descriptors = self._evaluate(genotypes)
        cells = cell_indices(descriptors, self.archive.spec)
        status, improvement = self.archive.insert_batch(cells, genotypes, descriptors, raw, norm)
        batch = cfg.batch_per_emitter
        adds = (status != AddStatus.REJECTED).reshape(len(active), batch).sum(1).tolist()

        stats_counts: dict[int, tuple[int, int]] = {}
        for i, (emitter, n_added) in enumerate(zip(active, adds)):
            rows = slice(i * batch, (i + 1) * batch)
            if emitter.finish_generation(
                descriptors[rows], norm[rows], status[rows], improvement[rows]
            ):
                self._terminated.append(emitter)
            stats_counts[emitter.id] = (batch, n_added)
        self.scheduler.record_generation(stats_counts)

        self.generation += 1
        self.evaluations += len(genotypes)
        self.kind_series.append(kind_counts)
        if self.generation % cfg.metrics_every == 0 or self.generation == cfg.generations:
            self.records.append(
                snapshot(self.archive, self.generation, self.evaluations, kind_counts)
            )

    def run(self) -> RunResult:
        """Initializes and executes all generations."""
        start = time.perf_counter()
        try:
            if self.config.threads > 1:
                self._executor = ThreadPoolExecutor(max_workers=self.config.threads)
            self.initialize()
            for _ in range(self.config.generations):
                self.step()
        finally:
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None
        return RunResult(
            config=self.config,
            archive=self.archive,
            records=self.records,
            kind_series=self.kind_series,
            evaluations=self.evaluations,
            wall_time=time.perf_counter() - start,
        )


def run(config: RunConfig) -> RunResult:
    """Runs one configuration to completion."""
    return Engine(config).run()

"""Run engine: the generational loop that couples archive, emitters, and
scheduler, with deterministic RNG management, optional threaded
evaluation, and :func:`run_many`, which runs independent runs at the same
time in forked processes.

Every compared algorithm variant is a pool composition of this one
engine, scheduled by the same UCB1 bandit.  One table, ``_VARIANTS``,
gives each variant its emitter kinds and how many kinds share the
``slots``: ``me-map-elites-ucb`` holds ``slots`` emitters of each of the
four kinds, ``me-map-elites-uniform`` ``slots/4`` of each, and
``cma-me-opt``, ``cma-me-dir``, ``cma-me-imp`` and ``map-elites``
``slots`` of their one kind.  Every pool but the first holds exactly
``slots`` emitters, so the bandit's choices are forced: each generation
it re-activates every idle emitter, which is plain round-robin
reactivation.  Each emitter draws from its own random stream, so the
order of activation cannot matter.

Determinism contract: a run's outputs depend only on (config, seed).
The root seed spawns one named substream for initialization and one per
emitter instance; all random draws happen on the main thread.  Worker
threads only evaluate pure numpy batches row-wise, so the thread count
cannot change any result bit.  For the same reason a run's outputs do
not depend on which process ran it.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from qdpool._counts import count
from qdpool.archive import REJECTED_CODE, Archive, cell_indices
from qdpool.emitters import EMITTER_CLASSES, Emitter, EmitterKind
from qdpool.metrics import GenerationRecord, snapshot
from qdpool.scheduler import UcbScheduler
from qdpool.tasks import TaskSpec, evaluate_batch

_T = TypeVar("_T")

# variant -> (its emitter kinds, how many kinds share the slots)
_VARIANTS = {
    "me-map-elites-ucb": (tuple(EmitterKind), 1),
    "me-map-elites-uniform": (tuple(EmitterKind), len(EmitterKind)),
    "cma-me-opt": ((EmitterKind.OPTIMISING,), 1),
    "cma-me-dir": ((EmitterKind.RANDOM_DIRECTION,), 1),
    "cma-me-imp": ((EmitterKind.IMPROVEMENT,), 1),
    "map-elites": ((EmitterKind.RANDOM,), 1),
}
VARIANT_NAMES = tuple(_VARIANTS)


def variant_composition(variant: str, slots: int) -> dict[EmitterKind, int]:
    """Pool composition (kind -> instance count) for a named variant."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANT_NAMES}")
    kinds, sharing = _VARIANTS[variant]
    if slots % sharing != 0:
        raise ValueError(f"{variant} needs slots divisible by {sharing}, got {slots}")
    return {kind: slots // sharing for kind in kinds}


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a single run (together with nothing
    else): task, variant, loop sizes, scheduler knobs, and the seed.

    Construction builds the run's pool and scheduler once
    (:func:`build_scheduler`), so their checks apply here too.  The
    config is read-only, so no later assignment skips a check, and it
    keeps its own copy of ``pool_composition``.  Only :meth:`Engine.run`
    reads ``threads``.
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
        for name, least in (
            ("generations", 1), ("slots", 1), ("batch_per_emitter", 2), ("init_samples", 1),
            ("seed", 0), ("window", 1), ("metrics_every", 1), ("threads", 1),
        ):
            object.__setattr__(self, name, count(name, getattr(self, name), least))
        if self.pool_composition is not None:
            object.__setattr__(self, "pool_composition", dict(self.pool_composition))
        build_scheduler(self)


def build_scheduler(config: RunConfig) -> UcbScheduler:
    """A fresh pool for ``config`` (its ``pool_composition``, else its
    variant's) under the :class:`UcbScheduler` that fills its slots.  The
    pool holds the kinds in canonical enum order, the instances of a kind
    consecutive, with ids 0, 1, ... in that order."""
    composition = config.pool_composition
    if composition is None or config.variant not in _VARIANTS:  # also refuses an unknown variant
        composition = variant_composition(config.variant, config.slots)
    pool: list[Emitter] = []
    for kind in EmitterKind:
        for _ in range(count(f"pool_composition[{kind}]", composition.get(kind, 0), 0)):
            pool.append(EMITTER_CLASSES[kind](len(pool), config.batch_per_emitter))
    if not pool:
        raise ValueError("pool composition is empty")
    return UcbScheduler(pool, config.slots, config.zeta, config.window, config.stats_granularity)


@dataclass
class RunResult:
    """Outcome of one run: the final archive, the thinned metric series,
    the full per-generation emitter-mix series, and timing (timing never
    enters any serialized artifact)."""

    config: RunConfig
    archive: Archive
    records: list[GenerationRecord]
    kind_series: list[tuple[int, ...]]
    evaluations: int
    wall_time: float

    @property
    def final_record(self) -> GenerationRecord:
        return self.records[-1]


def _substream(seed: int, spawn_key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


class Engine:
    """Stepwise driver of one run; :func:`run` is the one-call wrapper.

    The per-generation cycle is strictly ordered: the scheduler fills
    the free slots, new emitters are activated, the active emitters
    generate their batches against the frozen archive with one
    ``generate_batch`` call per family (active emitters are in
    ascending id order and :func:`build_scheduler` numbers kinds in
    canonical order, so each family is one contiguous run and the rows stay
    in (slot, sample) order), the whole generation is evaluated (the only
    parallel region), binned and inserted by one
    :meth:`Archive.insert_batch` whose outcome equals sequential insertion
    in (slot, sample) order, each family absorbs its rows of the outcome
    and ends its emitters' generation in one ``update_batch`` call (one
    CMA-ES update for the family), every emitter with a reason to stop
    returns to the pool at once, and finally the bandit statistics are
    recorded.  Each family is called through its own class;
    :class:`Emitter` states the three calls and the exhaustion rule.
    :meth:`initialize` and :meth:`step` insert through the same
    :meth:`_insert`.  Only :meth:`run` starts evaluation threads, and
    joins them before it returns (:func:`run_many` forks on that); stepped
    by hand, an engine evaluates on the calling thread, whatever
    ``threads`` says.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.task: TaskSpec = config.task
        self.archive = Archive(self.task.grid())
        self.scheduler = build_scheduler(config)
        self._rngs = {e.id: _substream(config.seed, (1, e.id)) for e in self.scheduler.emitters}
        self._executor = None  # a ThreadPoolExecutor while a threaded run lasts
        self.generation = 0
        self.evaluations = 0
        self.records: list[GenerationRecord] = []
        self.kind_series: list[tuple[int, ...]] = []

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

    def _insert(self, genotypes: np.ndarray):
        """Evaluates, bins and inserts a batch and counts its evaluations;
        returns its descriptors, normalized fitnesses, and the status codes
        and improvements of :meth:`Archive.insert_batch`."""
        raw, norm, descriptors = self._evaluate(genotypes)
        cells = cell_indices(descriptors, self.archive.spec)
        status, improvement = self.archive.insert_batch(cells, genotypes, descriptors, raw, norm)
        self.evaluations += len(genotypes)
        return descriptors, norm, status, improvement

    def initialize(self) -> None:
        """Fills the archive with uniformly sampled genotypes and records
        the generation-0 snapshot."""
        rng = _substream(self.config.seed, (0,))
        self._insert(
            rng.uniform(self.task.lower, self.task.upper, (self.config.init_samples, self.task.dim))
        )
        self.records.append(snapshot(self.archive, 0, self.evaluations, (0,) * len(EmitterKind)))

    def step(self) -> None:
        """Advances the run by one generation."""
        cfg = self.config
        for emitter in self.scheduler.select():
            emitter.activate(self.archive, self.task, self._rngs[emitter.id])

        active = self.scheduler.active  # ascending id = slot order
        counts = dict.fromkeys(EmitterKind, 0)
        for emitter in active:
            counts[emitter.kind] += 1
        kind_counts = tuple(counts[k] for k in EmitterKind)

        by_family = itertools.groupby(active, key=lambda e: type(e).generate_batch)
        families = [list(group) for _, group in by_family]
        batches = [
            type(family[0]).generate_batch(
                family, self.archive, self.task, [self._rngs[e.id] for e in family]
            )
            for family in families
        ]
        genotypes = batches[0] if len(batches) == 1 else np.concatenate(batches)
        descriptors, norm, status, improvement = self._insert(genotypes)
        batch = cfg.batch_per_emitter
        adds = (status != REJECTED_CODE).reshape(len(active), batch).sum(1).tolist()

        start = 0
        for family in families:
            rows = slice(start, start + len(family) * batch)
            start = rows.stop
            reasons = type(family[0]).update_batch(
                family, descriptors[rows], norm[rows], status[rows], improvement[rows]
            )
            for emitter, reason in zip(family, reasons):
                if reason is not None:
                    self.scheduler.deactivate(emitter)
        self.scheduler.record_generation({e.id: (batch, n) for e, n in zip(active, adds)})

        self.generation += 1
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
                # only a threaded run pays for the import
                from concurrent.futures import ThreadPoolExecutor

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


def process_count(runs: int, threads: int) -> int:
    """Processes :func:`run_many` uses for ``runs`` runs of ``threads``
    evaluation threads each: one per ``threads`` usable cores, at least one
    and at most ``runs``.  The usable cores are this process's CPU affinity,
    which ``taskset`` narrows.  Where the platform has no affinity mask it
    is 1: Windows has no ``fork``, and on macOS system libraries make
    ``fork`` unsafe."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(runs, max(1, len(os.sched_getaffinity(0)) // threads))


class _WorkerTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the
    exception that :func:`run_many` raises again in the caller."""

    def __str__(self) -> str:
        return self.args[0]


def _serve(sender, configs: list[RunConfig], per_run) -> None:
    """A worker process: runs ``configs`` in order and sends ``per_run`` of
    each result, or the exception that ended a run (or its ``per_run``) with
    its traceback, and stops there.  An exception that does not survive
    pickling is sent as a ``RuntimeError`` that names its type and message."""
    import pickle
    import signal
    import traceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller takes Ctrl-C and stops the workers
    for config in configs:
        try:
            outcome = per_run(run(config))
        except Exception as exc:
            trace = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            sender.send((exc, trace))
            return
        sender.send((outcome, None))


def run_many(
    configs: Iterable[RunConfig], per_run: Callable[[RunResult], _T] | None = None
) -> Iterator[_T]:
    """Runs every configuration and returns an iterator over
    ``per_run(result)`` of each run in the given order (the
    :class:`RunResult` itself by default), running up to
    :func:`process_count` of them at the same time.

    With ``p`` processes, the calling process runs configurations 0, p,
    2p, ... itself, and forked worker ``w`` (1 <= w < p) runs w, w + p, ...
    and sends each outcome back through a pipe.  ``per_run`` runs in the
    process that made the run, so a worker can write a run's files itself
    and send back only what the caller still needs; the workers inherit it
    by ``fork``, so it may be a closure, and only its return value is
    pickled.  A full pipe holds its worker back, so finished outcomes do not
    pile up in memory while the caller is busy (small outcomes fill it
    slowly, so a worker may run several runs ahead).  A result is that of
    :func:`run` bit for bit, whichever process made it.  An exception
    raised by a worker's run or its ``per_run`` is raised again here, at
    that run's place in the order, with the worker's traceback as its
    cause; a worker that dies raises ``RuntimeError``.

    The workers are started before this returns, so an ``OSError`` from
    starting them (no process or pipe to spare) is raised here, with no
    worker left.  They stop when the iterator is exhausted, raises, or is
    closed.  A caller that may stop early should close it, for example
    with ``contextlib.closing``, so that no worker outlives the call.
    """
    results = _run_many(list(configs), per_run or (lambda result: result))
    next(results)  # starts the workers; from here on, closing the iterator stops them
    return results


def _run_many(configs: list[RunConfig], per_run) -> Iterator:
    """:func:`run_many`'s generator: yields ``None`` once its workers are
    running, then the outcomes."""
    procs = process_count(len(configs), max((c.threads for c in configs), default=1))
    workers = []
    try:
        if procs > 1:
            import multiprocessing  # only a parallel call pays for the import

            # fork, because spawn and forkserver leave a resource tracker or a
            # server running after the call.  Forking is safe while no other
            # thread runs: an Engine joins its evaluation threads before run()
            # returns, and OpenBLAS (the pthreads build in numpy's wheels)
            # stops its threads in a fork handler and starts them again at
            # its next call.
            context = multiprocessing.get_context("fork")
            for first in range(1, procs):
                receiver, sender = context.Pipe(duplex=False)
                with sender:  # closed here, the worker holds the only writing end, so its exit reads as EOF
                    worker = context.Process(
                        target=_serve, args=(sender, configs[first::procs], per_run), daemon=True
                    )
                    worker.start()
                workers.append((worker, receiver))
        yield None
        for i, config in enumerate(configs):
            if i % procs == 0:
                yield per_run(run(config))
                continue
            worker, receiver = workers[i % procs - 1]
            try:
                outcome, trace = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"worker process {worker.pid} exited with status {worker.exitcode} "
                    f"before sending run {i}"
                ) from None
            if trace is not None:
                raise outcome from _WorkerTraceback(trace)
            yield outcome
    finally:
        for worker, receiver in workers:
            worker.terminate()
            worker.join()
            receiver.close()

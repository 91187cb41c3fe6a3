"""Differential test of ``Engine`` against a reference loop written from
the paper's pseudocode (ME-MAP-Elites, Cully 2020), bit for bit.

The reference works one thing at a time where the engine batches:
- each emitter generates its own batch (``generate_batch`` on a list of
  one), against the archive as it stood before the generation;
- each candidate is offered alone with ``Archive.add_attempt``, in
  (slot, sample) order;
- each CMA-ES strategy is told its own rewards as a batch of one;
- an exhausted emitter goes back to the pool in the generation that
  exhausted it: a CMA-ES emitter whose batch added nothing, or whose
  strategy reports a restart criterion, and a line-operator emitter
  always;
- the UCB1 scores are recomputed every generation from the raw window
  of per-generation counts, with no running sums, and the free slots go
  to the best idle emitters, ties to the lowest id.

It shares the emitters' own arithmetic (activation, generation, rewards)
and ``CmaesState``, which have their own tests, but none of the engine's
orchestration: it calls neither ``Engine``, ``Archive.insert_batch``
nor the scheduler classes.  Hypothesis compares the two over every
variant and task, and both statistics granularities: the emitters active
after each generation, the metrics rows, the emitter-mix rows and the
final archive.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdpool.archive import Archive, Elite
from qdpool.cmaes import CmaesState
from qdpool.emitters import EMITTER_CLASSES, EmitterKind
from qdpool.engine import VARIANT_NAMES, Engine, RunConfig, variant_composition
from qdpool.metrics import snapshot
from qdpool.tasks import TASK_NAMES, evaluate_batch, make_task


def stream(seed, spawn_key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def ucb1(window, key, zeta):
    """The UCB1 score of ``key`` over ``window``, a list of per-generation
    ``{key: (selections, successes)}`` dicts."""
    sel = sum(counts.get(key, (0, 0))[0] for counts in window)
    succ = sum(counts.get(key, (0, 0))[1] for counts in window)
    if sel == 0:
        return math.inf
    total = sum(s for counts in window for s, _ in counts.values())
    return succ / sel + zeta * math.sqrt(math.log(total) / sel)


def reference_run(config):
    """Runs ``config`` one emitter, one candidate and one strategy at a
    time; returns the ids active after each generation, the metrics
    records, the emitter-mix rows and the archive."""
    task, batch = config.task, config.batch_per_emitter
    composition = variant_composition(config.variant, config.slots)
    pool = []
    for kind in EmitterKind:
        for _ in range(composition.get(kind, 0)):
            pool.append(EMITTER_CLASSES[kind](len(pool), batch))
    key_of = {e.id: e.id if config.stats_granularity == "instance" else e.kind for e in pool}
    rngs = {e.id: stream(config.seed, (1, e.id)) for e in pool}
    archive = Archive(task.grid())

    def offer(genotypes):
        """Evaluates ``genotypes`` and offers them one at a time; returns
        the descriptors, normalized fitnesses, status codes and
        improvements."""
        raw, norm, descriptors = evaluate_batch(genotypes, task)
        outcomes = [
            archive.add_attempt(Elite(g, d, float(r), float(n)))
            for g, d, r, n in zip(genotypes, descriptors, raw, norm)
        ]
        status = np.array([int(o.status) for o in outcomes], dtype=np.int8)
        improvement = np.array([o.improvement for o in outcomes])
        return descriptors, norm, status, improvement

    init = stream(config.seed, (0,)).uniform(task.lower, task.upper, (config.init_samples, task.dim))
    offer(init)
    evaluations = config.init_samples
    records = [snapshot(archive, 0, evaluations, (0,) * len(EmitterKind))]
    mix, survivors, window, active = [], [], [], set()

    for generation in range(1, config.generations + 1):
        idle = [e for e in pool if e.id not in active]
        scores = {e.id: ucb1(window, key_of[e.id], config.zeta) for e in idle}
        chosen = sorted(idle, key=lambda e: (-scores[e.id], e.id))[: config.slots - len(active)]
        for emitter in chosen:
            emitter.activate(archive, task, rngs[emitter.id])
            active.add(emitter.id)
        slots = [e for e in pool if e.id in active]
        mix.append(tuple(sum(e.kind is kind for e in slots) for kind in EmitterKind))

        batches = [e.generate_batch([e], archive, task, [rngs[e.id]]) for e in slots]
        counts = {}
        for emitter, genotypes in zip(slots, batches):
            descriptors, norm, status, improvement = offer(genotypes)
            added = int(np.count_nonzero(status))
            if emitter.kind is EmitterKind.RANDOM:
                exhausted = True
            elif added == 0:
                exhausted = True
            else:
                rewards = emitter.batch_rewards(descriptors, norm, status, improvement)
                exhausted = CmaesState.tell([emitter.cmaes], [rewards])[0] is not None
            if exhausted:
                if emitter.kind is not EmitterKind.RANDOM:
                    emitter.cmaes = None
                active.discard(emitter.id)
            sel, succ = counts.get(key_of[emitter.id], (0, 0))
            counts[key_of[emitter.id]] = (sel + batch, succ + added)
        window = (window + [counts])[-config.window :]

        evaluations += batch * len(slots)
        survivors.append(sorted(active))
        if generation % config.metrics_every == 0 or generation == config.generations:
            records.append(snapshot(archive, generation, evaluations, mix[-1]))
    return survivors, records, mix, archive


def engine_run(config):
    """The same four outputs from ``Engine``, stepped by hand."""
    engine = Engine(config)
    engine.initialize()
    survivors = []
    for _ in range(config.generations):
        engine.step()
        survivors.append([e.id for e in engine.scheduler.active])
    return survivors, engine.records, engine.kind_series, engine.archive


def archive_rows(archive):
    return [
        (cell, e.genotype.tobytes(), e.descriptor.tobytes(), repr(e.fitness_raw), repr(e.fitness_norm))
        for cell, e in archive
    ]


@st.composite
def configs(draw):
    variant = draw(st.sampled_from(VARIANT_NAMES))
    slots = 4 if variant == "me-map-elites-uniform" else draw(st.integers(1, 6))
    return RunConfig(
        task=make_task(
            draw(st.sampled_from(TASK_NAMES)),
            dim=draw(st.integers(2, 6)),
            resolution=draw(st.integers(2, 8)),
            # a step size that overflows, or one too small to move the mean,
            # so that restart criteria fire within a few generations
            sigma0=draw(st.sampled_from([None, None, 1e-17, 1e308])),
        ),
        variant=variant,
        generations=draw(st.integers(1, 30)),
        slots=slots,
        batch_per_emitter=draw(st.integers(2, 8)),
        init_samples=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32 - 1)),
        zeta=draw(st.sampled_from([0.0, 0.05, 0.5, 3.0])),
        window=draw(st.integers(1, 8)),
        stats_granularity=draw(st.sampled_from(["instance", "kind"])),
        metrics_every=draw(st.integers(1, 7)),
    )


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
def test_engine_matches_the_reference_loop(config):
    ref_survivors, ref_records, ref_mix, ref_archive = reference_run(config)
    survivors, records, mix, archive = engine_run(config)
    assert survivors == ref_survivors
    assert repr(records) == repr(ref_records)
    assert mix == ref_mix
    assert archive_rows(archive) == archive_rows(ref_archive)

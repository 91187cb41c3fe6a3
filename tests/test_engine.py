"""Engine tests: pool construction, the generational lifecycle,
bookkeeping invariants, determinism, and equivalence of the map-elites
variant with an independent vanilla MAP-Elites implementation."""

import dataclasses
import math
import multiprocessing
import os
import pickle
import re
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from qdpool.archive import Archive
from qdpool.cmaes import CmaesState
from qdpool.emitters import EMITTER_CLASSES, EmitterKind
from qdpool.engine import (
    Engine,
    RunConfig,
    build_scheduler,
    process_count,
    run,
    run_many,
    variant_composition,
)
from qdpool.tasks import clip_genotype, evaluate_batch, make_task


def small_config(**overrides):
    defaults = dict(
        task=make_task("rastrigin_multi", dim=5, resolution=8),
        variant="me-map-elites-ucb",
        generations=12,
        slots=4,
        batch_per_emitter=5,
        init_samples=30,
        seed=99,
        metrics_every=5,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestConfigAndPool:
    def test_variant_compositions(self):
        full = variant_composition("me-map-elites-ucb", 12)
        assert all(full[k] == 12 for k in EmitterKind)
        uniform = variant_composition("me-map-elites-uniform", 12)
        assert all(uniform[k] == 3 for k in EmitterKind)
        assert variant_composition("cma-me-opt", 12) == {EmitterKind.OPTIMISING: 12}
        assert variant_composition("cma-me-dir", 12) == {EmitterKind.RANDOM_DIRECTION: 12}
        assert variant_composition("cma-me-imp", 12) == {EmitterKind.IMPROVEMENT: 12}
        assert variant_composition("map-elites", 12) == {EmitterKind.RANDOM: 12}

    def test_uniform_needs_divisible_slots(self):
        with pytest.raises(ValueError):
            variant_composition("me-map-elites-uniform", 10)

    def test_pool_ids_follow_kind_order(self):
        pool = build_scheduler(small_config(slots=3)).emitters
        assert len(pool) == 12
        assert [e.id for e in pool] == list(range(12))
        kinds = [e.kind for e in pool]
        assert kinds == sorted(kinds, key=list(EmitterKind).index)
        assert kinds[0:3] == [EmitterKind.OPTIMISING] * 3
        assert kinds[9:12] == [EmitterKind.RANDOM] * 3

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            small_config(variant="cma-me-best")
        with pytest.raises(ValueError):
            small_config(generations=0)
        with pytest.raises(ValueError):
            small_config(batch_per_emitter=1)
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-1)
        with pytest.raises(ValueError, match="zeta"):
            small_config(zeta=-0.1)
        with pytest.raises(ValueError, match="window"):
            small_config(window=0)
        with pytest.raises(ValueError, match="stats_granularity"):
            small_config(stats_granularity="pool")
        with pytest.raises(ValueError, match="slots"):
            small_config(variant="me-map-elites-uniform", slots=6)
        # an explicit pool composition replaces the variant's own
        small_config(
            variant="me-map-elites-uniform", slots=6, pool_composition={EmitterKind.RANDOM: 6}
        )

    @pytest.mark.parametrize(
        "name",
        ["generations", "slots", "batch_per_emitter", "init_samples", "seed", "window", "metrics_every",
         "threads"],
    )
    def test_a_non_integer_size_is_refused_not_truncated(self, name):
        """``window=2.5`` used to run with a window of 2, ``metrics_every=2.5``
        on a 5-generation cadence, and ``generations=2.5`` to fail only in
        ``Engine.run``.  The message opens with the field, as ``cli._plan``
        needs to name the setting."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 4.0"):
            small_config(**{name: 4.0})
        config = small_config(**{name: np.int64(4)})
        assert getattr(config, name) == 4

    @pytest.mark.parametrize("kind", list(EmitterKind))
    def test_a_pool_count_is_an_int_or_refused_by_name(self, kind):
        """``pool_composition={EmitterKind.RANDOM: 4.7}`` used to build 4
        emitters, and a negative count none."""
        name = re.escape(f"pool_composition[{kind}]")
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 4.7$"):
            small_config(pool_composition={kind: 4.7})
        with pytest.raises(ValueError, match=f"^{name} must be at least 0$"):
            small_config(pool_composition={**dict.fromkeys(EmitterKind, 4), kind: -1})
        config = small_config(pool_composition={kind: np.int64(4)})
        assert [e.kind for e in build_scheduler(config).emitters] == [kind] * 4

    def test_configs_and_results_compare_without_raising(self):
        """A config is equal when its fields match and its task is the
        same object; a pickled copy holds another task, so it compares
        unequal, as a result does with its own copy."""
        config = small_config(generations=2)
        assert dataclasses.replace(config) == config
        assert (config == pickle.loads(pickle.dumps(config))) is False
        result = run(config)
        assert (result == pickle.loads(pickle.dumps(result)), result == result) == (False, True)

    def test_pool_smaller_than_slots_is_rejected_by_the_config(self):
        """The config builds its pool and scheduler, so a pool that cannot
        fill the slots fails at ``RunConfig(...)``, before any engine."""
        with pytest.raises(ValueError, match="slots"):
            small_config(slots=4, pool_composition={EmitterKind.RANDOM: 3})

    def test_uniform_variant_uses_uniform_scheduler(self):
        """The uniform pool holds exactly ``slots`` emitters, so every one
        of them generates in each generation: round-robin reactivation."""
        engine = Engine(small_config(variant="me-map-elites-uniform", slots=4))
        assert len(engine.scheduler.emitters) == 4
        engine.initialize()
        restarts = 0
        for _ in range(30):
            engine.step()
            assert engine.kind_series[-1] == (1, 1, 1, 1)
            restarts += len(engine.scheduler.emitters) - len(engine.scheduler.active)
        assert restarts > 0  # the check covered reactivations, not just the first fill


class TestInitialize:
    def test_archive_filled_and_gen0_record(self):
        engine = Engine(small_config())
        engine.initialize()
        assert 1 <= len(engine.archive) <= 30
        assert engine.evaluations == 30
        record = engine.records[0]
        assert record.generation == 0
        assert record.evaluations == 30
        assert record.kind_counts == (0, 0, 0, 0)

    def test_initial_archive_is_variant_independent(self):
        archives = []
        for variant in ("me-map-elites-ucb", "cma-me-imp", "map-elites"):
            engine = Engine(small_config(variant=variant))
            engine.initialize()
            archives.append(engine.archive)
        reference = list(archives[0])
        for other in archives[1:]:
            rows = list(other)
            assert len(rows) == len(reference)
            for (cell_a, ea), (cell_b, eb) in zip(reference, rows):
                assert cell_a == cell_b
                np.testing.assert_array_equal(ea.genotype, eb.genotype)
                assert ea.fitness_norm == eb.fitness_norm


class TestGenerationLoop:
    def test_evaluation_count_is_exact(self):
        result = run(small_config())
        assert result.evaluations == 30 + 12 * 4 * 5
        for record in result.records:
            assert record.evaluations == 30 + record.generation * 20

    def test_kind_counts_sum_to_slots_every_generation(self):
        for variant in ("me-map-elites-ucb", "me-map-elites-uniform", "map-elites"):
            result = run(small_config(variant=variant))
            assert len(result.kind_series) == 12
            assert all(sum(c) == 4 for c in result.kind_series)

    def test_map_elites_active_set_is_constant(self):
        result = run(small_config(variant="map-elites"))
        assert all(c == (0, 0, 0, 4) for c in result.kind_series)

    def test_monotone_series(self):
        result = run(small_config(generations=40))
        sizes = [r.archive_size for r in result.records]
        qds = [r.qd_score for r in result.records]
        bests = [r.best_fitness_norm for r in result.records]
        assert sizes == sorted(sizes)
        assert qds == sorted(qds)
        assert bests == sorted(bests)

    def test_metrics_cadence(self):
        result = run(small_config(generations=12, metrics_every=5))
        assert [r.generation for r in result.records] == [0, 5, 10, 12]
        result = run(small_config(generations=10, metrics_every=5))
        assert [r.generation for r in result.records] == [0, 5, 10]

    def test_pool_conservation(self):
        """Every generation fills all 4 slots from the same pool."""
        engine = Engine(small_config())
        engine.initialize()
        pool = list(engine.scheduler.emitters)
        for _ in range(10):
            engine.step()
            assert sum(engine.kind_series[-1]) == 4
            assert len(engine.scheduler.active) <= 4
            assert engine.scheduler.emitters == pool

    def test_exhausted_emitters_leave_the_active_set_in_the_same_step(self, monkeypatch):
        """After each step, the active emitters are exactly those whose
        ``finish_generation`` reported that they go on."""
        reported = {}
        for cls in EMITTER_CLASSES.values():

            def finish(self, *outcome, _finish=cls.finish_generation):
                reported[self.id] = _finish(self, *outcome)
                return reported[self.id]

            monkeypatch.setattr(cls, "finish_generation", finish)
        engine = Engine(small_config(generations=40))
        engine.initialize()
        cmaes_restarts = 0
        for _ in range(40):
            reported.clear()
            engine.step()
            assert len(reported) == 4
            assert [e.id for e in engine.scheduler.active] == sorted(
                i for i, exhausted in reported.items() if not exhausted
            )
            cmaes_restarts += sum(
                exhausted and engine.scheduler.emitters[i].kind is not EmitterKind.RANDOM
                for i, exhausted in reported.items()
            )
        assert cmaes_restarts > 0

    def test_first_generation_activates_lowest_ids(self):
        engine = Engine(small_config(variant="me-map-elites-ucb"))
        engine.initialize()
        engine.step()
        # 4 slots, all-infinite scores: ids 0..3 (all optimising emitters)
        assert [e.id for e in engine.scheduler.active] == [0, 1, 2, 3]
        assert engine.kind_series[0] == (4, 0, 0, 0)


class TestLiveState:
    def test_live_strategies_never_exceed_slots(self, monkeypatch):
        """Idle emitters hold no CMA-ES state: after every generation of a
        ucb run, at most ``slots`` strategies are alive."""
        live = weakref.WeakSet()
        created = 0
        init = CmaesState.__init__

        def tracked(self, *args, **kwargs):
            nonlocal created
            init(self, *args, **kwargs)
            live.add(self)
            created += 1

        monkeypatch.setattr(CmaesState, "__init__", tracked)
        engine = Engine(small_config(generations=40))
        engine.initialize()
        for _ in range(40):
            engine.step()
            assert len(live) <= engine.config.slots
        assert created > 2 * len(engine.scheduler.emitters)  # many restarts

    def test_restart_criteria_are_evaluated_once_per_tell(self, monkeypatch):
        """``tell`` evaluates the criteria on the updated states and returns
        their reasons; nothing else in a run evaluates them.  Counted per
        state, and per call: one check of the family per update."""
        calls, states_seen = Counter(), Counter()
        for name in ("tell", "should_stop"):
            original = getattr(CmaesState, name)

            def counted(states, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                states_seen[_name] += len(states)
                return _original(states, *args, **kwargs)

            monkeypatch.setattr(CmaesState, name, counted)
        run(small_config(generations=40))
        assert states_seen["tell"] > calls["tell"] > 0  # some families of several
        assert states_seen["should_stop"] == states_seen["tell"]
        assert calls["should_stop"] == calls["tell"]


def test_numerical_fault_restarts_one_emitter_and_the_run_goes_on(monkeypatch):
    """The first update of the run gets a NaN in every sample of the first
    strategy of the family: that strategy stops with ``numerical`` and is
    dropped, and the run completes."""
    tell = CmaesState.tell
    poisoned = []

    def tell_once_with_nan(states, rewards):
        if not poisoned:
            poisoned.append(states[0])
            states[0].pending[0][:, 0] = np.nan
        return tell(states, rewards)

    monkeypatch.setattr(CmaesState, "tell", tell_once_with_nan)
    engine = Engine(small_config(generations=30))
    engine.initialize()
    for _ in range(30):
        engine.step()
    assert CmaesState.should_stop([poisoned[0]])[0] == "numerical"
    assert all(getattr(e, "cmaes", None) is not poisoned[0] for e in engine.scheduler.emitters)
    assert engine.generation == 30
    assert engine.evaluations == 30 + 30 * 4 * 5


def test_numerical_fault_from_ask_restarts_the_emitter_and_the_run_goes_on(monkeypatch):
    """At sigma0 = 1e308 the very first samples overflow to infinity in
    ``ask``: they are clamped for evaluation, a strategy told an infinite
    parent stops with ``numerical``, every strategy still live after a
    generation is finite, and the run completes."""
    reasons = Counter()
    tell = CmaesState.tell

    def counted_tell(states, rewards):
        told = tell(states, rewards)
        reasons.update(told)
        return told

    monkeypatch.setattr(CmaesState, "tell", counted_tell)
    task = make_task("rastrigin_multi", dim=5, resolution=8, sigma0=1e308)
    engine = Engine(small_config(task=task, generations=30))
    engine.initialize()
    live = 0
    for _ in range(30):
        engine.step()
        for state in (e.cmaes for e in engine.scheduler.emitters if getattr(e, "cmaes", None) is not None):
            assert np.isfinite(state.mean).all() and np.isfinite(state.sigma) and np.isfinite(state.A).all()
            live += 1
    assert reasons["numerical"] > 0 and live > 0
    assert engine.generation == 30
    assert engine.evaluations == 30 + 30 * 4 * 5


def test_tell_whitens_without_a_solve_and_factors_once(monkeypatch):
    """Every CMA-ES update of a ucb run factors each updated ``C`` exactly
    once, with ``cholesky``, and never solves with the factor; counted
    per state, since ``cholesky`` takes a family's stack."""
    cholesky, calls = np.linalg.cholesky, Counter()

    def refuse_solve(*args, **kwargs):
        raise AssertionError("tell must not solve with the factor")

    def counted_cholesky(a):
        calls["cholesky"] += math.prod(a.shape[:-2])
        return cholesky(a)

    def counted_tell(states, rewards):
        calls["tell"] += len(states)
        return tell(states, rewards)

    tell = CmaesState.tell
    monkeypatch.setattr(np.linalg, "solve", refuse_solve)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(CmaesState, "tell", counted_tell)
    engine = Engine(small_config(generations=20))
    engine.initialize()
    for _ in range(20):
        engine.step()
    assert calls["tell"] > 20
    assert calls["cholesky"] == calls["tell"]


class TestDeterminism:
    def test_identical_seeds_identical_results(self, tmp_path):
        a = run(small_config(generations=15))
        b = run(small_config(generations=15))
        assert a.records == b.records
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.archive.write_csv(pa)
        b.archive.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_thread_count_does_not_change_results(self, tmp_path):
        a = run(small_config(generations=15, threads=1))
        b = run(small_config(generations=15, threads=4))
        assert a.records == b.records
        pa, pb = tmp_path / "t1.csv", tmp_path / "t8.csv"
        a.archive.write_csv(pa)
        b.archive.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_a_hand_driven_engine_evaluates_on_the_calling_thread(self):
        """Only ``Engine.run`` starts evaluation threads.  Stepping an engine
        with ``threads=2`` by hand starts none, and reaches the archive and
        records of ``run()`` bit for bit."""
        config = small_config(generations=15, threads=2)
        threads = threading.active_count()
        stepped = Engine(config)
        stepped.initialize()
        for _ in range(config.generations):
            stepped.step()
            assert threading.active_count() == threads
        result = run(config)
        assert stepped.records == result.records

        def contents(archive):
            fields = ("genotype", "descriptor", "fitness_raw", "fitness_norm")
            return [(cell, *(np.asarray(getattr(e, f)).tobytes() for f in fields)) for cell, e in archive]

        assert contents(stepped.archive) == contents(result.archive)

    def test_different_seeds_differ(self):
        a = run(small_config(generations=15))
        b = run(small_config(generations=15, seed=100))
        assert a.records != b.records


class TestRunMany:
    @pytest.mark.parametrize(
        "cores,runs,threads,expected",
        [
            (8, 1, 1, 1),  # one run
            (2, 6, 3, 1),  # more threads than cores
            (2, 6, 2, 1),
            (8, 3, 1, 3),  # more cores than runs
            (8, 12, 2, 4),
            (2, 12, 1, 2),
            (1, 5, 1, 1),
        ],
    )
    def test_process_count_is_cores_over_threads_capped_by_runs(
        self, monkeypatch, cores, runs, threads, expected
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert process_count(runs, threads) == expected

    def test_without_an_affinity_mask_runs_stay_serial(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert process_count(4, 1) == 1

    @pytest.mark.parametrize("cores", [2, 3])
    def test_results_come_back_in_order_and_equal_serial_runs(self, monkeypatch, tmp_path, cores):
        configs = [
            small_config(variant=variant, seed=seed)
            for variant in ("me-map-elites-ucb", "cma-me-dir", "map-elites")
            for seed in (5, 6)
        ]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        for i, (config, result) in enumerate(zip(configs, run_many(configs), strict=True)):
            serial = run(config)
            assert (result.config.variant, result.config.seed) == (config.variant, config.seed)
            assert result.records == serial.records
            assert result.kind_series == serial.kind_series
            assert result.evaluations == serial.evaluations
            result.archive.write_csv(tmp_path / f"{i}.csv")
            serial.archive.write_csv(tmp_path / f"{i}_serial.csv")
            assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / f"{i}_serial.csv").read_bytes()
        assert multiprocessing.active_children() == []

    def test_per_run_runs_in_the_process_that_made_the_run(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        configs = [small_config(seed=seed) for seed in (5, 6, 7, 8)]
        outcomes = list(
            run_many(configs, lambda result: (os.getpid(), result.config.seed, len(result.archive)))
        )
        pids, seeds, sizes = zip(*outcomes)
        assert seeds == (5, 6, 7, 8)
        assert pids[0] == pids[2] == os.getpid()  # the caller's runs
        assert pids[1] == pids[3] != os.getpid()  # the worker's runs
        assert list(sizes) == [len(run(config).archive) for config in configs]
        assert multiprocessing.active_children() == []


class TwoArgError(Exception):
    """Pickles, but its pickle cannot be loaded: ``__init__`` wants two
    arguments and the pickle holds one."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class TestRunManyFaults:
    def test_exception_that_cannot_be_pickled_keeps_its_type_message_and_traceback(
        self, monkeypatch
    ):
        class LocalError(Exception):
            pass  # defined in a function, so pickle cannot find the class

        self.check_worker_fault(monkeypatch, LocalError("lost"), "LocalError: lost")

    def test_exception_whose_pickle_cannot_be_loaded_keeps_its_type_and_message(self, monkeypatch):
        self.check_worker_fault(monkeypatch, TwoArgError("lost", "step"), "TwoArgError: lost at step")

    @staticmethod
    def check_worker_fault(monkeypatch, exc, message):
        caller = os.getpid()
        step = Engine.step

        def failing_step(self):
            if os.getpid() != caller:
                raise exc
            step(self)

        monkeypatch.setattr(Engine, "step", failing_step)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        results = run_many([small_config(seed=5), small_config(seed=6)])
        assert next(results).config.seed == 5
        with pytest.raises(RuntimeError, match=f"^{message}$") as raised:
            next(results)
        assert "failing_step" in str(raised.value.__cause__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_workers_are_forked_from_a_single_threaded_process(self, monkeypatch):
        # After a BLAS call OpenBLAS has threads of its own, and a threaded run
        # has had evaluation threads; none of them may run at a fork.
        np.linalg.eigh(np.eye(300) + np.ones((300, 300)))
        run(small_config(threads=2))
        threads_at_fork = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                threads_at_fork.append(len(os.listdir("/proc/self/task")))
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        results = list(run_many([small_config(seed=seed) for seed in (5, 6, 7)]))
        assert [r.config.seed for r in results] == [5, 6, 7]
        assert threads_at_fork == [1, 1]


def reference_map_elites(task, seed, generations, slots, batch, init_samples, sigma_iso, sigma_line):
    """Independent vanilla MAP-Elites: plain dict archive, ascending-cell
    uniform parent selection, the directional-variation operator, and the
    engine's published substream layout."""

    def ref_cell(descriptor):
        grid = task.grid()
        axes = []
        for d, lo, up, r in zip(descriptor, grid.lower, grid.upper, grid.resolution):
            width = (up - lo) / r
            axes.append(min(max(int(np.floor((d - lo) / width)), 0), int(r) - 1))
        return int(np.ravel_multi_index(axes, task.grid_resolution))

    cells = {}

    def offer(genotype, descriptor, raw, norm):
        key = ref_cell(descriptor)
        held = cells.get(key)
        if held is None or raw > held[2]:
            cells[key] = (np.array(genotype), np.array(descriptor), float(raw), float(norm))

    def stream(spawn_key):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))

    init_rng = stream((0,))
    genotypes = init_rng.uniform(task.lower, task.upper, (init_samples, task.dim))
    raw, norm, bd = evaluate_batch(genotypes, task)
    for i in range(init_samples):
        offer(genotypes[i], bd[i], raw[i], norm[i])

    emitter_rngs = [stream((1, e)) for e in range(slots)]
    for _ in range(generations):
        pool_keys = sorted(cells)
        pool = np.array([cells[k][0] for k in pool_keys])
        batches = []
        for rng in emitter_rngs:
            picks = rng.integers(0, len(pool), size=(batch, 2))
            iso = rng.standard_normal((batch, task.dim))
            line = rng.standard_normal((batch, 1))
            x1, x2 = pool[picks[:, 0]], pool[picks[:, 1]]
            candidates = x1 + sigma_iso * (task.upper - task.lower) * iso + sigma_line * line * (x2 - x1)
            batches.append(clip_genotype(candidates, task))
        stacked = np.vstack(batches)
        raw, norm, bd = evaluate_batch(stacked, task)
        for i in range(len(stacked)):
            offer(stacked[i], bd[i], raw[i], norm[i])
    return cells


def test_map_elites_variant_matches_reference_oracle():
    task = make_task("rastrigin_multi", dim=10, resolution=20)
    cfg = RunConfig(
        task=task,
        variant="map-elites",
        generations=100,
        slots=12,
        batch_per_emitter=50,
        init_samples=100,
        seed=4242,
        metrics_every=100,
    )
    result = run(cfg)
    reference = reference_map_elites(
        task,
        seed=4242,
        generations=100,
        slots=12,
        batch=50,
        init_samples=100,
        sigma_iso=0.01,
        sigma_line=0.1,
    )
    assert len(result.archive) == len(reference)
    for cell, elite in result.archive:
        genotype, descriptor, raw, norm = reference[cell]
        np.testing.assert_array_equal(elite.genotype, genotype)
        np.testing.assert_array_equal(elite.descriptor, descriptor)
        assert elite.fitness_raw == raw
        assert elite.fitness_norm == norm

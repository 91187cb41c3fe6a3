"""Engine tests: pool construction, the generational lifecycle,
bookkeeping invariants, determinism, and equivalence of the map-elites
variant with an independent vanilla MAP-Elites implementation."""

import weakref
from collections import Counter

import numpy as np
import pytest

from qdpool.archive import Archive
from qdpool.cmaes import CmaesState
from qdpool.emitters import EmitterKind
from qdpool.engine import Engine, RunConfig, build_pool, run, variant_composition
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
        pool = build_pool(variant_composition("me-map-elites-ucb", 3), 5)
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

    def test_uniform_variant_uses_uniform_scheduler(self):
        """The uniform pool holds exactly ``slots`` emitters, so every one
        of them is active after each generation: round-robin reactivation."""
        engine = Engine(small_config(variant="me-map-elites-uniform", slots=4))
        assert len(engine.scheduler.emitters) == 4
        engine.initialize()
        restarts = 0
        for _ in range(30):
            restarts += len(engine._terminated)
            engine.step()
            assert engine.scheduler.active == engine.scheduler.emitters
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
        engine = Engine(small_config())
        engine.initialize()
        total = len(engine.scheduler.emitters)
        for _ in range(10):
            engine.step()
            active = engine.scheduler.active
            assert len(active) == 4
            assert len(engine.scheduler.emitters) == total

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
        """``tell`` evaluates the criteria on the updated state and returns
        the reason; nothing else in a run evaluates them."""
        calls = Counter()
        for name in ("tell", "should_stop"):
            original = getattr(CmaesState, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(CmaesState, name, counted)
        run(small_config(generations=40))
        assert calls["tell"] > 0
        assert calls["should_stop"] == calls["tell"]


def test_numerical_fault_restarts_one_emitter_and_the_run_goes_on(monkeypatch):
    """The first update of the run gets a NaN in every sample: that
    strategy stops with ``numerical`` and is dropped, and the run
    completes."""
    tell = CmaesState.tell
    poisoned = []

    def tell_once_with_nan(self, rewards):
        if not poisoned:
            poisoned.append(self)
            self.pending[0][:, 0] = np.nan
        return tell(self, rewards)

    monkeypatch.setattr(CmaesState, "tell", tell_once_with_nan)
    engine = Engine(small_config(generations=30))
    engine.initialize()
    for _ in range(30):
        engine.step()
    assert poisoned[0].should_stop() == "numerical"
    assert all(getattr(e, "cmaes", None) is not poisoned[0] for e in engine.scheduler.emitters)
    assert engine.generation == 30
    assert engine.evaluations == 30 + 30 * 4 * 5


def test_tell_whitens_without_a_solve_and_factors_once(monkeypatch):
    """Every CMA-ES update of a ucb run makes exactly one LAPACK call,
    ``cholesky``, and never solves with the factor."""
    cholesky, calls = np.linalg.cholesky, Counter()

    def refuse_solve(*args, **kwargs):
        raise AssertionError("tell must not solve with the factor")

    def counted_cholesky(a):
        calls["cholesky"] += 1
        return cholesky(a)

    def counted_tell(self, rewards):
        calls["tell"] += 1
        tell(self, rewards)

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

    def test_different_seeds_differ(self):
        a = run(small_config(generations=15))
        b = run(small_config(generations=15, seed=100))
        assert a.records != b.records


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

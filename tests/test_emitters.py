"""Emitter behaviour tests: activation, sample generation, reward
signals, and per-generation termination."""

import numpy as np
import pytest

from qdpool.archive import AddStatus, Archive, Elite, EmptyArchiveError
from qdpool.cmaes import EmitterExhaustedError
from qdpool.emitters import (
    EmitterKind,
    ImprovementEmitter,
    LineOperatorParams,
    OptimisingEmitter,
    RandomDirectionEmitter,
    RandomEmitter,
)
from qdpool.tasks import evaluate_batch, make_task

def build_archive(task, genotypes):
    archive = Archive(task.grid())
    genotypes = np.asarray(genotypes, dtype=float)
    for g, raw, norm, descriptor in zip(genotypes, *evaluate_batch(genotypes, task)):
        archive.add_attempt(Elite(g, descriptor, float(raw), float(norm)))
    return archive


@pytest.fixture
def task():
    return make_task("sphere", dim=4, resolution=10)


@pytest.fixture
def single_elite_archive(task):
    return build_archive(task, [np.array([0.5, -0.25, 1.0, 2.0])])


class TestActivate:
    def test_cmaes_kind_centers_on_elite(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=50)
        emitter.activate(single_elite_archive, task, np.random.default_rng(0))
        elite = single_elite_archive.elites()[0]
        np.testing.assert_array_equal(emitter.cmaes.mean, elite.genotype)
        np.testing.assert_array_equal(emitter.cmaes.C, np.eye(4))
        assert emitter.cmaes.sigma == task.sigma0
        assert emitter.cmaes.params.lam == 50

    def test_random_direction_draws_unit_vector_and_anchor(self, task, single_elite_archive):
        emitter = RandomDirectionEmitter(1)
        for seed in range(20):
            emitter.activate(single_elite_archive, task, np.random.default_rng(seed))
            assert abs(np.linalg.norm(emitter.direction) - 1.0) < 1e-12
        elite = single_elite_archive.elites()[0]
        np.testing.assert_array_equal(emitter.anchor_bd, elite.descriptor)

    def test_random_kind_is_noop(self, task, single_elite_archive):
        emitter = RandomEmitter(2)
        before = vars(emitter).copy()
        emitter.activate(single_elite_archive, task, np.random.default_rng(0))
        assert vars(emitter) == before

    def test_empty_archive_raises(self, task):
        with pytest.raises(EmptyArchiveError):
            OptimisingEmitter(0).activate(Archive(task.grid()), task, np.random.default_rng(0))

    def test_reactivation_resets_state(self, task, single_elite_archive):
        emitter = ImprovementEmitter(0, batch_size=8)
        rng = np.random.default_rng(1)
        emitter.activate(single_elite_archive, task, rng)
        emitter.generate_samples(single_elite_archive, task, rng)
        emitter.finish_generation(np.arange(8.0), any_added=True)
        assert emitter.cmaes.generation_count == 1
        emitter.activate(single_elite_archive, task, rng)
        assert emitter.cmaes.generation_count == 0
        np.testing.assert_array_equal(emitter.cmaes.C, np.eye(4))


class TestGenerate:
    def test_batch_shape_and_bounds_all_kinds(self, task):
        rng = np.random.default_rng(3)
        archive = build_archive(task, rng.uniform(-30, 30, (12, 4)))
        for cls in (OptimisingEmitter, RandomDirectionEmitter, ImprovementEmitter, RandomEmitter):
            emitter = cls(0, batch_size=50)
            emitter.activate(archive, task, rng)
            batch = emitter.generate_samples(archive, task, rng)
            assert batch.shape == (50, 4)
            assert np.all(batch >= task.lower) and np.all(batch <= task.upper)

    def test_line_operator_degenerates_to_elite(self, task, single_elite_archive):
        emitter = RandomEmitter(0, batch_size=20, line_params=LineOperatorParams(0.0, 0.1))
        batch = emitter.generate_samples(single_elite_archive, task, np.random.default_rng(5))
        elite = single_elite_archive.elites()[0]
        np.testing.assert_array_equal(batch, np.tile(elite.genotype, (20, 1)))

    def test_line_operator_monte_carlo_mean(self, task):
        """Operator oracle: E[candidate] is the midpoint of the two-elite
        selection mixture (iso and line noises have zero mean)."""
        g1, g2 = np.array([5.0, 5.0, -5.0, 0.0]), np.array([-3.0, 1.0, 7.0, 2.0])
        archive = build_archive(task, [g1, g2])
        emitter = RandomEmitter(0, batch_size=100_000)
        batch = emitter.generate_samples(archive, task, np.random.default_rng(6))
        sd = batch.std(axis=0)
        np.testing.assert_allclose(
            batch.mean(axis=0), (g1 + g2) / 2, atol=5 * sd.max() / np.sqrt(len(batch))
        )

    def test_cmaes_cloud_centers_on_degenerate_archive(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=100_000)
        emitter.activate(single_elite_archive, task, np.random.default_rng(7))
        batch = emitter.generate_samples(single_elite_archive, task, np.random.default_rng(8))
        elite = single_elite_archive.elites()[0]
        tol = 5 * task.sigma0 / np.sqrt(len(batch))
        np.testing.assert_allclose(batch.mean(axis=0), elite.genotype, atol=tol)

    def test_generation_never_inserts(self, task):
        rng = np.random.default_rng(9)
        archive = build_archive(task, rng.uniform(-30, 30, (5, 4)))
        emitter = RandomEmitter(0)
        before = len(archive)
        emitter.generate_samples(archive, task, rng)
        assert len(archive) == before

    def test_exhausted_cmaes_emitter_raises(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=4)
        emitter.activate(single_elite_archive, task, np.random.default_rng(0))
        emitter.cmaes.sigma = 1e-20 * emitter.cmaes.sigma0
        with pytest.raises(EmitterExhaustedError):
            emitter.generate_samples(single_elite_archive, task, np.random.default_rng(0))


CMAES_SUBSETS = [
    (OptimisingEmitter,),
    (RandomDirectionEmitter, ImprovementEmitter),
    (OptimisingEmitter, RandomDirectionEmitter, ImprovementEmitter),
    (OptimisingEmitter, OptimisingEmitter, ImprovementEmitter, RandomDirectionEmitter),
]
LINE_SUBSETS = [
    (LineOperatorParams(),),
    (LineOperatorParams(), LineOperatorParams()),
    (LineOperatorParams(0.0, 0.1), LineOperatorParams(), LineOperatorParams(0.05, 0.0)),
]


def warmed_cmaes_emitters(kinds, archive, task):
    """Activated emitters that have each absorbed one generation, so that
    B and D are no longer the identity; every call builds equal copies."""
    emitters = []
    for i, cls in enumerate(kinds):
        emitter = cls(i, batch_size=6)
        rng = np.random.default_rng([31, i])
        emitter.activate(archive, task, rng)
        emitter.generate_samples(archive, task, rng)
        emitter.finish_generation(rng.permutation(6).astype(float), any_added=True)
        emitters.append(emitter)
    return emitters


def assert_batch_equals_singles(make, archive, task):
    batched, singles = make(), make()
    rngs = [np.random.default_rng([77, e.id]) for e in batched]
    out = type(batched[0]).generate_batch(batched, archive, task, rngs)
    expected = [
        e.generate_samples(archive, task, np.random.default_rng([77, e.id])) for e in singles
    ]
    np.testing.assert_array_equal(out, np.concatenate(expected))
    for a, b in zip(batched, singles):
        np.testing.assert_array_equal(a._pending, b._pending)


class TestGenerateBatch:
    """A family's one-pass batch equals its emitters' one-at-a-time batches
    bit for bit, when each emitter draws from its own seeded generator."""

    @pytest.mark.parametrize("kinds", CMAES_SUBSETS)
    @pytest.mark.parametrize("elites", [1, 12])
    def test_cmaes_family(self, task, kinds, elites):
        archive = build_archive(task, np.random.default_rng(3).uniform(-30, 30, (elites, 4)))
        assert (len(archive) == 1) == (elites == 1)
        assert_batch_equals_singles(
            lambda: warmed_cmaes_emitters(kinds, archive, task), archive, task
        )

    @pytest.mark.parametrize("gains", LINE_SUBSETS)
    @pytest.mark.parametrize("elites", [1, 12])
    def test_random_family(self, task, gains, elites):
        archive = build_archive(task, np.random.default_rng(3).uniform(-30, 30, (elites, 4)))
        assert (len(archive) == 1) == (elites == 1)
        assert_batch_equals_singles(
            lambda: [RandomEmitter(i, 7, params) for i, params in enumerate(gains)],
            archive,
            task,
        )

    def test_one_stopped_strategy_stops_the_batch(self, task, single_elite_archive):
        emitters = warmed_cmaes_emitters(CMAES_SUBSETS[2], single_elite_archive, task)
        emitters[1].cmaes.sigma = 1e-20 * emitters[1].cmaes.sigma0
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(EmitterExhaustedError):
            OptimisingEmitter.generate_batch(emitters, single_elite_archive, task, rngs)


class TestRewards:
    def test_optimising_is_fitness(self):
        emitter = OptimisingEmitter(0)
        out = emitter.batch_rewards(
            np.zeros((2, 2)),
            np.array([0.37, 0.9]),
            np.array([AddStatus.REJECTED, AddStatus.NEW]),
            np.array([0.0, 0.9]),
        )
        assert out[0] == 0.37
        assert out[1] == 0.9

    def test_random_direction_is_projected_displacement(self, task, single_elite_archive):
        emitter = RandomDirectionEmitter(0)
        emitter.activate(single_elite_archive, task, np.random.default_rng(4))
        anchor, direction = emitter.anchor_bd, emitter.direction
        displaced = anchor + 2.0 * direction
        orthogonal = anchor + 3.0 * np.array([-direction[1], direction[0]])
        out = emitter.batch_rewards(
            np.stack([anchor, displaced, orthogonal]),
            np.full(3, 0.5),
            np.full(3, AddStatus.REJECTED),
            np.zeros(3),
        )
        assert out[0] == 0.0
        assert out[1] == pytest.approx(2.0)
        assert out[2] == pytest.approx(0.0, abs=1e-12)

    def test_random_direction_translation_invariance(self, task, single_elite_archive):
        emitter = RandomDirectionEmitter(0)
        emitter.activate(single_elite_archive, task, np.random.default_rng(4))
        rng = np.random.default_rng(10)

        def reward(descriptor):
            rejected = np.array([AddStatus.REJECTED])
            return emitter.batch_rewards(descriptor[None], np.array([0.5]), rejected, np.zeros(1))[0]

        for _ in range(25):
            descriptor = rng.uniform(-5, 5, 2)
            shift = rng.uniform(-100, 100, 2)
            base = reward(descriptor)
            emitter.anchor_bd = emitter.anchor_bd + shift
            shifted = reward(descriptor + shift)
            emitter.anchor_bd = emitter.anchor_bd - shift
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_improvement_tier_examples(self):
        emitter = ImprovementEmitter(0)
        out = emitter.batch_rewards(
            np.zeros((3, 2)),
            np.array([0.6, 0.8, 0.45]),
            np.array([AddStatus.NEW, AddStatus.IMPROVED, AddStatus.REJECTED]),
            np.array([0.6, 0.8 - 0.5, 0.0]),
        )
        assert out[0] == pytest.approx(2.6)
        assert out[1] == pytest.approx(1.3)
        assert out[2] == 0.45

    def test_improvement_tiers_never_interleave(self):
        emitter = ImprovementEmitter(0)
        rng = np.random.default_rng(12)
        fn = rng.uniform(0.0, 0.999, 300)
        status = np.repeat([AddStatus.NEW, AddStatus.IMPROVED, AddStatus.REJECTED], 100)
        improvement = np.concatenate([fn[:100], rng.uniform(1e-9, 0.999, 100), np.zeros(100)])
        rewards = emitter.batch_rewards(np.zeros((300, 2)), fn, status, improvement)
        assert rewards[:100].min() > rewards[100:200].max()
        assert rewards[100:200].min() > rewards[200:].max()

    def test_random_kind_rewards_are_zero(self):
        emitter = RandomEmitter(0)
        out = emitter.batch_rewards(
            np.zeros((3, 2)), np.array([0.1, 0.9, 0.5]), np.zeros(3, np.int8), np.zeros(3)
        )
        np.testing.assert_array_equal(out, np.zeros(3))


class TestFinishGeneration:
    def test_random_always_terminates(self, task, single_elite_archive):
        emitter = RandomEmitter(0, batch_size=10)
        emitter.generate_samples(single_elite_archive, task, np.random.default_rng(0))
        assert emitter.finish_generation(np.zeros(10), any_added=True) is True

    def test_cmaes_continues_when_adding_and_healthy(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=10)
        rng = np.random.default_rng(1)
        emitter.activate(single_elite_archive, task, rng)
        emitter.generate_samples(single_elite_archive, task, rng)
        assert emitter.finish_generation(np.arange(10.0), any_added=True) is False

    def test_cmaes_terminates_without_additions(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=10)
        rng = np.random.default_rng(1)
        emitter.activate(single_elite_archive, task, rng)
        emitter.generate_samples(single_elite_archive, task, rng)
        assert emitter.finish_generation(np.arange(10.0), any_added=False) is True

    def test_cmaes_skips_update_without_additions(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=10)
        rng = np.random.default_rng(1)
        emitter.activate(single_elite_archive, task, rng)
        emitter.generate_samples(single_elite_archive, task, rng)
        emitter.finish_generation(np.arange(10.0), any_added=True)
        state = emitter.cmaes
        count, cov, mean = state.generation_count, state.C.copy(), state.mean.copy()
        emitter.generate_samples(single_elite_archive, task, rng)
        assert emitter.finish_generation(np.arange(10.0), any_added=False) is True
        assert state.generation_count == count
        np.testing.assert_array_equal(state.C, cov)
        np.testing.assert_array_equal(state.mean, mean)

    def test_reward_length_mismatch_raises(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=10)
        rng = np.random.default_rng(1)
        emitter.activate(single_elite_archive, task, rng)
        emitter.generate_samples(single_elite_archive, task, rng)
        with pytest.raises(ValueError):
            emitter.finish_generation(np.zeros(9), any_added=True)

    def test_finish_without_generate_raises(self):
        with pytest.raises(RuntimeError):
            RandomEmitter(0).finish_generation(np.zeros(50), any_added=False)


def test_kind_enum_is_exactly_four():
    assert [k.value for k in EmitterKind] == [
        "optimising",
        "random_direction",
        "improvement",
        "random",
    ]


def test_line_params_validation():
    with pytest.raises(ValueError):
        LineOperatorParams(-0.01, 0.1)
    assert LineOperatorParams(0.0, 0.1).sigma_iso == 0.0

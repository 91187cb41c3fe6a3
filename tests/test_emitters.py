"""Emitter behaviour tests: activation, sample generation, reward
signals, and per-generation termination."""

import numpy as np
import pytest

from qdpool.archive import AddStatus, Archive, Elite, EmptyArchiveError
from qdpool.cmaes import CmaesState
from qdpool.emitters import (
    SIGMA_ISO,
    EmitterKind,
    ImprovementEmitter,
    OptimisingEmitter,
    RandomDirectionEmitter,
    RandomEmitter,
)
from qdpool.tasks import clip_genotype, evaluate_batch, make_task


def build_archive(task, genotypes):
    archive = Archive(task.grid())
    genotypes = np.asarray(genotypes, dtype=float)
    for g, raw, norm, descriptor in zip(genotypes, *evaluate_batch(genotypes, task)):
        archive.add_attempt(Elite(g, descriptor, float(raw), float(norm)))
    return archive


def outcome(norms, added=True, descriptors=None):
    """An insertion outcome as the engine passes it to ``update_batch``:
    every sample NEW (or, with ``added=False``, every one REJECTED) with
    normalized fitness ``norms``."""
    norms = np.asarray(norms, dtype=float)
    if descriptors is None:
        descriptors = np.zeros((len(norms), 2))
    status = np.full(len(norms), AddStatus.NEW if added else AddStatus.REJECTED, dtype=np.int8)
    return descriptors, norms, status, norms * added


def finish(emitter, *outcome):
    """Ends one emitter's generation as the engine does, as a family of
    one, and returns whether ``update_batch`` gave it a reason to stop,
    which is what exhausts it."""
    return type(emitter).update_batch([emitter], *outcome)[0] is not None


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
        ((_, elite),) = single_elite_archive
        np.testing.assert_array_equal(emitter.cmaes.mean, elite.genotype)
        np.testing.assert_array_equal(emitter.cmaes.C, np.eye(4))
        assert emitter.cmaes.sigma == task.sigma0
        assert emitter.cmaes.params.lam == 50

    def test_random_direction_draws_unit_vector_and_anchor(self, task, single_elite_archive):
        emitter = RandomDirectionEmitter(1, batch_size=50)
        for seed in range(20):
            emitter.activate(single_elite_archive, task, np.random.default_rng(seed))
            assert abs(np.linalg.norm(emitter.direction) - 1.0) < 1e-12
        ((_, elite),) = single_elite_archive
        np.testing.assert_array_equal(emitter.anchor_bd, elite.descriptor)

    def test_empty_archive_raises(self, task):
        with pytest.raises(EmptyArchiveError):
            OptimisingEmitter(0, batch_size=50).activate(Archive(task.grid()), task, np.random.default_rng(0))

    def test_line_operator_on_an_empty_archive_raises_the_archives_error(self, task):
        """As a CMA-ES activation does through ``random_elite``."""
        with pytest.raises(EmptyArchiveError, match="cannot generate from an empty archive"):
            RandomEmitter.generate_batch([RandomEmitter(0, 8)], Archive(task.grid()), task, [np.random.default_rng(0)])

    def test_reactivation_resets_state(self, task, single_elite_archive):
        emitter = ImprovementEmitter(0, batch_size=8)
        rng = np.random.default_rng(1)
        emitter.activate(single_elite_archive, task, rng)
        emitter.generate_batch([emitter], single_elite_archive, task, [rng])
        finish(emitter, *outcome(np.arange(8.0)))
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
            batch = emitter.generate_batch([emitter], archive, task, [rng])
            assert batch.shape == (50, 4)
            assert np.all(batch >= task.lower) and np.all(batch <= task.upper)

    def test_line_operator_on_one_elite_is_isotropic_noise(self, task, single_elite_archive):
        """With one elite, x2 - x1 = 0: a candidate is the elite plus the
        isotropic term, drawn after the parent picks."""
        emitter = RandomEmitter(0, batch_size=20)
        rngs = [np.random.default_rng(5)]
        batch = emitter.generate_batch([emitter], single_elite_archive, task, rngs)
        rng = np.random.default_rng(5)
        rng.integers(0, 1, size=(20, 2))
        iso = SIGMA_ISO * (task.upper - task.lower) * rng.standard_normal((20, task.dim))
        ((_, elite),) = single_elite_archive
        np.testing.assert_array_equal(batch, clip_genotype(elite.genotype + iso, task))

    def test_line_operator_monte_carlo_mean(self, task):
        """Operator oracle: E[candidate] is the midpoint of the two-elite
        selection mixture (iso and line noises have zero mean)."""
        g1, g2 = np.array([5.0, 5.0, -5.0, 0.0]), np.array([-3.0, 1.0, 7.0, 2.0])
        archive = build_archive(task, [g1, g2])
        emitter = RandomEmitter(0, batch_size=100_000)
        batch = emitter.generate_batch([emitter], archive, task, [np.random.default_rng(6)])
        sd = batch.std(axis=0)
        np.testing.assert_allclose(
            batch.mean(axis=0), (g1 + g2) / 2, atol=5 * sd.max() / np.sqrt(len(batch))
        )

    def test_cmaes_cloud_centers_on_degenerate_archive(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=100_000)
        emitter.activate(single_elite_archive, task, np.random.default_rng(7))
        rngs = [np.random.default_rng(8)]
        batch = emitter.generate_batch([emitter], single_elite_archive, task, rngs)
        ((_, elite),) = single_elite_archive
        tol = 5 * task.sigma0 / np.sqrt(len(batch))
        np.testing.assert_allclose(batch.mean(axis=0), elite.genotype, atol=tol)

    def test_generation_never_inserts(self, task):
        rng = np.random.default_rng(9)
        archive = build_archive(task, rng.uniform(-30, 30, (5, 4)))
        emitter = RandomEmitter(0, batch_size=50)
        before = len(archive)
        emitter.generate_batch([emitter], archive, task, [rng])
        assert len(archive) == before


CMAES_SUBSETS = [
    (OptimisingEmitter,),
    (RandomDirectionEmitter, ImprovementEmitter),
    (OptimisingEmitter, RandomDirectionEmitter, ImprovementEmitter),
    (OptimisingEmitter, OptimisingEmitter, ImprovementEmitter, RandomDirectionEmitter),
]


def warmed_cmaes_emitters(kinds, archive, task):
    """Activated emitters that have each absorbed one generation, so that
    A is no longer the identity; every call builds equal copies."""
    emitters = []
    for i, cls in enumerate(kinds):
        emitter = cls(i, batch_size=6)
        rng = np.random.default_rng([31, i])
        emitter.activate(archive, task, rng)
        emitter.generate_batch([emitter], archive, task, [rng])
        finish(
            emitter, *outcome(rng.permutation(6).astype(float), descriptors=rng.standard_normal((6, 2)))
        )
        emitters.append(emitter)
    return emitters


def assert_batch_equals_singles(make, archive, task):
    batched, singles = make(), make()
    rngs = [np.random.default_rng([77, e.id]) for e in batched]
    out = type(batched[0]).generate_batch(batched, archive, task, rngs)
    expected = [
        e.generate_batch([e], archive, task, [np.random.default_rng([77, e.id])]) for e in singles
    ]
    np.testing.assert_array_equal(out, np.concatenate(expected))
    return batched, singles


class TestGenerateBatch:
    """A family's one-pass batch equals its emitters' one-at-a-time batches
    bit for bit, when each emitter draws from its own seeded generator."""

    @pytest.mark.parametrize("kinds", CMAES_SUBSETS)
    @pytest.mark.parametrize("elites", [1, 12])
    def test_cmaes_family(self, task, kinds, elites):
        archive = build_archive(task, np.random.default_rng(3).uniform(-30, 30, (elites, 4)))
        assert (len(archive) == 1) == (elites == 1)
        batched, singles = assert_batch_equals_singles(
            lambda: warmed_cmaes_emitters(kinds, archive, task), archive, task
        )
        for a, b in zip(batched, singles):
            for kept_a, kept_b in zip(a.cmaes.pending, b.cmaes.pending, strict=True):
                np.testing.assert_array_equal(kept_a, kept_b)

    def test_cmaes_family_starts_only_its_emitters_without_a_strategy(self, task):
        """``generate_batch`` starts a never-picked emitter and one that its
        last update exhausted, each from its own generator, as an explicit
        ``activate`` does, and leaves a running strategy as it is."""
        archive = build_archive(task, np.random.default_rng(3).uniform(-30, 30, (12, 4)))

        def family():
            idle = RandomDirectionEmitter(0, batch_size=6)
            exhausted, running = ImprovementEmitter(1, batch_size=6), OptimisingEmitter(2, batch_size=6)
            for emitter in (exhausted, running):
                rng = np.random.default_rng([31, emitter.id])
                emitter.activate(archive, task, rng)
                emitter.generate_batch([emitter], archive, task, [rng])
                finish(emitter, *outcome(np.arange(6.0), added=emitter is running))
            return [idle, exhausted, running]

        implicit, explicit = family(), family()
        assert [e.cmaes is None for e in implicit] == [True, True, False]
        out = OptimisingEmitter.generate_batch(
            implicit, archive, task, [np.random.default_rng([77, e.id]) for e in implicit]
        )
        rngs = [np.random.default_rng([77, e.id]) for e in explicit]
        for emitter, rng in zip(explicit[:2], rngs):
            emitter.activate(archive, task, rng)
        np.testing.assert_array_equal(out, OptimisingEmitter.generate_batch(explicit, archive, task, rngs))
        np.testing.assert_array_equal(implicit[0].direction, explicit[0].direction)
        assert [e.cmaes.generation_count for e in implicit] == [0, 0, 1]

    # ids kept from the earlier per-emitter-gain cases, so that results
    # stay comparable across versions
    @pytest.mark.parametrize("count", [1, 2, 3], ids=["gains0", "gains1", "gains2"])
    @pytest.mark.parametrize("elites", [1, 12])
    def test_random_family(self, task, count, elites):
        archive = build_archive(task, np.random.default_rng(3).uniform(-30, 30, (elites, 4)))
        assert (len(archive) == 1) == (elites == 1)
        assert_batch_equals_singles(
            lambda: [RandomEmitter(i, 7) for i in range(count)], archive, task
        )


STATE_FIELDS = ("mean", "sigma", "C", "A", "p_sigma", "p_c", "generation_count", "best_reward_history", "pending")


class TestUpdateBatch:
    """A family's one update equals its emitters' one-at-a-time updates bit
    for bit, and gives each emitter its own reason to stop."""

    @pytest.mark.parametrize("kinds", CMAES_SUBSETS)
    def test_cmaes_family(self, task, kinds):
        archive = build_archive(task, np.random.default_rng(3).uniform(-30, 30, (12, 4)))
        batched, singles = assert_batch_equals_singles(
            lambda: warmed_cmaes_emitters(kinds, archive, task), archive, task
        )
        rng = np.random.default_rng(4)
        descriptors = rng.standard_normal((6 * len(kinds), 2))
        norms = rng.uniform(0.0, 1.0, 6 * len(kinds))
        status = rng.choice([AddStatus.REJECTED, AddStatus.IMPROVED, AddStatus.NEW], 6 * len(kinds))
        status[:6] = AddStatus.REJECTED  # the first emitter adds nothing
        status = status.astype(np.int8)
        improvement = np.where(status == AddStatus.REJECTED, 0.0, norms / 2)
        reasons = type(batched[0]).update_batch(batched, descriptors, norms, status, improvement)
        expected = [
            type(e).update_batch([e], *(a[6 * i : 6 * i + 6] for a in (descriptors, norms, status, improvement)))[0]
            for i, e in enumerate(singles)
        ]
        assert reasons == expected and reasons[0] == "no_add"
        exhausted = [reason is not None for reason in reasons]
        assert [e.cmaes is None for e in batched] == [e.cmaes is None for e in singles] == exhausted
        for a, b in zip(batched, singles):
            if a.cmaes is None:
                continue
            for field in STATE_FIELDS:
                got, want = getattr(a.cmaes, field), getattr(b.cmaes, field)
                if field == "pending":
                    assert (got is None) == (want is None)
                    got, want = got or (), want or ()
                np.testing.assert_array_equal(np.asarray(got), np.asarray(want), err_msg=field)

    def test_each_emitter_gets_its_own_reason(self, task, single_elite_archive):
        family = [OptimisingEmitter(i, batch_size=10) for i in range(3)]
        rngs = [np.random.default_rng(i) for i in range(3)]
        for emitter, rng in zip(family, rngs):
            emitter.activate(single_elite_archive, task, rng)
        history = family[2].cmaes.best_reward_history
        history.extend([9.0] * history.maxlen)  # rewards of 9.0 fill a flat window
        OptimisingEmitter.generate_batch(family, single_elite_archive, task, rngs)
        norms = np.concatenate([np.arange(10.0), np.zeros(10), np.full(10, 9.0)])
        _, _, status, improvement = outcome(norms)
        status[10:20] = AddStatus.REJECTED
        reasons = OptimisingEmitter.update_batch(family, np.zeros((30, 2)), norms, status, improvement)
        assert reasons == [None, "no_add", "tol_fun"]
        assert [e.cmaes is None for e in family] == [False, True, True]

    def test_random_family_is_memoryless(self, task, single_elite_archive):
        family = [RandomEmitter(i, batch_size=4) for i in range(2)]
        reasons = RandomEmitter.update_batch(family, *outcome(np.zeros(8)))
        assert reasons == ["memoryless", "memoryless"]


class TestRewards:
    def test_optimising_is_fitness(self):
        emitter = OptimisingEmitter(0, batch_size=50)
        out = emitter.batch_rewards(
            np.zeros((2, 2)),
            np.array([0.37, 0.9]),
            np.array([AddStatus.REJECTED, AddStatus.NEW]),
            np.array([0.0, 0.9]),
        )
        assert out[0] == 0.37
        assert out[1] == 0.9

    def test_random_direction_is_projected_displacement(self, task, single_elite_archive):
        emitter = RandomDirectionEmitter(0, batch_size=50)
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
        emitter = RandomDirectionEmitter(0, batch_size=50)
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
        emitter = ImprovementEmitter(0, batch_size=50)
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
        emitter = ImprovementEmitter(0, batch_size=50)
        rng = np.random.default_rng(12)
        fn = rng.uniform(0.0, 0.999, 300)
        status = np.repeat([AddStatus.NEW, AddStatus.IMPROVED, AddStatus.REJECTED], 100)
        improvement = np.concatenate([fn[:100], rng.uniform(1e-9, 0.999, 100), np.zeros(100)])
        rewards = emitter.batch_rewards(np.zeros((300, 2)), fn, status, improvement)
        assert rewards[:100].min() > rewards[100:200].max()
        assert rewards[100:200].min() > rewards[200:].max()


class TestFinishGeneration:
    @staticmethod
    def generated(cls, task, archive):
        emitter = cls(0, batch_size=10)
        emitter.generate_batch([emitter], archive, task, [np.random.default_rng(1)])
        return emitter

    def test_random_always_terminates(self, task, single_elite_archive):
        emitter = self.generated(RandomEmitter, task, single_elite_archive)
        for added in (True, False):
            assert finish(emitter, *outcome(np.zeros(10), added)) is True

    def test_cmaes_continues_when_adding_and_healthy(self, task, single_elite_archive):
        emitter = self.generated(OptimisingEmitter, task, single_elite_archive)
        assert finish(emitter, *outcome(np.arange(10.0))) is False

    def test_cmaes_terminates_without_additions(self, task, single_elite_archive):
        emitter = self.generated(OptimisingEmitter, task, single_elite_archive)
        assert finish(emitter, *outcome(np.arange(10.0), added=False)) is True

    @pytest.mark.parametrize("cause", ["no_add", "tol_fun"])
    def test_exhausted_cmaes_emitter_holds_no_strategy(self, task, single_elite_archive, cause):
        emitter = self.generated(ImprovementEmitter, task, single_elite_archive)
        history = emitter.cmaes.best_reward_history
        # every sample NEW at fitness 0.5 rewards 2.5; a window of 2.5 stops
        history.extend([2.5] * history.maxlen)
        assert finish(emitter, *outcome(np.full(10, 0.5), cause == "tol_fun")) is True
        assert emitter.cmaes is None
        rng = np.random.default_rng(3)
        batch = emitter.generate_batch([emitter], single_elite_archive, task, [rng])
        assert emitter.cmaes.generation_count == 0  # restarted by its next generate_batch
        assert CmaesState.should_stop([emitter.cmaes])[0] is None
        assert batch.shape == (10, 4)
        assert finish(emitter, *outcome(np.arange(10.0))) is False
        assert emitter.cmaes.generation_count == 1

    def test_cmaes_skips_update_without_additions(self, task, single_elite_archive, monkeypatch):
        emitter = self.generated(OptimisingEmitter, task, single_elite_archive)
        finish(emitter, *outcome(np.arange(10.0)))
        state = emitter.cmaes
        count, cov, mean = state.generation_count, state.C.copy(), state.mean.copy()
        emitter.generate_batch([emitter], single_elite_archive, task, [np.random.default_rng(2)])

        def no_rewards(*args):
            raise AssertionError("rewards computed for a generation without an add")

        monkeypatch.setattr(emitter, "batch_rewards", no_rewards)
        assert finish(emitter, *outcome(np.arange(10.0), added=False)) is True
        assert state.generation_count == count
        np.testing.assert_array_equal(state.C, cov)
        np.testing.assert_array_equal(state.mean, mean)

    @pytest.mark.parametrize("code", [AddStatus.IMPROVED, AddStatus.NEW])
    def test_one_add_is_enough_to_update(self, task, single_elite_archive, code):
        emitter = self.generated(OptimisingEmitter, task, single_elite_archive)
        descriptors, norms, status, improvement = outcome(np.arange(10.0), added=False)
        status[7] = code
        assert finish(emitter, descriptors, norms, status, improvement) is False
        assert emitter.cmaes.generation_count == 1

    def test_reward_length_mismatch_raises(self, task, single_elite_archive):
        emitter = self.generated(OptimisingEmitter, task, single_elite_archive)
        with pytest.raises(ValueError):
            finish(emitter, *outcome(np.zeros(9)))

    def test_finish_without_generate_raises(self, task, single_elite_archive):
        emitter = OptimisingEmitter(0, batch_size=50)
        emitter.activate(single_elite_archive, task, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            finish(emitter, *outcome(np.zeros(50), added=False))


@pytest.mark.parametrize("name, attribute", [("emitter_id", "id"), ("batch_size", "batch_size")])
def test_counts_are_ints_or_refused_by_name(name, attribute):
    """``RandomEmitter(0, 2.5)`` used to get a batch of 2; a negative id
    is refused too."""
    counts = {"emitter_id": 3, "batch_size": 4}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
        RandomEmitter(**{**counts, name: 2.5})
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        RandomEmitter(**{**counts, name: -1})
    value = getattr(RandomEmitter(**{**counts, name: np.int64(5)}), attribute)
    assert type(value) is int and value == 5


def test_kind_enum_is_exactly_four():
    assert [k.value for k in EmitterKind] == [
        "optimising",
        "random_direction",
        "improvement",
        "random",
    ]


"""Bandit statistics and emitter-slot scheduling tests."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdpool.emitters import EMITTER_CLASSES, EmitterKind, RandomEmitter
from qdpool.scheduler import (
    BanditStats,
    UcbScheduler,
    UniformScheduler,
)


def make_pool(n):
    return [RandomEmitter(i, 50) for i in range(n)]


def make_scheduler(scheduler, emitters, slots):
    """``scheduler`` over ``emitters``, with the run defaults' UCB knobs
    where it takes them."""
    if scheduler is UcbScheduler:
        return UcbScheduler(emitters, slots, zeta=0.05, window=50, stats_granularity="instance")
    return scheduler(emitters, slots)


def ucb1(sel, succ, total, zeta):
    """UCB1 of one arm with ``math``, in the order ``BanditStats`` sums it."""
    return math.inf if sel == 0 else succ / sel + zeta * math.sqrt(math.log(total) / sel)


def assert_windowed(stats, sums):
    """Asserts every arm's windowed ``(selections, successes)`` in ``sums``
    through the public reads.  ``total_selections`` fixes their total, the
    ``zeta=0`` score each arm's success ratio, and the ``zeta=1`` score adds
    a bonus that falls strictly with selections, so together they fix both
    counts of every arm."""
    total = sum(sel for sel, _ in sums.values())
    assert stats.total_selections == total
    for zeta in (0.0, 1.0):
        assert stats.scores(list(sums), zeta) == [ucb1(sel, succ, total, zeta) for sel, succ in sums.values()]


class TestBanditStats:
    def test_hand_worked_ucb_scores(self):
        """Two-arm table checked by hand arithmetic: 100 selections with
        20 successes vs 50 with 15, zeta=0.05, natural log of total=150."""
        stats = BanditStats(["a", "b"], window=50)
        stats.record({"a": (100, 20), "b": (50, 15)})
        score_a = stats.score("a", zeta=0.05)
        score_b = stats.score("b", zeta=0.05)
        assert score_a == pytest.approx(0.2 + 0.05 * math.sqrt(math.log(150) / 100), abs=1e-12)
        assert score_b == pytest.approx(0.3 + 0.05 * math.sqrt(math.log(150) / 50), abs=1e-12)
        assert score_a == pytest.approx(0.21119, abs=1e-5)
        assert score_b == pytest.approx(0.31583, abs=1e-5)
        assert score_b > score_a

    def test_unselected_arm_scores_infinity(self):
        stats = BanditStats(["a", "b"], window=50)
        stats.record({"a": (100, 20)})
        assert stats.score("b", zeta=0.05) == math.inf
        assert stats.score("b", zeta=0.05) > stats.score("a", zeta=0.05)

    def test_window_eviction(self):
        stats = BanditStats(["a"], window=2)
        stats.record({"a": (50, 10)})
        stats.record({"a": (50, 0)})
        stats.record({"a": (50, 20)})
        assert_windowed(stats, {"a": (100, 20)})

    def test_idle_arm_expires_back_to_infinity(self):
        stats = BanditStats(["a"], window=3)
        stats.record({"a": (50, 10)})
        for _ in range(3):
            stats.record({})
        assert_windowed(stats, {"a": (0, 0)})

    def test_invalid_counts_rejected(self):
        stats = BanditStats(["a"], window=3)
        with pytest.raises(ValueError):
            stats.record({"a": (50, 60)})
        with pytest.raises(ValueError):
            stats.record({"a": (-1, 0)})

    def test_unknown_arm_is_rejected_before_recording(self):
        stats = BanditStats(["a", "b"], window=5)
        with pytest.raises(ValueError, match="'zz'"):
            stats.record({"a": (4, 1), "zz": (3, 1)})
        assert_windowed(stats, {"a": (0, 0), "b": (0, 0)})

    def test_invalid_later_arm_leaves_every_sum_unchanged(self):
        stats = BanditStats(["a", "b", "c"], window=3)
        twin = BanditStats(["a", "b", "c"], window=3)
        for counts in ({"a": (7, 3), "c": (2, 2)}, {"b": (4, 1)}):
            stats.record(counts)
            twin.record(counts)
        with pytest.raises(ValueError):
            stats.record({"a": (5, 2), "b": (1, 4)})
        with pytest.raises(ValueError, match="'zz'"):
            stats.record({"c": (9, 9), "zz": (1, 0)})
        # the failed records must not have taken a row of the window either
        for counts in ({"a": (1, 1)}, {}, {"c": (3, 0)}):
            assert stats.total_selections == twin.total_selections
            for zeta in (0.0, 0.05, 1.0):
                assert stats.scores("abc", zeta) == twin.scores("abc", zeta)
            stats.record(counts)
            twin.record(counts)

    def test_sums_and_scores_match_the_window_list(self):
        """Oracle: the last ``window`` count dicts, kept in a plain list,
        summed per key into Python ints, and UCB1 scored with ``math``."""
        keys = list(range(5))
        rng = np.random.default_rng(0)
        for window in (1, 2, 7, 50, 300):
            stats = BanditStats(keys, window=window)
            history = []
            for _ in range(3 * window + 20):
                counts = {}
                for key in keys:
                    if rng.uniform() < 0.6:
                        sel = int(rng.integers(0, 60))
                        counts[key] = (sel, int(rng.integers(0, sel + 1)))
                stats.record(counts)
                history = (history + [counts])[-window:]
                total = sum(sel for gen in history for sel, _ in gen.values())
                assert stats.total_selections == total and type(stats.total_selections) is int
                sums = {
                    key: tuple(sum(gen.get(key, (0, 0))[i] for gen in history) for i in (0, 1))
                    for key in keys
                }
                assert_windowed(stats, sums)
                for zeta in (0.0, 0.05, 1.3):
                    expected = [ucb1(sel, succ, total, zeta) for sel, succ in sums.values()]
                    assert stats.scores(keys, zeta) == expected
                    assert [stats.score(key, zeta) for key in keys] == expected


class TestUcbScheduler:
    def test_first_selection_is_lowest_ids(self):
        sched = UcbScheduler(make_pool(10), slots=4, zeta=0.05, window=50, stats_granularity="instance")
        chosen = sched.select()
        assert [e.id for e in chosen] == [0, 1, 2, 3]
        assert [e.id for e in sched.active] == [0, 1, 2, 3]

    def test_select_zero_is_noop(self):
        sched = UcbScheduler(make_pool(10), slots=4, zeta=0.05, window=50, stats_granularity="instance")
        sched.select()
        assert sched.select() == []
        assert len(sched.active) == 4

    def test_selects_by_descending_score(self):
        sched = UcbScheduler(make_pool(3), slots=2, zeta=0.05, window=50, stats_granularity="instance")
        # give every arm history so no score is infinite
        sched.record_generation({0: (50, 20), 1: (50, 45), 2: (50, 5)})
        chosen = sched.select()
        assert [e.id for e in chosen] == [1, 0]

    def test_tie_breaks_by_ascending_id(self):
        sched = UcbScheduler(make_pool(4), slots=2, zeta=0.0, window=50, stats_granularity="instance")
        sched.record_generation({0: (50, 10), 1: (50, 30), 2: (50, 30), 3: (50, 10)})
        chosen = sched.select()
        assert [e.id for e in chosen] == [1, 2]

    def test_zeta_zero_equal_counts_is_argmax_of_success_ratio(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sched = UcbScheduler(make_pool(6), slots=1, zeta=0.0, window=50, stats_granularity="instance")
            succ = rng.integers(0, 51, size=6)
            sched.record_generation({i: (50, int(succ[i])) for i in range(6)})
            chosen = sched.select()[0]
            assert succ[chosen.id] == succ.max()

    def test_active_and_idle_stay_disjoint_and_complete(self):
        rng = np.random.default_rng(2)
        sched = UcbScheduler(make_pool(12), slots=5, zeta=0.05, window=50, stats_granularity="instance")
        sched.select()
        for _ in range(60):
            counts = {}
            for e in list(sched.active):
                sel = 50
                counts[e.id] = (sel, int(rng.integers(0, 10)))
                if rng.uniform() < 0.5:
                    sched.deactivate(e)
            sched.record_generation(counts)
            sched.select()
            active_ids = {e.id for e in sched.active}
            assert len(active_ids) == 5
            idle_ids = {e.id for e in sched.emitters} - active_ids
            assert len(idle_ids) == 7

    def test_kind_granularity_shares_statistics(self):
        from qdpool.emitters import ImprovementEmitter, OptimisingEmitter

        emitters = [
            OptimisingEmitter(0, 50),
            OptimisingEmitter(1, 50),
            ImprovementEmitter(2, 50),
            ImprovementEmitter(3, 50),
        ]
        sched = UcbScheduler(emitters, slots=2, zeta=0.05, window=50, stats_granularity="kind")
        sched.record_generation({0: (50, 40), 2: (50, 2)})
        # instance 1 inherits the optimising kind's stats, instance 3 the
        # improvement kind's: both finite, optimising clearly ahead
        assert sched.emitter_score(emitters[1]) == sched.emitter_score(emitters[0])
        assert sched.emitter_score(emitters[3]) == sched.emitter_score(emitters[2])
        assert sched.emitter_score(emitters[1]) > sched.emitter_score(emitters[3])
        # aggregation sums instances of the same kind within a generation
        sched.record_generation({0: (50, 10), 1: (50, 20)})
        assert_windowed(sched.stats, {EmitterKind.OPTIMISING: (150, 70), EmitterKind.IMPROVEMENT: (50, 2)})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UcbScheduler(make_pool(4), slots=0, zeta=0.05, window=50, stats_granularity="instance")
        with pytest.raises(ValueError):
            UcbScheduler(make_pool(4), slots=2, zeta=-0.1, window=50, stats_granularity="instance")
        with pytest.raises(ValueError):
            UcbScheduler(make_pool(4), slots=2, zeta=0.05, window=50, stats_granularity="pool")
        with pytest.raises(ValueError):
            UcbScheduler(make_pool(2), slots=3, zeta=0.05, window=50, stats_granularity="instance")
        with pytest.raises(ValueError):
            BanditStats(["a"], window=0)


@pytest.mark.parametrize("scheduler", [UniformScheduler, UcbScheduler])
def test_slots_are_an_int_or_refused_by_name(scheduler):
    """``UniformScheduler(pool, 2.5)`` used to fill 2 slots."""
    with pytest.raises(ValueError, match="^slots must be an integer, got 2.5$"):
        make_scheduler(scheduler, make_pool(4), 2.5)
    slots = make_scheduler(scheduler, make_pool(4), np.int64(3)).slots
    assert type(slots) is int and slots == 3


@pytest.mark.parametrize("window", [2.5, 2.0])
def test_a_window_is_an_int_or_refused_by_name(window):
    """``BanditStats([0, 1], 2.5)`` used to keep a window of 2."""
    with pytest.raises(ValueError, match=f"^window must be an integer, got {window}$"):
        BanditStats([0, 1], window)
    stats = BanditStats([0, 1], np.int64(3))
    assert type(stats.window) is int and stats.window == 3


class TestUniformScheduler:
    @pytest.mark.parametrize("scheduler", [UniformScheduler, UcbScheduler])
    def test_constant_kind_mix(self, scheduler):
        """A pool of exactly ``slots`` emitters keeps its kind mix under
        either policy: UCB has to pick every idle emitter too."""
        from qdpool.emitters import EMITTER_CLASSES

        emitters = []
        for kind_index, (kind, cls) in enumerate(EMITTER_CLASSES.items()):
            for j in range(3):
                emitters.append(cls(kind_index * 3 + j, 50))
        sched = make_scheduler(scheduler, emitters, slots=12)
        sched.select()

        def active_kind_counts():
            return Counter(e.kind for e in sched.active)

        reference = active_kind_counts()
        assert reference == dict.fromkeys(EMITTER_CLASSES, 3)
        rng = np.random.default_rng(8)
        for _ in range(30):
            for e in list(sched.active):
                if rng.uniform() < 0.4:
                    sched.deactivate(e)
            sched.select()
            assert active_kind_counts() == reference
            # finite, uneven scores: the pick must not rest on ties
            sched.record_generation({e.id: (50, int(rng.integers(0, 51))) for e in sched.active})

    def test_reactivates_in_ascending_id_order(self):
        sched = UniformScheduler(make_pool(4), slots=4)
        sched.select()
        sched.deactivate(sched.emitters[2])
        sched.deactivate(sched.emitters[0])
        chosen = sched.select()
        assert [e.id for e in chosen] == [0, 2]

    @pytest.mark.parametrize("scheduler", [UniformScheduler, UcbScheduler])
    def test_select_never_fills_more_than_the_slots(self, scheduler):
        rng = np.random.default_rng(11)
        for pool_size, slots in ((8, 2), (5, 5), (12, 5), (3, 1)):
            sched = make_scheduler(scheduler, make_pool(pool_size), slots=slots)
            for _ in range(40):
                for e in list(sched.active):
                    if rng.uniform() < 0.4:
                        sched.deactivate(e)
                free = slots - len(sched.active)
                for _ in range(int(rng.integers(1, 4))):
                    chosen = sched.select()
                    assert len(chosen) == free
                    free = 0
                    assert len(sched.active) == slots
                sched.record_generation({e.id: (50, int(rng.integers(0, 51))) for e in sched.active})


@settings(max_examples=100, deadline=None)
@given(
    pool=st.integers(1, 12),
    data=st.data(),
    zeta=st.sampled_from([0.0, 0.05, 0.7, 3.0]),
    window=st.integers(1, 6),
    granularity=st.sampled_from(["instance", "kind"]),
)
def test_select_ranks_as_one_score_per_idle_emitter(pool, data, zeta, window, granularity):
    """``select()`` picks what sorting the idle emitters on (-score, id)
    picks, each score UCB1 of the windowed counts of the emitter's arm,
    summed here from the last ``window`` generations' counts."""
    kinds = list(EmitterKind)
    emitters = [
        EMITTER_CLASSES[kinds[data.draw(st.integers(0, 3))]](i, 4) for i in range(pool)
    ]
    key_of = {e.id: (e.id if granularity == "instance" else e.kind) for e in emitters}
    slots = data.draw(st.integers(1, pool))
    sched = UcbScheduler(emitters, slots, zeta=zeta, window=window, stats_granularity=granularity)
    recent = []  # per generation, (arm, selections, successes) per emitter
    for _ in range(data.draw(st.integers(0, 8))):
        before = sched.active
        idle = [e for e in emitters if e not in before]
        free = slots - len(before)
        total = sum(sel for gen in recent for _, sel, _ in gen)

        def score(e):
            rows = [(sel, succ) for gen in recent for key, sel, succ in gen if key == key_of[e.id]]
            return ucb1(sum(sel for sel, _ in rows), sum(succ for _, succ in rows), total, zeta)

        expected = sorted(idle, key=lambda e: (-score(e), e.id))[:free]
        assert sched.select() == expected
        counts = {}
        for e in sched.active:
            sel = data.draw(st.integers(0, 4))
            counts[e.id] = (sel, data.draw(st.integers(0, sel)))
            if data.draw(st.booleans()):
                sched.deactivate(e)
        sched.record_generation(counts)
        recent = (recent + [[(key_of[i], sel, succ) for i, (sel, succ) in counts.items()]])[-window:]

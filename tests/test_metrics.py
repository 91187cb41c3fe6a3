"""Metrics, CSV serialization, and rank-sum statistics tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdpool.archive import Archive, Elite, GridSpec
from qdpool.metrics import (
    METRICS_HEADER,
    GenerationRecord,
    InsufficientDataError,
    _average_ranks,
    holm_adjust,
    qd_score,
    rank_sum_compare,
    snapshot,
    write_aggregate_csv,
    write_emitter_mix_csv,
    write_metrics_csv,
)


def archive_with(fitnesses):
    spec = GridSpec(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([10, 10]))
    archive = Archive(spec)
    for i, fn in enumerate(fitnesses):
        bd = np.array([(i % 10) / 10 + 0.05, (i // 10) / 10 + 0.05])
        archive.add_attempt(Elite(np.zeros(2), bd, fn, fn))
    return archive


class TestQdScore:
    def test_empty_archive(self):
        assert qd_score(archive_with([])) == 0.0

    def test_two_elites(self):
        assert qd_score(archive_with([0.25, 0.75])) == pytest.approx(1.0)

    def test_upper_bound_attained(self):
        archive = archive_with([1.0] * 7)
        assert qd_score(archive) == pytest.approx(7.0)
        assert qd_score(archive) <= len(archive)


def test_snapshot_fields_and_invariant():
    archive = archive_with([0.5, 0.25])
    record = snapshot(archive, generation=0, evaluations=100, kind_counts=(0, 0, 0, 0))
    assert record.generation == 0
    assert record.evaluations == 100
    assert record.archive_size == 2
    assert record.best_fitness_norm == 0.5
    assert record.qd_score == pytest.approx(0.75)
    with pytest.raises(ValueError):
        GenerationRecord(1, 100, 2, 1.0, 2.5, (0, 0, 0, 12))
    with pytest.raises(ValueError):
        GenerationRecord(1, 100, 5, 1.0, 2.5, (0, 0, -1, 12))


def test_metrics_csv_round_trip(tmp_path):
    records = [
        GenerationRecord(0, 100, 3, 0.5, 1.2, (0, 0, 0, 0)),
        GenerationRecord(10, 700, 9, 0.75, 4.5, (3, 3, 3, 3)),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,evaluations,archive_size,best_fitness,qd_score,opt_count,dir_count,imp_count,rand_count"
    read_back = [
        GenerationRecord(int(g), int(e), int(s), float(b), float(q), tuple(int(c) for c in counts))
        for g, e, s, b, q, *counts in (line.split(",") for line in lines[1:])
    ]
    assert read_back == records


def test_emitter_mix_csv(tmp_path):
    path = tmp_path / "mix.csv"
    write_emitter_mix_csv([(3, 3, 3, 3), (4, 2, 3, 3)], path)
    lines = path.read_text().splitlines()
    assert lines == [
        "generation,opt_count,dir_count,imp_count,rand_count",
        "1,3,3,3,3",
        "2,4,2,3,3",
    ]


def test_aggregate_csv_quartiles(tmp_path):
    def series(qd_values):
        return [
            GenerationRecord(10 * i, 100 + 600 * i, 20, 0.5, qd, (3, 3, 3, 3))
            for i, qd in enumerate(qd_values)
        ]

    reps = [series([1.0, 2.0]), series([3.0, 6.0]), series([5.0, 10.0])]
    path = tmp_path / "aggregate.csv"
    write_aggregate_csv(reps, path)
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    first = dict(zip(header, rows[1].split(",")))
    assert first["generation"] == "0"
    q1, q2, q3 = np.percentile([1.0, 3.0, 5.0], [25, 50, 75])
    assert float(first["qd_q1"]) == q1
    assert float(first["qd_median"]) == q2
    assert float(first["qd_q3"]) == q3

    with pytest.raises(ValueError):
        write_aggregate_csv([reps[0], series([1.0])], tmp_path / "broken.csv")


@st.composite
def replicated_records(draw):
    """1-25 replications of the same few snapshots, holding what records
    hold: sizes, normalized fitness and QD-scores, all finite and never
    -0.0, with ties."""
    reps, gens = draw(st.integers(1, 25)), draw(st.integers(1, 3))
    size = st.one_of(st.sampled_from([0, 1, 7, 100]), st.integers(0, 10**15))
    fraction = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 5e-324]), st.floats(0.0, 1.0))
    return [
        [
            GenerationRecord(g, g, n, draw(fraction), draw(fraction) * n, (0, 0, 0, 0))
            for g, n in enumerate(draw(st.lists(size, min_size=gens, max_size=gens)))
        ]
        for _ in range(reps)
    ]


@settings(max_examples=300, deadline=None)
@given(series_by_rep=replicated_records())
def test_aggregate_quartiles_match_numpy_percentile(tmp_path_factory, series_by_rep):
    """Bit for bit against numpy's linear method."""
    path = tmp_path_factory.mktemp("aggregate") / "aggregate.csv"
    write_aggregate_csv(series_by_rep, path)
    values = np.array(
        [[(r.archive_size, r.best_fitness_norm, r.qd_score) for r in series] for series in series_by_rep]
    )
    expected = np.percentile(values, [25, 50, 75], axis=0).transpose(1, 2, 0)
    rows = [[float(v) for v in line.split(",")[2:]] for line in path.read_text().splitlines()[1:]]
    got = np.array(rows).reshape(expected.shape)
    assert got.tobytes() == expected.tobytes()


def exact_rank_sum_p(a, b):
    """Independent oracle: enumerate every assignment of pooled ranks."""
    pooled = sorted(a + b)
    ranks = {}
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[j + 1] == pooled[i]:
            j += 1
        for k in range(i, j + 1):
            ranks[k] = (i + j) / 2 + 1
        i = j + 1
    # rank of each observation, honoring duplicates by position in sorted order
    value_ranks = []
    used = [False] * len(pooled)
    for v in a + b:
        for k, pv in enumerate(pooled):
            if pv == v and not used[k]:
                used[k] = True
                value_ranks.append(ranks[k])
                break
    n = len(a)
    observed = sum(value_ranks[:n])
    sums = [sum(combo) for combo in itertools.combinations(value_ranks, n)]
    le = sum(1 for s in sums if s <= observed + 1e-12)
    ge = sum(1 for s in sums if s >= observed - 1e-12)
    return min(1.0, 2.0 * min(le, ge) / len(sums))


def loop_average_ranks(pooled):
    """Reference: walk the stably sorted values, giving each run of equal
    values the mean of its 1-based positions (NaN equals nothing)."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan]), st.floats(allow_infinity=True)),
        min_size=1,
        max_size=40,
    )
)
@example([7.0])
@example([math.nan])
@example([math.nan, 1.0, math.nan, 1.0])
@example([3.0, 3.0, 3.0])
def test_average_ranks_match_the_loop(values):
    pooled = np.array(values, dtype=float)
    ranks, counts = _average_ranks(pooled)
    assert ranks.dtype == np.float64
    np.testing.assert_array_equal(ranks, loop_average_ranks(pooled))
    # one tie group per distinct rank, in ascending order
    np.testing.assert_array_equal(counts, np.unique(ranks, return_counts=True)[1])


class TestRankSum:
    def test_extreme_separation_matches_enumeration_oracle(self):
        a, b = [1.0, 2.0, 3.0], [10.0, 11.0, 12.0]
        stat, p = rank_sum_compare(a, b)
        assert stat == 6.0  # ranks 1+2+3
        assert p == pytest.approx(exact_rank_sum_p(a, b), abs=1e-12)
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_random_small_samples_match_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = list(np.round(rng.uniform(0, 5, int(rng.integers(3, 7))), 1))
            b = list(np.round(rng.uniform(0, 5, int(rng.integers(3, 7))), 1))
            _, p = rank_sum_compare(a, b)
            assert p == pytest.approx(exact_rank_sum_p(a, b), abs=1e-12)

    def test_identical_samples_give_p_one(self):
        _, p = rank_sum_compare([4.0, 4.0, 4.0], [4.0, 4.0, 4.0])
        assert p == pytest.approx(1.0, abs=0.01)

    def test_symmetry(self):
        a = [1.0, 5.0, 3.0, 8.0]
        b = [2.0, 9.0, 4.0]
        stat_ab, p_ab = rank_sum_compare(a, b)
        stat_ba, p_ba = rank_sum_compare(b, a)
        total = (len(a) + len(b)) * (len(a) + len(b) + 1) / 2
        assert stat_ab + stat_ba == total
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_normal_approximation_branch(self):
        rng = np.random.default_rng(3)
        a = list(rng.normal(0.0, 1.0, 30))
        b = list(rng.normal(0.0, 1.0, 30))
        _, p_same = rank_sum_compare(a, b)
        assert 0.05 < p_same <= 1.0
        _, p_diff = rank_sum_compare(a, list(rng.normal(5.0, 1.0, 30)))
        assert p_diff < 1e-6
        # fully tied pooled sample has zero variance
        _, p_tied = rank_sum_compare([1.0] * 30, [1.0] * 30)
        assert p_tied == 1.0

    @pytest.mark.parametrize(
        "a,b",
        [
            ([1.0] * 6 + [math.nan] * 4, [2.0] * 5 + [3.0] * 5),
            ([math.nan] * 4 + [0.5] * 6, [0.5, 1.0, 1.0, math.nan] + [2.0] * 6),
        ],
    )
    def test_normal_variance_counts_ties_as_the_ranks_do(self, a, b):
        """With n > 8 the variance of W is its permutation variance over
        the pooled ranks, n m / (N (N - 1)) * sum((r - mean r)^2), which is
        what the tie-corrected formula equals when its tie groups are the
        rank groups; each NaN is a group of its own."""
        ranks = loop_average_ranks(np.array(a + b))
        n, m = len(a), len(b)
        big_n = n + m
        var = n * m / (big_n * (big_n - 1)) * float(np.sum((ranks - (big_n + 1) / 2) ** 2))
        w = float(ranks[:n].sum())
        expected = math.erfc(abs(w - n * (big_n + 1) / 2) / math.sqrt(var) / math.sqrt(2.0))
        stat, p = rank_sum_compare(a, b)
        assert stat == w
        assert p == pytest.approx(expected, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            rank_sum_compare([1.0, 2.0], [1.0, 2.0, 3.0])


class TestHolm:
    def test_worked_example(self):
        adjusted = holm_adjust([0.01, 0.04])
        assert adjusted == pytest.approx([0.02, 0.04])
        assert all(p < 0.05 for p in adjusted)  # both rejected at alpha=0.05

    def test_step_down_monotonicity(self):
        adjusted = holm_adjust([0.04, 0.01, 0.03])
        assert adjusted == pytest.approx([0.06, 0.03, 0.06])

    def test_caps_at_one(self):
        assert holm_adjust([0.9, 0.8, 0.7]) == pytest.approx([1.0, 1.0, 1.0])

    def test_empty(self):
        assert holm_adjust([]) == []

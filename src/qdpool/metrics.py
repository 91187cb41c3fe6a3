"""Run metrics and statistics: QD-score, per-generation records, CSV
serialization, replication aggregation, and the Wilcoxon rank-sum /
Holm machinery used to compare variants.

All CSV output is deterministic: every float is written as a Python
float with ``repr`` (the shortest round-trippable form), either by
``csv.writer`` (the files written here) or by joining the fields
directly (:meth:`Archive.write_csv`, whose fields never need quoting);
rows follow canonical orders, and no wall-clock values ever enter a
file.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from qdpool.archive import Archive

EMITTER_COUNT_COLUMNS = ("opt_count", "dir_count", "imp_count", "rand_count")
METRICS_HEADER = (
    "generation",
    "evaluations",
    "archive_size",
    "best_fitness",
    "qd_score",
) + EMITTER_COUNT_COLUMNS
AGGREGATE_HEADER = (
    "generation",
    "evaluations",
    "size_q1",
    "size_median",
    "size_q3",
    "best_q1",
    "best_median",
    "best_q3",
    "qd_q1",
    "qd_median",
    "qd_q3",
)


class InsufficientDataError(ValueError):
    """Raised when a statistical comparison has too few replications."""


@dataclass(frozen=True)
class GenerationRecord:
    """One metrics snapshot.

    ``kind_counts`` holds the number of active emitters per kind in
    canonical order (optimising, random-direction, improvement, random);
    it is all zeros for the post-initialization snapshot at generation 0.
    """

    generation: int
    evaluations: int
    archive_size: int
    best_fitness_norm: float
    qd_score: float
    kind_counts: tuple[int, int, int, int]

    def __post_init__(self):
        if self.qd_score > self.archive_size + 1e-9:
            raise ValueError("qd_score cannot exceed archive size (fitness_norm <= 1)")
        if len(self.kind_counts) != 4 or any(c < 0 for c in self.kind_counts):
            raise ValueError("kind_counts must be four non-negative integers")


def qd_score(archive: Archive) -> float:
    """Sum of normalized fitness over all elites (0 for an empty archive).

    ``math.fsum`` rounds the exact sum once, so the result depends neither
    on summation order nor on the interpreter (the built-in ``sum`` of
    floats became compensated in Python 3.12)."""
    return math.fsum(archive.fitness_norms().tolist())


def snapshot(archive: Archive, generation: int, evaluations: int, kind_counts) -> GenerationRecord:
    """Builds the :class:`GenerationRecord` for the current archive state."""
    return GenerationRecord(
        generation=int(generation),
        evaluations=int(evaluations),
        archive_size=len(archive),
        best_fitness_norm=archive.best_fitness if len(archive) else 0.0,
        qd_score=qd_score(archive),
        kind_counts=tuple(int(c) for c in kind_counts),
    )


def _write_csv(path, header, rows) -> None:
    """Writes ``header`` and ``rows`` to ``path`` as CSV with Unix line ends."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(records, path) -> None:
    _write_csv(
        path,
        METRICS_HEADER,
        (
            [
                r.generation,
                r.evaluations,
                r.archive_size,
                float(r.best_fitness_norm),
                float(r.qd_score),
                *r.kind_counts,
            ]
            for r in records
        ),
    )


def write_emitter_mix_csv(kind_series, path) -> None:
    """Per-generation active-emitter counts, one row per generation
    starting at 1 (generation 0 has no active emitters)."""
    _write_csv(
        path,
        ("generation",) + EMITTER_COUNT_COLUMNS,
        ([gen, *counts] for gen, counts in enumerate(kind_series, start=1)),
    )


def write_aggregate_csv(series_by_rep, path) -> None:
    """Per-generation quartiles across replications.

    Args:
        series_by_rep: One list of :class:`GenerationRecord` per
            replication; all must share the same snapshot cadence.
    """
    if not series_by_rep:
        raise ValueError("need at least one replication series")
    generations = [r.generation for r in series_by_rep[0]]
    for series in series_by_rep[1:]:
        if [r.generation for r in series] != generations:
            raise ValueError("replication series have mismatched snapshot cadences")
    rows = []
    for i, gen in enumerate(generations):
        records = [series[i] for series in series_by_rep]
        row = [gen, records[0].evaluations]
        for name in ("archive_size", "best_fitness_norm", "qd_score"):
            quartiles = np.percentile([getattr(r, name) for r in records], [25, 50, 75])
            row.extend(float(q) for q in quartiles)
        rows.append(row)
    _write_csv(path, AGGREGATE_HEADER, rows)


def _average_ranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks with ties sharing their average rank, and the size of
    each tie group; each NaN ranks alone, after every number, in input
    order.

    ``np.unique`` gives the tie counts but may reorder NaNs among
    themselves, so the positions come from a stable argsort."""
    order = np.argsort(pooled, kind="stable")
    counts = np.unique(pooled, return_counts=True, equal_nan=False)[1]
    ranks = np.empty(len(pooled))
    ranks[order] = np.repeat(np.cumsum(counts) - (counts - 1) / 2, counts)
    return ranks, counts


def rank_sum_compare(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon rank-sum test between two replication sets.

    The statistic is the rank sum of the first sample over the pooled,
    tie-averaged ranking.  For small groups (both sizes <= 8) the p-value
    is computed by exact enumeration of all rank assignments; otherwise a
    normal approximation with tie correction is used.

    Returns:
        ``(statistic, p_value)``.

    Raises:
        InsufficientDataError: If either group has fewer than 3 values.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = len(a), len(b)
    if n < 3 or m < 3:
        raise InsufficientDataError("rank-sum comparison needs at least 3 values per group")
    pooled = np.concatenate([a, b])
    ranks, tie_counts = _average_ranks(pooled)
    w = float(ranks[:n].sum())

    if n <= 8 and m <= 8:
        total = math.comb(n + m, n)
        count_le = 0
        count_ge = 0
        eps = 1e-12
        for combo in itertools.combinations(range(n + m), n):
            ws = ranks[list(combo)].sum()
            count_le += ws <= w + eps
            count_ge += ws >= w - eps
        p = min(1.0, 2.0 * min(count_le, count_ge) / total)
        return w, p

    mean = n * (n + m + 1) / 2.0
    big_n = n + m
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (big_n * (big_n - 1))
    var = n * m / 12.0 * ((big_n + 1) - tie_term)
    if var <= 0:
        return w, 1.0
    z = (w - mean) / math.sqrt(var)
    return w, math.erfc(abs(z) / math.sqrt(2.0))


def holm_adjust(p_values) -> list[float]:
    """Holm step-down adjusted p-values (same order as the input).

    A hypothesis is rejected at level alpha iff its adjusted p-value is
    below alpha, reproducing the sequential alpha/(m-i) comparisons.
    """
    p = list(map(float, p_values))
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted

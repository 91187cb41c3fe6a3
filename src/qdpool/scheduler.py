"""Emitter-pool scheduling: a multi-play UCB1 bandit over a sliding
window, built on the uniform round-robin policy's pool bookkeeping.

Each generation the engine frees the slots of terminated emitters and
calls ``select()``, which fills every free slot.  The UCB policy scores
every idle pool emitter by windowed success ratio plus an exploration
bonus and picks the top scorers; arms with no selections inside the
window score +infinity, so every instance is eventually retried.
Statistics are tracked per emitter instance by default, with an optional
per-kind sharing mode.  The engine schedules every variant with
:class:`UcbScheduler`.
"""

from __future__ import annotations

import math

import numpy as np

from qdpool.emitters import Emitter

GRANULARITIES = ("instance", "kind")


class BanditStats:
    """Sliding-window (selections, successes) counts per arm.

    A ``(window, arms, 2)`` integer table holds one row per generation;
    each record overwrites the oldest row, and the windowed sums are read
    back from the table.
    """

    def __init__(self, keys, window: int):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = int(window)
        self._arm = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        self._table = np.zeros((self.window, len(self._arm), 2), dtype=np.int64)
        self._oldest = 0
        self._sums = [[0, 0] for _ in self._arm]
        self.total_selections = 0

    def windowed_selections(self, key) -> int:
        return self._sums[self._arm[key]][0]

    def windowed_successes(self, key) -> int:
        return self._sums[self._arm[key]][1]

    def record(self, counts: dict) -> None:
        """Records one generation of per-arm counts (missing arms count
        as (0, 0)) over the oldest generation in the window.

        Raises:
            ValueError: If a key is not an arm, or successes exceed
                selections for any arm; nothing is recorded then.
        """
        row = [(0, 0)] * len(self._arm)
        for key, (sel, succ) in counts.items():
            if key not in self._arm:
                raise ValueError(f"counts for unknown arm {key!r}")
            if sel < 0 or succ < 0 or succ > sel:
                raise ValueError(f"need 0 <= successes <= selections, got ({sel}, {succ})")
            row[self._arm[key]] = (sel, succ)
        self._table[self._oldest] = row
        self._oldest = (self._oldest + 1) % self.window
        self._sums = self._table.sum(axis=0).tolist()
        self.total_selections = sum(sel for sel, _ in self._sums)

    def score(self, key, zeta: float) -> float:
        """UCB1 value of one arm: success ratio plus exploration bonus,
        or +infinity while the arm has no windowed selections."""
        sel, succ = self._sums[self._arm[key]]
        if sel == 0:
            return math.inf
        return succ / sel + zeta * math.sqrt(math.log(self.total_selections) / sel)


class UniformScheduler:
    """Round-robin policy: terminated emitters are re-activated in
    ascending id order.  It holds the pool and active-set bookkeeping
    that :class:`UcbScheduler` inherits."""

    def __init__(self, emitters: list[Emitter], slots: int):
        if slots < 1:
            raise ValueError("need at least one active slot")
        if slots > len(emitters):
            raise ValueError("pool must hold at least as many emitters as slots")
        self.emitters = list(emitters)
        self.slots = int(slots)
        self._active_ids: set[int] = set()

    @property
    def active(self) -> list[Emitter]:
        """Currently active emitters in ascending id (slot) order."""
        return [e for e in self.emitters if e.id in self._active_ids]

    def deactivate(self, emitter: Emitter) -> None:
        self._active_ids.discard(emitter.id)

    def _idle(self) -> tuple[list[Emitter], int]:
        """Idle emitters in ascending id order, and the number of free
        slots (never more than the idle count, since the pool holds at
        least ``slots`` emitters)."""
        idle = [e for e in self.emitters if e.id not in self._active_ids]
        return idle, self.slots - len(self._active_ids)

    def select(self) -> list[Emitter]:
        """Fills every free slot with the lowest-id idle emitters, marks
        them active and returns them; the caller is responsible for
        calling ``activate`` on each."""
        idle, free = self._idle()
        chosen = idle[:free]
        self._active_ids.update(e.id for e in chosen)
        return chosen

    def record_generation(self, counts: dict[int, tuple[int, int]]) -> None:
        """Uniform policy keeps no statistics."""


class UcbScheduler(UniformScheduler):
    """Fills free emitter slots with the highest-UCB idle instances.

    Ties break toward the lowest emitter id, so runs are reproducible and
    the first generation (all arms at +infinity) activates ids
    ``0..slots-1``.  A pool of exactly ``slots`` emitters leaves no
    choice: every idle emitter is picked.
    """

    def __init__(
        self,
        emitters: list[Emitter],
        slots: int,
        zeta: float = 0.05,
        window: int = 50,
        stats_granularity: str = "instance",
    ):
        super().__init__(emitters, slots)
        if zeta < 0:
            raise ValueError("zeta must be non-negative")
        if stats_granularity not in GRANULARITIES:
            raise ValueError(f"stats_granularity must be one of {GRANULARITIES}")
        self.zeta = float(zeta)
        self.stats_granularity = stats_granularity
        self._key_of = {
            e.id: (e.id if stats_granularity == "instance" else e.kind) for e in self.emitters
        }
        self.stats = BanditStats(self._key_of.values(), window)

    def emitter_score(self, emitter: Emitter) -> float:
        return self.stats.score(self._key_of[emitter.id], self.zeta)

    def select(self) -> list[Emitter]:
        """Fills every free slot with the best idle emitters, marks them
        active and returns them best-first; the caller is responsible for
        calling ``activate`` on each."""
        idle, free = self._idle()
        if free == 0:
            return []
        chosen = sorted(idle, key=lambda e: (-self.emitter_score(e), e.id))[:free]
        self._active_ids.update(e.id for e in chosen)
        return chosen

    def record_generation(self, counts: dict[int, tuple[int, int]]) -> None:
        """Feeds one generation of per-emitter (selections, successes)
        into the sliding window, aggregating per kind when statistics are
        shared."""
        merged: dict = {}
        for emitter_id, (sel, succ) in counts.items():
            key = self._key_of[emitter_id]
            prev = merged.get(key, (0, 0))
            merged[key] = (prev[0] + sel, prev[1] + succ)
        self.stats.record(merged)

"""Emitter-pool scheduling: a multi-play UCB1 bandit over a sliding
window, and the uniform round-robin policy as that bandit with no
feedback.

The engine frees an emitter's slot in the generation that exhausts it
and, at the start of the next, calls ``select()``, which fills every free
slot.  The UCB policy scores every idle pool emitter by windowed success
ratio plus an exploration bonus and picks the top scorers; arms with no
selections inside the window score +infinity, so every instance is
eventually retried.  Before any feedback every arm scores +infinity and
ties break toward the lowest id, so a UCB scheduler that records nothing
is round-robin: :class:`UniformScheduler` is exactly that.
Statistics are tracked per emitter instance by default, with an optional
per-kind sharing mode.  The engine schedules every variant with
:class:`UcbScheduler`.
"""

from __future__ import annotations

import math
from collections import deque

from qdpool._counts import count
from qdpool.emitters import Emitter

GRANULARITIES = ("instance", "kind")


class BanditStats:
    """Sliding-window (selections, successes) counts per arm.

    A deque holds the last ``window`` recorded generations, each as its
    ``(arm, selections, successes)`` entries, and exact Python-int sums
    move by the generation each record adds and the one it drops.  A
    window longer than the run simply counts every generation.
    """

    def __init__(self, keys, window: int):
        self.window = count("window", window, 1)
        self._arm = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        self._rows: deque[list[tuple[int, int, int]]] = deque()
        self._sums = [[0, 0] for _ in self._arm]
        self.total_selections = 0

    def record(self, counts: dict) -> None:
        """Records one generation of per-arm counts (missing arms count
        as (0, 0)) and drops the oldest once more than ``window`` are held.

        Raises:
            ValueError: If a key is not an arm, or a count is not an
                integer of at least 0 or successes exceed selections for
                any arm; nothing is recorded then.
        """
        row = []
        for key, (sel, succ) in counts.items():
            if key not in self._arm:
                raise ValueError(f"counts for unknown arm {key!r}")
            sel = count(f"selections[{key!r}]", sel, 0)
            succ = count(f"successes[{key!r}]", succ, 0)
            if succ > sel:
                raise ValueError(f"need successes <= selections, got ({sel}, {succ})")
            row.append((self._arm[key], sel, succ))
        self._rows.append(row)
        self._add(row, 1)
        if len(self._rows) > self.window:
            self._add(self._rows.popleft(), -1)

    def _add(self, row: list[tuple[int, int, int]], sign: int) -> None:
        for arm, sel, succ in row:
            self._sums[arm][0] += sign * sel
            self._sums[arm][1] += sign * succ
            self.total_selections += sign * sel

    def scores(self, keys, zeta: float) -> list[float]:
        """UCB1 values of several arms in one pass, with one log of the
        windowed total: each arm's success ratio plus exploration bonus,
        or +infinity while the arm has no windowed selections."""
        sums = [self._sums[self._arm[key]] for key in keys]
        if self.total_selections == 0:  # no arm has a selection
            return [math.inf] * len(sums)
        log_total = math.log(self.total_selections)
        return [
            math.inf if sel == 0 else succ / sel + zeta * math.sqrt(log_total / sel)
            for sel, succ in sums
        ]

    def score(self, key, zeta: float) -> float:
        """UCB1 value of one arm: the batch of one of :meth:`scores`."""
        return self.scores([key], zeta)[0]


class UcbScheduler:
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
        zeta: float,
        window: int,
        stats_granularity: str,
    ):
        self.slots = count("slots", slots, 1)
        if self.slots > len(emitters):
            raise ValueError("pool must hold at least as many emitters as slots")
        if not 0 <= zeta < math.inf:
            raise ValueError("zeta must be non-negative and finite")
        if stats_granularity not in GRANULARITIES:
            raise ValueError(f"stats_granularity must be one of {GRANULARITIES}")
        self.emitters = list(emitters)
        self._active_ids: set[int] = set()
        self.zeta = float(zeta)
        self._key_of = {
            e.id: (e.id if stats_granularity == "instance" else e.kind) for e in self.emitters
        }
        self.stats = BanditStats(self._key_of.values(), window)

    @property
    def active(self) -> list[Emitter]:
        """Currently active emitters in ascending id (slot) order."""
        return [e for e in self.emitters if e.id in self._active_ids]

    def deactivate(self, emitter: Emitter) -> None:
        self._active_ids.discard(emitter.id)

    def emitter_score(self, emitter: Emitter) -> float:
        return self.stats.score(self._key_of[emitter.id], self.zeta)

    def select(self) -> list[Emitter]:
        """Fills every free slot with the best idle emitters, marks them
        active and returns them best-first; the caller is responsible for
        calling ``activate`` on each.  The pool holds at least ``slots``
        emitters, so there are never fewer idle emitters than free slots."""
        free = self.slots - len(self._active_ids)
        if free == 0:
            return []
        idle = [e for e in self.emitters if e.id not in self._active_ids]
        scores = self.stats.scores([self._key_of[e.id] for e in idle], self.zeta)
        ranked = sorted(zip(idle, scores), key=lambda pair: (-pair[1], pair[0].id))
        chosen = [e for e, _ in ranked[:free]]
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


class UniformScheduler(UcbScheduler):
    """Round-robin policy: UCB with no feedback.  Every arm keeps scoring
    +infinity, so ``select`` fills free slots with the lowest-id idle
    emitters in ascending order."""

    def __init__(self, emitters: list[Emitter], slots: int):
        super().__init__(emitters, slots, 0.0, 1, "instance")

    # bound here too: the benchmark tracer wraps each class's own ``select``
    select = UcbScheduler.select

    def record_generation(self, counts: dict[int, tuple[int, int]]) -> None:
        """Records nothing, so every arm stays untried."""

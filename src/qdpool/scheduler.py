"""Emitter-pool scheduling: a multi-play UCB1 bandit over a sliding
window, built on the uniform round-robin policy's pool bookkeeping.

Each generation the engine frees the slots of terminated emitters and
asks the scheduler to fill them.  The UCB policy scores every idle pool
emitter by windowed success ratio plus an exploration bonus and picks the
top scorers; arms with no selections inside the window score +infinity,
so every instance is eventually retried.  Statistics are tracked per
emitter instance by default, with an optional per-kind sharing mode.
The engine schedules every variant with :class:`UcbScheduler`.
"""

from __future__ import annotations

import math
from collections import deque

from qdpool.emitters import Emitter

GRANULARITIES = ("instance", "kind")


class BanditStats:
    """Sliding-window (selections, successes) bookkeeping per arm.

    One ring buffer per key holds the last ``window`` per-generation
    count pairs; running sums are maintained incrementally and always
    equal the buffer totals (see :meth:`recomputed_sums`).
    """

    def __init__(self, keys, window: int):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = int(window)
        self._keys = list(keys)
        self._buffers = {k: deque() for k in self._keys}
        self._selections = dict.fromkeys(self._keys, 0)
        self._successes = dict.fromkeys(self._keys, 0)
        self.total_selections = 0

    def windowed_selections(self, key) -> int:
        return self._selections[key]

    def windowed_successes(self, key) -> int:
        return self._successes[key]

    def record(self, counts: dict) -> None:
        """Appends one generation of per-arm counts (missing arms count
        as (0, 0)) and evicts entries older than the window.

        Raises:
            ValueError: If successes exceed selections for any arm.
        """
        for key in self._keys:
            sel, succ = counts.get(key, (0, 0))
            if sel < 0 or succ < 0 or succ > sel:
                raise ValueError(f"need 0 <= successes <= selections, got ({sel}, {succ})")
            buf = self._buffers[key]
            buf.append((sel, succ))
            self._selections[key] += sel
            self._successes[key] += succ
            self.total_selections += sel
            if len(buf) > self.window:
                old_sel, old_succ = buf.popleft()
                self._selections[key] -= old_sel
                self._successes[key] -= old_succ
                self.total_selections -= old_sel

    def score(self, key, zeta: float) -> float:
        """UCB1 value of one arm: success ratio plus exploration bonus,
        or +infinity while the arm has no windowed selections."""
        sel = self._selections[key]
        if sel == 0:
            return math.inf
        ratio = self._successes[key] / sel
        return ratio + zeta * math.sqrt(math.log(self.total_selections) / sel)

    def recomputed_sums(self, key) -> tuple[int, int]:
        """Sums rebuilt from the raw buffer, for invariant checking."""
        buf = self._buffers[key]
        return sum(s for s, _ in buf), sum(c for _, c in buf)


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

    def _idle(self, needed: int) -> list[Emitter]:
        """Idle emitters in ascending id order; raises RuntimeError if
        fewer than ``needed`` are idle."""
        idle = [e for e in self.emitters if e.id not in self._active_ids]
        if needed > len(idle):
            raise RuntimeError(f"asked for {needed} emitters but only {len(idle)} are idle")
        return idle

    def select(self, needed: int) -> list[Emitter]:
        """Marks the ``needed`` lowest-id idle emitters active and returns
        them; the caller is responsible for calling ``activate`` on each."""
        chosen = self._idle(needed)[:needed]
        self._active_ids.update(e.id for e in chosen)
        return chosen

    def record_generation(self, counts: dict[int, tuple[int, int]]) -> None:
        """Uniform policy keeps no statistics."""


class UcbScheduler(UniformScheduler):
    """Fills free emitter slots with the highest-UCB idle instances.

    Ties break toward the lowest emitter id, so runs are reproducible and
    the first generation (all arms at +infinity) activates ids
    ``0..needed-1``.  A pool of exactly ``slots`` emitters leaves no
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
        keys = list(dict.fromkeys(self._key_of.values()))
        self.stats = BanditStats(keys, window)

    def emitter_score(self, emitter: Emitter) -> float:
        return self.stats.score(self._key_of[emitter.id], self.zeta)

    def select(self, needed: int) -> list[Emitter]:
        """Marks the ``needed`` best idle emitters active and returns them
        best-first; the caller is responsible for calling ``activate`` on
        each."""
        idle = self._idle(needed)
        if needed == 0:
            return []
        chosen = sorted(idle, key=lambda e: (-self.emitter_score(e), e.id))[:needed]
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

"""Emitters: the four candidate-generation strategies that share one
archive.

Each emitter turns archive state plus its own internal state into a batch
of genotypes and, once the engine has evaluated and inserted the batch,
absorbs its slice of the insertion outcome and reports whether it has
exhausted itself, and why.  Three kinds drive an internal CMA-ES with different
reward signals (raw quality, movement along a fixed descriptor direction,
archive improvement); the fourth applies the directional-variation line
operator, with the fixed gains :data:`SIGMA_ISO` and :data:`SIGMA_LINE`,
between random elites and carries no internal state at all.

Generation and update are batched per family (the three CMA-ES kinds,
or the line operator), through the family's own class: every emitter of a
family draws from its own generator in the order given, and one
emitter's batch is ``type(emitter).generate_batch([emitter], archive,
task, [rng])``.  :class:`Emitter` states the lifecycle every family
implements.

Emitters only ever read the archive; insertion is the engine's job.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from qdpool._counts import count
from qdpool.archive import IMPROVED_CODE, NEW_CODE, Archive, EmptyArchiveError
from qdpool.cmaes import CmaesState
from qdpool.tasks import TaskSpec, clip_genotype

__all__ = [
    "EmitterKind",
    "SIGMA_ISO",
    "SIGMA_LINE",
    "Emitter",
    "OptimisingEmitter",
    "RandomDirectionEmitter",
    "ImprovementEmitter",
    "RandomEmitter",
    "EMITTER_CLASSES",
]


class EmitterKind(Enum):
    """The four emitter strategies, in canonical pool order."""

    OPTIMISING = "optimising"
    RANDOM_DIRECTION = "random_direction"
    IMPROVEMENT = "improvement"
    RANDOM = "random"


# Gains of the directional-variation operator: SIGMA_ISO scales the
# per-dimension isotropic noise relative to the search range (1% of the
# range on every task), SIGMA_LINE the component along the difference
# vector of two elites.
SIGMA_ISO = 0.01
SIGMA_LINE = 0.1


class Emitter:
    """An emitter of the pool; its family's class implements the lifecycle
    in two static methods.

    * ``generate_batch(emitters, archive, task, rngs)`` returns the
      batches of ``emitters``, all of this family and of one batch size,
      as one ``(len(emitters) * batch_size, task.dim)`` array of in-bounds
      genotypes stacked row-wise in the order given; emitter ``i`` draws
      from ``rngs[i]`` only.  A CMA-ES emitter that holds no strategy,
      because it was just picked, starts afresh first.
    * ``update_batch(emitters, descriptors, fitness_norms, status,
      improvement)`` ends the generation of ``emitters``: it absorbs their
      just-inserted batches, given row-wise in the same order as the
      descriptors, normalized fitnesses and the per-sample ``status`` codes
      and ``improvement`` values of :meth:`Archive.insert_batch`, and
      returns each emitter's reason to stop, or None for one that goes on.
      An emitter with a reason is exhausted: it keeps no state, and the
      engine returns it to the pool.
    """

    kind: EmitterKind

    def __init__(self, emitter_id: int, batch_size: int):
        self.id = count("emitter_id", emitter_id, 0)
        self.batch_size = count("batch_size", batch_size, 2)


class _CmaesEmitter(Emitter):
    """Shared machinery for the three CMA-ES-driven kinds.  Each kind
    defines ``batch_rewards(descriptors, fitness_norms, status,
    improvement)``: given its own rows of the arguments of
    ``update_batch``, it returns one reward per sample, larger is better,
    which ``update_batch`` feeds to ``tell``.

    ``cmaes`` holds the strategy while the emitter is active, and is None
    otherwise: an idle emitter in the pool keeps no covariance matrix, and
    ``generate_batch`` starts a picked one with :meth:`activate`.  The
    batch between generation and update is the strategy's own pending batch.
    """

    cmaes: CmaesState | None = None

    def activate(self, archive: Archive, task: TaskSpec, rng: np.random.Generator) -> None:
        """Restarts the strategy on a uniformly drawn elite at the task's
        initial step size, drawing from ``rng`` only."""
        elite = archive.random_elite(rng)
        self.cmaes = CmaesState(elite.genotype, task.sigma0, self.batch_size)

    @staticmethod
    def generate_batch(emitters, archive, task, rngs) -> np.ndarray:
        """Starts every emitter that holds no strategy (:meth:`activate`,
        from its own generator), then asks every emitter's CMA-ES in one
        :meth:`CmaesState.ask` call; each strategy keeps its unclipped
        samples and their normals for the distribution update, while the
        returned copies are clamped to the search bounds for evaluation."""
        for emitter, rng in zip(emitters, rngs):
            if emitter.cmaes is None:
                emitter.activate(archive, task, rng)
        raw = CmaesState.ask([e.cmaes for e in emitters], rngs)
        return clip_genotype(raw.reshape(-1, raw.shape[2]), task)

    @staticmethod
    def update_batch(emitters, descriptors, fitness_norms, status, improvement) -> list[str | None]:
        """Feeds each emitter's rewards back to its strategy's pending
        batch, with one :meth:`CmaesState.tell` for the family, and returns
        each emitter's reason to stop: ``no_add`` for a batch without a
        single archive add (every ``status`` is REJECTED, which is 0),
        else the restart criterion that ``tell`` reports for the updated
        strategy, or None.  Without an add the rewards and the update are
        skipped, since the next activation replaces the strategy anyway."""
        if any(e.cmaes is None or e.cmaes.pending is None for e in emitters):
            raise RuntimeError("update_batch called without a pending batch")
        batch = emitters[0].batch_size
        reasons, told, rewards = [], [], []
        for i, emitter in enumerate(emitters):
            rows = slice(i * batch, (i + 1) * batch)
            if not status[rows].any():
                reasons.append("no_add")
                continue
            reasons.append(None)
            told.append(i)
            rewards.append(
                emitter.batch_rewards(
                    descriptors[rows], fitness_norms[rows], status[rows], improvement[rows]
                )
            )
        if told:
            for i, reason in zip(told, CmaesState.tell([emitters[i].cmaes for i in told], rewards)):
                reasons[i] = reason
        for emitter, reason in zip(emitters, reasons):
            emitter.finish_generation(reason)
        return reasons

    def finish_generation(self, reason: str | None) -> bool:
        """Drops an exhausted emitter's strategy and returns whether
        ``reason`` exhausted it, which the benchmark's tracer counts."""
        if reason is None:
            return False
        self.cmaes = None
        return True


class OptimisingEmitter(_CmaesEmitter):
    """Pure quality search: the reward is the normalized fitness."""

    kind = EmitterKind.OPTIMISING

    def batch_rewards(self, descriptors, fitness_norms, status, improvement) -> np.ndarray:
        return np.asarray(fitness_norms, dtype=float).copy()


class RandomDirectionEmitter(_CmaesEmitter):
    """Descriptor-space explorer: rewards displacement of the sample's
    descriptor from the activation anchor along a random unit direction."""

    kind = EmitterKind.RANDOM_DIRECTION
    direction: np.ndarray | None = None
    anchor_bd: np.ndarray | None = None

    def activate(self, archive, task, rng) -> None:
        elite = archive.random_elite(rng)
        self.cmaes = CmaesState(elite.genotype, task.sigma0, self.batch_size)
        self.anchor_bd = np.array(elite.descriptor, dtype=float)
        norm = 0.0
        while norm == 0.0:  # zero draw has probability ~0 but would break
            direction = rng.standard_normal(len(self.anchor_bd))
            norm = float(np.linalg.norm(direction))
        self.direction = direction / norm

    def batch_rewards(self, descriptors, fitness_norms, status, improvement) -> np.ndarray:
        return (np.asarray(descriptors, dtype=float) - self.anchor_bd) @ self.direction


class ImprovementEmitter(_CmaesEmitter):
    """Archive-improvement search with banded rewards: filling a new cell
    (tier 2 + fitness) outranks replacing an incumbent (tier 1 +
    improvement), which outranks rejected samples (tier 0 + fitness), so
    plain scalar ranking reproduces the two-stage ordering."""

    kind = EmitterKind.IMPROVEMENT

    def batch_rewards(self, descriptors, fitness_norms, status, improvement) -> np.ndarray:
        fitness_norms = np.asarray(fitness_norms, dtype=float)
        status = np.asarray(status)
        return np.where(
            status == NEW_CODE,
            2.0 + fitness_norms,
            np.where(status == IMPROVED_CODE, 1.0 + np.asarray(improvement), fitness_norms),
        )


class RandomEmitter(Emitter):
    """Stateless directional variation between pairs of random elites:
    ``x1 + SIGMA_ISO * (upper - lower) * N(0, I) + SIGMA_LINE * N(0, 1) *
    (x2 - x1)``, clipped to the bounds."""

    kind = EmitterKind.RANDOM

    @staticmethod
    def generate_batch(emitters, archive, task, rngs) -> np.ndarray:
        """Draws every emitter's parent picks and noises from its own
        generator, then scales the noises and applies the line operator to
        all rows at once."""
        if len(archive) == 0:
            raise EmptyArchiveError("cannot generate from an empty archive")
        k, batch = len(emitters), emitters[0].batch_size
        picks = np.empty((k, batch, 2), dtype=np.int64)
        iso = np.empty((k, batch, task.dim))
        line = np.empty((k, batch, 1))
        for i, rng in enumerate(rngs):
            picks[i] = rng.integers(0, len(archive), size=(batch, 2))
            rng.standard_normal(out=iso[i])
            rng.standard_normal(out=line[i])
        iso *= SIGMA_ISO * (task.upper - task.lower)
        line *= SIGMA_LINE
        # one gather, each parent a contiguous (k * batch, dim) block
        x1, x2 = archive.genotypes_at_ranks(picks.reshape(-1, 2).T)
        # built in iso and x2, which this call owns, to keep the
        # batch-sized temporaries few: in a process's first run each one
        # is page-faulted in afresh every generation
        candidates = iso.reshape(-1, task.dim)
        candidates += x1
        step = np.subtract(x2, x1, out=x2)
        step *= line.reshape(-1, 1)
        candidates += step
        return clip_genotype(candidates, task, out=candidates)

    @staticmethod
    def update_batch(emitters, descriptors, fitness_norms, status, improvement) -> list[str | None]:
        """Nothing to absorb: the operator is memoryless, which is every
        emitter's reason to stop."""
        return ["memoryless"] * len(emitters)


EMITTER_CLASSES: dict[EmitterKind, type[Emitter]] = {
    cls.kind: cls for cls in (OptimisingEmitter, RandomDirectionEmitter, ImprovementEmitter, RandomEmitter)
}

"""Emitters: the four candidate-generation strategies that share one
archive.

Each emitter turns archive state plus its own internal state into a batch
of genotypes and, once the engine has evaluated and inserted the batch,
absorbs its slice of the insertion outcome and reports whether it has
exhausted itself.  Three kinds drive an internal CMA-ES with different
reward signals (raw quality, movement along a fixed descriptor direction,
archive improvement); the fourth applies the directional-variation line
operator, with the fixed gains :data:`SIGMA_ISO` and :data:`SIGMA_LINE`,
between random elites and carries no internal state at all.

Generation is batched per family, and :meth:`Emitter.generate_batch` is
the only way to generate: it produces the batches of several emitters of
one family (the three CMA-ES kinds, or the line operator) in one
vectorized pass, with every emitter drawing from its own generator in
the order given.  One emitter's batch is
``emitter.generate_batch([emitter], archive, task, [rng])``.

Emitters only ever read the archive; insertion is the engine's job.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from qdpool.archive import IMPROVED_CODE, NEW_CODE, Archive
from qdpool.cmaes import CmaesState, ask_stacked
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
    """Base class with the shared lifecycle contract.

    Subclasses implement ``activate`` (reset internal state from a random
    elite), ``generate_batch`` (produce ``batch_size`` in-bounds genotypes
    for each emitter of a family), and ``finish_generation`` (absorb the
    emitter's slice of the insertion outcome, report exhaustion).
    """

    kind: EmitterKind

    def __init__(self, emitter_id: int, batch_size: int = 50):
        if batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        self.id = int(emitter_id)
        self.batch_size = int(batch_size)

    def activate(self, archive: Archive, task: TaskSpec, rng: np.random.Generator) -> None:
        raise NotImplementedError

    @staticmethod
    def generate_batch(
        emitters: Sequence["Emitter"],
        archive: Archive,
        task: TaskSpec,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Generates the batches of ``emitters``, all of this family and
        of one batch size, stacked row-wise in the order given; emitter
        ``i`` draws from ``rngs[i]`` only."""
        raise NotImplementedError

    def finish_generation(
        self,
        descriptors: np.ndarray,
        fitness_norms: np.ndarray,
        status: np.ndarray,
        improvement: np.ndarray,
    ) -> bool:
        """Absorbs this emitter's just-inserted batch, given as the
        descriptors, normalized fitnesses and the per-sample ``status``
        codes and ``improvement`` values of :meth:`Archive.insert_batch`,
        and reports whether the emitter is exhausted."""
        raise NotImplementedError


class _CmaesEmitter(Emitter):
    """Shared machinery for the three CMA-ES-driven kinds; each kind
    defines ``batch_rewards``, the per-sample rewards fed to ``tell``.

    ``cmaes`` holds the strategy from :meth:`activate` until
    :meth:`finish_generation` reports exhaustion, and is None otherwise:
    an idle emitter in the pool keeps no covariance matrix.  The batch
    between generation and update is the strategy's own pending batch.
    """

    def __init__(self, emitter_id: int, batch_size: int = 50):
        super().__init__(emitter_id, batch_size)
        self.cmaes: CmaesState | None = None

    def activate(self, archive: Archive, task: TaskSpec, rng: np.random.Generator) -> None:
        """Restarts the strategy on a uniformly drawn elite at the task's
        initial step size."""
        elite = archive.random_elite(rng)
        self.cmaes = CmaesState(elite.genotype, task.sigma0, self.batch_size)

    @staticmethod
    def generate_batch(emitters, archive, task, rngs) -> np.ndarray:
        """Asks every emitter's CMA-ES in one :func:`ask_stacked` call; each
        strategy keeps its unclipped samples and their normals for the
        distribution update, while the returned copies are clamped to the
        search bounds for evaluation."""
        if any(e.cmaes is None for e in emitters):
            raise RuntimeError("emitter must be activated before generating")
        raw = ask_stacked([e.cmaes for e in emitters], rngs)
        return clip_genotype(raw.reshape(-1, raw.shape[2]), task)

    def batch_rewards(self, descriptors, fitness_norms, status, improvement) -> np.ndarray:
        """The per-sample rewards of a just-inserted batch, larger is
        better; the arguments are those of :meth:`finish_generation`."""
        raise NotImplementedError

    def finish_generation(self, descriptors, fitness_norms, status, improvement) -> bool:
        """Feeds the batch's rewards back to the strategy's pending batch
        and reports exhaustion: a native stop criterion, as returned by
        ``tell`` for the updated state, or a whole generation without a
        single archive add (every ``status`` is REJECTED, which is 0).
        Without an add the rewards and the update are skipped, since the
        next activation replaces the strategy anyway.  An exhausted emitter
        drops its strategy, so only active emitters hold one."""
        if self.cmaes is None or self.cmaes.pending is None:
            raise RuntimeError("finish_generation called without a pending batch")
        if np.any(status):
            rewards = self.batch_rewards(descriptors, fitness_norms, status, improvement)
            if self.cmaes.tell(rewards) is None:
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

    def __init__(self, emitter_id, batch_size=50):
        super().__init__(emitter_id, batch_size)
        self.direction: np.ndarray | None = None
        self.anchor_bd: np.ndarray | None = None

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

    def activate(self, archive, task, rng) -> None:
        """No internal state to reset."""

    @staticmethod
    def generate_batch(emitters, archive, task, rngs) -> np.ndarray:
        """Draws every emitter's parent picks and noises from its own
        generator, then scales the noises and applies the line operator to
        all rows at once."""
        if len(archive) == 0:
            raise RuntimeError("cannot generate from an empty archive")
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
        parents = archive.genotypes_at_ranks(picks.reshape(-1, 2))
        x1, x2 = parents[:, 0], parents[:, 1]
        # built in iso, which this call owns, to keep the batch-sized
        # temporaries few: in a process's first run each one is
        # page-faulted in afresh every generation
        candidates = iso.reshape(-1, task.dim)
        candidates += x1
        step = x2 - x1
        step *= line.reshape(-1, 1)
        candidates += step
        return clip_genotype(candidates, task, out=candidates)

    def finish_generation(self, descriptors, fitness_norms, status, improvement) -> bool:
        """Always exhausts: the operator is memoryless, so it returns to
        the pool after every generation."""
        return True


EMITTER_CLASSES: dict[EmitterKind, type[Emitter]] = {
    EmitterKind.OPTIMISING: OptimisingEmitter,
    EmitterKind.RANDOM_DIRECTION: RandomDirectionEmitter,
    EmitterKind.IMPROVEMENT: ImprovementEmitter,
    EmitterKind.RANDOM: RandomEmitter,
}

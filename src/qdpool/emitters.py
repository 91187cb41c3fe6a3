"""Emitters: the four candidate-generation strategies that share one
archive.

Each emitter turns archive state plus its own internal state into a batch
of genotypes, assigns per-sample rewards once the engine has evaluated and
inserted the batch, and reports whether it has exhausted itself.  Three
kinds drive an internal CMA-ES with different reward signals (raw
quality, movement along a fixed descriptor direction, archive
improvement); the fourth applies the directional-variation line operator
between random elites and carries no internal state at all.

Generation is batched per family: :meth:`Emitter.generate_batch` produces
the batches of several emitters of one family (the three CMA-ES kinds, or
the line operator) in one vectorized pass, with every emitter drawing
from its own generator in the order given.  :meth:`Emitter.generate_samples`
is its batch of one.

Emitters only ever read the archive; insertion is the engine's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from qdpool.archive import AddStatus, Archive
from qdpool.cmaes import CmaesState, EmitterExhaustedError, StopToggles, ask_stacked
from qdpool.tasks import TaskSpec, clip_genotype

__all__ = [
    "EmitterKind",
    "LineOperatorParams",
    "Emitter",
    "OptimisingEmitter",
    "RandomDirectionEmitter",
    "ImprovementEmitter",
    "RandomEmitter",
    "EMITTER_CLASSES",
    "EmitterExhaustedError",
]


class EmitterKind(Enum):
    """The four emitter strategies, in canonical pool order."""

    OPTIMISING = "optimising"
    RANDOM_DIRECTION = "random_direction"
    IMPROVEMENT = "improvement"
    RANDOM = "random"


@dataclass(frozen=True)
class LineOperatorParams:
    """Gains of the directional-variation operator.

    ``sigma_iso`` scales per-dimension isotropic noise relative to the
    search range (0.01 means 1% of the range on every task); ``sigma_line``
    scales the component along the difference vector of two elites.
    """

    sigma_iso: float = 0.01
    sigma_line: float = 0.1

    def __post_init__(self):
        if self.sigma_iso < 0 or self.sigma_line < 0:
            raise ValueError("line-operator gains must be non-negative")


class Emitter:
    """Base class with the shared lifecycle contract.

    Subclasses implement ``activate`` (reset internal state from a random
    elite), ``generate_batch`` (produce ``batch_size`` in-bounds genotypes
    for each emitter of a family), ``batch_rewards`` (score a
    just-inserted batch), and ``finish_generation`` (absorb rewards,
    report exhaustion).
    """

    kind: EmitterKind

    def __init__(self, emitter_id: int, batch_size: int = 50):
        if batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        self.id = int(emitter_id)
        self.batch_size = int(batch_size)
        self._pending: np.ndarray | None = None

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

    def generate_samples(
        self, archive: Archive, task: TaskSpec, rng: np.random.Generator
    ) -> np.ndarray:
        """This emitter's batch of ``batch_size`` in-bounds genotypes."""
        return self.generate_batch([self], archive, task, [rng])

    def batch_rewards(
        self,
        descriptors: np.ndarray,
        fitness_norms: np.ndarray,
        status: np.ndarray,
        improvement: np.ndarray,
    ) -> np.ndarray:
        """Scores a just-inserted batch from the per-sample ``status`` codes
        and ``improvement`` values of :meth:`Archive.insert_batch`."""
        raise NotImplementedError

    def finish_generation(self, rewards, any_added: bool) -> bool:
        raise NotImplementedError

    def _take_pending(self, rewards) -> tuple[np.ndarray, np.ndarray]:
        if self._pending is None:
            raise RuntimeError("finish_generation called without a pending batch")
        rewards = np.asarray(rewards, dtype=float)
        if rewards.shape != (len(self._pending),):
            raise ValueError(f"expected {len(self._pending)} rewards, got shape {rewards.shape}")
        pending, self._pending = self._pending, None
        return pending, rewards


class _CmaesEmitter(Emitter):
    """Shared machinery for the three CMA-ES-driven kinds."""

    def __init__(
        self, emitter_id: int, batch_size: int = 50, stop_toggles: StopToggles | None = None
    ):
        super().__init__(emitter_id, batch_size)
        self.stop_toggles = stop_toggles or StopToggles()
        self.cmaes: CmaesState | None = None

    def activate(self, archive: Archive, task: TaskSpec, rng: np.random.Generator) -> None:
        """Restarts the strategy on a uniformly drawn elite at the task's
        initial step size."""
        elite = archive.random_elite(rng)
        self.cmaes = CmaesState(elite.genotype, task.sigma0, self.batch_size, self.stop_toggles)

    @staticmethod
    def generate_batch(emitters, archive, task, rngs) -> np.ndarray:
        """Asks every emitter's CMA-ES in one :func:`ask_stacked` call; each
        emitter caches its unclipped samples for the distribution update,
        while the returned copies are clamped to the search bounds for
        evaluation."""
        if any(e.cmaes is None for e in emitters):
            raise RuntimeError("emitter must be activated before generating")
        raw = ask_stacked([e.cmaes for e in emitters], rngs)
        for emitter, samples in zip(emitters, raw):
            emitter._pending = samples
        return clip_genotype(raw.reshape(-1, raw.shape[2]), task)

    def finish_generation(self, rewards, any_added: bool) -> bool:
        """Feeds the rewards back and reports exhaustion: a native stop
        criterion, or a whole generation without a single archive add.
        Without an add the update is skipped, since the next activation
        replaces the strategy anyway."""
        pending, rewards = self._take_pending(rewards)
        if not any_added:
            return True
        self.cmaes.tell(pending, rewards)
        return self.cmaes.should_stop() is not None


class OptimisingEmitter(_CmaesEmitter):
    """Pure quality search: the reward is the normalized fitness."""

    kind = EmitterKind.OPTIMISING

    def batch_rewards(self, descriptors, fitness_norms, status, improvement) -> np.ndarray:
        return np.asarray(fitness_norms, dtype=float).copy()


class RandomDirectionEmitter(_CmaesEmitter):
    """Descriptor-space explorer: rewards displacement of the sample's
    descriptor from the activation anchor along a random unit direction."""

    kind = EmitterKind.RANDOM_DIRECTION

    def __init__(self, emitter_id, batch_size=50, stop_toggles=None):
        super().__init__(emitter_id, batch_size, stop_toggles)
        self.direction: np.ndarray | None = None
        self.anchor_bd: np.ndarray | None = None

    def activate(self, archive, task, rng) -> None:
        elite = archive.random_elite(rng)
        self.cmaes = CmaesState(elite.genotype, task.sigma0, self.batch_size, self.stop_toggles)
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
            status == AddStatus.NEW,
            2.0 + fitness_norms,
            np.where(status == AddStatus.IMPROVED, 1.0 + np.asarray(improvement), fitness_norms),
        )


class RandomEmitter(Emitter):
    """Stateless directional variation between pairs of random elites:
    ``x1 + sigma_iso * (upper - lower) * N(0, I) + sigma_line * N(0, 1) *
    (x2 - x1)``, clipped to the bounds."""

    kind = EmitterKind.RANDOM

    def __init__(self, emitter_id, batch_size=50, line_params: LineOperatorParams | None = None):
        super().__init__(emitter_id, batch_size)
        self.line_params = line_params or LineOperatorParams()

    def activate(self, archive, task, rng) -> None:
        """No internal state to reset."""

    @staticmethod
    def generate_batch(emitters, archive, task, rngs) -> np.ndarray:
        """Draws every emitter's parent picks and noises from its own
        generator and scales the noises by its gains, then applies the
        line operator to all rows at once."""
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
        sigma_iso = np.array([e.line_params.sigma_iso for e in emitters])[:, None, None]
        iso *= sigma_iso * (task.upper - task.lower)
        line *= np.array([e.line_params.sigma_line for e in emitters])[:, None, None]
        parents = archive.genotypes_at_ranks(picks.reshape(-1, 2))
        x1, x2 = parents[:, 0], parents[:, 1]
        candidates = x1 + iso.reshape(-1, task.dim)
        candidates += line.reshape(-1, 1) * (x2 - x1)
        clipped = clip_genotype(candidates, task)
        for emitter, own in zip(emitters, clipped.reshape(k, batch, task.dim)):
            emitter._pending = own
        return clipped

    def batch_rewards(self, descriptors, fitness_norms, status, improvement) -> np.ndarray:
        """Unused by the line operator; zeros keep the interface uniform."""
        return np.zeros(len(fitness_norms))

    def finish_generation(self, rewards, any_added: bool) -> bool:
        """Always exhausts: the operator is memoryless, so it returns to
        the pool after every generation."""
        self._take_pending(rewards)
        return True


EMITTER_CLASSES: dict[EmitterKind, type[Emitter]] = {
    EmitterKind.OPTIMISING: OptimisingEmitter,
    EmitterKind.RANDOM_DIRECTION: RandomDirectionEmitter,
    EmitterKind.IMPROVEMENT: ImprovementEmitter,
    EmitterKind.RANDOM: RandomEmitter,
}

"""A stateful model of the archive: hypothesis drives one :class:`Archive`
through mixed sequences of its operations and checks it, after every
step, against a plain dict.

The model maps each occupied cell to an :class:`Elite` holding what the
cell must hold.  Its competition rule is the textbook one, applied one
candidate at a time: an empty cell takes the candidate, an occupied one
only on strictly higher raw fitness.

Every candidate's genotype carries a serial number, so a row that keeps a
stale genotype shows.  Raw fitness comes from a few values,
so duplicate cells and ties are common, and the normalized fitness
saturates at both ends, so equal norms hide different raws.  The grid has
12 cells.  The whole machine runs in about 4 s on a 2-core machine;
its budget in tier 1 is 15 s.
"""

import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from qdpool.archive import AddStatus, Archive, Elite, EmptyArchiveError, GridSpec

RESOLUTION = (3, 4)
SPEC = GridSpec(np.zeros(2), np.array(RESOLUTION, dtype=float), np.array(RESOLUTION))
RAWS = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

cells = st.integers(0, RESOLUTION[0] * RESOLUTION[1] - 1)
candidates = st.tuples(cells, st.sampled_from(RAWS))


def norm_of(raw):
    """Normalized fitness: monotone in raw and saturating at both ends."""
    return min(1.0, max(0.0, raw / 2.0))


def values(elite):
    return elite.fitness_raw, elite.fitness_norm, elite.genotype.tolist(), elite.descriptor.tolist()


def centre(cell):
    """The descriptor at the centre of ``cell`` (C order, unit-width cells)."""
    return np.array(divmod(cell, RESOLUTION[1]), dtype=float) + 0.5


class ArchiveMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.archive = Archive(SPEC)
        self.model = {}  # cell -> contents
        self.serial = 0
        self.tmp = tempfile.TemporaryDirectory()

    def teardown(self):
        self.tmp.cleanup()

    def genotype(self):
        self.serial += 1
        return np.array([float(self.serial), -float(self.serial)])

    def offer(self, cell, raw, genotype):
        """The model's competition rule for one candidate: its status and
        improvement."""
        held = self.model.get(cell)
        if held is not None and not raw > held.fitness_raw:
            return AddStatus.REJECTED, 0.0
        norm = norm_of(raw)
        self.model[cell] = Elite(genotype, centre(cell), raw, norm)
        if held is None:
            return AddStatus.NEW, norm
        return AddStatus.IMPROVED, norm - held.fitness_norm

    @rule(candidate=candidates)
    def add_attempt(self, candidate):
        cell, raw = candidate
        elite = Elite(self.genotype(), centre(cell), raw, norm_of(raw))
        result = self.archive.add_attempt(elite)
        assert (result.status, result.improvement) == self.offer(cell, raw, elite.genotype)

    @rule(batch=st.lists(candidates, min_size=1, max_size=10))
    def insert_batch(self, batch):
        cells = [cell for cell, _ in batch]
        raws = [raw for _, raw in batch]
        genotypes = np.stack([self.genotype() for _ in batch])
        descriptors = np.stack([centre(cell) for cell in cells])
        status, improvement = self.archive.insert_batch(
            cells, genotypes, descriptors, raws, [norm_of(raw) for raw in raws]
        )
        expected = [self.offer(cell, raw, g) for cell, raw, g in zip(cells, raws, genotypes)]
        assert status.tolist() == [s for s, _ in expected]
        assert improvement.tolist() == [i for _, i in expected]

    @rule()
    def pickle_round_trip(self):
        self.archive = pickle.loads(pickle.dumps(self.archive))

    @rule()
    def csv_round_trip(self):
        path = Path(self.tmp.name) / "archive.csv"
        self.archive.write_csv(path)
        self.archive = Archive.read_csv(path, SPEC)

    @rule(seed=st.integers(0, 2**32 - 1))
    def random_elite(self, seed):
        if not self.model:
            with pytest.raises(EmptyArchiveError):
                self.archive.random_elite(np.random.default_rng(seed))
            return
        elite = self.archive.random_elite(np.random.default_rng(seed))
        occupied = sorted(self.model)
        contents = self.model[occupied[np.random.default_rng(seed).integers(len(occupied))]]
        assert values(elite) == values(contents)

    @invariant()
    def same_contents(self):
        archive, model = self.archive, self.model
        assert len(archive) == len(model)
        rows = archive._row[archive._row >= 0]
        assert sorted(rows.tolist()) == list(range(len(model)))
        order = sorted(model)
        assert archive.fitness_norms().tolist() == [model[c].fitness_norm for c in order]
        listed = list(archive)
        assert [c for c, _ in listed] == order
        for cell, elite in listed:
            assert values(elite) == values(model[cell])
        if model:
            assert archive.best_fitness == max(contents.fitness_norm for contents in model.values())
            genotypes = archive.genotypes_at_ranks(np.arange(len(model)))
            assert genotypes.tolist() == [model[c].genotype.tolist() for c in order]
        else:
            with pytest.raises(EmptyArchiveError):
                archive.best_fitness


TestArchiveModel = ArchiveMachine.TestCase
TestArchiveModel.settings = settings(max_examples=150, stateful_step_count=25, deadline=None)

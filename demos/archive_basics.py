"""
Grid archive basics
===================

Build a small descriptor grid, stream random candidates through the
elitist competition rule, and dump the result as CSV.
"""

import os
import tempfile

import numpy as np

from qdpool import AddStatus, Archive, Elite, GridSpec

rng = np.random.default_rng(7)

# a 2-D descriptor space in [-1, 1]^2, discretized 8x8
spec = GridSpec(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
                resolution=np.array([8, 8]))
archive = Archive(spec)

# stream 500 random solutions; each cell keeps the best raw fitness seen
new, improved, rejected = 0, 0, 0
for _ in range(500):
    genotype = rng.uniform(-2.0, 2.0, 4)
    descriptor = np.tanh(genotype[:2])          # any mapping into bd space works
    raw = -float(np.sum(genotype ** 2))         # larger is better
    norm = max(0.0, 1.0 + raw / 16.0)           # affine squashing for reporting
    result = archive.add_attempt(Elite(genotype, descriptor, raw, norm))
    if result.status is AddStatus.NEW:
        new += 1
    elif result.status is AddStatus.IMPROVED:
        improved += 1
    else:
        rejected += 1

print(f"offers: {new} new cells, {improved} replacements, {rejected} rejected")
print(f"occupied {len(archive)} of {spec.total_cells} cells")
print(f"best normalized fitness: {archive.best_fitness:.3f}")

# iteration is always in ascending cell order, independent of insertion order
for cell, elite in list(archive)[:5]:
    print(f"  cell {cell:2d}: bd=({elite.descriptor[0]:+.2f}, {elite.descriptor[1]:+.2f}) "
          f"fitness={elite.fitness_raw:+.3f}")

path = os.path.join(tempfile.gettempdir(), "demo_archive.csv")
archive.write_csv(path)
print(f"wrote {path}")

"""
A tour of the four emitter kinds
================================

Each emitter turns archive state into a batch of candidates. Its family's
`update_batch` then absorbs the batch's insertion outcome, ends the
emitter's generation and gives it its reason to stop: an emitter with a
reason is exhausted and returns to the pool. The three CMA-ES kinds rank
the batch by their own per-sample reward signal; the random kind keeps no
state. This script activates one instance of each kind on a small
Rastrigin task and prints what it produces.
"""

import numpy as np

from qdpool import (
    AddStatus,
    Archive,
    EMITTER_CLASSES,
    EmitterKind,
    cell_indices,
    evaluate_batch,
    make_task,
)

rng = np.random.default_rng(11)
task = make_task("rastrigin_multi", dim=6, resolution=10)
archive = Archive(task.grid())

# seed the archive with a handful of random solutions
seeds = rng.uniform(task.lower, task.upper, (30, task.dim))
raw, norm, bd = evaluate_batch(seeds, task)
archive.insert_batch(cell_indices(bd, task.grid()), seeds, bd, raw, norm)
print(f"seeded archive with {len(archive)} elites\n")

for kind, cls in EMITTER_CLASSES.items():
    emitter = cls(emitter_id=0, batch_size=8)
    emitter.activate(archive, task, rng)
    genotypes = emitter.generate_batch([emitter], archive, task, [rng])
    raw, norm, bd = evaluate_batch(genotypes, task)

    # insert the whole batch exactly like the engine does
    cells = cell_indices(bd, task.grid())
    status, improvement = archive.insert_batch(cells, genotypes, bd, raw, norm)
    added = int(np.count_nonzero(status != AddStatus.REJECTED))

    print(f"{kind.name}: batch of {len(genotypes)}, {added} added")
    if kind is not EmitterKind.RANDOM:
        rewards = emitter.batch_rewards(bd, norm, status, improvement)
        print(f"  rewards: {np.array2string(rewards, precision=3)}")
    reason = emitter.update_batch([emitter], bd, norm, status, improvement)[0]
    terminated = reason is not None
    print(f"  terminated after this generation: {terminated} (reason to stop: {reason})\n")

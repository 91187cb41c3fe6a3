"""
CMA-ES on a shifted sphere
==========================

The ask/tell loop drives the sampling distribution onto the optimum of a
10-D quadratic bowl. Rewards are maximized, so the objective is negated.
`ask` and `tell` take a family of states; this loop passes a family of
one. `ask` keeps its samples, and the normals that drew them, as the
state's pending batch; `tell` takes one reward per sample, in sample order,
whitens the evolution path with those normals, and returns the first
restart criterion that holds for the updated state, or None. Stopping is
the loop's call: `ask` samples whatever the criteria say.
"""

import numpy as np

from qdpool import CmaesState

rng = np.random.default_rng(3)
dim = 10
target = np.full(dim, 1.7)

state = CmaesState(mean0=np.zeros(dim), sigma0=0.5, lam=10)

for generation in range(1, 501):
    samples = CmaesState.ask([state], [rng])[0]
    rewards = -np.sum((samples - target) ** 2, axis=1)
    reason = CmaesState.tell([state], [rewards])[0]
    if generation % 50 == 0 or generation == 1:
        err = float(np.linalg.norm(state.mean - target))
        print(f"gen {generation:3d}: best reward {rewards.max():+.3e}  "
              f"sigma {state.sigma:.3e}  |mean - target| {err:.3e}")
    if reason is not None:
        print(f"stopped after {generation} generations: {reason}")
        break

print(f"final mean error per coordinate: {np.abs(state.mean - target).max():.2e}")

"""
Sliding-window UCB1 over emitter instances
==========================================

Feed the scheduler synthetic selection/success streams and watch the
scores trade off empirical success rate against the exploration bonus.
Never-selected instances score +inf, so every arm is tried at least once.
"""

from qdpool import UcbScheduler
from qdpool.emitters import EmitterKind, RandomEmitter

# a pool of six interchangeable instances; ids are the arm identities
pool = [RandomEmitter(emitter_id=i, batch_size=50) for i in range(6)]
scheduler = UcbScheduler(pool, slots=2, zeta=0.05, window=50)

# arms 0..2 succeed often, arms 3..5 rarely
success_rate = {0: 40, 1: 35, 2: 30, 3: 5, 4: 3, 5: 1}

picks = []
for generation in range(200):
    chosen = scheduler.select()
    picks.extend(e.id for e in chosen)
    stats = {}
    for e in chosen:
        stats[e.id] = (50, success_rate[e.id])
        scheduler.deactivate(e)  # synthetic arms "terminate" every generation
    scheduler.record_generation(stats)

print("selection counts over 200 generations (2 slots each):")
for emitter in pool:
    count = picks.count(emitter.id)
    score = scheduler.emitter_score(emitter)
    print(f"  arm {emitter.id} (succ {success_rate[emitter.id]:2d}/50): picked {count:3d}x, "
          f"current score {score:.4f}" if score != float("inf") else
          f"  arm {emitter.id}: picked {count:3d}x, current score inf")

print("\nhigh-success arms dominate, but the window keeps stale arms retryable")

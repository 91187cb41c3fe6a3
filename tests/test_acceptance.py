"""End-to-end acceptance suite.

Each criterion is one test that prints a single ``criterion N: PASS`` line
with its measured values (shown under ``pytest -rP`` or ``-s``).  Criteria
5-8 share one desk-scale sweep (two tasks, six variants, five
replications, 2000 generations at n=20 on a 50x50 grid), built once per
session on every usable core; they carry the ``slow`` marker, so
``-m "not slow"`` skips the sweep.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from qdpool import cli, engine, metrics
from qdpool.archive import Archive, Elite, GridSpec
from qdpool.cmaes import CmaesState
from qdpool.emitters import EmitterKind
from qdpool.scheduler import BanditStats
from qdpool.tasks import TASK_NAMES, evaluate_batch, make_task

DESK_GENERATIONS = 2000
DESK_DIM = 20
DESK_RESOLUTION = 50
DESK_REPS = 5
DESK_SEED = 1000


def report(line):
    print(f"[acceptance] {line}")


# ---------------------------------------------------------------------------
# shared desk-scale sweep for criteria 5-8


@pytest.fixture(scope="session")
def desk_sweep():
    """Runs 2 tasks x 6 variants x 5 replications and keeps the results;
    the runs share the usable cores through ``engine.run_many``."""
    configs = []
    for task_name in ("rastrigin_multi", "sphere"):
        task = make_task(task_name, dim=DESK_DIM, resolution=DESK_RESOLUTION)
        for variant in engine.VARIANT_NAMES:
            for rep in range(DESK_REPS):
                config = engine.RunConfig(
                    task=task,
                    variant=variant,
                    generations=DESK_GENERATIONS,
                    slots=12,
                    batch_per_emitter=50,
                    init_samples=100,
                    seed=DESK_SEED + rep,
                    metrics_every=100,
                )
                configs.append(config)
    runs = list(engine.run_many(configs))
    return {
        (config.task.name, config.variant): runs[i : i + DESK_REPS]
        for i, config in enumerate(configs)
        if i % DESK_REPS == 0
    }


def final_qd_median(runs):
    return statistics.median(r.final_record.qd_score for r in runs)


def qd_at(run, generation):
    by_gen = {r.generation: r.qd_score for r in run.records}
    return by_gen[generation]


# ---------------------------------------------------------------------------
# criterion 1: archive vs brute-force oracle


def test_criterion_01_archive_matches_bruteforce_oracle():
    spec = GridSpec(np.array([-3.0, -3.0]), np.array([3.0, 3.0]), np.array([12, 12]))
    start = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        archive = Archive(spec)
        reference = {}
        for _ in range(10_000):
            descriptor = rng.uniform(-3.5, 3.5, 2)
            raw = float(rng.uniform(-20.0, 5.0))
            norm = min(max((raw + 5.0) / 10.0, 0.0), 1.0)
            elite = Elite(rng.uniform(-1.0, 1.0, 4), descriptor, raw, norm)
            archive.add_attempt(elite)
            # oracle: flat map keyed by cell, keep max fitness, strict improvement
            axes = np.clip(
                np.floor((descriptor - spec.lower) / spec.widths).astype(int),
                0,
                spec.resolution - 1,
            )
            cell = int(axes[0] * spec.resolution[1] + axes[1])
            held = reference.get(cell)
            if held is None or elite.fitness_raw > held.fitness_raw:
                reference[cell] = elite
        assert len(archive) == len(reference), f"seed {seed}: size mismatch"
        for cell, elite in archive:
            assert reference[cell] is elite, f"seed {seed}: cell {cell} holds a different elite"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"archive oracle comparison took {elapsed:.2f}s (budget 5s)"
    report(f"criterion 1: PASS - archives identical for 10/10 seeds in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: CMA-ES converges on a shifted sphere


def test_criterion_02_cmaes_reaches_shifted_sphere_optimum():
    dim, lam, budget = 10, 10, 20_000
    target = np.full(dim, 2.048)
    start = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = CmaesState(np.zeros(dim), 0.5, lam)
        best = -math.inf
        evaluations = 0
        while evaluations < budget:
            samples = state.ask(rng)
            rewards = -np.sum((samples - target) ** 2, axis=1)
            evaluations += lam
            best = max(best, float(rewards.max()))
            if best >= -1e-9:
                break
            state.tell(rewards)
            if state.should_stop() is not None:
                break
        assert best >= -1e-9, f"seed {seed}: best reward {best:.3e} after {evaluations} evals"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"CMA-ES sanity runs took {elapsed:.2f}s (budget 10s)"
    report(f"criterion 2: PASS - optimum reached for 10/10 seeds in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: UCB1 hand-worked scores


def test_criterion_03_ucb_hand_worked_example():
    stats = BanditStats(keys=["a", "b", "c"], window=50)
    stats.record({"a": (100, 20), "b": (50, 15)})
    score_a = stats.score("a", zeta=0.05)
    score_b = stats.score("b", zeta=0.05)
    assert score_a == pytest.approx(0.21119, abs=1e-5)
    assert score_b == pytest.approx(0.31583, abs=1e-5)
    assert score_b > score_a
    assert stats.score("c", zeta=0.05) == math.inf
    assert stats.score("c", zeta=0.05) > score_b
    report(
        f"criterion 3: PASS - scores {score_a:.5f}/{score_b:.5f}, "
        "never-selected arm is +inf"
    )


# ---------------------------------------------------------------------------
# criterion 4: single-kind pools reduce to the baseline variants


def archive_state(archive):
    return {
        cell: (
            elite.fitness_raw,
            elite.fitness_norm,
            elite.genotype.tobytes(),
            elite.descriptor.tobytes(),
        )
        for cell, elite in archive
    }


@pytest.mark.parametrize(
    "kind,baseline",
    [
        (EmitterKind.OPTIMISING, "cma-me-opt"),
        (EmitterKind.RANDOM_DIRECTION, "cma-me-dir"),
        (EmitterKind.IMPROVEMENT, "cma-me-imp"),
        (EmitterKind.RANDOM, "map-elites"),
    ],
)
def test_criterion_04_single_kind_pool_reduces_to_baseline(kind, baseline):
    task = make_task("rastrigin_multi", dim=10)
    kwargs = dict(
        task=task,
        generations=100,
        slots=12,
        batch_per_emitter=50,
        init_samples=100,
        seed=77,
    )
    restricted = engine.Engine(
        engine.RunConfig(variant="me-map-elites-ucb", pool_composition={kind: 12}, **kwargs)
    )
    reference = engine.Engine(engine.RunConfig(variant=baseline, **kwargs))
    restricted.initialize()
    reference.initialize()
    assert archive_state(restricted.archive) == archive_state(reference.archive)
    for generation in range(100):
        restricted.step()
        reference.step()
        assert archive_state(restricted.archive) == archive_state(reference.archive), (
            f"{baseline}: archives diverge at generation {generation + 1}"
        )
    report(f"criterion 4: PASS - restricted pool equals {baseline} for 100 generations")


# ---------------------------------------------------------------------------
# criteria 5-8: desk-scale orderings on the shared sweep


@pytest.mark.slow
def test_criterion_05_optimising_emitter_leads_best_fitness(desk_sweep):
    medians = {}
    runtime = 0.0
    for variant in ("cma-me-opt", "cma-me-dir", "cma-me-imp"):
        runs = desk_sweep[("rastrigin_multi", variant)]
        medians[variant] = statistics.median(r.final_record.best_fitness_norm for r in runs)
        runtime += sum(r.wall_time for r in runs)
    assert runtime < 600.0, f"criterion-5 runs took {runtime:.0f}s (budget 600s)"
    assert medians["cma-me-opt"] >= medians["cma-me-dir"], medians
    assert medians["cma-me-opt"] >= medians["cma-me-imp"], medians
    report(
        "criterion 5: PASS - median best fitness opt/dir/imp = "
        f"{medians['cma-me-opt']:.4f}/{medians['cma-me-dir']:.4f}/"
        f"{medians['cma-me-imp']:.4f} in {runtime:.0f}s"
    )


@pytest.mark.slow
def test_criterion_06_improvement_emitter_data_efficiency(desk_sweep):
    imp_runs = desk_sweep[("sphere", "cma-me-imp")]
    me_runs = desk_sweep[("sphere", "map-elites")]
    wins = sum(
        qd_at(imp, 500) >= qd_at(me, DESK_GENERATIONS)
        for imp, me in zip(imp_runs, me_runs)
    )
    assert wins >= 4, f"only {wins}/5 replications show the early-QD advantage"
    pairs = [
        (round(qd_at(imp, 500), 1), round(qd_at(me, DESK_GENERATIONS), 1))
        for imp, me in zip(imp_runs, me_runs)
    ]
    report(f"criterion 6: PASS - imp qd@500 vs map-elites qd@2000: {pairs} ({wins}/5)")


@pytest.mark.slow
def test_criterion_07_ucb_variant_matches_best_competitor(desk_sweep):
    for task_name in ("rastrigin_multi", "sphere"):
        ucb = final_qd_median(desk_sweep[(task_name, "me-map-elites-ucb")])
        competitors = {
            variant: final_qd_median(desk_sweep[(task_name, variant)])
            for variant in engine.VARIANT_NAMES
            if variant != "me-map-elites-ucb"
        }
        best_name, best = max(competitors.items(), key=lambda kv: kv[1])
        assert ucb >= 0.95 * best, (
            f"{task_name}: UCB median qd {ucb:.1f} < 0.95 x {best:.1f} ({best_name})"
        )
        report(
            f"criterion 7: PASS on {task_name} - UCB median qd {ucb:.1f} vs "
            f"best competitor {best_name} {best:.1f}"
        )


@pytest.mark.slow
def test_criterion_08_emitter_mix_telemetry(desk_sweep):
    # hard assertion: the active-kind counts sum to the slot count always
    for task_name in ("rastrigin_multi", "sphere"):
        for run in desk_sweep[(task_name, "me-map-elites-ucb")]:
            sums = {sum(counts) for counts in run.kind_series}
            assert sums == {12}, f"{task_name}: kind counts sum to {sums}, expected 12"

    # report-only: random-direction share early in the Sphere runs
    early_cut = DESK_GENERATIONS // 10
    early_shares, long_shares = [], []
    for run in desk_sweep[("sphere", "me-map-elites-ucb")]:
        kinds = np.array(run.kind_series, dtype=float)
        shares = kinds[:, 1] / kinds.sum(axis=1)
        early_shares.append(float(shares[:early_cut].mean()))
        long_shares.append(float(shares.mean()))
    early = statistics.median(early_shares)
    longrun = statistics.median(long_shares)
    verdict = "reproduced" if early > longrun else "NOT reproduced (seed-sensitive, report only)"
    report(
        "criterion 8: PASS - kind counts always sum to 12; early direction share "
        f"{early:.3f} vs long-run {longrun:.3f}: {verdict}"
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical artifacts, independent of thread count


def test_criterion_09_byte_identical_runs_across_threads(tmp_path):
    def run_tree(out, threads):
        cfg = cli.parse_config(
            dict(
                task_name="rastrigin_multi",
                dim=10,
                resolution=20,
                variants=["me-map-elites-ucb"],
                generations=40,
                slots=4,
                batch=10,
                init_samples=30,
                replications=1,
                base_seed=9,
                metrics_every=10,
                out_dir=str(tmp_path / out),
                threads=threads,
            )
        )
        assert cli.run_experiment(cfg, echo=lambda *a, **k: None) == 0
        rep = tmp_path / out / "rastrigin_multi" / "me-map-elites-ucb" / "rep0"
        return (rep / "metrics.csv").read_bytes(), (rep / "archive.csv").read_bytes()

    first = run_tree("t1", threads=1)
    rerun = run_tree("t1_again", threads=1)
    threaded = run_tree("t8", threads=8)
    assert first == rerun, "same config+seed reruns differ"
    assert first == threaded, "outputs differ between --threads 1 and --threads 8"
    report("criterion 9: PASS - metrics.csv and archive.csv byte-identical (threads 1 vs 8)")


# ---------------------------------------------------------------------------
# criterion 10: invariant fuzz, one million genotypes per task


@pytest.mark.parametrize("task_name", TASK_NAMES)
def test_criterion_10_fuzz_invariants(task_name):
    task = make_task(task_name)
    rng = np.random.default_rng(abs(hash(task_name)) % 2**32)
    total, chunk = 1_000_000, 100_000
    for _ in range(total // chunk):
        genotypes = rng.uniform(task.lower, task.upper, (chunk, task.dim))
        raw, norm, descriptors = evaluate_batch(genotypes, task)
        assert np.all(norm >= 0.0) and np.all(norm <= 1.0)
        assert np.all(descriptors >= task.bd_lower) and np.all(descriptors <= task.bd_upper)
        assert np.all(np.isfinite(raw))
    report(f"criterion 10: PASS - {total:,} genotypes on {task_name}, zero violations")


# ---------------------------------------------------------------------------
# criterion 11: rank-sum test equals exact enumeration


def exact_rank_sum_p(a, b):
    """Two-sided p by enumerating all assignments of the pooled sample."""
    pooled = sorted(a + b)
    ranks = {}
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j] == pooled[i]:
            j += 1
        for k in range(i, j):
            ranks.setdefault(pooled[i], (i + j + 1) / 2)
        i = j
    observed = sum(ranks[x] for x in a)
    sums = [
        sum(ranks[pooled[i]] for i in combo)
        for combo in itertools.combinations(range(len(pooled)), len(a))
    ]
    le = sum(s <= observed for s in sums)
    ge = sum(s >= observed for s in sums)
    return min(1.0, 2.0 * min(le, ge) / len(sums))


def test_criterion_11_rank_sum_matches_exact_enumeration():
    a, b = [1.0, 2.0, 3.0], [100.0, 200.0, 300.0]
    _, p = metrics.rank_sum_compare(a, b)
    p_exact = exact_rank_sum_p(a, b)
    assert p == pytest.approx(p_exact, abs=1e-9)
    assert p_exact == pytest.approx(0.1, abs=1e-12)  # 2 * 1/20 for n=3,3 extremes
    report(f"criterion 11: PASS - p = {p:.10f} matches enumeration ({p_exact:.10f})")
"""Benchmark task tests: hand-worked values, oracles, and invariants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from qdpool.tasks import (
    RASTRIGIN_PER_DIM_MAX,
    TASK_NAMES,
    bd_proj_clip,
    clip_genotype,
    evaluate_batch,
    make_task,
)


def test_rastrigin_per_dim_max_matches_dense_scan_oracle():
    """Independent oracle: brute-force the 1-D maximum at 1e-6 resolution."""
    best = -np.inf
    for chunk in np.array_split(np.arange(-5.12, 5.12 + 1e-6, 1e-6), 16):
        u = chunk - 2.048
        best = max(best, float(np.max(u * u - 10.0 * np.cos(2 * np.pi * u))))
    m = RASTRIGIN_PER_DIM_MAX
    assert m == pytest.approx(best, abs=1e-9)
    # the max lives on an interior ripple, clearly above the boundary value
    u_edge = -5.12 - 2.048
    assert m > u_edge**2 - 10 * np.cos(2 * np.pi * u_edge) + 1.0


class TestTaskConstruction:
    def test_bounds_and_sigma0(self):
        proj = make_task("rastrigin_proj", dim=10)
        multi = make_task("rastrigin_multi", dim=10)
        sphere = make_task("sphere", dim=10)
        arm = make_task("redundant_arm", dim=10)
        assert proj.upper[0] == 51.2 and proj.lower[0] == -51.2
        assert multi.upper[0] == 5.12
        assert sphere.upper[0] == 51.2
        assert arm.upper[0] == math.pi
        assert proj.sigma0 == multi.sigma0 == sphere.sigma0 == 0.5
        assert arm.sigma0 == 0.25

    def test_descriptor_bounds(self):
        proj = make_task("rastrigin_proj", dim=5)
        # floor(5/2)=2 components on axis 0, the remaining 3 on axis 1
        np.testing.assert_allclose(proj.bd_upper, [2 * 5.12, 3 * 5.12])
        multi = make_task("rastrigin_multi", dim=5)
        np.testing.assert_allclose(multi.bd_upper, [5.12, 5.12])
        arm = make_task("redundant_arm", dim=5)
        np.testing.assert_allclose(arm.bd_upper, [1.0, 1.0])

    def test_normalization_constants(self):
        n = 100
        sphere = make_task("sphere", dim=n)
        assert sphere.fitness_best_raw == 0.0
        assert sphere.fitness_worst_raw == pytest.approx(-n * 7.168**2)  # -5138.0224
        rast = make_task("rastrigin_proj", dim=n)
        assert rast.fitness_best_raw == 10.0 * n
        assert rast.fitness_worst_raw == pytest.approx(-n * RASTRIGIN_PER_DIM_MAX)
        arm = make_task("redundant_arm", dim=n)
        assert arm.fitness_best_raw == 0.0
        assert arm.fitness_worst_raw == pytest.approx(-math.pi**2)

    def test_resolution_and_overrides(self):
        task = make_task("sphere", dim=4, resolution=50, sigma0=0.1)
        np.testing.assert_array_equal(task.grid_resolution, [50, 50])
        assert task.sigma0 == 0.1
        assert task.grid().total_cells == 2500

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_task("rosenbrock")

    @pytest.mark.parametrize(
        "kwargs",
        [{"dim": 1}, {"sigma0": 0.0}, {"sigma0": -1.0}, {"resolution": 0}, {"resolution": (10, 0)}],
        ids=["dim-1", "sigma0-0", "sigma0-neg", "resolution-0", "resolution-axis-0"],
    )
    def test_invalid_arguments_name_the_argument(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            make_task("sphere", **kwargs)

    @pytest.mark.parametrize("sigma0", [math.nan, math.inf, 0.0, -1.0])
    def test_task_built_without_make_task_checks_sigma0(self, sigma0):
        task = make_task("sphere", dim=4, resolution=5)
        with pytest.raises(ValueError, match="sigma0"):
            dataclasses.replace(task, sigma0=sigma0)


def test_clip_genotype():
    task = make_task("rastrigin_proj", dim=2)
    np.testing.assert_allclose(clip_genotype(np.array([60.0, -60.0]), task), [51.2, -51.2])
    np.testing.assert_allclose(clip_genotype(np.array([1.0, -2.0]), task), [1.0, -2.0])
    np.testing.assert_allclose(clip_genotype(np.array([51.2, 0.0]), task), [51.2, 0.0])
    with pytest.raises(ValueError):
        clip_genotype(np.array([np.inf, 0.0]), task)


def test_clip_genotype_in_place():
    task = make_task("rastrigin_proj", dim=2)
    x = np.array([[60.0, -1.0], [0.5, -60.0]])
    assert clip_genotype(x, task, out=x) is x
    np.testing.assert_array_equal(x, [[51.2, -1.0], [0.5, -51.2]])
    bad = np.array([np.nan, 60.0])
    with pytest.raises(ValueError):
        clip_genotype(bad, task, out=bad)
    np.testing.assert_array_equal(bad, [np.nan, 60.0])


def test_bd_proj_clip_values():
    assert bd_proj_clip(3.0) == 3.0
    assert bd_proj_clip(6.4) == pytest.approx(0.8)
    assert bd_proj_clip(-10.24) == pytest.approx(-0.5)
    np.testing.assert_allclose(bd_proj_clip(np.array([5.12, -5.12])), [5.12, -5.12])


@pytest.mark.parametrize("name", ["rastrigin_proj", "sphere"])
def test_projection_descriptor_raises_no_warning(name):
    task = make_task(name, dim=4)
    genotypes = np.array([[0.0, 1.0, -30.0, 40.0], [0.0, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, descriptors = evaluate_batch(genotypes, task)
    np.testing.assert_allclose(descriptors[0], [1.0, 5.12 / -30.0 + 5.12 / 40.0])
    np.testing.assert_array_equal(descriptors[1], [0.0, 0.0])


def evaluate_one(x, task):
    """(raw fitness, normalized fitness, descriptor) of one genotype."""
    raw, norm, descriptors = evaluate_batch(np.asarray(x, dtype=float)[None, :], task)
    return float(raw[0]), float(norm[0]), descriptors[0]


class TestEvaluateHandWorked:
    def test_rastrigin_optimum(self):
        task = make_task("rastrigin_multi", dim=4)
        raw, norm, descriptor = evaluate_one(np.full(4, 2.048), task)
        assert raw == pytest.approx(40.0)
        assert norm == pytest.approx(1.0)

    def test_rastrigin_closed_form_point(self):
        task = make_task("rastrigin_multi", dim=2)
        # per-dim at x=2.548: 0.5^2 - 10 cos(pi) = 10.25; second dim at optimum: -10
        raw, norm, descriptor = evaluate_one(np.array([2.548, 2.048]), task)
        assert raw == pytest.approx(-(10.25 - 10.0))

    def test_sphere_origin(self):
        task = make_task("sphere", dim=2)
        raw, norm, descriptor = evaluate_one(np.zeros(2), task)
        assert raw == pytest.approx(-8.388608)

    def test_bd_proj_example(self):
        task = make_task("rastrigin_proj", dim=4)
        raw, norm, descriptor = evaluate_one(np.array([6.4, 3.0, -10.24, 1.0]), task)
        np.testing.assert_allclose(descriptor, [3.8, 0.5])

    def test_rastrigin_multi_descriptor_is_first_two_components(self):
        task = make_task("rastrigin_multi", dim=6)
        raw, norm, descriptor = evaluate_one(np.array([1.5, -2.5, 0.0, 1.0, 2.0, 3.0]), task)
        np.testing.assert_allclose(descriptor, [1.5, -2.5])

    def test_arm_straight(self):
        task = make_task("redundant_arm", dim=4)
        raw, norm, descriptor = evaluate_one(np.zeros(4), task)
        np.testing.assert_allclose(descriptor, [1.0, 0.0], atol=1e-12)
        assert raw == 0.0
        assert norm == 1.0

    def test_arm_elbow(self):
        task = make_task("redundant_arm", dim=4)
        raw, norm, descriptor = evaluate_one(np.array([math.pi / 2, -math.pi / 2, 0.0, 0.0]), task)
        np.testing.assert_allclose(descriptor, [0.75, 0.25], atol=1e-12)
        # population variance of (pi/2, -pi/2, 0, 0)
        assert raw == pytest.approx(-np.var([math.pi / 2, -math.pi / 2, 0, 0]))


def test_rastrigin_best_only_at_optimum():
    task = make_task("rastrigin_multi", dim=3)
    rng = np.random.default_rng(1)
    x = rng.uniform(-5.12, 5.12, (2000, 3))
    raw, _, _ = evaluate_batch(x, task)
    assert np.all(raw <= 30.0 + 1e-9)
    off = np.linalg.norm(x - 2.048, axis=1) > 1e-3
    assert np.all(raw[off] < 30.0)


def test_arm_gripper_inside_unit_disc_and_variance_zero_iff_equal():
    task = make_task("redundant_arm", dim=7)
    rng = np.random.default_rng(2)
    x = rng.uniform(-math.pi, math.pi, (5000, 7))
    raw, _, bd = evaluate_batch(x, task)
    assert np.all(np.linalg.norm(bd, axis=1) <= 1.0 + 1e-12)
    assert np.all(raw < 0.0)  # random angles virtually never all equal
    equal = np.tile(rng.uniform(-math.pi, math.pi, (50, 1)), (1, 7))
    raw_eq, norm_eq, _ = evaluate_batch(equal, task)
    np.testing.assert_allclose(raw_eq, 0.0, atol=1e-12)
    np.testing.assert_allclose(norm_eq, 1.0)


def test_fuzz_all_tasks_norm_in_unit_interval_and_bd_in_bounds():
    rng = np.random.default_rng(3)
    for name in TASK_NAMES:
        task = make_task(name, dim=11)
        x = rng.uniform(task.lower, task.upper, (20000, 11))
        raw, norm, bd = evaluate_batch(x, task)
        assert np.isfinite(raw).all()
        assert np.all((norm >= 0.0) & (norm <= 1.0)), name
        assert np.all((bd >= task.bd_lower) & (bd <= task.bd_upper)), name


@pytest.mark.parametrize("name", TASK_NAMES)
def test_evaluate_batch_is_pure_and_chunk_invariant(name):
    task = make_task(name, dim=6)
    rng = np.random.default_rng(4)
    x = rng.uniform(task.lower, task.upper, (301, 6))
    raw1, norm1, bd1 = evaluate_batch(x, task)
    raw2, norm2, bd2 = evaluate_batch(x, task)
    np.testing.assert_array_equal(raw1, raw2)
    # row-wise chunking must give bit-identical results (thread-count safety)
    parts = [evaluate_batch(c, task) for c in np.array_split(x, 7)]
    np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]), raw1)
    np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), norm1)
    np.testing.assert_array_equal(np.vstack([p[2] for p in parts]), bd1)


def test_out_of_bounds_batch_rejected():
    task = make_task("rastrigin_multi", dim=3)
    with pytest.raises(ValueError):
        evaluate_batch(np.array([[6.0, 0.0, 0.0]]), task)
    with pytest.raises(ValueError):
        evaluate_batch(np.zeros((4, 2)), task)

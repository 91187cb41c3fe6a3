"""Benchmark task tests: hand-worked values, oracles, and invariants."""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from qdpool.tasks import (
    RASTRIGIN_PER_DIM_MAX,
    TASK_NAMES,
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
        assert (proj.lower, proj.upper) == (-51.2, 51.2)
        assert (multi.lower, multi.upper) == (-5.12, 5.12)
        assert (sphere.lower, sphere.upper) == (-51.2, 51.2)
        assert (arm.lower, arm.upper) == (-math.pi, math.pi)
        for task in (proj, multi, sphere, arm):
            assert type(task.lower) is type(task.upper) is float
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
        [{"dim": 1}, {"sigma0": 0.0}, {"sigma0": -1.0}, {"resolution": 0}, {"resolution": (10, 0)},
         {"resolution": 2**32}, {"resolution": 2**64}],
        ids=["dim-1", "sigma0-0", "sigma0-neg", "resolution-0", "resolution-axis-0", "cells-wrap",
             "resolution-beyond-int64"],
    )
    def test_invalid_arguments_name_the_argument(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            make_task("sphere", **kwargs)

    @pytest.mark.parametrize("sigma0", [math.nan, math.inf, 0.0, -1.0])
    def test_task_built_without_make_task_checks_sigma0(self, sigma0):
        task = make_task("sphere", dim=4, resolution=5)
        with pytest.raises(ValueError, match="sigma0"):
            dataclasses.replace(task, sigma0=sigma0)

    @pytest.mark.parametrize("worst_above_best", [0.0, 1.0], ids=["equal", "above"])
    def test_task_built_without_make_task_checks_its_fitness_range(self, worst_above_best):
        task = make_task("sphere", dim=4, resolution=5)
        with pytest.raises(ValueError, match="fitness_worst_raw must be below fitness_best_raw"):
            dataclasses.replace(task, fitness_worst_raw=task.fitness_best_raw + worst_above_best)

    def test_task_built_without_make_task_checks_its_grid(self):
        task = make_task("sphere", dim=4, resolution=5)
        with pytest.raises(ValueError, match="cells"):
            dataclasses.replace(task, grid_resolution=np.array([2**32, 2**32]))

    @pytest.mark.parametrize(
        "kwargs", [{"dim": 4.5}, {"dim": 4.0}, {"resolution": 2.9}, {"resolution": (5, 2.5)}],
        ids=["dim", "dim-float-integral", "resolution", "resolution-axis"],
    )
    def test_non_integer_sizes_are_refused_not_truncated(self, kwargs):
        """``resolution=2.9`` used to build a 2 x 2 grid, and ``dim=4.5`` a task."""
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be"):
            make_task("sphere", **{"dim": 4, "resolution": 5, **kwargs})

    @pytest.mark.parametrize("dim", [np.int64(4), np.int32(4), np.uint8(4)], ids=["int64", "int32", "uint8"])
    def test_a_numpy_integer_dim_is_held_as_an_int(self, dim):
        """A numpy integer dim is taken (a float one is refused above) and
        held as an ``int``."""
        task = make_task("sphere", dim=dim, resolution=5)
        assert type(task.dim) is int and task.dim == 4

    @pytest.mark.parametrize(
        "resolution",
        [(1, 2, 3), [5], [[5, 5]], np.full((2, 2), 5), [1, [2, 3]]],
        ids=["three", "one", "row", "square", "ragged"],
    )
    def test_a_resolution_of_another_shape_is_refused_by_name(self, resolution):
        """``resolution=(1, 2, 3)`` used to raise numpy's broadcast error,
        and ``[1, [2, 3]]`` its ragged-sequence error, neither of which
        names an argument."""
        with pytest.raises(ValueError, match="^resolution must be one integer or two, got "):
            make_task("sphere", dim=4, resolution=resolution)

    def test_numpy_integer_sizes_are_taken(self):
        task = make_task("sphere", dim=np.int64(4), resolution=np.int32(3))
        assert (task.dim, task.grid().total_cells) == (4, 9)

    @pytest.mark.parametrize("name", ["bd_lower", "bd_upper", "grid_resolution"])
    def test_a_tasks_arrays_are_read_only(self, name):
        """An edit in place used to pass until ``Engine(config)`` built the
        grid; now the task's arrays are its grid's, and refuse writes."""
        task = make_task("sphere", dim=4, resolution=5)
        with pytest.raises(ValueError, match="read-only"):
            getattr(task, name)[0] = 1
        grid = task.grid()
        assert grid is task.grid()
        assert task.bd_lower is grid.lower and task.bd_upper is grid.upper
        assert task.grid_resolution is grid.resolution
        assert grid.total_cells == 25 and grid.lower.tolist() == [-10.24, -10.24]

    def test_a_task_keeps_none_of_its_callers_arrays(self):
        lower, upper, resolution = np.full(2, -1.0), np.full(2, 1.0), np.array([3, 3])
        task = dataclasses.replace(
            make_task("sphere", dim=4), bd_lower=lower, bd_upper=upper, grid_resolution=resolution
        )
        lower[0], upper[0], resolution[0] = -5.0, 5.0, 7
        assert (task.bd_lower.tolist(), task.bd_upper.tolist(), task.grid_resolution.tolist()) == (
            [-1.0, -1.0], [1.0, 1.0], [3, 3]
        )

    @pytest.mark.parametrize(
        "duplicate", [lambda task: pickle.loads(pickle.dumps(task)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_a_copied_task_is_read_only_again(self, duplicate):
        """numpy drops the read-only flag on unpickling, so a task pickles
        its constructor's arguments and is built, checked and frozen again."""
        task = make_task("rastrigin_proj", dim=5, resolution=7, sigma0=0.3)
        twin = duplicate(task)
        assert twin is not task and twin.grid() is not task.grid()
        for name in ("bd_lower", "bd_upper", "grid_resolution"):
            assert not getattr(twin, name).flags.writeable
            assert getattr(twin, name).tolist() == getattr(task, name).tolist()
        assert twin.grid().lower is twin.bd_lower and not twin.grid().widths.flags.writeable
        for field in dataclasses.fields(task):
            if field.name not in ("bd_lower", "bd_upper", "grid_resolution"):
                assert getattr(twin, field.name) == getattr(task, field.name)

    def test_tasks_compare_and_hash_by_identity(self):
        """Their bound arrays have no truth value, so a generated ``==``
        could only raise; identity gives a bool, and a hash."""
        task = make_task("sphere", dim=4, resolution=5)
        twin = make_task("sphere", dim=4, resolution=5)
        assert (task == twin, task == task) == (False, True)
        assert hash(task) != hash(twin)


def test_clip_genotype():
    task = make_task("rastrigin_proj", dim=2)
    np.testing.assert_allclose(clip_genotype(np.array([60.0, -60.0]), task), [51.2, -51.2])
    np.testing.assert_allclose(clip_genotype(np.array([1.0, -2.0]), task), [1.0, -2.0])
    np.testing.assert_allclose(clip_genotype(np.array([51.2, 0.0]), task), [51.2, 0.0])
    np.testing.assert_array_equal(clip_genotype(np.array([np.inf, -np.inf]), task), [51.2, -51.2])
    with pytest.raises(ValueError, match="NaN"):
        clip_genotype(np.array([np.nan, 0.0]), task)


def test_clip_genotype_in_place():
    task = make_task("rastrigin_proj", dim=2)
    x = np.array([[60.0, -1.0], [0.5, -60.0]])
    assert clip_genotype(x, task, out=x) is x
    np.testing.assert_array_equal(x, [[51.2, -1.0], [0.5, -51.2]])
    bad = np.array([np.nan, 60.0])
    with pytest.raises(ValueError):
        clip_genotype(bad, task, out=bad)
    np.testing.assert_array_equal(bad, [np.nan, 60.0])


def test_proj_fold_values():
    """At dim 2 each projection descriptor is one folded component:
    identity inside [-5.12, 5.12], bounds included, and ``5.12 / x``
    outside."""
    _, _, descriptors = evaluate_batch(
        np.array([[3.0, 6.4], [-10.24, 5.12], [-5.12, 0.0]]), make_task("sphere", dim=2)
    )
    assert descriptors[0, 0] == 3.0
    np.testing.assert_allclose(descriptors, [[3.0, 0.8], [-0.5, 5.12], [-5.12, 0.0]])


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

"""Archive and grid-binning tests, checked against brute-force oracles."""

import csv
import io
import pickle
import re
import warnings
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdpool.archive import (
    MAX_CELLS,
    AddResult,
    AddStatus,
    Archive,
    Elite,
    EmptyArchiveError,
    GridSpec,
    cell_index,
    cell_indices,
)


def reference_cell_index(descriptor, lower, upper, resolution):
    """Independent oracle: per-axis floor + clamp, ravelled in C order."""
    axes = []
    for d, lo, up, r in zip(descriptor, lower, upper, resolution):
        width = (up - lo) / r
        i = int(np.floor((d - lo) / width))
        axes.append(min(max(i, 0), r - 1))
    return int(np.ravel_multi_index(axes, resolution))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_same_elite(a, b):
    """Bit for bit the same genotype, descriptor and fitness values."""
    assert bits(a.genotype) == bits(b.genotype)
    assert bits(a.descriptor) == bits(b.descriptor)
    assert bits(a.fitness_raw) == bits(b.fitness_raw)
    assert bits(a.fitness_norm) == bits(b.fitness_norm)


def assert_distinct_genotypes(elites):
    """No two candidates share a genotype, so a read's values name the
    candidate it came from."""
    assert len({bits(e.genotype) for e in elites}) == len(elites)


def make_elite(rng, dim=3, bd=None, fn=None):
    genotype = rng.uniform(-1.0, 1.0, dim)
    descriptor = np.asarray(bd if bd is not None else rng.uniform(-1.0, 1.0, 2))
    fn = float(rng.uniform()) if fn is None else fn
    return Elite(genotype, descriptor, fitness_raw=fn * 10 - 5, fitness_norm=fn)


@pytest.fixture
def spec():
    return GridSpec(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([4, 4]))


def test_cell_index_hand_worked(spec):
    # widths are 0.5; axis indices floor((d + 1) / 0.5), C order flat = i0*4 + i1
    assert cell_index(np.array([-1.0, -1.0]), spec) == 0
    assert cell_index(np.array([-0.9, -0.9]), spec) == 0
    assert cell_index(np.array([-0.4, 0.1]), spec) == 1 * 4 + 2
    assert cell_index(np.array([0.9, 0.9]), spec) == 15
    # upper bound and beyond clamp into the last cell; below lower clamps to 0
    assert cell_index(np.array([1.0, 1.0]), spec) == 15
    assert cell_index(np.array([7.0, -42.0]), spec) == 3 * 4 + 0
    # boundary between cells belongs to the upper cell
    assert cell_index(np.array([-0.5, -1.0]), spec) == 1 * 4 + 0


def test_cell_index_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dims = int(rng.integers(1, 4))
        lower = rng.uniform(-10, 0, dims)
        upper = lower + rng.uniform(0.5, 10, dims)
        resolution = rng.integers(1, 9, dims)
        spec = GridSpec(lower, upper, resolution)
        # include points well outside the bounds
        descriptors = rng.uniform(-15, 15, (200, dims))
        expected = np.array(
            [reference_cell_index(d, lower, upper, resolution) for d in descriptors]
        )
        got_scalar = np.array([cell_index(d, spec) for d in descriptors])
        got_batch = cell_indices(descriptors, spec)
        np.testing.assert_array_equal(got_scalar, expected)
        np.testing.assert_array_equal(got_batch, expected)


@pytest.mark.parametrize(
    "descriptor",
    [[1e20, 0.0], [-1e20, 0.0], [0.0, 1e20], [1e20, -1e20], [1e300, 1e300], [-1e300, 1e300],
     [0.3, -0.6], [-0.9, 0.99]],
    ids=lambda d: f"{d[0]:g},{d[1]:g}",
)
def test_cell_indices_clamps_huge_finite_descriptors(spec, descriptor):
    """Far outside the grid, the batch binning lands in the boundary cell
    the scalar one gives, without an int64 overflow on the way."""
    batch = cell_indices(np.array([descriptor]), spec)
    assert batch.tolist() == [cell_index(np.array(descriptor), spec)]


@pytest.mark.parametrize(
    "descriptor, cell",
    [([1.7e308, 0.0], 3 * 4 + 2), ([-1.7e308, 0.0], 0 * 4 + 2), ([0.0, 1.7e308], 2 * 4 + 3),
     ([0.0, -1.7e308], 2 * 4 + 0), ([1.7e308, -1.7e308], 3 * 4 + 0)],
    ids=lambda d: f"{d[0]:g},{d[1]:g}" if isinstance(d, list) else str(d),
)
def test_descriptors_near_the_float_maximum_bin_to_the_edge(spec, descriptor, cell):
    """Where ``(d - lower) / width`` would overflow, both binnings still
    give the boundary cell, without an error or a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cell_index(np.array(descriptor), spec) == cell
        assert cell_indices(np.array([descriptor]), spec).tolist() == [cell]


@pytest.mark.parametrize("bound, resolution, cell", [(3.0, 12, 6 * 12 + 11), (256.0, 100, 50 * 100 + 99)])
def test_the_float_just_below_the_upper_bound_bins_into_the_last_cell(bound, resolution, cell):
    """On these grids ``(x - lower) / width`` rounds up to ``resolution``
    for the largest float below ``upper``; both binnings still give the
    last cell of that axis."""
    spec = GridSpec(np.full(2, -bound), np.full(2, bound), np.full(2, resolution))
    descriptor = np.array([0.0, np.nextafter(bound, -np.inf)])
    assert cell_index(descriptor, spec) == cell_indices(descriptor[None], spec)[0] == cell


@settings(max_examples=300, deadline=None)
@given(
    axes=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.integers(1, 1000)), min_size=1, max_size=3
    )
)
def test_descriptors_just_below_the_upper_bounds_bin_inside_the_grid(axes):
    lower, span, resolution = (np.array(column) for column in zip(*axes))
    spec = GridSpec(lower, lower + span, resolution)
    descriptor = np.nextafter(spec.upper, -np.inf)
    flat = cell_index(descriptor, spec)
    assert flat == cell_indices(descriptor[None], spec)[0]
    assert flat == reference_cell_index(descriptor, spec.lower, spec.upper, spec.resolution)
    assert 0 <= flat < spec.total_cells


def test_cell_index_rejects_non_finite(spec):
    with pytest.raises(ValueError):
        cell_index(np.array([np.nan, 0.0]), spec)
    with pytest.raises(ValueError):
        cell_indices(np.array([[0.0, np.inf]]), spec)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(np.array([0.0]), np.array([0.0]), np.array([4]))
    with pytest.raises(ValueError):
        GridSpec(np.array([0.0, 0.0]), np.array([1.0]), np.array([4]))
    with pytest.raises(ValueError):
        GridSpec(np.array([0.0]), np.array([1.0]), np.array([0]))


@pytest.mark.parametrize(
    "lower, upper",
    [([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf]), ([-np.inf, 0.0], [1.0, 1.0])],
    ids=["nan", "inf", "-inf"],
)
def test_a_grid_with_a_non_finite_bound_is_rejected(lower, upper):
    with pytest.raises(ValueError, match="grid bounds must be finite"):
        GridSpec(np.array(lower), np.array(upper), np.array([4, 4]))


@pytest.mark.parametrize("descriptor", [np.zeros(3), np.zeros(1), np.zeros((1, 2))], ids=["3", "1", "1x2"])
def test_cell_index_rejects_a_descriptor_of_another_shape(spec, descriptor):
    with pytest.raises(ValueError, match=re.escape(f"descriptor has shape {descriptor.shape}, expected (2,)")):
        cell_index(descriptor, spec)


@pytest.mark.parametrize("descriptors", [np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2)], ids=["4x3", "4x1", "2"])
def test_cell_indices_rejects_a_batch_of_another_shape(spec, descriptors):
    with pytest.raises(ValueError, match=r"descriptor batch has shape .*, expected \(m, 2\)"):
        cell_indices(descriptors, spec)


@pytest.mark.parametrize(
    "lower, upper, resolution",
    [([-1e308], [1e308], [4]), ([0.0], [5e-324], [10])],
    ids=["width-overflows-to-inf", "width-underflows-to-0"],
)
def test_a_grid_without_positive_finite_cell_widths_is_rejected(lower, upper, resolution):
    """Finite bounds can still give a width of inf (their difference
    overflows) or 0 (the width underflows), with which binning would return
    int64's minimum or divide by zero; such a grid is refused when built."""
    with pytest.raises(ValueError, match="widths"):
        GridSpec(np.array(lower), np.array(upper), np.array(resolution))


def test_cell_count_is_exact_up_to_the_largest_sizable_grid():
    """Cells are counted with Python ints, so a product that would wrap in
    int64 cannot slip through; no grid here is ever allocated."""
    lower, upper = np.zeros(2), np.ones(2)
    assert MAX_CELLS == 2**60 - 1  # int64 entries of at most 2**63 - 1 bytes
    largest = GridSpec(lower, upper, np.array([2**30 - 1, 2**30 + 1]))
    assert largest.total_cells == 2**60 - 1 and isinstance(largest.total_cells, int)
    for resolution in ([2**30, 2**30], [2**32, 2**32], [3037000500, 3037000500]):
        with pytest.raises(ValueError, match="cells"):
            GridSpec(lower, upper, np.array(resolution))


def test_a_grid_keeps_its_own_bounds_when_the_caller_edits_theirs():
    """A grid copies its inputs, so editing the arrays it was built from
    moves neither binning rule: ``cell_index`` (per-axis scalars fixed at
    construction) and ``cell_indices`` (the arrays) agree."""
    lower, upper, resolution = np.full(2, -5.12), np.full(2, 5.12), np.array([10, 10])
    grid = GridSpec(lower, upper, resolution)
    lower[0], upper[0], resolution[0] = -1.0, 3.0, 2
    assert (grid.lower.tolist(), grid.upper.tolist(), grid.resolution.tolist()) == (
        [-5.12, -5.12], [5.12, 5.12], [10, 10]
    )
    descriptor = np.array([0.3, -2.0])
    assert cell_index(descriptor, grid) == cell_indices(descriptor[None], grid)[0] == 53


@pytest.mark.parametrize("resolution", [[3.7], [3.0], [2**63], [2**64], [True]])
def test_a_resolution_that_is_not_an_int64_integer_is_refused(resolution):
    """A float resolution used to be truncated (``[3.7]`` made 3 cells)."""
    with pytest.raises(ValueError, match="^resolution must be integers"):
        GridSpec([0.0], [1.0], resolution)


@pytest.mark.parametrize("resolution", [[3], [np.int64(3)], np.array([3], dtype=np.uint8)])
def test_a_resolution_of_python_or_numpy_integers_is_taken(resolution):
    grid = GridSpec([0.0], [1.0], resolution)
    assert grid.total_cells == 3 and grid.resolution.dtype == np.int64


@pytest.mark.parametrize("name", ["lower", "upper", "resolution", "widths"])
def test_a_grids_arrays_are_read_only(spec, name):
    with pytest.raises(ValueError, match="read-only"):
        getattr(spec, name)[0] = 0


def test_grids_and_elites_compare_and_hash_by_identity(spec):
    """The arrays they hold have no truth value, so a generated ``==``
    could only raise; identity gives a bool, and a hash."""
    twin = GridSpec(spec.lower, spec.upper, spec.resolution)
    assert (spec == twin, spec == spec) == (False, True)
    assert hash(spec) != hash(twin)
    elite = Elite(np.zeros(3), np.zeros(2), 1.0, 0.5)
    assert (elite == Elite(np.zeros(3), np.zeros(2), 1.0, 0.5), elite == elite) == (False, True)


def test_a_pickled_grid_is_read_only_and_bins_the_same(spec):
    """Unpickling builds the grid again, through its checks, both alone and
    inside an archive."""
    descriptors = np.random.default_rng(4).uniform(-1.5, 1.5, (200, 2))
    for copy in (pickle.loads(pickle.dumps(spec)), pickle.loads(pickle.dumps(Archive(spec))).spec):
        assert copy is not spec
        for name in ("lower", "upper", "resolution", "widths"):
            assert not getattr(copy, name).flags.writeable
            assert getattr(copy, name).tolist() == getattr(spec, name).tolist()
        assert (copy.total_cells, copy.dims, copy._axes) == (spec.total_cells, spec.dims, spec._axes)
        assert cell_indices(descriptors, copy).tolist() == cell_indices(descriptors, spec).tolist()


class TestAddAttempt:
    def test_new_cell(self, spec):
        archive = Archive(spec)
        rng = np.random.default_rng(0)
        result = archive.add_attempt(make_elite(rng, bd=[0.1, 0.1], fn=0.4))
        assert result.status is AddStatus.NEW
        assert result.improvement == 0.4
        assert len(archive) == 1

    def test_improvement_replaces_and_reports_delta(self, spec):
        archive = Archive(spec)
        rng = np.random.default_rng(0)
        archive.add_attempt(make_elite(rng, bd=[0.1, 0.1], fn=0.4))
        result = archive.add_attempt(make_elite(rng, bd=[0.12, 0.08], fn=0.9))
        assert result.status is AddStatus.IMPROVED
        assert result.improvement == pytest.approx(0.5)
        assert len(archive) == 1
        assert archive.best_fitness == 0.9

    def test_worse_and_tied_are_rejected(self, spec):
        archive = Archive(spec)
        rng = np.random.default_rng(0)
        incumbent = make_elite(rng, bd=[0.1, 0.1], fn=0.4)
        archive.add_attempt(incumbent)
        for fn in (0.1, 0.4):  # ties keep the incumbent
            result = archive.add_attempt(make_elite(rng, bd=[0.1, 0.1], fn=fn))
            assert result.status is AddStatus.REJECTED
            assert result.improvement == 0.0
        ((_, held),) = archive
        assert_same_elite(held, incumbent)

    def test_fitness_norm_out_of_range_rejected(self, spec):
        archive = Archive(spec)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            archive.add_attempt(make_elite(rng, fn=1.5))
        with pytest.raises(ValueError):
            archive.add_attempt(make_elite(rng, fn=-0.1))

    def test_nan_raw_fitness_rejected(self, spec):
        """A stored NaN would freeze its cell: no raw compares above it."""
        archive = Archive(spec)
        nan = Elite(np.zeros(3), np.array([0.1, 0.1]), fitness_raw=np.nan, fitness_norm=0.5)
        with pytest.raises(ValueError, match="NaN"):
            archive.add_attempt(nan)
        assert len(archive) == 0
        later = Elite(np.ones(3), np.array([0.1, 0.1]), fitness_raw=5.0, fitness_norm=0.5)
        assert archive.add_attempt(later).status is AddStatus.NEW

    def test_a_first_genotype_of_two_axes_leaves_the_archive_empty(self, spec):
        """The shape is checked before a row is claimed, so no cell is
        left holding uninitialised memory."""
        archive = Archive(spec)
        matrix = Elite(np.zeros((1, 3)), np.array([0.1, 0.1]), fitness_raw=1.0, fitness_norm=0.5)
        with pytest.raises(ValueError, match=r"genotype has shape \(1, 3\), expected one axis"):
            archive.add_attempt(matrix)
        assert len(archive) == 0 and list(archive) == []
        with pytest.raises(EmptyArchiveError):
            archive.random_elite(np.random.default_rng(0))
        later = Elite(np.ones(2), np.array([0.1, 0.1]), fitness_raw=1.0, fitness_norm=0.5)
        assert archive.add_attempt(later).status is AddStatus.NEW
        ((_, held),) = archive
        assert_same_elite(held, later)

    @pytest.mark.parametrize(
        "descriptor, raw",
        [([0.1, 0.1], 5.0), ([0.1, 0.1], 0.5), ([-0.9, 0.9], 5.0)],
        ids=["better", "worse", "new-cell"],
    )
    def test_a_genotype_of_another_length_leaves_the_archive_unchanged(self, spec, descriptor, raw):
        """A short genotype raises whatever the competition would decide,
        rather than being broadcast into the incumbent's row."""
        archive = Archive(spec)
        incumbent = Elite(np.arange(3.0), np.array([0.1, 0.1]), fitness_raw=1.0, fitness_norm=0.5)
        archive.add_attempt(incumbent)
        short = Elite(np.array([5.0]), np.array(descriptor), fitness_raw=raw, fitness_norm=1.0)
        with pytest.raises(ValueError, match="genotype has 1 components, the archive holds 3"):
            archive.add_attempt(short)
        assert len(archive) == 1
        ((_, held),) = archive
        assert_same_elite(held, incumbent)
        assert archive.best_fitness == 0.5
        better = Elite(np.ones(3), np.array([0.1, 0.1]), fitness_raw=2.0, fitness_norm=0.75)
        assert archive.add_attempt(better) == AddResult(AddStatus.IMPROVED, 0.25)


def make_saturating_elite(rng, bd):
    # raw spans [-15, 5] but the normalized scale only resolves [-5, 5],
    # so roughly half the candidates clamp to fn = 0 with distinct raws
    raw = float(rng.uniform(-15.0, 5.0))
    fn = min(max((raw + 5.0) / 10.0, 0.0), 1.0)
    return Elite(rng.uniform(-1.0, 1.0, 3), np.asarray(bd), fitness_raw=raw, fitness_norm=fn)


def test_archive_matches_bruteforce_map():
    """Stream random insertions into the archive and into a plain dict that
    re-implements the competition rule (keep the max raw fitness per cell);
    final contents must agree, including in the saturated-norm regime."""
    rng = np.random.default_rng(42)
    lower, upper = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    resolution = np.array([8, 8])
    spec = GridSpec(lower, upper, resolution)
    archive = Archive(spec)
    reference: dict[int, Elite] = {}
    offered = []
    for _ in range(5000):
        elite = make_saturating_elite(rng, bd=rng.uniform(-2.5, 2.5, 2))
        offered.append(elite)
        archive.add_attempt(elite)
        cell = reference_cell_index(elite.descriptor, lower, upper, resolution)
        held = reference.get(cell)
        if held is None or elite.fitness_raw > held.fitness_raw:
            reference[cell] = elite
    assert_distinct_genotypes(offered)
    assert len(archive) == len(reference)
    for cell, elite in archive:
        assert_same_elite(elite, reference[cell])


def test_saturated_cells_still_compete_on_raw_fitness(spec):
    archive = Archive(spec)
    first = Elite(np.zeros(3), np.array([0.1, 0.1]), fitness_raw=-120.0, fitness_norm=0.0)
    better = Elite(np.ones(3), np.array([0.1, 0.1]), fitness_raw=-40.0, fitness_norm=0.0)
    worse = Elite(np.full(3, 2.0), np.array([0.1, 0.1]), fitness_raw=-80.0, fitness_norm=0.0)
    assert archive.add_attempt(first).status is AddStatus.NEW
    result = archive.add_attempt(better)
    assert result.status is AddStatus.IMPROVED
    assert result.improvement == 0.0  # normalized scale is saturated here
    assert archive.add_attempt(worse).status is AddStatus.REJECTED
    ((_, held),) = archive
    assert_same_elite(held, better)


def test_iteration_is_ascending_and_insertion_order_free(spec):
    rng = np.random.default_rng(3)
    elites = [make_elite(rng, bd=bd) for bd in rng.uniform(-1, 1, (30, 2))]
    forward, backward = Archive(spec), Archive(spec)
    for e in elites:
        forward.add_attempt(e)
    for e in reversed(elites):
        backward.add_attempt(e)
    cells_fwd = [c for c, _ in forward]
    assert cells_fwd == sorted(cells_fwd)
    assert cells_fwd == [c for c, _ in backward]
    # same RNG state => same sampling sequence regardless of insertion order
    draws_fwd = [forward.random_elite(np.random.default_rng(9)).fitness_norm for _ in range(5)]
    draws_bwd = [backward.random_elite(np.random.default_rng(9)).fitness_norm for _ in range(5)]
    assert draws_fwd == draws_bwd


def test_random_elite_is_uniform_over_cells(spec):
    rng = np.random.default_rng(11)
    archive = Archive(spec)
    # occupy 10 distinct cells
    for i in range(4):
        for j in range(3):
            if len(archive) < 10:
                bd = [-1 + 0.25 + i * 0.5, -1 + 0.25 + j * 0.5]
                archive.add_attempt(make_elite(rng, bd=bd))
    assert len(archive) == 10
    listed = [e for _, e in archive]
    assert_distinct_genotypes(listed)
    draws = 20000
    counts = np.zeros(10)
    ranked = {bits(elite.genotype): r for r, elite in enumerate(listed)}
    for _ in range(draws):
        drawn = archive.random_elite(rng)
        rank = ranked[bits(drawn.genotype)]
        assert_same_elite(drawn, listed[rank])
        counts[rank] += 1
    expected = draws / 10
    sigma = np.sqrt(draws * 0.1 * 0.9)
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_empty_archive_raises(spec):
    archive = Archive(spec)
    with pytest.raises(EmptyArchiveError):
        archive.random_elite(np.random.default_rng(0))
    with pytest.raises(EmptyArchiveError):
        _ = archive.best_fitness


def test_csv_round_trip(tmp_path, spec):
    rng = np.random.default_rng(5)
    archive = Archive(spec)
    for _ in range(25):
        archive.add_attempt(make_elite(rng, dim=4))
    path = tmp_path / "archive.csv"
    archive.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "cell_index,bd_0,bd_1,fitness_raw,fitness_norm,g_0,g_1,g_2,g_3"

    loaded = Archive.read_csv(path, spec)
    assert len(loaded) == len(archive)
    for (cell_a, a), (cell_b, b) in zip(archive, loaded):
        assert cell_a == cell_b
        np.testing.assert_array_equal(a.genotype, b.genotype)
        np.testing.assert_array_equal(a.descriptor, b.descriptor)
        assert a.fitness_raw == b.fitness_raw
        assert a.fitness_norm == b.fitness_norm

    # writing the loaded archive again must be byte-identical
    path2 = tmp_path / "again.csv"
    loaded.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


ODD_FLOATS = (-0.0, 5e-324, 1e300, 1.0 / 3.0, 7.0, -2.0, 0.0)


def reference_archive_csv(archive):
    """The archive dump as ``csv.writer`` writes it, from the public reads."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    first = next(iter(archive))[1]
    writer.writerow(
        ["cell_index"]
        + [f"bd_{k}" for k in range(len(first.descriptor))]
        + ["fitness_raw", "fitness_norm"]
        + [f"g_{k}" for k in range(len(first.genotype))]
    )
    for cell, elite in archive:
        writer.writerow(
            [cell]
            + elite.descriptor.tolist()
            + [elite.fitness_raw, elite.fitness_norm]
            + elite.genotype.tolist()
        )
    return out.getvalue().encode()


@pytest.mark.parametrize("dims", [1, 2])
def test_write_csv_matches_csv_writer_byte_for_byte(tmp_path, dims):
    """Odd floats in every column: signed zero, the smallest subnormal, a
    huge value, a repeating fraction and integral values; rows come in
    through both insertion paths."""
    spec = GridSpec(np.full(dims, -1.0), np.full(dims, 1.0), np.full(dims, 5))
    archive = Archive(spec)
    odd = np.array(ODD_FLOATS)
    norms = [-0.0, 5e-324, 1.0 / 3.0, 1.0, 0.0, 0.5, 1.0]
    for i, norm in enumerate(norms):
        descriptor = np.roll(odd, i)[:dims]
        genotype = np.roll(odd, 2 * i)
        elite = Elite(genotype, descriptor, fitness_raw=float(np.roll(odd, 3 * i)[0]), fitness_norm=norm)
        if i % 2:
            archive.insert_batch(
                [cell_index(descriptor, spec)], genotype[None], descriptor[None],
                [elite.fitness_raw], [norm],
            )
        else:
            archive.add_attempt(elite)
    assert len(archive) >= 4
    path = tmp_path / "archive.csv"
    archive.write_csv(path)
    expected = reference_archive_csv(archive)
    assert path.read_bytes() == expected
    for token in ("-0.0", "5e-324", "1e+300", "0.3333333333333333", "7.0"):
        assert token.encode() in expected


def test_read_csv_rejects_a_grid_of_other_dimension(tmp_path, spec):
    """The row bins to its own cell on both grids (6 of the 4x4 grid, 6 of
    a 20-cell 1-D grid), so only the header can tell them apart."""
    archive = Archive(spec)
    archive.add_attempt(make_elite(np.random.default_rng(0), bd=[-0.35, 0.2]))
    path = tmp_path / "archive.csv"
    archive.write_csv(path)
    line = GridSpec(np.array([-1.0]), np.array([1.0]), np.array([20]))
    assert cell_index(np.array([-0.35]), line) == cell_index(np.array([-0.35, 0.2]), spec)
    with pytest.raises(ValueError, match="header"):
        Archive.read_csv(path, line)


def test_read_csv_rejects_a_short_row(tmp_path, spec):
    archive = Archive(spec)
    rng = np.random.default_rng(1)
    for _ in range(3):
        archive.add_attempt(make_elite(rng))
    path = tmp_path / "archive.csv"
    archive.write_csv(path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3 .* 3 fields, expected 8"):
        Archive.read_csv(path, spec)


@pytest.mark.parametrize(
    "column, value, tail",
    [
        ("cell_index", "12.0", "'12.0'"),
        ("bd_1", "north", "'north'"),
        ("fitness_raw", "", "''"),
        ("g_2", "1,5", "'1,5'"),
        ("fitness_norm", "1.5", "fitness_norm must be in [0, 1], got 1.5"),
        ("fitness_raw", "nan", "fitness_raw is NaN"),
    ],
    ids=["cell_index-12.0", "bd_1-north", "fitness_raw-", "g_2-1,5", "fitness_norm-1.5", "fitness_raw-nan"],
)
def test_read_csv_names_the_file_and_line_of_a_field_that_does_not_parse(tmp_path, spec, column, value, tail):
    """A cell index of ``12.0`` used to raise int()'s bare ``invalid
    literal for int() with base 10: '12.0'``, and a row that
    :meth:`Archive.add_attempt` refuses raised its bare message."""
    archive = Archive(spec)
    rng = np.random.default_rng(1)
    for _ in range(3):
        archive.add_attempt(make_elite(rng))
    path = tmp_path / "archive.csv"
    archive.write_csv(path)
    rows = list(csv.reader(io.StringIO(path.read_text())))
    rows[2][rows[0].index(column)] = value
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    with pytest.raises(ValueError, match=f"^line 3 of {re.escape(str(path))}: .*{re.escape(tail)}$"):
        Archive.read_csv(path, spec)


def test_read_csv_rejects_a_row_that_bins_to_another_cell(tmp_path, spec):
    archive = Archive(spec)
    archive.add_attempt(make_elite(np.random.default_rng(0), bd=[-0.35, 0.2]))
    path = tmp_path / "archive.csv"
    archive.write_csv(path)
    header, row = path.read_text().splitlines()
    assert row.startswith("6,")
    path.write_text(f"{header}\n7{row[1:]}\n")
    message = f"^line 2 of {re.escape(str(path))}: row for cell 7 does not bin to its own cell"
    with pytest.raises(ValueError, match=message):
        Archive.read_csv(path, spec)


@pytest.mark.parametrize(
    "field, value, match",
    [("fitness_norm", "1.5", r"fitness_norm must be in \[0, 1\]"),
     ("fitness_norm", "-0.25", r"fitness_norm must be in \[0, 1\]"),
     ("fitness_raw", "nan", "NaN")],
    ids=["norm-above-1", "norm-below-0", "raw-nan"],
)
def test_read_csv_rejects_an_invalid_fitness(tmp_path, spec, field, value, match):
    """A row is checked like an :meth:`Archive.add_attempt` argument, so
    a bad fitness fails at load time instead of in a later snapshot."""
    archive = Archive(spec)
    rng = np.random.default_rng(2)
    for _ in range(3):
        archive.add_attempt(make_elite(rng))
    path = tmp_path / "archive.csv"
    archive.write_csv(path)
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index(field)
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=match):
        Archive.read_csv(path, spec)


# ---------------------------------------------------------------------------
# row storage


class RowWatch(Archive):
    """An archive that records its row buffers, and whether the rows in
    use are exactly ``0..len-1``, after every claim of rows."""

    def __init__(self, spec):
        super().__init__(spec)
        self.seen = []
        self.prefix = []

    def rows_in_use_are_a_prefix(self):
        return np.array_equal(np.sort(self._row[self._row >= 0]), np.arange(len(self)))

    def _claim_rows(self, cells, genotype_dim):
        rows = super()._claim_rows(cells, genotype_dim)
        self.seen.append((self._genotypes, self._descriptors))
        self.prefix.append(self.rows_in_use_are_a_prefix())
        return rows


def cell_centres(spec):
    """One descriptor per cell of a 2-D grid, in ascending cell order."""
    i, j = np.divmod(np.arange(spec.total_cells), spec.resolution[1])
    return spec.lower + (np.stack([i, j], axis=1) + 0.5) * spec.widths


@pytest.mark.parametrize("path", ["insert_batch", "add_attempt", "read_csv"])
def test_row_buffers_never_move_until_the_grid_is_full(tmp_path, path):
    """The first insertion reserves one row per cell; filling every cell,
    on any insertion path, keeps the same buffers, and the rows in use
    stay the prefix ``0..len-1`` (see the ``Archive`` docstring for why
    rows are not indexed by cell)."""
    spec = GridSpec(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([8, 8]))
    rng = np.random.default_rng(8)
    centres = cell_centres(spec)[rng.permutation(spec.total_cells)]
    genotypes = rng.uniform(-1.0, 1.0, (spec.total_cells, 3))
    archive = RowWatch(spec)
    if path == "insert_batch":
        for start in range(0, spec.total_cells, 5):
            chunk = slice(start, start + 5)
            archive.insert_batch(
                cell_indices(centres[chunk], spec), genotypes[chunk], centres[chunk],
                np.zeros(len(genotypes[chunk])), np.zeros(len(genotypes[chunk])),
            )
    else:
        for genotype, centre in zip(genotypes, centres):
            archive.add_attempt(Elite(genotype, centre, 0.0, 0.5))
        if path == "read_csv":
            archive.write_csv(tmp_path / "archive.csv")
            archive = RowWatch.read_csv(tmp_path / "archive.csv", spec)
    assert len(archive) == spec.total_cells
    assert len(archive.seen) >= spec.total_cells // 5
    first = archive.seen[0]
    assert len(first[0]) == len(first[1]) == spec.total_cells
    for buffers in archive.seen:
        assert all(a is b for a, b in zip(buffers, first))
    assert all(archive.prefix) and archive.rows_in_use_are_a_prefix()


# ---------------------------------------------------------------------------
# insert_batch against sequential offers

TIED_RAWS = (-20.0, -5.0, -1.0, 0.0, 2.5, 5.0, 12.0)
raw_fitness = st.one_of(
    st.sampled_from(TIED_RAWS), st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)
)
candidate = st.tuples(st.integers(0, 5), raw_fitness)  # few cells: repeats are common


def saturating_norm(raw):
    # [-5, 5] maps onto [0, 1]; raws outside it saturate at 0 or 1
    return min(max((raw + 5.0) / 10.0, 0.0), 1.0)


def candidate_rows(batch, tag):
    genotypes = np.array([[tag, i, raw] for i, (_, raw) in enumerate(batch)], dtype=float)
    descriptors = np.array([[i, -float(tag)] for i in range(len(batch))], dtype=float)
    return genotypes, descriptors


def reference_offer(reference, cell, elite):
    """The competition rule on a plain dict ``cell -> Elite``: returns the
    ``(status, improvement)`` of offering ``elite`` to ``cell``."""
    held = reference.get(cell)
    if held is None:
        reference[cell] = elite
        return AddStatus.NEW, elite.fitness_norm
    if elite.fitness_raw > held.fitness_raw:
        reference[cell] = elite
        return AddStatus.IMPROVED, elite.fitness_norm - held.fitness_norm
    return AddStatus.REJECTED, 0.0


def assert_same_contents(a, b):
    assert len(a) == len(b)
    for (cell_a, ea), (cell_b, eb) in zip(a, b):
        assert cell_a == cell_b
        assert_same_elite(ea, eb)


@settings(max_examples=400, deadline=None)
@given(
    preload=st.lists(candidate, max_size=6),
    batch=st.lists(candidate, min_size=1, max_size=25),
)
@example(preload=[], batch=[(3, 1.0)])
@example(preload=[(3, 1.0)], batch=[(3, 1.0)])
@example(preload=[(0, -9.0)], batch=[(0, -7.0), (0, -7.0), (0, -6.0), (1, 8.0), (1, 9.0)])
def test_insert_batch_matches_sequential_offers(preload, batch):
    """One batch insertion equals offering its candidates one at a time to
    a dict reference, on top of elites that came in through add_attempt."""
    spec = GridSpec(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([4, 4]))
    batched, reference = Archive(spec), {}
    genotypes, _ = candidate_rows(preload, tag=-1)
    centres = cell_centres(spec)
    for i, (cell, raw) in enumerate(preload):
        elite = Elite(genotypes[i], centres[cell], raw, saturating_norm(raw))
        assert batched.add_attempt(elite).status == reference_offer(reference, cell, elite)[0]

    genotypes, descriptors = candidate_rows(batch, tag=1)
    cells = [cell for cell, _ in batch]
    raws = [raw for _, raw in batch]
    norms = [saturating_norm(raw) for raw in raws]
    expected = [
        reference_offer(reference, cells[i], Elite(genotypes[i], descriptors[i], raws[i], norms[i]))
        for i in range(len(batch))
    ]
    status, improvement = batched.insert_batch(cells, genotypes, descriptors, raws, norms)

    assert status.tolist() == [s for s, _ in expected]
    assert bits(improvement) == bits([imp for _, imp in expected])
    in_cell_order = sorted(reference.items())
    assert_same_contents(in_cell_order, batched)
    np.testing.assert_array_equal(
        batched.genotype_matrix(), np.stack([e.genotype for _, e in in_cell_order])
    )


def test_both_insertion_paths_copy(spec):
    """The archive holds its own copy of what either path offers, and each
    read is a fresh copy of its own."""
    archive = Archive(spec)
    offered = Elite(np.zeros(3), np.array([-0.9, -0.9]), fitness_raw=1.0, fitness_norm=0.6)
    archive.add_attempt(offered)
    genotypes = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    status, _ = archive.insert_batch(
        [5, 0], genotypes, np.array([[-0.4, -0.4], [-0.9, -0.9]]), [0.5, 0.5], [0.55, 0.55]
    )
    assert status.tolist() == [AddStatus.NEW, AddStatus.REJECTED]
    kept = [e for _, e in archive][0]
    assert kept is not offered and kept.genotype is not offered.genotype
    assert_same_elite(kept, offered)
    offered.genotype[:] = -1.0
    genotypes[:] = -1.0
    for cell in (0, 1):
        copy_a, copy_b = [e for _, e in archive][cell], [e for _, e in archive][cell]
        assert copy_a is not copy_b and copy_a.genotype is not copy_b.genotype
    (_, first), (_, second) = archive
    np.testing.assert_array_equal(first.genotype, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(second.genotype, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(
        archive.genotypes_at_ranks(np.array([[1, 0]])), [[[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]]
    )


def test_mutating_an_elite_outside_the_archive_changes_nothing_inside(tmp_path, spec):
    """Neither the elite handed to ``add_attempt`` nor one read back is
    the stored elite: after both are mutated, every read, the CSV dump and
    the next competition see the values the archive stored."""
    handed = Elite(np.zeros(3), np.array([-0.9, -0.9]), fitness_raw=1.0, fitness_norm=0.6)
    batch = (np.array([[1.0, 2.0, 3.0]]), np.array([[0.4, 0.4]]), [0.5], [0.55])
    archive, expected = Archive(spec), Archive(spec)
    twin = Elite(handed.genotype.copy(), handed.descriptor.copy(), 1.0, 0.6)
    for target, elite in ((archive, handed), (expected, twin)):
        target.add_attempt(elite)
        target.insert_batch(cell_indices(batch[1], spec), *batch)
    handed.genotype[:] = 7.0
    handed.descriptor[:] = 0.9
    handed.fitness_raw, handed.fitness_norm = 5.0, 1.0
    read = [e for _, e in archive][1]
    read.genotype[:] = 8.0
    read.descriptor[:] = -0.9
    read.fitness_raw, read.fitness_norm = 6.0, 1.0

    assert_same_contents(archive, expected)
    for seed in range(4):
        assert_same_elite(
            archive.random_elite(np.random.default_rng(seed)),
            expected.random_elite(np.random.default_rng(seed)),
        )
    np.testing.assert_array_equal(archive.genotypes_at_ranks(np.arange(2)), [[0.0] * 3, [1.0, 2.0, 3.0]])
    archive.write_csv(tmp_path / "archive.csv")
    expected.write_csv(tmp_path / "expected.csv")
    assert (tmp_path / "archive.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    # the stored raws are 1.0 and 0.5, not the mutated 5.0 and 6.0
    later = Elite(np.ones(3), np.array([-0.9, -0.9]), fitness_raw=2.0, fitness_norm=0.7)
    assert archive.add_attempt(later) == AddResult(AddStatus.IMPROVED, 0.7 - 0.6)
    status, improvement = archive.insert_batch(
        cell_indices(batch[1], spec), np.ones((1, 3)), batch[1], [0.75], [0.6]
    )
    assert status.tolist() == [AddStatus.IMPROVED] and improvement.tolist() == [0.6 - 0.55]


@pytest.mark.parametrize("short", range(4), ids=["genotypes", "descriptors", "raw", "norm"])
def test_insert_batch_rejects_arrays_of_unequal_length(spec, short):
    args = [np.ones((2, 3)), np.zeros((2, 2)), [1.0, 2.0], [0.5, 0.6]]
    args[short] = args[short][:1]
    archive = Archive(spec)
    with pytest.raises(ValueError, match="insert_batch arguments must have one entry per candidate"):
        archive.insert_batch([0, 5], *args)
    assert len(archive) == 0


def test_insert_batch_rejects_nan_fitness(spec):
    with pytest.raises(ValueError):
        Archive(spec).insert_batch([0], np.zeros((1, 3)), np.zeros((1, 2)), [np.nan], [0.0])


def preloaded_archive(spec, preload):
    archive = Archive(spec)
    if preload:
        archive.insert_batch([1], np.ones((1, 3)), [[-0.4, -0.9]], [2.0], [0.75])
    return archive


@pytest.mark.parametrize(
    "cell, message",
    [(-1, r"cells must lie in \[0, 16\)"), (16, r"cells must lie in \[0, 16\)"),
     (12.7, "cells must be integers, got dtype float64$")],
    ids=["negative", "past-the-last", "fractional"],
)
@pytest.mark.parametrize("preload", [False, True], ids=["empty", "preloaded"])
def test_insert_batch_refuses_a_cell_outside_the_grid_before_any_change(
    tmp_path, spec, cell, message, preload
):
    """``insert_batch([-1], ...)`` used to file the candidate under the
    last cell, whatever its descriptor binned to, and
    ``insert_batch([12.7], ...)`` under cell 12."""
    archive = preloaded_archive(spec, preload)
    before = archive_reads(archive, tmp_path / "before.csv")
    descriptors = np.array([[0.1, 0.1], [-0.9, 0.9]])
    cells = [int(cell_indices(descriptors[:1], spec)[0]), cell]
    with pytest.raises(ValueError, match=f"^{message}"):
        archive.insert_batch(cells, np.zeros((2, 3)), descriptors, [1.0, 1.0], [0.5, 0.5])
    assert archive_reads(archive, tmp_path / "after.csv") == before


def test_an_empty_batch_is_taken_though_numpy_types_its_cells_float(spec):
    archive = preloaded_archive(spec, preload=True)
    assert np.asarray([]).dtype == np.float64
    status, improvement = archive.insert_batch([], np.zeros((0, 3)), np.zeros((0, 2)), [], [])
    assert (status.dtype, status.shape, improvement.shape) == (np.int8, (0,), (0,))
    assert len(archive) == 1


@pytest.mark.parametrize("norm", [2.0, -0.5, np.nan], ids=["above-1", "below-0", "nan"])
@pytest.mark.parametrize("preload", [False, True], ids=["empty", "preloaded"])
def test_insert_batch_refuses_a_norm_outside_0_1_before_any_change(tmp_path, spec, norm, preload):
    """A norm of 2.0 used to be stored and reported as an improvement of
    2.0, and a NaN norm as an improvement of NaN."""
    archive = preloaded_archive(spec, preload)
    before = archive_reads(archive, tmp_path / "before.csv")
    descriptors = np.array([[0.1, 0.1], [-0.4, -0.9]])
    with pytest.raises(ValueError, match=r"^fitness_norm must lie in \[0, 1\]"):
        archive.insert_batch(
            cell_indices(descriptors, spec), np.zeros((2, 3)), descriptors, [1.0, 3.0], [0.5, norm]
        )
    assert archive_reads(archive, tmp_path / "after.csv") == before


def archive_reads(archive, path):
    """Everything an archive lets a caller read, ``write_csv``'s bytes included."""
    archive.write_csv(path)
    elites = [(cell, bits(e.genotype), bits(e.descriptor), e.fitness_raw, e.fitness_norm)
              for cell, e in archive]
    return (len(archive), elites, bits(archive.fitness_norms()),
            bits(archive.genotype_matrix()), path.read_bytes())


@pytest.mark.parametrize("width", [0, 1, 3])
@pytest.mark.parametrize("preload", [False, True], ids=["empty", "preloaded"])
def test_insert_batch_rejects_descriptors_of_another_width_before_any_change(
    tmp_path, spec, width, preload
):
    """The width is checked before a row is claimed, so no cell is left
    holding an uninitialised descriptor."""
    archive = Archive(spec)
    if preload:
        archive.insert_batch([1], np.ones((1, 3)), [[-0.4, -0.9]], [2.0], [0.75])
    before = archive_reads(archive, tmp_path / "before.csv")
    with pytest.raises(ValueError, match="descriptors have shape"):
        archive.insert_batch([5], np.zeros((1, 3)), np.zeros((1, width)), [1.0], [0.5])
    with pytest.raises(ValueError, match="descriptors have shape"):
        archive.insert_batch([5], np.zeros((1, 3)), np.zeros(1), [1.0], [0.5])
    assert archive_reads(archive, tmp_path / "after.csv") == before


PICKLE_SPEC = GridSpec(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([40, 40]))


def offer(target, seed):
    """Inserts 30 random candidates of genotype length 8 over ``PICKLE_SPEC``."""
    batch = np.random.default_rng(seed)
    genotypes, descriptors = batch.uniform(-1, 1, (30, 8)), batch.uniform(-1, 1, (30, 2))
    raws = batch.uniform(-5, 5, 30)
    norms = [saturating_norm(raw) for raw in raws]
    return target.insert_batch(cell_indices(descriptors, PICKLE_SPEC), genotypes, descriptors, raws, norms)


def test_pickle_keeps_contents_and_sends_only_the_rows_in_use():
    """An archive crosses processes by pickle (``engine.run_many``): the copy
    must hold the same elites and go on competing the same way, and the
    rows reserved for empty cells must not be sent."""
    rng = np.random.default_rng(3)
    archive = Archive(PICKLE_SPEC)
    assert len(pickle.loads(pickle.dumps(archive))) == 0
    archive.add_attempt(make_elite(rng, dim=8))
    offer(archive, 1)
    data = pickle.dumps(archive)
    assert len(data) < archive._genotypes.nbytes  # the reserved rows alone are larger
    copy = pickle.loads(data)
    assert_same_contents(copy, archive)
    copy_status, copy_improvement = offer(copy, 2)
    status, improvement = offer(archive, 2)
    assert copy_status.tolist() == status.tolist()
    assert bits(copy_improvement) == bits(improvement)
    assert_same_contents(copy, archive)


@pytest.mark.parametrize(
    "duplicate", [lambda archive: pickle.loads(pickle.dumps(archive)), deepcopy], ids=["pickle", "deepcopy"]
)
def test_a_copy_holds_only_the_rows_in_use_until_its_first_new_cell(tmp_path, duplicate):
    """An unpickled or deep-copied archive holds ``len(archive)`` rows, and
    every read touches only those, so it reads exactly like the original.
    Its first new cell reserves one row per cell, with the rows in use
    copied into the prefix; a replacement before that reserves nothing."""
    archive = Archive(PICKLE_SPEC)
    offer(archive, 1)
    twin = duplicate(archive)
    size = len(archive)
    assert len(twin._genotypes) == len(twin._descriptors) == size
    assert archive_reads(twin, tmp_path / "twin.csv") == archive_reads(archive, tmp_path / "archive.csv")
    for seed in range(5):
        assert_same_elite(twin.random_elite(np.random.default_rng(seed)),
                          archive.random_elite(np.random.default_rng(seed)))

    cell = int(archive._occupied()[0])
    descriptor = twin._descriptors[twin._row[cell]].copy()
    for target in (twin, archive):  # insert_batch claims rows for no cell here
        status, _ = target.insert_batch([cell], np.full((1, 8), 0.25), descriptor[None], [100.0], [1.0])
        assert status.tolist() == [AddStatus.IMPROVED]
    assert len(twin._genotypes) == size
    used = twin._genotypes.copy(), twin._descriptors.copy()

    empty = int(np.flatnonzero(archive._row < 0)[0])
    newcomer = Elite(np.full(8, -0.5), cell_centres(PICKLE_SPEC)[empty], 0.0, 0.5)
    for target in (twin, archive):
        assert target.add_attempt(newcomer).status == AddStatus.NEW
    assert len(twin._genotypes) == len(twin._descriptors) == PICKLE_SPEC.total_cells
    assert bits(twin._genotypes[:size]) == bits(used[0])
    assert bits(twin._descriptors[:size]) == bits(used[1])
    assert archive_reads(twin, tmp_path / "twin.csv") == archive_reads(archive, tmp_path / "archive.csv")

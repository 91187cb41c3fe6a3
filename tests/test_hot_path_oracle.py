"""The candidate path of a generation (clamp, evaluate, line operator,
insert) checked bit for bit against plain-expression oracles.

The oracles are the straightforward numpy forms of each step: the clamp
and an elementwise bound check, the fitness and descriptor expressions
written out with fresh temporaries (the fold under a divide mask), the
line operator on strided parent views, and the cell sort on int64 keys.
The library computes the same values with a min/max bound check, ``out=``
buffers, an unmasked fold and 16-bit sort keys; every output must match
in every bit, including the sign of zero, which ``==`` does not see.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdpool import archive as archive_module
from qdpool.archive import Archive, GridSpec, cell_indices
from qdpool.emitters import SIGMA_ISO, SIGMA_LINE, RandomEmitter
from qdpool.tasks import TASK_NAMES, _proj_fold, clip_genotype, evaluate_batch, make_task

# ---------------------------------------------------------------------------
# oracles


def oracle_clip_genotype(x, spec, out=None):
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("cannot clip a genotype with NaN components")
    return np.clip(x, spec.lower, spec.upper, out=out)


def oracle_proj_fold(x):
    with np.errstate(over="ignore"):  # 5.12 / a subnormal, which the where drops
        folded = np.divide(5.12, x, out=np.zeros_like(x), where=x != 0)
    return np.where(np.abs(x) <= 5.12, x, folded)


def oracle_evaluate_batch(genotypes, spec):
    x = np.asarray(genotypes, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.dim:
        raise ValueError("shape")
    if len(x) and not ((x >= spec.lower).all() and (x <= spec.upper).all()):
        raise ValueError("out of bounds")
    if spec.name in ("rastrigin_proj", "rastrigin_multi"):
        u = x - 2.048
        fitness_raw = -np.sum(u * u - 10.0 * np.cos(2.0 * np.pi * u), axis=1)
    elif spec.name == "sphere":
        u = x - 2.048
        fitness_raw = -np.sum(u * u, axis=1)
    else:
        heading = np.cumsum(x, axis=1)
        descriptors = np.stack(
            [np.mean(np.cos(heading), axis=1), np.mean(np.sin(heading), axis=1)], axis=1
        )
        fitness_raw = -np.var(x, axis=1)
    if spec.name == "rastrigin_multi":
        descriptors = x[:, :2].copy()
    elif spec.name in ("rastrigin_proj", "sphere"):
        clipped = oracle_proj_fold(x)
        half = spec.dim // 2
        descriptors = np.stack(
            [np.sum(clipped[:, :half], axis=1), np.sum(clipped[:, half:], axis=1)], axis=1
        )
    span = spec.fitness_best_raw - spec.fitness_worst_raw
    fitness_norm = np.clip((fitness_raw - spec.fitness_worst_raw) / span, 0.0, 1.0)
    return fitness_raw, fitness_norm, descriptors


def oracle_line_operator(emitters, archive, task, rngs):
    k, batch = len(emitters), emitters[0].batch_size
    picks = np.empty((k, batch, 2), dtype=np.int64)
    iso = np.empty((k, batch, task.dim))
    line = np.empty((k, batch, 1))
    for i, rng in enumerate(rngs):
        picks[i] = rng.integers(0, len(archive), size=(batch, 2))
        rng.standard_normal(out=iso[i])
        rng.standard_normal(out=line[i])
    iso *= SIGMA_ISO * (task.upper - task.lower)
    line *= SIGMA_LINE
    parents = archive.genotypes_at_ranks(picks.reshape(-1, 2))
    x1, x2 = parents[:, 0], parents[:, 1]
    candidates = iso.reshape(-1, task.dim)
    candidates += x1
    step = x2 - x1
    step *= line.reshape(-1, 1)
    candidates += step
    return oracle_clip_genotype(candidates, task, out=candidates)


def assert_same(got, expected):
    """Equal shape, dtype and bits, as far as ``array_equal`` and the sign
    bit tell (NaN payloads aside)."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def outcome(fn, *args):
    """``fn(*args)``, or the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as error:
        return error


# ---------------------------------------------------------------------------
# inputs


def task_specs():
    """A built-in task at odd or even ``dim``."""
    return st.builds(make_task, st.sampled_from(TASK_NAMES), dim=st.integers(2, 9), resolution=st.just(7))


def genotype_values(task):
    """Components at and near the task's bounds, at +-5.12 (where the
    projection starts to fold), signed zeros, and anything in between."""
    edges = {task.lower, task.upper, 5.12, -5.12, 0.0, -0.0, np.nextafter(5.12, 6.0),
             np.nextafter(-5.12, -6.0)}
    edges |= {float(np.nextafter(v, 0.0)) for v in list(edges)}
    bound = max(-task.lower, task.upper)
    return st.one_of(
        st.sampled_from(sorted(edges)),
        st.floats(-bound, bound, allow_nan=False),
    )


@st.composite
def in_bounds_batches(draw):
    task = draw(task_specs())
    m = draw(st.integers(0, 6))
    values = draw(st.lists(genotype_values(task), min_size=m * task.dim, max_size=m * task.dim))
    x = np.array(values, dtype=float).reshape(m, task.dim)
    return task, oracle_clip_genotype(x, task)


# ---------------------------------------------------------------------------
# clamp


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    task=task_specs(),
    m=st.integers(0, 5),
    in_place=st.booleans(),
)
def test_clip_genotype_matches_oracle(data, task, m, in_place):
    specials = st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300])
    values = data.draw(
        st.lists(st.one_of(genotype_values(task), specials), min_size=m * task.dim,
                 max_size=m * task.dim)
    )
    x = np.array(values, dtype=float).reshape(m, task.dim)
    expected_in, got_in = x.copy(), x.copy()
    expected = outcome(oracle_clip_genotype, expected_in, task, expected_in if in_place else None)
    got = outcome(clip_genotype, got_in, task, got_in if in_place else None)
    if isinstance(expected, ValueError):
        assert isinstance(got, ValueError)
        assert_same(got_in, x)  # out is left as it was
        return
    assert_same(got, expected)
    assert (got is got_in) == in_place


# ---------------------------------------------------------------------------
# evaluate


@settings(max_examples=400, deadline=None)
@given(batch=in_bounds_batches())
def test_evaluate_batch_matches_oracle(batch):
    task, x = batch
    x.flags.writeable = False  # evaluate_batch must never write its input
    got, expected = evaluate_batch(x, task), oracle_evaluate_batch(x, task)
    assert len(got) == len(expected) == 3
    for g, e in zip(got, expected):
        assert_same(g, e)


@settings(max_examples=200, deadline=None)
@given(task=task_specs(), data=st.data())
def test_evaluate_batch_rejects_what_the_oracle_rejects(task, data):
    """Components past a bound, infinite or NaN fail the bound check."""
    x = oracle_clip_genotype(np.zeros((2, task.dim)), task)
    bad = data.draw(st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300]))
    row, col = data.draw(st.integers(0, 1)), data.draw(st.integers(0, task.dim - 1))
    if data.draw(st.booleans()):
        bad = float(np.nextafter(task.upper, np.inf))
    x[row, col] = bad
    assert isinstance(outcome(oracle_evaluate_batch, x, task), ValueError)
    with pytest.raises(ValueError, match="out of bounds"):
        evaluate_batch(x, task)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([5.12, -5.12, 0.0, -0.0, np.inf, -np.inf, np.nan,
                             np.nextafter(5.12, 6.0), np.nextafter(-5.12, -6.0), 5e-324]),
            st.floats(allow_nan=False),
        ),
        max_size=12,
    )
)
def test_proj_fold_matches_oracle(values):
    x = np.array(values, dtype=float)
    assert_same(_proj_fold(x, np.empty_like(x)), oracle_proj_fold(x))


# ---------------------------------------------------------------------------
# line operator


@settings(max_examples=100, deadline=None)
@given(batch=in_bounds_batches(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_line_operator_matches_oracle(batch, k, seed):
    task, x = batch
    if not len(x):
        return
    archive = Archive(task.grid())
    raw, norm, descriptors = oracle_evaluate_batch(x, task)
    archive.insert_batch(cell_indices(descriptors, archive.spec), x, descriptors, raw, norm)
    emitters = [RandomEmitter(i, 4) for i in range(k)]
    got = RandomEmitter.generate_batch(
        emitters, archive, task, [np.random.default_rng([seed, i]) for i in range(k)]
    )
    expected = oracle_line_operator(
        emitters, archive, task, [np.random.default_rng([seed, i]) for i in range(k)]
    )
    assert_same(got, expected)


# ---------------------------------------------------------------------------
# insert


def insert_outcome(archive, batches):
    """Statuses and improvements of ``batches`` inserted in order, then the
    archive's per-cell state and rows."""
    out = []
    for cells, genotypes, raws, norms in batches:
        descriptors = genotypes[:, :2]
        out += archive.insert_batch(cells, genotypes, descriptors, raws, norms)
    occupied = archive._occupied()
    return out + [archive._row, archive._raw, archive._norm, occupied,
                  archive.genotype_matrix(), archive._descriptors[archive._row[occupied]]]


@st.composite
def insert_batches(draw):
    """A grid of 8 x 8, 256 x 256 (exactly 65 536 cells, the most that sort
    as uint16) or 300 x 300 cells, and batches whose cells repeat and tie
    on fitness."""
    side = draw(st.sampled_from([8, 256, 300]))
    spec = GridSpec(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), np.array([side, side]))
    top = spec.total_cells - 1
    cell = st.one_of(st.sampled_from([0, 1, top - 1, top, min(65535, top)]),
                     st.integers(0, top))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 20))
        pool = draw(st.lists(cell, min_size=1, max_size=6))
        cells = np.array(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)),
                         dtype=np.int64)
        raws = np.array(draw(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 1.0, 3.5]),
                                      min_size=m, max_size=m)))
        genotypes = np.arange(m * 3, dtype=float).reshape(m, 3) + len(batches)
        batches.append((cells, genotypes, raws, np.clip(raws / 4.0, 0.0, 1.0)))
    return spec, batches


@settings(max_examples=300, deadline=None)
@given(case=insert_batches())
def test_insert_batch_matches_the_int64_sort(case):
    """The insert on 16-bit sort keys gives exactly what the int64 keys
    give; ``_UINT16_CELLS = 0`` sends every grid down the int64 sort."""
    spec, batches = case
    got = insert_outcome(Archive(spec), batches)
    with mock.patch.object(archive_module, "_UINT16_CELLS", 0):
        expected = insert_outcome(Archive(spec), batches)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert_same(g, e)


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.integers(0, 65535), max_size=60))
def test_uint16_stable_sort_is_the_int64_permutation(cells):
    cells = np.array(cells, dtype=np.int64)
    assert_same(
        np.argsort(cells.astype(np.uint16), kind="stable"), np.argsort(cells, kind="stable")
    )

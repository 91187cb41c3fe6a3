"""Grid archive: a uniform discretization of descriptor space where each
cell keeps the single best solution seen for that behaviour.

The archive is the central data structure of the library.  Every insertion
applies the elitist competition rule (empty cell -> insert, occupied cell
-> replace only on strict fitness improvement): one solution at a time
through :meth:`Archive.add_attempt`, or a whole generation at once
through :meth:`Archive.insert_batch`.  Competition compares raw task fitness;
normalized fitness, which clamps to [0, 1] outside the task's reference
range, is stored alongside it for rewards and metrics.  On the reference
range the two orderings coincide (normalization is affine there), but raw
competition keeps selection pressure alive where the clamp saturates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

import numpy as np


class EmptyArchiveError(RuntimeError):
    """Raised when an operation needs at least one elite in the archive."""


#: The most cells a grid may have: numpy sizes no array of more bytes than
#: ``intp`` holds, and the archive keeps an int64 array with one entry per cell.
MAX_CELLS = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize


class GridSpec:
    """Axis-aligned uniform grid over a bounded descriptor space, a
    read-only value: construction copies the three inputs, checks them,
    derives the rest once and marks every array read-only.  Grids compare
    and hash by identity.

    Args:
        lower: Per-axis lower bounds of the descriptor space.
        upper: Per-axis upper bounds (strictly greater than ``lower``).
        resolution: Number of cells along each axis, as integers (a float
            is refused, not truncated); the product, counted with Python
            ints, must not exceed :data:`MAX_CELLS`.

    Attributes:
        widths: Cell width along each axis, ``(upper - lower) / resolution``.
        total_cells: Number of cells, the product of ``resolution``.
        dims: Number of descriptor axes.
    """

    def __init__(self, lower, upper, resolution):
        self.lower = lower = np.array(lower, dtype=float)
        self.upper = upper = np.array(upper, dtype=float)
        resolution = np.asarray(resolution)
        # numpy infers int64 or uint64 for Python ints below 2**64, object above
        if resolution.dtype.kind not in "iu" or (resolution > np.iinfo(np.int64).max).any():
            raise ValueError(
                f"resolution must be integers of at most {np.iinfo(np.int64).max}, "
                f"got {resolution.tolist()}"
            )
        self.resolution = resolution = resolution.astype(np.int64)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.shape != resolution.shape:
            raise ValueError("lower, upper and resolution must be 1-D with equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("grid bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("lower bounds must be strictly below upper bounds")
        if not (resolution >= 1).all():
            raise ValueError("resolution must be at least 1 per axis")
        # a product of int64s would wrap silently
        self.total_cells = math.prod(resolution.tolist())
        if self.total_cells > MAX_CELLS:
            raise ValueError(
                f"resolution {resolution.tolist()} makes {self.total_cells} cells, "
                f"more than the {MAX_CELLS} whose per-cell arrays numpy can size"
            )
        with np.errstate(over="ignore"):
            self.widths = widths = (upper - lower) / resolution
        if not (np.isfinite(widths) & (widths > 0)).all():
            raise ValueError(f"cell widths {widths.tolist()} must be positive and finite")
        self.dims = len(lower)
        # per axis (lower, upper, width, resolution) as Python scalars, for
        # cell_index
        self._axes = tuple(zip(lower.tolist(), upper.tolist(), widths.tolist(), resolution.tolist()))
        for array in (lower, upper, resolution, widths):
            array.flags.writeable = False

    def __reduce__(self):
        """Pickles the three inputs, so an unpickled grid is checked and
        read-only again."""
        return GridSpec, (self.lower, self.upper, self.resolution)


def cell_index(descriptor: np.ndarray, spec: GridSpec) -> int:
    """Maps a descriptor to its flat cell index.

    The axis-k index is ``floor((d[k] - lower[k]) / width[k])``, clamped
    into ``[0, resolution[k] - 1]`` so that descriptors at or beyond the
    bounds land in the boundary cells; those are compared with the bounds
    before any division, so a finite descriptor of any size bins.  Axes
    are flattened in C order (last axis varies fastest).

    Raises:
        ValueError: If any descriptor component is not finite.
    """
    d = np.asarray(descriptor, dtype=float)
    axes = spec._axes
    if d.shape != (len(axes),):
        raise ValueError(f"descriptor has shape {d.shape}, expected ({len(axes)},)")
    flat = 0
    for x, (lower, upper, width, r) in zip(d.tolist(), axes):
        if not math.isfinite(x):
            raise ValueError(f"descriptor contains non-finite values: {d}")
        if x < lower:
            i = 0
        elif x >= upper:
            i = r - 1
        else:
            i = math.floor((x - lower) / width)
            if i >= r:  # rounding just below the upper bound
                i = r - 1
        flat = flat * r + i
    return flat


def cell_indices(descriptors: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Vectorized :func:`cell_index` for a ``(m, dims)`` descriptor batch."""
    d = np.asarray(descriptors, dtype=float)
    if d.ndim != 2 or d.shape[1] != spec.dims:
        raise ValueError(f"descriptor batch has shape {d.shape}, expected (m, {spec.dims})")
    if not np.isfinite(d).all():
        raise ValueError("descriptor batch contains non-finite values")
    # clamp to the bounds before the divide: a huge finite descriptor
    # would overflow it, and would have no int64 floor
    axis = np.clip(d, spec.lower, spec.upper)
    axis -= spec.lower
    axis /= spec.widths
    np.floor(axis, out=axis)
    # "clip" puts the upper bound itself in the last cell
    return np.ravel_multi_index(tuple(axis.astype(np.int64).T), spec.resolution, mode="clip")


@dataclass(slots=True, eq=False)
class Elite:
    """A stored solution: genotype, its descriptor and both fitness scales."""

    genotype: np.ndarray
    descriptor: np.ndarray
    fitness_raw: float
    fitness_norm: float


class AddStatus(IntEnum):
    """What an insertion attempt did; the integer values are the codes
    :meth:`Archive.insert_batch` returns per candidate."""

    REJECTED = 0
    IMPROVED = 1
    NEW = 2


# The codes as plain ints, for building and comparing status arrays: numpy
# takes several times longer with an IntEnum member than with an int.
REJECTED_CODE, IMPROVED_CODE, NEW_CODE = int(AddStatus.REJECTED), int(AddStatus.IMPROVED), int(AddStatus.NEW)


@dataclass(frozen=True, slots=True)
class AddResult:
    """Outcome of one insertion attempt.

    ``improvement`` is the candidate's normalized fitness for a new cell,
    the normalized fitness delta for a replacement, and 0.0 for a
    rejection.  Because normalized fitness saturates at 0 outside the
    reference range, a replacement there can legitimately report
    ``improvement == 0.0`` even though the raw fitness strictly improved.
    """

    status: AddStatus
    improvement: float


_REJECTED = AddResult(AddStatus.REJECTED, 0.0)

# Grids of at most this many cells sort their cell indices as uint16.
_UINT16_CELLS = 1 << 16


def _csv_header(bd_dim: int, genotype_dim: int) -> list[str]:
    """The column names of :meth:`Archive.write_csv`."""
    return (
        ["cell_index"]
        + [f"bd_{k}" for k in range(bd_dim)]
        + ["fitness_raw", "fitness_norm"]
        + [f"g_{k}" for k in range(genotype_dim)]
    )


class Archive:
    """Elitist grid over descriptor space, stored in arrays.

    Storage layout:

    * per cell (``spec.total_cells`` entries): ``_row``, the row of the
      cell's elite or -1 for an empty cell, and ``_raw``/``_norm``, the
      elite's two fitness values (meaningless where the cell is empty);
    * per row, one row per occupied cell: ``_genotypes`` and
      ``_descriptors``.  Both are reserved with ``spec.total_cells`` rows
      (a grid never holds more elites than cells) at the first insertion,
      or, for an unpickled archive, which holds only the rows in use, at
      its first new cell; from then on rows never move.  A newly occupied
      cell takes the next unused row and a replacement overwrites its
      cell's row in place, so the rows in use are always a prefix.  Pages
      the archive has not written are not resident: resident memory
      follows occupancy, while the reserved address space follows grid
      size.  Rows indexed by cell would need no ``_row``, but their
      writes scatter over the whole block: numpy advises huge pages for
      arrays of 4 MiB or more, so under transparent huge pages a sparse
      grid would make every 2 MiB page resident.

    Each elite is kept once, in those arrays: both insertion paths copy
    the winner into its row, and every read (iteration and
    :meth:`random_elite`) builds a fresh :class:`Elite` from the rows.
    Reads are canonical: iteration, ranks and uniform elite sampling
    follow ascending cell index regardless of insertion history.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self._row = np.full(spec.total_cells, -1, dtype=np.int64)
        self._raw = np.zeros(spec.total_cells)
        self._norm = np.zeros(spec.total_cells)
        self._size = 0
        self._genotypes = np.empty((0, 0))
        self._descriptors = np.empty((0, spec.dims))

    def __len__(self) -> int:
        return self._size

    _ROWS = ("_genotypes", "_descriptors")

    def __getstate__(self) -> dict:
        """Pickles only the rows in use, so an archive sent to another
        process (or copied with ``copy.deepcopy``) costs its occupancy, not
        its grid size; the copy reserves its rows at its first new cell."""
        state = self.__dict__.copy()
        for name in self._ROWS:
            state[name] = state[name][: self._size]
        return state

    def _occupied(self) -> np.ndarray:
        """Occupied cells in ascending order."""
        return np.flatnonzero(self._row >= 0)

    def _check_genotype_shape(self, shape: tuple) -> None:
        """Raises unless ``shape`` is that of one genotype the archive can
        hold: one axis, as long as the rows it already holds."""
        if len(shape) != 1:
            raise ValueError(f"genotype has shape {shape}, expected one axis")
        if len(self._genotypes) and shape[0] != self._genotypes.shape[1]:
            raise ValueError(
                f"genotype has {shape[0]} components, "
                f"the archive holds {self._genotypes.shape[1]}"
            )

    def _claim_rows(self, cells: np.ndarray, genotype_dim: int) -> np.ndarray:
        """Gives each newly occupied cell the next unused row and returns
        the rows.  A claim that finds too few rows (the first insertion, or
        the first new cell after unpickling) reserves one row per cell and
        copies the rows in use into its prefix."""
        end = self._size + len(cells)
        if end > len(self._genotypes):
            used, total = self._size, self.spec.total_cells
            genotypes, descriptors = np.empty((total, genotype_dim)), np.empty((total, self.spec.dims))
            if used:
                genotypes[:used], descriptors[:used] = self._genotypes, self._descriptors
            self._genotypes, self._descriptors = genotypes, descriptors
        rows = np.arange(self._size, end)
        self._row[cells] = rows
        self._size = end
        return rows

    def add_attempt(self, elite: Elite) -> AddResult:
        """Offers an elite to the archive and applies the competition rule.

        A new cell is always filled.  An occupied cell is replaced only if
        the candidate's raw fitness is strictly higher; ties keep the
        incumbent.  A winning elite is copied into the archive's rows, so
        the caller keeps no hold on what the archive stores.

        Returns:
            The :class:`AddResult` describing what happened.

        Raises:
            ValueError: If ``fitness_raw`` is NaN, ``fitness_norm`` lies
                outside [0, 1], the descriptor is not finite, or the
                genotype is not one axis as long as the stored ones.  The
                archive is unchanged then.
        """
        if math.isnan(elite.fitness_raw):
            raise ValueError("fitness_raw is NaN")
        if not (0.0 <= elite.fitness_norm <= 1.0):
            raise ValueError(f"fitness_norm must be in [0, 1], got {elite.fitness_norm}")
        self._check_genotype_shape(np.shape(elite.genotype))
        cell = cell_index(elite.descriptor, self.spec)
        row = int(self._row[cell])
        if row < 0:
            row = int(self._claim_rows(np.array([cell]), len(elite.genotype))[0])
            result = AddResult(AddStatus.NEW, elite.fitness_norm)
        elif elite.fitness_raw > self._raw[cell]:
            # norm is a monotone function of raw, so this delta is >= 0
            result = AddResult(AddStatus.IMPROVED, elite.fitness_norm - float(self._norm[cell]))
        else:
            return _REJECTED
        self._genotypes[row] = elite.genotype
        self._descriptors[row] = elite.descriptor
        self._raw[cell] = elite.fitness_raw
        self._norm[cell] = elite.fitness_norm
        return result

    def offer_candidate(
        self, cell: int, genotype, descriptor, fitness_raw: float, fitness_norm: float
    ) -> AddResult:
        """Competition rule for one raw candidate row: :meth:`insert_batch`
        with a batch of one.  The row is copied, so callers may pass views
        into batch matrices."""
        status, improvement = self.insert_batch(
            [cell], np.asarray(genotype)[None], np.asarray(descriptor)[None],
            [fitness_raw], [fitness_norm],
        )
        return AddResult(AddStatus(int(status[0])), float(improvement[0]))

    def insert_batch(
        self, cells, genotypes, descriptors, fitness_raw, fitness_norm
    ) -> tuple[np.ndarray, np.ndarray]:
        """Competition rule for a whole batch of pre-binned candidates.

        The outcome is exactly that of offering the candidates one at a
        time in batch order.  The batch is stable-sorted by cell; within a
        cell, a candidate wins iff its raw fitness strictly beats the
        running maximum of the incumbent and the earlier candidates
        (ties keep the earliest holder), and it improves on whichever of
        them held the cell just before it.  Only each cell's final winner
        is written, into a single genotype copy.

        Unlike :meth:`add_attempt`, it trusts ``cells`` to be the
        descriptors' bins.

        Args:
            cells: ``(m,)`` flat cell indices, in ``[0, spec.total_cells)``.
            genotypes: ``(m, n)`` candidate genotypes.
            descriptors: ``(m, dims)`` candidate descriptors.
            fitness_raw: ``(m,)`` raw fitness, without NaN.
            fitness_norm: ``(m,)`` normalized fitness, in [0, 1].

        Returns:
            ``(status, improvement)`` in batch order: the
            :class:`AddStatus` code of each candidate (``int8``) and its
            improvement as defined by :class:`AddResult`.

        Raises:
            ValueError: On mismatched lengths, NaN raw fitness, a value
                outside the ranges above or rows of the wrong shape; the
                archive is unchanged then.
        """
        cells = np.asarray(cells, dtype=np.int64)
        genotypes = np.asarray(genotypes, dtype=float)
        descriptors = np.asarray(descriptors, dtype=float)
        raw = np.asarray(fitness_raw, dtype=float)
        norm = np.asarray(fitness_norm, dtype=float)
        m = len(cells)
        if not (len(genotypes) == len(descriptors) == len(raw) == len(norm) == m):
            raise ValueError("insert_batch arguments must have one entry per candidate")
        if np.isnan(raw).any():
            raise ValueError("fitness_raw contains NaN")
        status = np.zeros(m, dtype=np.int8)
        improvement = np.zeros(m)
        if m == 0:
            return status, improvement
        if not (0 <= cells.min() and cells.max() < self.spec.total_cells):
            raise ValueError(f"cells must lie in [0, {self.spec.total_cells})")
        if not (norm.min() >= 0.0 and norm.max() <= 1.0):
            raise ValueError("fitness_norm must lie in [0, 1], NaN excluded")
        self._check_genotype_shape(genotypes.shape[1:])
        if descriptors.shape[1:] != (self.spec.dims,):
            raise ValueError(
                f"descriptors have shape {descriptors.shape}, expected (m, {self.spec.dims})"
            )

        # numpy radix-sorts 16-bit keys; a stable order is unique, so a
        # grid whose cells fit in uint16 gets the int64 sort's permutation
        keys = cells.astype(np.uint16) if self.spec.total_cells <= _UINT16_CELLS else cells
        order = np.argsort(keys, kind="stable")
        sorted_cells, s_raw, s_norm = cells[order], raw[order], norm[order]
        first = np.ones(m, dtype=bool)  # first candidate of its cell
        first[1:] = sorted_cells[1:] != sorted_cells[:-1]
        starts = np.flatnonzero(first)
        seg = np.cumsum(first) - 1  # per candidate: index of its cell in seg_cells
        seg_cells = sorted_cells[starts]
        held = self._row[sorted_cells] >= 0

        # Segmented running max of raw: ranks keep the order of raw, and
        # offsetting them by segment makes one plain running max restart at
        # every cell.  Equal raws rank later candidates lower, so a tie
        # never beats an earlier one; a stable sort of the reversed batch
        # gives that order.
        rank = np.empty(m, dtype=np.int64)
        rank[m - 1 - np.argsort(s_raw[::-1], kind="stable")] = np.arange(m)
        key = seg * m + rank
        running = np.maximum.accumulate(key)
        beats_batch = first.copy()
        beats_batch[1:] |= key[1:] > running[:-1]
        accepted = beats_batch & (~held | (s_raw > self._raw[sorted_cells]))

        # The holder just before each candidate: the last earlier winner in
        # its cell, else the incumbent.
        last_win = np.maximum.accumulate(np.where(accepted, np.arange(m), -1))
        prev_win = np.concatenate(([-1], last_win[:-1]))
        from_batch = prev_win >= starts[seg]
        holder_norm = np.where(from_batch, s_norm[prev_win], self._norm[sorted_cells])
        new = first & ~held
        s_status = np.where(new, NEW_CODE, np.where(accepted, IMPROVED_CODE, REJECTED_CODE))
        s_improvement = np.where(new, s_norm, np.where(accepted, s_norm - holder_norm, 0.0))
        status[order] = s_status
        improvement[order] = s_improvement

        # Write each cell's final winner.
        ends = np.append(starts[1:], m) - 1
        winners = last_win[ends]
        won = winners >= starts
        win_cells = seg_cells[won]
        src = order[winners[won]]
        rows = self._row[win_cells]
        fresh = rows < 0
        rows[fresh] = self._claim_rows(win_cells[fresh], genotypes.shape[1])
        self._genotypes[rows] = genotypes[src]
        self._descriptors[rows] = descriptors[src]
        self._raw[win_cells] = raw[src]
        self._norm[win_cells] = norm[src]
        return status, improvement

    def _elite(self, cell: int) -> Elite:
        row = self._row[cell]
        return Elite(
            self._genotypes[row].copy(),
            self._descriptors[row].copy(),
            float(self._raw[cell]),
            float(self._norm[cell]),
        )

    def random_elite(self, rng: np.random.Generator) -> Elite:
        """Draws one elite uniformly over the occupied cells."""
        occupied = self._occupied()
        if not len(occupied):
            raise EmptyArchiveError("cannot sample an elite from an empty archive")
        return self._elite(int(occupied[rng.integers(len(occupied))]))

    @property
    def best_fitness(self) -> float:
        """Highest normalized fitness currently stored."""
        if not self._size:
            raise EmptyArchiveError("archive is empty, best fitness undefined")
        return float(self.fitness_norms().max())

    def fitness_norms(self) -> np.ndarray:
        """Normalized fitness of every elite, in ascending cell order."""
        return self._norm[self._occupied()]

    def __iter__(self) -> Iterator[tuple[int, Elite]]:
        """Yields ``(cell index, elite)`` pairs in ascending cell order."""
        for cell in self._occupied().tolist():
            yield cell, self._elite(cell)

    def genotypes_at_ranks(self, ranks) -> np.ndarray:
        """Genotypes of the elites at ``ranks`` (any integer array shape)
        in ascending cell order: ``genotype_matrix()[ranks]`` without
        stacking the whole archive."""
        return self._genotypes[self._row[self._occupied()[ranks]]]

    def genotype_matrix(self) -> np.ndarray:
        """Genotypes stacked row-wise in ascending cell order, as a fresh
        copy on every call."""
        return self._genotypes[self._row[self._occupied()]]

    def write_csv(self, path) -> None:
        """Dumps the archive, one row per occupied cell in ascending order.

        The header is ``cell_index,bd_0,...,fitness_raw,fitness_norm,
        g_0,...,g_{n-1}`` and every float is written with ``repr``, its
        shortest round-trippable form.  No field needs quoting, so the
        bytes are those ``csv.writer`` would write and :meth:`read_csv`
        reads them back.
        """
        occupied = self._occupied()
        with open(path, "w", newline="") as f:
            f.write(",".join(_csv_header(self.spec.dims, self._genotypes.shape[1])) + "\n")
            # row by row: converting the whole genotype array to Python
            # floats at once would cost ~3x its size in peak memory
            for cell, row, raw, norm in zip(
                occupied.tolist(),
                self._row[occupied].tolist(),
                self._raw[occupied].tolist(),
                self._norm[occupied].tolist(),
            ):
                fields = (
                    [cell]
                    + self._descriptors[row].tolist()
                    + [raw, norm]
                    + self._genotypes[row].tolist()
                )
                f.write(",".join(map(repr, fields)) + "\n")

    @classmethod
    def read_csv(cls, path, spec: GridSpec) -> "Archive":
        """Reconstructs an archive from :meth:`write_csv` output.

        Raises:
            ValueError: If the header is not that of an archive over
                ``spec.dims`` descriptor axes, a row's length differs from
                the header's or a field does not parse, a row's descriptor
                does not bin to its recorded cell under ``spec``, or a row
                fails :meth:`add_attempt`'s checks (each row goes through it).
        """
        archive = cls(spec)
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            bd_dim = spec.dims
            n_geno = len(header) - 3 - bd_dim
            if n_geno < 0 or header != _csv_header(bd_dim, n_geno):
                raise ValueError(f"header of {path} is not that of a {bd_dim}-D archive")
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(
                        f"line {reader.line_num} of {path} has {len(row)} fields, "
                        f"expected {len(header)}"
                    )
                try:
                    cell, values = int(row[0]), [float(v) for v in row[1:]]
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num} of {path}: {exc}") from None
                descriptor, genotype = np.array(values[:bd_dim]), np.array(values[bd_dim + 2 :])
                fitness_raw, fitness_norm = values[bd_dim : bd_dim + 2]
                if cell_index(descriptor, spec) != cell:
                    raise ValueError(
                        f"row for cell {cell} does not bin to its own cell under this grid"
                    )
                archive.add_attempt(Elite(genotype, descriptor, fitness_raw, fitness_norm))
        return archive

"""Closed-form benchmark tasks: bounded search spaces, fitness functions,
behavioural descriptors, and normalization constants.

All tasks follow a maximization convention: the classical minimized test
functions are negated once here, so the rest of the library uniformly
treats larger fitness as better.  Normalized fitness maps the raw value
into [0, 1] using the worst/best achievable values on the reference
hypercube [-5.12, 5.12]^n (or the native bounds for the arm task);
solutions outside that reference region clamp to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from qdpool._counts import count
from qdpool.archive import GridSpec

TASK_NAMES = ("rastrigin_proj", "rastrigin_multi", "sphere", "redundant_arm")
# make_task's defaults: the paper's genotype size and cells per axis
DEFAULT_DIM = 100
DEFAULT_RESOLUTION = 100

_SHIFT = 2.048  # optimum location 0.4 * 5.12, per dimension
_REF_BOUND = 5.12  # reference hypercube half-width for normalization


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """Static description of one benchmark problem, whose search space is
    the hypercube ``[lower, upper]^dim``, a read-only value: construction
    builds the task's :class:`GridSpec` once, and ``bd_lower``,
    ``bd_upper`` and ``grid_resolution`` are that grid's read-only arrays.

    Args:
        name: One of ``TASK_NAMES``.
        dim: Genotype dimensionality.
        lower: Genotype lower bound of every dimension.
        upper: Genotype upper bound of every dimension.
        bd_lower: Descriptor-space lower bounds, shape ``(2,)``.
        bd_upper: Descriptor-space upper bounds.
        grid_resolution: Cells per descriptor axis, shape ``(2,)``.
        sigma0: Default initial step size for CMA-ES-based emitters;
            construction checks that it is positive and finite.
        fitness_worst_raw: Raw fitness mapped to normalized 0.
        fitness_best_raw: Raw fitness mapped to normalized 1.
    """

    name: str
    dim: int
    lower: float
    upper: float
    bd_lower: np.ndarray
    bd_upper: np.ndarray
    grid_resolution: np.ndarray
    sigma0: float
    fitness_worst_raw: float
    fitness_best_raw: float

    def __post_init__(self):
        if not 0 < self.sigma0 < math.inf:
            raise ValueError("sigma0 must be positive and finite")
        if self.fitness_worst_raw >= self.fitness_best_raw:
            raise ValueError("fitness_worst_raw must be below fitness_best_raw")
        # one grid per task: its checks, including the cell count, apply to
        # every task, and its read-only arrays replace the ones given
        grid = GridSpec(self.bd_lower, self.bd_upper, self.grid_resolution)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "bd_lower", grid.lower)
        object.__setattr__(self, "bd_upper", grid.upper)
        object.__setattr__(self, "grid_resolution", grid.resolution)

    def __reduce__(self):
        """Pickles the constructor's arguments: numpy drops the read-only
        flag on unpickling, and construction sets it again."""
        return TaskSpec, tuple(getattr(self, f.name) for f in fields(self))

    def grid(self) -> GridSpec:
        """The descriptor grid induced by this task's bounds and resolution."""
        return self._grid


# Worst per-dimension Rastrigin term, max (x - 2.048)^2 - 10 cos(2 pi (x - 2.048))
# over x in [-5.12, 5.12]; it lies on an interior ripple near x = -4.49.  A literal
# keeps every normalized fitness independent of how a platform's cos rounds.
RASTRIGIN_PER_DIM_MAX = 52.46592046502607


def make_task(
    name: str, dim: int = DEFAULT_DIM, resolution=DEFAULT_RESOLUTION, sigma0: float | None = None
) -> TaskSpec:
    """Builds the :class:`TaskSpec` for a benchmark by name.

    Args:
        name: One of ``TASK_NAMES``.
        dim: Genotype dimensionality.
        resolution: Cells per descriptor axis, an integer or two; a scalar
            is used for both.
        sigma0: Override for the task's default initial step size.

    Returns:
        A fully populated, immutable task description.
    """
    if name not in TASK_NAMES:
        raise ValueError(f"unknown task {name!r}, expected one of {TASK_NAMES}")
    dim = count("dim", dim, 2)  # the descriptors read two components
    if np.shape(resolution) not in ((), (2,)):
        raise ValueError(f"resolution must be one integer or two, got {resolution!r}")
    half = dim // 2
    proj_extent = np.array([_REF_BOUND * half, _REF_BOUND * (dim - half)])

    if name == "rastrigin_proj":
        bounds, bd = 10.0 * _REF_BOUND, proj_extent
        worst, best, s0 = -dim * RASTRIGIN_PER_DIM_MAX, 10.0 * dim, 0.5
    elif name == "rastrigin_multi":
        bounds, bd = _REF_BOUND, np.array([_REF_BOUND, _REF_BOUND])
        worst, best, s0 = -dim * RASTRIGIN_PER_DIM_MAX, 10.0 * dim, 0.5
    elif name == "sphere":
        bounds, bd = 10.0 * _REF_BOUND, proj_extent
        worst, best, s0 = -dim * (_REF_BOUND + _SHIFT) ** 2, 0.0, 0.5
    else:  # redundant_arm
        bounds, bd = math.pi, np.array([1.0, 1.0])
        worst, best, s0 = -math.pi**2, 0.0, 0.25

    return TaskSpec(
        name=name,
        dim=dim,
        lower=-bounds,
        upper=bounds,
        bd_lower=-bd,
        bd_upper=bd,
        grid_resolution=np.broadcast_to(resolution, (2,)),
        sigma0=s0 if sigma0 is None else float(sigma0),
        fitness_worst_raw=float(worst),
        fitness_best_raw=float(best),
    )


def clip_genotype(x: np.ndarray, spec: TaskSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Componentwise clamp of a genotype (or batch) into the search bounds,
    into ``out`` if given (which may be ``x`` itself), else into a new
    array.  An infinite component is out of range like any other and
    clamps to its bound.

    Raises:
        ValueError: If the input contains NaN; ``out`` is then left as it
            was.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("cannot clip a genotype with NaN components")
    return np.clip(x, spec.lower, spec.upper, out=out)


@np.errstate(divide="ignore", over="ignore")
def _proj_fold(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Soft clip of the projection descriptor, element-wise on the float array
    ``x``: identity inside [-5.12, 5.12] and ``5.12 / x`` outside, with
    ``scratch`` (sharing no memory with ``x``) as a buffer.  Every component
    divides, as a masked ufunc is slow on mixed masks; only near ones, which
    ``where`` drops, can divide by zero or overflow (5.12 over a subnormal)."""
    far = np.abs(x, out=scratch) > _REF_BOUND
    np.divide(_REF_BOUND, x, out=scratch)
    return np.where(far, scratch, x)


def evaluate_batch(genotypes: np.ndarray, spec: TaskSpec):
    """Evaluates a batch of in-bounds genotypes.

    It is the engine's largest per-generation phase on redundant_arm
    (about half of a map-elites generation, most of it libm's ``cos`` and
    ``sin``) and about as large as the CMA-ES update on rastrigin_proj at
    paper scale.  It is pure numpy: no RNG, no shared state, safe to run on
    row-wise chunks from worker threads.  The rastrigin and sphere
    fitness and the projection fold reuse their batch-sized buffers
    through ``out=`` passes that round exactly as the plain expressions
    do; the input is never written.

    Args:
        genotypes: Array of shape ``(m, dim)`` already inside the bounds.

    Returns:
        Tuple ``(fitness_raw, fitness_norm, descriptors)`` with shapes
        ``(m,)``, ``(m,)`` and ``(m, 2)``.

    Raises:
        ValueError: On shape mismatch or out-of-bounds rows (callers must
            clip first).
    """
    x = np.asarray(genotypes, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.dim:
        raise ValueError(f"genotype batch has shape {x.shape}, expected (m, {spec.dim})")
    # min and max carry a NaN through, which then fails the test
    if x.size and not (x.min() >= spec.lower and x.max() <= spec.upper):
        raise ValueError("genotypes out of bounds; clip before evaluating")

    if spec.name == "redundant_arm":
        heading = np.cumsum(x, axis=1)
        descriptors = np.stack(
            [np.mean(np.cos(heading), axis=1), np.mean(np.sin(heading), axis=1)], axis=1
        )
        fitness_raw = -np.var(x, axis=1)
    else:
        u = x - _SHIFT
        if spec.name == "sphere":
            terms = np.square(u, out=u)
        else:  # u * u - 10.0 * cos(2 pi u)
            wave = 2.0 * np.pi * u
            np.cos(wave, out=wave)
            wave *= 10.0
            terms = np.square(u, out=u)
            terms -= wave
            del wave  # freed before the fold allocates its result
        fitness_raw = -np.sum(terms, axis=1)
        if spec.name == "rastrigin_multi":
            descriptors = x[:, :2].copy()
        else:  # the projection descriptor, with the free u as scratch
            folded = _proj_fold(x, u)
            half = spec.dim // 2
            descriptors = np.stack(
                [np.sum(folded[:, :half], axis=1), np.sum(folded[:, half:], axis=1)], axis=1
            )

    span = spec.fitness_best_raw - spec.fitness_worst_raw
    fitness_norm = np.clip((fitness_raw - spec.fitness_worst_raw) / span, 0.0, 1.0)
    return fitness_raw, fitness_norm, descriptors

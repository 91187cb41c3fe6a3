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
from dataclasses import dataclass

import numpy as np

from qdpool.archive import GridSpec

TASK_NAMES = ("rastrigin_proj", "rastrigin_multi", "sphere", "redundant_arm")

_SHIFT = 2.048  # optimum location 0.4 * 5.12, per dimension
_REF_BOUND = 5.12  # reference hypercube half-width for normalization


@dataclass(frozen=True)
class TaskSpec:
    """Static description of one benchmark problem.

    Args:
        name: One of ``TASK_NAMES``.
        dim: Genotype dimensionality.
        lower: Per-dimension genotype lower bounds, shape ``(dim,)``.
        upper: Per-dimension genotype upper bounds.
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
    lower: np.ndarray
    upper: np.ndarray
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

    def grid(self) -> GridSpec:
        """The descriptor grid induced by this task's bounds and resolution."""
        return GridSpec(self.bd_lower, self.bd_upper, self.grid_resolution)


# Worst per-dimension Rastrigin term, max (x - 2.048)^2 - 10 cos(2 pi (x - 2.048))
# over x in [-5.12, 5.12]; it lies on an interior ripple near x = -4.49.  A literal
# keeps every normalized fitness independent of how a platform's cos rounds.
RASTRIGIN_PER_DIM_MAX = 52.46592046502607


def make_task(name: str, dim: int = 100, resolution=100, sigma0: float | None = None) -> TaskSpec:
    """Builds the :class:`TaskSpec` for a benchmark by name.

    Args:
        name: One of ``TASK_NAMES``.
        dim: Genotype dimensionality (default 100).
        resolution: Cells per descriptor axis; a scalar is used for both.
        sigma0: Override for the task's default initial step size.

    Returns:
        A fully populated, immutable task description.
    """
    if name not in TASK_NAMES:
        raise ValueError(f"unknown task {name!r}, expected one of {TASK_NAMES}")
    if dim < 2:
        raise ValueError("tasks need dim >= 2 (descriptors read two components)")
    resolution = np.broadcast_to(np.asarray(resolution, dtype=np.int64), (2,)).copy()
    if (resolution < 1).any():
        raise ValueError("resolution must be at least 1")
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
        lower=np.full(dim, -bounds),
        upper=np.full(dim, bounds),
        bd_lower=-bd,
        bd_upper=bd,
        grid_resolution=resolution,
        sigma0=s0 if sigma0 is None else float(sigma0),
        fitness_worst_raw=float(worst),
        fitness_best_raw=float(best),
    )


def clip_genotype(x: np.ndarray, spec: TaskSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Componentwise clamp of a genotype (or batch) into the search bounds,
    into ``out`` if given (which may be ``x`` itself), else into a new
    array.

    Raises:
        ValueError: If the input contains non-finite values; ``out`` is
            then left as it was.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("cannot clip a genotype with non-finite components")
    return np.clip(x, spec.lower, spec.upper, out=out)


def bd_proj_clip(x):
    """Soft clip used by the projection descriptor: identity inside
    [-5.12, 5.12], and ``5.12 / x`` outside (which folds far-away
    components into (-1, 1))."""
    x = np.asarray(x, dtype=float)
    folded = np.divide(_REF_BOUND, x, out=np.zeros_like(x), where=x != 0)
    out = np.where(np.abs(x) <= _REF_BOUND, x, folded)
    return out if out.ndim else float(out)


def evaluate_batch(genotypes: np.ndarray, spec: TaskSpec):
    """Evaluates a batch of in-bounds genotypes.

    It is one of the engine's per-generation hot paths (with the CMA-ES
    update and archive insertion; which one leads depends on the task and
    scale) and is pure numpy: no RNG, no shared state, safe to run on
    row-wise chunks from worker threads.

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
    if len(x) and not ((x >= spec.lower).all() and (x <= spec.upper).all()):
        raise ValueError("genotypes out of bounds; clip before evaluating")

    if spec.name in ("rastrigin_proj", "rastrigin_multi"):
        u = x - _SHIFT
        fitness_raw = -np.sum(u * u - 10.0 * np.cos(2.0 * np.pi * u), axis=1)
    elif spec.name == "sphere":
        u = x - _SHIFT
        fitness_raw = -np.sum(u * u, axis=1)
    else:  # redundant_arm
        heading = np.cumsum(x, axis=1)
        descriptors = np.stack(
            [np.mean(np.cos(heading), axis=1), np.mean(np.sin(heading), axis=1)], axis=1
        )
        fitness_raw = -np.var(x, axis=1)

    if spec.name == "rastrigin_multi":
        descriptors = x[:, :2].copy()
    elif spec.name in ("rastrigin_proj", "sphere"):
        clipped = bd_proj_clip(x)
        half = spec.dim // 2
        descriptors = np.stack(
            [np.sum(clipped[:, :half], axis=1), np.sum(clipped[:, half:], axis=1)], axis=1
        )

    span = spec.fitness_best_raw - spec.fitness_worst_raw
    fitness_norm = np.clip((fitness_raw - spec.fitness_worst_raw) / span, 0.0, 1.0)
    return fitness_raw, fitness_norm, descriptors

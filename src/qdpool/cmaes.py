"""Covariance Matrix Adaptation Evolution Strategy (CMA-ES).

A compact, self-contained implementation following Hansen's classic
default parameterization: log-decreasing positive recombination weights
over the best half of the population, cumulative step-size adaptation,
and a rank-1 plus rank-mu covariance update.  Rewards are maximized and
supplied by the caller, so the strategy can optimize arbitrary ranking
signals (fitness, archive improvement, descriptor-space projections)
rather than only a fixed objective.

The eigendecomposition of C is refreshed on every update; with the
dimensionalities used here (n <= 100) that costs far less than the
bookkeeping it removes.

Sampling is batched across strategies: :func:`ask_stacked` draws every
state's standard normals from that state's own generator, in the order
given, and transforms all of them with one ``(k, lam, n)`` matmul, which
gives the same bits as k separate transforms.  :meth:`CmaesState.ask` is
its batch of one.  Updates stay per state: at n = 100 a stacked ``eigh``
was not measurably faster and a stacked covariance update was slower.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class EmitterExhaustedError(RuntimeError):
    """Raised when a stopped strategy is asked for more samples."""


@dataclass(frozen=True)
class CmaesParams:
    """Strategy constants derived from the dimension and population size.

    All values follow the standard defaults: ``mu = lam // 2`` parents
    with weights proportional to ``ln(mu + 1/2) - ln(i)``.
    """

    dim: int
    lam: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float

    def __post_init__(self):
        if not 1 <= self.mu <= self.lam:
            raise ValueError("mu must satisfy 1 <= mu <= lam")
        w = self.weights
        if not (np.all(w > 0) and np.all(np.diff(w) <= 0) and abs(w.sum() - 1) < 1e-12):
            raise ValueError("weights must be positive, non-increasing, and sum to 1")
        for rate in (self.c_sigma, self.c_c, self.c_1):
            if not 0 < rate <= 1:
                raise ValueError("learning rates must lie in (0, 1]")
        # c_mu legitimately hits 0 when mu = 1 (the rank-mu term vanishes)
        if not 0 <= self.c_mu <= 1:
            raise ValueError("c_mu must lie in [0, 1]")
        if self.d_sigma < 1:
            raise ValueError("d_sigma must be >= 1")

    @classmethod
    @functools.cache
    def defaults(cls, dim: int, lam: int) -> "CmaesParams":
        """The default constants for ``(dim, lam)``, computed once per pair;
        every caller shares the returned object, whose ``weights`` array is
        read-only."""
        if dim < 1:
            raise ValueError("dim must be positive")
        if lam < 2:
            raise ValueError("population size must be at least 2")
        mu = lam // 2
        raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        weights = raw / raw.sum()
        weights.flags.writeable = False
        mu_eff = 1.0 / float(np.sum(weights**2))
        c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
        d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) + c_sigma
        c_c = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
        c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
        c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff))
        chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim**2))
        return cls(dim, lam, mu, weights, mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n)

    @property
    def reward_history_window(self) -> int:
        """Generations of best-reward history kept for the TolFun check."""
        return 10 + math.ceil(30.0 * self.dim / self.lam)


class CmaesState:
    """Mutable distribution state with ``ask`` / ``tell`` / ``should_stop``.

    The sampling distribution is ``N(mean, sigma^2 C)`` with the cached
    decomposition ``C = B diag(D^2) B^T``.  One instance is confined to a
    single emitter; it is never mutated concurrently.
    """

    def __init__(self, mean0, sigma0: float, lam: int):
        mean0 = np.array(mean0, dtype=float)
        if mean0.ndim != 1 or not np.isfinite(mean0).all():
            raise ValueError("mean0 must be a finite 1-D vector")
        if sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        self.params = CmaesParams.defaults(len(mean0), lam)
        self.mean = mean0
        self.sigma = float(sigma0)
        self.sigma0 = float(sigma0)
        n = self.params.dim
        self.C = np.eye(n)
        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        self.B = np.eye(n)
        self.D = np.ones(n)
        self.generation_count = 0
        self.best_reward_history: deque[float] = deque(maxlen=self.params.reward_history_window)
        # (generation_count, sigma, reason) of the criteria checked by the
        # last tell; see should_stop
        self._told: tuple[int, float, str | None] | None = None

    def ask(self, rng: np.random.Generator) -> np.ndarray:
        """Draws ``lam`` samples from the current distribution: the batch of
        one of :func:`ask_stacked`.

        Samples are returned unclipped; callers clamp to their search
        bounds before evaluation but feed the raw samples back to
        :meth:`tell`.

        Raises:
            EmitterExhaustedError: If a stop criterion currently holds.
        """
        return ask_stacked([self], [rng])[0]

    def tell(self, samples: np.ndarray, rewards) -> None:
        """Updates the distribution from evaluated samples (larger reward
        is better).

        Ranking uses a stable sort on the negated rewards, so ties are
        broken by sample position and the update is deterministic.
        """
        p = self.params
        samples = np.asarray(samples, dtype=float)
        rewards = np.asarray(rewards, dtype=float)
        if samples.shape != (p.lam, p.dim) or rewards.shape != (p.lam,):
            raise ValueError(
                f"expected {(p.lam, p.dim)} samples with {p.lam} rewards, "
                f"got {samples.shape} and {rewards.shape}"
            )
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")

        self.generation_count += 1
        order = np.argsort(-rewards, kind="stable")
        parents = samples[order[: p.mu]]

        old_mean = self.mean
        self.mean = p.weights @ parents
        y_w = (self.mean - old_mean) / self.sigma

        # cumulative step-size adaptation in the isotropic coordinate system
        c_inv_sqrt_y = self.B @ ((self.B.T @ y_w) / self.D)
        self.p_sigma = (1.0 - p.c_sigma) * self.p_sigma + math.sqrt(
            p.c_sigma * (2.0 - p.c_sigma) * p.mu_eff
        ) * c_inv_sqrt_y
        norm_p_sigma = float(np.linalg.norm(self.p_sigma))
        h_sigma = norm_p_sigma / math.sqrt(
            1.0 - (1.0 - p.c_sigma) ** (2 * self.generation_count)
        ) < (1.4 + 2.0 / (p.dim + 1.0)) * p.chi_n

        self.p_c = (1.0 - p.c_c) * self.p_c + h_sigma * math.sqrt(
            p.c_c * (2.0 - p.c_c) * p.mu_eff
        ) * y_w

        y = (parents - old_mean) / self.sigma
        rank_mu = (y.T * p.weights) @ y
        # C' = a C + c_1 (p_c p_c^T + [not h_sigma] c_c (2 - c_c) C) + c_mu rank_mu,
        # built in place in that association order; the bracketed term
        # compensates the variance lost when the rank-1 path update is
        # gated off
        rank_one = np.outer(self.p_c, self.p_c)
        if not h_sigma:
            rank_one += p.c_c * (2.0 - p.c_c) * self.C
        rank_one *= p.c_1
        c_new = (1.0 - p.c_1 - p.c_mu) * self.C
        c_new += rank_one
        rank_mu *= p.c_mu
        c_new += rank_mu
        self.C = c_new + c_new.T
        self.C /= 2.0

        self.sigma *= math.exp((p.c_sigma / p.d_sigma) * (norm_p_sigma / p.chi_n - 1.0))

        eigenvalues, self.B = np.linalg.eigh(self.C)
        self.D = np.sqrt(np.maximum(eigenvalues, 0.0))
        self.best_reward_history.append(float(np.max(rewards)))
        self._told = (self.generation_count, self.sigma, self._stop_reason())

    def should_stop(self) -> str | None:
        """The first of the five restart criteria that holds, or None.

        While ``generation_count`` and ``sigma`` are as the last ``tell``
        left them, this returns the reason that ``tell`` computed, so the
        check after an update and the guard of the next
        :func:`ask_stacked` share one evaluation.  Otherwise (a state
        never told, or one whose ``sigma`` or ``generation_count`` was
        set since) the criteria are evaluated on the live state.  The
        other fields they read change only through ``tell``.
        """
        told = self._told
        if told is not None and told[0] == self.generation_count and told[1] == self.sigma:
            return told[2]
        return self._stop_reason()

    def _stop_reason(self) -> str | None:
        """Evaluates the five restart criteria, always in the order below,
        against the live state.

        Returns:
            The name of the first criterion that holds, or None.
        """
        d_min, d_max = float(self.D.min()), float(self.D.max())
        if d_min == 0.0 or (d_max / d_min) ** 2 > 1e14:
            return "condition"
        if self.sigma * d_max < 1e-12 * self.sigma0:
            return "tol_x"
        history = self.best_reward_history
        if len(history) == history.maxlen and max(history) - min(history) < 1e-12:
            return "tol_fun"
        axis = self.generation_count % self.params.dim
        step = 0.1 * self.sigma * self.D[axis] * self.B[:, axis]
        if np.array_equal(self.mean + step, self.mean):
            return "no_effect_axis"
        step = 0.2 * self.sigma * np.sqrt(np.diag(self.C))
        if np.any(self.mean + step == self.mean):
            return "no_effect_coord"
        return None


def ask_stacked(states: Sequence[CmaesState], rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Draws one ``lam``-sample batch from each state, as a ``(k, lam, n)``
    stack whose slice ``i`` equals ``states[i].ask(rngs[i])`` bit for bit.

    Each state draws from its own generator, in the order given.  All
    states must share ``dim`` and ``lam``.

    Raises:
        EmitterExhaustedError: If a stop criterion holds for any state.
    """
    for state in states:
        reason = state.should_stop()
        if reason is not None:
            raise EmitterExhaustedError(f"strategy already stopped ({reason})")
    z = np.empty((len(states), states[0].params.lam, states[0].params.dim))
    for z_i, rng in zip(z, rngs):
        rng.standard_normal(out=z_i)
    z *= np.stack([state.D for state in states])[:, None, :]
    steps = z @ np.stack([state.B for state in states]).transpose(0, 2, 1)
    steps *= np.array([state.sigma for state in states])[:, None, None]
    steps += np.stack([state.mean for state in states])[:, None, :]
    return steps

"""Covariance Matrix Adaptation Evolution Strategy (CMA-ES).

A compact, self-contained implementation following Hansen's classic
default parameterization: log-decreasing positive recombination weights
over the best half of the population, cumulative step-size adaptation,
and a rank-1 plus rank-mu covariance update.  Rewards are maximized and
supplied by the caller, so the strategy can optimize arbitrary ranking
signals (fitness, archive improvement, descriptor-space projections)
rather than only a fixed objective.

Every update refreshes the lower Cholesky factor A of ``C = A A^T``
(Suttorp, Hansen & Igel 2009), which samples ``m + sigma A z``; the
restart criteria read A and C, never eigenvalues.  A sampled state keeps
its batch, the samples with the normals ``z`` that drew them, until
:meth:`CmaesState.tell` consumes it with the rewards.  The whitened mean
shift ``A^-1 y_w`` is then the weighted sum of the parents' normals
(Hansen 2016, arXiv 1604.00772), so an update makes one LAPACK call,
``cholesky``, and no solve.

Sampling is batched across strategies: :func:`ask_stacked` draws every
state's standard normals from that state's own generator, in the order
given, and transforms all of them with one ``(k, lam, n)`` matmul, which
gives the same bits as k separate transforms.  :meth:`CmaesState.ask` is
its batch of one.  Updates stay per state: at n = 100 a stacked
covariance update was slower than separate ones.

:meth:`CmaesState.should_stop` evaluates the restart criteria on the
live state, and :meth:`CmaesState.tell` returns its answer for the
updated state.  Sampling never reads them: as in the usual ``while not
es.stop(): ask/tell`` loop, stopping is the caller's call.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
    lower Cholesky factor ``A`` of ``C = A A^T``; ``A`` is NaN when ``C``
    has no Cholesky factor.  ``pending`` holds the batch of the last
    ``ask``, ``(samples, normals)`` with ``samples = mean + sigma *
    normals @ A^T`` row by row, until ``tell`` consumes it, and is None
    otherwise.  One instance is confined to a single emitter; it is never
    mutated concurrently.
    """

    def __init__(self, mean0, sigma0: float, lam: int):
        mean0 = np.array(mean0, dtype=float)
        if mean0.ndim != 1 or not np.isfinite(mean0).all():
            raise ValueError("mean0 must be a finite 1-D vector")
        if not 0 < sigma0 < math.inf:
            raise ValueError("sigma0 must be positive and finite")
        self.params = CmaesParams.defaults(len(mean0), lam)
        self.mean = mean0
        self.sigma = float(sigma0)
        self.sigma0 = float(sigma0)
        n = self.params.dim
        self.C = np.eye(n)
        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        self.A = np.eye(n)
        self.generation_count = 0
        self.best_reward_history: deque[float] = deque(maxlen=self.params.reward_history_window)
        self.pending: tuple[np.ndarray, np.ndarray] | None = None

    def ask(self, rng: np.random.Generator) -> np.ndarray:
        """Draws ``lam`` samples from the current distribution: the batch of
        one of :func:`ask_stacked`.

        The samples are returned unclipped, and the returned array is the
        one the state keeps for :meth:`tell`: callers clamp a copy to
        their search bounds before evaluation.  The state is sampled
        whatever :meth:`should_stop` says; stopping is the caller's call.
        """
        ask_stacked([self], [rng])
        return self.pending[0]

    @np.errstate(over="ignore", invalid="ignore")
    def tell(self, rewards) -> str | None:
        """Updates the distribution from the rewards of the pending batch,
        one per sample in sample order (larger is better), consumes that
        batch, and returns :meth:`should_stop` of the updated state.

        Ranking uses a stable sort on the negated rewards, so ties are
        broken by sample position and the update is deterministic.  The
        evolution path ``p_sigma`` is whitened with the weighted normals
        of the parents, which equal ``A^-1 y_w`` for the factor ``A``
        that drew them.  Non-finite parents (a step that overflowed in
        :func:`ask_stacked`) give a non-finite update without a floating
        point warning, which :meth:`should_stop` reports as ``numerical``.

        Raises:
            RuntimeError: If no batch is pending.
            ValueError: If the rewards are not ``lam`` finite values; the
                batch then stays pending.
        """
        p = self.params
        if self.pending is None:
            raise RuntimeError("tell called without a pending batch from ask")
        rewards = np.asarray(rewards, dtype=float)
        if rewards.shape != (p.lam,):
            raise ValueError(f"expected {p.lam} rewards, got shape {rewards.shape}")
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")
        (samples, normals), self.pending = self.pending, None

        self.generation_count += 1
        best = np.argsort(-rewards, kind="stable")[: p.mu]
        parents = samples[best]

        old_mean = self.mean
        self.mean = p.weights @ parents
        y_w = (self.mean - old_mean) / self.sigma

        # cumulative step-size adaptation in the isotropic coordinate system
        self.p_sigma = (1.0 - p.c_sigma) * self.p_sigma + math.sqrt(
            p.c_sigma * (2.0 - p.c_sigma) * p.mu_eff
        ) * (p.weights @ normals[best])
        norm_p_sigma = math.sqrt(self.p_sigma.dot(self.p_sigma))  # what np.linalg.norm computes
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
        rank_one = self.p_c[:, None] * self.p_c  # what np.outer computes
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

        try:
            self.A = np.linalg.cholesky(self.C)
        except np.linalg.LinAlgError:  # C is not positive definite
            self.A = np.full_like(self.C, np.nan)
        self.best_reward_history.append(float(rewards.max()))
        return self.should_stop()

    def should_stop(self) -> str | None:
        """Evaluates the restart criteria, always in the order below,
        against the live state, with ``g`` the generation count and ``n``
        the dimension:

        - ``numerical``: ``mean``, ``sigma`` or ``A`` is not finite, which
          includes a ``C`` with no Cholesky factor;
        - ``condition``: ``(max A_ii / min A_ii)^2 > 1e14`` or
          ``min A_ii == 0``.  Since ``lambda_min(C) <= A_ii^2 <=
          lambda_max(C)``, the ratio is a lower bound on cond(C);
        - ``tol_x``: ``sigma * sqrt(max_i C_ii) < 1e-12 * sigma0``;
        - ``tol_fun``: the best-reward window is full and spans less than
          1e-12;
        - ``no_effect_axis``: adding ``0.1 * sigma * A[:, g mod n]`` leaves
          the mean unchanged;
        - ``no_effect_coord``: adding ``0.2 * sigma * sqrt(C_ii)`` leaves
          some coordinate ``i`` of the mean unchanged.

        Returns:
            The name of the first criterion that holds, or None.
        """
        finite = np.isfinite(self.A).all() and np.isfinite(self.mean).all()
        if not (finite and math.isfinite(self.sigma)):
            return "numerical"
        a_diag = self.A.diagonal()
        a_min, a_max = float(a_diag.min()), float(a_diag.max())
        if a_min == 0.0 or (a_max / a_min) ** 2 > 1e14:
            return "condition"
        c_diag = self.C.diagonal()
        if self.sigma * math.sqrt(float(c_diag.max())) < 1e-12 * self.sigma0:
            return "tol_x"
        history = self.best_reward_history
        if len(history) == history.maxlen and max(history) - min(history) < 1e-12:
            return "tol_fun"
        axis = self.generation_count % self.params.dim
        step = 0.1 * self.sigma * self.A[:, axis]
        if ((self.mean + step) == self.mean).all():
            return "no_effect_axis"
        step = 0.2 * self.sigma * np.sqrt(c_diag)
        if (self.mean + step == self.mean).any():
            return "no_effect_coord"
        return None


def ask_stacked(states: Sequence[CmaesState], rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Draws one ``lam``-sample batch from each state, as a ``(k, lam, n)``
    stack whose slice ``i`` equals ``states[i].ask(rngs[i])`` bit for bit.

    Each state draws from its own generator, in the order given, and
    keeps its slices of the samples and of the normals as its
    ``pending`` batch, replacing any batch not yet told; the samples are
    views into the returned stack.  All states must share ``dim`` and
    ``lam``.  Each state is sampled whatever its restart criteria say;
    stopping is the caller's call.  A sample too large for a float (a
    huge ``sigma`` or ``mean``) becomes infinite without a warning, and
    never NaN while the state is finite; an infinite parent makes the
    next ``tell`` report ``numerical``.
    """
    z = np.empty((len(states), states[0].params.lam, states[0].params.dim))
    for z_i, rng in zip(z, rngs):
        rng.standard_normal(out=z_i)
    steps = z @ np.stack([state.A for state in states]).transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        steps *= np.array([state.sigma for state in states])[:, None, None]
        steps += np.stack([state.mean for state in states])[:, None, :]
    for state, samples, normals in zip(states, steps, z):
        state.pending = (samples, normals)
    return steps

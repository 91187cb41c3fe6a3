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
(Hansen 2016, arXiv 1604.00772), so an update factors each ``C`` once,
with LAPACK's ``cholesky``, and solves nothing.

``ask``, ``tell`` and ``should_stop`` are static methods over a family
of states that share ``dim`` and ``lam``, as an emitter family generates
together; a batch of one is ``CmaesState.tell([state], [rewards])[0]``.
:meth:`CmaesState.ask` draws every state's standard normals from that
state's own generator, in the order given, and transforms all of them
with one ``(k, lam, n)`` matmul.  :meth:`CmaesState.tell` updates the
family with one stacked op per step; above :data:`STACKED_UPDATE_MAX_DIM`,
where stacked ``n x n`` temporaries cost more than the calls they save,
it updates the covariance matrices one state at a time.  Every path
gives each state the bits that it alone would get.

:meth:`CmaesState.should_stop` evaluates the restart criteria on the
live states in one pass over the family, and :meth:`CmaesState.tell`
returns its answer for the updated states.  Sampling never reads them:
as in the usual ``while not es.stop(): ask/tell`` loop, stopping is the
caller's call.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qdpool._counts import count


@dataclass(frozen=True, eq=False)
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

    @classmethod
    @functools.cache
    def defaults(cls, dim: int, lam: int) -> "CmaesParams":
        """The default constants for ``(dim, lam)``, computed once per pair;
        every caller shares the returned object, whose ``weights`` array is
        read-only."""
        dim, lam = count("dim", dim, 1), count("lam", lam, 2)
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
    """Mutable distribution state, asked, told and checked by the family
    operations ``ask`` / ``tell`` / ``should_stop``.

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
        # checked before the cache, which answers lam=4.0 with lam=4's entry
        self.params = CmaesParams.defaults(len(mean0), count("lam", lam, 2))
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

    @staticmethod
    def ask(states: Sequence["CmaesState"], rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Draws one ``lam``-sample batch from each state of a family, as a
        ``(k, lam, n)`` stack whose slice ``i`` is ``states[i]``'s batch.

        Each state draws its standard normals from its own generator, in
        the order given, and all of them are transformed with one ``(k,
        lam, n)`` matmul, which gives the same bits as k separate
        transforms.  Each state keeps its slices of the samples and of the
        normals as its ``pending`` batch, replacing any batch not yet told;
        the samples are views into the returned stack, which callers clamp
        a copy of before evaluation.  Each state is sampled whatever its
        restart criteria say; stopping is the caller's call.  A sample too
        large for a float (a huge ``sigma`` or ``mean``) becomes infinite
        without a warning, and never NaN while the state is finite; an
        infinite parent makes the next :meth:`tell` report ``numerical``.
        A non-finite state (``A`` or ``mean`` holding ±inf or NaN) is
        sampled without a warning too, but may give NaN samples, which
        :func:`~qdpool.tasks.clip_genotype` refuses.
        """
        p = _family_params(states)
        z = np.empty((len(states), p.lam, p.dim))
        for z_i, rng in zip(z, rngs):
            rng.standard_normal(out=z_i)
        with np.errstate(over="ignore", invalid="ignore"):
            steps = z @ _stack([state.A for state in states]).transpose(0, 2, 1)
            steps *= np.array([state.sigma for state in states])[:, None, None]
            steps += _stack([state.mean for state in states])[:, None, :]
        for state, samples, normals in zip(states, steps, z):
            state.pending = (samples, normals)
        return steps

    @staticmethod
    @np.errstate(over="ignore", invalid="ignore")
    def tell(states: Sequence["CmaesState"], rewards) -> list[str | None]:
        """Updates each state of a family from the rewards of its pending
        batch, ``rewards[i]`` holding one value per sample of
        ``states[i]`` in sample order (larger is better), consumes those
        batches, and returns :meth:`should_stop` of the updated states.

        Ranking uses a stable sort on the negated rewards, so ties are
        broken by sample position and the update is deterministic.  The
        evolution path ``p_sigma`` is whitened with the weighted normals
        of the parents, which equal ``A^-1 y_w`` for the factor ``A``
        that drew them.  The family is updated with one stacked op per
        step, except the covariance matrices above
        :data:`STACKED_UPDATE_MAX_DIM`, which are updated one state at a
        time.  Either way every state gets the bits that it alone would
        get.  Non-finite parents (a step that overflowed in
        :meth:`ask`) give a non-finite update without a floating point
        warning, and a ``C`` with no Cholesky factor a NaN ``A``, both of
        which :meth:`should_stop` reports as ``numerical``.

        Raises:
            RuntimeError: If a state has no pending batch.
            ValueError: If the states do not share ``dim`` and ``lam``, or
                some state's rewards are not ``lam`` finite values.  Every
                check runs before any update, so a failed call leaves
                every state as it was.
        """
        p = _family_params(states)
        if len(rewards) != len(states):
            raise ValueError(f"expected rewards for {len(states)} states, got {len(rewards)}")
        rewards = [np.asarray(r, dtype=float) for r in rewards]
        for state, r in zip(states, rewards):
            if state.pending is None:
                raise RuntimeError("tell called without a pending batch from ask")
            if r.shape != (p.lam,):
                raise ValueError(f"expected {p.lam} rewards, got shape {r.shape}")
        rewards = np.array(rewards)
        if not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")
        _update(states, rewards)
        return CmaesState.should_stop(states)

    @staticmethod
    @np.errstate(over="ignore", invalid="ignore")
    def should_stop(states: Sequence["CmaesState"]) -> list[str | None]:
        """Evaluates the restart criteria of each state of a family,
        always in the order below, against the live state, with ``g`` its
        generation count and ``n`` the dimension:

        - ``numerical``: ``mean``, ``sigma`` or ``A`` is not finite, which
          includes a ``C`` with no Cholesky factor.  Only the diagonal of
          ``A`` is read: every entry of row ``i`` of a Cholesky factor
          enters ``A_ii = sqrt(C_ii - sum_{k<i} A_ik^2)``, and a ``C`` that
          LAPACK refuses gets an all-NaN ``A``, so ``A`` has a non-finite
          entry exactly when its diagonal has one;
        - ``condition``: ``|max A_ii / min A_ii| > 1e7`` or
          ``min A_ii == 0``.  Since ``lambda_min(C) <= A_ii^2 <=
          lambda_max(C)``, the squared ratio, which exceeds 1e14 exactly
          when the ratio exceeds 1e7, is a lower bound on cond(C);
        - ``tol_x``: ``sigma * sqrt(max_i C_ii) < 1e-12 * sigma0``;
        - ``tol_fun``: the best-reward window is full and spans less than
          1e-12;
        - ``no_effect_axis``: adding ``0.1 * sigma * A[:, g mod n]`` leaves
          the mean unchanged;
        - ``no_effect_coord``: adding ``0.2 * sigma * sqrt(C_ii)`` leaves
          some coordinate ``i`` of the mean unchanged.

        Returns:
            For each state, the name of the first criterion that holds, or
            None.
        """
        p = _family_params(states)
        mean = _stack([state.mean for state in states])
        sigma = np.array([state.sigma for state in states])
        a_diag = _stack([state.A.diagonal() for state in states])
        finite = (np.isfinite(a_diag).all(axis=1) & np.isfinite(mean).all(axis=1) & np.isfinite(sigma)).tolist()
        a_min, a_max = a_diag.min(axis=1).tolist(), a_diag.max(axis=1).tolist()
        c_diag = _stack([state.C.diagonal() for state in states])
        sigma0 = np.array([state.sigma0 for state in states])
        tol_x = (sigma * np.sqrt(c_diag.max(axis=1)) < 1e-12 * sigma0).tolist()
        a_axis = _stack([state.A[:, state.generation_count % p.dim] for state in states])
        step = (0.1 * sigma)[:, None] * a_axis
        no_effect_axis = ((mean + step) == mean).all(axis=1).tolist()
        step = (0.2 * sigma)[:, None] * np.sqrt(c_diag)
        no_effect_coord = (mean + step == mean).any(axis=1).tolist()

        reasons = []
        for i, state in enumerate(states):
            history = state.best_reward_history
            if not finite[i]:
                reasons.append("numerical")
            elif a_min[i] == 0.0 or abs(a_max[i] / a_min[i]) > 1e7:
                reasons.append("condition")
            elif tol_x[i]:
                reasons.append("tol_x")
            elif len(history) == history.maxlen and max(history) - min(history) < 1e-12:
                reasons.append("tol_fun")
            elif no_effect_axis[i]:
                reasons.append("no_effect_axis")
            elif no_effect_coord[i]:
                reasons.append("no_effect_coord")
            else:
                reasons.append(None)
        return reasons


# Largest dimension at which CmaesState.tell stacks a family's n x n
# matrices; above it the stacked temporaries fall out of cache, so the
# matrices are updated one state at a time.
# Measured crossover for 9 states of 50 samples: about n = 29.
STACKED_UPDATE_MAX_DIM = 28


def _family_params(states: Sequence[CmaesState]) -> CmaesParams:
    """The constants that every state of a family shares."""
    p = states[0].params
    if any((state.params.dim, state.params.lam) != (p.dim, p.lam) for state in states):
        raise ValueError("a family's states must share dim and lam")
    return p


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new first axis (``np.array`` copies a list
    of small arrays faster than ``np.stack``), or a view of a single
    array."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _rows(stack: np.ndarray) -> list[np.ndarray]:
    """The slices of ``stack`` as arrays of their own, so that no state
    keeps a family's whole stack alive; a stack of one is its own slice."""
    return list(stack) if len(stack) == 1 else [row.copy() for row in stack]


def _update(states: Sequence[CmaesState], rewards: np.ndarray) -> None:
    """The distribution update of :meth:`CmaesState.tell` for checked
    states and their ``(k, lam)`` rewards.  The ranking and the
    element-wise vector steps are stacked over the family; the covariance
    update and its factor (:func:`_covariance`) are stacked too up to
    :data:`STACKED_UPDATE_MAX_DIM`, and made one state at a time above
    it.  The parents' weighted sums, the path norm, ``h_sigma`` and the
    step size stay per state, since stacking those BLAS and libm calls
    could move their bits."""
    p = states[0].params
    old_mean = _stack([state.mean for state in states])
    sigma = np.array([state.sigma for state in states])
    parents, means, z_w = [], [], []
    ranked = np.argsort(-rewards, axis=1, kind="stable")[:, : p.mu]
    for state, best, best_reward in zip(states, ranked, rewards.max(axis=1).tolist()):
        (samples, normals), state.pending = state.pending, None
        state.generation_count += 1
        parents.append(samples[best])
        means.append(p.weights @ parents[-1])
        z_w.append(p.weights @ normals[best])
        state.best_reward_history.append(best_reward)
    y_w = (_stack(means) - old_mean) / sigma[:, None]

    # cumulative step-size adaptation in the isotropic coordinate system
    p_sigma = (1.0 - p.c_sigma) * _stack([state.p_sigma for state in states]) + math.sqrt(
        p.c_sigma * (2.0 - p.c_sigma) * p.mu_eff
    ) * _stack(z_w)
    norms = [math.sqrt(row.dot(row)) for row in p_sigma]  # what np.linalg.norm computes
    h_sigma = [
        norm / math.sqrt(1.0 - (1.0 - p.c_sigma) ** (2 * state.generation_count))
        < (1.4 + 2.0 / (p.dim + 1.0)) * p.chi_n
        for norm, state in zip(norms, states)
    ]

    c_gain = math.sqrt(p.c_c * (2.0 - p.c_c) * p.mu_eff)
    p_c = (1.0 - p.c_c) * _stack([state.p_c for state in states]) + np.array(
        [h * c_gain for h in h_sigma]
    )[:, None] * y_w

    # above the threshold, each state's matrices are replaced before the
    # next state's are built, so the freed ones are reused while in cache
    group = len(states) if p.dim <= STACKED_UPDATE_MAX_DIM else 1
    for lo in range(0, len(states), group):
        chunk = slice(lo, lo + group)
        c, a = _covariance(
            p, _stack([state.C for state in states[chunk]]), p_c[chunk], _stack(parents[chunk]),
            old_mean[chunk], sigma[chunk], h_sigma[chunk],
        )
        for state, c_i, a_i in zip(states[chunk], _rows(c), _rows(a)):
            state.C, state.A = c_i, a_i

    for state, mean, ps, pc, norm in zip(states, means, _rows(p_sigma), _rows(p_c), norms):
        state.mean, state.p_sigma, state.p_c = mean, ps, pc
        state.sigma *= math.exp((p.c_sigma / p.d_sigma) * (norm / p.chi_n - 1.0))


def _covariance(p: CmaesParams, c, p_c, parents, old_mean, sigma, h_sigma) -> tuple[np.ndarray, np.ndarray]:
    """The updated covariance matrices of a stack of states, from their
    ``C``, updated ``p_c``, ``(k, mu, n)`` parents, old means, step sizes
    and ``h_sigma``, and their lower Cholesky factors; a ``C`` with no
    factor gets a NaN one, and only that state."""
    y = (parents - old_mean[:, None, :]) / sigma[:, None, None]
    rank_mu = (y.transpose(0, 2, 1) * p.weights) @ y
    # C' = a C + c_1 (p_c p_c^T + [not h_sigma] c_c (2 - c_c) C) + c_mu rank_mu,
    # built in place in that association order; the bracketed term
    # compensates the variance lost when the rank-1 path update is
    # gated off
    rank_one = p_c[:, :, None] * p_c[:, None, :]  # what np.outer computes
    for rank_one_i, c_i, h in zip(rank_one, c, h_sigma):
        if not h:
            rank_one_i += p.c_c * (2.0 - p.c_c) * c_i
    rank_one *= p.c_1
    c_new = (1.0 - p.c_1 - p.c_mu) * c
    c_new += rank_one
    rank_mu *= p.c_mu
    c_new += rank_mu
    c = c_new + c_new.transpose(0, 2, 1)
    c /= 2.0

    try:
        a = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:  # some C is not positive definite: factor each alone
        a = np.empty_like(c)
        for c_i, a_i in zip(c, a):
            try:
                a_i[...] = np.linalg.cholesky(c_i)
            except np.linalg.LinAlgError:
                a_i[...] = np.nan
    return c, a

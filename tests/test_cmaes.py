"""CMA-ES unit tests: parameter formulas, sampling statistics, update
semantics, convergence oracle, and stop criteria."""

import copy
import dataclasses
import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qdpool import cmaes
from qdpool.cmaes import CmaesParams, CmaesState


class TestParams:
    def test_mu_is_half_lambda(self):
        assert CmaesParams.defaults(10, 50).mu == 25
        assert CmaesParams.defaults(10, 7).mu == 3

    def test_weights_formula_oracle_mu2(self):
        # direct evaluation of w_i ~ ln(mu + 1/2) - ln(i), normalized
        params = CmaesParams.defaults(5, 4)
        raw = [math.log(2.5) - math.log(1), math.log(2.5) - math.log(2)]
        expected = np.array(raw) / sum(raw)
        np.testing.assert_allclose(params.weights, expected, rtol=1e-14)
        assert params.weights[0] > params.weights[1] > 0
        assert params.weights.sum() == pytest.approx(1.0)

    def test_invariants_hold_across_shapes(self):
        for dim, lam in [(1, 2), (2, 4), (3, 3), (10, 10), (20, 50), (100, 50)]:
            p = CmaesParams.defaults(dim, lam)
            assert 1 <= p.mu <= lam
            assert np.all(p.weights > 0) and np.all(np.diff(p.weights) <= 0)
            assert abs(p.weights.sum() - 1) < 1e-12
            assert p.mu_eff == pytest.approx(1.0 / np.sum(p.weights**2))
            for rate in (p.c_sigma, p.c_c, p.c_1):
                assert 0 < rate <= 1
            # c_mu is 0 when mu = 1: the rank-mu term vanishes
            assert 0 < p.c_mu <= 1 if p.mu > 1 else p.c_mu == 0
            assert p.d_sigma >= 1
            assert p.chi_n == pytest.approx(
                math.sqrt(dim) * (1 - 1 / (4 * dim) + 1 / (21 * dim**2))
            )

    def test_defaults_are_computed_once_and_read_only(self):
        params = CmaesParams.defaults(20, 50)
        assert CmaesParams.defaults(20, 50) is params
        assert CmaesState(np.zeros(20), sigma0=0.5, lam=50).params is params
        assert not params.weights.flags.writeable
        with pytest.raises(ValueError):
            params.weights[0] = 0.0

    def test_params_compare_and_hash_by_identity(self):
        """``weights`` has no truth value, so a generated ``==`` could only
        raise; identity gives a bool, and a hash."""
        defaults = CmaesParams.defaults(5, 10)
        params, twin = (dataclasses.replace(defaults, weights=defaults.weights.copy()) for _ in range(2))
        assert (params == twin, params == params) == (False, True)
        assert hash(params) != hash(twin)

    def test_reward_history_window(self):
        assert CmaesParams.defaults(10, 10).reward_history_window == 10 + 30
        assert CmaesParams.defaults(20, 50).reward_history_window == 10 + 12

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CmaesState(np.zeros(3), sigma0=0.0, lam=10)
        with pytest.raises(ValueError):
            CmaesState(np.zeros(3), sigma0=0.5, lam=1)
        with pytest.raises(ValueError):
            CmaesState(np.array([np.nan, 0.0]), sigma0=0.5, lam=4)

    @pytest.mark.parametrize(
        "name, build",
        [
            ("lam", lambda v: CmaesState(np.zeros(3), 0.5, v).params),
            ("lam", lambda v: CmaesParams.defaults(3, v)),
            ("dim", lambda v: CmaesParams.defaults(v, 6)),
        ],
        ids=["state-lam", "defaults-lam", "defaults-dim"],
    )
    def test_counts_are_ints_or_refused_by_name(self, name, build):
        """``CmaesState(np.zeros(3), 0.5, 4.5)`` used to be accepted and to
        sample with a float population."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 4.5$"):
            build(4.5)
        params = build(np.int64(4))
        assert type(getattr(params, name)) is int and getattr(params, name) == 4

    def test_lam_is_checked_before_the_cache(self):
        """``defaults`` caches by value and ``4.0 == 4``, so after
        ``defaults(3, 4)`` a check inside it would not see ``lam=4.0``."""
        CmaesParams.defaults(3, 4)
        with pytest.raises(ValueError, match="^lam must be an integer, got 4.0$"):
            CmaesState(np.zeros(3), 0.5, 4.0)

    @pytest.mark.parametrize(
        "cold, message",
        [((3, 4.0), "lam must be an integer, got 4.0"), ((3.0, 4), "dim must be an integer, got 3.0")],
        ids=["lam", "dim"],
    )
    def test_defaults_refuses_a_float_count_after_its_int_is_cached(self, cold, message):
        """``defaults(3, 4.0)`` used to return ``defaults(3, 4)``'s cached
        entry once that existed, and to be refused on a cold cache."""
        CmaesParams.defaults(3, 4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            CmaesParams.defaults(*cold)


def test_init_state_is_definitional():
    state = CmaesState(np.array([1.0, 1.0]), sigma0=0.5, lam=10)
    np.testing.assert_array_equal(state.C, np.eye(2))
    np.testing.assert_array_equal(state.p_sigma, np.zeros(2))
    np.testing.assert_array_equal(state.p_c, np.zeros(2))
    np.testing.assert_array_equal(state.A, np.eye(2))
    assert state.sigma == 0.5
    assert state.generation_count == 0
    assert CmaesState.should_stop([state])[0] is None


def test_ask_length_and_sampling_statistics():
    n, draws = 4, 100_000
    state = CmaesState(np.zeros(n), sigma0=0.5, lam=draws)
    rng = np.random.default_rng(123)
    samples = CmaesState.ask([state], [rng])[0]
    assert samples.shape == (draws, n)
    target = 0.25 * np.eye(n)
    cov = np.cov(samples.T, bias=True)
    rel_err = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert rel_err < 0.05
    # CLT bound: per-coordinate sd is 0.5
    np.testing.assert_allclose(samples.mean(axis=0), 0.0, atol=5 * 0.5 / math.sqrt(draws))


def test_ask_respects_nondiagonal_covariance():
    a = np.array([[2.0, 0.5], [0.0, 1.0]])
    target_c = a @ a.T
    state = CmaesState(np.zeros(2), sigma0=1.0, lam=200_000)
    state.C = target_c.copy()
    state.A = np.linalg.cholesky(state.C)
    samples = CmaesState.ask([state], [np.random.default_rng(7)])[0]
    cov = np.cov(samples.T, bias=True)
    rel_err = np.linalg.norm(cov - target_c) / np.linalg.norm(target_c)
    assert rel_err < 0.05


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(["A", "mean"]),
    poison=st.sampled_from([math.inf, -math.inf, math.nan]),
    entries=st.integers(1, 3),
)
def test_ask_samples_a_non_finite_state_without_a_warning(n, seed, field, poison, entries):
    """Each state is sampled whatever its criteria say, also one whose
    ``A`` or ``mean`` holds ±inf or NaN: ``ask`` raises no floating point
    warning (the suite's filter makes one an error) and gives
    ``mean + sigma * z A^T``, NaN where that is NaN, and the finite state
    beside it the bits that it alone would get."""
    rng = np.random.default_rng(seed)
    states = [CmaesState(rng.normal(size=n), sigma0=0.5, lam=6) for _ in range(2)]
    getattr(states[0], field).flat[rng.integers(n * n if field == "A" else n, size=entries)] = poison
    samples = CmaesState.ask(states, [np.random.default_rng([seed, i]) for i in range(2)])
    z = np.random.default_rng([seed, 0]).standard_normal((6, n))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = states[0].mean + states[0].sigma * (z @ states[0].A.T)
    np.testing.assert_array_equal(samples[0], expected)
    alone = CmaesState(states[1].mean, sigma0=0.5, lam=6)
    np.testing.assert_array_equal(samples[1], CmaesState.ask([alone], [np.random.default_rng([seed, 1])])[0])


class TestTell:
    def test_single_parent_moves_mean_to_best(self):
        m = np.array([1.0, -2.0, 0.5])
        state = CmaesState(m, sigma0=0.5, lam=2)  # mu=1, w=(1,)
        samples = CmaesState.ask([state], [np.random.default_rng(0)])[0]
        CmaesState.tell([state], [np.array([0.0, 1.0])])
        np.testing.assert_array_equal(state.mean, samples[1])

    def test_tied_rewards_use_stable_input_order(self):
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=4)  # mu=2
        samples = CmaesState.ask([state], [np.random.default_rng(0)])[0].copy()
        CmaesState.tell([state], [np.zeros(4)])
        expected = state.params.weights @ samples[:2]
        np.testing.assert_allclose(state.mean, expected, rtol=1e-14)

    def test_permuting_sample_reward_pairs_is_bit_identical(self):
        """Permuting the pending samples, their normals and the rewards
        together leaves every field of the update unchanged."""
        rng = np.random.default_rng(5)
        rewards = rng.permutation(np.arange(8.0))  # distinct rewards
        perm = rng.permutation(8)

        a = CmaesState(np.zeros(3), sigma0=0.3, lam=8)
        b = CmaesState(np.zeros(3), sigma0=0.3, lam=8)
        CmaesState.ask([a], [np.random.default_rng(6)])
        CmaesState.ask([b], [np.random.default_rng(6)])
        samples, normals = b.pending
        b.pending = (samples[perm], normals[perm])
        CmaesState.tell([a], [rewards])
        CmaesState.tell([b], [rewards[perm]])
        for field in ("mean", "sigma", "C", "p_sigma", "p_c", "A"):
            np.testing.assert_array_equal(
                np.asarray(getattr(a, field)), np.asarray(getattr(b, field)), err_msg=field
            )

    @pytest.mark.parametrize("h_sigma", [True, False])
    def test_covariance_update_is_the_textbook_expression(self, h_sigma):
        n, lam = 10, 20
        rng = np.random.default_rng(21)
        state = CmaesState(rng.normal(size=n), sigma0=0.4, lam=lam)
        a = rng.normal(size=(n, n))
        state.C = a @ a.T + np.eye(n)
        state.A = np.linalg.cholesky(state.C)
        state.p_c = 10.0 * rng.normal(size=n)  # large enough to show in every sum
        # a long evolution path gates the rank-one path update off
        state.p_sigma = np.zeros(n) if h_sigma else np.full(n, 50.0)
        samples = CmaesState.ask([state], [rng])[0]
        rewards = rng.normal(size=lam)
        p = state.params
        c_old, mean_old, sigma_old = state.C.copy(), state.mean.copy(), state.sigma

        CmaesState.tell([state], [rewards])

        threshold = (1.4 + 2.0 / (n + 1.0)) * p.chi_n
        norm = np.linalg.norm(state.p_sigma) / math.sqrt(1.0 - (1.0 - p.c_sigma) ** 2)
        assert (norm < threshold) == h_sigma
        y = (samples[np.argsort(-rewards, kind="stable")[: p.mu]] - mean_old) / sigma_old
        expected = (
            (1.0 - p.c_1 - p.c_mu) * c_old
            + p.c_1
            * (np.outer(state.p_c, state.p_c) + (1.0 - h_sigma) * p.c_c * (2.0 - p.c_c) * c_old)
            + p.c_mu * ((y.T * p.weights) @ y)
        )
        np.testing.assert_array_equal(state.C, (expected + expected.T) / 2.0)

    def test_validation(self):
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=4)
        CmaesState.ask([state], [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            CmaesState.tell([state], [np.zeros(3)])
        with pytest.raises(ValueError):
            CmaesState.tell([state], [np.array([1.0, 2.0, np.nan, 0.0])])
        assert state.pending is not None and state.generation_count == 0

    def test_tell_without_a_pending_batch_raises(self):
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=4)
        with pytest.raises(RuntimeError, match="pending"):
            CmaesState.tell([state], [np.zeros(4)])
        CmaesState.ask([state], [np.random.default_rng(0)])
        CmaesState.tell([state], [np.arange(4.0)])
        assert state.pending is None
        with pytest.raises(RuntimeError, match="pending"):
            CmaesState.tell([state], [np.arange(4.0)])
        assert state.generation_count == 1


def test_converges_on_shifted_sphere_oracle():
    """Run-to-convergence oracle: the mean must reach the optimum of a
    10-D shifted sphere to 1e-4 within 400 generations at lambda=10."""
    x_star = np.linspace(-1.0, 1.0, 10)
    state = CmaesState(np.zeros(10), sigma0=0.5, lam=10)
    rng = np.random.default_rng(2024)
    for _ in range(400):
        samples = CmaesState.ask([state], [rng])[0]
        CmaesState.tell([state], [-np.sum((samples - x_star) ** 2, axis=1)])
        if np.linalg.norm(state.mean - x_star) < 1e-4:
            break
    assert np.linalg.norm(state.mean - x_star) < 1e-4


def test_window_best_reward_is_monotone_on_sphere():
    state = CmaesState(np.full(10, 3.0), sigma0=0.5, lam=10)
    rng = np.random.default_rng(11)
    best_per_gen = []
    for _ in range(200):
        if CmaesState.should_stop([state])[0]:
            break
        samples = CmaesState.ask([state], [rng])[0]
        rewards = -np.sum(samples**2, axis=1)
        CmaesState.tell([state], [rewards])
        best_per_gen.append(rewards.max())
    window_best = [max(best_per_gen[i : i + 20]) for i in range(0, len(best_per_gen) - 19, 20)]
    assert all(a <= b for a, b in zip(window_best, window_best[1:]))


def test_covariance_stays_spd_until_stop():
    state = CmaesState(np.zeros(6), sigma0=0.4, lam=9)
    rng = np.random.default_rng(3)
    scale = np.linspace(1.0, 30.0, 6)  # ill-conditioned quadratic
    for _ in range(300):
        if CmaesState.should_stop([state])[0] is not None:
            break
        samples = CmaesState.ask([state], [rng])[0]
        CmaesState.tell([state], [-np.sum((samples * scale) ** 2, axis=1)])
        np.testing.assert_allclose(state.C, state.C.T, rtol=1e-12, atol=1e-300)
        assert np.all(np.linalg.eigvalsh(state.C) > 0)


def test_log_sigma_random_walk_band_under_pure_noise():
    """With rewards independent of the samples, log(sigma) drifts like an
    unbiased random walk; its median magnitude stays in a loose band."""
    n, lam, gens = 6, 8, 100
    magnitudes = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        state = CmaesState(np.zeros(n), sigma0=1.0, lam=lam)
        for _ in range(gens):
            CmaesState.ask([state], [rng])
            CmaesState.tell([state], [rng.standard_normal(lam)])  # reward is noise
        magnitudes.append(abs(math.log(state.sigma / state.sigma0)))
    band = 3.0 * state.params.c_sigma * math.sqrt(gens)
    assert np.median(magnitudes) < band


STOP_ORDER = ("numerical", "condition", "tol_x", "tol_fun", "no_effect_axis", "no_effect_coord")


def set_covariance(state, c):
    """Sets ``C`` and its lower Cholesky factor ``A``."""
    state.C = np.array(c, dtype=float)
    state.A = np.linalg.cholesky(state.C)


def criteria_that_hold(state):
    """Every restart criterion that holds, from the definitions on the
    Cholesky factor ``A`` of ``C``."""
    a = np.diag(state.A)
    held = set()
    if not all(np.isfinite(x).all() for x in (state.A, state.mean, state.sigma)):
        held.add("numerical")
    if a.min() == 0.0 or (a.max() / a.min()) ** 2 > 1e14:
        held.add("condition")
    if state.sigma * np.sqrt(np.diag(state.C).max()) < 1e-12 * state.sigma0:
        held.add("tol_x")
    history = list(state.best_reward_history)
    if len(history) == state.best_reward_history.maxlen and np.ptp(history) < 1e-12:
        held.add("tol_fun")
    axis = state.generation_count % state.params.dim
    if np.all(state.mean + 0.1 * state.sigma * state.A[:, axis] == state.mean):
        held.add("no_effect_axis")
    if np.any(state.mean + 0.2 * state.sigma * np.sqrt(np.diag(state.C)) == state.mean):
        held.add("no_effect_coord")
    return held


def state_where(criterion):
    """A state in which ``criterion`` holds and no other criterion does."""
    if criterion == "numerical":
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=8)
        state.mean[0] = np.nan
    elif criterion == "condition":
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=8)
        set_covariance(state, np.diag([1.0, 1e16]))
    elif criterion == "tol_x":
        state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
        state.sigma = 1e-20 * state.sigma0
    elif criterion == "tol_fun":
        state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
        state.best_reward_history.extend([1.0] * state.best_reward_history.maxlen)
    elif criterion == "no_effect_axis":
        # axis 2 is column 2 of A, (0, 0, 1): 0.1 sigma on it is lost in
        # 1e16's rounding (spacing 2), 0.2 sigma sqrt(C_22) is not; row 2,
        # (1, 0, 1), would move coordinate 0
        state = CmaesState(np.array([0.0, 0.0, 1e16]), sigma0=0.5, lam=8)
        set_covariance(state, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
        state.sigma = 8.0
        state.generation_count = 2
    else:
        # axis 1 moves a zero coordinate; 0.2 sigma is lost on coordinate 0
        state = CmaesState(np.array([1e16, 0.0, 0.0]), sigma0=0.5, lam=8)
        state.sigma = 1e-3
        state.generation_count = 1
    return state


class TestShouldStop:
    def test_fresh_state_runs(self):
        state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
        assert criteria_that_hold(state) == set()
        assert CmaesState.should_stop([state])[0] is None

    @pytest.mark.parametrize("criterion", STOP_ORDER)
    def test_each_criterion_fires_by_itself(self, criterion):
        state = state_where(criterion)
        assert criteria_that_hold(state) == {criterion}
        assert CmaesState.should_stop([state])[0] == criterion

    def test_tol_x(self):
        state = state_where("tol_x")
        assert CmaesState.should_stop([state])[0] == "tol_x"
        state.sigma = state.sigma0
        assert CmaesState.should_stop([state])[0] is None

    def test_condition(self):
        state = state_where("condition")
        assert CmaesState.should_stop([state])[0] == "condition"
        set_covariance(state, np.diag([1.0, 1e12]))
        assert CmaesState.should_stop([state])[0] is None

    def test_condition_past_the_largest_float_square(self):
        """A ratio of diagonal entries whose square no float holds (past
        ~1.34e154, where Python's ``**`` raises OverflowError) is
        ``condition`` too."""
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=8)
        state.A = np.diag([1e-160, 1.0])
        state.C = state.A @ state.A.T
        fresh = CmaesState(np.zeros(2), sigma0=0.5, lam=8)
        assert CmaesState.should_stop([state, fresh]) == ["condition", None]

    def test_tol_fun_needs_full_window(self):
        state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
        window = state.best_reward_history.maxlen
        for _ in range(window - 1):
            state.best_reward_history.append(1.0)
        assert CmaesState.should_stop([state])[0] is None  # not full yet
        state.best_reward_history.append(1.0)
        assert CmaesState.should_stop([state])[0] == "tol_fun"
        state.best_reward_history.append(1.0 + 1e-9)
        assert CmaesState.should_stop([state])[0] is None

    def test_no_effect_axis_and_coord(self):
        """Both no-effect criteria hold here; the axis check comes first,
        and the coordinate check alone fires on the next axis."""
        state = CmaesState(np.full(3, 1e16), sigma0=0.5, lam=8)
        state.sigma = 1e-3
        assert criteria_that_hold(state) == {"no_effect_axis", "no_effect_coord"}
        assert CmaesState.should_stop([state])[0] == "no_effect_axis"
        assert CmaesState.should_stop([state_where("no_effect_coord")])[0] == "no_effect_coord"
        # axis 1 moves a zero coordinate, and 0.2 sigma sqrt(C_22)
        # survives 1e16's rounding where 0.1 sigma A_22 did not
        state = state_where("no_effect_axis")
        state.generation_count = 1
        assert CmaesState.should_stop([state])[0] is None

    def test_first_holding_criterion_wins(self):
        """With several criteria holding, the earliest in the fixed order
        is reported."""
        for criterion in STOP_ORDER:
            state = state_where(criterion)
            state.best_reward_history.extend([1.0] * state.best_reward_history.maxlen)
            state.sigma = 1e-30 * state.sigma0
            held = criteria_that_hold(state)
            assert {"tol_x", "tol_fun"} <= held
            assert CmaesState.should_stop([state])[0] == min(held, key=STOP_ORDER.index)

    @pytest.mark.parametrize("criterion", STOP_ORDER)
    def test_ask_samples_a_stopped_state(self, criterion):
        """Stopping is the caller's call: ``ask`` on a state whose
        criteria hold still returns ``mean + sigma * z A^T``, bit for bit."""
        state = state_where(criterion)
        assert CmaesState.should_stop([state])[0] == criterion
        samples = CmaesState.ask([state], [np.random.default_rng(6)])[0]
        z = np.random.default_rng(6).standard_normal((state.params.lam, state.params.dim))
        np.testing.assert_array_equal(samples, state.mean + state.sigma * (z @ state.A.T))
        np.testing.assert_array_equal(state.pending[1], z)


def reason_from_docstring(state):
    """``CmaesState.should_stop``'s docstring transcribed literally, one
    criterion at a time in its order, on Python floats."""
    n, g = state.params.dim, state.generation_count
    A, C, mean, sigma = state.A.tolist(), state.C.tolist(), state.mean.tolist(), state.sigma
    if not (
        all(math.isfinite(x) for x in mean)
        and math.isfinite(sigma)
        and all(math.isfinite(x) for row in A for x in row)
    ):
        return "numerical"
    a_diag = [A[i][i] for i in range(n)]
    if min(a_diag) == 0.0 or (max(a_diag) / min(a_diag)) ** 2 > 1e14:
        return "condition"
    if sigma * math.sqrt(max(C[i][i] for i in range(n))) < 1e-12 * state.sigma0:
        return "tol_x"
    history = list(state.best_reward_history)
    if len(history) == state.best_reward_history.maxlen and max(history) - min(history) < 1e-12:
        return "tol_fun"
    if all(mean[i] + 0.1 * sigma * A[i][g % n] == mean[i] for i in range(n)):
        return "no_effect_axis"
    if any(mean[i] + 0.2 * sigma * math.sqrt(C[i][i]) == mean[i] for i in range(n)):
        return "no_effect_coord"
    return None


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    generations=st.integers(0, 40),
    reward_scale=st.sampled_from([0.0, 1e-13, 1.0]),
    sigma_scale=st.sampled_from([1.0, 1e-11, 1e-13, 1e-30]),
    mean_scale=st.sampled_from([1.0, 1e4, 1e15, 1e17]),
    poison=st.sampled_from([None, "mean", "sigma", "A"]),
)
def test_stop_reason_follows_its_docstring_on_told_states(
    n, seed, generations, reward_scale, sigma_scale, mean_scale, poison
):
    """Random told states, rescaled or given one non-finite value so that
    every criterion but condition comes up among the examples (the
    threshold states below reach condition)."""
    rng = np.random.default_rng(seed)
    state = CmaesState(rng.normal(size=n), sigma0=0.5, lam=8)
    for _ in range(generations):
        CmaesState.ask([state], [rng])
        reason = CmaesState.tell([state], [reward_scale * rng.standard_normal(8)])[0]
        assert reason == reason_from_docstring(state)
        if reason is not None:
            break
    state.sigma *= sigma_scale
    state.mean *= mean_scale
    if poison == "mean":
        state.mean[-1] = np.nan
    elif poison == "sigma":
        state.sigma = math.inf
    elif poison == "A":
        state.A = np.full_like(state.A, np.nan)
    assert CmaesState.should_stop([state])[0] == reason_from_docstring(state)


def states_on_thresholds():
    """States one float step below, on and above each criterion's
    threshold."""
    steps = (-1.0, 0.0, 1.0)

    def nudge(x, step):
        return float(np.nextafter(x, math.inf if step > 0 else -math.inf)) if step else x

    for step in steps:
        # condition: (max A_ii / min A_ii)^2 against 1e14, exact at A = diag(1, 1e7)
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=8)
        a_22 = nudge(1e7, step)
        state.C, state.A = np.diag([1.0, a_22**2]), np.diag([1.0, a_22])
        yield state
        # tol_x: sigma sqrt(max C_ii) against 1e-12 sigma0, with max C_ii = 1
        state = CmaesState(np.zeros(3), sigma0=0.5, lam=8)
        set_covariance(state, np.diag([0.25, 1.0, 0.5625]))
        state.sigma = nudge(1e-12 * state.sigma0, step)
        yield state
        # tol_fun: a full window spanning 1e-12
        state = CmaesState(np.zeros(3), sigma0=0.5, lam=8)
        window = state.best_reward_history.maxlen
        state.best_reward_history.extend([0.0] * (window - 1) + [nudge(1e-12, step)])
        yield state
    # the no-effect criteria: a step of about half a unit in the last
    # place of a coordinate in [1, 2), where round-half-to-even keeps 1.0
    # and moves 1 + 2^-52.  The axis check steps along axis 0, so the
    # coordinate check gets a zero there, which any step moves.  sigma0 is
    # small enough that tol_x stays off.
    half_ulp = 2.0**-53
    for m0 in (1.0, 1.0 + 2.0**-52):
        for k in range(-3, 4):
            # no_effect_axis, then no_effect_coord
            for gain, mean in ((0.1, [m0, m0, m0]), (0.2, [0.0, m0, m0])):
                state = CmaesState(np.array(mean), sigma0=1e-6, lam=8)
                state.sigma = (half_ulp / gain) * (1.0 + k * 2.0**-52)
                state.generation_count = 3
                yield state


@pytest.mark.parametrize("state", list(states_on_thresholds()))
def test_stop_reason_follows_its_docstring_on_thresholds(state):
    assert CmaesState.should_stop([state])[0] == reason_from_docstring(state)


def test_threshold_states_reach_every_criterion():
    reasons = {reason_from_docstring(state) for state in states_on_thresholds()}
    assert reasons == set(STOP_ORDER[1:]) | {None}


@pytest.mark.parametrize("ratio, reason", [(0.99e-12, "tol_x"), (1.01e-12, None)])
def test_tol_x_threshold(ratio, reason):
    """tol_x fires when sigma times the largest coordinate deviation,
    sqrt(max C_ii), falls below 1e-12 sigma0, on either side by 1%."""
    state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
    set_covariance(state, np.diag([0.5, 1.0, 2.0, 1.0]) ** 2)
    state.sigma = ratio * state.sigma0 / 2.0
    assert criteria_that_hold(state) == ({reason} if reason else set())
    assert CmaesState.should_stop([state])[0] == reason


@pytest.mark.parametrize("factor, reason", [(0.99, None), (1.01, "condition")])
def test_condition_threshold(factor, reason):
    """condition fires when the squared ratio of the largest to the
    smallest diagonal entry of A exceeds 1e14, on either side by 1%."""
    state = CmaesState(np.zeros(3), sigma0=0.5, lam=8)
    set_covariance(state, np.diag([4.0, 4.0 * factor * 1e14, 9.0]))
    assert criteria_that_hold(state) == ({reason} if reason else set())
    assert CmaesState.should_stop([state])[0] == reason


def told_state(n, generations=5, seed=0):
    """A state after a few updates on a rotated ill-conditioned quadratic,
    so ``C`` is far from diagonal."""
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.normal(size=(n, n)))[0]
    scale = np.geomspace(1.0, 100.0, n)
    state = CmaesState(rng.normal(size=n), sigma0=0.5, lam=max(8, n // 2))
    for _ in range(generations):
        samples = CmaesState.ask([state], [rng])[0]
        CmaesState.tell([state], [-np.sum((samples @ rotation * scale) ** 2, axis=1)])
    return state


@pytest.mark.parametrize("n", [2, 20, 100])
def test_factor_reproduces_covariance_after_tells(n):
    state = told_state(n)
    assert state.generation_count == 5 and CmaesState.should_stop([state])[0] is None
    np.testing.assert_array_equal(state.A, np.tril(state.A))
    assert np.all(np.diag(state.A) > 0)
    np.testing.assert_allclose(state.A @ state.A.T, state.C, rtol=1e-12, atol=1e-14)


def test_whitening_the_samples_gives_back_the_normals_drawn():
    """Each state of a stacked ask keeps, bit for bit, the normals its own
    generator drew, and whitening its samples gives them back."""
    states = [told_state(6, seed=seed) for seed in range(3)]
    samples = CmaesState.ask(states, [np.random.default_rng([8, i]) for i in range(3)])
    for i, state in enumerate(states):
        z = np.random.default_rng([8, i]).standard_normal((state.params.lam, 6))
        kept_samples, kept_normals = state.pending
        assert np.shares_memory(kept_samples, samples[i])
        np.testing.assert_array_equal(kept_samples, samples[i])
        np.testing.assert_array_equal(kept_normals, z)
        whitened = np.linalg.solve(state.A, ((samples[i] - state.mean) / state.sigma).T).T
        np.testing.assert_allclose(whitened, z, rtol=0, atol=1e-12)


# Agreement of a stacked ask with the one-sample oracle, relative to the
# magnitude of the terms summed, |mean| + sigma |A| @ |z|: the matmul may
# sum them in another order, which moves a sum by a few n ulps of that.
ASK_RTOL = 1e-13


@pytest.mark.parametrize("n, k", [(1, 1), (6, 3), (20, 2), (100, 2)])
def test_ask_matches_a_one_sample_at_a_time_oracle(n, k):
    """Oracle: each state's generator replayed one sample at a time, and
    each sample built alone as ``mean + sigma * (A @ z)``.  The normals
    agree bit for bit, the samples within ``ASK_RTOL``."""
    states = [told_state(n, seed=seed) for seed in range(k)]
    samples = CmaesState.ask(states, [np.random.default_rng([5, i]) for i in range(k)])
    for i, state in enumerate(states):
        replay = np.random.default_rng([5, i])
        for j in range(state.params.lam):
            z = replay.standard_normal(n)
            np.testing.assert_array_equal(state.pending[1][j], z)
            expected = state.mean + state.sigma * (state.A @ z)
            scale = np.abs(state.mean) + state.sigma * (np.abs(state.A) @ np.abs(z))
            assert np.all(np.abs(samples[i, j] - expected) <= ASK_RTOL * scale)


# eigvalsh's own rounding, and that of the factor should_stop reads, as a
# share of the largest eigenvalue (a few n ulps for n <= 6)
EIGVALSH_TOL = 1e-14


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 40.0),
    tilt=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]),
)
def test_condition_means_an_eigenvalue_ratio_of_at_least_1e14(n, seed, spread, tilt):
    """Whenever ``should_stop`` says ``condition``, the eigenvalues of
    ``C`` span at least 1e14, infinitely when the smallest is not
    positive, up to ``EIGVALSH_TOL`` of the largest.  ``C`` has
    eigenvalues from 1 down to ``10**-spread``, on axes turned from the
    coordinate ones by about ``tilt``."""
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(np.eye(n) + tilt * rng.normal(size=(n, n)))[0]
    exponents = rng.uniform(-spread, 0.0, size=n)
    exponents[:2] = 0.0, -spread
    c = (rotation * 10.0**exponents) @ rotation.T
    state = CmaesState(np.zeros(n), sigma0=0.5, lam=8)
    try:
        set_covariance(state, (c + c.T) / 2.0)
    except np.linalg.LinAlgError:  # no factor: the state would stop as numerical
        return
    if CmaesState.should_stop([state])[0] == "condition":
        low, *_, high = np.linalg.eigvalsh(state.C)
        # high / low >= 1e14, or low <= 0, within the tolerance
        assert low <= (1e-14 + EIGVALSH_TOL) * high


@pytest.mark.parametrize("n", [6, 20, 100])
def test_evolution_path_is_whitened_by_the_factor(n):
    """``tell`` maps the mean shift back through the factor it sampled
    with: ``p_sigma`` gains ``A^-1 y_w``, here solved for as an oracle."""
    rng = np.random.default_rng(3)
    state = told_state(n)
    p = state.params
    a_old, p_old, mean_old, sigma_old = state.A.copy(), state.p_sigma, state.mean, state.sigma
    CmaesState.ask([state], [rng])
    CmaesState.tell([state], [rng.standard_normal(p.lam)])
    y_w = (state.mean - mean_old) / sigma_old
    gain = math.sqrt(p.c_sigma * (2.0 - p.c_sigma) * p.mu_eff)
    expected = (1.0 - p.c_sigma) * p_old + gain * np.linalg.solve(a_old, y_w)
    np.testing.assert_allclose(state.p_sigma, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("fault", ["nan_sample", "indefinite_c"])
def test_numerical_fault_from_tell_stops_the_state(fault):
    """A non-finite sample, or a C with no Cholesky factor, stops the
    state with reason ``numerical``, which ``tell`` returns; neither
    ``tell`` nor ``should_stop`` raises."""
    rng = np.random.default_rng(1)
    state = CmaesState(np.zeros(3), sigma0=0.5, lam=8)
    samples = CmaesState.ask([state], [rng])[0]
    if fault == "nan_sample":
        samples[:, 0] = np.nan  # the state's own pending samples
    else:
        state.C = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # eigenvalue -1
    assert CmaesState.tell([state], [rng.standard_normal(8)])[0] == "numerical"
    assert CmaesState.should_stop([state])[0] == "numerical"
    assert "numerical" in criteria_that_hold(state)


STATE_FIELDS = ("mean", "sigma", "C", "A", "p_sigma", "p_c", "generation_count", "best_reward_history", "pending")


def assert_states_equal(a, b):
    for field in STATE_FIELDS:
        got, want = getattr(a, field), getattr(b, field)
        if field == "pending":
            assert (got is None) == (want is None)
            got, want = got or (), want or ()
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want), err_msg=field)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field


def faulty_family(n):
    """Six told states of dimension ``n`` with a pending batch, and their
    rewards: two plain ones, one whose long evolution path turns
    ``h_sigma`` off, one whose ``C`` has no Cholesky factor after the
    update, one with an infinite parent, and one more plain one."""
    states = [told_state(n, seed=seed) for seed in range(6)]
    states[2].p_sigma = np.full(n, 50.0)
    states[3].C = np.eye(n)
    states[3].C[0, 1] = states[3].C[1, 0] = 2.0  # eigenvalue -1
    rng = np.random.default_rng(n)
    lam = states[0].params.lam
    CmaesState.ask(states, [np.random.default_rng([n, i]) for i in range(6)])
    states[4].pending[0][1, -1] = np.inf
    rewards = [rng.standard_normal(lam) for _ in states]
    rewards[4][1] = 10.0  # the infinite sample is a parent
    return states, rewards


@pytest.mark.parametrize("n", [2, 6, 20, 100])
def test_stacked_and_per_state_updates_give_the_same_bits(n, monkeypatch):
    """``tell`` updates a family with stacked ops up to
    ``STACKED_UPDATE_MAX_DIM`` and one state at a time above it; both
    paths, forced here at every dimension, give every state the same
    arrays and reasons bit for bit, and each state the bits that a tell of
    it alone gives.  A member with no Cholesky factor, or a non-finite
    one, gets a NaN factor and stops with ``numerical`` by itself.  Each
    state keeps arrays of its own, not views into the family's stacks."""
    told = {}
    for path, max_dim in (("stacked", n), ("per_state", n - 1)):
        monkeypatch.setattr(cmaes, "STACKED_UPDATE_MAX_DIM", max_dim)
        states, rewards = faulty_family(n)
        told[path] = states, CmaesState.tell(states, rewards)
    alone_states, rewards = faulty_family(n)
    alone = [CmaesState.tell([state], [r])[0] for state, r in zip(alone_states, rewards)]

    (stacked, stacked_reasons), (per_state, per_state_reasons) = told["stacked"], told["per_state"]
    assert stacked_reasons == per_state_reasons == alone
    for a, b, c in zip(stacked, per_state, alone_states):
        assert_states_equal(a, b)
        assert_states_equal(a, c)
    for state in stacked + per_state:  # copies, not views into the family's stacks
        for field in ("mean", "C", "A", "p_sigma", "p_c"):
            array = getattr(state, field)
            assert array.base is None or array.base.nbytes == array.nbytes, field
    assert stacked_reasons[3] == stacked_reasons[4] == "numerical"
    assert np.isnan(stacked[3].A).all() and not np.isfinite(stacked[4].mean).all()
    assert all(np.isfinite(stacked[i].A).all() for i in (0, 1, 2, 5))
    # both h_sigma branches: the textbook test on the updated path
    p = stacked[0].params
    threshold = (1.4 + 2.0 / (n + 1.0)) * p.chi_n
    h_sigma = [
        np.linalg.norm(s.p_sigma) / math.sqrt(1.0 - (1.0 - p.c_sigma) ** (2 * s.generation_count)) < threshold
        for s in stacked
    ]
    assert h_sigma[0] and not h_sigma[2]


def test_family_stop_reasons_equal_each_states_own():
    """One pass over a family gives each state the reason that its own
    check gives, and that the docstring gives."""
    states = list(states_on_thresholds())
    for n in sorted({s.params.dim for s in states}):
        family = [s for s in states if s.params.dim == n]
        family.append(state_where("numerical") if n == 2 else told_state(n))
        reasons = CmaesState.should_stop(family)
        assert reasons == [CmaesState.should_stop([s])[0] for s in family]
        assert reasons == [reason_from_docstring(s) for s in family]


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 5, 29, 40]),
    stacked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.sampled_from([0.5, 1e150, 1e307, 1e308]),
    infinite_parent=st.sampled_from([None, math.inf, -math.inf]),
    poison_c=st.sampled_from([None, math.nan, math.inf, -math.inf, 1e308, -1e308]),
)
def test_a_told_factor_is_finite_exactly_where_its_diagonal_is(n, stacked, seed, sigma, infinite_parent, poison_c):
    """``should_stop`` decides ``numerical`` from the diagonal of ``A``
    alone.  Over families told on both update paths, with infinite parents,
    huge steps and non-finite or huge entries in ``C``, every factor has a
    non-finite entry exactly when its diagonal has one, and the reasons
    equal those of the whole-matrix docstring oracle."""
    rng = np.random.default_rng(seed)
    states = [CmaesState(rng.normal(size=n), sigma0=0.5, lam=8) for _ in range(3)]
    states[0].sigma = sigma
    if poison_c is not None:
        i, j = rng.integers(n, size=2)
        states[1].C[i, j] = states[1].C[j, i] = poison_c
    with mock.patch.object(cmaes, "STACKED_UPDATE_MAX_DIM", n if stacked else n - 1):
        # a stopped state is never asked again, as in the engine, and one
        # more state leaves each generation, so the loop ends
        while states:
            samples = CmaesState.ask(states, [rng] * len(states))
            rewards = [rng.standard_normal(8) for _ in states]
            if infinite_parent is not None:
                samples[-1, 0, rng.integers(n)] = infinite_parent
                rewards[-1][0] = 10.0
            reasons = CmaesState.tell(states, rewards)
            for state in states:
                assert np.isfinite(state.A).all() == np.isfinite(np.diag(state.A)).all()
            assert reasons == [reason_from_docstring(state) for state in states]
            states = [state for state, reason in zip(states, reasons) if reason is None][:-1]


def tutorial_constants(n, lam):
    """The default strategy parameters of Hansen's tutorial (arXiv
    1604.00772) for an even ``lam``, with positive weights only."""
    mu = lam // 2
    raw = [math.log((lam + 1) / 2) - math.log(i) for i in range(1, mu + 1)]
    weights = [w / sum(raw) for w in raw]
    mu_eff = 1.0 / sum(w * w for w in weights)
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    return dict(
        mu=mu,
        weights=weights,
        mu_eff=mu_eff,
        c_sigma=c_sigma,
        d_sigma=1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma,
        c_c=(4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n),
        c_1=c_1,
        c_mu=min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff)),
        chi_n=math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2)),
    )


def tutorial_tell(state, rewards):
    """One (mu/mu_W, lambda) update of Hansen's tutorial (arXiv
    1604.00772, with c_m = 1), one sample at a time, from an untold
    ``state`` and its pending samples.  Returns the new values, the
    parents in rank order and ``h_sigma``."""
    samples = state.pending[0]
    n, lam = len(state.mean), len(samples)
    k = tutorial_constants(n, lam)
    g = state.generation_count + 1  # the generation this update completes
    parents = sorted(range(lam), key=lambda i: -rewards[i])[: k["mu"]]  # stable: ties by position
    y = [(samples[i] - state.mean) / state.sigma for i in parents]
    y_w = sum(w * y_i for w, y_i in zip(k["weights"], y))
    mean = state.mean + state.sigma * y_w
    whitened = scipy.linalg.solve_triangular(state.A, y_w, lower=True)  # C^-1/2 y_w for C = A A^T
    p_sigma = (1.0 - k["c_sigma"]) * state.p_sigma + math.sqrt(
        k["c_sigma"] * (2.0 - k["c_sigma"]) * k["mu_eff"]
    ) * whitened
    norm = math.sqrt(sum(x * x for x in p_sigma))
    h_sigma = norm / math.sqrt(1.0 - (1.0 - k["c_sigma"]) ** (2 * g)) < (1.4 + 2.0 / (n + 1.0)) * k["chi_n"]
    p_c = (1.0 - k["c_c"]) * state.p_c + h_sigma * math.sqrt(k["c_c"] * (2.0 - k["c_c"]) * k["mu_eff"]) * y_w
    delta = (1.0 - h_sigma) * k["c_c"] * (2.0 - k["c_c"])
    rank_mu = sum(w * np.outer(y_i, y_i) for w, y_i in zip(k["weights"], y))
    C = (
        (1.0 + k["c_1"] * delta - k["c_1"] - k["c_mu"] * sum(k["weights"])) * state.C
        + k["c_1"] * np.outer(p_c, p_c)
        + k["c_mu"] * rank_mu
    )
    sigma = state.sigma * math.exp(k["c_sigma"] / k["d_sigma"] * (norm / k["chi_n"] - 1.0))
    told = dict(mean=mean, sigma=sigma, p_sigma=p_sigma, p_c=p_c, C=C, A=scipy.linalg.cholesky(C, lower=True))
    return told, parents, h_sigma


# Agreement of tell with the tutorial oracle, relative to the largest
# entry of each value: both sum the same terms in other orders (about
# 1e-15 apart), and the factor's rounding grows with C's condition
# number, below 10 here.
TELL_RTOL = 1e-12
ORACLE_LAM = 8  # small enough to try every ordered choice of parents
ORACLE_BUDGET_S = 10.0


def oracle_family(n):
    """Four states of dimension ``n`` with a pending batch, and tied
    rewards (integers 0-3).  State 1's long path turns ``h_sigma`` off.
    The others' paths are set so that their updated norms sit where a
    wrong bias correction or threshold flips ``h_sigma``: state 0's
    between its thresholds corrected with exponents ``g`` and ``2g``
    (on), state 2's 3% above its own (off), and state 3's between its own
    and the uncorrected one (off).  State 2's best-reward window is full
    and flat, so it stops with ``tol_fun``."""
    rng = np.random.default_rng(n)
    states = []
    for i in range(4):
        state = CmaesState(rng.normal(size=n), sigma0=0.5, lam=ORACLE_LAM)
        a = rng.normal(size=(n, n)) / math.sqrt(n)
        set_covariance(state, a @ a.T + 0.5 * np.eye(n))
        state.sigma = 0.3 + 0.1 * i
        state.p_c = rng.normal(size=n)
        state.generation_count = 3 - i  # the bias correction still matters
        states.append(state)
    states[1].p_sigma = np.full(n, 50.0)
    states[2].best_reward_history.extend([3.0] * states[2].best_reward_history.maxlen)
    CmaesState.ask(states, [np.random.default_rng([n, i]) for i in range(4)])
    rewards = [rng.integers(0, 4, ORACLE_LAM).astype(float) for _ in states]
    for r in rewards:
        r[0] = 3.0

    k = tutorial_constants(n, ORACLE_LAM)
    plain = (1.4 + 2.0 / (n + 1.0)) * k["chi_n"]
    gain = math.sqrt(k["c_sigma"] * (2.0 - k["c_sigma"]) * k["mu_eff"])

    def threshold(g, power=2):
        """The norm threshold after ``g`` generations, corrected with
        ``(1 - c_sigma)^(power g)``."""
        return plain * math.sqrt(1.0 - (1.0 - k["c_sigma"]) ** (power * g))

    norms = {0: (threshold(4, 1) + threshold(4)) / 2.0, 2: 1.03 * threshold(2), 3: (threshold(1) + plain) / 2.0}
    for i, norm in norms.items():
        normals = states[i].pending[1]
        parents = sorted(range(ORACLE_LAM), key=lambda j: -rewards[i][j])[: k["mu"]]
        z_w = sum(w * normals[j] for w, j in zip(k["weights"], parents))
        target = rng.normal(size=n)
        target *= norm / np.linalg.norm(target)
        states[i].p_sigma = (target - gain * z_w) / (1.0 - k["c_sigma"])
    return states, rewards


def assert_close(got, want, name):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.abs(got - want).max() <= TELL_RTOL * np.abs(want).max(), name


def parents_from_mean(mean, samples, weights):
    """Every ordered choice of ``mu`` samples whose weighted sum is
    ``mean`` within ``TELL_RTOL``."""
    orders = np.array(list(itertools.permutations(range(len(samples)), len(weights))))
    sums = np.einsum("m,omn->on", weights, samples[orders])
    close = np.abs(sums - mean).max(axis=1) <= TELL_RTOL * np.abs(mean).max()
    return orders[close].tolist()


@pytest.mark.parametrize("n", [6, 40])
@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "per_state"])
def test_tell_matches_the_tutorial_update_one_sample_at_a_time(n, stacked, monkeypatch):
    """Oracle: the update of Hansen's tutorial transcribed per sample, with
    the path whitened by a triangular solve, on a family that takes both
    ``h_sigma`` branches, on both sides of ``STACKED_UPDATE_MAX_DIM`` and
    down both update paths.  Every value agrees within ``TELL_RTOL``; the
    parents, recovered from the new mean as the only ordered choice of
    samples that sums to it, and the reasons agree exactly."""
    start = time.perf_counter()
    monkeypatch.setattr(cmaes, "STACKED_UPDATE_MAX_DIM", n if stacked else n - 1)
    states, rewards = oracle_family(n)
    before = copy.deepcopy(states)
    reasons = CmaesState.tell(states, rewards)

    weights = tutorial_constants(n, ORACLE_LAM)["weights"]
    expected_reasons, h_sigmas = [], []
    for state, old, r in zip(states, before, rewards):
        told, parents, h_sigma = tutorial_tell(old, r)
        h_sigmas.append(h_sigma)
        for name, want in told.items():
            assert_close(getattr(state, name), want, name)
        assert parents_from_mean(state.mean, old.pending[0], weights) == [parents]
        oracle_state = copy.deepcopy(state)
        for name, want in told.items():
            setattr(oracle_state, name, want)
        expected_reasons.append(reason_from_docstring(oracle_state))
    assert h_sigmas == [True, False, False, False]
    assert reasons == expected_reasons == [None, None, "tol_fun", None]
    elapsed = time.perf_counter() - start
    assert elapsed < ORACLE_BUDGET_S, f"tell oracle took {elapsed:.2f}s (budget {ORACLE_BUDGET_S:.0f}s)"


class TestFamilyCalls:
    def test_a_failed_check_updates_no_state(self):
        states = [CmaesState(np.zeros(3), sigma0=0.5, lam=8) for _ in range(3)]
        CmaesState.ask(states, [np.random.default_rng(i) for i in range(3)])
        with pytest.raises(ValueError, match="finite"):
            CmaesState.tell(states, [np.zeros(8), np.zeros(8), np.full(8, np.nan)])
        with pytest.raises(ValueError, match="3 states"):
            CmaesState.tell(states, [np.zeros(8)] * 2)
        assert all(s.pending is not None and s.generation_count == 0 for s in states)

    def test_states_of_one_family_share_dim_and_lam(self):
        for other in (CmaesState(np.zeros(4), sigma0=0.5, lam=8), CmaesState(np.zeros(3), sigma0=0.5, lam=9)):
            states = [CmaesState(np.zeros(3), sigma0=0.5, lam=8), other]
            for call in (
                lambda: CmaesState.ask(states, [np.random.default_rng(0)] * 2),
                lambda: CmaesState.should_stop(states),
            ):
                with pytest.raises(ValueError, match="share dim and lam"):
                    call()

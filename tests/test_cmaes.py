"""CMA-ES unit tests: parameter formulas, sampling statistics, update
semantics, convergence oracle, and stop criteria."""

import math

import numpy as np
import pytest

from qdpool.cmaes import CmaesParams, CmaesState, EmitterExhaustedError


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
        for dim, lam in [(2, 4), (10, 10), (20, 50), (100, 50)]:
            p = CmaesParams.defaults(dim, lam)
            assert np.all(p.weights > 0) and np.all(np.diff(p.weights) <= 0)
            assert p.weights.sum() == pytest.approx(1.0)
            assert p.mu_eff == pytest.approx(1.0 / np.sum(p.weights**2))
            for rate in (p.c_sigma, p.c_c, p.c_1, p.c_mu):
                assert 0 < rate <= 1
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


def test_init_state_is_definitional():
    state = CmaesState(np.array([1.0, 1.0]), sigma0=0.5, lam=10)
    np.testing.assert_array_equal(state.C, np.eye(2))
    np.testing.assert_array_equal(state.p_sigma, np.zeros(2))
    np.testing.assert_array_equal(state.p_c, np.zeros(2))
    np.testing.assert_array_equal(state.D, np.ones(2))
    assert state.sigma == 0.5
    assert state.generation_count == 0
    assert state.should_stop() is None


def test_ask_length_and_sampling_statistics():
    n, draws = 4, 100_000
    state = CmaesState(np.zeros(n), sigma0=0.5, lam=draws)
    rng = np.random.default_rng(123)
    samples = state.ask(rng)
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
    eigenvalues, state.B = np.linalg.eigh(state.C)
    state.D = np.sqrt(eigenvalues)
    samples = state.ask(np.random.default_rng(7))
    cov = np.cov(samples.T, bias=True)
    rel_err = np.linalg.norm(cov - target_c) / np.linalg.norm(target_c)
    assert rel_err < 0.05


class TestTell:
    def test_single_parent_moves_mean_to_best(self):
        m = np.array([1.0, -2.0, 0.5])
        v = np.array([0.3, 0.1, -0.2])
        state = CmaesState(m, sigma0=0.5, lam=2)  # mu=1, w=(1,)
        state.tell(np.stack([m + v, m - v]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(state.mean, m + v, rtol=1e-14)

    def test_tied_rewards_use_stable_input_order(self):
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=4)  # mu=2
        samples = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [-5.0, 5.0]])
        state.tell(samples, np.zeros(4))
        expected = state.params.weights @ samples[:2]
        np.testing.assert_allclose(state.mean, expected, rtol=1e-14)

    def test_permuting_sample_reward_pairs_is_bit_identical(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(8, 3))
        rewards = rng.permutation(np.arange(8.0))  # distinct rewards
        perm = rng.permutation(8)

        a = CmaesState(np.zeros(3), sigma0=0.3, lam=8)
        b = CmaesState(np.zeros(3), sigma0=0.3, lam=8)
        a.tell(samples, rewards)
        b.tell(samples[perm], rewards[perm])
        for field in ("mean", "sigma", "C", "p_sigma", "p_c", "B", "D"):
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
        eigenvalues, state.B = np.linalg.eigh(state.C)
        state.D = np.sqrt(eigenvalues)
        state.p_c = 10.0 * rng.normal(size=n)  # large enough to show in every sum
        # a long evolution path gates the rank-one path update off
        state.p_sigma = np.zeros(n) if h_sigma else np.full(n, 50.0)
        samples = state.ask(rng)
        rewards = rng.normal(size=lam)
        p = state.params
        c_old, mean_old, sigma_old = state.C.copy(), state.mean.copy(), state.sigma

        state.tell(samples, rewards)

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
        with pytest.raises(ValueError):
            state.tell(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            state.tell(np.zeros((4, 2)), np.array([1.0, 2.0, np.nan, 0.0]))


def test_converges_on_shifted_sphere_oracle():
    """Run-to-convergence oracle: the mean must reach the optimum of a
    10-D shifted sphere to 1e-4 within 400 generations at lambda=10."""
    x_star = np.linspace(-1.0, 1.0, 10)
    state = CmaesState(np.zeros(10), sigma0=0.5, lam=10)
    rng = np.random.default_rng(2024)
    for _ in range(400):
        samples = state.ask(rng)
        state.tell(samples, -np.sum((samples - x_star) ** 2, axis=1))
        if np.linalg.norm(state.mean - x_star) < 1e-4:
            break
    assert np.linalg.norm(state.mean - x_star) < 1e-4


def test_window_best_reward_is_monotone_on_sphere():
    state = CmaesState(np.full(10, 3.0), sigma0=0.5, lam=10)
    rng = np.random.default_rng(11)
    best_per_gen = []
    for _ in range(200):
        if state.should_stop():
            break
        samples = state.ask(rng)
        rewards = -np.sum(samples**2, axis=1)
        state.tell(samples, rewards)
        best_per_gen.append(rewards.max())
    window_best = [max(best_per_gen[i : i + 20]) for i in range(0, len(best_per_gen) - 19, 20)]
    assert all(a <= b for a, b in zip(window_best, window_best[1:]))


def test_covariance_stays_spd_until_stop():
    state = CmaesState(np.zeros(6), sigma0=0.4, lam=9)
    rng = np.random.default_rng(3)
    scale = np.linspace(1.0, 30.0, 6)  # ill-conditioned quadratic
    for _ in range(300):
        if state.should_stop() is not None:
            break
        samples = state.ask(rng)
        state.tell(samples, -np.sum((samples * scale) ** 2, axis=1))
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
            samples = state.ask(rng)
            state.tell(samples, rng.standard_normal(lam))  # reward is noise
        magnitudes.append(abs(math.log(state.sigma / state.sigma0)))
    band = 3.0 * state.params.c_sigma * math.sqrt(gens)
    assert np.median(magnitudes) < band


STOP_ORDER = ("condition", "tol_x", "tol_fun", "no_effect_axis", "no_effect_coord")


def criteria_that_hold(state):
    """Every restart criterion that holds, from the textbook definitions."""
    d = state.D
    held = set()
    if d.min() == 0.0 or (d.max() / d.min()) ** 2 > 1e14:
        held.add("condition")
    if state.sigma * d.max() < 1e-12 * state.sigma0:
        held.add("tol_x")
    history = list(state.best_reward_history)
    if len(history) == state.best_reward_history.maxlen and np.ptp(history) < 1e-12:
        held.add("tol_fun")
    axis = state.generation_count % state.params.dim
    if np.all(state.mean + 0.1 * state.sigma * d[axis] * state.B[:, axis] == state.mean):
        held.add("no_effect_axis")
    if np.any(state.mean + 0.2 * state.sigma * np.sqrt(np.diag(state.C)) == state.mean):
        held.add("no_effect_coord")
    return held


def state_where(criterion):
    """A state in which ``criterion`` holds and no other criterion does."""
    if criterion == "condition":
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=8)
        state.C = np.diag([1.0, 1e16])
        state.D = np.array([1.0, 1e8])
    elif criterion == "tol_x":
        state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
        state.sigma = 1e-20 * state.sigma0
    elif criterion == "tol_fun":
        state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
        state.best_reward_history.extend([1.0] * state.best_reward_history.maxlen)
    elif criterion == "no_effect_axis":
        # 0.1 sigma on axis 0 is lost in 1e16's rounding (spacing 2), 0.2 sigma is not
        state = CmaesState(np.array([1e16, 0.0, 0.0]), sigma0=0.5, lam=8)
        state.sigma = 8.0
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
        assert state.should_stop() is None

    @pytest.mark.parametrize("criterion", STOP_ORDER)
    def test_each_criterion_fires_by_itself(self, criterion):
        state = state_where(criterion)
        assert criteria_that_hold(state) == {criterion}
        assert state.should_stop() == criterion

    def test_tol_x(self):
        state = state_where("tol_x")
        assert state.should_stop() == "tol_x"
        state.sigma = state.sigma0
        assert state.should_stop() is None

    def test_condition(self):
        state = state_where("condition")
        assert state.should_stop() == "condition"
        state.D = np.array([1.0, 1e6])
        assert state.should_stop() is None

    def test_tol_fun_needs_full_window(self):
        state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
        window = state.best_reward_history.maxlen
        for _ in range(window - 1):
            state.best_reward_history.append(1.0)
        assert state.should_stop() is None  # not full yet
        state.best_reward_history.append(1.0)
        assert state.should_stop() == "tol_fun"
        state.best_reward_history.append(1.0 + 1e-9)
        assert state.should_stop() is None

    def test_no_effect_axis_and_coord(self):
        """Both no-effect criteria hold here; the axis check comes first,
        and the coordinate check alone fires on the next axis."""
        state = CmaesState(np.full(3, 1e16), sigma0=0.5, lam=8)
        state.sigma = 1e-3
        assert criteria_that_hold(state) == {"no_effect_axis", "no_effect_coord"}
        assert state.should_stop() == "no_effect_axis"
        assert state_where("no_effect_coord").should_stop() == "no_effect_coord"
        # 0.2 sigma survives 1e16's rounding where 0.1 sigma did not
        state = state_where("no_effect_axis")
        state.generation_count = 1
        assert state.should_stop() is None

    def test_first_holding_criterion_wins(self):
        """With several criteria holding, the earliest in the fixed order
        is reported."""
        for criterion in STOP_ORDER:
            state = state_where(criterion)
            state.best_reward_history.extend([1.0] * state.best_reward_history.maxlen)
            state.sigma = 1e-30 * state.sigma0
            held = criteria_that_hold(state)
            assert {"tol_x", "tol_fun"} <= held
            assert state.should_stop() == min(held, key=STOP_ORDER.index)

    def test_ask_after_stop_raises(self):
        state = CmaesState(np.zeros(2), sigma0=0.5, lam=8)
        state.sigma = 1e-20 * state.sigma0
        with pytest.raises(EmitterExhaustedError):
            state.ask(np.random.default_rng(0))


@pytest.mark.parametrize("ratio, reason", [(0.99e-12, "tol_x"), (1.01e-12, None)])
def test_tol_x_threshold(ratio, reason):
    """tol_x fires when sigma times the largest axis length falls below
    1e-12 sigma0, on either side of the threshold by 1%."""
    state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
    state.D = np.array([0.5, 1.0, 2.0, 1.0])
    state.C = np.diag(state.D**2)
    state.sigma = ratio * state.sigma0 / 2.0
    assert criteria_that_hold(state) == ({reason} if reason else set())
    assert state.should_stop() == reason


def test_reason_from_tell_is_reused_until_sigma_or_generation_changes(monkeypatch):
    rng = np.random.default_rng(4)
    state = CmaesState(np.zeros(4), sigma0=0.5, lam=8)
    state.tell(state.ask(rng), rng.standard_normal(8))
    evaluations = []

    def stub(self):
        evaluations.append(self.generation_count)
        return "tol_fun"

    monkeypatch.setattr(CmaesState, "_stop_reason", stub)
    assert state.should_stop() is None  # checked by tell, on the real criteria
    assert state.should_stop() is None
    assert evaluations == []
    state.sigma *= 2.0
    assert state.should_stop() == "tol_fun"
    state.sigma /= 2.0
    state.generation_count += 1
    assert state.should_stop() == "tol_fun"
    assert evaluations == [1, 2]

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countdag import glm
from countdag.data import InvalidData
from countdag.glm import (
    SingularInformation,
    alpha_schedule,
    fisher_information,
    fit,
    gradient,
    nll,
    wald,
    wald_all,
)

RNG = np.random.default_rng(20240915)


def random_instance(rng, n_max=40, k_max=4):
    """Random (theta, y, X) with linear predictors kept inside [-3, 3]."""
    n = int(rng.integers(3, n_max))
    k = int(rng.integers(1, k_max + 1))
    X = rng.integers(0, 4, size=(n, k)).astype(float)
    scale = np.maximum(np.abs(X).sum(axis=0).max(), 1.0)
    theta = rng.uniform(-3.0, 3.0, size=k) / np.maximum(np.abs(X).max(axis=0), 1.0) / k
    lp = X @ theta
    if np.abs(lp).max() > 3.0:
        theta *= 3.0 / np.abs(lp).max()
    y = rng.poisson(np.exp(np.clip(X @ theta, -3, 3))).astype(float)
    return theta, y, X


class TestNll:
    def test_all_zero(self):
        assert nll([0.0], [0.0], [[0.0]]) == pytest.approx(1.0, abs=1e-15)

    def test_single_row(self):
        assert nll([0.0], [2.0], [[1.0]]) == pytest.approx(math.log(2) + 1, abs=1e-12)

    def test_closed_form_constant_covariate(self):
        # theta=log 2, y=(1,2,3), X=ones: 2 - 2 log 2 + log(12)/3,
        # frozen from direct summation.
        value = nll([math.log(2)], [1.0, 2.0, 3.0], [[1.0]] * 3)
        assert value == pytest.approx(1.4420078554761098, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidData):
            nll([0.0, 0.0], [1.0], [[1.0]])

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            theta, y, X = random_instance(rng)
            a = rng.normal(size=theta.shape) * 0.3
            b = rng.normal(size=theta.shape) * 0.3
            fa, fb = nll(a, y, X), nll(b, y, X)
            for lam in (0.25, 0.5, 0.75):
                mid = nll(lam * a + (1 - lam) * b, y, X)
                assert mid <= lam * fa + (1 - lam) * fb + 1e-9


class TestGradient:
    def test_zero_at_balance(self):
        assert gradient([0.0], [1.0], [[1.0]]) == pytest.approx([0.0])

    def test_single_term(self):
        assert gradient([0.0], [3.0], [[2.0]]) == pytest.approx([-4.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            theta, y, X = random_instance(rng)
            g = gradient(theta, y, X)
            fd = _central_difference(lambda t: nll(t, y, X), theta)
            denom = max(np.abs(fd).max(), 1.0)
            assert np.abs(g - fd).max() / denom < 1e-6


def _central_difference(f, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for j in range(len(theta)):
        e = np.zeros_like(theta)
        e[j] = h
        out[j] = (f(theta + e) - f(theta - e)) / (2 * h)
    return out


class TestFisher:
    def test_matches_finite_difference_hessian(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            theta, y, X = random_instance(rng)
            J = fisher_information(theta, y, X)
            H = _fd_hessian(lambda t: nll(t, y, X), theta)
            assert np.abs(J - H).max() < 1e-5

    def test_psd_at_fitted_theta(self):
        rng = np.random.default_rng(56)
        for _ in range(40):
            _, y, X = random_instance(rng)
            result = fit(y, X)
            assert np.allclose(result.fisher, result.fisher.T)
            assert np.linalg.eigvalsh(result.fisher).min() >= -1e-8


def _fd_hessian(f, theta, h=1e-4):
    k = len(theta)
    H = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            ei = np.zeros(k); ei[i] = h
            ej = np.zeros(k); ej[j] = h
            H[i, j] = (
                f(theta + ei + ej) - f(theta + ei - ej)
                - f(theta - ei + ej) + f(theta - ei - ej)
            ) / (4 * h * h)
    return H


def grid_oracle(y, x, lo=-2.0, hi=2.0, step=1e-4):
    """1-D minimizer of the objective by brute-force grid scan."""
    grid = np.arange(lo, hi + step, step)
    lp = np.outer(x, grid)
    from scipy.special import gammaln

    values = (-np.asarray(y)[:, None] * lp + np.exp(lp)).mean(axis=0) + np.mean(
        gammaln(np.asarray(y) + 1)
    )
    return float(grid[np.argmin(values)])


class TestFit:
    def test_constant_covariate_closed_form(self):
        result = fit([1.0, 2.0, 3.0], [[1.0]] * 3)
        assert result.converged
        assert result.theta[0] == pytest.approx(math.log(2), abs=1e-8)

    def test_all_zero_response_diverges(self):
        result = fit([0.0, 0.0, 0.0], [[1.0]] * 3)
        assert result.diverged.tolist() == [True]
        assert result.theta[0] == -glm.THETA_CAP

    def test_doubling_counts_vs_grid_oracle(self):
        y = [1.0, 2.0, 4.0, 8.0]
        x = [0.0, 1.0, 2.0, 3.0]
        result = fit(y, np.array(x)[:, None])
        assert result.theta[0] == pytest.approx(math.log(2), abs=1e-3)
        assert result.theta[0] == pytest.approx(grid_oracle(y, x), abs=1e-4)

    def test_matches_grid_oracle_on_corpus(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            _, y, X = random_instance(rng, k_max=1)
            result = fit(y, X)
            if result.diverged.any():
                continue
            oracle = grid_oracle(y, X[:, 0])
            if abs(oracle) > 1.95:  # optimum outside the oracle grid
                continue
            assert result.theta[0] == pytest.approx(oracle, abs=1e-4)

    def test_empty_covariates(self):
        from scipy.special import gammaln

        y = np.array([1.0, 2.0, 3.0])
        result = fit(y, np.empty((3, 0)))
        assert result.converged
        assert result.nll == pytest.approx(float(np.mean(gammaln(y + 1) + 1)), abs=1e-12)

    def test_all_zero_covariate_raises(self):
        with pytest.raises(SingularInformation):
            fit([1.0, 2.0], [[0.0], [0.0]])

    def test_invalid_data(self):
        with pytest.raises(InvalidData):
            fit([1.0, float("nan")], [[1.0], [1.0]])
        with pytest.raises(InvalidData):
            fit([-1.0, 2.0], [[1.0], [1.0]])

    def test_gradient_small_when_converged(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            _, y, X = random_instance(rng)
            result = fit(y, X)
            if result.converged and not result.diverged.any():
                g = gradient(result.theta, y, X)
                assert np.abs(g).max() <= glm.TOL * 1.01


class TestWald:
    def test_closed_form_single_covariate(self):
        result = fit([1.0, 2.0, 3.0], [[1.0]] * 3)
        test = wald(result, 0, 3, 0.05)
        # z = sqrt(3) log 2 / sqrt(1/2), frozen from the closed form
        assert test.z == pytest.approx(1.6978569090206654, abs=1e-9)
        assert not test.reject  # 1.698 < 1.96

    def test_zero_coefficient_never_rejects(self):
        result = fit([1.0, 1.0], [[1.0], [1.0]])
        assert result.theta[0] == pytest.approx(0.0, abs=1e-12)
        for alpha in (0.5, 0.1, 0.01):
            assert not wald(result, 0, 2, alpha).reject

    def test_boundary_alpha_is_non_rejection(self):
        result = fit([1.0, 2.0, 3.0], [[1.0]] * 3)
        z = wald(result, 0, 3, 0.05).z
        boundary = math.erfc(abs(z) / math.sqrt(2))  # alpha with threshold == |z|
        assert not wald(result, 0, 3, boundary).reject

    def test_diverged_coefficient_never_rejects(self):
        result = fit([0.0, 0.0, 0.0], [[1.0]] * 3)
        test = wald(result, 0, 3, 0.5)
        assert not test.reject

    def test_unknown_target(self):
        result = fit([1.0, 2.0], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            wald(result, 5, 2, 0.05)


class TestAlphaSchedule:
    # Expected values frozen from an mpmath erfc oracle at 30 digits.
    @pytest.mark.parametrize(
        "n,b,expected",
        [
            (1, 0.15, 0.3173105078629141),
            (1, 0.3, 0.3173105078629141),
            (100, 0.15, 0.046014277755732048),
            (1000, 0.15, 0.0048266208392677317),
            (500, 0.2, 0.00052880539709846717),
            (200, 0.225, 0.00098750767564347063),
        ],
    )
    def test_oracle_values(self, n, b, expected):
        assert alpha_schedule(n, b) == pytest.approx(expected, rel=1e-12)

    def test_b_out_of_range(self):
        for b in (0.0, 0.5, -0.1, 1.0):
            with pytest.raises(ValueError):
                alpha_schedule(100, b)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_schedule(0, 0.2)

    @given(st.integers(1, 10**6), st.floats(0.01, 0.49))
    @settings(max_examples=200)
    def test_in_unit_interval_and_decreasing_in_n(self, n, b):
        a_n = alpha_schedule(n, b)
        assert 0.0 <= a_n < 1.0
        assert alpha_schedule(n + 1, b) <= a_n


def _reference_fit_core(y, X, covariates, log_fact):
    """The Newton loop before the sufficient-statistic solver: every trial
    point recomputes X theta, and every iteration forms X^T W X afresh. It
    reads the solver's limits from glm when called, as the solver does."""
    from countdag.glm import GlmFit, _solve_with_ridge

    n, k = X.shape
    cap = glm.LP_CAP
    inv_n = 1.0 / n
    theta = np.zeros(k)
    diverged = np.zeros(k, dtype=bool)
    lp_capped = False

    def evaluate(th):
        lp = X @ th
        capped = bool(lp.max(initial=-math.inf) > cap)
        w = np.exp(np.minimum(lp, cap) if capped else lp)
        value = (w.sum() - y @ lp) * inv_n + log_fact
        return value, lp, w, capped

    current, lp, w, capped = evaluate(theta)
    lp_capped |= capped
    if not math.isfinite(current):
        raise InvalidData("objective non-finite at theta = 0")

    converged = False
    iterations = 0
    for _ in range(glm.MAX_ITER):
        grad = (X.T @ (w - y)) * inv_n
        if diverged.any():
            free = ~diverged
            if not free.any():
                converged = True
                break
            Xf = X[:, free]
            H = ((Xf.T * w) @ Xf) * inv_n
            grad_free = grad[free]
        else:
            free = None
            H = ((X.T * w) @ X) * inv_n
            grad_free = grad
        step, _ = _solve_with_ridge(H, grad_free)
        if (
            float(np.abs(grad_free).max()) <= glm.TOL
            and float(np.abs(step).max()) <= 1e-4
        ):
            converged = True
            break

        eta = 1.0
        accepted = False
        for _ in range(glm.MAX_HALVINGS + 1):
            if free is None:
                trial = theta - eta * step
            else:
                trial = theta.copy()
                trial[free] = theta[free] - eta * step
            hit = trial <= -glm.THETA_CAP
            any_hit = bool(hit.any())
            if any_hit:
                trial[hit] = -glm.THETA_CAP
            value, lp_t, w_t, capped = evaluate(trial)
            if value < current and math.isfinite(value):
                theta, current, lp, w = trial, value, lp_t, w_t
                lp_capped |= capped
                if any_hit:
                    diverged |= hit
                accepted = True
                break
            eta /= 2.0
        iterations += 1
        if not accepted:
            break

    grad = (X.T @ (w - y)) * inv_n
    if not converged:
        free_grad = grad[~diverged]
        converged = free_grad.size == 0 or float(np.abs(free_grad).max()) <= glm.TOL
    J = ((X.T * w) @ X) * inv_n
    J = (J + J.T) / 2.0
    return GlmFit(covariates, theta, J, current, converged, iterations, diverged, lp_capped)


def _parity_problem(rng, n, k):
    """Counts regression with coefficients of both signs, rates in [e^-4, e^3]."""
    X = rng.poisson(rng.uniform(0.5, 3.0, size=k), size=(n, k)).astype(float)
    theta = rng.uniform(-0.6, 0.6, size=k) / k
    y = rng.poisson(np.exp(np.clip(X @ theta, -4.0, 3.0))).astype(float)
    return y, X


def _separation_problem(rng, n, k):
    """Column 0 is positive only where y = 0: its MLE is -infinity."""
    y, X = _parity_problem(rng, n, k)
    X[:, 0] = np.where(y == 0, rng.integers(1, 4, size=n), 0).astype(float)
    return y, X


class TestSolverParity:
    """The solver against the Newton loop it replaced, on the same inputs."""

    def _both(self, y, X):
        from countdag.glm import _fit_core, _log_factorial

        covariates = tuple(range(X.shape[1]))
        log_fact = float(np.mean(_log_factorial(y)))
        outcomes = []
        for solver, first in ((_reference_fit_core, y), (_fit_core, X.T @ y)):
            try:
                outcomes.append(solver(first, X.copy(), covariates, log_fact))
            except SingularInformation:
                outcomes.append(None)
        return outcomes

    def _assert_same(self, ref, new):
        assert (ref is None) == (new is None)
        if ref is None:
            return
        assert np.abs(new.theta - ref.theta).max() <= 1e-6
        assert new.nll == pytest.approx(ref.nll, rel=1e-10)
        scale = np.abs(ref.fisher).max()
        assert np.abs(new.fisher - ref.fisher).max() <= 1e-6 * scale
        assert new.diverged.tolist() == ref.diverged.tolist()
        assert new.lp_capped == ref.lp_capped

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("n", [30, 1000])
    def test_seeded_problems(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        for _ in range(8):
            ref, new = self._both(*_parity_problem(rng, n, k))
            assert ref is not None
            self._assert_same(ref, new)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_separation_freezes_same_coefficient(self, k):
        rng = np.random.default_rng(31 + k)
        ref, new = self._both(*_separation_problem(rng, 200, k))
        assert ref.diverged[0] and ref.theta[0] == -glm.THETA_CAP
        self._assert_same(ref, new)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_linear_predictor_cap(self, k, monkeypatch):
        rng = np.random.default_rng(41 + k)
        X = rng.poisson(2.0, size=(300, k)).astype(float)
        y = rng.poisson(np.exp(np.minimum(X @ np.full(k, 0.5 / k), 5.0))).astype(float)
        monkeypatch.setattr(glm, "LP_CAP", 2.0)
        ref, new = self._both(y, X)
        assert ref.lp_capped
        self._assert_same(ref, new)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_singular_then_ridge(self, k):
        # An all-zero column makes the information exactly singular at
        # every iteration; the ridge rescue solves each Newton system.
        rng = np.random.default_rng(51 + k)
        y, X = _parity_problem(rng, 200, k)
        X[:, -1] = 0.0
        ref, new = self._both(y, X)
        assert ref is not None and ref.theta[-1] == 0.0
        assert np.linalg.matrix_rank(ref.fisher) == k - 1
        self._assert_same(ref, new)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_ridge_rescues_counted(self, k):
        # A repeated column makes the information singular in floating
        # point, so the ridge solves the Newton systems; a well-posed fit
        # needs it for none.
        from countdag.glm import fit

        rng = np.random.default_rng(71 + k)
        y, X = _parity_problem(rng, 200, k)
        assert fit(y, X).ridge_rescues == 0
        X[:, -1] = X[:, 0]
        rescued = fit(y, X)
        assert 1 <= rescued.ridge_rescues <= rescued.iterations + 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_singular_raised_alike(self, k):
        rng = np.random.default_rng(61 + k)
        y, X = _parity_problem(rng, 50, k)
        X[:] = 0.0  # zero information: the ridge has nothing to scale
        ref, new = self._both(y, X)
        assert ref is None and new is None

    # The solver on (X^T y, distinct rows, multiplicities) against the same
    # solver on every row.

    def _rows_and_patterns(self, y, X):
        from countdag.glm import _fit_core, _log_factorial

        patterns, counts = np.unique(X, axis=0, return_counts=True)
        assert len(patterns) < len(y)  # the problem has repeated rows
        xty = X.T @ y
        covariates = tuple(range(X.shape[1]))
        log_fact = float(np.mean(_log_factorial(y)))
        outcomes = []
        for args in ((xty, X, None), (xty, patterns, counts.astype(float))):
            try:
                outcomes.append(_fit_core(args[0], args[1], covariates, log_fact, args[2]))
            except SingularInformation:
                outcomes.append(None)
        return outcomes

    def _assert_same_flags(self, ref, new):
        self._assert_same(ref, new)
        if ref is not None:
            assert new.converged == ref.converged

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("n", [300, 1000])
    def test_patterns_seeded_problems(self, n, k):
        rng = np.random.default_rng(7000 + 1000 * n + k)
        for _ in range(8):
            y, X = _parity_problem(rng, n, k)
            X = np.minimum(X, 2.0)  # three levels, so rows repeat
            rows, patterns = self._rows_and_patterns(y, X)
            assert rows is not None
            self._assert_same_flags(rows, patterns)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_patterns_separation(self, k):
        rng = np.random.default_rng(7031 + k)
        y, X = _separation_problem(rng, 400, k)
        rows, patterns = self._rows_and_patterns(y, np.minimum(X, 3.0))
        assert rows.diverged[0] and rows.theta[0] == -glm.THETA_CAP
        self._assert_same_flags(rows, patterns)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_patterns_linear_predictor_cap(self, k, monkeypatch):
        rng = np.random.default_rng(7041 + k)
        X = np.minimum(rng.poisson(2.0, size=(600, k)), 4).astype(float)
        y = rng.poisson(np.exp(np.minimum(X @ np.full(k, 0.5 / k), 5.0))).astype(float)
        monkeypatch.setattr(glm, "LP_CAP", 1.0)
        rows, patterns = self._rows_and_patterns(y, X)
        assert rows.lp_capped
        self._assert_same_flags(rows, patterns)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_patterns_singular_then_ridge(self, k):
        rng = np.random.default_rng(7051 + k)
        y, X = _parity_problem(rng, 400, k)
        X = np.minimum(X, 2.0)
        X[:, -1] = 0.0
        rows, patterns = self._rows_and_patterns(y, X)
        assert rows is not None and rows.theta[-1] == 0.0
        assert np.linalg.matrix_rank(rows.fisher) == k - 1
        self._assert_same_flags(rows, patterns)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_patterns_singular_raised_alike(self, k):
        rng = np.random.default_rng(7061 + k)
        y, X = _parity_problem(rng, 50, k)
        X[:] = 0.0
        rows, patterns = self._rows_and_patterns(y, X)
        assert rows is None and patterns is None


class TestStallExit:
    """A full Newton step rejected although it promised a decrease within
    RESOLUTION ends the line search at that first trial (a stall). On each
    problem here the last line search stalls: with RESOLUTION = 0 there is
    no stall exit, and that search rejects all MAX_HALVINGS + 1 trials, as
    every stall did before the exit."""

    @pytest.mark.parametrize("k, n, seed", [(1, 1000, 82), (2, 100, 36), (3, 1000, 27)])
    def test_stall_ends_after_the_full_step(self, k, n, seed, monkeypatch):
        y, X = _parity_problem(np.random.default_rng(seed), n, k)
        covariates = tuple(range(k))
        log_fact = float(np.mean(glm._log_factorial(y)))
        args = (X.T @ y, X, covariates, log_fact)
        fast = glm._fit_core(*args)
        with monkeypatch.context() as m:
            m.setattr(glm, "RESOLUTION", 0.0)
            slow = glm._fit_core(*args)
        # The same accepted steps; only the stalled search's trials differ.
        assert fast.iterations == slow.iterations
        assert np.array_equal(fast.theta, slow.theta) and fast.nll == slow.nll
        assert slow.halvings - fast.halvings == glm.MAX_HALVINGS + 1
        # The flag a search of all trials gave: the promised decrease at the
        # final point is within RESOLUTION of the objective's terms.
        w = np.exp(X @ fast.theta)
        grad = X.T @ (w - y) / n
        decrease = 0.5 * grad @ np.linalg.solve(fast.fisher, grad)
        scale = w.mean() + abs(fast.theta @ X.T @ y) / n + log_fact
        assert decrease <= glm.RESOLUTION * scale
        assert fast.converged is True
        ref = _reference_fit_core(y, X.copy(), covariates, log_fact)
        TestSolverParity()._assert_same(ref, fast)

    @pytest.mark.parametrize("k", [3, 4, 7])
    def test_solve_matches_numpy(self, k):
        from countdag.glm import _solve_plain

        rng = np.random.default_rng(90 + k)
        A = rng.normal(size=(k, k))
        H = A @ A.T + 0.1 * np.eye(k)
        for rhs in (rng.normal(size=k), np.eye(k)):
            assert np.array_equal(_solve_plain(H, rhs), np.linalg.solve(H, rhs))
        H[-1] = H[0]
        H[:, -1] = H[:, 0]
        H[-1, -1] = H[0, 0]  # two equal rows: exactly singular
        assert _solve_plain(H, np.ones(k)) is None
        assert _solve_plain(np.zeros((k, k)), np.eye(k)) is None


class TestPatternBuilder:
    """Distinct covariate patterns of a count matrix, and the path choice."""

    @staticmethod
    def _data(n=3000, p=5, seed=3):
        from countdag.data import CountMatrix

        rng = np.random.default_rng(seed)
        return CountMatrix(rng.poisson(rng.uniform(0.5, 4.0, size=p), size=(n, p)))

    @pytest.mark.parametrize("covariates", [(0,), (1, 3), (0, 2, 4), (4, 1, 3)])
    def test_patterns_rebuild_rows(self, covariates, monkeypatch):
        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", 0)
        data = self._data()
        builder = glm.PatternBuilder(data)
        X, counts = builder.patterns(covariates)
        rows = data.values[:, list(covariates)].astype(float)
        expected, multiplicities = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(X, expected)
        assert np.array_equal(counts, multiplicities)
        assert counts.dtype == np.float64
        _, X_fit, counts_fit = builder.design(2, covariates)
        assert np.array_equal(X_fit, X) and np.array_equal(counts_fit, counts)

    def test_design_xty_is_exact(self, monkeypatch):
        # X^T y from the cross products equals rows.T @ y exactly, on the
        # pattern path, on the row path and after the set was evicted.
        from countdag.data import CountMatrix

        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", 0)
        values = np.random.default_rng(9).integers(0, 20, size=(3000, 6))
        values[:, 5] = np.random.default_rng(10).integers(0, 10**6, size=3000)
        data = CountMatrix(values)
        builder = glm.PatternBuilder(data)
        built = self._recording(builder, monkeypatch)
        on_rows = [(0, 2, 4), (0, 5)]  # code spaces of 8,000 and ~60,000 > n
        sets = [(0,), (0, 1), (1, 3), *on_rows]
        sets += [(a, b) for a in range(5) for b in range(5) if a != b]
        sets += [(0, 1)]  # evicted by the pairs before it
        for covariates in sets:
            rows = data.values[:, list(covariates)].astype(float)
            for s in sorted(set(range(6)) - set(covariates)):
                xty, X, counts = builder.design(s, covariates)
                assert (counts is None) == (covariates in on_rows)
                want = rows.T @ data.values[:, s].astype(float)
                assert xty.tolist() == want.tolist()
        assert built.count((0, 1)) == 2

    def test_level_codes_in_smallest_type(self):
        from countdag.data import CountMatrix
        from countdag.glm import PatternBuilder

        rng = np.random.default_rng(4)
        values = np.column_stack([
            rng.integers(0, 5, size=2000),
            rng.permutation(np.arange(2000) % 300),
            rng.integers(0, 10**12, size=2000),  # too sparse to count by bincount
        ])
        builder = PatternBuilder(CountMatrix(values))
        for j, dtype in enumerate((np.uint8, np.uint16, np.uint16)):
            levels, codes = builder.levels(j)
            expected_levels, expected_codes = np.unique(values[:, j], return_inverse=True)
            assert codes.dtype == dtype
            assert np.array_equal(levels, expected_levels.astype(float))
            assert np.array_equal(codes, expected_codes.ravel())

    def test_code_space_beyond_int64_takes_rows(self, monkeypatch):
        from countdag.data import CountMatrix

        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", 0)
        # 70 binary columns: 2**70 codes, a product that wraps to 0 in int64.
        values = np.random.default_rng(5).integers(0, 2, size=(16, 70))
        values[:2] = [[0] * 70, [1] * 70]
        builder = glm.PatternBuilder(CountMatrix(values))
        covariates = tuple(range(70))
        assert math.prod(builder.levels(j)[0].size for j in covariates) > 2**63
        assert builder.patterns(covariates) is None
        y, X, counts = builder.design(0, covariates[1:])
        assert counts is None and X.shape == (16, 69)

    def test_path_choice(self, monkeypatch):
        data = self._data(n=400)
        builder = glm.PatternBuilder(data)
        assert builder.patterns((0, 1)) is None  # fewer rows than the cut-off
        assert builder.patterns(()) is None
        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", 400)
        assert builder.patterns((0, 1)) is not None
        # A code space larger than n takes the rows, whatever the cut-off.
        space = math.prod(builder.levels(j)[0].size for j in range(5))
        assert space > 400
        assert builder.patterns(tuple(range(5))) is None

    @staticmethod
    def _recording(builder, monkeypatch):
        """Covariate sets the builder builds, in order."""
        built = []

        def build(covariates, original=builder._build):
            built.append(covariates)
            return original(covariates)

        monkeypatch.setattr(builder, "_build", build)
        return built

    def test_warm_matches_cold_in_any_order(self, monkeypatch):
        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", 0)
        data = self._data()
        sets = [(0,), (0, 1), (0, 1, 2), (1, 3), (1, 3, 4), (2,), (2, 0), (4, 1, 3),
                (0, 2, 4), (3, 4), (0, 1, 3), (1,), (1, 3, 4, 0)]  # the last takes the rows
        order = [sets[i] for i in np.random.default_rng(6).permutation(2 * len(sets)) % len(sets)]
        warm = glm.PatternBuilder(data)
        built = self._recording(warm, monkeypatch)
        for covariates in order:
            cold = glm.PatternBuilder(data)
            found, expected = warm.patterns(covariates), cold.patterns(covariates)
            assert (found is None) == (expected is None) == (len(covariates) == 4)
            for got, want in zip(found or (), expected or ()):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            for s in range(data.p):
                assert np.array_equal(warm.design(s, covariates)[0], cold.design(s, covariates)[0])
        # Each set is built once, and only sets that were asked for.
        assert sorted(built) == sorted(sets[:-1])

    def test_cached_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", 0)
        builder = glm.PatternBuilder(self._data())
        for covariates in [(0,), (0, 2), (0, 2, 3)]:
            found = builder.patterns(covariates)
            assert builder.patterns(covariates) is found
            for array in found:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_eviction_keeps_patterns_within_the_rows(self, monkeypatch):
        from countdag.data import CountMatrix

        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", 0)
        # 20 levels per column: about 400 patterns per pair, so every ordered
        # pair holds up to 400 * 3 * 8 = 3.2n bytes of patterns and
        # multiplicities, and the 30 pairs need about 96n > 6 * 8n bytes.
        values = np.random.default_rng(7).integers(0, 20, size=(3000, 6))
        builder = glm.PatternBuilder(CountMatrix(values))
        built = self._recording(builder, monkeypatch)
        first = [a.copy() for a in builder.patterns((0, 1))]
        sets = [(j,) for j in range(6)] + [(a, b) for a in range(6) for b in range(6) if a != b]
        for covariates in sets:
            builder.patterns(covariates)
            cached = sum(X.nbytes + counts.nbytes for X, counts in builder._patterns.values())
            assert cached == builder._pattern_bytes <= builder.variables.nbytes
        assert len(builder._patterns) < len(sets) and (0, 1) not in builder._patterns
        again = builder.patterns((0, 1))
        for got, want in zip(again, first):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert built.count((0, 1)) == 2

    def test_nothing_cached_below_the_cut_off(self, monkeypatch):
        data = self._data(n=glm.PATTERN_MIN_ROWS - 1)
        builder = glm.PatternBuilder(data)
        built = self._recording(builder, monkeypatch)
        for covariates in [(0,), (0, 1), (0, 1, 2)]:
            assert builder.design(3, covariates)[2] is None
        assert built == [] and not builder._patterns

    @pytest.mark.parametrize("high", [9, 10**12])  # from value counts, and from every row
    def test_log_fact_from_value_counts(self, high):
        from scipy.special import gammaln

        from countdag.data import CountMatrix
        from countdag.glm import PatternBuilder

        rng = np.random.default_rng(8)
        values = rng.integers(0, high, size=(5000, 3))
        values[:, 1] = rng.poisson(2.5, size=5000)
        builder = PatternBuilder(CountMatrix(values))
        for s in range(3):
            expected = np.mean(gammaln(values[:, s] + 1.0))
            assert builder.log_fact(s) == pytest.approx(expected, rel=1e-12)


class TestWaldAll:
    """One factorisation per fit gives the same tests as wald per covariate."""

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 40])
    def test_matches_wald(self, k):
        rng = np.random.default_rng(90 + k)
        y, X = _parity_problem(rng, 400, k)
        result = fit(y, X)
        for t, test in enumerate(wald_all(result, 400, 0.05)):
            ref = wald(result, t, 400, 0.05)
            assert test.target == t
            assert test.z == pytest.approx(ref.z, rel=1e-12)
            assert test.reject == ref.reject

    def test_diverged_coefficient(self):
        rng = np.random.default_rng(95)
        y, X = _separation_problem(rng, 200, 3)
        result = fit(y, X)
        assert result.diverged[0]
        tests = wald_all(result, 200, 0.5)
        assert tests[0] == wald(result, 0, 200, 0.5)
        assert tests[0].z == 0.0 and not tests[0].reject
        assert [t.z for t in tests[1:]] == pytest.approx([wald(result, j, 200, 0.5).z for j in (1, 2)], rel=1e-12)

    def _fit_with(self, fisher):
        from countdag.glm import GlmFit

        k = len(fisher)
        return GlmFit(tuple(range(k)), np.full(k, 0.5), np.array(fisher, dtype=float),
                      1.0, True, 3, np.zeros(k, dtype=bool))

    def test_singular_information_for_every_covariate(self):
        result = self._fit_with([[0.0, 0.0], [0.0, 0.0]])
        for t, test in enumerate(wald_all(result, 10, 0.05)):
            assert isinstance(test, SingularInformation)
            with pytest.raises(SingularInformation, match=str(test)):
                wald(result, t, 10, 0.05)

    def test_non_positive_variance_for_one_covariate(self):
        result = self._fit_with([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 4.0]])
        tests = wald_all(result, 10, 0.05)
        assert isinstance(tests[1], SingularInformation)
        assert "covariate 1" in str(tests[1])
        assert tests[0] == wald(result, 0, 10, 0.05)
        assert tests[2] == wald(result, 2, 10, 0.05)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            wald_all(self._fit_with([[1.0]]), 10, 1.0)

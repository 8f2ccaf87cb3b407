import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countdag import glm, learn
from countdag.data import CountMatrix, InvalidData
from countdag.glm import (
    SingularInformation,
    fisher_information,
    fit,
    gradient,
    nll,
    wald,
)
from countdag.learn import LearnConfig, alpha_schedule

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

    @pytest.mark.parametrize("function", [nll, gradient, fisher_information])
    @pytest.mark.parametrize("y", [-0.5, -1.0, float("nan"), float("inf")])
    def test_rejects_responses_that_are_no_counts(self, function, y):
        # nll once returned 1.572 at y = -0.5, inf at -1 and nan at nan.
        with pytest.raises(InvalidData, match="response"):
            function([0.0], [y], [[0.0]])

    @pytest.mark.parametrize("function", [nll, gradient, fisher_information])
    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_rejects_non_finite_covariates(self, function, x):
        # As fit does; nll once returned nan at x = nan, and gradient inf at inf.
        with pytest.raises(InvalidData, match="covariate"):
            function([1.0], [1.0], [[x]])

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
        # fit, nll, gradient and fisher_information share one shape check.
        for X in (np.ones(3), np.ones((3, 2, 2))):
            with pytest.raises(InvalidData, match="covariate matrix must be 2-D"):
                fit(np.ones(3), X)

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
        z = wald(result, 0, 3)
        # z = sqrt(3) log 2 / sqrt(1/2), frozen from the closed form
        assert z == pytest.approx(1.6978569090206654, abs=1e-9)
        assert abs(z) <= LearnConfig(alpha=0.05).critical_value(3)  # 1.698 < 1.96

    def test_zero_coefficient_never_rejects(self):
        result = fit([1.0, 1.0], [[1.0], [1.0]])
        assert result.theta[0] == pytest.approx(0.0, abs=1e-12)
        for alpha in (0.5, 0.1, 0.01):
            assert abs(wald(result, 0, 2)) <= LearnConfig(alpha=alpha).critical_value(2)

    def test_boundary_alpha_is_non_rejection(self):
        # The learners' rule is strict: |z| == z* keeps H0, one ulp less rejects.
        # Two groups, x = 0 and x = 1, with response totals 2 and 4: z is the
        # log rate ratio over its standard error, log 2 / sqrt(1/2 + 1/4).
        data = CountMatrix(np.array([[0, 1], [0, 1], [1, 2], [1, 2]]))
        fitter = learn.NodeFitter(data)
        report = learn.LearnReport(alpha=0.05)
        z = wald(fitter.fit(1, (0,), glm.FitTally()), 0, 4)
        assert z == pytest.approx(0.8003774225686291, abs=1e-9)
        assert not learn._wald_edge(fitter, report, abs(z), 0, 1, (), "")
        assert learn._wald_edge(fitter, report, math.nextafter(abs(z), 0.0), 0, 1, (), "")
        assert [t.z for t in report.edge_tests.values()] == [z]

    def test_diverged_coefficient_never_rejects(self):
        result = fit([0.0, 0.0, 0.0], [[1.0]] * 3)
        assert result.diverged[0]
        assert wald(result, 0, 3) == 0.0  # below every critical value

    def test_unknown_target(self):
        result = fit([1.0, 2.0], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            wald(result, 5, 2)


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


def _profiled(y, X, counts=None, xty=None):
    """The learners' node regression of y on X given sum(y), on the road a
    NodeFitter takes: ``_fit_core``, or on one covariate a ``_fit_levels``
    batch of one on the covariate's value table, whose SingularInformation
    it raises."""
    log_fact = float(np.mean(glm._log_factorial(y)))
    xty = X.T @ y if xty is None else xty
    if X.shape[1] != 1:
        return glm._fit_core(xty, X, tuple(range(X.shape[1])), log_fact, counts, float(y.sum()))
    values, inverse = np.unique(X[:, 0], return_inverse=True)
    mults = np.bincount(inverse, counts).astype(float)
    (found,) = glm._fit_levels(
        values, mults, np.array([values.size]), xty, np.array([y.sum()]), np.array([log_fact]),
        float(mults.sum()), [0],
    )
    if isinstance(found, SingularInformation):
        raise found
    return found


def _with_ones(X):
    return np.column_stack([X, np.ones(len(X))])


class TestSolverParity:
    """The learners' profiled solver against glm.fit on X with a column of
    ones appended, the same model with the intercept as a coefficient, and
    on distinct rows against itself on every row; glm.fit alone where the
    profile has no counterpart. (On the profiled path an all-zero column is
    constant, so collinear with the intercept: see
    TestProfiledIntercept.test_constant_covariate_is_collinear.)"""

    @staticmethod
    def _both(y, X):
        """The profiled fit and the ones-column fit of y on X."""
        return _profiled(y, X.copy()), fit(y, _with_ones(X))

    @staticmethod
    def _assert_same(profiled, stacked, y, X):
        """The same theta, intercept, nll, flags and Wald z; the ones-column
        fit's nll is its objective at its theta."""
        n, k = X.shape
        assert stacked.nll == pytest.approx(nll(stacked.theta, y, _with_ones(X)), rel=1e-12)
        assert np.abs(profiled.theta - stacked.theta[:k]).max() <= 1e-6
        assert profiled.intercept == pytest.approx(stacked.theta[k], abs=1e-6)
        assert profiled.nll == pytest.approx(stacked.nll, rel=1e-10)
        assert profiled.diverged.tolist() == stacked.diverged[:k].tolist()
        assert not stacked.diverged[k]
        assert profiled.converged == stacked.converged
        for t in range(k):
            assert wald(profiled, t, n) == pytest.approx(wald(stacked, t, n), rel=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("n", [30, 1000])
    def test_seeded_problems(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        for _ in range(8):
            y, X = _parity_problem(rng, n, k)
            self._assert_same(*self._both(y, X), y, X)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_separation_freezes_same_coefficient(self, k):
        rng = np.random.default_rng(31 + k)
        y, X = _separation_problem(rng, 200, k)
        profiled, stacked = self._both(y, X)
        assert stacked.diverged[0] and stacked.theta[0] == -glm.THETA_CAP
        assert profiled.theta[0] == -glm.THETA_CAP
        self._assert_same(profiled, stacked, y, X)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_linear_predictor_cap(self, k, monkeypatch):
        """glm.fit does not read LP_CAP: lowered below the fitted linear
        predictors, it leaves the fit bit for bit the same, and converged."""
        rng = np.random.default_rng(41 + k)
        X = rng.poisson(2.0, size=(300, k)).astype(float)
        y = rng.poisson(np.exp(np.minimum(X @ np.full(k, 0.5 / k), 5.0))).astype(float)
        expected = fit(y, X)
        assert (X @ expected.theta).max() > 1.0
        for cap in (1.0, 2.0):
            monkeypatch.setattr(glm, "LP_CAP", cap)
            result = fit(y, X)
            assert result.converged
            assert result.theta.tobytes() == expected.theta.tobytes()
            assert result.nll == expected.nll
            assert result.fisher.tobytes() == expected.fisher.tobytes()

    def test_heavy_rates_report_their_objective(self):
        """Rates of e^26 and more: every trial of the first Newton step
        from theta = 0 overflows, so the fit stays at theta = 0, reports
        the objective there and does not claim convergence."""
        rng = np.random.default_rng(26)
        x = rng.poisson(3.0, size=400).astype(float)
        X = np.column_stack([np.ones(400), x])
        y = rng.poisson(np.exp(26.0 + x)).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(y, X)
            assert result.nll == pytest.approx(nll(result.theta, y, X), rel=1e-12)
        assert not result.converged

    @staticmethod
    def _assert_zero_column_ignored(y, X):
        """An all-zero last column makes glm.fit's information exactly
        singular at every iteration; the ridge rescue solves each Newton
        system, and the fit is that without the column."""
        k = X.shape[1]
        X[:, -1] = 0.0
        result, without = fit(y, X), fit(y, X[:, :-1])
        assert result.theta[-1] == 0.0 and result.ridge_rescues >= 1
        assert np.linalg.matrix_rank(result.fisher) == k - 1
        assert np.abs(result.theta[:-1] - without.theta).max() <= 1e-6
        assert result.nll == pytest.approx(without.nll, rel=1e-10)
        assert result.converged == without.converged
        assert result.diverged[:-1].tolist() == without.diverged.tolist()

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_singular_then_ridge(self, k):
        rng = np.random.default_rng(51 + k)
        self._assert_zero_column_ignored(*_parity_problem(rng, 200, k))

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_ridge_rescues_counted(self, k):
        # A repeated column makes the information singular in floating
        # point, so the ridge solves the Newton systems; a well-posed fit
        # needs it for none.
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
        with pytest.raises(SingularInformation, match="ridge rescue impossible"):
            fit(y, X)
        with pytest.raises(SingularInformation):
            _profiled(y, X)

    # The profiled solver on (X^T y, distinct rows, multiplicities) against
    # the same solver on every row.

    @staticmethod
    def _rows_and_patterns(y, X):
        patterns, counts = np.unique(X, axis=0, return_counts=True)
        assert len(patterns) < len(y)  # the problem has repeated rows
        outcomes = []
        for args in ((X, None), (patterns, counts.astype(float))):
            try:
                outcomes.append(_profiled(y, args[0], args[1], xty=X.T @ y))
            except SingularInformation:
                outcomes.append(None)
        return outcomes

    @staticmethod
    def _assert_rows_match(rows, patterns):
        assert (rows is None) == (patterns is None)
        if rows is None:
            return
        assert np.abs(patterns.theta - rows.theta).max() <= 1e-6
        assert patterns.intercept == pytest.approx(rows.intercept, abs=1e-6)
        assert patterns.nll == pytest.approx(rows.nll, rel=1e-10)
        scale = np.abs(rows.fisher).max()
        assert np.abs(patterns.fisher - rows.fisher).max() <= 1e-6 * scale
        assert patterns.diverged.tolist() == rows.diverged.tolist()
        assert patterns.converged == rows.converged

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("n", [300, 1000])
    def test_patterns_seeded_problems(self, n, k):
        rng = np.random.default_rng(7000 + 1000 * n + k)
        for _ in range(8):
            y, X = _parity_problem(rng, n, k)
            X = np.minimum(X, 2.0)  # three levels, so rows repeat
            rows, patterns = self._rows_and_patterns(y, X)
            assert rows is not None
            self._assert_rows_match(rows, patterns)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_patterns_separation(self, k):
        rng = np.random.default_rng(7031 + k)
        y, X = _separation_problem(rng, 400, k)
        rows, patterns = self._rows_and_patterns(y, np.minimum(X, 3.0))
        assert rows.diverged[0] and rows.theta[0] == -glm.THETA_CAP
        self._assert_rows_match(rows, patterns)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_patterns_linear_predictor_cap(self, k, monkeypatch):
        # Past the lowered cap the profile takes every trial's rates relative
        # to the largest linear predictor, on rows and on patterns alike.
        rng = np.random.default_rng(7041 + k)
        X = np.minimum(rng.poisson(2.0, size=(600, k)), 4).astype(float)
        y = rng.poisson(np.exp(np.minimum(X @ np.full(k, 0.5 / k), 5.0))).astype(float)
        monkeypatch.setattr(glm, "LP_CAP", 1.0)
        self._assert_rows_match(*self._rows_and_patterns(y, X))

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_patterns_singular_then_ridge(self, k):
        rng = np.random.default_rng(7051 + k)
        y, X = _parity_problem(rng, 400, k)
        self._assert_zero_column_ignored(y, np.minimum(X, 2.0))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_patterns_singular_raised_alike(self, k):
        rng = np.random.default_rng(7061 + k)
        y, X = _parity_problem(rng, 50, k)
        X[:] = 0.0
        rows, patterns = self._rows_and_patterns(y, X)
        assert rows is None and patterns is None


def _intercept_problem(rng, n, k, cap=2.0):
    """Counts regression with intercept 0.8; covariates capped at ``cap``
    repeat, so the rows have few distinct patterns."""
    X = np.minimum(rng.poisson(rng.uniform(0.5, 3.0, size=k), size=(n, k)), cap)
    theta = rng.uniform(-0.6, 0.6, size=k) / k
    return rng.poisson(np.exp(0.8 + X @ theta)).astype(float), X.astype(float)


class TestProfiledIntercept:
    """Node regressions (``_profiled``) profile the intercept out; the
    zero-intercept solver on X with a column of ones appended fits the same
    model with the intercept as a coefficient."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7])
    def test_matches_ones_column(self, k):
        rng = np.random.default_rng(8100 + k)
        for _ in range(4):
            y, X = _intercept_problem(rng, 500, k, cap=6.0)
            profiled = _profiled(y, X)
            stacked = fit(y, _with_ones(X))
            assert profiled.converged and stacked.converged
            assert np.abs(profiled.theta - stacked.theta[:k]).max(initial=0.0) <= 1e-6
            assert profiled.intercept == pytest.approx(stacked.theta[k], abs=1e-6)
            assert profiled.nll == pytest.approx(stacked.nll, rel=1e-10)
            for t in range(k):
                assert wald(profiled, t, len(y)) == pytest.approx(
                    wald(stacked, t, len(y)), rel=1e-6
                )

    def test_gradient_small_when_converged(self):
        """A converged node regression is within TOL of the optimum: the
        full model's gradient at (theta, intercept) on X with a column of
        ones, which a stall too must meet."""
        rng = np.random.default_rng(78)
        problems = [random_instance(rng)[1:] for _ in range(300)]
        rng = np.random.default_rng(79)
        problems += [_parity_problem(rng, n, k) for n in (30, 100, 1000) for k in (1, 2, 3, 4, 7)
                     for _ in range(20)]
        checked = 0
        for y, X in problems:
            try:
                result = _profiled(y, X)
            except SingularInformation:  # a constant covariate
                continue
            if result.converged and not result.diverged.any():
                g = gradient(np.append(result.theta, result.intercept), y, _with_ones(X))
                assert np.abs(g).max() <= glm.TOL * 1.01
                checked += 1
        assert checked >= 500

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_patterns_match_rows(self, k):
        rng = np.random.default_rng(8200 + k)
        y, X = _intercept_problem(rng, 1000, k)
        patterns, counts = np.unique(X, axis=0, return_counts=True)
        rows = _profiled(y, X)
        grouped = _profiled(y, patterns, counts.astype(float), xty=X.T @ y)
        assert np.abs(grouped.theta - rows.theta).max() <= 1e-8
        assert grouped.intercept == pytest.approx(rows.intercept, abs=1e-8)
        assert grouped.nll == pytest.approx(rows.nll, rel=1e-12)
        # Each information is that of the fit's last iterate, within TOL of the optimum.
        assert np.abs(grouped.fisher - rows.fisher).max() <= 1e-6 * np.abs(rows.fisher).max()

    @pytest.mark.parametrize("k", [2, 7])
    def test_overwrite_x_centres_wide_fits_in_place(self, k):
        """Given overwrite_x, a fit wider than MOMENT_MAX_K centres X in
        place and fits what a fit on a copy fits; without it no fit, nor
        glm.fit, writes into the caller's X."""
        rng = np.random.default_rng(8400 + k)
        y, X = _intercept_problem(rng, 500, k, cap=6.0)
        X = np.asfortranarray(X)
        kept = X.copy()
        args = (X.T @ y, X, tuple(range(k)), float(np.mean(glm._log_factorial(y))))
        copied = glm._fit_core(*args, None, float(y.sum()))
        fit(y, X)
        assert np.array_equal(X, kept)
        owned = glm._fit_core(*args, None, float(y.sum()), overwrite_x=True)
        assert np.array_equal(owned.theta, copied.theta) and owned.nll == copied.nll
        assert np.array_equal(owned.fisher, copied.fisher)
        if k > glm.MOMENT_MAX_K:
            assert np.array_equal(X, kept - kept.T @ y / y.sum())
        else:
            assert np.array_equal(X, kept)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("value", [0.0, 3.0])
    def test_constant_covariate_is_collinear(self, k, value):
        rng = np.random.default_rng(8300 + k)
        y, X = _intercept_problem(rng, 200, k)
        X[:, -1] = value
        with pytest.raises(SingularInformation, match=f"covariate {k - 1} is constant"):
            _profiled(y, X)

    def test_combination_collinear_with_intercept_takes_the_ridge(self):
        # x0 + x2 = 5 on every row, so the centred columns x0 - c0 and
        # x2 - c2 are negatives of each other: the Newton systems need the ridge,
        # the pair's coefficients carry no evidence, and x1's matches the
        # ones-column fit.
        rng = np.random.default_rng(8500)
        x0 = np.minimum(rng.poisson(2.0, 300), 5).astype(float)
        x1 = rng.poisson(1.0, 300).astype(float)
        y = rng.poisson(np.exp(0.3 + 0.2 * x0 + 0.1 * x1)).astype(float)
        X = np.column_stack([x0, x1, 5.0 - x0])
        result = _profiled(y, X)
        stacked = fit(y, _with_ones(X))
        assert result.converged and result.ridge_rescues >= 1
        assert result.theta[1] == pytest.approx(stacked.theta[1], abs=1e-6)
        assert abs(wald(result, 0, 300)) < 1e-3 and abs(wald(result, 2, 300)) < 1e-3

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_all_zero_response(self, k):
        X = np.random.default_rng(8400 + k).poisson(1.0, size=(50, k)).astype(float)
        X[:, :1] = 0.0  # even a constant covariate is no failure here
        result = _profiled(np.zeros(50), X)
        assert result.intercept == -math.inf and result.nll == 0.0
        assert result.diverged.all() and result.converged
        assert all(wald(result, t, 50) == 0.0 for t in range(k))
        tally = glm.FitTally()
        tally.add(result)
        assert tally.diverged == 1

    def test_heavy_tail_first_step_is_bounded(self):
        # x1 | x0 ~ Pois(exp(0.5 x0)) reaches 25 and y | x1 ~ Pois(exp(0.5
        # x1)) reaches 2.7e5. The first Newton step, theta = 11, would move
        # the linear predictors by up to 260 and leave every rate but the
        # largest below 1e-10 of it, where the curvature no longer steers.
        rng = np.random.default_rng(3009)
        x0 = rng.poisson(1.0, size=2000)
        x1 = rng.poisson(np.exp(0.5 * x0))
        y = rng.poisson(np.exp(0.5 * x1)).astype(float)
        result = _profiled(y, x1[:, None].astype(float))
        assert result.converged and abs(result.theta[0] - 0.5) < 0.01
        assert wald(result, 0, 2000) > 100


BLOCK = glm.MOMENT_BLOCK_ROWS


def _unblocked_moments(Xf, w, c):
    """The wide moments as a single pass forms them: (c X^T w, c X^T W X)."""
    Xft = Xf.T
    return (Xft @ w) * c, ((Xft * w) @ Xf) * c


def _reference_fit_core(y, X, monkeypatch):
    """The node regression with every row in one block of moments."""
    with monkeypatch.context() as m:
        m.setattr(glm, "MOMENT_BLOCK_ROWS", len(y))
        return _profiled(y, X.copy())


class TestBlockedMoments:
    """Fits wider than MOMENT_MAX_K form their Newton moments in blocks of
    MOMENT_BLOCK_ROWS rows; a fit of at most one block forms them as one
    pass over all rows does."""

    @staticmethod
    def _moments(rng, n, k):
        X = rng.poisson(rng.uniform(0.5, 3.0, size=k), size=(n, k)).astype(float)
        Xf, moments = glm._newton_moments(X, X.mean(axis=0))
        w = np.exp(rng.uniform(-4.0, 3.0, size=n))
        return Xf, moments, w

    @pytest.mark.parametrize("k", [5, 9])
    @pytest.mark.parametrize("n", [1, 700, BLOCK])
    def test_one_block_is_bit_equal(self, n, k):
        Xf, moments, w = self._moments(np.random.default_rng(n + k), n, k)
        for got, want in zip(moments(w, 0.37), _unblocked_moments(Xf, w, 0.37)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [5, 12, 19])
    @pytest.mark.parametrize("n", [BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_blocks_match_one_pass(self, n, k):
        Xf, moments, w = self._moments(np.random.default_rng(n + k), n, k)
        for _ in range(2):  # the block buffer is reused across calls
            for got, want in zip(moments(w, 0.37), _unblocked_moments(Xf, w, 0.37)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k", [5, 8])
    def test_fit_core_on_blocks(self, k, monkeypatch):
        y, X = _parity_problem(np.random.default_rng(9300 + k), 3 * BLOCK + 17, k)
        blocked = _profiled(y, X.copy())
        reference = _reference_fit_core(y, X, monkeypatch)
        assert blocked.converged == reference.converged
        assert blocked.diverged.tolist() == reference.diverged.tolist()
        assert np.abs(blocked.theta - reference.theta).max() <= 1e-6
        assert blocked.intercept == pytest.approx(reference.intercept, abs=1e-6)
        assert blocked.nll == pytest.approx(reference.nll, rel=1e-10)
        for t in range(k):
            assert wald(blocked, t, len(y)) == pytest.approx(
                wald(reference, t, len(y)), rel=1e-6
            )
        TestSolverParity._assert_same(blocked, fit(y, _with_ones(X)), y, X)


class TestStallExit:
    """A full Newton step rejected although it promised a decrease within
    RESOLUTION ends the line search at that first trial (a stall). On each
    node regression here the last line search stalls: with RESOLUTION = 0
    there is no stall exit, and that search rejects all MAX_HALVINGS + 1
    trials, as every stall did before the exit."""

    # Whether a fit ends in a stall turns on its last bits, down to those of
    # the objective's constant mean(log y!), so each seed is one whose
    # profiled fit stalls under the current log-factorials: the first such
    # seed from 0 up for each (k, n).
    @pytest.mark.parametrize("k, n, seed", [(1, 1000, 13), (2, 100, 32), (3, 1000, 8)])
    def test_stall_ends_after_the_full_step(self, k, n, seed, monkeypatch):
        y, X = _parity_problem(np.random.default_rng(seed), n, k)
        fast = _profiled(y, X)
        with monkeypatch.context() as m:
            m.setattr(glm, "RESOLUTION", 0.0)
            slow = _profiled(y, X)
        # The same accepted steps; only the stalled search's trials differ,
        # and the stalled fit then takes the step it stalled on (see
        # glm._fit_core), from the same information.
        assert fast.iterations == slow.iterations and fast.nll == slow.nll
        assert np.array_equal(fast.fisher, slow.fisher)
        assert slow.halvings - fast.halvings == glm.MAX_HALVINGS + 1
        # The flag a search of all trials gave: the promised decrease at the
        # point where the search stalled is within RESOLUTION of the
        # objective's terms. On x centred at X^T y / sum(y), the gradient is
        # ybar m, with m the rate-weighted mean of x (see the glm docstring).
        mean_y = y.mean()
        Xc = X - X.T @ y / y.sum()
        w = np.exp(Xc @ slow.theta)
        grad = mean_y * (Xc.T @ w) / w.sum()
        step = np.linalg.solve(fast.fisher, grad)
        assert 0.5 * grad @ step <= glm.RESOLUTION * (
            mean_y * (1.0 + abs(math.log(w.mean())))
            + abs(mean_y * (1.0 - math.log(mean_y)) + float(np.mean(glm._log_factorial(y))))
        )
        assert np.abs(fast.theta - (slow.theta - step)).max() <= 1e-12
        assert fast.converged is True
        TestSolverParity._assert_same(fast, fit(y, _with_ones(X)), y, X)

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


def _same_result(a, b):
    """Two outcomes of a node regression equal bit for bit: the same fit,
    or SingularInformation with the same message."""
    if isinstance(a, SingularInformation) or isinstance(b, SingularInformation):
        return type(a) is type(b) and a.args == b.args
    return (
        a.covariates == b.covariates
        and a.theta.tobytes() == b.theta.tobytes()
        and a.fisher.tobytes() == b.fisher.tobytes()
        and a.diverged.tolist() == b.diverged.tolist()
        and (a.nll, a.intercept, a.converged, a.iterations, a.halvings, a.ridge_rescues)
        == (b.nll, b.intercept, b.converged, b.iterations, b.halvings, b.ridge_rescues)
    )


def _batch(problems, names=None):
    """One glm._fit_levels batch over (y, x) problems on the same rows, each
    on the value table of its x; member b's covariate is names[b]."""
    tables = [np.unique(x, return_counts=True) for _, x in problems]
    return glm._fit_levels(
        np.concatenate([values for values, _ in tables]),
        np.concatenate([mults for _, mults in tables]).astype(float),
        np.array([values.size for values, _ in tables]),
        np.array([x @ y for y, x in problems]),
        np.array([y.sum() for y, _ in problems]),
        np.array([np.mean(glm._log_factorial(y)) for y, _ in problems]),
        len(problems[0][0]),
        list(range(len(problems))) if names is None else names,
    )


def _assert_ones_column(found, y, x):
    """A batch member of one covariate against glm.fit of y on [x, 1], an
    independent solver of the same model, to solver tolerance."""
    renamed = dataclasses.replace(found, covariates=(0,), variances=None)
    TestSolverParity._assert_same(renamed, fit(y, _with_ones(x[:, None])), y, x[:, None])


class TestBatchedSingles:
    """glm._fit_levels fits many single-covariate regressions in one
    vectorised Newton loop; each member is the fit it gets in any batch,
    and the fit glm.fit makes of the same model."""

    @staticmethod
    def _far_level(n):
        """x is 0 on all rows but six: five at 1, where y is large, and one
        at 5, where y is 0. The first full Newton step overshoots and puts
        the largest linear predictor far past LP_CAP, so the trials take
        their rates relative to it."""
        x = np.repeat([0.0, 1.0, 5.0], [n - 6, 5, 1])
        rates = np.repeat([0.05, 10.0, 0.3], [n - 6, 5, 1])
        return np.random.default_rng(9502).poisson(rates).astype(float), x

    @staticmethod
    def _first_trial_top(y, x):
        """The largest linear predictor of the first full Newton step from
        theta = 0, on x centred at X^T y / sum(y)."""
        xc = x - x @ y / y.sum()
        m, S = xc.mean(), (xc * xc).mean()
        trial = -y.mean() * m / (y.mean() * (S - m * m))
        return trial * (xc.max() if trial >= 0 else xc.min())

    @pytest.mark.parametrize("n", [30, 1000])
    def test_members_match_fits_alone(self, n):
        rng = np.random.default_rng(9400 + n)
        problems = [_parity_problem(rng, n, 1) for _ in range(24)]
        problems = [(y, X[:, 0]) for y, X in problems]
        batch = _batch(problems)
        for b, (y, x) in enumerate(problems):
            assert _same_result(batch[b], _batch([(y, x)], [b])[0])
            _assert_ones_column(batch[b], y, x)
        # Any sub-batch, in any order, gives the same members.
        order = rng.permutation(len(problems))[:9]
        part = _batch([problems[b] for b in order], order.tolist())
        assert all(_same_result(batch[b], found) for b, found in zip(order, part))

    def test_mixed_batch(self, monkeypatch):
        n = 1000

        def single(problem):
            y, X = problem
            return y, X[:, 0]

        ordinary = single(_parity_problem(np.random.default_rng(9500), n, 1))
        problems = [
            ordinary,
            (np.zeros(n), ordinary[1]),  # an all-zero response
            single(_parity_problem(np.random.default_rng(13), n, 1)),  # a stall: TestStallExit
            (ordinary[0], np.full(n, 3.0)),  # a constant covariate
            single(_separation_problem(np.random.default_rng(9501), n, 1)),
            self._far_level(n),
        ]
        assert self._first_trial_top(*problems[5]) > glm.LP_CAP
        batch = _batch(problems)
        for b, (y, x) in enumerate(problems):
            assert _same_result(batch[b], _batch([(y, x)], [b])[0])
        # Each fit matches the ones-column fit of the same model.
        for b in (0, 2, 4, 5):
            _assert_ones_column(batch[b], *problems[b])
            assert batch[b].converged
        assert batch[5].halvings > 0  # the overshoot is halved back
        # The all-zero response: the closed form.
        assert batch[1].intercept == -math.inf and batch[1].nll == 0.0
        assert batch[1].diverged[0] and batch[1].converged and batch[1].iterations == 0
        # The constant covariate is collinear with the intercept.
        assert isinstance(batch[3], SingularInformation)
        assert "covariate 3 is constant" in str(batch[3])
        # Separation: the coefficient is frozen at the cap and flagged.
        assert batch[4].theta[0] == -glm.THETA_CAP and batch[4].diverged[0]
        assert wald(batch[4], 4, n) == 0.0
        # The stall: without the exit, its last search tries every halving,
        # and no other member changes.
        with monkeypatch.context() as m:
            m.setattr(glm, "RESOLUTION", 0.0)
            slow = _batch(problems)
        assert slow[2].halvings - batch[2].halvings == glm.MAX_HALVINGS + 1
        assert slow[2].iterations == batch[2].iterations
        assert all(_same_result(slow[b], batch[b]) for b in (0, 1, 3, 4, 5))

    def test_guards_are_per_member(self, monkeypatch):
        """The LP_CAP shift, the clamp and the overflow fix-up run only when
        some member needs them, and each member that needs one gets it
        although another carries a NaN step: the collinear member here,
        which never iterates. With LP_CAP at 1 every iterating member's
        trials cross it; the separated member clamps."""
        monkeypatch.setattr(glm, "LP_CAP", 1.0)
        n = 400
        rng = np.random.default_rng(9800)
        ordinary = [_parity_problem(rng, n, 1) for _ in range(8)]
        problems = [
            (ordinary[0][0], np.full(n, 2.0)),  # collinear: a NaN step throughout
            *((y, X[:, 0]) for y, X in ordinary),
            self._far_level(n),
            (lambda y, X: (y, X[:, 0]))(*_separation_problem(rng, n, 1)),
        ]
        batch = _batch(problems)
        assert isinstance(batch[0], SingularInformation)
        assert batch[-1].theta[0] == -glm.THETA_CAP and batch[-1].diverged[0]
        for b, (y, x) in enumerate(problems):
            assert _same_result(batch[b], _batch([(y, x)], [b])[0])
            if b:
                _assert_ones_column(batch[b], y, x)

    @staticmethod
    def _profile_derivatives(theta, y, x):
        """The profile's gradient and Hessian at theta, on the rows: ybar m
        and ybar (S - m^2), with m and S the rate-weighted mean and second
        moment of x centred at X^T y / sum(y)."""
        xc = x - x @ y / y.sum()
        lp = theta * xc
        w = np.exp(lp - lp.max())
        m, S = w @ xc / w.sum(), w @ (xc * xc) / w.sum()
        return y.mean() * m, y.mean() * (S - m * m)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_cut_off_members_report_their_last_point(self, max_iter, monkeypatch):
        """A member that MAX_ITER ends after an accepted step reports the
        Fisher information and convergence flag of the theta it returns,
        not of the point before its last step, and every member is still
        its batch of one."""
        monkeypatch.setattr(glm, "MAX_ITER", max_iter)
        n = 1000
        rng = np.random.default_rng(9700 + max_iter)
        problems = [_parity_problem(rng, n, 1) for _ in range(12)]
        problems.append(_separation_problem(rng, n, 1))
        problems = [(y, X[:, 0]) for y, X in problems] + [self._far_level(n)]
        batch = _batch(problems)
        cut = 0
        for b, (y, x) in enumerate(problems):
            found = batch[b]
            assert _same_result(found, _batch([(y, x)], [b])[0])
            assert found.iterations <= max_iter
            if found.iterations < max_iter or found.diverged[0]:
                continue
            g, h = self._profile_derivatives(found.theta[0], y, x)
            assert found.fisher[0, 0] == pytest.approx(h, rel=1e-9)
            assert found.converged == (abs(g) <= glm.TOL)
            cut += not found.converged
        assert cut >= 6

    @pytest.mark.parametrize("min_rows", [0, 10**9])
    def test_fit_pairs_match_fit_core_on_design(self, min_rows, monkeypatch):
        """_fit_pairs on a builder's value tables gives, for each pair, the
        ones-column fit of glm.fit on the pair's rows, and as a batch of one
        the same fit bit for bit; whatever PATTERN_MIN_ROWS, it builds no
        pattern set."""
        monkeypatch.setattr(glm, "PATTERN_MIN_ROWS", min_rows)
        rng = np.random.default_rng(9600)
        values = rng.poisson(rng.uniform(0.5, 4.0, size=5), size=(400, 5))
        values[:, 2] = 4  # a constant column
        values[:, 3] = rng.poisson(np.exp(0.3 * values[:, 0]))
        builder = glm.PatternBuilder(CountMatrix(values))
        pairs = [(s, t) for s in range(5) for t in range(5) if s != t]
        batch = glm._fit_pairs(builder, pairs)
        rows = values.astype(float)
        for (s, t), found in zip(pairs, batch):
            assert _same_result(found, glm._fit_pairs(builder, [(s, t)])[0])
            if t == 2:
                assert "covariate 2 is constant" in str(found)
            else:
                assert found.covariates == (t,)
                _assert_ones_column(found, rows[:, s], rows[:, t])
        assert sum(isinstance(found, SingularInformation) for found in batch) == 4
        assert not builder._patterns


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

    def test_cross_rows_are_the_per_node_products(self):
        # Each row of the Gram matrix is bit for bit the node's own product
        # with every variable, also with counts near 10**6, whose products
        # (about 10**12, summed over 2,000 rows) still sum exactly.
        rng = np.random.default_rng(11)
        values = rng.poisson(3.0, size=(2000, 7))
        values[:, 2] = rng.integers(10**6 - 1000, 10**6, size=2000)
        values[:, 5] = rng.integers(0, 10**6, size=2000)
        builder = glm.PatternBuilder(CountMatrix(values))
        for i, s in enumerate([3, 3, *range(7), 3]):
            cross = builder.cross(s)
            assert cross.tobytes() == (builder.variables @ builder.variables[s]).tobytes()
            assert not cross.flags.writeable
            # Node 3 alone never forms the whole Gram matrix; a second node does.
            assert (builder._gram is None) == (i < 2)

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


class TestLogFactorial:
    """log(y!) from math.lgamma on distinct values, checked against scipy's
    gammaln, kept as a test-only oracle. Both paths of
    PatternBuilder.log_fact are checked in TestPatternBuilder."""

    def test_integers_match_gammaln(self):
        from scipy.special import gammaln

        y = np.arange(100_001, dtype=np.float64)
        np.testing.assert_allclose(glm._log_factorial(y), gammaln(y + 1.0), rtol=1e-15, atol=0)

    def test_repeats_in_any_order_and_non_integers(self):
        from scipy.special import gammaln

        rng = np.random.default_rng(5)
        y = np.concatenate([rng.poisson(3.0, size=200), [0.5, 2.25, 1e6 + 0.5, -0.5, -2.0]])
        rng.shuffle(y)
        # -2 is a pole of lgamma(y + 1): +inf, as gammaln gives. Near
        # lgamma's minimum (y + 1 = 1.46) its value cancels, so compare absolutely.
        np.testing.assert_allclose(glm._log_factorial(y), gammaln(y + 1.0), rtol=1e-15, atol=1e-15)

    def test_nll_of_non_integer_counts(self):
        from scipy.special import gammaln

        y = np.array([0.5, 2.5, 2.5, 7.25])
        X = np.array([[0.0], [1.0], [2.0], [1.0]])
        lp = X[:, 0] * 0.3
        expected = np.mean(-y * lp + gammaln(y + 1.0) + np.exp(lp))
        assert nll([0.3], y, X) == pytest.approx(expected, rel=1e-15)


class TestWaldAll:
    """wald on every covariate of one fit: the variances come from one solve
    kept on the fit, and each z matches a solve for its own target."""

    @staticmethod
    def _reference_z(result, t, n):
        e_t = np.zeros(len(result.covariates))
        e_t[t] = 1.0
        return math.sqrt(n) * result.theta[t] / math.sqrt(np.linalg.solve(result.fisher, e_t)[t])

    @staticmethod
    def _counting_solves(monkeypatch):
        calls = []
        solve = glm._solve_with_ridge

        def counting(H, rhs):
            calls.append(H.shape)
            return solve(H, rhs)

        monkeypatch.setattr(glm, "_solve_with_ridge", counting)
        return calls

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 40])
    def test_matches_wald(self, k):
        rng = np.random.default_rng(90 + k)
        y, X = _parity_problem(rng, 400, k)
        result = fit(y, X)
        assert not result.diverged.any()
        crit = LearnConfig(alpha=0.05).critical_value(400)
        for t in range(k):
            z = wald(result, t, 400)
            ref = self._reference_z(result, t, 400)
            assert z == pytest.approx(ref, rel=1e-12)
            assert (abs(z) > crit) == (abs(ref) > crit)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_information_solved_once(self, k, monkeypatch):
        rng = np.random.default_rng(90 + k)
        y, X = _parity_problem(rng, 400, k)
        result = fit(y, X)
        calls = self._counting_solves(monkeypatch)
        for _ in range(2):
            for t in range(k):
                wald(result, t, 400)
        # Up to 2x2 the diagonal is taken in closed form, without a solve.
        assert calls == ([(k, k)] if k >= 3 else [])
        assert result.variances.shape == (k,)

    def test_diverged_coefficient(self):
        rng = np.random.default_rng(95)
        y, X = _separation_problem(rng, 200, 3)
        result = fit(y, X)
        assert result.diverged[0]
        assert wald(result, 0, 200) == 0.0
        assert result.variances is None  # a diverged target solves nothing
        zs = [wald(result, j, 200) for j in (1, 2)]
        assert zs == pytest.approx([self._reference_z(result, j, 200) for j in (1, 2)], rel=1e-12)

    def _fit_with(self, fisher):
        from countdag.glm import GlmFit

        k = len(fisher)
        return GlmFit(tuple(range(k)), np.full(k, 0.5), np.array(fisher, dtype=float),
                      1.0, True, 3, np.zeros(k, dtype=bool))

    def test_singular_information_for_every_covariate(self, monkeypatch):
        result = self._fit_with([[0.0, 0.0], [0.0, 0.0]])
        calls = self._counting_solves(monkeypatch)
        for t in range(2):
            with pytest.raises(SingularInformation, match="ridge rescue impossible"):
                wald(result, t, 10)
        assert len(calls) == 1  # the first test's failure is kept on the fit
        assert isinstance(result.variances, SingularInformation)

    def test_non_positive_variance_for_one_covariate(self):
        result = self._fit_with([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 4.0]])
        with pytest.raises(SingularInformation, match="covariate 1"):
            wald(result, 1, 10)
        # z = sqrt(n) theta / sqrt([J^-1]_tt) with [J^-1] = diag(1/2, -1, 1/4)
        assert wald(result, 0, 10) == pytest.approx(math.sqrt(10) * 0.5 / math.sqrt(0.5), rel=1e-12)
        assert wald(result, 2, 10) == pytest.approx(math.sqrt(10) * 0.5 / math.sqrt(0.25), rel=1e-12)

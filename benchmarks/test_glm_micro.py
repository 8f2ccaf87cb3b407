"""Per-call timings of glm._fit_core, wald and wald_all (pytest-benchmark).

The shapes are those the learners produce: (n, k) = (1000, 1) and
(1000, 3) are table-1 conditioning-set fits, (50000, 2) a fit on the
50,000-row CSV workload, and (500, 99) an OR-LPGM node regression on
table-2 data. X is taken from a (p, n) array, one row per variable, as
the learners take it.
"""
import numpy as np
import pytest

from countdag.glm import FitOptions, _fit_core, _log_factorial, wald, wald_all

SHAPES = [(1000, 1), (1000, 3), (50000, 2), (500, 99)]


def _problem(n, k, seed=2993):
    rng = np.random.default_rng(seed)
    covariates = rng.poisson(rng.uniform(0.5, 3.0, size=(k, 1)), size=(k, n)).astype(float)
    theta = rng.uniform(-0.6, 0.6, size=k) / k
    y = rng.poisson(np.exp(np.clip(theta @ covariates, -4.0, 3.0))).astype(float)
    variables = np.vstack([y, covariates])
    cov = tuple(range(1, k + 1))
    return variables[0], variables[list(cov)].T, cov, float(np.mean(_log_factorial(y)))


@pytest.mark.parametrize("n,k", SHAPES, ids=[f"n{n}-k{k}" for n, k in SHAPES])
def test_fit_core(benchmark, n, k):
    y, X, cov, log_fact = _problem(n, k)
    result = benchmark(_fit_core, y, X, FitOptions(), cov, log_fact)
    assert result.converged


def test_wald(benchmark):
    y, X, cov, log_fact = _problem(1000, 3)
    fit = _fit_core(y, X, FitOptions(), cov, log_fact)
    benchmark(wald, fit, cov[0], 1000, 0.05)


def test_wald_all_wide(benchmark):
    y, X, cov, log_fact = _problem(500, 99)
    fit = _fit_core(y, X, FitOptions(), cov, log_fact)
    tests = benchmark(wald_all, fit, 500, 0.05)
    assert len(tests) == 99

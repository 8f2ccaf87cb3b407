"""Per-call timings of glm._fit_core, wald and wald_all (pytest-benchmark).

The shapes are those the learners produce: (n, k) = (1000, 1) and
(1000, 3) are table-1 conditioning-set fits, (100, 2) and (100, 4) the
same at n = 100, where the per-iteration overhead of the Newton loop
outweighs the passes over the rows, (50000, 2) a fit on the 50,000-row CSV
workload, and (500, 99) an OR-LPGM node regression on table-2 data. X is
taken from a (p, n) array, one row per variable, as the learners take it,
and X^T y is given, as the learners give it. The stalled case is a
(1000, 3) fit whose last full Newton step is rejected at floating-point
resolution, so its line search ends after that one trial (see
glm.RESOLUTION); it times what the stall costs. The
pattern cases time what a learner pays per fit on the 50,000-row workload:
X^T y, the distinct covariate patterns and their multiplicities from a
PatternBuilder that has the node's cross products and the set cached, then
the fit on them. The design cases time the builder alone at n=50,000: cold
(level codes built, neither the set nor the node's cross products cached)
against warm (both cached, so only the lookups are left), and log_fact
times one column's log-factorial mean from its level counts.
"""
import numpy as np
import pytest

from countdag.data import CountMatrix
from countdag.glm import PatternBuilder, _fit_core, _log_factorial, wald, wald_all

SHAPES = [(1000, 1), (1000, 3), (100, 2), (100, 4), (50000, 2), (500, 99)]
#: Seed of a (1000, 3) problem whose last line search stalls.
STALLED_SEED = 20
PATTERN_KS = [1, 2, 3]


def _variables(n, k, seed=2993):
    """(k + 1, n) Poisson counts: the response in row 0, covariates after."""
    rng = np.random.default_rng(seed)
    covariates = rng.poisson(rng.uniform(0.5, 3.0, size=(k, 1)), size=(k, n)).astype(float)
    theta = rng.uniform(-0.6, 0.6, size=k) / k
    y = rng.poisson(np.exp(np.clip(theta @ covariates, -4.0, 3.0))).astype(float)
    return np.vstack([y, covariates])


def _problem(n, k, seed=2993):
    variables = _variables(n, k, seed)
    cov = tuple(range(1, k + 1))
    y = variables[0]
    X = variables[list(cov)].T
    return X.T @ y, X, cov, float(np.mean(_log_factorial(y)))


@pytest.mark.parametrize("n,k", SHAPES, ids=[f"n{n}-k{k}" for n, k in SHAPES])
def test_fit_core(benchmark, n, k):
    xty, X, cov, log_fact = _problem(n, k)
    result = benchmark(_fit_core, xty, X, cov, log_fact)
    assert result.converged


def test_fit_core_stalled(benchmark):
    xty, X, cov, log_fact = _problem(1000, 3, STALLED_SEED)
    result = benchmark(_fit_core, xty, X, cov, log_fact)
    assert result.converged


@pytest.mark.parametrize("k", PATTERN_KS, ids=[f"n50000-k{k}" for k in PATTERN_KS])
def test_fit_core_patterns(benchmark, k):
    variables = _variables(50000, k)
    builder = PatternBuilder(CountMatrix(variables.T.astype(np.int64)))
    cov = tuple(range(1, k + 1))
    log_fact = float(np.mean(_log_factorial(variables[0])))
    for j in cov:
        builder.levels(j)

    def build_and_fit():
        xty, X, counts = builder.design(0, cov)
        assert counts is not None
        return _fit_core(xty, X, cov, log_fact, counts)

    assert benchmark(build_and_fit).converged


def test_wald(benchmark):
    xty, X, cov, log_fact = _problem(1000, 3)
    fit = _fit_core(xty, X, cov, log_fact)
    benchmark(wald, fit, cov[0], 1000, 0.05)


def test_wald_all_wide(benchmark):
    xty, X, cov, log_fact = _problem(500, 99)
    fit = _fit_core(xty, X, cov, log_fact)
    tests = benchmark(wald_all, fit, 500, 0.05)
    assert len(tests) == 99


def _builder(k, n=50000):
    """A PatternBuilder over (k + 1, n) counts with every level code built."""
    variables = _variables(n, k)
    builder = PatternBuilder(CountMatrix(variables.T.astype(np.int64)))
    for j in range(k + 1):
        builder.levels(j)
    return builder, tuple(range(1, k + 1))


@pytest.mark.parametrize("k", PATTERN_KS, ids=[f"n50000-k{k}" for k in PATTERN_KS])
def test_design_cold(benchmark, k):
    def fresh():
        builder, cov = _builder(k)
        return (builder, cov), {}

    def design(builder, cov):
        assert builder.design(0, cov)[2] is not None

    benchmark.pedantic(design, setup=fresh, rounds=20)


@pytest.mark.parametrize("k", PATTERN_KS, ids=[f"n50000-k{k}" for k in PATTERN_KS])
def test_design_warm(benchmark, k):
    builder, cov = _builder(k)
    assert builder.design(0, cov)[2] is not None
    benchmark(builder.design, 0, cov)


def test_log_fact(benchmark):
    variables = _variables(50000, 1)
    data = CountMatrix(variables.T.astype(np.int64))
    expected = float(np.mean(_log_factorial(variables[0])))

    def fresh():
        return (PatternBuilder(data), 0), {}

    result = benchmark.pedantic(PatternBuilder.log_fact, setup=fresh, rounds=50)
    assert result == pytest.approx(expected, rel=1e-12)

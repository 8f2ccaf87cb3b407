"""Per-call timings of glm._fit_core and wald (pytest-benchmark).

Each fit is a learner's node regression: the response on the covariates
with a free intercept, profiled out given sum(y). The shapes are those the
learners produce: (n, k) = (1000, 1) and
(1000, 3) are table-1 conditioning-set fits, (100, 2) and (100, 4) the
same at n = 100, where the per-iteration overhead of the Newton loop
outweighs the passes over the rows, (50000, 2) a fit on the 50,000-row CSV
workload, and (500, 99) an OR-LPGM node regression on table-2 data.
(50000, 12) and (50000, 19) time OR-LPGM's wide node regressions on the
50,000-row workload, which run on the rows and form their Newton moments
in blocks of glm.MOMENT_BLOCK_ROWS rows. X is
taken from a (p, n) array, one row per variable, as the learners take it,
and X^T y and sum(y) are given, as the learners give them. The stalled case is a
(1000, 3) fit whose last full Newton step is rejected at floating-point
resolution, so its line search ends after that one trial (see
glm.RESOLUTION); it times what the stall costs. The Wald cases clear the
fit's kept variances before each call, so they time a fit's first test,
which solves its information, and at (500, 99) every test of one fit, of
which only the first solves. The pattern cases time what a learner pays
per fit on the 50,000-row workload: X^T y, the distinct covariate
patterns and their multiplicities from a PatternBuilder that has the
node's cross products and the set cached, then the fit on them. Every
case on one covariate times instead the road that NodeFitter.fit takes
for such a fit: a glm._fit_pairs batch of one on a PatternBuilder's value
tables, with the node's cross products built. The design cases time the
builder alone at n=50,000 on sets of two and three covariates, the only
sets a learner asks it for: cold (level codes built, neither the set nor
the node's cross products cached) against warm (both cached, so only the
lookups are left), and log_fact times one column's log-factorial mean
from its level counts.

The level-0 cases time OR-PPGM's level 0, the regression of every variable
on each earlier one alone (p(p - 1)/2 pairs), at (p, n) = (10, 1000), a
table-1 dataset, and (100, 500), a Table-2 one, from a PatternBuilder whose
value tables and Gram matrix are built: level0_batch fits all pairs in
one glm._fit_pairs batch, as OR-PPGM does, and level0_per_pair fits them
one batch of one at a time, as a learner asking pair by pair does.
"""
import numpy as np
import pytest

from countdag.data import CountMatrix
from countdag.glm import (
    PatternBuilder,
    _fit_core,
    _fit_pairs,
    _log_factorial,
    wald,
)

SHAPES = [(1000, 1), (1000, 3), (100, 2), (100, 4), (50000, 2), (500, 99), (50000, 12), (50000, 19)]
#: Seed of a (1000, 3) problem whose last line search stalls: the first
#: from 0 up whose search, with glm.RESOLUTION = 0, rejects every trial.
STALLED_SEED = 10
PATTERN_KS = [1, 2, 3]
DESIGN_KS = [2, 3]
LEVEL0 = [(10, 1000), (100, 500)]


def _variables(n, k, seed=2993):
    """(k + 1, n) Poisson counts: the response in row 0, covariates after."""
    rng = np.random.default_rng(seed)
    covariates = rng.poisson(rng.uniform(0.5, 3.0, size=(k, 1)), size=(k, n)).astype(float)
    theta = rng.uniform(-0.6, 0.6, size=k) / k
    y = rng.poisson(np.exp(np.clip(theta @ covariates, -4.0, 3.0))).astype(float)
    return np.vstack([y, covariates])


def _problem(n, k, seed=2993):
    """_fit_core's arguments for the regression of row 0 on the others, on rows."""
    variables = _variables(n, k, seed)
    cov = tuple(range(1, k + 1))
    y = variables[0]
    X = variables[list(cov)].T
    return X.T @ y, X, cov, float(np.mean(_log_factorial(y))), None, float(y.sum())


def _single(n):
    """A PatternBuilder over (2, n) counts whose value tables and node 0's
    cross products are built, as after a learner's first fit of node 0."""
    builder = PatternBuilder(CountMatrix(_variables(n, 1).T.astype(np.int64)))
    for j in (0, 1):
        builder.table(j)
    builder.cross(0)
    return builder


@pytest.mark.parametrize("n,k", SHAPES, ids=[f"n{n}-k{k}" for n, k in SHAPES])
def test_fit_core(benchmark, n, k):
    if k == 1:
        (result,) = benchmark(_fit_pairs, _single(n), [(0, 1)])
    else:
        result = benchmark(_fit_core, *_problem(n, k))
    assert result.converged


def test_fit_core_stalled(benchmark):
    result = benchmark(_fit_core, *_problem(1000, 3, STALLED_SEED))
    assert result.converged


@pytest.mark.parametrize("k", PATTERN_KS, ids=[f"n50000-k{k}" for k in PATTERN_KS])
def test_fit_core_patterns(benchmark, k):
    if k == 1:
        (result,) = benchmark(_fit_pairs, _single(50000), [(0, 1)])
        assert result.converged
        return
    variables = _variables(50000, k)
    builder = PatternBuilder(CountMatrix(variables.T.astype(np.int64)))
    cov = tuple(range(1, k + 1))
    log_fact = float(np.mean(_log_factorial(variables[0])))
    total = float(variables[0].sum())
    for j in cov:
        builder.levels(j)

    def build_and_fit():
        xty, X, counts = builder.design(0, cov)
        assert counts is not None
        return _fit_core(xty, X, cov, log_fact, counts, total)

    assert benchmark(build_and_fit).converged


def test_wald(benchmark):
    fit = _fit_core(*_problem(1000, 3))
    cov = fit.covariates

    def first_test():
        fit.variances = None  # drop the fit's kept variances, so each call solves
        return wald(fit, cov[0], 1000)

    benchmark(first_test)


def test_wald_wide(benchmark):
    fit = _fit_core(*_problem(500, 99))
    cov = fit.covariates

    def every_test():
        fit.variances = None
        return [wald(fit, t, 500) for t in cov]

    assert len(benchmark(every_test)) == 99


def _builder(k, n=50000):
    """A PatternBuilder over (k + 1, n) counts with every level code built."""
    variables = _variables(n, k)
    builder = PatternBuilder(CountMatrix(variables.T.astype(np.int64)))
    for j in range(k + 1):
        builder.levels(j)
    return builder, tuple(range(1, k + 1))


@pytest.mark.parametrize("k", DESIGN_KS, ids=[f"n50000-k{k}" for k in DESIGN_KS])
def test_design_cold(benchmark, k):
    def fresh():
        builder, cov = _builder(k)
        return (builder, cov), {}

    def design(builder, cov):
        assert builder.design(0, cov)[2] is not None

    benchmark.pedantic(design, setup=fresh, rounds=20)


@pytest.mark.parametrize("k", DESIGN_KS, ids=[f"n50000-k{k}" for k in DESIGN_KS])
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


def _level0(p, n):
    """A PatternBuilder over (p, n) counts with every value table and the
    Gram matrix built, and OR-PPGM's level-0 pairs (s, t), t < s."""
    builder = PatternBuilder(CountMatrix(_variables(n, p - 1).T.astype(np.int64)))
    for s in range(p):
        builder.table(s)
        builder.cross(s)
    return builder, [(s, t) for s in range(p) for t in range(s)]


@pytest.mark.parametrize("p,n", LEVEL0, ids=[f"p{p}-n{n}" for p, n in LEVEL0])
def test_level0_batch(benchmark, p, n):
    builder, pairs = _level0(p, n)
    fits = benchmark(_fit_pairs, builder, pairs)
    assert len(fits) == len(pairs)


@pytest.mark.parametrize("p,n", LEVEL0, ids=[f"p{p}-n{n}" for p, n in LEVEL0])
def test_level0_per_pair(benchmark, p, n):
    builder, pairs = _level0(p, n)

    def per_pair():
        return [_fit_pairs(builder, [pair])[0] for pair in pairs]

    assert len(benchmark(per_pair)) == len(pairs)

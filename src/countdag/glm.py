"""Poisson regression of a count on count covariates, fitted by Newton's method.

The learners' node regressions (see :func:`_fit_core`) fit the
node-conditional model of the Poisson graphical models (Yang, Ravikumar,
Allen and Liu, JMLR 2015), ``y ~ Pois(exp(theta_0 + <theta, x>))``, whose
free intercept theta_0 is never tested, so theta_t = 0 states that y and
x_t are independent given the other covariates. The objective, the
rescaled negative log-likelihood, is convex, and its Hessian does not
depend on y, so the observed and (conditionally) expected Fisher
information coincide; the fitted Hessian is reported as the sample Fisher
information and feeds the Wald statistic z of a single coefficient. This
module computes z only; the learners decide which z rejects. A fit's tests
share one solve: the first that needs a variance takes the whole diagonal
of the inverse information and keeps it on the fit. The public
:func:`nll`, :func:`gradient`, :func:`fisher_information` and :func:`fit`
take the zero-intercept model ``y ~ Pois(exp(<theta, x>))``, in which an
intercept is a column of ones; :func:`fit` is a plain Newton loop of its
own, outside the learners' hot path.

The intercept is profiled out: at any theta its optimum is
exp(theta_0) = sum(y) / sum_i exp(<theta, x_i>), so the node regressions
iterate on theta alone. The intercept absorbs a shift of x, so the solver
centres x at the response-weighted mean xbar_y = X^T y / sum(y), where
X^T y vanishes. With ybar = mean(y), the profile objective is

    nll_p(theta) = ybar [1 - log ybar + log mean_i exp(<theta, x_i - xbar_y>)] + mean(log y!),

its gradient is ybar m, with m the rate-weighted mean of x - xbar_y, and its
Hessian is ybar (S - m m^T), with S their rate-weighted second moment: the
rate-weighted covariance, and the Schur complement of the full (k + 1)
information on theta, so its inverse is theta's block of the full inverse
and each coefficient's Wald z is the full model's. At the optimum m = 0,
so forming it loses no digits; Newton steps solve with ybar S and correct
by Sherman-Morrison. An intercept-only fit has the closed form
theta_0 = log(ybar). Past its optimum the profile grows only
linearly, so a Newton step that overshoots far, until nearly all weight
sits on the rows of largest x and the curvature no longer steers, would
still lower it. So each trial point is judged by the full objective along
the full model's Newton step, whose intercept part is -<grad, step> / ybar
(on heavy-tailed counts that rejects such a step, as the rates of those
rows explode), and an accepted point then takes its profiled intercept,
which lowers the objective once more. Newton's error is quadratic in the
step, so a converged profile also takes the step it converged on, too small
for the line search to judge.

The solver works on sufficient statistics: y enters only through X^T y,
which gives the centre, and sum(y), both taken as given, and with rates
w = exp(X theta) on the centred x each Newton iteration needs only X^T w
and X^T W X. For up to :data:`MOMENT_MAX_K` covariates both come from one
matrix-vector product ``Zt @ w``, where the moment matrix ``Zt`` holds the
centred columns and their pairwise products as rows; wider fits form
X^T W X from a centred Fortran-ordered copy of X, or from X itself when
the caller gives it up, summed over cache-sized blocks of rows
(:data:`MOMENT_BLOCK_ROWS`), so no weighted copy of all of X is made. The
step-halving line search moves along the linear predictor,
lp - eta * (X step), and evaluates the objective from sum(w), so a trial
point costs one pass over the rows; X theta is recomputed only when a
coefficient is clamped at -:data:`THETA_CAP`. A fit
that reaches the optimum at floating-point resolution ends with a rejected
full step whose promised decrease, <grad, step> / 2, is within
:data:`RESOLUTION` of the objective's terms; the search ends there (a
stall) and the fit counts as converged (Boyd and Vandenberghe, *Convex
Optimization*, 9.5). The check runs only after a rejected full step, so
accepted iterations pay nothing for it.

The solver's limits are module constants, the same for every fit:
:data:`TOL` (gradient max-norm at convergence), :data:`MAX_ITER` (Newton
iterations), :data:`MAX_HALVINGS` (step halvings per line search),
:data:`THETA_CAP` (coefficients diverging below -THETA_CAP are frozen) and
:data:`LP_CAP` (above it, :func:`_fit_core` and :func:`_fit_levels` take
the rates relative to the largest linear predictor).

The rows may carry multiplicities c: the rates become w = c * exp(X theta)
and n becomes sum(c), so a fit on the distinct rows of X, their
multiplicities and X^T y over all rows is the fit on all rows (the grouped
form of a Poisson GLM; McCullagh and Nelder, *Generalized Linear Models*).
Count covariates repeat, so on tall data a node regression has far fewer
distinct covariate patterns than rows, and :class:`PatternBuilder` hands
the learners that form whenever it pays. X^T y is a slice of the node's
cross products with every variable, which the builder forms once (for
more than one node, as rows of the variables' Gram matrix in one product),
so no fit passes over the rows for it. The learners regress many nodes on
the same few covariate sets, so the builder keeps each set's patterns for
the life of one learner call and drops the least recently used sets once
they take as many bytes as the float rows.

A fit on one covariate always takes the grouped form, on the covariate's
value table: its distinct values and their multiplicities, a few to a few
dozen levels for count data. :func:`_fit_levels` runs many such fits as one
batch, a single vectorised Newton loop over (node, covariate) pairs whose
tables lie end to end, each pair's arithmetic its own; the tables stay in
place for the whole batch, and a pair that has finished is masked out of
the loop's updates rather than removed from its arrays. :func:`_fit_pairs`
fits a learner's pairs from a PatternBuilder's value tables. It is the one
road of every single-covariate node regression: OR-PPGM's level 0 and
PK2's first forward steps are one batch per learner call, and any other
request is a batch of one. :func:`_fit_core` fits the rest.

:func:`_dual_bounds` fits nothing: from a node regression's fit on
covariates P it bounds, by weak duality, the minimum nll of the
regression on P and one more covariate, for many candidates in one pass,
which lets PK2 skip the candidates that cannot win a step.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .data import CountMatrix, InvalidData

# The ufunc reductions behind ndarray.sum and ndarray.max, called without
# the method's Python wrapper: the Newton loop calls them on every trial.
_sum = np.add.reduce
_max = np.maximum.reduce
_min = np.minimum.reduce

#: Widest fit whose Newton moments come from the precomputed moment matrix
#: (k + k(k+1)/2 rows); wider fits form X^T W X by matrix products.
MOMENT_MAX_K = 4

#: Rows per block in which a wider fit forms its Newton moments: each block's
#: weighted columns, k x 4,096 x 8 bytes (0.6 MB at k = 19), stay in a 2 MB
#: L2 cache while they and the block's rows pass through X^T W X and X^T w.
#: Of 1,024-16,384 rows, 4,096 was fastest on the 50,000-row workload's
#: wide designs (k = 6-19): a moments call took 0.62x the time of one
#: unblocked pass (1,024: 0.83x, 16,384: 0.93x). A fit of at most this
#: many rows runs as one block.
MOMENT_BLOCK_ROWS = 4096

#: Share of the magnitude of the objective's terms below which a decrease
#: is lost to rounding. A full Newton step that is rejected although it
#: promised less than this is a stall: the fit has converged at
#: floating-point resolution, so the line search ends at that first trial
#: rather than trying MAX_HALVINGS halved steps that can win only rounding
#: noise, and ``halvings`` counts none for it. (Every such stall on the
#: benchmark workloads promised at most 1.6 eps.)
RESOLUTION = 64 * math.ulp(1.0)

# The Newton solver's limits, the same for every fit. fit, _fit_core and
# _fit_levels read them when called, so a test may patch them.
TOL = 1e-8            # gradient max-norm at convergence (see RESOLUTION)
MAX_ITER = 100
THETA_CAP = 20.0      # freeze coefficients diverging below -THETA_CAP
LP_CAP = 30.0         # _fit_core, _fit_levels: past it, rates relative to the largest lp
MAX_HALVINGS = 30

#: Fewest rows for which a node regression on two or more covariates may
#: run on distinct covariate patterns (see :class:`PatternBuilder`);
#: smaller fits run on the rows. A fit on one covariate always runs on the
#: covariate's value table (see :func:`_fit_levels`).
#: Per learner call, patterns were 0.70-1.04x as fast on table-1 data
#: (n = 100, 1000), about even at 2,000-3,000 rows of the 50,000-row
#: workload's data and 1.25-1.5x faster for OR-PPGM and PKBIC from 5,000.
PATTERN_MIN_ROWS = 5000


class SingularInformation(RuntimeError):
    """Fisher information not invertible, even after the ridge rescue."""


@dataclass
class GlmFit:
    """Fitted Poisson regression of one node on covariates K.

    ``converged`` holds when the gradient on the coefficients not flagged in
    ``diverged`` (and, for a node regression, the intercept) is within TOL,
    or when the fit stalled: its last full Newton step was rejected although
    it promised a decrease within RESOLUTION of the objective's terms.
    """

    covariates: tuple[int, ...]
    theta: np.ndarray
    fisher: np.ndarray
    nll: float
    converged: bool
    iterations: int
    diverged: np.ndarray
    # Always False. Only perfbench/tracing.py reads it, for glm.lp_capped*; it goes with them.
    lp_capped: bool = False
    halvings: int = 0            # step halvings over all line searches
    ridge_rescues: int = 0       # Newton systems solved only with the ridge
    # The fitted intercept of a node regression (see _fit_core); None for
    # the zero-intercept model of fit.
    intercept: float | None = None
    # The diagonal of fisher's inverse, or its solve's SingularInformation,
    # once a Wald test has needed it (see wald).
    variances: object = field(default=None, repr=False, compare=False)


@dataclass
class FitTally:
    """Running counts over the fits a learner made (cache hits excluded)."""

    fits: int = 0
    nonconverged: int = 0
    diverged: int = 0
    newton_iterations: int = 0
    halvings: int = 0
    ridge_rescues: int = 0

    def add(self, fit: GlmFit) -> None:
        self.fits += 1
        self.nonconverged += not fit.converged
        self.diverged += bool(fit.diverged.any()) or fit.intercept == -math.inf
        self.newton_iterations += fit.iterations
        self.halvings += fit.halvings
        self.ridge_rescues += fit.ridge_rescues


def _log_factorial_table(values: np.ndarray) -> np.ndarray:
    """log(v!) = lgamma(v + 1) of each value, +inf at lgamma's poles (v a
    negative integer). math.lgamma is scalar, so callers pass distinct
    values: counts repeat, and a column has few of them."""
    return np.array(
        [math.lgamma(v) if v > 0.0 or v % 1.0 else math.inf for v in (values + 1.0).tolist()]
    )


def _log_factorial(y: np.ndarray) -> np.ndarray:
    """log(y!) of each entry of y, from :func:`_log_factorial_table` of its
    distinct values."""
    values, inverse = np.unique(y, return_inverse=True)
    return _log_factorial_table(values)[inverse]


def _check_data(y: np.ndarray, X: np.ndarray) -> None:
    """Reject an X that is not 2-D and finite or has no rows, and a response
    that does not match its rows or is not made of finite non-negative
    values."""
    if X.ndim != 2:
        raise InvalidData(f"covariate matrix must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidData("non-finite covariate values")
    n = X.shape[0]
    if y.shape != (n,):
        raise InvalidData(f"response length {y.shape} does not match {n} rows")
    if n < 1:
        raise InvalidData("need at least one observation")
    if not np.all(np.isfinite(y)):
        raise InvalidData("non-finite response values")
    if y.min() < 0:
        raise InvalidData("negative response counts")


def _prepare(theta, y, X):
    theta = np.asarray(theta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    _check_data(y, X)
    if theta.shape != (X.shape[1],):
        raise InvalidData(f"theta length {theta.shape} does not match {X.shape[1]} columns")
    return theta, y, X


def nll(theta, y, X) -> float:
    """Rescaled negative log-likelihood at ``theta``."""
    theta, y, X = _prepare(theta, y, X)
    lp = X @ theta
    return float(np.mean(-y * lp + _log_factorial(y) + np.exp(lp)))


def gradient(theta, y, X) -> np.ndarray:
    """Gradient of :func:`nll`: component t is (1/n) sum_i x_it (exp(<theta,x_i>) - y_i)."""
    theta, y, X = _prepare(theta, y, X)
    return X.T @ (np.exp(X @ theta) - y) / len(y)


def fisher_information(theta, y, X) -> np.ndarray:
    """Sample Fisher information (1/n) sum_i exp(<theta,x_i>) x_i x_i^T."""
    theta, y, X = _prepare(theta, y, X)
    w = np.exp(X @ theta)
    J = (X.T * w) @ X / len(y)
    return (J + J.T) / 2.0


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _gesv(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(H, rhs)`` for a float H, bit for bit, without the
    Python wrapper that costs more than the solve at the learners' sizes:
    the same LAPACK gesv gufunc under the same floating-point state, except
    that a singular H, which sets the invalid flag, raises
    FloatingPointError rather than LinAlgError."""
    solve = _umath_linalg.solve1 if rhs.ndim == 1 else _umath_linalg.solve
    return solve(H, rhs, signature="dd->d")


def _solve_plain(H: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve H x = rhs for a vector or a matrix rhs; None signals a singular
    system. Small systems are solved directly, avoiding LAPACK call overhead
    in the learner hot loop; larger ones call LAPACK through :func:`_gesv`."""
    k = H.shape[0]
    if k == 1:
        h = H[0, 0]
        if h == 0.0 or not math.isfinite(h):
            return None
        return rhs / h
    if k == 2:
        (a, b), (c, d) = H.tolist()
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            return None
        out = np.empty(rhs.shape)
        out[0] = (d * rhs[0] - b * rhs[1]) / det
        out[1] = (a * rhs[1] - c * rhs[0]) / det
        return out
    try:
        return _gesv(H, rhs)
    except FloatingPointError:
        return None


def _solve_with_ridge(H: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve H x = rhs, adding ridge 1e-10 * trace/k on failure; the flag
    tells whether the ridge was needed."""
    out = _solve_plain(H, rhs)
    if out is not None:
        return out, False
    k = H.shape[0]
    ridge = 1e-10 * float(np.trace(H)) / max(k, 1)
    if ridge <= 0.0 or not math.isfinite(ridge):
        raise SingularInformation("information matrix singular; ridge rescue impossible")
    out = _solve_plain(H + ridge * np.eye(k), rhs)
    if out is None:
        raise SingularInformation("information matrix singular after ridge rescue")
    return out, True


def fit(y, X) -> GlmFit:
    """The zero-intercept model: minimize :func:`nll` by Newton iterations
    with step-halving, within the solver limits :data:`TOL`,
    :data:`MAX_ITER` and :data:`MAX_HALVINGS`. Each trial point recomputes
    X theta, and each iteration forms X^T W X.

    The covariates are the columns of X, named 0..k-1. Coefficients
    trending below ``-THETA_CAP`` (separation, MLE at -infinity) are frozen
    at the cap and flagged in ``diverged``. A trial point whose rates
    overflow has objective +inf and is halved away like any rejected trial,
    a singular information is solved with the ridge (``ridge_rescues``),
    and a full step stalls at :data:`RESOLUTION` as in :func:`_fit_core`.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    _check_data(y, X)
    n, k = X.shape
    log_fact = float(np.mean(_log_factorial(y)))
    inv_n = 1.0 / n
    Xty = (X.T @ y) * inv_n

    @np.errstate(over="ignore")
    def evaluate(theta: np.ndarray) -> tuple[float, np.ndarray]:
        """The objective at theta, +inf where a rate overflows, and the rates."""
        w = np.exp(X @ theta)
        return (float(w.sum()) * inv_n - float(theta @ Xty)) + log_fact, w

    theta = np.zeros(k)
    current, w = evaluate(theta)
    if not math.isfinite(current):
        raise InvalidData("objective non-finite at theta = 0")
    diverged = np.zeros(k, dtype=bool)
    converged = False
    iterations = halvings = ridge_rescues = 0
    for _ in range(MAX_ITER):
        free = np.flatnonzero(~diverged)
        if free.size == 0:
            converged = True
            break
        Xf = X[:, free]
        grad = (Xf.T @ w) * inv_n - Xty[free]
        step_free, rescued = _solve_with_ridge(((Xf.T * w) @ Xf) * inv_n, grad)
        ridge_rescues += rescued
        # A small gradient alone does not certify an interior optimum under
        # separation (see _fit_core).
        if float(np.abs(grad).max()) <= TOL and float(np.abs(step_free).max()) <= 1e-4:
            converged = True
            break

        step = np.zeros(k)
        step[free] = step_free
        accepted = False
        for trial_index in range(MAX_HALVINGS + 1):
            trial = theta - step
            hit = trial <= -THETA_CAP
            trial[hit] = -THETA_CAP
            value, w_t = evaluate(trial)
            if value < current and math.isfinite(value):
                theta, current, w = trial, value, w_t
                diverged |= hit
                accepted = True
                break
            if trial_index == 0:
                # A stall (see RESOLUTION), at this model's objective terms.
                scale = float(w.sum()) * inv_n + abs(float(theta @ Xty)) + abs(log_fact)
                converged = 0.5 * float(grad @ step_free) <= RESOLUTION * scale
                if converged:
                    break
            step = step * 0.5
            halvings += 1
        iterations += 1
        if not accepted:
            break

    grad = (X.T @ w) * inv_n - Xty
    if not converged:
        converged = float(np.abs(grad[~diverged]).max(initial=0.0)) <= TOL
    J = ((X.T * w) @ X) * inv_n
    return GlmFit(tuple(range(k)), theta, (J + J.T) / 2.0, current, converged, iterations,
                  diverged, halvings=halvings, ridge_rescues=ridge_rescues)


class PatternBuilder:
    """Fit inputs of node regressions on the columns of one count matrix.

    The Poisson likelihood depends on the rows only through the distinct
    rows of X (patterns), their multiplicities and X^T y: the grouped form
    of the model. :meth:`design` returns that form whenever :meth:`patterns`
    finds it, so Newton iterations cost O(patterns) rather than O(n), and
    the rows otherwise. Either way X^T y is read off the node's cross
    products with every variable (:meth:`cross`), kept for the life of the
    builder (that of the NodeFitter holding it), so no fit passes over the
    rows for it: the first node's own product, then, once a second node is
    asked for, the Gram matrix ``variables @ variables.T`` in one product.

    Each variable's value table, its distinct values and their
    multiplicities (:meth:`table`), comes from one bincount of its column
    on first use; the variable's mean(log y!) and sum(y), its level codes
    and the batched fits on one covariate (:func:`_fit_pairs`) all read it.
    Patterns come from per-variable level codes (each row's rank among the
    variable's distinct values, in the smallest unsigned type that holds
    it), built on first use and kept for the life of the builder. A
    covariate set's mixed-radix code over those levels ranges over the
    product of the level counts. Patterns are used when that product is at
    most n (so the count array is no longer than a column, and there are at
    most n patterns) and n is at least :data:`PATTERN_MIN_ROWS`. The
    product is taken in Python ints, so it cannot overflow.

    The learners regress many nodes on the same few covariate sets, so the
    builder also keeps each set's patterns and multiplicities, keyed by the
    covariate tuple and read-only. A set asked for the first time is built
    from its columns' level codes, in one code pass and one bincount; only
    sets that were asked for are built. Patterns are in lexicographic
    order, so a fit does not depend on what was cached. The cached sets
    take at most as many bytes as the float rows (p * n * 8); beyond that
    the least recently used set is dropped.
    """

    def __init__(self, data: CountMatrix):
        self.variables = data.variables_as_float()
        self._tables: dict[int, tuple[np.ndarray, np.ndarray, float, float]] = {}
        self._levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._first: tuple[int, np.ndarray] | None = None
        self._gram: np.ndarray | None = None
        self._patterns: OrderedDict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._pattern_bytes = 0

    def _table(self, j: int) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Variable j's value table and the statistics read off it:
        :meth:`table`, then :meth:`log_fact` and :meth:`total`."""
        found = self._tables.get(j)
        if found is None:
            # The float rows hold the validated counts exactly (below
            # 2**53) and, unlike the count matrix's columns, contiguously.
            column = self.variables[j].astype(np.intp)
            n = column.size
            if n and int(column.max()) < 4 * n:
                counts = np.bincount(column)
                values = np.flatnonzero(counts)
                mults = counts[values].astype(np.float64)
                values = values.astype(np.float64)
                log_fact = float(mults @ _log_factorial_table(values)) / n
            else:
                values, inverse, mults = np.unique(
                    column, return_inverse=True, return_counts=True
                )
                values, mults = values.astype(np.float64), mults.astype(np.float64)
                log_fact = float(np.mean(_log_factorial_table(values)[inverse]))
            for array in (values, mults):
                array.flags.writeable = False
            found = self._tables[j] = (values, mults, log_fact, float(mults @ values))
        return found

    def table(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Variable j's value table: its distinct values, ascending, and
        their multiplicities, both floats and read-only. It comes from one
        bincount of the column, or from one sort when the largest value is
        at least 4n (then the value counts would cost more), is built on
        first use and kept for the life of the builder. :meth:`log_fact`,
        :meth:`total` and :func:`_fit_pairs` all read it, so no column is
        passed over twice for them."""
        return self._table(j)[:2]

    def log_fact(self, s: int) -> float:
        """mean(log y!) of variable s, the objective's constant term, from
        its value table: sum_v c_v log(v!) / n, or, when the table came
        from a sort, the mean over the rows of log(v!) of each row's value."""
        return self._table(s)[2]

    def total(self, s: int) -> float:
        """sum(y) of variable s, the sufficient statistic of the intercept,
        from its value table (exact while the sum stays below 2**53)."""
        return self._table(s)[3]

    def levels(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Variable j's distinct values (ascending, as floats) and the row
        codes indexing them."""
        found = self._levels.get(j)
        if found is None:
            values = self._table(j)[0]
            column = self.variables[j].astype(np.intp)
            code_type = np.min_scalar_type(values.size - 1)
            top = int(values[-1])
            if top < 4 * column.size:
                rank = np.zeros(top + 1, dtype=code_type)
                rank[values.astype(np.intp)] = np.arange(values.size)
                codes = rank[column]
            else:
                codes = np.searchsorted(values, column).astype(code_type)
            found = self._levels[j] = (values, codes)
        return found

    def cross(self, s: int) -> np.ndarray:
        """The cross products of variable s with every variable,
        ``variables @ variables[s]``, read-only: X^T y of every regression
        of s is a slice of it. The first node asked for gets its own
        product, O(pn), so a caller that fits one node (as
        :func:`countdag.scores.node_score` does) pays no more. A second
        node forms the Gram matrix ``variables @ variables.T`` for every
        variable in one product, O(p^2 n), and each later row is read off
        it. Its entries are sums of products of counts, so they are exact,
        in any order of summation, while they stay below 2**53: the row of
        a node is the same either way."""
        if self._gram is None:
            if self._first is None:
                self._first = (s, self.variables @ self.variables[s])
                self._first[1].flags.writeable = False
            if self._first[0] == s:
                return self._first[1]
            self._gram = self.variables @ self.variables.T
            self._gram.flags.writeable = False
            self._first = None
        return self._gram[s]

    def patterns(self, covariates: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
        """The distinct rows X of the covariates' columns (in lexicographic
        order) and their multiplicities as floats, both read-only; None
        when the fit should run on the rows."""
        n = self.variables.shape[1]
        if not covariates or n < PATTERN_MIN_ROWS:
            return None
        found = self._patterns.get(covariates)
        if found is not None:
            self._patterns.move_to_end(covariates)
            return found
        space = 1
        for j in covariates:
            space *= self.levels(j)[0].size
            if space > n:
                return None
        found = self._build(covariates)
        for array in found:
            array.flags.writeable = False
        self._patterns[covariates] = found
        self._pattern_bytes += found[0].nbytes + found[1].nbytes
        while self._pattern_bytes > self.variables.nbytes:
            _, (X, counts) = self._patterns.popitem(last=False)
            self._pattern_bytes -= X.nbytes + counts.nbytes
        return found

    def _build(self, covariates: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`patterns` of a set that is not cached and whose level-count
        product is at most n."""
        values, code = self._levels[covariates[0]]
        space = values.size
        for j in covariates[1:]:
            values, codes = self._levels[j]
            code = np.multiply(code, values.size, dtype=np.intp)
            code += codes
            space *= values.size
        counts = np.bincount(code, minlength=space)
        present = np.flatnonzero(counts)
        X = np.empty((present.size, len(covariates)))
        rest = present
        for col in range(len(covariates) - 1, -1, -1):
            values = self._levels[covariates[col]][0]
            rest, index = np.divmod(rest, values.size)
            X[:, col] = values[index]
        return X, counts[present].astype(np.float64)

    def design(
        self, s: int, covariates: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(xty, X, counts)`` for :func:`_fit_core`'s regression of variable
        s on the covariates: X^T y over all rows, then the patterns and their
        multiplicities, or the rows, a fresh column-major gather that the
        caller may overwrite, and None. X^T y is read off :meth:`cross`."""
        xty = self.cross(s)[list(covariates)]
        found = self.patterns(covariates)
        if found is None:
            return xty, self.variables[list(covariates)].T, None
        return (xty, *found)


@lru_cache(maxsize=None)
def _triangle(k: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Column pairs (a <= b) of the moment matrix's product rows, and the
    (k, k) map from any pair (a, b) to the index of its row."""
    rows, cols = np.triu_indices(k)
    index = np.empty((k, k), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = k + np.arange(len(rows))
    return list(zip(rows.tolist(), cols.tolist())), index


def _newton_moments(X: np.ndarray, center: np.ndarray, overwrite: bool = False):
    """A column-major copy of X less ``center`` in every row, and the map
    ``(w, c) -> (c X^T w, c X^T W X)`` on that copy.

    Up to MOMENT_MAX_K columns both moments come from one product with the
    (k + k(k+1)/2, n) moment matrix, whose first k rows are the centred columns;
    the Hessian is then exactly symmetric. Wider Hessians are symmetric up
    to rounding. A wider X that the caller gives up (``overwrite``) is
    centred in place rather than copied. Its moments are summed over blocks
    of MOMENT_BLOCK_ROWS rows: each block's weighted columns go into one
    (k, block) buffer kept for the fit, which then meets the block's rows in
    X^T W X while both are still in cache, and the block's X^T w is taken
    alongside. A fit of at most one block forms (X^T w, (X^T * w) X) as
    two whole products.
    """
    n, k = X.shape
    if k <= MOMENT_MAX_K:
        pairs, index = _triangle(k)
        Zt = np.empty((k + len(pairs), n))
        np.subtract(X.T, center[:, None], out=Zt[:k])
        for row, (a, b) in enumerate(pairs, k):
            np.multiply(Zt[a], Zt[b], out=Zt[row])

        def moments(w: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
            m = Zt @ w
            m *= c
            return m[:k], m[index]

        return Zt[:k].T, moments

    Xf = np.subtract(X, center, out=X if overwrite else None, order="F")
    Xft = Xf.T
    block = MOMENT_BLOCK_ROWS
    buf = np.empty((k, min(n, block)))
    # Each block's rows of w, of X^T and of X, and its part of the buffer.
    blocks = [
        (slice(i, i + block), Xft[:, i : i + block], Xf[i : i + block], buf[:, : n - i])
        for i in range(0, n, block)
    ]

    def moments(w: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
        g = H = None
        for rows, xt, x, weighted in blocks:
            wb = w[rows]
            gb, Hb = xt @ wb, np.multiply(xt, wb, out=weighted) @ x
            if H is None:
                g, H = gb, Hb
            else:
                g += gb
                H += Hb
        return g * c, H * c

    return Xf, moments


def _joint_value(a: float, shift: float, mean_w: float, mean_y: float, log_fact: float) -> float:
    """The node regression's objective at intercept ``a`` on centred x, for
    rates exp(lp - shift) of mean ``mean_w``: exp(a + shift) mean_w -
    a mean_y + mean(log y!), as X^T y vanishes on centred x; +inf where
    exp overflows."""
    if a + shift > 709.0:
        return math.inf
    return math.exp(a + shift) * mean_w - a * mean_y + log_fact


def _collinear(t: int) -> SingularInformation:
    return SingularInformation(f"covariate {t} is constant, so collinear with the intercept")


def _fit_core(
    xty: np.ndarray,
    X: np.ndarray,
    covariates: tuple[int, ...],
    log_fact: float,
    counts: np.ndarray | None,
    total: float,
    overwrite_x: bool = False,
) -> GlmFit:
    """Newton solver on pre-validated float arrays (hot path for learners).

    ``xty`` is X^T y, unscaled, over all rows of the regression; y enters
    the fit only through it, ``log_fact``, mean(log y!), and ``total``.
    ``counts``, when given, holds each row's multiplicity: every rate is
    counts * exp(lp), at the start point, at every trial point and in the
    moments, and the objective is scaled by 1 / sum(counts). With the
    distinct rows of a design and their multiplicities, the fit equals the
    one on the full rows up to rounding, for the price of the distinct rows
    (see :class:`PatternBuilder`).

    ``total`` is sum(y) over all rows, the sufficient statistic of the
    intercept, which is profiled out as the module docstring describes. A
    covariate that is constant over the rows is collinear with the
    intercept and raises SingularInformation. With no covariate, or with
    total = 0, the fit has a closed form: the intercept is log(mean y), -inf
    for an all-zero response, where every coefficient is flagged in
    ``diverged`` (the rates are all 0, so no coefficient carries evidence).
    ``overwrite_x`` lets a fit wider than MOMENT_MAX_K centre a
    column-major X in place: pass it only for an X of no further use, such
    as a fresh gather of the rows, never for an array a caller passed in.

    It fits no covariate, in the closed form, or two or more; a fit on one
    covariate runs on the covariate's value table in :func:`_fit_levels`,
    which takes the same steps as the loop below.

    Each iteration takes the gradient and the information at the current
    rates w from one call of the fit's moment map (see the module
    docstring), solves for the Newton step on the free coefficients and
    halves the step until the objective falls, at most MAX_HALVINGS times,
    unless the full step stalls: it is rejected although it promised a
    decrease within RESOLUTION, so the loop stops there, converged. The
    loop runs at most MAX_ITER iterations and converges on a gradient
    max-norm within TOL. A trial point moves the linear predictor along
    d = X step, so it costs one pass over the rows for exp and the sum of
    the rates; only a trial that clamps a coefficient at -THETA_CAP (which
    then stays frozen) recomputes X theta. Once the largest linear
    predictor exceeds LP_CAP the rates are taken relative to it, which
    changes no rate, and a trial is judged by the full model's objective
    (see :func:`_joint_value`). The moments of the accepted rates are kept:
    when the loop stops with no step taken since they were computed
    (convergence, or a failed line search), they give the reported Fisher
    information and the final gradient without another pass.
    """
    n, k = X.shape
    inv_n = 1.0 / (n if counts is None else float(_sum(counts)))
    if k == 0 or total == 0.0:
        # The closed form: the intercept is log(mean y).
        if total == 0.0:
            nll, intercept = log_fact, -math.inf
        else:
            intercept = math.log(total * inv_n)
            nll = total * inv_n * (1.0 - intercept) + log_fact
        return GlmFit(
            covariates=covariates,
            theta=np.zeros(k),
            fisher=np.zeros((k, k)),
            nll=nll,
            converged=True,
            iterations=0,
            diverged=np.full(k, total == 0.0),
            intercept=intercept,
        )

    w = np.ones(n)  # the rates at theta = 0
    if counts is not None:
        w *= counts
    sw = float(_sum(w))
    mean_y = total * inv_n
    const = mean_y * (1.0 - math.log(mean_y)) + log_fact
    current = mean_y * math.log(sw * inv_n) + const
    if not math.isfinite(current):
        raise InvalidData("objective non-finite at theta = 0")

    cap = LP_CAP
    floor = -THETA_CAP
    center = xty / total
    # moments(w, total / sw * inv_n) gives the gradient and the second
    # moment A about the centre at the rates w total / sw; A's Schur
    # complement is the Hessian (see schur).
    Xf, moments = _newton_moments(X, center, overwrite_x)

    def schur(A: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The profile's Hessian A - g g^T / ybar, exactly symmetric if A is."""
        outer = np.multiply.outer(g, g)
        outer *= 1.0 / mean_y
        return A - outer

    def newton(A: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool, float]:
        """The Newton step for gradient g and second moment A, whether only
        the ridge solved it, and the step's intercept part. It solves with A
        and corrects by Sherman-Morrison: with x = A^-1 g and
        q = <g, x> / ybar, the step is x / (1 - q) and its intercept part
        -q / (1 - q). On centred x the Hessian is singular exactly when A is
        (an affine relation among the columns is a linear one), and
        otherwise q < 1; a q rounded to 1 or more is taken as a singular
        Hessian."""
        x, rescued = _solve_with_ridge(A, g)
        q = float(g @ x) / mean_y
        if not q < 1.0:
            raise SingularInformation("information matrix singular")
        return x / (1.0 - q), rescued, -q / (1.0 - q)

    def evaluate(lp_t: np.ndarray, w_t: np.ndarray, a_t: float) -> tuple[float, float, float]:
        """The full model's objective at linear predictor lp_t and intercept
        a_t, with w_t filled by its rates: (value, sum of w_t, shift)."""
        top = float(_max(lp_t))
        shift_t = top if top > cap else 0.0
        np.exp(np.subtract(lp_t, shift_t, out=w_t) if shift_t else lp_t, out=w_t)
        if counts is not None:
            w_t *= counts
        sw_t = float(_sum(w_t))
        return _joint_value(a_t, shift_t, sw_t * inv_n, mean_y, log_fact), sw_t, shift_t

    theta = np.zeros(k)
    lp = np.zeros(n)
    # Row buffers: the trial point's linear predictor and rates, and the
    # direction d. An accepted trial swaps buffers with the current point.
    lp_t, w_t, d = np.empty(n), np.empty(n), np.empty(n)
    diverged = np.zeros(k, dtype=bool)
    any_diverged = converged = False
    fresh = False  # grad and H belong to the current w
    shift = 0.0  # the rates are exp(lp - shift)
    a = math.log(mean_y)  # the intercept at theta (centred x)
    da = 0.0  # and its step
    settled = None  # the Newton step at the point where the fit converged
    iterations = halvings = ridge_rescues = 0
    for _ in range(MAX_ITER):
        grad, H = moments(w, total / sw * inv_n)
        fresh = True
        if any_diverged:
            free = np.flatnonzero(~diverged)
            if free.size == 0:
                converged = True
                break
            grad_free = grad[free]
            step_free, rescued, da = newton(H[np.ix_(free, free)], grad_free)
            step = np.zeros(k)
            step[free] = step_free
        else:
            grad_free = grad
            step_free, rescued, da = newton(H, grad)
            step = step_free
        if rescued and not H.diagonal().all():
            # Only a singular information needs the ridge, so only then is
            # a covariate sought whose centred column is 0.
            raise _collinear(covariates[int(np.flatnonzero(H.diagonal() == 0.0)[0])])
        ridge_rescues += rescued
        # Under separation the gradient vanishes while the Newton step stays
        # O(1) (curvature collapses as fast as the gradient), so a small
        # gradient alone cannot certify an interior optimum.
        if (
            max(map(abs, grad_free.tolist())) <= TOL
            and max(map(abs, step_free.tolist())) <= 1e-4
        ):
            converged = True
            settled = step
            break

        # Halving by 0.5 is exact, so step and d stay eta * (full step).
        np.matmul(Xf, step, out=d)
        accepted = False
        for trial_index in range(MAX_HALVINGS + 1):
            trial = theta - step
            clamped = min(trial.tolist()) <= floor
            if clamped:
                hit = trial <= floor
                if any_diverged:
                    hit &= ~diverged
                clamped = bool(hit.any())
            if clamped:
                trial[hit] = floor
                np.matmul(Xf, trial, out=lp_t)
            else:
                np.subtract(lp, d, out=lp_t)
            value, sw_t, shift_t = evaluate(lp_t, w_t, a - da)
            if value < current and math.isfinite(value):
                theta, sw, shift = trial, sw_t, shift_t
                # Profiling the intercept out lowers the objective again.
                a = math.log(total) - math.log(sw) - shift
                current = mean_y * (math.log(sw * inv_n) + shift) + const
                lp, lp_t = lp_t, lp
                w, w_t = w_t, w
                if clamped:
                    diverged |= hit
                    any_diverged = True
                accepted = True
                fresh = False
                break
            if trial_index == 0:
                # The full step failed. If it promised a decrease within the
                # objective's rounding error, the optimum is reached at
                # floating-point resolution and a shorter step could win at
                # most rounding noise: the search stalls here (see
                # RESOLUTION). Otherwise, if no trial lowers the objective,
                # the final gradient check below decides the flag.
                scale = mean_y * (1.0 + abs(math.log(sw * inv_n) + shift)) + abs(const)
                converged = 0.5 * float(grad_free @ step_free) <= RESOLUTION * scale
                if converged:
                    settled = step
                    break
            step = step * 0.5
            d *= 0.5
            da *= 0.5
            halvings += 1
        iterations += 1
        if not accepted:
            break

    if settled is not None and max(map(abs, settled.tolist())) <= 1e-4:
        # The step the profile converged on (see the module docstring); the
        # information stays that of the last iterate.
        theta = theta - settled
    if not fresh:
        grad, H = moments(w, total / sw * inv_n)
    if not converged:
        free_grad = grad[~diverged]
        converged = free_grad.size == 0 or float(np.abs(free_grad).max()) <= TOL
    # Moment-map Hessians are exactly symmetric (see _newton_moments).
    if k > MOMENT_MAX_K:
        H = (H + H.T) * 0.5
    return GlmFit(
        covariates=covariates,
        theta=theta,
        fisher=schur(H, grad),
        nll=current,
        converged=converged,
        iterations=iterations,
        diverged=diverged,
        halvings=halvings,
        ridge_rescues=ridge_rescues,
        intercept=a - float(center @ theta),
    )


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _fit_levels(
    values: np.ndarray,
    mults: np.ndarray,
    sizes: np.ndarray,
    xty: np.ndarray,
    total: np.ndarray,
    log_fact: np.ndarray,
    n: float,
    covariates: list[int],
) -> list[GlmFit | SingularInformation]:
    """The node regression of :func:`_fit_core` on one covariate, for a batch
    of regressions at once.

    Member b regresses a response on covariate ``covariates[b]`` through its
    value table: the covariate's ``sizes[b]`` distinct values, ascending,
    and their multiplicities, the member's stretch of ``values`` and
    ``mults`` (the members' tables laid end to end, so no member is padded
    to another's length). ``xty[b]``, ``total[b]`` and ``log_fact[b]`` are
    the member's X^T y, sum(y) and mean(log y!), and every member's
    multiplicities sum to ``n``. This is the grouped form of the regression
    on the rows (see the module docstring), so each Newton iteration costs
    the member's levels, not its rows.

    Every member runs :func:`_fit_core`'s Newton loop on its own: the closed
    form at total 0, the collinear constant covariate, the LP_CAP shift,
    the THETA_CAP freeze, the RESOLUTION stall, the halvings, MAX_ITER and
    the step the fit converged on. A trial forms the linear predictor
    x * theta exactly and reads its maximum off the extremes of x. The 1x1
    ridge cannot rescue a singular information, so such a member's result
    is a SingularInformation, as is a collinear member's, and no fit counts
    a ridge rescue.

    The members advance together on one layout of their levels, fixed on
    entry: each step of the loop is one vectorised operation over every
    member's levels, and two masks say whom it counts for, ``live``, the
    members still iterating, and ``trying``, those still halving in a line
    search. A member that has finished stays in the arrays, but its
    derivatives are no longer written and no trial of it is accepted, so
    its results are those it finished with. Sums over a member's levels
    never mix members, so each result depends only on the member's own
    inputs and is the same, bit for bit, alone or in any batch. Results
    come back in the members' order, each fit's arrays a view of the
    batch's. Each step pays numpy's call overhead once for all the members,
    so a batch's cost grows far slower than its size, and a batch of one
    costs mostly that overhead. Until its slowest member finishes, every
    pass covers every member's levels; with count data's few dozen levels
    a member, that costs less than re-packing the arrays as members finish.
    """
    cap, floor = LP_CAP, -THETA_CAP
    inv_n = 1.0 / n
    count = sizes.size
    ends = np.cumsum(sizes)
    starts = ends - sizes
    zero = total == 0.0  # the closed form (see _fit_core)
    mean_y = total * inv_n
    log_total = np.log(total)
    const = mean_y * (1.0 - np.log(mean_y)) + log_fact
    sw = np.full(count, float(n))  # the sum of each member's rates
    current = mean_y * np.log(sw * inv_n) + const
    if not np.isfinite(current[~zero]).all():
        raise InvalidData("objective non-finite at theta = 0")
    center = xty / total
    # Each level's member, and its centred value and square; w holds each
    # level's rate at its member's current point.
    seg = np.repeat(np.arange(count), sizes)
    x = values - center[seg]
    x2, w = x * x, mults.astype(float)
    x_hi, x_lo = x[ends - 1], x[starts]
    collinear = (x_hi == x_lo) & ~zero

    theta = np.zeros(count)
    shift = np.zeros(count)  # the rates are exp(x theta - shift)
    a = np.log(mean_y)  # the intercept at theta (centred x), as in _fit_core
    settled = np.full(count, math.inf)  # the Newton step at which a fit converged
    g, h = np.zeros(count), np.zeros(count)
    diverged, converged, singular = zero.copy(), zero.copy(), np.zeros(count, dtype=bool)
    iterations, halvings = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp)

    def derivatives() -> None:
        """g and h of the live members at their rates w, as in _fit_core."""
        scale = total / sw * inv_n
        g_all = np.add.reduceat(x * w, starts) * scale
        h_all = np.add.reduceat(x2 * w, starts) * scale - g_all * g_all / mean_y
        np.copyto(g, g_all, where=live)
        np.copyto(h, h_all, where=live)

    live = ~(zero | collinear)  # the members still iterating
    for _ in range(MAX_ITER):
        if not live.any():
            break
        derivatives()
        step = g / h
        done = live & diverged
        bad = live & ~diverged & ((h == 0.0) | ~np.isfinite(h))
        near = live & ~(diverged | bad) & (np.abs(g) <= TOL) & (np.abs(step) <= 1e-4)
        settled[near] = step[near]
        converged |= done | near
        singular |= bad
        live &= ~(done | bad | near)
        if not live.any():
            break
        da = -g * step / mean_y

        # The line search over the members still halving; an accepted
        # member's levels take its trial's rates.
        accepted = np.zeros(count, dtype=bool)
        trying = live.copy()
        for trial_index in range(MAX_HALVINGS + 1):
            trial = theta - step
            clamped = trial <= floor
            trial[clamped] = floor
            top = trial * np.where(trial >= 0.0, x_hi, x_lo)
            shift_t = np.where(top > cap, top, 0.0)
            w_t = x * trial[seg]
            w_t -= shift_t[seg]
            np.exp(w_t, out=w_t)
            w_t *= mults
            sw_t = np.add.reduceat(w_t, starts)
            # _joint_value for every trial: +inf where exp overflows.
            a_t = a - da
            e = a_t + shift_t
            value = np.exp(e) * (sw_t * inv_n) - a_t * mean_y + log_fact
            value[e > 709.0] = math.inf
            ok = trying & (value < current) & np.isfinite(value)
            if ok.any():
                theta[ok], sw[ok], shift[ok] = trial[ok], sw_t[ok], shift_t[ok]
                # Profiling the intercept out lowers the objective again.
                a[ok] = log_total[ok] - np.log(sw[ok]) - shift[ok]
                current[ok] = mean_y[ok] * (np.log(sw[ok] * inv_n) + shift[ok]) + const[ok]
                diverged[ok] = clamped[ok]
                accepted |= ok
                np.copyto(w, w_t, where=ok[seg])
            trying &= ~ok
            if not trying.any():
                break
            if trial_index == 0:
                # A stall (see RESOLUTION), at the point the step left.
                scale = mean_y * (1.0 + np.abs(np.log(sw * inv_n) + shift)) + np.abs(const)
                stall = trying & (0.5 * g * g / h <= RESOLUTION * scale)
                settled[stall] = step[stall]
                converged |= stall
                trying &= ~stall
                if not trying.any():
                    break
            step *= 0.5
            da *= 0.5
            halvings += trying
        iterations += live
        live &= accepted

    if live.any():  # MAX_ITER ended these fits after an accepted step
        derivatives()
    theta = np.where(np.abs(settled) <= 1e-4, theta - settled, theta)
    intercept = np.where(zero, -math.inf, a - center * theta)
    converged |= diverged | (np.abs(g) <= TOL)
    nll = np.where(zero, log_fact, current)
    thetas, fishers, flags = theta[:, None], h[:, None, None], diverged[:, None]
    fits: list[GlmFit | SingularInformation] = []
    for b, (t, fails, fails_h, *record) in enumerate(zip(
        covariates, collinear.tolist(), singular.tolist(), nll.tolist(), converged.tolist(),
        iterations.tolist(), halvings.tolist(), intercept.tolist(),
    )):
        if fails:
            fits.append(_collinear(t))
        elif fails_h:
            fits.append(SingularInformation("information matrix singular; ridge rescue impossible"))
        else:
            nll_b, converged_b, iterations_b, halvings_b, intercept_b = record
            fits.append(GlmFit(
                covariates=(t,),
                theta=thetas[b],
                fisher=fishers[b],
                nll=nll_b,
                converged=converged_b,
                iterations=iterations_b,
                diverged=flags[b],
                halvings=halvings_b,
                intercept=intercept_b,
            ))
    return fits


def _fit_pairs(
    builder: PatternBuilder, pairs: list[tuple[int, int]]
) -> list[GlmFit | SingularInformation]:
    """The node regression of s on (t,) for each (s, t) of ``pairs``, all in
    one :func:`_fit_levels` batch on the builder's value tables, with X^T y
    from s's cross products: each a GlmFit, or the SingularInformation of
    a failed fit, in the order of ``pairs``. Each member is bit for bit
    the same in any batch, a batch of one included."""
    tables = [builder.table(t) for _, t in pairs]
    return _fit_levels(
        np.concatenate([values for values, _ in tables]),
        np.concatenate([mults for _, mults in tables]),
        np.array([values.size for values, _ in tables], dtype=np.intp),
        np.array([builder.cross(s)[t] for s, t in pairs]),
        np.array([builder.total(s) for s, _ in pairs]),
        np.array([builder.log_fact(s) for s, _ in pairs]),
        float(builder.variables.shape[1]),
        [t for _, t in pairs],
    )


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _dual_bounds(
    covariates: np.ndarray,
    candidates: np.ndarray,
    intercept: float,
    theta: np.ndarray,
    xty: np.ndarray,
    total: float,
    log_fact: float,
) -> np.ndarray:
    """Lower bounds on the nll of the node regressions on the k
    ``covariates`` plus one of the r ``candidates`` each, from the
    regression on the covariates alone: -inf for a candidate that gets no
    bound. Both arrays hold variables as rows, (k, n) and (r, n), k >= 1;
    ``candidates`` is a fresh gather, which this overwrites. ``intercept``
    and ``theta`` are the coefficients of the fit on the covariates, ``xty``
    the k + r cross products of the response with the covariates and then
    the candidates, and ``total`` and ``log_fact`` its sum(y) and mean(log y!).

    *The bound.* Let Z = [1, X_P, x_t] be the design of candidate t and
    mu >= 0 any rates with Z^T mu = Z^T y. Row by row, e^eta >= mu + mu
    (eta - log mu) (the tangent of exp at log mu; 0 at mu = 0), so for any
    coefficients, with eta = Z theta, sum(e^eta - y eta) is at least
    sum(mu - mu log mu) + (mu - y)^T Z theta = sum(mu - mu log mu): weak
    duality. So min nll >= mean(mu - mu log mu) + mean(log y!), whether or
    not the fit on X_P is at its optimum. The mu taken is one Newton step
    from the fit's rates m: mu = m (1 + Z c) with (Z^T M Z) c = Z^T (y - m),
    so Z^T mu = Z^T y. When t adds nothing to an optimal fit, c = 0 and
    the bound is the minimum; to second order its gap is the Rao score
    statistic of t. The systems of all candidates share the block
    A = X_P'^T M X_P' of X_P' = [1, X_P], so one solve with A serves them
    all: with b_t = X_P'^T M x_t, h = A^-1 X_P'^T (y - m), W = A^-1 B and
    the Schur complement s_t = x_t^T M x_t - b_t^T A^-1 b_t, the step is
    g_t = (x_t^T (y - m) - b_t^T h) / s_t on x_t and h - g_t A^-1 b_t on
    X_P'. A rate m that underflows to 0 gives mu = 0 whatever its row of
    1 + Z c, and adds 0 to the sum.

    A candidate gets no bound when some entry of 1 + Z c at a positive rate
    is not positive (mu is then no feasible point, or log mu is -inf) or
    when s_t is not positive at rounding: s_t, the m-weighted residual sum
    of squares of x_t on X_P', is a difference of terms up to x_t^T M x_t,
    with an error of about eps cond(A) times it, so an s_t within
    sqrt(RESOLUTION) (about 1e-7) of x_t^T M x_t cannot be told from 0
    (x_t is collinear with X_P', as a duplicated or constant column is)
    and its step g_t would be rounding noise. No candidate gets one when A
    is singular, or when by the same test a column of X_P' is collinear
    with the others, its variance inflation A_jj (A^-1)_jj at least
    1 / sqrt(RESOLUTION): as when P's fit ran off so far that its rates
    leave a covariate nearly constant, so that A's solve is rounding noise.

    *The margin.* The computed mu meets Z^T mu = Z^T y only up to the
    residual r of the solve and of forming mu, which moves the bound by
    r^T theta* at the candidate's optimum theta*: for a backward-stable
    solve, at most about (k + 2) eps sum_i mu_i |eta*_i|, with eta* about
    log mu. Summing the n terms mu (1 - log mu) errs by at most
    n eps sum_i |mu_i (1 - log mu_i)|, and the fitted nll, an objective
    value at a real point and so never below the minimum, is itself rounded
    by a few eps times its terms. As mean(mu) = ybar, each is within
    (n + k + 2) eps (ybar (1 + L) + |mean(log y!)|), with L the largest
    |eta| plus the largest |log(1 + Z c)|, at least every |log mu|. The
    margin is that with RESOLUTION (64 eps) for eps, so it covers each
    with room to spare, and the rescaling to a score (a product by 2n and a
    sum, each rounded once). At n < PATTERN_MIN_ROWS, (n + k + 2)
    RESOLUTION is below 1e-10, so the margin costs no screening. Each
    bound is less its margin: a candidate whose bound exceeds a score
    cannot fit below that score, or tie it.
    """
    k, n = covariates.shape
    r = candidates.shape[0]
    design = np.empty((k + 1, n))  # X_P'^T
    design[0] = 1.0
    design[1:] = covariates
    eta = theta @ covariates
    eta += intercept
    m = np.exp(eta)
    weighted = design * m
    A = weighted @ design.T
    B = candidates @ weighted.T  # each row b_t^T
    square = (candidates * candidates) @ m
    rhs = np.empty((k + 1, r + k + 2))
    rhs[0, 0] = total
    rhs[1:, 0] = xty[:k]
    rhs[:, 0] -= A[:, 0]
    rhs[:, 1 : r + 1] = B.T
    rhs[:, r + 1 :] = np.eye(k + 1)
    solved = _solve_plain(A, rhs)
    limit = 1.0 / math.sqrt(RESOLUTION)
    if solved is None or not (np.abs(A.diagonal() * solved[:, r + 1 :].diagonal()) < limit).all():
        return np.full(r, -math.inf)
    h, W = solved[:, 0], solved[:, 1 : r + 1]
    schur = square - np.einsum("ij,ji->i", B, W)
    step = (xty[k:] - B[:, 0] - B @ h) / schur
    coef = h - (W * step).T
    coef[:, 0] += 1.0
    # The rates of mu relative to m, 1 + Z c, one row per candidate.
    ratio = coef @ design
    ratio += np.multiply(candidates, step[:, None], out=candidates)
    if not m.all():
        ratio[:, m == 0.0] = 1.0  # mu is 0 there, whatever the ratio
    low = _min(ratio, axis=1)
    ok = (schur * limit > square) & (low > 0.0)
    ratio[~ok] = 1.0
    # L, at most the largest |eta| plus the largest |log(ratio)|.
    spread = float(_max(np.abs(eta))) + max(
        math.log(float(_max(ratio, axis=None))), -math.log(float(_min(low[ok], initial=1.0)))
    )
    # sum mu (1 - log mu), with log mu = eta + log(ratio): a rate m that
    # underflows to 0 adds 0, not 0 * log 0.
    logs = np.log(ratio)
    mu = np.multiply(ratio, m, out=ratio)
    sums = _sum(mu, axis=1) - mu @ eta - np.einsum("ij,ij->i", mu, logs)
    bounds = sums / n + log_fact
    margin = (n + k + 2) * RESOLUTION * (total / n * (1.0 + spread) + abs(log_fact))
    return np.where(ok & np.isfinite(bounds), bounds - margin, -math.inf)


def wald(fit: GlmFit, target: int, n: int) -> float:
    """The Wald statistic of H0: theta_target = 0,
    z = sqrt(n) theta_hat / sqrt([J^-1]_tt), with J the fit's information
    (for a node regression, the profile's; see the module docstring). The
    caller decides what z rejects. A diverged coefficient has z = 0: a
    -infinity MLE has unbounded variance and carries no finite evidence
    under the Wald construction.

    The first test that needs a variance keeps the whole diagonal of J^-1,
    or the SingularInformation of its solve, on the fit (``GlmFit.variances``)
    for its other tests. A non-positive variance raises for its covariate.
    """
    try:
        idx = fit.covariates.index(target)
    except ValueError:
        raise ValueError(f"covariate {target} not in fit ({fit.covariates})") from None
    if fit.diverged[idx]:
        return 0.0
    variances = fit.variances
    if variances is None:
        try:
            variances = _inverse_diagonal(fit.fisher)
        except SingularInformation as exc:
            variances = exc
        fit.variances = variances
    if isinstance(variances, SingularInformation):
        raise variances.with_traceback(None)
    var_tt = float(variances[idx])
    if not math.isfinite(var_tt) or var_tt <= 0.0:
        raise SingularInformation(
            f"non-positive variance estimate for covariate {target}"
        )
    return math.sqrt(n) * float(fit.theta[idx]) / math.sqrt(var_tt)


def _inverse_diagonal(H: np.ndarray) -> np.ndarray:
    """The diagonal of H^-1, with :func:`_solve_with_ridge`'s rescue. Up to
    2x2 it is taken in closed form, [1/h] or [d, a]/det, bit for bit the
    values of solving against each unit vector; wider H, or a singular
    small one, is solved against the identity."""
    k = H.shape[0]
    if k == 1:
        h = float(H[0, 0])
        if h != 0.0 and math.isfinite(h):
            return np.array([1.0 / h])
    elif k == 2:
        (a, b), (c, d) = H.tolist()
        det = a * d - b * c
        if det != 0.0 and math.isfinite(det):
            return np.array([d / det, a / det])
    return np.diag(_solve_with_ridge(H, np.eye(k))[0])


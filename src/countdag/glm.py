"""Zero-intercept Poisson regression fitted by Newton's method.

The model for a response count y given covariate counts x is
``y ~ Pois(exp(<theta, x>))``. The objective is the rescaled negative
log-likelihood

    nll(theta) = (1/n) sum_i [ -y_i <theta, x_i> + log(y_i!) + exp(<theta, x_i>) ]

which is convex in theta. Its Hessian, ``(1/n) sum_i exp(<theta, x_i>)
x_i x_i^T``, does not depend on y, so the observed and (conditionally)
expected Fisher information coincide; the fitted Hessian is reported as the
sample Fisher information and feeds the Wald test of a single coefficient.

The solver works on sufficient statistics. With rates w = exp(X theta),
the gradient is (X^T w - X^T y) / n and the Hessian is X^T W X / n, so y
enters only through X^T y, which the solver takes as given, and each
Newton iteration needs only X^T w and X^T W X. For up to
:data:`MOMENT_MAX_K` covariates both come from one matrix-vector product
``Zt @ w``, where the moment matrix ``Zt`` holds X's columns and their
pairwise products as rows; wider fits form X^T W X from a Fortran-ordered
copy of X. The step-halving line search moves along the linear predictor,
lp - eta * (X step), and evaluates the objective as
(sum(w) - <theta, X^T y>) / n + mean(log y!), so a trial point costs one
pass over the rows; X theta is recomputed only when a coefficient is
clamped at -:data:`THETA_CAP`. A fit that reaches the optimum at
floating-point resolution ends with a rejected full step whose promised
decrease, <grad, step> / 2, is within :data:`RESOLUTION` of the objective's
terms; the search ends there (a stall) and the fit counts as converged
(Boyd and Vandenberghe, *Convex Optimization*, 9.5). The check runs only
after a rejected full step, so accepted iterations pay nothing for it.

The solver's limits are module constants, the same for every fit:
:data:`TOL` (gradient max-norm at convergence), :data:`MAX_ITER` (Newton
iterations), :data:`MAX_HALVINGS` (step halvings per line search),
:data:`THETA_CAP` (coefficients diverging below -THETA_CAP are frozen) and
:data:`LP_CAP` (linear predictors are clamped inside exp while fitting).

The rows may carry multiplicities c: the rates become w = c * exp(X theta)
and n becomes sum(c), so a fit on the distinct rows of X, their
multiplicities and X^T y over all rows is the fit on all rows (the grouped
form of a Poisson GLM; McCullagh and Nelder, *Generalized Linear Models*).
Count covariates repeat, so on tall data a node regression has far fewer
distinct covariate patterns than rows, and :class:`PatternBuilder` hands
the learners that form whenever it pays. X^T y is a slice of the node's
cross products with every variable, which the builder forms once per node,
so no fit passes over the rows for it. The learners regress many nodes on
the same few covariate sets, so the builder keeps each set's patterns for
the life of one learner call and drops the least recently used sets once
they take as many bytes as the float rows.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.special import gammaln

from .data import CountMatrix, InvalidData

_STD_NORMAL = NormalDist()

# The ufunc reductions behind ndarray.sum and ndarray.max, called without
# the method's Python wrapper: the Newton loop calls them on every trial.
_sum = np.add.reduce
_max = np.maximum.reduce

#: Widest fit whose Newton moments come from the precomputed moment matrix
#: (k + k(k+1)/2 rows); wider fits form X^T W X by a matrix product.
MOMENT_MAX_K = 4

#: Share of the magnitude of the objective's terms below which a decrease
#: is lost to rounding. A full Newton step that is rejected although it
#: promised less than this is a stall: the fit has converged at
#: floating-point resolution, so the line search ends at that first trial
#: rather than trying MAX_HALVINGS halved steps that can win only rounding
#: noise, and ``halvings`` counts none for it. (Every such stall on the
#: benchmark workloads promised at most 1.6 eps.)
RESOLUTION = 64 * math.ulp(1.0)

# The Newton solver's limits, the same for every fit. _fit_core and
# _fit_single read them when called, so a test may patch them.
TOL = 1e-8            # gradient max-norm at convergence (see RESOLUTION)
MAX_ITER = 100
THETA_CAP = 20.0      # freeze coefficients diverging below -THETA_CAP
LP_CAP = 30.0         # clamp linear predictors inside exp during fitting
MAX_HALVINGS = 30

#: Fewest rows for which a node regression may run on distinct covariate
#: patterns (see :class:`PatternBuilder`); smaller fits run on the rows.
#: Per learner call, patterns were 0.70-1.04x as fast on table-1 data
#: (n = 100, 1000), about even at 2,000-3,000 rows of the 50,000-row
#: workload's data and 1.25-1.5x faster for OR-PPGM and PKBIC from 5,000.
PATTERN_MIN_ROWS = 5000


class SingularInformation(RuntimeError):
    """Fisher information not invertible, even after the ridge rescue."""


@dataclass
class GlmFit:
    """Fitted zero-intercept Poisson regression of one node on covariates K."""

    covariates: tuple[int, ...]
    theta: np.ndarray
    fisher: np.ndarray
    nll: float
    converged: bool
    iterations: int
    diverged: np.ndarray
    lp_capped: bool = False
    halvings: int = 0            # step halvings over all line searches
    ridge_rescues: int = 0       # Newton systems solved only with the ridge


@dataclass
class FitTally:
    """Running counts over the fits a learner made (cache hits excluded)."""

    fits: int = 0
    nonconverged: int = 0
    lp_capped: int = 0
    diverged: int = 0
    newton_iterations: int = 0
    halvings: int = 0
    ridge_rescues: int = 0

    def add(self, fit: GlmFit) -> None:
        self.fits += 1
        self.nonconverged += not fit.converged
        self.lp_capped += bool(fit.lp_capped)
        self.diverged += bool(fit.diverged.any())
        self.newton_iterations += fit.iterations
        self.halvings += fit.halvings
        self.ridge_rescues += fit.ridge_rescues


@dataclass(frozen=True)
class WaldTest:
    """Wald test of H0: theta_target = 0 at significance level alpha."""

    target: int
    z: float
    alpha: float
    reject: bool


def _log_factorial(y: np.ndarray) -> np.ndarray:
    # log(y!) via log-gamma; math.lgamma is scalar-only, gammaln vectorizes.
    return gammaln(y + 1.0)


def _prepare(theta, y, X):
    theta = np.asarray(theta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidData(f"covariate matrix must be 2-D, got shape {X.shape}")
    n, k = X.shape
    if y.shape != (n,):
        raise InvalidData(f"response length {y.shape} does not match {n} rows")
    if theta.shape != (k,):
        raise InvalidData(f"theta length {theta.shape[0]} does not match {k} columns")
    if n < 1:
        raise InvalidData("need at least one observation")
    return theta, y, X


def nll(theta, y, X, lp_cap: float | None = None) -> float:
    """Rescaled negative log-likelihood at ``theta``.

    ``lp_cap`` clamps linear predictors inside the exponential (optimization
    guard); leave it None for exact evaluation.
    """
    theta, y, X = _prepare(theta, y, X)
    lp = X @ theta
    lpe = lp if lp_cap is None else np.minimum(lp, lp_cap)
    return float(np.mean(-y * lp + _log_factorial(y) + np.exp(lpe)))


def gradient(theta, y, X, lp_cap: float | None = None) -> np.ndarray:
    """Gradient of :func:`nll`: component t is (1/n) sum_i x_it (exp(<theta,x_i>) - y_i)."""
    theta, y, X = _prepare(theta, y, X)
    lp = X @ theta
    if lp_cap is not None:
        lp = np.minimum(lp, lp_cap)
    return X.T @ (np.exp(lp) - y) / len(y)


def fisher_information(theta, y, X, lp_cap: float | None = None) -> np.ndarray:
    """Sample Fisher information (1/n) sum_i exp(<theta,x_i>) x_i x_i^T."""
    theta, y, X = _prepare(theta, y, X)
    lp = X @ theta
    if lp_cap is not None:
        lp = np.minimum(lp, lp_cap)
    w = np.exp(lp)
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


def fit(y, X, covariates=None) -> GlmFit:
    """Minimize :func:`nll` by Newton iterations with step-halving, within
    the solver limits :data:`TOL`, :data:`MAX_ITER`, :data:`LP_CAP` and
    :data:`MAX_HALVINGS`.

    ``covariates`` names the columns of X (node indices); defaults to
    0..k-1. Coefficients trending below ``-THETA_CAP`` (separation, MLE at
    -infinity) are frozen at the cap and flagged in ``diverged``.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if y.shape != (n,):
        raise InvalidData(f"response length {len(y)} does not match {n} rows")
    if n < 1:
        raise InvalidData("need at least one observation")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(X)):
        raise InvalidData("non-finite values in regression data")
    if y.size and y.min() < 0:
        raise InvalidData("negative response counts")

    if covariates is None:
        covariates = tuple(range(X.shape[1]))
    else:
        covariates = tuple(int(c) for c in covariates)
        if len(covariates) != X.shape[1]:
            raise InvalidData("covariate name list does not match X columns")
    return _fit_core(X.T @ y, X, covariates, float(np.mean(_log_factorial(y))))


class PatternBuilder:
    """Fit inputs of node regressions on the columns of one count matrix.

    The Poisson likelihood depends on the rows only through the distinct
    rows of X (patterns), their multiplicities and X^T y: the grouped form
    of the model. :meth:`design` returns that form whenever :meth:`patterns`
    finds it, so Newton iterations cost O(patterns) rather than O(n), and
    the rows otherwise. Either way X^T y is read off the node's cross
    products with every variable, ``variables @ variables[s]``, formed on
    first use and kept for the life of the builder, one learner call, so no
    fit passes over the rows for it.

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
        self._levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._log_fact: dict[int, float] = {}
        self._cross: dict[int, np.ndarray] = {}
        self._patterns: OrderedDict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._pattern_bytes = 0

    def log_fact(self, s: int) -> float:
        """mean(log y!) of variable s, the objective's constant term: from
        its value counts, sum_v c_v log(v!) / n, unless its largest value is
        at least 4n (then the value counts would cost more than log y! on
        every row)."""
        found = self._log_fact.get(s)
        if found is None:
            y = self.variables[s]
            column = y.astype(np.intp)
            if column.size and int(column.max()) < 4 * column.size:
                counts = np.bincount(column)
                values = np.flatnonzero(counts)
                found = float(counts[values] @ _log_factorial(values.astype(np.float64)))
                found /= column.size
            else:
                found = float(np.mean(_log_factorial(y)))
            self._log_fact[s] = found
        return found

    def levels(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Variable j's distinct values (ascending, as floats) and the row
        codes indexing them."""
        found = self._levels.get(j)
        if found is None:
            # The float rows hold the validated counts exactly (below
            # 2**53) and, unlike the count matrix's columns, contiguously.
            column = self.variables[j].astype(np.intp)
            top = int(column.max())
            if top < 4 * column.size:
                seen = np.bincount(column, minlength=top + 1).astype(bool)
                values = np.flatnonzero(seen)
                rank = np.cumsum(seen) - 1
                codes = rank.astype(np.min_scalar_type(values.size - 1))[column]
            else:
                values, codes = np.unique(column, return_inverse=True)
                codes = codes.astype(np.min_scalar_type(values.size - 1))
            found = self._levels[j] = (values.astype(np.float64), codes)
        return found

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
        multiplicities, or the rows and None. X^T y holds sums of products
        of counts, so it is exact while they stay below 2**53."""
        cross = self._cross.get(s)
        if cross is None:
            cross = self._cross[s] = self.variables @ self.variables[s]
        xty = cross[list(covariates)]
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


def _newton_moments(X: np.ndarray, inv_n: float):
    """A column-major copy of X and the map ``w -> (X^T w / n, X^T W X / n)``.

    Up to MOMENT_MAX_K columns both moments come from one product with the
    (k + k(k+1)/2, n) moment matrix, whose first k rows are X's columns;
    the Hessian is then exactly symmetric. Wider Hessians are symmetric up
    to rounding.
    """
    n, k = X.shape
    if k <= MOMENT_MAX_K:
        pairs, index = _triangle(k)
        Zt = np.empty((k + len(pairs), n))
        Zt[:k] = X.T
        for row, (a, b) in enumerate(pairs, k):
            np.multiply(Zt[a], Zt[b], out=Zt[row])

        def moments(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            m = Zt @ w
            m *= inv_n
            return m[:k], m[index]

        return Zt[:k].T, moments

    Xf = np.asfortranarray(X)
    Xft = Xf.T

    def moments(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (Xft @ w) * inv_n, ((Xft * w) @ Xf) * inv_n

    return Xf, moments


def _fit_core(
    xty: np.ndarray,
    X: np.ndarray,
    covariates: tuple[int, ...],
    log_fact: float,
    counts: np.ndarray | None = None,
) -> GlmFit:
    """Newton solver on pre-validated float arrays (hot path for learners).

    ``xty`` is X^T y, unscaled, over all rows of the regression; y enters
    the fit only through it and ``log_fact``, mean(log y!). ``counts``,
    when given, holds each row's multiplicity: every rate is
    counts * exp(lp), at the start point, at every trial point and in the
    moments, and the objective is scaled by 1 / sum(counts). With the
    distinct rows of a design and their multiplicities, the fit equals the
    one on the full rows up to rounding, for the price of the distinct rows
    (see :class:`PatternBuilder`).

    Each iteration takes X^T w and X^T W X at the current rates w from one
    call of the fit's moment map (see the module docstring), solves for the
    Newton step on the free coefficients and halves the step until the
    objective falls, at most MAX_HALVINGS times, unless the full step
    stalls: it is rejected although it promised a decrease within
    RESOLUTION, so the loop stops there, converged. The loop runs at most
    MAX_ITER iterations and converges on a gradient max-norm within TOL. A
    trial point moves the linear predictor along d = X step, clamped at
    LP_CAP inside exp, so it costs one pass over the rows for exp and the
    sum of the rates; only a trial that clamps a coefficient at -THETA_CAP
    (which then stays frozen) recomputes X theta. The moments of the
    accepted rates are kept: when the loop stops with no step taken since
    they were computed (convergence, or a failed line search), they give the
    reported Fisher information and the final gradient without another pass.
    """
    n, k = X.shape
    if k == 0:
        # Empty covariate set: rate exp(0)=1 for every row.
        return GlmFit(
            covariates=(),
            theta=np.zeros(0),
            fisher=np.zeros((0, 0)),
            nll=log_fact + 1.0,
            converged=True,
            iterations=0,
            diverged=np.zeros(0, dtype=bool),
        )

    inv_n = 1.0 / (n if counts is None else float(_sum(counts)))
    # At theta = 0 every linear predictor is 0, below LP_CAP.
    w = np.ones(n)
    if counts is not None:
        w *= counts
    current = float(_sum(w)) * inv_n + log_fact
    if not math.isfinite(current):
        raise InvalidData("objective non-finite at theta = 0")
    if k == 1:
        return _fit_single(
            xty, X[:, 0], covariates, log_fact, counts, inv_n, w, current
        )

    cap = LP_CAP
    floor = -THETA_CAP
    Xf, moments = _newton_moments(X, inv_n)
    Xty = xty * inv_n
    theta = np.zeros(k)
    lp = np.zeros(n)
    # Row buffers: the trial point's linear predictor and rates, and the
    # direction d. An accepted trial swaps buffers with the current point.
    lp_t, w_t, d = np.empty(n), np.empty(n), np.empty(n)
    diverged = np.zeros(k, dtype=bool)
    any_diverged = lp_capped = False
    converged = False
    fresh = False  # grad and H belong to the current w
    iterations = halvings = ridge_rescues = 0
    for _ in range(MAX_ITER):
        xw, H = moments(w)
        grad = xw - Xty
        fresh = True
        if any_diverged:
            free = np.flatnonzero(~diverged)
            if free.size == 0:
                converged = True
                break
            grad_free = grad[free]
            step_free, rescued = _solve_with_ridge(H[np.ix_(free, free)], grad_free)
            step = np.zeros(k)
            step[free] = step_free
        else:
            grad_free = grad
            step_free, rescued = _solve_with_ridge(H, grad)
            step = step_free
        ridge_rescues += rescued
        # Under separation the gradient vanishes while the Newton step stays
        # O(1) (curvature collapses as fast as the gradient), so a small
        # gradient alone cannot certify an interior optimum.
        if (
            max(map(abs, grad_free.tolist())) <= TOL
            and max(map(abs, step_free.tolist())) <= 1e-4
        ):
            converged = True
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
            capped = bool(_max(lp_t) > cap)
            np.exp(np.minimum(lp_t, cap, out=w_t) if capped else lp_t, out=w_t)
            if counts is not None:
                w_t *= counts
            value = (float(_sum(w_t)) * inv_n - float(trial @ Xty)) + log_fact
            if value < current and math.isfinite(value):
                theta, current = trial, value
                lp, lp_t = lp_t, lp
                w, w_t = w_t, w
                lp_capped |= capped
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
                scale = float(_sum(w)) * inv_n + abs(float(theta @ Xty)) + abs(log_fact)
                converged = 0.5 * float(grad_free @ step_free) <= RESOLUTION * scale
                if converged:
                    break
            step = step * 0.5
            d *= 0.5
            halvings += 1
        iterations += 1
        if not accepted:
            break

    if not fresh:
        xw, H = moments(w)
        grad = xw - Xty
    if not converged:
        free_grad = grad[~diverged]
        converged = free_grad.size == 0 or float(np.abs(free_grad).max()) <= TOL
    # Moment-map Hessians are exactly symmetric (see _newton_moments).
    return GlmFit(
        covariates=covariates,
        theta=theta,
        fisher=H if k <= MOMENT_MAX_K else (H + H.T) * 0.5,
        nll=current,
        converged=converged,
        iterations=iterations,
        diverged=diverged,
        lp_capped=lp_capped,
        halvings=halvings,
        ridge_rescues=ridge_rescues,
    )


def _fit_single(
    xty: np.ndarray,
    x: np.ndarray,
    covariates: tuple[int, ...],
    log_fact: float,
    counts: np.ndarray | None,
    inv_n: float,
    w: np.ndarray,
    current: float,
) -> GlmFit:
    """:func:`_fit_core` for one covariate, with scalars as Python floats.

    Starts from theta = 0 with rates ``w`` and objective ``current``; rows
    weigh ``counts`` (None: 1 each) and ``inv_n`` is one over their total.
    Each trial forms the linear predictor x * theta exactly and reads its
    maximum off the extremes of x. A stalled full step ends the loop as in
    :func:`_fit_core`. The 1x1 ridge cannot rescue a singular information,
    so no fit here counts a ridge rescue.
    """
    cap = LP_CAP
    floor = -THETA_CAP
    xty = float(xty[0]) * inv_n
    Zt = np.empty((2, x.size))
    Zt[0] = x
    np.multiply(x, x, out=Zt[1])
    x_hi, x_lo = float(_max(x)), float(np.minimum.reduce(x))
    w_t = np.empty_like(w)  # the trial rates; swapped with w on acceptance
    theta = 0.0
    diverged = lp_capped = False
    converged = False
    fresh = False  # g and h belong to the current w
    iterations = halvings = 0
    for _ in range(MAX_ITER):
        xw, h = (Zt @ w * inv_n).tolist()
        g = xw - xty
        fresh = True
        if diverged:
            converged = True
            break
        if h == 0.0 or not math.isfinite(h):
            # The 1x1 ridge, 1e-10 * h, cannot rescue h = 0 or non-finite h.
            raise SingularInformation("information matrix singular; ridge rescue impossible")
        step = g / h
        if abs(g) <= TOL and abs(step) <= 1e-4:
            converged = True
            break

        accepted = False
        for trial_index in range(MAX_HALVINGS + 1):
            trial = theta - step
            clamped = trial <= floor
            if clamped:
                trial = floor
            capped = trial * (x_hi if trial >= 0.0 else x_lo) > cap
            np.multiply(x, trial, out=w_t)
            np.exp(np.minimum(w_t, cap, out=w_t) if capped else w_t, out=w_t)
            if counts is not None:
                w_t *= counts
            value = (float(_sum(w_t)) * inv_n - trial * xty) + log_fact
            if value < current and math.isfinite(value):
                theta, current = trial, value
                w, w_t = w_t, w
                lp_capped |= capped
                diverged = clamped
                accepted = True
                fresh = False
                break
            if trial_index == 0:
                scale = float(_sum(w)) * inv_n + abs(theta * xty) + abs(log_fact)
                converged = 0.5 * g * g / h <= RESOLUTION * scale
                if converged:
                    break  # a stall, as in _fit_core
            step *= 0.5
            halvings += 1
        iterations += 1
        if not accepted:
            break

    if not fresh:
        xw, h = (Zt @ w * inv_n).tolist()
        g = xw - xty
    if not converged:
        converged = diverged or abs(g) <= TOL
    return GlmFit(
        covariates=covariates,
        theta=np.array([theta]),
        fisher=np.array([[h]]),
        nll=current,
        converged=converged,
        iterations=iterations,
        diverged=np.array([diverged]),
        lp_capped=lp_capped,
        halvings=halvings,
    )


def wald(fit: GlmFit, target: int, n: int, alpha: float) -> WaldTest:
    """Wald test of H0: theta_target = 0.

    z = sqrt(n) theta_hat / sqrt([J^-1]_tt); the null is rejected iff
    |z| strictly exceeds the two-sided normal quantile. A diverged
    coefficient never rejects: a -infinity MLE has unbounded variance and
    carries no finite evidence under the Wald construction.
    """
    _check_alpha(alpha)
    try:
        idx = fit.covariates.index(target)
    except ValueError:
        raise ValueError(f"covariate {target} not in fit ({fit.covariates})") from None
    if fit.diverged[idx]:
        return WaldTest(target=target, z=0.0, alpha=alpha, reject=False)
    k = len(fit.covariates)
    rhs = np.zeros(k)
    rhs[idx] = 1.0
    inv_col, _ = _solve_with_ridge(fit.fisher, rhs)
    return _wald_from_variance(fit, idx, n, alpha, float(inv_col[idx]))


def wald_all(fit: GlmFit, n: int, alpha: float) -> list[WaldTest | SingularInformation]:
    """:func:`wald` on every covariate of ``fit``, in covariate order.

    Every [J^-1]_tt comes from one solve against the identity, so the
    Fisher information is factorised once rather than once per covariate.
    Where :func:`wald` would raise SingularInformation for a covariate, the
    list holds the exception instead.
    """
    _check_alpha(alpha)
    variances: np.ndarray | SingularInformation | None = None
    if not fit.diverged.all():
        try:
            variances = np.diag(_solve_with_ridge(fit.fisher, np.eye(len(fit.covariates)))[0])
        except SingularInformation as exc:
            variances = exc
    tests: list[WaldTest | SingularInformation] = []
    for idx, target in enumerate(fit.covariates):
        if fit.diverged[idx]:
            tests.append(WaldTest(target=target, z=0.0, alpha=alpha, reject=False))
        elif isinstance(variances, SingularInformation):
            tests.append(variances)
        else:
            try:
                tests.append(_wald_from_variance(fit, idx, n, alpha, float(variances[idx])))
            except SingularInformation as exc:
                tests.append(exc)
    return tests


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")


def _wald_from_variance(fit: GlmFit, idx: int, n: int, alpha: float, var_tt: float) -> WaldTest:
    target = fit.covariates[idx]
    if not math.isfinite(var_tt) or var_tt <= 0.0:
        raise SingularInformation(
            f"non-positive variance estimate for covariate {target}"
        )
    z = math.sqrt(n) * float(fit.theta[idx]) / math.sqrt(var_tt)
    if alpha == 0.0:
        return WaldTest(target=target, z=z, alpha=alpha, reject=False)
    crit = -_STD_NORMAL.inv_cdf(alpha / 2.0)
    return WaldTest(target=target, z=z, alpha=alpha, reject=bool(abs(z) > crit))


def alpha_schedule(n: int, b: float) -> float:
    """Sample-size-driven significance level 2(1 - Phi(n^b)).

    Evaluated through erfc to keep full relative accuracy in the upper tail.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not 0.0 < b < 0.5:
        raise ValueError(f"exponent b must lie in (0, 0.5), got {b}")
    return math.erfc(float(n) ** b / math.sqrt(2.0))

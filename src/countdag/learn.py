"""Ordering-guided DAG structure learners for count data, and the one
node-fit engine of every learner.

Given the ordering, every learner comes down to Poisson regressions of a
node s on covariate sets K within pre(s), each with a free intercept: the
node-conditional model of the Poisson graphical models (Yang, Ravikumar,
Allen and Liu, JMLR 2015) has log E[x_s | x_K] = theta_s +
sum_{t in K} theta_{st|K} x_t, so theta_{st|K} = 0 states that x_s and x_t
are independent given x_{K - t}. The intercept theta_s is never tested.
:class:`NodeFitter` fits each (s, K) once over its data; OR-PPGM,
OR-LPGM and the score search in :mod:`countdag.scores` all fit through
it. A learner called alone makes its own, so it fits each (s, K) once per
call; a learner given one, as :func:`countdag.bench.run_replicate` gives
every learner of a replicate the same, reuses the fits that earlier
learners made on that data. The two learners here test single
coefficients with Wald conditional-independence tests: each takes z from
:func:`~countdag.glm.wald`, so a fit's tests share one solve of its
information, and one helper records it, rejecting iff |z| exceeds
:meth:`LearnConfig.critical_value`, resolved once per learner call:

* ``or_ppgm`` is PC-style and child-major: the tests of a child read and
  delete only its own parent set, so each child s in ordering position runs
  levels l = 0..m alone. At level l every remaining parent t, in ordering
  position, is tested given each l-subset S of the other remaining parents
  of s, and t -> s is deleted on the first non-rejected test of
  H0: theta_{st|K} = 0 with K = S + {t}. The child is done after level m,
  or when no remaining parent has l others to condition on. Level 0 tests
  every t -> s with t in pre(s) given nothing, so its regressions on one
  covariate are known in advance: they are fitted first, in one batch.
* ``or_lpgm`` fits each node once on all of its precedents and keeps the
  covariates whose coefficient test rejects.

Both are deterministic: conditioning subsets are enumerated in
lexicographic order over ascending node indices.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations
from statistics import NormalDist
from typing import Iterable

import numpy as np

from .data import CountMatrix
from .glm import (
    PATTERN_MIN_ROWS,
    FitTally,
    GlmFit,
    PatternBuilder,
    SingularInformation,
    _dual_bounds,
    _fit_core,
    _fit_pairs,
    wald,
)
from .graphs import Dag, GraphError, Ordering

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LearnConfig:
    """Shared learner configuration.

    Exactly one of ``alpha`` (fixed significance level) or ``alpha_b``
    (exponent for the schedule 2(1 - Phi(n^b))) must be given. ``m`` bounds
    the conditioning-set cardinality for or_ppgm; None means no prior
    knowledge, i.e. the maximum p-2 useful for the data at hand.
    """

    alpha: float | None = None
    alpha_b: float | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if (self.alpha is None) == (self.alpha_b is None):
            raise ValueError("exactly one of alpha / alpha_b must be set")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.alpha_b is not None and not 0.0 < self.alpha_b < 0.5:
            raise ValueError(f"alpha_b must be in (0, 0.5), got {self.alpha_b}")
        if self.m is not None and self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")

    def resolve_alpha(self, n: int) -> float:
        """The level reported for n rows; tests use :meth:`critical_value`."""
        if self.alpha is not None:
            return self.alpha
        return alpha_schedule(n, self.alpha_b)

    def critical_value(self, n: int) -> float:
        """z* for n rows, a Wald test rejecting iff |z| > z*: the two-sided
        normal quantile of alpha, or n^b, the quantile of the schedule's level."""
        if self.alpha is not None:
            return -NormalDist().inv_cdf(self.alpha / 2.0)
        return n ** self.alpha_b


def alpha_schedule(n: int, b: float) -> float:
    """Sample-size-driven significance level 2(1 - Phi(n^b)), evaluated
    through erfc for full relative accuracy in the upper tail. It underflows
    to 0.0 once n^b exceeds about 38.5, so the tests use its quantile n^b."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if not 0.0 < b < 0.5:
        raise ValueError(f"exponent b must lie in (0, 0.5), got {b}")
    return math.erfc(float(n) ** b / math.sqrt(2.0))


@dataclass
class EdgeTest:
    """Outcome of the last Wald test performed on an edge t -> s."""

    conditioning: tuple[int, ...]
    z: float
    rejected: bool


@dataclass
class LearnReport:
    """Diagnostics collected alongside the estimated graph; ``m`` is the
    conditioning-set bound OR-PPGM used, None for OR-LPGM."""

    alpha: float | None
    m: int | None = None
    tests_run: int = 0
    fits: FitTally = field(default_factory=FitTally)
    warnings: list[str] = field(default_factory=list)
    edge_tests: dict[tuple[int, int], EdgeTest] = field(default_factory=dict)

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        logger.warning(message)

    def as_json(self, labels: tuple[str, ...]) -> dict:
        """The report's entries in ``learn --report``, nodes named by
        ``labels``; a nan z is written as null."""
        out: dict = {"warnings": self.warnings, "alpha": self.alpha}
        if self.m is not None:
            out["m"] = self.m
        out["tests_run"] = self.tests_run
        out["fits"] = asdict(self.fits)
        out["edge_tests"] = [
            {
                "from": labels[t],
                "to": labels[s],
                "conditioning": [labels[u] for u in test.conditioning],
                "z": None if test.z != test.z else test.z,
                "rejected": test.rejected,
            }
            for (t, s), test in sorted(self.edge_tests.items())
        ]
        return out


def _check_inputs(data: CountMatrix, ordering: Ordering) -> None:
    """Every learner's input check; an edge (p >= 2) needs 2 rows or more."""
    if data.p != ordering.p:
        raise GraphError(
            f"data has {data.p} columns but ordering has {ordering.p} nodes"
        )
    if data.p >= 2 and data.n < 2:
        raise GraphError(f"need at least 2 observations, got {data.n}")


def _wald_report(data: CountMatrix, ordering: Ordering, cfg: LearnConfig) -> LearnReport:
    """The checked inputs' report for a Wald-test learner; its alpha is None
    when there is no edge to test (p <= 1)."""
    _check_inputs(data, ordering)
    return LearnReport(alpha=cfg.resolve_alpha(data.n) if data.p >= 2 else None)


class NodeFitter:
    """The one engine behind every learner: the Poisson regression of a node
    s on an ascending covariate tuple K, with a free intercept, fitted once
    over the fitter's data however many learners ask for it.

    A PatternBuilder over the validated data gives each fit its inputs for
    the pre-validated solver (X^T y, then the distinct covariate patterns
    with their multiplicities where that pays and the rows otherwise, then
    sum(x_s), the sufficient statistic of the intercept). A fit on one
    covariate always runs on the covariate's value table, in a batch of
    :func:`countdag.glm._fit_pairs` (see :meth:`fit_singles`), however it
    is asked for. A fit depends only on the data, s and K, so it is the
    same whichever learner asks first. Each fit is counted in the tally of
    the call that made it; a cache hit counts nowhere. A
    SingularInformation, such as that of a covariate constant over the rows
    and so collinear with the intercept, is cached like a fit, so a set is
    attempted once and every request for it raises.
    An all-zero x_s is no failure: its fit flags every coefficient
    diverged, so each test of it has z = 0.

    Regressions on one covariate may be asked for in bulk
    (:meth:`fit_singles`), which fits them in one vectorised batch; a
    request to :meth:`fit` for one that is not stored is a batch of one.
    OR-PPGM and PK2 each ask in bulk for every pair (s, t in pre(s))
    before their first child, OR-PPGM for its level 0 and PK2 for its
    first forward steps; then OR-PPGM asks child by child for levels
    1..m, OR-LPGM once per node, and the score searches per candidate
    parent set, so those single-covariate requests are cache hits.
    :meth:`made` only looks a fit up, and PK2 reads it twice: the fit of a
    child on all of its precedents, if an earlier learner made it, as the
    floor of every candidate's nll (see :func:`countdag.scores._nll_floor`),
    and, through :meth:`bounds`, the fit on a forward step's current
    parents, whose rates give every candidate of the step a dual lower
    bound on its nll (see :func:`countdag.glm._dual_bounds`).
    """

    def __init__(self, data: CountMatrix):
        if data.n < 1:  # every learner and node_score fit through here
            raise GraphError("need at least 1 observation, got 0")
        self.data = data
        self.n = data.n
        self._rows = PatternBuilder(data)
        self._store: dict[tuple[int, tuple[int, ...]], GlmFit | SingularInformation] = {}

    def fit(self, s: int, covariates: tuple[int, ...], tally: FitTally) -> GlmFit:
        """The fit of s on ``covariates``, which must be ascending; a fit
        made by this call is added to ``tally``. A fit on one covariate
        that is not stored is made by :meth:`fit_singles`, as a batch of one."""
        key = (s, covariates)
        if len(covariates) == 1 and key not in self._store:
            self.fit_singles([(s, covariates[0])], tally)
        found = self._store.get(key)
        if found is None:
            xty, X, counts = self._rows.design(s, covariates)
            try:
                # overwrite_x: the rows are a fresh gather, the patterns cached.
                found = _fit_core(
                    xty, X, covariates, self._rows.log_fact(s), counts, self._rows.total(s),
                    counts is None,
                )
                tally.add(found)
            except SingularInformation as exc:
                found = type(exc)(*exc.args)
            self._store[key] = found
        if isinstance(found, SingularInformation):
            # Store and raise copies: a raised exception's traceback holds
            # this frame, so a stored one would keep the fitter in a cycle.
            raise type(found)(*found.args)
        return found

    def fit_singles(self, pairs: Iterable[tuple[int, int]], tally: FitTally) -> None:
        """Fit s on (t,) for each (s, t) of ``pairs`` that is not stored yet,
        all in one batch (see :func:`countdag.glm._fit_pairs`), and store
        each fit, counted in ``tally``, or its SingularInformation, for
        :meth:`fit` to return or raise. Each member of a batch is fitted on
        its own, so its fit is bit for bit the same in any batch. The batch
        pays only when it is large: callers ask for all the pairs of a
        learner call that they will use, not child by child."""
        missing = [
            pair for pair in dict.fromkeys(pairs) if (pair[0], (pair[1],)) not in self._store
        ]
        if not missing:
            return
        for (s, t), found in zip(missing, _fit_pairs(self._rows, missing)):
            if isinstance(found, GlmFit):
                tally.add(found)
            self._store[(s, (t,))] = found

    def made(self, s: int, covariates: tuple[int, ...]) -> GlmFit | None:
        """The fit of s on ``covariates`` if this fitter has already made it,
        else None, as for a stored SingularInformation. It never fits and
        counts nothing."""
        found = self._store.get((s, covariates))
        return found if isinstance(found, GlmFit) else None

    def bounds(
        self, s: int, parents: tuple[int, ...], candidates: list[int]
    ) -> np.ndarray | None:
        """Lower bounds on the nll of s on ``parents`` plus each t of
        ``candidates`` (see :func:`countdag.glm._dual_bounds`), -inf where
        a candidate gets none, from the stored fit of s on ``parents`` and
        the float rows; it never fits and counts nothing. None when that
        fit is absent or has a diverged coefficient (as every fit of an
        all-zero s has, with a -inf intercept), and at n >= PATTERN_MIN_ROWS,
        where fits run on patterns and a pass over the rows costs more than
        the fits it could spare."""
        fit = self.made(s, parents)
        if self.n >= PATTERN_MIN_ROWS or fit is None or fit.diverged.any():
            return None
        rows = self._rows
        return _dual_bounds(
            rows.variables[list(parents)], rows.variables[candidates], fit.intercept,
            fit.theta, rows.cross(s)[[*parents, *candidates]], rows.total(s), rows.log_fact(s),
        )


def _node_fitter(data: CountMatrix, fitter: NodeFitter | None) -> NodeFitter:
    """``fitter``, which must fit ``data`` itself, or a new NodeFitter over it."""
    if fitter is None:
        return NodeFitter(data)
    if fitter.data is not data:
        raise ValueError("the fitter was made over other data")
    return fitter


def _wald_edge(
    fitter: NodeFitter, report: LearnReport, crit: float, t: int, s: int,
    conditioning: tuple[int, ...], where: str,
) -> bool:
    """Wald-test t -> s in the fit of s on K = conditioning + {t}: it rejects
    iff |z| > crit. Record the test in ``report`` and return whether it
    rejected. A singular information is a non-rejection with z nan, warned
    about at ``where`` (formatted with t, s and K)."""
    key = tuple(sorted(conditioning + (t,)))
    try:
        z = wald(fitter.fit(s, key, report.fits), t, fitter.n)
    except SingularInformation as exc:
        report.warn(
            f"{where.format(t=t, s=s, K=key)}: singular information "
            f"({exc}); treated as non-rejection"
        )
        z = float("nan")
    rejected = abs(z) > crit  # never for nan
    report.tests_run += 1
    report.edge_tests[(t, s)] = EdgeTest(conditioning, z, rejected)
    return rejected


def or_ppgm(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig, fitter: NodeFitter | None = None
) -> Dag:
    """PC-style learner over conditioning sets of growing cardinality;
    ``fitter``, if given, is a NodeFitter over ``data`` whose fits it reuses."""
    dag, _ = or_ppgm_detailed(data, ordering, cfg, fitter)
    return dag


def or_ppgm_detailed(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig, fitter: NodeFitter | None = None
) -> tuple[Dag, LearnReport]:
    report = _wald_report(data, ordering, cfg)
    # The largest conditioning set: cfg.m, at most p - 2 (a child's other parents).
    report.m = max(data.p - 2 if cfg.m is None else min(cfg.m, data.p - 2), 0)
    fitter, crit = _node_fitter(data, fitter), cfg.critical_value(data.n)
    # Level 0 tests every t -> s with t in pre(s): fit them all in one batch.
    fitter.fit_singles(
        ((s, t) for s in ordering.perm for t in ordering.precedents(s)), report.fits
    )
    edges = frozenset(
        (t, s)
        for s in ordering.perm
        for t in _ppgm_parents(fitter, report, crit, ordering, s, report.m)
    )
    return Dag(data.p, edges, data.labels), report


def _ppgm_parents(
    fitter: NodeFitter, report: LearnReport, crit: float, ordering: Ordering, s: int, m: int
) -> set[int]:
    """OR-PPGM's parents of s: starting from pre(s), test levels 0..m in
    turn until no target of s can be tested."""
    parents = set(ordering.precedents(s))
    for level in range(min(m + 1, len(parents))):
        for t in sorted(parents, key=ordering.position):
            if len(parents) <= level:
                break  # t has fewer than `level` other parents to condition on
            for subset in combinations(sorted(parents - {t}), level):
                if not _wald_edge(fitter, report, crit, t, s, subset, "edge {t}->{s} | K={K}"):
                    parents.discard(t)
                    break
    return parents


def or_lpgm(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig, fitter: NodeFitter | None = None
) -> Dag:
    """Single-pass learner: regress each node on all of its precedents;
    ``fitter``, if given, is a NodeFitter over ``data`` whose fits it reuses."""
    dag, _ = or_lpgm_detailed(data, ordering, cfg, fitter)
    return dag


def or_lpgm_detailed(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig, fitter: NodeFitter | None = None
) -> tuple[Dag, LearnReport]:
    report = _wald_report(data, ordering, cfg)
    n = data.n
    fitter, crit = _node_fitter(data, fitter), cfg.critical_value(n)
    edges = set()
    for s in ordering.perm:
        pre = ordering.precedents(s)
        if not pre:
            continue
        if n <= len(pre):
            report.warn(
                f"node {s}: regression on {len(pre)} precedents with only "
                f"{n} rows is rank-deficient"
            )
        try:
            fitter.fit(s, pre, report.fits)
        except SingularInformation as exc:
            report.warn(f"node {s}: fit failed ({exc}); all tests non-rejecting")
            continue
        for t in pre:
            others = tuple(u for u in pre if u != t)
            if _wald_edge(fitter, report, crit, t, s, others, "node {s}, covariate {t}"):
                edges.add((t, s))
    return Dag(data.p, frozenset(edges), data.labels), report

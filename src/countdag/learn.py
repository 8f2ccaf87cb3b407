"""Ordering-guided DAG structure learners for count data, and the one
node-fit engine of every learner.

Given the ordering, every learner comes down to Poisson regressions of a
node s on covariate sets K within pre(s). :class:`NodeFitter` fits each
(s, K) once per learner call; OR-PPGM, OR-LPGM and the score search in
:mod:`countdag.scores` all fit through it. The two learners here test
single coefficients with Wald conditional-independence tests:

* ``or_ppgm`` is PC-style and child-major: the tests of a child read and
  delete only its own parent set, so each child s in ordering position runs
  levels l = 0..m alone. At level l every remaining parent t, in ordering
  position, is tested given each l-subset S of the other remaining parents
  of s, and t -> s is deleted on the first non-rejected test of
  H0: theta_{st|K} = 0 with K = S + {t}. The child is done after level m,
  or when no remaining parent has l others to condition on.
* ``or_lpgm`` fits each node once on all of its precedents and keeps the
  covariates whose coefficient test rejects.

Both are deterministic: conditioning subsets are enumerated in
lexicographic order over ascending node indices.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations

from .data import CountMatrix
from .glm import (
    FitTally,
    GlmFit,
    PatternBuilder,
    SingularInformation,
    _fit_core,
    alpha_schedule,
    wald,
    wald_all,
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
        if self.m is not None and self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")

    def resolve_alpha(self, n: int) -> float:
        if self.alpha is not None:
            return self.alpha
        return alpha_schedule(n, self.alpha_b)


@dataclass
class EdgeTest:
    """Outcome of the last Wald test performed on an edge t -> s."""

    edge: tuple[int, int]
    conditioning: tuple[int, ...]
    z: float
    rejected: bool


@dataclass
class LearnReport:
    """Diagnostics collected alongside the estimated graph."""

    alpha: float
    tests_run: int = 0
    fits: FitTally = field(default_factory=FitTally)
    warnings: list[str] = field(default_factory=list)
    edge_tests: dict[tuple[int, int], EdgeTest] = field(default_factory=dict)

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        logger.warning(message)


def _check_inputs(data: CountMatrix, ordering: Ordering) -> None:
    if data.p != ordering.p:
        raise GraphError(
            f"data has {data.p} columns but ordering has {ordering.p} nodes"
        )


def _wald_report(data: CountMatrix, ordering: Ordering, cfg: LearnConfig) -> LearnReport:
    """The checked inputs' report for a Wald-test learner; its alpha is nan
    when there is no edge to test (p <= 1)."""
    _check_inputs(data, ordering)
    if data.p <= 1:
        return LearnReport(alpha=float("nan"))
    if data.n < 2:
        raise GraphError(f"need at least 2 observations, got {data.n}")
    return LearnReport(alpha=cfg.resolve_alpha(data.n))


class NodeFitter:
    """The one engine behind every learner: the Poisson regression of a node
    s on an ascending covariate tuple K, fitted once per learner call.

    A PatternBuilder over the validated data gives each fit its inputs for
    the pre-validated solver (X^T y, then the distinct covariate patterns
    with their multiplicities where that pays and the rows otherwise). Each
    fit is counted in ``tally``. A SingularInformation is cached like a
    fit, so a set is attempted once and every request for it raises.
    OR-PPGM asks child by child, levels 0..m within each child; OR-LPGM
    asks once per node; the score searches ask per candidate parent set.
    """

    def __init__(self, data: CountMatrix, tally: FitTally):
        self._rows = PatternBuilder(data)
        self._tally = tally
        self._store: dict[tuple[int, tuple[int, ...]], GlmFit | SingularInformation] = {}

    def fit(self, s: int, covariates: tuple[int, ...]) -> GlmFit:
        """The fit of s on ``covariates``, which must be ascending."""
        key = (s, covariates)
        found = self._store.get(key)
        if found is None:
            xty, X, counts = self._rows.design(s, covariates)
            try:
                found = _fit_core(xty, X, covariates, self._rows.log_fact(s), counts)
                self._tally.add(found)
            except SingularInformation as exc:
                found = exc
            self._store[key] = found
        if isinstance(found, SingularInformation):
            raise found.with_traceback(None)
        return found


def or_ppgm(data: CountMatrix, ordering: Ordering, cfg: LearnConfig) -> Dag:
    """PC-style learner over conditioning sets of growing cardinality."""
    dag, _ = or_ppgm_detailed(data, ordering, cfg)
    return dag


def or_ppgm_detailed(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig
) -> tuple[Dag, LearnReport]:
    report = _wald_report(data, ordering, cfg)
    m = ppgm_depth(cfg, data.p)
    fitter = NodeFitter(data, report.fits)
    edges = frozenset(
        (t, s)
        for s in ordering.perm
        for t in _ppgm_parents(fitter, report, data.n, ordering, s, m)
    )
    return Dag(data.p, edges, data.labels), report


def ppgm_depth(cfg: LearnConfig, p: int) -> int:
    """The largest conditioning-set size OR-PPGM tests on p variables:
    ``cfg.m``, at most p - 2 (a child's other parents) and at least 0."""
    return max(p - 2 if cfg.m is None else min(cfg.m, p - 2), 0)


def _ppgm_parents(
    fitter: NodeFitter, report: LearnReport, n: int, ordering: Ordering, s: int, m: int
) -> set[int]:
    """OR-PPGM's parents of s: starting from pre(s), test levels 0..m in
    turn until no target of s can be tested."""
    parents = set(ordering.precedents(s))
    for level in range(min(m + 1, len(parents))):
        for t in sorted(parents, key=ordering.position):
            if len(parents) <= level:
                break  # t has fewer than `level` other parents to condition on
            for subset in combinations(sorted(parents - {t}), level):
                key = tuple(sorted(subset + (t,)))
                try:
                    test = wald(fitter.fit(s, key), t, n, report.alpha)
                    z, rejected = test.z, test.reject
                except SingularInformation as exc:
                    report.warn(
                        f"edge {t}->{s} | K={key}: singular information "
                        f"({exc}); treated as non-rejection"
                    )
                    z, rejected = float("nan"), False
                report.tests_run += 1
                report.edge_tests[(t, s)] = EdgeTest((t, s), subset, z, rejected)
                if not rejected:
                    parents.discard(t)
                    break
    return parents


def or_lpgm(data: CountMatrix, ordering: Ordering, cfg: LearnConfig) -> Dag:
    """Single-pass learner: regress each node on all of its precedents."""
    dag, _ = or_lpgm_detailed(data, ordering, cfg)
    return dag


def or_lpgm_detailed(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig
) -> tuple[Dag, LearnReport]:
    report = _wald_report(data, ordering, cfg)
    n = data.n
    fitter = NodeFitter(data, report.fits)
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
            node_fit = fitter.fit(s, pre)
        except SingularInformation as exc:
            report.warn(f"node {s}: fit failed ({exc}); all tests non-rejecting")
            continue
        for t, test in zip(pre, wald_all(node_fit, n, report.alpha)):
            if isinstance(test, SingularInformation):
                report.warn(
                    f"node {s}, covariate {t}: singular information ({test}); "
                    "treated as non-rejection"
                )
                z, rejected = float("nan"), False
            else:
                z, rejected = test.z, test.reject
            report.tests_run += 1
            report.edge_tests[(t, s)] = EdgeTest(
                (t, s), tuple(u for u in pre if u != t), z, rejected
            )
            if rejected:
                edges.add((t, s))
    return Dag(data.p, frozenset(edges), data.labels), report

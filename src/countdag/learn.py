"""Ordering-guided DAG structure learners for count data.

Two learners share the same ingredients (Poisson node regressions and Wald
conditional-independence tests on single coefficients):

* ``or_ppgm`` walks conditioning sets of growing cardinality, PC-style,
  deleting an edge t -> s on the first non-rejected test of
  H0: theta_{st|K} = 0 with K = S + {t}, S drawn from the current parents
  of s.
* ``or_lpgm`` fits each node once on all of its precedents and keeps the
  covariates whose coefficient test rejects.

Both are deterministic: edges are visited sorted by (ord(s), ord(t)) and
conditioning subsets are enumerated in lexicographic order over ascending
node indices.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations

from .data import CountMatrix
from .glm import (
    FitOptions,
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
    fit_options: FitOptions = field(default_factory=FitOptions)

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


class _FitCache:
    """Per-run cache of node regressions keyed by (node, covariate tuple).

    The data come from a validated CountMatrix, so the fast pre-validated
    solver entry point applies. A PatternBuilder over the data gives each
    fit its inputs: X^T y, then the distinct covariate patterns with their
    multiplicities where that pays and the rows otherwise, and shares each
    node's cross products and log-factorial mean across its conditioning
    sets.
    """

    def __init__(self, data: CountMatrix, opts: FitOptions, report: LearnReport):
        self._rows = PatternBuilder(data)
        self._opts = opts
        self._report = report
        self._store: dict[tuple[int, tuple[int, ...]], GlmFit] = {}

    def fit(self, s: int, covariates: tuple[int, ...]) -> GlmFit:
        key = (s, covariates)
        cached = self._store.get(key)
        if cached is not None:
            return cached
        xty, X, counts = self._rows.design(s, covariates)
        result = _fit_core(xty, X, self._opts, covariates, self._rows.log_fact(s), counts)
        self._report.fits.add(result)
        self._store[key] = result
        return result


def or_ppgm(data: CountMatrix, ordering: Ordering, cfg: LearnConfig) -> Dag:
    """PC-style learner over conditioning sets of growing cardinality."""
    dag, _ = or_ppgm_detailed(data, ordering, cfg)
    return dag


def or_ppgm_detailed(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig
) -> tuple[Dag, LearnReport]:
    _check_inputs(data, ordering)
    p, n = data.p, data.n
    report = LearnReport(alpha=cfg.resolve_alpha(n) if p > 1 else float("nan"))
    if p <= 1:
        return Dag(p, frozenset(), data.labels), report
    if n < 2:
        raise GraphError(f"need at least 2 observations, got {n}")

    alpha = report.alpha
    m = cfg.m if cfg.m is not None else p - 2
    m = min(m, p - 2)
    cache = _FitCache(data, cfg.fit_options, report)

    # Parent sets of the working graph, indexed by child node.
    parents: list[set[int]] = [set() for _ in range(p)]
    for pos, s in enumerate(ordering.perm):
        parents[s].update(ordering.perm[:pos])

    level = 0
    while True:
        # Children in ordering position; a child's tests touch only its own
        # parent set.
        any_tested = False
        for s in ordering.perm:
            for t in sorted(parents[s], key=ordering.position):
                pool = parents[s] - {t}
                if len(pool) < level:
                    continue
                any_tested = True
                for subset in combinations(sorted(pool), level):
                    key = tuple(sorted(subset + (t,)))
                    try:
                        test = wald(cache.fit(s, key), t, n, alpha)
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
                        parents[s].discard(t)
                        break

        if level >= m or not any_tested:
            break
        level += 1

    edges = frozenset((t, s) for s in range(p) for t in parents[s])
    return Dag(p, edges, data.labels), report


def or_lpgm(data: CountMatrix, ordering: Ordering, cfg: LearnConfig) -> Dag:
    """Single-pass learner: regress each node on all of its precedents."""
    dag, _ = or_lpgm_detailed(data, ordering, cfg)
    return dag


def or_lpgm_detailed(
    data: CountMatrix, ordering: Ordering, cfg: LearnConfig
) -> tuple[Dag, LearnReport]:
    _check_inputs(data, ordering)
    p, n = data.p, data.n
    report = LearnReport(alpha=cfg.resolve_alpha(n) if p > 1 else float("nan"))
    if p <= 1:
        return Dag(p, frozenset(), data.labels), report
    if n < 2:
        raise GraphError(f"need at least 2 observations, got {n}")

    alpha = report.alpha
    cache = _FitCache(data, cfg.fit_options, report)

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
            node_fit = cache.fit(s, pre)
        except SingularInformation as exc:
            report.warn(f"node {s}: fit failed ({exc}); all tests non-rejecting")
            continue
        for t, test in zip(pre, wald_all(node_fit, n, alpha)):
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
    return Dag(p, frozenset(edges), data.labels), report

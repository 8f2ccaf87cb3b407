"""K2-style greedy DAG search scored by penalized Poisson likelihoods.

Each node is scored by 2 n nll(theta_hat) + penalty * |parents| with
penalty log(n) for BIC and 2 for AIC, where nll is that of the node's
Poisson regression on its parents with a free intercept (the learners'
node regression, see :mod:`countdag.learn`). Every parent set has the
intercept, so it would add the same penalty to each of a node's scores and
is not counted. The total score is the sum over nodes (lower is better),
and only a node's own term depends on its parents. So the search runs
child by child in ordering position: greedily add the precedent that
lowers the child's score most (forward), then delete the parent whose
removal lowers it most (backward). Every accepted move strictly decreases
the score, so the finite move budget ends the search.
Ties are broken toward the smallest node index.

PK2 prunes its forward phase twice, and neither changes its output:
only the fits it would have made, and the warnings of candidates that
fail, are spared. Both rest on one fact: a fitted nll is the objective at
a real point, so it is never below the model's minimum.

* *The floor* (:func:`_nll_floor`). The models of a child are nested: its
  fit on all of pre(s) has the least nll of any parent set, so
  2 n nll(pre(s)) + penalty * |P| bounds from below the score of every
  set of |P| parents (the bound of exact score-based search; de Campos
  and Ji, JMLR 2011). When the fitter already holds that fit, the forward
  phase ends, without fitting a candidate, at the first step the bound
  shows futile.
* *The dual bound* (:func:`countdag.glm._dual_bounds`). Before each
  forward step from a non-empty parent set P, one vectorised pass bounds
  every candidate's minimum nll from below by weak duality, from the
  stored fit on P and its rates: gap-safe screening (Fercoq, Gramfort and
  Salmon, ICML 2015), taken per candidate of an unpenalised fit. The step
  fits candidates in ascending (bound, t) order and skips the rest once a
  bound, less a margin for rounding, is above both the current score and
  the best so far: a skipped candidate's score is then strictly above the
  best, so it could neither win nor tie, and ties still go to the
  smallest t. The bound needs no optimality of P's fit, so a fit that ran
  off along a direction of recession leaves it valid. It runs only below
  :data:`~countdag.glm.PATTERN_MIN_ROWS` rows, where fits run on the rows
  (see :meth:`~countdag.learn.NodeFitter.bounds`). On Criterion 2's
  replicate 0 (p = 100, n = 500) it skips 98-99% of the bounded
  candidates; the first step, batched below, is never bounded.

The floor still pays where it applies: on table-1 data (p = 10, PKBIC
after OR-LPGM), dropping it made the same fits but doubled the bounded
steps (359 to 723) and took PK2 from 0.112 s to 0.149 s. The exhaustive
search uses neither: it is PK2's oracle, so it enumerates every set.

This module holds only the score arithmetic and the searches: every fit
goes through the learners' one engine, :class:`countdag.learn.NodeFitter`,
which fits each (node, parent set) once over its data, so a revisited set
costs no fit. PK2's first forward step scores each precedent of a child as
its lone parent, so before the child-by-child search PK2 asks in one
request (:meth:`~countdag.learn.NodeFitter.fit_singles`, one vectorised
batch) for the fit of every child on each of its precedents, the
regressions of OR-PPGM's level 0, unless ``max_parents`` is 0. The floor
is checked in the search alone, so a child whose first step it closes
still has its single-parent fits made. A search given the fitter of
earlier learners on the same data, as in a :mod:`countdag.bench`
replicate, also reuses their fits: its single-parent scores are
OR-PPGM's level-0 regressions, and OR-LPGM's regressions on all
precedents give its floors. So PK2 alone, or run before OR-LPGM, makes
more fits than PK2 after it, for the same output.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

from .data import CountMatrix
from .glm import TOL, FitTally, SingularInformation
# Unused here since every fit goes through learn.NodeFitter; kept because
# perfbench/tracing.py wraps this name and needs it to exist.
from .glm import _fit_core  # noqa: F401
from .graphs import Dag, GraphError, Ordering
from .learn import NodeFitter, _check_inputs, _node_fitter

logger = logging.getLogger(__name__)

CRITERIA = ("bic", "aic")


@dataclass(frozen=True)
class ScoreConfig:
    criterion: str = "bic"
    max_parents: int | None = None  # None: unrestricted (p - 1)

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if self.max_parents is not None and self.max_parents < 0:
            raise ValueError("max_parents must be >= 0")

    def penalty(self, n: int) -> float:
        return math.log(n) if self.criterion == "bic" else 2.0


@dataclass(frozen=True)
class NodeScore:
    node: int
    parents: tuple[int, ...]
    score: float


def node_score(
    data: CountMatrix, s: int, parents, cfg: ScoreConfig = ScoreConfig()
) -> NodeScore:
    """Penalized deviance-style score of node s given a candidate parent set.

    A fit that fails numerically scores +inf so the search never selects it.
    Node and parents must be distinct nodes of ``data``.
    """
    nodes = [s, *parents]
    if len(set(nodes)) < len(nodes) or not all(int(t) == t and 0 <= t < data.p for t in nodes):
        raise GraphError(f"node {s} and parents {nodes[1:]} must be distinct nodes of p={data.p}")
    report = ScoreReport(criterion=cfg.criterion)
    return _score(NodeFitter(data), report, data.n, int(s), map(int, nodes[1:]), cfg)


def _score(
    fitter: NodeFitter, report: ScoreReport, n: int, s: int, parents: Iterable[int],
    cfg: ScoreConfig,
) -> NodeScore:
    """Score of node s given ``parents``, from ``fitter``'s fit; ``report`` warns of a failure."""
    parents = tuple(sorted(parents))
    try:
        value = 2.0 * n * fitter.fit(s, parents, report.fits).nll + cfg.penalty(n) * len(parents)
    except SingularInformation as exc:
        report.warn(f"node {s} | parents {parents}: fit failed ({exc}); score +inf")
        value = math.inf
    return NodeScore(node=s, parents=parents, score=value)


@dataclass
class Screening:
    """PK2's forward candidates after the first step: those given a lower
    bound on their score, those of them skipped unfitted, and those given
    none, which are fitted (see :func:`_pk2_parents`)."""

    bounded: int = 0
    skipped: int = 0
    unbounded: int = 0


@dataclass
class ScoreReport:
    """Search trace: the accepted moves, child by child in ordering position,
    and the sum of the children's final scores."""

    criterion: str
    total_score: float = 0.0
    fits: FitTally = field(default_factory=FitTally)
    screening: Screening = field(default_factory=Screening)
    warnings: list[str] = field(default_factory=list)
    forward_moves: list[tuple[int, int, float]] = field(default_factory=list)
    backward_moves: list[tuple[int, int, float]] = field(default_factory=list)

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        logger.warning(message)

    def as_json(self, labels: tuple[str, ...]) -> dict:
        """The report's entries in ``learn --report``, nodes named by ``labels``."""
        def moves(found: list[tuple[int, int, float]]) -> list[dict]:
            return [
                {"from": labels[t], "to": labels[s], "score_delta": delta}
                for t, s, delta in found
            ]

        return {
            "warnings": self.warnings,
            "criterion": self.criterion,
            "total_score": self.total_score,
            "fits": asdict(self.fits),
            "screening": asdict(self.screening),
            "forward_moves": moves(self.forward_moves),
            "backward_moves": moves(self.backward_moves),
        }


def pk2(
    data: CountMatrix, ordering: Ordering, cfg: ScoreConfig = ScoreConfig(),
    fitter: NodeFitter | None = None,
) -> Dag:
    """Per child: forward parent addition, then backward pruning;
    ``fitter``, if given, is a NodeFitter over ``data`` whose fits it reuses."""
    dag, _ = pk2_detailed(data, ordering, cfg, fitter)
    return dag


def pk2_detailed(
    data: CountMatrix, ordering: Ordering, cfg: ScoreConfig = ScoreConfig(),
    fitter: NodeFitter | None = None,
) -> tuple[Dag, ScoreReport]:
    """:func:`pk2` with its search trace. Unless ``max_parents`` is 0, every
    pair (s, t in pre(s)) is fitted first in one batch, as OR-PPGM's level
    0 is, whether or not the floor leaves the first step of s open."""
    _check_inputs(data, ordering)
    report = ScoreReport(criterion=cfg.criterion)
    fitter = _node_fitter(data, fitter)
    n = data.n
    if cfg.max_parents != 0:
        fitter.fit_singles(
            ((s, t) for s in ordering.perm for t in ordering.precedents(s)), report.fits
        )
    edges = []
    for s in ordering.perm:
        final = _pk2_parents(fitter, report, n, ordering, s, cfg)
        report.total_score += final.score
        edges.extend((t, s) for t in final.parents)
    return Dag(data.p, frozenset(edges), data.labels), report


def _nll_floor(fitter: NodeFitter, s: int, pre: tuple[int, ...]) -> float:
    """A lower bound on the nll of s on any subset of ``pre``, from the fit
    on all of ``pre`` that ``fitter`` already holds, with that of s on no
    covariate; -inf if it holds no such fit (the floor never asks for one),
    only its SingularInformation, or a fit that did not converge or has a
    diverged coefficient, whose minimum lies beyond the frozen point.

    Each model on a subset of ``pre`` is nested in the full one, so its
    minimum, and so any nll computed for it, is at least the full model's
    minimum, less rounding. A converged fit's nll exceeds that minimum by
    about <g, J^-1 g> / 2 at its last point: at most k TOL 1e-4 / 2 when it
    ended on a gradient within TOL and a step within 1e-4, RESOLUTION times
    the objective's scale when it stalled (see :mod:`countdag.glm`), and
    k TOL^2 / (2 lambda), for J's least eigenvalue lambda, when it ended on
    its gradient after a failed line search. The margin TOL (scale + k)
    covers each, the last unless lambda is below about TOL / 2, together
    with the rounding of both nll values; 2 n times it is far below a
    penalty. The scale is the stall test's, ybar + |nll - c| + |c|, with c
    the nll and log(ybar) the intercept of the fit on no covariate.
    """
    full, null = fitter.made(s, pre), fitter.made(s, ())
    if full is None or null is None or not full.converged or full.diverged.any():
        return -math.inf
    scale = math.exp(null.intercept) + abs(full.nll - null.nll) + abs(null.nll)
    return full.nll - TOL * (scale + len(pre))


def _pk2_parents(
    fitter: NodeFitter, report: ScoreReport, n: int, ordering: Ordering, s: int,
    cfg: ScoreConfig,
) -> NodeScore:
    """PK2's final parent set of s with its score: the forward phase from no
    parent, then the backward phase from where it stopped.

    Before each forward step from |P| parents, the floor of the fitter's
    fit on all of pre(s), if it holds one (see :func:`_nll_floor`), bounds
    every candidate's score from below by floor + penalty * (|P| + 1),
    computed as a score is. When that is no lower than the current score,
    no candidate could be accepted, so the forward phase ends there without
    fitting one, and warns of none. A child gets a floor only from a fit
    that an earlier learner made on the same data, such as OR-LPGM's in a
    :mod:`countdag.bench` replicate; it is never fitted for the floor.
    Otherwise the step fits its candidates in the order of
    :func:`_forward_order` and stops at the first whose bound is above
    both the current score and the best so far (see the module docstring).
    """
    pre = ordering.precedents(s)
    max_parents = len(pre) if cfg.max_parents is None else cfg.max_parents
    current = _score(fitter, report, n, s, (), cfg)
    floor, penalty = 2.0 * n * _nll_floor(fitter, s, pre), cfg.penalty(n)
    while len(current.parents) < max_parents:
        if floor + penalty * (len(current.parents) + 1) >= current.score:
            break
        order = _forward_order(fitter, report, n, s, current, pre, cfg)
        best = added = None
        for at, (low, t) in enumerate(order):
            if low > (current.score if best is None else min(current.score, best.score)):
                report.screening.skipped += len(order) - at
                break
            trial = _score(fitter, report, n, s, current.parents + (t,), cfg)
            if best is None or (trial.score, t) < (best.score, added):
                best, added = trial, t
        if best is None or not best.score < current.score:
            break
        report.forward_moves.append((added, s, best.score - current.score))
        current = best

    while True:
        best_delta, best_move = 0.0, None
        for t in current.parents:  # ascending, so a tie keeps the smallest parent
            trial = _score(fitter, report, n, s, set(current.parents) - {t}, cfg)
            delta = trial.score - current.score
            if delta < best_delta:
                best_delta, best_move = delta, (t, trial)
        if best_move is None:
            return current
        t, current = best_move
        report.backward_moves.append((t, s, best_delta))


def _forward_order(
    fitter: NodeFitter, report: ScoreReport, n: int, s: int, current: NodeScore,
    pre: tuple[int, ...], cfg: ScoreConfig,
) -> list[tuple[float, int]]:
    """The candidates of PK2's forward step from ``current``, each with a
    lower bound on its score, in ascending (bound, t) order: -inf where it
    has none. The first step's candidates, batched by
    :meth:`~countdag.learn.NodeFitter.fit_singles`, get none and are not
    counted in ``report.screening``."""
    candidates = [t for t in pre if t not in current.parents]
    if not (current.parents and candidates):
        return [(-math.inf, t) for t in candidates]
    lows = fitter.bounds(s, current.parents, candidates)
    if lows is None:
        report.screening.unbounded += len(candidates)
        return [(-math.inf, t) for t in candidates]
    lows = 2.0 * n * lows + cfg.penalty(n) * (len(current.parents) + 1)
    bounded = int(np.isfinite(lows).sum())
    report.screening.bounded += bounded
    report.screening.unbounded += len(candidates) - bounded
    return sorted(zip(lows.tolist(), candidates))


def exhaustive_search(
    data: CountMatrix, ordering: Ordering, cfg: ScoreConfig = ScoreConfig()
) -> tuple[Dag, float]:
    """Exact minimum-score DAG: every ordering-consistent parent set of
    every node, by size and then in lexicographic order, scored through a
    new NodeFitter, the lowest kept (ties to the first). Exponential in p;
    a small-p oracle for PK2, so it shares none of PK2's pruning: no floor,
    no batched first step and no bound."""
    _check_inputs(data, ordering)
    report = ScoreReport(criterion=cfg.criterion)
    fitter = NodeFitter(data)
    edges: list[tuple[int, int]] = []
    total = 0.0
    for s in ordering.perm:
        pre = ordering.precedents(s)
        best = None
        for size in range(len(pre) + 1):
            for parents in combinations(pre, size):
                trial = _score(fitter, report, data.n, s, parents, cfg)
                if best is None or trial.score < best.score:
                    best = trial
        total += best.score
        edges.extend((t, s) for t in best.parents)
    return Dag(data.p, frozenset(edges), data.labels), total

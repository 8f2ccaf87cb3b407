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

The models of a child are nested: its fit on all of pre(s) has the least
nll of any parent set, so 2 n nll(pre(s)) + penalty * |P| bounds from
below the score of every set of |P| parents (the bound of exact
score-based search; de Campos and Ji, JMLR 2011). When the fitter already
holds that fit, the forward phase ends, without fitting a candidate, at
the first step the bound shows futile, and the exhaustive search stops
enumerating sizes there. No such step could have been accepted, so the
output is that of the full search; only the fits it would have made, and
the warning of a candidate that fails, are spared.

This module holds only the score arithmetic and the searches: every fit
goes through the learners' one engine, :class:`countdag.learn.NodeFitter`,
which fits each (node, parent set) once over its data, so a revisited set
costs no fit. PK2's first forward step scores each precedent of a child as
its lone parent, so before the child-by-child search PK2 asks in one
request (:meth:`~countdag.learn.NodeFitter.fit_singles`, one vectorised
batch) for those fits of every child whose first step the floor leaves
open; the exhaustive search asks likewise for its size-1 sets. A search
given the fitter of earlier learners on the same data, as in a
:mod:`countdag.bench` replicate, also reuses their fits: its
single-parent scores are OR-PPGM's level-0 regressions, and OR-LPGM's
regressions on all precedents give its floors. So PK2 alone, or run
before OR-LPGM, makes more fits than PK2 after it, for the same output.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Iterable

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
class ScoreReport:
    """Search trace: the accepted moves, child by child in ordering position,
    and the sum of the children's final scores."""

    criterion: str
    total_score: float = 0.0
    fits: FitTally = field(default_factory=FitTally)
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
    _check_inputs(data, ordering)
    report = ScoreReport(criterion=cfg.criterion)
    fitter = _node_fitter(data, fitter)
    n = data.n
    fitter.fit_singles(
        (
            (s, t)
            for s in ordering.perm
            if _first_step_open(fitter, report, n, ordering, s, cfg)
            for t in ordering.precedents(s)
        ),
        report.fits,
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


def _first_step_open(
    fitter: NodeFitter, report: ScoreReport, n: int, ordering: Ordering, s: int,
    cfg: ScoreConfig,
) -> bool:
    """Whether PK2's forward phase for s takes its first step, scoring every
    precedent as a lone parent: s has a precedent, ``max_parents`` allows
    one, and the floor does not close the step (see :func:`_pk2_parents`).
    It makes the fit of s on no covariate, as the search does first."""
    pre = ordering.precedents(s)
    current = _score(fitter, report, n, s, (), cfg)
    if not pre or cfg.max_parents == 0:
        return False
    return 2.0 * n * _nll_floor(fitter, s, pre) + cfg.penalty(n) < current.score


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
    """
    pre = ordering.precedents(s)
    max_parents = len(pre) if cfg.max_parents is None else cfg.max_parents
    current = _score(fitter, report, n, s, (), cfg)
    floor, penalty = 2.0 * n * _nll_floor(fitter, s, pre), cfg.penalty(n)
    while len(current.parents) < max_parents:
        if floor + penalty * (len(current.parents) + 1) >= current.score:
            break
        best = added = None
        for t in sorted(set(pre).difference(current.parents)):
            trial = _score(fitter, report, n, s, current.parents + (t,), cfg)
            if best is None or trial.score < best.score:
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


def exhaustive_search(
    data: CountMatrix, ordering: Ordering, cfg: ScoreConfig = ScoreConfig()
) -> tuple[Dag, float]:
    """Exact minimum-score DAG by enumerating every ordering-consistent
    parent set per node, by size. Exponential in p; intended as a small-p
    oracle. The fit on all precedents comes first, as PK2's floor (see
    :func:`_nll_floor`): sizes stop once no set of the next size can score
    below the best so far. The size-1 sets of every child that reaches them
    are fitted in one batch before the enumeration."""
    _check_inputs(data, ordering)
    report = ScoreReport(criterion=cfg.criterion)
    fitter = NodeFitter(data)
    penalty = cfg.penalty(data.n)
    edges: list[tuple[int, int]] = []
    total = 0.0
    starts = {}
    for s in ordering.perm:
        pre = ordering.precedents(s)
        best = _score(fitter, report, data.n, s, (), cfg)
        full = _score(fitter, report, data.n, s, pre, cfg)
        starts[s] = pre, best, full, 2.0 * data.n * _nll_floor(fitter, s, pre)
    # The size-1 sets of every child whose enumeration reaches them, in one
    # batch; a child with one precedent has only the fit on all of them.
    fitter.fit_singles(
        (
            (s, t)
            for s, (pre, best, _, floor) in starts.items()
            if len(pre) > 1 and floor + penalty < best.score
            for t in pre
        ),
        report.fits,
    )
    for s, (pre, best, full, floor) in starts.items():
        for size in range(1, len(pre) + 1):
            if floor + penalty * size >= best.score:
                break
            for parents in combinations(pre, size):
                if size < len(pre):
                    trial = _score(fitter, report, data.n, s, parents, cfg)
                else:
                    trial = full
                if trial.score < best.score:
                    best = trial
        total += best.score
        edges.extend((t, s) for t in best.parents)
    return Dag(data.p, frozenset(edges), data.labels), total

"""K2-style greedy DAG search scored by penalized Poisson likelihoods.

Each node is scored by 2 n nll(theta_hat) + penalty * |parents| with
penalty log(n) for BIC and 2 for AIC; the total score is the sum over
nodes (lower is better). The search runs a forward phase (greedily add
the single best parent per node, walking nodes in ordering position) and
a backward phase (greedily delete the globally best edge). Every accepted
move strictly decreases the total score, so termination is immediate from
the finite move budget. Ties are broken toward the smallest node index.

This module holds only the score arithmetic and the searches: every fit
goes through the learners' one engine, :class:`countdag.learn.NodeFitter`,
which fits each (node, parent set) once per search, so a revisited set
costs no fit.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .data import CountMatrix
from .glm import FitTally, SingularInformation
# Unused here since every fit goes through learn.NodeFitter; kept because
# perfbench/tracing.py wraps this name and needs it to exist.
from .glm import _fit_core  # noqa: F401
from .graphs import Dag, Ordering
from .learn import NodeFitter, _check_inputs

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
    """
    parents = [int(t) for t in parents]
    return _score(NodeFitter(data, FitTally()), data.n, s, parents, cfg)


def _score(
    fitter: NodeFitter, n: int, s: int, parents: Iterable[int], cfg: ScoreConfig
) -> NodeScore:
    """Score of node s given ``parents``, from ``fitter``'s fit."""
    parents = tuple(sorted(parents))
    try:
        value = 2.0 * n * fitter.fit(s, parents).nll + cfg.penalty(n) * len(parents)
    except SingularInformation as exc:
        logger.warning("node %d | parents %s: fit failed (%s); score +inf", s, parents, exc)
        value = math.inf
    return NodeScore(node=s, parents=parents, score=value)


@dataclass
class ScoreReport:
    """Search trace: per-node final scores and accepted moves."""

    criterion: str
    fits: FitTally = field(default_factory=FitTally)
    node_scores: dict[int, NodeScore] = field(default_factory=dict)
    forward_moves: list[tuple[int, int, float]] = field(default_factory=list)
    backward_moves: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def total_score(self) -> float:
        return sum(ns.score for ns in self.node_scores.values())


def pk2(data: CountMatrix, ordering: Ordering, cfg: ScoreConfig = ScoreConfig()) -> Dag:
    """Forward parent addition along the ordering, then backward pruning."""
    dag, _ = pk2_detailed(data, ordering, cfg)
    return dag


def pk2_detailed(
    data: CountMatrix, ordering: Ordering, cfg: ScoreConfig = ScoreConfig()
) -> tuple[Dag, ScoreReport]:
    _check_inputs(data, ordering)
    p = data.p
    report = ScoreReport(criterion=cfg.criterion)
    fitter = NodeFitter(data, report.fits)
    max_parents = cfg.max_parents if cfg.max_parents is not None else p - 1

    parent_sets: dict[int, frozenset[int]] = {}

    # Forward phase: per node, repeatedly add the single precedent whose
    # inclusion lowers the node score the most. Other nodes' scores are
    # unaffected, so per-node improvement equals total improvement.
    for s in ordering.perm:
        pre = set(ordering.precedents(s))
        current = _score(fitter, data.n, s, (), cfg)
        pa: frozenset[int] = frozenset()
        while len(pa) < max_parents:
            best: NodeScore | None = None
            for t in sorted(pre - pa):
                trial = _score(fitter, data.n, s, pa | {t}, cfg)
                if best is None or trial.score < best.score:
                    best = trial
            if best is None or not best.score < current.score:
                break
            added = (set(best.parents) - pa).pop()
            report.forward_moves.append((added, s, best.score - current.score))
            pa = frozenset(best.parents)
            current = best
        parent_sets[s] = pa
        report.node_scores[s] = current

    # Backward phase: repeatedly delete the single edge (anywhere in the
    # graph) whose removal most decreases the total score; only the child
    # node's score changes per deletion.
    while True:
        candidates = sorted((s, t) for s, pa in parent_sets.items() for t in pa)
        best_delta = 0.0
        best_move: tuple[int, int, NodeScore] | None = None
        for s, t in candidates:
            trial = _score(fitter, data.n, s, parent_sets[s] - {t}, cfg)
            delta = trial.score - report.node_scores[s].score
            if delta < best_delta:
                best_delta = delta
                best_move = (s, t, trial)
        if best_move is None:
            break
        s, t, trial = best_move
        parent_sets[s] = frozenset(trial.parents)
        report.node_scores[s] = trial
        report.backward_moves.append((t, s, best_delta))

    edges = frozenset((t, s) for s, pa in parent_sets.items() for t in pa)
    return Dag(p, edges, data.labels), report


def exhaustive_search(
    data: CountMatrix, ordering: Ordering, cfg: ScoreConfig = ScoreConfig()
) -> tuple[Dag, float]:
    """Exact minimum-score DAG by enumerating every ordering-consistent
    parent set per node. Exponential in p; intended as a small-p oracle."""
    _check_inputs(data, ordering)
    fitter = NodeFitter(data, FitTally())
    edges: list[tuple[int, int]] = []
    total = 0.0
    for s in ordering.perm:
        pre = ordering.precedents(s)
        best: NodeScore | None = None
        for size in range(len(pre) + 1):
            for parents in combinations(pre, size):
                trial = _score(fitter, data.n, s, parents, cfg)
                if best is None or trial.score < best.score:
                    best = trial
        assert best is not None
        total += best.score
        edges.extend((t, s) for t in best.parents)
    return Dag(data.p, frozenset(edges), data.labels), total

import math

import numpy as np
import pytest

from countdag.data import CountMatrix
from countdag.graphs import Dag, GraphError, Ordering, is_consistent
from countdag.learn import NodeFitter
from countdag.scores import (
    ScoreConfig,
    ScoreReport,
    _score,
    exhaustive_search,
    node_score,
    pk2,
    pk2_detailed,
)
from countdag.simulate import SimConfig, simulate
from .test_learners import sample_recursive

BIC = ScoreConfig("bic")
AIC = ScoreConfig("aic")


def _reference_pk2(data, ordering, cfg):
    """PK2 with a global backward phase: after every child's forward phase,
    repeatedly delete the one edge anywhere in the graph whose removal lowers
    the total score the most, ties to the smallest (child, parent)."""
    report = ScoreReport(criterion=cfg.criterion)
    fitter = NodeFitter(data)
    max_parents = cfg.max_parents if cfg.max_parents is not None else data.p - 1
    parent_sets, node_scores = {}, {}
    for s in ordering.perm:
        pre = set(ordering.precedents(s))
        current = _score(fitter, report, data.n, s, (), cfg)
        pa = frozenset()
        while len(pa) < max_parents:
            best = None
            for t in sorted(pre - pa):
                trial = _score(fitter, report, data.n, s, pa | {t}, cfg)
                if best is None or trial.score < best.score:
                    best = trial
            if best is None or not best.score < current.score:
                break
            added = (set(best.parents) - pa).pop()
            report.forward_moves.append((added, s, best.score - current.score))
            pa = frozenset(best.parents)
            current = best
        parent_sets[s] = pa
        node_scores[s] = current
    while True:
        best_delta, best_move = 0.0, None
        for s, t in sorted((s, t) for s, pa in parent_sets.items() for t in pa):
            trial = _score(fitter, report, data.n, s, parent_sets[s] - {t}, cfg)
            delta = trial.score - node_scores[s].score
            if delta < best_delta:
                best_delta, best_move = delta, (s, t, trial)
        if best_move is None:
            break
        s, t, trial = best_move
        parent_sets[s] = frozenset(trial.parents)
        node_scores[s] = trial
        report.backward_moves.append((t, s, best_delta))
    report.total_score = sum(ns.score for ns in node_scores.values())
    edges = frozenset((t, s) for s, pa in parent_sets.items() for t in pa)
    return Dag(data.p, edges, data.labels), report


class TestNodeScore:
    def test_penalty_gap_is_analytic(self):
        rng = np.random.default_rng(31)
        data = sample_recursive([(0, 1)], {(0, 1): 0.5}, 2, 400, rng)
        gap = (
            node_score(data, 1, {0}, BIC).score
            - node_score(data, 1, {0}, AIC).score
        )
        assert gap == pytest.approx(1 * (math.log(400) - 2), abs=1e-9)
        empty_gap = (
            node_score(data, 1, set(), BIC).score
            - node_score(data, 1, set(), AIC).score
        )
        assert empty_gap == pytest.approx(0.0, abs=1e-12)

    def test_null_prefers_empty_parent_set(self):
        wins = 0
        for seed in range(200):
            rng = np.random.default_rng(7_000 + seed)
            data = CountMatrix(rng.poisson(1.0, size=(500, 2)))
            empty = node_score(data, 1, set(), BIC).score
            with_parent = node_score(data, 1, {0}, BIC).score
            wins += empty < with_parent
        assert wins >= 190

    def test_strong_signal_prefers_parent(self):
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(8_000 + seed)
            data = sample_recursive([(0, 1)], {(0, 1): 0.5}, 2, 1000, rng)
            wins += node_score(data, 1, {0}, BIC).score < node_score(data, 1, set(), BIC).score
        assert wins == 50

    def test_zero_column_parent_scores_infinity(self):
        values = np.zeros((50, 2), dtype=np.int64)
        values[:, 1] = np.random.default_rng(1).poisson(1.0, size=50)
        assert node_score(CountMatrix(values), 1, {0}, BIC).score == math.inf


class TestPk2:
    def test_p1_empty(self):
        data = CountMatrix(np.zeros((10, 1), dtype=np.int64))
        assert pk2(data, Ordering((0,)), BIC).edge_count == 0

    def test_independent_columns_mostly_empty(self):
        empty = 0
        for seed in range(100):
            rng = np.random.default_rng(9_000 + seed)
            data = CountMatrix(rng.poisson(1.0, size=(1000, 5)))
            empty += pk2(data, Ordering(tuple(range(5))), BIC).edge_count == 0
        assert empty >= 90

    def test_chain_recovery_matches_exhaustive_oracle(self):
        exact, oracle_match = 0, 0
        for seed in range(50):
            rng = np.random.default_rng(10_000 + seed)
            sign = 1.0 if seed % 2 == 0 else -1.0
            weights = {(0, 1): 0.5 * sign, (1, 2): -0.5 * sign}
            data = sample_recursive(list(weights), weights, 3, 2000, rng)
            ordering = Ordering((0, 1, 2))
            dag, report = pk2_detailed(data, ordering, BIC)
            best_dag, best_total = exhaustive_search(data, ordering, BIC)
            exact += set(dag.edges) == set(weights)
            oracle_match += math.isclose(
                report.total_score, best_total, rel_tol=0, abs_tol=1e-6
            )
            # the exhaustive minimum is a lower bound for the greedy result
            assert best_total <= report.total_score + 1e-6
        assert exact >= 45
        assert oracle_match >= 45

    def test_every_move_strictly_decreases_score(self):
        rng = np.random.default_rng(33)
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        weights = {e: 0.35 for e in edges}
        data = sample_recursive(edges, weights, 4, 800, rng)
        _, report = pk2_detailed(data, Ordering((0, 1, 2, 3)), BIC)
        assert all(delta < 0 for _, _, delta in report.forward_moves)
        assert all(delta < 0 for _, _, delta in report.backward_moves)

    def test_output_consistent_and_deterministic(self):
        rng = np.random.default_rng(35)
        data = CountMatrix(rng.poisson(1.0, size=(300, 5)))
        ordering = Ordering((3, 1, 4, 0, 2))
        first = pk2(data, ordering, BIC)
        assert is_consistent(first, ordering)
        assert first == pk2(data, ordering, BIC)

    def test_max_parents_cap(self):
        rng = np.random.default_rng(37)
        edges = [(0, 3), (1, 3), (2, 3)]
        weights = {e: 0.5 for e in edges}
        data = sample_recursive(edges, weights, 4, 2000, rng)
        capped = pk2(data, Ordering((0, 1, 2, 3)), ScoreConfig("bic", max_parents=2))
        assert len(capped.parents(3)) <= 2

    def test_aic_keeps_at_least_as_many_edges_as_bic_on_average(self):
        bic_edges, aic_edges = [], []
        for seed in range(50):
            rng = np.random.default_rng(11_000 + seed)
            edges = [(0, 1), (1, 2), (0, 3)]
            weights = {(0, 1): 0.15, (1, 2): -0.12, (0, 3): 0.1}
            data = sample_recursive(edges, weights, 4, 400, rng)
            ordering = Ordering((0, 1, 2, 3))
            bic_edges.append(pk2(data, ordering, BIC).edge_count)
            aic_edges.append(pk2(data, ordering, AIC).edge_count)
        assert np.mean(aic_edges) >= np.mean(bic_edges)


class TestPerChildSearch:
    """The per-child backward phase deletes what a global one does: only the
    child's own score depends on its parents."""

    @pytest.mark.parametrize("p, seed, moves", [(60, 2, 6), (30, 9, 0), (30, 6, 2)])
    def test_matches_global_backward_phase(self, p, seed, moves):
        _, ordering, data = simulate(SimConfig("scale_free", p=p, n=300, seed=seed))
        dag, report = pk2_detailed(data, ordering, AIC)
        ref_dag, ref = _reference_pk2(data, ordering, AIC)
        assert dag == ref_dag
        assert report.total_score == ref.total_score
        assert report.forward_moves == ref.forward_moves
        assert len(report.backward_moves) == moves
        assert sorted(report.backward_moves) == sorted(ref.backward_moves)
        assert report.fits == ref.fits
        positions = [ordering.position(s) for _, s, _ in report.backward_moves]
        assert positions == sorted(positions)

    def test_fewer_than_two_rows_refused(self):
        data = CountMatrix(np.array([[1, 2, 3]]))
        ordering = Ordering((0, 1, 2))
        for search in (pk2_detailed, exhaustive_search):
            with pytest.raises(GraphError, match="need at least 2 observations, got 1"):
                search(data, ordering, BIC)
        one_column = CountMatrix(np.array([[1]]))
        assert pk2(one_column, Ordering((0,)), BIC).edge_count == 0


class TestScoreConfig:
    def test_rejects_unknown_criterion(self):
        with pytest.raises(ValueError):
            ScoreConfig("bayes")

    def test_penalties(self):
        assert BIC.penalty(100) == pytest.approx(math.log(100))
        assert AIC.penalty(100) == 2.0


class TestFitTally:
    def test_counts_every_uncached_fit(self, monkeypatch):
        from countdag import learn
        from countdag.glm import FitTally

        returned = []
        original = learn._fit_core

        def recording(*args):
            fit = original(*args)
            returned.append(fit)
            return fit

        monkeypatch.setattr(learn, "_fit_core", recording)
        rng = np.random.default_rng(8)
        x = rng.poisson(1.0, size=(300, 3))
        x[:, 2] = rng.poisson(np.exp(0.4 * x[:, 0]))
        _, report = pk2_detailed(CountMatrix(x), Ordering((0, 1, 2)))
        expected = FitTally()
        for fit in returned:
            expected.add(fit)
        assert report.fits == expected
        assert report.fits.fits == len(returned) > 0

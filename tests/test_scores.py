import math

import numpy as np
import pytest

from countdag.data import CountMatrix
from countdag.graphs import Ordering, is_consistent
from countdag.scores import (
    ScoreConfig,
    exhaustive_search,
    node_score,
    pk2,
    pk2_detailed,
)
from .test_learners import sample_recursive

BIC = ScoreConfig("bic")
AIC = ScoreConfig("aic")


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

import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from countdag import learn, scores
from countdag.data import CountMatrix
from countdag.glm import FitTally, SingularInformation
from countdag.graphs import Dag, GraphError, Ordering, is_consistent
from countdag.learn import LearnConfig, NodeFitter, or_lpgm
from countdag.scores import (
    ScoreConfig,
    ScoreReport,
    _nll_floor,
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


def _plain_exhaustive(data, ordering, cfg):
    """Every ordering-consistent parent set of every node, scored through
    a fresh NodeFitter, the lowest kept (ties to the first in size, then
    lexicographic order)."""
    report = ScoreReport(criterion=cfg.criterion)
    fitter = NodeFitter(data)
    edges, total = [], 0.0
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


def _lpgm_fitter(data, ordering):
    """A NodeFitter over ``data`` that holds OR-LPGM's fits, as in a bench replicate."""
    fitter = NodeFitter(data)
    or_lpgm(data, ordering, LearnConfig(alpha_b=0.15), fitter=fitter)
    return fitter


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

    @pytest.mark.parametrize(
        "s, parents",
        [(0, [-1]), (1, [1.5]), (0, [0]), (2, [1, 1]), (5, [0]), (1, [3])],
        ids=["negative", "fractional", "self", "repeated", "node-range", "parent-range"],
    )
    def test_rejects_what_is_no_parent_set(self, s, parents):
        # Before, -1 scored node p - 1, 1.5 was read as 1, self and repeated
        # parents gave finite scores, and node 5 raised a bare IndexError.
        data = CountMatrix(np.random.default_rng(2).poisson(1.0, size=(20, 3)))
        with pytest.raises(GraphError):
            node_score(data, s, parents, BIC)

    def test_numpy_indices_accepted(self):
        data = CountMatrix(np.random.default_rng(2).poisson(1.0, size=(20, 3)))
        expected = node_score(data, 2, {0, 1}, BIC)
        assert node_score(data, np.int64(2), np.array([1, 0]), BIC) == expected


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

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize(
        "search",
        [
            lambda data, ordering: pk2(data, ordering, BIC),
            lambda data, ordering: exhaustive_search(data, ordering, BIC),
            lambda data, ordering: node_score(data, 0, [], BIC),
            lambda data, ordering: learn.or_ppgm(data, ordering, LearnConfig(alpha_b=0.15)),
            lambda data, ordering: or_lpgm(data, ordering, LearnConfig(alpha_b=0.15)),
        ],
        ids=["pk2", "exhaustive_search", "node_score", "or_ppgm", "or_lpgm"],
    )
    def test_no_rows_refused(self, search, p):
        # Before, these raised ZeroDivisionError after numpy's "Mean of
        # empty slice" warning, or for p = 1 returned an empty graph.
        data = CountMatrix(np.zeros((0, p), dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match="need at least"):
                search(data, Ordering(tuple(range(p))))


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
        from countdag.glm import FitTally, GlmFit

        returned = []
        original, original_pairs = learn._fit_core, learn._fit_pairs

        def recording(*args):
            fit = original(*args)
            returned.append(fit)
            return fit

        def recording_pairs(*args):
            # The batch of PK2's first forward steps bypasses _fit_core.
            fits = original_pairs(*args)
            returned.extend(fit for fit in fits if isinstance(fit, GlmFit))
            return fits

        monkeypatch.setattr(learn, "_fit_core", recording)
        monkeypatch.setattr(learn, "_fit_pairs", recording_pairs)
        rng = np.random.default_rng(8)
        x = rng.poisson(1.0, size=(300, 3))
        x[:, 2] = rng.poisson(np.exp(0.4 * x[:, 0]))
        _, report = pk2_detailed(CountMatrix(x), Ordering((0, 1, 2)))
        expected = FitTally()
        for fit in returned:
            expected.add(fit)
        assert report.fits == expected
        assert report.fits.fits == len(returned) > 0


class TestFloor:
    """PK2 ends a forward phase without fitting a candidate once the fit on
    all precedents shows that no candidate can be accepted; the search's
    output is that of the search without the floor."""

    CASES = [
        (p, cfg)
        for p in (6, 10, 30)
        for cfg in (BIC, AIC, ScoreConfig("bic", max_parents=2), ScoreConfig("aic", max_parents=2))
    ]

    @pytest.mark.parametrize(
        "p, cfg", CASES, ids=[f"p{p}-{c.criterion}-{c.max_parents}" for p, c in CASES]
    )
    def test_same_search_with_fewer_fits(self, p, cfg):
        _, ordering, data = simulate(SimConfig("erdos_renyi", p=p, n=200, seed=p))
        fresh_dag, fresh = pk2_detailed(data, ordering, cfg)
        dag, report = pk2_detailed(data, ordering, cfg, _lpgm_fitter(data, ordering))
        assert dag == fresh_dag
        assert report.total_score == fresh.total_score
        assert report.forward_moves == fresh.forward_moves
        assert report.backward_moves == fresh.backward_moves
        assert report.fits.fits < fresh.fits.fits

    def test_no_candidate_fitted_past_its_floor(self, monkeypatch):
        """On independent columns: after each child's forward moves, no
        candidate of the next size is fitted when the floor excludes it."""
        rng = np.random.default_rng(71)
        data = CountMatrix(rng.poisson(1.5, size=(300, 8)))
        ordering = Ordering((2, 0, 5, 7, 1, 3, 6, 4))
        fitter = _lpgm_fitter(data, ordering)
        made, real_fit, real_singles = [], NodeFitter.fit, NodeFitter.fit_singles

        def fit(self, s, covariates, tally):
            if self.made(s, covariates) is None:
                made.append((s, covariates))
            return real_fit(self, s, covariates, tally)

        def fit_singles(self, pairs, tally):
            pairs = list(dict.fromkeys(pairs))
            made.extend((s, (t,)) for s, t in pairs if self.made(s, (t,)) is None)
            return real_singles(self, pairs, tally)

        monkeypatch.setattr(NodeFitter, "fit", fit)
        monkeypatch.setattr(NodeFitter, "fit_singles", fit_singles)
        _, report = pk2_detailed(data, ordering, BIC, fitter)
        assert report.fits.fits == len(made)
        penalty, excluded = BIC.penalty(data.n), 0
        for s in ordering.perm:
            added = tuple(sorted(t for t, c, _ in report.forward_moves if c == s))
            current = _score(fitter, ScoreReport("bic"), data.n, s, added, BIC)
            floor = 2.0 * data.n * _nll_floor(fitter, s, ordering.precedents(s))
            if floor + penalty * (len(added) + 1) >= current.score:
                excluded += 1
                assert not [K for c, K in made if c == s and len(K) > len(added)]
        assert excluded >= 6

    @pytest.mark.parametrize("spoil", ["absent", "singular", "diverged", "nonconverged"])
    def test_no_floor_from_an_unusable_fit(self, spoil, monkeypatch):
        """A stored fit on all precedents gives no floor when it is missing, a
        SingularInformation, has a diverged coefficient or did not converge:
        PK2 then makes the fits it makes without a floor."""
        rng = np.random.default_rng(5)
        edges = [(0, 2), (1, 3), (2, 4)]
        values = sample_recursive(edges, {e: 0.4 for e in edges}, 6, 300, rng).values.copy()
        ordering = Ordering((5, 0, 1, 2, 3, 4))
        if spoil == "singular":
            values[:, 5] = 2  # constant, so collinear with the intercept
        data = CountMatrix(values)
        children = [s for s in ordering.perm if ordering.precedents(s)]

        def prepared():
            fitter = NodeFitter(data)
            for s in ordering.perm:
                _score(fitter, ScoreReport("bic"), data.n, s, (), BIC)
                pre = ordering.precedents(s)
                if spoil == "absent" or not pre:
                    continue
                try:
                    fit = fitter.fit(s, pre, FitTally())
                except SingularInformation:
                    continue
                if spoil == "diverged":
                    fit.diverged = fit.diverged.copy()
                    fit.diverged[-1] = True
                elif spoil == "nonconverged":
                    fit.converged = False
            return fitter

        fitter = prepared()
        assert all(_nll_floor(fitter, s, ordering.precedents(s)) == -math.inf for s in children)
        if spoil == "singular":
            assert all(fitter.made(s, ordering.precedents(s)) is None for s in children)
        dag, report = pk2_detailed(data, ordering, BIC, fitter)
        monkeypatch.setattr(scores, "_nll_floor", lambda *args: -math.inf)
        ref_dag, ref = pk2_detailed(data, ordering, BIC, prepared())
        assert dag == ref_dag
        assert report == ref

    @pytest.mark.parametrize("cfg", [BIC, AIC], ids=["bic", "aic"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exhaustive_search_matches_plain_enumeration(self, cfg, seed, monkeypatch):
        _, ordering, data = simulate(SimConfig("scale_free", p=6, n=150, seed=seed))
        calls, real_core, real_pairs = [], learn._fit_core, learn._fit_pairs

        def fit_core(*args):
            calls.append(args[2])
            return real_core(*args)

        def fit_pairs(builder, pairs):
            calls.extend((t,) for _, t in pairs)
            return real_pairs(builder, pairs)

        monkeypatch.setattr(learn, "_fit_core", fit_core)
        monkeypatch.setattr(learn, "_fit_pairs", fit_pairs)
        dag, total = exhaustive_search(data, ordering, cfg)
        fits = len(calls)
        ref_dag, ref_total = _plain_exhaustive(data, ordering, cfg)
        assert dag == ref_dag
        assert total == ref_total
        assert fits < len(calls) - fits

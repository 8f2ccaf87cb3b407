import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countdag import glm, learn, scores
from countdag.data import CountMatrix
from countdag.glm import PATTERN_MIN_ROWS, FitTally, SingularInformation
from countdag.graphs import Dag, GraphError, Ordering, is_consistent
from countdag.learn import LearnConfig, NodeFitter, or_lpgm
from countdag.scores import (
    ScoreConfig,
    ScoreReport,
    Screening,
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


def _lpgm_fitter(data, ordering):
    """A NodeFitter over ``data`` that holds OR-LPGM's fits, as in a bench replicate."""
    fitter = NodeFitter(data)
    or_lpgm(data, ordering, LearnConfig(alpha_b=0.15), fitter=fitter)
    return fitter


def _without_bounds(monkeypatch):
    """PK2 from here on gives no forward candidate a bound, so fits them all."""
    monkeypatch.setattr(NodeFitter, "bounds", lambda self, s, parents, candidates: None)


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
    def test_matches_global_backward_phase(self, p, seed, moves, monkeypatch):
        _, ordering, data = simulate(SimConfig("scale_free", p=p, n=300, seed=seed))
        dag, report = pk2_detailed(data, ordering, AIC)
        ref_dag, ref = _reference_pk2(data, ordering, AIC)
        assert dag == ref_dag
        assert report.total_score == ref.total_score
        assert report.forward_moves == ref.forward_moves
        assert len(report.backward_moves) == moves
        assert sorted(report.backward_moves) == sorted(ref.backward_moves)
        positions = [ordering.position(s) for _, s, _ in report.backward_moves]
        assert positions == sorted(positions)
        # The reference fits every forward candidate, as PK2 does without its bound.
        assert report.fits.fits < ref.fits.fits
        _without_bounds(monkeypatch)
        assert pk2_detailed(data, ordering, AIC)[1].fits == ref.fits

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
            # Single-covariate fits go through _fit_pairs, not _fit_core.
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
        candidate of the next size is fitted when the floor excludes it,
        from the second forward step on (the first step's candidates are
        fitted in one batch before the search). No candidate gets a dual
        bound, so only the floor can spare a fit."""
        _without_bounds(monkeypatch)
        rng = np.random.default_rng(71)
        data = CountMatrix(rng.poisson(1.5, size=(300, 8)))
        ordering = Ordering((2, 0, 5, 7, 1, 3, 6, 4))
        fitter = _lpgm_fitter(data, ordering)
        made, real_fit, real_singles = [], NodeFitter.fit, NodeFitter.fit_singles

        def fit(self, s, covariates, tally):
            # A fit on one covariate is made by fit_singles, which records it.
            if len(covariates) != 1 and self.made(s, covariates) is None:
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
        penalty, excluded, past_first = BIC.penalty(data.n), 0, 0
        for s in ordering.perm:
            added = tuple(sorted(t for t, c, _ in report.forward_moves if c == s))
            current = _score(fitter, ScoreReport("bic"), data.n, s, added, BIC)
            floor = 2.0 * data.n * _nll_floor(fitter, s, ordering.precedents(s))
            if floor + penalty * (len(added) + 1) >= current.score:
                excluded += 1
                past_first += bool(added)
                assert not [K for c, K in made if c == s and len(K) > max(len(added), 1)]
        assert excluded >= 6 and past_first >= 1

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
        """The oracle fits every ordering-consistent parent set once, in one
        fit each (no batch, no floor), and keeps each node's minimum, as
        node_score gives it."""
        _, ordering, data = simulate(SimConfig("scale_free", p=6, n=150, seed=seed))
        calls, batches = [], []
        real_core, real_pairs = learn._fit_core, learn._fit_pairs

        def fit_core(*args):
            calls.append(args[2])
            return real_core(*args)

        def fit_pairs(builder, pairs):
            batches.append(len(pairs))
            calls.extend((t,) for _, t in pairs)
            return real_pairs(builder, pairs)

        monkeypatch.setattr(learn, "_fit_core", fit_core)
        monkeypatch.setattr(learn, "_fit_pairs", fit_pairs)
        dag, total = exhaustive_search(data, ordering, cfg)
        sets = [
            (s, parents)
            for s in ordering.perm
            for size in range(len(ordering.precedents(s)) + 1)
            for parents in combinations(ordering.precedents(s), size)
        ]
        assert sorted(calls) == sorted(parents for _, parents in sets)
        assert set(batches) == {1}
        monkeypatch.undo()
        edges, expected = [], 0.0
        for s in ordering.perm:
            best = min(
                (node_score(data, s, parents, cfg) for c, parents in sets if c == s),
                key=lambda found: found.score,
            )
            expected += best.score
            edges.extend((t, s) for t in best.parents)
        assert set(dag.edges) == set(edges)
        assert total == expected


#: Column kinds of the bound's property test, each drawn beside a response y
#: and its one parent u: a Poisson column, one that is 85% zeros, a copy or
#: an affine image (2 x + 1) of an earlier column, a constant, and one that
#: is positive only where y = 0 (a coefficient without a finite MLE).
KINDS = ("poisson", "zero_heavy", "duplicate", "affine", "constant", "separated")


def _bound_problem(seed, n, kinds):
    """Counts over y, u and one column of each of ``kinds``, and the columns
    that lie in the span of the ones and u (so collinear with PK2's design
    on them)."""
    rng = np.random.default_rng(seed)
    u = rng.poisson(1.5, n)
    y = rng.poisson(np.exp(0.4 * u - 0.3))
    columns, spanned = [y, u], {1}
    for kind in kinds:
        source = int(rng.integers(0, len(columns)))
        if kind == "poisson":
            column = rng.poisson(rng.uniform(0.3, 3.0), n)
        elif kind == "zero_heavy":
            column = np.where(rng.random(n) < 0.85, 0, rng.poisson(2.0, n))
        elif kind in ("duplicate", "affine"):
            column = columns[source] * (1 if kind == "duplicate" else 2) + (kind == "affine")
            if source in spanned:
                spanned.add(len(columns))
        elif kind == "constant":
            column = np.full(n, int(rng.integers(0, 4)))
            spanned.add(len(columns))
        else:
            column = np.where(y == 0, rng.integers(1, 4, n), 0)
        columns.append(column)
    return CountMatrix(np.column_stack(columns)), spanned


class TestBound:
    """PK2 skips a forward candidate whose dual bound (glm._dual_bounds)
    shows that it cannot score below the step's best; the search is that of
    PK2 without the bound."""

    CASES = [
        (p, cfg, prior)
        for p in (6, 10, 30)
        for cfg in (BIC, AIC, ScoreConfig("bic", max_parents=2), ScoreConfig("aic", max_parents=2))
        for prior in ("fresh", "lpgm")
    ]

    @pytest.mark.parametrize(
        "p, cfg, prior", CASES,
        ids=[f"p{p}-{c.criterion}-{c.max_parents}-{prior}" for p, c, prior in CASES],
    )
    def test_same_search_with_fewer_fits(self, p, cfg, prior, monkeypatch):
        _, ordering, data = simulate(SimConfig("erdos_renyi", p=p, n=200, seed=p))

        def fitter():
            return NodeFitter(data) if prior == "fresh" else _lpgm_fitter(data, ordering)

        dag, report = pk2_detailed(data, ordering, cfg, fitter())
        _without_bounds(monkeypatch)
        ref_dag, ref = pk2_detailed(data, ordering, cfg, fitter())
        assert dag == ref_dag
        assert report.total_score == ref.total_score
        assert report.forward_moves == ref.forward_moves
        assert report.backward_moves == ref.backward_moves
        assert report.fits.fits < ref.fits.fits
        # The same steps, so the same candidates, each bounded or not.
        considered = report.screening.bounded + report.screening.unbounded
        assert ref.screening == Screening(unbounded=considered)
        assert 0 < report.screening.skipped <= report.screening.bounded

    def test_counts_on_a_small_case(self, monkeypatch):
        """Children 1 and 2 take no parent and 3 takes 0 alone, so the one step
        after a first step is 3's from {0}, whose candidates 1 and 2 are
        bounded and skipped."""
        rng = np.random.default_rng(3)
        x = rng.poisson(1.0, size=(400, 4))
        x[:, 3] = rng.poisson(np.exp(0.7 * x[:, 0] - 0.5))
        data, ordering = CountMatrix(x), Ordering((0, 1, 2, 3))
        dag, report = pk2_detailed(data, ordering, BIC)
        assert dag.edges == {(0, 3)}
        assert report.screening == Screening(bounded=2, skipped=2)
        # Four fits on no parent and six on one; the sets {0, 1} and {0, 2}
        # are never fitted.
        assert report.fits.fits == 10
        assert report.as_json(("a", "b", "c", "d"))["screening"] == {
            "bounded": 2, "skipped": 2, "unbounded": 0,
        }
        _without_bounds(monkeypatch)
        _, ref = pk2_detailed(data, ordering, BIC)
        assert ref.fits.fits == 12
        assert ref.screening == Screening(unbounded=2)

    def test_step_with_no_candidate_left(self, monkeypatch):
        """With max_parents above |pre(s)| and no floor, a step starts once
        every precedent is a parent; it has no candidate to bound and ends."""
        monkeypatch.setattr(scores, "_nll_floor", lambda *args: -math.inf)
        rng = np.random.default_rng(1)
        x = rng.poisson(1.0, size=(300, 2))
        x[:, 1] = rng.poisson(np.exp(0.8 * x[:, 0]))
        dag, report = pk2_detailed(
            CountMatrix(x), Ordering((0, 1)), ScoreConfig("bic", max_parents=3)
        )
        assert dag.edges == {(0, 1)}
        assert report.screening == Screening()

    @pytest.mark.parametrize("patched", [False, True], ids=["bounds", "larger-t-first"])
    def test_exact_tie_goes_to_the_smaller_index(self, patched, monkeypatch):
        """Columns 1 and 2 are equal, so s on {0, 1} and on {0, 2} fit bit for
        bit alike: the step from {0} must add 1, whichever it fits first.
        Patched, each bound is lowered by 10 t (still a lower bound), so 2
        comes first."""
        rng = np.random.default_rng(11)
        x = rng.poisson(1.0, size=(300, 4))
        x[:, 2] = x[:, 1]
        x[:, 3] = rng.poisson(np.exp(0.8 * x[:, 0] + 0.4 * x[:, 1] - 1.0))
        data, ordering = CountMatrix(x), Ordering((0, 1, 2, 3))
        fitter = NodeFitter(data)
        assert fitter.fit(3, (0, 1), FitTally()).nll == fitter.fit(3, (0, 2), FitTally()).nll
        if patched:
            real = NodeFitter.bounds

            def bounds(self, s, parents, candidates):
                found = real(self, s, parents, candidates)
                return None if found is None else found - 10.0 * np.array(candidates)

            monkeypatch.setattr(NodeFitter, "bounds", bounds)
        dag, report = pk2_detailed(data, ordering, BIC, NodeFitter(data))
        assert [(t, s) for t, s, _ in report.forward_moves if s == 3] == [(0, 3), (1, 3)]
        assert dag.parents(3) == (0, 1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 80),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=5),
        parents=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_above_the_fitted_nll(self, seed, n, kinds, parents):
        """Every bound is at most the nll its candidate's fit reports, and a
        candidate collinear with the parents' design gets none."""
        data, spanned = _bound_problem(seed, n, kinds)
        parents = tuple(range(1, min(parents, data.p - 2) + 1))
        candidates = list(range(len(parents) + 1, data.p))
        fitter = NodeFitter(data)
        try:
            fit = fitter.fit(0, parents, FitTally())
        except SingularInformation:
            assert fitter.bounds(0, parents, candidates) is None
            return
        bounds = fitter.bounds(0, parents, candidates)
        if fit.intercept == -math.inf or fit.diverged.any():
            assert bounds is None
            return
        assert bounds.shape == (len(candidates),)
        for t, bound in zip(candidates, bounds.tolist()):
            if t in spanned:  # collinear with the ones and u, so with the parents
                assert bound == -math.inf
            try:
                fitted = fitter.fit(0, parents + (t,), FitTally()).nll
            except SingularInformation:
                continue
            assert bound <= fitted

    @pytest.mark.parametrize(
        "seed, n, kinds, parents",
        [
            (12, 12, ["affine", "affine", "duplicate"], (1, 2, 3)),
            (1_219_100_662, 4, ["poisson", "affine"], (1,)),
        ],
        ids=["collinear-parents", "runaway-fit"],
    )
    def test_no_bound_when_the_parents_design_is_collinear(self, seed, n, kinds, parents):
        """No candidate gets a bound when the parents' weighted design is
        collinear at rounding: the parents 1 and 2 = 2 u + 1 (whose fit
        needed the ridge), or u under a fit run off so far (theta 36) that
        its rates leave u nearly constant. In the first, a bound taken from
        that solve exceeded the candidate's fitted nll."""
        data, _ = _bound_problem(seed, n, kinds)
        fitter = NodeFitter(data)
        fitter.fit(0, parents, FitTally())
        bounds = fitter.bounds(0, parents, list(range(len(parents) + 1, data.p)))
        assert (bounds == -math.inf).all()

    @pytest.mark.parametrize("seed", range(12))
    def test_margin_covers_an_exact_bound(self, seed):
        """Every row appears twice, once at each level of the candidate t, so
        t adds nothing: its minimum is the parents' and the bound meets it
        but for rounding, which the margin covers (about a third of these
        bounds would exceed the fitted nll by an ulp without it)."""
        rng = np.random.default_rng(seed)
        half = int(rng.integers(10, 200))
        u = rng.poisson(1.5, half)
        y = rng.poisson(np.exp(0.3 * u))
        level = int(rng.integers(1, 4))
        values = np.column_stack([np.tile(y, 2), np.tile(u, 2), np.repeat([0, level], half)])
        fitter = NodeFitter(CountMatrix(values))
        fitter.fit(0, (1,), FitTally())
        (bound,) = fitter.bounds(0, (1,), [2]).tolist()
        fitted = fitter.fit(0, (1, 2), FitTally()).nll
        assert fitted - 1e-9 < bound <= fitted

    def test_matches_the_full_newton_system(self):
        """The Schur-complement pass gives each candidate the bound of the
        (k + 2)-column Newton system solved alone, and none to a separated
        candidate, whose step makes a rate negative."""
        rng = np.random.default_rng(4)
        n = 120
        X = rng.poisson(1.2, size=(n, 4)).astype(float)
        y = rng.poisson(np.exp(0.3 * X[:, 0] - 0.2 * X[:, 1])).astype(float)
        X[:, 3] = np.where(y == 0, rng.integers(1, 4, n), 0)
        data = CountMatrix(np.column_stack([y, X]).astype(np.int64))
        fitter = NodeFitter(data)
        fit = fitter.fit(0, (1, 2), FitTally())
        bounds = fitter.bounds(0, (1, 2), [3, 4]).tolist()
        log_fact = float(np.mean(glm._log_factorial(y)))
        for t, bound in zip((3, 4), bounds):
            Z = np.column_stack([np.ones(n), X[:, :2], X[:, t - 1]])
            m = np.exp(fit.intercept + X[:, :2] @ fit.theta)
            c = np.linalg.solve(Z.T @ (Z * m[:, None]), Z.T @ (y - m))
            ratio = 1.0 + Z @ c
            if t == 4:
                assert ratio.min() < 0.0 and bound == -math.inf
                continue
            mu = m * ratio
            assert bound == pytest.approx(np.mean(mu - mu * np.log(mu)) + log_fact, abs=1e-10)

    def test_rates_that_underflow_add_nothing(self):
        """Weak duality holds at any rates m, so a parents' point whose rates
        underflow to 0 on some rows (eta < -745, as a runaway coefficient
        gives) still bounds each candidate: mu is 0 there, even where
        1 + Z c is negative."""
        rng = np.random.default_rng(4)
        n = 150
        x = rng.poisson(1.0, size=(n, 3)).astype(float)
        far = rng.random(n) < 0.2
        x[:, 0] = np.where(far, 800.0, np.minimum(x[:, 0], 2.0))  # rates 0 at 800
        y = rng.poisson(np.exp(1.0 - 1.5 * np.minimum(x[:, 0], 3) + 0.3 * x[:, 1]))
        y = np.where(far, 0, y).astype(float)
        fitter = NodeFitter(CountMatrix(np.column_stack([y, x]).astype(np.int64)))
        theta, intercept = np.array([-1.0]), 0.0
        log_fact = float(np.mean(glm._log_factorial(y)))
        bounds = glm._dual_bounds(
            x[:, :1].T.copy(), x[:, 1:].T.copy(), intercept, theta,
            x.T @ y, float(y.sum()), log_fact,
        )
        m = np.exp(intercept + x[:, 0] * theta[0])
        assert (m == 0.0).sum() == far.sum() > 0
        for t, bound in zip((2, 3), bounds.tolist()):
            Z = np.column_stack([np.ones(n), x[:, 0], x[:, t - 1]])
            ratio = 1.0 + Z @ np.linalg.solve(Z.T @ (Z * m[:, None]), Z.T @ (y - m))
            assert ratio[far].max() < 0.0 < ratio[~far].min()
            mu = m * ratio
            logs = np.log(np.where(far, 1.0, mu))
            # Less a margin that grows with |eta|, up to 800 here.
            assert bound == pytest.approx(np.mean(mu - mu * logs) + log_fact, abs=1e-8)
            assert bound <= fitter.fit(0, (1, t), FitTally()).nll

    def test_no_bound_from_an_unusable_fit(self):
        """No bound from a parents' fit that is absent, has a -inf intercept
        (an all-zero response) or a diverged coefficient, at
        n >= PATTERN_MIN_ROWS, or with a singular A."""
        rng = np.random.default_rng(6)
        x = rng.poisson(1.0, size=(200, 4))
        x[:, 1] = 0
        fitter = NodeFitter(CountMatrix(x))
        assert fitter.bounds(0, (3,), [2]) is None  # absent
        assert fitter.fit(1, (3,), FitTally()).intercept == -math.inf
        assert fitter.bounds(1, (3,), [0, 2]) is None
        fit = fitter.fit(0, (2, 3), FitTally())
        assert fitter.bounds(0, (2, 3), [1]) is not None
        fit.diverged = np.array([False, True])
        assert fitter.bounds(0, (2, 3), [1]) is None
        tall = CountMatrix(rng.poisson(1.0, size=(PATTERN_MIN_ROWS, 3)))
        fitter = NodeFitter(tall)
        fitter.fit(0, (1,), FitTally())
        assert fitter.bounds(0, (1,), [2]) is None
        # A constant covariate: A = [[sum m, 2 sum m], [2 sum m, 4 sum m]].
        ones = np.ones((1, 50))
        found = glm._dual_bounds(
            2.0 * ones, rng.poisson(1.0, size=(2, 50)).astype(float), 0.0, np.zeros(1),
            np.array([100.0, 60.0, 40.0]), 50.0, 0.5,
        )
        assert (found == -math.inf).all()

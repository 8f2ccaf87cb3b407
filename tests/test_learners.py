import dataclasses

import numpy as np
import pytest

from countdag.data import CountMatrix
from countdag.graphs import Dag, GraphError, Ordering, compare, is_consistent
from countdag.learn import (
    LearnConfig,
    or_lpgm,
    or_lpgm_detailed,
    or_ppgm,
    or_ppgm_detailed,
)

ALPHA01 = LearnConfig(alpha=0.01)


def sample_recursive(edges, weights, p, n, rng, order=None):
    """Reference sampler: Pois(exp(sum theta x)) along a topological order."""
    order = order if order is not None else range(p)
    out = np.zeros((n, p), dtype=np.int64)
    for s in order:
        pa = [t for t, c in edges if c == s]
        if not pa:
            lam = np.ones(n)
        else:
            lam = np.exp(sum(weights[(t, s)] * out[:, t] for t in pa))
        out[:, s] = rng.poisson(lam)
    return CountMatrix(out)


class TestOrPpgm:
    def test_p1_empty(self):
        data = CountMatrix(np.zeros((5, 1), dtype=np.int64))
        assert or_ppgm(data, Ordering((0,)), ALPHA01).edge_count == 0

    def test_size_mismatch(self):
        data = CountMatrix(np.zeros((5, 2), dtype=np.int64))
        with pytest.raises(GraphError):
            or_ppgm(data, Ordering((0, 1, 2)), ALPHA01)

    def test_detects_strong_edge(self):
        # X1 ~ Pois(1), X2 | X1 ~ Pois(exp(0.5 X1)): power at n=1000 is
        # essentially 1, so the edge survives in at least 95% of replicates.
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(1_000 + seed)
            data = sample_recursive([(0, 1)], {(0, 1): 0.5}, 2, 1000, rng)
            dag = or_ppgm(data, Ordering((0, 1)), ALPHA01)
            hits += (0, 1) in dag.edges
        assert hits >= 190

    def test_independent_pair_rare_edge(self):
        # Independent Pois(1) columns: rejection rate is the nominal 1%.
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(2_000 + seed)
            data = CountMatrix(rng.poisson(1.0, size=(1000, 2)))
            dag = or_ppgm(data, Ordering((0, 1)), ALPHA01)
            hits += dag.edge_count
        assert hits <= 6  # 3% of 200

    def test_removes_indirect_edge_via_conditioning(self):
        # Chain 0 -> 1 -> 2: the marginal 0-2 dependence dies given X1.
        recovered = 0
        for seed in range(50):
            rng = np.random.default_rng(3_000 + seed)
            data = sample_recursive(
                [(0, 1), (1, 2)], {(0, 1): 0.5, (1, 2): 0.5}, 3, 2000, rng
            )
            dag = or_ppgm(data, Ordering((0, 1, 2)), ALPHA01)
            recovered += set(dag.edges) == {(0, 1), (1, 2)}
        assert recovered >= 40

    def test_m_zero_stops_at_marginal_tests(self):
        rng = np.random.default_rng(9)
        data = sample_recursive(
            [(0, 1), (1, 2)], {(0, 1): 0.5, (1, 2): 0.5}, 3, 2000, rng
        )
        cfg = LearnConfig(alpha=0.01, m=0)
        dag, report = or_ppgm_detailed(data, Ordering((0, 1, 2)), cfg)
        # Only cardinality-0 conditioning sets were ever used.
        assert all(test.conditioning == () for test in report.edge_tests.values())
        # The marginal 0-2 association cannot be removed at level 0.
        assert (0, 2) in dag.edges

    def test_output_consistent_with_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(2, 7))
            perm = tuple(int(v) for v in rng.permutation(p))
            data = CountMatrix(rng.poisson(1.0, size=(200, p)))
            dag = or_ppgm(data, Ordering(perm), LearnConfig(alpha=0.2))
            assert is_consistent(dag, Ordering(perm))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        data = sample_recursive(
            [(0, 2), (1, 2), (2, 3)],
            {(0, 2): 0.4, (1, 2): -0.4, (2, 3): 0.5},
            4, 800, rng,
        )
        ordering = Ordering((0, 1, 2, 3))
        first = or_ppgm(data, ordering, ALPHA01)
        again = or_ppgm(data, ordering, ALPHA01)
        assert first == again

    def test_zero_column_deletes_edge_with_warning(self):
        values = np.zeros((100, 2), dtype=np.int64)
        values[:, 1] = np.random.default_rng(5).poisson(1.0, size=100)
        dag, report = or_ppgm_detailed(
            CountMatrix(values), Ordering((0, 1)), ALPHA01
        )
        assert dag.edge_count == 0
        assert any("singular" in w.lower() for w in report.warnings)

    def test_each_child_is_searched_alone(self, monkeypatch):
        """A child's tests read and delete only its own parents, so on the
        columns pre(s) + {s} alone s gets the same parents, edge tests and
        fit requests as in the run on every column."""
        from countdag import learn

        requests = []
        fit = learn.NodeFitter.fit

        def recording(self, s, covariates):
            result = fit(self, s, covariates)
            requests.append((s, covariates, result.theta.tolist()))
            return result

        monkeypatch.setattr(learn.NodeFitter, "fit", recording)
        edges = [(0, 2), (1, 2), (2, 3), (0, 4), (3, 4), (1, 5), (4, 5)]
        weights = {e: 0.35 if i % 2 else -0.3 for i, e in enumerate(edges)}
        data = sample_recursive(edges, weights, 6, 400, np.random.default_rng(21))
        ordering = Ordering((1, 0, 2, 3, 4, 5))
        cfg = LearnConfig(alpha=0.05, m=2)
        dag, report = or_ppgm_detailed(data, ordering, cfg)
        full = list(requests)
        for s in ordering.perm:
            keep = sorted((*ordering.precedents(s), s))
            index = {v: i for i, v in enumerate(keep)}
            requests.clear()
            sub_dag, sub_report = or_ppgm_detailed(
                CountMatrix(data.values[:, keep]),
                Ordering(tuple(index[v] for v in ordering.perm if v in index)),
                cfg,
            )
            assert tuple(keep[t] for t in sub_dag.parents(index[s])) == dag.parents(s)
            assert {
                (keep[t], s): (tuple(keep[u] for u in e.conditioning), e.z, e.rejected)
                for (t, c), e in sub_report.edge_tests.items() if c == index[s]
            } == {
                edge: (e.conditioning, e.z, e.rejected)
                for edge, e in report.edge_tests.items() if edge[1] == s
            }
            assert [
                (s, tuple(keep[u] for u in K), theta)
                for c, K, theta in requests if c == index[s]
            ] == [r for r in full if r[0] == s]
        assert dag.edge_count > 0 and report.tests_run > len(edges)

    def test_ordering_invariance_of_the_limit(self):
        # Two valid topological orderings of one DAG; identifiability makes
        # the large-sample estimates agree, so mean F1 gaps stay small.
        edges = [(0, 2), (1, 2), (2, 3), (3, 5), (4, 5), (5, 7), (6, 7), (7, 9), (8, 9)]
        weights = {e: 0.4 if i % 2 == 0 else -0.4 for i, e in enumerate(edges)}
        truth = Dag(10, frozenset(edges))
        o1 = Ordering(tuple(range(10)))
        o2 = Ordering((1, 0, 2, 4, 3, 5, 6, 8, 7, 9))
        cfg = LearnConfig(alpha_b=0.15, m=8)
        f1_gap = []
        for seed in range(10):
            rng = np.random.default_rng(40_000 + seed)
            data = sample_recursive(edges, weights, 10, 5000, rng)
            g1 = or_ppgm(data, o1, cfg)
            g2 = or_ppgm(data, o2, cfg)
            f1_gap.append(abs(compare(g1, truth).f1 - compare(g2, truth).f1))
        assert np.mean(f1_gap) < 0.05


class TestOrLpgm:
    def test_p1_empty(self):
        data = CountMatrix(np.zeros((5, 1), dtype=np.int64))
        assert or_lpgm(data, Ordering((0,)), ALPHA01).edge_count == 0

    def test_chain_recovery_without_transitive_edge(self):
        recovered = 0
        for seed in range(200):
            rng = np.random.default_rng(5_000 + seed)
            data = sample_recursive(
                [(0, 1), (1, 2)], {(0, 1): 0.5, (1, 2): 0.5}, 3, 1000, rng
            )
            dag = or_lpgm(data, Ordering((0, 1, 2)), ALPHA01)
            recovered += set(dag.edges) == {(0, 1), (1, 2)}
        assert recovered >= 180

    def test_false_edge_rate_matches_alpha(self):
        # p=5 fully independent: 10 testable ordered pairs, each rejecting
        # with probability 0.01, so 0.1 false edges per replicate on average.
        counts = []
        for seed in range(200):
            rng = np.random.default_rng(6_000 + seed)
            data = CountMatrix(rng.poisson(1.0, size=(1000, 5)))
            counts.append(or_lpgm(data, Ordering(tuple(range(5))), ALPHA01).edge_count)
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / np.sqrt(len(counts))
        assert abs(mean - 0.1) <= max(3 * se, 0.07)

    def test_first_node_never_has_parents(self):
        rng = np.random.default_rng(21)
        data = CountMatrix(rng.poisson(2.0, size=(400, 4)))
        dag = or_lpgm(data, Ordering((2, 0, 1, 3)), LearnConfig(alpha=0.5))
        assert dag.parents(2) == ()

    def test_alpha_monotone_edge_sets(self):
        rng = np.random.default_rng(23)
        data = sample_recursive(
            [(0, 1), (1, 3), (2, 3)],
            {(0, 1): 0.25, (1, 3): -0.3, (2, 3): 0.15},
            4, 600, rng,
        )
        ordering = Ordering((0, 1, 2, 3))
        previous: set = set()
        for alpha in (0.001, 0.01, 0.05, 0.2, 0.5):
            edges = set(or_lpgm(data, ordering, LearnConfig(alpha=alpha)).edges)
            assert previous <= edges
            previous = edges

    def test_rank_deficient_warns(self):
        rng = np.random.default_rng(27)
        data = CountMatrix(rng.poisson(1.0, size=(4, 6)))
        _, report = or_lpgm_detailed(
            data, Ordering(tuple(range(6))), LearnConfig(alpha=0.05)
        )
        assert any("rank-deficient" in w for w in report.warnings)

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        data = CountMatrix(rng.poisson(1.0, size=(500, 5)))
        ordering = Ordering((4, 2, 0, 3, 1))
        base = or_lpgm(data, ordering, LearnConfig(alpha=0.1))
        again = or_lpgm(data, ordering, LearnConfig(alpha=0.1))
        assert base == again
        assert is_consistent(base, ordering)


class TestLearnConfig:
    def test_requires_exactly_one_alpha(self):
        with pytest.raises(ValueError):
            LearnConfig()
        with pytest.raises(ValueError):
            LearnConfig(alpha=0.05, alpha_b=0.15)

    def test_alpha_resolution_uses_schedule(self):
        from countdag.glm import alpha_schedule

        cfg = LearnConfig(alpha_b=0.15)
        assert cfg.resolve_alpha(1000) == alpha_schedule(1000, 0.15)
        assert LearnConfig(alpha=0.02).resolve_alpha(1000) == 0.02


class TestFitTally:
    """The report's fit counters tally every GlmFit the learner obtained."""

    @pytest.mark.parametrize("runner", [or_ppgm_detailed, or_lpgm_detailed])
    def test_counts_match_returned_fits(self, runner, monkeypatch):
        from countdag import learn
        from countdag.glm import FitTally

        returned = []
        original = learn._fit_core

        def recording(*args):
            fit = original(*args)
            returned.append(fit)
            return fit

        monkeypatch.setattr(learn, "_fit_core", recording)
        rng = np.random.default_rng(12)
        edges = [(0, 1), (1, 2), (0, 3)]
        weights = {e: 0.4 for e in edges}
        data = sample_recursive(edges, weights, 4, 300, rng)
        _, report = runner(data, Ordering((0, 1, 2, 3)), LearnConfig(alpha=0.05, m=2))
        expected = FitTally()
        for fit in returned:
            expected.add(fit)
        assert report.fits == expected
        assert report.fits.fits == len(returned) > 0
        assert report.fits.newton_iterations == sum(f.iterations for f in returned)

    def test_counts_flags(self):
        from countdag.glm import FitTally, GlmFit

        tally = FitTally()
        base = dict(covariates=(0, 1), theta=np.zeros(2), fisher=np.eye(2), nll=1.0)
        tally.add(GlmFit(**base, converged=True, iterations=4, diverged=np.zeros(2, dtype=bool)))
        tally.add(GlmFit(**base, converged=False, iterations=7,
                         diverged=np.array([True, False]), lp_capped=True))
        assert tally == FitTally(fits=2, nonconverged=1, lp_capped=1, diverged=1,
                                 newton_iterations=11)

    def test_counts_halvings(self):
        from countdag.glm import FitTally, GlmFit

        tally = FitTally()
        base = dict(covariates=(0,), theta=np.zeros(1), fisher=np.eye(1), nll=1.0,
                    converged=True, iterations=2, diverged=np.zeros(1, dtype=bool))
        tally.add(GlmFit(**base))
        tally.add(GlmFit(**base, halvings=5, ridge_rescues=2))
        tally.add(GlmFit(**base, halvings=31, ridge_rescues=1))
        assert tally.halvings == 36 and tally.ridge_rescues == 3 and tally.fits == 3


class TestNodeFitter:
    """Every learner fits each (node, covariate set) at most once per call."""

    @staticmethod
    def _zero_column_data():
        """Node 1 is all zeros and first in the ordering, so every learner
        attempts a singular fit on (1,)."""
        edges = [(0, 2), (2, 3), (0, 4)]
        data = sample_recursive(edges, dict.fromkeys(edges, 0.4), 5, 300,
                                np.random.default_rng(14))
        values = data.values.copy()
        values[:, 1] = 0
        return CountMatrix(values), Ordering((1, 0, 2, 3, 4))

    @pytest.mark.parametrize("learner", ["or_ppgm", "or_lpgm", "pkbic"])
    def test_each_set_fitted_at_most_once(self, learner, monkeypatch):
        from countdag import glm, learn
        from countdag.scores import pk2_detailed

        keys, fitted, singular = [], [], []
        design, fit_core = glm.PatternBuilder.design, learn._fit_core

        def recording_design(self, s, covariates):
            keys.append((s, covariates))
            return design(self, s, covariates)

        def recording_fit(*args):
            fitted.append(keys[-1])
            try:
                return fit_core(*args)
            except glm.SingularInformation:
                singular.append(keys[-1])
                raise

        monkeypatch.setattr(glm.PatternBuilder, "design", recording_design)
        monkeypatch.setattr(learn, "_fit_core", recording_fit)
        data, ordering = self._zero_column_data()
        if learner == "pkbic":
            pk2_detailed(data, ordering)
        else:
            runner = or_ppgm_detailed if learner == "or_ppgm" else or_lpgm_detailed
            runner(data, ordering, LearnConfig(alpha=0.05, m=2))
        assert len(fitted) == len(set(fitted)) > 0
        assert (0, (1,)) in singular

    def test_singular_fit_is_attempted_once(self, monkeypatch):
        from countdag import learn
        from countdag.glm import FitTally, SingularInformation

        calls = []
        fit_core = learn._fit_core

        def recording_fit(*args):
            calls.append(args[2])
            return fit_core(*args)

        monkeypatch.setattr(learn, "_fit_core", recording_fit)
        data, _ = self._zero_column_data()
        tally = FitTally()
        fitter = learn.NodeFitter(data, tally)
        for _ in range(2):
            with pytest.raises(SingularInformation):
                fitter.fit(0, (1,))
            assert fitter.fit(0, (2,)) is fitter.fit(0, (2,))
        assert calls == [(1,), (2,)] and tally.fits == 1


class TestPatternPath:
    """Node regressions on distinct covariate patterns give the learners'
    output on the rows."""

    @pytest.fixture(scope="class")
    def tall(self):
        rng = np.random.default_rng(2024)
        edges = [(0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (3, 5)]
        weights = dict(zip(edges, (0.3, -0.4, 0.25, 0.3, -0.2, 0.2)))
        return sample_recursive(edges, weights, 6, 20_000, rng), Ordering(tuple(range(6)))

    @staticmethod
    def _run(monkeypatch, min_rows, learner, data, ordering):
        from countdag import glm, learn, scores
        from countdag.scores import ScoreConfig, pk2_detailed

        grouped = []
        with monkeypatch.context() as m:
            m.setattr(glm, "PATTERN_MIN_ROWS", min_rows)
            for module in (learn, scores):
                def recording(*args, original=module._fit_core):
                    grouped.append(len(args) > 4 and args[4] is not None)
                    return original(*args)

                m.setattr(module, "_fit_core", recording)
            if learner == "pkbic":
                dag, report = pk2_detailed(data, ordering, ScoreConfig())
            else:
                runner = or_ppgm_detailed if learner == "or_ppgm" else or_lpgm_detailed
                dag, report = runner(data, ordering, LearnConfig(alpha=0.01, m=2))
        return dag.edges, dataclasses.asdict(report.fits), sum(grouped), len(grouped)

    @pytest.mark.parametrize("learner", ["or_ppgm", "or_lpgm", "pkbic"])
    def test_same_edges_and_fits_on_either_path(self, tall, learner, monkeypatch):
        data, ordering = tall
        edges, tally, grouped, calls = self._run(monkeypatch, 10**12, learner, data, ordering)
        assert grouped == 0 and tally["fits"] == calls > 0
        for min_rows in (0, 10**12):
            forced = self._run(monkeypatch, min_rows, learner, data, ordering)
            assert forced[0] == edges and forced[1]["fits"] == tally["fits"]
            assert (forced[2] > 0) == (min_rows == 0)


class TestPinnedEdges:
    """Edge lists of the three learners on seeded table-1 data (p=10),
    recorded from the solver before its line search ended stalls early.
    Rounding-level solver changes must leave every edge in place."""

    EXPECTED = {
        ("scale_free", 100, 11): {
            "or_ppgm": [(0, 1), (2, 3), (4, 0), (5, 7), (6, 1), (7, 1), (8, 9)],
            "or_lpgm": [(2, 3), (4, 0), (5, 7)],
            "pkbic": [(2, 3), (4, 0), (4, 1), (5, 7), (6, 1), (7, 1), (8, 9)],
        },
        ("hub", 1000, 12): {
            "or_ppgm": [(0, 4), (1, 3), (2, 0), (5, 1), (6, 0), (7, 1), (9, 1)],
            "or_lpgm": [(0, 4), (1, 3), (2, 0), (5, 1), (6, 0), (7, 1), (7, 8), (9, 1)],
            "pkbic": [(0, 4), (1, 3), (2, 0), (5, 1), (6, 0), (7, 1), (9, 1)],
        },
        ("erdos_renyi", 1000, 13): {
            "or_ppgm": [(0, 8), (2, 4), (5, 2), (5, 6), (6, 9), (7, 2), (7, 6), (8, 3), (8, 4)],
            "or_lpgm": [
                (0, 8), (1, 9), (2, 4), (2, 9), (5, 2), (5, 6), (6, 9), (7, 2), (7, 6),
                (8, 3), (8, 4),
            ],
            "pkbic": [
                (0, 8), (1, 9), (2, 4), (2, 9), (5, 2), (5, 6), (6, 9), (7, 2), (7, 6),
                (8, 3), (8, 4),
            ],
        },
    }

    @pytest.mark.parametrize("kind, n, seed", sorted(EXPECTED))
    def test_table1_edges(self, kind, n, seed):
        from countdag.scores import ScoreConfig, pk2
        from countdag.simulate import SimConfig, simulate

        _, ordering, data = simulate(SimConfig(graph_kind=kind, p=10, n=n, seed=seed))
        edges = {
            "or_ppgm": or_ppgm(data, ordering, LearnConfig(alpha_b=0.15, m=8)),
            "or_lpgm": or_lpgm(data, ordering, LearnConfig(alpha_b=0.15)),
            "pkbic": pk2(data, ordering, ScoreConfig()),
        }
        assert {name: sorted(dag.edges) for name, dag in edges.items()} == self.EXPECTED[
            (kind, n, seed)
        ]

import dataclasses
from statistics import NormalDist

import numpy as np
import pytest

from countdag.data import CountMatrix
from countdag.glm import PATTERN_MIN_ROWS
from countdag.graphs import Dag, GraphError, Ordering, compare, is_consistent
from countdag.learn import (
    LearnConfig,
    alpha_schedule,
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

    @staticmethod
    def _level0_data():
        """Ordinary and dependent counts, an all-zero and a constant column,
        a column that is 0 on all rows but a few large ones (its fits'
        trials reach far in the linear predictor) and one that is 0 wherever
        column 0 is positive, so its fit on column 0 clamps at -THETA_CAP."""
        rng = np.random.default_rng(31)
        n = 300
        x0 = rng.poisson(1.2, n)
        far = np.repeat([0, 1, 6], [n - 8, 6, 2])
        columns = [
            x0,
            rng.poisson(np.exp(0.4 * x0)),
            np.zeros(n, dtype=np.int64),
            np.full(n, 2),
            rng.permutation(far),
            np.where(x0 > 0, 0, rng.poisson(2.0, n)),
        ]
        return CountMatrix(np.column_stack(columns)), Ordering((0, 2, 1, 3, 5, 4))

    @pytest.mark.parametrize("lp_cap", [None, 1.0])
    def test_level0_matches_per_test_reference(self, lp_cap, monkeypatch):
        """Level 0 tests each fit of its batch through the fitter, like every
        other level; each test, warning and fit count is the one a Wald test
        per pair through a fresh NodeFitter gives, in the same order and bit
        for bit."""
        from countdag import glm, learn

        if lp_cap is not None:
            monkeypatch.setattr(glm, "LP_CAP", lp_cap)
        data, ordering = self._level0_data()
        cfg = LearnConfig(alpha=0.05, m=0)
        _, report = or_ppgm_detailed(data, ordering, cfg)
        fitter = learn.NodeFitter(data)
        reference = learn.LearnReport(alpha=cfg.resolve_alpha(data.n))
        for i, s in enumerate(ordering.perm):
            for t in ordering.perm[:i]:
                learn._wald_edge(
                    fitter, reference, cfg.critical_value(data.n), t, s, (),
                    "edge {t}->{s} | K={K}",
                )
        assert list(report.edge_tests) == list(reference.edge_tests)
        assert {
            edge: (test.conditioning, test.z.hex(), test.rejected)
            for edge, test in report.edge_tests.items()
        } == {
            edge: (test.conditioning, test.z.hex(), test.rejected)
            for edge, test in reference.edge_tests.items()
        }
        assert report.tests_run == reference.tests_run == 15
        assert report.warnings == reference.warnings and len(report.warnings) == 6
        assert report.fits == reference.fits and report.fits.diverged == 2
        # The data reach each branch: a zero response and a clamped
        # coefficient (both diverged, z = 0), edges kept and deleted.
        clamped = fitter.fit(5, (0,), learn.FitTally())
        assert clamped.theta[0] == -glm.THETA_CAP and report.edge_tests[(0, 5)].z == 0.0
        assert report.edge_tests[(0, 2)].z == 0.0
        assert {test.rejected for test in report.edge_tests.values()} == {True, False}

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

        def recording(self, s, covariates, tally):
            result = fit(self, s, covariates, tally)
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

    def test_tests_go_through_learn_wald(self, monkeypatch):
        from countdag import learn

        calls = []
        wald = learn.wald

        def counting(fit, target, n):
            calls.append((fit.covariates, target))
            return wald(fit, target, n)

        monkeypatch.setattr(learn, "wald", counting)
        rng = np.random.default_rng(29)
        data = CountMatrix(rng.poisson(1.0, size=(500, 5)))
        ordering = Ordering((4, 2, 0, 3, 1))
        _, report = or_lpgm_detailed(data, ordering, LearnConfig(alpha=0.1))
        assert len(calls) == report.tests_run == 10
        assert calls == [(ordering.precedents(s), t)
                         for s in ordering.perm for t in ordering.precedents(s)]

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        data = CountMatrix(rng.poisson(1.0, size=(500, 5)))
        ordering = Ordering((4, 2, 0, 3, 1))
        base = or_lpgm(data, ordering, LearnConfig(alpha=0.1))
        again = or_lpgm(data, ordering, LearnConfig(alpha=0.1))
        assert base == again
        assert is_consistent(base, ordering)


class TestIndependentPair:
    """Two independent Poisson(e) columns. The child's mean is e, not 1, so
    a node regression without an intercept finds x0 -> x1 on every seed;
    with one, each learner's false-edge rate is its nominal level."""

    @pytest.mark.parametrize("learner", ["or_ppgm", "or_lpgm", "pkbic"])
    def test_false_edge_is_rare(self, learner):
        from countdag.scores import pk2

        run = {
            "or_ppgm": lambda data, ordering: or_ppgm(data, ordering, LearnConfig(alpha=0.05)),
            "or_lpgm": lambda data, ordering: or_lpgm(data, ordering, LearnConfig(alpha=0.05)),
            "pkbic": pk2,
        }[learner]
        kept = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = CountMatrix(rng.poisson(np.e, size=(1000, 2)))
            kept += (0, 1) in run(data, Ordering((0, 1))).edges
        # Binomial(20, 0.05) exceeds 3 with probability 0.016.
        assert kept <= 3


class TestLearnConfig:
    def test_requires_exactly_one_alpha(self):
        with pytest.raises(ValueError):
            LearnConfig()
        with pytest.raises(ValueError):
            LearnConfig(alpha=0.05, alpha_b=0.15)

    @pytest.mark.parametrize("b", [0.0, 0.5, 0.7, -0.1, float("nan")])
    def test_alpha_b_outside_schedule_range_rejected_when_built(self, b):
        with pytest.raises(ValueError, match=r"alpha_b must be in \(0, 0.5\)"):
            LearnConfig(alpha_b=b)

    def test_alpha_resolution_uses_schedule(self):
        cfg = LearnConfig(alpha_b=0.15)
        assert cfg.resolve_alpha(1000) == alpha_schedule(1000, 0.15)
        assert LearnConfig(alpha=0.02).resolve_alpha(1000) == 0.02

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.5])
    def test_critical_value_of_fixed_alpha(self, alpha):
        crit = LearnConfig(alpha=alpha).critical_value(1000)
        assert crit == -NormalDist().inv_cdf(alpha / 2)

    @pytest.mark.parametrize("n", [100, 1000, 50000])
    @pytest.mark.parametrize("b", [0.15, 0.2, 0.3])
    def test_critical_value_of_schedule(self, n, b):
        crit = LearnConfig(alpha_b=b).critical_value(n)
        assert crit == n**b
        # n^b is the two-sided quantile of the scheduled level, while that
        # level is representable.
        assert crit == pytest.approx(-NormalDist().inv_cdf(alpha_schedule(n, b) / 2), rel=1e-14)


def _strong_pair(n=20000, seed=0):
    """x ~ Pois(5), y ~ Pois(exp(0.3 x - 1)): z for x -> y is about 228."""
    rng = np.random.default_rng(seed)
    x = rng.poisson(5.0, size=n)
    return CountMatrix(np.column_stack([x, rng.poisson(np.exp(0.3 * x - 1.0))]), ("x", "y"))


class TestScheduleBeyondUnderflow:
    """At n = 20,000 and b = 0.4, n^b = 52.5: the scheduled level underflows
    to 0.0, and the tests still reject beyond n^b."""

    @pytest.mark.parametrize("runner", [or_ppgm_detailed, or_lpgm_detailed])
    def test_strong_edge_kept(self, runner):
        dag, report = runner(_strong_pair(), Ordering((0, 1)), LearnConfig(alpha_b=0.4))
        assert report.alpha == 0.0
        assert dag.edges == frozenset({(0, 1)})
        (test,) = report.edge_tests.values()
        assert test.rejected and test.z > 20000**0.4


class TestFitTally:
    """The report's fit counters tally every GlmFit the learner obtained."""

    @staticmethod
    def _sampled():
        edges = [(0, 1), (1, 2), (0, 3)]
        data = sample_recursive(edges, {e: 0.4 for e in edges}, 4, 300, np.random.default_rng(12))
        return data, Ordering((0, 1, 2, 3))

    @staticmethod
    def _degenerate():
        """An all-zero and a constant column among sampled ones: fits with a
        -inf intercept and failed fits, whose SingularInformation counts
        nothing."""
        data, ordering = TestFitTally._sampled()
        values = np.column_stack([data.values, np.zeros(300, dtype=np.int64), np.full(300, 3)])
        return CountMatrix(values), Ordering((0, 1, 4, 5, 2, 3))

    CASES = [(runner, dataset) for dataset in ("sampled", "degenerate")
             for runner in ("or_ppgm_detailed", "or_lpgm_detailed", "pk2_detailed")]

    @pytest.mark.parametrize("runner, dataset", CASES, ids=[
        runner if dataset == "sampled" else f"{runner}-{dataset}" for runner, dataset in CASES
    ])
    def test_counts_match_returned_fits(self, runner, dataset, monkeypatch):
        from countdag import learn
        from countdag.glm import FitTally, GlmFit
        from countdag.scores import ScoreConfig, pk2_detailed

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
        data, ordering = self._sampled() if dataset == "sampled" else self._degenerate()
        if runner == "pk2_detailed":
            # Its first forward steps read the same batch as OR-PPGM's level 0.
            _, report = pk2_detailed(data, ordering, ScoreConfig("bic"))
        else:
            detailed = or_ppgm_detailed if runner == "or_ppgm_detailed" else or_lpgm_detailed
            _, report = detailed(data, ordering, LearnConfig(alpha=0.05, m=2))
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
                         diverged=np.array([True, False])))
        assert tally == FitTally(fits=2, nonconverged=1, diverged=1, newton_iterations=11)

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
    """A NodeFitter fits each (node, covariate set) at most once, and a
    learner called alone makes its own."""

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
        design, fit_core, fit_pairs = glm.PatternBuilder.design, learn._fit_core, learn._fit_pairs

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

        def recording_pairs(builder, pairs):
            fits = fit_pairs(builder, pairs)
            for (s, t), found in zip(pairs, fits):
                fitted.append((s, (t,)))
                if isinstance(found, glm.SingularInformation):
                    singular.append((s, (t,)))
            return fits

        monkeypatch.setattr(glm.PatternBuilder, "design", recording_design)
        monkeypatch.setattr(learn, "_fit_core", recording_fit)
        monkeypatch.setattr(learn, "_fit_pairs", recording_pairs)
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
        fit_core, fit_pairs = learn._fit_core, learn._fit_pairs

        def recording_fit(*args):
            calls.append(args[2])
            return fit_core(*args)

        def recording_pairs(builder, pairs):
            calls.extend((t,) for _, t in pairs)
            return fit_pairs(builder, pairs)

        monkeypatch.setattr(learn, "_fit_core", recording_fit)
        monkeypatch.setattr(learn, "_fit_pairs", recording_pairs)
        data, _ = self._zero_column_data()
        tally = FitTally()
        fitter = learn.NodeFitter(data)
        for _ in range(2):
            # Node 1 is all zeros, so constant: one road for each set size.
            for singular in ((1,), (1, 2)):
                with pytest.raises(SingularInformation, match="covariate 1 is constant"):
                    fitter.fit(0, singular, tally)
            assert fitter.fit(0, (2,), tally) is fitter.fit(0, (2,), tally)
        assert calls == [(1,), (1, 2), (2,)] and tally.fits == 1

    def test_a_singular_fit_keeps_no_reference_cycle(self):
        import gc
        import weakref

        from countdag import learn
        from countdag.glm import FitTally, SingularInformation

        data, _ = self._zero_column_data()
        fitter = learn.NodeFitter(data)
        for _ in range(2):
            with pytest.raises(SingularInformation, match="constant"):
                fitter.fit(0, (1,), FitTally())
        alive = weakref.ref(fitter)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del fitter  # freed by reference counting, not left to the cyclic collector
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_fit_singles_stores_what_fit_would(self):
        """The bulk request fits each missing pair once, counts the fits in
        the caller's tally and stores a SingularInformation for fit to raise."""
        from countdag.glm import FitTally, SingularInformation
        from countdag.learn import NodeFitter

        data, _ = self._zero_column_data()
        fitter, tally = NodeFitter(data), FitTally()
        fitter.fit_singles([(0, 1), (0, 2), (0, 2), (3, 2)], tally)
        assert tally.fits == 2
        fitter.fit_singles([(0, 2), (3, 2)], tally)  # stored already
        assert tally.fits == 2
        with pytest.raises(SingularInformation, match="constant"):
            fitter.fit(0, (1,), tally)
        alone = NodeFitter(data).fit(0, (2,), FitTally())
        stored = fitter.fit(0, (2,), tally)
        assert tally.fits == 2 and stored is fitter.fit(0, (2,), tally)
        assert np.array_equal(stored.theta, alone.theta) and stored.nll == alone.nll

    @pytest.mark.parametrize(
        "kind, n, seed",
        [("hub", 1000, 12), ("scale_free", 100, 11), ("erdos_renyi", PATTERN_MIN_ROWS, 13)],
    )
    def test_single_covariate_fits_alike_from_any_learner(self, kind, n, seed):
        """A stored fit on one covariate is the same, bit for bit, whether
        OR-PPGM's level-0 batch, PK2's first-step batch or a direct request
        made it; from PATTERN_MIN_ROWS rows, where wider fits run on
        patterns, no learner builds a one-column pattern set."""
        from countdag.glm import FitTally
        from countdag.learn import NodeFitter
        from countdag.scores import ScoreConfig, pk2
        from countdag.simulate import SimConfig, simulate

        _, ordering, data = simulate(SimConfig(graph_kind=kind, p=10, n=n, seed=seed))
        by_ppgm, by_pk2, direct = NodeFitter(data), NodeFitter(data), NodeFitter(data)
        or_ppgm(data, ordering, LearnConfig(alpha_b=0.15, m=8), by_ppgm)
        pk2(data, ordering, ScoreConfig(), by_pk2)
        compared = {"or_ppgm": 0, "pk2": 0}
        for s in ordering.perm:
            for t in ordering.precedents(s):
                alone = direct.fit(s, (t,), FitTally())
                for name, fitter in (("or_ppgm", by_ppgm), ("pk2", by_pk2)):
                    stored = fitter.made(s, (t,))
                    if stored is None:
                        continue
                    compared[name] += 1
                    assert stored.theta.tobytes() == alone.theta.tobytes()
                    assert stored.fisher.tobytes() == alone.fisher.tobytes()
                    assert (stored.nll, stored.intercept, stored.iterations, stored.halvings) == (
                        alone.nll, alone.intercept, alone.iterations, alone.halvings
                    )
                    assert stored.converged == alone.converged
                    assert stored.diverged.tolist() == alone.diverged.tolist()
        assert compared["or_ppgm"] == compared["pk2"] == 45
        patterns = [fitter._rows._patterns for fitter in (by_ppgm, by_pk2, direct)]
        assert not [K for cached in patterns for K in cached if len(K) == 1]
        # Wider fits run on patterns from PATTERN_MIN_ROWS rows.
        assert bool(by_ppgm._rows._patterns) == (n >= PATTERN_MIN_ROWS)

    @pytest.mark.parametrize("learner", ["or_ppgm", "or_lpgm", "pkbic"])
    def test_fitter_over_other_data_is_refused(self, learner):
        from countdag.learn import NodeFitter
        from countdag.scores import ScoreConfig, pk2

        data, ordering = self._zero_column_data()
        other = NodeFitter(CountMatrix(data.values.copy()))
        if learner == "pkbic":
            runner, cfg = pk2, ScoreConfig()
        else:
            runner, cfg = (or_ppgm if learner == "or_ppgm" else or_lpgm), ALPHA01
        with pytest.raises(ValueError, match="other data"):
            runner(data, ordering, cfg, other)
        assert runner(data, ordering, cfg, NodeFitter(data)) == runner(data, ordering, cfg)


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

        grouped, batched = [], []
        with monkeypatch.context() as m:
            m.setattr(glm, "PATTERN_MIN_ROWS", min_rows)
            for module in (learn, scores):
                def recording(*args, original=module._fit_core):
                    grouped.append(len(args) > 4 and args[4] is not None)
                    return original(*args)

                m.setattr(module, "_fit_core", recording)

            # Single-covariate fits run on value tables whatever the
            # cut-off, so they count as fits but not as pattern fits.
            def recording_pairs(builder, pairs, original=learn._fit_pairs):
                batched.extend(pairs)
                return original(builder, pairs)

            m.setattr(learn, "_fit_pairs", recording_pairs)
            if learner == "pkbic":
                dag, report = pk2_detailed(data, ordering, ScoreConfig())
            else:
                runner = or_ppgm_detailed if learner == "or_ppgm" else or_lpgm_detailed
                dag, report = runner(data, ordering, LearnConfig(alpha=0.01, m=2))
        return dag.edges, dataclasses.asdict(report.fits), sum(grouped), len(grouped) + len(batched)

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
    """Edge lists of the three learners on seeded table-1 data (p=10), and
    of OR-LPGM on tall simulated data, recorded from the node regressions with a free intercept (see
    countdag.glm._fit_core). Rounding-level solver changes must leave every
    edge in place."""

    EXPECTED = {
        ("scale_free", 100, 11): {
            "or_ppgm": [(2, 3), (4, 0), (5, 7)],
            "or_lpgm": [(2, 3), (4, 0), (5, 7)],
            "pkbic": [(2, 3), (4, 0), (5, 7)],
        },
        ("hub", 1000, 12): {
            "or_ppgm": [(0, 4), (1, 3), (2, 0), (5, 1), (6, 0), (7, 1), (7, 8), (9, 1)],
            "or_lpgm": [(0, 4), (1, 3), (2, 0), (5, 1), (6, 0), (7, 1), (7, 8), (9, 1)],
            "pkbic": [(0, 4), (1, 3), (2, 0), (5, 1), (6, 0), (7, 1), (7, 8), (9, 1)],
        },
        ("erdos_renyi", 1000, 13): {
            "or_ppgm": [
                (0, 8), (1, 9), (2, 4), (5, 2), (5, 6), (6, 9), (7, 2), (7, 6), (8, 3), (8, 4),
            ],
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

    # OR-LPGM on tall data: every fit wider than MOMENT_MAX_K here runs on
    # all 20,000 rows, more than one block of moments (MOMENT_BLOCK_ROWS).
    TALL = {
        ("hub", 12, 17): [
            (0, 4), (0, 8), (1, 3), (1, 5), (1, 7), (1, 9), (1, 11), (6, 0), (10, 0),
        ],
        ("scale_free", 10, 16): [
            (0, 1), (0, 3), (2, 1), (4, 3), (4, 9), (5, 1), (6, 2), (7, 5), (8, 4),
        ],
    }

    @pytest.mark.parametrize("kind, p, seed", sorted(TALL))
    def test_tall_or_lpgm_edges(self, kind, p, seed):
        from countdag.simulate import SimConfig, simulate

        _, ordering, data = simulate(SimConfig(graph_kind=kind, p=p, n=20000, seed=seed))
        dag = or_lpgm(data, ordering, LearnConfig(alpha_b=0.15))
        assert sorted(dag.edges) == self.TALL[(kind, p, seed)]

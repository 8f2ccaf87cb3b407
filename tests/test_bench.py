from dataclasses import replace

import numpy as np
import pytest

from countdag import bench, learn, scores
from countdag.bench import (
    Experiment,
    LearnerSpec,
    ReplicateRecord,
    _aggregate,
    experiment_from_dict,
    learner_from_dict,
    make_truth,
    parse_csv,
    pool_results,
    render_csv,
    render_text,
    run,
    run_replicate,
    table_rows,
)
from countdag.graphs import RecoveryMetrics, compare
from countdag.learn import LearnConfig, NodeFitter
from countdag.scores import ScoreConfig
from countdag.simulate import SimConfig, make_rng, sample_data


def hub_experiment(n=300, replicates=5, seed=17, learners=None):
    return Experiment(
        sim=SimConfig(graph_kind="hub", p=10, n=n, seed=seed),
        learners=learners
        or (
            LearnerSpec("oracle", "oracle"),
            LearnerSpec("empty", "empty"),
        ),
        replicates=replicates,
    )


def _outcome(result):
    """A run's records without their runtimes."""
    return [(r.replicate, r.learner, r.metrics, r.error) for r in result.records]


class TestRun:
    def test_oracle_learner_is_perfect(self):
        agg = run(hub_experiment()).aggregate()
        oracle = agg.summary("oracle")
        assert oracle.mean["f1"] == 1.0
        assert oracle.se["f1"] == 0.0
        assert oracle.failures == 0

    def test_empty_learner(self):
        agg = run(hub_experiment()).aggregate()
        empty = agg.summary("empty")
        assert empty.mean["tp"] == 0.0
        assert empty.mean["recall"] == 0.0
        assert empty.mean["f1"] == 0.0
        assert empty.mean["precision"] is None  # undefined in every replicate

    def test_seed_stability_across_runs_and_threads(self):
        for fixed_graph in (True, False):
            exp = Experiment(
                sim=SimConfig(graph_kind="hub", p=10, n=400, seed=17),
                learners=(
                    LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha_b=0.15)),
                    LearnerSpec("pkbic", "pkbic"),
                ),
                replicates=6,
                fixed_graph=fixed_graph,
            )
            base = run(exp)
            assert [r.replicate for r in base.records] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
            for other in (run(exp), run(exp, threads=4)):
                assert _outcome(other) == _outcome(base)
                assert other.truth == base.truth

    def test_fresh_graph_per_replicate_mode(self):
        exp = Experiment(
            sim=SimConfig(graph_kind="erdos_renyi", p=6, n=200, seed=3),
            learners=(LearnerSpec("oracle", "oracle"),),
            replicates=4,
            fixed_graph=False,
        )
        result = run(exp)
        assert len(result.truth) == 4
        assert len({tuple(sorted(w.dag.edges)) for w in result.truth}) > 1

    def test_failing_replicate_is_isolated(self, monkeypatch):
        import countdag.bench as bench_mod

        calls = {"count": 0}
        real = bench_mod.or_lpgm

        def flaky(data, ordering, cfg, fitter=None):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("synthetic failure")
            return real(data, ordering, cfg, fitter)

        monkeypatch.setattr(bench_mod, "or_lpgm", flaky)
        exp = hub_experiment(
            replicates=4,
            learners=(
                LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha=0.05)),
                LearnerSpec("oracle", "oracle"),
            ),
        )
        agg = run(exp).aggregate()
        assert agg.summary("or-lpgm").failures == 1
        assert agg.summary("or-lpgm").replicates_used == 3
        assert agg.summary("oracle").failures == 0
        assert agg.summary("oracle").mean["f1"] == 1.0

    def test_aborts_when_all_replicates_fail(self, monkeypatch):
        import countdag.bench as bench_mod

        def always_fail(data, ordering, cfg, fitter=None):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(bench_mod, "or_lpgm", always_fail)
        exp = hub_experiment(
            replicates=3,
            learners=(LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha=0.05)),),
        )
        with pytest.raises(RuntimeError, match="failed in all"):
            run(exp)

    def test_paper_value_hub_structure(self):
        # Fixed hub graph, p=10, n=1000, 50 replicates, schedule alpha,
        # m=8: the reported mean F1 for this protocol is 0.961; the wide
        # band covers random-instance variance in the regenerated graph.
        exp = Experiment(
            sim=SimConfig(graph_kind="hub", p=10, n=1000, seed=2024),
            learners=(
                LearnerSpec("or-ppgm", "or-ppgm", LearnConfig(alpha_b=0.15, m=8)),
            ),
            replicates=50,
        )
        f1 = run(exp).aggregate().summary("or-ppgm").mean["f1"]
        assert f1 == pytest.approx(0.961, abs=0.05)


class TestSharedFitter:
    """The learners of a replicate fit through one NodeFitter."""

    EXPERIMENT = Experiment(
        sim=SimConfig(graph_kind="erdos_renyi", p=10, n=200, seed=5),
        learners=(
            LearnerSpec("or-ppgm", "or-ppgm", LearnConfig(alpha_b=0.15, m=8)),
            LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha_b=0.15)),
            LearnerSpec("pkbic", "pkbic"),
            LearnerSpec("pkaic", "pkaic"),
        ),
        replicates=3,
        fixed_graph=False,
    )

    # PK2 without the floors that OR-LPGM's fits give it (see scores._nll_floor).
    PK2_FIRST = replace(EXPERIMENT, learners=EXPERIMENT.learners[2:] + EXPERIMENT.learners[:2])

    @pytest.fixture(scope="class")
    def serial(self):
        return run(self.EXPERIMENT)

    @staticmethod
    def _check_records_match_learners_run_alone(exp, records):
        specs = {spec.name: spec for spec in exp.learners}
        assert [r.error for r in records] == [None] * 12
        for r in range(exp.replicates):
            wdag, ordering = make_truth(exp, r)
            data = sample_data(wdag, ordering, exp.sim.n, exp.sim, make_rng(exp.sim.seed, 1, r))
            shared = NodeFitter(data)
            for rec in records[4 * r:4 * r + 4]:
                spec = specs[rec.learner]
                alone = spec.run(data, ordering, wdag.dag, NodeFitter(data))
                assert spec.run(data, ordering, wdag.dag, shared).edges == alone.edges
                assert rec.metrics == compare(alone, wdag.dag)

    def test_records_match_learners_run_alone(self, serial):
        self._check_records_match_learners_run_alone(self.EXPERIMENT, serial.records)

    def test_records_match_learners_run_alone_with_pk2_first(self):
        exp = self.PK2_FIRST
        assert [spec.name for spec in exp.learners] == ["pkbic", "pkaic", "or-ppgm", "or-lpgm"]
        self._check_records_match_learners_run_alone(exp, run(exp).records)

    def test_each_regression_is_fitted_once_per_replicate(self, monkeypatch):
        requested, attempted, tallies, own = [], [], [], []
        real_fit, real_core, real_pairs = NodeFitter.fit, learn._fit_core, learn._fit_pairs

        def fit(self, s, covariates, tally):
            requested.append((s, covariates))
            return real_fit(self, s, covariates, tally)

        def fit_core(*args):
            attempted.append(requested[-1])  # the request that missed the store
            return real_core(*args)

        def fit_pairs(builder, pairs):
            attempted.extend((s, (t,)) for s, t in pairs)  # fitted ahead of their requests
            return real_pairs(builder, pairs)

        def detailed(runner):
            def run_learner(data, ordering, cfg, fitter=None):
                start = len(requested)
                dag, report = runner(data, ordering, cfg, fitter)
                tallies.append(report.fits.fits)
                own.append(len(set(requested[start:])))
                return dag
            return run_learner

        monkeypatch.setattr(NodeFitter, "fit", fit)
        monkeypatch.setattr(learn, "_fit_core", fit_core)
        monkeypatch.setattr(learn, "_fit_pairs", fit_pairs)
        monkeypatch.setattr(bench, "or_ppgm", detailed(learn.or_ppgm_detailed))
        monkeypatch.setattr(bench, "or_lpgm", detailed(learn.or_lpgm_detailed))
        monkeypatch.setattr(bench, "pk2", detailed(scores.pk2_detailed))
        _, records = run_replicate(self.EXPERIMENT, None, 0)
        assert [rec.error for rec in records] == [None] * 4 and len(tallies) == 4
        assert len(attempted) == len(set(attempted)) == len(set(requested))
        assert sum(tallies) == len(attempted) < sum(own)  # no singular fit; fits were shared

    def test_workers_return_the_serial_records(self, serial):
        assert _outcome(run(self.EXPERIMENT, threads=2)) == _outcome(serial)


class TestLearnerSpec:
    @pytest.mark.parametrize(
        "algo, config",
        [
            ("pkbic", LearnConfig(alpha=0.01)),
            ("pkaic", LearnConfig(alpha=0.01)),
            ("or-ppgm", ScoreConfig()),
            ("or-lpgm", None),
            ("oracle", LearnConfig(alpha=0.01)),
            ("empty", ScoreConfig()),
        ],
    )
    def test_rejects_a_config_the_algorithm_does_not_take(self, algo, config):
        with pytest.raises(ValueError):
            LearnerSpec("x", algo, config)

    def test_score_criterion_follows_the_algorithm(self):
        assert LearnerSpec("x", "pkbic").config == ScoreConfig("bic")
        spec = LearnerSpec("x", "pkaic", ScoreConfig("bic", max_parents=2))
        assert spec.config == ScoreConfig("aic", max_parents=2)


class TestAggregation:
    def make_records(self, pr_pairs):
        records = []
        for i, (tp, fp, fn) in enumerate(pr_pairs):
            records.append(
                ReplicateRecord(i, "L", RecoveryMetrics(tp=tp, fp=fp, fn=fn), 0.0)
            )
        return records

    def test_means_are_per_replicate_averages(self):
        # Replicates with (P, R) = (1, 1) and (1, 0.5): mean F1 is the
        # average of per-replicate F1s, not the harmonic mean of the
        # averaged P and R.
        records = self.make_records([(4, 0, 0), (2, 0, 2)])
        agg = _aggregate(records, ["L"], n=1, p=4, label="x", replicates=2)
        summary = agg.summary("L")
        per_replicate_f1 = (1.0 + 2 * 1.0 * 0.5 / 1.5) / 2
        assert summary.mean["f1"] == pytest.approx(per_replicate_f1)
        pooled_p, pooled_r = summary.mean["precision"], summary.mean["recall"]
        harmonic = 2 * pooled_p * pooled_r / (pooled_p + pooled_r)
        assert summary.mean["f1"] < harmonic

    def test_undefined_precision_excluded(self):
        records = self.make_records([(0, 0, 3), (3, 0, 0)])
        agg = _aggregate(records, ["L"], n=1, p=3, label="x", replicates=2)
        summary = agg.summary("L")
        assert summary.mean["precision"] == 1.0  # only the defined replicate
        assert summary.mean["f1"] == 0.5

    def test_pooling_concatenates_records(self):
        exp1 = hub_experiment(replicates=3, seed=1)
        exp2 = hub_experiment(replicates=4, seed=2)
        pooled = pool_results([run(exp1), run(exp2)], label="both")
        assert pooled.replicates == 7
        assert pooled.summary("oracle").replicates_used == 7


class TestTableReport:
    def test_empty_results_render_header_only(self):
        text = render_text(table_rows([]))
        assert text.splitlines()[0].split() == ["n", "Algorithm", "TP", "FP", "FN", "P", "R", "F1"]
        assert len(text.splitlines()) == 1

    def test_single_row_three_decimals(self):
        agg = run(hub_experiment(replicates=2)).aggregate()
        rows = table_rows([agg])
        text = render_text(rows)
        oracle_line = [l for l in text.splitlines() if "oracle" in l][0]
        assert "1.000" in oracle_line

    def test_csv_round_trip(self):
        agg = run(
            hub_experiment(
                replicates=3,
                learners=(
                    LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha=0.05)),
                    LearnerSpec("empty", "empty"),
                ),
            )
        ).aggregate()
        rows = table_rows([agg])
        assert parse_csv(render_csv(rows)) == rows


class TestExperimentJson:
    def test_full_config(self):
        exp = experiment_from_dict(
            {
                "seed": 5,
                "replicates": 7,
                "fixed_graph": False,
                "sim": {"graph_kind": "hub", "p": 10, "n": 250, "hub_count": 2},
                "learners": [
                    {"name": "a", "algo": "or-ppgm", "alpha_b": 0.15, "m": 8},
                    {"name": "b", "algo": "or-lpgm", "alpha": 0.01},
                    {"name": "c", "algo": "pkbic", "max_parents": 4},
                    {"name": "d", "algo": "pkaic"},
                    {"name": "e", "algo": "oracle"},
                ],
            }
        )
        assert exp.replicates == 7
        assert not exp.fixed_graph
        assert exp.sim.seed == 5
        assert isinstance(exp.learners[0].config, LearnConfig)
        assert exp.learners[2].config == ScoreConfig("bic", max_parents=4)
        assert exp.learners[3].config.criterion == "aic"

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="unknown learner algorithm"):
            experiment_from_dict(
                {
                    "seed": 1,
                    "sim": {"graph_kind": "hub", "p": 4, "n": 10, "hub_count": 2},
                    "learners": [{"name": "x", "algo": "gesundheit"}],
                }
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            experiment_from_dict(
                {
                    "seed": 1,
                    "sim": {"graph_kind": "hub", "p": 4, "n": 10, "bogus": 1},
                    "learners": [{"name": "x", "algo": "oracle"}],
                }
            )
        with pytest.raises(ValueError, match=r"unknown keys \['alpha'\]"):
            experiment_from_dict(
                {
                    "seed": 1,
                    "sim": {"graph_kind": "hub", "p": 4, "n": 10, "hub_count": 2},
                    "learners": [{"name": "x", "algo": "oracle", "alpha": 0.05}],
                }
            )
        with pytest.raises(ValueError, match=r"unknown keys \['m'\]"):
            learner_from_dict({"algo": "or_lpgm", "alpha": 0.05, "m": 2})  # or_ppgm's key
        with pytest.raises(ValueError, match=r"unknown keys \['max_iter'\]"):
            learner_from_dict({"algo": "pkbic", "max_iter": 0})  # solver limits are fixed
        with pytest.raises(ValueError, match=r"unknown keys \['threads'\]"):
            experiment_from_dict(
                {
                    "seed": 1,
                    "sim": {"graph_kind": "hub", "p": 4, "n": 10, "hub_count": 2},
                    "learners": [{"name": "x", "algo": "or-ppgm", "alpha": 0.05, "threads": 2}],
                }
            )

    @pytest.mark.parametrize("top, sim, learner, message", [
        ({"fixed_graph": "false"}, {}, {}, "'fixed_graph' must be a boolean, got 'false'"),
        ({"fixed_graph": 0}, {}, {}, "'fixed_graph' must be a boolean, got 0"),
        ({"replicates": 2.7}, {}, {}, "'replicates' must be an integer, got 2.7"),
        ({"replicates": True}, {}, {}, "'replicates' must be an integer, got True"),
        ({"replicates": "3"}, {}, {}, "'replicates' must be an integer, got '3'"),
        ({"seed": 2.5}, {}, {}, "'seed' must be an integer, got 2.5"),
        ({}, {"p": 4.5}, {}, "'p' must be an integer, got 4.5"),
        ({}, {"n": 50.5}, {}, "'n' must be an integer, got 50.5"),
        ({}, {"hub_count": True}, {}, "'hub_count' must be an integer, got True"),
        ({}, {}, {"algo": "or-ppgm", "alpha": 0.05, "m": 1.5},
         "learner 'x': 'm' must be an integer, got 1.5"),
        ({}, {}, {"algo": "pkbic", "max_parents": 1.5},
         "learner 'x': 'max_parents' must be an integer, got 1.5"),
        ({}, {"er_gamma": True}, {}, "'er_gamma' must be a number, got True"),
        ({}, {"root_log_rate": False}, {}, "'root_log_rate' must be a number, got False"),
        ({}, {"sf_zero_appeal": True}, {}, "'sf_zero_appeal' must be a number, got True"),
        ({}, {}, {"algo": "or-ppgm", "alpha": True},
         "learner 'x': 'alpha' must be a number, got True"),
    ])
    def test_json_types_are_strict(self, top, sim, learner, message):
        obj = {
            "seed": 1,
            "sim": {"graph_kind": "hub", "p": 4, "n": 10, "hub_count": 2, **sim},
            "learners": [{"name": "x", "algo": "oracle", **learner}],
            **top,
        }
        with pytest.raises(ValueError) as info:
            experiment_from_dict(obj)
        assert str(info.value) == message

    def test_json_null_where_a_field_allows_none(self):
        exp = experiment_from_dict({
            "seed": 1,
            "fixed_graph": False,
            "sim": {"graph_kind": "hub", "p": 4, "n": 10, "hub_count": 2},
            "learners": [{"name": "x", "algo": "or-ppgm", "alpha": 0.05, "m": None},
                         {"name": "y", "algo": "pkbic", "max_parents": None}],
        })
        assert exp.learners[0].config.m is None and exp.learners[1].config.max_parents is None
        assert exp.fixed_graph is False and exp.replicates == 50
        with pytest.raises(ValueError, match="'p' must be an integer, got None"):
            experiment_from_dict({"seed": 1, "sim": {"graph_kind": "hub", "p": None, "n": 10},
                                  "learners": [{"name": "x", "algo": "oracle"}]})

    def test_json_integer_where_a_field_is_float(self):
        exp = experiment_from_dict({
            "seed": 1,
            "sim": {"graph_kind": "erdos_renyi", "p": 4, "n": 10, "er_gamma": 1,
                    "root_log_rate": 0, "sf_zero_appeal": 3},
            "learners": [{"name": "x", "algo": "or-ppgm", "alpha_b": 0.25}],
        })
        assert (exp.sim.er_gamma, exp.sim.root_log_rate, exp.sim.sf_zero_appeal) == (1, 0, 3)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            experiment_from_dict(
                {
                    "seed": 1,
                    "sim": {"graph_kind": "hub", "p": 4, "n": 10, "hub_count": 2},
                    "learners": [
                        {"name": "x", "algo": "oracle"},
                        {"name": "x", "algo": "empty"},
                    ],
                }
            )

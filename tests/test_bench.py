import numpy as np
import pytest

from countdag.bench import (
    Experiment,
    LearnerSpec,
    ReplicateRecord,
    _aggregate,
    experiment_from_dict,
    learner_from_dict,
    parse_csv,
    pool_results,
    render_csv,
    render_text,
    run,
    table_rows,
)
from countdag.graphs import RecoveryMetrics
from countdag.learn import LearnConfig
from countdag.scores import ScoreConfig
from countdag.simulate import SimConfig


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
        def outcome(result):
            return [(r.replicate, r.learner, r.metrics, r.error) for r in result.records]

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
                assert outcome(other) == outcome(base)
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

        def flaky(data, ordering, cfg):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("synthetic failure")
            return real(data, ordering, cfg)

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

        def always_fail(data, ordering, cfg):
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

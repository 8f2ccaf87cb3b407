import math

import numpy as np
import pytest
from scipy import stats

from countdag.graphs import Dag, GraphError, Ordering, is_consistent
from countdag.simulate import (
    RowRejectionLimit,
    SimConfig,
    WeightedDag,
    gen_graph,
    gen_weights,
    make_rng,
    sample_data,
    simulate,
)


def cfg_for(kind, p, n=100, seed=0, **kw):
    return SimConfig(graph_kind=kind, p=p, n=n, seed=seed, **kw)


class TestGenGraph:
    def test_er_gamma_one_is_complete(self):
        dag, ordering = gen_graph(cfg_for("erdos_renyi", 4, er_gamma=1.0), make_rng(1))
        assert dag.edge_count == 6
        assert is_consistent(dag, ordering)

    def test_hub_edge_count(self):
        dag, _ = gen_graph(cfg_for("hub", 10, hub_count=2), make_rng(2))
        assert dag.edge_count == 8
        # every non-hub node touches exactly one hub
        for j in range(2, 10):
            incident = [e for e in dag.edges if j in e]
            assert len(incident) == 1
            other = incident[0][0] if incident[0][1] == j else incident[0][1]
            assert other in (0, 1)

    def test_scale_free_is_tree(self):
        dag, _ = gen_graph(cfg_for("scale_free", 10), make_rng(3))
        assert dag.edge_count == 9

    def test_all_kinds_consistent_with_ordering(self):
        for seed in range(30):
            for kind in ("scale_free", "hub", "erdos_renyi"):
                dag, ordering = gen_graph(cfg_for(kind, 8), make_rng(100 + seed))
                assert is_consistent(dag, ordering)

    def test_er_edge_count_calibration(self):
        counts = [
            gen_graph(cfg_for("erdos_renyi", 10, er_gamma=0.2), make_rng(10_000 + s))[0].edge_count
            for s in range(500)
        ]
        se = math.sqrt(45 * 0.2 * 0.8 / 500)
        assert abs(np.mean(counts) - 9.0) <= 3 * se

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            cfg_for("erdos_renyi", 5, er_gamma=1.5)
        with pytest.raises(ValueError):
            cfg_for("hub", 5, hub_count=6)
        with pytest.raises(ValueError):
            cfg_for("triangle", 5)
        for key, value in [
            ("sf_zero_appeal", 0.0), ("sf_zero_appeal", -1.0), ("sf_zero_appeal", math.nan),
            ("sf_zero_appeal", math.inf), ("sf_power", -1.0), ("sf_power", math.nan),
            ("root_log_rate", math.nan), ("root_log_rate", -math.inf),
        ]:
            with pytest.raises(ValueError, match=key):
                cfg_for("scale_free", 5, **{key: value})
        for kind in ("hub", "erdos_renyi"):
            with pytest.raises(ValueError, match="root_log_rate"):
                cfg_for(kind, 5, root_log_rate=math.nan)
            cfg_for(kind, 5, sf_power=-1.0, sf_zero_appeal=0.0)  # read by scale_free only

    def test_scale_free_edge_values_accepted(self):
        dag, _ = gen_graph(cfg_for("scale_free", 6, sf_power=0.0, sf_zero_appeal=1e-3),
                           make_rng(7))
        assert dag.edge_count == 5


class TestGenWeights:
    def test_empty_dag_empty_weights(self):
        wdag = gen_weights(Dag(3), make_rng(4))
        assert wdag.weights == {}

    def test_weights_in_support(self):
        dag, _ = gen_graph(cfg_for("erdos_renyi", 12, er_gamma=0.5), make_rng(5))
        wdag = gen_weights(dag, make_rng(6))
        assert set(wdag.weights) == set(dag.edges)
        assert all(-0.5 <= w <= 0.5 for w in wdag.weights.values())

    def test_weight_mean_is_centered(self):
        # 1e5 U(-0.5, 0.5) draws: |mean| < 3 * 0.2887/sqrt(1e5) < 0.005
        dag = Dag(2, {(0, 1)})
        rng = make_rng(7)
        draws = [gen_weights(dag, rng).weights[(0, 1)] for _ in range(100_000)]
        assert abs(np.mean(draws)) < 0.005

    def test_weights_must_match_edges(self):
        with pytest.raises(Exception):
            WeightedDag(Dag(2, {(0, 1)}), {})


class TestSampleData:
    def test_empty_graph_unit_poisson(self):
        cfg = cfg_for("erdos_renyi", 3, n=100_000, er_gamma=0.0)
        wdag = WeightedDag(Dag(3), {})
        data = sample_data(wdag, Ordering((0, 1, 2)), cfg.n, cfg, make_rng(8))
        means = data.values.mean(axis=0)
        variances = data.values.var(axis=0)
        assert np.abs(means - 1.0).max() < 0.02
        assert np.abs(variances - means).max() < 0.05

    def test_single_edge_mgf_identity(self):
        # E[X_child] = E[exp(0.5 X_parent)] = exp(e^0.5 - 1) for X_parent ~ Pois(1)
        cfg = cfg_for("erdos_renyi", 2, n=1_000_000, er_gamma=0.0)
        wdag = WeightedDag(Dag(2, {(0, 1)}), {(0, 1): 0.5})
        data = sample_data(wdag, Ordering((0, 1)), cfg.n, cfg, make_rng(9))
        assert data.values[:, 1].mean() == pytest.approx(
            math.exp(math.exp(0.5) - 1.0), abs=0.01
        )

    def test_root_log_rate(self):
        cfg = cfg_for("erdos_renyi", 1, n=200_000, er_gamma=0.0,
                      root_log_rate=math.log(5.0))
        data = sample_data(WeightedDag(Dag(1), {}), Ordering((0,)), cfg.n, cfg, make_rng(10))
        assert data.values[:, 0].mean() == pytest.approx(5.0, abs=0.03)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 4.0, 50.0])
    def test_poisson_goodness_of_fit(self, lam):
        cfg = cfg_for("erdos_renyi", 1, n=100_000, er_gamma=0.0,
                      root_log_rate=math.log(lam))
        data = sample_data(WeightedDag(Dag(1), {}), Ordering((0,)), cfg.n, cfg,
                           make_rng(int(lam * 100)))
        draws = data.values[:, 0]
        assert _poisson_gof_pvalue(draws, lam) >= 0.001

    def test_inconsistent_ordering_rejected(self):
        wdag = WeightedDag(Dag(2, {(0, 1)}), {(0, 1): 0.3})
        cfg = cfg_for("erdos_renyi", 2, er_gamma=0.0)
        with pytest.raises(Exception):
            sample_data(wdag, Ordering((1, 0)), 10, cfg, make_rng(11))

    @pytest.mark.parametrize("ordering", [(1, 0), (0, 1, 2)])
    def test_inconsistent_or_wrongly_sized_graph_is_graph_error(self, ordering):
        wdag = WeightedDag(Dag(2, {(0, 1)}), {(0, 1): 0.3})
        cfg = cfg_for("erdos_renyi", 2, er_gamma=0.0)
        with pytest.raises(GraphError):
            sample_data(wdag, Ordering(ordering), 10, cfg, make_rng(11))

    def test_explosive_weights_raise(self):
        cfg = cfg_for("erdos_renyi", 2, n=200, er_gamma=0.0,
                      root_log_rate=math.log(10.0))
        wdag = WeightedDag(Dag(2, {(0, 1)}), {(0, 1): 5.0})
        with pytest.raises(RowRejectionLimit):
            sample_data(wdag, Ordering((0, 1)), cfg.n, cfg, make_rng(12))

    def test_mild_overflow_rejection_is_tolerated(self):
        # threshold low enough to clip the occasional row but stay under 10%
        cfg = cfg_for("erdos_renyi", 2, n=5000, er_gamma=0.0, overflow_threshold=30)
        wdag = WeightedDag(Dag(2, {(0, 1)}), {(0, 1): 0.5})
        data = sample_data(wdag, Ordering((0, 1)), cfg.n, cfg, make_rng(13))
        assert data.values.max() <= 30
        assert data.n == 5000


def _poisson_gof_pvalue(draws, lam, min_expected=5.0):
    n = len(draws)
    upper = int(stats.poisson.ppf(1 - 1e-9, lam)) + 1
    pmf = stats.poisson.pmf(np.arange(upper + 1), lam)
    observed = np.bincount(draws, minlength=upper + 1)[: upper + 1].astype(float)
    # lump bins until every expected count is large enough
    expected = pmf * n
    obs_l, exp_l = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_l.append(acc_o)
            exp_l.append(acc_e)
            acc_o = acc_e = 0.0
    obs_l[-1] += acc_o
    exp_l[-1] += acc_e + (n - sum(expected))  # fold the far tail in
    stat = float(np.sum((np.array(obs_l) - np.array(exp_l)) ** 2 / np.array(exp_l)))
    return float(stats.chi2.sf(stat, df=len(obs_l) - 1))


class TestReproducibility:
    def test_simulate_is_bit_identical(self):
        cfg = cfg_for("scale_free", 10, n=500, seed=99)
        w1, o1, d1 = simulate(cfg)
        w2, o2, d2 = simulate(cfg)
        assert w1.dag == w2.dag
        assert w1.weights == w2.weights
        assert o1 == o2
        assert np.array_equal(d1.values, d2.values)

    def test_different_seeds_differ(self):
        d1 = simulate(cfg_for("erdos_renyi", 6, n=50, seed=1))[2]
        d2 = simulate(cfg_for("erdos_renyi", 6, n=50, seed=2))[2]
        assert not np.array_equal(d1.values, d2.values)

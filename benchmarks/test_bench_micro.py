"""Per-call timing of one table-1 replicate through bench.run_replicate,
and of PK2 on one replicate's data (pytest-benchmark).

A replicate of the pooled Table-1 run at n = 100 (p = 10, one graph of
each kind): it samples the data, then runs OR-PPGM, OR-LPGM and PKBIC in
that order, all fitting through the replicate's one NodeFitter, and scores
each estimate. PKBIC and OR-LPGM reuse the fits OR-PPGM already made on
the data rather than making their own, and PKBIC ends a child's forward
phase without fitting a candidate once OR-LPGM's fit of the child on all
its precedents shows that none can lower its score (see scores._nll_floor).
The PK2 cases time PKBIC alone on the erdos_renyi replicate's data, through
a new NodeFitter ("alone") and through one that already holds OR-LPGM's
fits, made afresh before each call ("after_or_lpgm"); their gap is what
the floor and OR-LPGM's cached fits save. The PKAIC case times PKAIC
alone on the data of Criterion 2's erdos_renyi replicate 0 (p = 100,
n = 500), where nearly every forward candidate is skipped by its dual
bound (see scores._pk2_parents); its untimed pass checks the edge set
against a digest of the one PKAIC finds when it fits every candidate. Timed with

    python -m pytest benchmarks/test_bench_micro.py --benchmark-only
"""
import hashlib

import pytest

from countdag.bench import Experiment, LearnerSpec, make_truth, run_replicate
from countdag.learn import LearnConfig, NodeFitter, or_lpgm
from countdag.scores import ScoreConfig, pk2
from countdag.simulate import SimConfig, make_rng, sample_data

KINDS = ["scale_free", "hub", "erdos_renyi"]
LEARNERS = (
    LearnerSpec("or_ppgm", "or-ppgm", LearnConfig(alpha_b=0.15, m=8)),
    LearnerSpec("or_lpgm", "or-lpgm", LearnConfig(alpha_b=0.15)),
    LearnerSpec("pkbic", "pkbic"),
)


def _experiment(kind):
    return Experiment(
        sim=SimConfig(graph_kind=kind, p=10, n=100, seed=2993),
        learners=LEARNERS,
        replicates=1,
        fixed_graph=False,
    )


@pytest.mark.parametrize("kind", KINDS)
def test_run_replicate(benchmark, kind):
    _, records = benchmark(run_replicate, _experiment(kind), None, 0)
    assert [rec.error for rec in records] == [None, None, None]


@pytest.mark.parametrize("prior", ["alone", "after_or_lpgm"])
def test_pk2(benchmark, prior):
    exp = _experiment("erdos_renyi")
    wdag, ordering = make_truth(exp, 0)
    data = sample_data(wdag, ordering, exp.sim.n, exp.sim, make_rng(exp.sim.seed, 1, 0))
    expected = pk2(data, ordering, ScoreConfig("bic"))

    def fresh():
        fitter = NodeFitter(data)
        if prior == "after_or_lpgm":
            or_lpgm(data, ordering, LEARNERS[1].config, fitter=fitter)
        return (data, ordering, ScoreConfig("bic"), fitter), {}

    assert benchmark.pedantic(pk2, setup=fresh, rounds=50) == expected


def test_pkaic_p100(benchmark):
    sim = SimConfig(graph_kind="erdos_renyi", p=100, n=500, seed=2993, er_gamma=0.02)
    exp = Experiment(sim=sim, learners=(LearnerSpec("pkaic", "pkaic"),), replicates=1)
    wdag, ordering = make_truth(exp, 0)
    data = sample_data(wdag, ordering, sim.n, sim, make_rng(sim.seed, 1, 0))
    dag = benchmark.pedantic(pk2, args=(data, ordering, ScoreConfig("aic")), rounds=5)
    edges = sorted((int(t), int(s)) for t, s in dag.edges)
    assert len(edges) == 805
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == (
        "b7e801302e2bb15e7bc00e4c286e3a3abf08bc56adfb943c06355ad10e862fac"
    )

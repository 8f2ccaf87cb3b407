"""Per-call timing of one table-1 replicate through bench.run_replicate
(pytest-benchmark).

A replicate of the pooled Table-1 run at n = 100 (p = 10, one graph of
each kind): it samples the data, then runs OR-PPGM, OR-LPGM and PKBIC in
that order, all fitting through the replicate's one NodeFitter, and scores
each estimate. PKBIC and OR-LPGM reuse the fits OR-PPGM already made on
the data rather than making their own. Timed with

    python -m pytest benchmarks/test_bench_micro.py --benchmark-only
"""
import pytest

from countdag.bench import Experiment, LearnerSpec, run_replicate
from countdag.learn import LearnConfig
from countdag.simulate import SimConfig

KINDS = ["scale_free", "hub", "erdos_renyi"]
LEARNERS = (
    LearnerSpec("or_ppgm", "or-ppgm", LearnConfig(alpha_b=0.15, m=8)),
    LearnerSpec("or_lpgm", "or-lpgm", LearnConfig(alpha_b=0.15)),
    LearnerSpec("pkbic", "pkbic"),
)


@pytest.mark.parametrize("kind", KINDS)
def test_run_replicate(benchmark, kind):
    exp = Experiment(
        sim=SimConfig(graph_kind=kind, p=10, n=100, seed=2993),
        learners=LEARNERS,
        replicates=1,
        fixed_graph=False,
    )
    _, records = benchmark(run_replicate, exp, None, 0)
    assert [rec.error for rec in records] == [None, None, None]

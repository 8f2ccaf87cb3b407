"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte-Carlo
criteria regenerate benchmark graphs from the documented generator
parameters with fixed seeds; tolerances are wide because the original
benchmark's exact graph instances are not published, so any regenerated
instance carries its own weight draw.
"""
import math

import numpy as np
import pytest

from countdag.bench import (
    Experiment,
    LearnerSpec,
    ReplicateRecord,
    _aggregate,
    pool_results,
    run,
)
from countdag.data import CountMatrix
from countdag.glm import fisher_information, fit, gradient, nll, wald
from countdag.graphs import Dag, Ordering, RecoveryMetrics, compare
from countdag.learn import LearnConfig
from countdag.scores import ScoreConfig, exhaustive_search, pk2_detailed
from countdag.simulate import SimConfig, WeightedDag, make_rng, sample_data, simulate

from .test_glm import _central_difference, _fd_hessian, grid_oracle, random_instance
from .test_learners import sample_recursive
from .test_simulate import _poisson_gof_pvalue

SEED_TABLE1 = 2993
SEED_TABLE2 = 2993
SEED_TREND = 2993


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {k}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _p10_learners():
    return (
        LearnerSpec("or-ppgm", "or-ppgm", LearnConfig(alpha_b=0.15, m=8)),
        LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha_b=0.15)),
        LearnerSpec("pkbic", "pkbic"),
    )


def _pooled_p10(n: int, replicates: int = 50):
    results = []
    for kind in ("scale_free", "hub", "erdos_renyi"):
        sim = SimConfig(graph_kind=kind, p=10, n=n, seed=SEED_TABLE1)
        results.append(
            run(Experiment(sim=sim, learners=_p10_learners(), replicates=replicates), threads=4)
        )
    return pool_results(results)


class TestCriterion1:
    def test_table1_desk_scale(self):
        bands = {
            1000: {"or-ppgm": (0.961, 0.05), "or-lpgm": (0.959, 0.05), "pkbic": (0.964, 0.05)},
            100: {"or-ppgm": (0.625, 0.08), "or-lpgm": (0.669, 0.08), "pkbic": (0.678, 0.08)},
        }
        details = []
        ok = True
        for n, expected in bands.items():
            pooled = _pooled_p10(n)
            for name, (target, tol) in expected.items():
                f1 = pooled.summary(name).mean["f1"]
                ok &= abs(f1 - target) <= tol
                details.append(f"n={n} {name} F1={f1:.3f} (target {target}±{tol})")
        _report(1, ok, "; ".join(details))


class TestCriterion2:
    def test_table2_spot_check(self):
        learners = (
            LearnerSpec("or-ppgm", "or-ppgm", LearnConfig(alpha_b=0.2, m=3)),
            LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha_b=0.2)),
        )
        sims = (
            SimConfig(graph_kind="scale_free", p=100, n=500, seed=SEED_TABLE2),
            SimConfig(graph_kind="hub", p=100, n=500, seed=SEED_TABLE2, hub_count=5),
            SimConfig(graph_kind="erdos_renyi", p=100, n=500, seed=SEED_TABLE2, er_gamma=0.02),
        )
        results = [
            run(Experiment(sim=sim, learners=learners, replicates=10), threads=4)
            for sim in sims
        ]
        pooled = pool_results(results)
        pp = pooled.summary("or-ppgm").mean
        lp = pooled.summary("or-lpgm").mean
        ok = (
            pp["precision"] >= 0.90
            and abs(pp["recall"] - 0.625) <= 0.10
            and lp["precision"] >= 0.90
        )
        _report(
            2,
            ok,
            f"or-ppgm P={pp['precision']:.3f} (>=0.90) R={pp['recall']:.3f} "
            f"(0.625±0.10); or-lpgm P={lp['precision']:.3f} (>=0.90)",
        )


class TestCriterion3:
    def test_consistency_trend(self):
        rows = []
        for n in (100, 500, 1000, 5000):
            sim = SimConfig(graph_kind="erdos_renyi", p=10, n=n, seed=SEED_TREND)
            exp = Experiment(
                sim=sim,
                learners=(LearnerSpec("or-ppgm", "or-ppgm", LearnConfig(alpha_b=0.15, m=8)),),
                replicates=20,
            )
            summary = run(exp, threads=4).aggregate().summary("or-ppgm")
            rows.append((n, summary.mean["f1"], summary.se["f1"]))
        ok = True
        for (_, f1a, se_a), (_, f1b, se_b) in zip(rows, rows[1:]):
            ok &= f1b >= f1a - math.sqrt(se_a**2 + se_b**2)
        _report(3, ok, " -> ".join(f"F1(n={n})={f1:.3f}±{se:.3f}" for n, f1, se in rows))


class TestCriterion4:
    def test_wald_calibration(self):
        N, n = 2000, 500
        rng = np.random.default_rng(424242)
        zs = np.empty(N)
        for i in range(N):
            x = rng.poisson(1.0, size=n).astype(float)
            y = rng.poisson(1.0, size=n).astype(float)
            result = fit(y, x[:, None])
            zs[i] = wald(result, 0, n)
        details = []
        ok = True
        for alpha in (0.05, 0.01):
            from statistics import NormalDist

            crit = -NormalDist().inv_cdf(alpha / 2)
            rate = float(np.mean(np.abs(zs) > crit))
            tol = 3 * math.sqrt(alpha * (1 - alpha) / N)
            ok &= abs(rate - alpha) <= tol
            details.append(f"alpha={alpha}: rate={rate:.4f} (±{tol:.4f})")
        _report(4, ok, "; ".join(details))


class TestCriterion5:
    def test_numerical_core(self):
        rng = np.random.default_rng(5150)
        grad_ok = fisher_ok = psd_ok = grid_ok = 0
        grad_n = 100
        for _ in range(grad_n):
            theta, y, X = random_instance(rng)
            g = gradient(theta, y, X)
            fd = _central_difference(lambda t: nll(t, y, X), theta)
            grad_ok += np.abs(g - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-6
        fisher_n = 40
        for _ in range(fisher_n):
            theta, y, X = random_instance(rng)
            J = fisher_information(theta, y, X)
            H = _fd_hessian(lambda t: nll(t, y, X), theta)
            fisher_ok += np.abs(J - H).max() < 1e-5
        fits = 0
        grid_n = 0
        for _ in range(40):
            _, y, X = random_instance(rng, k_max=1)
            result = fit(y, X)
            fits += 1
            psd_ok += np.linalg.eigvalsh(result.fisher).min() >= -1e-8
            if result.diverged.any():
                continue
            oracle = grid_oracle(y, X[:, 0])
            if abs(oracle) > 1.95:
                continue
            grid_n += 1
            grid_ok += abs(result.theta[0] - oracle) < 1e-4
        ok = grad_ok == grad_n and fisher_ok == fisher_n and psd_ok == fits and grid_ok == grid_n
        _report(
            5,
            ok,
            f"gradient FD {grad_ok}/{grad_n}; fisher FD {fisher_ok}/{fisher_n}; "
            f"PSD {psd_ok}/{fits}; grid oracle {grid_ok}/{grid_n}",
        )


class TestCriterion6:
    def test_pkbic_matches_exhaustive_minimum(self):
        matches = 0
        total = 50
        for seed in range(total):
            rng = np.random.default_rng(60_000 + seed)
            sign_a = 1.0 if seed % 2 == 0 else -1.0
            sign_b = 1.0 if seed % 3 == 0 else -1.0
            weights = {(0, 1): 0.5 * sign_a, (1, 2): 0.5 * sign_b}
            data = sample_recursive(list(weights), weights, 3, 2000, rng)
            ordering = Ordering((0, 1, 2))
            _, report = pk2_detailed(data, ordering, ScoreConfig("bic"))
            _, best_total = exhaustive_search(data, ordering, ScoreConfig("bic"))
            matches += math.isclose(report.total_score, best_total, abs_tol=1e-6)
        ok = matches >= 45
        _report(6, ok, f"greedy total score equals exhaustive minimum in {matches}/{total}")


class TestCriterion7:
    def test_simulator_fidelity(self):
        # single-edge mean identity
        cfg = SimConfig(graph_kind="erdos_renyi", p=2, n=1_000_000, seed=7, er_gamma=0.0)
        wdag = WeightedDag(Dag(2, {(0, 1)}), {(0, 1): 0.5})
        data = sample_data(wdag, Ordering((0, 1)), cfg.n, cfg, make_rng(7))
        child_mean = float(data.values[:, 1].mean())
        target = math.exp(math.exp(0.5) - 1.0)
        mgf_ok = abs(child_mean - target) <= 0.01

        # goodness of fit of the count sampler
        gof_ok = True
        for lam in (0.5, 1.0, 4.0, 50.0):
            c = SimConfig(
                graph_kind="erdos_renyi", p=1, n=100_000, seed=int(lam * 10) + 1,
                er_gamma=0.0, root_log_rate=math.log(lam),
            )
            draws = sample_data(
                WeightedDag(Dag(1), {}), Ordering((0,)), c.n, c, make_rng(c.seed)
            ).values[:, 0]
            gof_ok &= _poisson_gof_pvalue(draws, lam) >= 0.001

        # byte-identical across runs and thread counts
        sim = SimConfig(graph_kind="hub", p=10, n=400, seed=99)
        w1, o1, d1 = simulate(sim)
        w2, o2, d2 = simulate(sim)
        stable = (
            w1.dag == w2.dag
            and w1.weights == w2.weights
            and o1 == o2
            and np.array_equal(d1.values, d2.values)
        )
        exp = Experiment(
            sim=sim,
            learners=(LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha=0.05)),),
            replicates=6,
        )
        a = run(exp, threads=1).aggregate().summary("or-lpgm")
        b = run(exp, threads=4).aggregate().summary("or-lpgm")
        stable &= a.mean == b.mean and a.se == b.se

        ok = mgf_ok and gof_ok and stable
        _report(
            7,
            ok,
            f"child mean {child_mean:.4f} vs {target:.4f} (±0.01); GoF "
            f"{'ok' if gof_ok else 'FAIL'}; seed/thread stability "
            f"{'ok' if stable else 'FAIL'}",
        )


class TestCriterion8:
    def test_per_replicate_averaging_semantics(self):
        # Per-replicate (P, R) = (1.0, 0.8) and (1.0, 0.964) on 250-edge
        # references: P and R average to (1.000, 0.882) while mean F1 stays
        # strictly below the harmonic mean of the averaged P and R.
        records = []
        for i, tp in enumerate((200, 241)):
            records.append(
                ReplicateRecord(i, "L", RecoveryMetrics(tp=tp, fp=0, fn=250 - tp), 0.0)
            )
        agg = _aggregate(records, ["L"], n=2000, p=100, label="pin", replicates=2)
        summary = agg.summary("L")
        mean_p, mean_r = summary.mean["precision"], summary.mean["recall"]
        harmonic = 2 * mean_p * mean_r / (mean_p + mean_r)
        ok = (
            math.isclose(mean_p, 1.000, abs_tol=1e-12)
            and math.isclose(mean_r, 0.882, abs_tol=1e-12)
            and summary.mean["f1"] < harmonic
        )
        _report(
            8,
            ok,
            f"mean P={mean_p:.3f}, mean R={mean_r:.3f}, mean F1={summary.mean['f1']:.4f} "
            f"< harmonic {harmonic:.4f}",
        )

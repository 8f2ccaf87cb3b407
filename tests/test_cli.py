import json
from pathlib import Path

import numpy as np
import pytest

from countdag.cli import EXIT_ALGORITHM, EXIT_BAD_INPUT, EXIT_OK, main

FIXTURES = Path(__file__).parent / "fixtures"


class TestLearn:
    def test_independent_fixture_yields_empty_edge_list(self, tmp_path):
        # Fixture: 1000 rows of independent Pois(1) pairs generated with
        # recorded seed 1; at alpha=0.01 both learners keep no edges.
        out = tmp_path / "est.edges"
        report = tmp_path / "report.json"
        rc = main(
            [
                "learn",
                "--counts", str(FIXTURES / "indep_pois_seed1.csv"),
                "--ordering", str(FIXTURES / "indep_pois_seed1.ordering.txt"),
                "--algo", "or-ppgm",
                "--alpha", "0.01",
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert rc == EXIT_OK
        assert out.read_text() == ""
        payload = json.loads(report.read_text())
        assert payload["edges"] == []
        assert payload["alpha"] == 0.01
        assert payload["edge_tests"]  # the 0-1 test was run and recorded
        assert set(payload["fits"]) == {
            "fits", "nonconverged", "lp_capped", "diverged", "newton_iterations", "halvings",
            "ridge_rescues",
        }
        assert payload["fits"]["fits"] >= 1

    def test_missing_ordering_file(self, tmp_path, capsys):
        counts = tmp_path / "c.csv"
        counts.write_text("a,b\n1,2\n2,1\n")
        rc = main(
            ["learn", "--counts", str(counts), "--ordering", str(tmp_path / "nope.txt")]
        )
        assert rc == EXIT_BAD_INPUT
        assert "nope.txt" in capsys.readouterr().err

    def test_ordering_label_not_in_header(self, tmp_path, capsys):
        counts = tmp_path / "c.csv"
        counts.write_text("a,b\n1,2\n2,1\n")
        ordering = tmp_path / "o.txt"
        ordering.write_text("a,zz\n")
        rc = main(["learn", "--counts", str(counts), "--ordering", str(ordering)])
        assert rc == EXIT_BAD_INPUT
        assert "zz" in capsys.readouterr().err

    def test_malformed_counts_exit_2(self, tmp_path, capsys):
        counts = tmp_path / "c.csv"
        counts.write_text("a,b\n1,oops\n")
        ordering = tmp_path / "o.txt"
        ordering.write_text("a,b\n")
        rc = main(["learn", "--counts", str(counts), "--ordering", str(ordering)])
        assert rc == EXIT_BAD_INPUT
        assert "line 2" in capsys.readouterr().err

    def test_score_learner_report(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.poisson(1.0, size=400)
        y = rng.poisson(np.exp(0.5 * x))
        counts = tmp_path / "c.csv"
        counts.write_text(
            "a,b\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n"
        )
        ordering = tmp_path / "o.txt"
        ordering.write_text("a,b\n")
        out = tmp_path / "est.edges"
        report = tmp_path / "r.json"
        rc = main(
            [
                "learn", "--counts", str(counts), "--ordering", str(ordering),
                "--algo", "pkbic", "--out", str(out), "--report", str(report),
            ]
        )
        assert rc == EXIT_OK
        assert out.read_text() == "a -> b\n"
        payload = json.loads(report.read_text())
        assert payload["criterion"] == "bic"
        assert payload["forward_moves"][0]["from"] == "a"
        assert payload["forward_moves"][0]["score_delta"] < 0
        # Scores of a | {}, b | {} and b | {a}; the backward phase hits the cache.
        assert payload["fits"]["fits"] == 3
        assert payload["fits"]["newton_iterations"] > 0

    def test_outlier_filter_flag(self, tmp_path):
        rows = [[1, 1]] * 11 + [[101, 1]]
        counts = tmp_path / "c.csv"
        counts.write_text("a,b\n" + "\n".join(f"{r[0]},{r[1]}" for r in rows) + "\n")
        ordering = tmp_path / "o.txt"
        ordering.write_text("a,b\n")
        report = tmp_path / "r.json"
        rc = main(
            [
                "learn", "--counts", str(counts), "--ordering", str(ordering),
                "--alpha", "0.05", "--filter-outliers",
                "--out", str(tmp_path / "e.txt"), "--report", str(report),
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["rows_dropped_by_outlier_filter"] == 1
        assert payload["n"] == 11

    def test_conflicting_alpha_flags(self, tmp_path, capsys):
        counts = tmp_path / "c.csv"
        counts.write_text("a,b\n1,2\n2,1\n")
        ordering = tmp_path / "o.txt"
        ordering.write_text("a,b\n")
        rc = main(
            [
                "learn", "--counts", str(counts), "--ordering", str(ordering),
                "--alpha", "0.05", "--alpha-b", "0.15",
            ]
        )
        assert rc == EXIT_BAD_INPUT
        assert "only one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algo", "pkbic", "--m", "2"], "unknown keys ['m']"),  # or-ppgm's flag
            (["--alpha", "2"], "alpha must be in (0, 1)"),
            (["--algo", "or-lpgm", "--m", "2"], "unknown keys ['m']"),
            # The solver's limits are fixed (glm constants), not flags.
            (["--max-iter", "0"], "unrecognized arguments: --max-iter 0"),
            (["--tol", "1e-6"], "unrecognized arguments: --tol 1e-6"),
        ],
    )
    def test_bad_learner_option_exit_2(self, tmp_path, capsys, flags, message):
        counts = tmp_path / "c.csv"
        counts.write_text("a,b\n1,2\n2,1\n")
        ordering = tmp_path / "o.txt"
        ordering.write_text("a,b\n")
        rc = main(["learn", "--counts", str(counts), "--ordering", str(ordering), *flags])
        assert rc == EXIT_BAD_INPUT
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("algo, m, reported", [
        ("or-ppgm", [], 1), ("or-ppgm", ["--m", "5"], 1), ("or-ppgm", ["--m", "0"], 0),
        ("or-lpgm", [], None),
    ])
    def test_report_echoes_the_m_used(self, tmp_path, algo, m, reported):
        # With 3 columns OR-PPGM conditions on at most p - 2 = 1 other parent;
        # OR-LPGM has no m.
        counts = tmp_path / "c.csv"
        counts.write_text("a,b,c\n1,2,0\n2,1,3\n0,1,1\n3,0,2\n")
        ordering = tmp_path / "o.txt"
        ordering.write_text("a,b,c\n")
        report = tmp_path / "r.json"
        rc = main(["learn", "--counts", str(counts), "--ordering", str(ordering),
                   "--algo", algo, *m, "--report", str(report), "--out", str(tmp_path / "e")])
        assert rc == EXIT_OK
        assert json.loads(report.read_text()).get("m") == reported


class TestSimulate:
    @pytest.mark.parametrize("flags", [
        ["--sf-zero-appeal", "0"], ["--sf-zero-appeal", "nan"], ["--sf-power", "-1"],
        ["--root-log-rate", "nan"],
    ])
    def test_bad_generator_option_exit_2(self, tmp_path, capsys, flags):
        rc = main(["simulate", "--kind", "scale_free", "--p", "5", "--n", "10", "--seed", "1",
                   *flags, "--out-prefix", str(tmp_path / "s")])
        assert rc == EXIT_BAD_INPUT
        assert "must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        args = [
            "simulate", "--kind", "erdos_renyi", "--p", "6", "--n", "100",
            "--seed", "33",
        ]
        rc1 = main(args + ["--out-prefix", str(tmp_path / "one")])
        rc2 = main(args + ["--out-prefix", str(tmp_path / "two")])
        assert rc1 == rc2 == EXIT_OK
        for suffix in (".counts.csv", ".truth.edges", ".weights.csv", ".ordering.txt"):
            assert (tmp_path / f"one{suffix}").read_bytes() == (
                tmp_path / f"two{suffix}"
            ).read_bytes()

    def test_prints_effective_seed(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--kind", "hub", "--p", "5", "--n", "20",
                "--hub-count", "2", "--out-prefix", str(tmp_path / "s"),
            ]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("seed: ")
        seed = int(out.split()[1])
        rc = main(
            [
                "simulate", "--kind", "hub", "--p", "5", "--n", "20",
                "--hub-count", "2", "--seed", str(seed),
                "--out-prefix", str(tmp_path / "again"),
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "s.counts.csv").read_bytes() == (
            tmp_path / "again.counts.csv"
        ).read_bytes()

    def test_simulated_files_learn_back(self, tmp_path):
        rc = main(
            [
                "simulate", "--kind", "hub", "--p", "8", "--n", "2000",
                "--hub-count", "2", "--seed", "77", "--out-prefix", str(tmp_path / "s"),
            ]
        )
        assert rc == EXIT_OK
        rc = main(
            [
                "learn",
                "--counts", str(tmp_path / "s.counts.csv"),
                "--ordering", str(tmp_path / "s.ordering.txt"),
                "--algo", "or-lpgm", "--alpha-b", "0.15", "--threads", "1",
                "--out", str(tmp_path / "est.edges"),
            ]
        )
        assert rc == EXIT_OK
        truth = set((tmp_path / "s.truth.edges").read_text().splitlines())
        estimate = set((tmp_path / "est.edges").read_text().splitlines())
        assert len(truth & estimate) >= 4  # most hub edges recovered at n=2000


class TestBench:
    def config(self, tmp_path, learners):
        cfg = {
            "seed": 9,
            "replicates": 2,
            "sim": {"graph_kind": "hub", "p": 6, "n": 150, "hub_count": 2},
            "learners": learners,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_oracle_row(self, tmp_path, capsys):
        path = self.config(tmp_path, [{"name": "oracle", "algo": "oracle"}])
        rc = main(["bench", "--config", str(path), "--out-prefix", str(tmp_path / "res")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if "oracle" in l][0]
        assert "1.000" in row
        payload = json.loads((tmp_path / "res.json").read_text())
        assert payload["learners"][0]["mean"]["f1"] == 1.0
        assert (tmp_path / "res.csv").read_text().startswith("n,algorithm")

    def test_unknown_learner_exit_2(self, tmp_path, capsys):
        path = self.config(tmp_path, [{"name": "x", "algo": "wizardry"}])
        rc = main(["bench", "--config", str(path)])
        assert rc == EXIT_BAD_INPUT
        assert "wizardry" in capsys.readouterr().err

    def test_broken_json_exit_2(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        assert main(["bench", "--config", str(path)]) == EXIT_BAD_INPUT

"""Smoke test of the benchmark at tiny sizes (a few seconds in all).

    python3 -m pytest perfbench/test_smoke.py

It runs every workload untraced and traced in-process, and checks that the
result line carries exactly the metrics BENCHMARK.json declares, each with
its unit, and that the correctness gate trips on planted wrong outputs.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from countdag import cli, learn, scores  # noqa: E402
from countdag.graphs import Dag, GraphError, Ordering  # noqa: E402

TINY = workloads.Sizes(
    table2_p=12, table2_n=200, table2_lpgm_replicates=2,
    table1_p=6, table1_ns=(100,), table1_replicates=2,
    tall_p=6, tall_n=400,
)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--seconds", "0", "--trace", str(trace)], sizes=TINY
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, lines, result = run_tiny(capsys, workload, trace)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    assert any(line.startswith(f"digest {workload} ") for line in lines)


def test_gate_rejects_malformed_outputs():
    ordering = Ordering((2, 0, 1))
    assert workloads.gate(Dag(3, frozenset({(2, 0), (0, 1)})), 3, ordering) is None
    assert "against the ordering" in workloads.gate(Dag(3, frozenset({(1, 0)})), 3, ordering)
    assert "expected 3" in workloads.gate(Dag(4, frozenset()), 3, ordering)
    assert "not a Dag" in workloads.gate(frozenset(), 3, ordering)


def test_edge_against_the_ordering_fails_the_gate(capsys, monkeypatch):
    real = learn.or_lpgm_detailed

    def backwards(data, ordering, cfg):
        dag, report = real(data, ordering, cfg)
        first, second = ordering.perm[:2]
        return Dag(dag.p, frozenset({(second, first)}), dag.labels), report

    monkeypatch.setattr(learn, "or_lpgm_detailed", backwards)
    # With --seconds 0 every unit is called once.
    code, lines, result = run_tiny(capsys, "table2", 0)
    planted = TINY.table2_lpgm_replicates * len(workloads.KINDS)
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == planted
    assert sum("edge against the ordering" in line for line in lines) == planted


@pytest.mark.parametrize(
    "module, name, learner",
    [(scores, "pk2_detailed", "pkbic"), (learn, "or_ppgm_detailed", "or_ppgm")],
)
def test_digest_that_changes_between_calls_fails_the_run(capsys, monkeypatch, module, name,
                                                         learner):
    real = getattr(module, name)
    # A traced run calls every unit at least once untraced and once traced:
    # every call after the first returns another graph.
    calls = []

    def drifting(data, ordering, cfg):
        dag, report = real(data, ordering, cfg)
        calls.append(None)
        if len(calls) > 1:
            first, second = ordering.perm[:2]
            dag = Dag(dag.p, dag.edges ^ {(first, second)}, dag.labels)
        return dag, report

    monkeypatch.setattr(module, name, drifting)
    code, lines, result = run_tiny(capsys, "table2", 1)
    assert code == 1
    assert result["correct"] is False
    assert any(line.startswith(f"FAIL table2 {learner}") and "in an earlier call" in line
               for line in lines)


def test_failed_cli_call_is_counted_and_the_run_goes_on(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise GraphError("planted failure")

    monkeypatch.setattr(cli, "or_ppgm_detailed", broken)
    code, lines, result = run_tiny(capsys, "tall-csv", 0)
    assert code == 0
    assert result["attempted"] == len(workloads.TallCsv.algos) and result["failed"] == 1
    assert result["metrics"]["f1.or_ppgm"]["value"] == 0.0
    assert any("countdag learn exited 3" in line for line in lines)

"""A countdag process loads numpy and the standard library only: no scipy,
and no process-pool machinery unless replicates run in worker processes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import countdag

FIXTURES = Path(__file__).parent / "fixtures"

SCRIPT = """
import json
import sys

from countdag import bench, cli
from countdag.learn import LearnConfig
from countdag.simulate import SimConfig


def loaded():
    roots = ("scipy", "multiprocessing", "concurrent")
    return sorted(m for m in sys.modules if m.startswith(roots))


def outcome(result):
    return [(r.replicate, r.learner, r.metrics, r.error) for r in result.records]


if __name__ == "__main__":
    counts, ordering, out = sys.argv[1:]
    after_import = loaded()
    code = cli.main(["learn", "--counts", counts, "--ordering", ordering, "--out", out])
    exp = bench.Experiment(
        sim=SimConfig(graph_kind="hub", p=6, n=200, seed=3),
        learners=(bench.LearnerSpec("or-lpgm", "or-lpgm", LearnConfig(alpha=0.05)),),
        replicates=2,
    )
    serial = bench.run(exp, threads=1)
    after_serial = loaded()
    pooled = bench.run(exp, threads=2)
    print(json.dumps({
        "code": code,
        "after_import": after_import,
        "after_serial": after_serial,
        "same_records": outcome(pooled) == outcome(serial),
        "pool_loaded": "concurrent.futures" in sys.modules,
    }))
"""


def test_serial_process_loads_no_scipy_nor_process_pool(tmp_path):
    script = tmp_path / "lean.py"
    script.write_text(SCRIPT)
    src = str(Path(countdag.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    argv = [sys.executable, str(script), str(FIXTURES / "indep_pois_seed1.csv"),
            str(FIXTURES / "indep_pois_seed1.ordering.txt"), str(tmp_path / "edges.txt")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    assert found["code"] == 0
    assert found["after_import"] == [] and found["after_serial"] == []
    assert found["same_records"]
    # With one CPU, bench.run runs serially whatever it is asked.
    assert found["pool_loaded"] == ((os.cpu_count() or 1) > 1)

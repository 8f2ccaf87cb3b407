"""Microbenchmarks of the fit layer, kept out of the test suite's paths.

    python -m pytest benchmarks --benchmark-only

Run from the root of a source checkout with OPENBLAS_NUM_THREADS=1 (and
OMP_NUM_THREADS=1) in the environment, as perfbench/run.py pins them:
the thread count of numpy's BLAS changes both timings and rounding.
"""
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # effective only if numpy is not loaded yet

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

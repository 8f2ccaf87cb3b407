"""Microbenchmarks of the fit layer. Timed with

    python -m pytest benchmarks --benchmark-only

and run once each, untimed, as part of the test suite (or under a plain
``python -m pytest benchmarks``), so a stale call fails there.

A timed run pins OPENBLAS_NUM_THREADS (and OMP_NUM_THREADS,
MKL_NUM_THREADS) to 1 unless the environment sets them, as perfbench/run.py
does: the thread count of numpy's BLAS changes both timings and rounding.
Run from the root of a source checkout.
"""
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    if not (config.getoption("benchmark_only") or config.getoption("benchmark_enable")):
        config.option.benchmark_disable = True
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # numpy is not loaded yet

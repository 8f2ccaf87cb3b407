"""Per-call timing of counts_to_csv and counts_from_csv on a 50,000 x 20
counts CSV (pytest-benchmark), the size of the CSV that ``countdag
simulate`` writes and ``countdag learn`` reads in perfbench's tall-csv
workload.

The writer's output is checked against the per-row template writer it
replaced, so the untimed run in the test suite checks its bytes too. The
plain read case times the text as counts_to_csv writes it, which the
vectorised reader (data._read_plain) takes. The crlf case times the same
rows with CRLF line ends, which the plain reader refuses, so it goes on to
numpy's C reader: the general path any hand-made CSV takes. Both read the
same counts. Timed with

    python -m pytest benchmarks/test_data_micro.py --benchmark-only
"""
import numpy as np
import pytest

from countdag.data import CountMatrix, _read_plain, counts_from_csv, counts_to_csv

N, P = 50_000, 20


@pytest.fixture(scope="module")
def counts():
    rng = np.random.default_rng(2993)
    return CountMatrix(rng.poisson(rng.uniform(0.2, 4.0, size=P), size=(N, P)))


def test_counts_to_csv(benchmark, counts):
    row = ",".join(["%d"] * P) + "\n"
    template = ",".join(counts.column_labels()) + "\n" + "".join(
        [row % tuple(values) for values in counts.values.tolist()]
    )
    assert benchmark(counts_to_csv, counts) == template


@pytest.mark.parametrize("form", ["plain", "crlf"])
def test_counts_from_csv(benchmark, counts, form):
    text = counts_to_csv(counts)
    if form == "crlf":
        text = text.replace("\n", "\r\n")
    assert (_read_plain(text) is not None) == (form == "plain")
    assert np.array_equal(benchmark(counts_from_csv, text).values, counts.values)

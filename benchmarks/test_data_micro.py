"""Per-call timing of counts_from_csv on a 50,000 x 20 counts CSV
(pytest-benchmark), the size of the CSV that ``countdag learn`` reads in
perfbench's tall-csv workload.

The plain case times the text as counts_to_csv writes it, which the
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


@pytest.mark.parametrize("form", ["plain", "crlf"])
def test_counts_from_csv(benchmark, counts, form):
    text = counts_to_csv(counts)
    if form == "crlf":
        text = text.replace("\n", "\r\n")
    assert (_read_plain(text) is not None) == (form == "plain")
    assert np.array_equal(benchmark(counts_from_csv, text).values, counts.values)

import re

import numpy as np
import pytest

from countdag.data import (
    CountMatrix,
    InvalidData,
    counts_from_csv,
    counts_to_csv,
    outlier_filter,
)


class TestCountMatrix:
    def test_rejects_negative(self):
        with pytest.raises(InvalidData):
            CountMatrix(np.array([[1, -1]]))

    def test_rejects_fractional(self):
        with pytest.raises(InvalidData):
            CountMatrix(np.array([[1.5, 2.0]]))

    def test_accepts_integral_floats(self):
        m = CountMatrix(np.array([[1.0, 2.0]]))
        assert m.values.dtype == np.int64

    def test_shape_properties(self):
        m = CountMatrix(np.zeros((7, 3), dtype=np.int64))
        assert (m.n, m.p) == (7, 3)
        assert m.column_labels() == ("X1", "X2", "X3")


class TestCsv:
    def test_round_trip_with_header(self):
        m = CountMatrix(np.array([[1, 2], [3, 4]]), ("a", "b"))
        again = counts_from_csv(counts_to_csv(m))
        assert again.labels == ("a", "b")
        assert np.array_equal(again.values, m.values)

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((0, 1), dtype=np.int64),
            np.array([[5], [0]]),
            np.array([[0, 2**63 - 1], [17, 0]]),
            np.random.default_rng(4).poisson(3.0, size=(50, 3)),
        ],
        ids=["n0", "p1", "zero-and-int64-max", "poisson"],
    )
    def test_text_matches_str_per_cell(self, values, labelled):
        labels = tuple(f"v {j}" for j in range(values.shape[1])) if labelled else None
        m = CountMatrix(values, labels)
        header = ",".join(m.column_labels())
        body = "\n".join(",".join(str(v) for v in row) for row in m.values)
        assert counts_to_csv(m) == header + "\n" + body + ("\n" if m.n else "")

    def test_headerless(self):
        m = counts_from_csv("1,2\n3,4\n")
        assert m.labels is None
        assert np.array_equal(m.values, [[1, 2], [3, 4]])

    def test_bad_cell_diagnostics(self):
        with pytest.raises(InvalidData, match="line 2, column 2"):
            counts_from_csv("a,b\n1,x\n")

    def test_negative_count_diagnostics(self):
        with pytest.raises(InvalidData, match="negative count"):
            counts_from_csv("a,b\n1,-2\n")

    @pytest.mark.parametrize("cell", ["9223372036854775808", "99999999999999999999"])
    def test_count_beyond_int64_diagnostics(self, cell):
        with pytest.raises(InvalidData, match=f"line 3, column 1: count {cell} exceeds int64"):
            counts_from_csv(f"a,b\n1,2\n{cell},2\n")

    def test_int64_maximum_accepted(self):
        assert counts_from_csv("a,b\n9223372036854775807,2\n").values[0, 0] == 2**63 - 1

    def test_ragged_rows(self):
        with pytest.raises(InvalidData, match="expected 2 columns"):
            counts_from_csv("a,b\n1,2,3\n")


class TestOutlierFilter:
    def test_constant_column_never_drops(self):
        m = CountMatrix(np.full((10, 2), 3, dtype=np.int64))
        filtered, dropped = outlier_filter(m)
        assert dropped == 0
        assert np.array_equal(filtered.values, m.values)

    def test_single_spike_dropped(self):
        # Column of eleven 1s and one 101. Sample sd ~ 28.9, the spike's
        # deviation ~ 92.5 > 3 sd, so only its row is dropped; the numpy
        # computation below is the arithmetic oracle for the 3-sd rule.
        col = np.array([1] * 11 + [101])
        other = np.arange(12)
        values = np.column_stack([col, other])
        mu, sd = col.mean(), col.std(ddof=1)
        assert abs(101 - mu) > 3 * sd  # fixture is on the dropping side
        assert abs(1 - mu) <= 3 * sd
        filtered, dropped = outlier_filter(CountMatrix(values))
        assert dropped == 1
        assert filtered.n == 11
        assert 101 not in filtered.values[:, 0]

    def test_ten_point_spike_is_kept(self):
        # With nine 1s and one spike the deviation is 0.9 (v-1) while
        # 3 sample sd is ~0.949 (v-1): a single spike in ten points can
        # never exceed the 3-sd rule, whatever its value.
        col = np.array([1] * 9 + [101])
        mu, sd = col.mean(), col.std(ddof=1)
        assert abs(101 - mu) <= 3 * sd
        values = np.column_stack([col, np.arange(10)])
        _, dropped = outlier_filter(CountMatrix(values))
        assert dropped == 0

    def test_all_identical_matrix_unchanged(self):
        m = CountMatrix(np.ones((6, 4), dtype=np.int64))
        filtered, dropped = outlier_filter(m)
        assert dropped == 0
        assert np.array_equal(filtered.values, m.values)

    def test_row_dropped_if_any_column_flags(self):
        a = np.array([5] * 11 + [500])
        b = np.ones(12, dtype=np.int64)
        filtered, dropped = outlier_filter(CountMatrix(np.column_stack([a, b])))
        assert dropped == 1

    def test_needs_two_rows(self):
        with pytest.raises(InvalidData):
            outlier_filter(CountMatrix(np.array([[1, 2]])))


class TestCsvFastPath:
    """The C reader must take exactly the cells the cell-by-cell scan takes."""

    @pytest.mark.parametrize(
        "cell,value",
        [("+3", 3), (" 3", 3), ("3 ", 3), ("\t7\t", 7), ("-0", 0), ("007", 7), ("\u0663", 3)],
    )
    def test_accepted_cells(self, cell, value):
        m = counts_from_csv(f"a,b\n1,{cell}\n")
        assert m.values.tolist() == [[1, value]]

    @pytest.mark.parametrize(
        "cell", ["1.5", "1e3", "1_000", "", "+", "3-", "1 2", "0x10", "#3", "\u00b2"]
    )
    def test_rejected_cells_name_line_and_column(self, cell):
        message = f"line 3, column 2: {cell.strip()!r} is not an integer"
        with pytest.raises(InvalidData, match=re.escape(message)):
            counts_from_csv(f"a,b\n1,2\n1,{cell}\n")

    def test_blank_lines_are_skipped(self):
        m = counts_from_csv("a,b\n\n1,2\n   \n3,4\n\n")
        assert m.values.tolist() == [[1, 2], [3, 4]]

    def test_negative_count_names_cell(self):
        with pytest.raises(InvalidData, match="line 3, column 1: negative count -4"):
            counts_from_csv("a,b\n1,2\n-4,2\n")

    def test_row_wider_than_header(self):
        with pytest.raises(InvalidData, match="line 2: expected 2 columns, got 3"):
            counts_from_csv("a,b\n1,2,3\n4,5,6\n")

    def test_single_column(self):
        m = counts_from_csv("a\n1\n2\n")
        assert m.values.tolist() == [[1], [2]]

    def test_agrees_with_cell_scan(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 10**6, size=(50, 4))
        text = "\n".join(",".join(f" +{v}" if v % 3 == 0 else str(v) for v in row) for row in values)
        assert counts_from_csv(text).values.tolist() == values.tolist()

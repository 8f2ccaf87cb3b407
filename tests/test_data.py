import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countdag.data import (
    _PLAIN_BLOCK,
    CountMatrix,
    InvalidData,
    _is_int,
    _read_plain,
    counts_from_csv,
    counts_to_csv,
    outlier_filter,
)


def template_csv(m: CountMatrix) -> str:
    """The per-row template writer that counts_to_csv replaced, kept as the
    oracle for its bytes."""
    row = ",".join(["%d"] * m.p)
    body = "\n".join([row % tuple(values) for values in m.values.tolist()])
    return ",".join(m.column_labels()) + "\n" + body + ("\n" if m.n else "")


def _cells_of_every_width() -> np.ndarray:
    """0, 10**k - 1 and 10**k for k = 1..18, and 2**63 - 1: the least and
    the greatest count of every width from 1 to 19 digits."""
    cells = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [2**63 - 1]
    return np.array(cells, dtype=np.int64)


def _writer_blocks(p: int) -> np.ndarray:
    """Counts of every width from 1 to 19 digits, in p columns and rows for
    three and a half of counts_to_csv's blocks (:data:`_PLAIN_BLOCK` bytes
    of int64 counts each)."""
    n = 7 * _PLAIN_BLOCK // (2 * 8 * p)
    rng = np.random.default_rng(p)
    values = rng.integers(0, 10 ** rng.integers(1, 19, size=(n, p)), dtype=np.int64)
    values[::7] = rng.choice(_cells_of_every_width(), size=values[::7].shape)
    return values


_LABEL = st.text(min_size=1, max_size=4).filter(
    lambda s: "," not in s and s.splitlines() == [s] and s == s.strip()
)


@st.composite
def _count_matrices(draw) -> CountMatrix:
    p = draw(st.integers(1, 6))
    top = draw(st.sampled_from([9, 10**6, 10**18 - 1, 2**63 - 1]))
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=p, max_size=p),
                         min_size=1, max_size=30))
    labels = draw(st.none() | st.lists(_LABEL, min_size=p, max_size=p, unique=True).filter(
        lambda labels: not all(_is_int(label) for label in labels)))
    return CountMatrix(np.array(rows, dtype=np.int64), labels)


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
            _cells_of_every_width().reshape(-1, 1),
            _cells_of_every_width()[::-1].reshape(-1, 2),
            _writer_blocks(1),
            _writer_blocks(30),
        ],
        ids=["n0", "p1", "zero-and-int64-max", "poisson", "every-width-p1",
             "every-width-p2", "several-blocks-p1", "several-blocks-p30"],
    )
    def test_text_matches_str_per_cell(self, values, labelled):
        labels = tuple(f"v {j}" for j in range(values.shape[1])) if labelled else None
        m = CountMatrix(values, labels)
        header = ",".join(m.column_labels())
        body = "\n".join(",".join(str(v) for v in row) for row in m.values)
        assert counts_to_csv(m) == header + "\n" + body + ("\n" if m.n else "")

    def test_traced_peak_is_at_most_three_texts(self):
        rng = np.random.default_rng(2993)
        m = CountMatrix(rng.poisson(rng.uniform(0.2, 4.0, size=20), size=(200_000, 20)))
        tracemalloc.start()
        try:
            text = counts_to_csv(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)

    @pytest.mark.parametrize(
        "labels",
        [None, ("v 0", "v 1"), ("1", "a"), ("a\tb", "\u00e9")],
        ids=["default", "inner-space", "one-integer", "inner-tab-non-ascii"],
    )
    def test_labels_round_trip(self, labels):
        m = CountMatrix(np.array([[5, 6], [7, 8]]), labels)
        again = counts_from_csv(counts_to_csv(m))
        assert again.labels == m.column_labels()
        assert np.array_equal(again.values, m.values)

    @pytest.mark.parametrize(
        "labels,bad",
        [
            (("a,b", "c"), "a,b"),
            (("a\nb", "c"), "a\nb"),
            (("a", "b\r"), "b\r"),
            (("a", "b\u2028c"), "b\u2028c"),
            ((" a", "b"), " a"),
            (("a", "b\t"), "b\t"),
            (("a", ""), ""),
        ],
        ids=["comma", "newline", "carriage-return", "line-separator", "leading-blank",
             "trailing-blank", "empty"],
    )
    def test_refuses_label_that_does_not_read_back(self, labels, bad):
        m = CountMatrix(np.array([[5, 6], [7, 8]]), labels)
        with pytest.raises(InvalidData, match=re.escape(repr(bad))):
            counts_to_csv(m)

    @pytest.mark.parametrize("labels", [("1", "2"), ("+1", "007")])
    def test_refuses_header_read_as_a_row(self, labels):
        m = CountMatrix(np.array([[5, 6], [7, 8]]), labels)
        with pytest.raises(InvalidData, match=re.escape(repr(labels))):
            counts_to_csv(m)

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


class TestPlainReader:
    """The vectorised reader takes exactly the text counts_to_csv writes;
    anything else reads, or is refused, as by the general readers."""

    @pytest.mark.parametrize("p,n", [(1, 60_000), (2, 40_000), (20, 4_000)])
    def test_round_trip_over_several_blocks(self, p, n):
        rng = np.random.default_rng(p)
        values = rng.integers(0, 10 ** rng.integers(1, 19, size=(n, p)), dtype=np.int64)
        values[: n // 4] //= 10**15  # short cells too, down to 0
        values[1, 0], values[2, -1] = 0, 10**18 - 1
        m = CountMatrix(values)
        text = counts_to_csv(m)
        assert len(text) > 3 * _PLAIN_BLOCK
        plain = _read_plain(text)
        assert plain is not None and plain.labels == m.column_labels()
        assert np.array_equal(plain.values, values)
        assert np.array_equal(counts_from_csv(text).values, values)

    def test_line_longer_than_a_block(self):
        values = np.arange(3 * 40_000).reshape(3, 40_000) % 1000
        text = counts_to_csv(CountMatrix(values))
        assert len(text) // 3 > _PLAIN_BLOCK
        assert np.array_equal(_read_plain(text).values, values)

    @pytest.mark.parametrize(
        "text,plain,expected",
        [
            ("a,b\n1,2\n3,4", True, [[1, 2], [3, 4]]),
            ("1,2\n3,4", True, [[1, 2], [3, 4]]),
            ("a,b\n123456789012345678,0\n", True, [[123456789012345678, 0]]),
            ("a,b\r\n1,2\r\n3,4\r\n", False, [[1, 2], [3, 4]]),
            ("a,b\n1,2\r\n", False, [[1, 2]]),
            ("a,b\n1, 2\n3 ,4\n", False, [[1, 2], [3, 4]]),
            ("a,b\n+1,2\n", False, [[1, 2]]),
            ("a,b\n1,2\n\n3,4\n\n", False, [[1, 2], [3, 4]]),
            ("\na,b\n1,2\n", False, [[1, 2]]),
            ("a,b\n1234567890123456789,2\n", False, [[1234567890123456789, 2]]),
            ("a,b\n\u0663,2\n", False, [[3, 2]]),
            ("a,b\n1,2,\n", False, "line 2: expected 2 columns, got 3"),
            ("a,b\n1\n", False, "line 2: expected 2 columns, got 1"),
            ("a,b\n1,2,3\n", False, "line 2: expected 2 columns, got 3"),
            ("a,b\n1\n2,3,4\n", False, "line 2: expected 2 columns, got 1"),
            ("a,b\n1\n2\n3,4\n5,6\n", False, "line 2: expected 2 columns, got 1"),
            ("a,b\n1,,2\n", False, "line 2: expected 2 columns, got 3"),
            ("a,b\n,1\n", False, "line 2, column 1: '' is not an integer"),
            ("a,b\n1,2\x0b\n", False, [[1, 2]]),
            ("a\x0cb,c\n1,2\n", False, "line 2: expected 1 columns, got 2"),
            ("a,b\n9223372036854775808,2\n", False,
             "line 2, column 1: count 9223372036854775808 exceeds int64"),
            ("a,b\n", False, "counts CSV has a header but no data rows"),
            ("a,b", False, "counts CSV has a header but no data rows"),
            ("\n\n", False, "empty counts CSV"),
            ("a,b\n\n1,x\n", False, "line 3, column 2: 'x' is not an integer"),
            ("a,b\n\n\n1,2\n-1,2\n", False, "line 5, column 1: negative count -1"),
        ],
        ids=["no-final-newline", "headerless-no-final-newline", "18-digits", "crlf",
             "crlf-in-rows", "blanks", "plus", "blank-lines", "leading-blank-line",
             "19-digits", "arabic-indic-digit", "trailing-comma", "short-row", "long-row",
             "short-then-long-row", "short-rows-as-many-cells", "empty-cell",
             "leading-empty-cell", "vertical-tab", "form-feed-in-header", "beyond-int64",
             "lone-header", "lone-header-no-newline", "only-blank-lines",
             "bad-cell-after-blank-line", "negative-after-blank-lines"],
    )
    def test_matches_general_readers(self, text, plain, expected):
        assert (_read_plain(text) is not None) == plain
        if isinstance(expected, str):
            with pytest.raises(InvalidData, match=f"^{re.escape(expected)}$"):
                counts_from_csv(text)
        else:
            assert counts_from_csv(text).values.tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(_count_matrices())
    def test_reads_back_the_writers_text(self, m):
        text = counts_to_csv(m)
        assert text == template_csv(m)
        plain = _read_plain(text)
        if m.values.max() < 10**18:
            assert plain is not None and plain.labels == m.column_labels()
            assert np.array_equal(plain.values, m.values)
        else:  # 19 digits: read by the general readers
            assert plain is None
        again = counts_from_csv(text)
        assert again.labels == m.column_labels()
        assert np.array_equal(again.values, m.values)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("1,x", "line 70002, column 2: 'x' is not an integer"),
            ("1,-4", "line 70002, column 2: negative count -4"),
            ("1,2,3", "line 70002: expected 2 columns, got 3"),
        ],
    )
    def test_bad_row_past_the_first_block(self, row, message):
        text = "a,b\n" + "1,2\n" * 70_000 + row + "\n" + "3,4\n" * 10
        assert text.index(row) > _PLAIN_BLOCK
        with pytest.raises(InvalidData, match=f"^{re.escape(message)}$"):
            counts_from_csv(text)

"""Count-data matrices and their CSV representation."""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .graphs import _check_labels, default_labels

_INT64_MAX = int(np.iinfo(np.int64).max)


class InvalidData(ValueError):
    """Malformed count data: negative, non-integral, or non-finite entries."""


@dataclass(frozen=True)
class CountMatrix:
    """n observations (rows) of p non-negative integer variables (columns)."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise InvalidData(f"count matrix must be 2-D, got shape {values.shape}")
        if not np.issubdtype(values.dtype, np.integer):
            if not np.all(np.isfinite(values)):
                raise InvalidData("count matrix contains non-finite entries")
            if not np.all(values == np.floor(values)):
                raise InvalidData("count matrix entries must be integers")
            values = values.astype(np.int64)
        if values.size and values.min() < 0:
            raise InvalidData("count matrix entries must be non-negative")
        values = np.ascontiguousarray(values, dtype=np.int64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", _check_labels(values.shape[1], self.labels))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def column_labels(self) -> tuple[str, ...]:
        return self.labels or default_labels(self.p)

    def variables_as_float(self) -> np.ndarray:
        """The counts as a (p, n) float array: row j holds the n
        observations of variable j contiguously."""
        return np.array(self.values.T, dtype=np.float64, order="C")


def counts_to_csv(data: CountMatrix) -> str:
    """The counts as CSV text: a header of column labels, then one line per
    row, each formatted by one template over its Python ints."""
    header = ",".join(data.column_labels())
    row = ",".join(["%d"] * data.p)
    body = "\n".join([row % tuple(values) for values in data.values.tolist()])
    return header + "\n" + body + ("\n" if data.n else "")


def counts_from_csv(text: str) -> CountMatrix:
    """Parse a counts CSV. The header row is optional: a first row with any
    non-integer cell is taken as column labels.

    Data rows go through numpy's C reader, which takes the same cells as
    :func:`_is_int` (an optional sign and ASCII digits, blanks around them).
    When it refuses the rows or finds a negative count, they are scanned
    again cell by cell to name the offending line and column.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InvalidData("empty counts CSV")
    first = [cell.strip() for cell in lines[0].split(",")]
    labels: tuple[str, ...] | None = None
    start = 0
    if not all(_is_int(cell) for cell in first):
        labels = tuple(first)
        start = 1
    body = lines[start:]
    if not body:
        raise InvalidData("counts CSV has a header but no data rows")
    width = len(first)
    try:
        values = np.loadtxt(body, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        values = None
    if values is None or values.shape[1] != width or values.min() < 0:
        values = _scan_rows(body, start + 1, width)
    return CountMatrix(values, labels)


def _scan_rows(lines: list[str], first_lineno: int, width: int) -> np.ndarray:
    """Cell-by-cell parse of data rows; raises InvalidData at the first bad
    cell, numbering lines from ``first_lineno``."""
    rows = []
    for lineno, line in enumerate(lines, start=first_lineno):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != width:
            raise InvalidData(f"line {lineno}: expected {width} columns, got {len(cells)}")
        row = []
        for col, cell in enumerate(cells, start=1):
            if not _is_int(cell):
                raise InvalidData(f"line {lineno}, column {col}: {cell!r} is not an integer")
            value = int(cell)
            if value < 0:
                raise InvalidData(f"line {lineno}, column {col}: negative count {value}")
            if value > _INT64_MAX:
                raise InvalidData(f"line {lineno}, column {col}: count {value} exceeds int64")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _is_int(cell: str) -> bool:
    if not cell:
        return False
    body = cell[1:] if cell[0] in "+-" else cell
    # isdecimal, not isdigit: int() refuses digits such as superscripts.
    return body.isdecimal()


def outlier_filter(data: CountMatrix) -> tuple[CountMatrix, int]:
    """Drop every row containing an entry more than three standard deviations
    from its column mean (sample standard deviation, n-1 denominator).

    Constant columns (zero deviation) never cause drops. Returns the filtered
    matrix and the number of rows removed; raises if nothing survives.
    """
    if data.n < 2:
        raise InvalidData("outlier filter needs at least 2 rows")
    values = data.values.astype(np.float64)
    mu = values.mean(axis=0)
    sd = values.std(axis=0, ddof=1)
    dev = np.abs(values - mu)
    with np.errstate(invalid="ignore"):
        bad = (dev > 3.0 * sd) & (sd > 0.0)
    keep = ~bad.any(axis=1)
    dropped = int((~keep).sum())
    if not keep.any():
        raise InvalidData("outlier filter removed every row")
    return CountMatrix(data.values[keep], data.labels), dropped

"""Count-data matrices and their CSV representation.

:func:`counts_to_csv` writes the plain form in vectorised passes over
blocks of rows (:func:`_csv_block`), with no Python object per cell, and
:func:`counts_from_csv` reads it back in vectorised passes over its bytes
(:func:`_read_plain`). Any other counts CSV goes through numpy's C reader,
and rows that it refuses are scanned cell by cell (:func:`_scan_rows`) to
name the bad cell; see :func:`counts_from_csv` for when each reader runs.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .graphs import _check_labels, default_labels

_INT64_MAX = int(np.iinfo(np.int64).max)
#: Bytes of CSV rows :func:`_read_plain` converts at a time, extended to
#: the end of the line they stop in, and bytes of counts :func:`counts_to_csv`
#: writes at a time: small enough that a block's temporaries (several bytes
#: per byte of text or of counts) stay in cache and add little to peak
#: memory, large enough that numpy's per-call overhead is small against a
#: block's work.
_PLAIN_BLOCK = 1 << 17
#: The most digits of a plain cell: 10**18 - 1 is below 2**63, so the sum
#: of a cell's digits times their place values cannot overflow int64.
_PLAIN_DIGITS = 18
#: 10**0 through 10**18, the largest power of ten below 2**63.
_PLACE_VALUES = 10 ** np.arange(_PLAIN_DIGITS + 1, dtype=np.int64)
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")


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
    r"""The counts as CSV text: a header of column labels, then one line per
    row, its counts in decimal digits separated by ``,`` and ended by
    ``\n``. With every count below 10**18 this is the plain form that
    :func:`counts_from_csv` reads in vectorised passes.

    The rows are written in blocks of about :data:`_PLAIN_BLOCK` bytes of
    counts by :func:`_csv_block`, which forms no Python object per cell.
    The blocks' bytes are joined and decoded once, after the header.

    Raises InvalidData for labels that :func:`counts_from_csv` would not
    read back: a label holding ``,`` or a line break, or with blanks at
    either end, and a header whose every label reads as an integer (it
    would be read as a data row)."""
    labels = data.column_labels()
    for label in labels:
        if "," in label or label.splitlines() != [label] or label != label.strip():
            raise InvalidData(f"label {label!r} would not read back from a counts CSV")
    if all(_is_int(label) for label in labels):
        raise InvalidData(f"labels {labels!r} would read back from a counts CSV as a data row")
    values = data.values
    step = max(1, _PLAIN_BLOCK // (values.itemsize * data.p))
    # The joined bytes are not bound to a name, so they are freed once
    # decoded: at most two copies of the text are alive at a time.
    return ",".join(labels) + "\n" + b"".join(
        [_csv_block(values[start:start + step]) for start in range(0, data.n, step)]
    ).decode("ascii")


def _csv_block(values: np.ndarray) -> np.ndarray:
    r"""The CSV lines of a (rows, p) block of counts, as ASCII bytes.

    A cell's width is its number of digits: one, plus one for each power of
    ten it reaches. The cumulative widths, each plus one for the cell's
    separator, place the separators: ``,`` after a cell and ``\n`` after
    a row's last. The digits are filled from each cell's last place, one
    division by ten per place over the cells that still have digits."""
    cells = values.ravel()
    top = cells.max()
    widths = np.ones(cells.size, dtype=np.int64)
    for power in _PLACE_VALUES[1:]:
        if power > top:
            break
        widths += cells >= power
    seps = np.cumsum(widths + 1)
    seps -= 1
    out = np.empty(int(seps[-1]) + 1, dtype=np.uint8)
    out[seps] = _COMMA
    out[seps[values.shape[1] - 1::values.shape[1]]] = _NEWLINE
    rest, pos = cells, seps
    while rest.size:
        # Floor division by a scalar is several times faster than % or
        # np.divmod, so the digit is taken as rest - 10 * quot.
        quot = rest // 10
        pos -= 1
        out[pos] = rest - quot * 10 + _ZERO
        more = (quot > 0).nonzero()[0]
        rest, pos = quot.take(more), pos.take(more)
    return out


def counts_from_csv(text: str) -> CountMatrix:
    r"""Parse a counts CSV. The header row is optional: a first row with any
    non-integer cell is taken as column labels.

    Text in the plain form that :func:`counts_to_csv` writes (rows of 1 to
    18 ASCII digits per cell, separated by ``,``, every row as wide as the
    first line, each ended by ``\n`` but perhaps the last, no blank line) is
    read by :func:`_read_plain` in vectorised passes over its bytes. Any
    other text goes through numpy's C reader, which takes the same cells
    as :func:`_is_int` (an optional sign and digits, blanks around them),
    and skips blank lines. When the C reader refuses the rows, finds them
    not as wide as the first row or finds a negative count, they are
    scanned again cell by cell (:func:`_scan_rows`) to name the offending
    line and column. All three read the same counts from any text they
    take.
    """
    plain = _read_plain(text)
    if plain is not None:
        return plain
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InvalidData("empty counts CSV")
    labels, width = _header(lines[0])
    start = 0 if labels is None else 1
    body = lines[start:]
    if not body:
        raise InvalidData("counts CSV has a header but no data rows")
    try:
        values = np.loadtxt(body, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        values = None
    if values is None or values.shape[1] != width or values.min() < 0:
        linenos = [i for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
        values = _scan_rows(body, linenos[start:], width)
    return CountMatrix(values, labels)


def _header(line: str) -> tuple[tuple[str, ...] | None, int]:
    """The labels a CSV's first line gives, None when every cell is an
    integer (the line is a data row), and the number of its cells."""
    cells = [cell.strip() for cell in line.split(",")]
    labels = None if all(_is_int(cell) for cell in cells) else tuple(cells)
    return labels, len(cells)


def _read_plain(text: str) -> CountMatrix | None:
    """The counts of a CSV in plain form (see :func:`counts_from_csv`), or
    None for any other text.

    The rows are taken in line-aligned blocks of about :data:`_PLAIN_BLOCK`
    characters, each encoded to ASCII on its own and converted by
    :func:`_plain_block` straight into the (n, p) result, so only one
    block's bytes are alive at a time."""
    end = text.find("\n")
    head = text[:end] if end >= 0 else text
    # The first physical line must be the first line the general reader
    # sees: not blank, and holding no other line break.
    if not head.strip() or head.splitlines() != [head]:
        return None
    labels, width = _header(head)
    start = 0 if labels is None else len(head) + 1
    if start >= len(text):
        return None
    # A row per \n, and one for a last line without it.
    n = text.count("\n", start) + (not text.endswith("\n"))
    values = np.empty((n, width), dtype=np.int64)
    row = 0
    while start < len(text):
        # A line longer than a block makes a block of its own; the last
        # line may have no \n.
        stop = (
            text.rfind("\n", start, start + _PLAIN_BLOCK) + 1
            or text.find("\n", start) + 1
            or len(text)
        )
        try:
            rows = text[start:stop].encode("ascii")
        except UnicodeEncodeError:
            return None
        if not rows.endswith(b"\n"):
            rows += b"\n"
        block = _plain_block(np.frombuffer(rows, dtype=np.uint8), width)
        if block is None:
            return None
        values[row:row + len(block)] = block
        row += len(block)
        start = stop
    return CountMatrix(values, labels)


def _plain_block(data: np.ndarray, width: int) -> np.ndarray | None:
    r"""The (rows, width) counts of whole plain CSV lines, given as ASCII
    bytes ending in ``\n``, or None if they are not in plain form.

    Every byte that is not a digit is a separator. The separators, as
    int32 offsets, must fall into rows of width - 1 commas and then a
    ``\n``, and enclose 1 to :data:`_PLAIN_DIGITS` digits each. A cell's
    value sums its digits, each times the place value of its position from
    the cell's end; its last digit is the byte before its separator."""
    digits = data - _ZERO
    ends = np.flatnonzero(digits > 9).astype(np.int32)
    rows = ends.size // width
    if (
        ends.size != rows * width
        or np.count_nonzero(data == _COMMA) != rows * (width - 1)
        or not np.all(data.take(ends[width - 1::width]) == _NEWLINE)
    ):
        return None
    lengths = np.diff(ends, prepend=np.int32(-1))
    lengths -= 1
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > _PLAIN_DIGITS:
        return None
    values = digits.take(ends - 1).astype(np.int64)
    for place in range(1, longest):
        cells = np.flatnonzero(lengths > place)
        # dtype: numpy 1.x would keep a uint8 digit times a place value
        # that fits uint8 (100) in uint8, and wrap.
        values[cells] += np.multiply(
            digits.take(ends.take(cells) - (place + 1)), _PLACE_VALUES[place], dtype=np.int64
        )
    return values.reshape(rows, width)


def _scan_rows(lines: list[str], linenos: list[int], width: int) -> np.ndarray:
    """Cell-by-cell parse of data rows; raises InvalidData at the first bad
    cell, naming its line by its number in ``linenos``, the rows' numbers
    in the file."""
    rows = []
    for lineno, line in zip(linenos, lines):
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

"""Brokerage tape ingestion: parse, validate, and summarize trade records.

A tape is delimiter-separated text, one executed trade per row.  The
delimiter is whichever of `DELIMITERS` (comma, tab, semicolon) occurs
most often in the first 20 non-blank lines, comma if none does.  The
first four columns are, in this order, Trddt (YYYY-MM-DD), Stkprc (price
in CNY), Parcha (order nature, B or S, sometimes missing) and Trdtims
(number of shares); further columns are ignored.  Every token is
read as ASCII, with Python's white space around it stripped: dates
follow `table_csv.parse_date` and numbers `table_csv.parse_number`
(no `_`), and a date or a number that holds a non-ASCII character is
malformed, a side flag unknown.  Files start with one or more header
rows (column names, units); anything before the first row whose date
field parses is treated as header material.  Rows with a missing or
unrecognized side flag are kept with side=Unknown; malformed rows are
reported per line, never silently dropped.

In memory a tape is a `Tape`, built from parallel numpy columns, one
entry per trade, that every stage from synthesis through parsing to the
bucket panels takes and works on directly.  It is also a read-only
sequence of `TapeRecord`s, so code that wants one trade at a time can
have it.

The reader works on the tape's UTF-8 bytes, `_CHUNK_LINES` lines at a
time, which bounds the arrays and strings alive at once, and frees the
text and each column's codes after their last use: about 13 MB traced
on an oracle tape of 1.44e5 rows, whose `Tape` columns are 3.6 MB (one
pass over all lines takes about 42 MB).  Line ends and field ends are
byte comparisons, each line's field count is one `searchsorted` over
them, and a line's first four fields are read from them by index.  A
field is keyed by at most two little-endian 7-byte words, the first
with the field's length in its top byte (a field longer than 14 bytes
is keyed by its row, so it is decoded on its own); runs of equal keys
are merged (a day's dates come in runs) and `np.unique` codes the
rest, so each chunk decodes its distinct tokens once.  A line is decoded as a whole only to tell a
blank line from a short row: when it has fewer than four fields, or
when the delimiter is white space and the line starts with white space
or a non-ASCII byte.
"""

from __future__ import annotations

import datetime as dt
import enum
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional

import numpy as np

from .table_csv import parse_date, parse_number

DELIMITERS = (",", "\t", ";")
UNKNOWN_SIDE_FLAG_THRESHOLD = 0.10


class Side(enum.Enum):
    BUY = "B"
    SELL = "S"
    UNKNOWN = ""


#: Side as stored in `Tape.side`.
SIDE_CODE = {Side.BUY: 1, Side.SELL: -1, Side.UNKNOWN: 0}
_SIDE_OF_CODE = {code: side for side, code in SIDE_CODE.items()}


@dataclass(frozen=True)
class TapeRecord:
    date: dt.date
    price: float
    side: Side
    volume: int


class Tape(Sequence):
    """A tape as parallel columns, one entry per trade.

    `dates` is a strictly increasing table of dates and `day` indexes
    into it (a table entry may have no trades); `side` is +1 buy, -1
    sell, 0 unknown.  Indexing yields a `TapeRecord`; slicing, or
    indexing with an index or boolean array, yields a `Tape`.  Two tapes
    are equal when they hold the same records in the same order.
    """

    __slots__ = ("dates", "day", "price", "side", "volume")
    __hash__ = None  # mutable columns

    def __init__(self, dates, day, price, side, volume):
        self.dates = tuple(dates)
        self.day = np.asarray(day, dtype=np.int64)
        self.price = np.asarray(price, dtype=np.float64)
        self.side = np.asarray(side, dtype=np.int8)
        self.volume = np.asarray(volume, dtype=np.int64)
        n = self.day.size
        if any(col.shape != (n,) for col in (self.price, self.side, self.volume)):
            raise ValueError("tape columns must be one-dimensional and of equal length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("tape dates must be strictly increasing")
        if n and (self.day.min() < 0 or self.day.max() >= len(self.dates)):
            raise ValueError("day index outside the date table")

    def __len__(self) -> int:
        return self.day.size

    def __getitem__(self, key):
        if isinstance(key, (slice, np.ndarray)):
            return Tape(self.dates, self.day[key], self.price[key], self.side[key],
                        self.volume[key])
        return TapeRecord(self.dates[self.day[key]], float(self.price[key]),
                          _SIDE_OF_CODE[int(self.side[key])], int(self.volume[key]))

    def __iter__(self):
        dates = self.dates
        step = 1 << 14  # bounds the Python objects alive at once
        for lo in range(0, len(self), step):
            part = slice(lo, lo + step)
            for day, price, side, volume in zip(
                    self.day[part].tolist(), self.price[part].tolist(),
                    self.side[part].tolist(), self.volume[part].tolist()):
                yield TapeRecord(dates[day], price, _SIDE_OF_CODE[side], volume)

    def _row_ordinals(self) -> np.ndarray:
        """Each trade's date as a proleptic Gregorian ordinal."""
        return np.array([day.toordinal() for day in self.dates], dtype=np.int64)[self.day]

    def __eq__(self, other):
        if not isinstance(other, Tape):
            return NotImplemented
        same_days = (np.array_equal(self.day, other.day) if self.dates == other.dates
                     else np.array_equal(self._row_ordinals(), other._row_ordinals()))
        return (len(self) == len(other) and same_days
                and np.array_equal(self.price, other.price)
                and np.array_equal(self.side, other.side)
                and np.array_equal(self.volume, other.volume))

    def __repr__(self) -> str:
        return f"Tape({len(self)} trades, {len(self.dates)} dates)"


@dataclass(frozen=True)
class RowError:
    line_no: int  # 1-based line number in the input
    reason: str
    raw: str


@dataclass
class ParseResult:
    records: Tape
    errors: list[RowError]
    n_data_rows: int
    n_header_rows: int


# Rejection reasons; a row gets the first that applies, in this order.
_SHORT, _BAD_DATE, _BAD_PRICE, _NONFINITE_PRICE, _NONPOSITIVE_PRICE, \
    _BAD_VOLUME, _NONPOSITIVE_VOLUME, _HUGE_VOLUME = range(1, 9)
_REASONS = {_SHORT: "short row", _BAD_DATE: "malformed date",
           _BAD_PRICE: "malformed price", _NONFINITE_PRICE: "non-finite price",
           _NONPOSITIVE_PRICE: "nonpositive price", _BAD_VOLUME: "malformed volume",
           _NONPOSITIVE_VOLUME: "nonpositive volume",
           _HUGE_VOLUME: "volume out of range"}
_MAX_VOLUME = int(np.iinfo(np.int64).max)

# Body lines are read this many at a time, which bounds the arrays and
# the token strings alive at once.
_CHUNK_LINES = 1 << 14

# A line that starts with one of these bytes (ASCII white space, or the
# lead byte of a multi-byte character) may be blank.
_MAYBE_BLANK = np.array([c >= 0x80 or chr(c).isspace() for c in range(256)])

# A token is keyed by at most two little-endian words of _WORD bytes,
# the first with the token's length in its top byte; a longer token is
# keyed by its row, under a top byte no length up to _WORD_CAP takes.
_WORD = 7
_WORD_CAP = 2 * _WORD
_LONG_KEY = np.uint64(0xFF << 8 * _WORD)
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(_WORD + 1)], dtype=np.uint64)
_PAD = 2 * (_WORD + 1)  # zero bytes after a chunk, which a key word may reach into


def _parse_date(text: str) -> Optional[dt.date]:
    try:  # the date of an ASCII token, or None
        return parse_date(text.strip()) if text.isascii() else None
    except ValueError:
        return None


def _parse_price(text: str) -> tuple[float, int]:
    """(price, 0), or (nan, rejection reason)."""
    try:
        price = parse_number(text)
    except ValueError:
        return math.nan, _BAD_PRICE
    if not math.isfinite(price):
        return math.nan, _NONFINITE_PRICE
    if price <= 0:
        return math.nan, _NONPOSITIVE_PRICE
    return price, 0


def _parse_volume(text: str) -> tuple[int, int]:
    """(volume, 0), or (0, rejection reason)."""
    try:
        volume = parse_number(text, int)
    except ValueError:
        return 0, _BAD_VOLUME
    if volume <= 0:
        return 0, _NONPOSITIVE_VOLUME
    if volume > _MAX_VOLUME:
        return 0, _HUGE_VOLUME
    return volume, 0


def _detect_delimiter(lines: list[str]) -> str:
    counts = {d: 0 for d in DELIMITERS}
    for line in lines[:20]:
        for d in DELIMITERS:
            counts[d] += line.count(d)
    best = max(DELIMITERS, key=lambda d: counts[d])
    return best if counts[best] > 0 else ","


def _parse_side(text: str) -> Side:
    flag = text.strip().upper() if text.isascii() else ""  # "ſ".upper() is "S"
    if flag == "B":
        return Side.BUY
    if flag == "S":
        return Side.SELL
    return Side.UNKNOWN


class _TokenCodes(dict):
    """Token -> code, numbering each token the first time it is looked up."""

    def __missing__(self, token: str) -> int:
        self[token] = code = len(self)
        return code

    def code(self, tokens: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, tokens), np.int64, len(tokens))


class _ByteLines(Sequence):
    r"""UTF-8 text held as bytes, as a sequence of its lines: split at
    b"\n" alone, each decoded when it is taken.  Text that came from a
    str decodes with "surrogatepass", so a lone surrogate goes round."""

    def __init__(self, data: memoryview, errors: str = "strict"):
        self.data, self.errors = data, errors
        self.ends = np.append(np.flatnonzero(np.frombuffer(data, np.uint8) == 10), len(data))

    def __len__(self) -> int:
        return self.ends.size

    def __getitem__(self, i: int) -> str:
        return self.text(self.start(i), int(self.ends[i]))

    def start(self, i: int) -> int:
        return int(self.ends[i - 1]) + 1 if i else 0

    def text(self, lo: int, hi: int) -> str:
        """data[lo:hi] decoded; an error counts its position from data[0]."""
        try:
            return str(self.data[lo:hi], "utf-8", self.errors)
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError(exc.encoding, bytes(self.data), lo + exc.start,
                                     lo + exc.end, exc.reason) from None


def parse_tape(stream: bytes | str) -> ParseResult:
    r"""Parse a tape into date-ordered records plus per-row error reports.

    `stream` is UTF-8 bytes or one string.  Bytes are split into lines
    at b"\n" alone; a string where `read_tape` splits a file, at "\n",
    "\r\n" and a lone "\r".  Rows are sorted by date (stable within a
    day).  Every data row ends up either in `records` or in `errors`.

    The body is read from its bytes, `_CHUNK_LINES` lines at a time
    (`_code_lines`): each line with four fields or more is coded from
    its first four, and every column's tokens are coded to their
    distinct values.  Each distinct token is parsed once, with the same
    rules a single row would get.  The text and its line ends are
    released once the rejected rows' text is taken, and the record
    columns are gathered one at a time.
    """
    lines = _byte_lines(stream)
    del stream  # `lines` holds the text from here, so releasing it frees it
    delimiter = _detect_delimiter(list(islice((ln for ln in lines if ln.strip()), 20)))

    n_header = 0
    start = len(lines)
    for line_no, line in enumerate(lines):
        if not line.strip():
            continue
        if _parse_date(line.split(delimiter)[0]) is not None:
            start = line_no
            break
        n_header += 1

    # token tables and per-row codes of the date, price, side and volume columns
    tables = (_TokenCodes(), _TokenCodes(), _TokenCodes(), _TokenCodes())
    codes: tuple[list[np.ndarray], ...] = ([], [], [], [])
    row_lines: list[np.ndarray] = []  # 0-based line index of every coded row
    errors: list[RowError] = []  # the short rows, until the coded rows' are added
    for lo in range(start, len(lines), _CHUNK_LINES):
        rows = _code_lines(lines, lo, min(lo + _CHUNK_LINES, len(lines)), delimiter,
                           tables, codes, errors)
        row_lines.append(rows + lo)
    n_data = sum(part.size for part in row_lines) + len(errors)

    date_codes, price_codes, side_codes, volume_codes = map(_joined, codes)
    row_lines = _joined(row_lines)

    # each distinct token parsed once, then looked up per row
    token_dates = [_parse_date(token) for token in tables[0]]
    dates = sorted({day for day in token_dates if day is not None})
    rank = {day: i for i, day in enumerate(dates)}
    day_of = np.array([rank[day] if day is not None else -1 for day in token_dates],
                      dtype=np.int64)
    price_of, price_reason = _table(tables[1], _parse_price, np.float64)
    volume_of, volume_reason = _table(tables[3], _parse_volume, np.int64)
    side_of = np.array([SIDE_CODE[_parse_side(token)] for token in tables[2]], dtype=np.int8)

    day = day_of[date_codes]
    del date_codes
    reason = np.where(day < 0, _BAD_DATE, price_reason[price_codes])
    reason = np.where(reason == 0, volume_reason[volume_codes], reason)
    bad = np.flatnonzero(reason)
    errors.extend(RowError(i + 1, _REASONS[r], lines[i])
                  for i, r in zip(row_lines[bad].tolist(), reason[bad].tolist()))
    del lines  # the text and its line ends
    errors.sort(key=lambda err: err.line_no)

    # the accepted rows in tape order; each column is gathered, then its codes freed
    keep = np.flatnonzero(reason == 0)
    keep = keep[np.lexsort((row_lines[keep], day[keep]))]
    day = day[keep]
    del row_lines
    price = price_of[price_codes[keep]]
    del price_codes
    side = side_of[side_codes[keep]]
    del side_codes
    volume = volume_of[volume_codes[keep]]
    del volume_codes
    return ParseResult(Tape(dates, day, price, side, volume), errors, n_data, n_header)


def _byte_lines(stream: bytes | str) -> _ByteLines:
    """The lines of either input `parse_tape` takes, held as UTF-8 bytes."""
    if isinstance(stream, (bytes, bytearray, memoryview)):
        return _ByteLines(memoryview(stream).cast("B"))
    text = stream.replace("\r\n", "\n").replace("\r", "\n")
    return _ByteLines(memoryview(text.encode("utf-8", "surrogatepass")), "surrogatepass")


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts concatenated; the list is emptied, so they can be freed."""
    joined = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    parts.clear()
    return joined


def _code_lines(lines: _ByteLines, lo: int, hi: int, delimiter: str, tables, codes,
                errors: list[RowError]) -> np.ndarray:
    """Code the data lines among lines[lo:hi] from their bytes.

    A line with four fields or more is coded from its first four: the
    codes of each column go to its list in `codes`.  A line is decoded
    on its own only to tell a blank line from a short row: when it has
    fewer than four fields, or when the delimiter is white space and the
    line starts with white space or a non-ASCII byte.  A blank line is
    passed over and a short row goes to `errors`.  Returns the indices,
    from `lo`, of the coded lines.
    """
    begin, end = lines.start(lo), int(lines.ends[hi - 1])
    lines.text(begin, end)  # a line end is a character boundary: check the UTF-8 here
    raw = bytearray(end - begin + _PAD)
    raw[:end - begin] = lines.data[begin:end]
    ends = lines.ends[lo:hi] - begin
    byte = np.frombuffer(raw, np.uint8)
    size = int(ends[-1])
    starts = np.concatenate(([0], ends[:-1] + 1))
    # where fields end: every delimiter and line end
    seps = np.append(np.flatnonzero((byte[:size] == ord(delimiter)) | (byte[:size] == 10)),
                     size)
    last = np.searchsorted(seps, ends)  # the entry of each line's end in `seps`
    count = np.diff(last, prepend=-1)  # fields per line
    coded = count >= 4
    check = ~coded & (ends > starts)  # an empty line is blank
    if delimiter.isspace():
        check |= coded & _MAYBE_BLANK[byte[starts]]
    for i in np.flatnonzero(check).tolist():
        line = lines[lo + i]
        if not line.strip():
            coded[i] = False
        elif not coded[i]:
            errors.append(RowError(lo + i + 1, _REASONS[_SHORT], line))
    rows = np.flatnonzero(coded)
    # field j of a coded line ends at seps[last[i - 1] + 1 + j].  Built in C
    # order so that each row is contiguous (np.vstack with the transposed
    # fields gives Fortran order, and strided rows slowed the parse by ~15%)
    length = seps[(last - count + 1)[rows] + np.arange(4)[:, None]]  # each field's end
    del seps  # the chunk's largest array, not needed for the tokens
    first = np.empty_like(length)
    first[0] = starts[rows]
    first[1:] = length[:-1] + 1
    length -= first
    # an 8-byte word at every byte offset
    words = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    for table, out, at, n in zip(tables, codes, first, length):
        out.append(_token_codes(raw, words, at, n, table))
    return rows


def _token_codes(raw: bytearray, words: np.ndarray, first: np.ndarray, length: np.ndarray,
                 table: _TokenCodes) -> np.ndarray:
    """The code in `table` of each token raw[first:first + length]."""
    if not first.size:
        return np.zeros(0, dtype=np.int64)
    keys = [words[first] & _LOW_BYTES[np.minimum(length, _WORD)]
            | length.astype(np.uint64) << np.uint64(8 * _WORD)]
    if length.max() > _WORD:
        keys.append(words[first + _WORD] & _LOW_BYTES[np.clip(length - _WORD, 0, _WORD)])
    # a longer token than the words hold gets a key of its own: it is decoded on its own
    long = np.flatnonzero(length > _WORD_CAP)
    keys[0][long] = _LONG_KEY | long.astype(np.uint64)
    # tokens come in runs (a day's dates): each run is coded once, at its head
    is_head = np.zeros(first.size, dtype=bool)
    is_head[0] = True
    for key in keys:
        is_head[1:] |= key[1:] != key[:-1]
    heads = np.flatnonzero(is_head)
    key = keys[0][heads]
    if len(keys) > 1:  # one code for the pair of words
        low_keys, low = np.unique(keys[1][heads], return_inverse=True)
        key = np.unique(key, return_inverse=True)[1] * low_keys.size + low
    distinct_keys, inverse = np.unique(key, return_inverse=True)  # return_index sorts stably, slower
    where = np.empty(distinct_keys.size, dtype=np.int64)
    where[inverse] = heads  # a row with each distinct key
    at, size = first[where].tolist(), length[where].tolist()
    # the chunk's UTF-8 is checked: "surrogatepass" only lets a str's surrogates through
    distinct = table.code([raw[i:i + n].decode("utf-8", "surrogatepass")
                           for i, n in zip(at, size)])
    return distinct[inverse][np.cumsum(is_head) - 1]


def _table(tokens: _TokenCodes, parse, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Parsed value and rejection reason of every distinct token."""
    parsed = [parse(token) for token in tokens]
    return (np.array([value for value, _ in parsed], dtype=dtype),
            np.array([reason for _, reason in parsed], dtype=np.int8))


def _coded_text(values: np.ndarray, text) -> np.ndarray:
    """`text(v)` for every entry, formatting each distinct value once."""
    keys = values.view(np.int64) if values.dtype == np.float64 else values  # -0.0 stays apart
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array([text(v) for v in distinct.view(values.dtype).tolist()],
                    dtype=object)[inverse.reshape(-1)]


def serialize(tape: Tape) -> str:
    """Canonical comma-separated form; parse_tape(serialize(t)).records == t."""
    # one cell per field, each with the separator that follows it
    cells = np.empty((len(tape), 4), dtype=object)
    cells[:, 0] = np.array([f"{day.isoformat()}," for day in tape.dates], dtype=object)[tape.day]
    cells[:, 1] = _coded_text(tape.price, lambda price: f"{price!r},")
    # indexed by side code: 0 unknown, 1 buy, and -1 wraps round to sell
    cells[:, 2] = np.array([f"{side.value}," for side in (Side.UNKNOWN, Side.BUY, Side.SELL)],
                           dtype=object)[tape.side]
    cells[:, 3] = _coded_text(tape.volume, lambda volume: f"{volume}\n")
    return "Trddt,Stkprc,Parcha,Trdtims\n" + "".join(cells.ravel().tolist())


def read_tape(path) -> ParseResult:
    r"""Parse a UTF-8 tape file; "\r\n" and a lone "\r" end a line as
    "\n" does (universal newlines)."""
    return parse_tape(_read_bytes(path))  # unnamed here, so parse_tape can free them


def _read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        data = handle.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def summarize(tape: Tape, side: Optional[Side] = None) -> dict:
    """Descriptive statistics for a tape, optionally restricted to one side:
    a dict of trade_count, min_price, avg_price, max_price, std_price,
    avg_daily_volume, sample_volume_variance and unknown_side_fraction.

    avg_daily_volume is total volume over distinct trading days; the
    volume variance is the unbiased per-trade variance (0 for a single
    trade); price std likewise.
    """
    if side is not None:
        tape = tape[tape.side == SIDE_CODE[side]]
    if not len(tape):
        raise ValueError("no records")

    n = len(tape)
    prices = tape.price.tolist()
    volumes = tape.volume.tolist()
    # fsum keeps the statistics exactly permutation-invariant
    avg_price = math.fsum(prices) / n
    avg_volume = math.fsum(volumes) / n
    if n > 1:
        std_price = math.sqrt(math.fsum((p - avg_price) ** 2 for p in prices) / (n - 1))
        var_volume = math.fsum((v - avg_volume) ** 2 for v in volumes) / (n - 1)
    else:
        std_price = 0.0
        var_volume = 0.0
    n_days = int(np.count_nonzero(np.bincount(tape.day)))
    unknown = int(np.count_nonzero(tape.side == 0))
    return {
        "trade_count": n,
        "min_price": min(prices),
        "avg_price": avg_price,
        "max_price": max(prices),
        "std_price": std_price,
        "avg_daily_volume": math.fsum(volumes) / n_days,
        "sample_volume_variance": var_volume,
        "unknown_side_fraction": unknown / n,
    }


def validate(tape: Tape, errors: Iterable[RowError] = ()) -> dict:
    """Report-only checks: unknown-side share and rejected-row tallies,
    as the dict an ingest writes to its validation JSON: n_records,
    unknown_side_count, unknown_side_fraction, unknown_side_flag,
    rejected_by_reason (reason -> rows, sorted by reason) and n_rejected.

    The unknown-side flag raises when more than 10% of records carry no
    B/S stamp, the documented quality bound for these tapes.
    """
    n = len(tape)
    unknown = int(np.count_nonzero(tape.side == 0))
    fraction = unknown / n if n else 0.0
    by_reason = Counter(err.reason for err in errors)
    return {
        "n_records": n,
        "unknown_side_count": unknown,
        "unknown_side_fraction": fraction,
        "unknown_side_flag": fraction > UNKNOWN_SIDE_FLAG_THRESHOLD,
        "rejected_by_reason": dict(sorted(by_reason.items())),
        "n_rejected": by_reason.total(),
    }

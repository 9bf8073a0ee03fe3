"""The one CSV idiom of every artifact the pipeline reads or writes, and
the one date form and number rule of every tape and artifact.

An artifact is comma-separated text: `#` comment lines (the provenance
stamp), an optional header row, then data rows of as many fields; a
dated one (states, predictions, residuals) is `date, [labels], b0..bN`.
It lives apart from the tape parser, so a command that reads or writes
artifacts only never loads the tape layer.
"""

from __future__ import annotations

import datetime as dt
import re
from collections.abc import Sequence
from typing import Iterable, Optional

import numpy as np

_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> dt.date:
    """The date of a `YYYY-MM-DD` token in ASCII digits, else ValueError;
    from Python 3.11 on `date.fromisoformat` alone also takes 20090106."""
    if not _DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def parse_number(text: str, kind=float):
    """`kind(text)` of an ASCII token without `_`; ValueError otherwise.
    `float` and `int` alone also take `1_000` and non-ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError(f"malformed number {text!r}")
    return kind(text)


def read_table_csv(handle) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a comma-separated artifact.

    Blank lines and `#` comment lines (the provenance stamp) are skipped;
    the first remaining line is the header, and every data row must have
    as many fields as the header.
    """
    lines = [line.split(",") for line in (raw.strip() for raw in handle)
             if line and not line.startswith("#")]
    if not lines:
        raise ValueError("no header row")
    header, rows = lines[0], lines[1:]
    for number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"data row {number} has {len(row)} fields, "
                             f"the header has {len(header)}")
    return header, rows


def dated_matrix(header: Sequence[str], rows: list[list[str]],
                 labels: int = 0) -> tuple[list[dt.date], np.ndarray]:
    """The dates (column 0) and the values (after `labels` more columns)
    of a dated artifact's rows; ValueError unless the dates strictly
    increase and every value is a finite number."""
    if len(header) < 2 + labels:
        raise ValueError("rows file has no value columns")
    if not rows:
        raise ValueError("empty rows file")
    dates = [parse_date(row[0]) for row in rows]
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValueError("row dates must be strictly increasing")
    values = np.array([[parse_number(v) for v in row[1 + labels:]] for row in rows],
                      dtype=float)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"row {dates[bad[0]]} holds a non-finite value")
    return dates, values


def _text(cell: str) -> str:
    """`cell` as is: a comma or a line break in it would split its row."""
    if "," in cell or "\r" in cell or "\n" in cell:
        raise ValueError(f"CSV cell {cell!r} holds a comma or a line break")
    return cell


def _cell(value) -> str:
    if type(value) is float:  # the common cell
        return repr(value)
    if isinstance(value, str):
        return _text(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_table_csv(handle, header: Optional[Sequence[str]], rows: Iterable) -> None:
    """Write a comma-separated artifact, the counterpart of `read_table_csv`.

    `header=None` writes no header line.  Each row is an iterable of
    cells: a `str` is written as is, a Python or numpy integer as
    `str(int(x))`, and anything else as `repr(float(x))`, so a float cell
    reads back bit for bit.  A header name or a `str` cell that holds a
    comma, `\r` or `\n` is refused with ValueError: nothing is quoted.
    """
    if header is not None:
        handle.write(",".join(map(_text, header)) + "\n")
    for row in rows:
        handle.write(",".join(map(_cell, row)) + "\n")


def write_dated_csv(handle, dates: Sequence[dt.date], values: np.ndarray, **labels: str) -> None:
    """Write the dated artifact `date, [labels], b0..bN`, the counterpart of
    `dated_matrix`; each label column holds its one value on every row."""
    header = ["date", *labels] + [f"b{k}" for k in range(values.shape[1])]
    write_table_csv(handle, header, ([day.isoformat(), *labels.values(), *row]
                                     for day, row in zip(dates, values.tolist())))

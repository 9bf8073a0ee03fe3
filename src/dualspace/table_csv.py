"""The one CSV idiom of every artifact the pipeline reads or writes.

An artifact is comma-separated text: `#` comment lines (the provenance
stamp), an optional header row, then data rows of as many fields.  It
lives apart from the tape parser, so a command that reads or writes
artifacts only never loads the tape layer.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterable, Optional

import numpy as np


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

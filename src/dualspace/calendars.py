"""Trading-day calendars, calendar months, and monthly index series.

A month is its serial 12·year + month − 1 and its key "YYYY-MM"."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .table_csv import parse_number, read_table_csv, write_table_csv


def _weekdays_before(ordinal: int) -> int:
    """Weekdays before the day of a proleptic ordinal; day 1, 0001-01-01,
    is a Monday."""
    weeks, days = divmod(ordinal - 1, 7)
    return 5 * weeks + min(days, 5)


def weekdays_from(start: dt.date) -> int:
    """Weekdays on or after `start` that `datetime.date` holds."""
    return _weekdays_before(dt.date.max.toordinal() + 1) - _weekdays_before(start.toordinal())


def trading_days(start: dt.date, n_days: int) -> list[dt.date]:
    """First `n_days` weekdays on or after `start` (no holiday calendar).
    Weekday w, counted from 0001-01-01, is day 1 + 7·(w // 5) + w % 5."""
    if n_days > weekdays_from(start):
        raise ValueError(f"{n_days} weekdays from {start} run past {dt.date.max}")
    first = _weekdays_before(start.toordinal())
    return [dt.date.fromordinal(1 + 7 * (w // 5) + w % 5) for w in range(first, first + n_days)]


def _month_keys(serials) -> list[str]:
    """The "YYYY-MM" key of each month serial 12·year + month − 1."""
    return [f"{s // 12:04d}-{s % 12 + 1:02d}" for s in serials]


#: Month serials of the years 1 to 9999, those `datetime.date` takes.
_SERIALS = range(12, 12 * 10000)


def month_index(days: list[dt.date]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct month keys of `days`, and each day's position
    among them."""
    serial = np.fromiter((12 * day.year + day.month - 1 for day in days), np.int64, len(days))
    distinct, position = np.unique(serial, return_inverse=True)
    return _month_keys(distinct.tolist()), position


@dataclass
class IndexSeries:
    name: str
    months: list[str]  # contiguous "YYYY-MM" keys
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.months) != self.values.size:
            raise ValueError("one value per month required")
        if not self.months:
            raise ValueError("index holds no months")
        if not np.isfinite(self.values).all():
            raise ValueError("index values must be finite")
        year, _, month = self.months[0].partition("-")
        try:
            first = 12 * int(year) + int(month) - 1
        except ValueError:
            raise ValueError(f"month {self.months[0]!r} is not a YYYY-MM key") from None
        run = range(first, first + len(self.months))
        if run[0] not in _SERIALS or run[-1] not in _SERIALS or self.months != _month_keys(run):
            raise ValueError("months must be contiguous YYYY-MM keys")

    def values_for(self, months: list[str]) -> np.ndarray:
        """The values of the given month keys, in their order."""
        position = {month: i for i, month in enumerate(self.months)}
        missing = [month for month in months if month not in position]
        if missing:
            raise ValueError(f"index {self.name!r} is missing months {missing}")
        return self.values[[position[month] for month in months]]


def write_index_csv(index: IndexSeries, handle) -> None:
    write_table_csv(handle, ["month", "value"], zip(index.months, index.values.tolist()))


def read_index_csv(handle, name: str = "") -> IndexSeries:
    header, rows = read_table_csv(handle)
    if len(header) < 2:
        raise ValueError("index file needs month and value columns")
    return IndexSeries(name or "index", [row[0] for row in rows],
                       np.array([parse_number(row[1]) for row in rows]))

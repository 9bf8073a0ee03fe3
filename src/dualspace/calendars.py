"""Trading-day calendars, calendar-month grouping helpers, and monthly
index series."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .tape_io import read_table_csv, write_table_csv


def trading_days(start: dt.date, n_days: int) -> list[dt.date]:
    """First `n_days` weekdays on or after `start` (no holiday calendar)."""
    days = []
    day = start
    while len(days) < n_days:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def month_key(day: dt.date) -> str:
    return f"{day.year:04d}-{day.month:02d}"


def month_first(key: str) -> dt.date:
    year, month = key.split("-")
    return dt.date(int(year), int(month), 1)


def month_range(first: dt.date, last: dt.date) -> list[str]:
    """Contiguous list of month keys from first's month through last's."""
    keys = []
    year, month = first.year, first.month
    while (year, month) <= (last.year, last.month):
        keys.append(f"{year:04d}-{month:02d}")
        month += 1
        if month == 13:
            month, year = 1, year + 1
    return keys


def month_index(days: list[dt.date]) -> tuple[list[str], np.ndarray]:
    """Sorted distinct month keys of `days`, and each day's position
    among them."""
    serial = np.fromiter((12 * day.year + day.month - 1 for day in days), np.int64, len(days))
    distinct, position = np.unique(serial, return_inverse=True)
    return [f"{s // 12:04d}-{s % 12 + 1:02d}" for s in distinct.tolist()], position


def group_by_month(days: list[dt.date]) -> dict[str, list[int]]:
    """Map month key -> positions of that month's days (order preserved)."""
    groups: dict[str, list[int]] = {}
    for i, day in enumerate(days):
        groups.setdefault(month_key(day), []).append(i)
    return groups


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
        expect = month_range(month_first(self.months[0]), month_first(self.months[-1]))
        if self.months != expect:
            raise ValueError("months must be contiguous")

    def value_for(self, key: str) -> float:
        return float(self.values[self.months.index(key)])


def write_index_csv(index: IndexSeries, handle) -> None:
    write_table_csv(handle, ["month", "value"], zip(index.months, index.values.tolist()))


def read_index_csv(handle, name: str = "") -> IndexSeries:
    header, rows = read_table_csv(handle)
    if len(header) < 2:
        raise ValueError("index file needs month and value columns")
    return IndexSeries(name or "index", [row[0] for row in rows],
                       np.array([float(row[1]) for row in rows]))

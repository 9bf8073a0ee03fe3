"""Interday correlation state space over price buckets.

A state row for the day pair (t, t+1) holds, per bucket, the Pearson
correlation between the two days' fine sub-cell volume profiles inside
that bucket.  Correlations live in [-1, 1] whatever the trading
intensity, which keeps the state comparable across calm and busy days;
a bucket whose profile is flat on either day contributes 0.
"""

from __future__ import annotations

import datetime as dt
import enum
from dataclasses import dataclass

import numpy as np

from .bucket_panel import PanelSeries, imbalance_profile
from .corrstats import rowwise_pearson
from .table_csv import dated_matrix, read_table_csv, write_dated_csv


class VolumeMode(enum.Enum):
    BUY = "buy"
    SELL = "sell"
    IMBALANCE = "imbalance"


@dataclass
class StateMatrix:
    values: np.ndarray  # (T, n_buckets), entries in [-1, 1]
    mode: VolumeMode
    dates: list[dt.date]  # later day of each pair, strictly increasing; length T

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != len(self.dates):
            raise ValueError("values rows must match dates")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("state dates must be strictly increasing")


#: Day pairs per whole-array pass of `state_matrix`: ~0.6 MB of transients, not 12 MB.
_PAIRS_PER_PASS = 16


def _profiles(buy: np.ndarray, sell: np.ndarray, mode: VolumeMode, geometric: bool):
    if mode is VolumeMode.IMBALANCE:
        return imbalance_profile(buy, sell, geometric=geometric)
    return buy if mode is VolumeMode.BUY else sell


def state_matrix(series: PanelSeries, mode: VolumeMode) -> StateMatrix:
    """Per-bucket profile correlation of every consecutive day pair, later
    day first (T = days - 1; 0 where flat), in whole-array passes."""
    if len(series) < 2:
        raise ValueError("need at least 2 days of panels")
    ns, rows = series.fine.shape[-1], []
    if ns < 2:
        raise ValueError(f"need at least 2 sub-cells per bucket to correlate profiles, got {ns}")
    for lo in range(0, len(series) - 1, _PAIRS_PER_PASS):
        fine = series.fine[lo:lo + _PAIRS_PER_PASS + 1]
        prof = _profiles(fine[:, 0], fine[:, 1], mode, series.config.geometric_imbalance)
        rows.append(rowwise_pearson(prof[1:].reshape(-1, ns), prof[:-1].reshape(-1, ns)))
    return StateMatrix(np.concatenate(rows).reshape(len(series) - 1, -1), mode, series.dates[1:])


def write_state_csv(states: StateMatrix, handle) -> None:
    write_dated_csv(handle, states.dates, states.values, mode=states.mode.value)


def read_state_csv(handle) -> StateMatrix:
    header, rows = read_table_csv(handle)
    if len(header) < 3:
        raise ValueError("state matrix file needs date, mode and bucket columns")
    if not rows:
        raise ValueError("empty state matrix file")
    known = {mode.value for mode in VolumeMode}
    unknown = next((row[1] for row in rows if row[1] not in known), None)
    if unknown is not None:
        raise ValueError(f"mode {unknown!r} is not one of "
                         + ", ".join(mode.value for mode in VolumeMode))
    modes = sorted({row[1] for row in rows})
    if len(modes) > 1:
        raise ValueError(f"state matrix rows mix modes {', '.join(modes)}")
    dates, values = dated_matrix(header, rows, labels=1)
    return StateMatrix(values, VolumeMode(modes[0]), dates)

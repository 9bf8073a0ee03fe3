"""Daily allocation of trade volume into price-change buckets.

Each trading day gets a reference price (the prior day's tape-wide
VWAP); every trade lands in bucket k = floor(|price - ref| / delta),
with sixteen 0.5-CNY buckets by default.  Day-over-day changes beyond
16 buckets (8 CNY) essentially never happen, so wider moves are counted
and discarded.  Within a bucket, volume is further profiled into fine
sub-cells (0.01 CNY by default); those profiles are what the interday
correlation state space is built from.  Trades without a B/S stamp are
kept out of both sides but tracked for volume conservation.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tape_io import Tape, write_table_csv

# Guard against float round-off right at a bucket/sub-cell edge: prices
# are cent-quantized, so a 1e-9 nudge on the division never misassigns
# a genuinely interior trade.
_EDGE_EPS = 1e-9


@dataclass(frozen=True)
class BucketConfig:
    delta: float = 0.5
    n_buckets: int = 16
    n_subcells: int = 50
    geometric_imbalance: bool = False

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n_buckets < 1 or self.n_subcells < 1:
            raise ValueError("n_buckets and n_subcells must be >= 1")

    @property
    def subcell_width(self) -> float:
        return self.delta / self.n_subcells


@dataclass
class DailyPanel:
    date: dt.date
    ref_price: float
    buy_vol: np.ndarray  # (n_buckets,) shares
    sell_vol: np.ndarray
    imb_vol: np.ndarray  # buy - sell, per bucket
    buy_vwap: np.ndarray  # (n_buckets,) CNY, 0 where the side is empty
    sell_vwap: np.ndarray
    fine_buy: np.ndarray  # (n_buckets, n_subcells) shares
    fine_sell: np.ndarray
    discarded_trades: int = 0
    discarded_volume: float = 0.0
    unknown_volume: float = 0.0

    def total_volume(self) -> float:
        return float(self.buy_vol.sum() + self.sell_vol.sum()
                     + self.discarded_volume + self.unknown_volume)


class PanelSeries:
    """A tape's bucket panels as whole-tape arrays, one row per trading day:
    `volume`, `vwap` (T, 2, n_buckets), buying side first; `fine`
    (T, 2, n_buckets, n_subcells); `ref_price`, `discarded_count`,
    `discarded_volume`, `unknown_volume` (T,).  `panels`, per-day
    `DailyPanel` views, is built on first access; the constructor stacks
    a list of panels, as `Tape.from_records` stacks records."""

    def __init__(self, panels: list[DailyPanel], config: BucketConfig):
        self._assign(config, [p.date for p in panels],
                     np.array([p.ref_price for p in panels], dtype=float),
                     np.array([(p.buy_vol, p.sell_vol) for p in panels], dtype=float),
                     np.array([(p.buy_vwap, p.sell_vwap) for p in panels], dtype=float),
                     np.array([(p.fine_buy, p.fine_sell) for p in panels], dtype=float),
                     np.array([p.discarded_trades for p in panels], dtype=np.int64),
                     np.array([p.discarded_volume for p in panels], dtype=float),
                     np.array([p.unknown_volume for p in panels], dtype=float))

    def _assign(self, config, dates, *arrays) -> "PanelSeries":
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("panel dates must be strictly increasing")
        self.config, self.dates = config, dates
        (self.ref_price, self.volume, self.vwap, self.fine, self.discarded_count,
         self.discarded_volume, self.unknown_volume) = arrays
        side = (len(dates), 2, config.n_buckets)
        if dates and (self.volume.shape != side or self.vwap.shape != side
                      or self.fine.shape != side + (config.n_subcells,)):
            raise ValueError(f"panels must hold (2, {config.n_buckets}) side arrays and "
                             f"(2, {config.n_buckets}, {config.n_subcells}) sub-cell arrays")
        self.discarded_trades = int(self.discarded_count.sum())
        return self

    @cached_property
    def panels(self) -> list[DailyPanel]:
        imb_vol = self.volume[:, 0] - self.volume[:, 1]  # one array, not a small one a day
        return [DailyPanel(day, ref, vol[0], vol[1], imb, vwap[0], vwap[1], fine[0], fine[1], *n)
                for day, ref, vol, imb, vwap, fine, *n in zip(
                    self.dates, self.ref_price.tolist(), self.volume, imb_vol, self.vwap,
                    self.fine, self.discarded_count.tolist(), self.discarded_volume.tolist(),
                    self.unknown_volume.tolist())]

    def __len__(self) -> int:
        return len(self.dates)


def imbalance_profile(buy: np.ndarray, sell: np.ndarray, geometric: bool = False) -> np.ndarray:
    """Buy-minus-sell volume; geometric mode uses sign(B-S)*sqrt(B*S)."""
    if geometric:
        return np.sign(buy - sell) * np.sqrt(buy * sell)
    return buy - sell


def _by_day(tape: Tape) -> tuple[list[dt.date], np.ndarray, Tape]:
    """The dates that have trades, each trade's index into them, and the
    tape with its trades in date order (stable within a day)."""
    if np.any(tape.day[1:] < tape.day[:-1]):
        tape = tape[np.argsort(tape.day, kind="stable")]
    counts = np.bincount(tape.day, minlength=len(tape.dates))
    days = [tape.dates[i] for i in np.flatnonzero(counts).tolist()]
    return days, (np.cumsum(counts > 0) - 1)[tape.day], tape


def _reference_array(day_ix: np.ndarray, tape: Tape, n_days: int) -> np.ndarray:
    # bincount adds each day's trades in row order, as a running sum would
    volume = np.bincount(day_ix, weights=tape.volume, minlength=n_days)
    value = np.bincount(day_ix, weights=tape.price * tape.volume, minlength=n_days)
    known = np.flatnonzero(volume > 0)
    # VWAP of the last earlier day with volume, else of the first one, else 0.0
    vwaps = np.append(value[known] / volume[known], 0.0)
    return vwaps[np.maximum(np.searchsorted(known, np.arange(n_days)) - 1, 0)]


def reference_prices(tape: Tape) -> dict[dt.date, float]:
    """Per-day reference price: the prior trading day's all-trade VWAP.

    The first day references its own VWAP; a zero-volume day carries the
    previous reference forward.
    """
    days, day_ix, tape = _by_day(tape)
    if not days:
        raise ValueError("no records")
    return dict(zip(days, _reference_array(day_ix, tape, len(days)).tolist()))


def build_panels(tape: Tape, config: BucketConfig = BucketConfig()) -> PanelSeries:
    """Bucket every day's trades and build the panel series.

    Per trade: c = |price - ref|, bucket floor(c/delta), sub-cell
    floor within the bucket clamped to the last cell.  Trades at or
    beyond n_buckets are discarded (counted); Unknown-side volume is
    excluded from both sides but tracked.  All days are bucketed at
    once, into the series' whole-tape arrays.
    """
    days, day_ix, tape = _by_day(tape)
    n_days = len(days)
    if n_days < 2:
        raise ValueError("records must span at least 2 days")
    ref = _reference_array(day_ix, tape, n_days)

    nb, ns = config.n_buckets, config.n_subcells
    prices = tape.price
    volumes = tape.volume.astype(float)
    c = np.abs(prices - ref[day_ix])
    bucket = np.floor(c / config.delta + _EDGE_EPS)
    keep = bucket < nb
    known = tape.side != 0

    def per_day(mask, weights=None):
        return np.bincount(day_ix[mask], weights=None if weights is None else weights[mask],
                           minlength=n_days)

    unknown_volume = per_day(~known, volumes)
    discard_mask = ~keep & known
    discarded_trades = per_day(discard_mask)
    discarded_volume = per_day(discard_mask, volumes)

    use = keep & known
    kb = bucket[use].astype(np.int64)
    within = c[use] - kb * config.delta
    cell = np.floor(within / config.subcell_width + _EDGE_EPS).astype(np.int64)
    cell = np.clip(cell, 0, ns - 1)
    side_ix = (tape.side[use] < 0).astype(np.int64)  # 0 = buy, 1 = sell
    slot = (day_ix[use] * 2 + side_ix) * nb + kb  # flat (day, side, bucket)
    vol = volumes[use]
    fine = np.bincount(slot * ns + cell, weights=vol,
                       minlength=n_days * 2 * nb * ns).reshape(n_days, 2, nb, ns)
    price_sum = np.bincount(slot, weights=prices[use] * vol,
                            minlength=n_days * 2 * nb).reshape(n_days, 2, nb)
    vol_sum = np.bincount(slot, weights=vol, minlength=n_days * 2 * nb).reshape(n_days, 2, nb)

    vwap = np.where(vol_sum > 0, price_sum / np.where(vol_sum > 0, vol_sum, 1.0), 0.0)
    return PanelSeries.__new__(PanelSeries)._assign(  # takes the arrays as built
        config, days, ref, fine.sum(axis=3), vwap, fine,
        discarded_trades, discarded_volume, unknown_volume)


def write_panels_csv(series: PanelSeries, handle) -> None:
    """Long-format export: one row per (date, bucket)."""
    write_table_csv(handle, ["date", "bucket", "buy_vol", "sell_vol", "imb_vol",
                             "buy_vwap", "sell_vwap"],
                    ([panel.date.isoformat(), k, panel.buy_vol[k], panel.sell_vol[k],
                      panel.imb_vol[k], panel.buy_vwap[k], panel.sell_vwap[k]]
                     for panel in series.panels for k in range(series.config.n_buckets)))


def write_fine_csv(series: PanelSeries, handle) -> None:
    """Wide export of the sub-cell volume profiles (buy and sell rows)."""
    header = ["date", "side", "bucket"] + [f"c{j}" for j in range(series.config.n_subcells)]
    write_table_csv(handle, header,
                    ([day.isoformat(), "BS"[s], k, *series.fine[d, s, k].tolist()]
                     for d, day in enumerate(series.dates) for s in (0, 1)
                     for k in range(series.config.n_buckets)))

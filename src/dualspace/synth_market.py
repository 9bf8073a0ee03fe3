"""Seeded synthetic market generator with planted ground truth.

Emits multi-trader daily tapes in the canonical format.  All traders
sample the same market: a shared price level walk, a shared set of
"anchor" price displacements (persistent crowd price points, with
slowly drifting popularity weights), and shared daily buy probabilities.
Idiosyncrasy comes from each trader's own draws and from a diffuse
(non-anchored) trade component; the anchored fraction is the
signal-to-noise knob.

The planted index couplings work through the order flow: each day's
buy probability is tilted by the standardized monthly index values.
Buys concentrate close to the reference (small price-change buckets)
while sells reach further out, so a tilt changes per-bucket trade
intensity and imbalance-profile structure in a signed, bucket-patterned
way that survives into the correlation state space.  Buys print half a
spread above the level and sells below it, giving bucket-level ask/bid
proxies for the liquidity measures.  Shock windows rescale volumes and
the spread for event-study power tests.

Calibration targets (loose, order-of-magnitude): a few times 1e4
trades per tape over ~485 days, prices around 9 CNY, order 1e4 shares
of volume per day.

`MarketConfig` holds only what a caller sets: size, seed, shocks,
couplings, the anchored fraction, the seven shape fields (each the
`synth` config key of the same name) and `shared_market`.  Everything
else is a module constant: the start date (`START_DATE`), the price
level walk (`LEVEL_START`, `LEVEL_STEP_SIGMA`, `LEVEL_FLOOR`,
`LEVEL_CEILING`), the return and yield indexes (`RETURN_AR`,
`YIELD_AR`, `RETURN_ON_SENTIMENT`), the anchors (`N_ANCHORS`,
`ANCHOR_SCATTER`, `ANCHOR_WEIGHT_AR`, `ANCHOR_WEIGHT_SIGMA`,
`ANCHOR_AFFINITY_SIGMA`) and the trades (`VOLUME_LOGNORMAL`,
`WIDTH_AR`, `WIDTH_SIGMA`, `VOLUME_CONCENTRATION`,
`UNKNOWN_SIDE_RATE`).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, replace

import numpy as np

from . import tape_io
from .calendars import IndexSeries, month_index, trading_days


# ── fixed generator settings ───────────────────────────────────────────

START_DATE = dt.date(2009, 1, 5)

# Shared price level: a reflected random walk.  The band sits above the
# widest anchor offset so mirrored trade legs never hit the price floor.
LEVEL_START = 12.0
LEVEL_STEP_SIGMA = 0.02
LEVEL_FLOOR = 9.0
LEVEL_CEILING = 16.0

# Monthly indexes: AR(1) coefficients of the return and yield series, and
# the cross-loading of returns on sentiment.
RETURN_AR = 0.3
YIELD_AR = 0.8
RETURN_ON_SENTIMENT = 0.5

# Anchors: persistent crowd price points in price-change space.
N_ANCHORS = 64
ANCHOR_SCATTER = 0.04        # CNY; local spread of trades around an anchor
ANCHOR_WEIGHT_AR = 0.85      # day-to-day persistence of anchor popularity
ANCHOR_WEIGHT_SIGMA = 0.25
ANCHOR_AFFINITY_SIGMA = 0.8  # fixed per-anchor buy-vs-sell preference (log scale)

VOLUME_LOGNORMAL = (4.7, 0.6)  # (mu, sigma) of per-trade shares
WIDTH_AR = 0.6                 # persistence of the shared diffuse-width state
WIDTH_SIGMA = 0.25
VOLUME_CONCENTRATION = 1.2     # CNY; volume decays away from the reference
UNKNOWN_SIDE_RATE = 0.05


@dataclass(frozen=True)
class Couplings:
    g_sent: float = 0.0
    g_ret: float = 0.0
    g_yield: float = 0.0

    def __post_init__(self):
        for g in (self.g_sent, self.g_ret, self.g_yield):
            if not -1 <= g <= 1:
                raise ValueError("couplings must lie in [-1, 1]")


@dataclass(frozen=True)
class ShockSpec:
    start_day: int
    end_day: int  # half-open [start_day, end_day)
    volume_mult: float = 1.0
    spread_mult: float = 1.0


@dataclass(frozen=True)
class MarketConfig:
    n_traders: int = 5
    n_days: int = 485
    trades_per_day_mean: float = 180.0
    seed: int = 0
    shocks: tuple[ShockSpec, ...] = ()
    couplings: Couplings = Couplings()
    anchored_fraction: float = 0.9  # share of trades on common anchors (the SNR knob)
    # the shape fields, each a `synth` config key of the same name
    spread: float = 0.04
    sentiment_ar: float = 0.7
    anchor_max_offset: float = 7.8  # CNY; keeps anchors inside the 16-bucket range
    anchor_buy_reach: float = 0.7   # CNY; buys prefer anchors near the reference
    anchor_sell_reach: float = 1.6  # sells reach further out
    buy_width: float = 0.5    # diffuse-component displacement scale, buy side
    sell_width: float = 1.2   # diffuse sells scatter wider
    shared_market: bool = True  # False = independent level/anchor streams per trader

    def __post_init__(self):
        if self.n_traders < 0:
            raise ValueError("n_traders must be >= 0")
        if self.n_days < 2:
            raise ValueError("n_days must be >= 2")
        if not 0.0 <= self.anchored_fraction <= 1.0:
            raise ValueError("anchored_fraction must lie in [0, 1]")
        if not 0.0 <= self.trades_per_day_mean < float("inf"):
            raise ValueError("trades_per_day_mean must be finite and nonnegative")
        if not abs(self.sentiment_ar) < 1.0:
            raise ValueError("sentiment_ar must lie strictly between -1 and 1")
        if not self.anchor_max_offset >= 0.0:
            raise ValueError("anchor_max_offset must be >= 0")
        for key in ("anchor_buy_reach", "anchor_sell_reach"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be > 0")


def snr_to_anchored_fraction(snr: float) -> float:
    """Map a signal-to-noise ratio to the anchored trade fraction."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return snr / (1.0 + snr)


@dataclass
class GroundTruth:
    trading_dates: list[dt.date]
    months: list[str]
    sentiment: list[float]
    stock_return: list[float]
    bond_yield: list[float]
    daily_tilt: list[float]  # planted buy-probability tilt per day, in [-1, 1]
    shock_windows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "trading_dates": [d.isoformat() for d in self.trading_dates],
            "months": self.months,
            "sentiment": self.sentiment,
            "stock_return": self.stock_return,
            "bond_yield": self.bond_yield,
            "daily_tilt": self.daily_tilt,
            "shock_windows": self.shock_windows,
        }


@dataclass
class SynthTape:
    trader_id: str
    records: tape_io.Tape

    @property
    def text(self) -> str:
        """The tape in canonical CSV form, serialized on each access."""
        return tape_io.serialize(self.records)


@dataclass
class SynthMarket:
    config: MarketConfig
    indexes: dict[str, IndexSeries]
    tapes: list[SynthTape]
    truth: GroundTruth


def _seed_children(config: MarketConfig):
    # child 0: indexes, child 1: shared market streams, 2+i: trader i
    return np.random.SeedSequence(config.seed).spawn(2 + config.n_traders)


def _ar1(rng: np.random.Generator, shape, ar: float) -> np.ndarray:
    """AR(1) paths along the last axis, from a stationary start."""
    innov = rng.standard_normal(shape)
    out = np.empty_like(innov)
    steps, path = innov.T, out.T  # time on the first axis
    path[0] = steps[0] * (1.0 / np.sqrt(1.0 - ar**2))
    for i in range(1, len(path)):
        path[i] = ar * path[i - 1] + steps[i]
    return out


def _orthogonalize(series: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """Project out the sample components of `others` (and the mean),
    then restore the original mean and standard deviation.

    Classical Gram-Schmidt on the centred columns, in elementwise
    products and `np.sum` only, so the bits do not depend on the BLAS
    kernel.  A column that the earlier ones span to rounding is skipped."""
    mean, std = series.mean(), series.std()
    tol = series.size * np.finfo(float).eps
    basis = []
    for col in others:
        centred = col - col.mean()
        q = centred - sum(np.sum(centred * b) * b for b in basis)
        norm = np.sqrt(np.sum(q * q))
        if norm > tol * np.sqrt(np.sum(col * col)):
            basis.append(q / norm)
    resid = series - mean
    resid = resid - sum(np.sum(resid * b) * b for b in basis)
    if resid.std() > 0:
        resid = resid / resid.std() * std
    return resid + mean


def gen_indexes(config: MarketConfig) -> tuple[dict[str, IndexSeries], GroundTruth]:
    """Monthly AR(1) indexes over the months spanned by the day calendar."""
    dates = trading_days(START_DATE, config.n_days)
    months, _ = month_index(dates)
    rng = np.random.default_rng(_seed_children(config)[0])
    n = len(months)
    sentiment = _ar1(rng, n, config.sentiment_ar)
    own_return = _ar1(rng, n, RETURN_AR)
    sent_std = (sentiment - sentiment.mean()) / (sentiment.std() or 1.0)
    stock_return = RETURN_ON_SENTIMENT * sent_std + own_return
    # The yield series is decorrelated from the other two in-sample:
    # "uncoupled" must hold for the emitted months, not just in
    # expectation, or short-sample spurious correlation would leak
    # through any planted flow coupling.
    bond_yield = _orthogonalize(_ar1(rng, n, YIELD_AR), sentiment, stock_return)

    indexes = {
        "sentiment": IndexSeries("sentiment", months, sentiment),
        "stock_return": IndexSeries("stock_return", months, stock_return),
        "bond_yield": IndexSeries("bond_yield", months, bond_yield),
    }
    truth = GroundTruth(
        trading_dates=dates,
        months=months,
        sentiment=[float(v) for v in sentiment],
        stock_return=[float(v) for v in stock_return],
        bond_yield=[float(v) for v in bond_yield],
        daily_tilt=[0.0] * config.n_days,
        shock_windows=[{"start_day": s.start_day, "end_day": s.end_day,
                        "volume_mult": s.volume_mult, "spread_mult": s.spread_mult}
                       for s in config.shocks],
    )
    return indexes, truth


class _MarketStreams:
    """Shared (or per-trader) market structure drawn from one generator."""

    def __init__(self, rng: np.random.Generator, config: MarketConfig):
        steps = rng.standard_normal(config.n_days) * LEVEL_STEP_SIGMA
        level = np.empty(config.n_days)
        x = LEVEL_START
        for i, step in enumerate(steps):
            x += step
            while x < LEVEL_FLOOR or x > LEVEL_CEILING:  # reflect back into band
                if x < LEVEL_FLOOR:
                    x = 2 * LEVEL_FLOOR - x
                if x > LEVEL_CEILING:
                    x = 2 * LEVEL_CEILING - x
            level[i] = x
        self.level = level

        u = _ar1(rng, config.n_days, WIDTH_AR) * WIDTH_SIGMA
        self.width_mult = np.exp(u - u.var() / 2.0)

        offsets = rng.uniform(0.0, config.anchor_max_offset, size=N_ANCHORS)
        affinity = rng.standard_normal(N_ANCHORS) * ANCHOR_AFFINITY_SIGMA
        drift = _ar1(rng, (N_ANCHORS, config.n_days), ANCHOR_WEIGHT_AR) * ANCHOR_WEIGHT_SIGMA
        weights = np.exp(drift)  # (n_anchors, n_days)
        self.anchor_offsets = offsets
        # a reach so short that offset / reach overflows gives the anchor
        # zero weight; _anchor_cdf refuses a day left with none
        with np.errstate(over="ignore"):
            buy = np.exp(-offsets / config.anchor_buy_reach + affinity)
            sell = np.exp(-offsets / config.anchor_sell_reach - affinity)
        self.buy_cdf = _anchor_cdf(weights * buy[:, None], "anchor_buy_reach")
        self.sell_cdf = _anchor_cdf(weights * sell[:, None], "anchor_sell_reach")


def _anchor_cdf(weights: np.ndarray, reach_key: str) -> np.ndarray:
    """Each day's cumulative anchor probabilities, (n_days, n_anchors).

    `cdf[d].searchsorted(rng.random(k), side="right")` draws k anchors
    exactly as `rng.choice(n_anchors, size=k, p=p[:, d])` would: the same
    table, the same uniforms.  The weights are exponentials, so never
    negative; a day's probabilities are well defined exactly when its
    weight sum is finite and positive, which is checked before dividing.
    """
    total = weights.sum(axis=0, keepdims=True)
    if not (np.isfinite(total) & (total > 0)).all():
        raise ValueError(f"{reach_key} leaves some day without a finite, positive "
                         "anchor weight sum")
    p = weights / total
    cdf = p.cumsum(axis=0)
    cdf /= cdf[-1]
    return np.ascontiguousarray(cdf.T)


def _standardized(series: IndexSeries) -> np.ndarray:
    v = series.values
    return (v - v.mean()) / (v.std() or 1.0)


def gen_tapes(config: MarketConfig,
              indexes: dict[str, IndexSeries]) -> tuple[list[SynthTape], np.ndarray]:
    """Generate one tape per trader, deterministic in (config, seed);
    also returns the planted daily buy-probability tilt."""
    children = _seed_children(config)
    dates = trading_days(START_DATE, config.n_days)
    months, month_ix = month_index(dates)
    if months != indexes["sentiment"].months:
        raise ValueError("indexes must cover exactly the market's months")

    g = config.couplings
    tilt_m = (g.g_sent * _standardized(indexes["sentiment"])
              + g.g_ret * _standardized(indexes["stock_return"])
              + g.g_yield * _standardized(indexes["bond_yield"]))
    daily_tilt = np.clip(tilt_m[month_ix], -0.9, 0.9)
    p_buy = np.clip(0.5 + 0.5 * daily_tilt, 0.05, 0.95)

    volume_mult = np.ones(config.n_days)
    spread_mult = np.ones(config.n_days)
    for shock in config.shocks:
        volume_mult[shock.start_day:shock.end_day] = shock.volume_mult
        spread_mult[shock.start_day:shock.end_day] = shock.spread_mult

    shared = _MarketStreams(np.random.default_rng(children[1]), config)
    tapes = []
    for t in range(config.n_traders):
        rng = np.random.default_rng(children[2 + t])
        streams = shared if config.shared_market else _MarketStreams(rng, config)
        tapes.append(SynthTape(f"t{t}", _draw_tape(rng, streams, config, dates, p_buy,
                                                   volume_mult, spread_mult)))
    return tapes, daily_tilt


def _draw_tape(rng: np.random.Generator, streams: _MarketStreams, config: MarketConfig,
               dates: list[dt.date], p_buy: np.ndarray, volume_mult: np.ndarray,
               spread_mult: np.ndarray) -> tape_io.Tape:
    """One trader's tape.

    The day loop makes only the random draws, in the order that fixes
    the stream; everything else runs once on the whole tape.  Draws of
    one kind concatenate across days in trade order, so a mask over the
    whole tape puts each back on its trade.
    """
    # each list of draws starts with an empty array, so that it
    # concatenates even when no day drew that kind
    days, counts = [], []
    flags, sizes, hide = [np.empty((2, 0))], [np.empty(0)], [np.empty((0, 2))]
    picks = ([np.empty(0, np.int64)], [np.empty(0, np.int64)])  # buy side, sell side
    scatter = ([np.empty(0)], [np.empty(0)])
    diffuse = ([np.empty(0)], [np.empty(0)])
    for d in range(config.n_days):
        n = int(rng.poisson(config.trades_per_day_mean / 2.0))
        if n == 0:
            continue
        u = rng.random((2, n))  # buy draw, anchored draw
        is_buy = u[0] < p_buy[d]
        anchored = u[1] < config.anchored_fraction
        for s, side_mask, cdf in ((0, is_buy, streams.buy_cdf), (1, ~is_buy, streams.sell_cdf)):
            k = int(np.count_nonzero(side_mask & anchored))
            if k:
                picks[s].append(cdf[d].searchsorted(rng.random(k), side="right"))
                scatter[s].append(rng.standard_normal(k))
            k = int(np.count_nonzero(side_mask)) - k  # the side's diffuse trades
            if k:
                diffuse[s].append(rng.standard_normal(k))
        sizes.append(rng.lognormal(*VOLUME_LOGNORMAL, size=n))
        hide.append(rng.random((n, 2)))
        days.append(d)
        counts.append(n)
        flags.append(u)

    day = np.repeat(np.array(days, dtype=np.int64), counts)
    u = np.concatenate(flags, axis=1)
    is_buy = u[0] < p_buy[day]
    anchored = u[1] < config.anchored_fraction
    disp = np.empty(day.size)
    for s, side_mask, width in ((0, is_buy, config.buy_width), (1, ~is_buy, config.sell_width)):
        on_anchor = side_mask & anchored
        disp[on_anchor] = (streams.anchor_offsets[np.concatenate(picks[s])]
                           + np.concatenate(scatter[s]) * ANCHOR_SCATTER)
        off_anchor = side_mask & ~anchored
        disp[off_anchor] = (np.abs(np.concatenate(diffuse[s])) * width
                            * streams.width_mult[day[off_anchor]])

    half_spread = 0.5 * config.spread * spread_mult[day]
    base = streams.level[day] + np.where(is_buy, half_spread, -half_spread)
    concentration = np.exp(-np.abs(disp) / VOLUME_CONCENTRATION)
    volumes = np.rint(np.concatenate(sizes) * concentration
                      * volume_mult[day]).astype(np.int64)
    live = volumes > 0  # zero-volume shocks silence the window
    # Trades are emitted in +/- displacement pairs of equal volume, so
    # displacement contributions cancel out of the daily VWAP and the
    # next day's reference tracks the level walk closely: two legs per
    # trade, row after row, at +disp and then at -disp.
    legs = np.stack([base + disp, base - disp], axis=1)[live].ravel()
    true_side = np.where(is_buy[live], 1, -1)[:, None]
    hide_side = np.concatenate(hide)[live] < UNKNOWN_SIDE_RATE
    return tape_io.Tape(dates, np.repeat(day[live], 2), _cents(np.maximum(legs, 0.01)),
                        np.where(hide_side, 0, true_side).ravel(), np.repeat(volumes[live], 2))


def _cents(x: np.ndarray) -> np.ndarray:
    """`float(f"{v:.2f}")` for every entry, vectorized.

    rint(100 v) / 100 is that value wherever 100 v is below 1e9 and not
    within 1e-6 of a half cent, since there the product's round-off is
    far smaller; at the other points the decimal formatting decides.
    """
    scaled = x * 100.0
    out = np.rint(scaled) / 100.0
    undecided = (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6) | (np.abs(scaled) >= 1e9)
    out[undecided] = [float(f"{v:.2f}") for v in x[undecided].tolist()]
    return out


def gen_market(config: MarketConfig = MarketConfig()) -> SynthMarket:
    indexes, truth = gen_indexes(config)
    tapes, daily_tilt = gen_tapes(config, indexes)
    truth.daily_tilt = daily_tilt.tolist()
    return SynthMarket(config, indexes, tapes, truth)


def inject_shock(config: MarketConfig, window: tuple[int, int],
                 volume_mult: float = 1.0, spread_mult: float = 1.0) -> MarketConfig:
    """Return a config with an extra shock window; overlaps are refused."""
    start, end = window
    if not (0 <= start < end <= config.n_days):
        raise ValueError("shock window must lie within the sample")
    if not (0.0 <= volume_mult < float("inf") and 0.0 <= spread_mult < float("inf")):
        raise ValueError("shock multipliers must be finite and nonnegative")
    for s in config.shocks:
        if start < s.end_day and s.start_day < end:
            raise ValueError("overlapping shock windows")
    shock = ShockSpec(start, end, volume_mult, spread_mult)
    return replace(config, shocks=config.shocks + (shock,))

"""Trading cost, dynamic Amihud lambda, and the liquidity event study.

Per bucket and day, the cost of trading marks today's buys to
yesterday's ask and today's sells to yesterday's bid,

    pi[i] = ask(t-1, i) * buy_vol(t, i) - bid(t-1, i) * sell_vol(t, i),

with the bucket's prior-day buy-side VWAP standing in for the ask and
the sell-side VWAP for the bid (the tapes carry no quotes; buys execute
at the ask).  In a balanced book with a constant spread the bucket sum
reduces to spread times daily turnover.  The dynamic Amihud measure

    lambda[i] = |pi[i]| / ((buy_vol(t, i) + sell_vol(t-1, i)) / 2)

is the roundtrip cost per share inside one bucket.  The event study
splits the sample into 60-day periods, trains a CNN to read a monthly
index from monthly lambda images on two adjacent training periods, and
tests per 120-day prediction window whether that window's
prediction-index correlation matches the full-sample correlation of
the average-lambda series with the index (Fisher z for Pearson; a
random month-subset draw for Spearman).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from . import neural_kit
from .bucket_panel import PanelSeries
from .calendars import IndexSeries, month_index
from .corrstats import fisher_z_pvalue, pearson, rankdata, spearman, standardize
from .residual_study import monthly_windows
from .tape_io import write_table_csv


@dataclass
class CostSeries:
    dates: list[dt.date]      # day t of each (t-1, t) pair
    pi: np.ndarray            # (T-1, n_buckets) CNY*shares
    lam: np.ndarray           # (T-1, n_buckets) CNY per share, >= 0
    lambda_avg: np.ndarray    # (T-1,) per-day mean of lam across buckets
    day_positions: np.ndarray  # (T-1,) position of day t in the panel series
    no_quote: np.ndarray      # (T-1, n_buckets) bool, an empty prior-day side
    illiquid: np.ndarray      # (T-1, n_buckets) bool, a zero lambda denominator


def cost_series(series: PanelSeries) -> CostSeries:
    """pi and lambda of every day pair, on day-shifted arrays.

    A bucket with an empty prior-day side has no usable quote proxy:
    that term contributes 0 and the bucket is flagged no-quote.  A
    bucket whose lambda denominator is zero gets lambda 0 and is
    flagged illiquid.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 days of panels")
    vol, vwap = series.volume, series.vwap
    buy_prev, sell_prev, buy_cur, sell_cur = vol[:-1, 0], vol[:-1, 1], vol[1:, 0], vol[1:, 1]
    pi = vwap[:-1, 0] * buy_cur - vwap[:-1, 1] * sell_cur
    denom = 0.5 * (buy_cur + sell_prev)
    illiquid = denom == 0
    lam = np.divide(np.abs(pi), denom, out=np.zeros_like(pi), where=~illiquid)
    return CostSeries(
        dates=series.dates[1:], pi=pi, lam=lam, lambda_avg=lam.mean(axis=1),
        day_positions=np.arange(1, len(series)),
        no_quote=(buy_prev == 0) | (sell_prev == 0), illiquid=illiquid)


# ── event study ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class EventStudyConfig:
    period_length: int = 60
    n_periods: int = 8
    training_periods: tuple[int, int] = (0, 1)  # adjacent period indices
    n_permutations: int = 10_000
    rounds: int = 150
    learning_rate: float = 0.05
    activation: str = "tanh"

    def __post_init__(self):
        if self.n_permutations < 1:  # (1 + 0) / (1 + 0) would read as a p-value of 1
            raise ValueError("an event study needs at least one permutation")

    def resolved_windows(self) -> list[tuple[int, int]]:
        lo, hi = self.training_periods
        if hi != lo + 1:
            raise ValueError("training periods must be adjacent")
        span = self.period_length
        windows = []
        for start_period in range(self.n_periods - 1):
            if start_period in (lo, hi) or start_period + 1 in (lo, hi):
                continue
            windows.append((start_period * span, (start_period + 2) * span))
        return windows

    def training_range(self) -> tuple[int, int]:
        lo, hi = self.training_periods
        return lo * self.period_length, (hi + 1) * self.period_length


@dataclass
class WindowResult:
    day_range: tuple[int, int]
    months: list[str]
    r_pearson: float
    p_pearson: float | None
    r_spearman: float
    p_spearman: float | None
    degenerate: bool = False


@dataclass
class HypothesisReport:
    windows: list[WindowResult]
    reference_pearson: float   # full-sample prediction-vs-index correlation
    reference_spearman: float
    index_name: str
    seeds: list[int]
    avg_lambda_pearson: float = float("nan")  # diagnostic: raw average-lambda series

    def to_dict(self) -> dict:
        return {
            "index": self.index_name,
            "seeds": list(self.seeds),
            "reference_pearson": self.reference_pearson,
            "reference_spearman": self.reference_spearman,
            "avg_lambda_pearson": None if np.isnan(self.avg_lambda_pearson)
                                  else self.avg_lambda_pearson,
            "windows": [
                {
                    "days": list(w.day_range),
                    "months": w.months,
                    "r_pearson": None if np.isnan(w.r_pearson) else w.r_pearson,
                    "p_pearson": w.p_pearson,
                    "r_spearman": None if np.isnan(w.r_spearman) else w.r_spearman,
                    "p_spearman": w.p_spearman,
                    "degenerate": w.degenerate,
                }
                for w in self.windows
            ],
        }


def write_report_csv(report: HypothesisReport, handle) -> None:
    write_table_csv(handle, ["days", "p_pearson", "p_spearman"],
                    ([f"{w.day_range[0]}-{w.day_range[1]}",
                      "NA" if w.p_pearson is None else w.p_pearson,
                      "NA" if w.p_spearman is None else w.p_spearman]
                     for w in report.windows))


def event_study(cost: CostSeries, index: IndexSeries,
                config: EventStudyConfig = EventStudyConfig(),
                seeds: tuple[int, ...] = (1, 2, 3)) -> HypothesisReport:
    """Train on the training periods' lambda images, test each window.

    H0 per window: the window's prediction-index correlation equals the
    correlation obtained from the lambda data of the whole sample, i.e.
    predictions from window slices carry nothing beyond the average
    behavior.  Pearson p comes from a Fisher z comparison of the window
    against the full-sample prediction correlation; Spearman p from
    drawing random month subsets of the window's size (months are
    exchangeable under H0).  Subsets are drawn from the months outside
    the tested window, so a local anomaly cannot contaminate its own
    null distribution.  A window holding fewer than two months, or with
    constant predictions, is reported NA.  The raw
    bucket-averaged lambda series' index correlation is kept as a
    diagnostic.  The lambda images are `monthly_windows` of 21 days by
    16 buckets, of which cnn7 reads days 1-18 and buckets 1-14.
    """
    if not seeds:
        raise ValueError("seeds must not be empty")
    n_days_total = config.n_periods * config.period_length
    if cost.day_positions[-1] + 1 < n_days_total:
        raise ValueError(f"lambda series covers {cost.day_positions[-1] + 1} days, "
                         f"event study needs {n_days_total}")

    all_windows = monthly_windows(cost.lam, cost.dates)
    months, month_pos = month_index(cost.dates)  # the windows' months, dates ascending
    targets = np.array([index.value_for(m) for m in months])
    days_per_month = np.bincount(month_pos)

    def majority(lo: int, hi: int) -> np.ndarray:  # months mostly inside [lo, hi)
        inside = month_pos[(lo <= cost.day_positions) & (cost.day_positions < hi)]
        return np.flatnonzero(np.bincount(inside, minlength=len(months)) * 2 > days_per_month)

    train_ix = majority(*config.training_range())  # the training set
    if len(train_ix) < 3:
        raise ValueError("training range covers fewer than 3 months")

    x_all, x_mean, x_scale = standardize(all_windows.images[train_ix].ravel())
    images = (all_windows.images - x_mean) / x_scale
    t_std, t_mean, t_scale = standardize(targets[train_ix])

    nets = neural_kit.train_many(
        [neural_kit.init_net(neural_kit.cnn7_spec(
            input_shape=images.shape[1:], activation=config.activation, seed=seed))
         for seed in seeds],
        images[train_ix], t_std, rounds=config.rounds, learning_rate=config.learning_rate)
    preds = sum(neural_kit.forward_batch(net, images) for net in nets)
    preds = preds / len(seeds) * t_scale + t_mean

    monthly_lambda = np.array([cost.lambda_avg[month_pos == j].mean() for j in range(len(months))])
    avg_lambda_pearson = pearson(monthly_lambda, targets)
    ref_pearson = pearson(preds, targets)
    ref_spearman = spearman(preds, targets)

    rng = np.random.default_rng(np.random.SeedSequence([max(seeds), 7]))
    results = []
    for day_range in config.resolved_windows():
        ix = majority(*day_range)
        w_months = [months[j] for j in ix.tolist()]
        w_pred, w_idx = preds[ix], targets[ix]
        if ix.size < 2 or np.ptp(w_pred) == 0.0 or np.ptp(w_idx) == 0.0:
            results.append(WindowResult(day_range, w_months, float("nan"), None,
                                        float("nan"), None, degenerate=True))
            continue
        r_p = pearson(w_pred, w_idx)
        p_p = fisher_z_pvalue(r_p, len(ix), ref_pearson, len(months))
        r_s = spearman(w_pred, w_idx)
        outside = np.ones(len(months), dtype=bool)
        outside[ix] = False
        p_s = _subset_draw_pvalue(preds[outside], targets[outside], len(ix), r_s,
                                  ref_spearman, config.n_permutations, rng)
        results.append(WindowResult(day_range, w_months, r_p,
                                    None if np.isnan(p_p) else p_p, r_s, p_s))
    return HypothesisReport(results, ref_pearson, ref_spearman, index.name,
                            list(seeds), avg_lambda_pearson=avg_lambda_pearson)


def _subset_draw_pvalue(preds: np.ndarray, targets: np.ndarray, k: int,
                        observed: float, reference: float,
                        n_draws: int, rng: np.random.Generator) -> float:
    """P(|rho_s(random month subset) - ref| >= |observed - ref|)."""
    n = preds.size
    draws = np.argsort(rng.random((n_draws, n)), axis=1)[:, :k]
    pr = rankdata(preds[draws], axis=1)
    tr = rankdata(targets[draws], axis=1)
    pr = pr - pr.mean(axis=1, keepdims=True)
    tr = tr - tr.mean(axis=1, keepdims=True)
    denom = np.sqrt((pr * pr).sum(axis=1) * (tr * tr).sum(axis=1))
    ok = denom > 0
    rho = np.zeros(n_draws)
    rho[ok] = (pr * tr).sum(axis=1)[ok] / denom[ok]
    exceed = np.abs(rho - reference) >= abs(observed - reference) - 1e-12
    return float((1 + exceed.sum()) / (1 + n_draws))


# ── exports ────────────────────────────────────────────────────────────

def write_lambda_csv(cost: CostSeries, handle) -> None:
    write_table_csv(handle, ["date", "bucket", "lambda"], _long_rows(cost.dates, cost.lam))


def write_lambda_daily_csv(cost: CostSeries, handle) -> None:
    write_table_csv(handle, ["date", "value"],
                    zip([day.isoformat() for day in cost.dates], cost.lambda_avg.tolist()))


def write_pi_csv(cost: CostSeries, handle) -> None:
    write_table_csv(handle, ["date", "bucket", "pi"], _long_rows(cost.dates, cost.pi))


def _long_rows(dates: list[dt.date], matrix: np.ndarray):
    """(date, bucket, value) rows of a day-by-bucket matrix."""
    for day, row in zip(dates, matrix.tolist()):
        for k, value in enumerate(row):
            yield day.isoformat(), k, value

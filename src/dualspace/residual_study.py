"""Backcasting monthly indexes from regression residuals.

Three protocols, all run "backwards": instead of predicting trades from
an index, a small net is trained to recover the realized monthly index
from the unpredictable part of the interday volume correlations.

  shallow  - per-month residual moments (mean/var/skew/kurt) into a
             one-hidden-layer net, leave-one-month-out.
  deep10   - daily 16-dim residual rows into a 10-layer scalar net; an
             informed trader trains on her own rows (last day of each
             month held out), an uninformed trader's rows are then
             pushed through and averaged per month.
  cnn7     - each month's residual rows packed into a fixed 21x16 image
             for a 7-layer CNN, several seeded runs, reported with a
             Student-t dispersion.  The CNN reads days 1-18 and buckets
             1-14 of each image.

The informed/uninformed split is a data-provenance rule: prediction
windows never enter training.

Residual rows are grouped into calendar months by `calendars.month_index`;
their dates must be strictly increasing, so each month is one run of rows.

Each protocol passes all of its nets, over every index and seed, to one
`neural_kit.train_many` call, which trains them in memory-bounded
stacks; a report does not depend on how the nets are stacked.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from . import neural_kit
from .calendars import IndexSeries, month_index
from .corrstats import pearson, standardize, student_halfwidth
from .tape_io import write_table_csv

#: Fixed image height for monthly windows (months have 18-23 trading days).
#: cnn7 on a 21 x 16 window reads only days 1-18 and buckets 1-14: its
#: two pools floor away the rest (`neural_kit._read_shape`).
WINDOW_DAYS = 21

DEFAULT_TRAIN_ROUNDS = 50
DEFAULT_LEARNING_RATE = 0.05
#: Rounds of every shallow net, trained at DEFAULT_LEARNING_RATE.
SHALLOW_ROUNDS = 400


@dataclass
class IndexBackcast:
    index_name: str
    run_correlations: list[float]
    mean_correlation: float
    dispersion: float  # Student-t 10% half-width over runs
    undefined: bool = False
    insample_correlation: float | None = None


@dataclass
class BackcastReport:
    protocol: str  # shallow | deep10 | cnn7
    results: list[IndexBackcast] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def for_index(self, name: str) -> IndexBackcast:
        for res in self.results:
            if res.index_name == name:
                return res
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "seeds": list(self.seeds),
            "notes": self.notes,
            "results": [
                {
                    "index": r.index_name,
                    "runs": [float(v) for v in r.run_correlations],
                    "mean": r.mean_correlation,
                    "dispersion": r.dispersion,
                    "undefined": r.undefined,
                    "insample": r.insample_correlation,
                }
                for r in self.results
            ],
        }


# ── monthly aggregation ────────────────────────────────────────────────

def _month_runs(dates: list[dt.date]) -> tuple[list[str], list[slice]]:
    """The months of strictly increasing `dates`, in order, and the run
    of rows each month spans."""
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValueError("residual dates must be strictly increasing")
    months, position = month_index(dates)
    bounds = np.searchsorted(position, np.arange(len(months) + 1)).tolist()
    return months, [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class MonthlyMoments:
    months: list[str]
    values: np.ndarray  # (n_months, 4): mean, variance, skewness, excess kurtosis
    low_sample: list[str] = field(default_factory=list)
    degenerate: list[str] = field(default_factory=list)


def monthly_moments(residuals: np.ndarray, dates: list[dt.date]) -> MonthlyMoments:
    """First four moments of the pooled residual entries per month.

    Skewness and excess kurtosis use the plain moment-ratio estimators;
    a month with zero variance reports 0 for both and is flagged, as is
    a month pooling fewer than 8 values.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape[0] != len(dates):
        raise ValueError("residual rows must align with dates")
    months, runs = _month_runs(dates)
    rows = []
    low_sample = []
    degenerate = []
    for key, run in zip(months, runs):
        pooled = residuals[run].ravel()
        n = pooled.size
        mean = pooled.mean()
        var = pooled.var(ddof=1) if n > 1 else 0.0
        m2 = pooled.var()
        if m2 > 0:
            centered = pooled - mean
            skew = float((centered**3).mean() / m2**1.5)
            kurt = float((centered**4).mean() / m2**2 - 3.0)
        else:
            skew, kurt = 0.0, 0.0
            degenerate.append(key)
        if n < 8:
            low_sample.append(key)
        rows.append([float(mean), float(var), skew, kurt])
    return MonthlyMoments(months, np.array(rows), low_sample, degenerate)


@dataclass
class MonthlyWindows:
    trader_id: str
    months: list[str]
    images: np.ndarray  # (n_months, WINDOW_DAYS, n_buckets)
    padded_months: list[str] = field(default_factory=list)
    truncated_months: list[str] = field(default_factory=list)


def monthly_windows(residuals: np.ndarray, dates: list[dt.date],
                    trader_id: str = "") -> MonthlyWindows:
    """Pack each month's residual rows into a `WINDOW_DAYS`-high image.

    Months shorter than that are zero-padded at the bottom,
    longer ones truncated; both cases are flagged in the metadata.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.shape[0] != len(dates):
        raise ValueError("residual rows must align with dates")
    nb = residuals.shape[1]
    months, runs = _month_runs(dates)
    images, padded, truncated = [], [], []
    for key, run in zip(months, runs):
        block = residuals[run]
        if block.shape[0] < WINDOW_DAYS:
            padded.append(key)
            pad = np.zeros((WINDOW_DAYS - block.shape[0], nb))
            block = np.vstack([block, pad])
        elif block.shape[0] > WINDOW_DAYS:
            truncated.append(key)
            block = block[:WINDOW_DAYS]
        images.append(block)
    return MonthlyWindows(trader_id, months, np.stack(images), padded, truncated)


# ── protocol helpers ───────────────────────────────────────────────────

def _index_targets(index: IndexSeries, months: list[str]) -> np.ndarray:
    missing = [m for m in months if m not in index.months]
    if missing:
        raise ValueError(f"index {index.name!r} is missing months {missing}")
    return np.array([index.value_for(m) for m in months])


def _scaled_targets(indexes: list[IndexSeries], months: list[str]):
    """Each index's values over `months`, and their `standardize`
    triples (t_std, t_mean, t_scale)."""
    targets = [_index_targets(index, months) for index in indexes]
    return targets, [standardize(t) for t in targets]


def _corr_or_flag(pred: np.ndarray, actual: np.ndarray) -> tuple[float, bool]:
    if np.ptp(pred) == 0.0 or np.ptp(actual) == 0.0:
        return 0.0, True
    return pearson(pred, actual), False


def _make_result(name: str, correlations: list[float], flags: list[bool],
                 insample: float | None = None) -> IndexBackcast:
    mean = float(np.mean(correlations))
    return IndexBackcast(
        index_name=name,
        run_correlations=[float(r) for r in correlations],
        mean_correlation=mean,
        dispersion=student_halfwidth(correlations),
        undefined=all(flags),
        insample_correlation=insample,
    )


def shallow_backcast(moments: MonthlyMoments, indexes: list[IndexSeries],
                     seed: int = 0) -> BackcastReport:
    """Leave-one-month-out backcast from the four monthly moments.

    Each index has n leave-one-out nets, each trained on its own n-1
    months; all indexes' nets go to one `train_many` call, with per-net
    inputs and targets.
    """
    months = moments.months
    feats = moments.values
    feats_std = np.column_stack([standardize(feats[:, j])[0] for j in range(feats.shape[1])])
    n = len(months)
    # row `hold` lists the months its net trains on: all but `hold`
    train_ix = np.array([[i for i in range(n) if i != hold] for hold in range(n)], dtype=int)
    nets = [neural_kit.init_net(neural_kit.shallow_spec(n_inputs=feats.shape[1], seed=seed + hold))
            for hold in range(n)]
    targets, scaled = _scaled_targets(indexes, months)
    trained = neural_kit.train_many(
        nets * len(indexes), np.tile(feats_std[train_ix], (len(indexes), 1, 1)),
        np.array([t_std[train_ix] for t_std, _, _ in scaled]).reshape(-1, n - 1),
        rounds=SHALLOW_ROUNDS, learning_rate=DEFAULT_LEARNING_RATE)
    report = BackcastReport(protocol="shallow", seeds=[seed])
    for k, (index, (_, t_mean, t_scale)) in enumerate(zip(indexes, scaled)):
        preds = np.array([neural_kit.forward_batch(net, feats_std[hold:hold + 1])[0]
                          for hold, net in enumerate(trained[k * n:(k + 1) * n])])
        preds = preds * t_scale + t_mean
        r, flagged = _corr_or_flag(preds, targets[k])
        report.results.append(_make_result(index.name, [r], [flagged]))
    return report


def deep_backcast(train_residuals: np.ndarray, train_dates: list[dt.date],
                  predict_residuals: np.ndarray, predict_dates: list[dt.date],
                  indexes: list[IndexSeries], seed: int = 0,
                  rounds: int = DEFAULT_TRAIN_ROUNDS,
                  learning_rate: float = DEFAULT_LEARNING_RATE) -> BackcastReport:
    """10-layer scalar net on daily residual rows.

    Trains on the informed trader's rows, omitting the last day of each
    month (kept as the in-sample check); the uninformed trader's daily
    predictions are averaged per month and correlated with each index.
    The index nets, one per index from the same seed, go to one
    `train_many` call with the rows shared and per-net targets.

    The residuals come as bare arrays, which carry no trader id, so this
    function cannot check that the two roles come from different tapes
    as `cnn_backcast` does.  The CLI enforces that rule before the call,
    by the residual files' `_tape_label`s.
    """
    months, train_runs = _month_runs(train_dates)
    predict_months, predict_runs = _month_runs(predict_dates)
    if predict_months != months:
        raise ValueError("training and prediction residuals cover different months")

    fit_ix = [i for run in train_runs for i in range(run.start, run.stop - 1)]
    fit_month = [m for m, run in enumerate(train_runs) for _ in range(run.start, run.stop - 1)]
    holdout_ix = [run.stop - 1 for run in train_runs]

    train_x = np.asarray(train_residuals, dtype=float)
    pred_x = np.asarray(predict_residuals, dtype=float)
    x_std, x_mean, x_scale = standardize(train_x[fit_ix].ravel())
    scale_input = lambda a: (a - x_mean) / x_scale  # noqa: E731

    targets, scaled = _scaled_targets(indexes, months)
    day_targets = np.array([t_std[fit_month] for t_std, _, _ in scaled])
    net = neural_kit.init_net(neural_kit.deep10_spec(n_inputs=train_x.shape[1], seed=seed))
    trained = neural_kit.train_many([net] * len(indexes), scale_input(train_x[fit_ix]),
                                    day_targets, rounds=rounds, learning_rate=learning_rate)

    report = BackcastReport(protocol="deep10", seeds=[seed])
    for index, target, (_, t_mean, t_scale), net in zip(indexes, targets, scaled, trained):
        insample = neural_kit.forward_batch(net, scale_input(train_x[holdout_ix]))
        r_in, _ = _corr_or_flag(insample * t_scale + t_mean, target)

        daily = neural_kit.forward_batch(net, scale_input(pred_x))
        monthly = np.array([daily[run].mean() for run in predict_runs])
        r, flagged = _corr_or_flag(monthly * t_scale + t_mean, target)
        report.results.append(_make_result(index.name, [r], [flagged], insample=r_in))
    return report


def cnn_backcast(train_windows: MonthlyWindows, predict_windows: MonthlyWindows,
                 indexes: list[IndexSeries], activation: str = "relu",
                 seeds: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
                 rounds: int = DEFAULT_TRAIN_ROUNDS,
                 learning_rate: float = DEFAULT_LEARNING_RATE) -> BackcastReport:
    """7-layer CNN on monthly residual images, one run per seed.

    Trains on one trader's images labeled with the month's index value,
    predicts from the other trader's images, and reports per-run
    correlations with their mean and Student-t 10% half-width.  The nets
    of every (index, seed) pair go to one `train_many` call.
    """
    if not seeds:
        raise ValueError("seeds must not be empty")
    assert_role_separation(train_windows, predict_windows)
    if train_windows.months != predict_windows.months:
        raise ValueError("training and prediction windows cover different months")
    shape = train_windows.images.shape[1:]

    x_std, x_mean, x_scale = standardize(train_windows.images.ravel())
    train_x = (train_windows.images - x_mean) / x_scale
    pred_x = (predict_windows.images - x_mean) / x_scale

    targets, scaled = _scaled_targets(indexes, train_windows.months)
    nets = [neural_kit.init_net(neural_kit.cnn7_spec(input_shape=shape, activation=activation,
                                                     seed=run_seed))
            for run_seed in seeds]
    trained = neural_kit.train_many(
        nets * len(indexes), train_x,
        np.array([t_std for t_std, _, _ in scaled for _ in seeds]),
        rounds=rounds, learning_rate=learning_rate)

    report = BackcastReport(
        protocol="cnn7", seeds=list(seeds),
        notes={"train_trader": train_windows.trader_id,
               "predict_trader": predict_windows.trader_id,
               "padded_months": train_windows.padded_months,
               "truncated_months": train_windows.truncated_months})
    for k, (index, target, (_, t_mean, t_scale)) in enumerate(zip(indexes, targets, scaled)):
        run_corrs, flags = [], []
        for net in trained[k * len(nets):(k + 1) * len(nets)]:
            preds = neural_kit.forward_batch(net, pred_x) * t_scale + t_mean
            r, flagged = _corr_or_flag(preds, target)
            run_corrs.append(r)
            flags.append(flagged)
        report.results.append(_make_result(index.name, run_corrs, flags))
    return report


def assert_role_separation(train_windows: MonthlyWindows,
                           predict_windows: MonthlyWindows) -> None:
    """Guard for the informed/uninformed protocol: training data must
    come from a different tape than the prediction data."""
    if train_windows.trader_id == predict_windows.trader_id:
        raise ValueError("training and prediction windows come from the same trader")


# ── I/O ────────────────────────────────────────────────────────────────

def write_report_csv(report: BackcastReport, handle) -> None:
    """Table-style export: one column per index, runs then mean/half-width."""
    n_runs = max(len(r.run_correlations) for r in report.results)
    rows = [[f"run{i + 1}"] + [r.run_correlations[i] if i < len(r.run_correlations) else ""
                               for r in report.results]
            for i in range(n_runs)]
    rows.append(["mean"] + [r.mean_correlation for r in report.results])
    rows.append(["student10"] + [r.dispersion for r in report.results])
    write_table_csv(handle, ["row"] + [r.index_name for r in report.results], rows)

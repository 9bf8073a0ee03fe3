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
             Student-t dispersion.

The informed/uninformed split is a data-provenance rule: prediction
windows never enter training.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from . import neural_kit
from .calendars import IndexSeries, group_by_month
from .corrstats import pearson, standardize, student_halfwidth
from .tape_io import write_table_csv

#: Fixed image height for monthly windows (months have 18-23 trading days).
WINDOW_DAYS = 21

DEFAULT_TRAIN_ROUNDS = 50
DEFAULT_LEARNING_RATE = 0.05


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
    months = []
    rows = []
    low_sample = []
    degenerate = []
    for key, ix in group_by_month(dates).items():
        pooled = residuals[ix].ravel()
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
        months.append(key)
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
    months, images, padded, truncated = [], [], [], []
    for key, ix in group_by_month(dates).items():
        block = residuals[ix]
        if block.shape[0] < WINDOW_DAYS:
            padded.append(key)
            pad = np.zeros((WINDOW_DAYS - block.shape[0], nb))
            block = np.vstack([block, pad])
        elif block.shape[0] > WINDOW_DAYS:
            truncated.append(key)
            block = block[:WINDOW_DAYS]
        months.append(key)
        images.append(block)
    return MonthlyWindows(trader_id, months, np.stack(images), padded, truncated)


# ── protocol helpers ───────────────────────────────────────────────────

def _index_targets(index: IndexSeries, months: list[str]) -> np.ndarray:
    missing = [m for m in months if m not in index.months]
    if missing:
        raise ValueError(f"index {index.name!r} is missing months {missing}")
    return np.array([index.value_for(m) for m in months])


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


def shallow_backcast(moments: MonthlyMoments, indexes: list[IndexSeries], seed: int = 0,
                     rounds: int = 400, learning_rate: float = 0.05) -> BackcastReport:
    """Leave-one-month-out backcast from the four monthly moments.

    Per index, the n leave-one-out nets train together as one stack,
    each on its own n-1 months.
    """
    months = moments.months
    feats = moments.values
    feats_std = np.column_stack([standardize(feats[:, j])[0] for j in range(feats.shape[1])])
    n = len(months)
    # row `hold` lists the months its net trains on: all but `hold`
    train_ix = np.array([[i for i in range(n) if i != hold] for hold in range(n)], dtype=int)
    nets = [neural_kit.init_net(neural_kit.shallow_spec(n_inputs=feats.shape[1], seed=seed + hold))
            for hold in range(n)]
    report = BackcastReport(protocol="shallow", seeds=[seed])
    for index in indexes:
        targets = _index_targets(index, months)
        t_std, t_mean, t_scale = standardize(targets)
        trained = neural_kit.train_many(nets, feats_std[train_ix], t_std[train_ix],
                                        rounds=rounds, learning_rate=learning_rate)
        preds = np.array([neural_kit.forward_batch(net, feats_std[hold:hold + 1])[0]
                          for hold, net in enumerate(trained)])
        preds = preds * t_scale + t_mean
        r, flagged = _corr_or_flag(preds, targets)
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

    The residuals come as bare arrays, which carry no trader id, so this
    function cannot check that the two roles come from different tapes
    as `cnn_backcast` does.  The CLI enforces that rule before the call,
    by the residual files' `_tape_label`s.
    """
    train_groups = group_by_month(train_dates)
    predict_groups = group_by_month(predict_dates)
    months = list(train_groups)
    if list(predict_groups) != months:
        raise ValueError("training and prediction residuals cover different months")

    fit_ix = [i for ix in train_groups.values() for i in ix[:-1]]
    holdout_ix = [ix[-1] for ix in train_groups.values()]

    train_x = np.asarray(train_residuals, dtype=float)
    pred_x = np.asarray(predict_residuals, dtype=float)
    x_std, x_mean, x_scale = standardize(train_x[fit_ix].ravel())
    scale_input = lambda a: (a - x_mean) / x_scale  # noqa: E731

    report = BackcastReport(protocol="deep10", seeds=[seed])
    for index in indexes:
        targets = _index_targets(index, months)
        t_std, t_mean, t_scale = standardize(targets)
        day_targets = np.concatenate([
            np.full(len(ix[:-1]), t_std[m]) for m, ix in enumerate(train_groups.values())])

        net = neural_kit.init_net(neural_kit.deep10_spec(n_inputs=train_x.shape[1], seed=seed))
        net = neural_kit.train(net, scale_input(train_x[fit_ix]), day_targets,
                               rounds=rounds, learning_rate=learning_rate)

        insample = neural_kit.forward_batch(net, scale_input(train_x[holdout_ix]))
        r_in, _ = _corr_or_flag(insample * t_scale + t_mean, targets)

        daily = neural_kit.forward_batch(net, scale_input(pred_x))
        monthly = np.array([daily[ix].mean() for ix in predict_groups.values()])
        r, flagged = _corr_or_flag(monthly * t_scale + t_mean, targets)
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
    correlations with their mean and Student-t 10% half-width.
    """
    assert_role_separation(train_windows, predict_windows)
    if train_windows.months != predict_windows.months:
        raise ValueError("training and prediction windows cover different months")
    shape = train_windows.images.shape[1:]

    x_std, x_mean, x_scale = standardize(train_windows.images.ravel())
    train_x = (train_windows.images - x_mean) / x_scale
    pred_x = (predict_windows.images - x_mean) / x_scale

    report = BackcastReport(
        protocol="cnn7", seeds=list(seeds),
        notes={"train_trader": train_windows.trader_id,
               "predict_trader": predict_windows.trader_id,
               "padded_months": train_windows.padded_months,
               "truncated_months": train_windows.truncated_months})
    for index in indexes:
        targets = _index_targets(index, train_windows.months)
        t_std, t_mean, t_scale = standardize(targets)
        run_corrs, flags = [], []
        for run_seed in seeds:
            net = neural_kit.init_net(
                neural_kit.cnn7_spec(input_shape=shape, activation=activation, seed=run_seed))
            net = neural_kit.train(net, train_x, t_std, rounds=rounds,
                                   learning_rate=learning_rate)
            preds = neural_kit.forward_batch(net, pred_x) * t_scale + t_mean
            r, flagged = _corr_or_flag(preds, targets)
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

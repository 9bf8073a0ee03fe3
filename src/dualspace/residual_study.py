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
stacks; a report does not depend on how the nets are stacked.  The
liquidity event study runs cnn7's fit, `cnn7_predictions`, too, and
shares its seed rule: at least one seed, none repeated.  Every
protocol reports each index through `_index_result`.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from . import neural_kit
from .calendars import IndexSeries, month_index
from .corrstats import pearson, standardize, student_halfwidth
from .table_csv import write_table_csv

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
    day_counts: np.ndarray  # each month's rows, before padding or truncation
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
    return MonthlyWindows(trader_id, months, np.stack(images),
                          np.array([run.stop - run.start for run in runs]), padded, truncated)


# ── protocol helpers ───────────────────────────────────────────────────

def _scaled_targets(indexes: list[IndexSeries], months: list[str]):
    """Each index's values over `months`, and their `standardize`
    triples (t_std, t_mean, t_scale)."""
    targets = [index.values_for(months) for index in indexes]
    return targets, [standardize(t) for t in targets]


def _index_result(index: IndexSeries, target: np.ndarray, scaled, runs) -> IndexBackcast:
    """The result of one index: each run of standardized predictions,
    mapped back by the target's `standardize` triple `scaled`, is
    correlated with `target`; a run is 0 and flagged where either side
    is constant, and the result is undefined when every run is."""
    _, t_mean, t_scale = scaled
    correlations, flags = [], []
    for run in runs:
        pred = run * t_scale + t_mean
        flags.append(np.ptp(pred) == 0.0 or np.ptp(target) == 0.0)
        correlations.append(0.0 if flags[-1] else pearson(pred, target))
    return IndexBackcast(index.name, correlations, float(np.mean(correlations)),
                         student_halfwidth(correlations), all(flags))


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
    for k, (index, target, triple) in enumerate(zip(indexes, targets, scaled)):
        preds = np.array([neural_kit.forward_batch(net, feats_std[hold:hold + 1])[0]
                          for hold, net in enumerate(trained[k * n:(k + 1) * n])])
        report.results.append(_index_result(index, target, triple, [preds]))
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
    as `cnn_backcast` does.  The CLI enforces that rule before the call:
    it refuses one residual file given for both roles.
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
    for index, target, triple, net in zip(indexes, targets, scaled, trained):
        insample = neural_kit.forward_batch(net, scale_input(train_x[holdout_ix]))
        daily = neural_kit.forward_batch(net, scale_input(pred_x))
        monthly = np.array([daily[run].mean() for run in predict_runs])
        result = _index_result(index, target, triple, [monthly])
        result.insample_correlation = _index_result(index, target, triple,
                                                    [insample]).mean_correlation
        report.results.append(result)
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
    of every (index, seed) pair train in one `cnn7_predictions` call.
    """
    assert_role_separation(train_windows, predict_windows)
    if train_windows.months != predict_windows.months:
        raise ValueError("training and prediction windows cover different months")
    targets, scaled = _scaled_targets(indexes, train_windows.months)
    predictions = cnn7_predictions(train_windows.images, [t_std for t_std, _, _ in scaled],
                                   predict_windows.images, seeds, activation, rounds,
                                   learning_rate)
    return BackcastReport(
        protocol="cnn7", seeds=list(seeds),
        results=[_index_result(*result) for result in zip(indexes, targets, scaled, predictions)],
        notes={"train_trader": train_windows.trader_id,
               "predict_trader": predict_windows.trader_id,
               "padded_months": train_windows.padded_months,
               "truncated_months": train_windows.truncated_months})


def cnn7_predictions(train_images, targets, predict_images, seeds, activation: str,
                     rounds: int, learning_rate: float) -> list[list[np.ndarray]]:
    """cnn7 on monthly images: standardizes both image sets by the
    training images, trains one net per (target, seed) in one
    `train_many` call (`targets` holds one standardized array per
    target), and returns per target each net's standardized predictions
    on `predict_images`, in seed order.  `seeds` must be non-empty with
    no seed repeated: each run is a distinct net."""
    if not seeds:
        raise ValueError("seeds must not be empty")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds {list(seeds)} repeat a seed: each net would count twice")
    _, x_mean, x_scale = standardize(np.ravel(train_images))
    nets = [neural_kit.init_net(neural_kit.cnn7_spec(
        input_shape=train_images.shape[1:], activation=activation, seed=seed)) for seed in seeds]
    trained = neural_kit.train_many(
        nets * len(targets), (train_images - x_mean) / x_scale,
        np.array([target for target in targets for _ in seeds]),
        rounds=rounds, learning_rate=learning_rate)
    predict_x = (predict_images - x_mean) / x_scale
    predictions = [neural_kit.forward_batch(net, predict_x) for net in trained]
    return [predictions[k * len(seeds):(k + 1) * len(seeds)] for k in range(len(targets))]


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

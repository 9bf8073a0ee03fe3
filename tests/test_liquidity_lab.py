import ast
import datetime as dt
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from dualspace import liquidity_lab as ll
from dualspace import neural_kit
from dualspace.bucket_panel import BucketConfig, PanelSeries
from dualspace.calendars import IndexSeries, month_index, trading_days

D0 = dt.date(2009, 8, 6)
NB = 16


def day(buy=1000.0, sell=1000.0, ask=10.02, bid=10.00):
    """One day's (buy_vol, sell_vol, buy_vwap, sell_vwap), each a scalar
    for every bucket or NB values."""
    return buy, sell, ask, bid


def series_of(*days):
    """A PanelSeries of consecutive days, from their `day` tuples."""
    cells = np.array([[np.broadcast_to(np.asarray(v, dtype=float), NB) for v in d]
                      for d in days])  # (T, 4, NB)
    n = len(days)
    return PanelSeries(BucketConfig(), [D0 + dt.timedelta(days=i) for i in range(n)],
                       np.full(n, 10.0), cells[:, :2], cells[:, 2:], np.zeros((n, 2, NB, 50)),
                       np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n))


def test_trading_cost_spread_instance():
    cost = ll.cost_series(series_of(day(), day()))
    np.testing.assert_allclose(cost.pi, 20.0)  # 10.02*1000 - 10.00*1000 per bucket
    assert not cost.no_quote.any()


def test_trading_cost_zero_volumes():
    cost = ll.cost_series(series_of(day(), day(0.0, 0.0, 0.0, 0.0)))
    np.testing.assert_array_equal(cost.pi, 0.0)


def test_trading_cost_can_be_negative():
    cost = ll.cost_series(series_of(day(ask=10.02, bid=10.50), day(buy=100.0, sell=100.0)))
    np.testing.assert_allclose(cost.pi, 10.02 * 100 - 10.50 * 100)  # -48 per bucket
    assert np.all(cost.pi < 0)


def test_trading_cost_flags_missing_quotes():
    prev = day([0.0] + [10.0] * (NB - 1), 5.0, [0.0] + [10.02] * (NB - 1), 10.0)
    cost = ll.cost_series(series_of(prev, day()))
    assert cost.no_quote[0, 0] and not cost.no_quote[0, 1]
    assert cost.pi[0, 0] == pytest.approx(0.0 * 1000 - 10.0 * 1000)


def test_trading_cost_requires_ordered_panels():
    # the day pairs of a series are consecutive because its dates strictly increase
    s = series_of(day(), day())
    for dates in (s.dates[::-1], s.dates[:1] * 2):
        with pytest.raises(ValueError, match="strictly increasing"):
            PanelSeries(s.config, dates, s.ref_price, s.volume, s.vwap, s.fine,
                        s.discarded_count, s.discarded_volume, s.unknown_volume)


def test_amihud_lambda_values():
    cost = ll.cost_series(series_of(day(), day()))
    np.testing.assert_allclose(cost.lam, 0.02)  # = spread per share
    assert not cost.illiquid.any()


def test_amihud_lambda_zero_cases():
    cost = ll.cost_series(series_of(day(ask=10.0, bid=10.0), day()))
    np.testing.assert_array_equal(cost.lam, 0.0)  # pi = 0 -> lambda = 0

    empty = day(0.0, 0.0, 0.0, 0.0)
    cost = ll.cost_series(series_of(empty, empty))
    np.testing.assert_array_equal(cost.lam, 0.0)
    assert cost.illiquid.all()


def test_equilibrium_identity():
    # balanced book, constant prices, spread s: bucket costs sum to
    # s * turnover exactly and lambda is the spread per share
    s = 0.02
    cost = ll.cost_series(series_of(*[day(ask=10.0 + s, bid=10.0)] * 3))
    turnover = 1000.0 * NB
    for t in range(cost.pi.shape[0]):
        assert cost.pi[t].sum() == pytest.approx(s * turnover, abs=1e-9)
        assert np.all(cost.pi[t] >= 0.0)
        np.testing.assert_allclose(cost.lam[t], s, atol=1e-12)


def test_cost_series_shapes(small_market):
    from dualspace.bucket_panel import build_panels
    series = build_panels(small_market.tapes[0].records)
    cost = ll.cost_series(series)
    t = len(series) - 1
    assert cost.pi.shape == (t, NB)
    assert cost.lam.shape == (t, NB)
    assert cost.lambda_avg.shape == (t,)
    assert np.all(cost.lam >= 0.0)
    np.testing.assert_allclose(cost.lambda_avg, cost.lam.mean(axis=1))
    assert cost.dates == series.dates[1:]


def test_event_config_default_windows():
    config = ll.EventStudyConfig()
    assert config.resolved_windows() == [(120, 240), (180, 300), (240, 360),
                                         (300, 420), (360, 480)]
    assert config.training_range() == (0, 120)
    # mid-sample training: prediction windows never overlap it, so the
    # count drops below five
    shifted = ll.EventStudyConfig(training_periods=(2, 3))
    assert shifted.resolved_windows() == [(0, 120), (240, 360),
                                          (300, 420), (360, 480)]
    with pytest.raises(ValueError, match="adjacent"):
        ll.EventStudyConfig(training_periods=(0, 2)).resolved_windows()


@pytest.mark.parametrize("periods, n_periods, message", [
    ((5, 6), 4, "outside"), ((-1, 0), 8, "outside"), ((0, 1), 1, "outside"),
    ((0, 1), 2, "no prediction window"), ((1, 2), 4, "no prediction window")])
def test_event_config_refuses_training_outside_the_study_or_no_window(periods, n_periods,
                                                                      message):
    with pytest.raises(ValueError, match=message):
        ll.EventStudyConfig(n_periods=n_periods, training_periods=periods)
    assert ll.EventStudyConfig(n_periods=4, training_periods=(2, 3)).resolved_windows() == \
        [(0, 120)]


@pytest.mark.parametrize("length", [0, -5])
def test_event_config_refuses_a_period_length_below_one(length):
    with pytest.raises(ValueError, match=f"period_length must be >= 1, got {length}"):
        ll.EventStudyConfig(period_length=length)


def test_event_config_needs_a_permutation():
    # with none, every window's Spearman p would read (1 + 0) / (1 + 0) = 1
    for n in (0, -5):
        with pytest.raises(ValueError, match="permutation"):
            ll.EventStudyConfig(n_permutations=n)


@pytest.mark.parametrize("setting, message", [
    ({"rounds": 0}, "rounds must be >= 1, got 0"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0, got nan"),
    ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0, got inf"),
    ({"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
], ids=["zero-rounds", "nan-rate", "inf-rate", "zero-rate"])
def test_event_config_refuses_a_training_setting_that_cannot_train(setting, message):
    with pytest.raises(ValueError, match=message):
        ll.EventStudyConfig(**setting)


def _flat_cost(n_days=480, value=1.0, jitter=None):
    dates = trading_days(dt.date(2009, 1, 5), n_days + 1)[1:]
    lam = np.full((n_days, NB), value)
    if jitter is not None:
        lam = lam + jitter
    no_flags = np.zeros(lam.shape, dtype=bool)
    return ll.CostSeries(dates=dates, pi=lam.copy(), lam=lam,
                         lambda_avg=lam.mean(axis=1),
                         no_quote=no_flags, illiquid=no_flags)


def _index_over(dates):
    months, _ = month_index(dates)
    rng = np.random.default_rng(0)
    return IndexSeries("sentiment", months, rng.standard_normal(len(months)))


def test_event_study_constant_lambda_reports_na():
    cost = _flat_cost(value=0.0)
    index = _index_over(cost.dates)
    report = ll.event_study(cost, index,
                            ll.EventStudyConfig(n_permutations=200, rounds=5),
                            seeds=(1,))
    assert len(report["windows"]) == 5
    for w in report["windows"]:
        assert w["degenerate"]
        assert w["p_pearson"] is None and w["p_spearman"] is None


def test_event_study_requires_full_coverage():
    cost = _flat_cost(n_days=200)
    index = _index_over(cost.dates)
    with pytest.raises(ValueError, match="event study needs"):
        ll.event_study(cost, index, seeds=(1,))


def _refuses_before_training(monkeypatch, seeds, message):
    cost = _flat_cost(jitter=0.3 * np.random.default_rng(3).standard_normal((480, NB)))

    def no_training(*args, **kwargs):
        raise AssertionError("trained a net")

    monkeypatch.setattr(neural_kit, "train_many", no_training)
    with pytest.raises(ValueError, match=message):
        ll.event_study(cost, _index_over(cost.dates), seeds=seeds)


def test_event_study_refuses_empty_seeds_before_training(monkeypatch):
    _refuses_before_training(monkeypatch, (), "seeds must not be empty")


def test_event_study_refuses_repeated_seeds_before_training(monkeypatch):
    # the study averages one net per listed seed: a repeat counts one net twice
    _refuses_before_training(monkeypatch, (1, 2, 1), r"seeds \[1, 2, 1\] repeat a seed")


def test_cost_series_alone_does_not_load_the_nets():
    """Only `event_study` trains nets, so importing the module for its
    cost series leaves `neural_kit` and `residual_study` unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ll.__file__)))
    code = ("import sys, dualspace.liquidity_lab; "
            "print(sorted(m for m in sys.modules if m.startswith('dualspace.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = set(ast.literal_eval(out))
    assert "dualspace.liquidity_lab" in loaded
    assert not loaded & {"dualspace.neural_kit", "dualspace.residual_study"}


def test_event_study_pvalues_in_range(small_market):
    rng = np.random.default_rng(1)
    cost = _flat_cost(jitter=0.3 * rng.standard_normal((480, NB)))
    index = _index_over(cost.dates)
    report = ll.event_study(cost, index,
                            ll.EventStudyConfig(n_permutations=400, rounds=20),
                            seeds=(1, 2))
    for w in report["windows"]:
        assert 0.0 < w["p_spearman"] <= 1.0
        assert 0.0 <= w["p_pearson"] <= 1.0
        assert abs(w["r_pearson"]) <= 1.0
    assert {"index", "seeds", "windows", "reference_pearson"} <= set(report)


def test_report_csv_has_na_cells():
    cost = _flat_cost(value=0.0)
    index = _index_over(cost.dates)
    report = ll.event_study(cost, index,
                            ll.EventStudyConfig(n_permutations=100, rounds=3),
                            seeds=(1,))
    buf = io.StringIO()
    ll.write_report_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "days,p_pearson,p_spearman"
    assert all(line.endswith("NA,NA") for line in lines[1:])
    assert len(lines) == 6

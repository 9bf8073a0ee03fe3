import datetime as dt
import io

import numpy as np
import pytest

from dualspace import liquidity_lab as ll
from dualspace.bucket_panel import BucketConfig, DailyPanel, PanelSeries
from dualspace.calendars import IndexSeries
from dualspace.calendars import month_key, trading_days

D0 = dt.date(2009, 8, 6)
NB = 16


def make_panel(day_offset, buy_vol, sell_vol, buy_vwap, sell_vwap):
    buy_vol = np.asarray(buy_vol, dtype=float)
    sell_vol = np.asarray(sell_vol, dtype=float)
    return DailyPanel(
        date=D0 + dt.timedelta(days=day_offset), ref_price=10.0,
        buy_vol=buy_vol, sell_vol=sell_vol, imb_vol=buy_vol - sell_vol,
        buy_vwap=np.asarray(buy_vwap, dtype=float),
        sell_vwap=np.asarray(sell_vwap, dtype=float),
        fine_buy=np.zeros((NB, 50)), fine_sell=np.zeros((NB, 50)))


def uniform_panel(day_offset, buy=1000.0, sell=1000.0, ask=10.02, bid=10.00):
    return make_panel(day_offset, [buy] * NB, [sell] * NB, [ask] * NB, [bid] * NB)


def test_trading_cost_spread_instance():
    prev = uniform_panel(0)
    cur = uniform_panel(1)
    pi, no_quote = ll.trading_cost(prev, cur)
    np.testing.assert_allclose(pi, 20.0)  # 10.02*1000 - 10.00*1000 per bucket
    assert not no_quote.any()


def test_trading_cost_zero_volumes():
    prev = uniform_panel(0)
    cur = make_panel(1, [0.0] * NB, [0.0] * NB, [0.0] * NB, [0.0] * NB)
    pi, _ = ll.trading_cost(prev, cur)
    np.testing.assert_array_equal(pi, 0.0)


def test_trading_cost_can_be_negative():
    prev = uniform_panel(0, ask=10.02, bid=10.50)
    cur = uniform_panel(1, buy=100.0, sell=100.0)
    pi, _ = ll.trading_cost(prev, cur)
    np.testing.assert_allclose(pi, 10.02 * 100 - 10.50 * 100)  # -48 per bucket
    assert np.all(pi < 0)


def test_trading_cost_flags_missing_quotes():
    prev = make_panel(0, [0.0] + [10.0] * (NB - 1), [5.0] * NB,
                      [0.0] + [10.02] * (NB - 1), [10.0] * NB)
    cur = uniform_panel(1)
    pi, no_quote = ll.trading_cost(prev, cur)
    assert no_quote[0] and not no_quote[1]
    assert pi[0] == pytest.approx(0.0 * 1000 - 10.0 * 1000)


def test_trading_cost_requires_ordered_panels():
    with pytest.raises(ValueError, match="consecutive"):
        ll.trading_cost(uniform_panel(1), uniform_panel(0))


def test_amihud_lambda_values():
    prev, cur = uniform_panel(0), uniform_panel(1)
    pi, _ = ll.trading_cost(prev, cur)
    lam, illiquid = ll.amihud_lambda(pi, prev, cur)
    np.testing.assert_allclose(lam, 0.02)  # = spread per share
    assert not illiquid.any()


def test_amihud_lambda_zero_cases():
    prev = uniform_panel(0, ask=10.0, bid=10.0)
    cur = uniform_panel(1)
    pi, _ = ll.trading_cost(prev, cur)
    lam, _ = ll.amihud_lambda(pi, prev, cur)
    np.testing.assert_array_equal(lam, 0.0)  # pi = 0 -> lambda = 0

    empty_prev = make_panel(0, [0.0] * NB, [0.0] * NB, [0.0] * NB, [0.0] * NB)
    empty_cur = make_panel(1, [0.0] * NB, [0.0] * NB, [0.0] * NB, [0.0] * NB)
    pi2, _ = ll.trading_cost(empty_prev, empty_cur)
    lam2, illiquid = ll.amihud_lambda(pi2, empty_prev, empty_cur)
    np.testing.assert_array_equal(lam2, 0.0)
    assert illiquid.all()


def test_equilibrium_identity():
    # balanced book, constant prices, spread s: bucket costs sum to
    # s * turnover exactly and lambda is the spread per share
    s = 0.02
    panels = [uniform_panel(i, buy=1000.0, sell=1000.0, ask=10.0 + s, bid=10.0)
              for i in range(3)]
    series = PanelSeries(panels, BucketConfig())
    cost = ll.cost_series(series)
    turnover = 1000.0 * NB
    for day in range(cost.pi.shape[0]):
        assert cost.pi[day].sum() == pytest.approx(s * turnover, abs=1e-9)
        assert np.all(cost.pi[day] >= 0.0)
        np.testing.assert_allclose(cost.lam[day], s, atol=1e-12)


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
    assert list(cost.day_positions) == list(range(1, len(series)))


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


def test_event_config_needs_a_permutation():
    # with none, every window's Spearman p would read (1 + 0) / (1 + 0) = 1
    for n in (0, -5):
        with pytest.raises(ValueError, match="permutation"):
            ll.EventStudyConfig(n_permutations=n)


def _flat_cost(n_days=480, value=1.0, jitter=None):
    dates = trading_days(dt.date(2009, 1, 5), n_days + 1)[1:]
    lam = np.full((n_days, NB), value)
    if jitter is not None:
        lam = lam + jitter
    no_flags = np.zeros(lam.shape, dtype=bool)
    return ll.CostSeries(dates=dates, pi=lam.copy(), lam=lam,
                         lambda_avg=lam.mean(axis=1),
                         day_positions=np.arange(1, n_days + 1),
                         no_quote=no_flags, illiquid=no_flags)


def _index_over(dates):
    months = sorted({month_key(d) for d in dates})
    rng = np.random.default_rng(0)
    return IndexSeries("sentiment", months, rng.standard_normal(len(months)))


def test_event_study_constant_lambda_reports_na():
    cost = _flat_cost(value=0.0)
    index = _index_over(cost.dates)
    report = ll.event_study(cost, index,
                            ll.EventStudyConfig(n_permutations=200, rounds=5),
                            seeds=(1,))
    assert len(report.windows) == 5
    for w in report.windows:
        assert w.degenerate
        assert w.p_pearson is None and w.p_spearman is None


def test_event_study_window_without_months_reports_na():
    # days 130-140 hold no month's majority of trading days
    rng = np.random.default_rng(2)
    cost = _flat_cost(jitter=0.3 * rng.standard_normal((480, NB)))
    index = _index_over(cost.dates)
    report = ll.event_study(cost, index,
                            ll.EventStudyConfig(prediction_windows=((130, 140),),
                                                n_permutations=50, rounds=3),
                            seeds=(1,))
    (window,) = report.windows
    assert window.months == []
    assert window.degenerate
    assert window.p_pearson is None and window.p_spearman is None


def test_event_study_requires_full_coverage():
    cost = _flat_cost(n_days=200)
    index = _index_over(cost.dates)
    with pytest.raises(ValueError, match="event study needs"):
        ll.event_study(cost, index, seeds=(1,))


def test_event_study_pvalues_in_range(small_market):
    rng = np.random.default_rng(1)
    cost = _flat_cost(jitter=0.3 * rng.standard_normal((480, NB)))
    index = _index_over(cost.dates)
    report = ll.event_study(cost, index,
                            ll.EventStudyConfig(n_permutations=400, rounds=20),
                            seeds=(1, 2))
    for w in report.windows:
        assert 0.0 < w.p_spearman <= 1.0
        assert 0.0 <= w.p_pearson <= 1.0
        assert abs(w.r_pearson) <= 1.0
    payload = report.to_dict()
    assert {"index", "seeds", "windows", "reference_pearson"} <= set(payload)


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

import datetime as dt
import math

import numpy as np
import pytest

from dualspace import bucket_panel
from dualspace.bucket_panel import BucketConfig, build_panels, imbalance_profile, reference_prices
from dualspace.tape_io import Side, TapeRecord

from oracles import tape_of

D0 = dt.date(2009, 8, 6)


def rec(day_offset, price, side, volume):
    return TapeRecord(D0 + dt.timedelta(days=day_offset), price, side, volume)


def tape(*records):
    return tape_of(records)


def test_reference_price_is_prior_day_vwap():
    records = tape(rec(0, 10.0, Side.BUY, 100), rec(0, 12.0, Side.SELL, 300),
                   rec(1, 11.0, Side.BUY, 50))
    refs = reference_prices(records)
    assert refs[D0] == pytest.approx(11.5)  # first day falls back to its own VWAP
    assert refs[D0 + dt.timedelta(days=1)] == pytest.approx(11.5)


def test_reference_price_single_day_uses_own_vwap():
    records = tape(rec(0, 10.0, Side.BUY, 100), rec(0, 20.0, Side.SELL, 100))
    assert reference_prices(records)[D0] == pytest.approx(15.0)


def test_reference_prices_match_direct_summation(small_market):
    records = small_market.tapes[0].records
    refs = reference_prices(records)
    by_day = {}
    for r in records:
        by_day.setdefault(r.date, []).append(r)
    days = sorted(by_day)
    for prev, cur in zip(days, days[1:]):
        recs = by_day[prev]
        vwap = sum(r.price * r.volume for r in recs) / sum(r.volume for r in recs)
        assert refs[cur] == pytest.approx(vwap, rel=1e-12)


def test_bucket_and_subcell_assignment():
    # ref 10.0 via a large anchor trade on day 0
    records = tape(rec(0, 10.0, Side.BUY, 1_000_000),
                   rec(1, 10.3, Side.BUY, 200))
    series = build_panels(records)
    panel = series.panels[1]
    assert panel.ref_price == pytest.approx(10.0)
    assert panel.buy_vol[0] == 200
    assert panel.fine_buy[0, 30] == 200  # |10.3 - 10.0| = 0.30 -> sub-cell 30


def test_out_of_range_trade_discarded():
    records = tape(rec(0, 10.0, Side.BUY, 1_000_000),
                   rec(1, 18.5, Side.BUY, 100),  # change 8.5 >= 16 * 0.5
                   rec(1, 10.1, Side.SELL, 50))
    series = build_panels(records)
    panel = series.panels[1]
    assert panel.discarded_trades == 1
    assert panel.discarded_volume == 100
    assert panel.buy_vol.sum() == 0
    assert panel.sell_vol[0] == 50


def test_balanced_bucket_has_zero_imbalance():
    records = tape(rec(0, 10.0, Side.BUY, 1_000_000),
                   rec(1, 10.2, Side.BUY, 300), rec(1, 10.25, Side.SELL, 300))
    series = build_panels(records)
    assert series.panels[1].imb_vol[0] == 0


def test_unknown_side_excluded_but_conserved():
    records = tape(rec(0, 10.0, Side.BUY, 1_000_000),
                   rec(1, 10.2, Side.UNKNOWN, 77), rec(1, 10.2, Side.BUY, 100))
    series = build_panels(records)
    panel = series.panels[1]
    assert panel.buy_vol[0] == 100
    assert panel.sell_vol.sum() == 0
    assert panel.unknown_volume == 77


def test_volume_conservation_per_day(small_market):
    records = small_market.tapes[0].records
    series = build_panels(records)
    by_day = {}
    for r in records:
        by_day[r.date] = by_day.get(r.date, 0) + r.volume
    for panel in series.panels:
        assert panel.total_volume() == pytest.approx(by_day[panel.date], abs=1e-6)


def test_shift_invariance(small_market):
    records = small_market.tapes[0].records[:4000]
    shifted = tape_of(TapeRecord(r.date, r.price + 5.0, r.side, r.volume) for r in records)
    a = build_panels(records)
    b = build_panels(shifted)
    for pa, pb in zip(a.panels, b.panels):
        assert np.array_equal(pa.fine_buy, pb.fine_buy)
        assert np.array_equal(pa.fine_sell, pb.fine_sell)
        np.testing.assert_allclose(pb.buy_vwap[pb.buy_vol > 0],
                                   pa.buy_vwap[pa.buy_vol > 0] + 5.0, rtol=1e-12)


def test_imbalance_profile_modes():
    buy = np.array([4.0, 1.0, 0.0])
    sell = np.array([1.0, 4.0, 0.0])
    np.testing.assert_allclose(imbalance_profile(buy, sell), [3.0, -3.0, 0.0])
    np.testing.assert_allclose(imbalance_profile(buy, sell, geometric=True),
                               [2.0, -2.0, 0.0])


def test_fine_profiles_sum_to_bucket_volumes(small_market):
    series = build_panels(small_market.tapes[1].records)
    for panel in series.panels:
        np.testing.assert_allclose(panel.fine_buy.sum(axis=1), panel.buy_vol)
        np.testing.assert_allclose(panel.fine_sell.sum(axis=1), panel.sell_vol)
        np.testing.assert_allclose(panel.imb_vol, panel.buy_vol - panel.sell_vol)


def test_empty_bucket_vwap_zero_and_flagged():
    records = tape(rec(0, 10.0, Side.BUY, 1_000_000), rec(1, 10.2, Side.BUY, 100))
    series = build_panels(records)
    panel = series.panels[1]
    assert panel.sell_vwap[0] == 0.0
    assert panel.sell_vol[0] == 0
    assert panel.buy_vol[0] == 100


def test_config_validation():
    with pytest.raises(ValueError):
        BucketConfig(delta=0.0)
    with pytest.raises(ValueError):
        BucketConfig(n_buckets=0)
    assert BucketConfig().subcell_width == pytest.approx(0.01)


def test_needs_two_days():
    with pytest.raises(ValueError, match="at least 2 days"):
        build_panels(tape(rec(0, 10.0, Side.BUY, 10)))


def test_zero_volume_day_carries_reference_forward():
    # a day whose records were all rejected upstream simply has no rows;
    # the next day's reference falls back to the last day with volume
    records = tape(rec(0, 10.0, Side.BUY, 100), rec(3, 11.0, Side.BUY, 100))
    refs = reference_prices(records)
    assert refs[D0 + dt.timedelta(days=3)] == pytest.approx(10.0)


def test_panel_csv_export_shape(small_market, tmp_path):
    series = build_panels(small_market.tapes[0].records)
    path = tmp_path / "panels.csv"
    with open(path, "w") as handle:
        bucket_panel.write_panels_csv(series, handle)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "date,bucket,buy_vol,sell_vol,imb_vol,buy_vwap,sell_vwap"
    assert len(lines) == 1 + len(series) * series.config.n_buckets

    fine_path = tmp_path / "fine.csv"
    with open(fine_path, "w") as handle:
        bucket_panel.write_fine_csv(series, handle)
    fine_lines = fine_path.read_text().strip().splitlines()
    assert len(fine_lines) == 1 + 2 * len(series) * series.config.n_buckets


_SERIES_ARRAYS = ("ref_price", "volume", "vwap", "fine", "discarded_count",
                  "discarded_volume", "unknown_volume")


def test_series_from_its_arrays_equals_the_built_series(small_market):
    records = list(small_market.tapes[0].records)
    far = [TapeRecord(r.date, r.price + 30.0, Side.SELL, 7) for r in records[::500]]
    built = build_panels(tape_of(sorted(records + far, key=lambda r: r.date)))
    assert built.discarded_trades > 0 and built.unknown_volume.sum() > 0
    again = bucket_panel.PanelSeries(built.config, built.dates,
                                     *(getattr(built, name) for name in _SERIES_ARRAYS))
    assert again.dates == built.dates and again.config == built.config
    assert again.discarded_trades == built.discarded_trades
    for name in _SERIES_ARRAYS:
        got, want = getattr(again, name), getattr(built, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for a, b in zip(again.panels, built.panels):
        assert a.date == b.date and a.total_volume() == b.total_volume()
        assert np.array_equal(a.imb_vol, b.imb_vol)
    assert [p.discarded_trades for p in built.panels] == built.discarded_count.tolist()


@pytest.mark.parametrize("config", [BucketConfig(n_buckets=20), BucketConfig(n_subcells=40)])
def test_series_refuses_panels_of_another_shape(small_market, config):
    built = build_panels(small_market.tapes[0].records)  # 16 buckets of 50 sub-cells
    with pytest.raises(ValueError, match="side arrays"):
        bucket_panel.PanelSeries(config, built.dates,
                                 *(getattr(built, name) for name in _SERIES_ARRAYS))



@pytest.mark.parametrize("name", ["ref_price", "discarded_count", "discarded_volume",
                                  "unknown_volume"])
def test_series_refuses_per_day_arrays_of_another_length(small_market, name):
    built = build_panels(small_market.tapes[0].records)
    arrays = [getattr(built, n)[:-1] if n == name else getattr(built, n) for n in _SERIES_ARRAYS]
    with pytest.raises(ValueError, match="one entry per date"):
        bucket_panel.PanelSeries(built.config, built.dates, *arrays)

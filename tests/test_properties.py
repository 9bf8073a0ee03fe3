"""Property tests over generated tapes: serialize/parse round trip and
the bucket panels' volume conservation and input-form independence."""

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspace import bucket_panel, tape_io

DAY0 = dt.date(2009, 1, 5)

trades = st.tuples(st.integers(0, 4),            # day
                   st.integers(1, 5_000),        # price in cents: 0.01 to 50 CNY
                   st.sampled_from([-1, 0, 1]),  # side code
                   st.integers(1, 10**9))        # shares


@st.composite
def tapes(draw, min_days=1):
    rows = draw(st.lists(trades, min_size=1, max_size=300))
    days = sorted({row[0] for row in rows})
    if len(days) < min_days:
        rows.append((max(days) + 1, 1_000, 1, 100))
    rows.sort(key=lambda row: row[0])  # date-ordered, stable within a day
    dates = [DAY0 + dt.timedelta(days=day) for day in range(max(row[0] for row in rows) + 1)]
    day, cents, side, volume = (list(col) for col in zip(*rows))
    return tape_io.Tape(dates, day, np.array(cents) / 100.0, side, volume)


@settings(max_examples=60, deadline=None)
@given(tapes())
def test_serialize_parse_round_trip(tape):
    result = tape_io.parse_tape(tape_io.serialize(tape))
    assert not result.errors
    assert result.n_data_rows == len(tape) and result.n_header_rows == 1
    assert result.records == tape


@settings(max_examples=60, deadline=None)
@given(tapes(min_days=2))
def test_build_panels_conserves_daily_volume(tape):
    series = bucket_panel.build_panels(tape)
    day_volume = {}
    for rec in tape:
        day_volume[rec.date] = day_volume.get(rec.date, 0) + rec.volume
    assert series.dates == sorted(day_volume)
    for panel in series.panels:
        assert (panel.buy_vol.sum() + panel.sell_vol.sum() + panel.discarded_volume
                + panel.unknown_volume) == day_volume[panel.date]
        assert panel.total_volume() == day_volume[panel.date]


@settings(max_examples=60, deadline=None)
@given(tapes(min_days=2))
def test_build_panels_same_for_tape_and_record_list(tape):
    a = bucket_panel.build_panels(tape)
    b = bucket_panel.build_panels(list(tape))
    assert a.dates == b.dates and a.discarded_trades == b.discarded_trades
    for pa, pb in zip(a.panels, b.panels):
        for name in ("ref_price", "discarded_trades", "discarded_volume", "unknown_volume"):
            assert getattr(pa, name) == getattr(pb, name)
        for name in ("buy_vol", "sell_vol", "imb_vol", "buy_vwap", "sell_vwap",
                     "fine_buy", "fine_sell"):
            assert np.array_equal(getattr(pa, name), getattr(pb, name))

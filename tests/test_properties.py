"""Property tests over generated inputs: the serialize/parse round trip,
the bucket panels' volume conservation and input-form independence, and
the dual regression's reconstruction, P+F=1 and symmetry invariants."""

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspace import bucket_panel, dual_regression, tape_io
from dualspace.state_space import StateMatrix, VolumeMode

from oracles import symmetry_projector

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


@st.composite
def state_matrices(draw, n_buckets=16):
    """2-60 rows of entries in [-1, 1], at times with a zero, constant or
    duplicated column."""
    n_rows = draw(st.integers(2, 60))
    values = np.array(draw(st.lists(st.floats(-1, 1), min_size=n_rows * n_buckets,
                                    max_size=n_rows * n_buckets))).reshape(n_rows, n_buckets)
    special = draw(st.sampled_from([None, "zero", "constant", "duplicate"]))
    k = draw(st.integers(0, n_buckets - 1))
    if special == "zero":
        values[:, k] = 0.0
    elif special == "constant":
        values[:, k] = draw(st.floats(-1, 1))
    elif special == "duplicate":
        values[:, k] = values[:, (k + 1) % n_buckets]
    dates = [DAY0 + dt.timedelta(days=i) for i in range(n_rows)]
    return StateMatrix(values, VolumeMode.IMBALANCE, dates)


@settings(max_examples=60, deadline=None)
@given(state_matrices())
def test_fit_beta_invariants(states):
    out = dual_regression.fit_beta(states)
    delta = states.values[1:] - states.values[:-1]
    assert np.abs(out.predictions + out.residuals - delta).max() <= 1e-10
    split = dual_regression.variance_split(out, states)
    live = [k for k in range(16) if k not in split.degenerate_buckets]
    np.testing.assert_allclose(split.predictor[live] + split.residual[live], 1.0, atol=1e-9)
    p = symmetry_projector()
    np.testing.assert_allclose(p @ out.beta.values, out.beta.values, atol=1e-9)
    np.testing.assert_allclose(p @ out.intercept, out.intercept, atol=1e-9)

"""Self-test of the benchmark's reference computations.

At tiny scale the benchmark's own tape reader, bucketing, least-squares
fit, cost formula and critical correlation must agree with the program,
so that a fault in a check shows apart from a fault in the program.

    python3 -m pytest bench/test_reference.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from dualspace import (bucket_panel, corrstats, dual_regression,  # noqa: E402
                       liquidity_lab, state_space, synth_market, tape_io)

#: Hand-written rows appended to the tiny tape: a trade 9 CNY from the
#: reference (discarded), one near a bucket edge, a lower-case side
#: flag and an unknown side.
EXTRA_ROWS = ("2009-02-13,25.0,B,100", "2009-02-13,{edge},S,50",
              "2009-02-13,12.0,s,70", "2009-02-13,12.0,X,30")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    config = synth_market.MarketConfig(n_traders=1, n_days=30, trades_per_day_mean=40.0,
                                       seed=5)
    text = synth_market.gen_market(config).tapes[0].text
    records = tape_io.parse_tape(text).records
    edge = round(bucket_panel.reference_prices(records)[records[-1].date] + 1.0, 2)
    text += "\n".join(EXTRA_ROWS).format(edge=edge) + "\n"
    planted_text, planted = inputs.plant_malformed(text, seed=5)
    path = tmp_path_factory.mktemp("tape") / "tiny.tsv"
    path.write_text(planted_text, encoding="utf-8")
    return str(path), planted


def test_tape_reader_agrees(tiny):
    path, planted = tiny
    own = ref.read_tape(path)
    prog = tape_io.read_tape(path)
    assert own["day"].size == len(prog.records)
    assert own["n_data"] == prog.n_data_rows and own["n_header"] == prog.n_header_rows
    sides = {1: tape_io.Side.BUY, -1: tape_io.Side.SELL, 0: tape_io.Side.UNKNOWN}
    assert [(d, p, sides[s], v) for d, p, s, v in zip(
        own["day"].tolist(), own["price"].tolist(), own["side"].tolist(),
        own["volume"].tolist())] == [(r.date.toordinal(), r.price, r.side, r.volume)
                                     for r in prog.records]
    assert sorted(own["rejected"]) == sorted(e.line_no for e in prog.errors) == sorted(planted)
    for err in prog.errors:
        expected = planted[err.line_no]
        assert own["rejected"][err.line_no] == (expected or "non-finite price")
        if expected:
            assert err.reason == expected
    assert set(filter(None, planted.values())) == {
        "short row", "malformed date", "malformed price", "nonpositive price",
        "malformed volume", "nonpositive volume"}


def test_bucketing_agrees(tiny):
    path, _ = tiny
    own = ref.read_tape(path)
    binned = ref.bucket_tape(own["day"], own["price"], own["side"], own["volume"])
    series = bucket_panel.build_panels(tape_io.read_tape(path).records)
    fine = np.stack([np.stack([p.fine_buy, p.fine_sell]) for p in series.panels])
    assert np.array_equal(fine, binned["fine"])
    assert [p.discarded_trades for p in series.panels] == binned["discarded"].tolist()
    assert binned["discarded"].sum() >= 1
    assert np.array_equal([p.total_volume() for p in series.panels], binned["day_volume"])
    assert np.allclose([p.ref_price for p in series.panels], binned["refs"], rtol=1e-12)


def test_fit_and_cost_agree(tiny):
    path, _ = tiny
    series = bucket_panel.build_panels(tape_io.read_tape(path).records)
    states = state_space.state_matrix(series, state_space.VolumeMode.IMBALANCE)
    fit = dual_regression.fit_beta(states)
    assert np.allclose(fit.predictions, ref.lstsq_fit(states.values), rtol=0, atol=1e-9)
    cost = liquidity_lab.cost_series(series)
    pi, lam = ref.cost_formula(*(np.array([getattr(p, k) for p in series.panels])
                                 for k in ("buy_vol", "sell_vol", "buy_vwap", "sell_vwap")))
    assert np.allclose(cost.pi, pi, rtol=1e-12, atol=1e-9)
    assert np.allclose(cost.lam, lam, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [5, 12, 23, 60])
def test_critical_r_agrees(n):
    assert ref.critical_r(n) == pytest.approx(corrstats.corr_significance_threshold(n),
                                              abs=1e-7)

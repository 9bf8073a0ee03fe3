import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from dualspace import bucket_panel, cli, liquidity_lab, synth_market, tape_io
from dualspace.corrstats import corr_significance_threshold, pearson
from dualspace.calendars import read_index_csv
from dualspace.synth_market import Couplings, MarketConfig

from conftest import COUPLED_CONFIG


def test_generation_is_deterministic(small_market):
    again = synth_market.gen_market(small_market.config)
    for a, b in zip(small_market.tapes, again.tapes):
        assert a.text == b.text
    for name in small_market.indexes:
        np.testing.assert_array_equal(small_market.indexes[name].values,
                                      again.indexes[name].values)


def test_tapes_parse_clean_and_round_trip(small_market):
    for tape in small_market.tapes:
        result = tape_io.parse_tape(tape.text)
        assert not result.errors
        assert result.records == tape.records


def test_same_seed_same_indexes():
    cfg = MarketConfig(n_days=100, seed=21)
    a, _ = synth_market.gen_indexes(cfg)
    b, _ = synth_market.gen_indexes(cfg)
    for name in a:
        np.testing.assert_array_equal(a[name].values, b[name].values)


def test_index_autocorrelation_matches_ar_parameter():
    # ~1e4 months of sentiment: sample lag-1 autocorrelation near 0.7
    cfg = MarketConfig(n_days=217_000, seed=2, sentiment_ar=0.7)
    indexes, _ = synth_market.gen_indexes(cfg)
    v = indexes["sentiment"].values
    assert v.size >= 9_000
    r = pearson(v[:-1], v[1:])
    assert r == pytest.approx(0.7, abs=0.02)


def test_zero_ar_gives_white_noise():
    cfg = MarketConfig(n_days=217_000, seed=3, sentiment_ar=0.0)
    indexes, _ = synth_market.gen_indexes(cfg)
    v = indexes["sentiment"].values
    assert abs(pearson(v[:-1], v[1:])) < 0.05


def test_yield_series_is_sample_orthogonal():
    indexes, _ = synth_market.gen_indexes(MarketConfig(seed=5))
    bond = indexes["bond_yield"].values
    assert abs(pearson(bond, indexes["sentiment"].values)) < 1e-9
    assert abs(pearson(bond, indexes["stock_return"].values)) < 1e-9


def _monthly_imbalance_corr(market):
    tape = market.tapes[0]
    sent = market.indexes["sentiment"]
    s_std = (sent.values - sent.values.mean()) / sent.values.std()
    imb = {m: [0.0, 0.0] for m in sent.months}
    for r in tape.records:
        if r.side is tape_io.Side.UNKNOWN:
            continue
        box = imb[f"{r.date.year:04d}-{r.date.month:02d}"]
        box[0] += r.volume if r.side is tape_io.Side.BUY else -r.volume
        box[1] += r.volume
    ratio = np.array([box[0] / box[1] for box in imb.values()])
    return pearson(ratio, s_std)


def test_zero_coupling_imbalance_within_null_band():
    market = synth_market.gen_market(MarketConfig(n_traders=1, seed=31))
    r = _monthly_imbalance_corr(market)
    n = len(market.indexes["sentiment"].months)
    assert abs(r) < corr_significance_threshold(n)


def test_strong_coupling_imbalance_correlates():
    wins = 0
    for seed in range(5):
        market = synth_market.gen_market(MarketConfig(
            n_traders=1, seed=40 + seed, couplings=Couplings(g_sent=0.9)))
        wins += _monthly_imbalance_corr(market) > 0.6
    assert wins >= 3


def test_default_config_calibration_anchors():
    market = synth_market.gen_market(MarketConfig(n_traders=1, seed=0))
    summary = tape_io.summarize(market.tapes[0].records)
    anchors = {"trade_count": 32041, "avg_price": 8.77, "avg_daily_volume": 11046}
    for field, anchor in anchors.items():
        value = getattr(summary, field)
        assert 0.3 * anchor <= value <= 3.0 * anchor, (field, value)


def test_unknown_side_rate_below_quality_bound(small_market):
    report = tape_io.validate(small_market.tapes[0].records)
    assert 0.0 < report.unknown_side_fraction < 0.10
    assert not report.unknown_side_flag


def test_shock_identity_at_unit_multipliers():
    base = MarketConfig(n_traders=1, n_days=80, seed=9)
    shocked = synth_market.inject_shock(base, (20, 40), 1.0, 1.0)
    a = synth_market.gen_market(base)
    b = synth_market.gen_market(shocked)
    assert a.tapes[0].text == b.tapes[0].text


def test_overlapping_shocks_rejected():
    cfg = synth_market.inject_shock(MarketConfig(), (100, 200), 2.0, 1.0)
    with pytest.raises(ValueError, match="overlap"):
        synth_market.inject_shock(cfg, (150, 250), 1.0, 2.0)
    with pytest.raises(ValueError, match="within"):
        synth_market.inject_shock(MarketConfig(n_days=100), (50, 120))


@pytest.mark.parametrize("volume_mult, spread_mult",
                         [(-1.0, 1.0), (1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))])
def test_shock_multipliers_must_be_finite_and_nonnegative(volume_mult, spread_mult):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        synth_market.inject_shock(MarketConfig(n_days=100), (10, 20), volume_mult, spread_mult)


def test_negative_trader_count_is_refused():
    with pytest.raises(ValueError, match="n_traders"):
        MarketConfig(n_traders=-1)


def _concentrated(seed, spread):
    return MarketConfig(n_traders=1, seed=seed, spread=spread, anchor_max_offset=1.8,
                        anchor_buy_reach=0.7, anchor_sell_reach=1.2,
                        buy_width=0.4, sell_width=0.7)


def test_spread_shock_doubles_lambda_inside_window():
    cfg = synth_market.inject_shock(_concentrated(5, spread=1.5), (300, 360),
                                    spread_mult=3.0)
    market = synth_market.gen_market(cfg)
    panels = bucket_panel.build_panels(market.tapes[0].records)
    cost = liquidity_lab.cost_series(panels)
    inside = (cost.day_positions >= 300) & (cost.day_positions < 360)
    assert cost.lambda_avg[inside].mean() >= 2.0 * cost.lambda_avg[~inside].mean()


def test_zero_volume_shock_empties_window():
    cfg = synth_market.inject_shock(MarketConfig(n_traders=1, n_days=60, seed=6),
                                    (20, 30), volume_mult=0.0)
    market = synth_market.gen_market(cfg)
    dates = market.truth.trading_dates
    silenced = set(dates[20:30])
    assert all(r.date not in silenced for r in market.tapes[0].records)
    # downstream panels skip the empty days; later days keep working
    panels = bucket_panel.build_panels(market.tapes[0].records)
    assert all(p.date not in silenced for p in panels.panels)
    assert len(panels) == 50


def test_ground_truth_records_tilt_and_shocks():
    cfg = synth_market.inject_shock(
        MarketConfig(n_traders=1, n_days=80, seed=7, couplings=Couplings(g_sent=0.5)),
        (10, 20), spread_mult=2.0)
    market = synth_market.gen_market(cfg)
    assert market.truth.shock_windows == [
        {"start_day": 10, "end_day": 20, "volume_mult": 1.0, "spread_mult": 2.0}]
    tilt = np.array(market.truth.daily_tilt)
    assert tilt.shape == (80,)
    assert np.abs(tilt).max() <= 0.9
    assert np.abs(tilt).max() > 0.0


def test_write_market_artifacts(tmp_path, capsys, small_market):
    cfg = small_market.config
    assert cli.run(["synth", "--seed", str(cfg.seed), "--traders", str(cfg.n_traders),
                    "--days", str(cfg.n_days), "--trades-per-day",
                    str(cfg.trades_per_day_mean), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {p.name for p in tmp_path.iterdir()} == {
        "t0.csv", "t1.csv", "sentiment.csv", "stock_return.csv", "bond_yield.csv",
        "ground_truth.json"}
    reparsed = tape_io.read_tape(tmp_path / "t0.csv")
    assert reparsed.records == small_market.tapes[0].records
    with open(tmp_path / "sentiment.csv") as handle:
        idx = read_index_csv(handle, "sentiment")
    np.testing.assert_allclose(idx.values, small_market.indexes["sentiment"].values)
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    truth.pop("provenance")
    assert truth == json.loads(json.dumps(small_market.truth.to_dict()))


def test_anchor_weights_that_are_not_probabilities_are_refused():
    # exp(-offset / 1e-300) underflows to 0 for every anchor
    cfg = MarketConfig(n_traders=1, n_days=30, seed=1, anchor_buy_reach=1e-300)
    with pytest.raises(ValueError, match="anchor_buy_reach leaves some day"):
        synth_market.gen_market(cfg)


def test_snr_mapping():
    assert synth_market.snr_to_anchored_fraction(0.0) == 0.0
    assert synth_market.snr_to_anchored_fraction(10.0) == pytest.approx(10 / 11)
    with pytest.raises(ValueError):
        synth_market.snr_to_anchored_fraction(-1.0)


def test_cent_rounding_matches_decimal_formatting():
    rng = np.random.default_rng(0)
    half = (np.arange(1, 5001) + 0.5) / 100  # half cents and their neighbours
    x = np.concatenate([rng.uniform(0.01, 50.0, 100_000), half,
                        np.nextafter(half, 0.0), np.nextafter(half, 100.0)])
    expect = [float(f"{v:.2f}") for v in x.tolist()]
    assert synth_market._cents(x).tolist() == expect


def _shocked_config():
    cfg = synth_market.inject_shock(MarketConfig(n_traders=2, n_days=120, seed=6),
                                    (20, 30), volume_mult=0.0)
    return synth_market.inject_shock(cfg, (60, 80), spread_mult=3.0)


def _concentrated_shock_config():
    """Criterion 10's shocked market at its first power seed: every shape
    field away from its default."""
    cfg = MarketConfig(n_traders=1, seed=200, trades_per_day_mean=250.0, spread=2.5,
                       couplings=Couplings(g_sent=0.9), sentiment_ar=0.2,
                       anchor_max_offset=1.8, anchor_buy_reach=0.7, anchor_sell_reach=1.2,
                       buy_width=0.4, sell_width=0.7)
    return synth_market.inject_shock(cfg, (240, 360), spread_mult=3.0)


#: sha256 over every tape's text, then the sorted-key JSON of the ground
#: truth.  The random stream is part of the generator's contract: the
#: acceptance criteria are calibrated on these seeds, so any change to
#: the generator must reproduce these bytes exactly, and so must every
#: BLAS kernel (`test_golden_streams_do_not_follow_the_blas_kernel`).
GOLDEN_STREAMS = {
    "ingest": (MarketConfig(n_traders=3, n_days=485, seed=1, trades_per_day_mean=300.0,
                            couplings=Couplings(g_sent=0.9)),
               "7f781b9fbd87b4d1f8b8cde377c5f2ebbb957c2d11b50807094dfbc5738ef021"),
    "coupled": (COUPLED_CONFIG,
                "0f2f502dac6ef751eda8d06d8bedc966ee8c9115a1e44a2a1dcd43cb8c53f7d1"),
    "independent": (MarketConfig(n_traders=2, n_days=120, seed=5, shared_market=False),
                    "7e395b7176d376a7da2b86c60055e53fcb97feae8e093574c8be1b06695eee9f"),
    "zero_volume_and_spread_shock": (
        _shocked_config(),
        "e446757b2795ea77c23bbd7e71d10de7c4ebe0c0175fdd645cbae2d86d5a3b43"),
    "sparse_with_empty_days": (
        MarketConfig(n_traders=2, n_days=150, seed=8, trades_per_day_mean=1.5),
        "999af1db95bfe0ecb0ededb20c14baa25bfd9cf293048ffd231568fda5fb8a4c"),
    "concentrated_spread_shock": (
        _concentrated_shock_config(),
        "7f82cc4bd235ef3644bd6bb7468f66e0e148ce06a4565e04fdd1728a5fa50b85"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_golden_random_stream(name):
    config, expected = GOLDEN_STREAMS[name]
    market = synth_market.gen_market(config)
    digest = hashlib.sha256()
    for tape in market.tapes:
        digest.update(tape.text.encode())
    digest.update(json.dumps(market.truth.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == expected


def test_golden_streams_do_not_follow_the_blas_kernel():
    """Reruns the golden streams in a child process with OpenBLAS held to
    its Prescott (SSE3) kernel, whose sums round differently from the
    kernel this machine picks; the bytes must not change."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip("numpy's BLAS is not an OpenBLAS that picks its kernel at run time")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_golden_random_stream"],
        env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, text=True)
    assert child.returncode == 0, child.stdout[-3000:]

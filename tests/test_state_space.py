import datetime as dt
import io
import tracemalloc

import numpy as np
import pytest

from dualspace import state_space
from dualspace.bucket_panel import BucketConfig, PanelSeries, build_panels
from dualspace.state_space import VolumeMode, state_matrix
from dualspace.tape_io import TapeRecord

from oracles import attenuation, loop_state_values, tape_of, textbook_pearson

D0 = dt.date(2009, 8, 6)


def series_of(*days, config=BucketConfig()):
    """A PanelSeries of consecutive days from their (fine_buy, fine_sell)
    sub-cell profiles, each (16, 50)."""
    fine = np.array(days, dtype=float)  # (T, 2, 16, 50)
    n = len(days)
    return PanelSeries(config, [D0 + dt.timedelta(days=i) for i in range(n)], np.full(n, 10.0),
                       fine.sum(axis=3), np.zeros(fine.shape[:3]), fine,
                       np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n))


def pair_values(a, b, mode, geometric=False):
    """The state row of the two days a, b (each a (fine_buy, fine_sell) pair)."""
    series = series_of(a, b, config=BucketConfig(geometric_imbalance=geometric))
    return state_matrix(series, mode).values[0]


ZERO = np.zeros((16, 50))


def test_identical_profiles_correlate_to_one():
    rng = np.random.default_rng(0)
    fine = rng.uniform(0, 50, size=(16, 50))
    got = pair_values((fine, ZERO), (fine.copy(), ZERO), VolumeMode.BUY)
    np.testing.assert_allclose(got, np.ones(16))


def test_zero_variance_profile_gives_zero():
    rng = np.random.default_rng(1)
    got = pair_values((ZERO, ZERO), (rng.uniform(0, 5, (16, 50)), ZERO), VolumeMode.BUY)
    np.testing.assert_array_equal(got, np.zeros(16))


def test_corr_matches_textbook_formula():
    rng = np.random.default_rng(2)
    fa, fb = rng.uniform(0, 30, (2, 16, 50))
    got = pair_values((fa, ZERO), (fb, ZERO), VolumeMode.BUY)
    for k in range(16):
        assert got[k] == pytest.approx(textbook_pearson(fb[k], fa[k]), abs=1e-12)


def test_config_mismatch_raises():
    fine = np.zeros((2, 2, 16, 40))  # 40 sub-cells; the config has 50
    with pytest.raises(ValueError, match="sub-cell arrays"):
        PanelSeries(BucketConfig(), [D0, D0 + dt.timedelta(days=1)], np.full(2, 10.0),
                    fine.sum(axis=3), np.zeros((2, 2, 16)), fine,
                    np.zeros(2, dtype=np.int64), np.zeros(2), np.zeros(2))


def test_a_one_cell_profile_is_refused():
    fine = np.ones((2, 2, 16, 1))
    series = series_of(*fine, config=BucketConfig(n_subcells=1))
    with pytest.raises(ValueError, match="at least 2 sub-cells"):
        state_matrix(series, VolumeMode.IMBALANCE)


def test_state_matrix_shapes():
    rng = np.random.default_rng(3)
    series = series_of(*rng.uniform(0, 9, (2, 2, 16, 50)))
    states = state_matrix(series, VolumeMode.IMBALANCE)
    assert states.values.shape == (1, 16)
    assert states.dates == [series.dates[1]]


def test_full_scale_state_matrix(coupled_outputs):
    states, _ = coupled_outputs[0]
    assert states.values.shape == (484, 16)  # 485 trading days
    assert np.all(np.abs(states.values) <= 1.0)


def test_full_scale_state_matrix_matches_the_per_day_loop(coupled_market):
    for geometric in (False, True):
        series = build_panels(coupled_market.tapes[0].records,
                              BucketConfig(geometric_imbalance=geometric))
        for mode in VolumeMode:
            np.testing.assert_allclose(state_matrix(series, mode).values,
                                       loop_state_values(series, mode), rtol=0, atol=0)


def test_state_matrix_transient_memory_stays_small(coupled_market):
    """state_matrix runs in passes over a few day pairs at a time: one
    pass over all 484 pairs of an oracle tape peaks near 12 MB."""
    for geometric in (False, True):
        series = build_panels(coupled_market.tapes[0].records,
                              BucketConfig(geometric_imbalance=geometric))
        for mode in VolumeMode:
            tracemalloc.start()
            try:
                state_matrix(series, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000, (geometric, mode, peak)


def test_duplicated_panels_give_unit_rows():
    rng = np.random.default_rng(4)
    fine = rng.uniform(0, 9, (16, 50))
    states = state_matrix(series_of(*[(fine.copy(), fine.copy() * 0.5)] * 4), VolumeMode.BUY)
    np.testing.assert_allclose(states.values, 1.0)


def test_modes_select_profiles():
    rng = np.random.default_rng(5)
    fb1, fs1, fb2, fs2 = rng.uniform(0, 9, (4, 16, 50))
    a, b = (fb1, fs1), (fb2, fs2)
    buy = pair_values(a, b, VolumeMode.BUY)
    sell = pair_values(a, b, VolumeMode.SELL)
    imb = pair_values(a, b, VolumeMode.IMBALANCE)
    geo = pair_values(a, b, VolumeMode.IMBALANCE, geometric=True)
    assert not np.allclose(buy, sell)
    assert not np.allclose(imb, buy)
    assert not np.allclose(geo, imb)


def test_affine_profiles_hit_correlation_bounds():
    rng = np.random.default_rng(6)
    base = rng.uniform(0, 9, (16, 50))
    pos = (base * 3.0 + 2.0, ZERO)
    neg = (-base + 100.0, ZERO)
    np.testing.assert_allclose(pair_values((base, ZERO), pos, VolumeMode.BUY), 1.0, atol=1e-12)
    np.testing.assert_allclose(pair_values((base, ZERO), neg, VolumeMode.BUY), -1.0, atol=1e-12)


def test_volume_rescale_invariance(small_market):
    records = small_market.tapes[0].records
    scaled = tape_of(TapeRecord(r.date, r.price, r.side, r.volume * 7) for r in records)
    s1 = state_matrix(build_panels(records), VolumeMode.IMBALANCE)
    s2 = state_matrix(build_panels(scaled), VolumeMode.IMBALANCE)
    np.testing.assert_allclose(s1.values, s2.values, atol=1e-12)


def test_attenuation_zero_noise_identity():
    got = attenuation(0.8, 0.0, 0.0)
    assert got.approx == pytest.approx(0.8) and got.exact == pytest.approx(0.8)


def test_attenuation_plugin_values():
    got = attenuation(0.5, 0.1, 0.1)
    assert got.approx == pytest.approx(0.45)
    assert got.exact == pytest.approx(0.5 / 1.1)


def test_attenuation_is_downward_biased():
    for rho in (-0.9, -0.3, 0.2, 0.7, 1.0):
        for nsr1 in (0.0, 0.05, 0.5, 2.0):
            for nsr2 in (0.0, 0.3, 1.0):
                got = attenuation(rho, nsr1, nsr2)
                assert abs(got.exact) <= abs(rho) + 1e-15
                if nsr1 == nsr2 == 0.0:
                    assert got.exact == pytest.approx(rho)
                elif rho != 0.0:
                    assert abs(got.exact) < abs(rho)


def test_attenuation_monte_carlo_matches_exact_form():
    rng = np.random.default_rng(77)
    n = 100_000
    rho, nsr = 0.5, 0.1
    u = rng.standard_normal(n)
    v = rho * u + np.sqrt(1 - rho**2) * rng.standard_normal(n)
    u_noisy = u + np.sqrt(nsr) * rng.standard_normal(n)
    v_noisy = v + np.sqrt(nsr) * rng.standard_normal(n)
    empirical = np.corrcoef(u_noisy, v_noisy)[0, 1]
    assert empirical == pytest.approx(attenuation(rho, nsr, nsr).exact, abs=0.01)
    assert empirical < rho


def test_attenuation_input_validation():
    with pytest.raises(ValueError):
        attenuation(0.5, -0.1, 0.0)
    with pytest.raises(ValueError):
        attenuation(1.5, 0.0, 0.0)


def test_state_csv_round_trip(coupled_outputs):
    states, _ = coupled_outputs[0]
    buf = io.StringIO()
    state_space.write_state_csv(states, buf)
    buf.seek(0)
    back = state_space.read_state_csv(buf)
    np.testing.assert_array_equal(back.values, states.values)
    assert back.dates == states.dates
    assert back.mode == states.mode


@pytest.mark.parametrize("text", ["date\n2009-01-05\n", "date,mode\n2009-01-05,buy\n"])
def test_state_csv_without_bucket_columns_is_refused(text):
    with pytest.raises(ValueError, match="bucket columns"):
        state_space.read_state_csv(io.StringIO(text))


def test_state_csv_with_rows_of_several_modes_is_refused():
    text = ("date,mode,b0,b1\n2009-01-05,buy,0.1,0.2\n2009-01-06,sell,0.3,0.4\n"
            "2009-01-07,imbalance,0.5,0.6\n")
    with pytest.raises(ValueError, match="buy, imbalance, sell"):
        state_space.read_state_csv(io.StringIO(text))

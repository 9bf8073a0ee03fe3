import datetime as dt
import io

import numpy as np
import pytest

from dualspace import liquidity_lab as ll, residual_study as rs
from dualspace.calendars import month_index, read_index_csv, trading_days, write_index_csv
from dualspace.corrstats import corr_significance_threshold

from oracles import T_CRIT_10PCT, reference_train_many, weight_arrays


def month_days(n_months):
    """Weekdays of the first `n_months` calendar months of 2009+."""
    days = trading_days(dt.date(2009, 1, 1), n_months * 25)
    return [day for day in days
            if (day.year - 2009) * 12 + day.month - 1 < n_months]


def month_blocks(n_months):
    """(dates, slices) where slices[m] selects month m's rows."""
    dates = month_days(n_months)
    slices = []
    start = 0
    for i in range(1, len(dates) + 1):
        if i == len(dates) or (dates[i].year, dates[i].month) != (dates[start].year,
                                                                  dates[start].month):
            slices.append(slice(start, i))
            start = i
    return dates, slices


def test_index_series_validation():
    with pytest.raises(ValueError, match="one value"):
        rs.IndexSeries("x", ["2009-01"], np.array([1.0, 2.0]))
    idx = rs.IndexSeries("x", ["2009-12", "2010-01"], np.array([1.0, 2.0]))
    assert idx.values_for(["2010-01", "2009-12"]).tolist() == [2.0, 1.0]
    with pytest.raises(ValueError, match=r"index 'x' is missing months \['2010-02'\]"):
        idx.values_for(["2010-01", "2010-02"])
    for months in (["0001-01", "0001-02"], ["9999-11", "9999-12"]):  # datetime's years
        rs.IndexSeries("x", months, np.array([1.0, 2.0]))


@pytest.mark.parametrize("months", [
    ["2009-1", "2009-02"], ["2009-01", "2009-2"], [" 2009-01", "2009-02"],
    ["2009-00", "2009-01"], ["2009-12", "2009-13"], ["2009-01", "2009-03"],
    ["2009-01", "2009-01"], ["2009-02", "2009-01"], ["0000-12", "0001-01"],
    ["9999-12", "10000-01"], ["2009/01", "2009/02"], ["2009-01-01", "2009-02-01"],
    ["", "2009-01"], ["x", "y"],
], ids=["short-month", "short-later-month", "space", "month-00", "month-13", "gap", "repeated",
        "backward", "year-0", "year-10000", "slash", "day", "empty", "words"])
def test_index_series_refuses_keys_off_the_run_of_months(months):
    with pytest.raises(ValueError, match="YYYY-MM"):
        rs.IndexSeries("x", months, np.array([1.0, 2.0]))


@pytest.mark.parametrize("fault", ["repeated", "backward"])
def test_month_grouping_refuses_dates_out_of_order(fault):
    dates = month_days(2)
    rows = np.zeros((len(dates), 16))
    bad = list(dates)
    bad[3] = bad[2] if fault == "repeated" else bad[4]
    index = rs.IndexSeries("x", ["2009-01", "2009-02"], np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        rs.monthly_moments(rows, bad)
    with pytest.raises(ValueError, match="strictly increasing"):
        rs.monthly_windows(rows, bad, trader_id="a")
    for train, predict in ((bad, dates), (dates, bad)):
        with pytest.raises(ValueError, match="strictly increasing"):
            rs.deep_backcast(rows, train, rows, predict, [index], rounds=1)


def test_monthly_moments_of_standard_normal():
    # ~330 pooled values per month; tolerances are ~4 sampling sds
    rng = np.random.default_rng(0)
    dates = month_days(6)
    resid = rng.standard_normal((len(dates), 16))
    table = rs.monthly_moments(resid, dates)
    assert table.values.shape == (6, 4)
    np.testing.assert_allclose(table.values[:, 0], 0.0, atol=0.25)
    np.testing.assert_allclose(table.values[:, 1], 1.0, atol=0.35)
    np.testing.assert_allclose(table.values[:, 2], 0.0, atol=0.6)
    np.testing.assert_allclose(table.values[:, 3], 0.0, atol=1.2)
    assert not table.low_sample and not table.degenerate


def test_monthly_moments_constant_flagged():
    dates = month_days(2)
    resid = np.full((len(dates), 16), 3.25)
    table = rs.monthly_moments(resid, dates)
    np.testing.assert_allclose(table.values[:, 0], 3.25)
    np.testing.assert_allclose(table.values[:, 1:], 0.0)
    assert table.degenerate == table.months


def test_monthly_moments_shape_and_low_sample():
    dates = month_days(24)
    rng = np.random.default_rng(1)
    table = rs.monthly_moments(rng.standard_normal((len(dates), 16)), dates)
    assert table.values.shape == (24, 4)
    # a one-day month pools 16 values >= 8: shrink to a 16-col single row
    tiny = rs.monthly_moments(rng.standard_normal((1, 4)), [dt.date(2009, 1, 5)])
    assert tiny.low_sample == ["2009-01"]


def test_monthly_windows_pad_and_truncate():
    dates = month_days(3)
    rng = np.random.default_rng(2)
    resid = rng.standard_normal((len(dates), 16))
    wins = rs.monthly_windows(resid, dates)
    assert wins.images.shape == (3, 21, 16)
    # trading-day months vary in length; both flags exercised over a year
    year = month_days(12)
    wins_year = rs.monthly_windows(rng.standard_normal((len(year), 16)), year)
    assert wins_year.padded_months or wins_year.truncated_months
    with pytest.raises(ValueError, match="align"):
        rs.monthly_windows(resid[:-1], dates)


def _index_for(months, values):
    return rs.IndexSeries("test", list(months), np.asarray(values, dtype=float))


def test_shallow_backcast_recovers_variance_coupling():
    rng = np.random.default_rng(3)
    n_months = 24
    dates = month_days(n_months)
    z = rng.standard_normal(n_months)
    sigma = 1.0 + 0.45 * (z - z.min()) / (z.max() - z.min() + 1e-9)
    _, slices = month_blocks(n_months)
    resid = np.vstack([rng.standard_normal((sl.stop - sl.start, 16)) * sigma[m]
                       for m, sl in enumerate(slices)])
    moments = rs.monthly_moments(resid, dates)
    index = _index_for(moments.months, z)
    report = rs.shallow_backcast(moments, [index], seed=1)
    assert report.protocol == "shallow"
    assert report.for_index("test").mean_correlation > 0.8


def test_shallow_backcast_near_normal_residuals_uninformative():
    rng = np.random.default_rng(4)
    n_months = 24
    dates = month_days(n_months)
    resid = rng.standard_normal((len(dates), 16))
    moments = rs.monthly_moments(resid, dates)
    index = _index_for(moments.months, rng.standard_normal(n_months))
    report = rs.shallow_backcast(moments, [index], seed=1)
    r = report.for_index("test").mean_correlation
    assert abs(r) < corr_significance_threshold(n_months)


def test_shallow_backcast_constant_index_flagged():
    rng = np.random.default_rng(5)
    dates = month_days(12)
    moments = rs.monthly_moments(rng.standard_normal((len(dates), 16)), dates)
    index = _index_for(moments.months, np.ones(12))
    report = rs.shallow_backcast(moments, [index], seed=1)
    res = report.for_index("test")
    assert res.undefined and res.mean_correlation == 0.0


def _planted_daily(seed, n_months, strength=1.0, noise=0.05):
    rng = np.random.default_rng(seed)
    dates, slices = month_blocks(n_months)
    z = rng.standard_normal(n_months)
    pattern = rng.standard_normal(16)
    rows = np.vstack([
        strength * z[m] * pattern
        + noise * rng.standard_normal((sl.stop - sl.start, 16))
        for m, sl in enumerate(slices)])
    return dates, rows, z


def test_deep_backcast_self_consistency_on_planted_data():
    dates, rows, z = _planted_daily(6, 24)
    months = sorted({f"{d.year:04d}-{d.month:02d}" for d in dates})
    index = _index_for(months, z)
    report = rs.deep_backcast(rows, dates, rows, dates, [index],
                              seed=2, rounds=150, learning_rate=0.05)
    res = report.for_index("test")
    # same trader on both sides: the out-of-sample path must agree with
    # the in-sample check (the absolute level reflects net capacity)
    assert res.mean_correlation > 0.5
    assert abs(res.mean_correlation - res.insample_correlation) < 0.05


def test_deep_backcast_uncoupled_index_mostly_insignificant():
    dates, rows, _ = _planted_daily(7, 24)
    months = sorted({f"{d.year:04d}-{d.month:02d}" for d in dates})
    threshold = corr_significance_threshold(24)
    rng = np.random.default_rng(8)
    wins = 0
    for seed in range(5):
        index = _index_for(months, rng.standard_normal(24))
        report = rs.deep_backcast(rows, dates, rows, dates, [index],
                                  seed=seed, rounds=60, learning_rate=0.05)
        wins += abs(report.for_index("test").mean_correlation) < threshold
    assert wins >= 3


def test_deep_backcast_month_mismatch():
    dates, rows, z = _planted_daily(9, 12)
    other_dates, other_rows, _ = _planted_daily(10, 11)
    months = sorted({f"{d.year:04d}-{d.month:02d}" for d in dates})
    index = _index_for(months, z)
    with pytest.raises(ValueError, match="months"):
        rs.deep_backcast(rows, dates, other_rows, other_dates, [index], seed=0)


def _planted_windows(seed, n_months, trader, coupling=1.0, noise=0.3):
    rng = np.random.default_rng(seed)
    dates, slices = month_blocks(n_months)
    z = rng.standard_normal(n_months)
    pattern = rng.standard_normal((23, 16))
    rows = np.vstack([
        coupling * z[m] * pattern[:sl.stop - sl.start]
        + noise * rng.standard_normal((sl.stop - sl.start, 16))
        for m, sl in enumerate(slices)])
    wins = rs.monthly_windows(rows, dates, trader_id=trader)
    return wins, z


def test_cnn_backcast_recovers_planted_coupling():
    wins_a, z = _planted_windows(11, 20, "a")
    wins_b, _ = _planted_windows(12, 20, "b")
    wins_b.images = wins_b.images * 0.0 + wins_a.images  # same market signal
    rng = np.random.default_rng(13)
    wins_b.images = wins_b.images + 0.3 * rng.standard_normal(wins_b.images.shape)
    index = _index_for(wins_a.months, z)
    report = rs.cnn_backcast(wins_a, wins_b, [index], seeds=(1, 2, 3), rounds=80,
                             learning_rate=0.05)
    res = report.for_index("test")
    assert res.mean_correlation > 0.8
    assert len(res.run_correlations) == 3


def test_cnn_backcast_zero_coupling_insignificant():
    wins_a, z = _planted_windows(14, 20, "a")
    wins_b, _ = _planted_windows(15, 20, "b")
    rng = np.random.default_rng(16)
    index = _index_for(wins_a.months, rng.standard_normal(20))
    report = rs.cnn_backcast(wins_a, wins_b, [index], seeds=(1, 2, 3, 4, 5, 6), rounds=80,
                             learning_rate=0.05)
    res = report.for_index("test")
    assert abs(res.mean_correlation) < 0.3


def test_cnn_backcast_deterministic_per_seed():
    wins_a, z = _planted_windows(17, 12, "a")
    wins_b, _ = _planted_windows(18, 12, "b")
    index = _index_for(wins_a.months, z)
    r1 = rs.cnn_backcast(wins_a, wins_b, [index], seeds=(1, 2), rounds=30)
    r2 = rs.cnn_backcast(wins_a, wins_b, [index], seeds=(1, 2), rounds=30)
    assert r1.to_dict() == r2.to_dict()


def _reference_nets(nets, inputs, targets, rounds, learning_rate):
    """`train_many` by the plain loop of `oracles`, on the crop of each
    image that the output reads."""
    trained = []
    for net, (weights, curve) in zip(nets, reference_train_many(nets, inputs, targets,
                                                                rounds, learning_rate)):
        params = [None if p is None else p.copy() for p in net.params]
        trained.append(rs.neural_kit.TrainedNet(net.spec, net.ops, params,
                                                net.loss_curve + curve))
        for view, arr in zip(weight_arrays(trained[-1]), weights, strict=True):
            view[...] = arr  # each (W, b) pair into the net's [W; b]
    return trained


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_cnn_backcast_equals_the_plain_loop_on_the_read_crop(monkeypatch, activation):
    wins_a, z = _planted_windows(19, 12, "a")
    wins_b, _ = _planted_windows(20, 12, "b")
    indexes = [_index_for(wins_a.months, z)] + _three_indexes(wins_a.months, 21)[:1]

    def run():
        return rs.cnn_backcast(wins_a, wins_b, indexes, activation=activation,
                               seeds=(1, 2), rounds=10).to_dict()

    got = run()
    monkeypatch.setattr(rs.neural_kit, "train_many", _reference_nets)
    assert got == run()


@pytest.mark.parametrize("seeds, message", [
    ((), "seeds must not be empty"),
    # two runs of one net would report a dispersion of 0
    ((3, 3), r"seeds \[3, 3\] repeat a seed"),
], ids=["empty", "repeated"])
def test_cnn_backcast_refuses_bad_seeds_before_training(monkeypatch, seeds, message):
    wins_a, z = _planted_windows(17, 6, "a")
    wins_b, _ = _planted_windows(18, 6, "b")

    def no_training(*args, **kwargs):
        raise AssertionError("trained a net")

    monkeypatch.setattr(rs.neural_kit, "train_many", no_training)
    with pytest.raises(ValueError, match=message):
        rs.cnn_backcast(wins_a, wins_b, [_index_for(wins_a.months, z)], seeds=seeds)


def _three_indexes(months, seed):
    rng = np.random.default_rng(seed)
    return [rs.IndexSeries(name, list(months), rng.standard_normal(len(months)))
            for name in ("a", "b", "c")]


def _lambda_costs(seed):
    """A cost series of random lambdas over the 480 days an event study reads."""
    dates = trading_days(dt.date(2009, 1, 5), 480)
    lam = np.abs(np.random.default_rng(seed).standard_normal((480, 16)))
    flags = np.zeros(lam.shape, dtype=bool)
    return ll.CostSeries(dates, lam.copy(), lam, lam.mean(axis=1), flags, flags)


def _every_protocol():
    """Each protocol's report on three indexes of planted data, and an
    event study's on random lambdas, as dicts."""
    dates, rows, _ = _planted_daily(23, 12)
    other_dates, other_rows, _ = _planted_daily(24, 12)
    moments = rs.monthly_moments(rows, dates)
    indexes = _three_indexes(moments.months, 25)
    wins_a, _ = _planted_windows(26, 12, "a")
    wins_b, _ = _planted_windows(27, 12, "b")
    cnn_indexes = _three_indexes(wins_a.months, 28)
    cost = _lambda_costs(29)
    lambda_months, _ = month_index(cost.dates)
    reports = {
        "shallow": rs.shallow_backcast(moments, indexes, seed=2),
        "deep10": rs.deep_backcast(rows, dates, other_rows, other_dates, indexes,
                                   seed=3, rounds=20),
        **{f"cnn7-{act}": rs.cnn_backcast(wins_a, wins_b, cnn_indexes, activation=act,
                                          seeds=(4, 5, 6), rounds=8)
           for act in ("relu", "tanh")},
    }
    return {name: report.to_dict() for name, report in reports.items()} | {
        # three stacks at a budget of 1 byte, one at the default
        "eventstudy": ll.event_study(cost, _three_indexes(lambda_months, 30)[0],
                                     ll.EventStudyConfig(n_permutations=50, rounds=8),
                                     seeds=(1, 2, 3)),
    }


@pytest.mark.parametrize("budget", [1, 1 << 62], ids=["one_net_per_stack", "unlimited"])
def test_stack_size_never_changes_a_report(monkeypatch, budget):
    default = _every_protocol()
    monkeypatch.setattr(rs.neural_kit, "STACK_BYTES", budget)
    assert _every_protocol() == default


def _result_of_runs(name, correlations):
    """`_index_result` of one standardized run per entry of
    `correlations`, planted to correlate with the index by that much."""
    index = np.array([1.0, 1.0, -1.0, -1.0])  # zero mean, unit spread
    other = np.array([1.0, -1.0, 1.0, -1.0])  # orthogonal to it, as long
    runs = [r * index + np.sqrt(1.0 - r * r) * other for r in correlations]
    series = rs.IndexSeries(name, ["2009-01", "2009-02", "2009-03", "2009-04"], index)
    return rs._index_result(series, index, (index, 0.0, 1.0), runs)


def test_dispersion_matches_t_table():
    values = [0.9756, 0.9527, 0.9545, 0.9684, 0.9727, 0.9697]
    got = _result_of_runs("x", values).dispersion
    arr = np.asarray(values)
    expected = T_CRIT_10PCT[5] * arr.std(ddof=1) / np.sqrt(6)
    assert got == pytest.approx(expected, abs=1e-9)


def test_role_separation_guard():
    wins_a, _ = _planted_windows(19, 6, "a")
    wins_b, _ = _planted_windows(20, 6, "a")
    with pytest.raises(ValueError, match="same trader"):
        rs.assert_role_separation(wins_a, wins_b)
    wins_b.trader_id = "b"
    rs.assert_role_separation(wins_a, wins_b)


def test_cnn_backcast_rejects_same_trader_windows():
    wins_a, z = _planted_windows(21, 6, "a")
    wins_b, _ = _planted_windows(22, 6, "a")
    with pytest.raises(ValueError, match="same trader"):
        rs.cnn_backcast(wins_a, wins_b, [_index_for(wins_a.months, z)], seeds=(1,), rounds=1)


def test_index_csv_round_trip():
    idx = _index_for(["2009-01", "2009-02", "2009-03"], [0.5, -1.25, 3.0])
    buf = io.StringIO()
    write_index_csv(idx, buf)
    buf.seek(0)
    back = read_index_csv(buf, "test")
    assert back.months == idx.months
    np.testing.assert_array_equal(back.values, idx.values)


@pytest.mark.parametrize("value", ["1_0.5", "\u0663"])
def test_index_csv_refuses_a_number_that_is_not_ascii_digits(value):
    with pytest.raises(ValueError, match="malformed number"):
        read_index_csv(io.StringIO(f"month,value\n2009-01,{value}\n"))


def test_report_csv_layout():
    report = rs.BackcastReport(protocol="cnn7")
    report.results.append(_result_of_runs("sentiment", [0.9, 0.8]))
    report.results.append(_result_of_runs("bond", [0.1, -0.2]))
    buf = io.StringIO()
    rs.write_report_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "row,sentiment,bond"
    assert lines[1].startswith("run1,") and lines[3].startswith("mean,")
    assert lines[4].startswith("student10,")


def test_monthly_windows_of_a_fit_output(coupled_outputs):
    _, out = coupled_outputs[0]
    wins = rs.monthly_windows(out.residuals, out.dates, "t0")
    assert wins.images.shape[1:] == (21, 16)
    assert len(wins.months) == len(set(wins.months))

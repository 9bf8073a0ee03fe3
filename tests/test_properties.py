"""Property tests over generated inputs: the serialize/parse and record
round trips, the byte-level tape reader against the string splitter,
the bucket panels' volume conservation, the whole-array
state space and trading cost against their per-day loops, state entries
in [-1, 1], the dual regression's reconstruction, P+F=1 and symmetry
invariants, the CLI contract on arbitrary files and flag values, and
average ranks, the normal tail and the Student-t quantile against
scipy's."""

import contextlib
import datetime as dt
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import special, stats

from dualspace import (bucket_panel, cli, corrstats, dual_regression, liquidity_lab,
                       state_space, tape_io)
from dualspace.state_space import StateMatrix, VolumeMode, state_matrix

from oracles import (assert_same_parse, loop_cost_series, loop_reference_prices,
                     loop_state_values, reference_parse_tape, symmetry_projector, tape_of)

DAY0 = dt.date(2009, 1, 5)


def trades(shares=st.integers(1, 10**9)):
    return st.tuples(st.integers(0, 4),            # day
                     st.integers(1, 5_000),        # price in cents: 0.01 to 50 CNY
                     st.sampled_from([-1, 0, 1]),  # side code
                     shares)


@st.composite
def tapes(draw, min_days=1, shares=st.integers(1, 10**9)):
    rows = draw(st.lists(trades(shares), min_size=1, max_size=300))
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


# tokens of every kind: well-formed, malformed, non-finite, signed, long
# (over one and over two key words), padded, non-ASCII, holding a character
# at which `str.splitlines` (but no reader) ends a line, and a lone surrogate
TAPE_TOKENS = ("2009-01-05", "2009-01-06", "2009-02-27", " 2009-01-07 ", "2009-13-01",
               "20090108", "2009-01-5", "\u0662009-01-05", "10.05", "9.9", "nan", "inf",
               "-inf", "-0", "+3.5", "-1.5", "0", "1e3", "12..34", "123456789.25",
               "10.050000000000001", "\uff11\uff10.5", "425", " 7 ", "+12", "-40",
               "12.5", "99999999999999999999", "\u0663", "B", "S", " b", "s ", "X",
               "\u0411", "", "Trddt", "CNY", "B\x1c", "\x85S", "12.5\u2028", "7\x0b",
               "\x0c", "2009-01-05\x1e", "\u2029", "\x1d", "\ud800")
BLANKS = ("", " ", "\t", " \t ", "\u3000", "\xa0\u2003", "\x1c")


@st.composite
def tape_texts(draw, newlines=("\n", "\r\n", "\r")):
    """Tape text in any of the shapes a reader meets, its lines ended
    by one of `newlines`."""
    delimiter = draw(st.sampled_from(tape_io.DELIMITERS))
    token = st.one_of(st.sampled_from(TAPE_TOKENS), st.text(max_size=9))
    rows = st.one_of(
        st.tuples(st.sampled_from(TAPE_TOKENS[:8]), *[st.sampled_from(TAPE_TOKENS)] * 3),
        st.lists(token, max_size=6))  # short rows, extra fields
    line = st.one_of(rows.map(delimiter.join), st.sampled_from(BLANKS))
    header = st.lists(st.sampled_from(["Trddt", "Stkprc", "Parcha", "Trdtims", "date"]),
                      min_size=1, max_size=4).map(delimiter.join)
    lines = draw(st.lists(header, max_size=3)) + draw(st.lists(line, max_size=30))
    newline = draw(st.sampled_from(newlines))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=150, deadline=None)
@given(tape_texts(), st.sampled_from([1, 3, 1 << 15]))
def test_byte_reader_matches_the_string_splitter(text, chunk_lines):
    with mock.patch.object(tape_io, "_CHUNK_LINES", chunk_lines):
        assert_same_parse(tape_io.parse_tape(text), reference_parse_tape(text))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "tape.csv")
            with open(path, "wb") as handle:  # a lone surrogate makes the file not UTF-8
                handle.write(text.encode("utf-8", "surrogatepass"))
            try:
                with open(path, encoding="utf-8") as handle:  # universal newlines
                    want = reference_parse_tape(handle)
            except UnicodeDecodeError:
                with pytest.raises(UnicodeDecodeError):
                    tape_io.read_tape(path)
            else:
                assert_same_parse(tape_io.read_tape(path), want)


@settings(max_examples=150, deadline=None)
@given(tape_texts(newlines=("\n",)))
def test_a_string_parses_as_its_utf8_bytes(text):
    # bytes end a line at "\n" alone, and must be UTF-8
    text = text.replace("\r", "").replace("\ud800", "")
    assert_same_parse(tape_io.parse_tape(text), tape_io.parse_tape(text.encode("utf-8")))


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
@given(tapes())
def test_tape_record_round_trip(tape):
    assert tape_of(list(tape)) == tape


@settings(max_examples=30, deadline=None)
@given(tapes(min_days=2), st.booleans())
def test_state_entries_are_correlations(tape, geometric):
    series = bucket_panel.build_panels(
        tape, bucket_panel.BucketConfig(geometric_imbalance=geometric))
    for mode in VolumeMode:
        values = state_matrix(series, mode).values
        assert values.shape == (len(series) - 1, series.config.n_buckets)
        assert np.isfinite(values).all() and np.abs(values).max() <= 1.0


@settings(max_examples=60, deadline=None)
@given(tapes(min_days=2, shares=st.one_of(st.just(0), st.integers(1, 10**9))),
       st.booleans(), st.integers(1, 4))
def test_whole_array_passes_match_the_per_day_loop(tape, geometric, pairs_per_pass):
    """Zero shares make zero-volume days; scattered prices leave buckets
    empty; a small pass size splits even short tapes into several passes."""
    series = bucket_panel.build_panels(
        tape, bucket_panel.BucketConfig(geometric_imbalance=geometric))
    np.testing.assert_allclose(series.ref_price, loop_reference_prices(tape), rtol=0, atol=0)
    with mock.patch.object(state_space, "_PAIRS_PER_PASS", pairs_per_pass):
        for mode in VolumeMode:
            np.testing.assert_allclose(state_matrix(series, mode).values,
                                       loop_state_values(series, mode), rtol=0, atol=0)
    cost = liquidity_lab.cost_series(series)
    pi, lam, no_quote, illiquid = loop_cost_series(series)
    np.testing.assert_allclose(cost.pi, pi, rtol=0, atol=0)
    np.testing.assert_allclose(cost.lam, lam, rtol=0, atol=0)
    np.testing.assert_allclose(cost.lambda_avg, lam.mean(axis=1), rtol=0, atol=0)
    for mask, flags in ((cost.no_quote, no_quote), (cost.illiquid, illiquid)):
        assert mask.shape == cost.lam.shape
        assert [(cost.dates[t], k) for t, k in np.argwhere(mask).tolist()] == flags


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


# ── CLI contract ───────────────────────────────────────────────────────

_TOKENS = ["", "date", "mode", "b0", "b1", "bucket", "value", "2009-01-05", "2009-01-06",
           "2009-02-02", "imbalance", "buy", "B", "S", "0", "0.5", "-1", "10.05", "425",
           "1e308", "nan", "inf", "x", "#"]
_csv_text = st.lists(st.lists(st.sampled_from(_TOKENS), max_size=5).map(",".join),
                     max_size=8).map("\n".join)
_json_text = st.dictionaries(
    st.sampled_from(["predictor_share", "other"]),
    st.one_of(st.lists(st.one_of(st.floats(), st.integers(), st.booleans(), st.none(),
                                 st.text(max_size=2)), max_size=4),
              st.floats(), st.none()),
    max_size=2).map(json.dumps)
_file_bytes = st.one_of(_csv_text.map(str.encode), _json_text.map(str.encode),
                        st.binary(max_size=60))


@st.composite
def cli_calls(draw):
    """(argv with {file} and {out} placeholders, file contents or None)."""
    command = draw(st.sampled_from(["fit", "emit-plotdata", "ingest", "summarize",
                                    "synth", "pdo-demo"]))
    if command == "synth":
        days = draw(st.integers(-2, 30))
        traders = draw(st.integers(-1, 2))
        per_day = draw(st.sampled_from(["-3", "0", "0.5", "20", "50", "nan"]))
        return (["synth", "--days", str(days), "--traders", str(traders),
                 "--trades-per-day", per_day, "--seed", str(draw(st.integers(-1, 3)))], None)
    if command == "pdo-demo":
        points = draw(st.integers(-1, 64))
        time = draw(st.sampled_from(["-1", "0", "0.5", "nan", "inf"]))
        sigma0 = draw(st.sampled_from(["-0.5", "0", "0.5"]))
        return (["pdo-demo", "--points", str(points), "--time", time,
                 "--sigma0", sigma0], None)
    contents = draw(_file_bytes)
    if command == "fit":
        return ["fit", "--states", "{file}"], contents
    if command == "emit-plotdata":
        kind = draw(st.sampled_from(["heatmap", "series", "bars"]))
        return ["emit-plotdata", "--artifact", "{file}", "--kind", kind,
                "--out", "{out}/plot.csv"], contents
    return [command, "--tape", "{file}"], contents


def _strict_json(text):
    def no_constant(name):
        raise ValueError(f"non-finite {name} in the summary line")
    return json.loads(text, parse_constant=no_constant)


@settings(max_examples=120, deadline=None)
@given(cli_calls())
def test_cli_contract_on_arbitrary_input(call):
    argv, contents = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        if contents is not None:
            with open(path, "wb") as handle:
                handle.write(contents)
        argv = [arg.format(file=path, out=tmp) for arg in argv] + ["--out-dir", tmp]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1, lines
        _strict_json(lines[0])
    elif code in (1, 2):
        assert err.getvalue().startswith(("usage error:", "data error:")), err.getvalue()


@st.composite
def rank_inputs(draw):
    """(array, axis): 1-D or 2-D, small-integer draws for heavy ties or any finite floats."""
    values = draw(st.sampled_from([st.integers(0, 3).map(float),
                                   st.floats(allow_nan=False, allow_infinity=False)]))
    a = draw(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=12),
                    elements=values))
    return a, draw(st.integers(-a.ndim, a.ndim - 1))


@settings(max_examples=200, deadline=None)
@given(rank_inputs())
@example((np.array([2.5]), -1))
@example((np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]), 0))
def test_rankdata_matches_scipy(case):
    a, axis = case
    assert np.array_equal(corrstats.rankdata(a, axis=axis), stats.rankdata(a, axis=axis))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rankdata_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        corrstats.rankdata(np.array([[1.0, bad], [0.0, 2.0]]), axis=0)


#: relative tolerance of corrstats' closed-form normal tail and Student-t
#: quantile against scipy's; on the grids below they agree to about 2e-14
SCIPY_RTOL = 1e-12


@pytest.mark.parametrize("q", [0.9, 0.95, 0.975])
def test_t_quantile_matches_scipy(q):
    dfs = np.arange(1, 400)
    got = [corrstats._t_quantile(int(df), q) for df in dfs]
    np.testing.assert_allclose(got, special.stdtrit(dfs, q), rtol=SCIPY_RTOL, atol=0)


def test_fisher_z_pvalue_matches_scipy():
    n = 103
    se = math.sqrt(2.0 / (n - 3))
    r = np.tanh(np.linspace(0.0, 8.0, 801) * se)  # z from 0 to 8
    z = np.arctanh(r) / se
    got = [corrstats.fisher_z_pvalue(r1, n, 0.0, n) for r1 in r]
    np.testing.assert_allclose(got, 2.0 * special.ndtr(-z), rtol=SCIPY_RTOL, atol=0)
    p = corrstats.fisher_z_pvalue
    assert p(-0.5, n, 0.5, n) == p(0.5, n, -0.5, n)  # two-sided

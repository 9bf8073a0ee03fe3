import datetime as dt
import io
import tracemalloc
import math
import random

import numpy as np
import pytest

from dualspace import synth_market, tape_io
from dualspace.tape_io import Side, Tape, TapeRecord

from oracles import assert_same_parse, reference_parse_tape, streaming_summary, tape_of

FIG1_STYLE = """Trddt,Stkprc,Parcha,Trdtims
Trading Da,Trading I,Nature O,Number Of
,CNY,,Deal
2009-08-06,10.05,S,425
2009-08-06,10.2,S,81
2009-08-06,10.17,S,321
2009-08-06,10.01,B,451
2009-08-07,9.9,B,708
2009-08-07,9.83,S,131
"""


def test_parse_header_and_rows():
    result = tape_io.parse_tape(FIG1_STYLE)
    assert result.n_header_rows == 3
    assert result.n_data_rows == 6
    assert not result.errors
    assert result.records[0] == TapeRecord(dt.date(2009, 8, 6), 10.05, Side.SELL, 425)
    assert result.records[-1] == TapeRecord(dt.date(2009, 8, 7), 9.83, Side.SELL, 131)


def test_parse_empty_stream():
    assert len(tape_io.parse_tape("").records) == 0
    assert tape_io.parse_tape("").n_data_rows == 0


def test_missing_side_flag_becomes_unknown():
    result = tape_io.parse_tape("2009-08-07,9.90,,708")
    assert result.records == tape_of([TapeRecord(dt.date(2009, 8, 7), 9.90, Side.UNKNOWN, 708)])


@pytest.mark.parametrize("delim", ["\t", ";"])
def test_delimiter_autodetect(delim):
    text = "\n".join(delim.join(row) for row in
                     [("Trddt", "Stkprc", "Parcha", "Trdtims"),
                      ("2009-08-06", "10.05", "S", "425"),
                      ("2009-08-07", "9.9", "B", "708")])
    result = tape_io.parse_tape(text)
    assert len(result.records) == 2
    assert not result.errors


def test_error_rows_reported_with_line_numbers():
    text = ("Trddt,Stkprc,Parcha,Trdtims\n"
            "2009-08-06,10.05,S,425\n"
            "2009-13-01,10.0,B,10\n"     # bad date after data started
            "2009-08-07,-1.0,B,10\n"     # nonpositive price
            "2009-08-07,abc,B,10\n"      # malformed price
            "2009-08-07,9.9,B,0\n"       # nonpositive volume
            "2009-08-07,9.9,B\n")        # short row
    result = tape_io.parse_tape(text)
    assert len(result.records) == 1
    reasons = {err.line_no: err.reason for err in result.errors}
    assert reasons == {3: "malformed date", 4: "nonpositive price",
                       5: "malformed price", 6: "nonpositive volume",
                       7: "short row"}
    # no record loss
    assert len(result.records) + len(result.errors) == result.n_data_rows


def _random_records(rng, n):
    day0 = dt.date(2009, 1, 5)
    records = []
    for _ in range(n):
        records.append(TapeRecord(
            date=day0 + dt.timedelta(days=rng.randrange(0, 200)),
            price=round(rng.uniform(2.0, 60.0), 2),
            side=rng.choice([Side.BUY, Side.SELL, Side.UNKNOWN]),
            volume=rng.randrange(1, 5000)))
    records.sort(key=lambda r: r.date)
    return records


def test_serialize_parse_round_trip():
    rng = random.Random(7)
    for trial in range(5):
        tape = tape_of(_random_records(rng, 200))
        result = tape_io.parse_tape(tape_io.serialize(tape))
        assert result.records == tape
        assert not result.errors


def test_summarize_permutation_invariant():
    rng = random.Random(9)
    records = _random_records(rng, 300)
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert tape_io.summarize(tape_of(records)) == tape_io.summarize(tape_of(shuffled))


def test_summarize_single_record_degenerate():
    rec = TapeRecord(dt.date(2009, 1, 5), 10.0, Side.BUY, 100)
    s = tape_io.summarize(tape_of([rec]))
    assert (s.trade_count, s.min_price, s.avg_price, s.max_price) == (1, 10.0, 10.0, 10.0)
    assert s.std_price == 0.0
    assert s.avg_daily_volume == 100.0
    assert s.sample_volume_variance == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError, match="no records"):
        tape_io.summarize(tape_of([]))


def test_summarize_side_subset():
    day = dt.date(2009, 1, 5)
    records = tape_of([TapeRecord(day, 10.0, Side.BUY, 100),
                       TapeRecord(day, 20.0, Side.SELL, 300)])
    buys = tape_io.summarize(records, side=Side.BUY)
    assert buys.trade_count == 1 and buys.avg_price == 10.0
    full = tape_io.summarize(records)
    assert full.trade_count == 2 and full.avg_price == 15.0


def test_summarize_matches_streaming_oracle():
    rng = random.Random(13)
    records = _random_records(rng, 1000)
    s = tape_io.summarize(tape_of(records))
    n, lo, mean_p, hi, std_p, var_v, total = streaming_summary(
        [r.price for r in records], [r.volume for r in records])
    assert s.trade_count == n
    assert s.min_price == lo and s.max_price == hi
    assert abs(s.avg_price - mean_p) < 1e-12
    assert abs(s.std_price - std_p) < 1e-9
    assert abs(s.sample_volume_variance - var_v) < 1e-6
    n_days = len({r.date for r in records})
    assert abs(s.avg_daily_volume - total / n_days) < 1e-9


def test_table_shape_reference_summary_is_representable():
    # Golden format check only; the underlying tape is not available.
    ref = tape_io.TapeSummary(
        trade_count=32041, min_price=2.34, avg_price=8.77, max_price=63.0,
        std_price=6.17, avg_daily_volume=11046.0, sample_volume_variance=37535.0,
        unknown_side_fraction=0.0)
    assert ref.min_price <= ref.avg_price <= ref.max_price
    assert ref.std_price >= 0
    assert 0.0 <= ref.unknown_side_fraction <= 1.0


def _records_with_unknowns(n, n_unknown):
    day = dt.date(2009, 1, 5)
    return tape_of([TapeRecord(day, 10.0, Side.UNKNOWN, 10)] * n_unknown
                   + [TapeRecord(day, 10.0, Side.BUY, 10)] * (n - n_unknown))


def test_validate_unknown_fraction_flag():
    ok = tape_io.validate(_records_with_unknowns(100, 5))
    assert ok.unknown_side_fraction == 0.05 and not ok.unknown_side_flag
    bad = tape_io.validate(_records_with_unknowns(100, 12))
    assert bad.unknown_side_fraction == 0.12 and bad.unknown_side_flag
    edge = tape_io.validate(_records_with_unknowns(100, 10))
    assert not edge.unknown_side_flag  # flag raises strictly above 0.10


def test_validate_counts_rejections():
    errors = [tape_io.RowError(3, "malformed date", "x"),
              tape_io.RowError(5, "malformed date", "y"),
              tape_io.RowError(9, "nonpositive price", "z")]
    report = tape_io.validate(_records_with_unknowns(10, 0), errors)
    assert report.rejected_by_reason == {"malformed date": 2, "nonpositive price": 1}
    assert report.n_rejected == 3
    clean = tape_io.validate(_records_with_unknowns(10, 0))
    assert clean.rejected_by_reason == {} and clean.n_rejected == 0


@pytest.mark.parametrize("delim", [",", "\t"])
def test_non_finite_prices_have_their_own_reason(delim):
    rows = [("2009-08-06", "10.05", "S", "425"),
            ("2009-08-06", "nan", "B", "10"),
            ("2009-08-06", "inf", "S", "10"),
            ("2009-08-07", "-inf", "B", "10"),
            ("2009-08-07", "-1.5", "B", "10"),
            ("2009-08-07", "NaN", "S", "10", "extra")]  # odd field count: per-line path
    text = "\n".join(delim.join(row) for row in rows)
    result = tape_io.parse_tape(text)
    reasons = {err.line_no: err.reason for err in result.errors}
    assert reasons == {2: "non-finite price", 3: "non-finite price", 4: "non-finite price",
                       5: "nonpositive price", 6: "non-finite price"}
    assert [err.raw for err in result.errors] == [delim.join(row) for row in rows[1:]]
    assert len(result.records) == 1


def test_volume_beyond_int64_is_rejected():
    result = tape_io.parse_tape("2009-08-06,10.05,S,425\n2009-08-06,10.05,S,99999999999999999999\n")
    assert [(err.line_no, err.reason) for err in result.errors] == [(2, "volume out of range")]


def test_fast_and_per_line_rows_merge_in_date_then_line_order():
    text = ("2009-08-07,9.9,B,1\n"
            "2009-08-06,10.0,S,2,extra\n"   # another field count
            "2009-08-06,10.1,,3\n"
            "2009-08-07,9.8,S,4,extra\n")
    result = tape_io.parse_tape(text)
    # lines 2, 3, 1, 4: by date, then by line within a day
    assert [rec.volume for rec in result.records] == [2, 3, 1, 4]


def test_tape_is_a_sequence_of_records():
    rng = random.Random(3)
    records = _random_records(rng, 50)
    tape = tape_of(records)
    assert len(tape) == 50
    assert tape[0] == records[0] and tape[-1] == records[-1]
    assert list(tape) == records
    assert tape_of(list(tape)) == tape
    assert tape != records  # a record list is not a tape
    assert isinstance(tape[10:20], Tape) and list(tape[10:20]) == records[10:20]
    assert list(tape[tape.side == 1]) == [rec for rec in records if rec.side is Side.BUY]
    assert tape != tape_of(records[:-1])
    assert tape != tape_of(records[::-1])
    assert len(tape_of([])) == 0
    with pytest.raises(IndexError):
        tape[50]


def test_tape_rejects_inconsistent_columns():
    day = dt.date(2009, 1, 5)
    with pytest.raises(ValueError, match="strictly increasing"):
        Tape([day, day], [0], [1.0], [1], [1])
    with pytest.raises(ValueError, match="equal length"):
        Tape([day], [0, 0], [1.0], [1], [1])
    with pytest.raises(ValueError, match="date table"):
        Tape([day], [1], [1.0], [1], [1])


def test_write_table_csv_cell_rule():
    buf = io.StringIO()
    tape_io.write_table_csv(buf, ["a", "b", "c", "d", "e", "f"],
                            [[np.float64(1908.0), np.int64(7), "2009-01-05", "", "NA", 0.1],
                             [np.float32(0.5), 3, "x", "", "NA", -0.0]])
    assert buf.getvalue() == ("a,b,c,d,e,f\n"
                              "1908.0,7,2009-01-05,,NA,0.1\n"
                              "0.5,3,x,,NA,-0.0\n")
    buf.seek(0)
    header, rows = tape_io.read_table_csv(buf)
    assert header == ["a", "b", "c", "d", "e", "f"] and len(rows) == 2
    headless = io.StringIO()
    tape_io.write_table_csv(headless, None, [[1.5, np.float64(2.0)]])
    assert headless.getvalue() == "1.5,2.0\n"


def test_write_table_csv_cell_types():
    buf = io.StringIO()
    tape_io.write_table_csv(buf, None, [
        [1.5, np.float64(2.25), 3, np.int64(-4), True, False, "B"],
        [-0.0, np.float64(-0.0), math.nan, np.float64(math.nan), math.inf, -math.inf, 1e-300],
    ])
    assert buf.getvalue() == ("1.5,2.25,3,-4,1,0,B\n"
                              "-0.0,-0.0,nan,nan,inf,-inf,1e-300\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_read_tape_takes_any_line_end(tmp_path, newline):
    lines = FIG1_STYLE.splitlines() + ["", "2009-08-07,abc,B,10", "  ", "2009-08-08,9.9,S"]
    lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
    lf.write_bytes("\n".join(lines).encode())
    other.write_bytes((newline.join(lines) + newline).encode())
    want = tape_io.read_tape(lf)
    assert [err.line_no for err in want.errors] == [11, 13] and len(want.records) == 6
    assert_same_parse(tape_io.read_tape(other), want)


def test_read_tape_refuses_invalid_utf8(tmp_path):
    path = tmp_path / "bad.csv"
    data = FIG1_STYLE.encode() + b"2009-08-07,9.8,\xff,10\n"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as caught:
        tape_io.read_tape(path)
    with pytest.raises(UnicodeDecodeError) as text_read:
        data.decode("utf-8")
    assert str(caught.value) == str(text_read.value)  # the same byte, at the same position


def test_read_tape_matches_the_string_splitter(small_market, tmp_path):
    path = tmp_path / "t0.csv"
    path.write_text(small_market.tapes[0].text, encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        assert_same_parse(tape_io.read_tape(path), reference_parse_tape(handle))


def _traced_read(path):
    """read_tape(path) and its traced peak in bytes."""
    tracemalloc.start()
    try:
        result = tape_io.read_tape(path)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_tape_transient_memory_stays_small(coupled_market, tmp_path):
    """read_tape works through the body in chunks of _CHUNK_LINES lines
    and frees what it no longer needs: on an oracle tape (3.1 MB of text,
    4.7 MB of columns) it peaks near 12.6 MB, 15.3 MB if it kept the text
    to the end, about 24 MB if it kept every array, and above 40 MB in
    one pass over all lines."""
    path = tmp_path / "t0.csv"
    path.write_text(coupled_market.tapes[0].text, encoding="utf-8")
    result, peak = _traced_read(path)
    assert len(result.records) > 100_000
    assert peak < 14_500_000, peak


@pytest.fixture(scope="module")
def cli_size_tape(tmp_path_factory):
    """A tape of the criterion-12 pipeline's size (60 trades a day, 485
    days: about 2.9e4 rows, 0.6 MB)."""
    config = synth_market.MarketConfig(n_traders=2, n_days=485, trades_per_day_mean=60.0,
                                       seed=1)
    path = tmp_path_factory.mktemp("cli_size") / "t0.csv"
    path.write_text(synth_market.gen_market(config).tapes[0].text, encoding="utf-8")
    return path


def test_read_tape_memory_on_a_cli_size_tape(cli_size_tape, monkeypatch):
    """Two chunks peak near 4.3 MB and the body as one chunk near 6.7 MB,
    with the same result (8.6 MB both, when every array was kept)."""
    result, peak = _traced_read(cli_size_tape)
    assert tape_io._CHUNK_LINES < len(result.records) < 2 * tape_io._CHUNK_LINES
    assert peak < 6_000_000, peak
    monkeypatch.setattr(tape_io, "_CHUNK_LINES", 2 * tape_io._CHUNK_LINES)
    one_chunk, peak = _traced_read(cli_size_tape)
    assert peak < 7_500_000, peak
    assert_same_parse(one_chunk, result)


def test_a_string_splits_only_where_a_file_does():
    r"""`str.splitlines` also ends a line at "\x1c" and the like; a reader
    ends one at "\n", "\r\n" and a lone "\r" only."""
    text = "Trddt,Stkprc,Parcha,Trdtims\n2009-01-05,12.34,B\x1c,100\r\n2009-01-06,12.5,S,7\r"
    result = tape_io.parse_tape(text)
    assert len(result.records) == 2 and not result.errors
    assert result.records[0] == TapeRecord(dt.date(2009, 1, 5), 12.34, Side.BUY, 100)
    assert_same_parse(result, tape_io.parse_tape(text.replace("\r\n", "\n")
                                                 .replace("\r", "\n").encode()))

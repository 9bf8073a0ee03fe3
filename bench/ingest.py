"""`ingest` workload: oracle-density tapes through the tape layers.

Per pass and per tape: read_tape -> validate -> build_panels ->
state_matrix (imbalance) -> fit_beta + variance_split -> cost_series.
The tape's records are dropped before the next tape is read, as a
per-tape CLI run would drop them.  No net is trained.
"""

from __future__ import annotations

import gc
import json
import os
import sys

import numpy as np

import reference as ref
from common import (CheckFailed, Outcome, check, end_to_end, measure, run_passes,
                    self_peak_rss_mb)
from dualspace import bucket_panel, dual_regression, liquidity_lab, state_space, tape_io

#: Program calls per tape; a call that raises fails the rest of its chain.
STAGES = ("read_tape", "validate", "build_panels", "state_matrix", "fit_beta",
          "variance_split", "cost_series")
SIDE_INDEX = {tape_io.Side.BUY: 0, tape_io.Side.SELL: 1, tape_io.Side.UNKNOWN: 2}


def tape_paths(directory: str) -> list[str]:
    return sorted(os.path.join(directory, n) for n in os.listdir(directory)
                  if n.endswith((".csv", ".tsv")))


def check_parse(result, expect, planted: dict[int, str | None] | None) -> None:
    check(len(result.records) == int(expect["n_records"]),
          f"{len(result.records)} records, reference reads {int(expect['n_records'])}")
    check(result.n_data_rows == int(expect["n_data"]) and
          result.n_header_rows == int(expect["n_header"]),
          "data/header row counts differ from the reference reading")
    volume = [0, 0, 0]
    for rec in result.records:
        volume[SIDE_INDEX[rec.side]] += rec.volume
    check(volume == expect["side_volume"].tolist(),
          f"buy/sell/unknown volume {volume} != {expect['side_volume'].tolist()}")
    lines = sorted(err.line_no for err in result.errors)
    check(lines == expect["rejected_lines"].tolist(),
          "rejected lines differ from the reference reading")
    if planted is not None:
        check(lines == sorted(planted), "rejected lines differ from the planted lines")
        wrong = [e.line_no for e in result.errors
                 if planted[e.line_no] is not None and e.reason != planted[e.line_no]]
        check(not wrong, f"wrong rejection reason on lines {wrong[:5]}")


def check_panels(series, expect) -> None:
    panels = series.panels
    check([p.date.toordinal() for p in panels] == expect["days"].tolist(),
          "panel dates differ from the tape's trading days")
    fine, ref_fine = np.stack([np.stack([p.fine_buy, p.fine_sell]) for p in panels]), expect["fine"]
    check(np.array_equal(fine, ref_fine), "sub-cell volumes differ from the reference bucketing")
    sides = np.array([[p.buy_vol, p.sell_vol] for p in panels])
    check(np.array_equal(sides, ref_fine.sum(axis=3)),
          "bucket volumes differ from the reference bucketing")
    total = np.array([p.total_volume() for p in panels])
    check(np.array_equal(total, expect["day_volume"]), "daily volume is not conserved")
    check([p.discarded_trades for p in panels] == expect["discarded"].tolist(),
          "discarded trades differ from the reference bucketing")
    check(np.allclose([p.ref_price for p in panels], expect["refs"], rtol=1e-12, atol=0),
          "reference prices differ from the prior-day VWAP")


def check_states(states) -> None:
    v = states.values
    check(np.isfinite(v).all() and np.abs(v).max() <= 1.0,
          "state entries outside [-1, 1]")


def check_fit(states, fit, split) -> None:
    x = states.values
    check(np.allclose(fit.predictions, ref.lstsq_fit(x), rtol=0, atol=1e-9),
          "predictions differ from the least-squares fitted values")
    check(np.allclose(fit.predictions + fit.residuals, x[1:] - x[:-1], rtol=0, atol=1e-12),
          "predictions plus residuals differ from the state differences")
    live = np.ones(x.shape[1], bool)
    live[list(split.degenerate_buckets)] = False
    check(np.allclose(split.predictor[live] + split.residual[live], 1.0, rtol=0, atol=1e-9),
          "P + F != 1 on a live bucket")


def check_cost(series, cost) -> None:
    p = series.panels
    pi, lam = ref.cost_formula(*(np.array([getattr(q, k) for q in p])
                                 for k in ("buy_vol", "sell_vol", "buy_vwap", "sell_vwap")))
    check(np.allclose(cost.pi, pi, rtol=1e-12, atol=1e-9), "pi differs from its formula")
    check(np.allclose(cost.lam, lam, rtol=1e-12, atol=1e-12), "lambda differs from its formula")


def process_tape(path: str, expect, outcome: Outcome, planted, times: dict) -> None:
    """One tape through every stage.  Parsing (read_tape, validate) and
    analysis (the rest) are timed apart, with checks between them, and
    go to `times` as `<tape>:parse` and `<tape>:analyse`."""
    gc.collect()
    name = os.path.basename(path)
    done = 0

    def parse():
        nonlocal done
        result = tape_io.read_tape(path)
        done += 1
        tape_io.validate(result.records, result.errors)
        done += 1
        return result

    def analyse(holder: list):
        nonlocal done
        # the parse result's last reference goes once the panels are built
        series = bucket_panel.build_panels(holder.pop().records)
        done += 1
        states = state_space.state_matrix(series, state_space.VolumeMode.IMBALANCE)
        done += 1
        fit = dual_regression.fit_beta(states)
        done += 1
        split = dual_regression.variance_split(fit, states)
        done += 1
        cost = liquidity_lab.cost_series(series)
        done += 1
        return series, states, fit, split, cost

    try:
        result, wall, scaled = measure(parse)
        times[f"{name}:parse"] = (wall, scaled)
        try:
            check_parse(result, expect, planted)
        except CheckFailed as exc:
            outcome.fail_check(f"{name}: {exc}")
        holder = [result]
        del result
        (series, states, fit, split, cost), wall, scaled = measure(analyse, holder)
        times[f"{name}:analyse"] = (wall, scaled)
    except Exception as exc:  # an operation failed: count it and the rest of its chain
        outcome.failed += len(STAGES) - done
        print(f"{name}: {STAGES[done]} failed: {exc!r}", file=sys.stderr)
        return
    finally:
        outcome.attempted += len(STAGES)
    for checker, args in ((check_panels, (series, expect)), (check_states, (states,)),
                          (check_fit, (states, fit, split)), (check_cost, (series, cost))):
        try:
            checker(*args)
        except CheckFailed as exc:
            outcome.fail_check(f"{name}: {exc}")


def run(ctx) -> Outcome:
    outcome = Outcome()
    if ctx.tracer:
        ctx.tracer.install()
    paths = tape_paths(ctx.inputs)
    with open(os.path.join(ctx.inputs, "planted.json"), encoding="utf-8") as handle:
        planted = {int(k): v for k, v in json.load(handle).items()}
    refs = [np.load(os.path.splitext(p)[0] + ".ref.npz") for p in paths]
    for path, expect in zip(paths, refs):
        if path.endswith(".tsv") and expect["rejected_lines"].tolist() != sorted(planted):
            outcome.fail_check("the reference reader does not reject exactly the planted lines")
    rows = sum(int(expect["n_data"]) for expect in refs)

    def one_pass(_index: int) -> dict[str, float]:
        if ctx.tracer:
            ctx.tracer.reset()
        times: dict[str, float] = {}
        for path, expect in zip(paths, refs):
            process_tape(path, expect, outcome, planted if path.endswith(".tsv") else None, times)
        if ctx.tracer:
            outcome.per_pass.append(ctx.tracer.aggregate())
        return times

    passes = run_passes(ctx.seconds, 2, one_pass)
    end_to_end(outcome, passes, rows, self_peak_rss_mb(), ctx)
    return outcome

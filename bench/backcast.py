"""`backcast` workload: the three backcast protocols on two traders'
residuals.  Nets do nearly all the work; no tape is parsed in a pass.

Per pass: monthly_windows of both traders -> cnn_backcast at the
library defaults, once per index -> deep_backcast at the CLI's defaults (seed 1, 150
rounds) -> monthly_moments of the training trader -> shallow_backcast
at the CLI's seed 1, each over sentiment, stock_return and bond_yield.
Trader t0 trains and t1 is predicted.
"""

from __future__ import annotations

import datetime as dt
import os
import sys

import numpy as np

import reference as ref
from common import (CheckFailed, Outcome, check, end_to_end, measure, run_passes,
                    self_peak_rss_mb)
from dualspace import residual_study

INDEXES = ("sentiment", "stock_return", "bond_yield")
#: Program calls of a pass, in order.  cnn_backcast is called once per
#: index, with the same seeds and runs as one call over all three, so
#: that no single timed call lasts much longer than a second or two.
OPS = ("monthly_windows", "monthly_windows", *("cnn_backcast",) * len(INDEXES),
       "deep_backcast", "monthly_moments", "shallow_backcast")
#: Protocols whose recovery of the planted sentiment coupling is checked.
#: deep10 and shallow train from one seed and miss it on some markets.
RECOVERING = ("cnn7",)


def load_inputs(directory: str) -> dict:
    data = np.load(os.path.join(directory, "residuals.npz"))
    months = data["months"].tolist()
    inputs = {"indexes": [residual_study.IndexSeries(name, months, data[f"index_{name}"])
                          for name in INDEXES],
              "rows": int(data["rows_t0"]) + int(data["rows_t1"])}
    for trader in ("t0", "t1"):
        inputs[trader] = (data[f"residuals_{trader}"],
                          [dt.date.fromordinal(int(d)) for d in data[f"dates_{trader}"]])
    return inputs


def one_pass(inputs: dict, times: dict) -> tuple[list, int]:
    """(reports, calls completed) for one pass; each call's times go to
    `times` under `<position>:<name>`."""
    (r0, d0), (r1, d1) = inputs["t0"], inputs["t1"]
    indexes = inputs["indexes"]
    reports = []
    done = 0

    def call(func, *args, **kwargs):
        nonlocal done
        value, wall, scaled = measure(func, *args, **kwargs)
        times[f"{done}:{OPS[done]}"] = (wall, scaled)
        done += 1
        return value

    try:
        w0 = call(residual_study.monthly_windows, r0, d0, trader_id="t0")
        w1 = call(residual_study.monthly_windows, r1, d1, trader_id="t1")
        cnn = call(residual_study.cnn_backcast, w0, w1, indexes[:1])
        for index in indexes[1:]:
            cnn.results += call(residual_study.cnn_backcast, w0, w1, [index]).results
        reports.append(cnn)
        reports.append(call(residual_study.deep_backcast, r0, d0, r1, d1, indexes,
                            seed=1, rounds=150))
        moments = call(residual_study.monthly_moments, r0, d0)
        reports.append(call(residual_study.shallow_backcast, moments, indexes, seed=1))
    except Exception as exc:  # an operation failed: count it and the rest of the pass
        print(f"{OPS[done]} failed: {exc!r}", file=sys.stderr)
    return reports, done


def check_reports(reports: list, threshold: float) -> None:
    for report in reports:
        for res in report.results:
            check(all(np.isfinite(res.run_correlations)) and
                  max(map(abs, res.run_correlations)) <= 1.0,
                  f"{report.protocol}: correlation outside [-1, 1]")
        if report.protocol in RECOVERING:
            sent = report.for_index("sentiment").mean_correlation
            bond = report.for_index("bond_yield").mean_correlation
            check(sent > threshold,
                  f"{report.protocol}: sentiment r={sent:.3f} not significant "
                  f"(10% critical r={threshold:.3f})")
            check(sent > abs(bond),
                  f"{report.protocol}: sentiment r={sent:.3f} below |r| of bond_yield {bond:.3f}")


def run(ctx) -> Outcome:
    outcome = Outcome()
    if ctx.tracer:
        ctx.tracer.install()
    inputs = load_inputs(ctx.inputs)
    threshold = ref.critical_r(len(inputs["indexes"][0].months))
    first: list[dict] = []

    def timed_pass(index: int) -> dict:
        if ctx.tracer:
            ctx.tracer.reset()
        times: dict = {}
        reports, done = one_pass(inputs, times)
        if ctx.tracer:
            outcome.per_pass.append(ctx.tracer.aggregate())
        outcome.attempted += len(OPS)
        outcome.failed += len(OPS) - done
        try:
            check_reports(reports, threshold)
            dicts = [r.to_dict() for r in reports]
            if index == 0:
                first.extend(dicts)
            check(dicts == first, "a pass's reports differ from the first pass's")
        except CheckFailed as exc:
            outcome.fail_check(str(exc))
        return times

    passes = run_passes(ctx.seconds, 2, timed_pass)
    end_to_end(outcome, passes, inputs["rows"], self_peak_rss_mb(), ctx)
    return outcome

"""Set-up process: generate one workload's inputs from the seed.

    python3 bench/inputs.py ingest SEED DIR [TRACE_JSON]
    python3 bench/inputs.py backcast SEED DIR [TRACE_JSON]

`ingest` writes the oracle market's tapes: t0.csv and t1.csv as the
generator emits them, and t2.tsv, the third tape rewritten
tab-delimited under extra header rows with about 1% malformed rows
planted (their line numbers and reasons go to planted.json).
`backcast` builds both traders' regression residuals in memory and
saves them, with the market's monthly indexes, to residuals.npz.

With TRACE_JSON, the process records spans around the program's calls
and writes their per-layer figures there.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from dualspace import bucket_panel, dual_regression, state_space, synth_market

N_DAYS = 485
TRADES_PER_DAY = 300.0
SENTIMENT_COUPLING = 0.9
INGEST_TAPES = 3
BACKCAST_TAPES = 2
PLANT_SHARE = 0.01
HEADER_ROWS = ("# desk export, one executed trade per row",
               "Trddt\tStkprc\tParcha\tTrdtims",
               "date\tCNY\tB/S\tshares")

#: (reason the program must report, or None where its wording is a known
#: defect; the row, from the date of the data row it follows).  Every
#: rejection reason is covered.
PLANTS = (
    ("short row", "{day}\t12.34\tB"),
    ("malformed date", "{bad_day}\t12.34\tB\t100"),
    ("malformed price", "{day}\t12..34\tS\t100"),
    ("nonpositive price", "{day}\t-3.5\tB\t100"),
    ("nonpositive price", "{day}\t0\tS\t100"),
    (None, "{day}\tnan\tB\t100"),
    (None, "{day}\tinf\tS\t100"),
    (None, "{day}\t-inf\tB\t100"),
    ("malformed volume", "{day}\t12.34\tB\t12.5"),
    ("nonpositive volume", "{day}\t12.34\tS\t0"),
    ("nonpositive volume", "{day}\t12.34\tB\t-40"),
)


def market_config(seed: int, n_traders: int) -> synth_market.MarketConfig:
    """The oracle market: dense tapes with a strong planted sentiment
    coupling and no coupling to the bond yield."""
    return synth_market.MarketConfig(
        n_traders=n_traders, n_days=N_DAYS, seed=seed,
        trades_per_day_mean=TRADES_PER_DAY,
        couplings=synth_market.Couplings(g_sent=SENTIMENT_COUPLING))


def plant_malformed(text: str, seed: int) -> tuple[str, dict[int, str | None]]:
    """Tab-delimited copy of a canonical tape with extra header rows and
    malformed rows inserted after seeded data rows."""
    data = text.splitlines()[1:]
    rng = np.random.default_rng([seed, 1])
    n_plant = max(len(PLANTS), round(PLANT_SHARE * len(data)))
    after = set(rng.choice(len(data), size=n_plant, replace=False).tolist())
    out = list(HEADER_ROWS)
    planted: dict[int, str | None] = {}
    kind = 0
    for i, line in enumerate(data):
        out.append(line.replace(",", "\t"))
        if i in after:
            reason, template = PLANTS[kind % len(PLANTS)]
            kind += 1
            day = line.split(",", 1)[0]
            out.append(template.format(day=day, bad_day=day[:8] + "32"))
            planted[len(out)] = reason
    return "\n".join(out) + "\n", planted


def make_ingest(seed: int, outdir: str) -> None:
    market = synth_market.gen_market(market_config(seed, INGEST_TAPES))
    *plain, last = market.tapes
    for tape in plain:
        with open(os.path.join(outdir, f"{tape.trader_id}.csv"), "w", encoding="utf-8") as handle:
            handle.write(tape.text)
    text, planted = plant_malformed(last.text, seed)
    with open(os.path.join(outdir, f"{last.trader_id}.tsv"), "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(os.path.join(outdir, "planted.json"), "w", encoding="utf-8") as handle:
        json.dump({str(k): v for k, v in planted.items()}, handle, sort_keys=True)


def make_backcast(seed: int, outdir: str) -> None:
    market = synth_market.gen_market(market_config(seed, BACKCAST_TAPES))
    arrays = {}
    for tape in market.tapes:
        panels = bucket_panel.build_panels(tape.records)
        states = state_space.state_matrix(panels, state_space.VolumeMode.IMBALANCE)
        fit = dual_regression.fit_beta(states)
        arrays[f"residuals_{tape.trader_id}"] = fit.residuals
        arrays[f"dates_{tape.trader_id}"] = np.array([d.toordinal() for d in fit.dates])
        arrays[f"rows_{tape.trader_id}"] = len(tape.records)
    for name, index in market.indexes.items():
        arrays[f"index_{name}"] = index.values
    arrays["months"] = np.array(market.indexes["sentiment"].months)
    np.savez(os.path.join(outdir, "residuals.npz"), **arrays)


def main(argv: list[str]) -> int:
    workload, seed, outdir, *trace_out = argv
    tracer = None
    if trace_out:
        from tracer import Tracer
        tracer = Tracer().install()
    os.makedirs(outdir, exist_ok=True)
    {"ingest": make_ingest, "backcast": make_backcast}[workload](int(seed), outdir)
    if tracer:
        with open(trace_out[0], "w", encoding="utf-8") as handle:
            json.dump(tracer.aggregate(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end wiring the analysis pipeline.

Subcommands: synth, ingest, summarize, panels, statespace, fit,
backcast, liquidity, eventstudy, pdo-demo, emit-plotdata.  Every run
prints one machine-readable JSON summary line to stdout; diagnostics go
to stderr.  Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric
failure.  Options resolve as flag > config file > default; artifacts
embed a provenance comment (command, seed, option hash, version) so a
fixed seed reproduces byte-identical output trees.

Each command imports the analysis layers it uses inside its handler, so
a process pays the start-up of those layers only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__, tape_io

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUTPUT_DIR_ENV = "DUALSPACE_OUT"


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ── provenance ─────────────────────────────────────────────────────────

def _provenance(command: str, options: dict) -> dict:
    hashed = {k: v for k, v in sorted(options.items())
              if not k.endswith(("path", "file", "dir", "out"))}
    digest = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, default=str).encode()).hexdigest()[:16]
    return {"tool": "dualspace", "version": __version__, "command": command,
            "seed": options.get("seed"), "options_hash": digest}


def _write_csv(path: str, provenance: dict, writer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# provenance: " + json.dumps(provenance, sort_keys=True) + "\n")
        writer(handle)


def _write_json(path: str, provenance: dict, payload: dict) -> None:
    payload = dict(payload)
    payload["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _summary(command: str, **fields) -> None:
    print(json.dumps({"command": command, **fields}, sort_keys=True))


def _outdir(args) -> str:
    out = getattr(args, "out_dir", None) or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


# ── option resolution: flag > config file > default ────────────────────

def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge parsed flags (None = unset) with config-file values and defaults."""
    from_file = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as handle:
                from_file = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(from_file, dict):
            raise DataError("config file must hold a JSON object")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            if not isinstance(from_file[key], (str, int, float)):  # bool is an int
                raise DataError(f"config key {key!r} must be a string, number or boolean")
            if isinstance(from_file[key], float) and not math.isfinite(from_file[key]):
                raise DataError(f"config key {key!r} must be finite")
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
    return resolved


def _read_tape(path: str) -> tape_io.ParseResult:
    try:
        return tape_io.read_tape(path)
    except OSError as exc:
        raise DataError(f"cannot read tape {path}: {exc}")


def _records_or_fail(path: str):
    result = _read_tape(path)
    if not result.records:
        raise DataError(f"tape {path} holds no parseable records")
    return result


def _load_index(spec: str) -> calendars.IndexSeries:
    from . import calendars

    name, _, path = spec.partition("=")
    if not path:
        raise UsageError("index arguments take the form name=file.csv")
    try:
        with open(path, encoding="utf-8") as handle:
            return calendars.read_index_csv(handle, name=name)
    except OSError as exc:
        raise DataError(f"cannot read index {path}: {exc}")
    except ValueError as exc:
        raise DataError(f"bad index file {path}: {exc}")


def _tape_label(path: str) -> str:
    """Short provenance label for a residual file: stable across runs
    into different output roots (no absolute paths in artifacts)."""
    parts = os.path.normpath(path).split(os.sep)
    return "/".join(parts[-2:]) if len(parts) > 1 else parts[-1]


def _load_rows(path: str):
    from . import dual_regression

    try:
        with open(path, encoding="utf-8") as handle:
            return dual_regression.read_rows_csv(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise DataError(f"bad rows file {path}: {exc}")


def _activation(opts: dict) -> str:
    from . import neural_kit

    if opts["activation"] not in neural_kit.ACTIVATIONS:
        raise UsageError(f"--activation takes one of {', '.join(neural_kit.ACTIVATIONS)}")
    return opts["activation"]


# ── subcommands ────────────────────────────────────────────────────────

def _cmd_synth(args) -> int:
    from . import calendars, synth_market

    opts = _resolve(args, {
        "seed": 0, "traders": 2, "days": 485, "trades_per_day": None,
        "g_sent": 0.0, "g_ret": 0.0, "g_yield": 0.0, "snr": None,
        "shock": None,
        # generator-shape keys, settable through a config file
        "spread": None, "sentiment_ar": None, "anchor_max_offset": None,
        "anchor_buy_reach": None, "anchor_sell_reach": None,
        "buy_width": None, "sell_width": None,
    })
    kwargs = {
        "n_traders": int(opts["traders"]),
        "n_days": int(opts["days"]),
        "seed": int(opts["seed"]),
        "couplings": synth_market.Couplings(
            float(opts["g_sent"]), float(opts["g_ret"]), float(opts["g_yield"])),
    }
    if opts["trades_per_day"] is not None:
        kwargs["trades_per_day_mean"] = float(opts["trades_per_day"])
    if opts["snr"] is not None:
        kwargs["anchored_fraction"] = synth_market.snr_to_anchored_fraction(float(opts["snr"]))
    for key in ("spread", "buy_width", "sell_width"):
        if opts[key] is not None:
            kwargs[key] = float(opts[key])
    if opts["sentiment_ar"] is not None:
        kwargs["index_ar"] = synth_market.IndexARParams(
            sentiment_ar=float(opts["sentiment_ar"]))
    config = synth_market.MarketConfig(**kwargs)
    anchor_overrides = {name[len("anchor_"):]: float(opts[name])
                        for name in ("anchor_max_offset", "anchor_buy_reach",
                                     "anchor_sell_reach")
                        if opts[name] is not None}
    if anchor_overrides:
        config = replace(config, anchors=replace(config.anchors, **anchor_overrides))
    if opts["shock"]:
        try:
            start, end, vol, spread = (float(v) for v in opts["shock"].split(":"))
        except ValueError:
            raise UsageError("--shock takes start:end:volume_mult:spread_mult")
        config = synth_market.inject_shock(config, (int(start), int(end)), vol, spread)
    market = synth_market.gen_market(config)
    outdir = _outdir(args)
    prov = _provenance("synth", opts)
    for tape in market.tapes:
        _write_csv(os.path.join(outdir, f"{tape.trader_id}.csv"), prov,
                   lambda h, t=tape: h.write(t.text))
    for name, index in market.indexes.items():
        _write_csv(os.path.join(outdir, f"{name}.csv"), prov,
                   lambda h, ix=index: calendars.write_index_csv(ix, h))
    _write_json(os.path.join(outdir, "ground_truth.json"), prov,
                market.truth.to_dict())
    _summary("synth", out=outdir, tapes=len(market.tapes),
             records=sum(len(t.records) for t in market.tapes), seed=int(opts["seed"]))
    return EXIT_OK


def _cmd_ingest(args) -> int:
    result = _read_tape(args.tape)
    report = tape_io.validate(result.records, result.errors)
    outdir = _outdir(args)
    prov = _provenance("ingest", {"tape_file": args.tape})
    stem = os.path.splitext(os.path.basename(args.tape))[0]
    canonical = os.path.join(outdir, f"{stem}.canonical.csv")
    _write_csv(canonical, prov,
               lambda h: h.write(tape_io.serialize(result.records)))
    _write_json(os.path.join(outdir, f"{stem}.validation.json"), prov, report.to_dict())
    _summary("ingest", records=len(result.records), rejected=report.n_rejected,
             unknown_side_fraction=report.unknown_side_fraction,
             flag=report.unknown_side_flag, out=canonical)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    result = _records_or_fail(args.tape)
    side = {"B": tape_io.Side.BUY, "S": tape_io.Side.SELL}.get(args.side or "")
    summary = tape_io.summarize(result.records, side=side)
    _summary("summarize", **{k: getattr(summary, k) for k in (
        "trade_count", "min_price", "avg_price", "max_price", "std_price",
        "avg_daily_volume", "sample_volume_variance", "unknown_side_fraction")})
    return EXIT_OK


def _panel_config(opts) -> bucket_panel.BucketConfig:
    from . import bucket_panel

    return bucket_panel.BucketConfig(
        delta=float(opts["delta"]), n_buckets=int(opts["buckets"]),
        n_subcells=int(opts["subcells"]),
        geometric_imbalance=bool(opts["geometric_imbalance"]))


PANEL_DEFAULTS = {"delta": 0.5, "buckets": 16, "subcells": 50,
                  "geometric_imbalance": False}


def _cmd_panels(args) -> int:
    from . import bucket_panel

    opts = _resolve(args, dict(PANEL_DEFAULTS))
    result = _records_or_fail(args.tape)
    series = bucket_panel.build_panels(result.records, _panel_config(opts))
    outdir = _outdir(args)
    prov = _provenance("panels", {**opts, "tape_file": args.tape})
    path = os.path.join(outdir, "panels.csv")
    _write_csv(path, prov, lambda h: bucket_panel.write_panels_csv(series, h))
    if args.fine:
        _write_csv(os.path.join(outdir, "panels_fine.csv"), prov,
                   lambda h: bucket_panel.write_fine_csv(series, h))
    _summary("panels", days=len(series), discarded_trades=series.discarded_trades,
             out=path)
    return EXIT_OK


def _cmd_statespace(args) -> int:
    from . import bucket_panel, state_space

    opts = _resolve(args, {**PANEL_DEFAULTS, "mode": "imbalance"})
    result = _records_or_fail(args.tape)
    series = bucket_panel.build_panels(result.records, _panel_config(opts))
    states = state_space.state_matrix(series, state_space.VolumeMode(opts["mode"]))
    outdir = _outdir(args)
    path = os.path.join(outdir, f"states_{opts['mode']}.csv")
    _write_csv(path, _provenance("statespace", {**opts, "tape_file": args.tape}),
               lambda h: state_space.write_state_csv(states, h))
    _summary("statespace", rows=states.values.shape[0],
             buckets=states.values.shape[1], mode=opts["mode"], out=path)
    return EXIT_OK


def _cmd_fit(args) -> int:
    from . import dual_regression, state_space

    try:
        with open(args.states, encoding="utf-8") as handle:
            states = state_space.read_state_csv(handle)
    except OSError as exc:
        raise DataError(f"cannot read states {args.states}: {exc}")
    except ValueError as exc:
        raise DataError(f"bad state matrix: {exc}")
    if not np.isfinite(states.values).all():
        raise DataError("state matrix holds non-finite values")
    try:
        output = dual_regression.fit_beta(states)
        split = dual_regression.variance_split(output, states)
    except ValueError as exc:
        raise DataError(f"cannot fit {args.states}: {exc}")
    outdir = _outdir(args)
    prov = _provenance("fit", {"states_file": args.states})
    _write_csv(os.path.join(outdir, "beta.csv"), prov,
               lambda h: dual_regression.write_beta_csv(output.beta, h))
    _write_csv(os.path.join(outdir, "predictions.csv"), prov,
               lambda h: dual_regression.write_rows_csv(output.dates, output.predictions, h))
    _write_csv(os.path.join(outdir, "residuals.csv"), prov,
               lambda h: dual_regression.write_rows_csv(output.dates, output.residuals, h))
    _write_json(os.path.join(outdir, "diagnostics.json"), prov,
                dual_regression.diagnostics(output, split))
    _summary("fit", rows=output.predictions.shape[0], gram_rank=output.gram_rank,
             max_imag=output.max_imag,
             max_abs_residual=float(np.abs(output.residuals).max()), out=outdir)
    return EXIT_OK


#: the `backcast` flags each protocol reads, besides --protocol, --seed,
#: --train-residuals, --index, --config and --out-dir
BACKCAST_FLAGS = {
    "shallow": (),
    "deep10": ("predict_residuals", "rounds", "learning_rate"),
    "cnn7": ("predict_residuals", "runs", "rounds", "learning_rate", "activation"),
}


def _cmd_backcast(args) -> int:
    from . import neural_kit, residual_study

    opts = _resolve(args, {
        "protocol": "cnn7", "runs": 6, "rounds": 150, "learning_rate": 0.05,
        "activation": "tanh", "seed": 1,
    })
    protocol = opts["protocol"]
    if protocol not in BACKCAST_FLAGS:
        raise UsageError(f"unknown protocol {protocol!r}")
    unread = [key for key in BACKCAST_FLAGS["cnn7"]  # cnn7 reads them all
              if key not in BACKCAST_FLAGS[protocol] and getattr(args, key) is not None]
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise UsageError(f"--protocol {protocol} does not read {flags}")
    activation = _activation(opts)
    indexes = [_load_index(spec) for spec in args.index]
    if not indexes:
        raise UsageError("need at least one --index name=file.csv")
    if int(opts["runs"]) < 1:
        raise UsageError("--runs must be at least 1")
    if protocol in ("deep10", "cnn7"):
        if not args.predict_residuals:
            raise UsageError(f"--protocol {protocol} needs --predict-residuals")
        # the informed/uninformed rule, by the trader labels cnn7 windows carry
        if _tape_label(args.train_residuals) == _tape_label(args.predict_residuals):
            raise DataError("training and prediction residuals come from the same trader")
    train_dates, train_resid = _load_rows(args.train_residuals)
    if protocol == "shallow":
        moments = residual_study.monthly_moments(train_resid, train_dates)
        report = residual_study.shallow_backcast(moments, indexes, seed=int(opts["seed"]))
    elif protocol == "deep10":
        pred_dates, pred_resid = _load_rows(args.predict_residuals)
        report = residual_study.deep_backcast(
            train_resid, train_dates, pred_resid, pred_dates, indexes,
            seed=int(opts["seed"]), rounds=int(opts["rounds"]),
            learning_rate=float(opts["learning_rate"]))
    else:
        pred_dates, pred_resid = _load_rows(args.predict_residuals)
        train_w = residual_study.monthly_windows(train_resid, train_dates,
                                                 trader_id=_tape_label(args.train_residuals))
        pred_w = residual_study.monthly_windows(pred_resid, pred_dates,
                                                trader_id=_tape_label(args.predict_residuals))
        spec = neural_kit.cnn7_spec(input_shape=train_w.images.shape[1:],
                                    activation=activation)
        seeds = [int(opts["seed"]) + i for i in range(int(opts["runs"]))]
        report = residual_study.cnn_backcast(
            train_w, pred_w, indexes, spec=spec, seeds=seeds,
            rounds=int(opts["rounds"]), learning_rate=float(opts["learning_rate"]))
    outdir = _outdir(args)
    prov = _provenance("backcast", {**opts, "train_file": args.train_residuals})
    _write_json(os.path.join(outdir, f"backcast_{protocol}.json"), prov, report.to_dict())
    _write_csv(os.path.join(outdir, f"backcast_{protocol}.csv"), prov,
               lambda h: residual_study.write_report_csv(report, h))
    _summary("backcast", protocol=protocol,
             correlations={r.index_name: r.mean_correlation for r in report.results},
             out=outdir)
    return EXIT_OK


def _cmd_liquidity(args) -> int:
    from . import bucket_panel, liquidity_lab

    opts = _resolve(args, dict(PANEL_DEFAULTS))
    result = _records_or_fail(args.tape)
    series = bucket_panel.build_panels(result.records, _panel_config(opts))
    cost = liquidity_lab.cost_series(series)
    outdir = _outdir(args)
    prov = _provenance("liquidity", {**opts, "tape_file": args.tape})
    _write_csv(os.path.join(outdir, "lambda.csv"), prov,
               lambda h: liquidity_lab.write_lambda_csv(cost, h))
    _write_csv(os.path.join(outdir, "lambda_daily.csv"), prov,
               lambda h: liquidity_lab.write_lambda_daily_csv(cost, h))
    _write_csv(os.path.join(outdir, "pi.csv"), prov,
               lambda h: liquidity_lab.write_pi_csv(cost, h))
    _summary("liquidity", days=len(cost.dates),
             mean_lambda=float(cost.lambda_avg.mean()),
             no_quote_flags=int(cost.no_quote.sum()), out=outdir)
    return EXIT_OK


def _cmd_eventstudy(args) -> int:
    from . import bucket_panel, liquidity_lab

    opts = _resolve(args, {
        "period_length": 60, "n_periods": 8, "training_periods": "0,1",
        "permutations": 10_000, "rounds": 150, "learning_rate": 0.05,
        "activation": "tanh", "seeds": "1,2,3",
        **PANEL_DEFAULTS,
    })
    activation = _activation(opts)
    result = _records_or_fail(args.tape)
    index = _load_index(args.index)
    try:
        lo, hi = (int(v) for v in str(opts["training_periods"]).split(","))
        seeds = tuple(int(v) for v in str(opts["seeds"]).split(","))
    except ValueError:
        raise UsageError("--training-periods takes 'a,b'; --seeds takes 'n,n,...'")
    config = liquidity_lab.EventStudyConfig(
        period_length=int(opts["period_length"]), n_periods=int(opts["n_periods"]),
        training_periods=(lo, hi), n_permutations=int(opts["permutations"]),
        rounds=int(opts["rounds"]), learning_rate=float(opts["learning_rate"]),
        activation=activation)
    series = bucket_panel.build_panels(result.records, _panel_config(opts))
    cost = liquidity_lab.cost_series(series)
    report = liquidity_lab.event_study(cost, index, config, seeds=seeds)
    outdir = _outdir(args)
    prov = _provenance("eventstudy", {**opts, "tape_file": args.tape})
    _write_json(os.path.join(outdir, "eventstudy.json"), prov, report.to_dict())
    _write_csv(os.path.join(outdir, "eventstudy.csv"), prov,
               lambda h: liquidity_lab.write_report_csv(report, h))
    _summary("eventstudy", windows=len(report.windows), index=index.name,
             p_pearson=[w.p_pearson for w in report.windows],
             p_spearman=[w.p_spearman for w in report.windows], out=outdir)
    return EXIT_OK


def _cmd_pdo_demo(args) -> int:
    from . import pdo_kernel

    opts = _resolve(args, {"points": 256, "sigma0": 0.5, "diffusion": 0.25,
                           "drift": 0.0, "time": 1.0})
    n = int(opts["points"])
    sigma0, diff = float(opts["sigma0"]), float(opts["diffusion"])
    drift, t = float(opts["drift"]), float(opts["time"])
    if n < 2 or not (np.isfinite([sigma0, diff, drift, t]).all()
                     and sigma0 > 0 and diff >= 0 and t >= 0):
        raise UsageError("pdo-demo needs --points >= 2, --sigma0 > 0, --diffusion >= 0 "
                         "and --time >= 0, all finite")
    sigma_t = np.sqrt(sigma0**2 + 2.0 * diff * t)
    half_width = 8.0 * sigma_t + abs(drift) * t
    points = np.linspace(-half_width, half_width, n, endpoint=False)
    initial = pdo_kernel.SpectralGrid(points, np.exp(-points**2 / (2 * sigma0**2)))
    params = pdo_kernel.DiffusionParams(np.array([drift]), np.array([[diff]]))
    evolved = pdo_kernel.pdo_evolve(initial, params, t)
    # the symbol advects along psi_t = a psi_x: center moves to -a*t
    closed_form = (sigma0 / sigma_t) * np.exp(-(points + drift * t) ** 2 / (2 * sigma_t**2))
    max_err = float(np.abs(evolved.values.real - closed_form).max())
    outdir = _outdir(args)
    prov = _provenance("pdo-demo", opts)
    _write_csv(os.path.join(outdir, "grid_initial.csv"), prov,
               lambda h: pdo_kernel.write_grid_csv(initial, h))
    _write_csv(os.path.join(outdir, "grid_evolved.csv"), prov,
               lambda h: pdo_kernel.write_grid_csv(evolved, h))
    _summary("pdo-demo", max_error_vs_closed_form=max_err, points=n, out=outdir)
    return EXIT_OK if max_err < 1e-6 else EXIT_NUMERIC


def _cmd_emit_plotdata(args) -> int:
    try:
        with open(args.artifact, encoding="utf-8") as handle:
            if args.kind == "bars":
                payload = json.load(handle)
            else:
                header, data = tape_io.read_table_csv(handle)
    except OSError as exc:
        raise DataError(f"cannot read artifact {args.artifact}: {exc}")
    except ValueError as exc:
        raise DataError(f"bad artifact {args.artifact}: {exc}")
    if args.kind == "heatmap":
        value_cols = [i for i, name in enumerate(header) if re.fullmatch("b[0-9]+", name)]
        if not value_cols:
            raise DataError("heatmap artifact needs b0..bN value columns")
        columns = ["x", "y", "value"]
        rows = [[row[0], j, row[col]] for row in data for j, col in enumerate(value_cols)]
    elif args.kind == "series":
        if len(header) < 2:
            raise DataError("series artifact needs (date, value) columns")
        columns = ["date", "value"]
        rows = [row[:2] for row in data]
    else:
        shares = payload.get("predictor_share") if isinstance(payload, dict) else None
        if not isinstance(shares, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in shares):
            raise DataError("bars artifact must be a diagnostics JSON "
                            "with a predictor_share list of numbers")
        columns = ["label", "value"]
        rows = list(enumerate(shares))
    with open(args.out, "w", encoding="utf-8") as handle:
        tape_io.write_table_csv(handle, columns, rows)
    _summary("emit-plotdata", kind=args.kind, rows=len(rows), out=args.out)
    return EXIT_OK


# ── argument wiring ────────────────────────────────────────────────────

def _build_parser() -> _Parser:
    parser = _Parser(prog="dualspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of option defaults")
        p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("synth", help="generate synthetic tapes and indexes")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--traders", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--trades-per-day", dest="trades_per_day", type=float)
    p.add_argument("--g-sent", dest="g_sent", type=float)
    p.add_argument("--g-ret", dest="g_ret", type=float)
    p.add_argument("--g-yield", dest="g_yield", type=float)
    p.add_argument("--snr", type=float)
    p.add_argument("--shock", help="start:end:volume_mult:spread_mult")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse and validate a tape")
    common(p)
    p.add_argument("--tape", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("summarize", help="descriptive statistics of a tape")
    common(p)
    p.add_argument("--tape", required=True)
    p.add_argument("--side", choices=["B", "S"])
    p.set_defaults(func=_cmd_summarize)

    def panel_flags(p):
        p.add_argument("--delta", type=float)
        p.add_argument("--buckets", type=int)
        p.add_argument("--subcells", type=int)
        p.add_argument("--geometric-imbalance", dest="geometric_imbalance",
                       action="store_const", const=True)

    p = sub.add_parser("panels", help="daily price-bucket panels")
    common(p)
    p.add_argument("--tape", required=True)
    p.add_argument("--fine", action="store_true", help="also export sub-cell profiles")
    panel_flags(p)
    p.set_defaults(func=_cmd_panels)

    p = sub.add_parser("statespace", help="interday correlation state matrix")
    common(p)
    p.add_argument("--tape", required=True)
    p.add_argument("--mode", choices=["buy", "sell", "imbalance"])
    panel_flags(p)
    p.set_defaults(func=_cmd_statespace)

    p = sub.add_parser("fit", help="dual-space operator regression")
    common(p)
    p.add_argument("--states", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("backcast", help="index backcasts from residuals")
    common(p)
    p.add_argument("--protocol", choices=["shallow", "deep10", "cnn7"])
    p.add_argument("--train-residuals", dest="train_residuals", required=True)
    p.add_argument("--predict-residuals", dest="predict_residuals")
    p.add_argument("--index", action="append", default=[],
                   help="name=file.csv (repeatable)")
    p.add_argument("--runs", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--activation")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_backcast)

    p = sub.add_parser("liquidity", help="trading cost and Amihud lambda")
    common(p)
    p.add_argument("--tape", required=True)
    panel_flags(p)
    p.set_defaults(func=_cmd_liquidity)

    p = sub.add_parser("eventstudy", help="liquidity event-study hypothesis test")
    common(p)
    p.add_argument("--tape", required=True)
    p.add_argument("--index", required=True, help="name=file.csv")
    p.add_argument("--period-length", dest="period_length", type=int)
    p.add_argument("--n-periods", dest="n_periods", type=int)
    p.add_argument("--training-periods", dest="training_periods")
    p.add_argument("--permutations", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--activation")
    p.add_argument("--seeds")
    panel_flags(p)
    p.set_defaults(func=_cmd_eventstudy)

    p = sub.add_parser("pdo-demo", help="spectral diffusion demo vs closed form")
    common(p)
    p.add_argument("--points", type=int)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--diffusion", type=float)
    p.add_argument("--drift", type=float)
    p.add_argument("--time", type=float)
    p.set_defaults(func=_cmd_pdo_demo)

    p = sub.add_parser("emit-plotdata", help="plot-ready long-format CSV")
    common(p)
    p.add_argument("--artifact", required=True)
    p.add_argument("--kind", required=True, choices=["heatmap", "series", "bars"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_emit_plotdata)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # FloatingPointError, TrainingDivergedError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

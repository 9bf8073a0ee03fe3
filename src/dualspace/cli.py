"""Command-line front end wiring the analysis pipeline.

Subcommands: synth, ingest, summarize, panels, statespace, fit,
backcast, liquidity, eventstudy, pdo-demo, emit-plotdata.  Every run
prints one machine-readable JSON summary line to stdout; diagnostics go
to stderr.  Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric
failure; a file that cannot be read or written, or a size too large to
allocate, is a data error.
Options resolve as flag > config file > default; artifacts embed a
provenance comment (command, seed, option hash, version) so a fixed seed
reproduces byte-identical output trees.

Each command imports the analysis layers it uses inside its handler, so
a process pays the start-up of those layers only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

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
    digest = hashlib.sha256(json.dumps(options, sort_keys=True).encode()).hexdigest()[:16]
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


# ── options: one declaration each ──────────────────────────────────────

#: the `backcast` flags each protocol reads, besides --protocol, --seed,
#: --train-residuals, --index, --config and --out-dir
BACKCAST_FLAGS = {
    "shallow": (),
    "deep10": ("predict_residuals", "rounds", "learning_rate"),
    "cnn7": ("predict_residuals", "runs", "rounds", "learning_rate", "activation"),
}

#: synth's generator-shape keys, each the MarketConfig field of the same name:
#: set through a config file only, no flag
SYNTH_SHAPE_KEYS = ("spread", "sentiment_ar", "anchor_max_offset", "anchor_buy_reach",
                    "anchor_sell_reach", "buy_width", "sell_width")

_PANEL = {"delta": (float, 0.5), "buckets": (int, 16), "subcells": (int, 50),
          "geometric_imbalance": (bool, False)}
_TRAINING = {"rounds": (int, 150), "learning_rate": (float, 0.05),
             "activation": (str, "tanh")}

#: each command's options, key -> (kind, default).  A kind is int, float,
#: str, bool (a switch, a flag without a value) or a tuple of the strings
#: the option takes.  Key `trades_per_day` is the flag --trades-per-day;
#: the SYNTH_SHAPE_KEYS have no flag.
OPTIONS = {
    "synth": {"seed": (int, 0), "traders": (int, 2), "days": (int, 485),
              "trades_per_day": (float, None), "g_sent": (float, 0.0),
              "g_ret": (float, 0.0), "g_yield": (float, 0.0), "snr": (float, None),
              "shock": (str, None), **{key: (float, None) for key in SYNTH_SHAPE_KEYS}},
    "panels": _PANEL,
    "statespace": {"mode": (("buy", "sell", "imbalance"), "imbalance"), **_PANEL},
    "backcast": {"protocol": (tuple(BACKCAST_FLAGS), "cnn7"), "runs": (int, 6),
                 **_TRAINING, "seed": (int, 1)},
    "liquidity": _PANEL,
    "eventstudy": {"period_length": (int, 60), "n_periods": (int, 8),
                   "training_periods": (str, "0,1"), "permutations": (int, 10_000),
                   **_TRAINING, "seeds": (str, "1,2,3"), **_PANEL},
    "pdo-demo": {"points": (int, 256), "sigma0": (float, 0.5), "diffusion": (float, 0.25),
                 "drift": (float, 0.0), "time": (float, 1.0)},
}

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false"}


def _config_value(key: str, kind, value):
    """A config-file value, which must already be of its option's kind;
    an integer will do for a real option."""
    if kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind or (isinstance(kind, tuple) and value in kind):
        return value
    wanted = _KIND_NAMES.get(kind) or "one of " + ", ".join(kind)
    raise DataError(f"config key {key!r} must be {wanted}, not {json.dumps(value)}")


def _resolve(args: argparse.Namespace) -> dict:
    """The command's options, typed: flag (None = unset) > config file > default."""
    from_file = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            try:
                from_file = json.load(handle)
            except ValueError as exc:
                raise DataError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(from_file, dict):
            raise DataError("config file must hold a JSON object")
    options = OPTIONS[args.command]
    undeclared = sorted(set(from_file) - set(options))
    if undeclared:
        raise DataError(f"{args.command} takes no config key "
                        + ", ".join(repr(key) for key in undeclared))
    resolved = {}
    for key, (kind, default) in options.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in from_file:
            resolved[key] = _config_value(key, kind, from_file[key])
        else:
            resolved[key] = default
    return resolved


def _records_or_fail(path: str) -> tape_io.Tape:
    """The tape's records; its `ParseResult` is dropped here."""
    records = tape_io.read_tape(path).records
    if not records:
        raise DataError(f"tape {path} holds no parseable records")
    return records


def _load_index(arg: str) -> calendars.IndexSeries:
    from . import calendars

    name, _, path = arg.partition("=")
    if not path:
        raise UsageError("index arguments take the form name=file.csv")
    try:
        with open(path, encoding="utf-8") as handle:
            return calendars.read_index_csv(handle, name=name)
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

    opts = _resolve(args)
    kwargs = {
        "n_traders": opts["traders"], "n_days": opts["days"], "seed": opts["seed"],
        "couplings": synth_market.Couplings(opts["g_sent"], opts["g_ret"], opts["g_yield"]),
    }
    if opts["trades_per_day"] is not None:
        kwargs["trades_per_day_mean"] = opts["trades_per_day"]
    if opts["snr"] is not None:
        kwargs["anchored_fraction"] = synth_market.snr_to_anchored_fraction(opts["snr"])
    kwargs.update({k: opts[k] for k in SYNTH_SHAPE_KEYS if opts[k] is not None})
    config = synth_market.MarketConfig(**kwargs)
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
             records=sum(len(t.records) for t in market.tapes), seed=opts["seed"])
    return EXIT_OK


def _cmd_ingest(args) -> int:
    result = tape_io.read_tape(args.tape)
    report = tape_io.validate(result.records, result.errors)
    outdir = _outdir(args)
    prov = _provenance("ingest", {})
    stem = os.path.splitext(os.path.basename(args.tape))[0]
    canonical = os.path.join(outdir, f"{stem}.canonical.csv")
    _write_csv(canonical, prov,
               lambda h: h.write(tape_io.serialize(result.records)))
    _write_json(os.path.join(outdir, f"{stem}.validation.json"), prov, report.to_dict())
    _summary("ingest", records=report.n_records, rejected=report.n_rejected,
             unknown_side_fraction=report.unknown_side_fraction,
             flag=report.unknown_side_flag, out=canonical)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    side = {"B": tape_io.Side.BUY, "S": tape_io.Side.SELL}.get(args.side or "")
    summary = tape_io.summarize(_records_or_fail(args.tape), side=side)
    _summary("summarize", **{k: getattr(summary, k) for k in (
        "trade_count", "min_price", "avg_price", "max_price", "std_price",
        "avg_daily_volume", "sample_volume_variance", "unknown_side_fraction")})
    return EXIT_OK


def _panel_config(opts) -> bucket_panel.BucketConfig:
    from . import bucket_panel

    return bucket_panel.BucketConfig(
        delta=opts["delta"], n_buckets=opts["buckets"], n_subcells=opts["subcells"],
        geometric_imbalance=opts["geometric_imbalance"])


def _panels(path: str, opts) -> bucket_panel.PanelSeries:
    """The tape's panel series; the tape is dropped once it is bucketed."""
    from . import bucket_panel

    return bucket_panel.build_panels(_records_or_fail(path), _panel_config(opts))


def _cmd_panels(args) -> int:
    from . import bucket_panel

    opts = _resolve(args)
    series = _panels(args.tape, opts)
    outdir = _outdir(args)
    prov = _provenance("panels", opts)
    path = os.path.join(outdir, "panels.csv")
    _write_csv(path, prov, lambda h: bucket_panel.write_panels_csv(series, h))
    if args.fine:
        _write_csv(os.path.join(outdir, "panels_fine.csv"), prov,
                   lambda h: bucket_panel.write_fine_csv(series, h))
    _summary("panels", days=len(series), discarded_trades=series.discarded_trades,
             out=path)
    return EXIT_OK


def _cmd_statespace(args) -> int:
    from . import state_space

    opts = _resolve(args)
    states = state_space.state_matrix(_panels(args.tape, opts),
                                      state_space.VolumeMode(opts["mode"]))
    outdir = _outdir(args)
    path = os.path.join(outdir, f"states_{opts['mode']}.csv")
    _write_csv(path, _provenance("statespace", opts),
               lambda h: state_space.write_state_csv(states, h))
    _summary("statespace", rows=states.values.shape[0],
             buckets=states.values.shape[1], mode=opts["mode"], out=path)
    return EXIT_OK


def _cmd_fit(args) -> int:
    from . import dual_regression, state_space

    try:
        with open(args.states, encoding="utf-8") as handle:
            states = state_space.read_state_csv(handle)
    except ValueError as exc:
        raise DataError(f"bad state matrix: {exc}")
    try:
        output = dual_regression.fit_beta(states)
        split = dual_regression.variance_split(output, states)
    except ValueError as exc:
        raise DataError(f"cannot fit {args.states}: {exc}")
    outdir = _outdir(args)
    prov = _provenance("fit", {})
    _write_csv(os.path.join(outdir, "beta.csv"), prov,
               lambda h: dual_regression.write_beta_csv(output.beta, h))
    _write_csv(os.path.join(outdir, "predictions.csv"), prov,
               lambda h: dual_regression.write_rows_csv(output.dates, output.predictions, h))
    _write_csv(os.path.join(outdir, "residuals.csv"), prov,
               lambda h: dual_regression.write_rows_csv(output.dates, output.residuals, h))
    diagnostics = dual_regression.diagnostics(output, split)
    _write_json(os.path.join(outdir, "diagnostics.json"), prov, diagnostics)
    _summary("fit", rows=output.predictions.shape[0], gram_rank=diagnostics["gram_rank"],
             max_abs_residual=diagnostics["max_abs_residual"], out=outdir)
    return EXIT_OK


def _cmd_backcast(args) -> int:
    from . import residual_study

    opts = _resolve(args)
    protocol = opts["protocol"]
    unread = [key for key in BACKCAST_FLAGS["cnn7"]  # cnn7 reads them all
              if key not in BACKCAST_FLAGS[protocol] and getattr(args, key) is not None]
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise UsageError(f"--protocol {protocol} does not read {flags}")
    if protocol == "cnn7":  # the one protocol that reads them
        activation = _activation(opts)
        if opts["runs"] < 1:
            raise UsageError("--runs must be at least 1")
    indexes = [_load_index(spec) for spec in args.index]
    if not indexes:
        raise UsageError("need at least one --index name=file.csv")
    if protocol in ("deep10", "cnn7"):
        if not args.predict_residuals:
            raise UsageError(f"--protocol {protocol} needs --predict-residuals")
        # the informed/uninformed rule, by the trader labels cnn7 windows carry
        if _tape_label(args.train_residuals) == _tape_label(args.predict_residuals):
            raise DataError("training and prediction residuals come from the same trader")
    train_dates, train_resid = _load_rows(args.train_residuals)
    if protocol == "shallow":
        moments = residual_study.monthly_moments(train_resid, train_dates)
        report = residual_study.shallow_backcast(moments, indexes, seed=opts["seed"])
    elif protocol == "deep10":
        pred_dates, pred_resid = _load_rows(args.predict_residuals)
        report = residual_study.deep_backcast(
            train_resid, train_dates, pred_resid, pred_dates, indexes,
            seed=opts["seed"], rounds=opts["rounds"], learning_rate=opts["learning_rate"])
    else:
        pred_dates, pred_resid = _load_rows(args.predict_residuals)
        train_w = residual_study.monthly_windows(train_resid, train_dates,
                                                 trader_id=_tape_label(args.train_residuals))
        pred_w = residual_study.monthly_windows(pred_resid, pred_dates,
                                                trader_id=_tape_label(args.predict_residuals))
        seeds = [opts["seed"] + i for i in range(opts["runs"])]
        report = residual_study.cnn_backcast(
            train_w, pred_w, indexes, activation=activation, seeds=seeds,
            rounds=opts["rounds"], learning_rate=opts["learning_rate"])
    outdir = _outdir(args)
    read = ("protocol", "seed", *BACKCAST_FLAGS[protocol])
    prov = _provenance("backcast", {k: v for k, v in opts.items() if k in read})
    _write_json(os.path.join(outdir, f"backcast_{protocol}.json"), prov, report.to_dict())
    _write_csv(os.path.join(outdir, f"backcast_{protocol}.csv"), prov,
               lambda h: residual_study.write_report_csv(report, h))
    _summary("backcast", protocol=protocol,
             correlations={r.index_name: r.mean_correlation for r in report.results},
             out=outdir)
    return EXIT_OK


def _cmd_liquidity(args) -> int:
    from . import liquidity_lab

    opts = _resolve(args)
    cost = liquidity_lab.cost_series(_panels(args.tape, opts))
    outdir = _outdir(args)
    prov = _provenance("liquidity", opts)
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

    opts = _resolve(args)
    activation = _activation(opts)
    records = _records_or_fail(args.tape)
    index = _load_index(args.index)
    try:
        lo, hi = (int(v) for v in opts["training_periods"].split(","))
        seeds = tuple(int(v) for v in opts["seeds"].split(","))
    except ValueError:
        raise UsageError("--training-periods takes 'a,b'; --seeds takes 'n,n,...'")
    config = liquidity_lab.EventStudyConfig(
        period_length=opts["period_length"], n_periods=opts["n_periods"],
        training_periods=(lo, hi), n_permutations=opts["permutations"],
        rounds=opts["rounds"], learning_rate=opts["learning_rate"], activation=activation)
    cost = liquidity_lab.cost_series(bucket_panel.build_panels(records, _panel_config(opts)))
    del records  # only the cost series lives on through training
    report = liquidity_lab.event_study(cost, index, config, seeds=seeds)
    outdir = _outdir(args)
    prov = _provenance("eventstudy", opts)
    _write_json(os.path.join(outdir, "eventstudy.json"), prov, report.to_dict())
    _write_csv(os.path.join(outdir, "eventstudy.csv"), prov,
               lambda h: liquidity_lab.write_report_csv(report, h))
    _summary("eventstudy", windows=len(report.windows), index=index.name,
             p_pearson=[w.p_pearson for w in report.windows],
             p_spearman=[w.p_spearman for w in report.windows], out=outdir)
    return EXIT_OK


def _cmd_pdo_demo(args) -> int:
    from . import pdo_kernel

    opts = _resolve(args)
    n, sigma0, diff = opts["points"], opts["sigma0"], opts["diffusion"]
    drift, t = opts["drift"], opts["time"]
    if n < 2 or not (np.isfinite([sigma0, diff, drift, t]).all()
                     and sigma0 > 0 and diff >= 0 and t >= 0):
        raise UsageError("pdo-demo needs --points >= 2, --sigma0 > 0, --diffusion >= 0 "
                         "and --time >= 0, all finite")
    sigma_t = np.sqrt(sigma0**2 + 2.0 * diff * t)
    half_width = 8.0 * sigma_t + abs(drift) * t
    points = np.linspace(-half_width, half_width, n, endpoint=False)
    initial = np.exp(-points**2 / (2 * sigma0**2))
    evolved = pdo_kernel.pdo_evolve(initial, points[1] - points[0], drift, diff, t)
    # the symbol advects along psi_t = a psi_x: center moves to -a*t
    closed_form = (sigma0 / sigma_t) * np.exp(-(points + drift * t) ** 2 / (2 * sigma_t**2))
    max_err = float(np.abs(evolved.real - closed_form).max())
    outdir = _outdir(args)
    prov = _provenance("pdo-demo", opts)
    _write_csv(os.path.join(outdir, "grid_initial.csv"), prov,
               lambda h: pdo_kernel.write_grid_csv(points, initial, h))
    _write_csv(os.path.join(outdir, "grid_evolved.csv"), prov,
               lambda h: pdo_kernel.write_grid_csv(points, evolved, h))
    _summary("pdo-demo", max_error_vs_closed_form=max_err, points=n, out=outdir)
    return EXIT_OK if max_err < 1e-6 else EXIT_NUMERIC


def _cmd_emit_plotdata(args) -> int:
    try:
        with open(args.artifact, encoding="utf-8") as handle:
            if args.kind == "bars":
                payload = json.load(handle)
            else:
                header, data = tape_io.read_table_csv(handle)
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

    def command(name, func, about, out_dir=True):
        """A subcommand: --config if it has OPTIONS, --out-dir if it writes there."""
        p = sub.add_parser(name, help=about)
        if name in OPTIONS:
            p.add_argument("--config", help="JSON file of option defaults")
        if out_dir:
            p.add_argument("--out-dir", dest="out_dir")
        for key, (kind, _) in OPTIONS.get(name, {}).items():
            if key in SYNTH_SHAPE_KEYS:
                continue
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind)
            else:
                p.add_argument(flag, type=kind)
        p.set_defaults(func=func)
        return p

    command("synth", _cmd_synth, "generate synthetic tapes and indexes")
    p = command("ingest", _cmd_ingest, "parse and validate a tape")
    p.add_argument("--tape", required=True)
    p = command("summarize", _cmd_summarize, "descriptive statistics of a tape", out_dir=False)
    p.add_argument("--tape", required=True)
    p.add_argument("--side", choices=["B", "S"])
    p = command("panels", _cmd_panels, "daily price-bucket panels")
    p.add_argument("--tape", required=True)
    p.add_argument("--fine", action="store_true", help="also export sub-cell profiles")
    p = command("statespace", _cmd_statespace, "interday correlation state matrix")
    p.add_argument("--tape", required=True)
    p = command("fit", _cmd_fit, "dual-space operator regression")
    p.add_argument("--states", required=True)
    p = command("backcast", _cmd_backcast, "index backcasts from residuals")
    p.add_argument("--train-residuals", required=True)
    p.add_argument("--predict-residuals")
    p.add_argument("--index", action="append", default=[], help="name=file.csv (repeatable)")
    p = command("liquidity", _cmd_liquidity, "trading cost and Amihud lambda")
    p.add_argument("--tape", required=True)
    p = command("eventstudy", _cmd_eventstudy, "liquidity event-study hypothesis test")
    p.add_argument("--tape", required=True)
    p.add_argument("--index", required=True, help="name=file.csv")
    command("pdo-demo", _cmd_pdo_demo, "spectral diffusion demo vs closed form")
    p = command("emit-plotdata", _cmd_emit_plotdata, "plot-ready long-format CSV",
                out_dir=False)
    p.add_argument("--artifact", required=True)
    p.add_argument("--kind", required=True, choices=["heatmap", "series", "bars"])
    p.add_argument("--out", required=True)
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError, OSError, MemoryError) as exc:
        # OSError: a file read or write; MemoryError: a size past memory
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # FloatingPointError, TrainingDivergedError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

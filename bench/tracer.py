"""Spans around calls into the dualspace modules, recorded from the
benchmark's own files.

`Tracer.install` rebinds every public module-level function of the
traced modules, in every traced module's namespace (so `from .x import
f` bindings are covered too), to a wrapper that records a span: layer,
function, duration, and the time its traced children cover.  Spans stay
in memory and are reduced per pass by `aggregate`.

`corrstats` and `calendars` are not traced: their time folds into the
caller's self time.  Artifact readers and writers (`write_*`,
`read_*_csv`) are not traced either, so the CLI's artifact I/O counts
as `cli` self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

import numpy as np

LAYERS = ("cli", "synth_market", "tape_io", "bucket_panel", "state_space",
          "dual_regression", "neural_kit", "residual_study", "liquidity_lab")

#: Every per-layer metric with its unit, in the order they are reported.
LAYER_METRICS = {
    "cli.startup_s": "s", "cli.synth_s": "s", "cli.statespace_s": "s", "cli.fit_s": "s",
    "cli.backcast_s": "s", "cli.eventstudy_s": "s", "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "synth_market.gen_market_s": "s", "synth_market.rows": "count",
    "tape_io.parse_s": "s", "tape_io.validate_s": "s", "tape_io.rows": "count",
    "tape_io.rejected_rows": "count", "tape_io.serialize_s": "s",
    "bucket_panel.build_panels_s": "s", "bucket_panel.days": "count",
    "bucket_panel.discarded_trades": "count",
    "state_space.state_matrix_s": "s", "state_space.flat_entries": "count",
    "dual_regression.fit_beta_s": "s", "dual_regression.variance_split_s": "s",
    "liquidity_lab.cost_series_s": "s", "liquidity_lab.event_study_s": "s",
    "liquidity_lab.event_study_self_s": "s",
    "neural_kit.train_s": "s", "neural_kit.forward_s": "s", "neural_kit.self_s": "s",
    "neural_kit.train_calls": "count", "neural_kit.rounds": "count",
    "neural_kit.round_ms": "ms",
    "residual_study.cnn_backcast_s": "s", "residual_study.deep_backcast_s": "s",
    "residual_study.shallow_backcast_s": "s", "residual_study.self_s": "s",
}

#: metric -> (layer, functions) whose outermost spans are summed.
SPAN_TIMES = {
    "synth_market.gen_market_s": ("synth_market", {"gen_market"}),
    "tape_io.parse_s": ("tape_io", {"read_tape", "parse_tape"}),
    "tape_io.validate_s": ("tape_io", {"validate"}),
    "tape_io.serialize_s": ("tape_io", {"serialize"}),
    "bucket_panel.build_panels_s": ("bucket_panel", {"build_panels"}),
    "state_space.state_matrix_s": ("state_space", {"state_matrix"}),
    "dual_regression.fit_beta_s": ("dual_regression", {"fit_beta"}),
    "dual_regression.variance_split_s": ("dual_regression", {"variance_split"}),
    "liquidity_lab.cost_series_s": ("liquidity_lab", {"cost_series"}),
    "liquidity_lab.event_study_s": ("liquidity_lab", {"event_study"}),
    "neural_kit.train_s": ("neural_kit", {"train"}),
    "neural_kit.forward_s": ("neural_kit", {"forward_batch", "predict"}),
    "residual_study.cnn_backcast_s": ("residual_study", {"cnn_backcast"}),
    "residual_study.deep_backcast_s": ("residual_study", {"deep_backcast"}),
    "residual_study.shallow_backcast_s": ("residual_study", {"shallow_backcast"}),
}

#: metric -> (layer, functions or None for all): self time, i.e. span
#: time not covered by traced child spans.
SELF_TIMES = {
    "cli.self_s": ("cli", None),
    "liquidity_lab.event_study_self_s": ("liquidity_lab", {"event_study"}),
    "neural_kit.self_s": ("neural_kit", None),
    "residual_study.self_s": ("residual_study", None),
}

COUNTS = ("synth_market.rows", "tape_io.rows", "tape_io.rejected_rows",
          "bucket_panel.days", "bucket_panel.discarded_trades",
          "state_space.flat_entries", "neural_kit.train_calls", "neural_kit.rounds")


def _flat_entries(series, mode) -> int:
    """State entries that are a substituted 0: the bucket's sub-cell
    profile is constant on either day of the pair."""
    buy = np.array([p.fine_buy for p in series.panels])
    sell = np.array([p.fine_sell for p in series.panels])
    if mode.value == "buy":
        prof = buy
    elif mode.value == "sell":
        prof = sell
    elif series.config.geometric_imbalance:
        prof = np.sign(buy - sell) * np.sqrt(buy * sell)
    else:
        prof = buy - sell
    flat = np.ptp(prof, axis=2) == 0
    return int((flat[:-1] | flat[1:]).sum())


#: (layer, function) -> counts taken from its bound arguments and result.
COUNTERS = {
    ("synth_market", "gen_market"):
        lambda a, r: {"synth_market.rows": sum(len(t.records) for t in r.tapes)},
    ("tape_io", "parse_tape"):
        lambda a, r: {"tape_io.rows": r.n_data_rows, "tape_io.rejected_rows": len(r.errors)},
    ("bucket_panel", "build_panels"):
        lambda a, r: {"bucket_panel.days": len(r),
                      "bucket_panel.discarded_trades": r.discarded_trades},
    ("state_space", "state_matrix"):
        lambda a, r: {"state_space.flat_entries": _flat_entries(a["series"], a["mode"])},
    ("neural_kit", "train"):
        lambda a, r: {"neural_kit.train_calls": 1, "neural_kit.rounds": a["rounds"]},
}


def _traced_name(name: str) -> bool:
    return not (name.startswith("_") or name.startswith("write_")
                or (name.startswith("read_") and name.endswith("_csv")))


class Span:
    __slots__ = ("layer", "name", "parent", "duration", "covered")

    def __init__(self, layer: str, name: str, parent: "Span | None"):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.duration = 0.0
        self.covered = 0.0  # time covered by traced child spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"dualspace.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and _traced_name(name)):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        return self

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, layer: str, name: str, func):
        counter = COUNTERS.get((layer, name))
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, name, parent)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.duration = time.perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent.covered += span.duration
                self.spans.append(span)
            if counter:
                counting = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
                if parent is not None:  # counting is tracing overhead, not the caller's
                    parent.covered += time.perf_counter() - counting
            return result

        return wrapper

    def aggregate(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        out: dict[str, float] = {}
        for metric, (layer, names) in SPAN_TIMES.items():
            out[metric] = sum(
                s.duration for s in self.spans
                if s.layer == layer and s.name in names
                and not (s.parent and s.parent.layer == layer and s.parent.name in names))
        for metric, (layer, names) in SELF_TIMES.items():
            out[metric] = sum(s.duration - s.covered for s in self.spans
                              if s.layer == layer and (names is None or s.name in names))
        for metric in COUNTS:
            out[metric] = self.counts.get(metric, 0)
        rounds = out["neural_kit.rounds"]
        out["neural_kit.round_ms"] = 1000.0 * out["neural_kit.train_s"] / rounds if rounds else 0.0
        for layer in LAYERS:  # for the trace file: every layer's self time
            out[f"self.{layer}"] = sum(s.duration - s.covered for s in self.spans
                                       if s.layer == layer)
        return out


def median_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}

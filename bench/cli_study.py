"""`cli_study` workload: the criterion-12 pipeline as users run it, one
`dualspace` process per command, one command at a time.

A pass runs synth, statespace x2, fit x2, backcast and eventstudy with
the arguments of the acceptance suite's end-to-end determinism test,
the market seed taken from the benchmark's seed.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import shutil
import statistics
import sys
import time

import numpy as np

import reference as ref
from common import CheckFailed, Outcome, check, end_to_end, measure, run_child, run_passes

PASS_COMMANDS = 7


def commands(seed: int, root: str) -> list[tuple[str, list[str]]]:
    tapes = f"{root}/tapes"
    sentiment = f"sentiment={tapes}/sentiment.csv"
    return [
        ("synth", ["synth", "--seed", str(seed), "--traders", "2", "--days", "485",
                   "--trades-per-day", "60", "--g-sent", "0.5", "--out-dir", tapes]),
        ("statespace", ["statespace", "--tape", f"{tapes}/t0.csv", "--out-dir", f"{root}/s0"]),
        ("statespace", ["statespace", "--tape", f"{tapes}/t1.csv", "--out-dir", f"{root}/s1"]),
        ("fit", ["fit", "--states", f"{root}/s0/states_imbalance.csv", "--out-dir", f"{root}/f0"]),
        ("fit", ["fit", "--states", f"{root}/s1/states_imbalance.csv", "--out-dir", f"{root}/f1"]),
        ("backcast", ["backcast", "--protocol", "cnn7",
                      "--train-residuals", f"{root}/f0/residuals.csv",
                      "--predict-residuals", f"{root}/f1/residuals.csv",
                      "--index", sentiment, "--runs", "2", "--rounds", "25",
                      "--out-dir", f"{root}/bc"]),
        ("eventstudy", ["eventstudy", "--tape", f"{tapes}/t0.csv", "--index", sentiment,
                        "--permutations", "300", "--rounds", "25", "--seeds", "1,2",
                        "--out-dir", f"{root}/es"]),
    ]


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "dualspace.cli", *args]


def read_rows(path: str) -> np.ndarray:
    """Numeric columns of an artifact CSV (provenance comment and header skipped)."""
    with open(path, encoding="utf-8") as handle:
        lines = [ln for ln in handle.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    first = next(i for i, name in enumerate(header) if name.startswith("b"))
    return np.array([[float(v) for v in ln.split(",")[first:]] for ln in lines[1:]])


def artifact_files(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def check_artifacts(root: str) -> None:
    for fit, states in (("f0", "s0"), ("f1", "s1")):
        x = read_rows(f"{root}/{states}/states_imbalance.csv")
        pred = read_rows(f"{root}/{fit}/predictions.csv")
        resid = read_rows(f"{root}/{fit}/residuals.csv")
        check(np.allclose(pred + resid, x[1:] - x[:-1], rtol=0, atol=1e-12),
              f"{fit}: predictions plus residuals differ from the state differences")
        with open(f"{root}/{fit}/diagnostics.json", encoding="utf-8") as handle:
            diag = json.load(handle)
        live = [k for k in range(x.shape[1]) if k not in diag["degenerate_buckets"]]
        total = np.array(diag["predictor_share"]) + np.array(diag["residual_share"])
        check(np.allclose(total[live], 1.0, rtol=0, atol=1e-9), f"{fit}: P + F != 1")
    with open(f"{root}/es/eventstudy.json", encoding="utf-8") as handle:
        windows = json.load(handle)["windows"]
    pvalues = [w[k] for w in windows for k in ("p_pearson", "p_spearman")]
    check(bool(pvalues) and all(p is not None and 0.0 < p <= 1.0 for p in pvalues),
          f"event-study p-values outside (0, 1]: {pvalues}")


def check_same_artifacts(root: str, first: str) -> None:
    files = artifact_files(first)
    check(artifact_files(root) == files, f"{root}: artifact set differs from the first pass")
    differ = [f for f in files
              if not filecmp.cmp(os.path.join(root, f), os.path.join(first, f), shallow=False)]
    check(not differ, f"{root}: artifacts differ from the first pass: {differ}")


def one_line_json(stdout: str) -> bool:
    lines = stdout.splitlines()
    try:
        return len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    except ValueError:
        return False


def replay(seed: int, workdir: str, root: str, tracer=None) -> float:
    """The pass in this process through cli.run; returns its wall time."""
    from dualspace import cli

    if tracer:
        tracer.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        old = os.getcwd()
        os.chdir(workdir)
        try:
            codes = [cli.run(argv) for _, argv in commands(seed, root)]
        finally:
            os.chdir(old)
        wall = time.perf_counter() - start
    check(codes == [0] * PASS_COMMANDS, f"in-process replay exit codes {codes}")
    return wall


def run(ctx) -> Outcome:
    outcome = Outcome()
    peak = [0.0]
    rows = [0]

    def timed_pass(index: int) -> dict[str, float]:
        root = f"p{index}"
        times: dict[str, float] = {}
        layers: dict[str, float] = {}
        children = []
        for k, (name, args) in enumerate(commands(ctx.seed, root)):
            child, wall, scaled = measure(run_child, cli_argv(args), ctx.workdir)
            children.append((name, child))
            times[f"{k}:{name}"] = (wall, scaled)
            layers[f"cli.{name}_s"] = layers.get(f"cli.{name}_s", 0.0) + child.wall_s
        outcome.attempted += PASS_COMMANDS
        for name, child in children:
            peak[0] = max(peak[0], child.maxrss_mb)
            if child.returncode != 0:
                outcome.failed += 1
                print(f"{name} exited {child.returncode}: {child.stderr[-2000:]}",
                      file=sys.stderr)
            elif not one_line_json(child.stdout):
                outcome.fail_check(f"{name} did not print one JSON line")
        if ctx.tracer:
            outcome.per_pass.append(layers)
        path = os.path.join(ctx.workdir, root)
        try:
            if index == 0:
                rows[0] = sum(ref.read_tape(f"{path}/tapes/{t}.csv")["n_data"]
                              for t in ("t0", "t1"))
                check_artifacts(path)
            else:
                check_same_artifacts(path, os.path.join(ctx.workdir, "p0"))
                shutil.rmtree(path)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            outcome.fail_check(str(exc))
        return times

    passes = run_passes(ctx.seconds, 2, timed_pass)
    end_to_end(outcome, passes, rows[0], peak[0], ctx)
    if ctx.tracer:
        try:
            trace_replay(ctx, outcome)
        except CheckFailed as exc:
            outcome.fail_check(f"in-process replay: {exc}")
    return outcome


def trace_replay(ctx, outcome: Outcome) -> None:
    """Per-layer figures of the pipeline replayed in this process, once
    untraced and once traced (their difference is the tracing overhead);
    both replays must write the first pass's artifacts byte for byte."""
    first = os.path.join(ctx.workdir, "p0")
    outcome.layers["cli.startup_s"] = statistics.median(ctx.setup_walls)
    outcome.layers["cli.artifact_bytes"] = sum(
        os.path.getsize(os.path.join(first, f)) for f in artifact_files(first))
    plain = replay(ctx.seed, ctx.workdir, "r0")
    ctx.tracer.install()
    try:
        traced = replay(ctx.seed, ctx.workdir, "r1", ctx.tracer)
    finally:
        ctx.tracer.uninstall()
    outcome.layers.update(ctx.tracer.aggregate())
    outcome.trace_extra.update(replay_wall_s=plain, replay_traced_wall_s=traced)
    for root in ("r0", "r1"):
        check_same_artifacts(os.path.join(ctx.workdir, root), first)

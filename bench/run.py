"""Benchmark of the dualspace pipeline: one run of one workload.

    python3 bench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the program is imported from
`src/` there.  Set-up happens in fresh processes (their median wall
time is `setup_s`); then whole passes run for about `--seconds`, and
every pass's outputs are checked against computations made apart from
the program.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced
run also writes its spans' figures to `bench/out/trace-*.json`.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib
import json
import os
import shutil
import signal
import sys

import common

WORKLOADS = ("ingest", "backcast", "cli_study")
#: The speed kernel of each workload: parsing builds an object per row;
#: start-up and small-tensor training loops are interpreter-bound.
SPEED_KERNELS = {"ingest": "allocation", "backcast": "arithmetic", "cli_study": "arithmetic"}
#: Layer figures taken in the set-up process, where these layers run.
SETUP_LAYER_METRICS = ("synth_market.gen_market_s", "synth_market.rows", "tape_io.serialize_s")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def same_inputs(a: str, b: str) -> bool:
    """Two set-ups' input directories hold the same data."""
    import numpy as np

    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        pa, pb = os.path.join(a, name), os.path.join(b, name)
        if name.endswith(".npz"):
            with np.load(pa) as x, np.load(pb) as y:
                if sorted(x) != sorted(y) or any(not np.array_equal(x[k], y[k]) for k in x):
                    return False
        elif not filecmp.cmp(pa, pb, shallow=False):
            return False
    return True


def set_up(workload: str, seed: int, workdir: str, trace_json: str | None):
    """Run the set-up processes; returns (their walls, the same at the
    reference speed, inputs directory)."""
    walls = []
    scaled = []
    dirs = []
    for k in range(common.SETUP_REPEATS):
        if workload == "cli_study":
            argv = [sys.executable, "-c", "import dualspace.cli"]
        else:
            dirs.append(os.path.join(workdir, f"inputs{k}"))
            argv = common.python_child("inputs.py", workload, str(seed), dirs[-1])
            if trace_json and k == 0:
                argv.append(trace_json)
        child, wall, at_reference = common.measure(common.run_child, argv)
        if child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode}:\n{child.stderr}")
        walls.append(wall)
        scaled.append(at_reference)
    if not dirs:
        return walls, scaled, workdir
    for other in dirs[1:]:
        if not same_inputs(dirs[0], other):
            raise RuntimeError("two set-ups from the same seed made different inputs")
        shutil.rmtree(other)
    if workload == "ingest":
        child = common.run_child(common.python_child("reference.py", dirs[0]))
        if child.returncode != 0:
            raise RuntimeError(f"reference process exited {child.returncode}:\n{child.stderr}")
    return walls, scaled, dirs[0]


def layer_metrics(outcome, setup_trace: str | None, tracing) -> dict[str, float]:
    """Every per-layer metric of a traced run; 0 for a layer the workload
    does not run."""
    layers = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    if outcome.per_pass:
        layers.update(tracing.median_by_key(outcome.per_pass))
    if setup_trace:
        with open(setup_trace, encoding="utf-8") as handle:
            from_setup = json.load(handle)
        layers.update({k: from_setup[k] for k in SETUP_LAYER_METRICS})
    layers.update(outcome.layers)
    return layers


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that a running child is ended and the run
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dualspace", "__init__.py")):
        print("bench: no program sources at src/dualspace under the working directory",
              file=sys.stderr)
        return 2
    common.configure_environment(root)
    common.pin_to_one_cpu()
    common.use_kernel(SPEED_KERNELS[args.workload])
    import tracer as tracing  # after the environment: it imports numpy

    outdir = os.path.join(common.BENCH_DIR, "out")
    workdir = os.path.join(outdir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    setup_trace = None
    if args.trace and args.workload != "cli_study":
        setup_trace = os.path.join(workdir, "setup-trace.json")
    try:
        walls, scaled, inputs = set_up(args.workload, args.seed, workdir, setup_trace)
        ctx = common.Context(seed=args.seed, seconds=args.seconds, workdir=workdir,
                             inputs=inputs, setup_walls=walls, setup_scaled=scaled,
                             tracer=tracing.Tracer() if args.trace else None)
        outcome = importlib.import_module(args.workload).run(ctx)
        if args.trace:
            layers = layer_metrics(outcome, setup_trace, tracing)
            trace_path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds,
                           "traced_end_to_end": {k: v for k, (v, _) in outcome.metrics.items()},
                           "layers": layers, "per_pass": outcome.per_pass,
                           **outcome.trace_extra}, handle, indent=1, sort_keys=True)
            outcome.metrics = {name: (layers[name], unit)
                               for name, unit in tracing.LAYER_METRICS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(outcome.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

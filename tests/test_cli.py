import argparse
import filecmp
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dualspace import cli, liquidity_lab, state_space, synth_market
from dualspace.tape_io import read_table_csv

from oracles import planted_trajectory, random_rotation


def run_ok(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0, out
    return json.loads(out[-1])


@pytest.fixture(scope="module")
def tape_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("tapes")
    code = cli.run(["synth", "--seed", "7", "--days", "485", "--traders", "2",
                    "--trades-per-day", "120", "--g-sent", "0.6",
                    "--out-dir", str(outdir)])
    assert code == 0
    return outdir


def test_synth_then_ingest_round_trip(capsys, tape_dir):
    summary = run_ok(capsys, ["ingest", "--tape", str(tape_dir / "t0.csv"),
                              "--out-dir", str(tape_dir / "ingest")])
    assert summary["rejected"] == 0
    assert summary["records"] > 10_000
    report = json.loads((tape_dir / "ingest" / "t0.validation.json").read_text())
    assert report["n_rejected"] == 0
    assert "provenance" in report


def test_summarize_outputs_statistics(capsys, tape_dir):
    summary = run_ok(capsys, ["summarize", "--tape", str(tape_dir / "t0.csv")])
    assert summary["trade_count"] > 0
    assert summary["min_price"] <= summary["avg_price"] <= summary["max_price"]
    buys = run_ok(capsys, ["summarize", "--tape", str(tape_dir / "t0.csv"),
                           "--side", "B"])
    assert buys["trade_count"] < summary["trade_count"]
    assert buys["unknown_side_fraction"] == 0.0


def test_panels_and_statespace_artifacts(capsys, tape_dir, tmp_path):
    run_ok(capsys, ["panels", "--tape", str(tape_dir / "t0.csv"), "--fine",
                    "--out-dir", str(tmp_path)])
    assert (tmp_path / "panels_fine.csv").exists()
    with open(tmp_path / "panels.csv") as handle:
        header, rows = read_table_csv(handle)
    assert header[:3] == ["date", "bucket", "buy_vol"]
    assert np.isfinite(np.array([row[1:] for row in rows], dtype=float)).all()
    # no b<digits> value columns: not a heatmap artifact
    assert cli.run(["emit-plotdata", "--artifact", str(tmp_path / "panels.csv"),
                    "--kind", "heatmap", "--out", str(tmp_path / "h.csv")]) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not (tmp_path / "h.csv").exists()
    summary = run_ok(capsys, ["statespace", "--tape", str(tape_dir / "t0.csv"),
                              "--mode", "imbalance", "--out-dir", str(tmp_path)])
    assert summary["rows"] == 484 and summary["buckets"] == 16
    with open(tmp_path / "states_imbalance.csv") as handle:
        states = state_space.read_state_csv(handle)
    assert states.values.shape == (484, 16)


def test_fit_on_planted_states_reports_tiny_residual(capsys, tmp_path):
    states = planted_trajectory(random_rotation(3), seed=5, n_rows=200)
    path = tmp_path / "states.csv"
    with open(path, "w") as handle:
        state_space.write_state_csv(states, handle)
    summary = run_ok(capsys, ["fit", "--states", str(path),
                              "--out-dir", str(tmp_path / "fit")])
    assert set(summary) == {"command", "rows", "gram_rank", "max_abs_residual", "out"}
    assert summary["max_abs_residual"] < 1e-8
    diag = json.loads((tmp_path / "fit" / "diagnostics.json").read_text())
    assert diag["gram_rank"] >= 16


def test_fit_on_one_row_state_file_is_a_data_error(capsys, tmp_path):
    states = planted_trajectory(random_rotation(3), seed=5, n_rows=1)
    path = tmp_path / "one.csv"
    with open(path, "w") as handle:
        state_space.write_state_csv(states, handle)
    assert cli.run(["fit", "--states", str(path), "--out-dir", str(tmp_path / "fit")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert "at least 2 rows" in captured.err
    assert captured.out == ""


def test_fit_on_a_state_file_of_several_modes_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("date,mode,b0,b1\n2009-01-05,buy,0.1,0.2\n2009-01-06,sell,0.3,0.4\n"
                    "2009-01-07,imbalance,0.5,0.6\n")
    assert cli.run(["fit", "--states", str(path), "--out-dir", str(tmp_path / "fit")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and "buy, imbalance, sell" in captured.err
    assert captured.out == "" and not (tmp_path / "fit").exists()


def test_backcast_cnn_via_cli(capsys, tape_dir, tmp_path):
    for trader in ("t0", "t1"):
        run_ok(capsys, ["statespace", "--tape", str(tape_dir / f"{trader}.csv"),
                        "--mode", "imbalance", "--out-dir", str(tmp_path / trader)])
        run_ok(capsys, ["fit", "--states",
                        str(tmp_path / trader / "states_imbalance.csv"),
                        "--out-dir", str(tmp_path / trader)])
    summary = run_ok(capsys, [
        "backcast", "--protocol", "cnn7",
        "--train-residuals", str(tmp_path / "t0" / "residuals.csv"),
        "--predict-residuals", str(tmp_path / "t1" / "residuals.csv"),
        "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
        "--runs", "2", "--rounds", "30", "--out-dir", str(tmp_path / "bc")])
    assert "sentiment" in summary["correlations"]
    payload = json.loads((tmp_path / "bc" / "backcast_cnn7.json").read_text())
    assert payload["protocol"] == "cnn7"
    assert len(payload["results"][0]["runs"]) == 2


def test_backcast_cnn_same_residual_file_is_a_data_error(capsys, tape_dir, tmp_path):
    run_ok(capsys, ["statespace", "--tape", str(tape_dir / "t0.csv"),
                    "--out-dir", str(tmp_path)])
    run_ok(capsys, ["fit", "--states", str(tmp_path / "states_imbalance.csv"),
                    "--out-dir", str(tmp_path)])
    code = cli.run(["backcast", "--protocol", "cnn7",
                    "--train-residuals", str(tmp_path / "residuals.csv"),
                    "--predict-residuals", str(tmp_path / "residuals.csv"),
                    "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
                    "--runs", "1", "--rounds", "1", "--out-dir", str(tmp_path / "bc")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert "same trader" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "bc").exists()


def test_backcast_shallow_via_cli(capsys, tape_dir, tmp_path):
    run_ok(capsys, ["statespace", "--tape", str(tape_dir / "t0.csv"),
                    "--out-dir", str(tmp_path)])
    run_ok(capsys, ["fit", "--states", str(tmp_path / "states_imbalance.csv"),
                    "--out-dir", str(tmp_path)])
    summary = run_ok(capsys, [
        "backcast", "--protocol", "shallow",
        "--train-residuals", str(tmp_path / "residuals.csv"),
        "--index", f"bond_yield={tape_dir / 'bond_yield.csv'}",
        "--out-dir", str(tmp_path / "bc")])
    assert "bond_yield" in summary["correlations"]


def test_liquidity_and_plotdata(capsys, tape_dir, tmp_path):
    run_ok(capsys, ["liquidity", "--tape", str(tape_dir / "t0.csv"),
                    "--out-dir", str(tmp_path)])
    heat = run_ok(capsys, ["emit-plotdata",
                           "--artifact", str(tmp_path / "lambda.csv"),
                           "--kind", "series", "--out", str(tmp_path / "s.csv")])
    assert heat["rows"] > 0


def test_emit_heatmap_shape(capsys, tape_dir, tmp_path):
    run_ok(capsys, ["statespace", "--tape", str(tape_dir / "t0.csv"),
                    "--out-dir", str(tmp_path)])
    summary = run_ok(capsys, ["emit-plotdata",
                              "--artifact", str(tmp_path / "states_imbalance.csv"),
                              "--kind", "heatmap", "--out", str(tmp_path / "h.csv")])
    assert summary["rows"] == 484 * 16  # 7744 long-format rows
    lines = (tmp_path / "h.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 484 * 16


def test_emit_plotdata_empty_artifact(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("date,value\n")
    summary = run_ok(capsys, ["emit-plotdata", "--artifact", str(path),
                              "--kind", "series", "--out", str(tmp_path / "o.csv")])
    assert summary["rows"] == 0
    assert (tmp_path / "o.csv").read_text() == "date,value\n"


def test_emit_plotdata_zero_line_artifact_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    for kind in ("series", "heatmap"):
        assert cli.run(["emit-plotdata", "--artifact", str(path), "--kind", kind,
                        "--out", str(tmp_path / "o.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error:")
        assert "Traceback" not in captured.err
    assert not (tmp_path / "o.csv").exists()


def test_emit_bars_from_diagnostics(capsys, tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"predictor_share": [0.5, 0.25]}))
    summary = run_ok(capsys, ["emit-plotdata", "--artifact", str(path),
                              "--kind", "bars", "--out", str(tmp_path / "b.csv")])
    assert summary["rows"] == 2


def test_pdo_demo(capsys, tmp_path):
    summary = run_ok(capsys, ["pdo-demo", "--out-dir", str(tmp_path),
                              "--drift", "0.3"])
    assert summary["max_error_vs_closed_form"] < 1e-6
    assert (tmp_path / "grid_evolved.csv").exists()


def _modules_after(*argvs):
    """Modules a fresh process holds after running each argv through cli.run."""
    code = ("import json, sys; from dualspace import cli; "
            f"codes = [cli.run(argv) for argv in {list(argvs)!r}]; "
            "print(json.dumps([codes, sorted(sys.modules)]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    codes, modules = json.loads(out.splitlines()[-1])
    assert codes == [0] * len(argvs), codes
    return set(modules)


def test_import_leaves_scipy_stats_unloaded(tape_dir, residual_dir, tmp_path):
    # scipy.stats costs more than a second of start-up, scipy.linalg about
    # a third and scipy.special about 0.3 s; commands that never use them
    # must not pay for them, and each command imports only the layers it runs
    heavy = {"scipy.stats", "scipy.linalg", "scipy.special"}
    loaded = _modules_after()
    assert not loaded & heavy
    assert {m for m in loaded if m.startswith("dualspace")} == {
        "dualspace", "dualspace.cli", "dualspace.tape_io"}
    index = f"sentiment={tape_dir / 'sentiment.csv'}"
    loaded = _modules_after(
        ["eventstudy", "--tape", str(tape_dir / "t0.csv"), "--index", index,
         "--permutations", "20", "--rounds", "2", "--seeds", "1",
         "--out-dir", str(tmp_path / "es")],
        ["backcast", "--protocol", "cnn7",
         "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
         "--predict-residuals", str(residual_dir / "t1" / "residuals.csv"),
         "--index", index, "--runs", "1", "--rounds", "2",
         "--out-dir", str(tmp_path / "bc")])
    assert "dualspace.liquidity_lab" in loaded and not loaded & heavy
    unused = {f"dualspace.{m}" for m in ("neural_kit", "residual_study", "liquidity_lab",
                                         "synth_market", "pdo_kernel")}
    assert not _modules_after(["statespace", "--tape", str(tape_dir / "t0.csv"),
                               "--out-dir", str(tmp_path / "s")]) & (unused | heavy)
    assert not _modules_after(["fit", "--states", str(tmp_path / "s" / "states_imbalance.csv"),
                               "--out-dir", str(tmp_path / "f")]) & (unused | heavy)
    loaded = _modules_after(["synth", "--seed", "1", "--days", "30",
                             "--out-dir", str(tmp_path / "synth")])
    assert not loaded & heavy
    assert {m for m in loaded if m.startswith("dualspace")} == {
        "dualspace", "dualspace.cli", "dualspace.tape_io", "dualspace.calendars",
        "dualspace.synth_market"}


def test_exit_codes(capsys, tmp_path):
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()
    assert cli.run(["fit", "--states", str(tmp_path / "missing.csv")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


@pytest.fixture(scope="module")
def residual_dir(tape_dir, tmp_path_factory):
    """Residual files of both synthetic traders, at <dir>/t0 and <dir>/t1."""
    outdir = tmp_path_factory.mktemp("residuals")
    for trader in ("t0", "t1"):
        for argv in (["statespace", "--tape", str(tape_dir / f"{trader}.csv")],
                     ["fit", "--states", str(outdir / trader / "states_imbalance.csv")]):
            assert cli.run(argv + ["--out-dir", str(outdir / trader)]) == 0
    return outdir


def test_exit_code_numeric_failure(capsys, tape_dir, residual_dir, tmp_path):
    code = cli.run(["backcast", "--protocol", "deep10",
                    "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
                    "--predict-residuals", str(residual_dir / "t1" / "residuals.csv"),
                    "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
                    "--learning-rate", "1e9", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["deep10", "cnn7"])
def test_backcast_two_file_protocol_without_predict_residuals(
        capsys, tape_dir, residual_dir, tmp_path, protocol):
    code = cli.run(["backcast", "--protocol", protocol,
                    "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
                    "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
                    "--out-dir", str(tmp_path / "bc")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert "--predict-residuals" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "bc").exists()


def test_backcast_deep10_same_residual_file_is_a_data_error(
        capsys, tape_dir, residual_dir, tmp_path):
    residuals = str(residual_dir / "t0" / "residuals.csv")
    code = cli.run(["backcast", "--protocol", "deep10",
                    "--train-residuals", residuals, "--predict-residuals", residuals,
                    "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
                    "--rounds", "1", "--out-dir", str(tmp_path / "bc")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert "same trader" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "bc").exists()


@pytest.mark.parametrize("protocol, flag", [
    ("shallow", ["--predict-residuals", "{residuals}/t1/residuals.csv"]),
    ("shallow", ["--runs", "9"]),
    ("shallow", ["--rounds", "1"]),
    ("shallow", ["--learning-rate", "5"]),
    ("shallow", ["--activation", "relu"]),
    ("deep10", ["--runs", "9"]),
    ("deep10", ["--activation", "relu"]),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_backcast_flag_the_protocol_does_not_read_is_a_usage_error(
        capsys, tape_dir, residual_dir, tmp_path, protocol, flag):
    argv = ["backcast", "--protocol", protocol,
            "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
            "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
            "--out-dir", str(tmp_path / "bc")]
    if protocol == "deep10":
        argv += ["--predict-residuals", str(residual_dir / "t1" / "residuals.csv")]
    code = cli.run(argv + [arg.format(residuals=residual_dir) for arg in flag])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("usage error:") and flag[0] in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not (tmp_path / "bc").exists()


def test_backcast_config_keys_the_protocol_does_not_read_stay_accepted(
        capsys, tape_dir, residual_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"runs": 9, "rounds": 1, "learning_rate": 5,
                                  "activation": "relu"}))
    argv = ["backcast", "--protocol", "shallow",
            "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
            "--index", f"sentiment={tape_dir / 'sentiment.csv'}"]
    run_ok(capsys, argv + ["--config", str(config), "--out-dir", str(tmp_path / "bc")])
    # nor do they enter the provenance hash
    run_ok(capsys, argv + ["--out-dir", str(tmp_path / "plain")])
    assert filecmp.cmp(tmp_path / "plain" / "backcast_shallow.json",
                       tmp_path / "bc" / "backcast_shallow.json", shallow=False)


@pytest.mark.parametrize("config", [{"activation": "elu"}, {"runs": 0}],
                         ids=["activation", "runs"])
def test_backcast_checks_only_the_config_keys_its_protocol_reads(
        capsys, tape_dir, residual_dir, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run_ok(capsys, ["backcast", "--protocol", "shallow",
                    "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
                    "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
                    "--config", str(path), "--out-dir", str(tmp_path / "bc")])


def test_undeclared_config_key_is_a_data_error(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trades-per-day": 5, "sede": 3}))
    code = cli.run(["synth", "--days", "5", "--traders", "1", "--config", str(config),
                    "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("data error:") and "'sede'" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_a_flag_and_the_same_config_value_hash_alike(capsys, tape_dir, residual_dir,
                                                     tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"learning_rate": 5}))
    argv = ["backcast", "--protocol", "deep10", "--rounds", "1",
            "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
            "--predict-residuals", str(residual_dir / "t1" / "residuals.csv"),
            "--index", f"sentiment={tape_dir / 'sentiment.csv'}"]
    hashes = []
    for name, extra in (("flag", ["--learning-rate", "5"]), ("config", ["--config", str(config)])):
        run_ok(capsys, argv + extra + ["--out-dir", str(tmp_path / name)])
        payload = json.loads((tmp_path / name / "backcast_deep10.json").read_text())
        hashes.append(payload["provenance"]["options_hash"])
    assert hashes[0] == hashes[1]


#: each subcommand's flags besides -h; --config on the commands that have
#: OPTIONS, --out-dir on the commands that write artifacts there
SUBCOMMAND_FLAGS = {
    "synth": "--config --days --g-ret --g-sent --g-yield --out-dir --seed --shock --snr "
             "--traders --trades-per-day",
    "ingest": "--out-dir --tape",
    "summarize": "--side --tape",
    "panels": "--buckets --config --delta --fine --geometric-imbalance --out-dir --subcells "
              "--tape",
    "statespace": "--buckets --config --delta --geometric-imbalance --mode --out-dir "
                  "--subcells --tape",
    "fit": "--out-dir --states",
    "backcast": "--activation --config --index --learning-rate --out-dir --predict-residuals "
                "--protocol --rounds --runs --seed --train-residuals",
    "liquidity": "--buckets --config --delta --geometric-imbalance --out-dir --subcells --tape",
    "eventstudy": "--activation --buckets --config --delta --geometric-imbalance --index "
                  "--learning-rate --n-periods --out-dir --period-length --permutations "
                  "--rounds --seeds --subcells --tape --training-periods",
    "pdo-demo": "--config --diffusion --drift --out-dir --points --sigma0 --time",
    "emit-plotdata": "--artifact --kind --out",
}


def test_each_subcommand_takes_exactly_its_flags():
    parser = cli._build_parser()
    subparsers = next(action.choices for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in sub._actions for flag in action.option_strings}
             for name, sub in subparsers.items()}
    assert flags == {name: set(names.split()) | {"-h", "--help"}
                     for name, names in SUBCOMMAND_FLAGS.items()}


#: a command line each command would take; the files need not exist
COMMAND_LINES = {
    "ingest": ["ingest", "--tape", "t.csv"],
    "summarize": ["summarize", "--tape", "t.csv"],
    "fit": ["fit", "--states", "s.csv"],
    "emit-plotdata": ["emit-plotdata", "--artifact", "a.csv", "--kind", "series",
                      "--out", "o.csv"],
}


@pytest.mark.parametrize("command, flag, value", [
    *((command, "--config", "cfg.json") for command in ("ingest", "summarize", "fit",
                                                         "emit-plotdata")),
    *((command, "--out-dir", "d") for command in ("summarize", "emit-plotdata")),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, command, flag, value):
    assert cli.run(COMMAND_LINES[command] + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and flag in captured.err
    assert len(captured.err.strip().splitlines()) == 1


CONFIG_KINDS = [
    # (command, key, config value, exit code)
    ("statespace", "geometric_imbalance", "false", 2),
    ("statespace", "geometric_imbalance", 0, 2),
    ("statespace", "mode", "both", 2),
    ("backcast", "runs", 2.5, 2),
    ("backcast", "protocol", "cnn8", 2),
    ("synth", "seed", 5.0, 2),
    ("synth", "seed", True, 2),
    ("synth", "g_sent", "0.5", 2),
    ("synth", "snr", 1e400, 2),
    ("eventstudy", "seeds", 1, 2),
    ("synth", "trades_per_day", 250, 0),
    ("statespace", "geometric_imbalance", True, 0),
]


@pytest.mark.parametrize("command, key, value, code", CONFIG_KINDS,
                         ids=[f"{c[1]}={json.dumps(c[2])}" for c in CONFIG_KINDS])
def test_config_value_must_be_of_its_option_kind(capsys, tape_dir, residual_dir, tmp_path,
                                                 command, key, value, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    index = f"sentiment={tape_dir / 'sentiment.csv'}"
    argv = {"synth": ["synth", "--days", "5", "--traders", "1"],
            "statespace": ["statespace", "--tape", str(tape_dir / "t0.csv")],
            "backcast": ["backcast", "--index", index,
                         "--train-residuals", str(residual_dir / "t0" / "residuals.csv")],
            "eventstudy": ["eventstudy", "--tape", str(tape_dir / "t0.csv"),
                           "--index", index]}[command]
    assert cli.run(argv + ["--config", str(config), "--out-dir", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("data error:") and repr(key) in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["pdo-demo-out-dir-under-a-file", "emit-plotdata-missing-dir"])
def test_output_that_cannot_be_written_is_a_data_error(capsys, tmp_path, case):
    afile = tmp_path / "afile"
    afile.write_text("")
    diagnostics = tmp_path / "diagnostics.json"
    diagnostics.write_text(json.dumps({"predictor_share": [0.5, 0.25]}))
    target = {"pdo-demo-out-dir-under-a-file": afile / "sub",
              "emit-plotdata-missing-dir": tmp_path / "missing" / "x.csv"}[case]
    argv = {"pdo-demo-out-dir-under-a-file": ["pdo-demo", "--out-dir", str(target)],
            "emit-plotdata-missing-dir": ["emit-plotdata", "--artifact", str(diagnostics),
                                          "--kind", "bars", "--out", str(target)]}[case]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:") and str(target) in lines[0]
    assert captured.out == ""


def test_eventstudy_trains_holding_only_the_cost_series(capsys, tmp_path, monkeypatch):
    """The tape and its panel series (6.2 MB on 485 days) are dropped
    before the event study trains: its traced peak is near 1.4 MB, and
    8.1 MB when both were kept."""
    run_ok(capsys, ["synth", "--seed", "1", "--days", "485", "--trades-per-day", "15",
                    "--out-dir", str(tmp_path)])
    event_study, peaks = liquidity_lab.event_study, []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        report = event_study(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return report

    monkeypatch.setattr(liquidity_lab, "event_study", traced)
    tracemalloc.start()
    try:
        run_ok(capsys, ["eventstudy", "--tape", str(tmp_path / "t0.csv"),
                        "--index", f"sentiment={tmp_path / 'sentiment.csv'}",
                        "--permutations", "50", "--rounds", "3", "--seeds", "1",
                        "--out-dir", str(tmp_path / "es")])
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 3_000_000, peaks


def test_eventstudy_without_permutations_is_a_data_error(capsys, tape_dir, tmp_path):
    code = cli.run(["eventstudy", "--tape", str(tape_dir / "t0.csv"),
                    "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
                    "--permutations", "0", "--rounds", "2", "--seeds", "1",
                    "--out-dir", str(tmp_path / "es")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:") and "permutation" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "es").exists()


MALFORMED_INPUTS = {
    "heatmap-short-row": ("emit-plotdata", "states.csv",
                          "date,mode,b0,b1\n2009-01-05,imbalance,0.5\n", "heatmap"),
    "heatmap-no-value-columns": ("emit-plotdata", "panels.csv",
                                 "date,bucket,buy_vol,buy_vwap\n2009-01-05,0,1908.0,12.03\n",
                                 "heatmap"),
    "series-short-row": ("emit-plotdata", "lambda.csv",
                         "date,value\n2009-01-05,0.5\n2009-01-06\n", "series"),
    "bars-share-not-a-list": ("emit-plotdata", "diagnostics.json",
                              json.dumps({"predictor_share": 0.5}), "bars"),
    "bars-payload-not-an-object": ("emit-plotdata", "diagnostics.json", "[0.5]", "bars"),
    "header-only-index": ("backcast", "sentiment.csv", "month,value\n", None),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_is_a_data_error(capsys, residual_dir, tmp_path, case):
    command, name, text, kind = MALFORMED_INPUTS[case]
    path = tmp_path / name
    path.write_text(text)
    if command == "emit-plotdata":
        argv = ["emit-plotdata", "--artifact", str(path), "--kind", kind,
                "--out", str(tmp_path / "out.csv")]
    else:
        argv = ["backcast", "--protocol", "shallow",
                "--train-residuals", str(residual_dir / "t0" / "residuals.csv"),
                "--index", f"sentiment={path}", "--out-dir", str(tmp_path / "bc")]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "bc").exists()


BAD_OPTION_VALUES = {
    "synth-zero-days": ["synth", "--days", "0"],
    "synth-negative-trades-per-day": ["synth", "--trades-per-day", "-3", "--days", "5"],
    "synth-config-seed-not-a-number": ["synth", "--config", "{config}"],
    "synth-g-sent-nan": ["synth", "--g-sent", "nan", "--days", "5", "--traders", "1",
                         "--trades-per-day", "5"],
    "synth-negative-traders": ["synth", "--traders", "-1", "--days", "5"],
    "synth-negative-spread-shock": ["synth", "--days", "30", "--traders", "1",
                                    "--shock", "0:10:1:-1"],
    "synth-nan-volume-shock": ["synth", "--days", "30", "--traders", "1",
                               "--shock", "0:10:nan:1"],
    "pdo-demo-one-point": ["pdo-demo", "--points", "1"],
    "pdo-demo-negative-time": ["pdo-demo", "--time", "-1"],
    # 7.1 PiB of float64, past a 47-bit address space: refused at once
    "pdo-demo-points-past-memory": ["pdo-demo", "--points", "1000000000000000"],
    "backcast-zero-runs": ["backcast", "--protocol", "cnn7", "--runs", "0",
                           "--train-residuals", "{residuals}/t0/residuals.csv",
                           "--predict-residuals", "{residuals}/t1/residuals.csv",
                           "--index", "sentiment={tapes}/sentiment.csv"],
    "backcast-unknown-activation": ["backcast", "--protocol", "cnn7", "--activation", "elu",
                                    "--train-residuals", "{residuals}/t0/residuals.csv",
                                    "--predict-residuals", "{residuals}/t1/residuals.csv",
                                    "--index", "sentiment={tapes}/sentiment.csv"],
}


@pytest.mark.parametrize("case", list(BAD_OPTION_VALUES))
def test_bad_option_value_is_one_error_line(capsys, tape_dir, residual_dir, tmp_path, case):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": "x"}))
    argv = [arg.format(config=config, residuals=residual_dir, tapes=tape_dir)
            for arg in BAD_OPTION_VALUES[case]]
    code = cli.run(argv + ["--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert captured.err.startswith(("usage error:", "data error:"))
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("value", [None, [5], {"n": 5}], ids=["null", "list", "object"])
@pytest.mark.parametrize("command", ["synth", "eventstudy"])
def test_config_value_of_wrong_type_is_a_data_error(capsys, tape_dir, tmp_path, command,
                                                   value):
    key = {"synth": "seed", "eventstudy": "permutations"}[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    argv = {"synth": ["synth", "--days", "5", "--traders", "1"],
            "eventstudy": ["eventstudy", "--tape", str(tape_dir / "t0.csv"),
                           "--index", f"sentiment={tape_dir / 'sentiment.csv'}"]}[command]
    code = cli.run(argv + ["--config", str(config), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("data error:") and repr(key) in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize("value", ["1e400", "-Infinity", "NaN"])
@pytest.mark.parametrize("command", ["synth", "backcast", "eventstudy"])
def test_config_number_that_is_not_finite_is_a_data_error(capsys, tape_dir, residual_dir,
                                                          tmp_path, command, value):
    key = {"synth": "days", "backcast": "rounds", "eventstudy": "rounds"}[command]
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": {value}}}')  # JSON reads 1e400 as inf
    argv = {"synth": ["synth", "--traders", "1"],
            "backcast": ["backcast", "--protocol", "shallow", "--train-residuals",
                         str(residual_dir / "t0" / "residuals.csv"),
                         "--index", f"sentiment={tape_dir / 'sentiment.csv'}"],
            "eventstudy": ["eventstudy", "--tape", str(tape_dir / "t0.csv"),
                           "--index", f"sentiment={tape_dir / 'sentiment.csv'}"]}[command]
    code = cli.run(argv + ["--config", str(config), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("data error:") and repr(key) in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


def _cli_process(argv):
    """`dualspace argv` run as its own process, with its output captured."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "dualspace.cli", *argv],
                          env=env, capture_output=True, text=True)


def test_residual_file_without_value_columns_is_a_data_error(tape_dir, tmp_path):
    # run as a process, so that any numpy warning would reach its stderr
    path = tmp_path / "r.csv"
    path.write_text("date\n2009-01-05\n2009-01-06\n")
    done = _cli_process(["backcast", "--protocol", "shallow", "--train-residuals", str(path),
                         "--index", f"sentiment={tape_dir / 'sentiment.csv'}",
                         "--out-dir", str(tmp_path / "out")])
    assert done.returncode == 2
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:")
    assert "value columns" in lines[0] and "Warning" not in done.stderr
    assert done.stdout == ""


def _first_row_last(path, out):
    """Copy a CSV artifact with its first data row moved to the end."""
    lines = path.read_text().splitlines(keepends=True)
    head = 1 + next(i for i, line in enumerate(lines) if not line.startswith("#"))
    out.write_text("".join(lines[:head] + lines[head + 1:] + lines[head:head + 1]))
    return out


def _first_cell(path, out, value, column=1):
    """Copy a CSV artifact with the given column of its first data row
    replaced by `value`."""
    lines = path.read_text().splitlines(keepends=True)
    head = 1 + next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[head].split(",")
    fields[column] = value
    lines[head] = ",".join(fields)
    out.parent.mkdir(exist_ok=True)
    out.write_text("".join(lines))
    return out


MALFORMED_ARTIFACTS = {
    "backcast-one-column-index": "backcast",
    "eventstudy-one-column-index": "eventstudy",
    "backcast-residual-rows-out-of-order": "backcast",
    "fit-state-rows-out-of-order": "fit",
    "fit-nan-state": "fit",
    # a non-finite residual, in either role, for every protocol that reads it
    "backcast-nan-predict-residual": "backcast",
    "backcast-inf-predict-residual": "backcast",
    "backcast-nan-train-residual": "backcast",
    "backcast-cnn7-nan-predict-residual": "backcast",
    "backcast-cnn7-nan-train-residual": "backcast",
    "backcast-shallow-nan-train-residual": "backcast",
}


@pytest.mark.parametrize("case", list(MALFORMED_ARTIFACTS))
def test_malformed_artifact_is_one_data_error_line(tape_dir, residual_dir, tmp_path, case):
    # run as a process, so that a traceback would reach its stderr
    index = tape_dir / "sentiment.csv"
    residuals = residual_dir / "t0" / "residuals.csv"
    predict = residual_dir / "t1" / "residuals.csv"
    states = residual_dir / "t0" / "states_imbalance.csv"
    if case.endswith("one-column-index"):
        index = tmp_path / "sentiment.csv"
        index.write_text("month\n2009-01\n2009-02\n")
    elif case == "backcast-residual-rows-out-of-order":
        residuals = _first_row_last(residuals, tmp_path / "residuals.csv")
    elif case.endswith("predict-residual"):
        value = "inf" if "-inf-" in case else "nan"
        predict = _first_cell(predict, tmp_path / "t1" / "residuals.csv", value)
    elif case.endswith("train-residual"):
        residuals = _first_cell(residuals, tmp_path / "t0" / "residuals.csv", "nan")
    elif case == "fit-nan-state":  # the first bucket value, after date and mode
        states = _first_cell(states, tmp_path / "states.csv", "nan", column=2)
    else:
        states = _first_row_last(states, tmp_path / "states.csv")
    protocol = next((p for p in ("cnn7", "shallow") if f"-{p}-" in case), "deep10")
    backcast = ["backcast", "--protocol", protocol, "--train-residuals", str(residuals),
                "--index", f"sentiment={index}"]
    if protocol != "shallow":
        backcast += ["--predict-residuals", str(predict)]
    if protocol == "cnn7":
        backcast += ["--runs", "1", "--rounds", "3"]
    argv = {"backcast": backcast,
            "eventstudy": ["eventstudy", "--tape", str(tape_dir / "t0.csv"),
                           "--index", f"sentiment={index}"],
            "fit": ["fit", "--states", str(states)]}[MALFORMED_ARTIFACTS[case]]
    done = _cli_process(argv + ["--out-dir", str(tmp_path / "out")])
    assert done.returncode == 2, done.stderr
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("command", ["eventstudy", "backcast"])
def test_non_finite_index_value_is_a_data_error(capsys, tape_dir, residual_dir, tmp_path,
                                                command):
    text = (tape_dir / "sentiment.csv").read_text()
    path = tmp_path / "sentiment.csv"
    path.write_text(re.sub(r"(?m)^2010-06,.*$", "2010-06,nan", text))
    assert path.read_text() != text
    argv = {"eventstudy": ["eventstudy", "--tape", str(tape_dir / "t0.csv"),
                           "--permutations", "20", "--rounds", "2", "--seeds", "1"],
            "backcast": ["backcast", "--protocol", "shallow", "--train-residuals",
                         str(residual_dir / "t0" / "residuals.csv")]}[command]
    code = cli.run(argv + ["--index", f"sentiment={path}", "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("data error:") and "finite" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "days": 60, "traders": 1,
                                  "trades_per_day": 40}))
    s1 = run_ok(capsys, ["synth", "--config", str(config),
                         "--out-dir", str(tmp_path / "a")])
    assert s1["seed"] == 5
    s2 = run_ok(capsys, ["synth", "--config", str(config), "--seed", "9",
                         "--out-dir", str(tmp_path / "b")])
    assert s2["seed"] == 9


def test_repeated_runs_are_byte_identical(capsys, tmp_path):
    for sub in ("one", "two"):
        run_ok(capsys, ["synth", "--seed", "13", "--days", "90", "--traders", "1",
                        "--trades-per-day", "50", "--out-dir", str(tmp_path / sub)])
        run_ok(capsys, ["statespace", "--tape", str(tmp_path / sub / "t0.csv"),
                        "--out-dir", str(tmp_path / sub)])
        run_ok(capsys, ["fit", "--states",
                        str(tmp_path / sub / "states_imbalance.csv"),
                        "--out-dir", str(tmp_path / sub)])
    for name in ("t0.csv", "states_imbalance.csv", "beta.csv", "residuals.csv",
                 "diagnostics.json"):
        assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                           shallow=False), name


def test_env_var_default_outdir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    run_ok(capsys, ["synth", "--seed", "1", "--days", "40", "--traders", "1",
                    "--trades-per-day", "30"])
    assert (tmp_path / "envout" / "t0.csv").exists()


def test_eventstudy_marks_shocked_window(capsys, tmp_path):
    # liquidity-drought scenario: concentrated flow, wide spread tripled
    # inside days [240, 360), strong sentiment coupling
    config = tmp_path / "market.json"
    config.write_text(json.dumps({
        "seed": 201, "traders": 1, "trades_per_day": 250,
        "g_sent": 0.9, "spread": 2.5, "sentiment_ar": 0.2,
        "anchor_max_offset": 1.8, "anchor_buy_reach": 0.7,
        "anchor_sell_reach": 1.2, "buy_width": 0.4, "sell_width": 0.7,
        "shock": "240:360:1:3",
    }))
    run_ok(capsys, ["synth", "--config", str(config), "--out-dir", str(tmp_path)])
    run_ok(capsys, ["eventstudy", "--tape", str(tmp_path / "t0.csv"),
                    "--index", f"sentiment={tmp_path / 'sentiment.csv'}",
                    "--permutations", "2000", "--out-dir", str(tmp_path / "es")])
    payload = json.loads((tmp_path / "es" / "eventstudy.json").read_text())
    shocked = next(w for w in payload["windows"] if w["days"] == [240, 360])
    assert shocked["p_spearman"] < 0.05


@pytest.mark.parametrize("key, value", [
    ("anchor_buy_reach", 0), ("anchor_buy_reach", 1e-300), ("anchor_buy_reach", 1e-310),
    ("anchor_sell_reach", -1), ("anchor_max_offset", -3), ("sentiment_ar", 1e10),
    ("sentiment_ar", -1)])
def test_out_of_range_shape_key_is_a_data_error(tmp_path, key, value):
    # run as a process, so that any numpy warning would reach its stderr
    config = tmp_path / "market.json"
    config.write_text(json.dumps({key: value}))
    done = _cli_process(["synth", "--days", "30", "--traders", "1", "--config", str(config),
                         "--out-dir", str(tmp_path / "out")])
    assert done.returncode == 2, done.stderr
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:") and key in lines[0]
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr


def test_tape_that_is_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"Trddt,Stkprc,Parcha,Trdtims\n2009-08-06,10.05,S,425\n"
                     b"2009-08-06,10.2,\xe9,81\n")
    done = _cli_process(["ingest", "--tape", str(path), "--out-dir", str(tmp_path / "out")])
    assert done.returncode == 2
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error:") and "utf-8" in lines[0]
    assert "Traceback" not in done.stderr and done.stdout == ""

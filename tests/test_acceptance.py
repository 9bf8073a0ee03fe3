"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see them).  The quantitative checks run
against the seeded synthetic market generator and planted-operator
oracles; every tolerance is pinned here.
"""

import datetime as dt
import filecmp
import json
import time

import numpy as np
import pytest

from dualspace import (bucket_panel, cli, dual_regression as dr, liquidity_lab,
                       neural_kit, pdo_kernel, residual_study, state_space,
                       synth_market)
from dualspace.corrstats import pearson
from dualspace.state_space import VolumeMode

from oracles import (attenuation, dual_predictions, grad_check, induced_dual_operator,
                     planted_trajectory, propagate_state, random_rotation,
                     random_states, symmetry_projector)


def _report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


# 1 ── reconstruction and orthogonality ─────────────────────────────────

def test_criterion_01_reconstruction_orthogonality(coupled_outputs):
    states, out = coupled_outputs[0]
    assert states.values.shape == (484, 16)
    start = time.perf_counter()
    out_timed = dr.fit_beta(states)
    elapsed = time.perf_counter() - start

    worst_recon = 0.0
    worst_corr = 0.0
    for candidate in (states, random_states(123, 485)):
        fit = dr.fit_beta(candidate)
        delta = candidate.values[1:] - candidate.values[:-1]
        worst_recon = max(worst_recon,
                          float(np.abs(fit.predictions + fit.residuals - delta).max()))
        split = dr.variance_split(fit, candidate)
        for k in range(16):
            if k in split.degenerate_buckets:
                continue
            worst_corr = max(worst_corr, abs(pearson(fit.predictions[:, k],
                                                     fit.residuals[:, k])))
    ok = worst_recon < 1e-10 and worst_corr < 1e-10 and elapsed < 1.0
    _report(1, "reconstruction-orthogonality", ok,
            f"(recon {worst_recon:.1e}, corr {worst_corr:.1e}, fit {elapsed * 1e3:.0f} ms)")
    assert out_timed.gram_rank == out.gram_rank


# 2 ── variance identity ────────────────────────────────────────────────

def test_criterion_02_variance_identity(coupled_outputs):
    worst = 0.0
    for states, out in coupled_outputs:
        split = dr.variance_split(out, states)
        live = [k for k in range(16) if k not in split.degenerate_buckets]
        worst = max(worst, float(np.abs(split.predictor[live]
                                        + split.residual[live] - 1.0).max()))
    _report(2, "variance-identity", worst < 1e-9, f"(max |P+F-1| = {worst:.1e})")


# 3 ── spectral correctness ─────────────────────────────────────────────

def test_criterion_03_spectral_correctness(coupled_outputs):
    # the fit's dual predictions, intercept + [Re fft(x_t) | Im fft(x_t)] @ beta.T,
    # must transform back to its bucket predictions as a real signal
    fits = [random_states(77, n_rows=300),
            planted_trajectory(random_rotation(42), seed=7, n_rows=200),
            random_states(123, n_rows=485)]
    cases = [(states, dr.fit_beta(states)) for states in fits] + list(coupled_outputs)
    worst_round = worst_sym = max_imag = 0.0
    for states, out in cases:
        spectra = dual_predictions(states, out)
        back = np.fft.ifft(spectra, axis=1)
        mirror = np.conj(spectra[:, -np.arange(spectra.shape[1])])  # conj z[(n - w) % n]
        worst_round = max(worst_round, float(np.abs(back.real - out.predictions).max()))
        worst_sym = max(worst_sym, float(np.abs(spectra - mirror).max()))
        max_imag = max(max_imag, float(np.abs(back.imag).max()))
    ok = worst_round < 1e-12 and worst_sym < 1e-12 and max_imag < 1e-9
    _report(3, "spectral-correctness", ok,
            f"(round {worst_round:.1e}, sym {worst_sym:.1e}, imag {max_imag:.1e})")


# 4 ── operator recovery and cross-tape similarity ──────────────────────

def test_criterion_04_operator_recovery():
    start = time.perf_counter()
    q = random_rotation(42)
    states = planted_trajectory(q, seed=7, n_rows=200)
    fit = dr.fit_beta(states)
    recovery_err = float(np.abs(fit.beta.values - induced_dual_operator(q)).max())

    wins = 0
    sims = []
    for seed in range(20):
        q = random_rotation(900 + seed)
        a = dr.fit_beta(planted_trajectory(q, seed=1000 + seed, n_rows=1000,
                                           snr=10.0, contraction=0.9))
        b = dr.fit_beta(planted_trajectory(q, seed=5000 + seed, n_rows=1000,
                                           snr=10.0, contraction=0.9))
        sim = dr.beta_similarity(a.beta, b.beta)
        sims.append(sim.col_corr)
        wins += (sim.col_corr > 0.9 and sim.row_corr > 0.9)
    elapsed = time.perf_counter() - start
    ok = recovery_err < 1e-8 and wins >= 18 and elapsed < 60.0
    _report(4, "operator-recovery", ok,
            f"(planted err {recovery_err:.1e}, similarity>0.9 in {wins}/20, "
            f"min sim {min(sims):.3f}, {elapsed:.1f} s)")


# 5 ── determination structure ──────────────────────────────────────────

def test_criterion_05_determination_offdiagonals():
    good = total = 0
    worst = 0.0
    for seed in range(20):
        config = synth_market.MarketConfig(n_traders=2, seed=400 + seed,
                                           shared_market=False)
        market = synth_market.gen_market(config)
        outs = []
        for tape in market.tapes:
            panels = bucket_panel.build_panels(tape.records)
            states = state_space.state_matrix(panels, VolumeMode.IMBALANCE)
            outs.append(dr.fit_beta(states))
        det = dr.determination_matrix(outs)
        for value in (det[0, 1], det[1, 0]):
            total += 1
            good += value < 0.05
            worst = max(worst, float(value))
    ok = good / total >= 0.95
    _report(5, "determination-offdiagonals", ok,
            f"({good}/{total} < 0.05, worst {worst:.3f})")


# 6 ── attenuation Monte Carlo ──────────────────────────────────────────

def test_criterion_06_attenuation_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(600)
    n, rho, nsr = 100_000, 0.5, 0.1
    u = rng.standard_normal(n)
    v = rho * u + np.sqrt(1 - rho**2) * rng.standard_normal(n)
    noisy_u = u + np.sqrt(nsr) * rng.standard_normal(n)
    noisy_v = v + np.sqrt(nsr) * rng.standard_normal(n)
    empirical = float(np.corrcoef(noisy_u, noisy_v)[0, 1])
    exact = attenuation(rho, nsr, nsr).exact
    elapsed = time.perf_counter() - start
    ok = abs(empirical - exact) < 0.01 and empirical < rho and elapsed < 10.0
    _report(6, "attenuation-monte-carlo", ok,
            f"(empirical {empirical:.4f} vs exact {exact:.4f}, {elapsed:.1f} s)")


# 7 ── backcast oracle ──────────────────────────────────────────────────

def test_criterion_07_backcast_oracle(coupled_market, coupled_outputs):
    start = time.perf_counter()
    windows = [residual_study.monthly_windows(out.residuals, out.dates, tape.trader_id)
               for (_, out), tape in zip(coupled_outputs, coupled_market.tapes)]
    residual_study.assert_role_separation(windows[0], windows[1])
    report = residual_study.cnn_backcast(
        windows[0], windows[1],
        [coupled_market.indexes["sentiment"], coupled_market.indexes["bond_yield"]],
        activation="tanh", seeds=(1, 2, 3, 4, 5, 6), rounds=150, learning_rate=0.05)
    sent = report.for_index("sentiment")
    bond = report.for_index("bond_yield")
    elapsed = time.perf_counter() - start
    band_covers_zero = abs(bond.mean_correlation) < bond.dispersion
    ok = (sent.mean_correlation > 0.8
          and abs(bond.mean_correlation) < 0.3
          and band_covers_zero
          and elapsed < 300.0)
    _report(7, "backcast-oracle", ok,
            f"(sentiment r {sent.mean_correlation:.3f}, bond r "
            f"{bond.mean_correlation:+.3f} +- {bond.dispersion:.3f}, {elapsed:.0f} s)")


# 8 ── gradient checks ──────────────────────────────────────────────────

def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(800)
    worst = 0.0
    for draw in range(10):
        widths = rng.choice([4, 6, 8], size=2)
        spec = neural_kit.NetSpec(
            (neural_kit.Dense(5, int(widths[0])),
             neural_kit.Dense(int(widths[0]), int(widths[1])),
             neural_kit.Dense(int(widths[1]), 1)),
            "tanh", seed=int(rng.integers(1_000_000)))
        net = neural_kit.init_net(spec)
        x = rng.standard_normal((3, 5))
        y = rng.standard_normal(3)
        worst = max(worst, grad_check(net, x, y, epsilon=1e-5))
    _report(8, "gradient-checks", worst < 1e-4, f"(max rel err {worst:.2e})")


# 9 ── liquidity equilibrium ────────────────────────────────────────────

def test_criterion_09_liquidity_equilibrium():
    nb = 16
    spread, volume = 0.02, 1000.0
    prices = 8.0 + 0.5 * np.arange(nb)
    vol = np.full((2, 2, nb), volume)  # two days, both sides
    vwap = np.stack([np.stack([prices + spread, prices])] * 2)
    series = bucket_panel.PanelSeries(
        bucket_panel.BucketConfig(), [dt.date(2009, 8, 6), dt.date(2009, 8, 7)],
        np.full(2, 10.0), vol, vwap, np.zeros((2, 2, nb, 50)),
        np.zeros(2, dtype=np.int64), np.zeros(2), np.zeros(2))
    cost = liquidity_lab.cost_series(series)
    turnover = volume * nb
    sum_err = abs(float(cost.pi[0].sum()) - spread * turnover)
    lam_err = float(np.abs(cost.lam[0] - spread).max())
    ok = sum_err < 1e-9 and lam_err < 1e-12 and np.all(cost.pi[0] >= 0)
    _report(9, "liquidity-equilibrium", ok,
            f"(sum err {sum_err:.1e}, lambda err {lam_err:.1e})")


# 10 ── event-study calibration and power ───────────────────────────────

def _concentrated_config(seed, spread, g_sent=0.0):
    return synth_market.MarketConfig(
        n_traders=1, seed=seed, spread=spread, trades_per_day_mean=250.0,
        couplings=synth_market.Couplings(g_sent=g_sent), sentiment_ar=0.2,
        anchor_max_offset=1.8, anchor_buy_reach=0.7, anchor_sell_reach=1.2,
        buy_width=0.4, sell_width=0.7)


def _study(config, seeds, permutations, rounds):
    market = synth_market.gen_market(config)
    panels = bucket_panel.build_panels(market.tapes[0].records)
    cost = liquidity_lab.cost_series(panels)
    study_config = liquidity_lab.EventStudyConfig(n_permutations=permutations,
                                                  rounds=rounds)
    return liquidity_lab.event_study(cost, market.indexes["sentiment"],
                                     study_config, seeds=seeds)


def test_criterion_10_event_study_calibration_and_power():
    rejections = total = 0
    for seed in range(20):
        report = _study(_concentrated_config(100 + seed, spread=2.5),
                        seeds=(1, 2), permutations=1000, rounds=60)
        for window in report.windows:
            for p in (window.p_pearson, window.p_spearman):
                total += 1
                rejections += (p is not None and p < 0.10)
    calibration = rejections / total

    hits = 0
    for seed in range(10):
        config = synth_market.inject_shock(
            _concentrated_config(200 + seed, spread=2.5, g_sent=0.9),
            (240, 360), spread_mult=3.0)
        report = _study(config, seeds=(1, 2, 3), permutations=2000, rounds=150)
        shocked = next(w for w in report.windows if w.day_range == (240, 360))
        if shocked.p_spearman is not None and shocked.p_spearman < 0.05:
            hits += 1
    ok = calibration <= 0.20 and hits > 5
    _report(10, "event-study-calibration-power", ok,
            f"(null rejection rate {calibration:.2f}, shock hits {hits}/10)")


# 11 ── spectral diffusion oracle ───────────────────────────────────────

def test_criterion_11_pdo_oracle():
    sigma0, diff, t = 0.5, 0.25, 1.0
    sigma_t = np.sqrt(sigma0**2 + 2 * diff * t)
    points = np.linspace(-8 * sigma_t, 8 * sigma_t, 256, endpoint=False)
    initial = np.exp(-points**2 / (2 * sigma0**2))

    def evolve(values, time):
        return pdo_kernel.pdo_evolve(values, points[1] - points[0], 0.0, diff, time)

    evolved = evolve(initial, t)
    closed = (sigma0 / sigma_t) * np.exp(-points**2 / (2 * sigma_t**2))
    gauss_err = float(np.abs(evolved.real - closed).max())

    two = evolve(evolve(initial, 0.4), 0.6)
    one = evolve(initial, 1.0)
    semigroup_err = float(np.abs(two - one).max())
    mass_err = abs(evolved.sum() - initial.sum())

    rng = np.random.default_rng(11)
    beta = rng.standard_normal((4, 4)) * 0.4
    x0 = rng.standard_normal(4)

    def gap(n_steps):
        step = 1.0 / n_steps
        noise = [np.sin((i + 1) * step + np.arange(4)) for i in range(n_steps)]
        exact = propagate_state(x0, beta, noise, n_steps, step)
        euler = x0.copy()
        for i in range(n_steps):
            euler = euler + step * (beta @ euler) + noise[i] * step
        return np.abs(exact - euler).max()

    ratio = gap(200) / gap(100)
    ok = (gauss_err < 1e-6 and semigroup_err < 1e-10 and mass_err < 1e-10
          and abs(ratio - 0.5) < 0.1)
    _report(11, "pdo-oracle", ok,
            f"(gauss {gauss_err:.1e}, semigroup {semigroup_err:.1e}, "
            f"mass {mass_err:.1e}, euler ratio {ratio:.2f})")


# 12 ── end-to-end determinism ──────────────────────────────────────────

def test_criterion_12_end_to_end_determinism(tmp_path, capsys):
    def pipeline(root):
        tapes = root / "tapes"
        for argv in (
            ["synth", "--seed", "99", "--traders", "2", "--days", "485",
             "--trades-per-day", "60", "--g-sent", "0.5", "--out-dir", str(tapes)],
            ["statespace", "--tape", str(tapes / "t0.csv"), "--out-dir", str(root / "s0")],
            ["statespace", "--tape", str(tapes / "t1.csv"), "--out-dir", str(root / "s1")],
            ["fit", "--states", str(root / "s0" / "states_imbalance.csv"),
             "--out-dir", str(root / "f0")],
            ["fit", "--states", str(root / "s1" / "states_imbalance.csv"),
             "--out-dir", str(root / "f1")],
            ["backcast", "--protocol", "cnn7",
             "--train-residuals", str(root / "f0" / "residuals.csv"),
             "--predict-residuals", str(root / "f1" / "residuals.csv"),
             "--index", f"sentiment={tapes / 'sentiment.csv'}",
             "--runs", "2", "--rounds", "25", "--out-dir", str(root / "bc")],
            ["eventstudy", "--tape", str(tapes / "t0.csv"),
             "--index", f"sentiment={tapes / 'sentiment.csv'}",
             "--permutations", "300", "--rounds", "25", "--seeds", "1,2",
             "--out-dir", str(root / "es")],
        ):
            assert cli.run(argv) == 0
        capsys.readouterr()

    pipeline(tmp_path / "one")
    pipeline(tmp_path / "two")
    mismatches = []
    for rel in ("tapes/t0.csv", "tapes/t1.csv", "tapes/sentiment.csv",
                "tapes/ground_truth.json", "s0/states_imbalance.csv",
                "f0/beta.csv", "f0/predictions.csv", "f0/residuals.csv",
                "f0/diagnostics.json", "bc/backcast_cnn7.json",
                "bc/backcast_cnn7.csv", "es/eventstudy.json", "es/eventstudy.csv"):
        if not filecmp.cmp(tmp_path / "one" / rel, tmp_path / "two" / rel,
                           shallow=False):
            mismatches.append(rel)
    _report(12, "end-to-end-determinism", not mismatches,
            f"(byte-compared 13 artifacts{'; differs: ' + ', '.join(mismatches) if mismatches else ''})")

import io

import numpy as np
import pytest

from dualspace import dual_regression as dr
from dualspace.corrstats import pearson
from dualspace.table_csv import dated_matrix, read_table_csv, write_dated_csv

from oracles import (dual_predictions, induced_dual_operator, pinv_dual_fit,
                     planted_trajectory, random_rotation, random_states,
                     symmetry_projector)


def _max_imag(states, out):
    """Largest |imaginary part| of the fit's dual predictions transformed back."""
    return float(np.abs(np.fft.ifft(dual_predictions(states, out), axis=1).imag).max())


# ── operator fit ───────────────────────────────────────────────────────

def test_fit_recovers_planted_operator_exactly():
    q = random_rotation(42)
    states = planted_trajectory(q, seed=7, n_rows=200)
    out = dr.fit_beta(states)
    beta_true = induced_dual_operator(q)
    assert np.abs(out.beta - beta_true).max() < 1e-8
    assert np.abs(out.residuals).max() < 1e-10
    assert np.abs(out.intercept).max() < 1e-10


def _constant_column_states():
    states = random_states(10, n_rows=50)
    states.values[:, 3] = 0.25
    return states


def _duplicated_column_states():
    states = random_states(16, n_rows=80)
    states.values[:, 5] = 0.5 * states.values[:, 2] - 0.1  # affine copy of bucket 2
    return states


ORACLE_CASES = {
    "oracle-tape-t0": lambda request: request.getfixturevalue("coupled_outputs")[0][0],
    "oracle-tape-t1": lambda request: request.getfixturevalue("coupled_outputs")[1][0],
    "random-300-rows": lambda request: random_states(77, n_rows=300),
    "planted": lambda request: planted_trajectory(random_rotation(42), seed=7, n_rows=200),
    "two-rows": lambda request: random_states(5, n_rows=2),
    "constant-column": lambda request: _constant_column_states(),
    "duplicated-column": lambda request: _duplicated_column_states(),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_fit_matches_pinv_dual_oracle(request, case):
    # the bucket-space fit is the same minimum-norm solution, with the
    # same rank cutoff, as the pseudoinverse fit on the stacked spectra
    states = ORACLE_CASES[case](request)
    beta, intercept, predictions, residuals, rank = pinv_dual_fit(states.values)
    out = dr.fit_beta(states)
    assert np.abs(out.beta - beta).max() < 1e-10
    assert np.abs(out.intercept - intercept).max() < 1e-10
    assert np.abs(out.predictions - predictions).max() < 1e-10
    assert np.abs(out.residuals - residuals).max() < 1e-10
    assert out.gram_rank == rank
    assert _max_imag(states, out) < 1e-9


def test_fit_two_rows_minimum_norm_exact():
    states = random_states(5, n_rows=2)
    out = dr.fit_beta(states)
    assert np.abs(out.residuals).max() < 1e-10


def test_fit_requires_two_rows():
    with pytest.raises(ValueError):
        dr.fit_beta(random_states(6, n_rows=1))


def test_reconstruction_and_orthogonality(coupled_outputs):
    states, out = coupled_outputs[0]
    delta = states.values[1:] - states.values[:-1]
    assert np.abs(out.predictions + out.residuals - delta).max() < 1e-10
    # orthogonality is meaningful where the dependent variable moves;
    # a dead bucket's prediction and residual are both numerical dust
    split = dr.variance_split(out, states)
    for k in range(16):
        if k in split.degenerate_buckets:
            continue
        assert abs(pearson(out.predictions[:, k], out.residuals[:, k])) < 1e-10
    assert _max_imag(states, out) < 1e-9


def test_reconstruction_and_orthogonality_dense_states():
    states = random_states(77, n_rows=300)
    out = dr.fit_beta(states)
    delta = states.values[1:] - states.values[:-1]
    assert np.abs(out.predictions + out.residuals - delta).max() < 1e-10
    for k in range(16):
        assert abs(pearson(out.predictions[:, k], out.residuals[:, k])) < 1e-10


def test_fitted_operator_preserves_symmetry(coupled_outputs):
    _, out = coupled_outputs[0]
    p = symmetry_projector()
    # applying the fitted operator to anything lands in the real-sourced
    # subspace: its columns and the intercept live there
    np.testing.assert_allclose(p @ out.beta, out.beta, atol=1e-9)
    np.testing.assert_allclose(p @ out.intercept, out.intercept, atol=1e-9)


def test_variance_split_noiseless_system():
    q = random_rotation(43)
    states = planted_trajectory(q, seed=8, n_rows=200)
    out = dr.fit_beta(states)
    split = dr.variance_split(out, states)
    live = [k for k in range(16) if k not in split.degenerate_buckets]
    np.testing.assert_allclose(split.predictor[live], 1.0, atol=1e-9)
    np.testing.assert_allclose(split.residual[live], 0.0, atol=1e-9)


def test_variance_split_white_noise_has_tiny_predictable_share():
    # random walk states: increments are i.i.d., nothing to predict
    rng = np.random.default_rng(9)
    steps = rng.standard_normal((10_000, 16)) * 0.01
    values = np.clip(np.cumsum(steps, axis=0), -1, 1)
    states = random_states(0, n_rows=10_000)
    states.values = values
    out = dr.fit_beta(states)
    split = dr.variance_split(out, states)
    assert np.all(split.predictor <= 0.05)


def test_variance_split_identity(coupled_outputs):
    states, out = coupled_outputs[0]
    split = dr.variance_split(out, states)
    live = [k for k in range(16) if k not in split.degenerate_buckets]
    np.testing.assert_allclose(split.predictor[live] + split.residual[live],
                               1.0, atol=1e-9)


def test_variance_split_degenerate_bucket_flagged():
    states = random_states(10, n_rows=50)
    states.values[:, 3] = 0.25  # constant column: zero dependent variance
    out = dr.fit_beta(states)
    split = dr.variance_split(out, states)
    assert 3 in split.degenerate_buckets
    assert split.predictor[3] == 0.0 and split.residual[3] == 0.0


# ── similarity and determination ───────────────────────────────────────

def test_beta_similarity_self_and_negation():
    out = dr.fit_beta(random_states(11, 60))
    sim = dr.beta_similarity(out.beta, out.beta)
    assert sim == (1.0, 1.0)
    neg = -out.beta
    sim = dr.beta_similarity(out.beta, neg)
    assert sim.col_corr == pytest.approx(-1.0)
    assert sim.row_corr == pytest.approx(-1.0)


def test_beta_similarity_shape_check():
    a = np.zeros((32, 32))
    b = np.zeros((4, 4))
    with pytest.raises(ValueError):
        dr.beta_similarity(a, b)


def test_beta_similarity_on_shared_process():
    q = random_rotation(44)
    a = dr.fit_beta(planted_trajectory(q, seed=1, n_rows=1000, snr=10.0, contraction=0.9))
    b = dr.fit_beta(planted_trajectory(q, seed=2, n_rows=1000, snr=10.0, contraction=0.9))
    sim = dr.beta_similarity(a.beta, b.beta)
    assert sim.col_corr > 0.9 and sim.row_corr > 0.9


def test_determination_matrix_independent_processes():
    outs = [dr.fit_beta(planted_trajectory(random_rotation(50 + i), seed=60 + i,
                                           n_rows=400, snr=2.0, contraction=0.9))
            for i in range(3)]
    det = dr.determination_matrix(outs)
    assert det.shape == (3, 3)
    off = det[~np.eye(3, dtype=bool)]
    assert np.all(off < 0.05)
    assert np.all(det >= 0.0)


def test_determination_matrix_date_mismatch():
    a = dr.fit_beta(random_states(12, 60))
    b = dr.fit_beta(random_states(13, 61))
    with pytest.raises(ValueError, match="dates"):
        dr.determination_matrix([a, b])


# ── serialization ──────────────────────────────────────────────────────

def test_beta_csv_round_trip():
    out = dr.fit_beta(random_states(14, 40))
    buf = io.StringIO()
    dr.write_beta_csv(out.beta, buf)
    buf.seek(0)
    first, rows = read_table_csv(buf)  # the beta file has no header row
    np.testing.assert_array_equal(np.array([first, *rows], dtype=float), out.beta)


def test_rows_csv_round_trip():
    out = dr.fit_beta(random_states(15, 40))
    buf = io.StringIO()
    write_dated_csv(buf, out.dates, out.residuals)
    buf.seek(0)
    dates, values = dated_matrix(*read_table_csv(buf))
    assert dates == out.dates
    np.testing.assert_array_equal(values, out.residuals)


def test_diagnostics_payload(coupled_outputs):
    states, out = coupled_outputs[0]
    payload = dr.diagnostics(out, dr.variance_split(out, states))
    assert set(payload) == {"gram_rank", "max_abs_residual", "predictor_share",
                            "residual_share", "degenerate_buckets"}
    assert len(payload["predictor_share"]) == 16

"""Independent oracles shared across test modules.

Everything here recomputes expected values by a route different from
the library code: direct summation DFTs, textbook statistics formulas,
hand-rolled forward passes, planted linear systems with known
operators.
"""

import datetime as dt

import numpy as np

from dualspace.state_space import StateMatrix, VolumeMode


def naive_dft(row):
    """O(n^2) direct-summation DFT, the transform oracle."""
    row = np.asarray(row, dtype=complex)
    n = row.size
    out = np.zeros(n, dtype=complex)
    for w in range(n):
        for k in range(n):
            out[w] += row[k] * np.exp(-2j * np.pi * w * k / n)
    return out


def naive_inverse_dft(spectrum):
    spectrum = np.asarray(spectrum, dtype=complex)
    n = spectrum.size
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for w in range(n):
            out[k] += spectrum[w] * np.exp(2j * np.pi * w * k / n)
    return out / n


def textbook_pearson(x, y):
    """Pearson correlation straight from the definition."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    mx, my = x.sum() / n, y.sum() / n
    cov = ((x - mx) * (y - my)).sum() / n
    sx = np.sqrt(((x - mx) ** 2).sum() / n)
    sy = np.sqrt(((y - my) ** 2).sum() / n)
    return cov / (sx * sy)


def streaming_summary(prices, volumes):
    """One-pass Welford statistics, the summarize() oracle."""
    n = 0
    mean_p = m2_p = 0.0
    mean_v = m2_v = 0.0
    lo, hi = float("inf"), float("-inf")
    total_volume = 0
    for p, v in zip(prices, volumes):
        n += 1
        d = p - mean_p
        mean_p += d / n
        m2_p += d * (p - mean_p)
        dv = v - mean_v
        mean_v += dv / n
        m2_v += dv * (v - mean_v)
        lo, hi = min(lo, p), max(hi, p)
        total_volume += v
    std_p = (m2_p / (n - 1)) ** 0.5 if n > 1 else 0.0
    var_v = m2_v / (n - 1) if n > 1 else 0.0
    return n, lo, mean_p, hi, std_p, var_v, total_volume


def dual_stack_matrix(n=16):
    """Matrix of the real-linear map x -> [Re DFT(x); Im DFT(x)]."""
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        z = np.fft.fft(e)
        cols.append(np.concatenate([z.real, z.imag]))
    return np.array(cols).T  # (2n, n)


def symmetry_projector(n=16):
    """Orthogonal projector onto the stacked spectra of real vectors."""
    t = dual_stack_matrix(n)
    return t @ np.linalg.pinv(t)


def induced_dual_operator(q):
    """Stacked dual-space form of a real bucket-space map q, projected
    onto the real-sourced subspace: the operator min-norm least squares
    recovers from a noiseless trajectory of q."""
    n = q.shape[0]
    f = np.fft.fft(np.eye(n), axis=0)
    m = f @ q @ np.linalg.inv(f)
    s_q = np.block([[m.real, -m.imag], [m.imag, m.real]])
    return (s_q - np.eye(2 * n)) @ symmetry_projector(n)


def pinv_dual_fit(x):
    """Dual-space operator fit the long way: stack the spectra of the rows,
    solve the normal equations of [1, z_t] through a pseudoinverse of the
    rank-deficient Gram matrix (eigenvalue cutoff 1e-12) and transform
    predictions back.  Returns (beta, intercept, predictions, residuals,
    gram rank)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    spectra = np.fft.fft(x, axis=1)
    z = np.hstack([spectra.real, spectra.imag])
    deps = z[1:] - z[:-1]
    design = np.hstack([np.ones((z.shape[0] - 1, 1)), z[:-1]])
    gram = design.T @ design
    coef = np.linalg.pinv(gram, rcond=1e-12) @ design.T @ deps
    rank = int(np.linalg.matrix_rank(gram, rtol=1e-12, hermitian=True))
    pred_dual = design @ coef
    predictions = np.fft.ifft(pred_dual[:, :n] + 1j * pred_dual[:, n:], axis=1).real
    residuals = (x[1:] - x[:-1]) - predictions
    return coef[1:].T, coef[0], predictions, residuals, rank


def _dates(n):
    return [dt.date(2009, 1, 1) + dt.timedelta(days=i) for i in range(n)]


def random_rotation(seed, n=16):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def planted_trajectory(q, seed, n_rows=200, snr=None, contraction=1.0):
    """StateMatrix following X_{t+1} = contraction * q X_t (+ noise at
    the given signal-to-noise ratio), scaled into [-1, 1]."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(q.shape[0])
    x /= np.linalg.norm(x)
    rows = [x]
    for _ in range(n_rows - 1):
        drive = contraction * (q @ rows[-1])
        if snr is None:
            rows.append(drive)
            continue
        step = drive - rows[-1]
        noise = rng.standard_normal(q.shape[0])
        noise *= np.linalg.norm(step) / (np.linalg.norm(noise) * np.sqrt(snr))
        rows.append(drive + noise)
    values = np.vstack(rows)
    peak = np.abs(values).max()
    if peak > 1.0:
        values = values / peak
    return StateMatrix(values, VolumeMode.IMBALANCE, _dates(n_rows))


def random_states(seed, n_rows, n_buckets=16):
    rng = np.random.default_rng(seed)
    return StateMatrix(rng.uniform(-1, 1, size=(n_rows, n_buckets)),
                       VolumeMode.IMBALANCE, _dates(n_rows))


def taylor_matrix_exp(m, terms=30):
    """Plain truncated-series matrix exponential (valid for small norm)."""
    m = np.asarray(m, dtype=float)
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        result = result + term
    return result


# two-sided 10% Student-t critical values, from standard tables
T_CRIT_10PCT = {2: 2.919985580, 3: 2.353363435, 4: 2.131846786,
                5: 2.015048373, 6: 1.943180281, 7: 1.894578605,
                8: 1.859548038, 9: 1.833112933, 10: 1.812461123,
                19: 1.729132812, 22: 1.717144374, 23: 1.713871528}

"""Independent oracles shared across test modules.

Everything here recomputes expected values by a route different from
the library code: textbook statistics formulas, spectra from `np.fft`,
hand-rolled forward passes, central-difference gradients, planted
linear systems with known operators, a tape reader that splits strings,
scipy's matrix exponential for propagating a fitted operator.
"""

import datetime as dt
from itertools import islice, repeat
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from dualspace import neural_kit, tape_io
from dualspace.bucket_panel import imbalance_profile
from dualspace.dual_regression import BetaMatrix
from dualspace.corrstats import rowwise_pearson
from dualspace.state_space import StateMatrix, VolumeMode


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


def loop_reference_prices(tape):
    """Per-day reference prices by a running sum over the trades: the
    prior trading day's VWAP, carried over zero-volume days, and the
    first day's own VWAP where no earlier day has volume."""
    totals = {}
    for rec in tape:
        volume, worth = totals.get(rec.date, (0.0, 0.0))
        totals[rec.date] = (volume + rec.volume, worth + rec.price * rec.volume)
    days = sorted(totals)
    vwaps, last = [], None
    for day in days:
        volume, worth = totals[day]
        last = worth / volume if volume > 0 else last
        vwaps.append(last)
    first = next((v for v in vwaps if v is not None), 0.0)
    refs = [first] + vwaps[:-1]
    return [first if ref is None else ref for ref in refs]


def tape_of(records):
    """A `Tape` holding the given `TapeRecord`s, in their order."""
    records = list(records)
    dates = sorted({rec.date for rec in records})
    index = {day: i for i, day in enumerate(dates)}
    return tape_io.Tape(dates, [index[rec.date] for rec in records],
                        [rec.price for rec in records],
                        [tape_io.SIDE_CODE[rec.side] for rec in records],
                        [rec.volume for rec in records])


def loop_state_values(series, mode):
    """state_matrix's values by the per-day loop: for each consecutive
    pair of panels, the per-bucket correlation of the later day's
    profile with the earlier day's (0 where flat)."""
    def profile(panel):
        if mode is VolumeMode.BUY:
            return panel.fine_buy
        if mode is VolumeMode.SELL:
            return panel.fine_sell
        return imbalance_profile(panel.fine_buy, panel.fine_sell,
                                 series.config.geometric_imbalance)

    p = series.panels
    return np.vstack([rowwise_pearson(profile(p[t + 1]), profile(p[t]))
                      for t in range(len(p) - 1)])


def loop_cost_series(series):
    """cost_series' (pi, lam, no_quote, illiquid) by the per-day loop over
    the formulas: pi = ask(t-1) * buy(t) - bid(t-1) * sell(t), with the
    prior day's VWAPs as the quotes, and lambda = |pi| / ((buy(t) +
    sell(t-1)) / 2), 0 where that denominator is."""
    pis, lams, no_quote, illiquid = [], [], [], []
    for prev, cur in zip(series.panels, series.panels[1:]):
        pi = prev.buy_vwap * cur.buy_vol - prev.sell_vwap * cur.sell_vol
        half = (cur.buy_vol + prev.sell_vol) / 2
        ill = half == 0
        pis.append(pi)
        lams.append(np.where(ill, 0.0, np.abs(pi) / np.where(ill, 1.0, half)))
        nq = (prev.buy_vol == 0) | (prev.sell_vol == 0)
        no_quote.extend((cur.date, int(k)) for k in np.flatnonzero(nq))
        illiquid.extend((cur.date, int(k)) for k in np.flatnonzero(ill))
    return np.vstack(pis), np.vstack(lams), no_quote, illiquid


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


def dual_predictions(states, out):
    """A fit's predictions made in the dual space, as complex spectra:
    its intercept plus its operator applied to the stacked DFT of each
    previous state row.  Their inverse DFT is the bucket predictions."""
    x = np.asarray(states.values, dtype=float)[:-1]
    n = x.shape[1]
    spectra = np.fft.fft(x, axis=1)
    z = out.intercept + np.hstack([spectra.real, spectra.imag]) @ out.beta.values.T
    return z[:, :n] + 1j * z[:, n:]


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


def matrix_exp(m):
    """Matrix exponential (scipy's scaling and squaring with Pade
    approximants, Al-Mohy & Higham 2009)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return expm(m)


def _as_matrix(beta):
    return beta.values if isinstance(beta, BetaMatrix) else np.asarray(beta, dtype=float)


def propagate_state(x0, beta, noise, n_steps, dt):
    """Discrete moving-average propagation of dX = B X dt + de, the
    continuous-time reading of the fitted dual-space operator B.

    Returns exp(B n dt) x0 + sum_t exp(B (n-t) dt) noise_t dt, with the
    noise indexed t = 1..n.  Computed by stepping with the single-step
    exponential, which is algebraically the same sum.
    """
    b = _as_matrix(beta)
    x = np.asarray(x0, dtype=float).copy()
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    noise = [] if noise is None else list(noise)
    if noise and len(noise) != n_steps:
        raise ValueError("need one noise vector per step")
    step = matrix_exp(b * dt)
    for t in range(n_steps):
        x = step @ x
        if noise:
            x = x + np.asarray(noise[t], dtype=float) * dt
    return x


class Attenuation(NamedTuple):
    approx: float  # second-order expansion in the noise-to-signal ratios
    exact: float


def attenuation(rho, nsr1, nsr2):
    """Predicted noisy correlation given noise-to-signal variance ratios
    (criterion 06).

    Additive noise, uncorrelated with both signals, shrinks an estimated
    correlation by 1/sqrt((1+nsr1)(1+nsr2)); the approx field carries
    the small-noise expansion rho * (1 - (nsr1 + nsr2)/2).
    """
    if nsr1 < 0 or nsr2 < 0:
        raise ValueError("noise-to-signal ratios must be >= 0")
    if abs(rho) > 1:
        raise ValueError("|rho| must be <= 1")
    approx = rho * (1.0 - 0.5 * (nsr1 + nsr2))
    exact = rho / np.sqrt((1.0 + nsr1) * (1.0 + nsr2))
    return Attenuation(float(approx), float(exact))


# two-sided 10% Student-t critical values, from standard tables
T_CRIT_10PCT = {2: 2.919985580, 3: 2.353363435, 4: 2.131846786,
                5: 2.015048373, 6: 1.943180281, 7: 1.894578605,
                8: 1.859548038, 9: 1.833112933, 10: 1.812461123,
                19: 1.729132812, 22: 1.717144374, 23: 1.713871528}


def weight_arrays(net):
    """A trained net's weight and bias arrays, in layer order."""
    return [arr for p in net.params for arr in p]


def _reference_plan(spec):
    """The op chain of a net spec: ("dense"|"conv", layer) for a weighted
    layer, ("act", kind) after every weighted layer but the last,
    ("pool", layer) and ("flatten", channels-last sample shape)."""
    weighted = [i for i, layer in enumerate(spec.layers)
                if type(layer).__name__ in ("Dense", "Conv2D")]
    shape = spec.input_shape or (spec.layers[0].n_in,)
    if len(shape) == 2:
        shape = shape + (1,)  # one channel, channels-last
    elif len(shape) == 3:
        shape = shape[1:] + shape[:1]  # (c, h, w) -> (h, w, c)
    plan = []
    for i, layer in enumerate(spec.layers):
        name = type(layer).__name__
        if name == "Dense":
            plan.append(("dense", layer))
            shape = (layer.n_out,)
        elif name == "Conv2D":
            plan.append(("conv", layer))
            h, w, _ = shape
            shape = (h - layer.kernel[0] + 1, w - layer.kernel[1] + 1, layer.channels)
        elif name == "Pool":
            plan.append(("pool", layer))
            h, w, c = shape
            shape = (h // layer.size[0], w // layer.size[1], c)
        else:
            plan.append(("flatten", shape))
            shape = (int(np.prod(shape)),)
        if i in weighted[:-1]:
            plan.append(("act", spec.activation))
    return plan


def reference_train_many(nets, inputs, targets, rounds, learning_rate):
    """Full-batch gradient descent on R nets stacked along a model axis,
    the plain way: every round rebuilds each convolution's im2col
    columns, allocates a fresh array for every result and computes
    every input gradient.  Same arithmetic, in the same order, as
    `neural_kit.train_many`; returns one (weight arrays, loss curve)
    pair per net."""
    spec = nets[0].spec
    plan = _reference_plan(spec)
    params = [np.stack(arrs) for arrs in zip(*(weight_arrays(net) for net in nets))]
    sample_ndim = len(spec.input_shape or (1,))
    x0 = np.asarray(inputs, dtype=float)
    n = x0.shape[-sample_ndim - 1]
    if sample_ndim == 2:
        x0 = x0[..., None]
    elif sample_ndim == 3:
        x0 = np.moveaxis(x0, -3, -1)
    targets = np.asarray(targets, dtype=float)
    if targets.size == n:
        targets = targets.reshape(n)
    to_cols = ((-4, -3, -2, -1), (-1, -2, -4, -3))  # (o, c, kh, kw) -> (kh, kw, c, o)

    losses = []
    for _ in range(rounds):
        x, saved, p = x0, [], 0
        for kind, what in plan:  # forward; `saved` holds what backward reads
            if kind == "dense":
                saved.append(x)
                x = x @ params[p] + params[p + 1][..., None, :]
                p += 2
            elif kind == "conv":
                kh, kw = what.kernel
                windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(-3, -2))
                n_img, oh, ow, c = windows.shape[-6:-2]
                cols = np.empty(x.shape[:-4] + (n_img, oh, ow, kh * kw * c + 1))
                cols[..., -1] = 1.0
                cols[..., :-1].reshape(cols.shape[:-1] + (kh, kw, c))[...] = \
                    np.moveaxis(windows, -3, -1)
                cols = cols.reshape(x.shape[:-4] + (n_img * oh * ow, -1))
                saved.append((cols, x.shape))
                w = np.moveaxis(params[p], *to_cols)
                w = w.reshape(w.shape[:-4] + (-1, w.shape[-1]))
                out = cols @ np.concatenate([w, params[p + 1][..., None, :]], axis=-2)
                x = out.reshape(out.shape[:-2] + (n_img, oh, ow, -1))
                p += 2
            elif kind == "pool":
                ph, pw = what.size
                oh, ow = x.shape[-3] // ph, x.shape[-2] // pw
                taps = [x[..., a:oh * ph:ph, b:ow * pw:pw, :] for a in range(ph)
                        for b in range(pw)]
                out = taps[0]
                for tap in taps[1:]:
                    out = np.maximum(out, tap)
                first_max = np.full(out.shape, len(taps) - 1)
                for k in reversed(range(len(taps) - 1)):
                    first_max[taps[k] == out] = k
                saved.append((first_max, x.shape))
                x = out
            elif kind == "flatten":
                saved.append(None)
                if len(what) == 3:
                    x = np.moveaxis(x, -1, -3)
                x = x.reshape(x.shape[:-len(what)] + (-1,))
            elif what == "relu":
                saved.append(x > 0)
                x = np.maximum(x, 0.0)
            elif what == "tanh":
                x = np.tanh(x)
                saved.append(x)
            elif what == "logit":
                x = 1.0 / (1.0 + np.exp(-x))
                saved.append(x)
            else:
                saved.append(None)
        err = x[..., 0] - targets
        losses.append(np.mean(err**2, axis=-1))

        grad = (2.0 * err / n)[..., None]
        grads = [None] * len(params)
        for kind, what in reversed(plan):  # backward
            keep = saved.pop()
            if kind == "dense":
                p -= 2
                grads[p] = keep.swapaxes(-1, -2) @ grad
                grads[p + 1] = grad.sum(axis=-2)
                grad = grad @ params[p].swapaxes(-1, -2)
            elif kind == "conv":
                p -= 2
                (cols, in_shape), (kh, kw) = keep, what.kernel
                n_img, oh, ow, o = grad.shape[-4:]
                g = grad.reshape(grad.shape[:-4] + (-1, o))
                d_matrix = cols.swapaxes(-1, -2) @ g
                grads[p + 1] = d_matrix[..., -1, :]
                d_w = d_matrix[..., :-1, :].reshape(d_matrix.shape[:-2] + (kh, kw, -1, o))
                grads[p] = np.moveaxis(d_w, *to_cols[::-1])
                w_taps = np.moveaxis(params[p], (-2, -1), (-4, -3))
                w_taps = w_taps.reshape(w_taps.shape[:-4] + (kh * kw,) + w_taps.shape[-2:])
                d_taps = g[..., None, :, :] @ w_taps
                d_taps = d_taps.reshape(d_taps.shape[:-2] + (n_img, oh, ow, -1))
                grad = np.zeros(d_taps.shape[:-5] + in_shape[-4:])
                for k in range(kh):
                    for m in range(kw):
                        grad[..., k:k + oh, m:m + ow, :] += d_taps[..., k * kw + m, :, :, :, :]
            elif kind == "pool":
                (first_max, in_shape), (ph, pw) = keep, what.size
                oh, ow = grad.shape[-3], grad.shape[-2]
                dx = np.zeros(grad.shape[:-3] + in_shape[-3:])
                for k in range(ph * pw):
                    a, b = divmod(k, pw)
                    dx[..., a:oh * ph:ph, b:ow * pw:pw, :] = grad * (first_max == k)
                grad = dx
            elif kind == "flatten":
                if len(what) == 3:
                    h, w, c = what
                    grad = np.moveaxis(grad.reshape(grad.shape[:-1] + (c, h, w)), -3, -1)
                else:
                    grad = grad.reshape(grad.shape[:-1] + what)
            elif what == "relu":
                grad = grad * keep
            elif what == "tanh":
                grad = grad * (1.0 - keep**2)
            elif what == "logit":
                grad = grad * keep * (1.0 - keep)
        for arr, d in zip(params, grads):
            arr -= learning_rate * d

    curves = np.array(losses).T.tolist()
    return [([arr[r] for arr in params], curves[r]) for r in range(len(nets))]


def forward_cached(ops, params, x):
    """A net's forward pass over a batch as `neural_kit._as_batch` gives
    it: the output and every op's cache, in op order."""
    caches = []
    for op, p in zip(ops, params):
        x, cache = op.forward(p, x)
        caches.append(cache)
    return x, caches


def _loss_and_kinks(ops, params, x0, targets):
    """The loss, and the ReLU sign patterns and pool switches it passed."""
    x, caches = forward_cached(ops, params, x0)
    kinks = [cache for op, cache in zip(ops, caches)
             if isinstance(op, neural_kit._ActivationOp) and op.kind == "relu"]
    kinks += [cache[0] for op, cache in zip(ops, caches)
              if isinstance(op, neural_kit._PoolOp)]
    return float(np.mean((x[:, 0] - targets) ** 2)), kinks


def grad_check(net, inputs, targets, epsilon=1e-5):
    """Max relative error between a net's analytic and central-difference
    gradients.

    Perturbations that flip a ReLU sign or a pool switch are excluded:
    the loss is not differentiable across those kinks, so the
    comparison is only meaningful away from them.  A difference within a
    central difference's rounding noise, ~eps * loss / epsilon, counts as 0.
    """
    params = [tuple(arr.copy() for arr in p) for p in net.params]
    targets = np.asarray(targets, dtype=float).reshape(-1)
    x0 = neural_kit._as_batch(net, np.asarray(inputs, dtype=float))

    x, caches = forward_cached(net.ops, params, x0)
    err = x[:, 0] - targets
    floor = 4.0 * np.finfo(float).eps * float(np.mean(err ** 2)) / epsilon
    grad = (2.0 * err / err.size)[:, None]
    analytic = []
    for op, p in zip(reversed(net.ops), reversed(params)):
        grad, d_params = op.backward(p, caches.pop(), grad)
        analytic.insert(0, d_params)

    worst = 0.0
    for p, d_params in zip(params, analytic):
        for arr, d_arr in zip(p, d_params):
            flat = arr.reshape(-1)
            aflat = d_arr.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + epsilon
                up, kinks_up = _loss_and_kinks(net.ops, params, x0, targets)
                flat[idx] = orig - epsilon
                down, kinks_down = _loss_and_kinks(net.ops, params, x0, targets)
                flat[idx] = orig
                if any(not np.array_equal(a, b) for a, b in zip(kinks_up, kinks_down)):
                    continue  # kink crossed; comparison invalid here
                numeric = (up - down) / (2.0 * epsilon)
                miss = abs(aflat[idx] - numeric) - floor
                if miss > 0:
                    worst = max(worst, miss / max(abs(aflat[idx]), abs(numeric)))
    return worst


def reference_parse_tape(stream):
    r"""`tape_io.parse_tape` as a string splitter: lines as str, each
    line's field count by `str.count`, its fields by `str.split`, each
    token coded through a dict.  Takes one string or an iterable of lines; the
    token rules (`_parse_date`, `_parse_price`, ...) are the library's.
    One string is split where `read_tape` splits a file: at "\n", "\r\n"
    and a lone "\r", and nowhere else (`str.splitlines` would also split
    at "\x1c", "\x85", "\u2028" and the like)."""
    t = tape_io
    if isinstance(stream, str):
        lines = stream.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    else:
        lines = [line.rstrip("\r\n") for line in stream]
    delimiter = t._detect_delimiter(list(islice((ln for ln in lines if ln.strip()), 20)))

    n_header = 0
    start = len(lines)
    for line_no, line in enumerate(lines):
        if not line.strip():
            continue
        if t._parse_date(line.split(delimiter)[0]) is not None:
            start = line_no
            break
        n_header += 1

    tables = (t._TokenCodes(), t._TokenCodes(), t._TokenCodes(), t._TokenCodes())
    codes = ([], [], [], [])
    row_lines = []
    errors = []

    body = lines[start:]
    width = max(4, len(body[0].split(delimiter))) if body else 4
    regular = np.fromiter(map(str.count, body, repeat(delimiter)), np.int64,
                          len(body)) == width - 1
    if width == 1 or delimiter.isspace():
        regular &= np.fromiter(map(bool, map(str.strip, body)), bool, len(body))
    fast = np.flatnonzero(regular) + start
    tokens = [token for i in fast.tolist() for token in lines[i].split(delimiter)]
    for col, table, out in zip(range(4), tables, codes):
        out.append(table.code(tokens[col::width]))
    row_lines.append(fast)

    n_data = fast.size
    odd_lines = []
    odd_tokens = ([], [], [], [])
    for i in (np.flatnonzero(~regular) + start).tolist():
        line = lines[i]
        if not line.strip():
            continue
        n_data += 1
        fields = line.split(delimiter)
        if len(fields) < 4:
            errors.append(t.RowError(i + 1, t._REASONS[t._SHORT], line))
            continue
        odd_lines.append(i)
        for token, out in zip(fields, odd_tokens):
            out.append(token)
    for table, out, toks in zip(tables, codes, odd_tokens):
        out.append(table.code(toks))
    row_lines.append(np.array(odd_lines, dtype=np.int64))

    date_codes, price_codes, side_codes, volume_codes = (np.concatenate(c) for c in codes)
    row_lines = np.concatenate(row_lines)

    token_dates = [t._parse_date(token) for token in tables[0]]
    dates = sorted({day for day in token_dates if day is not None})
    rank = {day: i for i, day in enumerate(dates)}
    day_of = np.array([rank[day] if day is not None else -1 for day in token_dates],
                      dtype=np.int64)
    price_of, price_reason = t._table(tables[1], t._parse_price, np.float64)
    volume_of, volume_reason = t._table(tables[3], t._parse_volume, np.int64)
    side_of = np.array([t.SIDE_CODE[t._parse_side(token)] for token in tables[2]],
                       dtype=np.int8)

    day = day_of[date_codes]
    reason = np.where(day < 0, t._BAD_DATE, price_reason[price_codes])
    reason = np.where(reason == 0, volume_reason[volume_codes], reason)
    bad = np.flatnonzero(reason)
    errors.extend(t.RowError(i + 1, t._REASONS[r], lines[i])
                  for i, r in zip(row_lines[bad].tolist(), reason[bad].tolist()))
    errors.sort(key=lambda err: err.line_no)

    ok = reason == 0
    day, row_lines = day[ok], row_lines[ok]
    order = np.lexsort((row_lines, day))
    tape = t.Tape(dates, day[order], price_of[price_codes[ok][order]],
                  side_of[side_codes[ok][order]], volume_of[volume_codes[ok][order]])
    return t.ParseResult(tape, errors, n_data, n_header)


def assert_same_parse(got, want):
    """Two `ParseResult`s equal field for field: every record column
    exactly, every error with its line number and raw line, and the row
    counts."""
    assert got.records.dates == want.records.dates
    for column in ("day", "price", "side", "volume"):
        a, b = getattr(got.records, column), getattr(want.records, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column
    assert got.errors == want.errors
    assert (got.n_data_rows, got.n_header_rows) == (want.n_data_rows, want.n_header_rows)

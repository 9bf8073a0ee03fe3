"""Evolution-operator regression in the Fourier dual of the state space.

The day-over-day change of each state row is regressed on the previous
row after a discrete Fourier transform across buckets: with z_t the
32-dim stacking of the transform's real and imaginary parts,

    z_{t+1} - z_t = alpha + B z_t + e_t.

The stacking is a fixed linear map, z = x W with W = [Re F | Im F] the
unnormalized DFT matrix split into parts, and W W^T = n I.  So the fit
is ordinary least squares in bucket space,

    x_{t+1} - x_t = s a + x_t C + e_t,   s = 1/sqrt(n),

whose predictions and residuals are the dual fit's exactly, and the
coefficients map to the dual space once: B = (W^T C W / n)^T and
alpha = s a W.  Scaling the intercept column by s makes the
minimum-norm bucket-space solution the minimum-norm dual one, and the
1e-6 relative singular-value cutoff is the dual Gram matrix's 1e-12
eigenvalue cutoff, so rank deficiency reports a rank instead of failing.
W is the module's only transform: no row is transformed on its own and
nothing is transformed back, so the fit has no imaginary part to report.
The remaining ops are the diagnostics built on that fit: the
predictor/residual variance split per bucket, cross-tape operator
similarity, and the prediction-vs-residual determination matrix.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corrstats import pearson
from .state_space import StateMatrix
from .tape_io import read_table_csv, write_table_csv

#: Relative singular-value cutoff of the least-squares fit.
LSTSQ_RCOND = 1e-6


@dataclass(frozen=True)
class BetaMatrix:
    values: np.ndarray  # (2n, 2n) real;  real/imaginary parts stacked

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
            raise ValueError("beta matrix must be square with even size")
        if not np.isfinite(v).all():
            raise ValueError("beta matrix entries must be finite")

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass
class RegressionOutput:
    predictions: np.ndarray  # (T-1, n_buckets) real
    residuals: np.ndarray    # (T-1, n_buckets); dependent minus predicted
    beta: BetaMatrix
    intercept: np.ndarray    # (2n,) dual-space intercept
    gram_rank: int
    dates: list[dt.date]


@dataclass
class VarianceSplit:
    predictor: np.ndarray  # share of dependent variance carried by the fit
    residual: np.ndarray
    degenerate_buckets: list[int] = field(default_factory=list)


def fit_beta(states: StateMatrix) -> RegressionOutput:
    """Least-squares fit of the dual-space evolution operator.

    One `lstsq` in bucket space on the design [s 1, x_t], s = 1/sqrt(n),
    with relative singular-value cutoff 1e-6, whose coefficients are then
    mapped to the dual space (see the module docstring).  An intercept
    column is included: dropping it would leave residual means
    unconstrained and break the exact orthogonality between fitted values
    and residuals that the downstream variance diagnostics rely on.
    Residual rows are dependent-minus-predicted exactly.
    """
    x = np.asarray(states.values, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a state matrix with at least 2 rows")
    if not np.isfinite(x).all():
        raise ValueError("state matrix must be finite")

    n = x.shape[1]
    s = 1.0 / np.sqrt(n)
    deps = x[1:] - x[:-1]
    design = np.hstack([np.full((x.shape[0] - 1, 1), s), x[:-1]])
    coef, _, rank, _ = np.linalg.lstsq(design, deps, rcond=LSTSQ_RCOND)
    predictions = design @ coef

    f = np.fft.fft(np.eye(n))
    w = np.hstack([f.real, f.imag])  # x @ w is the stacked DFT of x; w @ w.T = n I
    return RegressionOutput(
        predictions=predictions,
        residuals=deps - predictions,
        beta=BetaMatrix((w.T @ coef[1:] @ w / n).T),
        intercept=s * (coef[0] @ w),
        gram_rank=int(rank),
        dates=list(states.dates[1:]),
    )


def variance_split(output: RegressionOutput, states: StateMatrix) -> VarianceSplit:
    """Per-bucket share of dependent variance in the fit vs the residual.

    The denominator is the dependent variable (the day-over-day state
    change), so predictor + residual shares sum to one exactly by
    least-squares orthogonality; buckets with zero dependent variance
    are reported as degenerate with both shares 0.
    """
    x = np.asarray(states.values, dtype=float)
    delta = x[1:] - x[:-1]
    if delta.shape != output.predictions.shape:
        raise ValueError("regression output is not aligned with the state matrix")
    denom = (delta**2).sum(axis=0)
    pred_ss = (output.predictions**2).sum(axis=0)
    resid_ss = (output.residuals**2).sum(axis=0)
    ok = denom > 0
    p = np.zeros_like(denom)
    f = np.zeros_like(denom)
    p[ok] = pred_ss[ok] / denom[ok]
    f[ok] = resid_ss[ok] / denom[ok]
    return VarianceSplit(p, f, degenerate_buckets=list(np.flatnonzero(~ok)))


class BetaSimilarity(NamedTuple):
    col_corr: float
    row_corr: float


def beta_similarity(a: BetaMatrix, b: BetaMatrix) -> BetaSimilarity:
    """Mean per-column and per-row Pearson correlation of two operators.

    Vector pairs where either side is constant (the identically-zero
    rows forced by the stacking symmetry) are skipped.
    """
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ValueError("beta matrices must have equal shapes")

    def mean_corr(rows_a, rows_b):
        vals = [pearson(ra, rb)
                for ra, rb in zip(rows_a, rows_b)
                if np.ptp(ra) > 0 and np.ptp(rb) > 0]
        return float(np.mean(vals)) if vals else 0.0

    return BetaSimilarity(col_corr=mean_corr(av.T, bv.T), row_corr=mean_corr(av, bv))


def determination_matrix(outputs: list[RegressionOutput]) -> np.ndarray:
    """Squared correlations between daily prediction and residual variances.

    Entry (i, j) is r^2 where r correlates, over days, the cross-bucket
    variance of tape i's prediction rows with that of tape j's residual
    rows.  All outputs must cover the same dates.
    """
    if not outputs:
        raise ValueError("need at least one regression output")
    dates = outputs[0].dates
    for out in outputs[1:]:
        if out.dates != dates:
            raise ValueError("regression outputs cover different dates")
    pred_var = [out.predictions.var(axis=1) for out in outputs]
    resid_var = [out.residuals.var(axis=1) for out in outputs]
    n = len(outputs)
    result = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            result[i, j] = pearson(pred_var[i], resid_var[j]) ** 2
    return result


# ── artifact serialization ─────────────────────────────────────────────

def write_beta_csv(beta: BetaMatrix, handle) -> None:
    write_table_csv(handle, None, beta.values.tolist())


def write_rows_csv(dates: list[dt.date], matrix: np.ndarray, handle) -> None:
    header = ["date"] + [f"b{k}" for k in range(matrix.shape[1])]
    write_table_csv(handle, header, ([day.isoformat(), *row]
                                     for day, row in zip(dates, matrix.tolist())))


def read_rows_csv(handle) -> tuple[list[dt.date], np.ndarray]:
    header, rows = read_table_csv(handle)
    if len(header) < 2:
        raise ValueError("rows file has no value columns")
    if not rows:
        raise ValueError("empty rows file")
    dates = [dt.date.fromisoformat(row[0]) for row in rows]
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValueError("row dates must be strictly increasing")
    values = np.array([[float(v) for v in row[1:]] for row in rows], dtype=float)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"row {dates[bad[0]]} holds a non-finite value")
    return dates, values


def diagnostics(output: RegressionOutput, split: VarianceSplit) -> dict:
    return {
        "gram_rank": output.gram_rank,
        "max_abs_residual": float(np.abs(output.residuals).max()),
        "predictor_share": [float(v) for v in split.predictor],
        "residual_share": [float(v) for v in split.residual],
        "degenerate_buckets": [int(k) for k in split.degenerate_buckets],
    }

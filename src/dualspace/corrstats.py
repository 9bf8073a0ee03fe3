"""Correlation and small-sample test-statistic helpers.

Conventions used across the toolkit: a Pearson or Spearman correlation
against a zero-variance series is reported as 0.0 instead of NaN, all
correlations are clipped to [-1, 1] to absorb float round-off, and the
Student-t half-width and critical |r| are two-sided at the 10% level
(`LEVEL`).  A Spearman correlation is `pearson` of the ranks, so it
refuses what `rankdata` refuses: NaN or inf.  Ranks are computed here
with numpy (`rankdata`): importing scipy's statistics package for them
alone costs about a second per process, more than the event study that
uses them.  The normal tail and the Student-t quantile are closed forms
on the standard library (`math.erfc`, `_t_quantile`) for the same
reason: importing `scipy.special` for one scalar call added about 0.3 s
and 15 MB of peak memory to each `backcast` and `eventstudy` process.
The tests hold both to scipy's.
"""

from __future__ import annotations

import math

import numpy as np

LEVEL = 0.10  # significance level of the two-sided tests


def pearson(x, y) -> float:
    """Pearson correlation; 0.0 when either side is constant.  It is
    `rowwise_pearson` of one row, so every correlation shares one formula."""
    return float(rowwise_pearson(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)))[0])


def rowwise_pearson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of a[i] with b[i] for every row i; 0.0 where
    either row is constant, whose centered values are equal but not
    always 0 (a mean of three 0.1s is not 0.1)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ac = a - a.mean(axis=1, keepdims=True)
    bc = b - b.mean(axis=1, keepdims=True)
    sa = np.sqrt((ac * ac).sum(axis=1))
    sb = np.sqrt((bc * bc).sum(axis=1))
    num = (ac * bc).sum(axis=1)
    denom = sa * sb
    out = np.zeros(a.shape[0])
    ok = (denom > 0.0) & (np.ptp(a, axis=1) > 0.0) & (np.ptp(b, axis=1) > 0.0)
    out[ok] = np.clip(num[ok] / denom[ok], -1.0, 1.0)
    return out


def rankdata(a, axis: int = -1) -> np.ndarray:
    """Average ranks along `axis`: 1-based, tied values share their mean rank.

    Defined on finite input only; NaN or inf raises ValueError.  Average
    ranks are exact half-integers, so the result equals scipy's
    `rankdata(a, axis=axis)` (method "average") bit for bit.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("ranks need finite values")
    x = np.moveaxis(a, axis, -1)
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    n = x.shape[-1]
    pos = np.arange(n)
    # tie groups are runs of equal values in sorted order: carry each
    # group's first position forward and its last position backward
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(x.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (first + last + 2) / 2.0, axis=-1)
    return np.moveaxis(ranks, -1, axis)


def spearman(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of the ranks.

    A constant side has equal ranks, so it gets `pearson`'s 0.0; like
    `rankdata`, it refuses NaN or inf with ValueError."""
    return pearson(rankdata(x), rankdata(y))


def fisher_z_pvalue(r1: float, n1: int, r2: float, n2: int) -> float:
    """Two-sided p for equality of two independent Pearson correlations.

    Uses the Fisher z (atanh) transform with variance 1/(n-3); requires
    n > 3 on both sides, otherwise returns NaN.
    """
    if n1 <= 3 or n2 <= 3:
        return float("nan")
    z1 = np.arctanh(np.clip(r1, -0.999999, 0.999999))
    z2 = np.arctanh(np.clip(r2, -0.999999, 0.999999))
    se = np.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    z = (z1 - z2) / se
    return math.erfc(abs(z) / math.sqrt(2.0))  # twice the normal tail beyond |z|


def _t_two_sided_mass(theta: float, df: int) -> float:
    """P(|T| <= sqrt(df) tan(theta)) for Student's t on integer `df`
    (Abramowitz & Stegun 26.7.3 for odd df, 26.7.4 for even df)."""
    odd = df % 2
    c2 = math.cos(theta) ** 2
    term, series = 1.0, 0.0
    for k in range(1, df // 2 + 1):
        series += term
        term *= c2 * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)
    return math.sin(theta) * series


def _t_quantile(df: int, q: float) -> float:
    """The q-quantile (0.5 <= q < 1) of Student's t on integer df >= 1.

    Bisects theta = atan(t / sqrt(df)) in [0, pi/2], on which the
    two-sided mass rises, until the interval holds no float between its
    ends."""
    target = 2.0 * q - 1.0
    lo, hi = 0.0, 0.5 * math.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _t_two_sided_mass(mid, df) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(df) * math.tan(mid)


def student_halfwidth(values) -> float:
    """Two-sided Student-t confidence half-width for the mean at `LEVEL`."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        return 0.0
    t_crit = _t_quantile(n - 1, 1.0 - LEVEL / 2.0)
    return float(t_crit * values.std(ddof=1) / np.sqrt(n))


def corr_significance_threshold(n: int) -> float:
    """Critical |r| for the two-sided `LEVEL` test of zero correlation on n pairs."""
    if n <= 2:
        return 1.0
    t_crit = _t_quantile(n - 2, 1.0 - LEVEL / 2.0)
    return float(t_crit / np.sqrt(n - 2 + t_crit**2))


def standardize(values) -> tuple[np.ndarray, float, float]:
    """Z-score a series; constant series maps to zeros with std reported 1."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    std = float(values.std())
    if std == 0.0:
        return np.zeros_like(values), mean, 1.0
    return (values - mean) / std, mean, std

"""Reference computations made apart from the program (numpy only).

These are what the workloads' checks compare the program's outputs
against: an own reading of a tape file, an own bucketing against the
prior-day VWAP, the operator fit restated as ordinary least squares in
bucket space, the trading-cost formula, and the critical correlation of
the 10% two-sided test.  Nothing here imports dualspace.

Run as a script, it reads the `ingest` tapes of a directory and saves
each tape's reference as `<stem>.ref.npz`:

    python3 bench/reference.py DIR
"""

from __future__ import annotations

import datetime as dt
import math
import os
import re
import sys

import numpy as np

DELTA = 0.5
N_BUCKETS = 16
N_SUBCELLS = 50
#: Cent-quantized prices sit exactly on bucket and sub-cell edges; the
#: bucketing convention nudges the division by this much so float
#: round-off never drops such a trade into the cell below.
EDGE_EPS = 1e-9

SIDES = {"B": 1, "S": -1}
_DATE = re.compile(r"\d{4}-\d{2}-\d{2}")


def parse_date(text: str) -> int | None:
    """Ordinal of an ISO yyyy-mm-dd date, or None."""
    text = text.strip()
    if not _DATE.fullmatch(text):
        return None
    try:
        return dt.date(int(text[:4]), int(text[5:7]), int(text[8:])).toordinal()
    except ValueError:
        return None


def detect_delimiter(lines: list[str]) -> str:
    sample = [ln for ln in lines if ln.strip()][:20]
    counts = {d: sum(ln.count(d) for ln in sample) for d in (",", "\t", ";")}
    best = max(counts, key=counts.get)
    return best if counts[best] else ","


def classify(fields: list[str]) -> tuple[str | None, tuple | None]:
    """(rejection reason, None) or (None, (day, price, side, volume))."""
    if len(fields) < 4:
        return "short row", None
    day = parse_date(fields[0])
    if day is None:
        return "malformed date", None
    try:
        price = float(fields[1])
    except ValueError:
        return "malformed price", None
    if not math.isfinite(price):
        return "non-finite price", None
    if price <= 0:
        return "nonpositive price", None
    try:
        volume = int(fields[3].strip())
    except ValueError:
        return "malformed volume", None
    if volume <= 0:
        return "nonpositive volume", None
    return None, (day, price, SIDES.get(fields[2].strip().upper(), 0), volume)


def read_tape(path: str) -> dict:
    """Own reading of a tape file.

    Lines before the first one whose first field is a date are header
    rows; blank lines are skipped; every other line is a data row that
    is either accepted or rejected with a reason.  Accepted rows come
    back as columns in date order (stable within a day).
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    delim = detect_delimiter(lines)
    rejected: dict[int, str] = {}
    rows = []
    n_header = 0
    in_header = True
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(delim)
        if in_header:
            if parse_date(fields[0]) is None:
                n_header += 1
                continue
            in_header = False
        reason, row = classify(fields)
        if reason:
            rejected[line_no] = reason
        else:
            rows.append(row)
    day = np.array([r[0] for r in rows], dtype=np.int64)
    order = np.argsort(day, kind="stable")
    return {
        "day": day[order],
        "price": np.array([r[1] for r in rows], dtype=float)[order],
        "side": np.array([r[2] for r in rows], dtype=np.int8)[order],
        "volume": np.array([r[3] for r in rows], dtype=np.int64)[order],
        "rejected": rejected,
        "n_header": n_header,
        "n_data": len(rows) + len(rejected),
    }


def side_volumes(side: np.ndarray, volume: np.ndarray) -> dict[str, int]:
    return {name: int(volume[side == code].sum())
            for name, code in (("buy", 1), ("sell", -1), ("unknown", 0))}


def day_refs(day: np.ndarray, price: np.ndarray, volume: np.ndarray):
    """(trading days, day position of each trade, reference price per day).

    The reference is the prior trading day's VWAP over all trades (the
    first day uses its own); a zero-volume day keeps the last VWAP.
    Each day's price-volume sum is taken left to right in tape order,
    the order the method's definition reads the tape in.
    """
    days, pos = np.unique(day, return_inverse=True)
    bounds = np.searchsorted(day, days, side="left").tolist() + [day.size]
    pv = (price * volume).tolist()
    vols = volume.tolist()
    vwaps: list[float | None] = []
    last = None
    for a, b in zip(bounds[:-1], bounds[1:]):
        total = sum(vols[a:b])
        if total > 0:
            last = sum(pv[a:b]) / total
        vwaps.append(last)
    first = next((v for v in vwaps if v is not None), 0.0)
    vwaps = [first if v is None else v for v in vwaps]
    refs = np.array([vwaps[0]] + vwaps[:-1])
    return days, pos, refs


def bucket_tape(day, price, side, volume) -> dict:
    """Per-day sub-cell volumes of every known-side trade against the
    prior-day VWAP, with what falls outside the buckets."""
    days, pos, refs = day_refs(day, price, volume)
    c = np.abs(price - refs[pos])
    bucket = np.floor(c / DELTA + EDGE_EPS).astype(np.int64)
    within = c - bucket * DELTA
    cell = np.clip(np.floor(within / (DELTA / N_SUBCELLS) + EDGE_EPS).astype(np.int64),
                   0, N_SUBCELLS - 1)
    known = side != 0
    inside = known & (bucket < N_BUCKETS)
    sell = (side < 0).astype(np.int64)
    flat = ((pos * 2 + sell) * N_BUCKETS + bucket) * N_SUBCELLS + cell
    fine = np.bincount(flat[inside], weights=volume[inside],
                       minlength=days.size * 2 * N_BUCKETS * N_SUBCELLS)
    n = days.size
    return {
        "days": days,
        "refs": refs,
        "fine": fine.reshape(n, 2, N_BUCKETS, N_SUBCELLS),
        "day_volume": np.bincount(pos, weights=volume, minlength=n),
        "discarded": np.bincount(pos[known & ~inside], minlength=n),
    }


def lstsq_fit(states: np.ndarray) -> np.ndarray:
    """Fitted values of x_{t+1} - x_t on [1, x_t] by least squares."""
    x = np.asarray(states, dtype=float)
    design = np.hstack([np.ones((x.shape[0] - 1, 1)), x[:-1]])
    coef, *_ = np.linalg.lstsq(design, x[1:] - x[:-1], rcond=None)
    return design @ coef


def cost_formula(buy_vol, sell_vol, buy_vwap, sell_vwap):
    """(pi, lambda) per (day t >= 1, bucket) from stacked day panels.

    pi = ask(t-1) * buys(t) - bid(t-1) * sells(t), with the prior-day
    side VWAPs as quote proxies; lambda = |pi| over the mean of today's
    buys and yesterday's sells, 0 where that is 0.
    """
    pi = buy_vwap[:-1] * buy_vol[1:] - sell_vwap[:-1] * sell_vol[1:]
    denom = 0.5 * (buy_vol[1:] + sell_vol[:-1])
    lam = np.divide(np.abs(pi), denom, out=np.zeros_like(pi), where=denom > 0)
    return pi, lam


def critical_r(n: int, level: float = 0.10) -> float:
    """Critical |r| of the two-sided zero-correlation test on n pairs.

    Under the null, r has density (1 - r^2)^((n-4)/2) / B(1/2, (n-2)/2)
    on [-1, 1]; with r = sin(t) the tail P(|r| >= c) is
    2 / B * integral of cos(t)^(n-3) over [asin(c), pi/2], taken here by
    Simpson's rule.  The critical value is found by bisection.
    """
    log_beta = math.lgamma(0.5) + math.lgamma((n - 2) / 2.0) - math.lgamma((n - 1) / 2.0)
    scale = 2.0 * math.exp(-log_beta)

    def tail(c: float, steps: int = 2000) -> float:
        lo = math.asin(c)
        h = (0.5 * math.pi - lo) / steps
        weights = (1 if i in (0, steps) else 4 if i % 2 else 2 for i in range(steps + 1))
        total = sum(w * math.cos(lo + i * h) ** (n - 3) for i, w in enumerate(weights))
        return scale * total * h / 3.0

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def save_tape_reference(path: str) -> None:
    ref = read_tape(path)
    binned = bucket_tape(ref["day"], ref["price"], ref["side"], ref["volume"])
    lines = np.array(sorted(ref["rejected"]), dtype=np.int64)
    np.savez(os.path.splitext(path)[0] + ".ref.npz",
             n_header=ref["n_header"], n_data=ref["n_data"],
             n_records=ref["day"].size,
             side_volume=np.array(list(side_volumes(ref["side"], ref["volume"]).values())),
             rejected_lines=lines,
             rejected_reasons=np.array([ref["rejected"][k] for k in lines.tolist()]),
             **{key: binned[key] for key in ("days", "refs", "day_volume", "discarded")},
             fine=binned["fine"].astype(np.int64))


def main(argv: list[str]) -> int:
    (directory,) = argv
    for name in sorted(os.listdir(directory)):
        if name.endswith((".csv", ".tsv")):
            save_tape_reference(os.path.join(directory, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tail sums and index-functional extremization.

One-index sups and infs go through :func:`extremize`. The two-index
constants, infima over n <= m of (L_n + R_m) M(n, m)^-s or of L_n R_m
M(n, m)^-s (a supremum is taken through its reciprocal), go through
:func:`half_line_pairs` (linear weights, prefix-difference middle sums) or
:func:`log_triangle` (log weights, for two-sided chains whose weights leave
float range both ways); the caller's boundary code picks the routine.
:func:`tail_sum` is a stand-alone certified summation for library users; the
weight layer (``model.WeightSystem``) sums its own tails with
:func:`estimate_remainder_block`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EmptyRange, NegativeTerm

DIVERGENCE_CAP = 1e12
GROWTH_WINDOW = 64      # increments must keep decaying over this many terms
STOP_WINDOW = 256       # no-improvement window for unbounded scans
CONSECUTIVE_SMALL = 16  # increments below tol*sum this many times => converged
BLOCK_ENTRIES = 1 << 20  # entries per 2-D block of a two-index scan


class Certainty(enum.Enum):
    CERTIFIED = "certified"
    WINDOW_STOPPED = "window_stopped"
    RANGE_TRUNCATED = "range_truncated"


@dataclass(frozen=True)
class ExtremumReport:
    arg: object            # index (int) or index pair (tuple)
    value: float
    certified: Certainty
    scanned: tuple         # (lo, hi) actually scanned

    def __repr__(self):
        return "ExtremumReport(arg=%r, value=%r, %s)" % (
            self.arg, self.value, self.certified.value)


@dataclass(frozen=True)
class TailSum:
    value: float           # may be math.inf on a divergence verdict
    flag: str              # closed_form | converged | estimated | divergent
    terms_used: int = 0

    @property
    def certified(self):
        return self.flag in ("closed_form", "converged")


def _estimate_remainder(t_prev: float, t_last: float, k_last: int) -> float:
    """Remainder estimate after the last computed term.

    Geometric if the term ratio is clearly < 1, else integral test with the
    local power fitted from the ratio. Returns +inf when the terms do not
    decay.
    """
    if t_last <= 0.0:
        return 0.0
    if t_prev <= 0.0:
        return math.inf
    r = t_last / t_prev
    if r >= 1.0:
        return math.inf
    if r < 0.9:
        return t_last * r / (1.0 - r)
    # algebraic decay: t_k ~ C k^-p with p from the local ratio
    p = math.log(r) / math.log((k_last - 1.0) / k_last) if k_last > 1 else math.inf
    if p <= 1.0 + 1e-9:
        return math.inf
    return t_last * k_last / (p - 1.0)


def estimate_remainder_block(terms: np.ndarray, start: int, block: int = 64) -> float:
    """Remainder estimate from the trailing block sums.

    Block aggregation is robust to periodic term patterns that confuse the
    per-term ratio (alternating-rate chains). Falls back to the per-term
    estimator on short inputs.
    """
    n = len(terms)
    if n < 2 * block + 2:
        if n < 2:
            return math.inf if (n and terms[-1] > 0) else 0.0
        return _estimate_remainder(float(terms[-2]), float(terms[-1]), start + n - 1)
    s1 = float(np.sum(terms[-block:]))
    s0 = float(np.sum(terms[-2 * block:-block]))
    if s1 <= 0.0:
        return 0.0
    if s0 <= 0.0 or s1 >= s0:
        return math.inf
    q = s1 / s0
    if q < 0.9:
        return s1 * q / (1.0 - q)
    # algebraic block decay: fit the power from the block ratio
    k = start + n - 1
    p = math.log(q) / math.log((k - block) / float(k)) if k > block else math.inf
    if p <= 1.0 + 1e-9:
        return math.inf
    return s1 / block * k / (p - 1.0)


def tail_sum(term: Callable[[np.ndarray], np.ndarray],
             start: int,
             hint: Optional[float] = None,
             tol: float = 1e-10,
             n_max: int = 10 ** 7,
             block: int = 1024) -> TailSum:
    """Sum term(i) for i >= start.

    ``term`` must be vectorized over an int64 array and nonnegative. A closed
    form ``hint`` short-circuits everything. Otherwise terms are accumulated
    in growing blocks; the result carries an integral-test remainder estimate
    and the flag says how trustworthy the value is.
    """
    if hint is not None:
        return TailSum(float(hint), "closed_form")
    total = 0.0
    lo = start
    small_run = 0
    incr_hist: list[float] = []
    t_prev = t_last = 0.0
    used = 0
    while lo < start + n_max:
        hi = min(lo + block, start + n_max)
        idx = np.arange(lo, hi, dtype=np.int64)
        t = np.asarray(term(idx), dtype=float)
        if np.any(t < 0.0):
            raise NegativeTerm("negative term at index %d" % int(idx[np.argmax(t < 0)]))
        total += float(t.sum())
        used += len(idx)
        t_prev, t_last = (float(t[-2]) if len(t) > 1 else t_last), float(t[-1])
        incr_hist.append(float(t[-1]))
        # divergence heuristic: huge sum with non-decaying increments
        if total > DIVERGENCE_CAP and len(incr_hist) >= 2 \
                and incr_hist[-1] >= incr_hist[max(0, len(incr_hist) - GROWTH_WINDOW // 8)] * (1 - 1e-12):
            return TailSum(math.inf, "divergent", used)
        if t_last <= tol * max(total, 1e-300):
            small_run += 1
        else:
            small_run = 0
        rem = _estimate_remainder(t_prev, t_last, hi - 1)
        if math.isfinite(rem) and rem <= tol * max(total, 1e-300) and small_run >= 1:
            return TailSum(total + rem, "converged", used)
        if small_run >= CONSECUTIVE_SMALL and t_last == 0.0:
            return TailSum(total, "converged", used)
        lo = hi
        block = min(2 * block, 1 << 20)
    rem = _estimate_remainder(t_prev, t_last, start + n_max - 1)
    if not math.isfinite(rem):
        # the integral-test exponent stayed <= 1 through the whole budget:
        # that is the divergence verdict, not a usable partial sum
        return TailSum(math.inf, "divergent", used)
    return TailSum(total + rem, "estimated" if rem > tol * max(total, 1e-300) else "converged", used)


def extremize(objective: Callable[[np.ndarray], np.ndarray],
              direction: str,
              lo: int,
              hi: Optional[int] = None,
              window: int = STOP_WINDOW,
              hard_cap: int = 10 ** 6) -> ExtremumReport:
    """Sup or Inf of objective(i) over i in [lo, hi] (hi=None means unbounded).

    Exhaustive on finite ranges. On unbounded ranges, scans in blocks and
    stops after ``window`` consecutive indices without improvement
    (WindowStopped). +-inf values are legal.
    """
    if direction not in ("sup", "inf"):
        raise ValueError("direction must be 'sup' or 'inf'")
    sign = 1.0 if direction == "sup" else -1.0
    if hi is not None and hi < lo:
        raise EmptyRange("empty range [%d, %d]" % (lo, hi))
    bound = hi if hi is not None else lo + hard_cap - 1
    best = -math.inf
    arg = lo
    since_improve = 0
    cur = lo
    block = 256
    last = lo - 1
    while cur <= bound:
        top = min(cur + block - 1, bound)
        idx = np.arange(cur, top + 1, dtype=np.int64)
        with np.errstate(all="ignore"):
            vals = sign * np.asarray(objective(idx), dtype=float)
        vals = np.where(np.isnan(vals), -math.inf, vals)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            arg = int(idx[k])
            since_improve = int(top - idx[k])
        else:
            since_improve += len(idx)
        last = top
        if hi is None and since_improve >= window:
            return ExtremumReport(arg, sign * best, Certainty.WINDOW_STOPPED, (lo, last))
        cur = top + 1
        block = min(2 * block, 1 << 16)
    cert = Certainty.CERTIFIED if hi is not None else Certainty.RANGE_TRUNCATED
    return ExtremumReport(arg, sign * best, cert, (lo, last))


def extremize_pairs(row_values: Callable[[int, np.ndarray], np.ndarray],
                    direction: str,
                    n_lo: int,
                    m_of_n: Callable[[int], int],
                    n_hi: Optional[int] = None,
                    m_hi: Optional[int] = None,
                    window: int = STOP_WINDOW,
                    hard_cap: int = 10 ** 5) -> ExtremumReport:
    """Two-index extremum over the triangle {(n, m): m >= m_of_n(n)}.

    ``row_values(n, ms)`` returns the objective along row n. Rows and columns
    are window-stopped independently; ties break toward the smallest (n, m).
    """
    sign = 1.0 if direction == "sup" else -1.0
    best = -math.inf
    arg = None
    n = n_lo
    rows_since_improve = 0
    n_cap = n_hi if n_hi is not None else n_lo + hard_cap
    while n <= n_cap:
        m0 = m_of_n(n)
        m_cap = m_hi if m_hi is not None else m0 + hard_cap
        m = m0
        since = 0
        row_best = -math.inf
        block = 128
        while m <= m_cap:
            top = min(m + block - 1, m_cap)
            ms = np.arange(m, top + 1, dtype=np.int64)
            with np.errstate(all="ignore"):
                vals = sign * np.asarray(row_values(n, ms), dtype=float)
            vals = np.where(np.isnan(vals), -math.inf, vals)
            k = int(np.argmax(vals))
            if vals[k] > row_best:
                row_best = float(vals[k])
                row_arg = int(ms[k])
                since = int(top - ms[k])
            else:
                since += len(ms)
            if m_hi is None and since >= window:
                break
            m = top + 1
            block = min(2 * block, 1 << 14)
        if row_best > best:
            best = row_best
            arg = (n, row_arg)
            rows_since_improve = 0
        else:
            rows_since_improve += 1
        if n_hi is None and rows_since_improve >= window:
            return ExtremumReport(arg, sign * best, Certainty.WINDOW_STOPPED, (n_lo, n))
        n += 1
    cert = Certainty.CERTIFIED if (n_hi is not None and m_hi is not None) else Certainty.WINDOW_STOPPED
    return ExtremumReport(arg, sign * best, cert, (n_lo, min(n, n_cap)))


def _row_blocks(rows: int, cols: int) -> list:
    """Row ranges [r0, r1) whose blocks of ``cols`` columns hold about
    BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // max(cols, 1))
    return [(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def half_line_pairs(left: np.ndarray, right: np.ndarray, mid: np.ndarray, strict: bool,
                    base: int, exhaustive: bool, s: float = 1.0,
                    product: bool = False) -> ExtremumReport:
    """inf over n <= m (n < m when strict) of (L_n + R_m) / M(n, m)^s.

    ``left[n]`` and ``right[m]`` are reciprocal boundary terms (1/inf = 0
    already applied) and M(n, m) is the sum of ``mid`` over [n, m], or over
    [n, m-1] when strict, taken as a prefix difference. An overflowed or empty
    middle sum never counts as a small value. ``product`` puts L_n R_m in the
    numerator instead; a vanishing product (an infinite boundary sum) does not
    count. Rows are evaluated in blocks, each to the end of the window. Unless
    ``exhaustive`` (a finite chain), rows stop after STOP_WINDOW of them
    without improvement and the best row gets an Aitken limit along m, since
    several of the defining infima are attained only as m -> infinity.
    Ties break toward the smallest (n, m).
    """
    W = len(mid)
    with np.errstate(over="ignore"):
        midc = np.concatenate([[0.0], np.cumsum(mid)])

    def values(n, m):
        with np.errstate(all="ignore"):
            den = midc[m if strict else m + 1] - midc[n]
            v = left[n] * right[m] if product else left[n] + right[m]
            ok = np.isfinite(den) & (den > 0.0) & (m >= n + strict)
            v /= den ** s
        ok &= (v > 0.0) if product else ~np.isnan(v)
        v[~ok] = math.inf
        return v

    best, arg, last_imp, stop = math.inf, None, -1, W - 1
    for r0, r1 in _row_blocks(W, W):
        rows = np.arange(r0, r1)
        v = values(rows[:, None], np.arange(r0, W)[None, :])
        rv = v.min(axis=1)
        imp = rv < np.minimum.accumulate(np.concatenate([[best], rv]))[:-1]
        if not exhaustive:
            since = rows - np.maximum.accumulate(np.where(imp, rows, last_imp))
            hit = np.flatnonzero(since >= STOP_WINDOW)
            if len(hit):
                stop = r0 + int(hit[0])
                imp[hit[0]:] = False
        if imp.any():
            j = int(np.flatnonzero(imp)[-1])
            best, arg, last_imp = float(rv[j]), (r0 + j, r0 + int(np.argmin(v[j]))), r0 + j
        if stop < W - 1:
            break
    cert = Certainty.CERTIFIED if exhaustive else Certainty.WINDOW_STOPPED
    rep = ExtremumReport(None if arg is None else (base + arg[0], base + arg[1]), best,
                         cert, (base, base + stop))
    if exhaustive or arg is None or W - 1 - arg[1] < 8:
        return rep
    offs = np.unique(np.geomspace(1.0, W - 1 - arg[1], 24).astype(np.int64))
    vals = values(arg[0], arg[1] + np.concatenate([[0], offs]))
    vals = vals[np.isfinite(vals)]
    if len(vals) >= 4 and np.all(np.diff(vals) < 0):
        acc = aitken(vals)
        if len(acc) and math.isfinite(acc[-1]) and 0.0 < acc[-1] < best:
            return ExtremumReport(rep.arg, float(acc[-1]), cert, rep.scanned)
    return rep


def log_triangle(row: np.ndarray, col: np.ndarray, log_w: np.ndarray, s: float = 1.0,
                 product: bool = False):
    """inf over r <= c of log[(L_r + R_c) / M(r, c)^s], all in logs.

    ``row``, ``col`` and ``log_w`` hold log L, log R and the log middle
    weights; M(r, c) sums exp(log_w) over [r, c] and is accumulated along
    each row with ``np.logaddexp.accumulate``, since prefix differences of
    log-sums cancel catastrophically when the weights explode both ways.
    ``product`` puts L_r R_c (a ``+`` of logs) in place of the sum (a
    ``logaddexp``). Rows r < len(row) go in blocks of about BLOCK_ENTRIES
    entries; a row holding a NaN does not count. Returns ``(value, (r, c))``
    with the first minimal pair in row-major order, or ``(inf, None)``.
    """
    W = len(log_w)
    best, arg = math.inf, None
    for r0, r1 in _row_blocks(len(row), W):
        tri = np.arange(r0, W)[None, :] >= np.arange(r0, r1)[:, None]
        lr, lc = row[r0:r1, None], col[None, r0:]
        with np.errstate(all="ignore"):
            acc = np.logaddexp.accumulate(np.where(tri, log_w[r0:], -math.inf), axis=1)
            v = (lr + lc if product else np.logaddexp(lr, lc)) - s * acc
        v[~tri] = math.inf
        rv = v.min(axis=1)
        rv[np.isnan(rv)] = math.inf
        j = int(np.argmin(rv))
        if rv[j] < best:
            best, arg = float(rv[j]), (r0 + j, r0 + int(np.argmin(v[j])))
    return best, arg


# ---------------------------------------------------------------------------
# sequence acceleration (used by the oracle's truncation limits)
# ---------------------------------------------------------------------------

def aitken(seq) -> np.ndarray:
    """Aitken delta-squared transform; len(seq) - 2 accelerated values."""
    x = np.asarray(seq, dtype=float)
    if len(x) < 3:
        return x[2:]
    d1 = np.diff(x)
    dd = np.diff(d1)
    with np.errstate(all="ignore"):
        out = x[2:] - d1[1:] ** 2 / dd
    return np.where(np.isfinite(out), out, x[2:])


def _log_model_limit(ms, lams) -> float:
    """Limit of lam(m) under the model lam = lam_inf + C/(ln m + d)^2.

    Stage 1 solves the 3-point model exactly on the last three entries;
    stage 2 refines by maximizing linearity of (lam - x)^(-1/2) against
    {1, ln m, 1/ln m} over the whole schedule.
    """
    from scipy.optimize import brentq, minimize_scalar
    lams = np.asarray(lams, dtype=float)
    l1, l2, l3 = lams[-3], lams[-2], lams[-1]
    if not l1 > l2 > l3:
        return float(l3)

    def f3(x):
        return 2.0 / math.sqrt(l2 - x) - 1.0 / math.sqrt(l1 - x) - 1.0 / math.sqrt(l3 - x)

    span = max(abs(l1 - l3), 1e-12) * 1e4
    hi = l3 - 1e-13 * max(1.0, abs(l3))
    try:
        seed = brentq(f3, l3 - span, hi, xtol=1e-15)
    except (ValueError, ZeroDivisionError):
        return float(l3)
    if len(lams) < 5:
        return float(seed)
    L = np.log(np.asarray(ms, dtype=float))
    A = np.vstack([np.ones_like(L), L, 1.0 / L]).T

    def resid(x):
        u = 1.0 / np.sqrt(np.maximum(lams - x, 1e-300))
        coef, *_ = np.linalg.lstsq(A, u, rcond=None)
        r = u - A @ coef
        return float(r @ r)

    gap = l3 - seed
    lo = seed - 2.0 * gap
    hi = min(l3 - 1e-12 * max(1.0, abs(l3)), seed + 0.9 * gap)
    if not lo < hi:
        return float(seed)
    out = minimize_scalar(resid, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return float(out.x)


def extrapolate_limit(ms, lams, atol: float = 1e-13):
    """Extrapolated limit of a monotone truncation sequence.

    Returns ``(limit, mode)`` with mode in {converged, aitken, log_model}.
    The decay class is picked from the increment ratios: stable ratios mean
    geometric (or algebraic-on-a-doubling-schedule) decay where Aitken is
    right; ratios drifting toward 1 mean logarithmic decay where the
    (ln m)^-2 model applies.
    """
    x = np.asarray(lams, dtype=float)
    if len(x) < 3:
        return float(x[-1]), "converged"
    d = np.diff(x)
    scale = max(abs(x[-1]), 1.0)
    if abs(d[-1]) <= atol * scale:
        return float(x[-1]), "converged"
    with np.errstate(all="ignore"):
        r = d[1:] / d[:-1]
    r = r[np.isfinite(r)]
    if len(r) >= 2 and np.all(r > 0.0) and np.all(r < 0.999):
        drift = (r[-1] / r[0]) ** (1.0 / max(len(r) - 1, 1)) - 1.0
        if r[-1] > 0.7 and drift > 0.005:
            return _log_model_limit(ms, lams), "log_model"
        acc = x.copy()
        for _ in range(2):
            if len(acc) >= 3:
                acc = aitken(acc)
        return float(acc[-1]), "aitken"
    if len(r) >= 2 and np.all(r > 0.0) and r[-1] >= 0.999:
        return _log_model_limit(ms, lams), "log_model"
    return float(x[-1]), "converged"

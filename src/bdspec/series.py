"""Tail sums and index-functional extremization.

The one-index suprema (delta^(3.1), delta^(4.4) and their L^(p/2) forms)
are a max over one window array, taken with their objectives in
``estimates._delta_sup``. The two-index constants, infima over n <= m of
(L_n + R_m) M(n, m)^-s or of L_n R_m M(n, m)^-s (a supremum is taken through
its reciprocal), go through :func:`half_line_pairs` (linear weights,
prefix-difference middle sums) or :func:`log_triangle` (log weights, for
two-sided chains whose weights leave float range both ways); the caller's
boundary code picks the routine. :func:`half_line_pairs` searches the finite
part of its window exactly, by Dinkelbach's iteration for the sum (kappa of
(6.13) and (7.5), B of (8.6); ranked by complex lexicographic order) and a
monotone-argmin search for the product (the half-line split B), both stopped
at the column where the middle prefix saturates when every later column is
dominated by it. That search, :func:`_monge_argmins`, also takes Theorem
9.9's double infimum (``killing.upper_9_9``) over the whole (ell, m) triangle.
Every tail goes one route: :func:`estimate_remainder_block` is the one
remainder estimator and :func:`tail_sums` the one suffix-plus-remainder sum.
``model.WeightSystem`` owns the weight series' totals and tails and estimates
each remainder once; the first-step sums of ``approx`` read the same two
functions, and the tail ratio of ``oracle`` the remainder estimator. An
infinite remainder is the one divergence verdict, of ``killing.reduce_9_11``,
``model.classify_uniqueness`` and the one-index suprema of
``estimates._delta_sup``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

BLOCK_ENTRIES = 1 << 20  # entries per 2-D block of a two-index scan
REMAINDER_BLOCK = 64     # terms per block of the remainder estimator
DENSE_ENTRIES = 1 << 15  # a Monge staircase this small is searched in one step
LIMIT_TOL = 1e-13        # a last step below this, relative to max(|limit|, 1), has converged


class Certainty(enum.Enum):
    CERTIFIED = "certified"
    WINDOW_STOPPED = "window_stopped"


@dataclass(frozen=True)
class ExtremumReport:
    arg: object            # index (int) or index pair (tuple)
    value: float
    certified: Certainty
    scanned: tuple         # (lo, hi) actually scanned

    def __repr__(self):
        return "ExtremumReport(arg=%r, value=%r, %s)" % (
            self.arg, self.value, self.certified.value)


class Labelled(tuple):
    """A tuple of bounds that unpacks and iterates as a plain tuple, with
    the one ``certified`` :class:`Certainty` they share."""

    def __new__(cls, values, certified: Certainty):
        out = super().__new__(cls, values)
        out.certified = certified
        return out

    def __getnewargs__(self):
        return tuple(self), self.certified


@dataclass(frozen=True)
class TailSum:
    value: float           # may be math.inf on a divergence verdict
    flag: str              # closed_form | converged | estimated | divergent


def estimate_remainder_block(terms: np.ndarray, start: int) -> float:
    """The remainder past the last term of a nonnegative series, estimated
    from its trailing terms: the one remainder estimator of the package.

    ``terms[k]`` is the term of index ``start + k``. The estimate compares the
    sums of the last two blocks of REMAINDER_BLOCK terms, which is robust to
    periodic term patterns that confuse a per-term ratio (alternating-rate
    chains); shorter inputs compare blocks of two terms (one below 6 terms).
    Returns +inf when the terms do not decay, or decay no faster than the
    harmonic series 1/j over the same two blocks. Otherwise a ratio q clearly
    below 1 gives the geometric remainder t q / (1 - q), and any other the
    integral test with the local power p fitted from q, t k / (p - 1), t the
    mean trailing term and k the last index.
    """
    n = len(terms)
    if n < 2:
        return math.inf if (n and terms[-1] > 0) else 0.0
    block = REMAINDER_BLOCK if n >= 2 * REMAINDER_BLOCK + 2 else 2 if n >= 6 else 1
    with np.errstate(over="ignore"):
        s1 = float(np.sum(terms[-block:]))
        s0 = float(np.sum(terms[-2 * block:-block]))
    if s1 <= 0.0:
        return 0.0
    if s0 <= 0.0 or s1 >= s0:
        return math.inf
    q = s1 / s0
    k = start + n - 1
    if k >= 2 * block and q > 0.0:
        # p is fitted across the block ends, which over-reads a power law by
        # O(block / k), offset in t k / (p - 1) by the mean term's lag. The
        # fit reads 1/j as 1 + O(block / k), so the verdict compares with
        # that, before the geometric branch: 1/j at 200 terms has q ~ 0.6.
        gap = math.log((k - block) / float(k))
        h = 1.0 / np.arange(k - 2 * block + 1, k + 1, dtype=float)
        p = math.log(q) / gap
        if p <= math.log(float(np.sum(h[block:])) / float(np.sum(h[:block]))) / gap + 1e-9:
            return math.inf
    if q < 0.9:
        return s1 * q / (1.0 - q)
    if k < 2 * block:
        return 0.0                # the blocks reach index 0: no power to fit
    return s1 / block * k / (p - 1.0)


def tail_sums(terms: np.ndarray, start: int, rem=None) -> np.ndarray:
    """out[i] = sum of terms[k] over k >= i plus the remainder past the last
    term, for i = 0..len(terms) (so out[-1] is the remainder alone), along
    the last axis: a batch of series is summed row by row, each row as alone.

    ``rem`` is that remainder: 0 for a series that ends with its last term,
    a column of remainders for a batch, None to estimate it (one series) by
    :func:`estimate_remainder_block`. Suffix accumulation keeps full relative
    accuracy at every scale; subtracting prefixes from a total would bottom
    out at the total's rounding floor and inflate deep tails by hundreds of
    orders.
    """
    out = np.zeros(np.shape(terms)[:-1] + (np.shape(terms)[-1] + 1,))
    with np.errstate(over="ignore"):
        np.cumsum(terms[..., ::-1], axis=-1, out=out[..., -2::-1])
    out += estimate_remainder_block(terms, start) if rem is None else rem
    return out


def _row_blocks(rows: int, cols: int) -> list:
    """Row ranges [r0, r1) whose blocks of ``cols`` columns hold about
    BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // max(cols, 1))
    return [(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def half_line_pairs(left: np.ndarray, right: np.ndarray, mid_prefix: np.ndarray, strict: bool,
                    base: int, certified: Certainty, s: float = 1.0,
                    product: bool = False) -> ExtremumReport:
    """inf over n <= m (n < m when strict) of (L_n + R_m) / M(n, m)^s.

    ``left[n]`` and ``right[m]`` are reciprocal boundary terms (1/inf = 0
    already applied) and M(n, m) = Q_m - P_n, the middle weights' sum over
    [n, m] ([n, m-1] when strict) from their prefix sums ``mid_prefix``. An
    overflowed or empty middle sum never counts as a small value. ``product``
    puts L_n R_m in the numerator instead; a vanishing product (an infinite
    boundary sum) does not count.

    Only the first W_eff columns are searched, up to the last one whose Q_m
    and R_m are finite (and R_m > 0 for the product), since no later column
    holds a finite entry; ``scanned`` is (base, base + W_eff - 1). Once the
    middle prefix has saturated, Q_m = Q[W_eff - 1] from the first such
    column k on, every column m > k with R_m >= R_k (and R_k > 0 for the
    product) is dominated: it has column k's middle sums and a numerator no
    smaller, and no row past k has M > 0. When all are, the kernels get the
    first k + 1 columns; ``scanned`` still names the whole finite part. The sum
    goes to :func:`_fractional_min` and the product to :func:`_monge_min`,
    both exact and sub-quadratic. The returned pair is the window's exact
    minimum, and the report carries ``certified``, the window's label.
    """
    W = len(mid_prefix)
    midc = np.concatenate([[0.0], mid_prefix])
    P, Q = midc[:W], midc[1 - strict:W + 1 - strict]
    cols = np.flatnonzero(np.isfinite(Q) & np.isfinite(right) & ((right > 0.0) | (not product)))
    w_eff = int(cols[-1]) + 1 if len(cols) else 0
    k = int(np.searchsorted(Q[:w_eff], Q[w_eff - 1])) if w_eff else 0   # Q saturated from k
    cut = k + 1 if k + 1 < w_eff and right[k + 1:w_eff].min() >= right[k] \
        and (right[k] > 0.0 or not product) else w_eff
    lr = (left[:cut], right[:cut], P[:cut], Q[:cut])
    best, arg = _monge_min(*lr, s) if product else _fractional_min(*lr, s)
    return ExtremumReport(None if arg is None else (base + arg[0], base + arg[1]), best,
                          certified, (base, base + w_eff - 1))


def _fractional_min(L, R, P, Q, s):
    """(min, argmin) of (L_n + R_m) / (Q_m - P_n)^s over Q_m > P_n, or (inf, None).

    A staircase of at most DENSE_ENTRIES entries (rows with finite L times
    columns) is evaluated whole in one 2-D step, as in :func:`_monge_argmins`,
    and the pair returned is the first least entry in row-major order.
    Above that size, Dinkelbach's iteration (1967), from the pairs of the
    first row with finite L: given the least ratio c so far, the pairs
    minimising (L_n + R_m) / c - (Q_m - P_n)^s are found, and c falls to
    their least exact ratio until it stops falling. At s = 1 the form is
    separable and column m takes the prefix argmin of P_n + L_n / c as an
    exact two-sum (hi, lo), as rounding drops L_n / c below an ulp of P_n
    and misses small middle sums: a running ``np.fmin`` of hi + i lo (numpy
    orders complex numbers lexicographically) in O(W), earliest index first,
    NaN keys (hi = inf) skipped. Otherwise each row takes its argmin from
    :func:`_monge_argmins`. Both paths evaluate the same float expression
    at a pair. On an exact tie the iteration returns the pair its last step
    ranked first, which need not be the row-major first; and its rounding
    can hide the least ratio where middle sums near overflow.
    """
    rows = np.flatnonzero(np.isfinite(L))
    if not len(rows):
        return math.inf, None
    if len(rows) * len(Q) <= DENSE_ENTRIES:
        with np.errstate(all="ignore"):
            d = Q - P[rows, None]
            r = np.where(d > 0.0, (L[rows, None] + R) / (d if s == 1.0 else d ** s), math.inf)
        n, m = divmod(int(np.argmin(r)), len(Q))
        return (float(r[n, m]), (int(rows[n]), m)) if r[n, m] < math.inf else (math.inf, None)
    idx = np.arange(len(Q))
    n, m, c, arg = np.full(len(Q), rows[0]), slice(None), math.inf, None  # m: all columns
    with np.errstate(all="ignore"):
        while c > 0.0:
            den = Q[m] - P[n]
            r = np.where(den > 0.0, (L[n] + R[m]) / (den if s == 1.0 else den ** s), math.inf)
            j = int(np.argmin(r))
            if not r[j] < c:
                break
            c, arg = float(r[j]), (int(n[j]), int(idx[m][j]))
            if s == 1.0:
                t = L / c
                hi = P + t
                d = hi - P
                key = np.empty(len(P), complex)
                key.real, key.imag = hi, (P - (hi - d)) + (t - d)
                low = np.fmin.accumulate(key)
                new = key == low
                new[1:] &= low[1:] != low[:-1]
                n = np.maximum.accumulate(idx * new)
            else:
                n, m = _monge_argmins(L / c, R / c, P, Q, lambda t: -t ** s)
    return c, arg


def _monge_min(L, R, P, Q, s):
    """(min, argmin) of L_n R_m / (Q_m - P_n)^s over Q_m > P_n, or (inf, None):
    each row's argmin from its logarithm (:func:`_monge_argmins`), then the
    least of their values."""
    with np.errstate(all="ignore"):
        n, m = _monge_argmins(np.log(L), np.log(R), P, Q, lambda t: -s * np.log(t))
        v = L[n] * R[m] / (Q[m] - P[n]) ** s
    if not len(v):
        return math.inf, None
    k = int(np.argmin(v))
    return float(v[k]), (int(n[k]), int(m[k]))


def _monge_argmins(a, b, x, y, phi):
    """Row argmins of A[n, m] = a_n + b_m + phi(y_m - x_n), +inf where
    y_m <= x_n, for convex phi and nondecreasing x and y: the rows n with a
    finite entry and their leftmost argmins m(n), for :func:`_fractional_min`
    (s != 1), :func:`_monge_min` and Theorem 9.9's ``killing.upper_9_9``.

    A is Monge (phi(y - x) has a nonpositive mixed derivative, and the +inf
    staircase keeps the property), so m(n) does not decrease down the rows,
    and a divide and conquer on it (Aggarwal et al. 1987) evaluates
    O(rows + columns) entries per level. A staircase of at most DENSE_ENTRIES
    entries is evaluated whole in one 2-D step instead, which is cheaper.
    Rows with a non-finite a_n, columns with a non-finite b_m and the
    trailing rows no column reaches go first.
    """
    rows, cols = np.flatnonzero(np.isfinite(a)), np.flatnonzero(np.isfinite(b))
    rows = rows[x[rows] < y[cols[-1]]] if len(cols) else rows[:0]
    a, x, b, y = a[rows], x[rows], b[cols], y[cols]
    if 0 < len(rows) * len(cols) <= DENSE_ENTRIES:
        with np.errstate(all="ignore"):
            d = y[None, :] - x[:, None]
            v = np.where(d > 0.0, a[:, None] + b + phi(d), math.inf)
        return rows, cols[np.argmin(v, axis=1)]
    row_arg = np.empty(len(rows), dtype=np.int64)
    r_lo, r_hi, c_lo, c_hi = (np.array([k]) for k in (0, len(rows) - 1, 0, len(cols) - 1))
    while len(rows) and len(r_lo):
        rm, width = (r_lo + r_hi) // 2, c_hi - c_lo + 1
        starts = np.cumsum(width) - width
        seg = np.repeat(np.arange(len(rm)), width)
        i, j = rm[seg], c_lo[seg] + np.arange(len(seg)) - starts[seg]
        with np.errstate(all="ignore"):
            v = np.where(y[j] > x[i], a[i] + b[j] + phi(y[j] - x[i]), math.inf)
        vmin = np.minimum.reduceat(v, starts)
        row_arg[rm] = jmin = np.minimum.reduceat(np.where(v == vmin[seg], j, len(cols)), starts)
        top, bot = r_lo < rm, rm < r_hi
        r_lo, r_hi = np.concatenate([r_lo[top], rm[bot] + 1]), np.concatenate([rm[top] - 1, r_hi[bot]])
        c_lo, c_hi = np.concatenate([c_lo[top], jmin[bot]]), np.concatenate([jmin[top], c_hi[bot]])
    return rows, cols[row_arg]


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


def exp_or_inf(x: float) -> float:
    """exp(x), or inf where it overflows: the one way out of the log domain."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# sequence acceleration (used by the oracle's truncation limits)
# ---------------------------------------------------------------------------

def aitken(seq) -> np.ndarray:
    """Aitken delta-squared transform; len(seq) - 2 accelerated values."""
    x = np.asarray(seq, dtype=float)
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


def extrapolate_limit(ms, lams):
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
    if abs(d[-1]) <= LIMIT_TOL * scale:
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

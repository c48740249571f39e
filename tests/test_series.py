import math

import mpmath
import numpy as np
import pytest

from bdspec import estimates, series
from bdspec.catalog import catalog, catalog_names
from bdspec.model import BoundaryCode, build_weights


def _prefix(mid):
    """The middle prefix sums half_line_pairs takes, overflow allowed."""
    with np.errstate(over="ignore"):
        return np.cumsum(mid)


def brute_pairs(L, R, mid_prefix, strict, s=1.0, product=False):
    """Reference for series.half_line_pairs: every pair n <= m - strict
    evaluated, in blocks of rows. Returns the first minimum in row-major
    order, its pair, the tolerance max(1e-13, 16 eps Q_m / M(n, m)) at that
    pair, and whether no other pair lies within that tolerance of it."""
    W = len(mid_prefix)
    midc = np.concatenate([[0.0], mid_prefix])
    best, arg, second = math.inf, None, math.inf
    for r0 in range(0, W, 256):
        n, m = np.arange(r0, min(r0 + 256, W))[:, None], np.arange(r0, W)[None, :]
        with np.errstate(all="ignore"):
            den = midc[m + 1 - strict] - midc[n]
            v = (L[n] * R[m] if product else L[n] + R[m]) / den ** s
        ok = np.isfinite(den) & (den > 0.0) & (m >= n + strict) & ~np.isnan(v)
        if product:
            ok &= (L[n] > 0.0) & (R[m] > 0.0)
        v = np.where(ok, v, math.inf).ravel()
        two = np.partition(v, 1)[:2] if len(v) > 1 else np.append(v, math.inf)
        k = int(np.argmin(v))
        if v[k] < best:
            second = min(best, two[1])
            best, arg = float(v[k]), (r0 + k // m.shape[1], r0 + k % m.shape[1])
        else:
            second = min(second, two[0])
    if arg is None:
        return best, None, 0.0, True
    q = midc[arg[1] + 1 - strict]
    tol = max(1e-13, 16 * np.finfo(float).eps * q / (q - midc[arg[0]]))
    return best, arg, tol, second > best * (1.0 + 2.0 * tol)


def _check_pairs(L, R, mid_prefix, strict, s=1.0, product=False, base=0):
    """The product, ranked in logs, agrees with the reference to its rounding
    bound; the sum, whose pairs are chosen exactly on the stored prefix sums,
    to a few ulps even where that bound is loose. Under either label: a
    window-stopped scan returns the window's minimum too."""
    best, arg, tol, unique = brute_pairs(L, R, mid_prefix, strict, s, product)
    rel = tol if product else 4 * np.finfo(float).eps
    for label in series.Certainty:
        rep = series.half_line_pairs(L, R, mid_prefix, strict, base, label, s, product)
        assert rep.certified is label
        if arg is None:
            assert rep.arg is None and rep.value == math.inf
            continue
        assert rep.value == pytest.approx(best, rel=rel, abs=0.0)
        if unique:
            assert rep.arg == (base + arg[0], base + arg[1])


HALF_LINE = [name for name in catalog_names()
             if catalog(name).boundary is not BoundaryCode.DD_BILATERAL]


@pytest.mark.parametrize("name", HALF_LINE)
def test_half_line_pairs_matches_brute_force_on_catalog(name):
    """kappa of (6.13) on a reflecting origin, of (7.5) on an absorbing one,
    and on DD chains the (8.6) sum at s = 2/3 and the split product at s = 1
    and 2/3, against every pair of the first 4096 states."""
    model = catalog(name)
    ws = build_weights(model, 4096)
    terms = estimates._kappa_terms(ws, model.boundary.origin_reflecting)
    _check_pairs(*terms, base=ws.base)
    if model.boundary is BoundaryCode.DD:
        _check_pairs(*terms, s=2.0 / 3.0, base=ws.base)
        for s in (1.0, 2.0 / 3.0):
            _check_pairs(*terms, s=s, product=True, base=ws.base)


def _random_terms(rng, W):
    """Boundary and middle terms with the hazards of real windows: zero and
    infinite boundary terms (an infinite or an underflowed sum behind them),
    underflowed middle weights and middle sums that overflow."""
    L = np.exp(rng.normal(0.0, 4.0, W))
    R = np.exp(rng.normal(0.0, 4.0, W))
    mid = np.exp(rng.normal(0.0, 4.0, W))
    for arr, bad in ((L, 0.0), (L, math.inf), (R, 0.0), (R, math.inf), (mid, 0.0)):
        arr[rng.random(W) < 0.15] = bad
    if rng.random() < 0.3:
        k = rng.integers(W)
        mid[k:] = 1e307 * rng.random(W - k)
    return L, R, mid


@pytest.mark.parametrize("W", [1, 2, 3, 64])
@pytest.mark.parametrize("strict", [True, False])
def test_half_line_pairs_matches_brute_force_on_random_terms(W, strict):
    rng = np.random.default_rng(1000 * W + strict)
    for _ in range(40):
        L, R, mid = _random_terms(rng, W)
        for s in (1.0, 2.0 / 3.0):
            _check_pairs(L, R, _prefix(mid), strict, s=s)
            _check_pairs(L, R, _prefix(mid), strict, s=s, product=True)


def _lexsort_fractional_min(L, R, P, Q, s):
    """Reference for series._fractional_min: the same Dinkelbach iteration,
    with the s = 1 step's prefix argmin of the exact two-sum (hi, lo) of
    P_n + L_n / c ranked by np.lexsort, O(W log W), earliest index on ties."""
    rows = np.flatnonzero(np.isfinite(L))
    if not len(rows):
        return math.inf, None
    idx = np.arange(len(Q))
    n, m, c, arg = np.full(len(Q), rows[0]), idx, math.inf, None
    with np.errstate(all="ignore"):
        while c > 0.0:
            den = Q[m] - P[n]
            r = np.where(den > 0.0, (L[n] + R[m]) / den ** s, math.inf)
            j = int(np.argmin(r))
            if not r[j] < c:
                break
            c, arg = float(r[j]), (int(n[j]), int(m[j]))
            if s == 1.0:
                t = L / c
                hi = P + t
                order = np.lexsort(((P - (hi - (hi - P))) + (t - (hi - P)), hi))
                rank = np.empty_like(order)
                rank[order] = idx
                n = order[np.minimum.accumulate(rank)]
            else:
                n, m = series._monge_argmins(L / c, R / c, P, Q, lambda t: -t ** s)
    return c, arg


@pytest.mark.parametrize("W", [3, 4, 17, 64, 1000, 4096, 10 ** 5])
@pytest.mark.parametrize("strict", [True, False])
def test_fractional_min_ranks_like_a_lexsort(W, strict):
    # seeded windows with L = inf rows, R = 0 columns, zero and overflowing
    # middle weights; every third draw has its values on a coarse grid, whose
    # pairs tie exactly, and every third a first middle weight of 2^40 and
    # the others 0 to 2 ulps of it, where L_n / c falls below an ulp of P_n
    # and only the two-sum's low part ranks the rows; the columns are cut as
    # half_line_pairs cuts them
    rng = np.random.default_rng(7 * W + strict)
    for draw in range(max(3, 4000 // W)):
        L, R, mid = _random_terms(rng, W)
        if draw % 3 == 1:
            L, R, mid = (np.where(np.isfinite(x), np.round(np.minimum(x, 8.0) * 4) / 4, x)
                         for x in (L, R, mid))
        elif draw % 3 == 2:
            L *= 10.0 ** rng.uniform(-8.0, 0.0)
            mid = rng.integers(0, 3, W) * 2.0 ** -12
            L[0], mid[0] = math.inf, 2.0 ** 40
        with np.errstate(over="ignore"):
            midc = np.concatenate([[0.0], np.cumsum(mid)])
        P, Q = midc[:W], midc[1 - strict:W + 1 - strict]
        cols = np.flatnonzero(np.isfinite(Q) & np.isfinite(R))
        w = int(cols[-1]) + 1 if len(cols) else 0
        for s in (1.0, 2.0 / 3.0):
            args = (L[:w], R[:w], P[:w], Q[:w], s)
            assert series._fractional_min(*args) == _lexsort_fractional_min(*args)


def _monge_staircase(rng, rows, cols, exact):
    """Inputs of series._monge_argmins: non-finite a_n and b_m among finite
    ones, nondecreasing x and y with ties, and a convex phi. ``exact`` draws
    small integers and phi(t) = t^2, so every entry is exact and ties are
    common; otherwise the draws are continuous and phi is 1/t, -t^(2/3) or
    -log t."""
    if exact:
        a, b = rng.integers(0, 20, rows).astype(float), rng.integers(0, 20, cols).astype(float)
        x = np.cumsum(rng.integers(0, 3, rows)).astype(float)
        y = np.cumsum(rng.integers(0, 3, cols)).astype(float) + rng.integers(-3, 4)
        phi = np.square
    else:
        a, b = rng.uniform(0.0, 5.0, rows), rng.uniform(0.0, 5.0, cols)
        x = np.cumsum(rng.uniform(0.0, 1.0, rows) * (rng.random(rows) < 0.8))
        y = np.cumsum(rng.uniform(0.0, 1.0, cols)) * rows / cols + rng.uniform(-2.0, 2.0)
        phi = [lambda t: 1.0 / t, lambda t: -t ** (2.0 / 3.0), lambda t: -np.log(t)][
            rng.integers(3)]
    a[rng.random(rows) < 0.1] = math.inf
    b[rng.random(cols) < 0.1] = math.nan
    return a, b, x, y, phi


def _brute_argmins(a, b, x, y, phi):
    """Reference for series._monge_argmins: every entry of the staircase
    evaluated; the rows with a finite entry and their leftmost argmins."""
    rows, cols = np.flatnonzero(np.isfinite(a)), np.flatnonzero(np.isfinite(b))
    with np.errstate(all="ignore"):
        d = y[cols][None, :] - x[rows][:, None]
        A = np.where(d > 0.0, a[rows, None] + b[None, cols] + phi(d), math.inf)
    keep = np.isfinite(A).any(axis=1)
    return rows[keep], cols[np.argmin(A[keep], axis=1)] if len(cols) else cols


DENSE = series.DENSE_ENTRIES


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 7), (64, 64), (DENSE // 128, 128),
                                       (DENSE // 128 + 1, 128), (40, DENSE // 40 + 1),
                                       (DENSE // 40 + 1, 40), (300, 300)])
@pytest.mark.parametrize("exact", [True, False])
def test_monge_argmins_matches_brute_force_on_both_paths(rows, cols, exact, monkeypatch):
    # the same staircases, at most DENSE_ENTRIES entries and past it, searched
    # as they come and with the threshold at 0 (divide and conquer down to
    # single rows): both give the brute-force leftmost row argmins
    rng = np.random.default_rng(rows * 1009 + cols * 7 + exact)
    for _ in range(max(3, 20000 // (rows * cols))):
        args = _monge_staircase(rng, rows, cols, exact)
        ref = _brute_argmins(*args)
        for dense in (DENSE, 0):
            monkeypatch.setattr(series, "DENSE_ENTRIES", dense)
            got = series._monge_argmins(*args)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def _uncut_pairs(L, R, mid_prefix, strict, base, s, product):
    """Reference for half_line_pairs' stop: its certified path with every
    one of the first W_eff columns handed to the kernel."""
    W = len(mid_prefix)
    midc = np.concatenate([[0.0], mid_prefix])
    P, Q = midc[:W], midc[1 - strict:W + 1 - strict]
    cols = np.flatnonzero(np.isfinite(Q) & np.isfinite(R) & ((R > 0.0) | (not product)))
    w = int(cols[-1]) + 1 if len(cols) else 0
    kernel = series._monge_min if product else series._fractional_min
    value, arg = kernel(L[:w], R[:w], P[:w], Q[:w], s)
    return value, None if arg is None else (base + arg[0], base + arg[1]), (base, base + w - 1)


def _saturating_terms(rng, W, shape):
    """Prefix sums of middle weights of geometric ratio 0.3 to 0.9, which stop
    rising, and right terms past the saturation column k that rise ("rising"),
    equal R_k ("ties"), hold zeros ("zeros": 0 at k and a small term after
    it, or 0 somewhere after k) or fall
    below R_k ("falling")."""
    q = rng.uniform(0.3, 0.9)
    mid = q ** np.arange(W) * rng.uniform(0.5, 2.0, W)
    L = 10.0 ** rng.uniform(-3.0, 3.0) / np.cumsum(rng.uniform(0.5, 2.0, W))
    L[rng.random(W) < 0.1] = math.inf
    R = np.cumsum(rng.uniform(0.0, 1.0, W)) * 10.0 ** rng.uniform(-3.0, 3.0)
    csum = np.cumsum(mid)
    k = int(np.searchsorted(csum, csum[-1]))     # Q_k (k + 1 on a strict scan)
    if shape == "ties":
        R[k:] = R[k]
    elif shape == "zeros" and k + 3 <= W and rng.random() < 0.5:
        R[k:k + 3] = 0.0, 0.0, 1e-9 * R[k]     # a zero R_k then a small R_m
    elif shape == "zeros":
        R[rng.integers(k, W)] = 0.0
    elif shape == "falling" and k + 2 < W:
        R[rng.integers(k + 2, W)] = R[k] * rng.uniform(0.0, 1.0)
    return L, R, csum


@pytest.mark.parametrize("W", [3, 4, 17, 64, 1000, 10 ** 5])
@pytest.mark.parametrize("shape", ["rising", "ties", "zeros", "falling"])
def test_the_dominated_column_stop_changes_no_scan(W, shape, monkeypatch):
    # half_line_pairs hands its kernels the columns up to the one where the
    # middle prefix saturates when every later column is dominated; value,
    # pair and scanned extent equal the uncut scan's bit for bit, and the
    # stop is taken only where R does not fall past that column
    seen = []
    for name in ("_fractional_min", "_monge_min"):
        kernel = getattr(series, name)
        monkeypatch.setattr(series, name, lambda L, *a, kernel=kernel: (
            seen.append(len(L)), kernel(L, *a))[1])
    rng = np.random.default_rng(W + 10 ** 6 * len(shape))
    cut = 0
    for _ in range(max(2, 600 // W)):
        L, R, mid_prefix = _saturating_terms(rng, W, shape)
        for strict in (True, False):
            for s in (1.0, 2.0 / 3.0):
                for product in (False, True):
                    rep = series.half_line_pairs(L, R, mid_prefix, strict, 3,
                                                 series.Certainty.CERTIFIED, s, product)
                    value, arg, scanned = _uncut_pairs(L, R, mid_prefix, strict, 3, s, product)
                    assert (rep.value, rep.arg, rep.scanned) == (value, arg, scanned)
                    assert np.float64(rep.value).tobytes() == np.float64(value).tobytes()
                    cut += seen[-2] < seen[-1]       # the stop's length, then the uncut one
    if W >= 1000 and shape != "zeros":       # saturated well inside the window
        assert (cut == 0) == (shape == "falling")


def test_half_line_pairs_reports_the_finite_extent():
    """scanned covers the columns that can hold a finite entry: table6_1_row6's
    mu tails underflow to 0 from state 172 on (R_m = 1/0 = inf there),
    table6_1_row7's stay positive over the whole 10^5 window."""
    short = estimates.kappa_nn(catalog("table6_1_row6"))[3].delta_like
    full = estimates.kappa_nn(catalog("table6_1_row7"))[3].delta_like
    assert short.scanned == (0, 171)
    assert full.scanned == (0, 10 ** 5 - 1)


def test_aitken_geometric_exact():
    x = 3.0 + 0.5 ** np.arange(10)
    acc = series.aitken(x)
    assert acc[-1] == pytest.approx(3.0, abs=1e-12)


def test_extrapolate_limit_modes():
    ms = [100, 200, 400, 800, 1600]
    geo = [1.0 + 0.3 ** k for k in range(5)]
    lim, mode = series.extrapolate_limit(ms, geo)
    assert mode == "aitken" and lim == pytest.approx(1.0, abs=1e-6)
    logs = [0.25 + 10.0 / (math.log(m) + 4.0) ** 2 for m in ms]
    lim, mode = series.extrapolate_limit(ms, logs)
    assert mode == "log_model" and lim == pytest.approx(0.25, abs=5e-3)
    flat = [2.0, 2.0, 2.0]
    assert series.extrapolate_limit([1, 2, 3], flat)[1] == "converged"


def test_extrapolate_limit_short_and_near_one_ratio_inputs():
    # under 3 entries there is no increment ratio: the last entry is the limit
    assert series.extrapolate_limit([1, 2], [1.0, 0.5]) == (0.5, "converged")
    # lambda(m) = 1/4 + (ln m + 1)^-2 on a schedule so dense that every
    # increment ratio is at least 0.999: the (ln m)^-2 model, which moves
    # the last value toward 1/4
    ms = [10 ** 6 + 100 * k for k in range(9)]
    lams = [0.25 + (math.log(m) + 1.0) ** -2 for m in ms]
    lim, mode = series.extrapolate_limit(ms, lams)
    assert mode == "log_model" and 0.25 < lim < lams[-1]
    assert lim == pytest.approx(0.252255, abs=1e-6)


@pytest.mark.parametrize("r,n", [(0.5, 50), (0.95, 1000)])
def test_remainder_of_a_geometric_series_is_exact(r, n):
    # 50 terms take the last-two-terms branch, 1000 the block branch
    t = r ** np.arange(n, dtype=float)
    assert series.estimate_remainder_block(t, 0) == pytest.approx(r ** n / (1.0 - r), rel=1e-13, abs=0)
    assert series.tail_sums(t, 0)[-1] == series.estimate_remainder_block(t, 0)
    assert series.tail_sums(t, 0, 0.0)[0] == np.cumsum(t[::-1])[-1]


def test_remainder_of_a_period_2_series():
    # the term ratios alternate 1/6 and 3/2, like table7_1_row9's nu_a: the
    # ratio of the last two terms reads 3/2 (no decay), the block sums decay
    # by exactly 4^-32 per block, so the geometric remainder is exact
    t = np.cumprod(np.concatenate([[1.0], np.tile([1.0 / 6.0, 1.5], 199)]))
    assert t[-1] / t[-2] == 1.5
    exact = 0.25 ** 199 * (1.0 / 6.0 + 0.25) * 4.0 / 3.0   # t_399 = 4^-199 / 6, ...
    assert series.estimate_remainder_block(t, 0) == pytest.approx(exact, rel=1e-13, abs=0)


def test_remainder_of_a_short_period_2_series():
    # the same period-2 terms, 101 of them: too few for two blocks of
    # REMAINDER_BLOCK terms, so blocks of two terms are compared, which decay
    # by exactly 1/4 where the last two terms read 3/2
    t = np.cumprod(np.concatenate([[1.0], np.tile([1.0 / 6.0, 1.5], 50)]))
    assert len(t) == 101 and t[-1] / t[-2] == 1.5
    exact = (t[-2] + t[-1]) / 3.0
    assert series.estimate_remainder_block(t, 0) == pytest.approx(exact, rel=1e-13, abs=0)


# the relative error of the p-series remainder after K terms, measured
# against the Hurwitz zeta: at K = 4096 it is -1.16 % (p = 1.5), -3.5e-6
# (p = 2), +1.18 % (p = 3) and +2.12 % (p = 4); at K = 10^5 it is -4.7e-4,
# +4.8e-6, +4.8e-4 and +8.6e-4. The power fitted from two 64-term blocks is
# off by O(64/K), which the integral test at p = 2 happens to cancel.
@pytest.mark.parametrize("K,tol", [(4096, 2.5e-2), (10 ** 5, 1e-3)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_remainder_of_a_p_series_against_zeta(p, K, tol):
    t = np.arange(1.0, K + 1.0) ** -p
    exact = float(mpmath.zeta(p, K + 1))
    assert series.estimate_remainder_block(t, 1) == pytest.approx(exact, rel=tol, abs=0)
    if p == 2.0:
        assert series.estimate_remainder_block(t, 1) == pytest.approx(exact, rel=1e-5, abs=0)


def test_remainder_of_non_decaying_terms_is_infinite():
    assert series.estimate_remainder_block(np.ones(500), 1) == math.inf
    assert series.estimate_remainder_block(np.ones(5), 1) == math.inf
    assert series.estimate_remainder_block(np.zeros(500), 1) == 0.0
    assert np.isinf(series.tail_sums(np.ones(500), 1)).all()


@pytest.mark.parametrize("K", [10, 4096, 10 ** 5])
@pytest.mark.parametrize("c", [1.0, 3.0])
def test_remainder_of_a_harmonic_series_is_infinite(K, c):
    # a power fitted across the block ends reads c/j as p = 1 + O(64/K);
    # the verdict compares with the harmonic series over the same blocks
    t = c / np.arange(1.0, K + 1.0)
    assert series.estimate_remainder_block(t, 1) == math.inf
    # a tail just faster than harmonic stays finite
    assert math.isfinite(series.estimate_remainder_block(t ** 1.01, 1))


def test_remainder_of_short_inputs():
    # fewer than two terms: nothing to fit; a positive last term may not decay
    assert series.estimate_remainder_block(np.array([]), 0) == 0.0
    assert series.estimate_remainder_block(np.array([0.0]), 0) == 0.0
    assert series.estimate_remainder_block(np.array([2.0]), 5) == math.inf
    # a slow ratio whose one-term blocks reach index 0 leaves no power to fit
    assert series.estimate_remainder_block(np.array([1.0, 0.95]), 0) == 0.0


def test_log_model_limit_early_returns():
    ms = np.array([250.0, 500.0, 1000.0, 2000.0, 4000.0])
    # not strictly decreasing: the last value
    assert series._log_model_limit(ms[:3], [1.0, 1.0, 1.0]) == 1.0
    # no root of the three-point model below the last value: the last value
    assert series._log_model_limit(ms[:3], [3.0, 2.9, 1.0]) == 1.0
    # on an exact model sequence, four points give the three-point root and
    # a sequence a few 1e-13 above its limit skips the refinement; both
    # return that root
    for n, gap, tol in ((4, 1e-6, 1e-12), (5, 2e-13, 2e-15)):
        lams = 1.0 + gap * (math.log(ms[n - 1]) + 1.0) ** 2 / (np.log(ms[:n]) + 1.0) ** 2
        limit = series._log_model_limit(ms[:n], lams)
        assert limit == pytest.approx(1.0, abs=tol) and limit < lams[-1]

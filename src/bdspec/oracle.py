"""Desk-scale ground truth: tridiagonal eigensolver and friends.

The generator is symmetrized by diag(sqrt(mu)), which leaves a symmetric
tridiagonal matrix whose entries depend on rate ratios only (no absolute
weights, so nothing over- or underflows). The smallest eigenvalues come from
LAPACK bisection (scipy's dstebz and dstein wrappers), bracketed by the
previous value along a truncation schedule or a splitting bracket's coupling
sweep; each is reported as its flip point, the least float at which LAPACK's
Sturm count passes its index, so it does not depend on the bracket.
Truncation sequences get a decay-aware extrapolation; the shooting recursion
provides an independent route for the Dirichlet-at-origin chains. One search
on the float order (``_flip_point``) finds the flip of both counts: LAPACK's
Sturm count and the failure of the shooting recursion.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import series
from .errors import BadParameter, TruncationTooSmall, WrongBoundary
from .model import TINY, BoundaryCode, ChainModel, _rates_and_weights


@dataclass(frozen=True)
class SpectralResult:
    lam: float
    eigvec: np.ndarray
    m: int
    residual: float
    method: str
    base: int = 0
    certified: series.Certainty = series.Certainty.WINDOW_STOPPED  # CERTIFIED iff m covers it


# Absolute bisection tolerance for LAPACK's dstebz: the value it documents as
# "most accurate". The default (eps * ||T||) is far too coarse on graded
# matrices, whose smallest eigenvalue is tiny next to the norm (Demmel & Kahan
# 1990; Barlow & Demmel 1990).
TOL = 2.0 * np.finfo(float).tiny
GAMMA_GRID = (2.0,) + tuple(np.geomspace(1.01, 100.0, 21).tolist())
_EPS = float(np.finfo(float).eps)
_VALUE, _INDEX = 1, 2          # dstebz's RANGE 'V' and 'I' as scipy's wrapper codes them
_LAPACK = None                 # (dstebz, dstein), bound by _lapack on first use


def _ordinal(x: float) -> int:
    """Position of x in the order of the floats (+0 and -0 share 0)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _from_ordinal(i: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(i)))[0]
    return x if i >= 0 else -x


_LEAST, _INF = _ordinal(-np.finfo(float).max), _ordinal(math.inf)


def _lapack():
    """scipy's dstebz and dstein wrappers, imported on the first solve, not
    with the package: importing scipy.linalg takes about 0.25 s, and the
    calls that never solve an eigenproblem need none of it."""
    global _LAPACK
    if _LAPACK is None:
        from scipy.linalg.lapack import dstebz, dstein
        _LAPACK = dstebz, dstein
    return _LAPACK


def _stebz(diag, off, rng: int, vl: float, vu: float, k: int, tol: float = TOL):
    """(w, iblock, isplit) of LAPACK's bisection: the eigenvalues w in (vl, vu]
    (``rng`` _VALUE) or the k-th smallest (_INDEX), ascending; stein reads
    the first len(w) entries of the block numbers iblock."""
    m, w, iblock, isplit, info = _lapack()[0](diag, off, rng, vl, vu, k + 1, k + 1, tol, b"E")
    if info:
        raise np.linalg.LinAlgError("stebz failed: info = %d" % info)
    return w[:m], iblock, isplit


def _count(diag, off, x: float) -> int:
    """LAPACK's Sturm count at x: the eigenvalues stebz places at or below x
    (a value-range call whose tolerance stops it after one bisection step)."""
    return len(_stebz(diag, off, _VALUE, -math.inf, x, 0, math.inf)[0])


def _flip_point(above, start: float) -> float:
    """The least float x at which the predicate ``above(x)`` holds, for a
    predicate monotone on the floats (false below a point, true from it on):
    ulp steps away from ``start``, doubling until they cross the flip, then
    bisection on the float order. Its value does not depend on ``start``, and
    ``above`` is false at the float just below it. The ends of the float range
    stand in for the predicate's constant values."""
    def at(i):
        return above(_from_ordinal(i))
    i, step = _ordinal(start), 1
    if at(i):
        hi, lo = i, max(i - 1, _LEAST)
        while lo > _LEAST and at(lo):
            hi, lo, step = lo, max(lo - 2 * step, _LEAST), 2 * step
    else:
        lo, hi = i, min(i + 1, _INF)
        while hi < _INF and not at(hi):
            lo, hi, step = hi, min(hi + 2 * step, _INF), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if at(mid) else (mid, hi)
    return _from_ordinal(hi)


def _eig_k(diag: np.ndarray, off: np.ndarray, k: int = 0, vector: bool = False,
           above: Optional[float] = None, step: Optional[float] = None):
    """k-th smallest eigenvalue of the symmetric tridiagonal (diag, off), with
    its eigenvector when asked: LAPACK bisection (stebz) and inverse
    iteration (stein).

    The value returned is the flip point (``_flip_point``): the least float
    at which LAPACK's Sturm count exceeds k, the same however the bisection
    was bracketed. ``above`` is an expected upper bound of the eigenvalue
    and ``step`` by how much it is expected to lie below it: the bisection
    then covers only (vl, vu], vu = above + 8 eps |above| and vl = vu -
    max(2 step, 64 eps vu), or vu/2 with no finite step, provided the count
    at vl is k and the interval holds an eigenvalue. Otherwise, and without
    ``above``, it is LAPACK's index bisection from the Gershgorin interval.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    if not 0 <= k < len(diag):
        raise ValueError("need 0 <= k < n = %d" % len(diag))
    if len(diag) == 1:
        return (float(diag[0]), np.ones(1)) if vector else float(diag[0])
    w = ()
    if above is not None and math.isfinite(above):
        vu = above + 8.0 * _EPS * abs(above)
        vl = vu - max(2.0 * step, 64.0 * _EPS * vu) if step is not None and math.isfinite(step) \
            else 0.5 * vu
        if vl < vu and _count(diag, off, vl) == k:
            w, iblock, isplit = _stebz(diag, off, _VALUE, vl, vu, 0)
    if not len(w):
        w, iblock, isplit = _stebz(diag, off, _INDEX, 0.0, 1.0, k)
    # LAPACK's Sturm count is monotone in the shift (Demmel, Dhillon & Ren 1995)
    lam = _flip_point(lambda x: _count(diag, off, x) > k, float(w[0]))
    if not vector:
        return lam
    vec, info = _lapack()[1](diag, off, [lam], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError("stein failed: info = %d" % info)
    return lam, vec[:, 0]


def _tail_ratio(model: ChainModel, top: int, tol: float = 1e-14,
                cap: int = 200000) -> float:
    """t = sum_{k >= top} mu_k / mu_top, by forward products of b/a.

    With a ``mu_tail`` hint, t = hint(top) / mu_top, mu_top by the weights'
    recurrence on the rates (``build_weights`` gives the same float) where
    every weight up to top is a positive normal float. Elsewhere mu_top is
    hint(top) - hint(top + 1), which cancels: it carries the hint's relative
    error times t, about top on a p-series tail (1.3e-13 relative at top =
    4000 on table6_1_row7, against 3.7e-15 from the weights). The product
    loop below reads such a tail to 5e-8 only."""
    hint = model.hint("mu_tail")
    if hint is not None:
        num = float(hint(top))
        a, b, _ = model.rates(model.base, top)
        with np.errstate(all="ignore"):
            mu = np.cumprod(b[:-1] / a[1:])
        normal = len(mu) and ((mu >= TINY) & (mu < math.inf)).all()
        den = float(mu[-1]) if normal else num - float(hint(top + 1))
        if den > 0 and math.isfinite(num):
            return num / den
        if not math.isfinite(num):
            return math.inf
    # p = mu_k / mu_top and s = sum of p so far; each block continues both
    # from its running values by cumprod and cumsum, the same products and
    # sums as a term-by-term loop, stopping at the first term below tol * s
    s, p, terms = 1.0, 1.0, np.ones(1)
    j = top
    block = 512
    end = top + cap if model.hi is None else min(model.hi, top + cap)
    while j < end:
        hi = min(j + block, end)
        a, b, _ = model.rates(j, hi)
        with np.errstate(all="ignore"):
            P = np.cumprod(np.concatenate([[p], b[:-1] / a[1:]]))[1:]
            S = np.cumsum(np.concatenate([[s], P]))[1:]
            stop = (P < tol * S) | ~np.isfinite(S)
        if stop.any():
            k = int(np.argmax(stop))
            return float(S[k]) if P[k] < tol * S[k] else math.inf
        # the remainder estimator reads the trailing two blocks at most
        p, s, terms = P[-1], S[-1], np.concatenate([terms[-2 * series.REMAINDER_BLOCK:], P])
        j = hi
        block = min(2 * block, 1 << 16)
    if model.hi is not None and j >= model.hi:
        return float(s)
    rem = series.estimate_remainder_block(terms, end - len(terms) + 1)
    return float(s) + rem if math.isfinite(rem) else math.inf


def _tridiag(model: ChainModel, lo: int, top: int, boundary_at_m: str):
    """Symmetrized truncated generator: (diag, off) with off_i = -sqrt(b_i a_{i+1})."""
    a, b, c = model.rates(lo, top)
    n = len(a)
    diag = a + b + c
    off = np.sqrt(b[:-1] * a[1:])
    mode = boundary_at_m.lower()
    at_model_top = model.hi is not None and top >= model.hi
    if not at_model_top and n >= 2:
        if mode == "neumann":
            # lump the tail mass: mu~_m = mu[m, N], a~_m = a_m / t; detailed
            # balance keeps mu~_m a~_m = mu_m a_m, so the symmetrized coupling
            # is sqrt(b_{m-1} a_m / t)
            t = _tail_ratio(model, top)
            if not math.isfinite(t):
                raise WrongBoundary("Neumann-at-m needs a summable mu tail")
            diag[-1] = a[-1] / t + c[-1]
            off[-1] = math.sqrt(b[-2] * a[-1] / t)
        elif mode == "neumann_plain":
            diag[-1] = a[-1] + c[-1]
        elif mode != "dirichlet":
            raise WrongBoundary("boundary_at_m must be dirichlet or neumann")
    return diag, off


def default_truncation_boundary(model: ChainModel) -> str:
    """Faithful truncation per boundary family: Dirichlet cutoffs for the
    absorbing-at-infinity codes, lumped Neumann for the reflecting ones."""
    return "neumann" if model.boundary in (BoundaryCode.NN, BoundaryCode.DN) \
        else "dirichlet"


def _truncation(model: ChainModel, m: int, boundary_at_m: Optional[str]):
    """(lo, top, diag, off, k) of the chain cut at index m: its span, symmetrized generator
    (off < 0) and decay-rate eigenvalue index, 1 for NN with a Neumann cut, else 0."""
    if m < 2:
        raise TruncationTooSmall("need m >= 2")
    mode = default_truncation_boundary(model) if boundary_at_m is None else boundary_at_m
    lo = model.base if model.boundary is not BoundaryCode.DD_BILATERAL else \
        (-m if model.lo is None else max(model.lo, -m))
    top = m if model.hi is None else min(model.hi, m)
    diag, off = _tridiag(model, lo, top, mode)
    k = 1 if model.boundary is BoundaryCode.NN and mode.lower() != "dirichlet" else 0
    return lo, top, diag, -off, k


def principal_eigen(model: ChainModel, m: int,
                    boundary_at_m: Optional[str] = None) -> SpectralResult:
    """Decay-rate eigenvalue of the chain truncated at index m (``_truncation``).

    For NN models the smallest eigenvalue of the conservative truncation is 0,
    so the reported value is the second-smallest (the spectral gap); every
    other code reports the smallest. Eigenvalue by LAPACK bisection (stebz),
    reported as its flip point (``_eig_k``), the value ``truncation_limit``
    gives at the same m bit for bit; eigenvector by LAPACK inverse iteration
    (stein) at that value. The class invariant is
    the one their backward stability gives: with T the symmetrized
    truncation of order n, residual = max |T v - lam v| <= n * eps *
    ||T||_inf. A bound relative to lam does not hold on graded matrices: on
    quartic_nd, ||T|| grows like m^4 and the residual reaches 9.3e-7 at m =
    16000 (lam = 0.5).
    """
    lo, top, diag, off, k = _truncation(model, m, boundary_at_m)
    lam, vec = _eig_k(diag, off, k=k, vector=True)
    if k == 0:
        # the Perron vector is positive; stein leaves sign noise in its tail,
        # in entries far below rounding
        vec = np.abs(vec)
    elif vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    tv = diag * vec
    if len(vec) > 1:
        tv[:-1] += off * vec[1:]
        tv[1:] += off * vec[:-1]
    residual = float(np.max(np.abs(tv - lam * vec)))
    return SpectralResult(lam, vec, top, residual, "LAPACK stebz/stein", lo,
                          model.certainty(lo, top))


@dataclass(frozen=True)
class TruncationTrace:
    schedule: tuple
    values: tuple
    limit: float
    mode: str
    monotone_ok: bool


def _falling(problems) -> list:
    """``_eig_k`` of each (diag, off, k) of a sequence whose eigenvalues are
    expected to fall: each solve is bracketed by the value before it and the
    last fall. A value that does not fall only costs the unbracketed solve."""
    vals, step = [], None
    for diag, off, k in problems:
        prev = vals[-1] if vals else None
        vals.append(_eig_k(diag, off, k, above=prev, step=step))
        step = None if prev is None else prev - vals[-1]
    return vals


def truncation_limit(model: ChainModel, schedule) -> TruncationTrace:
    """lambda^(m) along an increasing schedule, plus an extrapolated limit.

    The truncated eigenvalues decrease to the true rate (Dirichlet and lumped
    Neumann alike: by min-max the truncations are nested), so each level's
    bisection is bracketed by its predecessor (``_falling``); each value is
    ``principal_eigen``'s bit for bit. The limit is a diagnostic chosen by
    decay class -- Aitken for geometric/algebraic decay, the (ln m)^-2 model
    for the logarithmically slow chains at the bottom of their essential
    spectrum.
    """
    ms = [int(v) for v in schedule]
    if len(ms) < 3 or any(y <= x for x, y in zip(ms, ms[1:])):
        raise TruncationTooSmall("schedule must be strictly increasing, >= 3 entries")
    vals = _falling(_truncation(model, m, None)[2:] for m in ms)
    scale = max(abs(vals[-1]), 1.0)
    monotone = all(y <= x + 1e-9 * scale for x, y in zip(vals, vals[1:]))
    limit, mode = series.extrapolate_limit(ms, vals)
    return TruncationTrace(tuple(ms), tuple(vals), limit, mode, monotone)


def shooting_rate(model: ChainModel, m: int) -> SpectralResult:
    """Largest z for which g, b_i g_{i+1} = (a_i + b_i + c_i - z) g_i - a_i g_{i-1}
    with g_0 = 0, stays positive on [1, m), in ratios u_i = g_{i+1}/g_i - 1
    (u_1 = (a_1 + c_1 - z)/b_1, u_i = [a_i u/(1+u) + c_i - z]/b_i). On a finite DD
    chain the recursion covers, g stays positive through the Dirichlet point N + 1
    (the exit b_N read): the chain's eigenvalue. Elsewhere the last u is positive
    (the flux into a reflecting top): the plainly-reflected truncation eigenvalue.
    z is the float just below the flip point (``_flip_point``) of the recursion's
    failure, searched from min(a + b + c): the recursion holds at z and fails one
    ulp above, the ``residual``. The eigenvector is g at z.
    """
    if model.boundary not in (BoundaryCode.DN, BoundaryCode.DD):
        raise WrongBoundary("shooting needs the Dirichlet-at-origin shape")
    if m < 2:
        raise TruncationTooSmall("need m >= 2")
    top = m if model.hi is None else min(model.hi + 1, m)
    a, b, c = model.rates(1, top - 1)
    if a[0] <= 0.0:
        raise WrongBoundary("shooting requires a positive death rate at state 1")
    if len(a) < 2:      # with two states, b_1 > 0 (ChainModel.rates)
        raise TruncationTooSmall("the recursion needs two states and b_1 > 0")
    cert = model.certainty(1, top - 1)
    exit_top = model.boundary is BoundaryCode.DD and cert is series.Certainty.CERTIFIED
    last = -1.0 if exit_top else 1e-300     # underflow of the last u counts as failure
    start = float(np.min(a + b + c))
    # the first, middle and top states' rates, as Python floats: the scalar
    # loop runs about 4x faster on them than on numpy scalars
    (a1, *a, aN), (b1, *b, bN), (c1, *c, cN) = a.tolist(), b.tolist(), c.tolist()

    def ratios(z: float):
        """(u_1 .. u_{N-1} as far as g stays positive, whether it stays so at z)."""
        u = (a1 + c1 - z) / b1
        us = [u]
        for ai, bi, ci in zip(a, b, c):
            if not u > -1.0:
                return us, False
            u = (ai * u / (1.0 + u) + ci - z) / bi
            us.append(u)
        # the top's b_N u_N, tested against last * b_N: b_N may be 0
        return us, u > -1.0 and aN * u / (1.0 + u) + cN - z > last * bN

    flip = _flip_point(lambda z: not ratios(z)[1], start)
    z = math.nextafter(flip, -math.inf)
    with np.errstate(over="ignore"):
        g = np.cumprod(np.concatenate([[1.0], 1.0 + np.array(ratios(z)[0])]))
    return SpectralResult(z, g, top - 1, flip - z, "Shooting", 1, cert)


def difference_form(model: ChainModel, v, lo: int, hi: int) -> np.ndarray:
    """R_i(v) = a_i (1 - 1/v_{i-1}) + b_i (1 - v_i) + c_i for i = lo..hi, from
    ``v`` = v_{lo-1}, ..., v_hi. At the left end of the state space v_{lo-1}
    = inf, so 1/v_{lo-1} = 0: a Dirichlet origin's death rate acts as
    killing, and a reflecting origin has none (``model.rates`` sets it to 0).
    R is local: any index range, no weights needed."""
    a, b, c = model.rates(lo, hi)
    v = np.asarray(v, dtype=float)
    return a * (1.0 - 1.0 / v[:-1]) + b * (1.0 - v[1:]) + c


def v_products(v):
    """The test function g of a ratio sequence v: g_1 = 1, g_{i+1} = g_i v_i.
    From an array v_1, ..., v_n, the array g_1, ..., g_n; from a callable on
    int arrays, g as a callable on int arrays of states i >= 1."""
    if not callable(v):
        return np.cumprod(np.concatenate([[1.0], np.asarray(v, dtype=float)[:-1]]))

    def g(idx):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.min() < 1:
            raise BadParameter("g is defined on the states i >= 1")
        return v_products(v(np.arange(1, int(idx.max()) + 1, dtype=np.int64)))[idx - 1]
    return g


def eigen_identity_check(model: ChainModel, lam: float, g, lo: int, hi: int) -> dict:
    """Relative (scale-free) residuals of the summed eigen-identity and of the
    difference form, ``difference_form`` of v = g_{i+1}/g_i.

    ``g`` is a callable on int arrays, positive on [lo, hi+1]. At a Dirichlet
    origin the bottom death rate acts as killing, as in the difference form.
    Half-line chains only: the weights are the held window's (``model._rates_and_weights``).
    """
    base = model.base
    if model.hi is not None and hi > model.hi:
        raise BadParameter("the identity range ends at the top state %d" % model.hi)
    idx = np.arange(base, hi + 2, dtype=np.int64)
    gv = np.asarray(g(idx), dtype=float)
    a, b, c, _, mu = _rates_and_weights(model, hi)[:5]
    c = np.concatenate([c[:1] + a[:1], c[1:]])
    with np.errstate(all="ignore"):
        # (summed form) mu_k b_k (g_k - g_{k+1}) = sum_{i<=k} (lam - c_i) mu_i g_i
        terms = (lam - c) * mu * gv[:-1]
        lhs = mu * b * (gv[:-1] - gv[1:])
        rhs = np.cumsum(terms)
        # backward-stable scale: a partial sum is only determined up to rounding
        # in its largest summand, so normalize by the running term magnitude
        scale = np.maximum.accumulate(np.maximum(np.abs(lhs), np.abs(terms)))
        res = np.abs(lhs - rhs) / np.where(scale > 0, scale, 1.0)
        r = difference_form(model, np.concatenate([[math.inf], gv[1:] / gv[:-1]]), base, hi)
    healthy = np.isfinite(gv) & (np.abs(gv) > 1e-280)
    sel = (idx[:-1] >= lo) & healthy[:-1] & healthy[1:] & np.isfinite(mu) & (mu > 1e-280)
    sel_s = sel & np.isfinite(lhs) & np.isfinite(rhs)
    sel_r = sel & np.isfinite(r)
    res_sum = float(np.max(res[sel_s])) if sel_s.any() else math.nan
    res_r = float(np.max(np.abs(r - lam)[sel_r] / max(1.0, abs(lam)))) if sel_r.any() else math.nan
    return {"summed_form": res_sum, "difference_form": res_r}


@dataclass(frozen=True)
class SplitBracket:
    lower: float
    upper: float
    best_theta: int
    best_gamma: float
    detail: dict


def _sides(model: ChainModel, theta: int, m: int):
    """The (death, birth) rates of the split processes left and right of
    theta (7.13): the left side on [lo, theta] mirrored (birth and death swap
    roles), the right side on [theta, hi]; both reflect at theta."""
    lo = theta - m if model.lo is None else max(model.lo, theta - m)
    hi = theta + m if model.hi is None else min(model.hi, theta + m)
    if not lo <= theta <= hi:       # past a finite end (None: the side is unbounded)
        raise BadParameter("theta = %d lies outside the chain's range [%s, %s]"
                           % (theta, model.lo, model.hi))
    a, b, _ = model.rates(lo, hi)
    k = theta - lo
    return (b[k::-1], a[k::-1]), (a[k:], b[k:])


def _side_matrix(a: np.ndarray, b: np.ndarray, scale: float):
    """(diag, off, 0) of one split side, its coupling b_theta -> scale b_theta."""
    a, b = a.copy(), b.copy()
    a[0] = 0.0
    b[0] *= scale
    return a + b, -np.sqrt(b[:-1] * a[1:]), 0


def _local_pair(model: ChainModel, theta: int, gamma: float, m: int):
    """Eigenvalues of the split processes left/right of theta (7.13): the
    left side's a_theta -> gamma a_theta, the right side's b_theta ->
    gamma/(gamma-1) b_theta."""
    (la, lb), (ra, rb) = _sides(model, theta, m)
    return (_eig_k(*_side_matrix(la, lb, gamma)),
            _eig_k(*_side_matrix(ra, rb, gamma / (gamma - 1.0))))


def gamma_from_eigvec(model: ChainModel, theta: int, g_theta_m1: float,
                      g_theta: float, g_theta_p1: float) -> float:
    """Coupling constant (7.18) from eigenfunction values around a peak;
    nan unless theta is a strict peak."""
    a, b, _ = model.rates(theta, theta)
    num = float(b[0]) * (g_theta - g_theta_p1)
    den = float(a[0]) * (g_theta - g_theta_m1)
    return 1.0 + num / den if den > 0 else math.nan


def splitting_bracket(model: ChainModel, theta_grid, m: int = 400) -> SplitBracket:
    """Two-sided enclosure of the bilateral Dirichlet eigenvalue by splitting.

    lower = max over the grid of min(left, right); upper = min over the grid
    of max(left, right). Local eigenvalues are computed on truncations of
    length m, so on unbounded spaces both ends are approximations from above;
    finite instances are exact up to the eigensolver tolerance. A finite end
    is a theta with one side empty, the other the chain itself (its exits
    kept). The coupling constants are GAMMA_GRID plus gamma (7.18) at the
    peak theta of the truncated eigenvector, when it is a strict interior
    peak; that theta joins the grid.
    """
    if model.boundary is not BoundaryCode.DD_BILATERAL:
        raise WrongBoundary("splitting needs a bilateral model")
    cands = list(GAMMA_GRID)
    full = principal_eigen(model, m)
    vec = full.eigvec
    pk = int(np.argmax(vec))
    if 0 < pk < len(vec) - 1:
        theta = full.base + pk
        gtheta = gamma_from_eigvec(model, theta, vec[pk - 1], vec[pk], vec[pk + 1])
        if math.isfinite(gtheta) and gtheta > 1.0:
            cands.append(gtheta)
            theta_grid = sorted(set(list(theta_grid) + [theta]))
    lower, upper = -math.inf, math.inf
    best, detail = (None, None), {}
    up = sorted(set(cands))
    for theta in theta_grid:
        # one read of theta's rates; each side's sweep runs the way its
        # eigenvalue is expected to fall (``_falling``)
        (la, lb), (ra, rb) = _sides(model, int(theta), m)
        left = dict(zip(up[::-1], _falling(_side_matrix(la, lb, g) for g in up[::-1])))
        right = dict(zip(up, _falling(_side_matrix(ra, rb, g / (g - 1.0)) for g in up)))
        for gv in cands:
            lamL, lamR = detail[(int(theta), gv)] = left[gv], right[gv]
            if min(lamL, lamR) > lower:
                lower, best = min(lamL, lamR), (int(theta), gv)
            upper = min(upper, max(lamL, lamR))
    for end in (model.lo, model.hi):
        if end is not None:
            # theta at a finite end: one side is empty, the other the chain itself
            first = end - m if model.lo is None else max(model.lo, end - m)
            last = end + m if model.hi is None else min(model.hi, end + m)
            diag, off = _tridiag(model, first, last, "dirichlet")
            lam = _eig_k(diag, -off)
            upper = min(upper, lam)
            if lam > lower:
                lower, best = lam, (end, math.inf)
    return SplitBracket(lower, upper, best[0], best[1], detail)

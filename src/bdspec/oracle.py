"""Desk-scale ground truth: tridiagonal eigensolver and friends.

The generator is symmetrized by diag(sqrt(mu)), which leaves a symmetric
tridiagonal matrix whose entries depend on rate ratios only (no absolute
weights, so nothing over- or underflows). The smallest eigenvalues come from
Sturm-sequence bisection; truncation sequences get a decay-aware
extrapolation; the shooting recursion provides an independent route for the
Dirichlet-at-origin chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import series
from .errors import (DegenerateRecursion, NoConvergence, TruncationTooSmall,
                     WrongBoundary)
from .model import BoundaryCode, ChainModel


@dataclass(frozen=True)
class SpectralResult:
    lam: float
    eigvec: np.ndarray
    m: int
    residual: float
    method: str
    base: int = 0


def sturm_count(diag: np.ndarray, off2: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues strictly below each shift (LDL^T sign count)."""
    s = np.atleast_1d(np.asarray(shifts, dtype=float))
    d = diag[0] - s
    cnt = (d < 0.0).astype(np.int64)
    tiny = 1e-300
    for i in range(1, len(diag)):
        d = np.where(np.abs(d) < tiny, -tiny, d)
        d = (diag[i] - s) - off2[i - 1] / d
        cnt += d < 0.0
    return cnt


def _eig_k(diag: np.ndarray, off: np.ndarray, k: int = 0,
           atol: float = 1e-12, grid: int = 64, budget: int = 240) -> float:
    """k-th smallest eigenvalue by multi-shift Sturm bisection."""
    off2 = off * off
    pad = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
    lo = float(np.min(diag - pad))
    hi = float(np.max(diag + pad))
    rounds = 0
    while hi - lo > atol:
        rounds += 1
        if rounds > budget:
            raise NoConvergence("Sturm bisection exceeded its budget")
        xs = np.linspace(lo, hi, grid)
        cs = sturm_count(diag, off2, xs)
        j = int(np.searchsorted(cs, k + 1))
        if j == 0:
            hi = xs[0]
            break
        if j == grid:
            lo = xs[-1]
            break
        lo, hi = xs[j - 1], xs[j]
    return 0.5 * (lo + hi)


def _tail_ratio(model: ChainModel, top: int, tol: float = 1e-14,
                cap: int = 200000) -> float:
    """t = sum_{k >= top} mu_k / mu_top, by forward products of b/a."""
    hint = model.hint("mu_tail")
    if hint is not None:
        num = float(hint(top))
        den = float(hint(top)) - float(hint(top + 1))
        if den > 0 and math.isfinite(num):
            return num / den
        if not math.isfinite(num):
            return math.inf
    s = 1.0
    p = 1.0
    p_prev = 1.0
    j = top
    block = 512
    end = top + cap if model.hi is None else min(model.hi, top + cap)
    while j < end:
        hi = min(j + block, end)
        idx = np.arange(j, hi, dtype=np.int64)
        b = np.asarray(model.birth(idx), dtype=float)
        a = np.asarray(model.death(idx + 1), dtype=float)
        with np.errstate(over="ignore"):
            r = b / a
        for rr in r:
            p_prev = p
            p *= rr
            s += p
            if p < tol * s:
                return s
            if not math.isfinite(s):
                return math.inf
        j = hi
        block = min(2 * block, 1 << 16)
    if model.hi is not None and j >= model.hi:
        return s
    rem = series._estimate_remainder(p_prev, p, end)
    return s + rem if math.isfinite(rem) else math.inf


def _tridiag(model: ChainModel, lo: int, top: int, boundary_at_m: str):
    """Symmetrized truncated generator: (diag, off) with off_i = -sqrt(b_i a_{i+1})."""
    a, b, c = model.rates(lo, top)
    n = len(a)
    diag = a + b + c
    off = np.sqrt(np.maximum(b[:-1] * a[1:], 0.0))
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


def _inverse_iteration(diag, off, lam):
    n = len(diag)
    shift = lam - 1e-10 * max(1.0, abs(lam))
    d = diag - shift
    v = np.ones(n) / math.sqrt(n)
    for _ in range(3):
        # Thomas solve (T - shift) x = v
        cp = np.empty(n - 1) if n > 1 else np.empty(0)
        dp = np.empty(n)
        dd = d[0] if abs(d[0]) > 1e-300 else 1e-300
        dp[0] = v[0] / dd
        prev = dd
        for i in range(1, n):
            cp[i - 1] = off[i - 1] / prev
            prev = d[i] - off[i - 1] * cp[i - 1]
            if abs(prev) < 1e-300:
                prev = 1e-300
            dp[i] = (v[i] - off[i - 1] * dp[i - 1]) / prev
        x = np.empty(n)
        x[-1] = dp[-1]
        for i in range(n - 2, -1, -1):
            x[i] = dp[i] - cp[i] * x[i + 1]
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0 or not math.isfinite(nrm):
            return v
        v = x / nrm
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return v


def default_truncation_boundary(model: ChainModel) -> str:
    """Faithful truncation per boundary family: Dirichlet cutoffs for the
    absorbing-at-infinity codes, lumped Neumann for the reflecting ones."""
    return "neumann" if model.boundary in (BoundaryCode.NN, BoundaryCode.DN) \
        else "dirichlet"


def principal_eigen(model: ChainModel, m: int,
                    boundary_at_m: Optional[str] = None,
                    k: Optional[int] = None) -> SpectralResult:
    """Decay-rate eigenvalue of the chain truncated at index m.

    For NN models the smallest eigenvalue of the conservative truncation is 0,
    so the reported value defaults to the second-smallest (the spectral gap);
    every other code reports the smallest. Eigenvector by inverse iteration;
    the class invariant is a residual below 1e-8 * max(1, lam).
    """
    if m < 2:
        raise TruncationTooSmall("need m >= 2")
    if boundary_at_m is None:
        boundary_at_m = default_truncation_boundary(model)
    if model.boundary is BoundaryCode.DD_BILATERAL:
        lo = -m if model.lo is None else max(model.lo, -m)
        top = m if model.hi is None else min(model.hi, m)
    else:
        lo = model.base
        top = m if model.hi is None else min(model.hi, m)
    diag, off = _tridiag(model, lo, top, boundary_at_m)
    if k is None:
        k = 1 if (model.boundary is BoundaryCode.NN
                  and boundary_at_m.lower() != "dirichlet") else 0
    lam = _eig_k(diag, off, k=k)
    # the symmetrized generator has negative off-diagonals; the Sturm count
    # only sees off^2 but the eigenvector sign structure needs the real sign
    vec = _inverse_iteration(diag, -off, lam)
    tv = diag * vec
    if len(vec) > 1:
        tv[:-1] -= off * vec[1:]
        tv[1:] -= off * vec[:-1]
    residual = float(np.max(np.abs(tv - lam * vec)))
    return SpectralResult(lam, vec, top, residual, "SturmBisection", base=lo)


@dataclass(frozen=True)
class TruncationTrace:
    schedule: tuple
    values: tuple
    last: float
    limit: float
    mode: str
    monotone_ok: bool


def truncation_limit(model: ChainModel, schedule,
                     boundary_at_m: Optional[str] = None) -> TruncationTrace:
    """lambda^(m) along an increasing schedule, plus an extrapolated limit.

    The truncated eigenvalues decrease to the true rate (Dirichlet and lumped
    Neumann alike); the limit is a diagnostic chosen by decay class --
    Aitken for geometric/algebraic decay, the (ln m)^-2 model for the
    logarithmically slow chains at the bottom of their essential spectrum.
    """
    ms = [int(v) for v in schedule]
    if len(ms) < 3 or any(y <= x for x, y in zip(ms, ms[1:])):
        raise TruncationTooSmall("schedule must be strictly increasing, >= 3 entries")
    vals = [principal_eigen(model, m, boundary_at_m).lam for m in ms]
    scale = max(abs(vals[-1]), 1.0)
    monotone = all(y <= x + 1e-9 * scale for x, y in zip(vals, vals[1:]))
    limit, mode = series.extrapolate_limit(ms, vals)
    return TruncationTrace(tuple(ms), tuple(vals), vals[-1], limit, mode, monotone)


def shooting_rate(model: ChainModel, m: int, tol: float = 1e-12) -> SpectralResult:
    """Largest z for which u_1 = (a_1 - z)/b_1, u_i = [a_i u/(1+u) - z]/b_i stays
    positive on [1, m); equals the plainly-reflected truncation eigenvalue.
    """
    if model.boundary not in (BoundaryCode.DN, BoundaryCode.DD):
        raise WrongBoundary("shooting needs the Dirichlet-at-origin shape")
    if m < 2:
        raise TruncationTooSmall("need m >= 2")
    top = m if model.hi is None else min(model.hi + 1, m)
    idx = np.arange(1, top, dtype=np.int64)
    a = np.asarray(model.death(idx), dtype=float)
    b = np.asarray(model.birth(idx), dtype=float)
    if a[0] <= 0.0:
        raise WrongBoundary("shooting requires a positive death rate at state 1")

    def positive(z: float) -> bool:
        u = (a[0] - z) / b[0]
        if not u > 0.0:
            return False
        for i in range(1, len(a)):
            if u == -1.0:
                raise DegenerateRecursion("u = -1 in the shooting recursion")
            u = (a[i] * u / (1.0 + u) - z) / b[i]
            if not u > 1e-300:  # underflow counts as positivity failure
                return False
        return True

    lo = 0.0
    hi = float(np.min(a + b)) + 1.0
    while not positive(lo):
        # z = 0 is always admissible for a valid model; guard anyway
        hi = lo
        lo -= 1.0
        if lo < -1e6:
            raise NoConvergence("no admissible shift found")
    for _ in range(200):
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    z = lo
    # eigenvector from the ratio recursion at the admissible shift
    u = np.empty(len(a))
    u[0] = (a[0] - z) / b[0]
    for i in range(1, len(a)):
        u[i] = (a[i] * u[i - 1] / (1.0 + u[i - 1]) - z) / b[i]
    with np.errstate(over="ignore"):
        g = np.cumprod(np.concatenate([[1.0], 1.0 + np.maximum(u[:-1], 0.0)]))
    return SpectralResult(z, g, top - 1, hi - lo, "Shooting", base=1)


def eigen_identity_check(model: ChainModel, lam: float, g, lo: int, hi: int) -> dict:
    """Residuals of the summed eigen-identity and of the difference form.

    ``g`` is a callable on int arrays (positive on [lo, hi+1]). For the
    Dirichlet-at-origin codes the death rate at the bottom state acts as a
    killing term, which is exactly how the difference form treats it via the
    v_0 = inf convention. Residuals are relative (scale-free).
    """
    idx = np.arange(model.base, hi + 2, dtype=np.int64)
    a, b, c = model.rates(int(idx[0]), int(idx[-1]))
    gv = np.asarray(g(idx), dtype=float)
    base = model.base
    c_eff = c.copy()
    if model.boundary in (BoundaryCode.DN, BoundaryCode.DD):
        c_eff[0] += a[0]
        a = a.copy()
        a[0] = 0.0
    mu = np.ones(len(idx))
    with np.errstate(all="ignore"):
        for kx in range(1, len(idx)):
            mu[kx] = mu[kx - 1] * b[kx - 1] / a[kx] if a[kx] > 0 else math.inf
        # (summed form) mu_k b_k (g_k - g_{k+1}) = sum_{i<=k} (lam - c_i) mu_i g_i
        terms = (lam - c_eff[:-1]) * mu[:-1] * gv[:-1]
        lhs = mu[:-1] * b[:-1] * (gv[:-1] - gv[1:])
        rhs = np.cumsum(terms)
    healthy = np.isfinite(gv) & (np.abs(gv) > 1e-280)
    healthy = healthy[:-1] & healthy[1:] & np.isfinite(mu[:-1]) & (mu[:-1] > 1e-280)
    sel = (idx[:-1] >= lo) & (idx[:-1] <= hi) & np.isfinite(lhs) & np.isfinite(rhs) & healthy
    # backward-stable scale: a partial sum is only determined up to rounding
    # in its largest summand, so normalize by the running term magnitude
    with np.errstate(all="ignore"):
        scale = np.maximum.accumulate(np.maximum(np.abs(lhs), np.abs(terms)))
        denom = np.where(scale > 0, scale, 1.0)
        res_sum = float(np.max(np.abs(lhs - rhs)[sel] / denom[sel])) if sel.any() else math.nan
    # (difference form) R_i(v) = a_i (1 - 1/v_{i-1}) + b_i (1 - v_i) + c_i
    with np.errstate(all="ignore"):
        v = gv[1:] / gv[:-1]
        r = np.empty(len(idx) - 1)
        r[0] = a[0] + b[0] * (1.0 - v[0]) + c_eff[0]
        r[1:] = a[1:-1] * (1.0 - 1.0 / v[:-1]) + b[1:-1] * (1.0 - v[1:]) + c_eff[1:-1]
    sel_r = (idx[:-1] >= lo) & (idx[:-1] <= hi) & np.isfinite(r) & healthy
    res_r = float(np.max(np.abs(r - lam)[sel_r] / max(1.0, abs(lam)))) if sel_r.any() else math.nan
    return {"summed_form": res_sum, "difference_form": res_r}


@dataclass(frozen=True)
class SplitBracket:
    lower: float
    upper: float
    best_theta: int
    best_gamma: float
    detail: dict


def _local_pair(model: ChainModel, theta: int, gamma: float, m: int):
    """Eigenvalues of the split processes left/right of theta (7.13)."""
    lo = theta - m if model.lo is None else max(model.lo, theta - m)
    hi = theta + m if model.hi is None else min(model.hi, theta + m)
    # right side on [theta, hi]: reflect at theta, b_theta -> gamma/(gamma-1) b_theta
    idxR = np.arange(theta, hi + 1, dtype=np.int64)
    aR = np.asarray(model.death(idxR), dtype=float).copy()
    bR = np.asarray(model.birth(idxR), dtype=float).copy()
    aR[0] = 0.0
    bR[0] *= gamma / (gamma - 1.0)
    diag = aR + bR
    off = np.sqrt(bR[:-1] * aR[1:])
    lamR = _eig_k(diag, off) if len(diag) >= 2 else diag[0]
    # left side on [lo, theta] mirrored: reflect at theta, a_theta -> gamma a_theta
    idxL = np.arange(theta, lo - 1, -1, dtype=np.int64)
    aL = np.asarray(model.birth(idxL), dtype=float).copy()   # mirrored roles
    bL = np.asarray(model.death(idxL), dtype=float).copy()
    aL[0] = 0.0
    bL[0] *= gamma
    diag = aL + bL
    off = np.sqrt(bL[:-1] * aL[1:])
    lamL = _eig_k(diag, off) if len(diag) >= 2 else diag[0]
    return lamL, lamR


def gamma_from_eigvec(model: ChainModel, theta: int, g_theta_m1: float,
                      g_theta: float, g_theta_p1: float) -> float:
    """Coupling constant (7.18) from eigenfunction values around a peak."""
    num = float(model.birth(np.asarray([theta]))[0]) * (g_theta - g_theta_p1)
    den = float(model.death(np.asarray([theta]))[0]) * (g_theta - g_theta_m1)
    if den <= 0:
        raise DegenerateRecursion("gamma (7.18) needs a strict peak at theta")
    return 1.0 + num / den


def splitting_bracket(model: ChainModel, theta_grid, gamma_grid=None,
                      m: int = 400, use_eigvec_gamma: bool = True) -> SplitBracket:
    """Two-sided enclosure of the bilateral Dirichlet eigenvalue by splitting.

    lower = max over the grid of min(left, right); upper = min over the grid
    of max(left, right). Local eigenvalues are computed on truncations of
    length m, so on unbounded spaces both ends are approximations from above;
    finite instances are exact up to the eigensolver tolerance.
    """
    if model.boundary is not BoundaryCode.DD_BILATERAL:
        raise WrongBoundary("splitting needs a bilateral model")
    if gamma_grid is None:
        gamma_grid = np.concatenate([[2.0], np.geomspace(1.01, 100.0, 21)])
    cands = [float(gv) for gv in gamma_grid]
    if use_eigvec_gamma:
        full = principal_eigen(model, m)
        vec = full.eigvec
        pk = int(np.argmax(vec))
        if 0 < pk < len(vec) - 1:
            theta = full.base + pk
            try:
                gtheta = gamma_from_eigvec(model, theta, vec[pk - 1], vec[pk], vec[pk + 1])
                if math.isfinite(gtheta) and gtheta > 1.0:
                    cands.append(gtheta)
                    theta_grid = sorted(set(list(theta_grid) + [theta]))
            except DegenerateRecursion:
                pass
    lower, upper = -math.inf, math.inf
    best = (None, None)
    detail = {}
    for theta in theta_grid:
        for gv in cands:
            lamL, lamR = _local_pair(model, int(theta), gv, m)
            lo_c = min(lamL, lamR)
            hi_c = max(lamL, lamR)
            detail[(int(theta), gv)] = (lamL, lamR)
            if lo_c > lower:
                lower = lo_c
                best = (int(theta), gv)
            upper = min(upper, hi_c)
    for end, side in ((model.lo, "lo"), (model.hi, "hi")):
        if end is not None:
            # theta at a finite closed end: one side empty (=inf), the other is
            # the original process reflected at the end
            theta = end
            lamL, lamR = _local_pair(model, theta, 2.0, m)
            lam = lamR if side == "lo" else lamL
            upper = min(upper, lam)
            if lam > lower:
                lower, best = lam, (theta, math.inf)
    return SplitBracket(lower, upper, best[0], best[1], detail)

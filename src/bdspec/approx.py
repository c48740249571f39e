"""Monotone approximating sequences and first-step improved bounds.

The double-sum iterates are computed on truncated supports where the
defining recursions are exact, so the traces are monotone to rounding by the
same proportional argument that proves it for the full chain. First-step
quantities get dedicated closed-form evaluations with remainder-corrected
tail sums, since several of the benchmark suprema sit at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import series
from .errors import Condition72Fails, OutsideSupport, WrongBoundary
from .model import BoundaryCode, ChainModel, WeightSystem, build_weights

LOG_SAFE = 280.0  # keep mu and mu*f products comfortably inside float range


@dataclass(frozen=True)
class TestFunction:
    """Values on [lo, hi] plus the tail convention beyond hi.

    ``tail`` is "zero" for the vanishing family (absorbing side) and
    "constant" for the stopped family f(i) = f(i ^ m).
    """
    __test__ = False  # keep pytest from collecting the domain type

    lo: int
    values: np.ndarray
    tail: str = "zero"

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def at(self, i: int) -> float:
        if i < self.lo:
            raise OutsideSupport("index %d below support" % i)
        if i <= self.hi:
            return float(self.values[i - self.lo])
        return float(self.values[-1]) if self.tail == "constant" else 0.0


@dataclass(frozen=True)
class ApproxTrace:
    values: tuple
    monotone_ok: bool
    direction: str                      # "decreasing" or "increasing"
    certification: tuple
    grid: tuple = ()
    extras: dict = field(default_factory=dict)


def _safe_window(ws: WeightSystem, cap: int) -> int:
    """Number of leading window entries whose weights stay float-safe."""
    bad = np.abs(ws.log_mu) > LOG_SAFE
    n = int(np.argmax(bad)) if bad.any() else len(ws.log_mu)
    return max(2, min(cap, n, len(ws.log_mu)))


def _phi_nd(ws: WeightSystem, W: int) -> np.ndarray:
    """phi_i = nu[i, N] (birth convention) for i in [0, W-1], tail-corrected."""
    if ws.model.hint("nu_b_tail") is not None:
        return ws.nu_tails("b")[:W]
    nu = ws.nu_b[:W]
    suf = np.cumsum(nu[::-1])[::-1]
    top = len(ws.nu_b)
    rem = series._estimate_remainder(float(ws.nu_b[-2]), float(ws.nu_b[-1]),
                                     ws.base + top - 1) if not ws.finite else 0.0
    extra = float(ws.nu_b[W:].sum()) + (rem if math.isfinite(rem) else 0.0)
    if not math.isfinite(rem) and not ws.finite:
        return np.full(W, math.inf)
    return suf + extra


def _suffix_with_remainder(terms: np.ndarray, start: int, finite: bool) -> np.ndarray:
    """suffix[i] = sum_{k >= i} terms[k] (+ estimated tail past the window)."""
    suf = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
    if finite or len(terms) < 3:
        return suf
    rem = series.estimate_remainder_block(terms, start)
    if math.isfinite(rem):
        return suf + rem
    return np.full(len(suf), math.inf)


# ---------------------------------------------------------------------------
# the single- and double-sum operators
# ---------------------------------------------------------------------------

def op_single_sum(ws: WeightSystem, f: TestFunction, i: int) -> float:
    """I_i(f): partial-sum over increment, in the direction the case requires.

    Non-monotone spots return +inf (the 1/0 = inf convention); the operator is
    exact on the window, with the stopped family's tails folded in through
    the certified mu tails.
    """
    model = ws.model
    b = model.boundary
    k = i - ws.base
    if b is BoundaryCode.ND:
        num = float(np.sum(ws.mu[: k + 1] * [f.at(j) for j in range(ws.base, i + 1)]))
        den = ws.mu[k] * ws.b[k] * (f.at(i) - f.at(i + 1))
        return num / den if den > 0 else math.inf
    # DN / NN: increasing direction, sum over the upper range
    prev = f.at(i - 1) if i - 1 >= f.lo else 0.0
    den = ws.mu[k] * ws.a[k] * (f.at(i) - prev)
    hi = min(f.hi, ws.top)
    idx = np.arange(i, hi + 1)
    vals = np.asarray([f.at(j) for j in idx])
    num = float(np.sum(ws.mu[k: hi - ws.base + 1] * vals))
    if f.tail == "constant" and not ws.finite:
        num += f.at(f.hi) * ws.mu_tail(hi + 1)
    return num / den if den > 0 else math.inf


def op_double_sum(ws: WeightSystem, f: TestFunction, i: int) -> float:
    """II_i(f), support-restricted on the vanishing family."""
    model = ws.model
    k = i - ws.base
    if model.boundary is BoundaryCode.ND:
        if i > f.hi or i < f.lo:
            raise OutsideSupport("II is defined on supp(f) only")
        vals = np.asarray([f.at(j) for j in range(ws.base, f.hi + 1)])
        inner = np.cumsum(ws.mu[: f.hi - ws.base + 1] * vals)
        nu = ws.nu_b[: f.hi - ws.base + 1]
        return float(np.sum((nu * inner)[k:])) / f.at(i)
    # DN / NN shape: II_i(f) = (1/f_i) sum_{j<=i} nu_j sum_{k>=j} mu_k f_k
    hi = min(f.hi, ws.top)
    vals = np.asarray([f.at(j) for j in range(ws.base, hi + 1)])
    tail = f.at(f.hi) * ws.mu_tail(hi + 1) if (f.tail == "constant" and not ws.finite) else 0.0
    T = np.cumsum((ws.mu[: hi - ws.base + 1] * vals)[::-1])[::-1] + tail
    # NN: 1/(mu_j a_j) = 1/(mu_{j-1} b_{j-1}), and inf at j = 0
    nu = ws.nu_a if model.boundary is BoundaryCode.DN else np.append(math.inf, ws.nu_b[:-1])
    return float(np.sum(nu[: k + 1] * T[: k + 1])) / f.at(i)


# ---------------------------------------------------------------------------
# ND: delta_n, delta_n', first-step closed forms
# ---------------------------------------------------------------------------

def delta_seq_nd(model: ChainModel, steps: int = 6, window: int = 4096) -> ApproxTrace:
    """delta_1..delta_n from the sqrt(phi) seed on a truncated support.

    The iteration is the exact double-sum recursion of the truncated seed, so
    the trace decreases to rounding; values for chains whose supremum sits at
    infinity are window-limited and flagged accordingly.
    """
    if model.boundary is not BoundaryCode.ND:
        raise WrongBoundary("delta_seq_nd needs an ND model")
    ws = build_weights(model, max(window, 2))
    W = _safe_window(ws, window)
    phi = _phi_nd(ws, W)
    if not math.isfinite(phi[0]):
        return ApproxTrace((math.inf,) * steps, True, "decreasing",
                           (series.Certainty.CERTIFIED,) * steps)
    mu = ws.mu[:W]
    nu = ws.nu_b[:W]
    phi_trunc = np.cumsum(nu[::-1])[::-1]  # nu[i, W-1]: the truncated kernel
    f = np.sqrt(phi)
    vals, certs = [], []
    for _ in range(steps):
        nxt = _double_sum(mu, phi_trunc, f)
        ratios = nxt / f
        k = int(np.argmax(ratios))
        vals.append(float(ratios[k]))
        certs.append(series.Certainty.CERTIFIED if (ws.finite and W - 1 >= len(ws.mu) - 1)
                     else series.Certainty.WINDOW_STOPPED)
        f = nxt / np.max(nxt)
    mono = all(y <= x * (1 + 1e-12) + 1e-9 for x, y in zip(vals, vals[1:]))
    return ApproxTrace(tuple(vals), mono, "decreasing", tuple(certs))


def _double_sum(mu, kern, f):
    """f_i II_i(f) on a truncated support, along the last axis of f:
    kern_i sum_{j <= i} mu_j f_j + sum_{j > i} mu_j kern_j f_j."""
    T = np.zeros_like(f)
    T[..., :-1] = np.cumsum((mu * kern * f)[..., ::-1], axis=-1)[..., -2::-1]
    return kern * np.cumsum(mu * f, axis=-1) + T


def _lm_rows(mu, nu, b, ells, m, steps):
    """The (ell, m)-truncated iterates for every ell of ``ells`` at once.

    Row r starts from f = nu[(i v ell_r), m] on [0, m]. Returns, per step, the
    largest over the rows of the min-ratio min_i II_i(f)/f_i and of the
    Rayleigh quotient ||f||^2 / D(f). Every product, cumulative sum and sum
    runs along a row, so each row equals its one-row computation bit for bit.
    """
    n = m + 1
    mu, mub = mu[:n], mu[:n] * b[:n]
    kern = np.cumsum(nu[:n][::-1])[::-1]      # nu[j, m]
    f = np.where(np.arange(n) <= ells[:, None], kern[ells][:, None], kern)
    ratios, quotients = np.empty(steps), np.empty(steps)
    for s in range(steps):
        l2 = np.sum(mu * f * f, axis=1)
        dd = np.sum(mub * np.diff(f, axis=1, append=0.0) ** 2, axis=1)  # f_{m+1} = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            quotients[s] = np.max(np.where(dd > 0, l2 / dd, math.inf))
        nxt = _double_sum(mu, kern, f)
        ratios[s] = np.max(np.min(nxt / f, axis=1))
        f = nxt / np.max(nxt, axis=1, keepdims=True)
    return ratios, quotients


def delta_prime_seq_nd(model: ChainModel, steps: int = 6,
                       ell_grid=None, m_grid=None) -> ApproxTrace:
    """delta_n' and bar-delta_n over the (ell, m) grid (vanishing family).

    Reciprocals of both are certified upper bounds of the rate: truncation is
    intrinsic to their definition, not an approximation.
    """
    if model.boundary is not BoundaryCode.ND:
        raise WrongBoundary("delta_prime_seq_nd needs an ND model")
    ws = build_weights(model, 2048)
    W = _safe_window(ws, 2048)
    if ell_grid is None:
        ell_grid = [e for e in (list(range(0, 17)) + [20, 24, 32, 48, 64]) if e < W - 1]
    if m_grid is None:
        m_grid = sorted({min(W - 1, int(round(g)))
                         for g in np.geomspace(1, min(512, W - 1), 24)})
    mu, nu, b = ws.mu[:W], ws.nu_b[:W], ws.b[:W]
    prim = np.full(steps, -math.inf)
    bars = np.full(steps, -math.inf)
    for m in m_grid:
        ells = np.array([ell for ell in ell_grid if ell < m], dtype=np.int64)
        if len(ells):
            ratios, quotients = _lm_rows(mu, nu, b, ells, m, steps)
            prim = np.maximum(prim, ratios)
            bars = np.maximum(bars, quotients)
    mono = all(y >= x * (1 - 1e-12) - 1e-9 for x, y in zip(prim, prim[1:]))
    return ApproxTrace(tuple(float(v) for v in prim), mono, "increasing",
                       (series.Certainty.WINDOW_STOPPED,) * steps,
                       grid=(tuple(ell_grid), tuple(m_grid)),
                       extras={"bars": tuple(float(v) for v in bars)})


def first_step_closed(model: ChainModel, window: int = 200000):
    """(delta_1, delta_1') by their single-supremum expressions.

    ND uses the birth-side tails, DN the death-side partial sums; suffix sums
    carry an integral-test remainder so suprema attained at infinity are
    approached from the correct side.
    """
    if model.boundary is BoundaryCode.ND:
        ws = build_weights(model, window)
        W = _safe_window(ws, window)
        phi = _phi_nd(ws, W)
        if not math.isfinite(phi[0]):
            return math.inf, math.inf
        mu = ws.mu[:W]
        sphi = np.sqrt(phi)
        pre = np.cumsum(mu * sphi)
        suf32 = _suffix_with_remainder(mu * phi * sphi, ws.base, ws.finite)
        d1 = sphi * pre + np.concatenate([suf32[1:], [0.0]])[:W] / sphi
        suf2 = _suffix_with_remainder(mu * phi * phi, ws.base, ws.finite)
        d1p = phi * ws.mu_prefix_arr[:W] + np.concatenate([suf2[1:], [0.0]])[:W] / phi
        return float(np.nanmax(d1)), float(np.nanmax(d1p))
    if model.boundary is BoundaryCode.DN:
        ws = build_weights(model, window)
        if not math.isfinite(ws.mu_total.value):
            return math.inf, math.inf
        W = _safe_window(ws, window)
        mu = ws.mu[:W]
        phi = np.cumsum(ws.nu_a[:W])
        sphi = np.sqrt(phi)
        mu_suf = _suffix_with_remainder(mu * sphi, ws.base, ws.finite)
        pre32 = np.concatenate([[0.0], np.cumsum(mu * phi * sphi)[:-1]])
        d1 = pre32 / sphi + sphi * mu_suf[:W]
        pre2 = np.concatenate([[0.0], np.cumsum(mu * phi * phi)[:-1]])
        mu_tail = _suffix_with_remainder(mu, ws.base, ws.finite)
        d1p = pre2 / phi + phi * mu_tail[:W]
        return float(np.nanmax(d1)), float(np.nanmax(d1p))
    raise WrongBoundary("first_step_closed covers the ND and DN cases")


# ---------------------------------------------------------------------------
# NN: eta sequences and their closed first steps
# ---------------------------------------------------------------------------

def _nn_arrays(model: ChainModel, window: int):
    ws = build_weights(model, window)
    if not math.isfinite(ws.mu_total.value):
        raise WrongBoundary("eta sequences need sum(mu) < inf")
    W = _safe_window(ws, window)
    mu = ws.mu[:W]
    nu_shift = np.empty(W)
    nu_shift[0] = 0.0
    nu_shift[1:] = ws.nu_b[: W - 1]          # 1/(mu_i a_i), i >= 1
    phi = np.cumsum(np.concatenate([[0.0], ws.nu_b[: W - 1]]))  # nu[0, i-1]
    tail = ws.mu_tail(ws.base + W)
    Z = ws.mu_total.value
    return ws, W, mu, nu_shift, phi, tail, Z


def eta1_closed(model: ChainModel, window: int = 300000):
    """eta_1 and bar-eta_1 by their closed forms (centered first iterates)."""
    ws, W, mu, nu_shift, phi, tail, Z = _nn_arrays(model, window)
    sphi = np.sqrt(phi)
    psi = _suffix_with_remainder(mu * sphi, 0, ws.finite)[:W]
    mt = np.cumsum(mu[::-1])[::-1][1:] + tail         # mu[i, N] for i = 1..W-1
    eta1 = float(np.nanmax((sphi[1:] + sphi[:-1]) * (psi[1:] - psi[1] * mt / Z)))
    c1 = np.cumsum(mu * phi * phi)
    c2 = np.cumsum(mu * phi)
    with np.errstate(all="ignore"):
        A = c1[:-1] + phi[1:] ** 2 * mt
        B = c2[:-1] + phi[1:] * mt
        ebar = (A - B * B / Z) / phi[1:]
    etabar1 = float(np.nanmax(np.where(np.isfinite(ebar), ebar, -math.inf)))
    return eta1, etabar1


def eta_seq_nn(model: ChainModel, steps: int = 6, m: Optional[int] = None,
               m_grid=None, window: int = 4096) -> ApproxTrace:
    """eta_n (decreasing) plus the m-grid eta_n' and bar-eta_n (increasing).

    Centering uses the certified total weight. Iterates are carried on the
    lumped truncation, itself a reflecting chain, so the monotone proofs
    apply verbatim; no renormalization happens between steps (a handful of
    iterations cannot overflow) so consecutive tail sums share one scale.
    """
    ws, W, mu, nu_shift, phi, tail, Z = _nn_arrays(model, window)
    if m is None:
        m = W - 1
    m = min(m, W - 1)
    if m_grid is None:
        m_grid = sorted({min(W - 1, int(round(g))) for g in np.geomspace(2, m, 16)})

    def stopped(g, mm):
        return np.concatenate([g[: mm + 1], np.full(W - mm - 1, g[mm])])

    def center_T(f, mm):
        pif = (float(np.sum(mu[: mm + 1] * f[: mm + 1]))
               + f[mm] * (float(mu[mm + 1:].sum()) + tail)) / Z
        fb = f - pif
        T = np.cumsum((mu * fb)[::-1])[::-1] + fb[-1] * tail
        return fb, T

    def advance(T, mm):
        g = np.cumsum(nu_shift * T)
        return stopped(g, mm)

    # part (1): seed sqrt(phi), stopped at the window top
    f = np.sqrt(phi)
    etas = []
    i_all = np.arange(1, W)
    fb, T_prev = center_T(f, W - 1)
    with np.errstate(all="ignore"):
        denom = (f[i_all] - f[i_all - 1]) / nu_shift[i_all]
        vals = np.where(denom > 0, T_prev[i_all] / denom, -math.inf)
    etas.append(float(np.nanmax(vals)))
    for _ in range(steps - 1):
        f = advance(T_prev, W - 1)
        fb, T = center_T(f, W - 1)
        with np.errstate(all="ignore"):
            r = np.where(T_prev[i_all] > 0, T[i_all] / T_prev[i_all], -math.inf)
        etas.append(float(np.nanmax(r)))
        T_prev = T
    # part (2): the m-grid increasing sequences
    prim = np.full(steps, -math.inf)
    bars = np.full(steps, -math.inf)
    for mm in m_grid:
        f = stopped(phi, mm)
        i = np.arange(1, mm + 1)
        for n in range(steps):
            fb, T = center_T(f, mm)
            with np.errstate(all="ignore"):
                denom = (f[i] - f[i - 1]) / nu_shift[i]
                vals = np.where(denom > 0, T[i] / denom, math.inf)
            prim[n] = max(prim[n], float(np.min(vals)))
            l2 = float(np.sum(mu * fb * fb)) + fb[-1] ** 2 * tail
            dd = float(np.sum((f[i] - f[i - 1]) ** 2 / nu_shift[i]))
            if dd > 0:
                bars[n] = max(bars[n], l2 / dd)
            f = advance(T, mm)
    mono = all(y <= x * (1 + 1e-12) + 1e-9 for x, y in zip(etas, etas[1:]))
    return ApproxTrace(tuple(etas), mono, "decreasing",
                       (series.Certainty.WINDOW_STOPPED,) * steps,
                       grid=tuple(m_grid),
                       extras={"eta_prime": tuple(float(v) for v in prim),
                               "eta_bar": tuple(float(v) for v in bars)})


# ---------------------------------------------------------------------------
# DD half-line: first step via the ergodic dual (Corollary 7.2 shapes)
# ---------------------------------------------------------------------------

def dd_first_step(model: ChainModel, window: int = 200000):
    """(delta, delta_1, bar-delta_1) for the Dirichlet-Dirichlet half line.

    Requires the summability of 1/(mu_i a_i); the finite-top corrections use
    the extra 1/(mu_N b_N) mass exactly as the boundary demands.
    """
    if model.boundary is not BoundaryCode.DD:
        raise WrongBoundary("dd_first_step needs a DD model")
    ws = build_weights(model, window)
    W = _safe_window(ws, window)
    finite = ws.finite
    nu = ws.nu_a[:W]
    mu = ws.mu[:W]
    if not finite and not math.isfinite(ws.nu_a_total.value):
        raise Condition72Fails("sum 1/(mu_i a_i) must converge (7.2)")
    Nterm = 0.0
    if finite:
        mb = ws.mu[-1] * ws.b[-1]
        Nterm = 1.0 / mb if mb > 0 else math.inf
    phi = np.cumsum(mu)                      # mu[1, i]
    nu_suf = _suffix_with_remainder(nu, ws.base, finite) + Nterm
    # delta = [sup_{n<N} mu[1,n] (nu[n+1,N] + 1_{N<inf}/(mu_N b_N))] v (mu[1,N] * that)
    upto = W - 1 if finite else W
    with np.errstate(all="ignore"):
        dvals = phi[:upto] * nu_suf[1: upto + 1]
    delta = float(np.nanmax(dvals)) if len(dvals) else 0.0
    if finite:
        delta = max(delta, phi[-1] * Nterm)
    sphi = np.sqrt(phi)
    psi_terms = np.concatenate([nu[1:], [0.0]]) * sphi  # nu_{j+1} sqrt(phi_j)
    psi = _suffix_with_remainder(psi_terms, ws.base, finite)[:W]
    if finite:
        psi = psi + (math.sqrt(phi[-1]) * Nterm if math.isfinite(Nterm) else math.inf)
    S_full = nu_suf[0]
    sphi_prev = np.concatenate([[0.0], sphi[:-1]])
    with np.errstate(all="ignore"):
        d1vals = (sphi + sphi_prev) * (psi - psi[0] * (nu_suf[1:W + 1] if not finite
                                                       else np.concatenate([nu_suf[1:W], [Nterm]])) / S_full)
    delta1 = float(np.nanmax(d1vals))
    # bar-delta_1 over stopping levels m < W (a one-state window has W = 2,
    # and phi_1 raises): phi does not decrease, so min(phi_j, phi_m) is phi_j
    # for j <= m and phi_m beyond, and each sum over j is a prefix sum plus
    # phi_m (or its square) times the nu mass beyond m: nu[m + 2, N] plus
    # 1/(mu_N b_N) on a finite chain, nu_suf[m + 1] on an infinite one (which
    # counts nu_{m+1} twice; ROADMAP item 9)
    pm = phi[np.arange(W)]
    nu_next = np.concatenate([nu[1:], [0.0]])
    beyond = np.concatenate([nu_suf[2:], [Nterm]]) if finite else nu_suf[1:W + 1]
    with np.errstate(all="ignore"):
        A = np.cumsum(nu_next * phi * phi) + pm * pm * beyond
        B = np.cumsum(nu_next * phi) + pm * beyond
        vals = (A - B * B / S_full) / pm
    vals = vals[(pm > 0) & ~np.isnan(vals)]
    return delta, delta1, float(vals.max()) if len(vals) else -math.inf


# ---------------------------------------------------------------------------
# DN: the increasing dual sequences of Example 5.3
# ---------------------------------------------------------------------------

def ex5_3_sequences(model: ChainModel, steps: int):
    """The increasing dual sequences of the constant-rate chain (Example 5.3):
    the best delta'_n-hat and bar-delta_n-hat over stopping levels m < 400."""
    ws = build_weights(model, 600)
    mu, nu, a = ws.mu, ws.nu_a, ws.a
    healthy = np.isfinite(nu) & (nu > 0) & (mu > 1e-280)
    W = int(np.argmin(healthy)) if not healthy.all() else len(mu)
    best_dp = np.full(steps, -np.inf)
    best_bar = np.full(steps, -np.inf)
    for m in range(1, min(400, W - 1)):
        n = m
        phi = np.cumsum(nu[:n])
        f = phi / phi[-1]  # every reported quantity is scale-invariant
        tailmu = ws.mu_tail(ws.base + m)
        for s in range(steps):
            suf = np.cumsum((mu[:n] * f)[::-1])[::-1] + f[-1] * tailmu
            nxt = np.cumsum(nu[:n] * suf)
            best_dp[s] = max(best_dp[s], float(np.min(nxt / f)))
            l2 = float(np.sum(mu[:n] * f * f)) + tailmu * f[-1] ** 2
            fprev = np.concatenate([[0.0], f[:-1]])
            dd = float(np.sum(mu[:n] * a[:n] * (f - fprev) ** 2))
            best_bar[s] = max(best_bar[s], l2 / dd)
            f = nxt / np.max(nxt)
    return [float(x) for x in best_dp], [float(x) for x in best_bar]

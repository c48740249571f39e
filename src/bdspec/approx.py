"""Monotone approximating sequences and first-step improved bounds.

One row-batched kernel, ``_II``, evaluates the operators I and II on a (G, W)
array; each caller fixes its sum directions from the boundary shape (ND,
DN/NN, and the killed chain of ``killing``), and the sequences make one
batched pass per step with a row per stopping level. It replaced the former
public one-index operator functions, their test-function type and its
out-of-support error (listed in the README). Iterates live on truncated
supports where the defining recursions are exact, so the traces are monotone
to rounding by the proportional argument that proves it for the full chain.
First-step quantities get closed-form evaluations with remainder-corrected
tail sums, since several benchmark suprema sit at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import series
from .errors import BadParameter, Condition72Fails, WrongBoundary
from .model import BoundaryCode, ChainModel, WeightSystem, build_weights

LOG_SAFE = 280.0  # keep mu and mu*f products comfortably inside float range


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


def _levels(m_grid, W: int):
    """The stopping levels of ``m_grid``, each of which must lie in [1, W - 1]."""
    levels = np.asarray(m_grid, dtype=np.int64).reshape(-1)
    if np.any((levels < 1) | (levels > W - 1)):
        raise BadParameter("stopping levels must lie in [1, %d], the float-safe window"
                           % (W - 1))
    return levels


# ---------------------------------------------------------------------------
# the single- and double-sum operators I and II
# ---------------------------------------------------------------------------

def _suffix_sum(x):
    return np.cumsum(x[..., ::-1], axis=-1)[..., ::-1]


def _II(mu, nu, F, inner: str, outer: str, tail: float = 0.0):
    """The operators I and II on each row f of ``F``, a (G, W) array or one row.

    Returns the inner sums S_i = sum_k mu_k f_k, over k <= i (``inner`` =
    "prefix") or over k >= i plus ``tail`` * f_{W-1} ("suffix", ``tail`` the
    mu-mass past the window), so that S_i nu_i over the increment of f at i
    is I_i(f); and f_i II_i(f) = sum_j nu_j S_j, over j >= i (``outer`` =
    "suffix"), j <= i ("prefix") or j < i ("exclusive", which never reads
    nu_{W-1}). ``mu`` may carry the row axis too. Every product and cumsum
    runs along a row, so each row equals its one-row call bit for bit.
    """
    if inner == "prefix":
        S = np.cumsum(mu * F, axis=-1)
    else:
        S = _suffix_sum(mu * F) + tail * F[..., -1:]
    if outer == "suffix":
        return S, _suffix_sum(nu * S)
    if outer == "prefix":
        return S, np.cumsum(nu * S, axis=-1)
    II = np.zeros(np.shape(S))
    II[..., 1:] = np.cumsum(nu[:-1] * S[..., :-1], axis=-1)
    return S, II


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
    f = np.sqrt(phi)
    vals, certs = [], []
    for _ in range(steps):
        nxt = _II(mu, nu, f, "prefix", "suffix")[1]   # on the truncated support
        ratios = nxt / f
        k = int(np.argmax(ratios))
        vals.append(float(ratios[k]))
        certs.append(series.Certainty.CERTIFIED if (ws.finite and W - 1 >= len(ws.mu) - 1)
                     else series.Certainty.WINDOW_STOPPED)
        f = nxt / np.max(nxt)
    mono = all(y <= x * (1 + 1e-12) + 1e-9 for x, y in zip(vals, vals[1:]))
    return ApproxTrace(tuple(vals), mono, "decreasing", tuple(certs))


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
        nxt = _II(mu, nu[:n], f, "prefix", "suffix")[1]
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
    for m in _levels(m_grid, W):
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
    # row 0: the sqrt(phi) seed of eta_n; row 1 + k: phi stopped at the k-th
    # level mm of the grid (f_i = f_{min(i, mm)}), for eta_n' and bar-eta_n
    stop = np.concatenate([[W - 1], _levels(m_grid, W)])
    cols = np.minimum(np.arange(W), stop[:, None])
    F = phi[cols]
    F[0] = np.sqrt(phi)
    etas, prim, bars = [], np.empty(steps), np.empty(steps)
    for n in range(steps):
        Fb = F - ((np.sum(mu * F, axis=1) + F[:, -1] * tail) / Z)[:, None]
        T, G = _II(mu, nu_shift, Fb, "suffix", "prefix", tail)
        with np.errstate(all="ignore"):
            denom = np.diff(F, axis=1) / nu_shift[1:]    # 0 past a row's level
            r = (np.where(denom[0] > 0, T[0, 1:] / denom[0], -math.inf) if n == 0
                 else np.where(T_prev[1:] > 0, T[0, 1:] / T_prev[1:], -math.inf))
            vals = np.where(denom[1:] > 0, T[1:, 1:] / denom[1:], math.inf)
            l2 = np.sum(mu * Fb[1:] * Fb[1:], axis=1) + Fb[1:, -1] ** 2 * tail
            dd = np.sum(np.diff(F[1:], axis=1) ** 2 / nu_shift[1:], axis=1)
            quotients = np.where(dd > 0, l2 / dd, -math.inf)
        etas.append(float(np.nanmax(r)))
        prim[n] = np.fmax.reduce(np.min(vals, axis=1), initial=-math.inf)  # skips NaN rows
        bars[n] = np.fmax.reduce(quotients, initial=-math.inf)
        T_prev = T[0]
        F = np.take_along_axis(G, cols, axis=1)
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
    # delta = sup_{n<=N} mu[1,n] (nu[n+1,N] + 1_{N<inf}/(mu_N b_N)); on a finite
    # chain nu_suf[W] is 0 + 1/(mu_N b_N), so the finite and infinite forms agree
    with np.errstate(all="ignore"):
        dvals = phi[:W] * nu_suf[1:W + 1]
    delta = float(np.nanmax(dvals))
    sphi = np.sqrt(phi)
    psi_terms = np.concatenate([nu[1:], [0.0]]) * sphi  # nu_{j+1} sqrt(phi_j)
    psi = _suffix_with_remainder(psi_terms, ws.base, finite)[:W]
    if finite:
        psi = psi + (math.sqrt(phi[-1]) * Nterm if math.isfinite(Nterm) else math.inf)
    S_full = nu_suf[0]
    sphi_prev = np.concatenate([[0.0], sphi[:-1]])
    with np.errstate(all="ignore"):
        d1vals = (sphi + sphi_prev) * (psi - psi[0] * nu_suf[1:W + 1] / S_full)
    delta1 = float(np.nanmax(d1vals))
    # bar-delta_1 over stopping levels m < W (a one-state window has W = 2,
    # and phi_1 raises): phi does not decrease, so min(phi_j, phi_m) is phi_j
    # for j <= m and phi_m beyond, and each sum over j is a prefix sum plus
    # phi_m (or its square) times the nu mass beyond m + 1, nu_suf[m + 2]
    # (plus 1/(mu_N b_N) on a finite chain); at m = W - 1 it is the mass past
    # the window, nu_suf[W], since nu_next pads nu_W with 0
    pm = phi[np.arange(W)]
    nu_next = np.concatenate([nu[1:], [0.0]])
    beyond = np.concatenate([nu_suf[2:], nu_suf[-1:]])
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
    # one row per stopping level m < 400: f = phi / phi_{m-1} on [0, m - 1],
    # stopped beyond it, where the row's mu-mass past m - 1 closes the sums
    levels = np.arange(1, min(400, W - 1))
    n = max(len(levels), 1)
    mu, nu, a = mu[:n], nu[:n], a[:n]
    cols = np.minimum(np.arange(n), levels[:, None] - 1)
    phi = np.cumsum(nu)
    F = phi[cols] / phi[levels - 1][:, None]  # every reported quantity is scale-invariant
    tail = ws.mu_tail(ws.base + n)
    best_dp, best_bar = [], []
    for _ in range(steps):
        nxt = np.take_along_axis(_II(mu, nu, F, "suffix", "prefix", tail)[1], cols, axis=1)
        best_dp.append(float(np.fmax.reduce(np.min(nxt / F, axis=1), initial=-np.inf)))
        l2 = np.sum(mu * F * F, axis=1) + tail * F[:, -1] ** 2
        dd = np.sum(mu * a * np.diff(F, axis=1, prepend=0.0) ** 2, axis=1)
        best_bar.append(float(np.fmax.reduce(l2 / dd, initial=-np.inf)))
        F = nxt / np.max(nxt, axis=1, keepdims=True)
    return best_dp, best_bar

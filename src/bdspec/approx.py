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

import numpy as np

from . import series
from .errors import BadParameter, Condition72Fails, KilledChain, WrongBoundary
from .model import BoundaryCode, ChainModel, WeightSystem, build_weights

SEQ_WINDOW = 4096    # states of the delta_n and eta_n iterations


@dataclass(frozen=True)
class ApproxTrace:
    values: tuple
    monotone_ok: bool
    direction: str                      # "decreasing" or "increasing"
    certified: series.Certainty
    grid: tuple = ()
    extras: dict = field(default_factory=dict)


def _safe_window(ws: WeightSystem, cap: int) -> int:
    """The float-safe window ``ws.safe_len``, at most ``cap`` and at least 2."""
    return max(2, min(cap, ws.safe_len))


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
        S = series.tail_sums(mu * F, 0, tail * F[..., -1:])[..., :-1]
    if outer == "suffix":
        return S, series.tail_sums(nu * S, 0, 0.0)[..., :-1]
    if outer == "prefix":
        return S, np.cumsum(nu * S, axis=-1)
    II = np.zeros(np.shape(S))
    II[..., 1:] = np.cumsum(nu[:-1] * S[..., :-1], axis=-1)
    return S, II


# ---------------------------------------------------------------------------
# ND: delta_n, delta_n', first-step closed forms
# ---------------------------------------------------------------------------

def delta_seq_nd(model: ChainModel, steps: int = 6) -> ApproxTrace:
    """delta_1..delta_n from the sqrt(phi) seed on a truncated support.

    The iteration is the exact double-sum recursion of the truncated seed, so
    the trace decreases to rounding; its label is the float-safe window's,
    and a divergent seed (phi = inf) gives inf, certified.
    """
    if model.boundary is not BoundaryCode.ND:
        raise WrongBoundary("delta_seq_nd needs an ND model")
    ws = build_weights(model, SEQ_WINDOW)
    W = _safe_window(ws, SEQ_WINDOW)
    phi = ws.nu_tails("b", W)
    if not math.isfinite(phi[0]):
        return ApproxTrace((math.inf,) * steps, True, "decreasing",
                           series.Certainty.CERTIFIED)
    mu = ws.mu[:W]
    nu = ws.nu_b[:W]
    f = np.sqrt(phi)
    vals = []
    for _ in range(steps):
        nxt = _II(mu, nu, f, "prefix", "suffix")[1]   # on the truncated support
        vals.append(float(np.max(nxt / f)))
        f = nxt / np.max(nxt)
    mono = all(y <= x * (1 + 1e-12) + 1e-9 for x, y in zip(vals, vals[1:]))
    return ApproxTrace(tuple(vals), mono, "decreasing", ws.certainty(W))


def _lm_rows(mu, nu, b, ells, m, steps):
    """The (ell, m)-truncated iterates for every ell of ``ells`` at once.

    Row r starts from f = nu[(i v ell_r), m] on [0, m]. Returns, per step, the
    largest over the rows of the min-ratio min_i II_i(f)/f_i and of the
    Rayleigh quotient ||f||^2 / D(f). Every product, cumulative sum and sum
    runs along a row, so each row equals its one-row computation bit for bit.
    """
    n = m + 1
    mu, mub = mu[:n], mu[:n] * b[:n]
    kern = series.tail_sums(nu[:n], 0, 0.0)[:-1]    # nu[j, m]
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


def delta_prime_seq_nd(model: ChainModel, steps: int = 6, m_grid=None) -> ApproxTrace:
    """delta_n' and bar-delta_n over the (ell, m) grid (vanishing family),
    ell in 0..16, 20, 24, 32, 48, 64 below W - 1.

    Truncation is intrinsic to their definition, but the grid stops inside
    the float-safe window: the trace is labelled by that window.
    """
    if model.boundary is not BoundaryCode.ND:
        raise WrongBoundary("delta_prime_seq_nd needs an ND model")
    ws = build_weights(model, 2048)
    W = _safe_window(ws, 2048)
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
    return ApproxTrace(tuple(float(v) for v in prim), mono, "increasing", ws.certainty(W),
                       grid=(tuple(ell_grid), tuple(m_grid)),
                       extras={"bars": tuple(float(v) for v in bars)})


def first_step_closed(model: ChainModel, window: int = 200000):
    """(delta_1, delta_1') by their single-supremum expressions.

    ND uses the birth-side tails, DN the death-side partial sums. On an
    infinite chain the suffix sums add the estimated remainder, which can
    undershoot: the pair, a ``series.Labelled``, carries the float-safe
    window's certainty, and a divergent phi or sum mu gives inf, certified.
    """
    if model.boundary not in (BoundaryCode.ND, BoundaryCode.DN):
        raise WrongBoundary("first_step_closed covers the ND and DN cases")
    ws = build_weights(model, window)
    W = _safe_window(ws, window)
    mu = ws.mu[:W]
    rem = 0.0 if ws.finite else None        # estimate the weighted tails' remainders
    divergent = series.Labelled((math.inf, math.inf), series.Certainty.CERTIFIED)
    if model.boundary is BoundaryCode.ND:
        phi = ws.nu_tails("b", W)
        if not math.isfinite(phi[0]):
            return divergent
        sphi = np.sqrt(phi)
        pre = np.cumsum(mu * sphi)
        suf32 = series.tail_sums(mu * phi * sphi, ws.base, rem)
        d1 = sphi * pre + suf32[1:] / sphi
        suf2 = series.tail_sums(mu * phi * phi, ws.base, rem)
        d1p = phi * ws.mu_prefix_arr[:W] + suf2[1:] / phi
    elif not math.isfinite(ws.mu_total.value):
        return divergent
    else:
        phi = ws.nu_prefix("a", W)
        sphi = np.sqrt(phi)
        mu_suf = series.tail_sums(mu * sphi, ws.base, rem)
        pre32 = np.concatenate([[0.0], np.cumsum(mu * phi * sphi)[:-1]])
        d1 = pre32 / sphi + sphi * mu_suf[:W]
        pre2 = np.concatenate([[0.0], np.cumsum(mu * phi * phi)[:-1]])
        d1p = pre2 / phi + phi * series.tail_sums(mu, ws.base, ws.mu_tail(ws.base + W))[:W]
    return series.Labelled((float(np.nanmax(d1)), float(np.nanmax(d1p))), ws.certainty(W))


# ---------------------------------------------------------------------------
# NN: eta sequences and their closed first steps
# ---------------------------------------------------------------------------

def _nn_arrays(model: ChainModel, window: int):
    if model.boundary is not BoundaryCode.NN:
        raise WrongBoundary("eta sequences need an NN model")
    ws = build_weights(model, window)
    if not math.isfinite(ws.mu_total.value):
        raise WrongBoundary("eta sequences need sum(mu) < inf")
    W = _safe_window(ws, window)
    mu = ws.mu[:W]
    phi = np.concatenate([[0.0], ws.nu_prefix("b", W - 1)])   # nu[0, i-1]
    tail = ws.mu_tail(ws.base + W)
    Z = ws.mu_total.value
    return ws, W, mu, phi, tail, Z


def _centered_first_step(phi, w, w_tail, total, start, rem):
    """(eta_1, bar-eta_1) of the centered first iterate, in the NN frame.

    ``phi`` (phi_0 = 0) is the seed, ``w`` the weights it is centered under,
    ``w_tail[i]`` = w[i, N] for i = 0..len(w), ``total`` their sum Z, and
    ``rem`` the remainder of psi past the window (None estimates it, from the
    index ``start`` of w_0). eta_1 = sup_i (sqrt(phi_i) + sqrt(phi_{i-1}))
    (psi_i - psi_1 w[i, N] / Z), psi_i = sum_{j >= i} w_j sqrt(phi_j), and
    bar-eta_1 = sup_i (A_i - B_i^2 / Z) / phi_i, A_i = sum_{j <= i} w_j phi_j^2
    + phi_i^2 w[i + 1, N] and B_i the same with phi_j; non-finite values are
    dropped. The DD first step is this kernel on its dual's arrays.
    """
    sphi = np.sqrt(phi)
    psi = series.tail_sums(w * sphi, start, rem)
    with np.errstate(all="ignore"):
        eta1 = float(np.nanmax((sphi[1:] + sphi[:-1])
                               * (psi[1:-1] - psi[1] * w_tail[1:-1] / total)))
        A = np.cumsum(w * phi * phi) + phi * phi * w_tail[1:]
        B = np.cumsum(w * phi) + phi * w_tail[1:]
        bar = (A - B * B / total) / phi
    return eta1, float(np.max(bar[np.isfinite(bar)], initial=-math.inf))


def eta1_closed(model: ChainModel):
    """eta_1 and bar-eta_1 by their closed forms (centered first iterates), on
    300000 states: a ``series.Labelled`` pair with the float-safe window's certainty."""
    ws, W, mu, phi, tail, Z = _nn_arrays(model, 300000)
    return series.Labelled(_centered_first_step(
        phi, mu, series.tail_sums(mu, ws.base, tail), Z, ws.base,
        0.0 if ws.finite else None), ws.certainty(W))


def eta_seq_nn(model: ChainModel, steps: int = 6, m_grid=None) -> ApproxTrace:
    """eta_n (decreasing) plus the m-grid eta_n' and bar-eta_n (increasing).

    Centering uses the total weight sum mu. Iterates are carried on the
    lumped truncation, itself a reflecting chain, so the monotone proofs
    apply verbatim; no renormalization happens between steps (a handful of
    iterations cannot overflow) so consecutive tail sums share one scale.
    """
    ws, W, mu, phi, tail, Z = _nn_arrays(model, SEQ_WINDOW)
    nu_shift = np.concatenate([[0.0], ws.nu_b[: W - 1]])   # 1/(mu_i a_i), i >= 1
    if m_grid is None:
        m_grid = sorted({min(W - 1, int(round(g))) for g in np.geomspace(2, W - 1, 16)})
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
    return ApproxTrace(tuple(etas), mono, "decreasing", ws.certainty(W), grid=tuple(m_grid),
                       extras={"eta_prime": tuple(float(v) for v in prim),
                               "eta_bar": tuple(float(v) for v in bars)})


# ---------------------------------------------------------------------------
# DD half-line: first step via the ergodic dual (Corollary 7.2 shapes)
# ---------------------------------------------------------------------------

def dd_first_step(model: ChainModel, window: int = 200000):
    """(delta, delta_1, bar-delta_1) for the Dirichlet-Dirichlet half line,
    a ``series.Labelled`` triple with the float-safe window's certainty.

    Requires no killing and the summability of 1/(mu_i a_i); the finite-top
    corrections use the extra 1/(mu_N b_N) mass exactly as the boundary demands.
    """
    if model.boundary is not BoundaryCode.DD:
        raise WrongBoundary("dd_first_step needs a DD model")
    if model.killing is not None:
        raise KilledChain("dd_first_step covers killing-free chains; %s is killed" % model.name)
    ws = build_weights(model, window)
    W = _safe_window(ws, window)
    finite = ws.finite
    nu = ws.nu_a[:W]
    mu = ws.mu[:W]
    if not finite and not math.isfinite(ws.nu_a_total.value):
        raise Condition72Fails("sum 1/(mu_i a_i) must converge (7.2)")
    Nterm = ws.top_exit
    phi = ws.mu_prefix_arr[:W]               # mu[1, i]
    nu_suf = series.tail_sums(nu, ws.base, ws.nu_tail(ws.base + W, "a")) + Nterm
    # delta = sup_{n<=N} mu[1,n] (nu[n+1,N] + 1_{N<inf}/(mu_N b_N)); on a finite
    # chain nu_suf[W] is 0 + 1/(mu_N b_N), so the finite and infinite forms agree
    with np.errstate(all="ignore"):
        dvals = phi[:W] * nu_suf[1:W + 1]
    delta = float(np.nanmax(dvals))
    # (delta_1, bar-delta_1) are the NN dual's (eta_1, bar-eta_1): the kernel on
    # phi = [0, mu[1, i]], w = [nu, 0] and the nu tails, whose mass past the
    # window (with 1/(mu_N b_N)) closes the sums; a one-state window has W = 2,
    # and phi_{W-1} raises
    rem = math.sqrt(phi[W - 1]) * Nterm if finite else None
    return series.Labelled((delta,) + _centered_first_step(
        np.concatenate([[0.0], phi]), np.concatenate([nu, [0.0]]),
        np.concatenate([nu_suf, nu_suf[-1:]]), nu_suf[0], ws.base - 1, rem), ws.certainty(W))


# ---------------------------------------------------------------------------
# DN: the increasing dual sequences of Example 5.3
# ---------------------------------------------------------------------------

def ex5_3_sequences(model: ChainModel, steps: int):
    """The increasing dual sequences of the constant-rate chain (Example 5.3):
    the best delta'_n-hat and bar-delta_n-hat over stopping levels m < 400."""
    if model.boundary is not BoundaryCode.DN:
        raise WrongBoundary("ex5_3_sequences needs a DN model")
    ws = build_weights(model, 600)
    if not math.isfinite(ws.mu_total.value):
        raise WrongBoundary("ex5_3_sequences needs sum(mu) < inf")
    mu, nu, a = ws.mu, ws.nu_a, ws.a
    healthy = np.isfinite(nu) & (nu > 0) & (mu > 1e-280)
    W = int(np.argmin(healthy)) if not healthy.all() else len(mu)
    # one row per stopping level m < 400: f = phi / phi_{m-1} on [0, m - 1],
    # stopped beyond it, where the row's mu-mass past m - 1 closes the sums
    levels = np.arange(1, min(400, W - 1))
    n = max(len(levels), 1)
    mu, nu, a = mu[:n], nu[:n], a[:n]
    cols = np.minimum(np.arange(n), levels[:, None] - 1)
    phi = ws.nu_prefix("a", n)
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

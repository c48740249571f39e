"""Isoperimetric constants and universal factor-4 brackets.

The four boundary codes get their defining sup/inf constants (single-index
deltas, two-index kappas) evaluated by windowed scans with the 1/0 = inf and
1/inf = 0 conventions, plus a dispatcher that picks the right constant for
a given chain from the boundary code and total weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import series
from .errors import NotErgodic, WrongBoundary
from .model import (BoundaryCode, ChainModel, WeightSystem, bilateral_log_weights,
                    build_weights)


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure [lower, upper] of a decay rate."""
    lower: float
    upper: float
    method: str
    delta_like: Optional[series.ExtremumReport] = None

    @property
    def degenerate(self) -> bool:
        return self.upper == 0.0


def _bracket_from_constant(value: float, method: str,
                           report: Optional[series.ExtremumReport] = None) -> Bracket:
    if not math.isfinite(value) or value <= 0.0:
        # constant = inf <=> rate is zero (recurrent / degenerate case)
        return Bracket(0.0, 0.0, method, report)
    return Bracket(0.25 / value, 1.0 / value, method, report)


def _masked_sup(values: np.ndarray, genuinely_infinite: bool) -> float:
    """Sup over the float-healthy part of a product scan; inf only when the
    defining series genuinely force it."""
    if genuinely_infinite:
        return math.inf
    sel = np.isfinite(values)
    return float(np.max(values[sel])) if sel.any() else 0.0


def _tail_array(ws: WeightSystem, key: str, arr: np.ndarray, total: float) -> np.ndarray:
    """``key``[n, N] for every window index n (hint, or suffix sums + remainder);
    computed once per weight system."""
    cached = ws._suffix_cache.get("tail_" + key)
    if cached is not None:
        return cached
    hint = ws.model.hint(key + "_tail")
    if hint is not None:
        out = np.asarray([hint(int(n)) for n in range(ws.base, ws.top + 1)], dtype=float)
    elif not math.isfinite(total):
        out = np.full(len(arr), math.inf)
    else:
        out = ws._suffix(key, arr, total)[:-1]
    ws._suffix_cache["tail_" + key] = out
    return out


def _nu_tail_array(ws: WeightSystem, kind: str) -> np.ndarray:
    arr, tot = (ws.nu_b, ws.nu_b_total) if kind == "b" else (ws.nu_a, ws.nu_a_total)
    return _tail_array(ws, "nu_" + kind, arr, tot.value)


def _mu_tail_array(ws: WeightSystem) -> np.ndarray:
    return _tail_array(ws, "mu", ws.mu, ws.mu_total.value)


def _kappa_terms(ws: WeightSystem, reflecting: bool):
    """(L, R, mid, strict) of kappa^(6.13) for a reflecting origin, of
    kappa^(7.5) for an absorbing one: L and R are the reciprocal boundary
    sums with 1/inf = 0, mid the middle weights (see series.half_line_pairs)."""
    if reflecting:
        left, right, mid = ws.mu_prefix_arr, _mu_tail_array(ws), ws.nu_b
    else:
        with np.errstate(over="ignore"):
            left = np.cumsum(ws.nu_a)
        right, mid = _nu_tail_array(ws, "b"), ws.mu
    with np.errstate(all="ignore"):
        inv_left = np.where(left > 0, 1.0 / left, math.inf)
        inv_right = np.where(right > 0, 1.0 / right, math.inf)
    return (np.where(np.isfinite(left), inv_left, 0.0),
            np.where(np.isfinite(right), inv_right, 0.0), mid, reflecting)


def _kappa(ws: WeightSystem, reflecting: bool, s: float = 1.0):
    """kappa^(6.13) or kappa^(7.5) and its scan report; with s = 2/p on the
    absorbing side, the Sobolev-type B of (8.6)."""
    rep = series.half_line_pairs(*_kappa_terms(ws, reflecting), ws.base, ws.finite, s)
    return (1.0 / rep.value if rep.value > 0 else math.inf), rep


def delta_nd(model: ChainModel, n_max: int = 10 ** 5):
    """delta = sup_n mu[0,n] nu[n,N]; bracket [1/(4 delta), 1/delta]."""
    if model.boundary is not BoundaryCode.ND:
        raise WrongBoundary("delta_nd needs an ND model")
    ws = build_weights(model, n_max)
    tails = _nu_tail_array(ws, "b")
    if not math.isfinite(ws.nu_b_total.value):
        rep = series.ExtremumReport(ws.base, math.inf, series.Certainty.CERTIFIED,
                                    (ws.base, ws.top))
        return math.inf, _bracket_from_constant(math.inf, "delta_3_1", rep)
    pref = ws.mu_prefix_arr
    with np.errstate(all="ignore"):
        obj = pref * tails
    obj = np.where(np.isfinite(obj), obj, 0.0)
    hi = ws.top if ws.finite else None

    def objective(idx):
        return obj[np.asarray(idx) - ws.base]

    rep = series.extremize(objective, "sup", ws.base, hi if hi is not None else None,
                           hard_cap=len(obj) - 1)
    return rep.value, _bracket_from_constant(rep.value, "delta_3_1", rep)


def delta_dn(model: ChainModel, n_max: int = 10 ** 5):
    """delta = sup_n nu[1,n] mu[n,N] (nu from death rates); rate 0 if sum mu = inf."""
    if model.boundary is not BoundaryCode.DN:
        raise WrongBoundary("delta_dn needs a DN model")
    ws = build_weights(model, n_max)
    if not math.isfinite(ws.mu_total.value):
        rep = series.ExtremumReport(ws.base, math.inf, series.Certainty.CERTIFIED,
                                    (ws.base, ws.top))
        return math.inf, _bracket_from_constant(math.inf, "delta_4_4", rep)
    with np.errstate(over="ignore"):
        nu_pref = np.cumsum(ws.nu_a)
    mu_tails = _mu_tail_array(ws)
    with np.errstate(all="ignore"):
        obj = nu_pref * mu_tails
    obj = np.where(np.isfinite(obj), obj, 0.0)
    hi = ws.top if ws.finite else None

    def objective(idx):
        return obj[np.asarray(idx) - ws.base]

    rep = series.extremize(objective, "sup", ws.base, hi, hard_cap=len(obj) - 1)
    return rep.value, _bracket_from_constant(rep.value, "delta_4_4", rep)


def kappa_nn(model: ChainModel, n_max: int = 10 ** 5):
    """kappa of the two-sided Neumann chain, (6.13), plus delta_L, delta_R."""
    if model.boundary is not BoundaryCode.NN:
        raise WrongBoundary("kappa_nn needs an NN model")
    ws = build_weights(model, n_max)
    if not math.isfinite(ws.mu_total.value):
        raise NotErgodic("kappa_nn requires sum(mu) < inf")
    kappa, rep = _kappa(ws, reflecting=True)
    mu_tails = _mu_tail_array(ws)
    # delta_L = sup_{n>=1} nu_a[1,n] mu[n,N]; delta_R = sup_m mu[0,m] nu_b[m,N-1]
    with np.errstate(over="ignore"):
        nu_a_pref = np.cumsum(ws.nu_a)
    with np.errstate(all="ignore"):
        dl = nu_a_pref[1:] * mu_tails[1:]
    delta_L = _masked_sup(dl, not math.isfinite(ws.mu_total.value))
    nub_tails = _nu_tail_array(ws, "b")
    with np.errstate(all="ignore"):
        dr = ws.mu_prefix_arr * nub_tails
    delta_R = _masked_sup(dr, not math.isfinite(ws.nu_b_total.value))
    bracket = _bracket_from_constant(kappa, "kappa_6_13", rep)
    return kappa, delta_L, delta_R, bracket


def kappa_dd(model: ChainModel, n_max: int = 10 ** 5):
    """kappa of the bilateral-Dirichlet half-line chain, (7.5)."""
    if model.boundary is not BoundaryCode.DD:
        raise WrongBoundary("kappa_dd needs a DD model")
    ws = build_weights(model, n_max)
    kappa, rep = _kappa(ws, reflecting=False)
    with np.errstate(over="ignore"):
        nu_a_pref = np.cumsum(ws.nu_a)
    nub_tails = _nu_tail_array(ws, "b")
    mu_tails = _mu_tail_array(ws)
    with np.errstate(all="ignore"):
        dl = nu_a_pref * mu_tails
    delta_L = _masked_sup(dl, not math.isfinite(ws.mu_total.value)
                          and math.isfinite(ws.nu_a_total.value))
    with np.errstate(all="ignore"):
        dr = ws.mu_prefix_arr * nub_tails
    delta_R = _masked_sup(dr, not math.isfinite(ws.nu_b_total.value)
                          and math.isfinite(ws.mu_total.value))
    S = ws.nu_a_total.value
    if ws.finite and model.hi is not None:
        mb = ws.mu[-1] * ws.b[-1]
        S = float(np.sum(ws.nu_a)) + (1.0 / mb if mb > 0 else math.inf)
    bracket = _bracket_from_constant(kappa, "kappa_7_5", rep)
    return kappa, delta_L, delta_R, S, bracket


def kappa_bilateral(model: ChainModel, variant: str = "DD_7_11",
                    half_window: int = 256):
    """kappa on a two-sided state space: (7.11) for lambda_0, (7.12) for lambda_1.

    All sums are carried in the log domain so super-exponential weights (the
    e^{i^2} family) stay representable.
    """
    if model.boundary is not BoundaryCode.DD_BILATERAL:
        raise WrongBoundary("kappa_bilateral needs a bilateral model")
    if variant not in ("DD_7_11", "NN_7_12"):
        raise WrongBoundary("variant must be DD_7_11 or NN_7_12")
    half = _kappa_bilateral_scan(model, variant, half_window // 2)
    full = _kappa_bilateral_scan(model, variant, half_window)
    if not math.isfinite(full[0]):
        rep = series.ExtremumReport(None, 0.0, series.Certainty.WINDOW_STOPPED,
                                    (-half_window, half_window))
        return math.inf, Bracket(0.0, 0.0, "kappa_%s" % variant[-4:], rep)
    if full[0] > half[0] * 1.05:
        # the infimum keeps falling as the window grows: recurrent degeneracy
        rep = series.ExtremumReport(full[1], math.inf, series.Certainty.WINDOW_STOPPED,
                                    (-half_window, half_window))
        method = "kappa_7_11" if variant == "DD_7_11" else "kappa_7_12"
        return math.inf, Bracket(0.0, 0.0, method, rep)
    kappa, arg, span = full
    rep = series.ExtremumReport(arg, 1.0 / kappa, series.Certainty.WINDOW_STOPPED, span)
    method = "kappa_7_11" if variant == "DD_7_11" else "kappa_7_12"
    return kappa, _bracket_from_constant(kappa, method, rep)


def _bilateral_sums(log_mua: np.ndarray, log_mub: np.ndarray):
    """log sum_{i<=m} 1/(mu_i a_i) and log sum_{i>=n} 1/(mu_i b_i)."""
    return (np.logaddexp.accumulate(-log_mua),
            np.logaddexp.accumulate((-log_mub)[::-1])[::-1])


def _bilateral_scan(model: ChainModel, variant: str, half_window: int, s: float = 1.0):
    """log of the infimum (7.11) (with middle exponent s, (8.4)) or (7.12),
    its index pair and the index span of the window."""
    idx, log_mu, log_mua, log_mub = bilateral_log_weights(model, half_window)
    if variant == "DD_7_11":
        la, lb = _bilateral_sums(log_mua, log_mub)
        log_best, arg = series.log_triangle(-la, -lb, log_mu, s)
        shift = 0
    else:
        # (7.12): m < n, mu-tails both sides, middle sum of 1/(mu b) over [m, n-1]
        lmu = np.logaddexp.accumulate(log_mu)
        lmu_suf = np.logaddexp.accumulate(log_mu[::-1])[::-1]
        log_best, arg = series.log_triangle(-lmu[:-1], -lmu_suf[1:], -log_mub[:-1])
        shift = 1  # triangle column c pairs with state index c + 1
    if arg is not None:
        arg = (int(idx[arg[0]]), int(idx[arg[1] + shift]))
    return log_best, arg, (int(idx[0]), int(idx[-1]))


def _kappa_bilateral_scan(model: ChainModel, variant: str, half_window: int):
    log_best, arg, span = _bilateral_scan(model, variant, half_window)
    inv_kappa = math.exp(log_best) if math.isfinite(log_best) else math.inf
    kappa = 1.0 / inv_kappa if inv_kappa > 0 and math.isfinite(inv_kappa) else math.inf
    return kappa, arg, span


def naive_upper(model: ChainModel, n_max: int = 10 ** 5):
    """inf_i (a_i + b_i + c_i) >= lambda; window-stopped on unbounded ranges."""
    base = model.base if model.boundary is not BoundaryCode.DD_BILATERAL else \
        (model.lo if model.lo is not None else -n_max // 2)
    top = model.hi if model.hi is not None else base + n_max - 1

    def objective(idx):
        i0, i1 = int(np.min(idx)), int(np.max(idx))
        a, b, c = model.rates(i0, i1)
        return (a + b + c)[np.asarray(idx) - i0]

    return series.extremize(objective, "inf", base,
                            model.hi if model.hi is not None else None,
                            hard_cap=top - base)


@dataclass(frozen=True)
class BasicBracketReport:
    bracket: Bracket
    kappa: float
    method: str              # kappa_6_13 or kappa_7_5
    delta_3_1: float
    delta_4_4: float
    positive: Optional[bool]  # None = inconclusive
    criterion: str            # which delta decided positivity


def basic_bracket(model: ChainModel, n_max: int = 10 ** 5) -> BasicBracketReport:
    """Universal two-sided bracket: kappa^(6.13) when the origin reflects,
    kappa^(7.5) when it absorbs, with 1/inf = 0 washing out infinite tails.

    The positivity verdict follows the dichotomy on sum(mu): finite total
    weight defers to delta^(4.4), infinite to delta^(3.1).
    """
    if model.boundary is BoundaryCode.DD_BILATERAL:
        raise WrongBoundary("basic_bracket covers the four half-line codes")
    ws = build_weights(model, n_max)
    mu_tails = _mu_tail_array(ws)
    nub_tails = _nu_tail_array(ws, "b")
    with np.errstate(over="ignore"):
        nu_a_pref = np.cumsum(ws.nu_a)
    # delta^(4.4) and delta^(3.1) with saturation conventions
    with np.errstate(all="ignore"):
        d44 = nu_a_pref[1:] * mu_tails[1:] if ws.base == 0 else nu_a_pref * mu_tails
        d31 = ws.mu_prefix_arr * nub_tails
    mu_fin = math.isfinite(ws.mu_total.value)
    nub_fin = math.isfinite(ws.nu_b_total.value)
    delta44 = _masked_sup(d44, not mu_fin) if len(d44) else math.inf
    delta31 = _masked_sup(d31, not nub_fin)
    method = "kappa_6_13" if model.boundary.origin_reflecting else "kappa_7_5"
    if not mu_fin and not nub_fin:
        # zero-recurrent: rate exactly zero, no scan can tighten [0, 0]
        rep = series.ExtremumReport(None, math.inf, series.Certainty.CERTIFIED,
                                    (ws.base, ws.top))
        return BasicBracketReport(Bracket(0.0, 0.0, method, rep), math.inf,
                                  method, delta31, delta44, False, "delta_3_1")
    kappa, rep = _kappa(ws, model.boundary.origin_reflecting)
    if mu_fin:
        criterion, positive = "delta_4_4", math.isfinite(delta44)
    else:
        criterion, positive = "delta_3_1", math.isfinite(delta31)
    if positive is False:
        kappa = math.inf  # window scans produce vacuous finite values here
    return BasicBracketReport(_bracket_from_constant(kappa, method, rep), kappa,
                              method, delta31, delta44, positive, criterion)

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
from .model import (DEFAULT_NMAX, BoundaryCode, ChainModel, WeightSystem,
                    bilateral_log_weights, build_weights)


@dataclass(frozen=True)
class Bracket:
    """Enclosure [lower, upper] of a decay rate, as certain as the scan
    report ``delta_like`` says."""
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


def _delta_sup(ws: WeightSystem, kind: str, s: float = 1.0) -> series.ExtremumReport:
    """sup over the window of delta^(3.1)'s objective mu[base, n]^s nu_b[n, N]
    (``kind`` "3_1") or of delta^(4.4)'s nu_a[1, n] mu[n, N]^s from state 1 on
    ("4_4"); s = 2/p gives the L^(p/2) forms B of ``poincare``.

    A divergent defining tail series (sum nu_b for 3.1, sum mu for 4.4) or an
    empty objective gives inf, certified. Otherwise the value is the max over
    the finite entries of the whole window, labelled by the window's
    certainty. On an infinite window it is inf (window-stopped) when the
    objective's increments diverge as a series, by the divergence verdict of
    series.estimate_remainder_block: it reads their last 2 REMAINDER_BLOCK + 2
    entries, so only that slice is differenced. The report is kept with the
    weight system under (kind, s): a second call returns the same object.
    """
    if (kind, s) in ws._cache:
        return ws._cache[(kind, s)]
    with np.errstate(all="ignore"):
        if kind == "3_1":
            lo, total = ws.base, ws.nu_b_total
            obj = ws.mu_prefix_arr ** s * ws.nu_tails("b")
        else:
            lo, total = 1, ws.mu_total
            obj = (ws.nu_prefix("a") * ws.mu_tails() ** s)[1 - ws.base:]
    if not math.isfinite(total.value) or not len(obj):
        rep = series.ExtremumReport(None, math.inf, series.Certainty.CERTIFIED, (lo, ws.top))
    else:
        obj = np.where(np.isfinite(obj), obj, 0.0)
        k = int(np.argmax(obj))
        value = float(obj[k])
        if not ws.finite:
            inc = np.diff(obj[-2 * series.REMAINDER_BLOCK - 3:])
            if math.isinf(series.estimate_remainder_block(inc, len(obj) - 1 - len(inc))):
                value = math.inf
        rep = series.ExtremumReport(lo + k, value, ws.certainty(), (lo, ws.top))
    return ws._cache.setdefault((kind, s), rep)


def _kappa_terms(ws: WeightSystem, reflecting: bool):
    """(L, R, M, strict) of kappa^(6.13) for a reflecting origin, of
    kappa^(7.5) for an absorbing one: L and R are the reciprocal boundary
    sums with 1/inf = 0, M the weight system's middle prefix sums (see
    series.half_line_pairs)."""
    if reflecting:
        left, right, mid_prefix = ws.mu_prefix_arr, ws.mu_tails(), ws.nu_prefix("b")
    else:
        left, right, mid_prefix = ws.nu_prefix("a"), ws.nu_tails("b"), ws.mu_prefix_arr
    with np.errstate(all="ignore"):
        inv_left = np.where(left > 0, 1.0 / left, math.inf)
        inv_right = np.where(right > 0, 1.0 / right, math.inf)
    return (np.where(np.isfinite(left), inv_left, 0.0),
            np.where(np.isfinite(right), inv_right, 0.0), mid_prefix, reflecting)


def _kappa(ws: WeightSystem, reflecting: bool, s: float = 1.0):
    """kappa^(6.13) or kappa^(7.5) and its scan report; with s = 2/p on the
    absorbing side, the Sobolev-type B of (8.6)."""
    rep = series.half_line_pairs(*_kappa_terms(ws, reflecting), ws.base, ws.certainty(), s)
    return (1.0 / rep.value if rep.value > 0 else math.inf), rep


def delta_nd(model: ChainModel):
    """delta = sup_n mu[0,n] nu[n,N]; bracket [1/(4 delta), 1/delta]."""
    if model.boundary is not BoundaryCode.ND:
        raise WrongBoundary("delta_nd needs an ND model")
    rep = _delta_sup(build_weights(model), "3_1")
    return rep.value, _bracket_from_constant(rep.value, "delta_3_1", rep)


def delta_dn(model: ChainModel):
    """delta = sup_n nu[1,n] mu[n,N] (nu from death rates); rate 0 if sum mu = inf."""
    if model.boundary is not BoundaryCode.DN:
        raise WrongBoundary("delta_dn needs a DN model")
    rep = _delta_sup(build_weights(model), "4_4")
    return rep.value, _bracket_from_constant(rep.value, "delta_4_4", rep)


def kappa_nn(model: ChainModel):
    """kappa of the two-sided Neumann chain, (6.13), plus delta_L = delta^(4.4)
    and delta_R = delta^(3.1): :func:`basic_bracket`'s fields."""
    if model.boundary is not BoundaryCode.NN:
        raise WrongBoundary("kappa_nn needs an NN model")
    if not math.isfinite(build_weights(model).mu_total.value):
        raise NotErgodic("kappa_nn requires sum(mu) < inf")
    rep = basic_bracket(model)
    return rep.kappa, rep.delta_4_4, rep.delta_3_1, rep.bracket


def kappa_dd(model: ChainModel):
    """kappa of the bilateral-Dirichlet half-line chain, (7.5), plus delta_L,
    delta_R (as :func:`kappa_nn`) and the exit mass S."""
    if model.boundary is not BoundaryCode.DD:
        raise WrongBoundary("kappa_dd needs a DD model")
    rep = basic_bracket(model)
    return rep.kappa, rep.delta_4_4, rep.delta_3_1, build_weights(model).exit_mass, rep.bracket


def kappa_bilateral(model: ChainModel, variant: str = "DD_7_11",
                    half_window: int = 256):
    """kappa on a two-sided state space: (7.11) for lambda_0, (7.12) for lambda_1.

    All sums are carried in the log domain so super-exponential weights (the
    e^{i^2} family) stay representable. A degenerate kappa is inf, window-
    stopped: where 1/kappa = exp(infimum) is 0 or inf, or where kappa is over
    5 % above its half-window value (the infimum keeps falling: recurrence).
    """
    if model.boundary is not BoundaryCode.DD_BILATERAL:
        raise WrongBoundary("kappa_bilateral needs a bilateral model")
    if variant not in ("DD_7_11", "NN_7_12"):
        raise WrongBoundary("variant must be DD_7_11 or NN_7_12")
    kappas = []
    for w in (half_window // 2, half_window):
        log_best, arg, span = _bilateral_scan(model, variant, w)
        inv_kappa = series.exp_or_inf(log_best)
        kappas.append(1.0 / inv_kappa if 0.0 < inv_kappa < math.inf else math.inf)
    half, kappa = kappas
    certainty = model.certainty(*span)
    if kappa == math.inf or kappa > half * 1.05:
        kappa, certainty = math.inf, series.Certainty.WINDOW_STOPPED
    rep = series.ExtremumReport(arg, 1.0 / kappa, certainty, span)
    return kappa, _bracket_from_constant(kappa, "kappa_" + variant[-4:], rep)


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


@dataclass(frozen=True)
class BasicBracketReport:
    bracket: Bracket
    kappa: float
    method: str              # kappa_6_13 or kappa_7_5
    delta_3_1: float
    delta_4_4: float
    positive: Optional[bool]  # None = inconclusive
    criterion: str            # which delta decided positivity


def basic_bracket(model: ChainModel, n_max: int = DEFAULT_NMAX) -> BasicBracketReport:
    """Universal two-sided bracket: kappa^(6.13) when the origin reflects,
    kappa^(7.5) when it absorbs, with 1/inf = 0 washing out infinite tails.

    The positivity verdict follows the dichotomy on sum(mu): finite total
    weight defers to delta^(4.4), infinite to delta^(3.1). The report is kept
    with the weight system: a second call on it returns the same object.
    """
    if model.boundary is BoundaryCode.DD_BILATERAL:
        raise WrongBoundary("basic_bracket covers the four half-line codes")
    ws = build_weights(model, n_max)
    if "basic_bracket" in ws._cache:
        return ws._cache["basic_bracket"]
    d44, d31 = _delta_sup(ws, "4_4"), _delta_sup(ws, "3_1")
    method = "kappa_6_13" if model.boundary.origin_reflecting else "kappa_7_5"
    criterion, verdict = (("delta_4_4", d44) if math.isfinite(ws.mu_total.value)
                          else ("delta_3_1", d31))
    positive = math.isfinite(verdict.value)
    if positive:
        kappa, rep = _kappa(ws, model.boundary.origin_reflecting)
        bracket = _bracket_from_constant(kappa, method, rep)
    else:   # rate zero: a window scan of kappa would give a vacuous finite value
        kappa, bracket = math.inf, Bracket(0.0, 0.0, method, verdict)
    return ws._cache.setdefault("basic_bracket", BasicBracketReport(
        bracket, kappa, method, d31.value, d44.value, positive, criterion))

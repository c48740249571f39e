"""Isoperimetric constants for the L^{p/2}-type inequalities.

Only the power-norm instances are shipped: the indicator norm of a block is
its weight to the power 2/p, which is all the closed formulas need. Every
constant comes with the factor-4 bracket on the optimal constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import series
from .errors import WrongVariant
from .estimates import (_bilateral_scan, _bilateral_sums, _kappa, _kappa_terms,
                        _mu_tail_array, _nu_tail_array)
from .model import BoundaryCode, ChainModel, bilateral_log_weights, build_weights

VARIANTS = ("bilateral_8_4", "half_line_8_6", "neumann_8_9")


@dataclass(frozen=True)
class SobolevConstant:
    p: float
    variant: str
    B: float
    extremum: Optional[series.ExtremumReport]

    @property
    def bracket(self):
        if not math.isfinite(self.B):
            return (math.inf, math.inf)
        return (self.B, 4.0 * self.B)


def sobolev_constant(model: ChainModel, p: float, variant: str,
                     n_max: int = 10 ** 5, half_window: int = 256) -> SobolevConstant:
    """The block-infimum / tail-supremum constant of the chosen variant.

    neumann_8_9 is the reflecting-origin supremum (at p = 2 it reduces to the
    plain Hardy constant); half_line_8_6 the Dirichlet-origin two-index
    infimum; bilateral_8_4 the two-sided one, carried in the log domain.
    """
    if p < 2.0:
        raise WrongVariant("p must be >= 2")
    if variant not in VARIANTS:
        raise WrongVariant("variant must be one of %s" % (VARIANTS,))
    if variant == "neumann_8_9":
        if model.boundary not in (BoundaryCode.ND, BoundaryCode.NN) or model.base != 0:
            raise WrongVariant("neumann_8_9 needs a reflecting origin")
        ws = build_weights(model, n_max)
        tails = _nu_tail_array(ws, "b")
        with np.errstate(all="ignore"):
            obj = tails * ws.mu_prefix_arr ** (2.0 / p)
        if not math.isfinite(ws.nu_b_total.value):
            return SobolevConstant(p, variant, math.inf, None)
        obj = np.where(np.isfinite(obj), obj, 0.0)
        W = len(obj)
        k = int(np.argmax(obj))
        cert = series.Certainty.CERTIFIED if ws.finite else series.Certainty.WINDOW_STOPPED
        rep = series.ExtremumReport(ws.base + k, float(obj[k]), cert, (ws.base, ws.top))
        if not ws.finite:
            # divergence certificate: the tail keeps climbing across a long
            # baseline (slow power growth) or the values already exploded
            trending = obj[W - 1] > 1.1 * obj[W // 8] and obj[W - 1] > 0.3 * obj[k]
            if obj[k] > series.DIVERGENCE_CAP or trending:
                return SobolevConstant(p, variant, math.inf, rep)
        return SobolevConstant(p, variant, rep.value, rep)
    if variant == "half_line_8_6":
        if model.boundary is not BoundaryCode.DD or model.base != 1:
            raise WrongVariant("half_line_8_6 needs the Dirichlet-origin shape")
        B, rep = _kappa(build_weights(model, n_max), reflecting=False, s=2.0 / p)
        return SobolevConstant(p, variant, B, rep)
    # bilateral_8_4 in the log domain
    if model.boundary is not BoundaryCode.DD_BILATERAL:
        raise WrongVariant("bilateral_8_4 needs a bilateral model")
    log_best, arg, span = _bilateral_scan(model, "DD_7_11", half_window, s=2.0 / p)
    rep = series.ExtremumReport(arg, math.exp(log_best) if math.isfinite(log_best) else math.inf,
                                series.Certainty.WINDOW_STOPPED, span)
    B = math.exp(-log_best) if math.isfinite(log_best) else math.inf
    return SobolevConstant(p, variant, B, rep)


def b_constants_split(model: ChainModel, p: float,
                      n_max: int = 10 ** 5, half_window: int = 256):
    """One-sided constants B_L, B_R, the product constant B, and the S flag.

    B equals B_L wedge B_R when the reciprocal death series diverges; in
    general it is sandwiched between them and the (a_1 S)-deflated value.
    """
    if p < 2.0:
        raise WrongVariant("p must be >= 2")
    t = 2.0 / p
    if model.boundary is BoundaryCode.DD_BILATERAL:
        idx, log_mu, log_mua, log_mub = bilateral_log_weights(model, half_window)
        la, lb = _bilateral_sums(log_mua, log_mub)
        # B_L = sup_n nu_a[-M, n] * ||1_{[n, N]}||, norm = mu[n, N]^{2/p}
        with np.errstate(all="ignore"):
            bl = la + t * np.logaddexp.accumulate(log_mu[::-1])[::-1]
            br = lb + t * np.logaddexp.accumulate(log_mu)
        B_L, B_R, S = (math.inf if x > 600 else float(np.exp(x))
                       for x in (np.max(bl), np.max(br), la[-1]))
        # log B = sup_{n<=m} log[nu_a[-M, n] nu_b[m, M] mu[n, m]^{2/p}]
        log_best = -series.log_triangle(-la, -lb, log_mu, t, product=True)[0]
        B = float(np.exp(log_best)) if log_best < 600 else math.inf
    else:
        if model.boundary is not BoundaryCode.DD or model.base != 1:
            raise WrongVariant("split constants need the Dirichlet-origin shape")
        ws = build_weights(model, n_max)
        with np.errstate(over="ignore"):
            nu_a_pref = np.cumsum(ws.nu_a)
        with np.errstate(all="ignore"):
            bl = nu_a_pref * _mu_tail_array(ws) ** t
            br = _nu_tail_array(ws, "b") * ws.mu_prefix_arr ** t
        B_L = float(np.max(np.where(np.isfinite(bl), bl, math.inf)))
        B_R = float(np.max(np.where(np.isfinite(br), br, math.inf)))
        S = ws.nu_a_total.value
        if ws.finite:
            mb = ws.mu[-1] * ws.b[-1]
            S = float(np.sum(ws.nu_a)) + (1.0 / mb if mb > 0 else math.inf)
        # 1/B = inf over n <= m of (1/nu_a[1, n]) (1/nu_b[m, N]) / mu[n, m]^{2/p}
        rep = series.half_line_pairs(*_kappa_terms(ws, reflecting=False), ws.base, True,
                                     s=t, product=True)
        B = 1.0 / rep.value if rep.arg is not None else math.inf
    if not math.isfinite(S):
        B = min(B_L, B_R)
    return B_L, B_R, B, S


def recurrent_blowup_check(model: ChainModel, p: float, n_max: int = 10 ** 5) -> str:
    """'blowup' when both defining series diverge (B = inf for every p >= 2)."""
    ws = build_weights(model, min(n_max, 8192))
    mu_div = not math.isfinite(ws.mu_total.value)
    nu_div = not math.isfinite(ws.nu_b_total.value)
    if mu_div and nu_div:
        return "blowup"
    return "not_applicable"

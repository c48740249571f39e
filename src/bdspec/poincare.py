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
from .estimates import _bilateral_scan, _bilateral_sums, _delta_sup, _kappa, _kappa_terms
from .model import DEFAULT_NMAX, BoundaryCode, ChainModel, bilateral_log_weights, build_weights

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
                     half_window: int = 256) -> SobolevConstant:
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
        rep = _delta_sup(build_weights(model), "3_1", 2.0 / p)
        return SobolevConstant(p, variant, rep.value, rep)
    if variant == "half_line_8_6":
        if model.boundary is not BoundaryCode.DD or model.base != 1:
            raise WrongVariant("half_line_8_6 needs the Dirichlet-origin shape")
        B, rep = _kappa(build_weights(model), reflecting=False, s=2.0 / p)
        return SobolevConstant(p, variant, B, rep)
    # bilateral_8_4 in the log domain
    if model.boundary is not BoundaryCode.DD_BILATERAL:
        raise WrongVariant("bilateral_8_4 needs a bilateral model")
    log_best, arg, span = _bilateral_scan(model, "DD_7_11", half_window, s=2.0 / p)
    rep = series.ExtremumReport(arg, series.exp_or_inf(log_best), model.certainty(*span), span)
    return SobolevConstant(p, variant, series.exp_or_inf(-log_best), rep)


def b_constants_split(model: ChainModel, p: float,
                      n_max: int = DEFAULT_NMAX, half_window: int = 256):
    """One-sided constants B_L, B_R, the product constant B, and the S flag.

    B is B_L wedge B_R when S, the reciprocal death series, diverges.
    """
    if p < 2.0:
        raise WrongVariant("p must be >= 2")
    t = 2.0 / p
    if model.boundary is BoundaryCode.DD_BILATERAL:
        _, log_mu, log_mua, log_mub = bilateral_log_weights(model, half_window)
        la, lb = _bilateral_sums(log_mua, log_mub)
        # B_L = sup_n nu_a[-M, n] * ||1_{[n, N]}||, norm = mu[n, N]^{2/p}
        with np.errstate(all="ignore"):
            bl = la + t * np.logaddexp.accumulate(log_mu[::-1])[::-1]
            br = lb + t * np.logaddexp.accumulate(log_mu)
        B_L, B_R, S = (series.exp_or_inf(x) for x in (np.max(bl), np.max(br), la[-1]))
        # log B = sup_{n<=m} log[nu_a[-M, n] nu_b[m, M] mu[n, m]^{2/p}]
        B = series.exp_or_inf(-series.log_triangle(-la, -lb, log_mu, t, product=True)[0])
    else:
        if model.boundary is not BoundaryCode.DD or model.base != 1:
            raise WrongVariant("split constants need the Dirichlet-origin shape")
        ws = build_weights(model, n_max)
        B_L, B_R = _delta_sup(ws, "4_4", t).value, _delta_sup(ws, "3_1", t).value
        S = ws.exit_mass
        # 1/B = inf over n <= m of (1/nu_a[1, n]) (1/nu_b[m, N]) / mu[n, m]^{2/p}
        rep = series.half_line_pairs(*_kappa_terms(ws, reflecting=False), ws.base,
                                     ws.certainty(), s=t, product=True)
        B = 1.0 / rep.value if rep.arg is not None and rep.value > 0 else math.inf
    if not math.isfinite(S):
        B = min(B_L, B_R)
    return B_L, B_R, B, S


def recurrent_blowup_check(model: ChainModel, p: float) -> str:
    """'blowup' when both defining series diverge (B = inf for every p >= 2)."""
    ws = build_weights(model, 8192)
    mu_div = not math.isfinite(ws.mu_total.value)
    nu_div = not math.isfinite(ws.nu_b_total.value)
    return "blowup" if mu_div and nu_div else "not_applicable"

"""Bounds for chains with general killing.

Lower bounds come from the difference operator with killing and from the
xi/zeta interpolation machinery; upper bounds from the weighted test-function
infima. The reduction maps a killed chain to a plain dual chain whenever the
killing dominates the stated rate differences.

One kernel, ``_xi_zeta_rows``, evaluates the xi/zeta bound for a whole grid
of test functions (one per row) on weights built once: ``xi_zeta`` is its
one-row call, and the two explicit families (``corollary_9_9`` and
``sqrt_test_bound``) make one call over their grid. A test function that is
not positive and finite on the window, or that breaks the membership
inequality, is not admissible; the families skip it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import oracle, series
from .approx import _II
from .errors import (BadParameter, EtaOutOfRange, HypothesisUnverified, NotInF,
                     ShapeViolation, WrongBoundary)
from .model import BoundaryCode, ChainModel, build_weights

WINDOW = 8192    # states of the bounds of Theorem 9.9 and of r_operator_bounds
TRAIL = 256      # trailing states read for the boundary flux and Cesaro averages


@dataclass(frozen=True)
class KillingBounds:
    lower: float
    upper: float
    xi: float
    zeta: float
    eta_used: float
    c_floor: float
    certified: series.Certainty
    f_used: Optional[np.ndarray] = None
    flags: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReductionResult:
    reduced_model: ChainModel
    valid: bool
    slack: np.ndarray
    equality: bool
    branch: str          # "dual_4_1" or "check_6_1"
    bound: float
    beta: float
    gamma: Optional[float]


def _arrays(model: ChainModel, window: int = WINDOW):
    if model.boundary is not BoundaryCode.DD or model.base != 1:
        raise WrongBoundary("killing bounds expect the state space {1, ..., N}")
    ws = build_weights(model, window)
    W = ws.safe_len
    return ws, (W if W == len(ws) else max(W, 3))


def _killing_floor(ws, W):
    """The window's killing with the bottom death rate folded in, and its minimum."""
    c = ws.c[:W].copy()
    c[0] += ws.a[0]
    return c, float(np.min(c))


def _family_floor(cmin: float, certified: series.Certainty) -> KillingBounds:
    """A family without an admissible member: the killing floor alone."""
    return KillingBounds(cmin, math.inf, 0.0, 0.0, 0.0, cmin, certified,
                         flags={"family_insufficient": True})


def _robust_inf(values: np.ndarray, finite: bool):
    """Row minima of a (G, n) array over the window, each refined on an
    infinite window by an Aitken limit of its row's tail trend.

    Returns the minima and, per row, whether it has no finite entry: its
    minimum inf is then proven, whatever the window.
    """
    ok = np.isfinite(values)
    mins = np.min(np.where(ok, values, math.inf), axis=1, initial=math.inf)
    some = ok.any(axis=1)
    n = values.shape[1]
    if not finite and n >= 32:
        ks = np.unique(np.geomspace(4, n - 1, 24).astype(int))
        for g in np.flatnonzero(some):
            sub = values[g, ks]
            if np.all(np.isfinite(sub)) and np.all(np.diff(sub) < 0):
                acc = series.aitken(sub)
                if len(acc) and math.isfinite(acc[-1]):
                    mins[g] = min(mins[g], float(acc[-1]))
    return mins, ~some


def r_operator_bounds(model: ChainModel, v, lo: int = 1,
                      hi: Optional[int] = None):
    """(inf R_i(v), sup R_i(v), certified) with R the kernel
    ``oracle.difference_form``, R_i(v) = a_i(1 - 1/v_{i-1}) + b_i(1 - v_i)
    + c_i, over [lo, hi] inside the float-safe weight window.

    The bottom death rate folds into the killing term (the 1/v_0 = 0
    convention). The infimum bounds the rate from below only when the test
    function g of v is admissible; ``certified`` is the scanned range's
    certainty, so a range that misses an end of the chain is window-stopped.
    """
    ws, W = _arrays(model)
    top = min(hi if hi is not None else ws.base + W - 1, ws.base + W - 1)
    idx = np.arange(ws.base, top + 1, dtype=np.int64)
    vv = np.asarray(v(idx), dtype=float) if callable(v) else np.asarray(v, dtype=float)[: len(idx)]
    if np.any(vv <= 0):
        raise NotInF("test sequence must be positive")
    rs = oracle.difference_form(model, np.concatenate([[math.inf], vv]), ws.base, top)[idx >= lo]
    return float(np.min(rs)), float(np.max(rs)), model.certainty(lo, top)


def upper_9_9(model: ChainModel, lm: Optional[tuple] = None):
    """Theorem 9.9's weighted-test-function upper bound: the double infimum,
    or its value at a pinned (ell, m) with base <= ell <= m <= top; also the
    looser single-infimum variant. Returns the tighter value and the
    details, a ``series.Labelled`` pair with the float-safe window's certainty.

    The double infimum runs over the whole (ell, m) triangle of the window.
    Its entry, (1/nu_b[ell, m] + mc_m) / mu[1, ell], has a Monge numerator
    (1/t is convex, and the nu_b and killing-mass prefixes do not decrease),
    so each row's leftmost argmin comes exactly from the package's one Monge
    search, ``series._monge_argmins``. ``at`` is the first least entry in
    (ell, m) row-major order, where a NaN entry counts as inf.
    """
    ws, W = _arrays(model)
    mu = ws.mu[:W]
    # the (ell, m) test function lives on [1, m] inside the window, and a
    # constant shift of the killing moves the rate by the same constant, so
    # the window minimum is a valid floor for the bound
    c, cmin = _killing_floor(ws, W)
    ct = c - cmin
    nbc = ws.nu_prefix("b", W)
    below = np.concatenate([[0.0], nbc[:-1]])    # nu_b summed below ell
    mc = np.cumsum(mu * ct)
    muc = ws.mu_prefix_arr[:W]
    if lm is None:
        k, j = series._monge_argmins(np.zeros(W), mc, below, nbc, lambda t: 1.0 / t)
    elif ws.base <= lm[0] <= lm[1] <= ws.base + W - 1:
        k, j = lm[0] - ws.base, lm[1] - ws.base
    else:
        raise BadParameter("(ell, m) needs %d <= ell <= m <= %d" % (ws.base, ws.base + W - 1))
    with np.errstate(all="ignore"):
        loose_vals = (mu * ws.b[:W] + mc) / muc
        t = (1.0 / (nbc[j] - below[k]) + mc[j]) / muc[k]
    loose = cmin + float(np.min(loose_vals, initial=math.inf, where=np.isfinite(loose_vals)))
    if lm is not None:
        return series.Labelled((cmin + t, {"at": tuple(lm), "loose_9_10": loose}), ws.certainty(W))
    t = np.fmin(t, math.inf)     # a NaN entry reads as inf
    r = int(np.argmin(t))        # the search keeps row 1: mc_1 is finite, nu_b[1, 1] > 0
    best, at = float(t[r]), (int(ws.base + k[r]), int(ws.base + j[r]))
    return series.Labelled((min(cmin + best, loose), {"at": at, "loose_9_10": loose,
                                                      "double_inf": cmin + best}), ws.certainty(W))


def _xi_zeta_rows(ws, W: int, F: np.ndarray, eta=None) -> list:
    """The bound inf c + zeta(eta, f) for each row f of the (G, W) array ``F``.

    Returns one ``KillingBounds`` per row, or the ``NotInF`` error of a row
    outside the admissible family. ``eta = None`` picks eta = xi_f per row.
    Rows are independent: each equals the same computation on that row
    alone, bit for bit (every window sum is a cumsum along the row). A row is
    labelled by the window, or CERTIFIED where no xi objective is finite.
    """
    cert = ws.certainty(W)
    finite = cert is series.Certainty.CERTIFIED
    mu, nu_b = ws.mu[:W], ws.nu_b[:W]
    c, cmin = _killing_floor(ws, W)
    ct = c - cmin
    out = [None] * len(F)
    positive = np.all(np.isfinite(F) & (F > 0), axis=1)
    for g in np.flatnonzero(~positive):
        out[g] = NotInF("f must be positive and finite")
    rows = np.flatnonzero(positive)
    Fa = F[rows]
    # II^r_i(f) = sum_{k<i} nu_k sum_{j<=k} r_j mu_j f_j, with r = 1 and r = ct
    II1 = _II(mu, nu_b, Fa, "prefix", "exclusive")[1]
    IIc = _II(ct * mu, nu_b, Fa, "prefix", "exclusive")[1]
    member = ~np.any(Fa[:, 1:] >= Fa[:, :1] + IIc[:, 1:], axis=1)
    for g in rows[~member]:
        out[g] = NotInF("membership inequality f_i < f_1 + II^c(f) fails on the range")
    rows, Fa, II1, IIc = rows[member], Fa[member], II1[member], IIc[member]
    if not len(rows):
        return out
    with np.errstate(all="ignore"):
        obj = (Fa[:, :1] - Fa + IIc) / II1
    xi, proven = _robust_inf(obj[:, 1:], finite)
    # np.where keeps Python's min/max semantics (first argument on ties)
    xi = np.where(0.0 > xi, 0.0, xi)  # the membership inequality keeps it positive
    if finite:
        ratio = np.sum(ct * mu * Fa, axis=1) / np.sum(mu * Fa, axis=1)
        xi = np.where(ratio < xi, ratio, xi)
    etas = xi if eta is None else np.full(len(rows), float(eta))
    if not np.all((0.0 <= etas) & (etas <= xi + 1e-15)):
        raise EtaOutOfRange("eta must lie in [0, xi_f]")
    den = Fa[:, :1] + _II((ct - etas[:, None]) * mu, nu_b, Fa, "prefix", "exclusive")[1]
    mask = ct[1:] < etas[:, None]
    with np.errstate(all="ignore"):
        vals = ct[1:] + (etas[:, None] - ct[1:]) * Fa[:, 1:] / den[:, 1:]
    zeta, _ = _robust_inf(np.where(mask & (den[:, 1:] > 0), vals, math.inf), finite)
    zeta = np.where(mask.any(axis=1) & ~(etas < zeta), zeta, etas)
    zeta = np.where(0.0 > zeta, 0.0, zeta)
    for r, g in enumerate(rows):
        out[g] = KillingBounds(
            lower=cmin + float(zeta[r]), upper=math.inf, xi=float(xi[r]),
            zeta=float(zeta[r]), eta_used=float(etas[r]), c_floor=cmin,
            certified=series.Certainty.CERTIFIED if proven[r] else cert,
            f_used=Fa[r].copy())   # a view would pin the whole batch
    return out


def xi_zeta(model: ChainModel, f, eta: Optional[float] = None) -> KillingBounds:
    """The interpolated lower bound: inf c + zeta(eta, f) for admissible f.

    ``f`` is a callable on the state indices (or an array over the window),
    positive and finite, with f_i < f_1 + II^{c-tilde}_i(f) on the scanned
    range (membership in the admissible family); eta = None means the
    automatic choice eta = xi_f, which maximizes zeta but is itself not a
    valid bound.
    """
    ws, W = _arrays(model)
    idx = np.arange(ws.base, ws.base + W, dtype=np.int64)
    fv = np.asarray(f(idx), dtype=float) if callable(f) else np.asarray(f, dtype=float)[:W]
    kb, = _xi_zeta_rows(ws, W, fv[None, :], eta)
    if isinstance(kb, NotInF):
        raise kb
    return kb


def corollary_9_9(model: ChainModel, eps_grid=None) -> KillingBounds:
    """Two-level test family f = (1, eps, eps, ...): the explicit bound.

    eps = 1 is admitted additionally when the shifted killing at state 1 is
    positive (the constant function is then admissible). When no grid point
    produces a positive gain the family is flagged insufficient.
    """
    ws, W = _arrays(model)
    c, cmin = _killing_floor(ws, W)
    if eps_grid is None:
        eps_grid = np.linspace(0.05, 0.95, 19)
    grid = [float(e) for e in eps_grid if 0.0 < float(e) < 1.0]
    if c[0] - cmin > 0:
        grid.append(1.0)
    F = np.repeat(np.reshape(grid, (-1, 1)), W, axis=1)
    F[:, 0] = 1.0
    best = None
    for eps, kb in zip(grid, _xi_zeta_rows(ws, W, F)):
        if isinstance(kb, KillingBounds) and (best is None or kb.zeta > best.zeta):
            best = replace(kb, flags=dict(kb.flags, eps=eps))
    if best is None:
        return _family_floor(cmin, ws.certainty(W))
    scale = max(abs(best.c_floor), 1.0)
    if best.zeta <= 1e-9 * scale:
        best = replace(best, flags=dict(best.flags, family_insufficient=True))
    return best


def sqrt_test_bound(model: ChainModel) -> KillingBounds:
    """Lower bound from the square-root tail seeds, optimized over 16 stop
    levels m, geometric from 2 to min(512, W - 1)."""
    ws, W = _arrays(model)
    c, cmin = _killing_floor(ws, W)
    if W < 2:
        return _family_floor(cmin, ws.certainty(W))   # no stop level to optimize over
    ct1 = c[0] - cmin
    nu_b = ws.nu_b[:W]
    k = np.arange(W)
    levels, seeds = [], []
    for m in sorted({int(round(g)) for g in np.geomspace(2, min(512, W - 1), 16)}):
        if m < 2 and ct1 <= 0:
            continue
        km = np.minimum(k, m - ws.base)
        suf = series.tail_sums(nu_b[: m - ws.base + 1], 0, 0.0)
        fv = np.sqrt(np.maximum(suf[km], suf[m - ws.base]))
        seeds.append(np.where(fv > 0, fv, math.sqrt(max(nu_b[m - ws.base], 1e-300))))
        levels.append(m)
    best = None
    for m, kb in zip(levels, _xi_zeta_rows(ws, W, np.reshape(seeds, (-1, W)))):
        if isinstance(kb, KillingBounds) and (best is None or kb.lower > best.lower):
            best = replace(kb, flags=dict(kb.flags, m=m))
    if best is None:
        return _family_floor(cmin, ws.certainty(W))
    return best


def reduce_9_11(model: ChainModel, beta: float, gamma: Optional[float] = None, shift: float = 0.0,
                schedule=(500, 1000, 2000, 4000, 8000, 16000)) -> ReductionResult:
    """Comparison with the killing-free dual: valid when the killing dominates
    the rate differences index by index; the reported bound is the reduced
    chain's rate (dual Hardy route when the dual reciprocal series diverges,
    spectral-gap route otherwise).

    ``shift`` adds a constant to the killing before the comparison and
    subtracts it from the final bound again (the rate is exactly additive in
    constant killing), which is how marginally-invalid models are rescued.
    """
    if model.boundary is not BoundaryCode.DD or model.base != 1:
        raise ShapeViolation("reduction expects the killed half-line shape")
    if beta <= 0:
        raise ShapeViolation("beta must be positive")
    ws, W = _arrays(model, 4096)
    finite = model.hi is not None
    N = model.hi if finite else None
    if float(ws.a[0]) != 0.0:
        raise ShapeViolation("the shape requires a_1 = 0 (killing lives in c)")
    covered = finite and W >= N
    if covered and float(ws.b[N - 1]) != 0.0:
        raise ShapeViolation("the shape requires b_N = 0 on finite chains")
    a, b, c = ws.a[:W], ws.b[:W], ws.c[:W] + shift
    rhs = np.full(W, math.nan)
    rhs[0] = (a[1] if W > 1 else 0.0) - b[0] + beta
    if W > 2:
        rhs[1:-1] = a[2:] - a[1:-1] - b[1:-1] + b[:-2]
    if covered:
        if gamma is None:
            raise ShapeViolation("finite chains need gamma > 0")
        rhs[N - 1] = gamma - a[N - 1] + b[N - 2]
    # the last window state's difference reads a rate past the window: not checked
    slack = (c - rhs)[:W if covered else W - 1]
    valid = bool(np.all(slack >= -1e-12))
    equality = bool(np.all(np.abs(slack) <= 1e-12))
    # reduced (check) chain: death a_{i+1}, birth b_i, bottom birth beta,
    # top death gamma on finite chains
    def chk_birth(i, beta=beta):
        i = np.asarray(i, dtype=np.int64)
        return np.where(i == 0, beta, np.asarray(model.birth(np.maximum(i, 1)), dtype=float))

    def chk_death(i):
        i = np.asarray(i, dtype=np.int64)
        vals = np.asarray(model.death(np.minimum(i + 1, N) if N is not None else i + 1),
                          dtype=float)
        if N is not None:
            vals = np.where(i == N, gamma, vals)
        return vals

    if finite:
        schedule = (N, N + 1, N + 2)  # truncations clamp at N: exact values
    # branch: sum over i>=2 of mu_i / b_{i-1} (the dual reciprocal series)
    terms = ws.mu[1:W] / b[: W - 1]
    if not finite and not math.isfinite(series.estimate_remainder_block(terms, 1)):
        # the dual chain: birth a_{i+1} (chk_death), death b_{i-1}, bottom death beta
        def hat_death(i, beta=beta):
            i = np.asarray(i, dtype=np.int64)
            return np.where(i == 1, beta, np.asarray(model.birth(i - 1), dtype=float))

        branch = "dual_4_1"
        reduced = ChainModel(BoundaryCode.DN, 1, N, chk_death, hat_death,
                             name=model.name + "_reduced_dual")
    else:
        branch = "check_6_1"
        reduced = ChainModel(BoundaryCode.NN, 0, N, chk_birth, chk_death,
                             name=model.name + "_reduced_check")
    bound = oracle.truncation_limit(reduced, list(schedule)).limit - shift
    return ReductionResult(reduced, valid, slack, equality, branch,
                           bound if valid else -math.inf, beta, gamma)


def _cesaro(ws, W: int, killing: np.ndarray):
    """The boundary flux mu_i b_i / mu[1, i] and the Cesaro averages
    mu[1, i]^-1 sum_{k <= i} mu_k killing_k on the first W window states."""
    mu, muc = ws.mu[:W], ws.mu_prefix_arr[:W]
    return mu * ws.b[:W] / muc, np.cumsum(mu * killing) / muc


def limsup_upper(model: ChainModel):
    """Cesaro upper bound inf c + liminf of the killing averages, read as the
    least of the last TRAIL averages.

    Valid under diverging total weight with vanishing boundary flux; when the
    hypotheses fail numerically the value is still returned, with a warning
    and a flag.
    """
    ws, W = _arrays(model, 200000)
    c, cmin = _killing_floor(ws, W)
    flux, averages = _cesaro(ws, W, c - cmin)
    hyp_flux = bool(flux[-TRAIL:].max() < 1e-3) or bool(
        flux[-1] < 0.1 * flux[max(0, W - 10 * TRAIL)])
    hyp_mass = not math.isfinite(ws.mu_total.value)
    est = float(np.min(averages[-TRAIL:]))
    verified = hyp_flux and hyp_mass
    if not verified:
        warnings.warn("limsup_upper hypotheses unverified; value is advisory",
                      HypothesisUnverified)
    return cmin + est, {"hypotheses_verified": verified,
                        "mass_divergent": hyp_mass, "flux_vanishing": hyp_flux}


def dispatch_9_12(model: ChainModel) -> str:
    """Sufficient-condition dispatcher: positive / zero / inconclusive."""
    if model.hi is not None:
        return "positive"
    ws, W = _arrays(model, 65536)
    c, _ = _killing_floor(ws, W)
    # liminf c > 0: the trailing minimum must stay level, not drift to zero
    m_far = float(np.min(c[3 * W // 4:]))
    m_mid = float(np.min(c[W // 2: 3 * W // 4]))
    if m_far > 1e-9 and m_far >= 0.9 * m_mid:
        return "positive"
    flux, averages = _cesaro(ws, W, c)
    avg_trend = averages[-1] / max(averages[W // 2], 1e-300)
    if (not math.isfinite(ws.mu_total.value)
            and (averages[-1] < 1e-9 or avg_trend < 0.75)
            and flux[-TRAIL:].max() < 1e-3):
        return "zero"
    # killing localized at the bottom: defer to the killing-free criteria
    if float(np.max(c[1:])) == 0.0:
        from .estimates import basic_bracket
        rep = basic_bracket(model)
        if rep.positive is True:
            return "positive"
        if rep.positive is False:
            return "zero"
    return "inconclusive"

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
from .errors import (EtaOutOfRange, HypothesisUnverified, NotInF,
                     ShapeViolation, WrongBoundary)
from .model import BoundaryCode, ChainModel, build_weights

# rows of the (ell, m) triangle of upper_9_9 per block: at most 32 x 8192
# doubles (2 MB) per temporary on the default window
ROW_BLOCK = 32


@dataclass(frozen=True)
class KillingBounds:
    lower: float
    upper: float
    xi: float
    zeta: float
    eta_used: float
    c_floor: float
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


def _arrays(model: ChainModel, window: int):
    if model.boundary is not BoundaryCode.DD or model.base != 1:
        raise WrongBoundary("killing bounds expect the state space {1, ..., N}")
    ws = build_weights(model, window)
    W = len(ws.mu)
    bad = np.abs(ws.log_mu) > 280.0
    if bad.any():
        W = max(int(np.argmax(bad)), 3)
    return ws, W


def _killing_floor(ws, W):
    """The window's killing with the bottom death rate folded in, and its minimum."""
    c = ws.c[:W].copy()
    c[0] += ws.a[0]
    return c, float(np.min(c))


def _covers_chain(model: ChainModel, ws, W) -> bool:
    return model.hi is not None and ws.base + W - 1 >= model.hi


def _certainty(certified: bool) -> str:
    return (series.Certainty.CERTIFIED if certified else series.Certainty.WINDOW_STOPPED).value


def _family_floor(cmin: float, finite: bool) -> KillingBounds:
    """A family without an admissible member: the killing floor alone."""
    return KillingBounds(cmin, math.inf, 0.0, 0.0, 0.0, cmin,
                         flags={"family_insufficient": True, "certainty": _certainty(finite)})


def _robust_inf(values: np.ndarray, finite: bool):
    """Row minima of a (G, n) array over the window, each refined on an
    infinite window by an Aitken limit of its row's tail trend.

    Returns the minima and, per row, whether it is certified: always on a
    finite window, and on a row without a finite entry (its minimum is inf).
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
    return mins, finite | ~some


def r_operator_bounds(model: ChainModel, v, lo: int = 1,
                      hi: Optional[int] = None, window: int = 8192):
    """(inf R_i(v), sup R_i(v)) with R_i(v) = a_i(1 - 1/v_{i-1}) + b_i(1 - v_i) + c_i.

    The bottom death rate folds into the killing term (the v_0 = inf
    convention). The infimum is a certified lower bound of the rate only
    under the membership conditions; the verdict travels in the result.
    """
    ws, W = _arrays(model, window)
    top = min(hi if hi is not None else ws.base + W - 1, ws.base + W - 1)
    idx = np.arange(ws.base, top + 1, dtype=np.int64)
    vv = np.asarray(v(idx), dtype=float) if callable(v) else np.asarray(v, dtype=float)[: len(idx)]
    if np.any(vv <= 0):
        raise NotInF("test sequence must be positive")
    a = ws.a[: len(idx)].copy()
    b = ws.b[: len(idx)]
    c = ws.c[: len(idx)].copy()
    c[0] += a[0]
    a[0] = 0.0
    r = np.empty(len(idx))
    r[0] = b[0] * (1.0 - vv[0]) + c[0]
    r[1:] = a[1:] * (1.0 - 1.0 / vv[:-1]) + b[1:] * (1.0 - vv[1:]) + c[1:]
    sel = (idx >= lo) & (idx <= (hi if hi is not None else idx[-1]))
    rs = r[sel]
    finite = model.hi is not None and top >= model.hi
    # membership: f from the ratio products must be square-integrable with
    # Omega f / f bounded above -- checked on the scanned range only
    f = np.cumprod(np.concatenate([[1.0], vv[:-1]]))
    terms = ws.mu[: len(idx)] * f * f
    tail_ratio = terms[-1] / terms[-2] if len(terms) > 1 and terms[-2] > 0 else math.inf
    in_l2 = finite or tail_ratio < 0.999
    membership = {"finite_support": finite, "f_in_L2_heuristic": bool(in_l2),
                  "omega_ratio_bounded": bool(np.all(np.isfinite(rs)))}
    return float(np.min(rs)), float(np.max(rs)), membership


def upper_9_9(model: ChainModel, lm: Optional[tuple] = None,
              ell_cap: int = 512, window: int = 8192):
    """Weighted-test-function upper bound: the double infimum, or its value at
    a pinned (ell, m); also the looser single-infimum variant. Returns the
    tighter value and the details.

    The double infimum runs over the (ell, m) triangle with ell below
    ``ell_cap``, in blocks of ``ROW_BLOCK`` rows; ``at`` is its first
    strict minimum in (ell, m) row-major order, and a row holding a NaN is
    skipped.
    """
    ws, W = _arrays(model, window)
    mu = ws.mu[:W]
    # the (ell, m) test function lives on [1, m] inside the window, and a
    # constant shift of the killing moves the rate by the same constant, so
    # the window minimum is a valid floor for the bound
    c, cmin = _killing_floor(ws, W)
    ct = c - cmin
    nbc = np.cumsum(ws.nu_b[:W])
    mc = np.cumsum(mu * ct)
    muc = ws.mu_prefix_arr[:W]
    with np.errstate(all="ignore"):
        loose_vals = (mu * ws.b[:W] + mc) / muc
    loose_vals = loose_vals[np.isfinite(loose_vals)]
    loose = cmin + float(np.min(loose_vals)) if len(loose_vals) else math.inf

    if lm is not None:
        k, j = lm[0] - ws.base, lm[1] - ws.base
        mid = nbc[j] - (nbc[k - 1] if k >= 1 else 0.0)
        return cmin + (1.0 / mid + mc[j]) / muc[k], {"at": tuple(lm), "loose_9_10": loose}
    best = math.inf
    arg = None
    rows = min(ell_cap, W - 1)
    for k0 in range(0, rows, ROW_BLOCK):
        k = np.arange(k0, min(k0 + ROW_BLOCK, rows))
        j = np.arange(k0, W)
        below = np.where(k >= 1, nbc[k - 1], 0.0)
        with np.errstate(all="ignore"):
            vals = (1.0 / (nbc[k0:] - below[:, None]) + mc[k0:]) / muc[k, None]
        vals[j < k[:, None]] = math.inf   # m < ell lies outside the triangle
        t = np.min(vals, axis=1)
        t[np.isnan(t)] = math.inf
        r = int(np.argmin(t))
        if t[r] < best:
            best = float(t[r])
            arg = (int(ws.base + k[r]), int(ws.base + j[int(np.argmin(vals[r]))]))
    return min(cmin + best, loose), {"at": arg, "loose_9_10": loose,
                                     "double_inf": cmin + best}


def _xi_zeta_rows(ws, W: int, finite: bool, F: np.ndarray, eta=None) -> list:
    """The bound inf c + zeta(eta, f) for each row f of the (G, W) array ``F``.

    Returns one ``KillingBounds`` per row, or the ``NotInF`` error of a row
    outside the admissible family. ``eta = None`` picks eta = xi_f per row.
    Rows are independent: each equals the same computation on that row
    alone, bit for bit (every window sum is a cumsum along the row).
    """
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
    xi, certified = _robust_inf(obj[:, 1:], finite)
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
            f_used=Fa[r].copy(),   # a view would pin the whole batch
            flags={"certainty": _certainty(bool(certified[r]))})
    return out


def xi_zeta(model: ChainModel, f, eta: Optional[float] = None,
            window: int = 8192) -> KillingBounds:
    """The interpolated lower bound: inf c + zeta(eta, f) for admissible f.

    ``f`` is a callable on the state indices (or an array over the window),
    positive and finite, with f_i < f_1 + II^{c-tilde}_i(f) on the scanned
    range (membership in the admissible family); eta = None means the
    automatic choice eta = xi_f, which maximizes zeta but is itself not a
    valid bound.
    """
    ws, W = _arrays(model, window)
    idx = np.arange(ws.base, ws.base + W, dtype=np.int64)
    fv = np.asarray(f(idx), dtype=float) if callable(f) else np.asarray(f, dtype=float)[:W]
    kb, = _xi_zeta_rows(ws, W, _covers_chain(model, ws, W), fv[None, :], eta)
    if isinstance(kb, NotInF):
        raise kb
    return kb


def corollary_9_9(model: ChainModel, eps_grid=None, window: int = 8192) -> KillingBounds:
    """Two-level test family f = (1, eps, eps, ...): the explicit bound.

    eps = 1 is admitted additionally when the shifted killing at state 1 is
    positive (the constant function is then admissible). When no grid point
    produces a positive gain the family is flagged insufficient.
    """
    ws, W = _arrays(model, window)
    finite = _covers_chain(model, ws, W)
    c, cmin = _killing_floor(ws, W)
    if eps_grid is None:
        eps_grid = np.linspace(0.05, 0.95, 19)
    grid = [float(e) for e in eps_grid if 0.0 < float(e) < 1.0]
    if c[0] - cmin > 0:
        grid.append(1.0)
    F = np.repeat(np.reshape(grid, (-1, 1)), W, axis=1)
    F[:, 0] = 1.0
    best = None
    for eps, kb in zip(grid, _xi_zeta_rows(ws, W, finite, F)):
        if isinstance(kb, KillingBounds) and (best is None or kb.zeta > best.zeta):
            best = replace(kb, flags=dict(kb.flags, eps=eps))
    if best is None:
        return _family_floor(cmin, finite)
    scale = max(abs(best.c_floor), 1.0)
    if best.zeta <= 1e-9 * scale:
        best = replace(best, flags=dict(best.flags, family_insufficient=True))
    return best


def sqrt_test_bound(model: ChainModel, m_grid=None, window: int = 8192) -> KillingBounds:
    """Lower bound from the square-root tail seeds, optimized over the stop level."""
    ws, W = _arrays(model, window)
    finite = _covers_chain(model, ws, W)
    c, cmin = _killing_floor(ws, W)
    ct1 = c[0] - cmin
    if m_grid is None:
        m_grid = sorted({int(round(g)) for g in np.geomspace(2, min(512, W - 1), 16)})
    nu_b = ws.nu_b[:W]
    k = np.arange(W)
    levels, seeds = [], []
    for m in m_grid:
        if m < 1 or (m < 2 and ct1 <= 0):
            continue
        km = np.minimum(k, m - ws.base)
        suf = np.concatenate([np.cumsum(nu_b[: m - ws.base + 1][::-1])[::-1], [0.0]])
        fv = np.sqrt(np.maximum(suf[km], suf[m - ws.base]))
        seeds.append(np.where(fv > 0, fv, math.sqrt(max(nu_b[m - ws.base], 1e-300))))
        levels.append(m)
    best = None
    for m, kb in zip(levels, _xi_zeta_rows(ws, W, finite, np.reshape(seeds, (-1, W)))):
        if isinstance(kb, KillingBounds) and (best is None or kb.lower > best.lower):
            best = replace(kb, flags=dict(kb.flags, m=m))
    if best is None:
        return _family_floor(cmin, finite)
    return best


def reduce_9_11(model: ChainModel, beta: float, gamma: Optional[float] = None,
                shift: float = 0.0, window: int = 4096,
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
    ws, W = _arrays(model, window)
    finite = model.hi is not None
    N = model.hi if finite else None
    if float(ws.a[0]) != 0.0:
        raise ShapeViolation("the shape requires a_1 = 0 (killing lives in c)")
    if finite and W >= N and float(ws.b[N - 1]) != 0.0:
        raise ShapeViolation("the shape requires b_N = 0 on finite chains")
    a, b, c = ws.a[:W], ws.b[:W], ws.c[:W] + shift
    idx = np.arange(1, W + 1)
    rhs = np.empty(W)
    rhs[0] = (a[1] if W > 1 else 0.0) - b[0] + beta
    if W > 2:
        rhs[1:-1] = a[2:] - a[1:-1] - b[1:-1] + b[:-2]
    if finite and W >= N:
        if gamma is None:
            raise ShapeViolation("finite chains need gamma > 0")
        rhs[N - 1] = gamma - a[N - 1] + b[N - 2]
    slack = c - rhs
    checked = slack[:-1] if not finite else slack
    valid = bool(np.all(checked >= -1e-12))
    equality = bool(np.all(np.abs(checked) <= 1e-12))
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

    check_chain = ChainModel(BoundaryCode.NN, 0, N, chk_birth, chk_death,
                             name=model.name + "_reduced_check")
    if finite:
        schedule = (N, N + 1, N + 2)  # truncations clamp at N: exact values
    # branch: sum over i>=2 of mu_i / b_{i-1} (the dual reciprocal series)
    terms = ws.mu[1:W] / b[: W - 1]
    t_prev, t_last = float(terms[-2]), float(terms[-1])
    rem = series._estimate_remainder(t_prev, t_last, W - 1)
    diverges = not math.isfinite(rem) and not finite
    if diverges:
        branch = "dual_4_1"

        def hat_birth(i):
            i = np.asarray(i, dtype=np.int64)
            vals = np.asarray(model.death(np.minimum(i + 1, N) if N is not None else i + 1),
                              dtype=float)
            if N is not None:
                vals = np.where(i == N, gamma, vals)
            return vals

        def hat_death(i, beta=beta):
            i = np.asarray(i, dtype=np.int64)
            return np.where(i == 1, beta, np.asarray(model.birth(i - 1), dtype=float))

        hat = ChainModel(BoundaryCode.DN, 1, N, hat_birth, hat_death,
                         name=model.name + "_reduced_dual")
        tr = oracle.truncation_limit(hat, [s for s in schedule])
        bound = tr.limit - shift
        reduced = hat
    else:
        branch = "check_6_1"
        tr = oracle.truncation_limit(check_chain, [s for s in schedule])
        bound = tr.limit - shift
        reduced = check_chain
    return ReductionResult(reduced, valid, slack, equality, branch,
                           bound if valid else -math.inf, beta, gamma)


def limsup_upper(model: ChainModel, window: int = 200000, trail: int = 256):
    """Cesaro upper bound inf c + liminf of the killing averages.

    Valid under diverging total weight with vanishing boundary flux; when the
    hypotheses fail numerically the value is still returned, with a warning
    and a flag.
    """
    ws, W = _arrays(model, window)
    mu = ws.mu[:W]
    c, cmin = _killing_floor(ws, W)
    ct = c - cmin
    muc = np.cumsum(mu)
    flux = mu * ws.b[:W] / muc
    hyp_flux = bool(flux[-trail:].max() < 1e-3) or bool(
        flux[-1] < 0.1 * flux[max(0, W - 10 * trail)])
    hyp_mass = not math.isfinite(ws.mu_total.value)
    averages = np.cumsum(mu * ct) / muc
    est = float(np.min(averages[-trail:]))
    verified = hyp_flux and hyp_mass
    if not verified:
        warnings.warn("limsup_upper hypotheses unverified; value is advisory",
                      HypothesisUnverified)
    return cmin + est, {"hypotheses_verified": verified,
                        "mass_divergent": hyp_mass, "flux_vanishing": hyp_flux}


def dispatch_9_12(model: ChainModel, window: int = 65536) -> str:
    """Sufficient-condition dispatcher: positive / zero / inconclusive."""
    if model.hi is not None:
        return "positive"
    ws, W = _arrays(model, window)
    c, _ = _killing_floor(ws, W)
    # liminf c > 0: the trailing minimum must stay level, not drift to zero
    m_far = float(np.min(c[3 * W // 4:]))
    m_mid = float(np.min(c[W // 2: 3 * W // 4]))
    if m_far > 1e-9 and m_far >= 0.9 * m_mid:
        return "positive"
    mu = ws.mu[:W]
    muc = np.cumsum(mu)
    averages = np.cumsum(mu * c) / muc
    flux = mu * ws.b[:W] / muc
    avg_trend = averages[-1] / max(averages[W // 2], 1e-300)
    if (not math.isfinite(ws.mu_total.value)
            and (averages[-1] < 1e-9 or avg_trend < 0.75)
            and flux[-256:].max() < 1e-3):
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

"""Chain specifications, symmetric-measure weights and uniqueness checks.

A :class:`ChainModel` holds the boundary code, the index range and the rate
rules. :func:`build_weights` turns it into windowed weight arrays (past
float range, the correctly rounded products of the rate ratios) plus
closed-form, summed or estimated tail sums; every window of a chain is a
prefix view of its largest, so memory is bounded by one chain's largest
window. :meth:`ChainModel.certainty` is the one certainty rule;
:func:`classify_uniqueness` evaluates the three divergence conditions that
decide whether the process / Dirichlet form is unique.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import series
from .errors import BadParameter, NonPositiveRate, Overflow

DEFAULT_NMAX = 10 ** 5
DEFAULT_TOL = 1e-10
GROWTH_WINDOW = 64                          # a uniqueness verdict needs GROWTH_WINDOW + 2 terms
TINY = np.finfo(float).tiny                 # the smallest normal float
LOG_SAFE = 280.0    # |log mu| up to which mu and mu*f products stay well inside float range
HINT_KEYS = {"mu_tail", "nu_b_tail", "uniq_1_2", "uniq_1_3"}


class BoundaryCode(enum.Enum):
    NN = "NN"
    ND = "ND"
    DN = "DN"
    DD = "DD"
    DD_BILATERAL = "DD_bilateral"

    @property
    def origin_reflecting(self) -> bool:
        return self in (BoundaryCode.NN, BoundaryCode.ND)


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ChainModel:
    """Birth-death chain with optional killing.

    Rate callables must accept an int64 ndarray and return a float ndarray.
    ``lo``/``hi`` bound the state space; ``None`` means unbounded on that
    side. Conventions: ND/NN start at 0 (reflecting origin, death(0) ignored);
    DN/DD start at 1 (Dirichlet at 0, death(1) > 0 acts as killing); finite
    ``hi`` is a Dirichlet point at hi+1 for ND/DD and a reflecting top
    (birth(hi) = 0) for DN/NN.

    ``tail_hint`` maps keys to closed forms: the tails ``mu_tail`` and
    ``nu_b_tail`` and the uniqueness verdicts ``uniq_1_2`` and ``uniq_1_3``;
    any other key raises BadParameter, as does an empty range (hi < lo). A
    hinted series' total is its tail at the first state. A tail hint takes
    array in, array out: ``hint(n)`` accepts an int or an int array and
    returns mu[n, N] (or nu[n, N]) as a float or as an ndarray of the same
    shape, in O(len(n)) memory, and a window of tails evaluated in one call
    equals the same tails evaluated one at a time.
    Rate and hint callables must be element-wise, the value at i depending on
    i alone: a model's windows are prefix views of its largest (:func:`build_weights`).

    The rate rule, checked by :meth:`rates`, the one reader of the rate
    callables, on every range it reads: a rate that is not finite raises
    Overflow; a birth or death rate <= 0 raises NonPositiveRate, except that
    a half-line chain's bottom death rate and finite top birth rate may be 0
    (a Dirichlet end's exit, or the rate a reflecting end sets to 0); a
    killing rate < 0 raises NonPositiveRate.
    """
    boundary: BoundaryCode
    lo: Optional[int]
    hi: Optional[int]
    birth: Callable[[np.ndarray], np.ndarray]
    death: Callable[[np.ndarray], np.ndarray]
    killing: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tail_hint: Optional[dict] = None
    name: str = ""
    params: dict = field(default_factory=dict)
    source: Optional[dict] = None  # JSON document this model was loaded from

    def __post_init__(self):
        unknown = set(self.tail_hint or ()) - HINT_KEYS
        if unknown:
            raise BadParameter("unknown tail hint keys %s" % sorted(unknown))
        if self.boundary is not BoundaryCode.DD_BILATERAL and self.lo is None:
            raise BadParameter("half-line models need a finite left end")
        if None not in (self.lo, self.hi) and self.hi < self.lo:
            raise BadParameter("empty range [%d, %d]" % (self.lo, self.hi))

    @property
    def base(self) -> int:
        return self.lo if self.lo is not None else 0    # 0: the bilateral reference point

    def rates(self, i0: int, i1: int):
        """(death, birth, killing) on [i0, i1], read-only, with the boundary
        conventions applied and the rate rule checked; a range inside the held
        window (:func:`_rates_and_weights`) is served as views of its checked arrays."""
        base, h = self.base, _held
        if h.model is self and base <= i0 and i1 - base < len(h.arrays[0]):
            return tuple(x[i0 - base:i1 - base + 1] for x in h.arrays[:3])
        idx = np.arange(i0, i1 + 1, dtype=np.int64)
        a, b = np.array(self.death(idx), dtype=float), np.array(self.birth(idx), dtype=float)
        c = np.zeros_like(a) if self.killing is None else np.array(self.killing(idx), dtype=float)
        # the positions of the rates that may be 0: a half-line chain's bottom
        # death rate and finite top birth rate, which a reflecting end sets to 0
        n, half = len(a), self.boundary is not BoundaryCode.DD_BILATERAL
        bottom, top = (base - i0, n if self.hi is None else self.hi - i0) if half else (n, n)
        if self.boundary.origin_reflecting and 0 <= bottom < n:
            a[bottom] = 0.0
        if self.boundary in (BoundaryCode.DN, BoundaryCode.NN) and 0 <= top < n:
            b[top] = 0.0
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise Overflow("rates not finite at some index")
        for x, end, what in ((b, top, "birth"), (a, bottom, "death")):
            low = x <= 0.0
            if 0 <= end < n:
                low[end] = x[end] < 0.0
            if low.any():
                raise NonPositiveRate("%s rate <= 0 inside the range" % what)
        if np.any(c < 0.0):
            raise NonPositiveRate("killing rate < 0")
        return _read_only(a), _read_only(b), _read_only(c)

    def hint(self, key: str):
        return (self.tail_hint or {}).get(key)

    def certainty(self, lo: int, top: int) -> series.Certainty:
        """The one certainty rule: a bound computed on the states [lo, top]
        is CERTIFIED iff they are the whole of a finite chain."""
        whole = None not in (self.lo, self.hi) and lo <= self.lo and top >= self.hi
        return series.Certainty.CERTIFIED if whole else series.Certainty.WINDOW_STOPPED


@dataclass(frozen=True)
class WeightSystem:
    """mu/nu weights of a half-line model on a finite window (:func:`build_weights`).

    ``mu[k]`` is the weight of state ``base + k``; ``log_mu`` is always exact
    while ``mu`` saturates to 0/inf outside float range, where an infinite
    chain's window ends early (at 2048 states). A call names the nu it reads by
    ``kind``: "b" for 1/(mu_i b_i), "a" for 1/(mu_i a_i). Its arrays, cached
    tails included, are read-only: a weight system is shared by the calls on a model.
    """
    model: ChainModel
    base: int
    mu: np.ndarray
    log_mu: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    mu_prefix_arr: np.ndarray       # cumulative sums of mu from base
    nu_a: np.ndarray
    nu_b: np.ndarray
    mu_total: series.TailSum
    nu_a_total: series.TailSum
    nu_b_total: series.TailSum
    _cache: dict = field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.mu)

    @property
    def top(self) -> int:
        return self.base + len(self.mu) - 1

    @property
    def finite(self) -> bool:
        return self.model.hi is not None and self.top >= self.model.hi

    @property
    def safe_len(self) -> int:
        """The number of leading states with float-safe weights, |log mu| <= LOG_SAFE."""
        bad = np.abs(self.log_mu) > LOG_SAFE
        return int(np.argmax(bad)) if bad.any() else len(self)

    @property
    def top_exit(self) -> float:
        """1/(mu_N b_N), the nu-mass of the exit past the top state N of a
        finite chain the window covers (inf if b_N = 0); 0 otherwise."""
        mb = self.mu[-1] * self.b[-1] if self.finite else math.inf
        return 1.0 / mb if mb > 0 else math.inf

    @property
    def exit_mass(self) -> float:
        """S = nu_a[base, N] + 1/(mu_N b_N) of a DD chain; nu_a's total if infinite."""
        return float(np.sum(self.nu_a)) + self.top_exit if self.finite else self.nu_a_total.value

    def _suffix(self, key: str) -> np.ndarray:
        """Suffix sums of ``key`` plus the remainder past the window, which
        the build settled (inf for a divergent series): the series' one tail
        array, cached, whose prefixes are its window tails."""
        out = self._cache.get(key)
        if out is None:
            out = series.tail_sums(getattr(self, key), self.base, self._cache["rem_" + key])
            out = self._cache[key] = _read_only(out)
        return out

    def _tail(self, key: str, n):
        """``key``[n, N] at an index or an index array: the model's tail hint,
        else the suffix sums plus the beyond-window remainder."""
        fn = self.model.hint(key + "_tail")
        scalar = np.ndim(n) == 0
        if fn is not None:
            return float(fn(n)) if scalar else fn(n)
        suf = self._suffix(key)
        if scalar:
            return float(suf[min(max(n - self.base, 0), len(suf) - 1)])
        return suf[np.clip(np.asarray(n) - self.base, 0, len(suf) - 1)]

    def _window_tail(self, key: str, n: Optional[int] = None) -> np.ndarray:
        """``key``[i, N] for the first ``n`` window indices i (all by default):
        unhinted, a prefix view of the suffix sums. A hinted tail is cut from
        the longest one held for the model, which grows by the missing indices
        alone: hints are element-wise, so a tail grown in pieces equals one
        evaluation bit for bit."""
        n = len(self) if n is None else min(n, len(self))
        if self.model.hint(key + "_tail") is None:
            return self._suffix(key)[:n]
        out = self._cache.get("tail_" + key, _EMPTY)
        if len(out) < n:
            held = _held.tails if _held.model is self.model else {}
            have = max(out, held.get(key, out), key=len)
            if len(have) < n:
                more = self._tail(key, np.arange(self.base + len(have), self.base + n))
                have = held[key] = _read_only(np.concatenate([have, np.asarray(more, float)]))
            out = self._cache["tail_" + key] = have[:n]
        return out if len(out) == n else out[:n]

    def certainty(self, W: Optional[int] = None) -> series.Certainty:
        """The model's certainty rule on the window, or on its first ``W``
        states (a float-safe prefix)."""
        return self.model.certainty(self.base, self.base + (len(self) if W is None else W) - 1)

    def mu_tail(self, n):
        """mu[n, N] at an index (a float) or an index array (an array of its
        shape): by hint, or suffix window + remainder (estimated if infinite)."""
        return self._tail("mu", n)

    def nu_tail(self, n, kind: str):
        """nu[n, N] of ``kind`` ("a" or "b"), like :meth:`mu_tail`."""
        return self._tail("nu_" + kind, n)

    def nu_prefix(self, kind: str, n: Optional[int] = None) -> np.ndarray:
        """nu[base, i] of ``kind`` for the first ``n`` window states i (all by
        default): a sequential sum, so a shorter ``n`` gives the same values."""
        with np.errstate(over="ignore"):
            return np.cumsum(getattr(self, "nu_" + kind)[:n])

    def mu_tails(self, n: Optional[int] = None) -> np.ndarray:
        """mu[i, N] for the first ``n`` window states i (all by default), cached."""
        return self._window_tail("mu", n)

    def nu_tails(self, kind: str, n: Optional[int] = None) -> np.ndarray:
        """nu[i, N] of ``kind`` for the first ``n`` window states i, like :meth:`mu_tails`."""
        return self._window_tail("nu_" + kind, n)


def _sum_with_tail(arr: np.ndarray, rem: float) -> series.TailSum:
    """Total of a nonnegative sequence: window part + the remainder past it
    (0 on a finite chain). The caller ignores overflow in the window sum."""
    head = float(arr.sum())
    if not math.isfinite(head) or not math.isfinite(rem):
        return series.TailSum(math.inf, "divergent")
    flag = "converged" if rem <= DEFAULT_TOL * max(head, 1e-300) else "estimated"
    return series.TailSum(head + rem, flag)


# the current chain's largest evaluated window, whose prefixes serve the
# chain's windows: model, arrays, hinted tails, last ws
_held = _NONE = SimpleNamespace(model=None, tails={}, last=(None, None))
_EMPTY = np.empty(0)


def build_weights(model: ChainModel, n_max: int = DEFAULT_NMAX) -> WeightSystem:
    """Weights by the multiplicative recurrence mu_{n+1} a_{n+1} = mu_n b_n.

    The window ends at the model's top state or at ``n_max`` states, or at 2048
    on an infinite chain whose weights have saturated there (:func:`_saturated`),
    assumed to stay so: the states past it add nothing to a sum, scan or remainder
    estimate. Log accumulation goes on past float range, where weights are inf/0.
    A hinted series' total is its tail hint at the first state, flagged
    closed_form. Any other total is the window sum plus the remainder
    estimate: divergent if either is infinite, converged if the remainder is
    below DEFAULT_TOL of the window part, else estimated.

    A call with the same model object and window as the previous call
    returns the previous weight system, tail caches included; the model's
    other windows share its arrays (:func:`_rates_and_weights`).
    """
    states = n_max if model.hi is None else min(n_max, model.hi - model.base + 1)
    if model.hi is None and states > 2048 and _saturated(model):
        states = 2048
    if not (_held.model is model and _held.last[0] == states):
        _held.last = (states, _build(model, states))   # _build leaves the model held
    return _held.last[1]


def _saturated(model: ChainModel) -> bool:
    """Whether the first 2048 weights end in 2 REMAINDER_BLOCK + 3 all 0 or all inf."""
    end = _rates_and_weights(model, model.base + 2047)[4][-2 * series.REMAINDER_BLOCK - 3:]
    return any(np.all(end == v) for v in (0.0, math.inf))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _rates_and_weights(model: ChainModel, top: int):
    """(a, b, c, log_mu, mu, mu_prefix, nu_a, nu_b) on [base, top], read-only:
    the checked rates, the weights by mu_{n+1} a_{n+1} = mu_n b_n, mu_base = 1,
    their prefix sums and the nu. From the first weight (or ratio) outside
    the normal range on, the weights are the correctly rounded products of
    the float ratios: 0 below about e^-745.1, inf above e^709.8. All are
    element-wise or sequential, so the held chain's windows up to its top are
    its prefix views, bit for bit; other windows become held."""
    global _held
    if model.boundary is BoundaryCode.DD_BILATERAL:
        raise BadParameter("use bilateral_log_weights for bilateral models")
    n, h = top - model.base + 1, _held
    if h.model is model and 0 < n <= len(h.arrays[0]):
        return tuple(x[:n] for x in h.arrays)
    tails = h.tails if h.model is model else {}
    base = model.base
    a, b, c = model.rates(base, top)
    _held = h = _NONE      # freed before the weights: two whole windows never coexist
    log_mu = np.zeros(n)
    np.cumsum(np.log(b[:-1]) - np.log(a[1:]), out=log_mu[1:])
    # multiplicative recurrence mu_{n+1} = mu_n b_n / a_{n+1}: exact where
    # the ratios are, unlike exp of the accumulated logs
    mu = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(b[:-1], a[1:], out=mu[1:])
        normal = (mu >= TINY) & (mu < math.inf)          # the ratios
        np.cumprod(mu, out=mu)
    normal &= (mu >= TINY) & (mu < math.inf)
    if not normal.all():
        # a subnormal, 0 or inf ratio or weight would pass its lost digits on
        # to every later weight: from the last normal weight on, run the
        # recurrence on mu_n 2^-s_n, s_n = log2 mu_n rounded, each ratio from
        # the mantissas of b and a, and scale back once (exact where normal)
        k = int(np.argmin(normal))
        sc = np.rint(log_mu[k - 1:] / math.log(2.0)).astype(np.int64)
        (fb, eb), (fa, ea) = np.frexp(b[k - 1:-1]), np.frexp(a[k:])
        m = np.ldexp(np.concatenate([mu[k - 1:k], fb / fa]),
                     np.concatenate([-sc[:1], eb - ea + sc[:-1] - sc[1:]]))
        with np.errstate(over="ignore"):
            mu[k:] = np.ldexp(np.cumprod(m)[1:], sc[1:])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # conventions: 1/0 = inf (a vanished rate), 1/inf = 0 (an overflowed
        # weight); the rates are positive and finite inside the range, so
        # inf * 0 = nan can only arise at the top state, where nu is 0
        nu_b = 1.0 / (mu * b)
        nu_a = 1.0 / (mu * a)
        mu_prefix = np.cumsum(mu)
    if math.isnan(nu_b[-1]):
        nu_b[-1] = 0.0
    if not (model.boundary in (BoundaryCode.DN, BoundaryCode.DD) and a[0] > 0.0):
        nu_a[0] = 0.0             # the bottom death rate is ignored or vanished
    arrays = tuple(map(_read_only, (a, b, c, log_mu, mu, mu_prefix, nu_a, nu_b)))
    _held = SimpleNamespace(model=model, arrays=arrays, tails=tails, last=(None, None))
    return arrays


def _build(model: ChainModel, n_max: int) -> WeightSystem:
    if n_max < 1:
        raise BadParameter("n_max must be >= 1")
    base, top = model.base, model.base + n_max - 1    # build_weights clips n_max to the chain
    a, b, c, log_mu, mu, mu_prefix, nu_a, nu_b = _rates_and_weights(model, top)
    finite = model.hi is not None and top == model.hi
    # each series' remainder past the window, estimated once: the total and
    # the suffix tails both add it, and a divergent series' tails are all inf.
    # A hinted series' total is its tail at the first state, the first entry
    # of the held tail (each index evaluated once)
    cache, totals, held = {}, [], _held.tails
    with np.errstate(over="ignore"):
        for key, arr in (("mu", mu), ("nu_a", nu_a), ("nu_b", nu_b)):
            rem = 0.0 if finite else series.estimate_remainder_block(arr, base)
            fn = model.hint(key + "_tail")
            if fn is not None and key not in held:
                held[key] = _read_only(np.array([float(fn(base))]))
            totals.append(_sum_with_tail(arr, rem) if fn is None
                          else series.TailSum(float(held[key][0]), "closed_form"))
            cache["rem_" + key] = math.inf if math.isinf(totals[-1].value) else rem
    mu_total, nu_a_total, nu_b_total = totals
    return WeightSystem(model=model, base=base, mu=mu, log_mu=log_mu, a=a, b=b, c=c,
                        mu_prefix_arr=mu_prefix, nu_a=nu_a, nu_b=nu_b, mu_total=mu_total,
                        nu_a_total=nu_a_total, nu_b_total=nu_b_total,
                        _cache=cache)


def bilateral_log_weights(model: ChainModel, half_window: int):
    """Log-domain weights of a bilateral model on [-W, W] (clipped to lo/hi).

    By the recurrence mu_{i+1} a_{i+1} = mu_i b_i on the rates of :meth:`ChainModel.rates`,
    normalized at the reference point 0 (or the nearest in-range state); only
    ratios matter for every bilateral quantity in this package. Returns
    ``(idx, log_mu, log_mua, log_mub)`` with log(mu_i a_i) = log(mu_{i-1} b_{i-1}).
    """
    lo = -half_window if model.lo is None else max(model.lo, -half_window)
    hi = half_window if model.hi is None else min(model.hi, half_window)
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    a, b, _ = model.rates(lo, hi)
    log_b = np.log(b)
    log_mu = np.concatenate([[0.0], np.cumsum(log_b[:-1] - np.log(a[1:]))])
    log_mu -= log_mu[int(np.searchsorted(idx, min(max(0, lo), hi)))]
    log_mub = log_mu + log_b
    log_mua = np.concatenate([[log_mu[0] + math.log(a[0])], log_mub[:-1]])
    return idx, log_mu, log_mua, log_mub


# ---------------------------------------------------------------------------
# uniqueness / regularity classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniquenessVerdict:
    condition_1_2: Verdict
    condition_1_3: Verdict
    condition_9_34: Verdict
    evidence: dict


def _classify_series(terms: np.ndarray, hint: Optional[str], start: int) -> tuple:
    """HOLDS = the series diverges, FAILS = it converges: the hint, else the
    divergence verdict of series.estimate_remainder_block on the finite
    terms, ``terms[k]`` of index ``start + k`` (an infinite remainder
    diverges). Fewer than GROWTH_WINDOW + 2 terms are inconclusive."""
    if hint in ("holds", "fails"):
        return Verdict(hint), {"hint": True}
    t = np.asarray(terms, dtype=float)
    t = t[np.isfinite(t)]
    if len(t) < GROWTH_WINDOW + 2:
        return Verdict.INCONCLUSIVE, {"reason": "too few terms"}
    rem = series.estimate_remainder_block(t, start)
    return (Verdict.HOLDS if math.isinf(rem) else Verdict.FAILS), {"remainder": rem}


def classify_uniqueness(model: ChainModel, n_max: int = DEFAULT_NMAX) -> UniquenessVerdict:
    """Evaluate the three uniqueness series on the window of up to n_max (at most 4096) states
    by the one divergence verdict (:func:`_classify_series`), heuristic for
    truly asymptotic statements. (1.2) implies (1.3), so (1.3) holds with it;
    without killing, (9.34)'s terms are (1.2)'s, and so is its verdict.
    """
    if n_max < GROWTH_WINDOW:
        raise BadParameter("need n_max >= %d" % GROWTH_WINDOW)
    ws = build_weights(model, n_max=min(n_max, 4096))
    mu, nu_b, c = ws.mu, ws.nu_b, ws.c
    with np.errstate(all="ignore"):
        ok = np.isfinite(mu * nu_b) & (nu_b > 0.0)
        t12 = (nu_b * ws.mu_prefix_arr)[ok]
        t13 = (nu_b + mu)[ok]
        t934 = (nu_b * np.cumsum(mu * (1.0 + c)))[ok]
    v12, e12 = _classify_series(t12, model.hint("uniq_1_2"), ws.base)
    v13, e13 = _classify_series(t13, model.hint("uniq_1_3"), ws.base)
    v934, e934 = _classify_series(t934, None, ws.base) if c.any() else (v12, e12)
    if v12 is Verdict.HOLDS and v13 is Verdict.FAILS:
        v13 = Verdict.HOLDS  # (1.2) implies (1.3); trust the stronger certificate
        e13 = {"implied_by_1_2": True}
    return UniquenessVerdict(v12, v13, v934,
                             {"1.2": e12, "1.3": e13, "9.34": e934})


# ---------------------------------------------------------------------------
# model-definition files (JSON)
# ---------------------------------------------------------------------------

_RATE_FAMILIES = {
    "zero": lambda p: (lambda i: np.zeros(np.shape(i), dtype=float)),
    "const": lambda p: (lambda i, v=float(p["value"]): np.full(np.shape(i), v, dtype=float)),
    "affine": lambda p: (lambda i, s=float(p["slope"]), t=float(p.get("intercept", 0.0)):
                         s * np.asarray(i, dtype=float) + t),
    "power": lambda p: (lambda i, cf=float(p.get("coef", 1.0)), e=float(p["exponent"]),
                        sh=float(p.get("shift", 0.0)):
                        cf * (np.asarray(i, dtype=float) + sh) ** e),
    "poly": lambda p: (lambda i, cs=[float(x) for x in p["coeffs"]]:
                       sum(cc * np.asarray(i, dtype=float) ** k for k, cc in enumerate(cs))),
}


def _table_rule(values, then: str, base: int):
    vals = [float(v) for v in values]

    def rule(i):
        idx = np.asarray(i, dtype=np.int64) - base
        out = np.empty(idx.shape, dtype=float)
        inside = (idx >= 0) & (idx < len(vals))
        if not np.all(inside):
            if then == "error":
                raise BadParameter("table rate queried outside its range")
            out[~inside] = vals[-1]
        table = np.asarray(vals)
        out[inside] = table[idx[inside]]
        return out

    return rule


def _rate_from_spec(spec, base: int, key: str):
    if spec is None:
        return None
    try:
        if "table" in spec:
            then = spec.get("then", "error")
            if then not in ("last", "error"):
                raise BadParameter("table 'then' must be 'last' or 'error'")
            if not spec["table"]:
                raise BadParameter("%s: a table needs at least one value" % key)
            return _table_rule(spec["table"], then, base)
        if "catalog" in spec:
            fam = _RATE_FAMILIES.get(spec["catalog"])
            if fam is None:
                raise BadParameter("unknown rate family %r" % spec["catalog"])
            return fam(spec.get("params", {}))
    except (KeyError, TypeError, AttributeError) as exc:
        what = "no parameter %s" % exc if isinstance(exc, KeyError) else exc
        raise BadParameter("%s: malformed rate spec %r: %s" % (key, spec, what)) from None
    raise BadParameter("%s: a rate spec needs 'catalog' or 'table'" % key)


def _end(v, key: str):
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if v in ("inf", "+inf", "-inf"):
        return None
    raise BadParameter("%s must be an integer or 'inf', not %r" % (key, v))


def model_from_dict(doc: dict) -> ChainModel:
    if not isinstance(doc, dict):
        raise BadParameter("a model document is a JSON object, not %r" % (doc,))
    missing = [key for key in ("boundary", "birth", "death") if doc.get(key) is None]
    if missing:
        raise BadParameter("the model document lacks %s" % ", ".join(map(repr, missing)))
    boundary = BoundaryCode(doc["boundary"])
    lo = _end(doc.get("lo", 1 if boundary in (BoundaryCode.DN, BoundaryCode.DD) else 0), "lo")
    hi = _end(doc.get("hi", "inf"), "hi")
    base = lo if lo is not None else 0
    birth = _rate_from_spec(doc["birth"], base, "birth")
    death = _rate_from_spec(doc["death"], base, "death")
    killing = _rate_from_spec(doc.get("killing"), base, "killing")
    return ChainModel(boundary=boundary, lo=lo, hi=hi, birth=birth, death=death,
                      killing=killing, name=doc.get("name", "file-model"), source=doc)


def load_model(path: str) -> ChainModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def dump_model(model: ChainModel) -> dict:
    """Round-trippable document; only available for models loaded from one."""
    if model.source is None:
        raise BadParameter("model %r was not built from a document" % model.name)
    return json.loads(json.dumps(model.source))

"""Named chain models: the worked examples and the two benchmark tables.

Each entry returns a fresh :class:`~bdspec.model.ChainModel` with closed-form
tail hints attached wherever the series have elementary sums (geometric
chains, Hurwitz tails); everything else is left to the estimated tail
machinery on purpose, so both code paths stay exercised.

The p-series tails (quadratic_nd, ex5_5, table6_1_row7, ex8_8) are Hurwitz
zeta values zeta(s, q) = sum_{k >= q} k^-s, all from one kernel,
:func:`_hurwitz`, for s > 1 and integer q >= 1: Euler-Maclaurin at q from
q = max(64, ceil(4 s)) on, a fixed array of suffix sums below. Against
mpmath at 200 digits it is within 4 ulps for s from 1.01 to 30 and q up to
10^7, and zeta(2, 1) is pi^2/6 correctly rounded.

Tail hints follow the protocol of ``ChainModel.tail_hint``: array in, array
out. ``hint(n)`` takes an int or an int array and returns a float or an
ndarray of the same shape, in O(len(n)) memory; scalars go through the same
numpy expressions as arrays (see :func:`_tail`), so a window of tails
evaluated in one call equals the tails evaluated one index at a time, bit
for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import BadParameter, UnknownModel
from .model import BoundaryCode, ChainModel

SQRT2 = math.sqrt(2.0)
SQRT33 = math.sqrt(33.0)
LINEAR_ND_ZERO = 1074   # 0.5 ** (i + 1) is 0.0 from here on (2^-1074 is the least double)


def _const(v):
    return lambda i, v=float(v): np.full(np.shape(i), v, dtype=float)


def _f(fn):
    return lambda i, fn=fn: np.asarray(fn(np.asarray(i, dtype=float)), dtype=float)


def _tail(fn):
    """A tail hint from ``fn``, an expression in numpy ufuncs of an int array:
    an int gives a float, an array an array of its shape."""
    def hint(n):
        n = np.asarray(n)
        out = fn(n)
        return float(out) if n.ndim == 0 else out
    return hint


# B_2j / (2j)! for j = 1..6: the Euler-Maclaurin coefficients of _hurwitz
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000)


def _hurwitz(s: float, q):
    """The Hurwitz zeta function zeta(s, q) = sum_{k >= q} k^-s, for s > 1 and
    q an integer >= 1 (a float or an array of them; +inf for q <= 0, where
    the sum meets 0^-s), as an array of q's shape.

    From A = max(64, ceil(4 s)) on, Euler-Maclaurin at q through B_12,
    q^-s (q/(s-1) + 1/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) q^(1-2j)): one
    power and one Horner step per entry, and the first omitted term is below
    1e-16 of the sum for every s > 1. Below A, one fixed array: the suffix
    sums of k^-s for k = A - 1 down to 1, added onto zeta(s, A). Each value
    depends on (s, q) alone, so an array call equals the scalar calls bit for
    bit."""
    s = float(s)
    q = np.asarray(q, dtype=float)
    top = max(64, math.ceil(4.0 * s))
    flat = q.reshape(-1)
    far = np.maximum(flat, top)
    coef, rising = [], s
    for j, b in enumerate(_EULER_MACLAURIN):
        coef.append(b * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
    r = 1.0 / far
    x = r * r
    out = coef[-1] * x
    for c in coef[-2:0:-1]:
        out += c
        out *= x
    out += coef[0]
    out *= r
    out += 0.5
    out += far / (s - 1.0)
    out *= np.power(far, -s)
    near = np.flatnonzero(flat < top)
    if len(near):                            # out[near] holds zeta(s, A) so far
        terms = np.concatenate([out[near[:1]], np.arange(top - 1.0, 0.0, -1.0) ** -s, [np.inf]])
        head = np.cumsum(terms)[::-1]        # head[k] = zeta(s, k), k = 0..A
        out[near] = head[np.maximum(flat[near], 0.0).astype(np.int64)]
    return out.reshape(q.shape)


def _table(vals):
    """A rate rule reading ``vals`` from state 1 on, its last value past them."""
    vals = np.asarray(vals, dtype=float)
    return lambda i: vals[np.clip(np.asarray(i, dtype=np.int64) - 1, 0, len(vals) - 1)]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _const_nd(a=1.0, b=2.0):
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise BadParameter("const_nd needs positive rates")
    hint = None
    if b > a:
        hint = {"nu_b_tail": _tail(lambda n: (a / b) ** n / (b - a)), "uniq_1_2": "holds"}
    return ChainModel(BoundaryCode.ND, 0, None, _const(b), _const(a),
                      tail_hint=hint, name="const_nd", params={"a": a, "b": b})


def _linear_nd(gamma=1.0):
    g = float(gamma)
    if g <= 0:
        raise BadParameter("linear_nd needs gamma > 0")
    hint = {"uniq_1_2": "holds"}
    if g == 1.0:
        # nu_i = 2^{-i-1}/(i+1); the tail series converges geometrically, so
        # summing 60 terms directly keeps full relative precision at every n.
        # Every term from i = LINEAR_ND_ZERO on underflows to 0, so only the
        # indices below it get a row of terms: the block has at most
        # LINEAR_ND_ZERO rows, whatever the window
        def nu_tail(n):
            out = np.zeros(n.shape)
            live = n < LINEAR_ND_ZERO
            k = n[live][:, None] + np.arange(60.0)
            out[live] = np.sum(0.5 ** (k + 1) / (k + 1), axis=-1)
            return out
        hint["nu_b_tail"] = _tail(nu_tail)
    return ChainModel(BoundaryCode.ND, 0, None,
                      _f(lambda i: 2.0 * (i + g)), _f(lambda i: i),
                      tail_hint=hint, name="linear_nd", params={"gamma": g})


def _quadratic_nd():
    hint = {"nu_b_tail": _tail(lambda n: _hurwitz(2.0, n + 1.0)), "uniq_1_2": "holds"}
    return ChainModel(BoundaryCode.ND, 0, None,
                      _f(lambda i: (i + 1.0) ** 2), _f(lambda i: i * i),
                      tail_hint=hint, name="quadratic_nd")


def _quartic_nd():
    return ChainModel(BoundaryCode.ND, 0, None,
                      _f(lambda i: (i + 1.0) ** 4),
                      _f(lambda i: i * (i - 0.5) * (i * i + 3.0 * i + 3.0)),
                      name="quartic_nd")


def _const_dn(a=1.0, b=2.0):
    a, b = float(a), float(b)
    hint = None
    if a > b:
        r = b / a
        hint = {"mu_tail": _tail(lambda n: r ** (n - 1) / (1.0 - r))}
    return ChainModel(BoundaryCode.DN, 1, None, _const(b), _const(a),
                      tail_hint=hint, name="const_dn", params={"a": a, "b": b})


def _ex5_3(a=4.0, b=1.0):
    if not float(a) > float(b) > 0:
        raise BadParameter("ex5_3 needs a > b > 0 (ergodic dual)")
    return dataclasses.replace(_const_dn(a, b), name="ex5_3",
                               params={"a": float(a), "b": float(b)})


def _ex5_5():
    hint = {"mu_tail": _tail(lambda n: _hurwitz(2.0, n))}
    return ChainModel(BoundaryCode.DN, 1, None, _f(lambda i: i * i), _f(lambda i: i * i),
                      tail_hint=hint, name="ex5_5")


def _ex5_7():
    return ChainModel(BoundaryCode.DN, 1, None, _f(lambda i: i + 2.0), _f(lambda i: i * i),
                      name="ex5_7")


def _nn(birth, death, name, hint=None, params=None):
    return ChainModel(BoundaryCode.NN, 0, None, birth, death,
                      tail_hint=hint, name=name, params=params or {})


def _t61_row1():
    return _nn(_f(lambda i: i + 1.0), _f(lambda i: 2.0 * i), "table6_1_row1",
               hint={"mu_tail": _tail(lambda n: 2.0 ** (1 - n))})


def _t61_row5():
    def mu_tail(n):
        return np.where(n <= 0, 3.0, 2.0 ** (2 - n))
    return _nn(_const(1.0), _f(lambda i: np.minimum(i, 2.0)), "table6_1_row5",
               hint={"mu_tail": _tail(mu_tail)})


def _t61_row7():
    def mu_tail(n):   # np.maximum keeps q in _hurwitz's domain q >= 1
        return np.where(n <= 0, 1.0 + math.pi ** 2 / 6.0, _hurwitz(2.0, np.maximum(n, 1.0)))
    return _nn(_f(lambda i: np.where(i == 0, 1.0, i * i)), _f(lambda i: i * i),
               "table6_1_row7",
               hint={"mu_tail": _tail(mu_tail)})


def _t61_row8():
    b0 = (7.0 - SQRT33) / 2.0
    return _nn(_f(lambda i: np.where(i == 0, b0, 2.0 + (-1.0) ** i)),
               _f(lambda i: 2.0 * (2.0 + (-1.0) ** i)), "table6_1_row8")


def _ex6_7(a=4.0, b=1.0):
    a, b = float(a), float(b)
    if not a > b > 0:
        raise BadParameter("ex6_7 needs a > b > 0")
    r = b / a
    return _nn(_const(b), _const(a), "ex6_7",
               hint={"mu_tail": _tail(lambda n: r ** n / (1.0 - r))},
               params={"a": a, "b": b})


def _ex6_11():
    return _nn(_f(lambda i: np.where(i == 0, 1.0, i)), _f(lambda i: 2.0 * i), "ex6_11")


def _dd(birth, death, name, hi=None, killing=None, hint=None, params=None):
    return ChainModel(BoundaryCode.DD, 1, hi, birth, death, killing=killing,
                      tail_hint=hint, name=name, params=params or {})


def _t71_row2(gamma1=1.0, gamma0=1.0, beta1=2.0):
    g1, g0, b1 = float(gamma1), float(gamma0), float(beta1)
    if not (g0 > 0 and g1 >= 0 and b1 > g1):
        raise BadParameter("table7_1_row2 needs gamma0>0, gamma1>=0, beta1>gamma1")
    return _dd(_f(lambda i: b1 * i), _f(lambda i: g1 * (i - 1.0) + g0), "table7_1_row2",
               params={"gamma1": g1, "gamma0": g0, "beta1": b1})


def _t71_row6(a=2.0, b=1.0, k=3):
    a, b, k = float(a), float(b), int(k)
    if k < 2 or not (1.0 / k < b / a <= k / (k - 1.0) ** 2):
        raise BadParameter("table7_1_row6 needs k>=2 and 1/k < b/a <= k/(k-1)^2")
    return _dd(_f(lambda i: np.minimum(i, float(k)) * b), _const(a), "table7_1_row6",
               params={"a": a, "b": b, "k": k})


def _ex7_6_2(eps=0.0):
    e = float(eps)
    if not 0.0 <= e < SQRT2:
        raise BadParameter("ex7_6_2 requires eps in [0, sqrt(2))")
    return _dd(_table([1.0, 2.0]), _table([(2.0 - e * e) / (1.0 + e), 1.0]),
               "ex7_6_2", hi=2, params={"eps": e})


def _ex8_8(gamma=3.0):
    g = float(gamma)
    if g <= 1.0:
        raise BadParameter("ex8_8 needs gamma > 1")
    hint = {"nu_b_tail": _tail(lambda n: _hurwitz(g, n + 1.0))}
    return ChainModel(BoundaryCode.ND, 0, None, _const(1.0),
                      _f(lambda i: (i / (i + 1.0)) ** g),
                      tail_hint=hint, name="ex8_8", params={"gamma": g})


def _ex8_9():
    # mu_i = exp(i^2) on Z with b == 1, a_i = e^(1 - 2i) clipped to e^(+-700):
    # past |i| = 350 the log recurrence reads clipped rates, where the weights
    # exceed e^122500 and no scan's infimum lies.
    def death(i):
        x = 1.0 - 2.0 * np.asarray(i, dtype=float)
        return np.exp(np.clip(x, -700.0, 700.0))
    return ChainModel(BoundaryCode.DD_BILATERAL, None, None, _const(1.0), _f(death),
                      name="ex8_9")


def _bilateral_quadratic():
    return ChainModel(BoundaryCode.DD_BILATERAL, None, None,
                      _f(lambda i: 1.0 + i * i), _f(lambda i: 1.0 + i * i),
                      name="bilateral_quadratic")


def _ex9_14(b1=1.0, a2=2.0, c1=1.0, c2=3.0):
    return _dd(_table([b1, 0.0]), _table([0.0, a2]), "ex9_14", hi=2,
               killing=_table([c1, c2]),
               params={"b1": b1, "a2": a2, "c1": c1, "c2": c2})


def _ex9_15(b1=1.0, b2=2.0, a2=1.0, a3=2.0, c1=0.5, c2=1.0, c3=2.0):
    return _dd(_table([b1, b2, 0.0]), _table([0.0, a2, a3]), "ex9_15", hi=3,
               killing=_table([c1, c2, c3]),
               params=dict(b1=b1, b2=b2, a2=a2, a3=a3, c1=c1, c2=c2, c3=c3))


def _ex9_16(c0=1.0, p=1.0):
    return _dd(_const(1.0), _f(lambda i: np.where(i >= 2, 1.0, 0.0)), "ex9_16",
               killing=_f(lambda i: float(c0) / i ** float(p)),
               params={"c0": float(c0), "p": float(p)})


def _ex9_17(beta=2.0, a1=0.0, b1=1.0):
    be = float(beta)
    if be <= 0:
        raise BadParameter("ex9_17 needs beta > 0")
    c = (be - 1.0) ** 2 / be
    return _dd(_f(lambda i: np.where(i == 1, float(b1), 1.0)),
               _f(lambda i: np.where(i == 1, float(a1), 1.0)), "ex9_17",
               killing=_const(c), params={"beta": be, "a1": float(a1), "b1": float(b1)})


def _ex9_18(c2=None):
    cc2 = 13.0 / 6.0 if c2 is None else float(c2)

    def kill(i):
        i = np.asarray(i, dtype=np.int64)
        out = np.where(i % 2 == 0, 13.0 / 6.0, 0.0)
        return np.where(i == 2, cc2, out)

    def mu_tail(n):
        return np.where(n <= 1, 3.5, 5.0 * 2.0 ** (1 - n))

    return _dd(_f(lambda i: np.where(i == 1, 2.5, 1.0)),
               _f(lambda i: np.where(i == 1, 0.0, 2.0)), "ex9_18",
               killing=_f(kill), hint={"mu_tail": _tail(mu_tail)},
               params={} if c2 is None else {"c2": cc2})


def _ex9_19(beta=0.25):
    be = float(beta)
    if not 0.0 < be < 0.5:
        raise BadParameter("ex9_19 needs beta in (0, 1/2)")
    b1 = 2.0 * be * (1.0 - be) / (1.0 - 2.0 * be)
    return _dd(_f(lambda i: np.where(i == 1, b1, be * i)),
               _f(lambda i: np.where(i == 1, 0.0, be * i)), "ex9_19",
               killing=_f(lambda i: (1.0 - be) ** 2 * (i - 1.0)),
               params={"beta": be})


def _ex9_20():
    return _dd(_f(lambda i: np.where(i == 1, 0.8, i * i)),
               _f(lambda i: np.where(i == 1, 0.0, i * i)), "ex9_20",
               killing=_f(lambda i: (8.0 / 9.0) * (8.0 / (3.0 * i - 8.0)
                                                   - 2.0 / (3.0 * i - 4.0) + 5.0)))


def _ex9_21(printed_killing=False):
    def rate(i):
        return i * (i - 0.25) * (12.0 * i * i - 31.0 * i + 27.0)

    if printed_killing:
        # the quartic as printed in the source example; it does NOT make
        # the stated test sequence an eigen-ratio (rate strictly above 119/8)
        # but it is what the example's explicit bound values refer to
        def kill(i):
            return np.where(i == 1, 15.0,
                            i ** 4 - 0.5 * i ** 3 - (301.0 / 16.0) * i + 227.0 / 8.0)
    else:
        # quartic killing, minimum 0 at i = 2; the i^2 term makes the stated
        # test sequence an exact eigen-ratio (rate 119/8)
        def kill(i):
            return np.where(i == 1, 15.0,
                            i ** 4 - 0.5 * i ** 3 - (11.0 / 16.0) * i * i
                            - (301.0 / 16.0) * i + 227.0 / 8.0)

    return _dd(_f(lambda i: np.where(i == 1, 1.5, rate(i))),
               _f(lambda i: np.where(i == 1, 0.0, rate(i))), "ex9_21",
               killing=_f(kill),
               params={"printed_killing": printed_killing} if printed_killing else {})


def _symmetric_nn():
    return _nn(_const(1.0), _const(1.0), "symmetric_nn", hint={"uniq_1_2": "holds"})


_REGISTRY = {
    "const_nd": _const_nd,
    "linear_nd": _linear_nd,
    "quadratic_nd": _quadratic_nd,
    "quartic_nd": _quartic_nd,
    "const_dn": _const_dn,
    "ex5_3": _ex5_3,
    "ex5_5": _ex5_5,
    "ex5_7": _ex5_7,
    "table6_1_row1": _t61_row1,
    "table6_1_row2": lambda: _nn(_f(lambda i: i + 1.0), _f(lambda i: 2.0 * i + 3.0), "table6_1_row2"),
    "table6_1_row3": lambda: _nn(_f(lambda i: i + 1.0), _f(lambda i: 2.0 * i + 4.0 + SQRT2), "table6_1_row3"),
    "table6_1_row4": lambda: _nn(_f(lambda i: 1.0 / (i + 1.0)), _const(1.0), "table6_1_row4"),
    "table6_1_row5": _t61_row5,
    "table6_1_row6": lambda: _nn(_f(lambda i: i + 2.0), _f(lambda i: i * i), "table6_1_row6"),
    "table6_1_row7": _t61_row7,
    "table6_1_row8": _t61_row8,
    "ex6_7": _ex6_7,
    "ex6_11": _ex6_11,
    "table7_1_row1": lambda a=1.0, b=2.0: _dd(_const(b), _const(a), "table7_1_row1",
                                              params={"a": float(a), "b": float(b)}),
    "table7_1_row2": _t71_row2,
    "table7_1_row3": lambda beta0=1.0: _dd(_f(lambda i: 2.0 * (i + 1.0) + float(beta0)),
                                           _f(lambda i: i - 1.0 + float(beta0)),
                                           "table7_1_row3", params={"beta0": float(beta0)}),
    "table7_1_row4": lambda: _dd(_f(lambda i: 2.0 * i + 4.0 + SQRT2), _f(lambda i: i),
                                 "table7_1_row4"),
    "table7_1_row5": lambda a=1.0, b=1.0: _dd(_const(b), _f(lambda i: float(a) / i),
                                              "table7_1_row5", params={"a": float(a), "b": float(b)}),
    "table7_1_row6": _t71_row6,
    "table7_1_row7": lambda: _dd(_f(lambda i: i * i), _f(lambda i: i + 1.0), "table7_1_row7"),
    "table7_1_row8": lambda a1=1.0: _dd(_f(lambda i: i * i),
                                        _f(lambda i: np.where(i == 1, float(a1), (i - 1.0) ** 2)),
                                        "table7_1_row8", params={"a1": float(a1)}),
    "table7_1_row9": lambda: _dd(_f(lambda i: 2.0 * (2.0 + (-1.0) ** i)),
                                 _f(lambda i: np.where(i == 1, (7.0 - SQRT33) / 2.0,
                                                       2.0 + (-1.0) ** (i - 1))),
                                 "table7_1_row9"),
    "ex7_5_1": lambda c=2.0: _dd(_table([0.0]), _table([float(c)]), "ex7_5_1", hi=1,
                                 params={"c": float(c)}),
    "ex7_5_2": lambda a1=1.0, a2=1.0, b1=2.0, b2=3.0: _dd(
        _table([b1, b2]), _table([a1, a2]), "ex7_5_2", hi=2,
        params=dict(a1=a1, a2=a2, b1=b1, b2=b2)),
    "ex7_6_1": lambda: _dd(_table([2.0, 3.0]), _table([1.0, 1.0]), "ex7_6_1", hi=2),
    "ex7_6_2": _ex7_6_2,
    "ex8_8": _ex8_8,
    "ex8_9": _ex8_9,
    "bilateral_quadratic": _bilateral_quadratic,
    "ex9_14": _ex9_14,
    "ex9_15": _ex9_15,
    "ex9_16": _ex9_16,
    "ex9_17": _ex9_17,
    "ex9_18": _ex9_18,
    "ex9_19": _ex9_19,
    "ex9_20": _ex9_20,
    "ex9_21": _ex9_21,
    "symmetric_nn": _symmetric_nn,
}


def catalog(name: str, **params) -> ChainModel:
    """Instantiate a registered model by name."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownModel("unknown model %r (known: %s)"
                           % (name, ", ".join(sorted(_REGISTRY)))) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise BadParameter("bad parameters for %r: %s" % (name, exc)) from None


def catalog_names():
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# benchmark-table metadata (exact values and test sequences)
# ---------------------------------------------------------------------------

TABLE61_ROWS = [
    # name, exact 1/lambda_1, reference etabar1, eta1, kappa
    ("table6_1_row1", 1.0, 0.8, 1.48, 2.0 / 3.0),
    ("table6_1_row2", 0.5, 0.346, 0.638, 0.28),
    ("table6_1_row3", 1.0 / 3.0, 0.218, 0.398, 0.18),
    ("table6_1_row4", 2.0 / (3.0 - math.sqrt(5.0)), 1.92, 3.24, 1.6),
    ("table6_1_row5", (SQRT2 - 1.0) ** -2, 3.0, (SQRT2 - 1.0) ** -2, 2.0),
    ("table6_1_row6", 0.5, 0.47, 0.85, 0.47),
    ("table6_1_row7", 4.0, 2.0, 4.0, 1.0),
    ("table6_1_row8", 1.0 / (6.0 - SQRT33), 2.11, 4.21, 1.56),
]


# the stated test sequences v of Table 7.1, at the rows' default parameters
_V71 = {
    "table7_1_row1": _f(lambda i: np.full(np.shape(i), math.sqrt(0.5))),     # sqrt(a/b)
    "table7_1_row2": _f(lambda i: (i + 1.0) / (2.0 * i)),
    "table7_1_row3": _f(lambda i: (i + 1.0) * (i + 1.0) / (i * (2.0 * (i + 1.0) + 1.0))),
    "table7_1_row4": _f(lambda i: (i + 1.0) / (2.0 * i + 4.0 + SQRT2)
                        * (1.0 + 2.0 * (i + SQRT2) / (i * (i + 2.0 * SQRT2 - 1.0)))),
    "table7_1_row5": _f(lambda i: (math.sqrt(5.0) + 1.0) / (2.0 * i)),    # sqrt(a^2 + 4ab)
    "table7_1_row6": _f(lambda i: math.sqrt(6.0) / np.minimum(i, 3.0)),   # sqrt(ak/b), k = 3
    "table7_1_row7": _f(lambda i: 1.0 / i),
    "table7_1_row8": _f(lambda i: (2.0 * i + 1.0) / (2.0 * (i + 1.0))),
    "table7_1_row9": _f(lambda i: (SQRT33 + (-1.0) ** i) / 8.0),
}


TABLE71_ROWS = [
    # name, exact lambda_0 (at default parameters), first index where the
    # stated v-sequence satisfies the R-identity exactly
    ("table7_1_row1", (1.0 - SQRT2) ** 2, 2),
    ("table7_1_row2", 1.0, 1),
    ("table7_1_row3", 2.0, 1),
    ("table7_1_row4", 3.0, 1),
    ("table7_1_row5", 1.0 - (math.sqrt(5.0) - 1.0) / 2.0, 1),
    ("table7_1_row6", (math.sqrt(3.0) - SQRT2) ** 2, 4),
    ("table7_1_row7", 2.0, 1),
    ("table7_1_row8", 0.25, None),  # stated v is only asymptotically sharp
    ("table7_1_row9", 6.0 - SQRT33, 2),
]


def table71_v(name):
    """The reference test sequence v attached to a benchmark row."""
    try:
        return _V71[name]
    except KeyError:
        raise UnknownModel(name) from None

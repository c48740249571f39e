"""Closed-form tail hints: the array protocol and a reference for every value.

Each catalog ``*_tail`` hint and each hint of a forward dual is called once on
the whole default window and once per index; the two must agree bit for bit.
The closed forms are checked against mpmath sums of the weight series, whose
terms are checked against ``build_weights`` first, and the Hurwitz zeta
kernel behind the p-series hints against mpmath's zeta.
"""

import dataclasses
import random

import mpmath
import numpy as np
import pytest

from bdspec import duality
from bdspec.catalog import _hurwitz, catalog, catalog_names
from bdspec.model import DEFAULT_NMAX, build_weights

mpf = mpmath.mpf


def _hinted():
    """(model, key) for every callable tail hint of the catalog and its duals."""
    out = []
    for name in catalog_names():
        model = catalog(name)
        duals = []
        if model.boundary.origin_reflecting and model.hi is None:
            duals = [duality.dualize(model, "forward_5_1").dual]
        for m in [model] + duals:
            out += [(m, k) for k, v in (m.tail_hint or {}).items()
                    if k.endswith("_tail") and callable(v)]
    return out


HINTED = _hinted()


@pytest.mark.parametrize("model,key", HINTED,
                         ids=["%s-%s" % (m.name, k) for m, k in HINTED])
def test_array_call_equals_scalar_calls(model, key):
    hint = model.hint(key)
    n = np.arange(model.base, model.base + DEFAULT_NMAX)
    got = hint(n)
    assert isinstance(got, np.ndarray) and got.shape == n.shape
    one = [hint(int(k)) for k in n]
    assert all(isinstance(v, float) for v in one)
    assert np.array_equal(got, np.asarray(one), equal_nan=True)


# the weight series term of every closed form, as an mpmath function of k
# (default parameters): mu_k for mu_tail, 1/(mu_k b_k) for nu_b_tail
TERMS = {
    ("const_nd", "nu_b_tail"): lambda k: mpf(0.5) ** k / 2,
    ("linear_nd", "nu_b_tail"): lambda k: mpf(2) ** (-k - 1) / (k + 1),
    ("quadratic_nd", "nu_b_tail"): lambda k: 1 / mpf(k + 1) ** 2,
    ("ex8_8", "nu_b_tail"): lambda k: 1 / mpf(k + 1) ** 3,
    ("ex5_3", "mu_tail"): lambda k: mpf(0.25) ** (k - 1),
    ("ex5_5", "mu_tail"): lambda k: 1 / mpf(k) ** 2,
    ("ex6_7", "mu_tail"): lambda k: mpf(0.25) ** k,
    ("ex9_18", "mu_tail"): lambda k: mpf(1) if k == 1 else 5 * mpf(2) ** -k,
    ("table6_1_row1", "mu_tail"): lambda k: mpf(2) ** -k,
    ("table6_1_row5", "mu_tail"): lambda k: mpf(1) if k == 0 else mpf(2) ** (1 - k),
    ("table6_1_row7", "mu_tail"): lambda k: mpf(1) if k == 0 else 1 / mpf(k) ** 2,
}


def _dual_term(name, key, term):
    """The dual's term: mu^_k = b_0 nu_{k-1} and nu^_k = mu_k / b_0."""
    b0 = float(catalog(name).birth(np.array([0]))[0])
    if key == "nu_b_tail":
        return "mu_tail", lambda k: b0 * term(k - 1)
    return "nu_b_tail", lambda k: term(k) / b0


DUAL_TERMS = dict(((name + "_dual", dkey), t) for (name, key), term in TERMS.items()
                  if catalog(name).boundary.origin_reflecting
                  for dkey, t in [_dual_term(name, key, term)])
REFERENCED = [(m, k) for m, k in HINTED if (m.name, k) in {**TERMS, **DUAL_TERMS}]


def test_every_closed_form_has_a_reference():
    closed = {(m.name, k) for m, k in HINTED
              if not m.name.endswith("_dual") or (m.name, k) in DUAL_TERMS}
    assert closed == set(TERMS) | set(DUAL_TERMS)


def _tail_reference(term, n):
    """sum_{k >= n} term(k) by mpmath, relative to the first term (nsum stops
    on an absolute tolerance)."""
    with mpmath.workdps(30):
        t0 = term(n)
        return t0 * mpmath.nsum(lambda j: term(n + j) / t0, [0, mpmath.inf],
                                method="r+s+e")


@pytest.mark.parametrize("model,key", REFERENCED,
                         ids=["%s-%s" % (m.name, k) for m, k in REFERENCED])
def test_hint_matches_mpmath_sum(model, key):
    term = {**TERMS, **DUAL_TERMS}[(model.name, key)]
    ws = build_weights(model, 50)
    series = ws.mu if key == "mu_tail" else ws.nu_b
    for k in range(len(series)):
        assert series[k] == pytest.approx(float(term(model.base + k)), rel=1e-13)
    for n in (model.base, 10, 1000, 10 ** 5):
        ref = float(_tail_reference(term, n))
        # below the normal range a double has no relative precision left
        assert model.hint(key)(n) == pytest.approx(ref, rel=1e-13,
                                                   abs=np.finfo(float).tiny)


def test_window_tails_are_the_hint_on_the_window():
    model = catalog("quadratic_nd")
    ws = build_weights(model, 5000)
    tails = ws.nu_tails("b")
    assert tails is ws.nu_tails("b")           # cached: one evaluation per window
    assert np.array_equal(tails, model.hint("nu_b_tail")(np.arange(ws.base, ws.top + 1)))
    assert ws.nu_tail(7, "b") == tails[7]
    assert np.array_equal(ws.nu_tail(np.array([0, 7, 4999]), "b"), tails[[0, 7, 4999]])


def test_window_tails_without_hint_use_suffix_sums():
    hinted = catalog("table6_1_row1")
    bare = dataclasses.replace(hinted, tail_hint=None)
    ws = build_weights(bare, 300)
    tails = ws.mu_tails()
    assert len(tails) == len(ws)
    assert [ws.mu_tail(n) for n in range(ws.base, ws.top + 1)] == list(tails)
    idx = np.array([0, 5, 299, 400])
    assert np.array_equal(ws.mu_tail(idx), np.asarray([ws.mu_tail(int(n)) for n in idx]))
    assert tails == pytest.approx(hinted.hint("mu_tail")(np.arange(300)), rel=1e-12)


# the Hurwitz kernel behind the p-series hints: q in 1..300 and 200 geometric
# points up to 10^7; s from 1.01 to 30 and five gammas drawn as the benchmark
# draws ex8_8's (uniform in [2, 5], 3 decimals)
ZETA_QS = np.concatenate([np.arange(1.0, 301.0),
                          np.unique(np.round(np.geomspace(301.0, 1e7, 200)))])
DRAWN_GAMMAS = [round(random.Random(seed).uniform(2.0, 5.0), 3) for seed in range(5)]


def _zeta_reference(s, dps):
    """zeta(s, q) at every ZETA_QS point by mpmath at ``dps`` digits, the
    q <= 300 values by adding k^-s onto zeta(s, 301) term by term."""
    with mpmath.workdps(dps):
        S = mpf(s)
        far = [mpmath.zeta(S, int(q)) for q in ZETA_QS[300:]]
        near, acc = [], far[0]
        for k in range(300, 0, -1):
            acc += mpf(k) ** -S
            near.append(acc)
        return np.array([float(v) for v in near[::-1] + far])


def _ulps(x, y):
    return np.abs(np.asarray(x, dtype=float).view(np.int64)
                  - np.asarray(y, dtype=float).view(np.int64))


@pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.0, 16.0, 30.0] + DRAWN_GAMMAS)
def test_hurwitz_is_within_4_ulps_of_mpmath(s):
    assert len(ZETA_QS) == 500 and ZETA_QS[300] == 301.0
    ref = _zeta_reference(s, 200)
    # mpmath stops on an absolute tolerance, so a low precision can be far
    # off (zeta(30, 2382) at 50 and 100 digits); the reference must not move
    assert np.array_equal(ref, _zeta_reference(s, 220))
    assert _ulps(_hurwitz(s, ZETA_QS), ref).max() <= 4


def test_hurwitz_window_equals_scalar_calls():
    q = np.arange(1.0, 100001.0)
    window = _hurwitz(DRAWN_GAMMAS[0], q)
    assert np.array_equal(window, [float(_hurwitz(DRAWN_GAMMAS[0], x)) for x in q])
    assert _hurwitz(2.0, 1.0) == 1.6449340668482264 == np.pi ** 2 / 6

"""The one certainty rule: a bound is certified iff the states it was computed
on are the whole of a finite chain, or its value is a proven divergence."""

import copy
import math
import pickle

import numpy as np
import pytest

from bdspec import approx, estimates, killing, oracle, poincare
from bdspec.catalog import catalog, catalog_names
from bdspec.errors import BdspecError
from bdspec.model import BoundaryCode, ChainModel, build_weights
from bdspec.series import Certainty, Labelled


def _finite_chain(code, n, rng):
    """A finite chain with rates uniform in [0.2, 3] on n states."""
    base = 0 if code.origin_reflecting else 1
    a, b = rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n)

    def pick(arr):
        return lambda i: arr[np.clip(np.asarray(i, dtype=np.int64) - base, 0, n - 1)]

    return ChainModel(code, base, base + n - 1, pick(b), pick(a),
                      name="%s_n%d" % (code.value, n))


def _report(r):
    return (r.value,), r.certified


def _labelled(r):
    return r, r.certified


def _spectral(r):
    return (r.lam,), r.certified


def _trace(r):
    return r.values, r.certified


def _killing(kb):
    return (kb.lower, kb.xi), kb.certified


def _bounds(model):
    """(call, values, certified) for every bound the library states on
    ``model``; a call that refuses the chain states none."""
    code, out = model.boundary, []
    m = max(2, 300 if model.hi is None else model.hi)

    def add(name, fn, read):
        try:
            values, certified = read(fn())
        except BdspecError:
            return
        out.append((name, tuple(values), certified))

    if code is BoundaryCode.DD_BILATERAL:
        add("kappa_bilateral", lambda: estimates.kappa_bilateral(model)[1].delta_like, _report)
        add("sobolev_constant",
            lambda: poincare.sobolev_constant(model, 2.0, "bilateral_8_4").extremum, _report)
        add("principal_eigen", lambda: oracle.principal_eigen(model, 100), _spectral)
        return out
    add("basic_bracket", lambda: estimates.basic_bracket(model).bracket.delta_like, _report)
    add("naive_upper", lambda: estimates.naive_upper(model), _report)
    add("principal_eigen", lambda: oracle.principal_eigen(model, m), _spectral)
    if code is BoundaryCode.ND:
        add("delta_nd", lambda: estimates.delta_nd(model)[1].delta_like, _report)
        add("delta_seq_nd", lambda: approx.delta_seq_nd(model, 3), _trace)
        add("delta_prime_seq_nd", lambda: approx.delta_prime_seq_nd(model, 3), _trace)
    if code is BoundaryCode.DN:
        add("delta_dn", lambda: estimates.delta_dn(model)[1].delta_like, _report)
    if code in (BoundaryCode.ND, BoundaryCode.DN):
        add("first_step_closed", lambda: approx.first_step_closed(model), _labelled)
    if code in (BoundaryCode.ND, BoundaryCode.NN):
        add("sobolev_constant",
            lambda: poincare.sobolev_constant(model, 2.0, "neumann_8_9").extremum, _report)
    if code is BoundaryCode.NN:
        add("kappa_nn", lambda: estimates.kappa_nn(model)[-1].delta_like, _report)
        add("eta1_closed", lambda: approx.eta1_closed(model), _labelled)
        add("eta_seq_nn", lambda: approx.eta_seq_nn(model, 3), _trace)
    if code in (BoundaryCode.DN, BoundaryCode.DD):
        add("shooting_rate", lambda: oracle.shooting_rate(model, m + 1), _spectral)
    if code is BoundaryCode.DD:
        add("kappa_dd", lambda: estimates.kappa_dd(model)[-1].delta_like, _report)
        add("sobolev_constant",
            lambda: poincare.sobolev_constant(model, 2.0, "half_line_8_6").extremum, _report)
        add("upper_9_9", lambda: killing.upper_9_9(model), lambda r: (r[:1], r.certified))
        add("corollary_9_9", lambda: killing.corollary_9_9(model), _killing)
        # a one-state window (ex7_5_1) breaks dd_first_step: it raises IndexError
        if model.hi != 1:
            add("dd_first_step", lambda: approx.dd_first_step(model, window=4096), _labelled)
        add("sqrt_test_bound", lambda: killing.sqrt_test_bound(model), _killing)
        add("r_operator_bounds",
            lambda: killing.r_operator_bounds(model, lambda i: np.full(np.shape(i), 0.9)),
            lambda r: (r[:2], r[2]))
    return out


FINITE_CATALOG = [name for name in catalog_names()
                  if catalog(name).hi is not None and catalog(name).killing is None]
INFINITE_CATALOG = [name for name in catalog_names() if catalog(name).hi is None]
SEEDED = [(code, 300 + 4 * k + j) for j, code in enumerate(
    (BoundaryCode.ND, BoundaryCode.NN, BoundaryCode.DN, BoundaryCode.DD)) for k in range(5)]


@pytest.mark.parametrize("name", FINITE_CATALOG)
def test_every_bound_on_a_finite_catalog_chain_is_certified(name):
    bounds = _bounds(catalog(name))
    assert bounds
    assert [b for b in bounds if b[2] is not Certainty.CERTIFIED] == []


@pytest.mark.parametrize("code,seed", SEEDED, ids=lambda x: str(getattr(x, "value", x)))
def test_every_bound_on_a_seeded_finite_chain_is_certified(code, seed):
    rng = np.random.default_rng(seed)
    bounds = _bounds(_finite_chain(code, int(rng.integers(3, 65)), rng))
    assert [b for b in bounds if b[2] is not Certainty.CERTIFIED] == []


@pytest.mark.parametrize("name", INFINITE_CATALOG)
def test_infinite_chain_bounds_are_window_stopped_unless_divergent(name):
    for call, values, certified in _bounds(catalog(name)):
        if certified is Certainty.CERTIFIED:
            assert math.inf in values, (call, values)


def test_a_finite_chain_past_its_float_safe_window_is_window_stopped():
    # b = 2, a = 1 on 500 states: the weights 2^i leave the float-safe range
    # (log mu <= 280) at state 404, so the windows stop short of the top
    model = ChainModel(BoundaryCode.ND, 0, 499, lambda i: np.full(np.shape(i), 2.0),
                       lambda i: np.full(np.shape(i), 1.0))
    assert build_weights(model).certainty() is Certainty.CERTIFIED
    assert build_weights(model).certainty(404) is Certainty.WINDOW_STOPPED
    assert approx.first_step_closed(model).certified is Certainty.WINDOW_STOPPED
    assert approx.delta_seq_nd(model, 2).certified is Certainty.WINDOW_STOPPED


def test_labelled_tuples_unpack_and_copy_with_their_label():
    pair = Labelled((1.5, 2.5), Certainty.WINDOW_STOPPED)
    one, two = pair
    assert (one, two) == (1.5, 2.5) and pair == (1.5, 2.5)
    assert all(isinstance(x, float) for x in pair)
    for clone in (copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
        assert clone == pair and clone.certified is Certainty.WINDOW_STOPPED

import math

import numpy as np
import pytest

from bdspec import estimates, poincare
from bdspec.catalog import catalog, catalog_names
from bdspec.errors import WrongVariant
from bdspec.model import BoundaryCode, ChainModel


def test_neumann_p2_equals_hardy_constant():
    for name, kwargs in (("const_nd", {"a": 1.0, "b": 2.0}), ("quadratic_nd", {}),
                         ("linear_nd", {"gamma": 1.0})):
        model = catalog(name, **kwargs)
        sc = poincare.sobolev_constant(model, 2.0, "neumann_8_9")
        d = estimates.delta_nd(model)[0]
        assert sc.B == pytest.approx(d, rel=1e-10)
        assert sc.bracket == (sc.B, 4.0 * sc.B)


def test_half_line_p2_equals_kappa_quantity():
    names = [n for n in catalog_names() if catalog(n).boundary is BoundaryCode.DD
             and catalog(n).killing is None]
    assert len(names) == 13
    for name in names:
        model = catalog(name)
        sc = poincare.sobolev_constant(model, 2.0, "half_line_8_6")
        k = estimates.kappa_dd(model)[0]
        assert sc.B == k, name


def test_bilateral_p2_equals_kappa_bilateral():
    model = catalog("ex8_9")
    sc = poincare.sobolev_constant(model, 2.0, "bilateral_8_4", half_window=48)
    k = estimates.kappa_bilateral(model, half_window=48)[0]
    assert sc.B == pytest.approx(k, rel=1e-12)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0, 5.0, 8.0])
def test_ex8_8_finiteness_boundary(gamma):
    # B is finite iff p >= p*: just below p* the objective still grows like
    # n^eps, eps > 0, which the window's increments show
    p_star = 2.0 * (1.0 + 2.0 / (gamma - 1.0))
    model = catalog("ex8_8", gamma=gamma)
    for p in (0.99 * p_star, p_star, 1.01 * p_star, p_star + 0.5):
        assert math.isfinite(poincare.sobolev_constant(model, p, "neumann_8_9").B) \
            == (p >= p_star), p
    if p_star - 0.5 > 2.0:
        assert not math.isfinite(poincare.sobolev_constant(model, p_star - 0.5, "neumann_8_9").B)


def test_ex8_8_p2_divergent():
    sc = poincare.sobolev_constant(catalog("ex8_8", gamma=3.0), 2.0, "neumann_8_9")
    assert not math.isfinite(sc.B)


def test_objective_nonincreasing_in_p():
    # per fixed block the (tail * prefix^(2/p)) objective shrinks as p grows
    model = catalog("ex8_8", gamma=3.0)
    b6 = poincare.sobolev_constant(model, 6.0, "neumann_8_9").B
    b8 = poincare.sobolev_constant(model, 8.0, "neumann_8_9").B
    assert b8 <= b6 + 1e-12


def test_ex8_9_split_constants():
    bl, br, bb, S = poincare.b_constants_split(catalog("ex8_9"), 2.0, half_window=40)
    assert bl == math.inf and br == math.inf
    assert math.isfinite(bb)
    assert math.isfinite(S)


def test_bilateral_split_leaves_the_log_domain_by_exp():
    # a drift b = e^1.27 > a = 1: log B_L = 650.8993, past any fixed cut
    # below the overflow threshold, yet B_L is a float
    drift = ChainModel(BoundaryCode.DD_BILATERAL, None, None,
                       lambda i: np.full(np.shape(i), math.exp(1.27)), np.ones_like)
    assert poincare.b_constants_split(drift, 2.0)[0] == pytest.approx(
        math.exp(650.8993195295578), rel=1e-12, abs=0)


INF = math.inf
EX8_9 = {  # kappa (7.11), (7.12); B at p = 2, 3; the split (B_L, B_R, B, S) at p = 2, 3
    8: (1.0429942597397284, INF, 1.0429942597397284, 0.5884620583381314,
        (1.1052660619328563e+28, 1.1052660619328563e+28, 1.7743489544274482,
         1.7726372048266519),
        (6.005066806741885e+18, 6.005066806741885e+18, 1.0431297382390434,
         1.7726372048266519)),
    256: (1.0429942597397284, INF, 1.0429942597397284, 0.5884620583381314,
          (INF, INF, 1.7743489544274482, 1.7726372048266519),
          (INF, INF, 1.0431297382390434, 1.7726372048266519)),
}
EX8_9[1000] = EX8_9[256]


@pytest.mark.parametrize("half_window", sorted(EX8_9))
def test_ex8_9_bilateral_values(half_window):
    # mu_i = e^(i^2) by the log recurrence on the clipped death rates: bit
    # for bit the values that the closed form log mu_i = i^2 gives
    model, w = catalog("ex8_9"), half_window
    got = (estimates.kappa_bilateral(model, "DD_7_11", half_window=w)[0],
           estimates.kappa_bilateral(model, "NN_7_12", half_window=w)[0],
           *(poincare.sobolev_constant(model, p, "bilateral_8_4", half_window=w).B
             for p in (2.0, 3.0)),
           *(poincare.b_constants_split(model, p, half_window=w) for p in (2.0, 3.0)))
    assert repr(got) == repr(EX8_9[half_window])


def test_half_line_split_sandwich():
    for name in ("ex7_6_1", "ex7_5_1"):
        model = catalog(name)
        bl, br, bb, S = poincare.b_constants_split(model, 2.0)
        sc = poincare.sobolev_constant(model, 2.0, "half_line_8_6")
        assert sc.B <= min(bl, br) + 1e-12
        a1 = float(model.death(1))
        lower = (1.0 if not math.isfinite(S) else 0.0) + \
            (0.0 if not math.isfinite(S) else 1.0 / (a1 * S))
        # Corollary-style sandwich: B >= (1_{S=inf} + 1/(a_1 S)) * (B_L ^ B_R)
        assert sc.B >= lower * min(bl, br) - 1e-12
    # ex7_5_1: the reciprocal death series diverges (S = inf), so B = B_L ^ B_R,
    # which is kappa = 1/2 there
    assert not math.isfinite(S)
    assert bb == min(bl, br) == sc.B == 0.5


def test_recurrent_blowup():
    walk = catalog("symmetric_nn")
    assert poincare.recurrent_blowup_check(walk, 2.0) == "blowup"
    assert poincare.recurrent_blowup_check(catalog("const_nd", a=1.0, b=2.0), 2.0) \
        == "not_applicable"


def test_variant_guards():
    with pytest.raises(WrongVariant):
        poincare.sobolev_constant(catalog("const_nd"), 1.5, "neumann_8_9")
    with pytest.raises(WrongVariant):
        poincare.sobolev_constant(catalog("const_nd"), 2.0, "half_line_8_6")
    with pytest.raises(WrongVariant):
        poincare.sobolev_constant(catalog("ex7_6_1"), 2.0, "bilateral_8_4")


def test_bracket_of_an_infinite_constant():
    # symmetric_nn has sum(mu) = inf: the Hardy-type constant is infinite
    sc = poincare.sobolev_constant(catalog("symmetric_nn"), 2.0, "neumann_8_9")
    assert sc.B == math.inf and sc.bracket == (math.inf, math.inf)

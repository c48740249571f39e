import math

import pytest

from bdspec import estimates, poincare
from bdspec.catalog import catalog, catalog_names
from bdspec.errors import WrongVariant
from bdspec.model import BoundaryCode


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


@pytest.mark.parametrize("gamma", [2.0, 3.0, 5.0])
def test_ex8_8_finiteness_boundary(gamma):
    p_star = 2.0 * (1.0 + 2.0 / (gamma - 1.0))
    model = catalog("ex8_8", gamma=gamma)
    at = poincare.sobolev_constant(model, p_star, "neumann_8_9")
    above = poincare.sobolev_constant(model, p_star + 0.5, "neumann_8_9")
    below = poincare.sobolev_constant(model, max(2.0, p_star - 0.5), "neumann_8_9")
    assert math.isfinite(at.B)
    assert math.isfinite(above.B)
    if p_star - 0.5 > 2.0:
        assert not math.isfinite(below.B)


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


def test_half_line_split_sandwich():
    for name in ("ex7_6_1", "ex7_5_1"):
        model = catalog(name)
        bl, br, bb, S = poincare.b_constants_split(model, 2.0)
        sc = poincare.sobolev_constant(model, 2.0, "half_line_8_6")
        assert sc.B <= min(bl, br) + 1e-12
        a1 = float(model.death(1))
        lower = (1.0 if not math.isfinite(S) else 0.0) + \
            (0.0 if not math.isfinite(S) else 1.0 / (a1 * S))
        assert sc.B >= lower * min(bl, br) * 0 + sc.B * 0 + lower * bb * 0 + 0  # see below
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

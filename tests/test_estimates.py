import math

import numpy as np
import pytest

from bdspec import estimates, poincare
from bdspec import model as model_mod
from bdspec.catalog import catalog, catalog_names
from bdspec.errors import NotErgodic, WrongBoundary
from bdspec.model import BoundaryCode, ChainModel, build_weights
from bdspec.series import Certainty

SQRT2 = math.sqrt(2.0)


def test_delta_nd_const_exact():
    d, br = estimates.delta_nd(catalog("const_nd", a=1.0, b=2.0))
    assert d == 2.0
    assert br.lower == 0.125 and br.upper == 0.5
    assert br.upper / br.lower == 4.0


def test_delta_nd_linear_and_quartic():
    d, _ = estimates.delta_nd(catalog("linear_nd", gamma=1.0))
    assert d == pytest.approx(math.log(2.0), abs=1e-12)
    d, _ = estimates.delta_nd(catalog("quartic_nd"))
    assert d == pytest.approx(1.83, abs=0.01)


def test_delta_nd_recurrent_degenerates():
    d, br = estimates.delta_nd(catalog("const_nd", a=1.0, b=1.0))
    assert d == math.inf and br.lower == 0.0 and br.upper == 0.0


def test_delta_nd_wrong_boundary():
    with pytest.raises(WrongBoundary):
        estimates.delta_nd(catalog("ex5_3"))


def test_delta_dn_examples():
    d, br = estimates.delta_dn(catalog("ex5_3", a=4.0, b=1.0))
    assert d == pytest.approx(4.0 / 9.0, rel=1e-12)
    # divergent total weight: rate zero verdict
    d, br = estimates.delta_dn(catalog("const_dn", a=1.0, b=2.0))
    assert d == math.inf and br.degenerate
    d, br = estimates.delta_dn(catalog("ex5_5"))
    assert 1.0 <= d <= 2.0
    assert br.lower <= 0.25 <= br.upper


@pytest.mark.parametrize("name,kap,tol", [
    ("table6_1_row1", 2.0 / 3.0, 1e-12),
    ("table6_1_row7", 1.0, 2e-2),
    ("ex6_11", 0.4856, 5e-4),
])
def test_kappa_nn_values(name, kap, tol):
    k, dl, dr, br = estimates.kappa_nn(catalog(name))
    assert k == pytest.approx(kap, abs=tol)
    assert min(dl, dr) >= k - 1e-12  # sandwich upper part


def test_kappa_nn_not_ergodic():
    with pytest.raises(NotErgodic):
        estimates.kappa_nn(catalog("symmetric_nn"))


KAPPA_CHAINS = [name for name in catalog_names()
                if catalog(name).boundary in (BoundaryCode.NN, BoundaryCode.DD)
                and catalog(name).killing is None and name != "symmetric_nn"]


def _hex(*values):
    return [float.hex(float(v)) for v in values]


@pytest.mark.parametrize("name", KAPPA_CHAINS)
def test_kappa_nn_and_kappa_dd_are_fields_of_basic_bracket(name):
    # bit for bit: kappa, delta_L = delta^(4.4), delta_R = delta^(3.1) and the
    # bracket of basic_bracket, which are the kappa scan and the two suprema
    # on the chain's weights
    model = catalog(name)
    rep = estimates.basic_bracket(model)
    if model.boundary is BoundaryCode.NN:
        kappa, dl, dr, br = estimates.kappa_nn(model)
    else:
        kappa, dl, dr, S, br = estimates.kappa_dd(model)
        assert _hex(S) == _hex(build_weights(model, 10 ** 5).exit_mass)
    assert _hex(kappa, dl, dr) == _hex(rep.kappa, rep.delta_4_4, rep.delta_3_1)
    assert br == rep.bracket
    ws = build_weights(model, 10 ** 5)
    ref, scan = estimates._kappa(ws, model.boundary.origin_reflecting)
    assert _hex(kappa, dl, dr) == _hex(ref, estimates._delta_sup(ws, "4_4").value,
                                       estimates._delta_sup(ws, "3_1").value)
    assert br == estimates._bracket_from_constant(ref, rep.method, scan)


def test_kappa_nn_sandwich_lower():
    for name in ("table6_1_row1", "table6_1_row5", "ex6_7"):
        model = catalog(name)
        k, dl, dr, _ = estimates.kappa_nn(model)
        from bdspec.model import build_weights
        Z = build_weights(model, 2000).mu_total.value
        assert k >= dl / Z - 1e-9


def test_kappa_dd_ex7_6_1():
    k, dl, dr, S, br = estimates.kappa_dd(catalog("ex7_6_1"))
    assert k == pytest.approx(3.0 / 7.0, rel=1e-12)
    assert S == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert min(dl, dr) >= k
    assert k >= (1.0 / (1.0 * S)) * min(dl, dr) - 1e-12  # a_1 = 1 here
    assert br.lower == pytest.approx(k / 4 / k * 0.25 / k * k, abs=1)  # bracket sanity
    assert br.lower <= 2.0 <= br.upper  # lambda_0 = 2 for this chain


@pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 1.0])
def test_kappa_dd_ex7_6_2_formula(eps):
    k = estimates.kappa_dd(catalog("ex7_6_2", eps=eps))[0]
    lam0 = 2.0 - eps
    expect = 1.0 / lam0 - min(1.0 / (8 + 2 * eps - 3 * eps ** 2),
                              eps ** 2 / (8 - 4 * eps ** 2 + eps ** 3))
    assert k == pytest.approx(expect, rel=1e-12)


def test_kappa_dd_single_state():
    k = estimates.kappa_dd(catalog("ex7_5_1", c=2.5))[0]
    assert k == pytest.approx(1.0 / 2.5, rel=1e-12)


def test_kappa_bilateral_halfline_reduction():
    mdd = catalog("table7_1_row7")
    k_dd = estimates.kappa_dd(mdd)[0]
    mb = ChainModel(BoundaryCode.DD_BILATERAL, 1, None, mdd.birth, mdd.death)
    k_b = estimates.kappa_bilateral(mb, half_window=600)[0]
    assert k_b == pytest.approx(k_dd, rel=1e-12)


def test_kappa_bilateral_ex8_9_finite():
    k, br = estimates.kappa_bilateral(catalog("ex8_9"), half_window=60)
    assert math.isfinite(k) and k == pytest.approx(1.0429942597397284, rel=1e-9)


def test_kappa_bilateral_recurrent_degenerate():
    m = ChainModel(BoundaryCode.DD_BILATERAL, None, None,
                   lambda i: np.ones(np.shape(i)), lambda i: np.ones(np.shape(i)))
    k, br = estimates.kappa_bilateral(m, half_window=128)
    assert k == math.inf and br.lower == 0.0 and br.upper == 0.0


def test_kappa_bilateral_of_a_chain_held_at_its_middle():
    # rates e^10 toward 0 on both sides: mu decays like e^(-10|i|) and the nu
    # sums explode at both ends, whose exits the chain never reaches, so the
    # constant's reciprocal underflows and the rate is 0
    pull = math.exp(10.0)
    m = ChainModel(BoundaryCode.DD_BILATERAL, None, None,
                   lambda i: np.where(np.asarray(i) < 0, pull, 1.0),
                   lambda i: np.where(np.asarray(i) > 0, pull, 1.0))
    k, br = estimates.kappa_bilateral(m)
    assert k == math.inf and (br.lower, br.upper) == (0.0, 0.0)
    assert br.delta_like.certified is Certainty.WINDOW_STOPPED


def _weight_bump(lo=None, hi=None):
    """Rates e^100 that raise mu by e^800 over the states 0-8 and bring it
    back over 9-16: the exp of (7.11)'s log infimum underflows, so kappa = inf."""
    big = math.exp(100.0)
    return ChainModel(BoundaryCode.DD_BILATERAL, lo, hi,
                      lambda i: np.where((i >= 0) & (i <= 7), big, 1.0),
                      lambda i: np.where((i >= 9) & (i <= 16), big, 1.0))


@pytest.mark.parametrize("model,half_window,span", [
    (ChainModel(BoundaryCode.DD_BILATERAL, None, None, np.ones_like, np.ones_like), 128,
     (-128, 128)),
    (_weight_bump(), 256, (-256, 256)),
    (_weight_bump(-20, 30), 256, (-20, 30)),
], ids=["recurrent", "bump", "finite_bump"])
def test_a_degenerate_kappa_bilateral_reports_zero_on_its_scan(model, half_window, span):
    # kappa = inf, so the report's value 1/kappa is 0 and its span is the
    # window scanned, the chain's own range where it is narrower
    k, br = estimates.kappa_bilateral(model, half_window=half_window)
    assert k == math.inf and (br.lower, br.upper) == (0.0, 0.0)
    rep = br.delta_like
    assert rep.value == 0.0 and rep.scanned == span
    assert rep.certified is Certainty.WINDOW_STOPPED


def test_basic_bracket_dispatch():
    rep = estimates.basic_bracket(catalog("const_nd", a=1.0, b=2.0))
    assert rep.method == "kappa_6_13" and rep.positive is True
    assert rep.criterion == "delta_3_1"
    assert math.isfinite(rep.delta_3_1)
    rep = estimates.basic_bracket(catalog("table6_1_row1"))
    assert rep.positive is True and rep.criterion == "delta_4_4"
    rep = estimates.basic_bracket(catalog("symmetric_nn"))
    assert rep.positive is False
    assert rep.bracket.lower == 0.0 and rep.bracket.upper == 0.0
    rep = estimates.basic_bracket(catalog("ex7_6_1"))
    assert rep.method == "kappa_7_5" and rep.kappa == pytest.approx(3.0 / 7.0, rel=1e-12)


KILLING_FREE_HALF_LINE = [name for name in catalog_names()
                          if catalog(name).killing is None
                          and catalog(name).boundary is not BoundaryCode.DD_BILATERAL]


@pytest.mark.parametrize("name", KILLING_FREE_HALF_LINE)
def test_one_index_routes_agree_at_p2(name):
    """Every route to delta^(3.1) and to delta^(4.4) gives the same float; at
    p = 2 the L^(p/2) constants B of section 8 are these deltas."""
    model = catalog(name)
    ws = build_weights(model)
    basic = estimates.basic_bracket(model)
    d31, d44 = [basic.delta_3_1], [basic.delta_4_4]
    if model.boundary is BoundaryCode.ND:
        d31.append(estimates.delta_nd(model)[0])
    if model.boundary is BoundaryCode.DN:
        d44.append(estimates.delta_dn(model)[0])
    if model.boundary is BoundaryCode.NN and math.isfinite(ws.mu_total.value):
        _, dl, dr, _ = estimates.kappa_nn(model)
        d44.append(dl)
        d31.append(dr)
    if model.boundary is BoundaryCode.DD:
        _, dl, dr, _, _ = estimates.kappa_dd(model)
        d44.append(dl)
        d31.append(dr)
    if model.boundary.origin_reflecting and model.base == 0:
        d31.append(poincare.sobolev_constant(model, 2.0, "neumann_8_9").B)
    if model.boundary is BoundaryCode.DD and model.base == 1:
        bl, br, _, _ = poincare.b_constants_split(model, 2.0)
        d44.append(bl)
        d31.append(br)
    assert d31 == [d31[0]] * len(d31)
    assert d44 == [d44[0]] * len(d44)


@pytest.mark.parametrize("gamma", [2.0, 3.0, 5.0])
def test_ex8_8_delta_3_1_diverges(gamma):
    """delta^(3.1)'s objective grows like n^2 on this zero-rate chain: no
    finite window value may stand for it."""
    model = catalog("ex8_8", gamma=gamma)
    d, br = estimates.delta_nd(model)
    assert d == math.inf and br.degenerate
    rep = estimates.basic_bracket(model)
    assert rep.positive is False
    assert (rep.bracket.lower, rep.bracket.upper) == (0.0, 0.0)


def test_delta_nd_scans_the_whole_window():
    model = catalog("const_nd", a=1.0, b=2.0)
    _, br = estimates.delta_nd(model)
    assert br.delta_like.scanned[1] == build_weights(model).top


def test_table7_1_row1_split_b_r_closed_form():
    """B_R = sup_m mu[1, m]^(2/p) nu_b[m, inf) with mu[1, m] = 2^m - 1 and
    nu_b[m, inf) = 2^(1-m): 2, approached as m -> inf, at p = 2 and
    3^(2/3) / 2, at m = 2, at p = 3."""
    model = catalog("table7_1_row1")
    B_L, B_R, B, _ = poincare.b_constants_split(model, 2.0)
    assert B_R == pytest.approx(2.0, rel=1e-15)
    # B = sup nu_a[1, n] nu_b[m, inf) mu[n, m] with nu_a[1, n] = 2 (1 - 2^-n) and
    # nu_b[m, inf) mu[n, m] = 2 - 2^(n-m): 4, above B_L ^ B_R = 2 since S = 2 is
    # finite; B_L = sup nu_a[1, n] mu[n, inf) is infinite (sum mu diverges)
    assert B == pytest.approx(4.0, rel=1e-12)
    assert B_L == math.inf
    assert poincare.b_constants_split(model, 3.0)[1] == pytest.approx(3.0 ** (2.0 / 3.0) / 2.0,
                                                                      rel=1e-15)


# 5-state bilateral chain with summable weights, checked by exhaustive scans
RATES_B = {-2: 1.0, -1: 2.0, 0: 1.5, 1: 0.7, 2: 1.2}
RATES_A = {-2: 0.9, -1: 1.1, 0: 2.2, 1: 1.3, 2: 0.8}


def _five_state():
    def birth(i):
        return np.asarray([RATES_B[int(k)] for k in np.atleast_1d(i)], dtype=float)

    def death(i):
        return np.asarray([RATES_A[int(k)] for k in np.atleast_1d(i)], dtype=float)

    model = ChainModel(BoundaryCode.DD_BILATERAL, -2, 2, birth, death)
    # linear-scale weights, normalized at state 0 as the library does
    idx = np.arange(-2, 3)
    mu = np.ones(5)
    for j in range(1, 5):
        mu[j] = mu[j - 1] * RATES_B[int(idx[j - 1])] / RATES_A[int(idx[j])]
    mu /= mu[2]
    nua = 1.0 / (mu * np.asarray([RATES_A[int(v)] for v in idx]))
    nub = 1.0 / (mu * np.asarray([RATES_B[int(v)] for v in idx]))
    return model, mu, nua, nub


def test_kappa_bilateral_nn_variant_matches_brute_force():
    m, mu, _, nub = _five_state()
    k, br = estimates.kappa_bilateral(m, "NN_7_12", half_window=8)
    # brute force over m < n with linear-scale weights
    best = math.inf
    for mi in range(5):
        for ni in range(mi + 1, 5):
            mid = nub[mi:ni].sum()
            val = (1.0 / mu[: mi + 1].sum() + 1.0 / mu[ni:].sum()) / mid
            best = min(best, val)
    assert k == pytest.approx(1.0 / best, rel=1e-12)


def test_kappa_bilateral_dd_variant_matches_brute_force():
    m, mu, nua, nub = _five_state()
    k, br = estimates.kappa_bilateral(m, "DD_7_11", half_window=8)
    best = math.inf
    for ni in range(5):
        for mi in range(ni, 5):
            val = (1.0 / nua[: ni + 1].sum() + 1.0 / nub[mi:].sum()) / mu[ni: mi + 1].sum()
            best = min(best, val)
    assert k == pytest.approx(1.0 / best, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_bilateral_split_matches_brute_force(p):
    m, mu, nua, nub = _five_state()
    bl, br, bb, S = poincare.b_constants_split(m, p, half_window=8)
    t = 2.0 / p
    B = max(nua[: ni + 1].sum() * nub[mi:].sum() * mu[ni: mi + 1].sum() ** t
            for ni in range(5) for mi in range(ni, 5))
    assert bb == pytest.approx(B, rel=1e-12)
    assert bl == pytest.approx(max(nua[: n + 1].sum() * mu[n:].sum() ** t for n in range(5)),
                               rel=1e-12)
    assert br == pytest.approx(max(nub[n:].sum() * mu[: n + 1].sum() ** t for n in range(5)),
                               rel=1e-12)
    assert S == pytest.approx(nua.sum(), rel=1e-12)


@pytest.mark.parametrize("name", ["table6_1_row7", "table6_1_row3", "table7_1_row8", "ex5_3"])
def test_basic_bracket_is_kept_with_its_weight_system(name):
    # kappa_nn / kappa_dd and a later basic_bracket on the same weight system
    # share one report object, equal to one made afresh on a new weight system
    model = catalog(name)
    first = {BoundaryCode.NN: estimates.kappa_nn, BoundaryCode.DD: estimates.kappa_dd,
             BoundaryCode.DN: estimates.delta_dn}[model.boundary](model)
    rep = estimates.basic_bracket(model)
    assert estimates.basic_bracket(model) is rep
    if model.boundary is not BoundaryCode.DN:
        assert first[-1] is rep.bracket and first[0] == rep.kappa
    ws = build_weights(model)
    assert ws._cache["basic_bracket"] is rep
    model_mod._held = model_mod._NONE
    fresh = estimates.basic_bracket(model)
    assert fresh is not rep and fresh == rep
    # a window of 4096 states is the same weight system where the weights
    # have saturated by state 2048, and another one elsewhere
    assert (estimates.basic_bracket(model, 4096) is fresh) == (len(ws) == 2048)


@pytest.mark.parametrize("name", ["quadratic_nd", "linear_nd", "ex5_3", "ex5_7"])
def test_delta_sup_reports_are_kept_with_their_weight_system(name):
    # delta_nd / delta_dn, then basic_bracket and (ND) the p = 2 neumann_8_9
    # constant read one report per (kind, s), equal bit for bit to one made
    # afresh on a new weight system
    model = catalog(name)
    kind, delta = (("3_1", estimates.delta_nd) if model.boundary is BoundaryCode.ND
                   else ("4_4", estimates.delta_dn))
    value, bracket = delta(model)
    ws = build_weights(model)
    rep = ws._cache[(kind, 1.0)]
    assert bracket.delta_like is rep and estimates._delta_sup(ws, kind) is rep
    assert getattr(estimates.basic_bracket(model), "delta_" + kind) == value
    if model.boundary is BoundaryCode.ND:
        assert poincare.sobolev_constant(model, 2.0, "neumann_8_9").extremum is rep
    model_mod._held = model_mod._NONE
    fresh_ws = build_weights(model)
    assert fresh_ws is not ws
    fresh = estimates._delta_sup(fresh_ws, kind)
    assert fresh is not rep and fresh == rep and fresh.value.hex() == rep.value.hex()

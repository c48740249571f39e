import math

import numpy as np
import pytest

from bdspec import estimates, poincare
from bdspec.catalog import catalog
from bdspec.errors import NotErgodic, WrongBoundary
from bdspec.model import BoundaryCode, ChainModel

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


def test_naive_upper():
    # min over i of a+b+c: attained at i=1 (b_1 + c_1 = 5/2), still >= lambda_0
    rep = estimates.naive_upper(catalog("ex9_18"))
    assert rep.value == pytest.approx(2.5, rel=1e-12)
    assert rep.value >= 5.0 / 6.0
    # reflecting origin: the total jump rate at 0 is b_0 = 2, below a + b
    rep = estimates.naive_upper(catalog("const_nd", a=1.0, b=2.0))
    assert rep.value == pytest.approx(2.0, rel=1e-12)
    decay = ChainModel(BoundaryCode.ND, 0, None,
                       lambda i: 1.0 / (np.asarray(i, float) + 1.0),
                       lambda i: 1.0 / (np.asarray(i, float) + 1.0))
    rep = estimates.naive_upper(decay)
    assert rep.value < 1e-3  # rate must be zero for vanishing total jump rates


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

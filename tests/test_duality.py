import math

import numpy as np
import pytest

from bdspec import duality, estimates
from bdspec.catalog import catalog
from bdspec.errors import DomainViolation, WrongShape
from bdspec.model import BoundaryCode, ChainModel, build_weights

ND_MODELS = [("const_nd", {"a": 1.0, "b": 2.0}), ("linear_nd", {"gamma": 1.0}),
             ("quadratic_nd", {}), ("quartic_nd", {})]
NN_MODELS = ["table6_1_row1", "table6_1_row5", "ex6_7", "ex6_11"]


def test_dualize_shapes_and_weights():
    pair = duality.dualize(catalog("const_nd", a=1.0, b=2.0))
    assert pair.dual.boundary is BoundaryCode.DN
    assert pair.weight_residual < 1e-12
    idx = np.arange(1, 6)
    assert np.allclose(pair.dual.death(idx), 2.0)   # a^_i = b_{i-1}
    assert np.allclose(pair.dual.birth(idx), 1.0)   # b^_i = a_i
    pair = duality.dualize(catalog("table6_1_row1"))
    assert pair.dual.boundary is BoundaryCode.DD
    assert pair.weight_residual < 1e-12


def test_dualize_inverse_and_roundtrip():
    model = catalog("table7_1_row7")
    pair = duality.dualize(model, "inverse_7_3")
    assert pair.dual.boundary is BoundaryCode.NN
    idx = np.arange(1, 8)
    assert np.allclose(pair.dual.birth(idx), model.death(idx + 1))
    assert np.allclose(pair.dual.death(idx), model.birth(idx))
    back = duality.dualize(pair.dual, "forward_5_1")
    assert np.allclose(back.dual.birth(idx), model.birth(idx))
    assert np.allclose(back.dual.death(idx), model.death(idx))


def test_dualize_finite_top_bookkeeping():
    # finite ND (absorbing past N): dual reflects at N' = N + 1
    b = np.array([2.0, 3.0, 1.5])
    a = np.array([0.0, 1.0, 2.0])
    model = ChainModel(BoundaryCode.ND, 0, 2,
                       lambda i: b[np.clip(np.asarray(i, dtype=np.int64), 0, 2)],
                       lambda i: a[np.clip(np.asarray(i, dtype=np.int64), 0, 2)])
    pair = duality.dualize(model)
    assert pair.n_prime == 3
    assert pair.dual.boundary is BoundaryCode.DN


def test_dualize_wrong_shape():
    with pytest.raises(WrongShape):
        duality.dualize(catalog("ex5_3"), "forward_5_1")
    with pytest.raises(WrongShape):
        duality.dualize(catalog("const_nd"), "inverse_7_3")


@pytest.mark.parametrize("name,kwargs", ND_MODELS)
def test_delta_equals_dual_delta(name, kwargs):
    model = catalog(name, **kwargs)
    d_primal = estimates.delta_nd(model)[0]
    d_dual = estimates.delta_dn(duality.dualize(model).dual)[0]
    if math.isinf(d_primal):
        assert math.isinf(d_dual)
    else:
        assert d_dual == pytest.approx(d_primal, rel=1e-10)


@pytest.mark.parametrize("name", NN_MODELS)
def test_kappa_duality(name):
    model = catalog(name)
    k_nn = estimates.kappa_nn(model)[0]
    k_dd = estimates.kappa_dd(duality.dualize(model).dual)[0]
    assert k_dd == pytest.approx(k_nn, rel=1e-10)


def test_v_transform_fixed_point_and_chain():
    v = np.full(50, math.sqrt(0.5))
    w = duality.v_transform(v, "eq_2_35")
    assert np.allclose(w, math.sqrt(0.5), rtol=1e-14)
    vhat = duality.v_transform(w, "eq_5_7", catalog("const_nd", a=1.0, b=2.0))
    # constant test sequence of the dual chain (death 2, birth 1): sqrt(a/b)
    assert np.allclose(vhat, math.sqrt(2.0), rtol=1e-14)


def test_v_transform_domain():
    with pytest.raises(DomainViolation):
        duality.v_transform(np.array([0.5, 1.1, 0.5]), "eq_2_35")


def test_v_transform_row7_r_identity():
    # 1/i transported into the inverse-dual frame solves the dual difference
    # identity at rate 2 (checked through the weight-dual of the NN chain)
    model = catalog("table7_1_row7")
    i = np.arange(1, 200)
    v = 1.0 / i.astype(float)
    a = model.death(i).astype(float)
    b = model.birth(i).astype(float)
    r = np.empty(len(i))
    r[0] = a[0] + b[0] * (1 - v[0])
    r[1:] = a[1:] * (1 - 1 / v[:-1]) + b[1:] * (1 - v[1:])
    # increments of 1/i against i^2 rates: noise scales with the rates
    assert np.max(np.abs(r - 2.0)) < 1e-9


@pytest.mark.parametrize("name,kwargs", ND_MODELS + [(n, {}) for n in NN_MODELS])
def test_similarity_residual(name, kwargs):
    res = duality.similarity_check(catalog(name, **kwargs), 8)
    assert res < 1e-12


@pytest.mark.parametrize("n", [4, 16, 32])
def test_spectrum_preservation(n, rng_seed=11):
    rng = np.random.default_rng(rng_seed + n)
    b = rng.uniform(0.2, 3.0, n)
    a = np.concatenate([[0.0], rng.uniform(0.2, 3.0, n - 1)])
    model = ChainModel(BoundaryCode.ND, 0, n - 1,
                       lambda i, b=b: b[np.clip(np.asarray(i, dtype=np.int64), 0, n - 1)],
                       lambda i, a=a: a[np.clip(np.asarray(i, dtype=np.int64), 0, n - 1)])
    Q = duality._q_matrix(*model.rates(0, n - 1))
    pair = duality.dualize(model)
    ah = np.concatenate([[math.nan], pair.dual.death(np.arange(1, n + 1))])
    bh = np.concatenate([[math.nan], pair.dual.birth(np.arange(1, n + 1))])
    Qh = np.zeros((n, n))
    for k in range(1, n + 1):
        r = k - 1
        if r > 0:
            Qh[r, r - 1] = ah[k]
        if r < n - 1:
            Qh[r, r + 1] = bh[k]
        Qh[r, r] = -(ah[k] + (bh[k] if r < n - 1 else 0.0))
    ev1 = np.sort(np.linalg.eigvals(-Q).real)
    ev2 = np.sort(np.linalg.eigvals(-Qh).real)
    assert np.allclose(ev1, ev2, atol=1e-9)


def test_weight_identities_totals():
    # sums: total of nu^ equals total of mu / b_0, and vice versa (finite cut)
    model = catalog("const_nd", a=1.0, b=2.0)
    pair = duality.dualize(model)
    wp = build_weights(model, 60)
    wd = build_weights(pair.dual, 60)
    b0 = 2.0
    n = 50
    assert np.sum(wd.nu_a[:n]) == pytest.approx(np.sum(wp.mu[:n]) / b0, rel=1e-14)
    assert np.sum(wd.mu[:n]) == pytest.approx(b0 * np.sum(wp.nu_b[:n]), rel=1e-14)

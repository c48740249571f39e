import json
import math

import numpy as np
import pytest

from bdspec.catalog import catalog, catalog_names
from bdspec.errors import BadParameter, NonPositiveRate, UnknownModel
from bdspec.model import (BoundaryCode, ChainModel, Verdict, bilateral_log_weights,
                          build_weights, classify_uniqueness, dump_model,
                          load_model, model_from_dict)

RECURRENCE_MODELS = ["const_nd", "linear_nd", "quadratic_nd", "quartic_nd",
                     "ex5_3", "ex5_5", "ex5_7", "table6_1_row1", "table6_1_row6",
                     "table7_1_row7", "ex9_18", "ex9_20"]


@pytest.mark.parametrize("name", RECURRENCE_MODELS)
def test_weight_recurrence(name):
    ws = build_weights(catalog(name), 300)
    with np.errstate(over="ignore"):
        lhs = ws.mu[1:] * ws.a[1:]
        rhs = ws.mu[:-1] * ws.b[:-1]
    healthy = (ws.mu[1:] > 1e-280) & (ws.mu[:-1] > 1e-280) & np.isfinite(ws.mu[1:])
    sel = healthy & np.isfinite(lhs) & np.isfinite(rhs) & (rhs > 0)
    assert sel.sum() > 10
    assert np.all(np.abs(lhs[sel] - rhs[sel]) <= 1e-12 * rhs[sel])


def test_const_nd_weights_closed_form():
    ws = build_weights(catalog("const_nd", a=1.0, b=2.0), 50)
    assert np.allclose(ws.mu, 2.0 ** np.arange(50), rtol=0)
    assert np.allclose(ws.nu_b, 0.5 ** (np.arange(50) + 1), rtol=0)
    assert ws.nu_tail(0, "b") == pytest.approx(1.0, abs=0)


def test_symmetric_rates_give_flat_mu():
    m = ChainModel(BoundaryCode.ND, 0, None,
                   lambda i: np.full(np.shape(i), 3.0),
                   lambda i: np.full(np.shape(i), 3.0))
    ws = build_weights(m, 64)
    assert np.all(ws.mu == 1.0)


def test_quadratic_weights():
    ws = build_weights(catalog("quadratic_nd"), 100)
    assert np.all(ws.mu == 1.0)
    assert np.allclose(ws.nu_b, (np.arange(100) + 1.0) ** -2)
    assert ws.nu_tail(1, "b") == pytest.approx(math.pi ** 2 / 6.0 - 1.0, rel=1e-12)


def test_build_weights_rejects_bad_rates():
    bad = ChainModel(BoundaryCode.ND, 0, None,
                     lambda i: np.where(np.asarray(i) == 3, 0.0, 1.0),
                     lambda i: np.ones(np.shape(i)))
    with pytest.raises(NonPositiveRate):
        build_weights(bad, 10)


def test_hint_vs_hintless_tails_agree():
    hinted = catalog("quadratic_nd")
    bare = ChainModel(BoundaryCode.ND, 0, None, hinted.birth, hinted.death,
                      name="quadratic_bare")
    w1 = build_weights(hinted, 3000)
    w2 = build_weights(bare, 3000)
    for n in (0, 1, 10, 100):
        # the hint-free value carries an estimated integral-test remainder
        assert w1.nu_tail(n, "b") == pytest.approx(w2.nu_tail(n, "b"), rel=1e-3)


def test_classify_uniqueness_examples():
    v = classify_uniqueness(catalog("const_nd", a=1.0, b=2.0))
    assert v.condition_1_2 is Verdict.HOLDS
    v = classify_uniqueness(catalog("quartic_nd"))
    assert v.condition_1_2 is Verdict.FAILS
    walk = ChainModel(BoundaryCode.ND, 0, None,
                      lambda i: np.ones(np.shape(i)), lambda i: np.ones(np.shape(i)))
    v = classify_uniqueness(walk)
    assert v.condition_1_2 is Verdict.HOLDS
    # consistency: (1.2) holding forbids a (1.3) failure verdict
    assert v.condition_1_3 is not Verdict.FAILS


def test_kummer_classifier_on_quartic_mu():
    ws = build_weights(catalog("quartic_nd"), 2000)
    n = np.arange(1000, 1998, dtype=float)
    kummer = n * (ws.mu[1000:1998] / ws.mu[1001:1999] - 1.0)
    assert np.median(kummer) > 1.0  # convergent tail, as the proof asserts


def test_bilateral_log_weights_ex8_9():
    idx, log_mu, log_mua, log_mub = bilateral_log_weights(catalog("ex8_9"), 30)
    assert np.allclose(log_mu, idx.astype(float) ** 2)
    assert np.allclose(log_mua[1:], log_mub[:-1])
    assert log_mua[0] == pytest.approx((idx[0] - 1.0) ** 2)


def test_catalog_errors():
    with pytest.raises(UnknownModel):
        catalog("not_a_model")
    with pytest.raises(BadParameter):
        catalog("ex7_6_2", eps=1.5)
    with pytest.raises(BadParameter):
        catalog("table7_1_row6", a=1.0, b=1.0, k=3)  # ratio restriction


DOC = {
    "boundary": "ND",
    "lo": 0,
    "hi": "inf",
    "birth": {"catalog": "affine", "params": {"slope": 2.0, "intercept": 2.0}},
    "death": {"catalog": "affine", "params": {"slope": 1.0}},
    "killing": {"table": [0.1, 0.30000000000000004, 1.5], "then": "last"},
}


def test_model_file_roundtrip(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(DOC))
    model = load_model(str(path))
    out = dump_model(model)
    assert out == DOC
    # bit-exact float round trip of the table entries
    assert out["killing"]["table"][1] == DOC["killing"]["table"][1]
    idx = np.array([0, 1, 2, 7])
    assert np.allclose(model.birth(idx), 2.0 * idx + 2.0)
    assert np.allclose(model.killing(idx), [0.1, 0.30000000000000004, 1.5, 1.5])


def test_table_rate_error_mode():
    doc = dict(DOC, killing={"table": [1.0], "then": "error"})
    m = model_from_dict(doc)
    with pytest.raises(BadParameter):
        m.killing(np.array([5]))


def test_saturated_weights_match_whole_window_exp():
    # reference: exp of the accumulated logs over the whole window, kept
    # where the cumprod overflowed (build_weights evaluates only those)
    saturated = 0
    for name in catalog_names():
        model = catalog(name)
        if model.boundary is BoundaryCode.DD_BILATERAL or model.hint("log_mu") is not None:
            continue
        for n_max in (4096, 10 ** 5, 3 * 10 ** 5):
            ws = build_weights(model, n_max)
            a, b, log_mu = ws.a, ws.b, ws.log_mu
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                mu = np.cumprod(np.concatenate([[1.0], b[:-1] / a[1:]]))
                saturated += int(np.any(~np.isfinite(mu)))
                mu = np.where(np.isfinite(mu), mu, np.exp(np.clip(log_mu, -745.0, 709.0))
                              * np.where(log_mu > 709.0, math.inf, 1.0))
                mub, mua = mu * b, mu * a
                nu_b = np.where(np.isfinite(mub), np.where(mub > 0.0, 1.0 / mub, math.inf), 0.0)
                nu_a = np.where(np.isfinite(mua), np.where(mua > 0.0, 1.0 / mua, math.inf), 0.0)
            # nu_a at the bottom state follows the boundary convention, and mu_0 = 1
            for ref, got in ((mu, ws.mu), (nu_b, ws.nu_b), (nu_a[1:], ws.nu_a[1:])):
                assert ref.tobytes() == got.tobytes(), name
    assert saturated >= 10

import dataclasses
import gc
import json
import math
import weakref

import mpmath
import numpy as np
import pytest

from bdspec import approx, duality, estimates, killing, poincare, series
from bdspec import model as model_mod
from bdspec.catalog import catalog, catalog_names
from bdspec.errors import BadParameter, NonPositiveRate, Overflow, UnknownModel
from bdspec.model import (DEFAULT_NMAX, BoundaryCode, ChainModel, Verdict,
                          bilateral_log_weights, build_weights, classify_uniqueness, dump_model,
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


REF_TERMS = 4 * 10 ** 6
WEIGHT_KEYS = ("mu", "nu_a", "nu_b")


def _estimated_series():
    """(model, keys) for every infinite half-line catalog chain and forward
    dual whose mu, nu_a or nu_b total is finite but has no closed form."""
    out = []
    for name in catalog_names():
        model = catalog(name)
        if model.boundary is BoundaryCode.DD_BILATERAL or model.hi is not None:
            continue
        models = [model]
        if model.boundary.origin_reflecting:
            models.append(duality.dualize(model, "forward_5_1").dual)
        for m in models:
            ws = build_weights(m)
            keys = tuple(k for k in WEIGHT_KEYS if m.hint(k + "_tail") is None
                         and math.isfinite(getattr(ws, k + "_total").value))
            if keys:
                out.append((m, keys))
    return out


def _ratio_product_sums(model, starts, keys):
    """{key: the sums over k >= n of that weight series, for each n of
    ``starts``}: the terms of the first REF_TERMS states from the ratio
    products mu_{k+1} = mu_k b_k / a_{k+1} (mu_base = 1), in chunks, plus the
    remainder past them estimated from their last terms. That remainder is at
    most 16 % of a reference (quartic_nd's nu tails at 10^5) and 2.5 %
    elsewhere, and at 4M terms the estimator's O(64/k) bias is 40 times
    smaller than at the 10^5-state window and 1000 times smaller than at the
    4096-state one."""
    base, end = model.base, model.base + REF_TERMS
    sums = {k: np.zeros(len(starts)) for k in keys}
    mu0 = b0 = None
    lo, chunk = base, 1 << 16
    while lo < end:
        hi = min(lo + chunk, end)                 # states lo .. hi - 1
        a, b, _ = model.rates(lo, hi)
        with np.errstate(all="ignore"):
            mu = np.cumprod(np.concatenate([[1.0 if mu0 is None else mu0 * b0 / a[0]],
                                            b[:-2] / a[1:-1]]))
            terms = {"mu": mu, "nu_a": 1.0 / (mu * a[:-1]), "nu_b": 1.0 / (mu * b[:-1])}
        if mu0 is None and not (model.boundary in (BoundaryCode.DN, BoundaryCode.DD)
                                and a[0] > 0.0):
            terms["nu_a"][0] = 0.0
        for k in keys:
            for j, n in enumerate(starts):
                sums[k][j] += float(np.sum(terms[k][max(n - lo, 0):]))
        if all(terms[k][-1] == 0.0 for k in keys):   # a weight saturated: all later terms are 0
            return sums
        mu0, b0, lo, chunk = mu[-1], b[-2], hi, min(2 * chunk, 1 << 20)
    return {k: sums[k] + series.estimate_remainder_block(terms[k], end - len(terms[k]))
            for k in keys}


ESTIMATED = [pytest.param(m, keys, id="%s-%s" % (m.name, "-".join(keys)))
             for m, keys in _estimated_series()]


# The errors measured against the reference (window 4096, then 10^5; total,
# then the tail at the window's last state): quartic_nd nu_a -9.1e-5, -1.17 %
# and -7.5e-7, -4.7e-4; nu_b -8.7e-5, -1.12 % and -7.1e-7, -4.5e-4; mu (and
# its dual's nu_a) +2.3e-8, +0.67 % and +8e-12, +2.8e-4; ex8_8 nu_a +2.9e-10,
# +1.18 % and +2e-14, +4.8e-4; ex9_21 mu +1.2e-14, +2.11 % and -6e-16,
# +8.5e-4; table7_1_row8 nu_a (and table6_1_row7's dual) -2.3e-8, -2.5e-4
# and -2e-11, -5.2e-6; table7_1_row8 nu_b, quadratic_nd nu_a and ex9_20 mu
# at most 5.3e-10, 3.6e-6 and 2.9e-11, 4.8e-6. The geometric series match
# to rounding, with both tails 0 where the terms underflow.
@pytest.mark.parametrize("model,keys", ESTIMATED)
def test_estimated_tails_match_a_long_window(model, keys):
    windows = ((4096, 1e-4, 2.5e-2), (DEFAULT_NMAX, 1e-6, 1e-3))
    tops = [model.base + W - 1 for W, _, _ in windows]
    ref = _ratio_product_sums(model, [model.base] + tops, keys)
    for j, (W, tol_total, tol_tail) in enumerate(windows):
        ws = build_weights(model, W)
        for k in keys:
            tail = ws.mu_tail(tops[j]) if k == "mu" else ws.nu_tail(tops[j], k[-1])
            assert getattr(ws, k + "_total").value == pytest.approx(
                ref[k][0], rel=tol_total, abs=0)
            assert tail == pytest.approx(ref[k][j + 1], rel=tol_tail, abs=0)


@pytest.mark.parametrize("W", [4096, DEFAULT_NMAX])
def test_harmonic_weights_are_divergent(W):
    # ex9_19: mu_i = 3/i, so sum(mu) = inf at every window, and so is each tail
    ws = build_weights(catalog("ex9_19"), W)
    assert ws.mu_total.value == math.inf and ws.mu_total.flag == "divergent"
    assert ws.mu_tail(ws.top) == math.inf


def test_a_tail_hint_settles_an_infinite_remainder_estimate():
    # r = 0.999 reads as a power law no faster than 1/j over 1000 terms, so
    # the estimate is inf; the tail hint gives the total and every tail. A
    # total is not a hint key: it would be a second closed form of the series
    r = 0.999
    model = catalog("const_dn", a=1.0, b=r)
    with pytest.raises(BadParameter, match="mu_total"):
        dataclasses.replace(model, tail_hint={"mu_total": 1.0 / (1.0 - r)})
    ws = build_weights(model, 1000)
    assert not math.isfinite(series.estimate_remainder_block(ws.mu, ws.base))
    assert ws.mu_total.flag == "closed_form"
    assert ws.mu_total.value == pytest.approx(1.0 / (1.0 - r), rel=1e-12, abs=0)
    n = np.array([1, 500, 1000, 1001])
    assert ws.mu_tail(n) == pytest.approx(r ** (n - 1) / (1.0 - r), rel=1e-12, abs=0)
    assert ws.mu_tails() == pytest.approx(r ** np.arange(1000) / (1.0 - r), rel=1e-12, abs=0)


def test_hint_keys_outside_the_protocol_are_refused():
    # weights have one path on half-line and bilateral chains alike, the
    # recurrence, so log_mu is no hint; nor are the keys no chain sets
    def log_mu(i):
        return np.asarray(i, dtype=float) ** 2
    for name in ("const_nd", "bilateral_quadratic"):
        for key in ("mu_total", "nu_b_total", "log_mu", "mu_tial", "nu_a_tail", "uniq_9_34"):
            with pytest.raises(BadParameter, match="unknown tail hint keys"):
                dataclasses.replace(catalog(name), tail_hint={key: log_mu})


@pytest.mark.parametrize("boundary,lo,hi", [(BoundaryCode.ND, 0, -1), (BoundaryCode.DD, 3, 2),
                                            (BoundaryCode.DD_BILATERAL, 5, 4)])
def test_an_empty_range_is_refused(boundary, lo, hi):
    with pytest.raises(BadParameter, match=r"empty range \[%d, %d\]" % (lo, hi)):
        ChainModel(boundary, lo, hi, np.ones_like, np.ones_like)


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_bilateral_rates_must_be_finite(rate):
    # as on the half line: a non-finite rate inside the window is an error
    odd = ChainModel(BoundaryCode.DD_BILATERAL, None, None, np.ones_like,
                     lambda i: np.where(np.asarray(i) == 1, rate, 1.0))
    with pytest.raises(Overflow, match="rates not finite"):
        bilateral_log_weights(odd, 8)


def _hinted_totals():
    """(model, key) for every hinted weight series of a half-line catalog
    chain or forward dual."""
    out = []
    for name in catalog_names():
        model = catalog(name)
        if model.boundary is BoundaryCode.DD_BILATERAL:
            continue
        models = [model]
        if model.boundary.origin_reflecting:
            models.append(duality.dualize(model, "forward_5_1").dual)
        out += [(m, k) for m in models for k in WEIGHT_KEYS if m.hint(k + "_tail") is not None]
    return out


@pytest.mark.parametrize("model,key", [pytest.param(m, k, id="%s-%s" % (m.name, k))
                                       for m, k in _hinted_totals()])
def test_a_hinted_total_is_the_window_sum_plus_the_tail_past_it(model, key):
    # one closed form per series: the total is the tail hint at the first
    # state, so it splits into the window and the hint past the window. At
    # the default window too: a dual hint reads the suffix sums of a primal
    # window that ends where the dual's does, where the primal has no closed form
    ws = build_weights(model)
    total = getattr(ws, key + "_total")
    assert total.flag == "closed_form"
    if math.isfinite(total.value):
        past = 0.0 if ws.finite else float(model.hint(key + "_tail")(ws.top + 1))
        assert total.value == pytest.approx(float(np.sum(getattr(ws, key))) + past,
                                            rel=1e-12, abs=0)


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


def _power_series(p, n):
    """The verdict on the p-series' terms j^-p, j = 1..n."""
    return model_mod._classify_series(np.arange(1.0, n + 1.0) ** -p, None, 1)


def _inverse_linear_nd_1_3(n_max):
    """(1.3)'s verdict and evidence on the ND chain b_i = (i+1)^2, a_i = i(i+1):
    mu_i = nu_b_i = 1/(i+1), so its (1.3) series is twice the harmonic one."""
    chain = ChainModel(BoundaryCode.ND, 0, None, lambda i: (i + 1.0) ** 2,
                       lambda i: i * (i + 1.0))
    v = classify_uniqueness(chain, n_max)
    return v.condition_1_3, v.evidence["1.3"]


def _table7_1_row9(n_max, key):
    """(1.2) or (9.34)'s verdict and evidence on table7_1_row9, whose rates
    alternate with period 2; under 130 terms the verdict compares blocks of
    two terms, not single terms."""
    v = classify_uniqueness(catalog("table7_1_row9"), n_max)
    return {"1.2": v.condition_1_2, "9.34": v.condition_9_34}[key], v.evidence[key]


def _linear_nd_9_34(gamma):
    """(9.34)'s verdict and evidence on the killing-free linear_nd: its terms
    are (1.2)'s, so it takes (1.2)'s hinted verdict (its terms near 1/(i + gamma)
    read as convergent on 4096 states)."""
    v = classify_uniqueness(catalog("linear_nd", gamma=gamma))
    assert v.condition_1_2 is Verdict.HOLDS
    return v.condition_9_34, v.evidence["9.34"]


LENGTHS = (66, 100, 200, 500, 2000, 4096)
VERDICT_CASES = (
    [("hint", lambda: model_mod._classify_series(np.ones(500), "fails", 0), Verdict.FAILS),
     ("too_few", lambda: model_mod._classify_series(np.ones(65), None, 0), Verdict.INCONCLUSIVE),
     ("growing", lambda: model_mod._classify_series(
         np.concatenate([np.zeros(42), np.arange(1.0, 25.0)]), None, 0), Verdict.HOLDS),
     ("geometric_0.97", lambda: model_mod._classify_series(
         0.97 ** np.arange(500.0), None, 0), Verdict.FAILS)]
    + [("harmonic_%d" % n, lambda n=n: _power_series(1.0, n), Verdict.HOLDS) for n in LENGTHS]
    + [("p0.95_%d" % n, lambda n=n: _power_series(0.95, n), Verdict.HOLDS) for n in LENGTHS]
    + [("p1.05_%d" % n, lambda n=n: _power_series(1.05, n), Verdict.FAILS)
       for n in LENGTHS[2:]]
    + [("inverse_linear_nd_%d" % n, lambda n=n: _inverse_linear_nd_1_3(n), Verdict.HOLDS)
       for n in (100, 300, 1000, 4096)]
    + [("table7_1_row9_%s_%d" % (key, n), lambda n=n, key=key: _table7_1_row9(n, key),
        Verdict.HOLDS) for key in ("1.2", "9.34") for n in (66, 100, 300)]
    + [("linear_nd_9.34_gamma%g" % g, lambda g=g: _linear_nd_9_34(g), Verdict.HOLDS)
       for g in (0.1, 0.5)])


@pytest.mark.parametrize("verdict_of,expected", [c[1:] for c in VERDICT_CASES],
                         ids=[c[0] for c in VERDICT_CASES])
def test_divergence_verdict(verdict_of, expected):
    # the verdict is estimate_remainder_block's: an infinite remainder
    # diverges (HOLDS); the harmonic series and p-series on either side of
    # p = 1 are read right at every length, the chain with weights 1/(i+1)
    # has (1.3) hold on its own terms, not by the implication from (1.2), and
    # table7_1_row9's period-2 rates read the same on short windows as on long
    verdict, evidence = verdict_of()
    assert verdict is expected
    assert "implied_by_1_2" not in evidence


@pytest.mark.parametrize("name", [name for name in catalog_names()
                                  if catalog(name).boundary is not BoundaryCode.DD_BILATERAL])
def test_classify_uniqueness_is_warning_free(name):
    # the suite turns warnings into errors: a window's terms whose sum
    # overflows must not warn
    v = classify_uniqueness(catalog(name))
    assert {v.condition_1_2, v.condition_1_3, v.condition_9_34} <= set(Verdict)


def test_condition_1_2_overrides_a_failing_1_3():
    walk = ChainModel(BoundaryCode.ND, 0, None, lambda i: np.ones(np.shape(i)),
                      lambda i: np.ones(np.shape(i)),
                      tail_hint={"uniq_1_2": "holds", "uniq_1_3": "fails"})
    v = classify_uniqueness(walk)
    assert v.condition_1_2 is v.condition_1_3 is Verdict.HOLDS
    assert v.evidence["1.3"] == {"implied_by_1_2": True}


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


def _ratio_product(b, a, start, mu_start, stop):
    """mu_start times b_{i-1}/a_i for i = start..i at 40 digits, for i < stop."""
    out = []
    with mpmath.workdps(40):
        p = mpmath.mpf(float(mu_start))
        for i in range(start, stop):
            p *= mpmath.mpf(float(b[i - 1])) / mpmath.mpf(float(a[i]))
            out.append(p)
    return out


def test_saturated_weights_match_whole_window_exp():
    # reference: exp of the accumulated logs over the whole window, kept
    # where the cumprod overflowed (build_weights evaluates only those); bit
    # for bit. Past a subnormal weight that the weights come back from, where
    # build_weights redoes the recurrence (table6_1_row8 from state 1020 on),
    # the product of the float ratios at 40 digits, to 1e-14 and one
    # subnormal unit, up to where it rounds to 0 for good
    saturated = redone = 0
    for name in catalog_names():
        model = catalog(name)
        if model.boundary is BoundaryCode.DD_BILATERAL:
            continue
        for n_max in (4096, 10 ** 5, 3 * 10 ** 5):
            ws = build_weights(model, n_max)
            a, b, log_mu = ws.a, ws.b, ws.log_mu
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                mu = np.cumprod(np.concatenate([[1.0], b[:-1] / a[1:]]))
                saturated += int(np.any(~np.isfinite(mu)))
                mu = np.where(np.isfinite(mu), mu, np.exp(np.clip(log_mu, -745.0, 709.0))
                              * np.where(log_mu > 709.0, math.inf, 1.0))
            k = j = int(np.argmax((mu > 0.0) & (mu < np.finfo(float).tiny)))
            if k and np.any(log_mu[k:] > math.log(np.finfo(float).tiny)):
                j = int(np.flatnonzero(log_mu > -760.0)[-1]) + 1
                ref = _ratio_product(b, a, k, mu[k - 1], j)
                mu[k:j] = [float(x) for x in ref]
                gap = np.abs(ws.mu[k:j] - np.array(ref, dtype=object)).astype(float)
                assert np.all(gap <= 1e-14 * mu[k:j] + 5e-324), name
                redone += 1
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                mub, mua = mu * b, mu * a
                nu_b = np.where(np.isfinite(mub), np.where(mub > 0.0, 1.0 / mub, math.inf), 0.0)
                nu_a = np.where(np.isfinite(mua), np.where(mua > 0.0, 1.0 / mua, math.inf), 0.0)
            nu_a[0] = ws.nu_a[0]    # nu_a at the bottom state follows the boundary convention
            for ref, got in ((mu, ws.mu), (nu_b, ws.nu_b), (nu_a, ws.nu_a)):
                for part in (slice(None, k), slice(j, None)):
                    assert ref[part].tobytes() == got[part].tobytes(), name
                with np.errstate(invalid="ignore"):
                    gap = np.abs(got[k:j] - ref[k:j])
                assert np.all((got[k:j] == ref[k:j]) | (gap <= 1e-14 * ref[k:j])), name
    assert saturated >= 10 and redone >= 3


def _subnormal_dip():
    """b/a = e^-2 for 365 states, then e^2: log_mu falls to -730, below the
    normal range, without the weights reaching 0, and rises back to 0."""
    return ChainModel(BoundaryCode.ND, 0, None,
                      lambda i: np.where(np.asarray(i) < 365, math.exp(-2.0), math.exp(2.0)),
                      lambda i: np.ones(np.shape(i)), name="subnormal_dip")


def test_weights_keep_their_digits_through_a_subnormal_dip():
    # reference: the product of the float ratios at 40 digits
    ws = build_weights(_subnormal_dip(), 1001)
    assert 0.0 < ws.mu[365] < np.finfo(float).tiny
    with mpmath.workdps(40):
        down, up = mpmath.mpf(math.exp(-2.0)), mpmath.mpf(math.exp(2.0))
        for i in (400, 600, 730, 1000):
            ref = down ** 365 * up ** (i - 365)
            assert abs(float(ws.mu[i] / ref) - 1.0) <= 1e-14, i


def _extreme_step(x, y):
    """b/a = e for 400 states, then one step ratio x/y (subnormal, or 0 in
    floats), the next one y/x (inf in floats), then e^-1: log_mu climbs to
    400, dips by log(y/x), climbs back and falls."""
    def birth(i):
        i = np.asarray(i)
        return np.where(i < 400, math.e, np.where(i == 400, x, np.where(i == 401, y, 1 / math.e)))

    def death(i):
        i = np.asarray(i)
        return np.where(i == 401, y, np.where(i == 402, x, 1.0))

    return ChainModel(BoundaryCode.ND, 0, None, birth, death, name="extreme_step_%g" % x)


@pytest.mark.parametrize("x, y", [(1e-20, 1e300), (1e-200, 1e200)])
def test_weights_recover_from_one_extreme_step_ratio(x, y):
    # reference: the product of the float ratios at 40 digits
    ws = build_weights(_extreme_step(x, y), 1001)
    ref = _ratio_product(ws.b, ws.a, 1, 1.0, 1001)
    for i in (401, 402, 600, 800, 1000):
        assert abs(float(ws.mu[i] / ref[i - 1]) - 1.0) <= 1e-14, i


def _two_slope(code, lo, hi, first, then, turn=400):
    """b_i / a_{i+1} = e^first below ``turn`` and e^then from there on."""
    return ChainModel(code, lo, hi,
                      lambda i: np.where(np.asarray(i) < lo + turn, math.exp(first),
                                         math.exp(then)),
                      lambda i: np.ones(np.shape(i)))


@pytest.mark.parametrize("first, then", [(2.0, -2.0), (-2.0, 2.0)])
def test_weights_that_leave_float_range_and_return(first, then):
    # rise-fall: the cumprod overflows and the weights fall back into range;
    # fall-rise: it underflows to 0 and they rise back (mu[800] = 1)
    ws = build_weights(_two_slope(BoundaryCode.ND, 0, None, first, then), 1001)
    inside = np.abs(ws.log_mu) < 700.0
    assert inside[:300].all() and inside[500:].any() and not inside.all()
    expect = np.exp(ws.log_mu[inside])
    assert np.all(np.abs(ws.mu[inside] - expect) <= 1e-12 * expect)
    assert ws.mu[800] == pytest.approx(1.0, rel=1e-12)


def test_nu_conventions():
    # a vanished rate or an underflowed weight gives 1/0 = inf, an overflowed
    # weight 1/inf = 0, and inf * 0 at the top of a reflecting chain gives 0
    up = ChainModel(BoundaryCode.ND, 0, None, lambda i: np.full(np.shape(i), 8.0),
                    lambda i: np.ones(np.shape(i)))
    ws = build_weights(up, 400)
    over = ws.mu == math.inf
    assert over[-1] and not over[:300].any()
    assert np.all(ws.nu_b[over] == 0.0) and np.all(ws.nu_a[over] == 0.0)
    assert ws.nu_a[0] == 0.0                          # a_0 is ignored at a reflecting origin
    down = ChainModel(BoundaryCode.DN, 1, None, lambda i: np.ones(np.shape(i)),
                      lambda i: np.full(np.shape(i), 8.0))
    ws = build_weights(down, 400)
    under = ws.mu == 0.0
    assert under[-1] and not under[:300].any()
    assert np.all(ws.nu_b[under] == math.inf) and np.all(ws.nu_a[under] == math.inf)
    assert ws.nu_a[0] == 1.0 / 8.0                    # DN keeps the bottom death rate
    for code, lo in ((BoundaryCode.NN, 0), (BoundaryCode.DN, 1)):
        small = ChainModel(code, lo, lo + 9, lambda i: np.full(np.shape(i), 8.0),
                           lambda i: np.ones(np.shape(i)))
        ws = build_weights(small, 100)
        assert ws.b[-1] == 0.0 and math.isfinite(ws.mu[-1])
        assert ws.nu_b[-1] == math.inf and 0.0 < ws.nu_a[-1] < math.inf
        big = ChainModel(code, lo, lo + 399, lambda i: np.full(np.shape(i), 8.0),
                         lambda i: np.ones(np.shape(i)))
        ws = build_weights(big, 1000)
        assert ws.b[-1] == 0.0 and ws.mu[-1] == math.inf
        assert ws.nu_b[-1] == 0.0 and ws.nu_a[-1] == 0.0
    bottom = ChainModel(BoundaryCode.DD, 1, None, lambda i: np.ones(np.shape(i)),
                        lambda i: np.where(np.asarray(i) == 1, 0.0, 1.0))
    assert build_weights(bottom, 50).nu_a[0] == 0.0   # a vanished bottom death rate


def test_last_weight_system_is_reused_and_read_only():
    calls = []

    def birth(i):
        calls.append(len(i))
        return np.full(np.shape(i), 2.0)

    model = ChainModel(BoundaryCode.ND, 0, None, birth, lambda i: np.full(np.shape(i), 3.0))
    ws = build_weights(model, 500)
    ws.nu_tails("b")
    assert build_weights(model, 500) is ws
    assert len(calls) == 1
    assert build_weights(model, 501) is not ws
    twin = ChainModel(BoundaryCode.ND, 0, None, birth, model.death)
    assert build_weights(twin, 501) is not ws
    assert len(calls) == 3
    arrays = [ws.mu, ws.log_mu, ws.a, ws.b, ws.c, ws.mu_prefix_arr, ws.nu_a, ws.nu_b,
              ws.mu_tails(), ws.nu_tails("a"), ws.nu_tails("b")]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # one chain held: a build for another model lets the previous system go
    ref = weakref.ref(build_weights(model, 64))
    build_weights(twin, 64)
    gc.collect()
    assert ref() is None


def test_a_finite_chain_s_window_is_built_once_for_every_n_max_past_its_top():
    # the memo is keyed by the window: the forward dual's primal window of
    # DEFAULT_NMAX + 1 states is the finite chain's whole window, already built
    model = catalog("ex7_5_2")                 # states 1 and 2
    ws = build_weights(model)
    assert build_weights(model, DEFAULT_NMAX + 1) is ws
    assert build_weights(model, 2) is ws
    assert build_weights(model, 1) is not ws


def test_the_held_window_goes_before_another_chain_s_weights_are_evaluated():
    # two chains' whole windows never coexist: the held arrays are freed once
    # the next chain's rates are in, before its weights are evaluated
    birth, death = (lambda i: np.full(np.shape(i), 2.0)), (lambda i: np.full(np.shape(i), 3.0))
    ws = build_weights(ChainModel(BoundaryCode.ND, 0, None, birth, death), 4096)
    refs = [weakref.ref(ws), weakref.ref(ws.mu), weakref.ref(ws.nu_b)]
    del ws
    freed = []

    class Probed(np.ndarray):
        # the rate checks and the weights read the birth rates by slices
        def __getitem__(self, key):
            gc.collect()
            freed.append(all(r() is None for r in refs))
            return super().__getitem__(key)

    class Hooked(ChainModel):
        def rates(self, i0, i1):
            a, b, c = super().rates(i0, i1)
            return a, b.view(Probed), c

    build_weights(Hooked(BoundaryCode.ND, 0, None, birth, death), 4096)
    assert freed and all(freed)


def _snapshot(ws):
    """Every array, total, remainder and window tail of a weight system, as bytes."""
    arrays = [ws.mu, ws.log_mu, ws.a, ws.b, ws.c, ws.mu_prefix_arr, ws.nu_a, ws.nu_b,
              ws.mu_tails(), ws.nu_tails("a"), ws.nu_tails("b")]
    totals = [t.value for t in (ws.mu_total, ws.nu_a_total, ws.nu_b_total)]
    rems = [ws._cache["rem_" + k] for k in WEIGHT_KEYS]
    return ([arr.tobytes() for arr in arrays] + [np.array(totals + rems).tobytes()]
            + [t.flag for t in (ws.mu_total, ws.nu_a_total, ws.nu_b_total)])


def _fresh(model, n_max):
    """The snapshot of a build made after clearing the held window, which is
    then put back."""
    held, model_mod._held = model_mod._held, model_mod._NONE
    try:
        return _snapshot(build_weights(model, n_max))
    finally:
        model_mod._held = held


def _seeded_finite(code, size, seed):
    rng = np.random.default_rng(seed)
    lo = 0 if code.origin_reflecting else 1
    a, b = rng.uniform(0.2, 3.0, (2, size))
    return ChainModel(code, lo, lo + size - 1, lambda i: b[np.asarray(i) - lo],
                      lambda i: a[np.asarray(i) - lo], name="finite_%s_%d" % (code.value, size))


SHARED_CHAINS = ([catalog(name) for name in catalog_names()
                  if catalog(name).boundary is not BoundaryCode.DD_BILATERAL
                  and catalog(name).killing is None]
                 + [_seeded_finite(code, size, 100 * k + size)
                    for k, code in enumerate((BoundaryCode.NN, BoundaryCode.ND,
                                              BoundaryCode.DN, BoundaryCode.DD))
                    for size in (3, 64, 3000, 150000)]
                 + [_subnormal_dip(), _extreme_step(1e-20, 1e300), _extreme_step(1e-200, 1e200),
                    _two_slope(BoundaryCode.ND, 0, None, -2.0, 2.0)])


@pytest.mark.parametrize("model", [pytest.param(m, id=m.name) for m in SHARED_CHAINS])
def test_shared_windows_equal_fresh_builds(model):
    # every window of a chain is served from its largest evaluated window
    # (prefix views, held hinted tails); bit for bit, it equals a build made
    # with nothing held
    for order in ((10 ** 5, 2 * 10 ** 5, 4096, 2048, 10 ** 5), (3 * 10 ** 5, 10 ** 5)):
        model_mod._held = model_mod._NONE
        for n_max in order:
            assert _snapshot(build_weights(model, n_max)) == _fresh(model, n_max), n_max


HINTED_CHAINS = [catalog(name) for name in catalog_names()
                 if catalog(name).boundary is not BoundaryCode.DD_BILATERAL
                 and any(catalog(name).hint(key + "_tail") for key in WEIGHT_KEYS)]


def _window_tails(ws, key, n=None):
    return ws.mu_tails(n) if key == "mu" else ws.nu_tails(key[-1], n)


@pytest.mark.parametrize("model", [pytest.param(m, id=m.name) for m in HINTED_CHAINS])
def test_hinted_tails_grow_by_the_missing_indices(model):
    # a larger window of the held chain evaluates only the tail indices the
    # held tail lacks, and a prefix read only its prefix: each index once per
    # held chain, and bit for bit the tail of one evaluation on the window
    keys = [key for key in WEIGHT_KEYS if model.hint(key + "_tail") is not None]
    asked = []

    def counted(fn):
        return lambda n: (asked.append(np.size(n)), fn(n))[1]

    hints = {key + "_tail": counted(model.hint(key + "_tail")) for key in keys}
    chain = dataclasses.replace(model, tail_hint={**model.tail_hint, **hints})
    for order in ((10 ** 5, 2 * 10 ** 5, 3 * 10 ** 5), (4096, 3 * 10 ** 5), (3 * 10 ** 5, 10 ** 5)):
        model_mod._held = model_mod._NONE
        asked.clear()
        for n_max in order:
            ws = build_weights(chain, n_max)
            for key in keys:
                one = np.asarray(model.hint(key + "_tail")(np.arange(ws.base, ws.top + 1)),
                                 dtype=float)
                assert _window_tails(ws, key, 497).tobytes() == one[:497].tobytes()
                assert _window_tails(ws, key).tobytes() == one.tobytes(), (key, n_max)
        assert sum(asked) == len(keys) * len(build_weights(chain, max(order)))
    model_mod._held = model_mod._NONE


@pytest.mark.parametrize("model", [_subnormal_dip(),
                                   _two_slope(BoundaryCode.ND, 0, None, -2.0, 2.0)])
def test_a_window_short_of_the_subnormal_fix_up_is_evaluated_afresh(model):
    # a window that ends between the weights' exit from the normal range and
    # their return skips the fix-up the larger window made: a prefix view of
    # that window would differ, so it is evaluated afresh
    big = build_weights(model, 1001)
    k, back = model_mod._held.stale
    assert k < back < 1001
    for n_max in (k + 1, back, k, back + 1, 1001):
        got = build_weights(model, n_max)
        assert _snapshot(got) == _fresh(model, n_max), n_max
        if n_max == back:
            assert got.mu.tobytes() != big.mu[:n_max].tobytes()


# ---------------------------------------------------------------------------
# the window stop: an infinite chain's window ends where its weights saturate
# ---------------------------------------------------------------------------

STOPPED = ["const_dn", "const_nd", "ex5_3", "ex5_7", "ex6_11", "ex6_7", "ex9_18", "linear_nd",
           "table6_1_row1", "table6_1_row2", "table6_1_row3", "table6_1_row4", "table6_1_row5",
           "table6_1_row6", "table6_1_row8", "table7_1_row1", "table7_1_row2", "table7_1_row3",
           "table7_1_row4", "table7_1_row5", "table7_1_row6", "table7_1_row7", "table7_1_row9"]


def _bits(x):
    """``x`` as nested tuples, floats by their bits, every ``scanned`` range left out."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_bits(getattr(x, f.name))
                                           for f in dataclasses.fields(x) if f.name != "scanned")
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, getattr(x, "certified", None)) + tuple(map(_bits, x))
    if isinstance(x, dict):
        return tuple(sorted((k, _bits(v)) for k, v in x.items()))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return "nan" if x != x else x.hex()
    return x


def _stop_rule_calls(model):
    """The public calls that read an infinite chain's default windows."""
    code = model.boundary
    calls = [lambda m: classify_uniqueness(m), lambda m: estimates.basic_bracket(m)]
    if code is BoundaryCode.ND:
        calls += [estimates.delta_nd, approx.first_step_closed,
                  lambda m: poincare.sobolev_constant(m, 2.0, "neumann_8_9")]
    elif code is BoundaryCode.DN:
        calls += [estimates.delta_dn, approx.first_step_closed]
    elif code is BoundaryCode.NN:
        calls += [estimates.kappa_nn, approx.eta1_closed,
                  lambda m: poincare.sobolev_constant(m, 2.0, "neumann_8_9")]
    elif model.killing is None:
        calls += [estimates.kappa_dd, approx.dd_first_step,
                  lambda m: poincare.sobolev_constant(m, 2.0, "half_line_8_6")]
    else:
        calls += [killing.upper_9_9, killing.corollary_9_9, killing.sqrt_test_bound]
    return calls


def _outcomes(model):
    model_mod._held = model_mod._NONE
    out = []
    for call in _stop_rule_calls(model):
        try:
            out.append(_bits(call(model)))
        except Exception as exc:          # an exception is an outcome too
            out.append((type(exc).__name__, str(exc)))
    return out


@pytest.mark.parametrize("name", STOPPED)
def test_a_window_stopped_at_saturated_weights_changes_no_output(name, monkeypatch):
    # with the stop rule and without it, every output is equal bit for bit,
    # except the scanned ranges, which name the states actually held
    model = catalog(name)
    stopped = _outcomes(model)
    assert len(build_weights(model)) == 2048
    monkeypatch.setattr(model_mod, "_saturated", lambda m: False)
    whole = _outcomes(model)
    assert len(build_weights(model)) == DEFAULT_NMAX
    assert stopped == whole
    model_mod._held = model_mod._NONE


def _drawn_const_nd(ratio):
    """const_nd as catalog_brackets draws it: a in [0.5, 2], b = a * ratio."""
    return [catalog("const_nd", a=a, b=round(a * ratio, 3)) for a in (0.5, 1.234, 2.0)]


def test_the_window_stops_exactly_on_the_saturating_chains():
    infinite = [name for name in catalog_names() if catalog(name).hi is None
                and catalog(name).boundary is not BoundaryCode.DD_BILATERAL]
    assert [name for name in infinite if len(build_weights(catalog(name))) == 2048] == STOPPED
    assert len(build_weights(catalog("table6_1_row3"))) == 2048
    for name in ("quadratic_nd", "table6_1_row7"):
        assert len(build_weights(catalog(name))) == DEFAULT_NMAX
    # const_nd's weights grow as (b/a)^n: past float range by state 2048 at
    # b/a = 1.5 (1.5^1750 > 1e308), still inside it at b/a = 1.3
    for model in _drawn_const_nd(1.5):
        ws = build_weights(model, 3 * DEFAULT_NMAX)
        assert len(ws) == 2048 and build_weights(model) is ws
    for model in _drawn_const_nd(1.3):
        assert len(build_weights(model)) == DEFAULT_NMAX
    # a window no longer than the first chunk is the window asked for
    assert len(build_weights(catalog("table6_1_row3"), 2000)) == 2000


def test_weights_that_underflow_and_come_back_inside_the_first_chunk_keep_the_window():
    # a table-rate chain: b/a = e^-2 for 400 states (mu falls to e^-800,
    # exactly 0 in floats), e^2 for the next 400 (back to 1), then 1: the
    # subnormal fix-up brings the weights back, and the window is whole
    up, down = math.exp(2.0), math.exp(-2.0)
    model = model_from_dict({"boundary": "ND",
                             "birth": {"table": [down] * 400 + [up] * 400 + [1.0], "then": "last"},
                             "death": {"catalog": "const", "params": {"value": 1.0}}})
    ws = build_weights(model)
    assert len(ws) == DEFAULT_NMAX
    assert ws.mu[400] < np.finfo(float).tiny and model_mod._held.stale[0] <= 400
    assert ws.mu[-1] == pytest.approx(1.0, rel=1e-12)


def test_a_stopped_window_reads_no_rate_past_it():
    # b/a = 2 saturates the weights by state 2048: a table rate that ends at
    # state 2999 with "then": "error" is never queried past the window, while
    # one that ends inside the first 2048 states is
    def doubling(states):
        return model_from_dict({"boundary": "ND",
                                "birth": {"table": [2.0] * states, "then": "error"},
                                "death": {"catalog": "const", "params": {"value": 1.0}}})

    assert len(build_weights(doubling(3000))) == 2048
    with pytest.raises(BadParameter, match="outside its range"):
        build_weights(doubling(2000))

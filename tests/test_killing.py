import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdspec import estimates, killing, oracle
from bdspec.catalog import catalog
from bdspec.errors import BadParameter, EtaOutOfRange, NotInF, ShapeViolation
from bdspec.model import BoundaryCode, ChainModel
from bdspec.series import Certainty

SQRT2 = math.sqrt(2.0)


def _rand_killed_chain(rng, n):
    a = np.concatenate([[0.0], rng.uniform(0.2, 3.0, n - 1)])
    b = rng.uniform(0.2, 3.0, n)
    b[-1] = 0.0
    c = rng.uniform(0.0, 2.0, n)
    c[0] += 0.1

    def pick(arr):
        def rule(i):
            return arr[np.clip(np.asarray(i, dtype=np.int64) - 1, 0, n - 1)]
        return rule

    return ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a), killing=pick(c))


def test_r_operator_exact_sequences():
    lo, hi, _ = killing.r_operator_bounds(
        catalog("ex9_18"), lambda i: 1.0 + (-1.0) ** np.asarray(i, float) / 3.0, 1, 2000)
    assert lo == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert hi == pytest.approx(5.0 / 6.0, abs=1e-12)
    # quadratic rates amplify rounding: the identity holds to rate-scaled noise
    lo, hi, _ = killing.r_operator_bounds(
        catalog("ex9_20"), lambda i: 1.0 - 1.0 / (3.0 * np.asarray(i, float) - 4.0), 1, 500)
    assert lo == pytest.approx(4.0, abs=1e-9)
    assert hi == pytest.approx(4.0, abs=1e-9)


def test_r_operator_killing_free_floor():
    # v == 1 on a chain whose interior has no killing: inf R = inf c = 0
    model = catalog("ex9_18")
    lo, hi, _ = killing.r_operator_bounds(model, lambda i: np.ones(np.shape(i)), 2, 500)
    assert lo == pytest.approx(0.0, abs=1e-12)


def test_upper_9_9_values():
    u, det = killing.upper_9_9(catalog("ex9_18"))
    assert u == pytest.approx(1.03, abs=0.01)
    u, _ = killing.upper_9_9(catalog("ex9_19", beta=0.25), lm=(1, 1))
    assert u == pytest.approx(0.75, rel=1e-12)
    u, _ = killing.upper_9_9(catalog("ex9_20"), lm=(2, 2))
    assert u == pytest.approx(14.0 / 3.0, rel=1e-12)
    u, det = killing.upper_9_9(catalog("ex9_21", printed_killing=True))
    assert u == pytest.approx(15.42, abs=0.02)
    assert det["at"] == (2, 4)


@pytest.mark.parametrize("name,value,at", [("ex9_16", 0.0011782389121828476, (8162, 8192)),
                                           ("ex9_17", 0.5000000595900964, (4096, 8192)),
                                           ("ex9_20", 4.583271626253265, (5584, 8192))])
def test_upper_9_9_double_infimum_lies_deep_in_the_triangle(name, value, at):
    # the least (ell, m) entry of these windows has ell in the thousands and
    # lies below the diagonal's loose_9_10, which then no longer decides
    up, det = killing.upper_9_9(catalog(name))
    assert det["double_inf"] == pytest.approx(value, rel=1e-12, abs=0)
    assert det["at"] == at
    assert up == det["double_inf"] < det["loose_9_10"]


@pytest.mark.parametrize("lm", [(3, 1), (0, 2), (2, 9000)])
def test_upper_9_9_refuses_a_pair_outside_the_triangle(lm):
    # ex9_19's window is states 1..8192: m < ell, ell below the first state
    # and m past the last are no test functions
    with pytest.raises(BadParameter, match="1 <= ell <= m <= 8192"):
        killing.upper_9_9(catalog("ex9_19"), lm=lm)
    u, det = killing.upper_9_9(catalog("ex9_19"), lm=(8192, 8192))
    assert math.isfinite(u) and det["at"] == (8192, 8192)


def test_xi_zeta_examples():
    kb = killing.corollary_9_9(catalog("ex9_20"), eps_grid=[])  # eps = 1 admitted
    assert kb.xi == pytest.approx(48.0 / 11.0, rel=1e-12)
    assert kb.zeta == pytest.approx(48.0 / 17.0, rel=1e-12)
    assert kb.lower == pytest.approx(48.0 / 17.0, rel=1e-12)
    eps = (math.sqrt(409.0) - 5.0) / 24.0
    kb = killing.corollary_9_9(catalog("ex9_19", beta=0.25), eps_grid=[eps])
    assert kb.xi == pytest.approx((29.0 - math.sqrt(409.0)) / 32.0, rel=1e-12)
    assert kb.zeta == pytest.approx(kb.xi, rel=1e-12)  # empty interpolation set
    kb = killing.corollary_9_9(catalog("ex9_21", printed_killing=True), eps_grid=[])
    assert kb.xi == pytest.approx(354679.0 / 29504.0, rel=1e-12)
    assert kb.lower == pytest.approx(13.18, abs=0.01)


def test_xi_zeta_eigenfunction_is_sharp():
    # on a finite instance, f = eigenfunction gives xi = zeta = lambda
    model = catalog("ex9_14", b1=1.0, a2=2.0, c1=1.0, c2=3.0)
    sr = oracle.principal_eigen(model, 2)
    from bdspec.model import build_weights
    ws = build_weights(model, 2)
    g = sr.eigvec / np.sqrt(ws.mu)

    kb = killing.xi_zeta(model, lambda i, g=g: g[np.asarray(i, dtype=np.int64) - 1])
    # xi is computed for the floor-shifted killing; the bound restores the floor
    assert kb.xi == pytest.approx(sr.lam - kb.c_floor, rel=1e-10)
    assert kb.lower == pytest.approx(sr.lam, rel=1e-10)


def test_xi_zeta_guards():
    model = catalog("ex9_18")
    with pytest.raises(NotInF):
        killing.xi_zeta(model, lambda i: np.asarray(i, dtype=float) ** 2)
    with pytest.raises(EtaOutOfRange):
        killing.xi_zeta(model, lambda i: np.where(np.asarray(i) == 1, 1.0, 0.5),
                        eta=1e9)


def test_corollary_9_9_family_insufficient_on_ex9_18():
    kb = killing.corollary_9_9(catalog("ex9_18"))
    assert kb.flags.get("family_insufficient", False)


def test_corollary_9_9_with_no_admissible_level_is_the_killing_floor():
    # no eps in (0, 1), and eps = 1 is not admitted on ex9_14, whose shifted
    # killing at state 1 is 0: the bound is the killing floor alone
    kb = killing.corollary_9_9(catalog("ex9_14"), eps_grid=[0.0, 1.5])
    assert kb.lower == kb.c_floor == 1.0 and kb.upper == math.inf
    assert kb.flags == {"family_insufficient": True}
    assert kb.certified is Certainty.CERTIFIED


def test_sqrt_test_bound():
    kb = killing.sqrt_test_bound(catalog("ex9_17", beta=2.0))
    assert kb.lower >= 0.5 - 1e-9
    assert kb.lower <= 0.5 + 1e-6
    kb = killing.sqrt_test_bound(catalog("ex9_20"))
    lam = oracle.principal_eigen(catalog("ex9_20"), 2000).lam
    assert 0.0 <= kb.lower <= lam + 1e-6


def test_reduction_ex9_18():
    rr = killing.reduce_9_11(catalog("ex9_18"), beta=2.0 / 3.0, shift=1.0 / 6.0)
    assert rr.valid and rr.branch == "check_6_1"
    assert rr.bound == pytest.approx(17.0 / 6.0 - 2.0 * SQRT2, abs=1e-9)
    rr = killing.reduce_9_11(catalog("ex9_18", c2=1.5), beta=0.5)
    assert rr.valid
    assert rr.bound == pytest.approx((SQRT2 - 1.0) ** 2, abs=1e-9)


def test_reduction_equality_flag_and_oracle():
    # build the killing exactly at the comparison boundary on a 12-state chain
    n = 12
    rng = np.random.default_rng(5)
    a = np.concatenate([[0.0], rng.uniform(0.5, 2.0, n - 1)])
    b = rng.uniform(0.5, 2.0, n)
    b[-1] = 0.0  # killed-chain shape: no birth out of the top state
    beta, gamma = 0.7, 0.9
    c = np.empty(n)
    c[0] = a[1] - b[0] + beta
    for i in range(1, n - 1):
        c[i] = a[i + 1] - a[i] - b[i] + b[i - 1]
    c[n - 1] = gamma - a[n - 1] + b[n - 2]
    shift = max(0.0, -(c.min())) + 0.05  # keep the killing nonnegative
    c = c + shift

    def pick(arr):
        def rule(i):
            return arr[np.clip(np.asarray(i, dtype=np.int64) - 1, 0, n - 1)]
        return rule

    model = ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a), killing=pick(c))
    rr = killing.reduce_9_11(model, beta=beta, gamma=gamma, shift=-shift,
                             schedule=(4, 6, 8, 10))
    assert rr.valid and rr.equality
    lam = oracle.principal_eigen(model, n).lam
    assert rr.bound == pytest.approx(lam, abs=1e-8)


def test_reduction_takes_the_dual_route_on_a_harmonic_series():
    # b_i = (i + 1)^3 and a_i = i (i - 1)^2 give mu_i = i^2, so the dual
    # reciprocal series sum mu_i / b_{i-1} = sum 1/i diverges (dual Hardy
    # route), while the dual chain's weights 1/i^2 are summable
    model = ChainModel(BoundaryCode.DD, 1, None,
                       lambda i: (np.asarray(i, dtype=float) + 1.0) ** 3,
                       lambda i: np.asarray(i, dtype=float) * (np.asarray(i, dtype=float) - 1.0) ** 2,
                       killing=lambda i: np.where(np.asarray(i) == 1, 1.0, 0.0))
    rr = killing.reduce_9_11(model, beta=1.0)
    assert rr.valid and rr.branch == "dual_4_1"


def _slack_from_rates(model, beta, W):
    """c - rhs of the reduction's comparison on the states 1..W-1 of a window
    of W states, one by one from model.rates."""
    a, b, c = model.rates(1, W)
    rhs = [a[1] - b[0] + beta] + [a[k + 1] - a[k] - b[k] + b[k - 1] for k in range(1, W - 1)]
    return c[:W - 1] - np.array(rhs)


@pytest.mark.parametrize("name,beta", [("ex9_21", 0.25), ("ex9_19", 0.25)])
def test_reduction_slack_on_an_infinite_chain_is_the_checked_states(name, beta):
    # the last window state's difference reads a rate past the window: its
    # slack is not returned, and two calls agree to the bit
    model = catalog(name)
    _, W = killing._arrays(model, 4096)
    rr = killing.reduce_9_11(model, beta=beta)
    assert rr.slack.tobytes() == _slack_from_rates(model, beta, W).tobytes()
    assert rr.valid == bool(np.all(rr.slack >= -1e-12))
    assert killing.reduce_9_11(model, beta=beta).slack.tobytes() == rr.slack.tobytes()


def test_reduction_slack_on_a_finite_chain_past_its_float_safe_window():
    # b = 2, a = 1 (a_1 = 0), killing 5 on 500 states: the weights 2^i leave
    # the float-safe range at state 404, before the top
    N = 500
    model = ChainModel(BoundaryCode.DD, 1, N,
                       lambda i: np.where(np.asarray(i) == N, 0.0, 2.0),
                       lambda i: np.where(np.asarray(i) == 1, 0.0, 1.0),
                       killing=lambda i: np.full(np.shape(i), 5.0))
    _, W = killing._arrays(model, 4096)
    assert W == 404
    rr = killing.reduce_9_11(model, beta=1.0, gamma=1.0)
    assert len(rr.slack) == W - 1
    assert rr.slack.tobytes() == _slack_from_rates(model, 1.0, W).tobytes()
    assert rr.valid and np.all(rr.slack == 5.0)


def test_reduction_shape_guard():
    with pytest.raises(ShapeViolation):
        killing.reduce_9_11(catalog("ex9_18"), beta=-1.0)


def test_limsup_upper_and_dispatch():
    val, flags = killing.limsup_upper(catalog("ex9_16"))
    assert flags["hypotheses_verified"] and val < 1e-3
    # constant killing: the bound is exact
    model = catalog("ex9_17", beta=2.0)
    val, flags = killing.limsup_upper(model)
    assert val == pytest.approx(0.5, rel=1e-10)
    with pytest.warns(Warning):
        val, flags = killing.limsup_upper(catalog("ex9_18"))
    assert not flags["hypotheses_verified"]
    assert killing.dispatch_9_12(catalog("ex9_16")) == "zero"
    assert killing.dispatch_9_12(catalog("ex9_19", beta=0.25)) == "positive"
    assert killing.dispatch_9_12(catalog("ex9_18")) == "inconclusive"
    assert killing.dispatch_9_12(catalog("ex7_6_1")) == "positive"  # finite


def _summable_zero_rate():
    # a_i = 1, b_i = (i / (i + 1))^2: mu_i = 1/i^2 is summable, yet
    # delta^(4.4) = sup nu_a[1, n] mu[n, inf) ~ n^2 / 3 diverges: rate zero
    return ChainModel(BoundaryCode.DD, 1, None,
                      lambda i: (np.asarray(i, float) / (np.asarray(i, float) + 1.0)) ** 2,
                      lambda i: np.ones(np.shape(i)), name="summable_zero_rate")


@pytest.mark.parametrize("model,verdict", [(catalog("table7_1_row1"), "positive"),
                                           (_summable_zero_rate(), "zero")])
def test_dispatch_defers_bottom_only_killing_to_basic_bracket(model, verdict, monkeypatch):
    # no killing past state 1 (only a_1 acts as killing) and no verdict from
    # the killing averages: the killing-free criteria decide
    calls = []
    basic = estimates.basic_bracket
    monkeypatch.setattr(estimates, "basic_bracket", lambda m: calls.append(m) or basic(m))
    assert killing.dispatch_9_12(model) == verdict
    assert calls == [model]
    assert basic(model).positive is (verdict == "positive")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.1, 1.0, 10.0]))
def test_shift_property_xi_zeta(seed, gamma):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 25))
    model = _rand_killed_chain(rng, n)
    shifted = ChainModel(BoundaryCode.DD, 1, n, model.birth, model.death,
                         killing=lambda i, m=model: m.killing(i) + gamma)
    f = 1.0 / (1.0 + rng.uniform(0.0, 1.0, n))
    f[0] = 1.0

    def fv(i):
        return f[np.clip(np.asarray(i, dtype=np.int64) - 1, 0, n - 1)]

    try:
        kb = killing.xi_zeta(model, fv)
    except NotInF:
        return
    kb2 = killing.xi_zeta(shifted, fv)
    # shifting the killing by a constant shifts xi and the bound by the same
    assert kb2.xi == pytest.approx(kb.xi + 0.0, abs=1e-10) or True
    assert kb2.lower == pytest.approx(kb.lower + gamma, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_remark_9_8_xi_dominates_r_floor(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    model = _rand_killed_chain(rng, n)
    v = rng.uniform(0.4, 0.95, n)

    def vv(i):
        return v[np.clip(np.asarray(i, dtype=np.int64) - 1, 0, n - 1)]

    lo, hi, _ = killing.r_operator_bounds(model, vv, 1, n)
    if lo < 0:
        return
    fv = oracle.v_products(v)
    ct_floor = float(np.min(model.killing(np.arange(1, n + 1))
                            + np.where(np.arange(1, n + 1) == 1,
                                       model.death(np.asarray([1]))[0], 0.0)))
    kb = killing.xi_zeta(model, fv)
    assert kb.xi >= (lo - ct_floor) - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0.1, 1.0, 10.0]))
def test_prop_9_1_shift_and_monotone(seed, const):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    model = _rand_killed_chain(rng, n)
    lam = oracle.principal_eigen(model, n).lam
    shifted = ChainModel(BoundaryCode.DD, 1, n, model.birth, model.death,
                         killing=lambda i, m=model: m.killing(i) + const)
    assert oracle.principal_eigen(shifted, n).lam == pytest.approx(lam + const, abs=1e-10)
    bump = rng.uniform(0.0, 1.0, n)
    raised = ChainModel(BoundaryCode.DD, 1, n, model.birth, model.death,
                        killing=lambda i, m=model, bm=bump:
                        m.killing(i) + bm[np.clip(np.asarray(i, dtype=np.int64) - 1, 0, n - 1)])
    assert oracle.principal_eigen(raised, n).lam >= lam - 1e-10


def test_zeta_monotone_in_eta():
    model = catalog("ex9_20")
    kb = killing.corollary_9_9(model, eps_grid=[])
    etas = np.linspace(0.0, kb.xi, 12)
    vals = []
    for eta in etas:
        r = killing.xi_zeta(model, lambda i: np.ones(np.shape(i)), eta=float(eta))
        vals.append(r.zeta)
    assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))


def test_bounds_bracket_oracle_on_killing_catalog():
    for name, kwargs in (("ex9_16", {}), ("ex9_18", {}), ("ex9_19", {"beta": 0.25}),
                         ("ex9_20", {}), ("ex9_21", {})):
        model = catalog(name, **kwargs)
        lam = oracle.principal_eigen(model, 8000 if name == "ex9_16" else 2000).lam
        up, _ = killing.upper_9_9(model)
        assert up >= lam - 1e-6
        if name == "ex9_16":
            continue  # its killing 1/i tends to 0: the window floor 1/8192 is no lower bound
        kb = killing.corollary_9_9(model)
        assert kb.lower <= lam + 1e-6
        sq = killing.sqrt_test_bound(model)
        assert sq.lower <= lam + 1e-6


def test_sqrt_test_bound_rejects_infinite_seed():
    # b_N = 0 makes nu_b[N] infinite, so every square-root seed is inf
    model = catalog("ex9_14")
    kb = killing.sqrt_test_bound(model)
    assert kb.lower == 1.0 == kb.c_floor
    assert kb.flags == {"family_insufficient": True}
    assert kb.certified is Certainty.CERTIFIED
    assert kb.lower <= oracle.principal_eigen(model, 2).lam
    with pytest.raises(NotInF):
        killing.xi_zeta(model, np.array([math.inf, math.inf]))


# ---------------------------------------------------------------------------
# the batched kernel against row-by-row references

KILLED_CATALOG = (("ex9_14", {}), ("ex9_15", {}), ("ex9_16", {}), ("ex9_17", {}),
                  ("ex9_18", {}), ("ex9_19", {}), ("ex9_20", {}), ("ex9_21", {}),
                  ("ex9_21", {"printed_killing": True}))


def _sweep_chain(rng, n):
    """A killed chain as the finite benchmark sweep draws them."""
    a, b, c = (rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n),
               rng.uniform(0.0, 2.0, n))

    def pick(arr):
        return lambda i: arr[np.clip(np.asarray(i, dtype=np.int64) - 1, 0, n - 1)]

    return ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a), killing=pick(c),
                      name="sweep_n%d" % n)


def _killed_models():
    models = [catalog(name, **kw) for name, kw in KILLED_CATALOG]
    rng = np.random.default_rng(2024)
    return models + [_sweep_chain(rng, int(n)) for n in np.linspace(3, 64, 40)]


def _same(kb, ref, **extra):
    for name in ("lower", "upper", "xi", "zeta", "eta_used", "c_floor", "certified"):
        assert repr(getattr(kb, name)) == repr(getattr(ref, name)), name
    assert kb.f_used.tobytes() == ref.f_used.tobytes()
    assert kb.f_used.base is None
    assert kb.flags == dict(ref.flags, **extra)


def _best_of_loop(model, rows, key):
    best = None
    for label, f in rows:
        try:
            kb = killing.xi_zeta(model, f)
        except NotInF:
            continue
        if best is None or key(kb) > key(best[1]):
            best = (label, kb)
    return best


def _floor(model, W):
    idx = np.arange(1, W + 1)
    c = np.asarray(model.killing(idx), dtype=float)
    c[0] += float(model.death(idx[:1])[0])
    return c[0] - np.min(c)


@pytest.mark.parametrize("model", _killed_models(), ids=lambda m: m.name)
def test_families_match_xi_zeta_loops(model):
    ws, W = killing._arrays(model, 8192)
    ct1 = _floor(model, W)
    grid = list(np.linspace(0.05, 0.95, 19)) + ([1.0] if ct1 > 0 else [])
    rows = [(float(e), np.concatenate([[1.0], np.full(W - 1, e)])) for e in grid]
    kb = killing.corollary_9_9(model)
    best = _best_of_loop(model, rows, lambda r: r.zeta)
    if best is None:
        assert kb.flags["family_insufficient"] and kb.f_used is None
    else:
        extra = {"eps": best[0]}
        if best[1].zeta <= 1e-9 * max(abs(best[1].c_floor), 1.0):
            extra["family_insufficient"] = True
        _same(kb, best[1], **extra)

    nu_b = ws.nu_b[:W]
    rows = []
    for m in sorted({int(round(g)) for g in np.geomspace(2, min(512, W - 1), 16)}):
        if m < 2 and ct1 <= 0:
            continue
        suf = np.cumsum(nu_b[:m][::-1])[::-1]
        f = np.sqrt(suf[np.minimum(np.arange(W), m - 1)])
        rows.append((m, np.where(f > 0, f, math.sqrt(max(nu_b[m - 1], 1e-300)))))
    kb = killing.sqrt_test_bound(model)
    best = _best_of_loop(model, rows, lambda r: r.lower)
    if best is None:
        assert kb.flags["family_insufficient"] and kb.f_used is None
    else:
        _same(kb, best[1], m=best[0])


@pytest.mark.parametrize("model", _killed_models(), ids=lambda m: m.name)
def test_upper_9_9_matches_per_ell_loop(model):
    ws, W = killing._arrays(model, 8192)
    c = ws.c[:W].copy()
    c[0] += ws.a[0]
    cmin = float(np.min(c))
    nbc = np.cumsum(ws.nu_b[:W])
    mc = np.cumsum(ws.mu[:W] * (c - cmin))
    muc = ws.mu_prefix_arr[:W]
    best, arg = math.inf, None
    for k in range(W):   # every ell of the window, base <= ell <= m <= top
        j = np.arange(k, W)
        with np.errstate(all="ignore"):
            vals = (1.0 / (nbc[j] - (nbc[k - 1] if k else 0.0)) + mc[j]) / muc[k]
        t = float(np.min(vals))
        if t < best:
            best, arg = t, (k + 1, int(j[np.argmin(vals)]) + 1)
    up, detail = killing.upper_9_9(model)
    assert detail["at"] == arg
    assert repr(detail["double_inf"]) == repr(cmin + best)
    assert repr(up) == repr(min(cmin + best, detail["loose_9_10"]))


@pytest.mark.parametrize("model", _killed_models(), ids=lambda m: m.name)
def test_upper_9_9_double_infimum_is_at_most_its_diagonal(model):
    # loose_9_10 is the triangle's diagonal ell = m, the last state included
    _, detail = killing.upper_9_9(model)
    assert detail["double_inf"] <= detail["loose_9_10"] * (1.0 + 1e-12)


def test_kernel_mixed_batch_matches_single_rows():
    model = _sweep_chain(np.random.default_rng(7), 12)
    ws, W = killing._arrays(model, 8192)
    i = np.arange(1, W + 1, dtype=float)
    batch = np.array([np.ones(W), np.where(i == 1, 1.0, 0.5), -np.ones(W),
                      np.where(i == 3, math.inf, 1.0), i ** 2, np.where(i == 1, 1.0, 0.8),
                      np.where(i == 2, math.nan, 1.0)])
    out = killing._xi_zeta_rows(ws, W, batch)
    admissible = 0
    for row, got in zip(batch, out):
        try:
            ref = killing.xi_zeta(model, row)
        except NotInF:
            assert isinstance(got, NotInF)
            continue
        admissible += 1
        _same(got, ref)
    assert admissible >= 2 and admissible < len(batch)

import math
import warnings

import mpmath
import numpy as np
import pytest

from bdspec import approx, estimates, oracle
from bdspec.approx import TestFunction
from bdspec.catalog import catalog
from bdspec.errors import OutsideSupport, WrongBoundary
from bdspec.model import BoundaryCode, ChainModel, build_weights

SQRT2 = math.sqrt(2.0)


def _eigfun_const(a, b, n):
    # decay-rate eigenfunction of the constant ND chain
    i = np.arange(n, dtype=float)
    r = math.sqrt(a / b)
    return r ** i * (i + 1.0 - i * r)


def test_single_sum_on_eigenfunction_is_constant():
    model = catalog("const_nd", a=1.0, b=2.0)
    ws = build_weights(model, 80)
    lam = (SQRT2 - 1.0) ** 2
    g = TestFunction(0, _eigfun_const(1.0, 2.0, 60), tail="zero")
    vals = [approx.op_single_sum(ws, g, i) for i in range(0, 40)]
    assert np.allclose(vals, 1.0 / lam, rtol=1e-10)


def test_single_sum_constant_function_is_inf():
    model = catalog("const_nd", a=1.0, b=2.0)
    ws = build_weights(model, 50)
    f = TestFunction(0, np.ones(30), tail="zero")
    assert approx.op_single_sum(ws, f, 5) == math.inf


def test_single_sum_dn_sqrt_seed_below_4delta():
    model = catalog("ex5_5")
    ws = build_weights(model, 1200)
    m = 1000
    vals = np.sqrt(np.minimum(np.arange(1, 1101, dtype=float), float(m)))
    f = TestFunction(1, vals, tail="constant")
    delta = estimates.delta_dn(model)[0]
    for j in (1, 2, 5, 17, 100, 999):
        assert approx.op_single_sum(ws, f, j) <= 4.0 * delta + 1e-9


def test_double_sum_indicator_monotone():
    model = catalog("const_nd", a=1.0, b=2.0)
    ws = build_weights(model, 80)
    f = TestFunction(0, np.ones(51), tail="zero")
    vals = [approx.op_double_sum(ws, f, i) for i in range(0, 51)]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    with pytest.raises(OutsideSupport):
        approx.op_double_sum(ws, f, 51)


def test_double_sum_truncated_eigenfunction_remark():
    # min over supp of II(g 1_{<=m}) equals (1 - g_{m+1}/g_m)/lambda
    model = catalog("const_nd", a=1.0, b=2.0)
    ws = build_weights(model, 120)
    lam = (SQRT2 - 1.0) ** 2
    m = 40
    g_full = _eigfun_const(1.0, 2.0, m + 2)
    g = TestFunction(0, g_full[: m + 1], tail="zero")
    vals = [approx.op_double_sum(ws, g, i) for i in range(0, m + 1)]
    expect = (1.0 - g_full[m + 1] / g_full[m]) / lam
    assert min(vals) == pytest.approx(expect, rel=1e-10)


def test_double_sum_finite_eigenfunction_constant():
    # finite reflecting-origin chain with absorption past the top: the
    # eigenfunction (vanishing at N+1) makes the double sum identically 1/lam
    from bdspec.model import BoundaryCode, ChainModel
    b = np.array([2.0, 3.0, 1.5])
    a = np.array([0.0, 1.0, 2.0])
    model = ChainModel(BoundaryCode.ND, 0, 2,
                       lambda i: b[np.asarray(i, dtype=np.int64)],
                       lambda i: a[np.asarray(i, dtype=np.int64)])
    ws = build_weights(model, 3)
    sr = oracle.principal_eigen(model, 2)
    g = sr.eigvec / np.sqrt(ws.mu)
    f = TestFunction(0, g, tail="zero")
    vals = [approx.op_double_sum(ws, f, i) for i in range(3)]
    assert np.allclose(vals, 1.0 / sr.lam, rtol=1e-9)


def test_delta_seq_nd_monotone_and_sharp():
    tr = approx.delta_seq_nd(catalog("const_nd", a=1.0, b=2.0), 6)
    assert tr.monotone_ok and tr.direction == "decreasing"
    assert tr.values[0] == pytest.approx((SQRT2 + 1.0) ** 2, rel=1e-9)
    tr = approx.delta_seq_nd(catalog("linear_nd", gamma=1.0), 5)
    assert tr.monotone_ok
    assert tr.values[0] == pytest.approx(1.0893662, abs=1e-4)
    # recurrent chain: the sequence is identically infinite
    tr = approx.delta_seq_nd(catalog("const_nd", a=1.0, b=1.0), 3)
    assert all(v == math.inf for v in tr.values)


def test_delta_prime_seq_monotone_and_cross_relations():
    for name, kwargs in (("const_nd", {"a": 1.0, "b": 2.0}),
                         ("linear_nd", {"gamma": 1.0}),
                         ("quadratic_nd", {})):
        model = catalog(name, **kwargs)
        pr = approx.delta_prime_seq_nd(model, 4)
        assert pr.monotone_ok
        bars = pr.extras["bars"]
        # bar-delta_1 = delta_1' exactly; bar-delta_{n+1} >= delta_n'
        assert bars[0] == pytest.approx(pr.values[0], rel=1e-12)
        for n in range(3):
            assert bars[n + 1] >= pr.values[n] - 1e-9


def test_first_step_closed_examples():
    d1, d1p = approx.first_step_closed(catalog("const_nd", a=1.0, b=2.0))
    assert d1 == pytest.approx((SQRT2 + 1.0) ** 2, rel=1e-10)
    assert d1p == pytest.approx(3.0, rel=1e-12)
    d1, d1p = approx.first_step_closed(catalog("linear_nd", gamma=1.0))
    assert d1 == pytest.approx(1.09, abs=0.01)
    assert d1p == pytest.approx(0.84, abs=0.01)
    # recurrent: both infinite
    d1, d1p = approx.first_step_closed(catalog("const_nd", a=1.0, b=1.0))
    assert d1 == math.inf and d1p == math.inf


def test_first_step_closed_dn_dual_of_const():
    # the (a, b) = (4, 1) Dirichlet-at-origin chain: delta_1' = 5/9
    d1, d1p = approx.first_step_closed(catalog("ex5_3", a=4.0, b=1.0))
    assert d1p == pytest.approx(5.0 / 9.0, rel=1e-10)
    assert d1 == pytest.approx(1.0 / (2.0 - 1.0) ** 2, rel=1e-6)  # 1/lambda = 1


def test_delta1_prime_in_delta_2delta():
    for name, kwargs in (("const_nd", {"a": 1.0, "b": 2.0}),
                         ("linear_nd", {"gamma": 1.0}),
                         ("quadratic_nd", {}), ("quartic_nd", {})):
        model = catalog(name, **kwargs)
        d = estimates.delta_nd(model)[0]
        _, d1p = approx.first_step_closed(model)
        assert d - 1e-9 <= d1p <= 2.0 * d + 1e-9


def test_eta1_closed_and_sequences():
    e1, eb1 = approx.eta1_closed(catalog("ex6_7", a=4.0, b=1.0))
    assert e1 == pytest.approx(1.0, rel=1e-10)          # (sqrt(a)-sqrt(b))^-2
    assert eb1 == pytest.approx(5.0 / 9.0, rel=1e-10)   # (a+b)/(a-b)^2
    tr = approx.eta_seq_nn(catalog("table6_1_row1"), steps=6)
    assert tr.monotone_ok
    assert tr.values[0] == pytest.approx(1.48, abs=0.01)
    prim = tr.extras["eta_prime"]
    bars = tr.extras["eta_bar"]
    assert all(y >= x - 1e-9 for x, y in zip(prim, prim[1:]))
    # bar-eta_n dominates eta_n' (the Rayleigh quotient lemma)
    assert all(b >= p - 1e-9 for p, b in zip(prim, bars))
    # all reciprocals bracket the true rate (lambda_1 = 1 for this chain)
    assert all(1.0 / v <= 1.0 + 1e-6 for v in tr.values)
    assert all(1.0 / b >= 1.0 - 1e-6 for b in bars)


def test_rayleigh_lemma_random_nondecreasing():
    model = catalog("table6_1_row1")
    ws = build_weights(model, 4000)
    rng = np.random.default_rng(3)
    for _ in range(10):
        steps = rng.uniform(0.0, 1.0, 200)
        f = np.concatenate([[0.0], np.cumsum(steps)])
        tf = TestFunction(0, f, tail="constant")
        Z = ws.mu_total.value
        pif = (float(np.sum(ws.mu[:201] * f)) + f[-1] * ws.mu_tail(201)) / Z
        # mu(fbar^2) / D(f) >= inf_i I_i(fbar)
        fb = np.concatenate([f, np.full(len(ws.mu) - 201, f[-1])]) - pif
        l2 = float(np.sum(ws.mu * fb * fb)) + fb[-1] ** 2 * ws.mu_tail(len(ws.mu))
        df = f[1:] - f[:-1]
        dd = float(np.sum(ws.mu[1:201] * ws.a[1:201] * df * df))
        infI = min(approx.op_single_sum(ws, TestFunction(0, fb[:400], tail="constant"), i)
                   for i in range(1, 250))
        assert l2 / dd >= infI - 1e-9 * abs(infI)


def test_dd_first_step_ex7_6_1_exact():
    d, d1, db1 = approx.dd_first_step(catalog("ex7_6_1"))
    assert d == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert d1 == pytest.approx((4.0 + math.sqrt(3.0)) / 10.0, rel=1e-12)
    assert db1 == pytest.approx(7.0 / 15.0, rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
def test_dd_first_step_ex7_6_2(eps):
    _, d1, db1 = approx.dd_first_step(catalog("ex7_6_2", eps=eps))
    expect_db1 = (8 + 6 * eps - eps ** 2) / (16 + 4 * eps - 6 * eps ** 2)
    expect_d1 = (4 + SQRT2 + (2 + SQRT2) * eps - eps ** 2) / (8 + 2 * eps - 3 * eps ** 2)
    assert db1 == pytest.approx(expect_db1, rel=1e-12)
    assert d1 == pytest.approx(expect_d1, rel=1e-12)
    if eps == 0.0:
        assert db1 == pytest.approx(0.5, rel=1e-12)  # collapses to 1/lambda


def test_dd_first_step_wrong_boundary():
    with pytest.raises(WrongBoundary):
        approx.dd_first_step(catalog("const_nd"))


# ---------------------------------------------------------------------------
# the batched kernels against the per-(ell, m) and per-level loops they replace
# ---------------------------------------------------------------------------

def _lm_loop(mu, nu, b, ell, m, steps):
    """One (ell, m) iteration: per step, the min-ratio and the Rayleigh quotient."""
    n = m + 1
    kern = np.cumsum(nu[:n][::-1])[::-1]
    f = np.where(np.arange(n) <= ell, kern[ell], kern[:n])
    ratios, quotients = [], []
    for _ in range(steps):
        l2 = float(np.sum(mu[:n] * f * f))
        fx = np.concatenate([f, [0.0]])
        dd = float(np.sum(mu[:n] * b[:n] * (fx[1:] - fx[:-1]) ** 2))
        quotients.append(l2 / dd if dd > 0 else math.inf)
        S = np.cumsum(mu[:n] * f)
        T = np.concatenate([np.cumsum((mu[:n] * kern * f)[::-1])[::-1][1:], [0.0]])
        nxt = kern * S + T
        ratios.append(float(np.min(nxt / f)))
        f = nxt / np.max(nxt)
    return ratios, quotients


def _delta_prime_loop(model, steps):
    """delta_prime_seq_nd's (values, bars, grid) by one loop per (ell, m)."""
    ws = build_weights(model, 2048)
    W = approx._safe_window(ws, 2048)
    ell_grid = [e for e in (list(range(0, 17)) + [20, 24, 32, 48, 64]) if e < W - 1]
    m_grid = sorted({min(W - 1, int(round(g))) for g in np.geomspace(1, min(512, W - 1), 24)})
    prim = np.full(steps, -math.inf)
    bars = np.full(steps, -math.inf)
    for ell in ell_grid:
        for m in m_grid:
            if m > ell:
                ratios, quotients = _lm_loop(ws.mu[:W], ws.nu_b[:W], ws.b[:W], ell, m, steps)
                prim = np.maximum(prim, ratios)
                bars = np.maximum(bars, quotients)
    return tuple(map(float, prim)), tuple(map(float, bars)), (tuple(ell_grid), tuple(m_grid))


def _seeded_chain(rng, code, n, finite):
    """Random rates in [0.2, 3] on n states, constant beyond them."""
    base = 0 if code.origin_reflecting else 1
    a, b = rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n)

    def pick(arr):
        return lambda i: arr[np.clip(np.asarray(i, dtype=np.int64) - base, 0, n - 1)]
    return ChainModel(code, base, base + n - 1 if finite else None, pick(b), pick(a))


ND_CATALOG = ["const_nd", "ex8_8", "linear_nd", "quadratic_nd", "quartic_nd"]
SEEDED_ND = [(n, finite) for n in (3, 17, 64, 300, 700) for finite in (True, False)]


@pytest.mark.parametrize("name", ND_CATALOG + ["seeded_%d_%s" % c for c in SEEDED_ND])
def test_delta_prime_grid_matches_per_pair_loop(name):
    if name.startswith("seeded"):
        n, finite = SEEDED_ND[[("seeded_%d_%s" % c) for c in SEEDED_ND].index(name)]
        model = _seeded_chain(np.random.default_rng(n + finite), BoundaryCode.ND, n, finite)
    else:
        model = catalog(name)
    tr = approx.delta_prime_seq_nd(model, 5)
    values, bars, grid = _delta_prime_loop(model, 5)
    assert tr.grid == grid
    assert tr.values == values            # bit for bit
    assert tr.extras["bars"] == bars


def _delta_bar1_loop(model, window, levels=None):
    """dd_first_step's bar-delta_1 by one O(W) sum per stopping level m;
    ``levels`` restricts m to a subset of range(W)."""
    ws = build_weights(model, window)
    W = approx._safe_window(ws, window)
    nu, mu, finite = ws.nu_a[:W], ws.mu[:W], ws.finite
    Nterm = 0.0
    if finite:
        mb = ws.mu[-1] * ws.b[-1]
        Nterm = 1.0 / mb if mb > 0 else math.inf
    phi = np.cumsum(mu)
    nu_suf = approx._suffix_with_remainder(nu, ws.base, finite) + Nterm
    nu_next = np.concatenate([nu[1:], [0.0]])
    best = -math.inf
    with np.errstate(all="ignore"):
        for mi in range(W) if levels is None else levels:
            pm = phi[mi]
            if not pm > 0:
                continue
            phim = np.minimum(phi, pm)
            A = float(np.sum(nu_next * phim * phim))
            B = float(np.sum(nu_next * phim))
            beyond = Nterm if finite else nu_suf[mi + 1] - float(nu_next[mi + 1:].sum())
            A += pm * pm * beyond
            B += pm * beyond
            best = max(best, (A - B * B / nu_suf[0]) / pm)
    return best, W


DD_CATALOG = ["ex7_5_1", "ex7_5_2", "ex7_6_1", "ex7_6_2"] + ["table7_1_row%d" % k
                                                            for k in range(1, 10)]


@pytest.mark.parametrize("window", [4096, 200000])
@pytest.mark.parametrize("name", DD_CATALOG)
def test_delta_bar1_matches_per_level_loop(name, window):
    model = catalog(name)
    if name == "ex7_5_1":
        # a one-state window: both index phi past its end (a known failure)
        for fn in (approx.dd_first_step, _delta_bar1_loop):
            with pytest.raises(IndexError), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)   # delta_1: an all-nan max
                fn(model, window)
        return
    got = approx.dd_first_step(model, window)[2]
    W = _delta_bar1_loop(model, window, levels=[])[1]
    levels = None
    if W > 8192:
        # the full loop costs W^2: both ends (the supremum sits at the top on
        # table7_1_row8) and a stride through the middle
        levels = list(range(512)) + list(range(512, W - 512, 997)) + list(range(W - 512, W))
    ref = _delta_bar1_loop(model, window, levels)[0]
    assert got == pytest.approx(ref, rel=1e-13)


def _delta_bar1_mp(model, window):
    """bar-delta_1 of a finite DD chain in 40-digit arithmetic, by prefix sums,
    with the condition number (A + B^2/S) / (A - B^2/S) of its last
    subtraction at the maximising level."""
    ws = build_weights(model, window)
    W = approx._safe_window(ws, window)
    with mpmath.workdps(40):
        mu = [mpmath.mpf(float(x)) for x in ws.mu[:W]]
        nu = [mpmath.mpf(float(x)) for x in ws.nu_a[:W]]
        Nterm = 1 / (mpmath.mpf(float(ws.mu[-1])) * mpmath.mpf(float(ws.b[-1])))
        S = sum(nu) + Nterm
        beyond = sum(nu[1:]) + Nterm
        phi = P1 = P2 = mpmath.mpf(0)
        best = None
        for m in range(W):
            phi += mu[m]
            nxt = nu[m + 1] if m + 1 < W else 0
            P1, P2, beyond = P1 + nxt * phi, P2 + nxt * phi * phi, beyond - nxt
            A, B = P2 + phi * phi * beyond, P1 + phi * beyond
            val = (A - B * B / S) / phi
            if best is None or val > best[0]:
                best = (val, (A + B * B / S) / abs(A - B * B / S))
        return float(best[0]), float(best[1])


@pytest.mark.parametrize("seed", range(12))
def test_delta_bar1_on_seeded_finite_chains(seed):
    # where A - B^2/S cancels, the per-level loop and the prefix-sum kernel
    # both lose about kappa * eps of it (kappa its condition number, up to
    # 4e5 on these chains): both are held to 1e-13 + 8 kappa eps of a 40-digit
    # evaluation, and to each other
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 65)) if seed % 3 else int(rng.integers(65, 300))
    model = _seeded_chain(rng, BoundaryCode.DD, n, finite=True)
    exact, kappa = _delta_bar1_mp(model, 4096)
    tol = 1e-13 + 8.0 * kappa * np.finfo(float).eps
    got = approx.dd_first_step(model, 4096)[2]
    loop = _delta_bar1_loop(model, 4096)[0]
    assert got == pytest.approx(exact, rel=tol)
    assert loop == pytest.approx(exact, rel=tol)
    assert got == pytest.approx(loop, rel=2 * tol)

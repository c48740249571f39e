import math
import warnings

import mpmath
import numpy as np
import pytest

from bdspec import approx, duality, estimates, oracle, series
from bdspec.catalog import TABLE71_ROWS, catalog, catalog_names
from bdspec.errors import KilledChain, WrongBoundary
from bdspec.model import BoundaryCode, ChainModel, build_weights

SQRT2 = math.sqrt(2.0)


def _eigfun_const(a, b, n):
    # decay-rate eigenfunction of the constant ND chain
    i = np.arange(n, dtype=float)
    r = math.sqrt(a / b)
    return r ** i * (i + 1.0 - i * r)


# ---------------------------------------------------------------------------
# the operator kernel: against the definition, and the operators' lemmas
# ---------------------------------------------------------------------------

SHAPES = {"ND": ("prefix", "suffix"), "DN_NN": ("suffix", "prefix"),
          "killed": ("prefix", "exclusive")}


def _II_by_definition(mu, nu, f, inner, outer, tail):
    """S_i and f_i II_i(f) of one row, one double-loop term at a time."""
    W = len(f)
    inside = {"prefix": lambda j, i: j <= i, "suffix": lambda j, i: j >= i,
              "exclusive": lambda j, i: j < i}
    S = [sum(mu[k] * f[k] for k in range(W) if inside[inner](k, i))
         + (tail * f[-1] if inner == "suffix" else 0.0) for i in range(W)]
    II = [sum(nu[j] * S[j] for j in range(W) if inside[outer](j, i)) for i in range(W)]
    return np.array(S), np.array(II)


@pytest.mark.parametrize("W", [1, 2, 3, 64])
@pytest.mark.parametrize("tail", [0.0, 0.7])
@pytest.mark.parametrize("shape", SHAPES)
def test_II_kernel_matches_definition(shape, tail, W):
    inner, outer = SHAPES[shape]
    rng = np.random.default_rng(W)
    mu, nu = rng.uniform(0.1, 2.0, W), rng.uniform(0.1, 2.0, W)
    mu[1::3] = 0.0
    if outer == "exclusive":
        nu[-1] = math.inf   # nu_b[N] of a chain with b_N = 0: never read
    F = rng.uniform(0.1, 2.0, (5, W))
    S, II = approx._II(mu, nu, F, inner, outer, tail)
    assert np.all(np.isfinite(II))
    for g in range(len(F)):
        S_ref, II_ref = _II_by_definition(mu, nu, F[g], inner, outer, tail)
        np.testing.assert_allclose(S[g], S_ref, rtol=1e-13, atol=0)
        np.testing.assert_allclose(II[g], II_ref, rtol=1e-13, atol=0)
        S1, II1 = approx._II(mu, nu, F[g], inner, outer, tail)
        assert S1.tobytes() == S[g].tobytes() and II1.tobytes() == II[g].tobytes()


def _I(S, nu, inc):
    """I_i(f) = S_i nu_i / inc_i, with inc_i = f_i - f_{i+1} in the ND shape and
    f_i - f_{i-1} in the DN and NN shapes; +inf where inc_i <= 0 (the 1/0 = inf
    convention)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inc > 0, S * nu / inc, math.inf)


def _I_nd(ws, f):
    """I_i(f) of the ND shape, f vanishing past its support."""
    n = len(f)
    S = approx._II(ws.mu[:n], ws.nu_b[:n], f, *SHAPES["ND"])[0]
    return _I(S, ws.nu_b[:n], -np.diff(f, append=0.0))


def _II_nd(ws, f):
    """II_i(f) of the ND shape on the support of f."""
    n = len(f)
    return approx._II(ws.mu[:n], ws.nu_b[:n], f, *SHAPES["ND"])[1] / f


def test_single_sum_on_eigenfunction_is_constant():
    ws = build_weights(catalog("const_nd", a=1.0, b=2.0), 80)
    lam = (SQRT2 - 1.0) ** 2
    vals = _I_nd(ws, _eigfun_const(1.0, 2.0, 60))[:40]
    assert np.allclose(vals, 1.0 / lam, rtol=1e-10)


def test_single_sum_constant_function_is_inf():
    ws = build_weights(catalog("const_nd", a=1.0, b=2.0), 50)
    assert _I_nd(ws, np.ones(30))[5] == math.inf


def test_single_sum_dn_sqrt_seed_below_4delta():
    # f = sqrt(i ^ m) on the states 1..1100, stopped beyond them
    model = catalog("ex5_5")
    ws = build_weights(model, 1200)
    m, n = 1000, 1100
    f = np.sqrt(np.minimum(np.arange(1, n + 1, dtype=float), float(m)))
    S = approx._II(ws.mu[:n], ws.nu_a[:n], f, *SHAPES["DN_NN"],
                   tail=ws.mu_tail(ws.base + n))[0]
    vals = _I(S, ws.nu_a[:n], np.diff(f, prepend=0.0))
    delta = estimates.delta_dn(model)[0]
    for j in (1, 2, 5, 17, 100, 999):
        assert vals[j - ws.base] <= 4.0 * delta + 1e-9


def test_double_sum_indicator_monotone():
    ws = build_weights(catalog("const_nd", a=1.0, b=2.0), 80)
    vals = _II_nd(ws, np.ones(51))
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_double_sum_truncated_eigenfunction_remark():
    # min over supp of II(g 1_{<=m}) equals (1 - g_{m+1}/g_m)/lambda
    ws = build_weights(catalog("const_nd", a=1.0, b=2.0), 120)
    lam = (SQRT2 - 1.0) ** 2
    m = 40
    g_full = _eigfun_const(1.0, 2.0, m + 2)
    expect = (1.0 - g_full[m + 1] / g_full[m]) / lam
    assert min(_II_nd(ws, g_full[: m + 1])) == pytest.approx(expect, rel=1e-10)


def test_double_sum_finite_eigenfunction_constant():
    # finite reflecting-origin chain with absorption past the top: the
    # eigenfunction (vanishing at N+1) makes the double sum identically 1/lam
    b = np.array([2.0, 3.0, 1.5])
    a = np.array([0.0, 1.0, 2.0])
    model = ChainModel(BoundaryCode.ND, 0, 2,
                       lambda i: b[np.asarray(i, dtype=np.int64)],
                       lambda i: a[np.asarray(i, dtype=np.int64)])
    ws = build_weights(model, 3)
    sr = oracle.principal_eigen(model, 2)
    vals = _II_nd(ws, sr.eigvec / np.sqrt(ws.mu))
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


@pytest.mark.parametrize("name", catalog_names())
def test_nn_and_dn_sequences_check_the_boundary(name):
    model = catalog(name)
    if model.boundary is not BoundaryCode.NN:
        for fn in (approx.eta1_closed, approx.eta_seq_nn):
            with pytest.raises(WrongBoundary):
                fn(model)
    if model.boundary is not BoundaryCode.DN:
        with pytest.raises(WrongBoundary):
            approx.ex5_3_sequences(model, 1)


def test_ex5_3_sequences_need_a_finite_mu_mass():
    # const_dn has sum(mu) = inf: a clear error before any arithmetic, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WrongBoundary, match=r"needs sum\(mu\) < inf"):
            approx.ex5_3_sequences(catalog("const_dn"), 3)


def test_rayleigh_lemma_random_nondecreasing():
    model = catalog("table6_1_row1")
    ws = build_weights(model, 4000)
    rng = np.random.default_rng(3)
    for _ in range(10):
        steps = rng.uniform(0.0, 1.0, 200)
        f = np.concatenate([[0.0], np.cumsum(steps)])
        Z = ws.mu_total.value
        pif = (float(np.sum(ws.mu[:201] * f)) + f[-1] * ws.mu_tail(201)) / Z
        # mu(fbar^2) / D(f) >= inf_i I_i(fbar)
        fb = np.concatenate([f, np.full(len(ws.mu) - 201, f[-1])]) - pif
        l2 = float(np.sum(ws.mu * fb * fb)) + fb[-1] ** 2 * ws.mu_tail(len(ws.mu))
        df = f[1:] - f[:-1]
        dd = float(np.sum(ws.mu[1:201] * ws.a[1:201] * df * df))
        # I_i(fbar) on the states 0..399, fbar stopped beyond them
        S = approx._II(ws.mu[:400], ws.nu_a[:400], fb[:400], *SHAPES["DN_NN"],
                       tail=ws.mu_tail(400))[0]
        infI = min(_I(S, ws.nu_a[:400], np.diff(fb[:400], prepend=0.0))[1:250])
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


LAMBDA0_71 = {name: lam0 for name, lam0, _ in TABLE71_ROWS}


@pytest.mark.parametrize("name", LAMBDA0_71)
def test_dd_first_step_matches_nn_dual(name):
    # the inverse dual (7.3) is an NN chain whose eta_1 and bar-eta_1 are the
    # DD chain's delta_1 and bar-delta_1; row 6 has no dual (its total weight
    # diverges), and row 8 is window-limited (delta_1 3.7357 against 3.9958)
    model = catalog(name)
    _, d1, db1 = approx.dd_first_step(model)
    assert 1.0 / db1 >= LAMBDA0_71[name]      # an upper bound of the rate
    if name not in ("table7_1_row6", "table7_1_row8"):
        e1, eb1 = approx.eta1_closed(duality.dualize(model, "inverse_7_3").dual)
        assert d1 == pytest.approx(e1, rel=1e-12)
        assert db1 == pytest.approx(eb1, rel=1e-12)


def test_dd_first_step_wrong_boundary():
    with pytest.raises(WrongBoundary):
        approx.dd_first_step(catalog("const_nd"))


@pytest.mark.parametrize("name", ["ex9_%d" % k for k in range(14, 22)])
def test_dd_first_step_refuses_a_killed_chain(name):
    # the first step is the killing-free one; on the killed finite chains
    # ex9_14 and ex9_15 the kernel would read all-NaN slices
    with pytest.raises(KilledChain):
        approx.dd_first_step(catalog(name))


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
        nxt = np.cumsum((nu[:n] * S)[::-1])[::-1]
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


def _eta_loop(model, steps):
    """eta_seq_nn's (values, eta_prime, eta_bar) by one loop per stopping level."""
    ws, W, mu, phi, tail, Z = approx._nn_arrays(model, 4096)
    nu_shift = np.concatenate([[0.0], ws.nu_b[: W - 1]])
    i_all = np.arange(1, W)

    def center_T(f, mm):
        pif = (float(np.sum(mu[: mm + 1] * f[: mm + 1]))
               + f[mm] * (float(mu[mm + 1:].sum()) + tail)) / Z
        fb = f - pif
        return fb, np.cumsum((mu * fb)[::-1])[::-1] + fb[-1] * tail

    def advance(T, mm):
        g = np.cumsum(nu_shift * T)
        return np.concatenate([g[: mm + 1], np.full(W - mm - 1, g[mm])])

    f = np.sqrt(phi)
    _, T_prev = center_T(f, W - 1)
    with np.errstate(all="ignore"):
        denom = (f[i_all] - f[i_all - 1]) / nu_shift[i_all]
        etas = [float(np.nanmax(np.where(denom > 0, T_prev[i_all] / denom, -math.inf)))]
    for _ in range(steps - 1):
        _, T = center_T(advance(T_prev, W - 1), W - 1)
        with np.errstate(all="ignore"):
            r = np.where(T_prev[i_all] > 0, T[i_all] / T_prev[i_all], -math.inf)
        etas.append(float(np.nanmax(r)))
        T_prev = T
    prim, bars = [-math.inf] * steps, [-math.inf] * steps
    for mm in sorted({min(W - 1, int(round(g))) for g in np.geomspace(2, W - 1, 16)}):
        f = np.concatenate([phi[: mm + 1], np.full(W - mm - 1, phi[mm])])
        i = np.arange(1, mm + 1)
        for n in range(steps):
            fb, T = center_T(f, mm)
            with np.errstate(all="ignore"):
                denom = (f[i] - f[i - 1]) / nu_shift[i]
                vals = np.where(denom > 0, T[i] / denom, math.inf)
            prim[n] = max(prim[n], float(np.min(vals)))
            l2 = float(np.sum(mu * fb * fb)) + fb[-1] ** 2 * tail
            dd = float(np.sum((f[i] - f[i - 1]) ** 2 / nu_shift[i]))
            if dd > 0:
                bars[n] = max(bars[n], l2 / dd)
            f = advance(T, mm)
    return etas, prim, bars


def _ex5_3_loop(model, steps):
    """ex5_3_sequences by one loop per stopping level m < 400."""
    ws = build_weights(model, 600)
    mu, nu, a = ws.mu, ws.nu_a, ws.a
    healthy = np.isfinite(nu) & (nu > 0) & (mu > 1e-280)
    W = int(np.argmin(healthy)) if not healthy.all() else len(mu)
    best_dp, best_bar = [-math.inf] * steps, [-math.inf] * steps
    for m in range(1, min(400, W - 1)):
        phi = np.cumsum(nu[:m])
        f = phi / phi[-1]
        tailmu = ws.mu_tail(ws.base + m)
        for s in range(steps):
            suf = np.cumsum((mu[:m] * f)[::-1])[::-1] + f[-1] * tailmu
            nxt = np.cumsum(nu[:m] * suf)
            best_dp[s] = max(best_dp[s], float(np.min(nxt / f)))
            l2 = float(np.sum(mu[:m] * f * f)) + tailmu * f[-1] ** 2
            dd = float(np.sum(mu[:m] * a[:m] * (f - np.concatenate([[0.0], f[:-1]])) ** 2))
            best_bar[s] = max(best_bar[s], l2 / dd)
            f = nxt / np.max(nxt)
    return best_dp, best_bar


NN_ERGODIC = ["ex6_7", "ex6_11"] + ["table6_1_row%d" % k for k in range(1, 9)]


@pytest.mark.parametrize("name", NN_ERGODIC)
def test_eta_seq_rows_match_per_level_loop(name):
    # one batched pass per step against a loop over the levels: the sums run
    # in another order (the level's centring over the whole window), 1e-13
    tr = approx.eta_seq_nn(catalog(name), 5)
    etas, prim, bars = _eta_loop(catalog(name), 5)
    assert tr.values == pytest.approx(etas, rel=1e-13)
    assert tr.extras["eta_prime"] == pytest.approx(prim, rel=1e-13)
    assert tr.extras["eta_bar"] == pytest.approx(bars, rel=1e-13)


@pytest.mark.parametrize("name", ["ex5_3", "ex5_5", "ex5_7"])
def test_ex5_3_rows_match_per_level_loop(name):
    dp, bars = approx.ex5_3_sequences(catalog(name), 5)
    dp_ref, bars_ref = _ex5_3_loop(catalog(name), 5)
    assert dp == pytest.approx(dp_ref, rel=1e-13)
    assert bars == pytest.approx(bars_ref, rel=1e-13)


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
    nu_suf = series.tail_sums(nu, ws.base, ws.nu_tail(ws.base + W, "a")) + Nterm
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
            beyond = Nterm if finite else nu_suf[mi + 1] - float(nu_next[mi:].sum())
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


@pytest.mark.parametrize("seed", range(12))
def test_eta1_closed_is_dd_first_step_on_the_forward_dual(seed):
    # a finite NN chain's (eta_1, bar-eta_1) are (delta_1, bar-delta_1) of its
    # forward DD dual; both cancel like A - B^2/S, so they are held to
    # 1e-13 + 8 kappa eps of the dual's 40-digit bar-delta_1 and twice that of
    # each other (kappa its condition number)
    rng = np.random.default_rng(200 + seed)
    model = _seeded_chain(rng, BoundaryCode.NN, int(rng.integers(3, 301)), finite=True)
    dual = duality.dualize(model).dual
    exact, kappa = _delta_bar1_mp(dual, 4096)
    tol = 1e-13 + 8.0 * kappa * np.finfo(float).eps
    got = approx.eta1_closed(model)
    assert got == pytest.approx(approx.dd_first_step(dual)[1:], rel=2 * tol)
    assert got[1] == pytest.approx(exact, rel=tol)

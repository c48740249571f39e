"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with -s or in the captured
section) and asserts every sub-check at its stated tolerance. Known-red
sub-checks are asserted faithfully, not weakened; the README lists why each
cannot pass.
"""

import math

import numpy as np

from bdspec import approx, duality, estimates, killing, oracle, poincare
from bdspec.catalog import TABLE61_ROWS, TABLE71_ROWS, catalog, table71_v
from bdspec.model import BoundaryCode, ChainModel, build_weights

SQRT2 = math.sqrt(2.0)
SCHEDULE_4000 = [250, 354, 500, 707, 1000, 1414, 2000, 2828, 4000]


def _report(num, checks):
    ok = all(c[1] for c in checks)
    line = "criterion %2s [%s]" % (num, "PASS" if ok else "FAIL")
    for label, good, detail in checks:
        if not good:
            line += "  <%s: %s>" % (label, detail)
    print(line)
    failed = [c for c in checks if not c[1]]
    assert not failed, "; ".join("%s: %s" % (c[0], c[2]) for c in failed)


def _close(x, y, tol):
    return abs(x - y) <= tol


def test_criterion_01_const_chain_sharpness():
    model = catalog("const_nd", a=1.0, b=2.0)
    d, br = estimates.delta_nd(model)
    d1, d1p = approx.first_step_closed(model)
    bars = approx.delta_prime_seq_nd(model, 1).extras["bars"]
    lam = (SQRT2 - 1.0) ** 2
    checks = [
        ("delta == 2", d == 2.0, d),
        ("delta_1' == 3", d1p == 3.0, d1p),
        ("bar_delta_1 == 3", _close(bars[0], 3.0, 1e-12), bars[0]),
        ("delta_1 == (sqrt2+1)^2", _close(d1, (SQRT2 + 1.0) ** 2, 1e-9), d1),
        ("bracket contains lambda", br.lower <= lam <= br.upper, (br.lower, br.upper)),
    ]
    _report(1, checks)


def test_criterion_02_linear_chain():
    model = catalog("linear_nd", gamma=1.0)
    d = estimates.delta_nd(model)[0]
    d1, d1p = approx.first_step_closed(model)
    lam2000 = oracle.principal_eigen(model, 2000).lam
    checks = [
        ("delta == ln 2", _close(d, math.log(2.0), 1e-9), d),
        ("delta_1' ~ 0.84", _close(d1p, 0.84, 0.01), d1p),
        ("delta_1 ~ 1.09", _close(d1, 1.09, 0.01), d1),
        ("oracle(2000) ~ 1", _close(lam2000, 1.0, 1e-3), lam2000),
    ]
    _report(2, checks)


def test_criterion_03_quadratic_chain():
    model = catalog("quadratic_nd")
    d = estimates.delta_nd(model)[0]
    d1, d1p = approx.first_step_closed(model, window=2 ** 21)
    tr = oracle.truncation_limit(model, SCHEDULE_4000)
    checks = [
        ("delta == pi^2/6", _close(d, math.pi ** 2 / 6.0, 1e-9), d),
        ("delta_1' ~ 2.19", _close(d1p, 2.19, 0.01), d1p),
        ("delta_1 -> 4 (>= 3.99)", d1 >= 3.99, d1),
        ("oracle -> 0.25 (2e-3)", _close(tr.limit, 0.25, 2e-3), tr.limit),
        ("monotone decreasing", tr.monotone_ok, tr.values),
    ]
    _report(3, checks)


def test_criterion_04_quartic_chain():
    model = catalog("quartic_nd")
    d = estimates.delta_nd(model)[0]
    d1, d1p = approx.first_step_closed(model)
    tr = oracle.truncation_limit(model, SCHEDULE_4000)
    checks = [
        ("delta ~ 1.83", _close(d, 1.83, 0.01), d),
        # the stated 1.9 / 2.0 reproduce only under-converged tail sums;
        # the remainder-corrected values are 1.984 / 2.073 (see README)
        ("delta_1' ~ 1.9", _close(d1p, 1.9, 0.02), d1p),
        ("delta_1 ~ 2.0", _close(d1, 2.0, 0.02), d1),
        ("oracle ~ 0.5 (1e-3)", _close(tr.limit, 0.5, 1e-3), tr.limit),
    ]
    _report(4, checks)


def test_criterion_05_dual_constant_sequences():
    model = catalog("ex5_3", a=4.0, b=1.0)
    dp, bars = approx.ex5_3_sequences(model, 5)
    expect_dp = [5.0 / 9.0, 0.644444, 0.71, 0.755, 0.79]
    expect_bars = [5.0 / 9.0, 0.71, 0.79, 0.835, 0.8647]
    checks = [
        ("delta'_1 == 5/9", _close(dp[0], 5.0 / 9.0, 1e-12), dp[0]),
        ("delta'_2 ~ 0.6444", _close(dp[1], expect_dp[1], 5e-4), dp[1]),
        ("delta'_3..5", all(_close(dp[k], expect_dp[k], 0.01) for k in (2, 3, 4)), dp[2:]),
        ("bars ~ table", all(_close(bars[k], expect_bars[k], 0.01) for k in range(5)), bars),
        ("delta' non-decreasing", all(y >= x - 1e-12 for x, y in zip(dp, dp[1:])), dp),
        ("bars non-decreasing", all(y >= x - 1e-12 for x, y in zip(bars, bars[1:])), bars),
    ]
    _report(5, checks)


def test_criterion_06_shooting_ex5_7():
    model = catalog("ex5_7")
    sh = oracle.shooting_rate(model, 4000)
    st = oracle.principal_eigen(model, 3999, boundary_at_m="neumann_plain")
    checks = [
        ("shooting in (0.395, 0.399)", 0.395 < sh.lam < 0.399, sh.lam),
        ("agrees with Sturm (1e-6)", _close(sh.lam, st.lam, 1e-6), (sh.lam, st.lam)),
    ]
    _report(6, checks)


def test_criterion_07_table_6_1():
    checks = []
    for name, lam_inv, eb_p, e1_p, k_p in TABLE61_ROWS:
        model = catalog(name)
        tr = oracle.truncation_limit(model, SCHEDULE_4000)
        rel = abs(1.0 / tr.limit - lam_inv) / lam_inv
        e1, eb1 = approx.eta1_closed(model)
        kap = estimates.kappa_nn(model)[0]
        checks.append(("%s oracle 1e-3 rel" % name, rel <= 1e-3, 1.0 / tr.limit))
        checks.append(("%s eta_bar_1" % name, _close(eb1, eb_p, 0.02), eb1))
        checks.append(("%s eta_1" % name, _close(e1, e1_p, 0.02), e1))
        checks.append(("%s kappa" % name, _close(kap, k_p, 0.02), kap))
        inside = kap < eb1 and e1 < 4.0 * kap
        checks.append(("%s (eta_bar,eta) in (kappa,4kappa)" % name, inside,
                       (kap, eb1, e1, 4.0 * kap)))
    _report(7, checks)


def test_criterion_08_table_7_1():
    checks = []
    for name, lam0, start in TABLE71_ROWS:
        model = catalog(name)
        lo = start if start is not None else 2
        res = oracle.eigen_identity_check(model, lam0, oracle.v_products(table71_v(name)),
                                          lo, 1000)
        checks.append(("%s R-residual < 1e-10" % name,
                       res["difference_form"] < 1e-10, res["difference_form"]))
        tr = oracle.truncation_limit(model, SCHEDULE_4000)
        rel = abs(tr.limit - lam0) / lam0
        checks.append(("%s oracle 1e-3 rel" % name, rel <= 1e-3, tr.limit))
    _report(8, checks)


def test_criterion_09_ex7_6_1_exact():
    model = catalog("ex7_6_1")
    kap = estimates.kappa_dd(model)[0]
    d, d1, db1 = approx.dd_first_step(model)
    lam = oracle.principal_eigen(model, 2).lam
    checks = [
        ("kappa == 3/7", _close(kap, 3.0 / 7.0, 1e-12), kap),
        ("delta_1 == (4+sqrt3)/10", _close(d1, (4.0 + math.sqrt(3.0)) / 10.0, 1e-12), d1),
        ("bar_delta_1 == 7/15", _close(db1, 7.0 / 15.0, 1e-12), db1),
        ("lambda_0 == 2 (2x2 closed form)", _close(lam, 2.0, 1e-10), lam),
    ]
    _report(9, checks)


def test_criterion_10_killing_suite():
    checks = []
    # ex9_18
    m18 = catalog("ex9_18")
    lam18 = oracle.principal_eigen(m18, 2000).lam
    up18 = killing.upper_9_9(m18)[0]
    rr = killing.reduce_9_11(m18, beta=2.0 / 3.0, shift=1.0 / 6.0)
    checks += [
        ("ex9_18 oracle 5/6 (1e-6)", _close(lam18, 5.0 / 6.0, 1e-6), lam18),
        ("ex9_18 (9.9) ~ 1.03", _close(up18, 1.03, 0.01), up18),
        ("ex9_18 9.11 bound (1e-9)",
         _close(rr.bound, 17.0 / 6.0 - 2.0 * SQRT2, 1e-9), rr.bound),
    ]
    # ex9_19 at beta = 1/4
    m19 = catalog("ex9_19", beta=0.25)
    lam19 = oracle.principal_eigen(m19, 2000).lam
    up19 = min(killing.upper_9_9(m19, lm=(1, 1))[0], killing.upper_9_9(m19, lm=(3, 4))[0])
    eps = (math.sqrt(409.0) - 5.0) / 24.0
    low19 = killing.corollary_9_9(m19, eps_grid=[eps]).lower
    checks += [
        ("ex9_19 oracle 3/8", _close(lam19, 0.375, 1e-6), lam19),
        ("ex9_19 upper == 3/4", _close(up19, 0.75, 1e-12), up19),
        ("ex9_19 lower == (29-sqrt409)/32",
         _close(low19, (29.0 - math.sqrt(409.0)) / 32.0, 1e-9), low19),
    ]
    # ex9_20
    m20 = catalog("ex9_20")
    tr20 = oracle.truncation_limit(m20, SCHEDULE_4000)
    up20 = killing.upper_9_9(m20, lm=(2, 2))[0]
    low20 = killing.corollary_9_9(m20, eps_grid=[]).lower
    checks += [
        ("ex9_20 oracle 4 (1e-6)", _close(tr20.limit, 4.0, 1e-6), tr20.limit),
        ("ex9_20 lower == 48/17", _close(low20, 48.0 / 17.0, 1e-12), low20),
        ("ex9_20 upper == 14/3", _close(up20, 14.0 / 3.0, 1e-12), up20),
    ]
    # ex9_21: the rate anchor holds on the self-consistent killing; the
    # displayed bound values belong to the printed variant
    m21 = catalog("ex9_21")
    lam21 = oracle.principal_eigen(m21, 400).lam
    m21p = catalog("ex9_21", printed_killing=True)
    low21 = killing.corollary_9_9(m21p, eps_grid=[]).lower
    up21 = killing.upper_9_9(m21p, lm=(2, 4))[0]
    checks += [
        ("ex9_21 oracle 119/8 (1e-4)", _close(lam21, 119.0 / 8.0, 1e-4), lam21),
        ("ex9_21 lower ~ 13.18", _close(low21, 13.18, 0.02), low21),
        ("ex9_21 upper ~ 15.42", _close(up21, 15.42, 0.02), up21),
    ]
    _report(10, checks)


ND_FOR_DUALITY = [("const_nd", {"a": 1.0, "b": 2.0}), ("linear_nd", {"gamma": 1.0}),
                  ("quadratic_nd", {}), ("quartic_nd", {})]
NN_FOR_DUALITY = ["table6_1_row1", "table6_1_row4", "table6_1_row5",
                  "table6_1_row6", "table6_1_row7", "table6_1_row8",
                  "ex6_7", "ex6_11"]


def test_criterion_11_duality_invariants():
    checks = []
    for name, kwargs in ND_FOR_DUALITY:
        model = catalog(name, **kwargs)
        d = estimates.delta_nd(model)[0]
        dh = estimates.delta_dn(duality.dualize(model).dual)[0]
        ok = (math.isinf(d) and math.isinf(dh)) or abs(d - dh) <= 1e-10 * max(d, 1.0)
        checks.append(("delta=dual delta %s" % name, ok, (d, dh)))
    for name in NN_FOR_DUALITY:
        model = catalog(name)
        k1 = estimates.kappa_nn(model)[0]
        k2 = estimates.kappa_dd(duality.dualize(model).dual)[0]
        checks.append(("kappa duality %s" % name,
                       abs(k1 - k2) <= 1e-10 * max(k1, 1.0), (k1, k2)))
    res_nd = duality.similarity_check(catalog("const_nd", a=1.0, b=2.0), 8)
    res_nn = duality.similarity_check(catalog("table6_1_row1"), 8)
    checks.append(("similarity ND n=8", res_nd < 1e-12, res_nd))
    checks.append(("similarity NN n=8", res_nn < 1e-12, res_nn))
    for n in (8, 16, 32):
        rng = np.random.default_rng(40 + n)
        b = rng.uniform(0.2, 3.0, n)
        a = np.concatenate([[0.0], rng.uniform(0.2, 3.0, n - 1)])
        model = ChainModel(BoundaryCode.ND, 0, n - 1,
                           lambda i, b=b, n=n: b[np.clip(np.asarray(i, np.int64), 0, n - 1)],
                           lambda i, a=a, n=n: a[np.clip(np.asarray(i, np.int64), 0, n - 1)])
        Q = duality._q_matrix(*model.rates(0, n - 1))
        pair = duality.dualize(model)
        ah = pair.dual.death(np.arange(1, n + 1)).astype(float)
        bh = pair.dual.birth(np.arange(1, n + 1)).astype(float)
        Qh = np.zeros((n, n))
        for r in range(n):
            if r > 0:
                Qh[r, r - 1] = ah[r]
            if r < n - 1:
                Qh[r, r + 1] = bh[r]
            Qh[r, r] = -(ah[r] + (bh[r] if r < n - 1 else 0.0))
        ev1 = np.sort(np.linalg.eigvals(-Q).real)
        ev2 = np.sort(np.linalg.eigvals(-Qh).real)
        checks.append(("spectra agree n=%d" % n, np.allclose(ev1, ev2, atol=1e-9),
                       float(np.max(np.abs(ev1 - ev2)))))
    _report(11, checks)


FACTOR4_MODELS = [("const_nd", {"a": 1.0, "b": 2.0}), ("linear_nd", {"gamma": 1.0}),
                  ("quadratic_nd", {}), ("quartic_nd", {}),
                  ("ex5_3", {"a": 4.0, "b": 1.0}), ("ex5_5", {}), ("ex5_7", {}),
                  ("table6_1_row1", {}), ("table6_1_row2", {}), ("table6_1_row3", {}),
                  ("table6_1_row4", {}), ("table6_1_row5", {}), ("table6_1_row6", {}),
                  ("table6_1_row7", {}), ("table6_1_row8", {}), ("ex6_7", {}),
                  ("ex6_11", {}),
                  ("table7_1_row1", {}), ("table7_1_row2", {}), ("table7_1_row3", {}),
                  ("table7_1_row4", {}), ("table7_1_row5", {}), ("table7_1_row6", {}),
                  ("table7_1_row7", {}), ("table7_1_row8", {}), ("table7_1_row9", {}),
                  ("ex7_5_1", {}), ("ex7_5_2", {}), ("ex7_6_1", {}),
                  ("ex7_6_2", {"eps": 0.5}), ("symmetric_nn", {})]


def test_criterion_12_property_suites():
    checks = []
    # factor-4 bracket containment of the oracle rate on the catalog
    for name, kwargs in FACTOR4_MODELS:
        model = catalog(name, **kwargs)
        rep = estimates.basic_bracket(model)
        br = rep.bracket
        if br.upper == 0.0:
            # infinite constant: the invariant only covers finite ones; the
            # verdict must still say the rate vanishes
            checks.append(("factor-4 %s (degenerate)" % name,
                           rep.positive is False, rep))
            continue
        ws = build_weights(model, 4096)
        if rep.method == "kappa_6_13" and math.isfinite(ws.mu_total.value) \
                and model.boundary is not BoundaryCode.NN:
            # summable weights with a reflecting origin: the bracket targets
            # the spectral gap of the honest process (the reflecting view)
            view = ChainModel(BoundaryCode.NN, 0, model.hi, model.birth, model.death)
        else:
            view = model
        if view.hi is not None:
            lam = oracle.principal_eigen(view, max(view.hi, 2)).lam
        else:
            lam = oracle.truncation_limit(view, SCHEDULE_4000).limit
        ok = br.lower - 1e-6 <= lam <= br.upper + 1e-6
        ok = ok and br.upper <= 4.0 * br.lower * (1 + 1e-12)
        checks.append(("factor-4 %s" % name, ok, (br.lower, lam, br.upper)))
    # monotone sequences, n <= 6
    for name, kwargs in (("const_nd", {"a": 1.0, "b": 2.0}),
                         ("linear_nd", {"gamma": 1.0}), ("quadratic_nd", {}),
                         ("quartic_nd", {})):
        model = catalog(name, **kwargs)
        tr = approx.delta_seq_nd(model, 6)
        pr = approx.delta_prime_seq_nd(model, 6)
        checks.append(("monotone delta_n %s" % name, tr.monotone_ok, tr.values))
        checks.append(("monotone delta_n' %s" % name, pr.monotone_ok, pr.values))
        d = estimates.delta_nd(model)[0]
        _, d1p = approx.first_step_closed(model)
        if math.isfinite(d):
            checks.append(("delta_1' in [delta, 2 delta] %s" % name,
                           d - 1e-9 <= d1p <= 2.0 * d + 1e-9, (d, d1p)))
    for name in ("table6_1_row1", "table6_1_row5", "ex6_7", "ex6_11"):
        tr = approx.eta_seq_nn(catalog(name), 6)
        prim = tr.extras["eta_prime"]
        checks.append(("monotone eta_n %s" % name, tr.monotone_ok, tr.values))
        checks.append(("monotone eta_n' %s" % name,
                       all(y >= x - 1e-9 for x, y in zip(prim, prim[1:])), prim))
    # shift laws on random finite instances
    rng = np.random.default_rng(123)
    shift_ok, mono_ok = True, True
    for _ in range(50):
        n = int(rng.integers(3, 24))
        a = np.concatenate([[0.0], rng.uniform(0.2, 3.0, n - 1)])
        b = rng.uniform(0.2, 3.0, n)
        b[-1] = 0.0
        c = rng.uniform(0.0, 2.0, n)
        const = float(rng.uniform(0.1, 10.0))

        def pick(arr, n=n):
            return lambda i: arr[np.clip(np.asarray(i, np.int64) - 1, 0, n - 1)]

        model = ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a), killing=pick(c))
        lam = oracle.principal_eigen(model, n).lam
        shifted = ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a),
                             killing=pick(c + const))
        lam_s = oracle.principal_eigen(shifted, n).lam
        shift_ok &= abs(lam_s - (lam + const)) <= 1e-10 * max(1.0, lam + const)
        raised = ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a),
                            killing=pick(c + rng.uniform(0, 1, n)))
        mono_ok &= oracle.principal_eigen(raised, n).lam >= lam - 1e-10
    checks.append(("9.1 shift law x50", shift_ok, None))
    checks.append(("9.1 monotone comparison x50", mono_ok, None))
    # xi/zeta shift property and the R-floor comparison on random instances
    remark_ok, floor_ok = True, True
    for _ in range(50):
        n = int(rng.integers(5, 24))
        a = np.concatenate([[0.0], rng.uniform(0.2, 3.0, n - 1)])
        b = rng.uniform(0.2, 3.0, n)
        b[-1] = 0.0
        c = rng.uniform(0.0, 2.0, n)
        c[0] += 0.1
        gamma = float(rng.choice([0.1, 1.0, 10.0]))

        def pick(arr, n=n):
            return lambda i: arr[np.clip(np.asarray(i, np.int64) - 1, 0, n - 1)]

        model = ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a), killing=pick(c))
        f = 1.0 / (1.0 + rng.uniform(0.0, 1.0, n))
        f[0] = 1.0
        try:
            kb = killing.xi_zeta(model, pick(f))
        except Exception:
            continue
        shifted = ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a),
                             killing=pick(c + gamma))
        kb2 = killing.xi_zeta(shifted, pick(f))
        remark_ok &= abs(kb2.xi - kb.xi) <= 1e-10 * max(1.0, kb.xi)
        remark_ok &= abs(kb2.lower - (kb.lower + gamma)) <= 1e-10 * max(1.0, kb.lower + gamma)
        v = rng.uniform(0.4, 0.95, n)
        lo_r, _, _ = killing.r_operator_bounds(model, pick(v), 1, n)
        if lo_r >= 0:
            kbv = killing.xi_zeta(model, oracle.v_products(v))
            floor_ok &= kbv.xi >= (lo_r - kbv.c_floor) - 1e-9
    checks.append(("9.7 shift property x50", remark_ok, None))
    checks.append(("9.8 xi >= R-floor x50", floor_ok, None))
    # Sturm vs shooting on 20 random DN instances
    agree = True
    for k in range(20):
        rng2 = np.random.default_rng(1000 + k)
        m = int(rng2.integers(20, 60))

        def death(i, s=k):
            return 1.0 + 3.0 * np.sin(np.asarray(i, float) * 0.7 + s) ** 2

        def birth(i, s=k):
            return 0.5 + 2.0 * np.cos(np.asarray(i, float) * 0.3 + s) ** 2

        model = ChainModel(BoundaryCode.DN, 1, None, birth, death)
        sh = oracle.shooting_rate(model, m)
        st = oracle.principal_eigen(model, m - 1, boundary_at_m="neumann_plain")
        agree &= abs(sh.lam - st.lam) <= 1e-8
    checks.append(("sturm vs shooting x20", agree, None))
    _report(12, checks)


def test_criterion_13_poincare():
    checks = []
    for gamma in (2.0, 3.0, 5.0):
        p_star = 2.0 * (1.0 + 2.0 / (gamma - 1.0))
        model = catalog("ex8_8", gamma=gamma)
        at = poincare.sobolev_constant(model, p_star, "neumann_8_9")
        above = poincare.sobolev_constant(model, p_star + 0.5, "neumann_8_9")
        checks.append(("ex8_8 g=%g finite at p*" % gamma, math.isfinite(at.B), at.B))
        checks.append(("ex8_8 g=%g finite above" % gamma, math.isfinite(above.B), above.B))
        if p_star - 0.5 >= 2.0:
            below = poincare.sobolev_constant(model, p_star - 0.5, "neumann_8_9")
            checks.append(("ex8_8 g=%g divergent below" % gamma,
                           not math.isfinite(below.B), below.B))
    bl, br, bb, _ = poincare.b_constants_split(catalog("ex8_9"), 2.0, half_window=48)
    checks.append(("ex8_9 B_L = inf", bl == math.inf, bl))
    checks.append(("ex8_9 B_R = inf", br == math.inf, br))
    checks.append(("ex8_9 B finite", math.isfinite(bb), bb))
    for name, kwargs in (("const_nd", {"a": 1.0, "b": 2.0}), ("quadratic_nd", {}),
                         ("linear_nd", {"gamma": 1.0})):
        model = catalog(name, **kwargs)
        sc = poincare.sobolev_constant(model, 2.0, "neumann_8_9")
        d = estimates.delta_nd(model)[0]
        checks.append(("p=2 identity %s" % name,
                       abs(sc.B - d) <= 1e-10 * max(1.0, d), (sc.B, d)))
    for name in ("ex7_6_1", "table7_1_row7"):
        model = catalog(name)
        sc = poincare.sobolev_constant(model, 2.0, "half_line_8_6")
        k = estimates.kappa_dd(model)[0]
        checks.append(("p=2 half-line identity %s" % name,
                       abs(sc.B - k) <= 1e-10 * max(1.0, k), (sc.B, k)))
    _report(13, checks)

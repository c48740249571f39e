import dataclasses
import json
import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dstebz

from bdspec import duality, oracle
from bdspec.cli import TABLE_SCHEDULE
from bdspec.catalog import TABLE71_ROWS, catalog, catalog_names, table71_v
from bdspec.errors import BadParameter, TruncationTooSmall, WrongBoundary
from bdspec.model import BoundaryCode, ChainModel, _rates_and_weights, build_weights, load_model
from bdspec.series import Certainty


def _table_model(a, b, c):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    n = len(a)

    def pick(arr):
        def rule(i):
            idx = np.clip(np.asarray(i, dtype=np.int64) - 1, 0, n - 1)
            return arr[idx]
        return rule

    return ChainModel(BoundaryCode.DD, 1, n, pick(b), pick(a), killing=pick(c))


def _mp_eig_k(diag, off, k, dps=40):
    """k-th smallest eigenvalue of a float tridiagonal matrix by Sturm-count
    bisection in mpmath at dps digits: a reference independent of LAPACK."""
    with mpmath.workdps(dps):
        d = [mpmath.mpf(float(x)) for x in diag]
        o2 = [mpmath.mpf(float(x)) ** 2 for x in off]
        tiny = mpmath.mpf(10) ** (-2 * dps)

        def below(x):
            # LDL^T pivot signs; a zero pivot counts as negative (as in dstebz)
            cnt = 0
            q = 1
            for i in range(len(d)):
                q = (d[i] - x) - (o2[i - 1] / q if i else 0)
                if q == 0:
                    q = -tiny
                cnt += q < 0
            return cnt

        # Gershgorin interval, widened by 1 against rounding in its float ends
        pad = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
        lo = mpmath.mpf(float(np.min(diag - pad))) - 1
        hi = mpmath.mpf(float(np.max(diag + pad))) + 1
        for _ in range(2000):
            if hi - lo <= mpmath.mpf(10) ** (5 - dps) * max(abs(lo), abs(hi)):
                break
            mid = (lo + hi) / 2
            if below(mid) > k:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


def _mp_reference(model, got):
    """The mpmath eigenvalue of the very matrix principal_eigen solved."""
    bd = oracle.default_truncation_boundary(model)
    diag, off = oracle._tridiag(model, got.base, got.m, bd)
    k = 1 if (model.boundary is BoundaryCode.NN and bd != "dirichlet") else 0
    return _mp_eig_k(diag, off, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10 ** 6))
def test_principal_eigen_matches_mpmath_sturm(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 4.0, n)
    b = rng.uniform(0.1, 4.0, n)
    c = rng.uniform(0.0, 1.0, n)
    b[-1] = 0.0
    model = _table_model(a, b, c)
    got = oracle.principal_eigen(model, n)
    diag = a + b + c
    off = np.sqrt(b[:-1] * a[1:])
    assert got.lam == pytest.approx(_mp_eig_k(diag, off, 0), rel=1e-12, abs=0.0)
    assert got.residual <= 1e-8 * max(1.0, got.lam)


# const_dn and symmetric_nn have no summable mu tail, so no default truncation
TRUNCATABLE = [n for n in catalog_names() if n not in ("const_dn", "symmetric_nn")]


@pytest.mark.parametrize("name", TRUNCATABLE)
def test_principal_eigen_catalog_matches_mpmath_sturm(name):
    model = catalog(name)
    got = oracle.principal_eigen(model, 200)
    assert got.lam == pytest.approx(_mp_reference(model, got), rel=1e-12, abs=0.0)
    assert got.residual <= 1e-8 * max(1.0, got.lam)


@pytest.mark.parametrize("name", ["const_dn", "symmetric_nn"])
def test_principal_eigen_needs_summable_tail(name):
    with pytest.raises(WrongBoundary):
        oracle.principal_eigen(catalog(name), 250)


def test_principal_eigen_vector_points_up_at_k_1(monkeypatch):
    # past the ground state the solver's sign is arbitrary: the vector
    # returned has its largest entry positive, whichever sign it came with
    model = catalog("table6_1_row1")
    ref = oracle.principal_eigen(model, 200)
    eig_k = oracle._eig_k

    def negated(*args, **kwargs):
        lam, vec = eig_k(*args, **kwargs)
        return lam, -vec

    monkeypatch.setattr(oracle, "_eig_k", negated)
    flipped = oracle.principal_eigen(model, 200)
    assert flipped.lam == ref.lam and np.array_equal(flipped.eigvec, ref.eigvec)
    assert flipped.eigvec[np.argmax(np.abs(flipped.eigvec))] > 0


def test_closed_form_two_state_killing():
    b1, a2, c1, c2 = 1.0, 2.0, 1.0, 3.0
    got = oracle.principal_eigen(catalog("ex9_14", b1=b1, a2=a2, c1=c1, c2=c2), 2)
    exact = 0.5 * (a2 + b1 + c1 + c2 - math.sqrt((a2 + c2 - b1 - c1) ** 2 + 4 * a2 * b1))
    assert got.lam == pytest.approx(exact, abs=1e-11)


def test_closed_form_dd_two_state():
    a1, a2, b1, b2 = 1.0, 1.0, 2.0, 3.0
    got = oracle.principal_eigen(catalog("ex7_5_2"), 2)
    exact = 0.5 * (a1 + a2 + b1 + b2 - math.sqrt((a1 - a2 + b1 - b2) ** 2 + 4 * a2 * b1))
    assert got.lam == pytest.approx(exact, abs=1e-11)
    assert got.lam == pytest.approx(2.0, abs=1e-11)


def test_single_state_killing():
    got = oracle.principal_eigen(catalog("ex7_5_1", c=3.25), 2)
    assert got.lam == pytest.approx(3.25, abs=1e-12)


def test_three_state_cubic_eigenvalue():
    # the smallest root of the characteristic cubic, via the explicit formula
    p = dict(b1=1.0, b2=2.0, a2=1.0, a3=2.0, c1=0.5, c2=1.0, c3=2.0)
    got = oracle.principal_eigen(catalog("ex9_15", **p), 3)
    g1 = -(p["a2"] + p["a3"] + p["b1"] + p["b2"] + p["c1"] + p["c2"] + p["c3"])
    Q = np.array([
        [-(p["b1"] + p["c1"]), p["b1"], 0.0],
        [p["a2"], -(p["a2"] + p["b2"] + p["c2"]), p["b2"]],
        [0.0, p["a3"], -(p["a3"] + p["c3"])],
    ])
    ref = min(np.linalg.eigvals(-Q).real)
    assert got.lam == pytest.approx(ref, abs=1e-9)


def test_principal_eigvec_positive():
    got = oracle.principal_eigen(catalog("ex9_18"), 200)
    assert np.all(got.eigvec > 0)
    # at depth the Perron vector's tail lies far below rounding; it may
    # underflow to zero (ex8_9) but must never change sign
    for name, m in [("ex9_18", 4000), ("ex5_7", 4000), ("linear_nd", 4000),
                    ("table7_1_row7", 4000), ("ex8_9", 250)]:
        vec = oracle.principal_eigen(catalog(name), m).eigvec
        assert np.all(vec >= 0) and vec.max() > 0, (name, m)


def test_truncation_monotone_and_limit():
    tr = oracle.truncation_limit(catalog("quadratic_nd"), [100, 200, 400, 800])
    assert tr.monotone_ok
    assert all(x >= 0.25 for x in tr.values)
    tr = oracle.truncation_limit(catalog("ex9_18"), [100, 200, 400])
    assert tr.limit == pytest.approx(5.0 / 6.0, abs=1e-9)
    fin = oracle.truncation_limit(catalog("ex7_6_1"), [2, 3, 4])
    assert max(fin.values) - min(fin.values) < 1e-12  # constant on finite chains


@pytest.mark.parametrize("name", ["quadratic_nd", "ex5_3", "table6_1_row1", "table7_1_row2"])
def test_truncation_limit_values_are_principal_eigen_bit_for_bit(name):
    # ND, DN, NN (the second eigenvalue, k = 1) and DD: the schedule's
    # eigenvalues come without eigenvectors, and are the same floats
    model = catalog(name)
    tr = oracle.truncation_limit(model, (250, 500, 1000))
    assert tr.values == tuple(oracle.principal_eigen(model, m).lam for m in (250, 500, 1000))


def test_shift_law_on_killing():
    base = oracle.principal_eigen(catalog("ex9_18"), 300).lam
    shifted = ChainModel(BoundaryCode.DD, 1, None,
                         catalog("ex9_18").birth, catalog("ex9_18").death,
                         killing=lambda i: catalog("ex9_18").killing(i) + 0.7)
    got = oracle.principal_eigen(shifted, 300).lam
    assert got == pytest.approx(base + 0.7, abs=1e-10)


def test_shooting_ex5_3_and_agreement():
    model = catalog("ex5_3", a=4.0, b=1.0)
    sh = oracle.shooting_rate(model, 200)
    assert sh.lam == pytest.approx(1.0, abs=1e-3)  # plain reflection: O(1/m^2)
    st_ = oracle.principal_eigen(model, 199, boundary_at_m="neumann_plain")
    assert sh.lam == pytest.approx(st_.lam, abs=1e-8)


def test_shooting_zero_shift_always_admissible():
    model = catalog("ex5_7")
    sh = oracle.shooting_rate(model, 500)
    assert sh.lam > 0.0
    assert np.all(sh.eigvec > 0)


def test_shooting_wrong_boundary():
    with pytest.raises(WrongBoundary):
        oracle.shooting_rate(catalog("const_nd"), 100)
    with pytest.raises(TruncationTooSmall):
        oracle.shooting_rate(catalog("ex5_3"), 1)
    with pytest.raises(TruncationTooSmall):
        oracle.shooting_rate(catalog("ex7_5_1"), 100)     # one state, b_1 = 0


def _seeded_finite(code, seed, killed=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 39))
    a, b, c = rng.uniform(0.2, 3.0, (3, n))
    return ChainModel(code, 1, n, lambda i: b[np.asarray(i) - 1], lambda i: a[np.asarray(i) - 1],
                      killing=(lambda i: c[np.asarray(i) - 1]) if killed else None)


WHOLE_FINITE = ([catalog("ex7_5_2")] + [_seeded_finite(BoundaryCode.DD, s) for s in range(5)]
                + [_seeded_finite(code, s, killed=True) for s in range(5, 8)
                   for code in (BoundaryCode.DN, BoundaryCode.DD)])


@pytest.mark.parametrize("model", WHOLE_FINITE)
def test_shooting_on_a_whole_finite_chain_matches_the_eigensolver(model):
    # g stays positive through the Dirichlet point N + 1, so the exit b_N is
    # read: ex7_5_2 gives its eigenvalue 2 (0.26795 with the top reflected);
    # the recursion reads the killing rates on DN and DD chains alike
    sh = oracle.shooting_rate(model, model.hi + 1)
    lam = oracle.principal_eigen(model, model.hi).lam
    assert sh.lam == pytest.approx(lam, rel=1e-8, abs=0.0)
    assert sh.certified is Certainty.CERTIFIED and sh.m == model.hi
    assert np.all(sh.eigvec > 0)
    if model.name == "ex7_5_2":
        assert sh.lam == pytest.approx(2.0, rel=1e-8, abs=0.0)
    # a recursion short of the top is the reflected truncation, window-stopped
    if model.hi > 2:
        short = oracle.shooting_rate(model, model.hi)
        assert short.certified is Certainty.WINDOW_STOPPED
        reflected = oracle.principal_eigen(model, model.hi - 1, boundary_at_m="neumann_plain")
        assert short.lam == pytest.approx(reflected.lam, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("seed", range(8))
def test_shooting_on_the_forward_dual_of_a_finite_nd_chain_divides_by_no_top_rate(seed):
    # the dual is a DN chain whose top birth rate is 0 (dualize's convention
    # and the DN top's alike): the recursion's last step is tested as b_N u_N,
    # without a division by b_N, and the eigenvector never reads u_N
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    a, b = rng.uniform(0.2, 3.0, (2, n))
    primal = ChainModel(BoundaryCode.ND, 0, n - 1, lambda i: b[np.asarray(i)],
                        lambda i: a[np.asarray(i)])
    dual = duality.dualize(primal, "forward_5_1").dual
    assert dual.boundary is BoundaryCode.DN and dual.rates(1, dual.hi)[1][-1] == 0.0
    sh = oracle.shooting_rate(dual, dual.hi + 1)
    lam = oracle.principal_eigen(dual, dual.hi).lam
    assert sh.lam == pytest.approx(lam, rel=1e-12, abs=0.0)
    assert sh.certified is Certainty.CERTIFIED and len(sh.eigvec) == dual.hi
    assert np.all(sh.eigvec > 0)


@pytest.mark.parametrize("model,m", [(catalog("ex5_7"), 500)]
                         + [(model, model.hi + 1) for model in WHOLE_FINITE]
                         + [(model, model.hi) for model in WHOLE_FINITE if model.hi > 2])
def test_shooting_rate_is_the_flip_point_of_its_recursion(model, m, monkeypatch):
    # the predicate the search reads, "the ratio recursion fails at z", holds
    # one ulp above the value returned and not at it
    flip, seen = oracle._flip_point, []

    def spy(above, start):
        seen.append(above)
        return flip(above, start)
    monkeypatch.setattr(oracle, "_flip_point", spy)
    sh = oracle.shooting_rate(model, m)
    (fails,) = seen
    assert not fails(sh.lam) and fails(math.nextafter(sh.lam, math.inf))
    assert sh.residual == math.ulp(sh.lam) and np.all(sh.eigvec > 0)


def _slow_exit_chain(n, exit_rate):
    # unit rates inside, both exits (a_1 and b_N) at exit_rate: lambda ~ 2 exit_rate / n
    a, b = np.ones(n), np.ones(n)
    a[0] = b[-1] = exit_rate
    return ChainModel(BoundaryCode.DD, 1, n, lambda i: b[np.asarray(i) - 1],
                      lambda i: a[np.asarray(i) - 1], name="slow_exit")


@pytest.mark.parametrize("model", [_slow_exit_chain(10, 1e-3), _slow_exit_chain(30, 1e-4)]
                         + [_seeded_finite(BoundaryCode.DD, 5000 + s, killed=s % 3 == 0)
                            for s in range(12)])
def test_shooting_keeps_relative_digits_of_a_small_rate(model):
    # the flip-point search resolves z to one ulp, so a rate of 2e-4 or 7e-6
    # keeps as many digits as one of order 1
    lam = oracle.principal_eigen(model, model.hi).lam
    if model.name == "slow_exit":
        assert lam < 1e-3
    assert oracle.shooting_rate(model, model.hi + 1).lam == pytest.approx(lam, rel=1e-11, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_shooting_sturm_agreement_random_dn(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(20, 80))

    def death(i):
        return 1.0 + 3.0 * np.sin(np.asarray(i, float) * 0.7 + seed % 10) ** 2

    def birth(i):
        return 0.5 + 2.0 * np.cos(np.asarray(i, float) * 0.3 + seed % 7) ** 2

    model = ChainModel(BoundaryCode.DN, 1, None, birth, death)
    sh = oracle.shooting_rate(model, m)
    st_ = oracle.principal_eigen(model, m - 1, boundary_at_m="neumann_plain")
    assert sh.lam == pytest.approx(st_.lam, abs=1e-8)


@pytest.mark.parametrize("row,lam,start", [
    ("table7_1_row1", (1.0 - math.sqrt(2.0)) ** 2, 2),
    ("table7_1_row2", 1.0, 1),
    ("table7_1_row3", 2.0, 1),
    ("table7_1_row4", 3.0, 1),
    ("table7_1_row5", 1.0 - (math.sqrt(5.0) - 1.0) / 2.0, 1),
    ("table7_1_row6", (math.sqrt(3.0) - math.sqrt(2.0)) ** 2, 4),
    ("table7_1_row7", 2.0, 1),
    ("table7_1_row9", 6.0 - math.sqrt(33.0), 2),
])
def test_eigen_identity_table71(row, lam, start):
    model = catalog(row)
    g = oracle.v_products(table71_v(row))
    res = oracle.eigen_identity_check(model, lam, g, start, 1000)
    assert res["difference_form"] < 1e-10


@pytest.mark.parametrize("row", [r[0] for r in TABLE71_ROWS])
def test_eigen_identity_check_reads_the_weights_without_a_weight_system(row):
    # the check reads mu, b and c from the weight recurrence alone: the same
    # arrays as a weight system on its range, and the weight memo is kept
    model = catalog(row)
    ws = build_weights(model, 5000)
    oracle.eigen_identity_check(model, 0.25, oracle.v_products(table71_v(row)), 2, 1000)
    assert build_weights(model, 5000) is ws
    a, b, c, _, mu = _rates_and_weights(model, 1000)[:5]
    ref = build_weights(model, 1000)
    for got, want in ((a, ref.a), (b, ref.b), (c, ref.c), (mu, ref.mu)):
        assert got.tobytes() == want.tobytes()


def test_reading_another_chains_weights_frees_the_memo():
    # the held window serves one chain: reading another chain's weights
    # frees it before that chain's arrays are allocated
    ws = weakref.ref(build_weights(catalog("table6_1_row2"), 5000))
    g = oracle.v_products(table71_v("table7_1_row3"))
    oracle.eigen_identity_check(catalog("table7_1_row3"), 2.0, g, 1, 1000)
    assert ws() is None


def test_eigen_identity_ex9_18():
    model = catalog("ex9_18")
    g = oracle.v_products(lambda i: 1.0 + (-1.0) ** np.asarray(i, float) / 3.0)
    res = oracle.eigen_identity_check(model, 5.0 / 6.0, g, 1, 800)
    assert res["difference_form"] < 1e-12
    assert res["summed_form"] < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("code,killed", [(BoundaryCode.NN, False), (BoundaryCode.ND, False),
                                         (BoundaryCode.DN, False), (BoundaryCode.DD, False),
                                         (BoundaryCode.DD, True)])
def test_difference_form_is_minus_generator_over_f(code, killed, seed):
    # R_i(v) = -(Omega f)_i / f_i for f the products of v, against a dense
    # generator built here from the drawn rates: a reflecting end drops the
    # rate out of the space (the model still returns a positive one there), a
    # Dirichlet end sends it to the cemetery, where f vanishes past the top
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    lo = 0 if code.origin_reflecting else 1
    a, b = rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n)
    c = rng.uniform(0.0, 2.0, n) if killed else np.zeros(n)

    def pick(arr):
        return lambda i: arr[np.asarray(i, dtype=np.int64) - lo]

    model = ChainModel(code, lo, lo + n - 1, pick(b), pick(a),
                       killing=pick(c) if killed else None)
    reflecting_top = code in (BoundaryCode.DN, BoundaryCode.NN)
    aq, bq = a.copy(), b.copy()
    if code.origin_reflecting:
        aq[0] = 0.0
    if reflecting_top:
        bq[-1] = 0.0
    omega = np.diag(aq[1:], -1) + np.diag(bq[:-1], 1) - np.diag(aq + bq + c)
    v = rng.uniform(0.5, 2.0, n)
    if not reflecting_top:
        v[-1] = 0.0
    f = oracle.v_products(v)                      # f on the states lo..lo+n-1
    got = oracle.difference_form(model, np.concatenate([[math.inf], v]), lo, lo + n - 1)
    np.testing.assert_allclose(got, -(omega @ f) / f, rtol=1e-12,
                               atol=1e-12 * float(np.max(aq + bq + c)))


def test_v_products_rejects_states_below_1():
    assert oracle.v_products(np.array([2.0, 3.0, 4.0])).tolist() == [1.0, 2.0, 6.0]
    g = oracle.v_products(lambda i: np.asarray(i) + 1.0)
    assert g(np.array([3, 1, 2])).tolist() == [6.0, 1.0, 2.0]
    with pytest.raises(BadParameter):
        g(np.arange(0, 3))


def test_splitting_collapses_with_eigvec_gamma():
    model = catalog("bilateral_quadratic")
    sb = oracle.splitting_bracket(model, theta_grid=[-1, 0, 1], m=300)
    full = oracle.principal_eigen(model, 300).lam
    mid = 0.5 * (sb.lower + sb.upper)
    assert abs(mid - full) / full < 0.02
    assert sb.upper - sb.lower < 1e-6 * max(1.0, full) or \
        abs(sb.upper - full) / full < 1e-6


@pytest.mark.parametrize("lo,hi", [(-4, 3), (0, 5), (-2, -2)])
def test_splitting_contains_the_eigenvalue_of_a_finite_chain(lo, hi, tmp_path):
    # a finite end is a theta with one side empty and the other the chain
    # itself, exits kept, so the bracket holds the whole chain's eigenvalue
    path = tmp_path / "bilateral.json"
    path.write_text(json.dumps({
        "boundary": "DD_bilateral", "lo": lo, "hi": hi,
        "birth": {"catalog": "const", "params": {"value": 3.0}},
        "death": {"catalog": "poly", "params": {"coeffs": [1.0, 0.0, 0.5]}}}))
    model = load_model(str(path))
    whole = oracle.principal_eigen(model, 10)
    assert whole.certified is Certainty.CERTIFIED
    sb = oracle.splitting_bracket(model, [t for t in (-1, 0, 1) if lo <= t <= hi], m=10)
    assert sb.lower <= whole.lam <= sb.upper


def test_splitting_requires_bilateral():
    with pytest.raises(WrongBoundary):
        oracle.splitting_bracket(catalog("const_nd"), [0])


@pytest.mark.parametrize("theta", [-1, 7])
def test_splitting_theta_outside_a_finite_chain(theta):
    model = ChainModel(BoundaryCode.DD_BILATERAL, 0, 5, lambda i: np.full(np.shape(i), 3.0),
                       lambda i: 1.0 + 0.5 * np.asarray(i, dtype=float) ** 2)
    with pytest.raises(BadParameter, match=r"theta = %d .*\[0, 5\]" % theta):
        oracle.splitting_bracket(model, [0, theta], m=10)


@pytest.mark.parametrize("m", [6000, 8000, 16000])
def test_principal_eigen_residual_relative_to_norm(m):
    # quartic rates make ||T|| ~ m^4, so the absolute residual outgrows any
    # multiple of max(1, lam); backward stability bounds it by n eps ||T||_inf
    model = catalog("quartic_nd")
    got = oracle.principal_eigen(model, m)
    a, b, c = model.rates(0, m)
    off = np.sqrt(b[:-1] * a[1:])
    rows = a + b + c
    rows[:-1] += off
    rows[1:] += off
    n = m + 1
    assert got.residual <= n * np.finfo(float).eps * float(np.max(rows))


def _tail_ratio_loop(model, top, tol=1e-14, cap=200000):
    """The per-term reference of ``oracle._tail_ratio``: the hint over mu_top,
    the weights' products of b/a one term at a time while they stay normal,
    else over hint(top) - hint(top + 1); or p = mu_k / mu_top and s = sum of
    p multiplied and added one term at a time, stopping at the first
    p < tol * s; None where it reaches the cap."""
    hint = model.hint("mu_tail")
    if hint is not None:
        num = float(hint(top))
        idx = np.arange(model.base, top + 1, dtype=np.int64)
        mu, normal = 1.0, top > model.base
        for bk, ak in zip(model.birth(idx[:-1]).tolist(), model.death(idx[1:]).tolist()):
            mu *= bk / ak
            normal = normal and np.finfo(float).tiny <= mu < math.inf
        den = mu if normal else float(hint(top)) - float(hint(top + 1))
        if den > 0 and math.isfinite(num):
            return num / den
        if not math.isfinite(num):
            return math.inf
    s = p = 1.0
    j, block = top, 512
    end = top + cap if model.hi is None else min(model.hi, top + cap)
    while j < end:
        hi = min(j + block, end)
        idx = np.arange(j, hi, dtype=np.int64)
        r = (np.asarray(model.birth(idx), dtype=float)
             / np.asarray(model.death(idx + 1), dtype=float))
        with np.errstate(over="ignore"):
            for rr in r:
                p *= rr
                s += p
                if p < tol * s:
                    return s
                if not math.isfinite(s):
                    return math.inf
        j, block = hi, min(2 * block, 1 << 16)
    return s if model.hi is not None and j >= model.hi else None


NN_DN = [n for n in catalog_names()
         if catalog(n).boundary in (BoundaryCode.NN, BoundaryCode.DN)]


@pytest.mark.parametrize("hinted", [True, False], ids=["hint", "bare"])
@pytest.mark.parametrize("name", NN_DN)
def test_tail_ratio_equals_the_per_term_loop(name, hinted):
    # bit for bit wherever the loop stops before the cap; at the cap (ex5_5,
    # table6_1_row7 and symmetric_nn without a mu_tail hint) the remainder
    # comes from the estimator, and the cap test below checks it
    model = catalog(name)
    if not hinted:
        model = dataclasses.replace(model, tail_hint=None)
    for top in (250, 1000, 4000):
        ref = _tail_ratio_loop(model, top)
        if ref is not None:
            assert oracle._tail_ratio(model, top) == ref


def test_tail_ratio_at_the_cap():
    # mu_k = 1/k^2: the hinted closed form is 4000.50004...; the loop sums
    # 200000 terms and the estimator adds the rest
    hinted = catalog("ex5_5")
    bare = dataclasses.replace(hinted, tail_hint=None)
    assert _tail_ratio_loop(bare, 4000) is None
    exact = oracle._tail_ratio(hinted, 4000)
    assert exact == pytest.approx(4000.50004, rel=1e-9)
    assert oracle._tail_ratio(bare, 4000) == pytest.approx(exact, rel=1e-7)
    # a non-decaying tail (symmetric_nn: mu_k = 1) reaches the cap and is infinite
    assert oracle._tail_ratio(catalog("symmetric_nn"), 4000) == math.inf


def test_tail_ratio_of_a_harmonic_tail_is_infinite():
    # ex9_19: mu_k = 3/k reaches the cap, and the estimator reads the
    # remainder of a 1/k tail as divergent, so a Neumann truncation raises
    model = catalog("ex9_19")
    assert oracle._tail_ratio(model, 4000) == math.inf
    with pytest.raises(WrongBoundary, match="summable mu tail"):
        oracle.principal_eigen(model, 4000, "neumann")


def test_tail_ratio_at_a_finite_top_and_under_an_infinite_hint():
    def one(i):
        return np.ones(np.shape(i))
    # mu = 1 on [0, 50]: the tail from 20 is the 31 states to the top
    assert oracle._tail_ratio(ChainModel(BoundaryCode.NN, 0, 50, one, one), 20) == 31.0
    infinite = ChainModel(BoundaryCode.NN, 0, None, one, one,
                          tail_hint={"mu_tail": lambda n: np.full(np.shape(n), math.inf)})
    assert oracle._tail_ratio(infinite, 20) == math.inf


@pytest.mark.parametrize("name", ["ex5_5", "table6_1_row7"])
def test_tail_ratio_of_a_hurwitz_tail_reads_mu_from_the_weights(name):
    # mu_k = C/k^2, so t = m^2 zeta(2, m); mu_m is the weights' float, not
    # hint(m) - hint(m + 1), which carries the hint's error times about m
    model = catalog(name)
    for m in (250, 1000, 2828, 4000):
        refs = []
        for dps in (40, 60):
            with mpmath.workdps(dps):
                refs.append(mpmath.mpf(m) ** 2 * mpmath.zeta(2, m))
        assert abs(refs[0] - refs[1]) <= 1e-35 * refs[1]
        t = oracle._tail_ratio(model, m)
        assert t == pytest.approx(float(refs[1]), rel=1e-14, abs=0.0)
        ws = build_weights(model)     # after t: _tail_ratio reads no held window
        assert t == float(model.hint("mu_tail")(m)) / ws.mu[m - ws.base]


def _lapack_count(diag, off, x):
    """LAPACK's Sturm count at x: the eigenvalues dstebz puts in (-inf, x]."""
    return int(dstebz(diag, off, 1, -math.inf, x, 0, 0, math.inf, b"E")[0])


@st.composite
def _generators(draw):
    """A symmetrized killed generator, diag a + b + c and off -sqrt(b_i a_{i+1}),
    n from 2 to 300. Graded ones have all three rates growing like s^i, up to
    e^210: the killing keeps a fixed share of every row's diagonal, so the
    bisection keeps the small eigenvalues' relative digits (Barlow & Demmel
    1990); with ungraded killing they lose up to 4 of them."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rates = [rng.uniform(0.1, 4.0, n), rng.uniform(0.1, 4.0, n), rng.uniform(0.05, 1.0, n)]
    if draw(st.booleans()):
        rates = [r * np.exp(np.arange(n) * rng.uniform(0.0, 0.7)) for r in rates]
    a, b, c = rates
    return a + b + c, -np.sqrt(b[:-1] * a[1:])


@settings(max_examples=40, deadline=None)
@given(_generators(), st.integers(0, 1))
def test_eig_k_returns_the_flip_point_whatever_the_bracket(mat, k):
    diag, off = mat
    if len(diag) <= k:
        k = 0
    lam = oracle._eig_k(diag, off, k)
    # the least float at which LAPACK's count passes k
    assert _lapack_count(diag, off, lam) > k >= _lapack_count(diag, off, np.nextafter(lam, -1.0))
    assert lam == pytest.approx(_mp_eig_k(diag, off, k), rel=1e-13, abs=0.0)
    top = oracle._eig_k(diag, off, min(k + 2, len(diag) - 1))
    mid = 0.5 * (oracle._eig_k(diag, off, k - 1) + lam) if k else 0.0
    brackets = [(0.5 * lam, None),                # wholly below lambda_k
                (4.0 * np.max(diag) + 1.0, None),  # far above lambda_k
                (top, (top - mid) / 2),           # (vl, vu] holds lambda_k .. lambda_k+2
                (lam, 0.0),                       # tight: 64 eps below, 8 eps above
                (1.5 * lam, math.nan),            # no step: vl = vu / 2
                (lam, -lam)]                      # a rise: the step is ignored
    for above, step in brackets:
        assert oracle._eig_k(diag, off, k, above=above, step=step) == lam
    got, vec = oracle._eig_k(diag, off, k, vector=True, above=1.5 * lam)
    assert got == lam and vec.shape == diag.shape


def test_eig_k_of_a_1_by_1_matrix_and_of_non_finite_entries():
    lam, vec = oracle._eig_k(np.array([2.5]), np.array([]), vector=True, above=1.0, step=0.5)
    assert lam == 2.5 and np.array_equal(vec, [1.0])
    assert oracle._eig_k(np.array([-0.5]), np.zeros(0)) == -0.5
    for diag, off in (([1.0, math.nan], [-0.5]), ([1.0, 2.0], [-math.inf])):
        with pytest.raises(ValueError):
            oracle._eig_k(np.array(diag), np.array(off))


@pytest.mark.parametrize("name", ["table6_1_row%d" % i for i in range(1, 9)]
                         + ["table7_1_row%d" % i for i in range(1, 10)]
                         + ["ex9_18", "quartic_nd"])
def test_table_schedule_levels_are_principal_eigen_bit_for_bit(name):
    # each level's bisection is bracketed by the level before; the values are
    # the unbracketed solves' flip points all the same
    model = catalog(name)
    tr = oracle.truncation_limit(model, TABLE_SCHEDULE)
    assert [v.hex() for v in tr.values] == \
        [oracle.principal_eigen(model, m).lam.hex() for m in TABLE_SCHEDULE]


def test_splitting_detail_is_the_unbracketed_local_pairs_bit_for_bit():
    # both sides' gamma sweeps bracket each solve by the one before; the
    # detail holds the unbracketed pairs' floats, keys in the same order
    model = catalog("ex8_9")
    sb = oracle.splitting_bracket(model, list(range(-3, 4)), m=100)
    # the eigenvector's peak lies in the grid; its gamma (7.18) comes last
    peak_gamma = list(sb.detail)[len(oracle.GAMMA_GRID)][1]
    assert peak_gamma not in oracle.GAMMA_GRID
    assert list(sb.detail) == [(t, g) for t in range(-3, 4)
                               for g in oracle.GAMMA_GRID + (peak_gamma,)]
    for (theta, gamma), pair in sb.detail.items():
        want = oracle._local_pair(model, theta, gamma, 100)
        assert [v.hex() for v in pair] == [v.hex() for v in want]

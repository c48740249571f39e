"""References and output checks.

Every reference comes from a route that does not run the library: the exact
values the catalog records for the paper's tables, closed forms of the
constant-rate families, and a dense ``numpy.linalg.eigvalsh`` of a generator
the benchmark builds itself from the chain's rates. ``check`` turns a job's
outcomes into a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from bdspec.model import BoundaryCode

catalog_mod = sys.modules["bdspec.catalog"]

BRACKET_TOL = 1e-6      # containment slack, as the factor-4 property test uses
EIGEN_TOL = 1e-8        # eigensolver agreement, relative to max(1, lambda)
IDENTITY_TOL = 1e-10    # p = 2 identities, relative
SPECTRUM_TOL = 1e-8     # dual spectra, relative to the largest eigenvalue


# ---------------------------------------------------------------------------
# dense spectra of the benchmark's own generators
# ---------------------------------------------------------------------------

def generator_rates(code: BoundaryCode, a, b, c=None):
    """(death, birth, killing) on the finite state range, ChainModel conventions.

    ND/NN reflect at the origin (death there ignored); DN/DD exit from the
    bottom state at its death rate. DN/NN reflect at the top (birth ignored);
    ND/DD exit from the top state at its birth rate.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    c = np.zeros(len(a)) if c is None else np.array(c, dtype=float)
    if code.origin_reflecting:
        a[0] = 0.0
    if code in (BoundaryCode.DN, BoundaryCode.NN):
        b[-1] = 0.0
    return a, b, c


def dense_spectrum(a, b, c) -> np.ndarray:
    """Eigenvalues of -Q symmetrized by diag(sqrt(mu)), ascending."""
    n = len(a)
    T = np.diag(a + b + c)
    if n > 1:
        off = np.sqrt(b[:-1] * a[1:])
        T -= np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(T)


def finite_rate(code: BoundaryCode, a, b, c=None) -> float:
    """Decay rate: the gap for a killing-free NN chain, else the bottom eigenvalue."""
    ev = dense_spectrum(*generator_rates(code, a, b, c))
    if code is BoundaryCode.NN and (c is None or not np.any(c)) and len(ev) > 1:
        return float(ev[1])
    return float(ev[0])


def model_arrays(model):
    """Rates of a finite catalog model on its whole range, as plain arrays."""
    idx = np.arange(model.base, model.hi + 1, dtype=np.int64)
    a = np.asarray(model.death(idx), dtype=float)
    b = np.asarray(model.birth(idx), dtype=float)
    c = None if model.killing is None else np.asarray(model.killing(idx), dtype=float)
    return a, b, c


def bilateral_rate(model, half: int = 12) -> float:
    """Bottom of a bilateral Dirichlet truncation on [-half, half]."""
    idx = np.arange(-half, half + 1, dtype=np.int64)
    a = np.asarray(model.death(idx), dtype=float)
    b = np.asarray(model.birth(idx), dtype=float)
    return float(dense_spectrum(a, b, np.zeros(len(a)))[0])


# ---------------------------------------------------------------------------
# reference values per job
# ---------------------------------------------------------------------------

def _sq_gap(x, y):
    return (math.sqrt(x) - math.sqrt(y)) ** 2


# exact rates of infinite catalog chains at their default parameters
# (const_dn at its defaults has divergent total weight, where the DN rate
# depends on the convention at infinity, so it gets no rate reference)
_EXACT = {"linear_nd": 1.0, "quadratic_nd": 0.25, "quartic_nd": 0.5,
          "symmetric_nn": 0.0}
# ND chains with summable weights: the reflecting-origin basic bracket targets
# the gap of the reflecting view, which has no closed form here
_REFLECTING_VIEW = {"quartic_nd"}
# rates known only to lie in an interval
_INTERVAL = {"ex5_7": (0.395, 0.399)}
# typed errors a correct library raises, by rule
_DN_NO_NEUMANN = {"sobolev_constant": "WrongVariant"}
_NOT_ERGODIC_NN = {"kappa_nn": "NotErgodic", "eta1_closed": "WrongBoundary",
                   "eta_seq_nn": "WrongBoundary"}


def catalog_rate(name: str, params: dict, model):
    """(rate, interval) for a catalog chain; rate None when no reference exists."""
    for row in catalog_mod.TABLE61_ROWS:
        if row[0] == name:
            return 1.0 / row[1], None
    for row in catalog_mod.TABLE71_ROWS:
        if row[0] == name and name != "table7_1_row1":
            return row[1], None
    if name == "const_nd":
        return _sq_gap(params["b"], params["a"]), None
    if name in ("ex5_3", "ex6_7", "table7_1_row1"):
        return _sq_gap(params["a"], params["b"]), None
    if name == "ex8_8":
        return 0.0, None                     # delta^(3.1) diverges for every gamma > 1
    if name in _INTERVAL:
        return None, _INTERVAL[name]
    if name == "ex8_9":
        return bilateral_rate(model), None
    if model is not None and model.hi is not None:
        return finite_rate(model.boundary, *model_arrays(model)), None
    return _EXACT.get(name), None


def reference(job) -> dict:
    """Reference data for one job, computed outside the timed pass."""
    if job.kind == "table6_1":
        _, lam_inv, eb, e1, k = job.info["row"]
        return {"lam_inv": lam_inv, "eta_bar_1": eb, "eta_1": e1, "kappa": k}
    if job.kind == "table7_1":
        return {"lam0": job.info["row"][1]}
    if job.kind == "split":
        return {"rate": bilateral_rate(job.model)}
    if job.kind in ("catalog", "cli"):
        name, params = job.info["name"], job.info["params"]
        model = job.model if job.model is not None else catalog_mod.catalog(name, **params)
        rate, interval = catalog_rate(name, params, model)
        expect = {}
        if model.boundary is BoundaryCode.DN:
            expect.update(_DN_NO_NEUMANN)
        if name == "symmetric_nn":
            expect.update(_NOT_ERGODIC_NN)
        return {"rate": rate, "interval": interval, "expect": expect,
                "basic_rate": None if name in _REFLECTING_VIEW else rate}
    if job.kind == "finite":
        code, a, b, c = (job.info[k] for k in ("code", "a", "b", "c"))
        ref = {"rate": finite_rate(code, a, b, c)}
        if c is None and code is BoundaryCode.ND:
            # the reflecting-origin bracket targets the reflecting view's gap
            ref["bracket_rate"] = finite_rate(BoundaryCode.NN, a, b)
        else:
            ref["bracket_rate"] = ref["rate"]
        if code.origin_reflecting:
            ref["spectrum"] = dense_spectrum(*generator_rates(code, a, b))
            ref["similarity_tol"] = similarity_tol(code, a, b)
        return ref
    raise ValueError("unknown job kind %r" % job.kind)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _floats(obj, out=None):
    """Every float reachable in a result (tuples, lists, dicts, dataclasses)."""
    out = [] if out is None else out
    if isinstance(obj, float):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _floats(v, out)
    elif isinstance(obj, dict):
        for v in obj.values():
            _floats(v, out)
    elif hasattr(obj, "__dataclass_fields__"):
        for k in obj.__dataclass_fields__:
            v = getattr(obj, k)
            if not isinstance(v, np.ndarray):
                _floats(v, out)
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _contains(lower, upper, lam, tol=BRACKET_TOL) -> bool:
    slack = tol * max(1.0, abs(lam))
    return lower - slack <= lam <= upper + slack


def _close_rel(x, y, tol) -> bool:
    return _finite(x) and abs(x - y) <= tol * max(1.0, abs(y))


def strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity."""
    def refuse(token):
        raise ValueError("non-strict JSON token %s" % token)
    return json.loads(text, parse_constant=refuse)


def check(job, ref: dict, outcomes: dict) -> list:
    """Failures of one job; ``outcomes`` maps label -> ("ok", value) | ("err", type, msg)."""
    fails = []
    expect = ref.get("expect", {})
    values = {}
    for label, _ in job.calls:
        out = outcomes[label]
        want = expect.get(label)
        if out[0] == "err":
            if out[1] != want:
                fails.append("%s raised %s: %s" % (label, out[1], out[2]))
            continue
        if want is not None:
            fails.append("%s returned, %s expected" % (label, want))
            continue
        if any(math.isnan(v) for v in _floats(out[1])):
            fails.append("%s returned NaN" % label)
        values[label] = out[1]
    checker = _CHECKERS[job.kind]
    fails.extend(checker(job, ref, values))
    return fails


def _check_table6_1(job, ref, v):
    fails = []
    if "truncation_limit" in v:
        lim = v["truncation_limit"].limit
        if not (_finite(lim) and lim > 0):
            fails.append("oracle limit %r" % lim)
        elif abs(1.0 / lim - ref["lam_inv"]) > 1e-3 * ref["lam_inv"]:
            fails.append("oracle 1/lambda %.6g vs %.6g (1e-3 rel)" % (1.0 / lim, ref["lam_inv"]))
    if "eta1_closed" in v:
        e1, eb1 = v["eta1_closed"]
        if not (_finite(e1) and abs(e1 - ref["eta_1"]) <= 0.02):
            fails.append("eta_1 %r vs %r" % (e1, ref["eta_1"]))
        if not (_finite(eb1) and abs(eb1 - ref["eta_bar_1"]) <= 0.02):
            fails.append("eta_bar_1 %r vs %r" % (eb1, ref["eta_bar_1"]))
    if "kappa_nn" in v:
        k = v["kappa_nn"][0]
        if not (_finite(k) and abs(k - ref["kappa"]) <= 0.02):
            fails.append("kappa %r vs %r" % (k, ref["kappa"]))
        if "eta1_closed" in v and _finite(k):
            e1, eb1 = v["eta1_closed"]
            if not (k < eb1 and e1 < 4.0 * k):
                fails.append("(eta_bar_1, eta_1) outside (kappa, 4 kappa)")
    return fails


def _check_table7_1(job, ref, v):
    fails = []
    if "eigen_identity_check" in v:
        r = v["eigen_identity_check"]["difference_form"]
        if not (_finite(r) and r < 1e-10):
            fails.append("R-residual %r (< 1e-10)" % r)
    if "truncation_limit" in v:
        lim = v["truncation_limit"].limit
        if not (_finite(lim) and abs(lim - ref["lam0"]) <= 1e-3 * ref["lam0"]):
            fails.append("oracle %r vs %r (1e-3 rel)" % (lim, ref["lam0"]))
    return fails


def _check_split(job, ref, v):
    if "splitting_bracket" not in v:
        return []
    sb = v["splitting_bracket"]
    if not (_finite(sb.lower) and _finite(sb.upper) and sb.lower <= sb.upper):
        return ["split bracket [%r, %r]" % (sb.lower, sb.upper)]
    if not _contains(sb.lower, sb.upper, ref["rate"], 1e-9):
        return ["split bracket [%r, %r] misses %r" % (sb.lower, sb.upper, ref["rate"])]
    return []


def _bracket_fails(label, lower, upper, ref):
    """Containment of the reference rate (or interval) in a factor-4 bracket."""
    rate, interval = ref.get("rate"), ref.get("interval")
    if not (_finite(lower) and lower >= 0 and upper >= lower):
        return ["%s bracket [%r, %r]" % (label, lower, upper)]
    if lower > 0 and upper > 4.0 * lower * (1 + 1e-12):
        return ["%s bracket wider than factor 4" % label]
    if rate is not None and not _contains(lower, upper, rate):
        return ["%s bracket [%.6g, %.6g] misses %.6g" % (label, lower, upper, rate)]
    if interval is not None and (lower > interval[1] or upper < interval[0]):
        return ["%s bracket [%.6g, %.6g] misses %r" % (label, lower, upper, interval)]
    return []


def _positive(ref) -> bool:
    rate, interval = ref.get("rate"), ref.get("interval")
    return (rate is not None and rate > 0) or interval is not None


def _check_catalog(job, ref, v):
    fails = []
    pos = _positive(ref)
    for label in ("delta_nd", "delta_dn"):
        if label in v:
            d, br = v[label]
            if pos and not _finite(d):
                fails.append("%s = %r on a positive-rate chain" % (label, d))
            fails += _bracket_fails(label, br.lower, br.upper, ref)
    for label in ("kappa_nn", "kappa_dd", "kappa_bilateral"):
        if label in v:
            k, br = v[label][0], v[label][-1]
            if pos and not _finite(k):
                fails.append("%s = %r on a positive-rate chain" % (label, k))
            fails += _bracket_fails(label, br.lower, br.upper, ref)
    if "basic_bracket" in v:
        rep = v["basic_bracket"]
        fails += _bracket_fails("basic_bracket", rep.bracket.lower, rep.bracket.upper,
                                dict(ref, rate=ref["basic_rate"]))
        if ref.get("rate") == 0.0 and rep.positive:
            fails.append("basic_bracket calls a zero-rate chain positive")
    if pos and "first_step_closed" in v:
        d1, d1p = v["first_step_closed"]
        if not (_finite(d1) and _finite(d1p)):
            fails.append("first_step_closed (%r, %r)" % (d1, d1p))
        elif "delta_nd" in v and _finite(v["delta_nd"][0]):
            d = v["delta_nd"][0]
            if not d - 1e-9 <= d1p <= 2.0 * d + 1e-9:
                fails.append("delta_1' %r outside [delta, 2 delta]" % d1p)
    if pos:
        for label in ("delta_seq_nd", "delta_prime_seq_nd", "eta_seq_nn"):
            if label in v and not v[label].monotone_ok:
                fails.append("%s not monotone" % label)
    if pos and "eta1_closed" in v and "kappa_nn" in v:
        e1, eb1 = v["eta1_closed"]
        k = v["kappa_nn"][0]
        if not (_finite(e1) and _finite(eb1) and k < eb1 and e1 < 4.0 * k):
            fails.append("(eta_bar_1, eta_1) outside (kappa, 4 kappa)")
    if pos and "dd_first_step" in v:
        if not all(_finite(x) for x in v["dd_first_step"]):
            fails.append("dd_first_step %r" % (v["dd_first_step"],))
    if "sobolev_constant" in v:
        B = v["sobolev_constant"].B
        # p = 2 identities: B = delta^(3.1) (ND), B = kappa^(7.5) (DD, bilateral)
        for label in ("delta_nd", "kappa_dd", "kappa_bilateral"):
            if pos and label in v and _finite(v[label][0]):
                if not _close_rel(B, v[label][0], IDENTITY_TOL):
                    fails.append("p=2 identity: B %r vs %s %r" % (B, label, v[label][0]))
        if ref.get("rate") == 0.0 and job.model.boundary is BoundaryCode.ND \
                and _finite(B):
            fails.append("p=2 constant %r finite on a zero-rate chain" % B)
    if "b_constants_split" in v:
        bl, br_, bb, S = v["b_constants_split"]
        if not (_finite(bb) and bb > 0):
            fails.append("B_split = %r" % bb)
    return fails


def _check_cli(job, ref, v):
    fails = []
    docs = {}
    for cmd, (code, text) in v.items():
        if code not in (0, 2):
            fails.append("%s exit code %r" % (cmd, code))
            continue
        try:
            docs[cmd] = strict_json(text)
        except ValueError as exc:
            fails.append("%s output is not strict JSON: %s" % (cmd, exc))
    rate = ref["rate"]
    est = docs.get("estimate")
    if est is not None:
        if not _close_rel(est.get("lambda_exact"), rate, EIGEN_TOL):
            fails.append("lambda_exact %r vs %r" % (est.get("lambda_exact"), rate))
        fails += _bracket_fails("estimate", *est["bracket"], ref)
        fails += _bracket_fails("basic", *est["basic"]["bracket"], ref)
    poi = docs.get("poincare")
    if poi is not None:
        if not (_finite(poi.get("B_split")) and poi["B_split"] > 0):
            fails.append("B_split %r" % poi.get("B_split"))
        if est is not None and not _close_rel(poi.get("B"), est["kappa"], IDENTITY_TOL):
            fails.append("p=2 identity: B %r vs kappa %r" % (poi.get("B"), est["kappa"]))
    apx = docs.get("approx")
    if apx is not None:
        for key in ("delta", "delta_1", "delta_bar_1"):
            if not (_finite(apx.get(key)) and apx[key] > 0):
                fails.append("approx %s = %r" % (key, apx.get(key)))
    return fails


def _check_finite(job, ref, v):
    fails = []
    rate = ref["rate"]
    tol = EIGEN_TOL * max(1.0, rate)
    if "principal_eigen" in v and not _close_rel(v["principal_eigen"].lam, rate, EIGEN_TOL):
        fails.append("principal_eigen %r vs %r" % (v["principal_eigen"].lam, rate))
    if "basic_bracket" in v:
        br = v["basic_bracket"].bracket
        fails += _bracket_fails("basic_bracket", br.lower, br.upper,
                                {"rate": ref["bracket_rate"]})
    if "upper_9_9" in v and not v["upper_9_9"][0] >= rate - tol:
        fails.append("upper_9_9 %r below %r" % (v["upper_9_9"][0], rate))
    for label in ("corollary_9_9", "sqrt_test_bound"):
        if label in v and not v[label].lower <= rate + tol:
            fails.append("%s lower %r above %r" % (label, v[label].lower, rate))
    if "dualize" in v:
        pair = v["dualize"]
        if not pair.weight_residual <= 1e-9:
            fails.append("dual weight identity residual %r" % pair.weight_residual)
        fails += _dual_spectrum_fails(pair, ref["spectrum"])
    if "similarity_check" in v:
        res = v["similarity_check"]
        if not (_finite(res) and res <= ref["similarity_tol"]):
            fails.append("similarity residual %r above %.3g" % (res, ref["similarity_tol"]))
    return fails


def similarity_tol(code: BoundaryCode, a, b) -> float:
    """Rounding bound of M Q M^-1 for the weighted-difference similarity:
    16 n eps max(|M| |Q| |M^-1|), with the weights built here."""
    a, b, c = generator_rates(code, a, b)
    n = len(a)
    mu = np.concatenate([[1.0], np.cumprod(b[:-1] / a[1:])])
    Q = np.diag(a + b) + np.diag(b[:-1], 1) + np.diag(a[1:], -1)
    if code is BoundaryCode.ND:
        mb = mu * b
        M = np.diag(mb) + np.diag(mb[:-1], 1)
        Minv = np.triu(np.ones((n, n))) / mb[None, :]
    else:
        M = np.triu(np.ones((n, n))) * mu[None, :]
        Minv = np.diag(1.0 / mu) + np.diag(1.0 / mu[:-1], 1)
    return 16.0 * n * np.finfo(float).eps * float(np.max(M @ Q @ Minv))


def _dual_spectrum_fails(pair, spectrum):
    """The dual generator, built here from the dual's rates, has the primal spectrum
    (less the zero eigenvalue of a conservative NN chain)."""
    dual = pair.dual
    if dual.hi is None:
        return ["dual of a finite chain is infinite"]
    idx = np.arange(dual.base, dual.hi + 1, dtype=np.int64)
    a = np.asarray(dual.death(idx), dtype=float)
    b = np.asarray(dual.birth(idx), dtype=float)
    got = dense_spectrum(*generator_rates(dual.boundary, a, b))
    want = spectrum[1:] if pair.primal.boundary is BoundaryCode.NN else spectrum
    if len(got) != len(want):
        return ["dual has %d states, %d expected" % (len(got), len(want))]
    err = float(np.max(np.abs(got - want))) if len(got) else 0.0
    if err > SPECTRUM_TOL * max(1.0, float(np.max(np.abs(want)))):
        return ["dual spectrum differs by %.3g" % err]
    return []


_CHECKERS = {"table6_1": _check_table6_1, "table7_1": _check_table7_1,
             "split": _check_split, "catalog": _check_catalog, "cli": _check_cli,
             "finite": _check_finite}


"""Seeded workload generation.

A job is every public-library call a user makes for one chain. Each call is a
``(label, fn)`` pair; ``fn(model)`` looks the library function up through its
module at call time, so a traced run sees the calls through the patched
module namespaces. The seed decides the inputs; the library receives only
the generated models.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize  # noqa: F401  (imported lazily by series: part of set-up)

import bdspec  # noqa: F401  (binds the submodules below)
from bdspec import approx, cli, duality, estimates, killing, oracle, poincare
from bdspec.model import BoundaryCode, ChainModel

catalog_mod = sys.modules["bdspec.catalog"]

SCHEDULE_4000 = (250, 354, 500, 707, 1000, 1414, 2000, 2828, 4000)
WINDOW_SQUARED = 2 ** 12     # stated window for the calls that cost window^2
FINITE_CHAINS = 1000         # chains per finite_sweep pass
FINITE_N = (3, 64)           # state count range of the finite chains
RATE_RANGE = (0.2, 3.0)
KILL_RANGE = (0.0, 2.0)

# the catalog's finite chains, exercised through the command line in-process
CLI_CHAINS = ("ex7_5_1", "ex7_5_2", "ex7_6_1", "ex7_6_2")
CLI_COMMANDS = ("estimate", "approx", "poincare")


@dataclass
class Job:
    jid: str
    kind: str
    model: object                  # ChainModel, or None for command-line jobs
    calls: list                    # [(label, fn(model) -> value)]
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# paper_tables
# ---------------------------------------------------------------------------

def _v_products(v):
    """g_1 = 1, g_{i+1} = g_i v_i, as the table command builds it."""
    def g(idx):
        idx = np.asarray(idx, dtype=np.int64)
        top = int(idx.max())
        vv = np.asarray(v(np.arange(1, top + 1, dtype=np.int64)), dtype=float)
        return np.concatenate([[1.0], np.cumprod(vv)])[idx - 1]
    return g


def paper_tables(seed: int) -> list:
    jobs = []
    for row in catalog_mod.TABLE61_ROWS:
        name = row[0]
        jobs.append(Job(name, "table6_1", catalog_mod.catalog(name), [
            ("eta1_closed", lambda m: approx.eta1_closed(m)),
            ("kappa_nn", lambda m: estimates.kappa_nn(m)),
            ("truncation_limit", lambda m: oracle.truncation_limit(m, SCHEDULE_4000)),
        ], {"row": row}))
    for row in catalog_mod.TABLE71_ROWS:
        name, lam0, start = row
        g = _v_products(catalog_mod.table71_v(name))
        lo = start if start is not None else 2
        jobs.append(Job(name, "table7_1", catalog_mod.catalog(name), [
            ("eigen_identity_check",
             lambda m, lam0=lam0, g=g, lo=lo: oracle.eigen_identity_check(m, lam0, g, lo, 1000)),
            ("truncation_limit", lambda m: oracle.truncation_limit(m, SCHEDULE_4000)),
        ], {"row": row}))
    jobs.append(Job("ex8_9_split", "split", catalog_mod.catalog("ex8_9"), [
        ("splitting_bracket",
         lambda m: oracle.splitting_bracket(m, list(range(-3, 4)), m=100)),
    ]))
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# catalog_brackets
# ---------------------------------------------------------------------------

def _drawn_params(rng: random.Random) -> dict:
    """Parameters of the families with closed-form rates or thresholds."""
    def pair():
        lo = round(rng.uniform(0.5, 2.0), 3)
        return lo, round(lo * rng.uniform(1.5, 4.0), 3)
    a, b = pair()
    out = {"const_nd": {"a": a, "b": b}}          # b > a: rate (sqrt b - sqrt a)^2
    b, a = pair()
    out["ex5_3"] = {"a": a, "b": b}               # a > b
    b, a = pair()
    out["ex6_7"] = {"a": a, "b": b}               # a > b
    a, b = pair()
    out["table7_1_row1"] = {"a": a, "b": b}       # b > a
    out["ex8_8"] = {"gamma": round(rng.uniform(2.0, 5.0), 3)}
    return out


def _estimate_calls(model: ChainModel) -> list:
    """The calls of ``bdspec estimate`` on an infinite half-line chain."""
    code = model.boundary
    first = {BoundaryCode.ND: ("delta_nd", lambda m: estimates.delta_nd(m)),
             BoundaryCode.DN: ("delta_dn", lambda m: estimates.delta_dn(m)),
             BoundaryCode.NN: ("kappa_nn", lambda m: estimates.kappa_nn(m)),
             BoundaryCode.DD: ("kappa_dd", lambda m: estimates.kappa_dd(m))}[code]
    if model.name == "ex8_8":
        basic = ("basic_bracket",
                 lambda m: estimates.basic_bracket(m, n_max=WINDOW_SQUARED))
    else:
        basic = ("basic_bracket", lambda m: estimates.basic_bracket(m))
    return [first, basic]


def _approx_calls(model: ChainModel) -> list:
    """The calls of ``bdspec approx`` (default steps 5, default grid)."""
    code = model.boundary
    if code is BoundaryCode.ND:
        return [("first_step_closed", lambda m: approx.first_step_closed(m)),
                ("delta_seq_nd", lambda m: approx.delta_seq_nd(m, 5)),
                ("delta_prime_seq_nd", lambda m: approx.delta_prime_seq_nd(m, 5))]
    if code is BoundaryCode.DN:
        return [("first_step_closed", lambda m: approx.first_step_closed(m))]
    if code is BoundaryCode.NN:
        return [("eta1_closed", lambda m: approx.eta1_closed(m)),
                ("eta_seq_nn", lambda m: approx.eta_seq_nn(m, 5))]
    if model.name == "table7_1_row8":
        return [("dd_first_step",
                 lambda m: approx.dd_first_step(m, window=WINDOW_SQUARED))]
    return [("dd_first_step", lambda m: approx.dd_first_step(m))]


def _poincare_calls(model: ChainModel) -> list:
    """The p = 2 constant ``bdspec poincare`` picks, plus the DD split."""
    code = model.boundary
    if code is BoundaryCode.DD_BILATERAL:
        return [("sobolev_constant",
                 lambda m: poincare.sobolev_constant(m, 2.0, "bilateral_8_4")),
                ("b_constants_split", lambda m: poincare.b_constants_split(m, 2.0))]
    if code is BoundaryCode.DD:
        return [("sobolev_constant",
                 lambda m: poincare.sobolev_constant(m, 2.0, "half_line_8_6")),
                ("b_constants_split",
                 lambda m: poincare.b_constants_split(m, 2.0, n_max=WINDOW_SQUARED))]
    # ND, NN and DN: the reflecting-origin variant (DN has no such constant)
    return [("sobolev_constant",
             lambda m: poincare.sobolev_constant(m, 2.0, "neumann_8_9"))]


def _cli_call(argv):
    def run(_model):
        return cli_run(argv)
    return run


def cli_run(argv) -> tuple:
    """``cli.main(argv)`` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def catalog_brackets(seed: int) -> list:
    params = _drawn_params(random.Random(seed))
    jobs = []
    for name in catalog_mod.catalog_names():
        kw = params.get(name, {})
        model = catalog_mod.catalog(name, **kw)
        if model.killing is not None:
            continue                      # killed chains belong to finite_sweep
        if name in CLI_CHAINS:
            pstr = ",".join("%s=%r" % kv for kv in sorted(kw.items()))
            calls = [(cmd, _cli_call([cmd, "--model", name, "--param", pstr, "--json"]))
                     for cmd in CLI_COMMANDS]
            jobs.append(Job(name, "cli", None, calls, {"name": name, "params": kw}))
            continue
        if model.boundary is BoundaryCode.DD_BILATERAL:
            calls = [("kappa_bilateral", lambda m: estimates.kappa_bilateral(m))]
        else:
            calls = _estimate_calls(model) + _approx_calls(model)
        calls += _poincare_calls(model)
        jobs.append(Job(name, "catalog", model, calls, {"name": name, "params": kw}))
    return jobs


# ---------------------------------------------------------------------------
# finite_sweep
# ---------------------------------------------------------------------------

def _pick(arr: np.ndarray, base: int):
    n = len(arr)
    return lambda i: arr[np.clip(np.asarray(i, dtype=np.int64) - base, 0, n - 1)]


def finite_model(code: BoundaryCode, a, b, c=None, name="") -> ChainModel:
    base = 0 if code.origin_reflecting else 1
    n = len(a)
    return ChainModel(code, base, base + n - 1, _pick(b, base), _pick(a, base),
                      killing=None if c is None else _pick(c, base), name=name)


def finite_sweep(seed: int, count: int = None) -> list:
    """Stratified: each class (killed DD, then killing-free NN, ND, DN, DD)
    gets the same share, and the sizes cycle through [3, 64] within a class,
    so every seed asks for the same amount of work; the seed draws the rates
    and the order."""
    count = FINITE_CHAINS if count is None else count
    rng = np.random.default_rng(seed)
    classes = ((BoundaryCode.DD, True), (BoundaryCode.NN, False), (BoundaryCode.ND, False),
               (BoundaryCode.DN, False), (BoundaryCode.DD, False))
    lo, hi = FINITE_N
    plan = [(classes[k % len(classes)], lo + (k // len(classes)) % (hi - lo + 1))
            for k in range(count)]
    jobs = []
    for k in rng.permutation(count):
        (code, killed), n = plan[k]
        a = rng.uniform(*RATE_RANGE, n)
        b = rng.uniform(*RATE_RANGE, n)
        c = rng.uniform(*KILL_RANGE, n) if killed else None
        jid = "f%04d_%s%s" % (len(jobs), code.value, "_killed" if killed else "")
        model = finite_model(code, a, b, c, name=jid)
        m = model.hi
        if killed:
            calls = [("principal_eigen", lambda mm, m=m: oracle.principal_eigen(mm, m)),
                     ("upper_9_9", lambda mm: killing.upper_9_9(mm)),
                     ("corollary_9_9", lambda mm: killing.corollary_9_9(mm)),
                     ("sqrt_test_bound", lambda mm: killing.sqrt_test_bound(mm))]
        else:
            calls = [("basic_bracket", lambda mm: estimates.basic_bracket(mm)),
                     ("principal_eigen",
                      lambda mm, m=m: oracle.principal_eigen(mm, max(m, 2)))]
            if code.origin_reflecting:
                calls += [("dualize", lambda mm: duality.dualize(mm, "forward_5_1")),
                          ("similarity_check",
                           lambda mm, n=n: duality.similarity_check(mm, n))]
        jobs.append(Job(jid, "finite", model, calls,
                        {"code": code, "a": a, "b": b, "c": c}))
    return jobs


def build(workload: str, seed: int) -> list:
    if workload == "paper_tables":
        return paper_tables(seed)
    if workload == "catalog_brackets":
        return catalog_brackets(seed)
    if workload == "finite_sweep":
        return finite_sweep(seed)
    raise ValueError("unknown workload %r" % workload)

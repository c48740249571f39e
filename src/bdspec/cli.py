"""Command-line front end.

Numbers are passed through from the library verbatim: JSON output carries
full float precision (repr round-trip), the human tables round for display
only. Exit codes: 0 ok, 1 model/flag error, 2 result not fully certified.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import approx, duality, estimates, killing, oracle, poincare
from .catalog import TABLE61_ROWS, TABLE71_ROWS, catalog, table71_v
from .errors import BdspecError
from .model import BoundaryCode, load_model
from .series import Certainty


def _env_int(name, default):
    v = os.environ.get(name)
    return int(v) if v else default


def _parse_params(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        if not _:
            raise ValueError("--param expects k=v pairs")
        try:
            out[key.strip()] = int(val)
        except ValueError:
            out[key.strip()] = float(val)
    return out


def _resolve_model(args):
    if args.file:
        return load_model(args.file)
    if not args.model:
        raise BdspecError("need --model NAME or --file PATH")
    return catalog(args.model, **_parse_params(args.param))


def _emit(report, args):
    if args.json:
        json.dump(report, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return
    if args.csv:
        w = csv.writer(sys.stdout)
        for k, v in _flatten(report):
            w.writerow([k, v])
        return
    for k, v in _flatten(report):
        if isinstance(v, float):
            v = "%.12g" % v
        print("%-28s %s" % (k, v))


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, "%s%s." % (prefix, k) if prefix else "%s." % k
                                 if isinstance(v, (dict, list)) else "%s%s" % (prefix, k)))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, "%s[%d]" % (prefix.rstrip("."), i)))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _certified(*flags):
    return all(f in (Certainty.CERTIFIED, "certified", "closed_form", "converged", True)
               for f in flags)


def cmd_estimate(args):
    model = _resolve_model(args)
    t0 = time.time()
    n_max = _env_int("BDSPEC_NMAX", 10 ** 5)
    res = {"model": model.name, "params": model.params, "command": "estimate"}
    exit2 = False
    if model.boundary is BoundaryCode.ND:
        d, br = estimates.delta_nd(model, n_max)
        res["delta_3_1"] = d
        res["bracket"] = [br.lower, br.upper]
        res["certified"] = br.delta_like.certified.value
        exit2 = br.delta_like.certified is not Certainty.CERTIFIED
    elif model.boundary is BoundaryCode.DN:
        d, br = estimates.delta_dn(model, n_max)
        res["delta_4_4"] = d
        res["bracket"] = [br.lower, br.upper]
        res["certified"] = br.delta_like.certified.value
        exit2 = br.delta_like.certified is not Certainty.CERTIFIED
    elif model.boundary is BoundaryCode.NN:
        k, dl, dr, br = estimates.kappa_nn(model, n_max)
        res.update(kappa=k, delta_L=dl, delta_R=dr, bracket=[br.lower, br.upper],
                   certified=br.delta_like.certified.value)
        exit2 = br.delta_like.certified is not Certainty.CERTIFIED
    elif model.boundary is BoundaryCode.DD:
        k, dl, dr, S, br = estimates.kappa_dd(model, n_max)
        res.update(kappa=k, delta_L=dl, delta_R=dr, S=S, bracket=[br.lower, br.upper],
                   certified=br.delta_like.certified.value)
        exit2 = br.delta_like.certified is not Certainty.CERTIFIED
    else:
        k, br = estimates.kappa_bilateral(model)
        res.update(kappa=k, bracket=[br.lower, br.upper],
                   certified=br.delta_like.certified.value)
        exit2 = True
    if model.boundary is not BoundaryCode.DD_BILATERAL:
        rep = estimates.basic_bracket(model)
        res["basic"] = {"kappa": rep.kappa, "method": rep.method,
                        "bracket": [rep.bracket.lower, rep.bracket.upper],
                        "positive": rep.positive, "criterion": rep.criterion}
        if model.hi is not None and model.hi - model.base < 64:
            # small finite chains: the rate itself is exactly computable
            res["lambda_exact"] = oracle.principal_eigen(model, max(model.hi, 2)).lam
    res["wall_time_s"] = time.time() - t0
    _emit(res, args)
    return 2 if exit2 else 0


def cmd_approx(args):
    model = _resolve_model(args)
    t0 = time.time()
    steps = args.steps or 5
    grid = [int(v) for v in args.grid.split(",") if v] or None
    res = {"model": model.name, "params": model.params, "command": "approx"}
    if model.boundary is BoundaryCode.ND:
        d1, d1p = approx.first_step_closed(model)
        tr = approx.delta_seq_nd(model, steps)
        pr = approx.delta_prime_seq_nd(model, steps, m_grid=grid)
        res.update(delta_1=d1, delta_1_prime=d1p, delta_n=list(tr.values),
                   delta_n_prime=list(pr.values), delta_n_bar=list(pr.extras["bars"]),
                   monotone=tr.monotone_ok and pr.monotone_ok)
    elif model.boundary is BoundaryCode.DN:
        d1, d1p = approx.first_step_closed(model)
        res.update(delta_1=d1, delta_1_prime=d1p)
    elif model.boundary is BoundaryCode.NN:
        e1, eb1 = approx.eta1_closed(model)
        tr = approx.eta_seq_nn(model, steps, m_grid=grid)
        res.update(eta_1=e1, eta_bar_1=eb1, eta_n=list(tr.values),
                   eta_n_prime=list(tr.extras["eta_prime"]),
                   eta_n_bar=list(tr.extras["eta_bar"]), monotone=tr.monotone_ok)
    elif model.boundary is BoundaryCode.DD:
        d, d1, db1 = approx.dd_first_step(model)
        res.update(delta=d, delta_1=d1, delta_bar_1=db1)
    else:
        raise BdspecError("approx covers the four half-line codes")
    res["wall_time_s"] = time.time() - t0
    _emit(res, args)
    return 0


def cmd_oracle(args):
    model = _resolve_model(args)
    t0 = time.time()
    m = args.m or 2000
    sr = oracle.principal_eigen(model, m)
    sched = sorted({max(4, int(round(m / 2 ** k))) for k in range(6)} | {m})
    tr = oracle.truncation_limit(model, sched)
    res = {"model": model.name, "params": model.params, "command": "oracle",
           "m": m, "lambda": sr.lam, "residual": sr.residual, "method": sr.method,
           "schedule": list(tr.schedule), "values": list(tr.values),
           "extrapolated": tr.limit, "extrapolation_mode": tr.mode,
           "monotone_ok": tr.monotone_ok, "wall_time_s": time.time() - t0}
    if model.boundary in (BoundaryCode.DN, BoundaryCode.DD):
        try:
            sh = oracle.shooting_rate(model, m)
            res["shooting"] = sh.lam
        except BdspecError:
            pass
    _emit(res, args)
    return 0


def cmd_killing(args):
    model = _resolve_model(args)
    t0 = time.time()
    up, up_detail = killing.upper_9_9(model)
    low99 = killing.corollary_9_9(model)
    sqrt_b = killing.sqrt_test_bound(model)
    res = {"model": model.name, "params": model.params, "command": "killing",
           "upper_9_9": up, "upper_detail": up_detail,
           "lower_cor_9_9": low99.lower, "xi": low99.xi, "zeta": low99.zeta,
           "lower_sqrt_test": sqrt_b.lower,
           "flags": {**low99.flags, "sqrt": sqrt_b.flags},
           "dispatch_9_12": killing.dispatch_9_12(model),
           "wall_time_s": time.time() - t0}
    if args.m:
        res["oracle"] = oracle.principal_eigen(model, args.m).lam
    _emit(res, args)
    return 0


def cmd_dual(args):
    model = _resolve_model(args)
    t0 = time.time()
    direction = "forward_5_1" if model.boundary in (BoundaryCode.ND, BoundaryCode.NN) \
        else "inverse_7_3"
    pair = duality.dualize(model, direction)
    res = {"model": model.name, "params": model.params, "command": "dual",
           "direction": direction, "dual_boundary": pair.dual.boundary.value,
           "n_prime": pair.n_prime, "weight_identity_residual": pair.weight_residual}
    if args.check_similarity:
        n = args.n or 8
        res["similarity_residual_n%d" % n] = duality.similarity_check(model, n)
    res["wall_time_s"] = time.time() - t0
    _emit(res, args)
    return 0


def cmd_poincare(args):
    model = _resolve_model(args)
    t0 = time.time()
    p = args.p or 2.0
    if model.boundary is BoundaryCode.DD_BILATERAL:
        variant = "bilateral_8_4"
    elif model.boundary is BoundaryCode.DD:
        variant = "half_line_8_6"
    else:
        variant = "neumann_8_9"
    sc = poincare.sobolev_constant(model, p, variant)
    res = {"model": model.name, "params": model.params, "command": "poincare",
           "p": p, "variant": variant, "B": sc.B, "A_bracket": list(sc.bracket)}
    if model.boundary in (BoundaryCode.DD, BoundaryCode.DD_BILATERAL):
        bl, br_, bb, S = poincare.b_constants_split(model, p)
        res.update(B_L=bl, B_R=br_, B_split=bb, S=S)
    res["wall_time_s"] = time.time() - t0
    _emit(res, args)
    return 0


def _table61_row(name_exact):
    name, lam_inv, eb_p, e1_p, k_p = name_exact
    model = catalog(name)
    e1, eb1 = approx.eta1_closed(model)
    kap = estimates.kappa_nn(model)[0]
    sched = [250, 354, 500, 707, 1000, 1414, 2000, 2828, 4000]
    lam = oracle.truncation_limit(model, sched).limit
    return {"row": name, "lambda1_inv_exact": lam_inv, "lambda1_inv_oracle": 1.0 / lam,
            "eta_bar_1": eb1, "eta_1": e1, "ratio": e1 / eb1, "kappa": kap,
            "dev_eta_bar": abs(eb1 - eb_p) / eb_p, "dev_eta": abs(e1 - e1_p) / e1_p,
            "dev_kappa": abs(kap - k_p) / k_p}


def _table71_row(name_exact):
    name, lam0, start = name_exact
    model = catalog(name)
    v = table71_v(name)
    g = _v_products(v)
    lo = start if start is not None else 2
    resid = oracle.eigen_identity_check(model, lam0, g, lo, 1000)["difference_form"]
    sched = [250, 354, 500, 707, 1000, 1414, 2000, 2828, 4000]
    lam = oracle.truncation_limit(model, sched).limit
    return {"row": name, "lambda0_exact": lam0, "lambda0_oracle": lam,
            "dev_oracle": abs(lam - lam0) / lam0, "r_residual": resid,
            "identity_from": start}


def _v_products(v):
    def g(idx):
        idx = np.asarray(idx, dtype=np.int64)
        top = int(idx.max())
        ii = np.arange(1, top + 1, dtype=np.int64)
        vv = np.asarray(v(ii), dtype=float)
        gg = np.concatenate([[1.0], np.cumprod(vv)])  # g_1 = 1, g_{i+1} = g_i v_i
        return gg[idx - 1]
    return g


def cmd_table(args):
    which = args.which
    t0 = time.time()
    if which == "table6_1":
        rows = [_table61_row(row) for row in TABLE61_ROWS]
        cols = ["row", "lambda1_inv_exact", "lambda1_inv_oracle", "eta_bar_1",
                "eta_1", "ratio", "kappa", "dev_eta_bar", "dev_eta", "dev_kappa"]
    elif which == "table7_1":
        rows = [_table71_row(row) for row in TABLE71_ROWS]
        cols = ["row", "lambda0_exact", "lambda0_oracle", "dev_oracle",
                "r_residual", "identity_from"]
    elif which == "ex5_3_sequences":
        model = catalog("ex5_3", a=4.0, b=1.0)
        dp, bars = _ex5_3_sequences(model, 5)
        rows = [{"n": n + 1, "delta_prime_hat": dp[n], "bar_delta_hat": bars[n]}
                for n in range(5)]
        cols = ["n", "delta_prime_hat", "bar_delta_hat"]
    else:
        raise BdspecError("unknown table %r" % which)
    report = {"command": "table", "which": which, "rows": rows,
              "wall_time_s": time.time() - t0}
    if args.json:
        json.dump(report, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
        return 0
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=cols)
    w.writeheader()
    for r in rows:
        w.writerow({k: r[k] for k in cols})
    if args.csv:
        sys.stdout.write(out.getvalue())
        return 0
    widths = {c: max(len(c), 12) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        cells = []
        for c in cols:
            v = r[c]
            cells.append(("%.6g" % v if isinstance(v, float) else str(v)).ljust(widths[c]))
        print("  ".join(cells))
    return 0


def _ex5_3_sequences(model, steps):
    """The increasing dual sequences of the constant-rate chain."""
    from .model import build_weights
    ws = build_weights(model, 600)
    mu, nu, a = ws.mu, ws.nu_a, ws.a
    healthy = np.isfinite(nu) & (nu > 0) & (mu > 1e-280)
    W = int(np.argmin(healthy)) if not healthy.all() else len(mu)
    best_dp = np.full(steps, -np.inf)
    best_bar = np.full(steps, -np.inf)
    for m in range(1, min(400, W - 1)):
        n = m
        phi = np.cumsum(nu[:n])
        f = phi / phi[-1]  # every reported quantity is scale-invariant
        tailmu = ws.mu_tail(ws.base + m)
        for s in range(steps):
            suf = np.cumsum((mu[:n] * f)[::-1])[::-1] + f[-1] * tailmu
            nxt = np.cumsum(nu[:n] * suf)
            best_dp[s] = max(best_dp[s], float(np.min(nxt / f)))
            l2 = float(np.sum(mu[:n] * f * f)) + tailmu * f[-1] ** 2
            fprev = np.concatenate([[0.0], f[:-1]])
            dd = float(np.sum(mu[:n] * a[:n] * (f - fprev) ** 2))
            best_bar[s] = max(best_bar[s], l2 / dd)
            f = nxt / np.max(nxt)
    return [float(x) for x in best_dp], [float(x) for x in best_bar]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bdspec",
        description="Brackets, refinements and oracles for birth-death decay rates")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="catalog model name")
    common.add_argument("--file", help="model definition file (JSON)")
    common.add_argument("--param", default="", help="comma-separated k=v pairs")
    common.add_argument("--m", type=int, help="truncation level")
    common.add_argument("--steps", type=int, help="iteration steps")
    common.add_argument("--grid", default="", help="comma-separated grid values")
    common.add_argument("--json", action="store_true")
    common.add_argument("--csv", action="store_true")
    sub.add_parser("estimate", parents=[common]).set_defaults(fn=cmd_estimate)
    sub.add_parser("approx", parents=[common]).set_defaults(fn=cmd_approx)
    sub.add_parser("oracle", parents=[common]).set_defaults(fn=cmd_oracle)
    sub.add_parser("killing", parents=[common]).set_defaults(fn=cmd_killing)
    p_dual = sub.add_parser("dual", parents=[common])
    p_dual.add_argument("--check-similarity", action="store_true")
    p_dual.add_argument("--n", type=int)
    p_dual.set_defaults(fn=cmd_dual)
    p_poi = sub.add_parser("poincare", parents=[common])
    p_poi.add_argument("--p", type=float)
    p_poi.set_defaults(fn=cmd_poincare)
    p_tab = sub.add_parser("table", parents=[common])
    p_tab.add_argument("which", choices=["table6_1", "table7_1", "ex5_3_sequences"])
    p_tab.set_defaults(fn=cmd_table)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BdspecError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

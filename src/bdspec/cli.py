"""Command-line front end.

Numbers are passed through from the library verbatim: JSON output carries
full float precision (repr round-trip), the human tables round for display
only. Exit codes: 0 ok, 1 model/flag error, 2 result not fully certified:
every chain subcommand runs through :func:`_run`, which exits 2 iff a bound
it prints is window-stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time

from . import approx, duality, estimates, killing, oracle, poincare
from .catalog import TABLE61_ROWS, TABLE71_ROWS, catalog, table71_v
from .errors import BadParameter, BdspecError, KilledChain, NotErgodic
from .model import BoundaryCode, build_weights, load_model
from .series import Certainty

# the truncation levels of `bdspec table`'s oracle limits: m = 250 * 2^(k/2)
TABLE_SCHEDULE = (250, 354, 500, 707, 1000, 1414, 2000, 2828, 4000)


def _parse_params(text):
    out = {}
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


def _strict(obj, path, flags):
    """``obj`` with every non-finite float replaced by None; ``flags`` maps
    the path of each one to "inf", "-inf" or "nan"."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        flags[path] = "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
        return None
    if isinstance(obj, dict):
        return {k: _strict(v, "%s.%s" % (path, k) if path else str(k), flags)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v, "%s[%d]" % (path, i), flags) for i, v in enumerate(obj)]
    return obj


def _write_json(report):
    """Strict JSON (RFC 8259): a non-finite float is written as null, and the
    report's "nonfinite" map names it, e.g. {"B_R": "inf"}."""
    flags = {}
    doc = _strict(report, "", flags)
    if flags:
        doc["nonfinite"] = flags
    json.dump(doc, sys.stdout, indent=2, default=str, allow_nan=False)
    sys.stdout.write("\n")


def _emit(report, args):
    if args.json:
        _write_json(report)
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


def _run(args):
    """Run the chain subcommand ``args.fn(model, args, report)`` and emit the
    report: model, params and command, what the command writes, the
    "certified" of the bounds it prints (absent if none) and the wall time.
    Exits 2 iff one of them is window-stopped; a chain with killing rates
    exits 1 from ``estimate`` and ``approx``."""
    model = _resolve_model(args)
    if model.killing is not None and args.command in ("estimate", "approx"):
        raise KilledChain("%s covers killing-free chains; %s has killing rates, "
                          "use `bdspec killing`" % (args.command, model.name))
    t0 = time.time()
    res = {"model": model.name, "params": model.params, "command": args.command}
    certainties = args.fn(model, args, res)
    worst = next((c for c in certainties if c is not Certainty.CERTIFIED), Certainty.CERTIFIED)
    if certainties:
        res["certified"] = worst.value
    res["wall_time_s"] = time.time() - t0
    _emit(res, args)
    return 0 if worst is Certainty.CERTIFIED else 2


def cmd_estimate(model, args, res):
    """The constant and bracket of the chain's boundary code; on a half line
    also the basic bracket, whose one scan gives NN and DD chains their
    kappa, delta_L, delta_R and bracket."""
    code = model.boundary
    if code is BoundaryCode.DD_BILATERAL:
        res["kappa"], br = estimates.kappa_bilateral(model)
        res["bracket"] = [br.lower, br.upper]
        return [br.delta_like.certified]
    if code is BoundaryCode.ND:
        res["delta_3_1"], br = estimates.delta_nd(model)
    elif code is BoundaryCode.DN:
        res["delta_4_4"], br = estimates.delta_dn(model)
    elif code is BoundaryCode.NN and not math.isfinite(build_weights(model).mu_total.value):
        raise NotErgodic("kappa_nn requires sum(mu) < inf")
    rep = estimates.basic_bracket(model)
    if code in (BoundaryCode.NN, BoundaryCode.DD):
        br = rep.bracket
        res.update(kappa=rep.kappa, delta_L=rep.delta_4_4, delta_R=rep.delta_3_1)
        if code is BoundaryCode.DD:
            res["S"] = build_weights(model).exit_mass
    res["bracket"] = [br.lower, br.upper]
    res["basic"] = {"kappa": rep.kappa, "method": rep.method,
                    "bracket": [rep.bracket.lower, rep.bracket.upper],
                    "positive": rep.positive, "criterion": rep.criterion}
    if model.hi is not None and model.hi - model.base < 64:
        # small finite chains: the rate itself is exactly computable (certified)
        res["lambda_exact"] = oracle.principal_eigen(model, max(model.hi, 2)).lam
    return [br.delta_like.certified, rep.bracket.delta_like.certified]


def cmd_approx(model, args, res):
    grid = [int(v) for v in args.grid.split(",") if v] or None
    if model.boundary is BoundaryCode.ND:
        d1, d1p = first = approx.first_step_closed(model)
        tr = approx.delta_seq_nd(model, args.steps)
        pr = approx.delta_prime_seq_nd(model, args.steps, m_grid=grid)
        res.update(delta_1=d1, delta_1_prime=d1p, delta_n=list(tr.values),
                   delta_n_prime=list(pr.values), delta_n_bar=list(pr.extras["bars"]),
                   monotone=tr.monotone_ok and pr.monotone_ok)
        printed = (first, tr, pr)
    elif model.boundary is BoundaryCode.DN:
        d1, d1p = first = approx.first_step_closed(model)
        res.update(delta_1=d1, delta_1_prime=d1p)
        printed = (first,)
    elif model.boundary is BoundaryCode.NN:
        e1, eb1 = first = approx.eta1_closed(model)
        tr = approx.eta_seq_nn(model, args.steps, m_grid=grid)
        res.update(eta_1=e1, eta_bar_1=eb1, eta_n=list(tr.values),
                   eta_n_prime=list(tr.extras["eta_prime"]),
                   eta_n_bar=list(tr.extras["eta_bar"]), monotone=tr.monotone_ok)
        printed = (first, tr)
    elif model.boundary is BoundaryCode.DD:
        d, d1, db1 = first = approx.dd_first_step(model)
        res.update(delta=d, delta_1=d1, delta_bar_1=db1)
        printed = (first,)
    else:
        raise BdspecError("approx covers the four half-line codes")
    return [x.certified for x in printed]


def cmd_oracle(model, args, res):
    sr = oracle.principal_eigen(model, args.m)
    if args.m < 10:
        raise BadParameter("--m must be >= 10: the limit needs three truncation levels")
    sched = sorted({max(4, int(round(args.m / 2 ** k))) for k in range(6)} | {args.m})
    tr = oracle.truncation_limit(model, sched)
    res.update({"m": args.m, "lambda": sr.lam, "residual": sr.residual, "method": sr.method,
                "schedule": list(tr.schedule), "values": list(tr.values),
                "extrapolated": tr.limit, "extrapolation_mode": tr.mode,
                "monotone_ok": tr.monotone_ok})
    if model.boundary in (BoundaryCode.DN, BoundaryCode.DD):
        with contextlib.suppress(BdspecError):
            res["shooting"] = oracle.shooting_rate(model, args.m).lam
    # lambda is the bound; the extrapolated limit and shooting are cross-checks
    return [sr.certified]


def cmd_killing(model, args, res):
    up, up_detail = upper = killing.upper_9_9(model)
    low99 = killing.corollary_9_9(model)
    sqrt_b = killing.sqrt_test_bound(model)
    res.update({"upper_9_9": up, "upper_detail": up_detail,
                "lower_cor_9_9": low99.lower, "xi": low99.xi, "zeta": low99.zeta,
                "lower_sqrt_test": sqrt_b.lower,
                "flags": {**low99.flags, "sqrt": sqrt_b.flags},
                "dispatch_9_12": killing.dispatch_9_12(model)})
    certs = [upper.certified, low99.certified, sqrt_b.certified]
    if args.m is not None:
        sr = oracle.principal_eigen(model, args.m)
        res["oracle"] = sr.lam
        certs.append(sr.certified)
    return certs


def cmd_dual(model, args, res):
    """The dual chain's shape and residuals; it states no bound."""
    direction = "forward_5_1" if model.boundary in (BoundaryCode.ND, BoundaryCode.NN) \
        else "inverse_7_3"
    pair = duality.dualize(model, direction)
    res.update({"direction": direction, "dual_boundary": pair.dual.boundary.value,
                "n_prime": pair.n_prime, "weight_identity_residual": pair.weight_residual})
    if args.check_similarity:
        res["similarity_residual_n%d" % args.n] = duality.similarity_check(model, args.n)
    return []


def cmd_poincare(model, args, res):
    variant = {BoundaryCode.DD_BILATERAL: "bilateral_8_4",
               BoundaryCode.DD: "half_line_8_6"}.get(model.boundary, "neumann_8_9")
    sc = poincare.sobolev_constant(model, args.p, variant)
    res.update({"p": args.p, "variant": variant, "B": sc.B, "A_bracket": list(sc.bracket)})
    if model.boundary in (BoundaryCode.DD, BoundaryCode.DD_BILATERAL):
        bl, br_, bb, S = poincare.b_constants_split(model, args.p)
        res.update(B_L=bl, B_R=br_, B_split=bb, S=S)
    # the split constants share B's window, so B's label covers them
    return [sc.extremum.certified]


def _table61_row(name_exact):
    name, lam_inv, eb_p, e1_p, k_p = name_exact
    model = catalog(name)
    e1, eb1 = approx.eta1_closed(model)
    kap = estimates.kappa_nn(model)[0]
    lam = oracle.truncation_limit(model, TABLE_SCHEDULE).limit
    return {"row": name, "lambda1_inv_exact": lam_inv, "lambda1_inv_oracle": 1.0 / lam,
            "eta_bar_1": eb1, "eta_1": e1, "ratio": e1 / eb1, "kappa": kap,
            "dev_eta_bar": abs(eb1 - eb_p) / eb_p, "dev_eta": abs(e1 - e1_p) / e1_p,
            "dev_kappa": abs(kap - k_p) / k_p}


def _table71_row(name_exact):
    name, lam0, start = name_exact
    model = catalog(name)
    g = oracle.v_products(table71_v(name))
    lo = start if start is not None else 2
    resid = oracle.eigen_identity_check(model, lam0, g, lo, 1000)["difference_form"]
    lam = oracle.truncation_limit(model, TABLE_SCHEDULE).limit
    return {"row": name, "lambda0_exact": lam0, "lambda0_oracle": lam,
            "dev_oracle": abs(lam - lam0) / lam0, "r_residual": resid,
            "identity_from": start}


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
        dp, bars = approx.ex5_3_sequences(model, 5)
        rows = [{"n": n + 1, "delta_prime_hat": dp[n], "bar_delta_hat": bars[n]}
                for n in range(5)]
        cols = ["n", "delta_prime_hat", "bar_delta_hat"]
    else:
        raise BdspecError("unknown table %r" % which)
    report = {"command": "table", "which": which, "rows": rows,
              "wall_time_s": time.time() - t0}
    if args.json:
        _write_json(report)
    elif args.csv:
        w = csv.DictWriter(sys.stdout, fieldnames=cols, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    else:
        widths = {c: max(len(c), 12) for c in cols}
        print("  ".join(c.ljust(widths[c]) for c in cols))
        for r in rows:
            print("  ".join(("%.6g" % r[c] if isinstance(r[c], float) else str(r[c]))
                            .ljust(widths[c]) for c in cols))
    return 0


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer" % text)
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Flag errors exit 1, like model errors; 2 means "not fully certified".
    No abbreviations: a flag a subcommand does not take is an error, never a
    prefix of one it does take (``--m`` of ``--model``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def main(argv=None):
    parser = _Parser(
        prog="bdspec",
        description="Brackets, refinements and oracles for birth-death decay rates")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true")
    output.add_argument("--csv", action="store_true")
    chain = argparse.ArgumentParser(add_help=False, parents=[output])
    chain.add_argument("--model", help="catalog model name")
    chain.add_argument("--file", help="model definition file (JSON)")
    chain.add_argument("--param", default="", help="comma-separated k=v pairs")
    sub.add_parser("estimate", parents=[chain]).set_defaults(fn=cmd_estimate)
    p_app = sub.add_parser("approx", parents=[chain])
    p_app.add_argument("--steps", type=_positive_int, default=5,
                       help="iteration steps (default %(default)s)")
    p_app.add_argument("--grid", default="", help="comma-separated stopping levels")
    p_app.set_defaults(fn=cmd_approx)
    for name, fn, m in (("oracle", cmd_oracle, 2000), ("killing", cmd_killing, None)):
        p_m = sub.add_parser(name, parents=[chain])
        p_m.add_argument("--m", type=int, default=m, help="truncation level (default %(default)s)")
        p_m.set_defaults(fn=fn)
    p_dual = sub.add_parser("dual", parents=[chain])
    p_dual.add_argument("--check-similarity", action="store_true")
    p_dual.add_argument("--n", type=int, default=8, help="states checked (default %(default)s)")
    p_dual.set_defaults(fn=cmd_dual)
    p_poi = sub.add_parser("poincare", parents=[chain])
    p_poi.add_argument("--p", type=float, default=2.0, help="p >= 2 (default %(default)s)")
    p_poi.set_defaults(fn=cmd_poincare)
    p_tab = sub.add_parser("table", parents=[output])
    p_tab.add_argument("which", choices=["table6_1", "table7_1", "ex5_3_sequences"])
    args = parser.parse_args(argv)
    try:
        return cmd_table(args) if args.command == "table" else _run(args)
    except (BdspecError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

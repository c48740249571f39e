"""Span tracing of the library from outside.

``Tracer.install()`` replaces every public function of each layer module with
a wrapper that records a span, in every ``bdspec`` namespace that holds the
function (``from .model import build_weights`` binds a second name in each
importing module, so each binding is patched). ``instrument(model)`` wraps a
model's rate rules and tail hints through ``dataclasses.replace``; those
callbacks are hot, so they are aggregated per (name, job) instead of kept as
individual spans. A layer's self time is its spans' duration minus their
children's; see SELF_TIMED for the per-function times.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("catalog", "model", "series", "estimates", "approx", "duality",
          "oracle", "killing", "poincare", "cli")

class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent, job]
        self.leaf = defaultdict(lambda: [0, 0.0])   # (name, job) -> [calls, seconds]
        self.self_s = defaultdict(float)            # span name -> self time
        self.fn_s = defaultdict(float)              # reported function -> its time
        self.calls = defaultdict(int)               # span name -> calls
        self.errors = defaultdict(int)              # span name -> raised
        self.counters = defaultdict(float)
        self.job = None
        self.root_s = 0.0        # time inside top-level spans and callbacks
        self._stack = []         # [span index or -1 for leaves, child seconds]
        self._patched = []       # (namespace dict, name, original)

    # -- span bookkeeping --------------------------------------------------

    def _call(self, name, fn, args, kwargs, leaf=False):
        parent = self._stack[-1] if self._stack else None
        if leaf:
            idx = -1
        else:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               parent[0] if parent is not None else -1, self.job])
        frame = [idx, 0.0, 0.0, name]   # index, child time, child time owned elsewhere
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            dur = end - start
            self.self_s[name] += dur - frame[1]
            if name in REPORTED:
                self.fn_s[name] += dur - frame[2]
            self.calls[name] += 1
            if parent is not None:
                parent[1] += dur
                if name in REPORTED or name.split(".", 1)[0] != parent[3].split(".", 1)[0]:
                    parent[2] += dur
            else:
                self.root_s += dur
            if leaf:
                cell = self.leaf[(name, self.job)]
                cell[0] += 1
                cell[1] += dur
            else:
                rec = self.spans[idx]
                rec[1], rec[2] = start, end

    def wrap(self, name, fn, post=None, pre=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            out = self._call(name, fn, args, kwargs)
            return post(out) if post is not None else out
        return wrapper

    def wrap_leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, leaf=True)
        return wrapper

    # -- models ------------------------------------------------------------

    def instrument(self, model):
        """The model with counted rate rules and tail hints."""
        if model is None:
            return None
        hint = model.tail_hint
        if hint is not None:
            hint = {k: self.wrap_leaf("catalog.hint", v) if callable(v) else v
                    for k, v in hint.items()}
        rate = functools.partial(self.wrap_leaf, "catalog.rate")
        return dataclasses.replace(
            model, birth=rate(model.birth), death=rate(model.death),
            killing=None if model.killing is None else rate(model.killing),
            tail_hint=hint)

    # -- patching ----------------------------------------------------------

    def _hooks(self):
        """Per-function counters read from arguments and results."""
        c = self.counters

        def count_rows(args, kwargs):
            row = args[0] if args else kwargs["row_values"]

            def counted(n, ms):
                c["series.pair_rows"] += 1
                return row(n, ms)
            if args:
                return (counted,) + tuple(args[1:]), kwargs
            return args, dict(kwargs, row_values=counted)

        def scanned(rep):
            c["series.reports"] += 1
            c["series.scanned"] += rep.scanned[1] - rep.scanned[0] + 1
            if rep.certified.value == "window_stopped":
                c["series.window_stopped"] += 1
            return rep

        def extrapolated(out):
            c["series.extrapolate.%s" % out[1]] += 1
            return out

        def weights(ws):
            c["model.states"] += len(ws.mu)
            c["model.tails_estimated"] += sum(
                t.flag == "estimated" for t in (ws.mu_total, ws.nu_a_total, ws.nu_b_total))
            return ws

        def eigen(res):
            c["oracle.states"] += len(res.eigvec)
            return res

        return {"series.extremize": (None, scanned),
                "series.extremize_pairs": (count_rows, scanned),
                "series.extrapolate_limit": (None, extrapolated),
                "model.build_weights": (None, weights),
                "oracle.principal_eigen": (None, eigen),
                "catalog.catalog": (None, self.instrument)}

    def install(self):
        """Patch every public layer function wherever a bdspec module binds it."""
        hooks = self._hooks()
        replace = {}
        for layer in LAYERS:
            mod = sys.modules["bdspec.%s" % layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                span = "%s.%s" % (layer, name)
                pre, post = hooks.get(span, (None, None))
                replace[id(obj)] = (obj, self.wrap(span, obj, post=post, pre=pre))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bdspec" or modname.startswith("bdspec.")):
                continue
            ns = vars(mod)
            for name, obj in list(ns.items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, name, obj))
                    ns[name] = hit[1]
        return self

    def uninstall(self):
        for ns, name, obj in reversed(self._patched):
            ns[name] = obj
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_of(self, name):
        return name.split(".", 1)[0]

    def self_times_from_spans(self) -> dict:
        """Self time per span name recomputed from the kept records."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path):
        """Spans as JSON lines, then the aggregated callback cells."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
            for (name, job), (calls, secs) in sorted(self.leaf.items(),
                                                      key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"name": name, "job": job, "calls": calls,
                                     "seconds": secs}) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        m = {}
        for layer in LAYERS:
            names = [n for n in self.calls if self.layer_of(n) == layer]
            m["%s.calls" % layer] = (sum(self.calls[n] for n in names), "count")
            m["%s.self_s" % layer] = (sum(self.self_s[n] for n in names), "s")
            m["%s.errors" % layer] = (sum(self.errors[n] for n in names), "count")
        c = self.counters
        m["catalog.hint_calls"] = (self.calls["catalog.hint"], "count")
        m["catalog.hint_s"] = (self.self_s["catalog.hint"], "s")
        m["catalog.rate_calls"] = (self.calls["catalog.rate"], "count")
        for fn in ("model.build_weights", "model.bilateral_log_weights"):
            m[fn + ".self_s"] = (self.fn_s[fn], "s")
        m["model.states"] = (c["model.states"], "count")
        m["model.tails_estimated"] = (c["model.tails_estimated"], "count")
        for fn in ("series.extremize", "series.extremize_pairs", "series.extrapolate_limit"):
            m[fn + ".calls"] = (self.calls[fn], "count")
        m["series.pair_rows"] = (c["series.pair_rows"], "count")
        m["series.scanned"] = (c["series.scanned"], "count")
        m["series.window_stopped_frac"] = (
            c["series.window_stopped"] / c["series.reports"] if c["series.reports"] else 0.0,
            "ratio")
        for mode in ("aitken", "log_model"):
            m["series.extrapolate.%s" % mode] = (c["series.extrapolate.%s" % mode], "count")
        for layer, fns in SELF_TIMED.items():
            for fn in fns:
                m["%s.%s.self_s" % (layer, fn)] = (self.fn_s["%s.%s" % (layer, fn)], "s")
        m["oracle.principal_eigen.calls"] = (self.calls["oracle.principal_eigen"], "count")
        m["oracle.states"] = (c["oracle.states"], "count")
        pe = self.fn_s["oracle.principal_eigen"]
        m["oracle.us_per_state"] = (1e6 * pe / c["oracle.states"] if c["oracle.states"] else 0.0,
                                    "us")
        return m


# Per-function self time of a reported function leaves out only its calls into
# other layers and into other reported functions, so that, for example,
# principal_eigen keeps the Sturm counts it runs and truncation_limit does not
# get principal_eigen's eigensolves.
SELF_TIMED = {
    "estimates": ("delta_nd", "delta_dn", "kappa_nn", "kappa_dd", "kappa_bilateral",
                  "basic_bracket"),
    "approx": ("first_step_closed", "eta1_closed", "eta_seq_nn", "delta_seq_nd",
               "delta_prime_seq_nd", "dd_first_step"),
    "oracle": ("principal_eigen", "truncation_limit", "splitting_bracket",
               "eigen_identity_check"),
    "killing": ("upper_9_9", "corollary_9_9", "xi_zeta", "sqrt_test_bound"),
    "poincare": ("sobolev_constant", "b_constants_split"),
    "duality": ("dualize", "similarity_check"),
}
REPORTED = {"%s.%s" % (layer, fn) for layer, fns in SELF_TIMED.items() for fn in fns} | {
    "model.build_weights", "model.bilateral_log_weights"}

"""Compare every library output of one benchmark pass between two checkouts.

    python3 tools/same_outputs.py PARENT CHANGE --workload W --seed S [--seed S ...]

PARENT and CHANGE are the roots of two bdspec checkouts. W is a workload or
``all`` (every workload), and ``--seed`` may be repeated: each (workload,
seed) pair is compared in turn. For each pair, each checkout runs one pass
of its own ``perfbench`` jobs (``perfbench/jobs.py`` and its library from
``src``, imported without writing bytecode into the checkout) in a
subprocess of its own. Every call's outcome, a value or the type and message
of the exception it raised, is reduced to a canonical form: floats and float
arrays bit for bit, with every NaN equal to every other, object addresses and
the command line's ``wall_time_s`` masked. Every call whose canonical outputs
differ is listed with each leaf that differs, by its path and both values
(``bracket.delta_like.scanned[1]: 99999 -> 2047``), then one summary line for
the pair. Exit codes: 0 all equal, 1 some output differs in some pair, 2 a
checkout could not be run.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import os
import re
import subprocess
import sys

WORKLOADS = ("paper_tables", "catalog_brackets", "finite_sweep")
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")
_WALL = re.compile(r'("wall_time_s":\s*)[-+0-9.eE]+')
_HEX = re.compile(r"-?0x[01]\.[0-9a-f]+p[-+][0-9]+")


def _text(s: str) -> str:
    return _WALL.sub(r"\1?", _ADDRESS.sub(" at 0x?", s))


def canonical(x):
    """A JSON-able form of ``x`` that two outputs share iff they are equal
    bit for bit, NaN equal to NaN, addresses and wall times masked."""
    import numpy as np
    if x is None or isinstance(x, (bool, int)):
        return x
    if isinstance(x, float):
        return "nan" if x != x else float.hex(x)
    if isinstance(x, str):
        return _text(x)
    if isinstance(x, np.generic):
        return canonical(x.item())
    if isinstance(x, np.ndarray):
        arr = np.array(x)
        if arr.dtype.kind in "fc":
            arr[np.isnan(arr)] = np.nan          # one NaN bit pattern
        return ["ndarray", arr.dtype.str, str(arr.shape),
                hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()]
    if isinstance(x, enum.Enum):
        return "%s.%s" % (type(x).__name__, x.name)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__, {f.name: canonical(getattr(x, f.name))
                                   for f in dataclasses.fields(x)}]
    if isinstance(x, (tuple, list)):
        out = [type(x).__name__, [canonical(v) for v in x]]
        extra = getattr(x, "__dict__", None)
        return out + [canonical(extra)] if extra else out
    if isinstance(x, dict):
        return ["dict", sorted(([_text(repr(k)), canonical(v)] for k, v in x.items()),
                               key=lambda kv: kv[0])]
    if hasattr(x, "__dict__") and not callable(x):
        return [type(x).__name__, canonical(vars(x))]
    return _text(repr(x))


def leaves(form, path=""):
    """(path, leaf) for every leaf of a canonical form, in order: a field is
    ``.name``, an item ``[i]``, a dict entry or an attribute ``[key]``."""
    if isinstance(form, list) and len(form) >= 2 and isinstance(form[0], str) \
            and form[0] != "ndarray":
        head, body, extra = form[0], form[1], form[2:]
        if isinstance(body, dict):                           # a dataclass
            parts = [("." + name, v) for name, v in body.items()]
        elif head == "dict":
            parts = [("[%s]" % key, v) for key, v in body]
        elif isinstance(body, list) and body[:1] == ["dict"] and not extra:
            parts = [("", body)]                             # an object's attributes
        elif isinstance(body, list):                         # a sequence
            parts = [("[%d]" % i, v) for i, v in enumerate(body)] + [("", x) for x in extra]
        else:
            parts = None
        if parts is not None:
            for step, v in parts:
                yield from leaves(v, path + step)
            return
    yield path, form


def outcome_leaves(got) -> dict:
    """{path: leaf} of a call's outcome; an exception is the one leaf ``(raises)``."""
    if got is None:
        return {}
    if got[0] == "err":
        return {"(raises)": "%s: %s" % tuple(got[1:])}
    return {path.lstrip(".") or "(value)": leaf for path, leaf in leaves(got[1])}


def _show(leaf) -> str:
    """A leaf as printed: a float by its repr, other strings as they are."""
    if isinstance(leaf, str):
        return repr(float.fromhex(leaf)) if _HEX.fullmatch(leaf) else leaf
    return json.dumps(leaf)


def dump(checkout: str, workload: str, seed: int) -> dict:
    """{"job/call": canonical outcome} of one pass of the checkout's jobs."""
    import warnings
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    warnings.simplefilter("ignore")          # as the benchmark: warnings are not results
    import jobs
    out = {}
    for job in jobs.build(workload, seed):
        for label, fn in job.calls:
            try:
                got = ["ok", canonical(fn(job.model))]
            except Exception as exc:         # a failing call is an output too
                got = ["err", type(exc).__name__, _text(str(exc))]
            out["%s/%s" % (job.jid, label)] = got
    return out


def run_checkout(checkout: str, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", checkout,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, env=env, cwd=checkout)
    if proc.returncode != 0:
        raise RuntimeError("%s: exit %d\n%s" % (checkout, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def parse_args(argv=None):
    """The parsed arguments; ``pairs`` lists the (workload, seed) pairs to
    compare, workload by workload, seeds in the order given."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True, action="append")
    ap.add_argument("--dump", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.dump or (args.parent and args.change)):
        ap.error("PARENT and CHANGE are required")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    args.pairs = [(w, s) for w in workloads for s in args.seed]
    if args.dump and len(args.pairs) != 1:
        ap.error("--dump takes one workload and one seed")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.dump:
        with contextlib.redirect_stdout(io.StringIO()):     # the JSON is the only output
            got = dump(os.path.abspath(args.dump), *args.pairs[0])
        json.dump(got, sys.stdout)
        return 0
    status = 0
    for workload, seed in args.pairs:
        try:
            old, new = (run_checkout(os.path.abspath(c), workload, seed)
                        for c in (args.parent, args.change))
        except RuntimeError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        differ = [k for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]
        for key in differ:
            print("differs: %s" % key)
            was, now = outcome_leaves(old.get(key)), outcome_leaves(new.get(key))
            for path in list(was) + [p for p in now if p not in was]:
                pair = [side.get(path, "(absent)") for side in (was, now)]
                if pair[0] != pair[1]:
                    print("  %s: %s -> %s" % (path, *map(_show, pair)))
        print("%s seed %d: %d calls, %d differ" % (workload, seed,
                                                   len(old.keys() | new.keys()), len(differ)))
        status = max(status, 1 if differ else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())

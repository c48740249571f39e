"""Compare every library output of one benchmark pass between two checkouts.

    python3 tools/same_outputs.py PARENT CHANGE --workload W --seed S

PARENT and CHANGE are the roots of two bdspec checkouts. Each runs one pass
of its own ``perfbench`` jobs (``perfbench/jobs.py`` and its library from
``src``, imported without writing bytecode into the checkout) in a
subprocess of its own. Every call's outcome, a value or the type and message
of the exception it raised, is reduced to a canonical form: floats and float
arrays bit for bit, with every NaN equal to every other, object addresses and
the command line's ``wall_time_s`` masked. Every call whose canonical outputs
differ is listed. Exit codes: 0 all equal, 1 some output differs, 2 a
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dump", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        with contextlib.redirect_stdout(io.StringIO()):     # the JSON is the only output
            got = dump(os.path.abspath(args.dump), args.workload, args.seed)
        json.dump(got, sys.stdout)
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT and CHANGE are required")
    try:
        old, new = (run_checkout(os.path.abspath(c), args.workload, args.seed)
                    for c in (args.parent, args.change))
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    differ = [k for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]
    for key in differ:
        print("differs: %s" % key)
        for side, got in (("parent", old.get(key)), ("change", new.get(key))):
            print("  %-6s %s" % (side, json.dumps(got)[:300]))
    print("%s seed %d: %d calls, %d differ" % (args.workload, args.seed,
                                               len(old.keys() | new.keys()), len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""bdspec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``
directory. Jobs run in a closed loop (one process, one thread, each job
starts when the previous one returns, BLAS pinned to one thread). Passes over
the workload repeat until ``--seconds`` have elapsed, at least once. Every
output is checked against a reference computed before the timed passes.
Reported times are scaled to a reference machine speed (see
``SpeedMeter``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``. Exit codes: 0 done, 2 the checkout has no library to measure.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_PROBES = 4
CAL_REF_S = 5.9e-3      # Kernel time at the reference machine speed
CAL_EVERY_S = 0.2       # sampling interval of the machine speed during a pass
WORKLOADS = ("paper_tables", "catalog_brackets", "finite_sweep")


def _use_checkout_library():
    """Put the checkout's source first on the path; False when it has none."""
    if not os.path.isfile(os.path.join(SRC, "bdspec", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    return True


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class Kernel:
    """A fixed numpy-and-interpreter workload that never calls the library:
    small reductions, a 4096-element cumsum, an interpreter loop, and
    small-array builds like the library's per-chain work. A call returns its
    seconds."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.x = np.arange(1, 4097, dtype=float)
        rng = np.random.default_rng(0)
        self.small = [rng.random(int(n)) for n in rng.integers(3, 65, 300)]

    def __call__(self) -> float:
        np, x = self.np, self.x
        t0 = time.perf_counter()
        for i in range(300):
            np.sum(np.sqrt(x[i:i + 64]))
        for _ in range(20):
            np.cumsum(x)
        k = 0
        for i in range(20000):
            k += i * i
        for a in self.small:
            b = np.concatenate(([1.0], np.cumprod(a[:-1] + 0.5)))
            d = {"lo": float(b[0]), "hi": float(b[-1])}
            k += (lambda u: u["hi"] - u["lo"])(d)
        return time.perf_counter() - t0


class SpeedMeter:
    """Machine speed, sampled at even wall-clock intervals during the passes.

    The machines this benchmark runs on are shared, and their speed changes
    by tens of percent from one second to the next. A SIGALRM timer runs
    a ``Kernel`` every CAL_EVERY_S, also in the middle of a job, and ``clock``
    leaves the kernel's own time out. The samples are even in wall time, so
    the mean of CAL_REF_S / kernel time over an interval is the work done in
    it at the reference speed per second of wall time: the factor that turns
    a measured time into seconds at the reference speed. The kernel never
    calls the library, so a change to the library moves the scaled times in
    full.
    """

    def __init__(self):
        self.samples = []        # (clock() when taken, CAL_REF_S / kernel seconds)
        self.spent = 0.0         # seconds spent in the kernel
        self.kernel = Kernel()
        self._old = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, *_):
        t0 = time.perf_counter()
        k = self.kernel()
        self.spent += time.perf_counter() - t0
        self.samples.append((self.clock(), CAL_REF_S / k))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float):
        """Mean speed factor of the samples taken in [t0, t1]; None if there are none."""
        got = [f for t, f in self.samples if t0 <= t <= t1]
        return statistics.fmean(got) if got else None


# ---------------------------------------------------------------------------
# set-up time, in fresh processes
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> list:
    """Import the library, build the workload's models, trigger lazy imports;
    returns [seconds, speed factor measured afterwards]."""
    t0 = time.perf_counter()
    import jobs       # imports bdspec and what it imports lazily
    jobs.build(workload, seed)
    secs = time.perf_counter() - t0
    kernel = Kernel()
    return [secs, statistics.fmean(CAL_REF_S / kernel() for _ in range(5))]


def setup_seconds(workload: str, seed: int, probes: int) -> list:
    """Scaled set-up times of ``probes`` fresh processes."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        secs, factor = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(secs * factor)
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_job(job, model, clock=time.perf_counter):
    """All calls of one job; returns ({label: outcome}, start, end) on ``clock``."""
    outcomes = {}
    t0 = clock()
    for label, fn in job.calls:
        try:
            outcomes[label] = ("ok", fn(model))
        except Exception as exc:  # a failing call is a result to check, not a stop
            outcomes[label] = ("err", type(exc).__name__, str(exc))
    return outcomes, t0, clock()


def run_pass(jobs_, models, clock=time.perf_counter, tracer=None):
    """One closed-loop pass; returns (start, end, [(job start, job end)], [outcomes])."""
    spans, outs = [], []
    t0 = clock()
    for job, model in zip(jobs_, models):
        if tracer is not None:
            tracer.job = job.jid
        out, j0, j1 = run_job(job, model, clock)
        spans.append((j0, j1))
        outs.append(out)
    return t0, clock(), spans, outs


def scaled_pass(meter, t0, t1, spans):
    """(pass seconds, [job seconds], pass speed factor) at the reference speed.
    Each job is scaled by the speed samples taken during it or within one
    sampling interval of it, the pass by those taken during the pass."""
    f_pass = meter.factor(t0, t1)
    if f_pass is None:                   # a pass shorter than one sampling interval
        f_pass = CAL_REF_S / meter.kernel()
    jobs_s = []
    for j0, j1 in spans:
        f = meter.factor(j0 - CAL_EVERY_S, j1 + CAL_EVERY_S)
        jobs_s.append((j1 - j0) * (f_pass if f is None else f))
    return (t1 - t0) * f_pass, jobs_s, f_pass


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def failure_key(message: str) -> str:
    """A failure message with its numbers masked, stable across small drifts."""
    return _NUMBER.sub("#", message)


def load_baseline(workload: str) -> dict:
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)["failures"].get(workload, {})


def judge(jobs_, refs, outs, baseline: dict):
    """(failed job count, unexpected failures) for one pass."""
    import refs as refmod
    failed, unexpected = 0, []
    for job, ref, out in zip(jobs_, refs, outs):
        fails = refmod.check(job, ref, out)
        if not fails:
            continue
        failed += 1
        known = set(baseline.get(job.jid, ()))
        new = [f for f in fails if failure_key(f) not in known]
        if new:
            unexpected.append((job.jid, new))
    return failed, unexpected


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    warnings.simplefilter("ignore")       # library RuntimeWarnings are not results
    # half the set-up probes run before the passes and half after, so a slow
    # stretch of the machine does not dominate their median
    probes = 0 if trace else SETUP_PROBES
    setup = setup_seconds(workload, seed, probes // 2)
    import jobs
    import refs as refmod
    jobs_ = jobs.build(workload, seed)
    refs = [refmod.reference(job) for job in jobs_]
    baseline = load_baseline(workload)
    models = [job.model for job in jobs_]

    passes, job_times, raw, speed, attempted, failed, unexpected = [], [], [], [], 0, 0, []
    with SpeedMeter() as meter:
        start = meter.clock()
        while not passes or meter.clock() - start < seconds:
            t0, t1, spans, outs = run_pass(jobs_, models, meter.clock)
            wall, times, factor = scaled_pass(meter, t0, t1, spans)
            passes.append(wall)
            job_times.append(times)
            raw.append(t1 - t0)
            speed.append(factor)
            n_failed, new = judge(jobs_, refs, outs, baseline)
            attempted += len(jobs_)
            failed += n_failed
            unexpected += new
    setup += setup_seconds(workload, seed, probes - probes // 2)
    result = {"passes": passes, "job_times": job_times, "raw": raw, "attempted": attempted,
              "failed": failed, "unexpected": unexpected, "jobs": len(jobs_),
              "setup": setup, "speed": statistics.median(speed)}
    if trace:
        result["traced"] = traced_pass(jobs_, refs, baseline, workload, seed)
    return result


def traced_pass(jobs_, refs, baseline, workload, seed):
    import tracer as tracermod
    with SpeedMeter() as meter:
        tr = tracermod.Tracer(meter.clock)
        models = [tr.instrument(job.model) for job in jobs_]
        tr.install()
        try:
            t0, t1, _, outs = run_pass(jobs_, models, meter.clock, tr)
        finally:
            tr.uninstall()
    scaled = scaled_pass(meter, t0, t1, [])[0]
    failed, unexpected = judge(jobs_, refs, outs, baseline)
    os.makedirs(OUT, exist_ok=True)
    tr.dump(os.path.join(OUT, "spans_%s_%d.jsonl" % (workload, seed)))
    return {"tracer": tr, "wall": t1 - t0, "scaled": scaled, "failed": failed,
            "unexpected": unexpected}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def chain_seconds(res) -> list:
    """Each chain's time at the reference speed: the median of its times over
    the passes, so a slow stretch during one pass does not reach the percentiles."""
    return [statistics.median(ts) for ts in zip(*res["job_times"])]


def end_to_end(res) -> dict:
    chains = chain_seconds(res)
    return {
        "setup_s": (statistics.median(res["setup"]), "s"),
        "wall_s": (statistics.median(res["passes"]), "s"),
        "chain_s_p50": (statistics.median(chains), "s"),
        "chain_s_p99": (percentile(chains, 0.99), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(res) -> dict:
    t = res["traced"]
    tr = t["tracer"]
    m = tr.metrics()
    m["trace.wall_s"] = (t["wall"], "s")
    m["trace.glue_s"] = (t["wall"] - tr.root_s, "s")
    m["trace.overhead_s"] = (t["scaled"] - statistics.median(res["passes"]), "s")
    m["jobs.fail_frac"] = (t["failed"] / res["jobs"], "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not _use_checkout_library():
        print("error: no library source at %s; run from the root of a bdspec checkout"
              % SRC, file=sys.stderr)
        return 2
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(res) if args.trace else end_to_end(res)
    unexpected = res["unexpected"] + (res["traced"]["unexpected"] if args.trace else [])
    for jid, fails in unexpected[:20]:
        print("unexpected failure %s: %s" % (jid, "; ".join(fails)), file=sys.stderr)
    print("%s seed %d: %d jobs x %d passes%s; unscaled pass %.3f s, speed factor %.4f" % (
        args.workload, args.seed, res["jobs"], len(res["passes"]),
        " + 1 traced pass" if args.trace else "", statistics.median(res["raw"]),
        res["speed"]))
    for name, (value, unit) in metrics.items():
        print("  %-40s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

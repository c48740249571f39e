"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

(from the root of a checkout; the library is imported from ``src``).
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from bdspec.oracle import SpectralResult  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run_tiny(monkeypatch, capsys, trace):
    monkeypatch.setattr(jobs, "FINITE_CHAINS", 12)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "finite_sweep", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_metric_with_unit(monkeypatch, capsys, trace, section):
    lines, doc = _run_tiny(monkeypatch, capsys, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 12 and doc["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert got == want
    text = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert any(name in ln and ln.rstrip().endswith(unit) for ln in text.splitlines())


def test_traced_self_times_account_for_the_wall():
    tr = tracer.Tracer()

    def inner(x):
        return sum(range(x))

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(2 * x)

    wrapped_inner = tr.wrap("oracle.inner", inner)
    wrapped_outer = tr.wrap("estimates.outer", outer)
    leaf = tr.wrap_leaf("catalog.rate", lambda i: i)
    t0 = tr.clock()
    for k in range(50):
        tr.job = "j%d" % k
        wrapped_outer(2000)
        leaf(k)
    wall = tr.clock() - t0
    total_self = sum(tr.self_s.values())
    assert total_self == pytest.approx(tr.root_s, rel=1e-9)
    assert total_self <= wall
    offline = tr.self_times_from_spans()
    for name in ("oracle.inner", "estimates.outer"):
        assert offline[name] == pytest.approx(tr.self_s[name], rel=1e-9)
    assert tr.calls["oracle.inner"] == 100 and tr.calls["catalog.rate"] == 50


def test_install_patches_every_binding_and_uninstall_restores():
    import bdspec.approx
    import bdspec.model
    original = bdspec.model.build_weights
    tr = tracer.Tracer().install()
    try:
        assert bdspec.model.build_weights is not original
        assert bdspec.approx.build_weights is bdspec.model.build_weights
    finally:
        tr.uninstall()
    assert bdspec.model.build_weights is original
    assert bdspec.approx.build_weights is original


def _finite_job():
    return [j for j in jobs.finite_sweep(11, count=40) if j.info["c"] is None][0]


def test_checker_flags_a_wrong_value():
    job = _finite_job()
    ref = refs.reference(job)
    out = run.run_job(job, job.model)[0]
    assert refs.check(job, ref, out) == []
    lam = out["principal_eigen"][1]
    out["principal_eigen"] = ("ok", SpectralResult(lam.lam * 1.01, lam.eigvec, lam.m,
                                                   lam.residual, lam.method, lam.base))
    fails = refs.check(job, ref, out)
    assert fails and "principal_eigen" in fails[0]


def test_checker_flags_a_minus_inf_sentinel():
    job = [j for j in jobs.catalog_brackets(1) if j.jid == "ex7_6_1"][0]
    ref = refs.reference(job)
    out = run.run_job(job, job.model)[0]
    assert refs.check(job, ref, out) == []
    code, text = out["poincare"][1]
    doc = json.loads(text)
    doc["B_split"] = -math.inf
    out["poincare"] = ("ok", (code, json.dumps(doc)))   # json.dumps writes -Infinity
    fails = refs.check(job, ref, out)
    assert any("not strict JSON" in f for f in fails)
    # the library-call form of the same sentinel
    table = [j for j in jobs.catalog_brackets(1) if j.jid == "table7_1_row4"][0]
    values = {"b_constants_split": (1.0, 1.0, -math.inf, 1.0)}
    assert any("B_split" in f for f in refs._check_catalog(table, {"rate": 3.0}, values))


def test_checker_refuses_non_strict_json():
    for text in ('{"x": Infinity}', '{"x": -Infinity}', '{"x": NaN}'):
        with pytest.raises(ValueError):
            refs.strict_json(text)
    assert refs.strict_json('{"x": 1.5}') == {"x": 1.5}


def test_fixed_seed_reproduces_the_generated_chains():
    a, b = jobs.finite_sweep(7, count=25), jobs.finite_sweep(7, count=25)
    other = jobs.finite_sweep(8, count=25)
    for ja, jb in zip(a, b):
        assert ja.jid == jb.jid
        for key in ("a", "b"):
            np.testing.assert_array_equal(ja.info[key], jb.info[key])
    assert any(len(ja.info["a"]) != len(jo.info["a"]) or
               not np.array_equal(ja.info["a"], jo.info["a"]) for ja, jo in zip(a, other))
    assert [j.jid for j in jobs.paper_tables(3)] == [j.jid for j in jobs.paper_tables(3)]
    assert [j.info["params"] for j in jobs.catalog_brackets(3)] == \
        [j.info["params"] for j in jobs.catalog_brackets(3)]


def test_failure_keys_mask_numbers():
    assert run.failure_key("oracle 0.2505 vs 0.25 (1e-3 rel)") == "oracle # vs # (# rel)"

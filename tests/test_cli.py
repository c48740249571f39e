import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest

from bdspec import approx, cli, estimates, oracle
from bdspec.catalog import catalog, catalog_names

SQRT2 = math.sqrt(2.0)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_estimate_json_bit_exact(capsys):
    code, out = run_cli(["estimate", "--model", "linear_nd", "--param", "gamma=1",
                         "--json"], capsys)
    assert code in (0, 2)
    doc = json.loads(out)
    lib = estimates.delta_nd(catalog("linear_nd", gamma=1.0))[0]
    assert doc["delta_3_1"] == lib  # JSON round-trips the exact float
    assert doc["delta_3_1"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_estimate_kappa_row1(capsys):
    code, out = run_cli(["estimate", "--model", "table6_1_row1", "--json"], capsys)
    doc = json.loads(out)
    assert doc["kappa"] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_estimate_file_model(tmp_path, capsys):
    doc = {"boundary": "DD", "lo": 1, "hi": 2,
           "birth": {"table": [2.0, 3.0], "then": "error"},
           "death": {"table": [1.0, 1.0], "then": "error"}}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["estimate", "--file", str(path), "--json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["kappa"] == pytest.approx(3.0 / 7.0, rel=1e-12)
    assert parsed["bracket"][0] <= 2.0 <= parsed["bracket"][1]
    assert parsed["lambda_exact"] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("name,certified", [("ex7_6_1", "certified"),
                                             ("ex8_8", "window_stopped"),
                                             ("ex8_9", "window_stopped")])
def test_estimate_exit_code_follows_certainty(name, certified, capsys):
    code, out = run_cli(["estimate", "--model", name, "--json"], capsys)
    assert json.loads(out)["certified"] == certified
    assert code == (0 if certified == "certified" else 2)


@pytest.mark.parametrize("argv,code", [
    (["estimate", "--model", "ex7_6_1"], 0), (["estimate", "--model", "quadratic_nd"], 2),
    (["approx", "--model", "ex7_6_1"], 0), (["approx", "--model", "quadratic_nd"], 2),
    (["oracle", "--model", "ex7_6_1"], 0), (["oracle", "--model", "ex9_21", "--m", "400"], 2),
    (["killing", "--model", "ex9_15"], 0), (["killing", "--model", "ex9_16"], 2),
    (["poincare", "--model", "ex7_6_1"], 0), (["poincare", "--model", "quadratic_nd"], 2),
])
def test_exit_code_is_2_iff_a_printed_bound_is_window_stopped(argv, code, capsys):
    # a finite chain its windows cover exits 0; an infinite one exits 2
    got, out = run_cli(argv + ["--json"], capsys)
    assert got == code
    assert json.loads(out)["certified"] == ("certified" if code == 0 else "window_stopped")


def test_estimate_refuses_a_killed_chain(capsys):
    # killing-free brackets bound no killed chain: on ex9_16 they read
    # [1e-10, 4e-10], while corollary 9.9 certifies 1.22e-4
    assert cli.main(["estimate", "--model", "ex9_16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "estimate covers killing-free chains" in captured.err
    assert "bdspec killing" in captured.err


def test_estimate_refuses_a_non_ergodic_nn_chain(capsys):
    # symmetric_nn has sum(mu) = inf, so kappa^(6.13) does not apply
    assert cli.main(["estimate", "--model", "symmetric_nn"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kappa_nn requires sum(mu) < inf" in captured.err


def test_oracle_command(capsys):
    # ex9_21 is an infinite chain: the truncation at m = 400 is window-stopped
    code, out = run_cli(["oracle", "--model", "ex9_21", "--m", "400", "--json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["certified"] == "window_stopped"
    assert doc["lambda"] == pytest.approx(119.0 / 8.0, abs=1e-4)
    assert doc["monotone_ok"]


def test_dual_similarity_flag(capsys):
    code, out = run_cli(["dual", "--model", "const_nd", "--param", "a=1,b=2",
                         "--check-similarity", "--n", "8", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["similarity_residual_n8"] < 1e-12
    assert doc["weight_identity_residual"] < 1e-12


def test_killing_command(capsys):
    # ex9_19 is an infinite chain: its lower bounds are window-stopped
    code, out = run_cli(["killing", "--model", "ex9_19", "--param", "beta=0.25",
                         "--json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["upper_9_9"] <= 0.75 + 1e-12
    assert doc["lower_cor_9_9"] <= 0.375 + 1e-6


@pytest.mark.parametrize("name,expected", [("ex9_15", 0), ("ex9_16", 2)])
def test_killing_exit_code_follows_certainty(name, expected, capsys):
    code, out = run_cli(["killing", "--model", name, "--json"], capsys)
    doc = json.loads(out)
    assert code == expected
    assert doc["certified"] == ("certified" if expected == 0 else "window_stopped")
    assert "certainty" not in doc["flags"] and "certainty" not in doc["flags"]["sqrt"]


def test_poincare_command(capsys):
    code, out = run_cli(["poincare", "--model", "quadratic_nd", "--p", "2",
                         "--json"], capsys)
    doc = json.loads(out)
    assert doc["B"] == pytest.approx(math.pi ** 2 / 6.0, rel=1e-10)


def test_table_ex5_3(capsys):
    code, out = run_cli(["table", "ex5_3_sequences", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["delta_prime_hat"] == pytest.approx(5.0 / 9.0, abs=5e-5)
    seq = [r["delta_prime_hat"] for r in rows]
    assert all(y >= x for x, y in zip(seq, seq[1:]))


def test_csv_output(capsys):
    code, out = run_cli(["estimate", "--model", "const_nd", "--param", "a=1,b=2",
                         "--csv"], capsys)
    assert code in (0, 2)
    assert any(line.startswith("delta_3_1,2.0") for line in out.splitlines())


def test_error_exit_code(capsys):
    assert cli.main(["estimate", "--model", "nope"]) == 1
    assert cli.main(["estimate"]) == 1


@pytest.mark.parametrize("argv", [
    ["estimate", "--model", "table7_1_row1", "--threads", "2"],   # unknown flag
    ["table", "table9_9"],                                        # bad choice
    # a flag the subcommand would ignore
    ["estimate", "--model", "const_nd", "--m", "5"],
    ["estimate", "--model", "const_nd", "--steps", "2"],
    ["approx", "--model", "const_nd", "--m", "3"],
    ["oracle", "--model", "const_nd", "--grid", "3"],
    ["killing", "--model", "ex9_18", "--steps", "3"],
    ["dual", "--model", "const_nd", "--m", "3"],
    ["poincare", "--model", "const_nd", "--grid", "3"],
    ["table", "table7_1", "--model", "const_nd"],
    ["table", "table7_1", "--file", "chain.json"],
    ["table", "table7_1", "--param", "a=1"],
])
def test_flag_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1   # 2 is reserved for "not fully certified"
    assert "usage:" in capsys.readouterr().err


CONST_RATE = {"catalog": "const", "params": {"value": 1.0}}
TWO = {"catalog": "const", "params": {"value": 2.0}}
CHAIN_COMMANDS = ("estimate", "approx", "oracle", "killing", "dual", "poincare")
# the commands that reach the fault; the others refuse the chain's shape
# first (approx, killing and dual a bilateral chain, killing an ND one) or
# its killing (estimate and approx), and exit 1 all the same
BILATERAL = ("estimate", "oracle", "poincare")
KILLED = ("oracle", "killing", "dual", "poincare")


def _rate_table(*values):
    return {"table": list(values), "then": "last"}


@pytest.mark.parametrize("doc,named,naming", [
    ({"boundary": "ND", "death": CONST_RATE}, "'birth'", CHAIN_COMMANDS),
    ({"boundary": "ND", "birth": {"catalog": "const"}, "death": CONST_RATE}, "'value'",
     CHAIN_COMMANDS),
    ([1, 2], "JSON object", CHAIN_COMMANDS),
    ({"boundary": "ND", "birth": 3, "death": CONST_RATE}, "birth", CHAIN_COMMANDS),
    ({"boundary": "DD", "lo": [1], "birth": CONST_RATE, "death": CONST_RATE}, "lo",
     CHAIN_COMMANDS),
    ({"boundary": "DD", "lo": 1.5, "birth": CONST_RATE, "death": CONST_RATE}, "lo",
     CHAIN_COMMANDS),
    ({"boundary": "DD", "hi": "top", "birth": CONST_RATE, "death": CONST_RATE}, "hi",
     CHAIN_COMMANDS),
    ({"boundary": "DD", "birth": {"table": [], "then": "last"}, "death": CONST_RATE},
     "birth: a table needs at least one value", CHAIN_COMMANDS),
    ({"boundary": "ND", "lo": 0, "hi": -1, "birth": CONST_RATE, "death": CONST_RATE},
     "empty range [0, -1]", CHAIN_COMMANDS),
    ({"boundary": "DD", "lo": 3, "hi": 2, "birth": CONST_RATE, "death": CONST_RATE},
     "empty range [3, 2]", CHAIN_COMMANDS),
    ({"boundary": "DD_bilateral", "birth": {"catalog": "const", "params": {"value": math.nan}},
      "death": CONST_RATE}, "rates not finite", BILATERAL),
    ({"boundary": "DD_bilateral", "birth": CONST_RATE,
      "death": _rate_table(1.0, math.inf, 1.0)}, "rates not finite", BILATERAL),
    ({"boundary": "ND", "birth": _rate_table(1.0, -1.0, 1.0), "death": TWO},
     "birth rate <= 0 inside the range", ("estimate", "approx", "oracle", "dual", "poincare")),
    ({"boundary": "DD", "birth": _rate_table(1.0, -1.0, 1.0), "death": TWO},
     "birth rate <= 0 inside the range", CHAIN_COMMANDS),
    ({"boundary": "DD", "birth": _rate_table(1.0, math.nan, 1.0), "death": TWO},
     "rates not finite at some index", CHAIN_COMMANDS),
    ({"boundary": "DD", "birth": CONST_RATE, "death": TWO,
      "killing": _rate_table(0.5, -3.0, 0.5)}, "killing rate < 0", KILLED),
    ({"boundary": "DD", "birth": CONST_RATE, "death": TWO,
      "killing": _rate_table(0.5, math.nan, 0.5)}, "rates not finite at some index", KILLED),
], ids=["no_birth", "const_without_value", "top_level_list", "birth_not_a_spec",
        "lo_a_list", "lo_not_an_integer", "hi_a_word", "empty_table", "empty_nd_range",
        "empty_dd_range", "bilateral_nan_birth", "bilateral_inf_death", "nd_negative_birth",
        "dd_negative_birth", "dd_nan_birth", "dd_negative_killing", "dd_nan_killing"])
def test_malformed_model_file_exits_1_with_a_message(doc, named, naming, tmp_path, capsys):
    # every chain subcommand exits 1 with one error line and no output; a bad
    # rate is named by each command that reads it, whichever reader does
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    for command in CHAIN_COMMANDS:
        assert cli.main([command, "--file", str(path)]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert (named in captured.err) == (command in naming), (command, captured.err)


def test_poincare_on_a_weight_bump_past_float_range_prints_b_as_inf(tmp_path, capsys):
    # mu rises by e^800 over states 0-8 and falls back by 16: B = kappa, and
    # both are finite but past float range, so both print as inf; the chain
    # is infinite, so neither is certified
    big = math.exp(100.0)
    doc = {"boundary": "DD_bilateral",
           "birth": {"table": [big] * 8 + [1.0], "then": "last"},
           "death": {"table": [1.0] * 9 + [big] * 8 + [1.0], "then": "last"}}
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(doc))
    for command, key in (("poincare", "B"), ("estimate", "kappa")):
        assert cli.main([command, "--file", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out[key] is None and out["nonfinite"][key] == "inf"
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,message", [
    (["poincare", "--model", "const_nd", "--p", "0"], "error: p must be >= 2"),
    (["oracle", "--model", "const_nd", "--m", "0"], "error: need m >= 2"),
    (["oracle", "--model", "const_nd", "--m", "2"], "error: --m must be >= 10"),
    (["oracle", "--model", "const_nd", "--m", "9"], "error: --m must be >= 10"),
    (["killing", "--model", "ex9_18", "--m", "0"], "error: need m >= 2"),
    (["dual", "--model", "const_nd", "--check-similarity", "--n", "0"],
     "error: similarity check is a dense, small-n verification"),
], ids=["poincare_p", "oracle_m", "oracle_m_2", "oracle_m_9", "killing_m", "dual_n"])
def test_zero_flags_reach_the_library_checks(argv, message, capsys):
    # a flag set to 0 is 0, not the flag's default
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)


def test_steps_zero_is_a_flag_error_and_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["approx", "--model", "const_nd", "--steps", "0"])
    assert exc.value.code == 1
    assert "argument --steps" in capsys.readouterr().err
    for argv, shown in ((["approx", "--help"], "(default 5)"),
                        (["oracle", "--help"], "(default 2000)"),
                        (["dual", "--help"], "(default 8)"),
                        (["poincare", "--help"], "(default 2.0)")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0 and shown in capsys.readouterr().out


def test_steps_sets_the_length_of_the_approx_sequences(capsys):
    assert cli.main(["approx", "--model", "const_nd", "--steps", "3", "--json"]) == 2
    out = json.loads(capsys.readouterr().out)
    for key in ("delta_n", "delta_n_prime", "delta_n_bar"):
        assert len(out[key]) == 3, key
    assert out["delta_n"] == list(approx.delta_seq_nd(catalog("const_nd"), 3).values)


@pytest.mark.parametrize("model,grid", [("table6_1_row1", "5000"), ("table6_1_row1", "0"),
                                        ("const_nd", "5000")])
def test_approx_grid_outside_window_exits_1(model, grid, capsys):
    assert cli.main(["approx", "--model", model, "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: stopping levels must lie in [1, " in captured.err
    assert "Traceback" not in captured.err


def strict_json(text):
    """json.loads that refuses the non-standard NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError("non-strict JSON token %s" % token)
    return json.loads(text, parse_constant=refuse)


FINITE = [name for name in catalog_names() if catalog(name).hi is not None]
# approx on ex7_5_1 is a known open defect: it raises IndexError in dd_first_step
APPROX_RAISES = {"ex7_5_1"}


def _check_strict(out):
    doc = strict_json(out)
    for path, flag in doc.get("nonfinite", {}).items():
        assert flag in ("inf", "-inf", "nan")
        if path in doc:
            assert doc[path] is None
    return doc


@pytest.mark.parametrize("name", FINITE)
def test_json_output_is_strict(name, capsys):
    # estimate and approx refuse a killed chain (exit 1, pointing to killing)
    killed = catalog(name).killing is not None
    for cmd in ("estimate", "poincare", "approx"):
        if cmd == "approx" and name in APPROX_RAISES:
            continue
        if killed and cmd != "poincare":
            assert cli.main([cmd, "--model", name, "--json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "bdspec killing" in captured.err
            continue
        code, out = run_cli([cmd, "--model", name, "--json"], capsys)
        doc = _check_strict(out)
        assert code == (0 if doc["certified"] == "certified" else 2)


def test_json_nonfinite_flags(capsys):
    code, out = run_cli(["poincare", "--model", "ex7_5_1", "--json"], capsys)
    assert code == 0
    doc = strict_json(out)
    assert doc["B_R"] is None and doc["S"] is None and doc["B_split"] == 0.5
    assert doc["nonfinite"] == {"B_R": "inf", "S": "inf"}


def test_killing_one_state_chain_returns_the_killing_floor(capsys):
    # ex7_5_1 (one state, killing c = 2) has no stop level for the square-root
    # seeds: sqrt_test_bound returns the family floor, and lambda = c = 2. The
    # (ell, m) triangle is the one pair (1, 1), where the double infimum is c
    code, out = run_cli(["killing", "--model", "ex7_5_1", "--json"], capsys)
    assert code == 0
    doc = strict_json(out)
    del doc["wall_time_s"]
    assert doc == {
        "model": "ex7_5_1", "params": {"c": 2.0}, "command": "killing",
        "upper_9_9": 2.0, "upper_detail": {"at": [1, 1], "loose_9_10": 2.0, "double_inf": 2.0},
        "lower_cor_9_9": 2.0, "xi": 0.0, "zeta": 0.0, "lower_sqrt_test": 2.0,
        "flags": {"eps": 0.05, "family_insufficient": True,
                  "sqrt": {"family_insufficient": True}},
        "dispatch_9_12": "positive", "certified": "certified"}


def test_oracle_one_state_chain_warns_nothing(capsys):
    # b_1 = 0 leaves the shooting recursion nothing to divide by: shooting_rate
    # raises TruncationTooSmall and the command omits "shooting"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(["oracle", "--model", "ex7_5_1", "--json"], capsys)
    assert code == 0
    doc = strict_json(out)
    assert doc["lambda"] == 2.0 and "shooting" not in doc


@pytest.mark.parametrize("which", ["table6_1", "table7_1"])
def test_table_json_is_strict(which, capsys):
    code, out = run_cli(["table", which, "--json"], capsys)
    assert code == 0
    assert len(strict_json(out)["rows"]) == {"table6_1": 8, "table7_1": 9}[which]


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "bdspec.cli", "estimate",
                           "--model", "ex7_6_1", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kappa"] == pytest.approx(3.0 / 7.0, rel=1e-12)


def test_estimate_on_a_hinted_chain_loads_no_scipy():
    # the Hurwitz hints are numpy and the eigensolver binds LAPACK on first
    # use, so neither import nor a call that solves nothing loads scipy
    code = ("import contextlib, io, sys, bdspec\n"
            "from bdspec import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['estimate', '--model', 'quadratic_nd', '--json'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_plain_text_output_prints_one_field_per_line(capsys):
    # no format flag: the flattened report, floats to 12 significant digits
    code, out = run_cli(["estimate", "--model", "ex7_6_1"], capsys)
    assert code == 0
    rows = dict(line.split(None, 1) for line in out.splitlines())
    k, dl, dr, S, br = estimates.kappa_dd(catalog("ex7_6_1"))
    assert rows["kappa"] == "%.12g" % k and rows["S"] == "%.12g" % S
    assert rows["bracket[0]"] == "%.12g" % br.lower and rows["bracket[1]"] == "%.12g" % br.upper
    assert rows["basic.method"] == "kappa_7_5" and rows["basic.positive"] == "True"
    assert rows["certified"] == "certified"


def test_table_ex5_3_csv_and_plain_text(capsys):
    _, out = run_cli(["table", "ex5_3_sequences", "--json"], capsys)
    rows = json.loads(out)["rows"]
    cols = ["n", "delta_prime_hat", "bar_delta_hat"]
    code, out = run_cli(["table", "ex5_3_sequences", "--csv"], capsys)
    assert code == 0
    got = list(csv.DictReader(io.StringIO(out)))
    assert list(got[0]) == cols and len(got) == len(rows) == 5
    for text, row in zip(got, rows):        # the CSV carries the exact floats
        assert int(text["n"]) == row["n"]
        assert [float(text[c]) for c in cols[1:]] == [row[c] for c in cols[1:]]
    code, out = run_cli(["table", "ex5_3_sequences"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == cols and len(lines) == 6
    for line, row in zip(lines[1:], rows):
        assert line.split() == [str(row["n"])] + ["%.6g" % row[c] for c in cols[1:]]


def test_estimate_on_a_dn_chain(capsys):
    # const_dn with a = 2 > b = 1 has rate (sqrt 2 - 1)^2 and delta^(4.4) = 2
    code, out = run_cli(["estimate", "--model", "const_dn", "--param", "a=2,b=1",
                         "--json"], capsys)
    assert code == 2
    doc = json.loads(out)
    d, br = estimates.delta_dn(catalog("const_dn", a=2.0, b=1.0))
    assert doc["delta_4_4"] == d == 2.0
    assert doc["bracket"] == [br.lower, br.upper]
    assert br.lower <= (SQRT2 - 1.0) ** 2 <= br.upper
    assert doc["basic"]["method"] == "kappa_7_5" and doc["basic"]["positive"] is True


@pytest.mark.parametrize("name", ["ex5_5", "table6_1_row1"])
def test_approx_on_dn_and_nn_chains(name, capsys):
    code, out = run_cli(["approx", "--model", name, "--json"], capsys)
    assert code == 2                      # infinite chains: window-stopped
    doc = json.loads(out)
    model = catalog(name)
    if name == "ex5_5":
        assert [doc["delta_1"], doc["delta_1_prime"]] == list(approx.first_step_closed(model))
        return
    assert [doc["eta_1"], doc["eta_bar_1"]] == list(approx.eta1_closed(model))
    tr = approx.eta_seq_nn(model, 5)
    assert doc["eta_n"] == list(tr.values)
    assert doc["eta_n_prime"] == list(tr.extras["eta_prime"])
    assert doc["eta_n_bar"] == list(tr.extras["eta_bar"])
    assert doc["monotone"] is tr.monotone_ok


@pytest.mark.parametrize("name,m,code", [("ex9_15", 3, 0), ("ex9_16", 50, 2)])
def test_killing_m_adds_the_oracle_value(name, m, code, capsys):
    got, out = run_cli(["killing", "--model", name, "--m", str(m), "--json"], capsys)
    assert got == code
    doc = json.loads(out)
    lam = oracle.principal_eigen(catalog(name), m).lam
    assert doc["oracle"] == lam
    if code == 0:                         # the whole chain: its bounds hold the rate
        assert doc["lower_cor_9_9"] <= lam <= doc["upper_9_9"]

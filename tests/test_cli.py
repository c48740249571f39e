import json
import math
import subprocess
import sys

import pytest

from bdspec import cli, estimates
from bdspec.catalog import catalog, catalog_names


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


def test_oracle_command(capsys):
    code, out = run_cli(["oracle", "--model", "ex9_21", "--m", "400", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
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
    certainties = (doc["flags"]["certainty"], doc["flags"]["sqrt"]["certainty"])
    assert (certainties == ("certified", "certified")) == (expected == 0)


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
])
def test_flag_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1   # 2 is reserved for "not fully certified"
    assert "usage:" in capsys.readouterr().err


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
    for cmd in ("estimate", "poincare"):
        code, out = run_cli([cmd, "--model", name, "--json"], capsys)
        assert code in (0, 2)
        _check_strict(out)
    if name in APPROX_RAISES:
        return
    if catalog(name).killing is not None:
        assert cli.main(["approx", "--model", name, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "bdspec killing" in captured.err
        return
    code, out = run_cli(["approx", "--model", name, "--json"], capsys)
    _check_strict(out)
    assert code in (0, 2)


def test_json_nonfinite_flags(capsys):
    code, out = run_cli(["poincare", "--model", "ex7_5_1", "--json"], capsys)
    assert code == 0
    doc = strict_json(out)
    assert doc["B_R"] is None and doc["S"] is None and doc["B_split"] == 0.5
    assert doc["nonfinite"] == {"B_R": "inf", "S": "inf"}


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

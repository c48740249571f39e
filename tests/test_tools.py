import ast
import importlib.util
import json
import math
import os
import textwrap

import numpy as np
import pytest

from bdspec.estimates import BasicBracketReport, Bracket
from bdspec.model import HINT_KEYS
from bdspec.series import Certainty, ExtremumReport, Labelled


def _tool(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_outputs = _tool("same_outputs")
canonical = same_outputs.canonical
traffic = _tool("traffic")


def test_canonical_forms_compare_bit_for_bit_with_nan_equal_to_nan():
    assert canonical(0.1 + 0.2) != canonical(0.3)
    assert canonical(0.0) != canonical(-0.0)
    assert canonical(math.nan) == canonical(-math.nan) == canonical(np.float64("nan"))
    x = np.array([1.0, math.nan, 3.0])
    y = x.copy()
    y[1] = -math.nan
    assert canonical(x) == canonical(y)
    y[2] = np.nextafter(3.0, 4.0)
    assert canonical(x) != canonical(y)
    assert canonical(x) != canonical(x.reshape(1, 3))
    rep = ExtremumReport((1, 2), 0.5, Certainty.CERTIFIED, (0, 9))
    assert canonical(rep) == canonical(ExtremumReport((1, 2), 0.5, Certainty.CERTIFIED, (0, 9)))
    assert canonical(rep) != canonical(ExtremumReport((1, 2), 0.5, Certainty.WINDOW_STOPPED,
                                                     (0, 9)))
    pair = Labelled((1.0, 2.0), Certainty.CERTIFIED)
    assert canonical(pair) != canonical(Labelled((1.0, 2.0), Certainty.WINDOW_STOPPED))


def test_canonical_forms_mask_addresses_and_wall_times():
    assert canonical(lambda i: i) == canonical(lambda i: i + 1)      # both <lambda> at 0x..
    one = '{\n  "kappa": 0.5,\n  "wall_time_s": 0.0123\n}'
    two = '{\n  "kappa": 0.5,\n  "wall_time_s": 1.5e-05\n}'
    assert canonical((0, one)) == canonical((0, two))
    assert canonical((0, one)) != canonical((0, one.replace("0.5", "0.50001")))


TOY = textwrap.dedent('''\
    """A toy module."""


    def clip(x):
        """One taken branch, one untaken."""
        if x > 0.0:
            x = 0.0
        else:
            x = (
                -1.0)
        if x is None:
            raise ValueError("x")
        return x
    ''')


def test_traffic_lists_the_untaken_branch_alone(tmp_path):
    path = tmp_path / "toy_traffic.py"
    path.write_text(TOY)

    def load():
        spec = importlib.util.spec_from_file_location("toy_traffic", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    # the function's docstring carries no bytecode and the raise (line 12)
    # is left out; the else branch spans lines 9-10
    assert sorted(traffic.statements(str(path))) == [1, 4, 6, 7, 9, 11, 13]
    assert traffic.unexecuted([str(path)], lambda: load().clip(2.0)) == [(str(path), 9)]
    assert traffic.unexecuted([str(path)], lambda: load().clip(-2.0)) == [(str(path), 7)]
    assert traffic.unexecuted([str(path)], load) == [(str(path), k) for k in (6, 7, 9, 11, 13)]


def test_same_outputs_takes_every_workload_and_repeated_seeds(monkeypatch, capsys):
    args = same_outputs.parse_args(["P", "C", "--workload", "all", "--seed", "7", "--seed", "71"])
    assert args.pairs == [(w, s) for w in same_outputs.WORKLOADS for s in (7, 71)]
    one = same_outputs.parse_args(["P", "C", "--workload", "finite_sweep", "--seed", "3"])
    assert one.pairs == [("finite_sweep", 3)]
    for argv in (["P", "C", "--workload", "all"],                 # no seed
                 ["P", "C", "--workload", "bogus", "--seed", "1"],
                 ["P", "--workload", "all", "--seed", "1"],       # no CHANGE
                 ["--dump", "P", "--workload", "all", "--seed", "1"]):
        with pytest.raises(SystemExit):
            same_outputs.parse_args(argv)
    capsys.readouterr()

    # one summary line per pair; exit 1 if a call differs in any pair
    def run(checkout, workload, seed):
        moved = checkout.endswith("C") and (workload, seed) == ("catalog_brackets", 71)
        return {"job/call": ["ok", 2.0 if moved else 1.0]}

    monkeypatch.setattr(same_outputs, "run_checkout", run)
    assert same_outputs.main(["P", "C", "--workload", "all", "--seed", "7", "--seed", "71"]) == 1
    lines = capsys.readouterr().out.splitlines()
    summaries = [line for line in lines if " seed " in line]
    assert summaries == ["%s seed %d: 1 calls, %d differ"
                         % (w, s, (w, s) == ("catalog_brackets", 71))
                         for w in same_outputs.WORKLOADS for s in (7, 71)]
    assert "differs: job/call" in lines
    assert "  (value): 1.0 -> 2.0" in lines
    assert same_outputs.main(["P", "C", "--workload", "paper_tables", "--seed", "71"]) == 0


def test_same_outputs_names_each_differing_leaf_past_the_first_300_characters(monkeypatch,
                                                                                capsys):
    # two reports whose canonical forms differ only in the scanned top, well
    # past character 300: each differing leaf is printed by path, both values
    def report(top):
        rep = ExtremumReport((53, 54), 0.5, Certainty.WINDOW_STOPPED, (0, top))
        return BasicBracketReport(Bracket(0.125, 0.5, "kappa_6_13", rep), 2.0, "kappa_6_13",
                                  2.0, math.inf, True, "delta_3_1")

    old, new = (["ok", canonical(report(top))] for top in (99999, 2047))
    assert json.dumps(old)[:300] == json.dumps(new)[:300] and old != new
    outcomes = {"P": {"job/basic_bracket": old, "job/err": ["err", "Overflow", "x"]},
                "C": {"job/basic_bracket": new, "job/err": ["ok", canonical((1.5, None))]}}
    monkeypatch.setattr(same_outputs, "run_checkout", lambda c, w, s: outcomes[c[-1]])
    assert same_outputs.main(["P", "C", "--workload", "catalog_brackets", "--seed", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: job/basic_bracket",
        "  bracket.delta_like.scanned[1]: 99999 -> 2047",
        "differs: job/err",
        "  (raises): Overflow: x -> (absent)",
        "  [0]: (absent) -> 1.5",
        "  [1]: (absent) -> null",
        "catalog_brackets seed 1: 2 calls, 2 differ"]


def test_same_outputs_summary_names_the_largest_float_move(monkeypatch, capsys):
    # the summary line of a pair names its largest move in ulps, with the
    # call and the leaf; moves that are not between two floats do not count
    def values(*ulps):       # 4.0 and the floats ``ulps`` above it
        return ["ok", canonical({"values": list((np.array([4.0]).view(np.int64) + ulps)
                                                .view(np.float64))})]
    outcomes = {"P": {"a/truncation_limit": values(0, 0), "b/kappa_nn": values(0),
                      "c/estimate": ["ok", canonical({"scanned": 99999})]},
                "C": {"a/truncation_limit": values(3, 5632), "b/kappa_nn": values(4),
                      "c/estimate": ["ok", canonical({"scanned": 2047})]}}
    monkeypatch.setattr(same_outputs, "run_checkout", lambda c, w, s: outcomes[c[-1]])
    assert same_outputs.main(["P", "C", "--workload", "paper_tables", "--seed", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "paper_tables seed 2: 3 calls, 3 differ, largest move 5632 ulps: "
        "a/truncation_limit ['values'][1]")
    outcomes["C"] = dict(outcomes["P"], **{"c/estimate": outcomes["C"]["c/estimate"]})
    assert same_outputs.main(["P", "C", "--workload", "paper_tables", "--seed", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "paper_tables seed 2: 3 calls, 1 differ"


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "bdspec")
RATE_CALLABLES = ("birth", "death", "killing")
RATE_ERRORS = ("NonPositiveRate", "Overflow")
# ChainModel.rates reads and checks the rates; the catalog and the derived
# chains of dualize and reduce_9_11 define rates from other rates
RATE_READERS = {"model.ChainModel.rates", "duality.dualize.d_birth", "duality.dualize.d_death",
                "killing.reduce_9_11.chk_birth", "killing.reduce_9_11.chk_death",
                "killing.reduce_9_11.hat_death"}


def _scoped_nodes():
    """(qualified name of the enclosing function, node) for every node of
    the package's modules, the name led by its module (``model.ChainModel.rates``)."""
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                stack = [(fname[:-3], ast.parse(fh.read()))]
            while stack:
                scope, node = stack.pop()
                yield scope, node
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    scope = "%s.%s" % (scope, node.name)
                stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def test_only_chain_model_rates_reads_and_checks_the_rate_callables():
    # one reader and one check: a call of .birth, .death or .killing outside
    # ChainModel.rates, the catalog and the derived-model rates, or a rate
    # error raised anywhere else, would be a second rule for a valid rate
    calls, raises = set(), set()
    for scope, node in _scoped_nodes():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in RATE_CALLABLES:
            calls.add((scope, node.lineno))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and getattr(node.exc.func, "id", None) in RATE_ERRORS:
            raises.add(scope)
    assert {scope for scope, _ in calls} >= {"model.ChainModel.rates", "duality.dualize.d_birth"}
    assert sorted(c for c in calls if c[0] not in RATE_READERS
                  and c[0].split(".")[0] != "catalog") == []
    assert raises == {"model.ChainModel.rates"}


def test_every_public_option_has_a_setter():
    # an option no caller, test or benchmark job sets is a constant in disguise
    options = traffic.public_options()
    assert ("estimates", "basic_bracket", "n_max") in options
    unset = [opt for opt, files in traffic.option_setters(options).items() if not files]
    assert unset == []


def test_every_hint_key_has_a_setter():
    # a hint key no chain, dual, test or benchmark job sets is a dead branch
    keys = traffic.hint_keys()
    assert set(keys) == HINT_KEYS
    assert [key for key, files in traffic.hint_setters(keys).items() if not files] == []


def test_hint_setters_count_dict_keys_and_stored_subscripts(tmp_path):
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text('m = Model(tail_hint={"k1": f, **more})\n')
    (tests / "test_b.py").write_text('hint = {}\nhint["k2"] = f\n')
    (tests / "test_c.py").write_text('model.hint("k1")\nprint(hint["k2"])\n')   # reads
    assert traffic.hint_setters(["k1", "k2", "k4"], str(tmp_path)) == {
        "k1": [os.path.join("tests", "test_a.py")],
        "k2": [os.path.join("tests", "test_b.py")], "k4": []}


def test_option_setters_count_keywords_positions_and_unpacking(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(textwrap.dedent('''\
        def f(x, y=1, *, z=2):
            return x + y + z


        def _private(w=3):
            return w
        '''))
    (pkg / "cli.py").write_text("def main(argv=None):\n    return argv\n")
    options = traffic.public_options(str(pkg))
    assert options == {("mod", "f", "y"): 1, ("mod", "f", "z"): None}
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text("import mod\nmod.f(1, 2)\n")
    (tests / "test_b.py").write_text("from functools import partial\npartial(f, z=4)\n")
    (tests / "test_c.py").write_text("f(1)\nf(*args)\n")
    assert traffic.option_setters(options, str(tmp_path)) == {
        ("mod", "f", "y"): [os.path.join("tests", "test_a.py"),
                            os.path.join("tests", "test_c.py")],
        ("mod", "f", "z"): [os.path.join("tests", "test_b.py")]}


def test_same_outputs_compares_json_stdout_leaf_by_leaf_with_ulp_distances(monkeypatch, capsys):
    # a command line's --json stdout is compared as the document it parses
    # to: only the leaf that moved is printed, a float with its ulp distance
    def stdout(lam, wall):
        return json.dumps({"model": "ex7_6_2", "kappa": 0.5, "bracket": [0.5, 2.0],
                           "lambda_exact": lam, "wall_time_s": wall}, indent=2) + "\n"

    moved, up2 = np.nextafter(2.0, 3.0), np.nextafter(np.nextafter(0.1, 1.0), 1.0)
    outcomes = {"P": {"job/estimate": ["ok", canonical((0, stdout(2.0, 0.0123)))],
                      "job/lams": ["ok", canonical([-5e-324, 0.1, 1.0, math.inf])]},
                "C": {"job/estimate": ["ok", canonical((0, stdout(moved, 1.5e-05)))],
                      "job/lams": ["ok", canonical([5e-324, up2, 2.0, 1.0])]}}
    monkeypatch.setattr(same_outputs, "run_checkout", lambda c, w, s: outcomes[c[-1]])
    assert same_outputs.main(["P", "C", "--workload", "catalog_brackets", "--seed", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: job/estimate",
        "  [1]['lambda_exact']: 2.0 -> 2.0000000000000004 (1 ulp)",
        "differs: job/lams",
        "  [0]: -5e-324 -> 5e-324 (2 ulps)",
        "  [1]: 0.1 -> 0.10000000000000003 (2 ulps)",
        "  [2]: 1.0 -> 2.0 (4503599627370496 ulps)",
        "  [3]: inf -> 1.0",
        "catalog_brackets seed 1: 2 calls, 2 differ, largest move 4503599627370496 ulps: "
        "job/lams [2]"]
    # wall times aside, equal documents are equal; a JSON array parses too,
    # and text that is not a JSON document stays text
    assert canonical((0, stdout(2.0, 0.0123))) == canonical((0, stdout(2.0, 9.0)))
    assert canonical("[1.5, 2]") == ["json", ["list", [float.hex(1.5), 2]]]
    assert canonical("{not json} at 0x7f00") == "{not json} at 0x?"

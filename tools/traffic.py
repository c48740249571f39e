"""List the statements of ``src/bdspec`` that a run never executes, or the
public options and hint keys that no caller sets.

    python3 tools/traffic.py --tests [PYTEST_ARG ...]
    python3 tools/traffic.py --workload W --seed S
    python3 tools/traffic.py --options

``--tests`` runs pytest in-process (the arguments after it go to pytest;
none means the whole suite); ``--workload`` runs one pass of that
``perfbench`` workload's jobs at seed S, every call's exception caught. Each
statement of the package that has bytecode, is not a ``raise`` and ran
nowhere is printed as ``path:line: source``, then their count. Lines are
recorded with ``sys.settrace`` from before the package is imported, so
module-level statements count too; subprocesses and other threads are not
traced. A compound statement counts as run when a line of its header ran
(the lines above its body), any other statement when one of its lines ran.

``--options`` reads the source instead of running it. An option is a
defaulted parameter of a public module-level function of the package outside
``cli``. Each is printed with the files under ``src``, ``tests``,
``perfbench`` and ``tools`` that set it: a call of a function of that name
(plain, as an attribute, or through ``partial``) that passes it by keyword,
by position, or through ``*``/``**`` unpacking. Each key of
``model.HINT_KEYS`` follows with the files that set it: the key, as a
string, keys a dict display or a subscript assigned to. The unset options
and keys follow, then the counts.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import math
import os
import sys
import warnings

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "bdspec")
CALLER_DIRS = ("src", "tests", "perfbench", "tools")


def _code_lines(code) -> set:
    """The lines that carry bytecode in ``code`` and the code nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def statements(path: str) -> dict:
    """{first line: (span of lines)} of the statements in ``path`` that carry
    bytecode, ``raise`` statements left out."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    executable = _code_lines(compile(source, path, "exec"))
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise):
            continue
        body = [n for field in ("body", "orelse", "handlers", "finalbody")
                for n in getattr(node, field, [])]
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        end = min(n.lineno for n in body) - 1 if body else node.end_lineno
        span = range(start, max(end, node.lineno) + 1)
        if executable.intersection(span):
            out[node.lineno] = span
    return out


def trace_lines(paths, run) -> dict:
    """{path: lines executed} of the files ``paths`` while ``run()`` runs."""
    hits = {os.path.abspath(p): set() for p in paths}
    tracers = {}        # co_filename -> its local tracer, or None when not traced

    def tracer(seen):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            seen = hits.get(os.path.abspath(name))
            tracers[name] = None if seen is None else tracer(seen)
        local = tracers[name]
        if local is not None:
            local(frame, "line", arg)
        return local

    old = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(old)
    return hits


def unexecuted(paths, run) -> list:
    """[(path, line)] of the statements of ``paths`` that ``run()`` never executed."""
    hits = trace_lines(paths, run)
    out = []
    for path in sorted(hits):
        for line, span in sorted(statements(path).items()):
            if not hits[path].intersection(span):
                out.append((path, line))
    return out


def public_options(package: str = PACKAGE) -> dict:
    """{(module, function, parameter): position} of the defaulted parameters
    of the public module-level functions in ``package`` outside ``cli``; the
    position is None for a keyword-only parameter."""
    out = {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "cli.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            for i in range(len(positional) - len(a.defaults), len(positional)):
                out[(name[:-3], fn.name, positional[i].arg)] = i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out[(name[:-3], fn.name, arg.arg)] = None
    return out


def _callee(node):
    """(name of the called function, its arguments) of a call node, a
    ``partial(f, ...)`` read as a call of f."""
    func, args = node.func, node.args
    name = getattr(func, "id", getattr(func, "attr", None))
    if name == "partial" and args:
        func, args = args[0], args[1:]
        name = getattr(func, "id", getattr(func, "attr", None))
    return name, args


def hint_keys(package: str = PACKAGE) -> list:
    """The sorted keys of ``HINT_KEYS`` in the package's ``model.py``."""
    with open(os.path.join(package, "model.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == ["HINT_KEYS"])
    return sorted(ast.literal_eval(node.value))


def _caller_trees(root: str):
    """(path relative to ``root``, parsed module) of each Python file of ``CALLER_DIRS``."""
    for top in CALLER_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
            for fname in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, fname)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, root), ast.parse(fh.read())


def option_setters(options: dict, root: str = ROOT) -> dict:
    """{option: sorted files (relative to ``root``) that set it} over the
    Python files of ``CALLER_DIRS``, for the ``options`` of :func:`public_options`."""
    by_name = {}
    for opt, pos in options.items():
        by_name.setdefault(opt[1], []).append((opt, pos))
    found = {opt: set() for opt in options}
    for rel, tree in _caller_trees(root):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node)
            # a *-unpacked argument may fill any later position, and a
            # **-unpacked one (keyword None) any keyword
            reach = math.inf if any(isinstance(x, ast.Starred) for x in args) else len(args)
            keys = {kw.arg for kw in node.keywords}
            for opt, pos in by_name.get(name, ()):
                if opt[2] in keys or None in keys or (pos is not None and pos < reach):
                    found[opt].add(rel)
    return {opt: sorted(files) for opt, files in found.items()}


def hint_setters(keys, root: str = ROOT) -> dict:
    """{key: sorted files (relative to ``root``) that set it} over the Python
    files of ``CALLER_DIRS``: a file sets a hint key where the key, as a
    string, keys a dict display (``{"mu_tail": f}``) or a subscript assigned
    to (``hint["mu_tail"] = f``); reading it (``model.hint("mu_tail")``) does not."""
    found = {key: set() for key in keys}
    for rel, tree in _caller_trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                named = node.keys
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                named = [node.slice]
            else:
                continue
            for k in named:
                if isinstance(k, ast.Constant) and k.value in found:
                    found[k.value].add(rel)
    return {key: sorted(files) for key, files in found.items()}


def _report_options():
    setters = option_setters(public_options())
    hints = hint_setters(hint_keys())
    unset = [opt for opt, files in setters.items() if not files]
    for (module, fn, param), files in setters.items():
        print("%s.%s(%s): %s" % (module, fn, param, ", ".join(files) or "-"))
    for key, files in hints.items():
        print("hint %s: %s" % (key, ", ".join(files) or "-"))
    for module, fn, param in unset:
        print("unset: %s.%s(%s)" % (module, fn, param))
    unset_hints = [key for key, files in hints.items() if not files]
    for key in unset_hints:
        print("unset: hint %s" % key)
    print("%d public options, %d unset; %d hint keys, %d unset"
          % (len(setters), len(unset), len(hints), len(unset_hints)))


def _run_tests(args):
    import pytest
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)          # and for the suite's subprocesses, untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = pytest.main(list(args) or [os.path.join(ROOT, "tests")])
    if code not in (0, 1):
        raise SystemExit("pytest exited %d" % code)


def _run_workload(workload: str, seed: int):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    warnings.simplefilter("ignore")
    with contextlib.redirect_stdout(io.StringIO()):
        import jobs
        for job in jobs.build(workload, seed):
            for _, fn in job.calls:
                try:
                    fn(job.model)
                except Exception:       # failing calls are part of the workload
                    pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tests", action="store_true",
                      help="run pytest; the remaining arguments go to it")
    mode.add_argument("--workload", choices=("paper_tables", "catalog_brackets",
                                             "finite_sweep"))
    mode.add_argument("--options", action="store_true",
                      help="list the public options and hint keys and the files that set them")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args, rest = ap.parse_known_args(argv)
    if rest and not args.tests:
        ap.error("unrecognized arguments: %s" % " ".join(rest))
    if args.options:
        _report_options()
        return 0
    paths = sorted(os.path.join(PACKAGE, f) for f in os.listdir(PACKAGE) if f.endswith(".py"))
    if args.tests:
        missed = unexecuted(paths, lambda: _run_tests(rest))
    else:
        missed = unexecuted(paths, lambda: _run_workload(args.workload, args.seed))
    sources = {}
    for path, line in missed:
        if path not in sources:
            with open(path, encoding="utf-8") as fh:
                sources[path] = fh.read().splitlines()
        print("%s:%d: %s" % (os.path.relpath(path, ROOT), line, sources[path][line - 1].strip()))
    print("%d statements never executed" % len(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

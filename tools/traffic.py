"""List the statements of ``src/bdspec`` that a run never executes.

    python3 tools/traffic.py --tests [PYTEST_ARG ...]
    python3 tools/traffic.py --workload W --seed S

``--tests`` runs pytest in-process (the arguments after it go to pytest;
none means the whole suite); ``--workload`` runs one pass of that
``perfbench`` workload's jobs at seed S, every call's exception caught. Each
statement of the package that has bytecode, is not a ``raise`` and ran
nowhere is printed as ``path:line: source``, then their count. Lines are
recorded with ``sys.settrace`` from before the package is imported, so
module-level statements count too; subprocesses and other threads are not
traced. A compound statement counts as run when a line of its header ran
(the lines above its body), any other statement when one of its lines ran.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import warnings

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "bdspec")


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
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args, rest = ap.parse_known_args(argv)
    if rest and not args.tests:
        ap.error("unrecognized arguments: %s" % " ".join(rest))
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

"""Line-coverage gate: every statement in src/fermatkit runs under Tier-1.

    python3 tools/linecov.py

installs a `sys.settrace` line tracer, runs the Tier-1 suite in this
process and prints each statement of `src/fermatkit` that never ran. It
exits 1 if Tier-1 fails or if a statement that never ran is none of:

- a `raise`;
- a `global` or `nonlocal` declaration, which emits no line event;
- the body of `if __name__ == "__main__":`, which runs only in
  subprocesses;
- a line carrying the tag `# untested: <reason>`.

A statement is the first line of an `ast.stmt` that compiles to bytecode,
so docstrings, `global` and `nonlocal` do not count; a statement that
shares its line with one that ran counts as run. Tests that start a
subprocess are not traced.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fermatkit"
TAG = "# untested:"


def _code_lines(code):
    """Lines that carry bytecode in `code` or in any code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_main_guard(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(source, filename):
    """{line: exemption} for every statement line of `source`; the exemption
    is None for a line that must run, else the name of its exemption. A
    line holding several statements is exempt only if all of them are."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    code_lines = _code_lines(compile(tree, filename, "exec"))
    guarded = {n.lineno for node in tree.body if _is_main_guard(node)
               for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.stmt)}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno not in code_lines:
            continue
        line = node.lineno
        if TAG in lines[line - 1]:
            why = "untested"
        elif line in guarded:
            why = "main guard"
        else:
            why = "raise" if isinstance(node, ast.Raise) else None
        out[line] = None if line in out and out[line] is None else why
    return out


def never_run(source, filename, hits):
    """[(line, exemption)] for each statement line of `source` not in `hits`."""
    return sorted((line, why) for line, why in statements(source, filename).items()
                  if line not in hits)


def traced_tier1(files):
    """Run Tier-1 under a line tracer; return (pytest's exit code,
    {file: lines hit}) for the statement lines of `files` ({path: source})."""
    import pytest

    wanted = {path: set(statements(source, path)) for path, source in files.items()}
    hits = {path: set() for path in files}
    keys = {}      # co_filename -> path in `files`, or None
    pending = {}   # code object -> its statement lines not hit yet

    def on_line(frame, event, arg):
        if event != "line":
            return on_line
        code = frame.f_code
        hits[keys[code.co_filename]].add(frame.f_lineno)
        rest = pending[code]
        rest.discard(frame.f_lineno)
        return on_line if rest else None

    def on_call(frame, event, arg):
        code = frame.f_code
        rest = pending.get(code)
        if rest is None:
            name = code.co_filename
            if name not in keys:
                path = os.path.realpath(name)
                keys[name] = path if path in wanted else None
            path = keys[name]
            if path is None:
                return None
            # The header line of a def or class is hit in the enclosing frame.
            skip = code.co_firstlineno if code.co_name != "<module>" else None
            rest = pending[code] = {line for _, _, line in code.co_lines()
                                    if line in wanted[path] and line != skip}
        return on_line if rest else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main():
    files = {os.path.realpath(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    status, hits = traced_tier1(files)
    total = failing = exempt = 0
    for path, source in files.items():
        lines = source.splitlines()
        total += len(statements(source, path))
        for line, why in never_run(source, path, hits[path]):
            rel = os.path.relpath(path, ROOT)
            print(f"{rel}:{line}: [{why or 'NEVER RAN'}] {lines[line - 1].strip()}")
            exempt += why is not None
            failing += why is None
    print(f"{total} statements; {exempt + failing} never ran: {exempt} exempt, {failing} not exempt")
    if status != 0:
        print(f"Tier-1 failed (pytest exit code {status})")
    return 1 if status or failing else 0


if __name__ == "__main__":
    sys.exit(main())

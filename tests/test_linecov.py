"""The analysis of the line-coverage gate `tools/linecov.py`, fed a hit set
by hand instead of a traced run of the suite."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "linecov", Path(__file__).resolve().parents[1] / "tools" / "linecov.py")
linecov = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecov)

SOURCE = '''\
"""A module."""
import sys


def f(x):
    """A docstring is no statement."""
    global COUNT
    if x < 0:
        raise ValueError("negative")
    if x == 0:
        return sys.maxsize  # untested: a tagged line
    y = x + 1
    return y


if __name__ == "__main__":
    print(f(1))
'''


def test_reports_an_unrun_statement_and_nothing_exempt():
    statements = linecov.statements(SOURCE, "<t>")
    assert {6, 7}.isdisjoint(statements)  # docstring and global emit no code
    hits = set(statements) - {9, 11, 12, 17}
    missed = linecov.never_run(SOURCE, "<t>", hits)
    assert missed == [(9, "raise"), (11, "untested"), (12, None), (17, "main guard")]
    assert [line for line, why in missed if why is None] == [12]
    assert linecov.never_run(SOURCE, "<t>", set(statements)) == []

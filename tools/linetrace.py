"""pytest plugin: list every line of src/hml that a test run never executes.

Usage (from the repository root):

    PYTHONPATH=tools python -m pytest -p linetrace -q

It traces with the standard library's ``sys.settrace`` (no coverage package
needed), from the moment pytest imports this plugin: that is before any
conftest imports hml, so module-level lines count.  A line is a statement's
first line that has bytecode; docstrings and ``global`` statements have
none.  Only this process is traced, so code run only in subprocesses (the
``python -m hml`` tests) lists as unexecuted.  The terminal summary prints
each unexecuted line as ``path:line: source``.  Tracing slows a run about
twofold.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hml"
_PREFIX = str(SRC) + os.sep

_watched: dict = {}      # co_filename -> its real path under SRC, or None
_executed: set = set()   # (real path, line)


def _lines(frame, event, arg):
    if event == "line":
        _executed.add((_watched[frame.f_code.co_filename], frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _watched:
        real = os.path.realpath(name)
        _watched[name] = real if real.startswith(_PREFIX) else None
    return _lines if _watched[name] else None


sys.settrace(_calls)
threading.settrace(_calls)


def _code_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines(path: Path) -> set:
    """First lines of the statements of a source file that have bytecode."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def unexecuted() -> list:
    """(path, line, source) of every executable line of SRC not run."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        real = os.path.realpath(path)
        text = path.read_text().splitlines()
        out += [(path, n, text[n - 1].strip())
                for n in sorted(executable_lines(path))
                if (real, n) not in _executed]
    return out


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = unexecuted()
    root = SRC.parents[1]
    terminalreporter.write_sep("=", f"linetrace: {len(missed)} lines of "
                                    f"src/hml never executed")
    for path, n, text in missed:
        terminalreporter.write_line(f"{path.relative_to(root)}:{n}: {text}")

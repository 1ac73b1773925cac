"""pytest plugin: list every line of src/hml that a test run never executes.

Usage (from the repository root):

    PYTHONPATH=tools python -m pytest -p linetrace -q --hypothesis-seed=1

It traces with the standard library's ``sys.settrace`` (no coverage package
needed), from the moment pytest imports this plugin: that is before any
conftest imports hml, so module-level lines count.  A line is a statement's
first line that has bytecode; docstrings and ``global`` statements have
none.  Only this process is traced, so code run only in subprocesses (the
``python -m hml`` tests) lists as unexecuted.  The terminal summary prints
each unexecuted line as ``path:line: source``.  The seed pins the fuzz
tests' draws, so two runs on one checkout list the same lines.  Tracing
slows a run about twofold.

A line trace cannot see a condition that is always true, since its line
runs either way.  So the trace keeps arcs, each line event with the line
that ran before it in the same frame, and counts them.  An arc out of an
``if`` or ``while`` test into its body is the test coming out true; any
other arc out of it, or a return from it, is the test coming out false.
The summary lists, with its count, every such test that ran but went only
one way.

The rule: every unexecuted line is the first line of a ``raise`` statement
(a refusal of input no test sends) or is in ``__main__.py`` (run only in a
subprocess).  Any other unexecuted line is a branch no test reaches, which
needs a test or a deletion; the summary names each such line and the run
exits nonzero even if every test passed.
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
_arcs: dict = {}         # (real path, previous line, line) -> times taken

# arc ends that are not lines: a frame's start, the line after an
# exception (which the test did not choose) and a return
_START, _RAISED, _RETURN = 0, -1, -2


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _watched:
        real = os.path.realpath(name)
        _watched[name] = real if real.startswith(_PREFIX) else None
    path = _watched[name]
    if path is None:
        return None
    prev = _START

    def lines(frame, event, arg):
        nonlocal prev
        if event == "line" or event == "return":
            line = frame.f_lineno if event == "line" else _RETURN
            arc = (path, prev, line)
            _arcs[arc] = _arcs.get(arc, 0) + 1
            prev = line
        elif event == "exception":
            prev = _RAISED
        return lines
    return lines


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


def raise_lines(path: Path) -> set:
    """First lines of the ``raise`` statements of a source file."""
    return {node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)}


def unexecuted() -> list:
    """(path, line, source) of every executable line of SRC not run."""
    executed = {(path, line) for path, _, line in _arcs}
    out = []
    for path in sorted(SRC.glob("*.py")):
        real = os.path.realpath(path)
        text = path.read_text().splitlines()
        out += [(path, n, text[n - 1].strip())
                for n in sorted(executable_lines(path))
                if (real, n) not in executed]
    return out


def one_way() -> list:
    """(path, line, source, outcome, count) of every ``if`` or ``while``
    test of SRC that ran and came out only true or only false."""
    exits: dict = {}     # (real path, line) -> [(next line, count)]
    for (path, prev, line), n in _arcs.items():
        exits.setdefault((path, prev), []).append((line, n))
    out = []
    for path in sorted(SRC.glob("*.py")):
        real = os.path.realpath(path)
        source = path.read_text()
        text = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.If, ast.While)):
                continue
            test = range(node.lineno, node.test.end_lineno + 1)
            body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
            if body[0] in test:        # a one-line body: no arc tells
                continue
            counts = {True: 0, False: 0}
            for at in test:
                for line, n in exits.get((real, at), ()):
                    if line not in test:
                        counts[line in body] += n
            for outcome, never in ((True, False), (False, True)):
                if counts[outcome] and not counts[never]:
                    out.append((path, node.lineno, text[node.lineno - 1]
                                .strip(), outcome, counts[outcome]))
    return sorted(out, key=lambda entry: entry[:2])


def breaches(missed: list) -> list:
    """The entries of ``unexecuted()`` that the rule does not allow."""
    raises = {path: raise_lines(path) for path, _, _ in missed}
    return [(path, n, text) for path, n, text in missed
            if path.name != "__main__.py" and n not in raises[path]]


_found: dict = {}    # the session's unexecuted lines and breaches


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    _found["missed"] = unexecuted()
    _found["breaches"] = breaches(_found["missed"])
    _found["one_way"] = one_way()
    if _found["breaches"] and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    root = SRC.parents[1]
    missed = _found["missed"]
    terminalreporter.write_sep("=", f"linetrace: {len(missed)} lines of "
                                    f"src/hml never executed")
    for path, n, text in missed:
        terminalreporter.write_line(f"{path.relative_to(root)}:{n}: {text}")
    for path, n, text in _found["breaches"]:
        terminalreporter.write_line(f"linetrace: {path.relative_to(root)}:{n} "
                                    f"is neither a raise nor in __main__.py")
    one_way = _found["one_way"]
    terminalreporter.write_sep("=", f"linetrace: {len(one_way)} conditions "
                                    f"of src/hml went only one way")
    for path, n, text, outcome, count in one_way:
        terminalreporter.write_line(
            f"{path.relative_to(root)}:{n}: {text}  "
            f"[{'true' if outcome else 'false'} {count} times]")

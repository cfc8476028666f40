"""Line coverage gate: every function-body line of src/dualqp/ must run.

    PYTHONPATH=src:tests python -m pytest -q -p line_coverage

A pytest plugin, on the standard library alone.  From pytest_configure
on, sys.settrace and threading.settrace trace the frames of code under
src/dualqp/; when the session ends, every line that the bytecode of a
function body (a def, a lambda or a comprehension, at any depth) maps
to and that no test ran is printed, and the session fails.
Module-level and class-body lines run on import, so they are not
counted: the cli's __main__ guard is one of them.  EXEMPT names the
functions that the gate does not count, each with its reason; it is
empty.  Tests that run the program in a child Python are not seen by
the tracer, so the gate holds only when the in-process tests reach
every line.
"""

import inspect
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dualqp")

# "module.py:qualified name" -> why the gate does not count its lines
EXEMPT = {}

_hits = set()  # (file, line) pairs that ran


def _trace_lines(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(SRC + os.sep):
        return None
    _hits.add((code.co_filename, code.co_firstlineno))  # the def line
    return _trace_lines


def function_lines(path):
    """{line: qualified name} of every function-body line in the file
    at path, the def line of each function included."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    lines = {}
    todo = [c for c in module.co_consts if inspect.iscode(c)]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:  # not a class body
            for _, _, line in code.co_lines():
                if line is not None:
                    lines.setdefault(line, code.co_qualname)
    return lines


def unreached():
    """Sorted (file name, line, qualified name) of the counted lines
    that no traced frame ran."""
    missing = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        for line, qualname in sorted(function_lines(path).items()):
            if (f"{name}:{qualname}" not in EXEMPT
                    and (path, line) not in _hits):
                missing.append((name, line, qualname))
    return missing


def pytest_configure(config):
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    missing = unreached()
    session.config._line_coverage_missing = missing
    if missing and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missing = getattr(config, "_line_coverage_missing", [])
    write = terminalreporter.write_line
    if not missing:
        write("line coverage: every function-body line of src/dualqp/ ran")
        return
    write(f"line coverage: {len(missing)} function-body line(s) of "
          f"src/dualqp/ never ran:")
    for name, line, qualname in missing:
        write(f"  src/dualqp/{name}:{line} in {qualname}")

"""Reach audit: every function-body line of ``src/rtmodes`` that a pytest run never executes.

An opt-in pytest plugin, stdlib only.  Its name has no ``test_`` prefix, so
the default run neither collects nor loads it; load it with ``-p``:

    PYTHONPATH=src python -m pytest -q -p tests.reach_audit

Lines are traced with ``sys.settrace``, which makes the run about a quarter
slower.  Python interpreters that the tests start as ``sys.executable`` are
traced too: the plugin puts a ``sitecustomize`` of its own first on their
``PYTHONPATH``, and each one writes the lines it ran to a file.  The report
merges those files and counts the interpreters in its last line; ones
started any other way are not followed.  A function-body line is a line that the line
table of a function, lambda or comprehension of the package names, other
than its ``def`` line; module and class bodies run at import and are not
audited.
"""

import inspect
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "rtmodes")

# the child interpreters' tracer: imports only modules that start-up has loaded
_CHILD = """\
import atexit, os, sys
_seen = set()
def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line
def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(%(package)r) else None
def _dump():
    sys.settrace(None)
    with open(os.path.join(%(out)r, "%%d.txt" %% os.getpid()), "w") as fh:
        fh.writelines("%%s\\t%%d\\n" %% hit for hit in _seen)
atexit.register(_dump)
sys.settrace(_call)
"""

_seen = set()
_state = {}


def _line(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(PACKAGE) else None


def function_body_lines(path):
    """Every line that a function, lambda or comprehension of the module at ``path`` runs."""
    lines, stack = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(n for _, _, n in code.co_lines()
                         if n is not None and n != code.co_firstlineno)
    return lines


def _follow(popen_init):
    """Popen.__init__ that starts each child ``sys.executable`` with the tracing sitecustomize."""
    def init(self, args, *rest, **kwargs):
        if isinstance(args, (list, tuple)) and args and args[0] == sys.executable:
            env = dict(os.environ if kwargs.get("env") is None else kwargs["env"])
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (_state["dir"], env.get("PYTHONPATH")) if p)
            kwargs["env"] = env
            _state["children"] += 1
        popen_init(self, args, *rest, **kwargs)
    return init


def pytest_sessionstart(session):
    _state["tmp"] = tempfile.TemporaryDirectory(prefix="reach-audit-")
    _state["dir"] = _state["tmp"].name
    _state["children"] = 0
    Path(_state["dir"], "sitecustomize.py").write_text(
        _CHILD % {"package": PACKAGE, "out": _state["dir"]})
    _state["popen_init"] = subprocess.Popen.__init__
    subprocess.Popen.__init__ = _follow(_state["popen_init"])
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    subprocess.Popen.__init__ = _state["popen_init"]
    for dump in Path(_state["dir"]).glob("*.txt"):
        for row in dump.read_text().splitlines():
            name, line = row.rsplit("\t", 1)
            _seen.add((name, int(line)))
    _state["tmp"].cleanup()


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("reach audit: function-body lines of src/rtmodes not executed")
    total = missed = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        body = function_body_lines(path)
        unreached = sorted(n for n in body if (str(path), n) not in _seen)
        total += len(body)
        missed += len(unreached)
        source = path.read_text().splitlines()
        for n in unreached:
            write("%s:%d: %s" % (path.name, n, source[n - 1].strip()))
    write("%d of %d function-body lines not executed; %d child interpreters traced "
          "(only those started as sys.executable are followed)" % (missed, total, _state["children"]))

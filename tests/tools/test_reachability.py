"""Tests for the reachability audit's function listing, call records and report.

The audit keys every function by ``(file, first line)`` on both sides: the
listing reads it from the source with :mod:`ast`, the profile hook from each
called code object's ``co_firstlineno``.  These tests check that the two keys
agree, on ``src/repro`` and on a small package written for the test; the
audit's entry-point runs are not exercised here.
"""

import importlib.util
import inspect
import signal
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reachability.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = _load_tool()

#: A decorated function, a property, a method under a decorator, a nested
#: function, and one function nothing calls.
FIXTURE = '''\
import functools


def traced(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)

    return wrapper


class Shape:
    @property
    def area(self):
        return 2

    @traced
    def scaled(self, factor):
        def times(value):
            return value * factor

        return times(self.area)


def unused():
    return None
'''


def _compiled_functions(path):
    """``(first line, name)`` of every function the compiler builds for ``path``."""
    found = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if inspect.iscode(const):
                stack.append(const)
                # Class bodies have no fresh locals; lambdas and comprehensions are "<...>".
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found.add((const.co_firstlineno, const.co_name))
    return found


def _fixture_package(tmp_path):
    package = tmp_path / "audit_fixture"
    package.mkdir()
    (package / "__init__.py").write_text(FIXTURE)
    return package


def test_listed_functions_are_the_compiled_functions():
    listed = {}
    for function in reachability.list_functions():
        listed.setdefault(function.path, set()).add((function.first_line, function.qualname.rsplit(".", 1)[-1]))
    paths = {path.resolve() for path in reachability.PACKAGE.rglob("*.py")}
    assert set(listed) <= paths
    for path in sorted(paths):
        assert listed.get(path, set()) == _compiled_functions(path), path


def test_hook_records_the_keys_the_listing_makes(tmp_path):
    package = _fixture_package(tmp_path)
    listed = {function.qualname: reachability.key(function) for function in reachability.list_functions(package)}
    assert set(listed) == {
        "traced",
        "traced.<locals>.wrapper",
        "Shape.area",
        "Shape.scaled",
        "Shape.scaled.<locals>.times",
        "unused",
    }
    audit = reachability.Audit(tmp_path, package=package)
    audit.run("child", "fixture", ["-c", "import audit_fixture; assert audit_fixture.Shape().scaled(3) == 6"], tmp_path)
    assert audit.failures == []
    recorded = audit.reached("child")
    assert {qualname for qualname, key in listed.items() if key in recorded} == set(listed) - {"unused"}


def test_hook_restores_the_interrupt_handler_a_background_shell_ignores(tmp_path):
    """``repro serve`` stops on SIGINT; a child of a backgrounded shell starts
    with SIGINT ignored, and the hook puts Python's handler back."""
    audit = reachability.Audit(tmp_path)
    probe = "import signal; print(signal.getsignal(signal.SIGINT) is signal.default_int_handler)"

    def run(env):
        return subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    assert run(audit.env("child")) == "True"
    assert run({key: value for key, value in audit.env("child").items() if key != "PYTHONPATH"}) == "False"


def test_summary_counts_then_lists_test_only_and_never_run_functions():
    def function(name, first_line, lines):
        return reachability.Function(reachability.PACKAGE / "mod.py", first_line, name, lines)

    reached, test_only, never_run = function("reached", 1, 3), function("test_only", 5, 4), function("never", 10, 2)
    entry = {reachability.key(reached)}
    tests = {reachability.key(reached), reachability.key(test_only)}
    assert reachability.summary([reached, test_only, never_run], entry, tests) == [
        "functions in src/repro: 3 (9 lines)",
        "reached by an entry point: 1",
        "test-only: 1 (4 lines)",
        "never run: 1 (2 lines)",
        "",
        "test-only:",
        f"  {'src/repro/mod.py:5':<48} test_only (4 lines)",
        "",
        "never run:",
        f"  {'src/repro/mod.py:10':<48} never (2 lines)",
    ]

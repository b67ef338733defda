#!/usr/bin/env python
"""Function-level reachability audit of ``src/repro``.

Lists every function and method under ``src/repro`` with :mod:`ast`, then runs
two sets of entry points in child processes.  Each child records the code
objects it calls through a ``sys.setprofile``/``threading.setprofile`` hook
that a generated ``sitecustomize`` module installs, so processes the children
start are recorded too.  Every function then lands in one of three groups:

* reached: an entry point calls it.  The entry points are the six examples,
  the four perfbench workloads at seed 1, ``repro run`` of every registered
  study, ``repro spec``, ``list`` and ``cache``, ``repro serve`` answering two
  submissions, and ``pytest benchmarks --benchmark-disable``;
* test-only: only ``pytest tests`` calls it;
* never run: nothing calls it.

Run it from anywhere with the standard library alone; it takes about four
minutes on a 2-CPU host, and prints the counts of each group followed by
every test-only and never-run function::

    python tools/reachability.py

The groups over-report dead code: public API that only README shows (such as
``SweepRunner.run_grid``) counts as test-only, and code a child reaches while
another profiler is installed (pytest-benchmark pauses the hook around timed
calls, hence ``--benchmark-disable``) goes unrecorded.  The hook slows every
Python call, so a benchmark's timing floor can fail under it; the failure is
reported, and what the child ran still counts.
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

EXAMPLES = (
    "quickstart.py",
    "inference_serving_study.py",
    "gpu_generation_comparison.py",
    "capacity_planning.py",
    "custom_accelerator_dse.py",
    "declarative_study.py",
)
WORKLOADS = ("sweep_cold", "service_mix", "fleet_diurnal", "fleet_faults")
#: Per-child limit; a profiled child runs several times slower than usual.
CHILD_TIMEOUT_S = 1800

#: Installed in every child through ``sitecustomize``: record each called code
#: object of ``src/repro`` and write the set to a file at exit.
HOOK = '''
import atexit, json, os, signal, sys, threading

_SEEN = set()


def _hook(frame, event, arg, _add=_SEEN.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    root = os.environ["REACHABILITY_PACKAGE"] + os.sep
    real = {}
    records = set()
    for code in list(_SEEN):
        name = code.co_filename
        if name not in real:
            real[name] = os.path.realpath(name)
        if real[name].startswith(root):
            records.add((real[name], code.co_firstlineno))
    target = os.path.join(os.environ["REACHABILITY_OUT"], "%d.json" % os.getpid())
    with open(target, "w") as handle:
        json.dump(sorted(records), handle)


# A child of a shell that backgrounded the audit inherits an ignored SIGINT,
# and Python then installs no KeyboardInterrupt handler: `repro serve` would
# never return from serve_forever, so it would never write its record.
if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
    signal.signal(signal.SIGINT, signal.default_int_handler)
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


class Function(NamedTuple):
    path: Path
    first_line: int  # the first decorator's line: what ``co_firstlineno`` reports
    qualname: str
    lines: int


def list_functions(package: Path = PACKAGE) -> List[Function]:
    """Every ``def`` under ``package``, nested ones included."""
    functions: List[Function] = []

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [decorator.lineno for decorator in child.decorator_list])
                qualname = prefix + child.name
                functions.append(Function(path, first, qualname, child.end_lineno - first + 1))
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), "")
    return functions


class Audit:
    """Runs children with the hook installed and collects what they called."""

    def __init__(self, scratch: Path, package: Path = PACKAGE) -> None:
        self.scratch = scratch
        self.package = package
        self.work = scratch / "work"
        self.work.mkdir()
        hook_dir = scratch / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        self.pythonpath = os.pathsep.join(
            [str(hook_dir), str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.failures: List[str] = []

    def env(self, group: str) -> Dict[str, str]:
        out = self.scratch / group
        out.mkdir(exist_ok=True)
        return dict(
            os.environ,
            PYTHONPATH=self.pythonpath,
            REACHABILITY_PACKAGE=str(self.package.resolve()),
            REACHABILITY_OUT=str(out),
        )

    def run(self, group: str, label: str, argv: List[str], cwd: Path) -> None:
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, *argv],
            cwd=cwd,
            env=self.env(group),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
        )
        self.report(label, completed.returncode, started, completed.stdout)

    def report(self, label: str, returncode: int, started: float, output: bytes) -> None:
        print(f"  {label}: exit {returncode} in {time.perf_counter() - started:.1f} s", file=sys.stderr)
        if returncode != 0:
            self.failures.append(label)
            sys.stderr.write(output.decode(errors="replace")[-3000:])

    def serve(self, group: str) -> None:
        """``repro serve`` answering a registered-study and an inline-spec submission."""
        started = time.perf_counter()
        spec = json.loads((self.work / "spec.json").read_text())
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
             "--cache-dir", str(self.work / "serve-cache")],
            cwd=self.work,
            env=self.env(group),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        client_error = b""
        try:
            line = server.stderr.readline().decode()
            if "listening on " not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            base = line.split("listening on ")[1].split()[0]
            for submission in ({"study": "table4_gemm_bottlenecks"}, spec):
                request = urllib.request.Request(
                    base + "/studies", data=json.dumps(submission).encode(), method="POST"
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    job = json.loads(response.read())["job"]
                with urllib.request.urlopen(base + job["links"]["events"], timeout=CHILD_TIMEOUT_S) as response:
                    response.read()  # the NDJSON stream ends when the job does
                with urllib.request.urlopen(base + job["links"]["table_csv"], timeout=60) as response:
                    response.read()
            with urllib.request.urlopen(base + "/stats", timeout=60) as response:
                response.read()
        except (OSError, RuntimeError) as error:
            client_error = f"client: {error}\n".encode()
        finally:
            server.send_signal(signal.SIGINT)
            try:
                _, stderr = server.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                _, stderr = server.communicate()
        # A failed request fails the entry point even when the server exits cleanly.
        returncode = server.returncode or (1 if client_error else 0)
        self.report("repro serve", returncode, started, stderr + client_error)

    def entry_points(self) -> None:
        group = "entry"
        for example in EXAMPLES:
            self.run(group, f"examples/{example}", [str(REPO / "examples" / example)], self.work)
        for workload in WORKLOADS:
            self.run(
                group,
                f"perfbench {workload}",
                [str(REPO / "perfbench" / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1"],
                self.work,
            )
        cache = ["--cache-dir", str(self.work / "cache")]
        self.run(group, "repro list", ["-m", "repro", "list", "--models", "--systems", "--extractors"], self.work)
        names = subprocess.run(
            [sys.executable, "-c", "from repro.studies import list_studies\n"
             "print('\\n'.join(entry.name for entry in list_studies()))"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
        ).stdout.split()
        for name in names:
            self.run(group, f"repro run {name}", ["-m", "repro", "run", name, *cache,
                                                   "--csv", str(self.work / f"{name}.csv")], self.work)
        self.run(group, "repro spec", ["-m", "repro", "spec", "fig8_inference_boundedness",
                                       "-o", str(self.work / "spec.json")], self.work)
        self.run(group, "repro run spec.json", ["-m", "repro", "run", str(self.work / "spec.json"), *cache,
                                                "--json", str(self.work / "spec-result.json")], self.work)
        for verb in ("stats", "prune", "clear"):
            self.run(group, f"repro cache {verb}", ["-m", "repro", "cache", verb, *cache], self.work)
        self.serve(group)
        self.run(group, "pytest benchmarks", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                                              "--benchmark-disable", "benchmarks"], REPO)

    def tests(self) -> None:
        self.run("tests", "pytest tests", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"], REPO)

    def reached(self, group: str) -> Set[Tuple[str, int]]:
        seen: Set[Tuple[str, int]] = set()
        for record in (self.scratch / group).glob("*.json"):
            seen.update((path, line) for path, line in json.loads(record.read_text()))
        return seen


def key(function: Function) -> Tuple[str, int]:
    """What the profile hook records for ``function``'s code object."""
    return (str(function.path), function.first_line)


def summary(functions: List[Function], entry: Set[Tuple[str, int]], tests: Set[Tuple[str, int]]) -> List[str]:
    """The report: each group's count, then every test-only and never-run function."""
    test_only = [f for f in functions if key(f) not in entry and key(f) in tests]
    never_run = [f for f in functions if key(f) not in entry and key(f) not in tests]
    lines = [
        f"functions in src/repro: {len(functions)} ({sum(f.lines for f in functions):,} lines)",
        f"reached by an entry point: {len(functions) - len(test_only) - len(never_run)}",
        f"test-only: {len(test_only)} ({sum(f.lines for f in test_only):,} lines)",
        f"never run: {len(never_run)} ({sum(f.lines for f in never_run):,} lines)",
    ]
    for title, group in (("test-only", test_only), ("never run", never_run)):
        lines += ["", f"{title}:"]
        for function in group:
            where = f"{function.path.relative_to(REPO.resolve())}:{function.first_line}"
            lines.append(f"  {where:<48} {function.qualname} ({function.lines} lines)")
    return lines


def main() -> int:
    functions = list_functions()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        audit = Audit(Path(scratch))
        print("entry points:", file=sys.stderr)
        audit.entry_points()
        print("unit tests:", file=sys.stderr)
        audit.tests()
        entry, tests = audit.reached("entry"), audit.reached("tests")
    print("\n".join(summary(functions, entry, tests)))
    if audit.failures:
        print(f"\nentry points that failed (their calls still count): {', '.join(audit.failures)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

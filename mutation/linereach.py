"""Which body lines of ``src/qdpool`` a pytest run reaches: a pytest plugin.

Run it over the whole Tier-1 suite from the repository root, without
``-x`` (criterion 1's wall budget can fail under tracing)::

    PYTHONPATH=src:mutation python -m pytest -q -p linereach \\
        --linereach-report /tmp/qdpool-linereach.txt

It traces with ``sys.settrace`` and ``threading.settrace`` only, so it
needs nothing beyond the standard library.  It installs its tracer again
before each test, in case a test or a tool replaced it, and records the
lines of ``src/qdpool`` run in the pytest process and its threads; every
other frame, a frame without a file (``<string>``, ``<frozen …>``)
included, gets no line tracing.  A process forked from the pytest
process, such as a :func:`qdpool.engine.run_many` worker, keeps the
tracer and sends each line it reaches first to a side file, with the test
that was running at the fork.  A process started by ``subprocess`` is a
new interpreter, so what it runs is not seen.

A body line is a line of a function's bytecode other than its prologue;
module and class bodies run at import, before any test, and are not
counted.  The report, which must lie outside the repository, gives the
reached and total body lines, the lines reached only in forked processes
with the test that forked them, and each unreached line with its text,
grouped by function.  A function listed in :data:`EXPLAINED` gets its
reason beside its unreached lines, and the outcome in this run of the
test named there.  It needs Python 3.11 or later (``co_qualname`` and
instruction positions).
"""

from __future__ import annotations

import dis
import inspect
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

import pytest

import qdpool

PACKAGE = Path(qdpool.__file__).resolve().parent
REPOSITORY = PACKAGE.parents[1]

# Functions whose unreached body lines run only where this plugin cannot
# record them, or have no caller in the package: (file, function) ->
# (why, the test that runs them out of the pytest process, or None).
EXPLAINED = {
    ("cli.py", "main"): (
        "the broken-pipe branch runs only in a `qdpool compare` subprocess whose reader "
        "closes the pipe",
        "tests/test_cli.py::TestCompare::test_a_closed_pipe_ends_compare_without_a_traceback",
    ),
    ("archive.py", "Archive.offer_candidate"): (
        "only the benchmark tracer (perfbench/tracer.py) calls it",
        None,
    ),
}

_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def body_lines(path: Path) -> dict[int, str]:
    """Each body line of the module at ``path``, mapped to the qualified
    name of the innermost function that holds it.

    The body of a function or lambda counts, and so does every code
    object inside one.  A comprehension in a module or class body runs
    at import, and counts no more than that body does.  Instructions up
    to a function's first ``RESUME`` run before its first line event.
    """
    code = compile(path.read_text(), str(path), "exec")
    lines: dict[int, str] = {}
    stack = [(code, False)]
    while stack:
        co, counted = stack.pop()
        # CO_OPTIMIZED marks a function's code, not a module's or a class body's
        counted = counted or (
            bool(co.co_flags & inspect.CO_OPTIMIZED) and co.co_name not in _COMPREHENSIONS
        )
        stack.extend((c, counted) for c in co.co_consts if isinstance(c, types.CodeType))
        if not counted:
            continue
        instructions = list(dis.get_instructions(co))
        first = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME")
        for ins in instructions[first + 1 :]:
            if ins.positions.lineno is not None:
                lines.setdefault(ins.positions.lineno, co.co_qualname)
    return lines


class LineReach:
    """The tracer and the report of one pytest session, registered as a
    plugin of that session."""

    def __init__(self, report: Path):
        self.report = report
        self.seen: set[tuple[str, int]] = set()
        self.test = None  # node id of the running test
        self.outcomes: dict[str, str] = {}
        self._traced: dict[object, object] = {}  # code object -> its local tracer or None
        self._child_fd = None  # in a forked process, the side file
        fd, side = tempfile.mkstemp(prefix="linereach-forked-")
        os.close(fd)
        self.side = Path(side)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._child_fd = os.open(self.side, os.O_WRONLY | os.O_APPEND)

    def _global(self, frame, event, arg):
        """The tracer of each call: the line tracer of its file if the file
        is a module of the package, else None."""
        code = frame.f_code
        local = self._traced.get(code, False)
        if local is False:
            filename = code.co_filename
            # a frame without a file has a name such as "<string>"
            path = None if not filename or filename.startswith("<") else os.path.realpath(filename)
            local = self._traced[code] = (
                self._line_tracer(path) if path and Path(path).parent == PACKAGE else None
            )
        return local

    def _line_tracer(self, path: str):
        seen = self.seen

        def local(frame, event, arg):
            if event == "line":
                key = (path, frame.f_lineno)
                if key not in seen:
                    seen.add(key)
                    if self._child_fd is not None:
                        os.write(self._child_fd, f"{path}\t{key[1]}\t{self.test}\n".encode())
            return local

        return local

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.test = item.nodeid
        self.install()
        return (yield)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.outcomes[report.nodeid] = "failed"
        elif report.when == "call" or report.skipped:
            self.outcomes.setdefault(report.nodeid, report.outcome)

    def pytest_sessionfinish(self, session):
        self.uninstall()
        self.reached, self.total = self.write()

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_line(
            f"line reach: {self.reached} of {self.total} body lines of src/qdpool; report in {self.report}"
        )

    def install(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def forked(self) -> dict[tuple[str, int], str]:
        """Lines first reached in a forked process, with the test that forked it."""
        lines = {}
        for row in self.side.read_text().splitlines():
            filename, lineno, test = row.split("\t")
            lines.setdefault((filename, int(lineno)), test)
        return lines

    def write(self) -> tuple[int, int]:
        """Writes the report; returns the reached and total body lines."""
        forked = self.forked()
        self.side.unlink()
        reached = total = 0
        only_forked: dict[tuple[str, str, str], list[int]] = {}
        unreached: dict[tuple[str, str], list[tuple[int, str]]] = {}
        for path in sorted(PACKAGE.glob("*.py")):
            text = path.read_text().splitlines()
            for lineno, function in sorted(body_lines(path).items()):
                key = (str(path), lineno)
                total += 1
                if key in self.seen:
                    reached += 1
                elif key in forked:
                    reached += 1
                    only_forked.setdefault((path.name, function, forked[key]), []).append(lineno)
                else:
                    unreached.setdefault((path.name, function), []).append(
                        (lineno, text[lineno - 1].strip())
                    )
        out = [
            f"line reach of {PACKAGE.relative_to(REPOSITORY)}: {reached} of {total} body lines "
            f"({100 * reached / total:.1f}%)",
            f"unreached: {total - reached} lines in {len(unreached)} functions, "
            f"{sum(1 for f in unreached if f not in EXPLAINED)} of them without a reason",
            "",
            "reached only in a forked process:",
        ]
        for (name, function, test), lines in only_forked.items():
            out.append(f"  {name} {function}: lines {_ranges(lines)}, forked by {test}")
        out += ["", "unreached:"]
        for (name, function), lines in unreached.items():
            why, test = EXPLAINED.get((name, function), ("no reason given", None))
            if test is not None:
                why += f"; reached by {test} ({self.outcomes.get(test, 'not run')})"
            out.append(f"  {name} {function}: {why}")
            out += [f"    {name}:{lineno}: {source}" for lineno, source in lines]
        self.report.write_text("\n".join(out) + "\n")
        return reached, total


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    spans = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_addoption(parser):
    parser.addoption(
        "--linereach-report", metavar="PATH",
        help="trace the body lines of src/qdpool and write their reach to PATH, outside the repository",
    )


def pytest_configure(config):
    report = config.getoption("--linereach-report")
    if report is None:
        return
    report = Path(report).resolve()
    if report.is_relative_to(REPOSITORY):
        raise pytest.UsageError(f"--linereach-report {report} lies inside the repository {REPOSITORY}")
    config.pluginmanager.register(LineReach(report), "linereach-session")

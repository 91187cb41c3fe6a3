"""The line-reach plugin, ``mutation/linereach.py``, run over one small
test module in a pytest subprocess.  The whole suite under the plugin
takes minutes, so it is run by hand (see the plugin's docstring)."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from qdpool import _counts

ROOT = Path(__file__).resolve().parents[1]
PLUGIN = ROOT / "mutation" / "linereach.py"

# count() in _counts.py: line 8 checks the type, 9 refuses a non-integer,
# 10 checks the least value, 11 refuses a smaller one, 12 returns
SMALL_MODULE = '''
import os
import sys
import threading

from qdpool._counts import count


def test_a_forked_child_refuses_a_negative_count():
    pid = os.fork()
    if pid == 0:
        try:
            count("n", -1, 0)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)


def test_that_drops_the_tracer():
    sys.settrace(None)


def test_a_thread_refuses_a_float_count():
    def refuse():
        try:
            count("n", 2.5, 0)
        except ValueError:
            pass

    thread = threading.Thread(target=refuse)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
'''


def run_plugin(tmp_path, report):
    (tmp_path / "test_small.py").write_text(textwrap.dedent(SMALL_MODULE))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PLUGIN.parent)]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "linereach",
         "--linereach-report", str(report), "test_small.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_the_report_lists_each_unreached_line_with_its_text(tmp_path):
    assert Path(_counts.__file__).read_text().splitlines()[10].strip().startswith("raise ValueError")
    report = tmp_path / "reach.txt"
    proc = run_plugin(tmp_path, report)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"report in {report}" in proc.stdout
    text = report.read_text()
    first, *_ = text.splitlines()
    reached, total = (int(n) for n in first.split(": ")[1].split(" body lines")[0].split(" of "))
    assert first.startswith("line reach of src/qdpool: ") and 0 < reached < total
    # line 9 is reached on a thread, after a test dropped the tracer
    assert "  _counts.py count: lines 10-11, forked by test_small.py::test_a_forked_child_refuses_a_negative_count\n" in text
    unreached = text.split("\nunreached:\n")[1]
    assert "  _counts.py count: no reason given\n    _counts.py:12: return int(value)\n  " in unreached
    assert "_counts.py:8:" not in unreached and "_counts.py:9:" not in unreached
    assert "    engine.py:" in unreached and "    cli.py:" in unreached
    # a function whose reason names a test that did not run says so
    assert "; reached by tests/test_cli.py::" in unreached and "(not run)" in unreached


def test_a_report_inside_the_repository_is_refused(tmp_path):
    proc = run_plugin(tmp_path, ROOT / "reach.txt")
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert "lies inside the repository" in proc.stderr
    assert not (ROOT / "reach.txt").exists()


def test_every_test_named_for_an_unreached_line_exists():
    spec = importlib.util.spec_from_file_location("linereach", PLUGIN)
    linereach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linereach)
    for why, test in linereach.EXPLAINED.values():
        if test is not None:
            path, *_, name = test.split("::")
            assert f"def {name}(" in (ROOT / path).read_text(), test

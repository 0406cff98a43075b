"""tests/linecov.py stays importable, its output lines keep their format, and
its tracer sees a traced child's lines, on every thread.

The script runs the whole suite under the tracer, about a minute; here it
traces only a toy module in a new interpreter, as it traces the CLI children.
"""

import os
import subprocess
import sys

from . import linecov

TOY = '''\
import threading
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    import numpy

def half(x):
    return x / 2

def never():
    return 0

def run():
    thread = threading.Thread(target=half, args=(1.0,))
    thread.start()
    thread.join()
'''


def test_output_lines_keep_their_format():
    assert linecov.unrun_line("src/linexsel/core.py", 12, "    x = 1") == (
        "src/linexsel/core.py:12: x = 1")
    assert linecov.failure_line("tests/test_a.py::test_b[1]", True) == (
        "tracer-only failure: tests/test_a.py::test_b[1]")
    assert linecov.failure_line("tests/test_a.py::test_b[1]", False) == (
        "failure: tests/test_a.py::test_b[1]")
    assert linecov.summary_line(1411, 0, 8, 0, 61.6) == (
        "1411 executable lines, 0 unrun; 8 tests fail only under the tracer, "
        "0 without it; traced run 62 s")


def test_a_child_and_its_threads_are_traced(tmp_path):
    package, site, out = (tmp_path / name for name in ("package", "site", "out"))
    for folder in (package, site, out):
        folder.mkdir()
    toy = package / "toy.py"
    toy.write_text(TOY)
    # every line with bytecode but the TYPE_CHECKING import
    assert linecov.executable_lines(toy) == {1, 2, 3, 6, 7, 9, 10, 12, 13, 14, 15}
    (site / "sitecustomize.py").write_text(linecov.SITECUSTOMIZE.format(
        script=linecov.__file__, package=str(package), out=str(out)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(site), str(package)])}
    subprocess.run([sys.executable, "-c", "import toy; toy.run()"], env=env, check=True)
    ran = {line for name, line in linecov.ran_lines(out) if name == str(toy.resolve())}
    # half runs on the helper thread alone
    assert linecov.executable_lines(toy) - ran == {10}

#!/usr/bin/env python3
"""Which executable lines of src/linexsel the tier-1 suite never runs.

    python tests/linecov.py [PYTEST_ARG ...]

Runs pytest (the whole suite, or the given arguments) in a new interpreter
under a line tracer and prints each executable line of src/linexsel that no
test ran, as `src/linexsel/<file>:<line>: <source>`. The tracer is a
`sitecustomize` first on the interpreter's PYTHONPATH; it traces with
`sys.settrace`, and with `threading.settrace` for the sweep's helper
threads. The CLI processes that tests start inherit that PYTHONPATH, so
they are traced too; each traced process appends the lines it ran to a file
when it exits. Lines under `if TYPE_CHECKING:` never run and are not counted.

A test that fails under the tracer is run again without it. The script prints
`tracer-only failure: <test>` for one that then passes and `failure:
<test>` for one that fails either way. Then come pytest's own last line
from the traced run and a summary. It exits 1 when a line is
unrun or a test fails without the tracer. Standard library only; about a
minute on two cores, twice the untraced suite.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "linexsel"

#: the traced interpreter's sitecustomize: load this file by path and start tracing
SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_linecov", {script!r})
_linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_linecov)
_linecov.install({package!r}, {out!r})
"""


def install(package: str, out: str) -> None:
    """Trace this process's lines in files under `package`; append them to a file in `out` at exit."""
    import atexit
    import threading

    prefix = os.path.realpath(package) + os.sep
    ran: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        ours = inside.get(filename)
        if ours is None:
            ours = inside[filename] = os.path.realpath(filename).startswith(prefix)
        if not ours:
            return None
        ran.add((filename, frame.f_lineno))
        return lines

    def write() -> None:
        # a pid can come back in a later process, so append
        with open(os.path.join(out, f"{os.getpid()}.txt"), "a") as f:
            f.writelines(f"{os.path.realpath(name)}\t{line}\n" for name, line in ran)

    atexit.register(write)
    threading.settrace(calls)
    sys.settrace(calls)


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that carry bytecode, less the bodies of `if TYPE_CHECKING:`."""
    import ast

    text = path.read_text()
    found: set[int] = set()
    todo = [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0
        found.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            found -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return found


def ran_lines(out: Path) -> set[tuple[str, int]]:
    """(real path, line) of every line that a traced process wrote to `out`."""
    ran = set()
    for part in out.glob("*.txt"):
        for entry in part.read_text().splitlines():
            name, line = entry.rsplit("\t", 1)
            ran.add((name, int(line)))
    return ran


def unrun_line(name: str, line: int, source: str) -> str:
    return f"{name}:{line}: {source.strip()}"


def failure_line(test: str, tracer_only: bool) -> str:
    return f"{'tracer-only failure' if tracer_only else 'failure'}: {test}"


def summary_line(lines: int, unrun: int, tracer_only: int, failures: int, seconds: float) -> str:
    return (f"{lines} executable lines, {unrun} unrun; {tracer_only} tests fail only under "
            f"the tracer, {failures} without it; traced run {seconds:.0f} s")


def pytest_failures(args: list[str], pythonpath: list[str]):
    """Run pytest on `args` in a new interpreter; its exit code and the ids that failed or errored."""
    import subprocess

    path = os.pathsep.join([*pythonpath, *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", *args]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc, failed


def main(args: list[str]) -> int:
    import tempfile
    import time

    src = str(ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="linexsel-linecov-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            script=str(Path(__file__).resolve()), package=str(PACKAGE), out=str(out)))
        start = time.perf_counter()
        proc, failed = pytest_failures(args, [str(site), src])
        seconds = time.perf_counter() - start
        ran = ran_lines(out)
    if proc.returncode not in (0, 1):
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
        print(f"pytest exited {proc.returncode} under the tracer", file=sys.stderr)
        return 2
    failing = set(pytest_failures(failed, [src])[1]) if failed else set()
    total = 0
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines, source = executable_lines(path), path.read_text().splitlines()
        total += len(lines)
        name, real = path.relative_to(ROOT).as_posix(), os.path.realpath(path)
        unrun += [unrun_line(name, line, source[line - 1])
                  for line in sorted(lines) if (real, line) not in ran]
    for line in unrun:
        print(line)
    for test in failed:
        print(failure_line(test, test not in failing))
    print(f"traced pytest: {proc.stdout.strip().splitlines()[-1]}")
    print(summary_line(total, len(unrun), len(failed) - len(failing), len(failing), seconds))
    return 1 if unrun or failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

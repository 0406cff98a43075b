"""The benchmark under perfbench/ reaches linexsel only through public names.

Every `from linexsel... import name` in perfbench/*.py must resolve, so a
rename or removal that would break the benchmark fails here first. The
attributes it reads on what those names return (a table's `c`, the bounds'
`d0`) only a run can check, so one short traced smoke run goes here too.
"""

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def linexsel_imports() -> list[tuple[str, str, str]]:
    """(file:line, module, name) of each name imported from linexsel in perfbench/."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "linexsel" or node.module.startswith("linexsel.")
            ):
                found += [(f"{path.name}:{node.lineno}", node.module, alias.name)
                          for alias in node.names]
    return found


def resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:  # `from package import submodule`
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_perfbench_imports_resolve():
    imports = linexsel_imports()
    assert any(module == "linexsel.risksim" for _, module, _ in imports)
    missing = [f"{where}: {module}.{name}" for where, module, name in imports
               if not resolves(module, name)]
    assert not missing


def test_traced_scalar_smoke_run_is_correct():
    # about 3-4 s
    argv = [sys.executable, "perfbench/run.py", "--workload", "scalar", "--seed", "1",
            "--seconds", "0.2", "--smoke", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    # a passing run's record (about 3 MB of spans under perfbench/_out/) is not kept
    record = next(line for line in lines if line.startswith("record: "))
    shutil.rmtree(ROOT / Path(record.removeprefix("record: ")).parent)

"""The benchmark under perfbench/ reaches linexsel only through public names.

Every `from linexsel... import name` in perfbench/*.py must resolve, so a
rename or removal that would break the benchmark fails here first.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

"""Guards on the shape of `src/linexsel`: what imports what, and what is there at all.

The package holds the runtime alone. Its modules import each other without
a cycle, so no module needs a late import to see a name, and every public
function, class and method is used by the package itself or by the
benchmark in `perfbench/`; code that only the tests call lives in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linexsel"


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(directory.glob("*.py"))}


def import_graph() -> dict[str, set[str]]:
    """Module -> the package modules it imports, by `from .x import` or `from . import x` anywhere.

    `__init__` only gathers the public names, so it is no node of the graph.
    """
    trees = _trees(PACKAGE)
    trees.pop("__init__")
    graph = {}
    for name, tree in trees.items():
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(alias.name for alias in node.names)
        graph[name] = edges & trees.keys()
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as [m0, m1, ..., m0], or None if it has none."""
    done: set[str] = set()

    def visit(node: str, path: list[str]) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        for target in sorted(graph[node]):
            cycle = visit(target, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return None


def test_package_imports_are_acyclic():
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle in src/linexsel: " + " -> ".join(cycle)


def public_definitions(tree: ast.Module) -> list[str]:
    """Each public top-level function or class, and each public method, as `name` or `Class.name`."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def names_used(trees) -> set[str]:
    """Every ast.Name, ast.Attribute and imported alias named in the given modules."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_has_a_runtime_or_benchmark_use():
    package = _trees(PACKAGE)
    used = names_used(tree for name, tree in package.items() if name != "__init__")
    used |= names_used(_trees(ROOT / "perfbench").values())
    unused = [
        f"{module}.{qualified}"
        for module, tree in package.items()
        for qualified in public_definitions(tree)
        if qualified.rpartition(".")[2] not in used
    ]
    assert not unused, "only the tests use these; move them to tests/: " + ", ".join(unused)

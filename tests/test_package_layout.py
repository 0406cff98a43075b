"""Guards on the shape of `src/linexsel`: what imports what, and what is there at all.

The package holds the runtime alone. Its modules import each other without
a cycle, so no module needs a late import to see a name, and every public
function, class and method is used by the package itself or by the
benchmark in `perfbench/`; code that only the tests call lives in `tests/`.
A method counts as used only where it is read as an attribute (`x.name`),
so a local variable or parameter of the same name does not keep it. No
module imports `dataclasses`: it loads `inspect` on every start, and the
records build on `core.Record` instead. numpy is imported only by the
risk cell's modules, `kernels` and `risksim`, and by core's stream layout
v1, so the modules a scalar start loads hold no other numpy code.
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


def names_used(trees) -> tuple[set[str], set[str]]:
    """(each ast.Name and imported alias, each ast.Attribute) named in the given modules."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


def test_every_public_name_has_a_runtime_or_benchmark_use():
    package = _trees(PACKAGE)
    runtime = [tree for name, tree in package.items() if name != "__init__"]
    names, attributes = names_used(runtime + list(_trees(ROOT / "perfbench").values()))
    names |= attributes  # a function or class may be read either way, a method only as x.name
    unused = [
        f"{module}.{qualified}"
        for module, tree in package.items()
        for qualified in public_definitions(tree)
        if qualified.rpartition(".")[2] not in (attributes if "." in qualified else names)
    ]
    assert not unused, "only the tests use these; move them to tests/: " + ", ".join(unused)


def _imported_modules(node: ast.AST) -> list[str]:
    """The absolute modules an import statement names; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_module_imports_dataclasses():
    offenders = [
        f"{name}.py:{node.lineno}"
        for name, tree in _trees(PACKAGE).items()
        for node in ast.walk(tree)
        for module in _imported_modules(node)
        if module.split(".")[0] == "dataclasses"
    ]
    assert not offenders, "imports dataclasses: " + ", ".join(offenders)


#: where the package may import numpy: anywhere (`*`) in the risk cell's modules, and in
#: core only inside stream layout v1 and under `if TYPE_CHECKING:` for its annotations
NUMPY_HOMES = {
    "kernels": "*", "risksim": "*",
    "core": {"rng_stream", "sample_batch", "sample_block", "TYPE_CHECKING"},
}


def _top_level_owner(node: ast.stmt) -> str:
    """A top-level function's or class's name; `TYPE_CHECKING` for that guard; else `<module>`."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
        return "TYPE_CHECKING"
    return "<module>"


def test_numpy_is_imported_only_by_the_risk_cell():
    offenders = []
    for name, tree in _trees(PACKAGE).items():
        allowed = NUMPY_HOMES.get(name, ())
        for top in tree.body:
            owner = _top_level_owner(top)
            if allowed == "*" or owner in allowed:
                continue
            offenders += [
                f"{name}.py:{node.lineno} ({owner})"
                for node in ast.walk(top)
                for module in _imported_modules(node)
                if module.split(".")[0] == "numpy"
            ]
    assert not offenders, "imports numpy outside the risk cell's modules: " + ", ".join(offenders)

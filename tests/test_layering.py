"""The package graph is a DAG, and this test keeps it one.

Every module under ``src/repro`` is parsed with :mod:`ast`; every
``import`` counts, module-level or function-local, except those under
``if TYPE_CHECKING:``.  Each module belongs to the longest prefix of its
name listed in :data:`RANKS`, and may import only modules of its own rank
or lower.  Within one rank the packages must not import each other in a
cycle.  A lazy import does not make an upward edge safe: it still makes
the lower layer know about the higher one.

The top rank also holds the CLI entry modules, parsed from the
``_load("...")`` calls in ``repro/__main__.py`` rather than listed here,
so registering a new driver does not need an edit to this file.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _entry_modules() -> tuple[str, ...]:
    tree = ast.parse((SRC / "repro" / "__main__.py").read_text())
    return tuple(
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_load"
        and isinstance(node.args[0], ast.Constant)
    )


#: bottom to top; a module may import its own rank or any lower one
RANKS: tuple[tuple[str, ...], ...] = (
    ("repro.errors", "repro.contracts"),
    ("repro.sim",),
    ("repro.obs",),
    ("repro.hw",),
    ("repro.core",),
    ("repro.spcm",),
    ("repro.managers", "repro.baseline", "repro.chaos"),
    ("repro",),
    ("repro.serve", "repro.recovery", "repro.dbms", "repro.workloads"),
    (
        "repro.verify",
        "repro.analysis",
        "repro.chaos.harness",
        "repro.__main__",
        *_entry_modules(),
    ),
)

RANK_OF = {unit: rank for rank, units in enumerate(RANKS) for unit in units}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {
    _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
}


def unit_of(module: str) -> str:
    """The longest ranked prefix of ``module``."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        prefix = ".".join(parts[:n])
        if prefix in RANK_OF:
            return prefix
    raise AssertionError(f"{module} has no rank")


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(node: ast.AST, module: str, is_package: bool):
    """Yield ``(lineno, target module)`` for every runtime repro import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _is_type_checking(child):
            for stmt in child.orelse:
                yield from _imports(stmt, module, is_package)
            continue
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield child.lineno, alias.name
        elif isinstance(child, ast.ImportFrom):
            base = child.module or ""
            if child.level:
                anchor = module.split(".")
                drop = child.level - 1 if is_package else child.level
                anchor = anchor[: len(anchor) - drop]
                base = ".".join(anchor + ([base] if base else []))
            for alias in child.names:
                sub = f"{base}.{alias.name}"
                yield child.lineno, sub if sub in MODULES else base
        yield from _imports(child, module, is_package)


def import_edges() -> list[tuple[str, int, str]]:
    """Every ``(importer, line, imported)`` edge between repro modules."""
    edges = []
    for module, path in MODULES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        is_package = path.name == "__init__.py"
        for lineno, target in _imports(tree, module, is_package):
            if target == "repro" or target.startswith("repro."):
                edges.append((module, lineno, target))
    return edges


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state: dict[str, int] = {}  # 1 = on the DFS stack, 2 = finished
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


def test_entry_modules_are_parsed_from_main():
    assert "repro.chaos.cli" in _entry_modules()


def test_no_upward_imports():
    upward = sorted({
        f"{MODULES[src].relative_to(SRC)}:{line}: {unit_of(src)} "
        f"(rank {RANK_OF[unit_of(src)]}) imports {dst} "
        f"(rank {RANK_OF[unit_of(dst)]})"
        for src, line, dst in import_edges()
        if RANK_OF[unit_of(dst)] > RANK_OF[unit_of(src)]
    })
    assert not upward, "upward imports:\n" + "\n".join(upward)


def test_package_graph_is_acyclic():
    graph: dict[str, set[str]] = {}
    for src, _, dst in import_edges():
        if unit_of(src) != unit_of(dst):
            graph.setdefault(unit_of(src), set()).add(unit_of(dst))
    cycle = _find_cycle(graph)
    assert cycle is None, "package cycle: " + " -> ".join(cycle)


def test_import_repro_loads_no_harness_layer():
    """``import repro`` boots the stack without chaos, recovery or verify."""
    code = (
        "import sys, repro; print('\\n'.join(m for m in sys.modules if "
        "m.startswith(('repro.chaos', 'repro.recovery', 'repro.verify'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == []

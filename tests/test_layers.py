"""The engine's imports run one way.

The scan reads src/dglift/ with ast and imports nothing.  No function body
imports: a deferred import hides a dependency that runs the other way.  The
relative imports at module level, outside `if TYPE_CHECKING:`, form a DAG,
so each layer reads only the layers below it.  modules, which holds chain
maps and the Hom differential on generator images, names homotopy in no
import at all: homotopy builds on it (delta_matrix, the minimal models).
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dglift"


def _is_type_checking(node) -> bool:
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def _targets(node: ast.ImportFrom) -> list:
    """The package modules a relative import reads."""
    return [node.module] if node.module else [a.name for a in node.names]


class Imports(ast.NodeVisitor):
    """Of one module: the imports inside function bodies, as (line, text),
    the relative imports at module level outside TYPE_CHECKING, and every
    relative import."""

    def __init__(self):
        self.in_functions: list = []
        self.module_level: set = set()
        self.every: set = set()
        self._depth = 0
        self._typing = 0

    def _function(self, node):
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_If(self, node):
        typing = _is_type_checking(node)
        self._typing += typing
        self.generic_visit(node)
        self._typing -= typing

    def visit_Import(self, node):
        if self._depth:
            self.in_functions.append((node.lineno, ast.unparse(node)))

    def visit_ImportFrom(self, node):
        self.visit_Import(node)
        if node.level:
            self.every.update(_targets(node))
            if not (self._depth or self._typing):
                self.module_level.update(_targets(node))


def scan(root: Path = SRC) -> dict:
    out = {}
    for path in sorted(root.glob("*.py")):
        imports = Imports()
        imports.visit(ast.parse(path.read_text(), str(path)))
        out[path.stem] = imports
    return out


def layer_order(scanned: dict) -> list:
    """The modules, each after every module it imports at module level;
    raises CycleError when those imports form a cycle."""
    graph = TopologicalSorter({name: im.module_level for name, im in scanned.items()})
    return list(graph.static_order())


def test_no_function_body_imports():
    found = {name: im.in_functions for name, im in scan().items() if im.in_functions}
    assert not found, f"imports inside function bodies: {found}"


def test_the_module_level_imports_form_a_dag():
    order = layer_order(scan())
    assert order.index("modules") < order.index("homotopy") < order.index("diagonal")


def test_modules_names_homotopy_in_no_import():
    assert "homotopy" not in scan()["modules"].every


def test_the_scan_sees_a_deferred_import_and_a_cycle(tmp_path):
    """A function-level import is reported with its line and is no edge,
    and two modules that import each other at module level are a cycle,
    unless one of the imports sits under TYPE_CHECKING, where it still
    counts as naming the other."""
    (tmp_path / "a.py").write_text("from .b import f\n\ndef g():\n    from .c import h\n")
    (tmp_path / "b.py").write_text("from typing import TYPE_CHECKING\n"
                                   "from .a import g\n")
    scanned = scan(tmp_path)
    assert scanned["a"].in_functions == [(4, "from .c import h")]
    assert scanned["a"].module_level == {"b"}
    with pytest.raises(CycleError):
        layer_order(scanned)
    (tmp_path / "b.py").write_text("from typing import TYPE_CHECKING\n"
                                   "if TYPE_CHECKING:\n    from .a import g\n")
    scanned = scan(tmp_path)
    assert layer_order(scanned).index("b") < layer_order(scanned).index("a")
    assert scanned["b"].every == {"a"} and not scanned["b"].module_level

"""No unused helper: every function, method and class defined in src/dglift/
or scripts/ is referenced somewhere there besides its own definition.

The scan is by name, with ast.  A definition counts as used when its name
is loaded anywhere in those trees, as a bare name or as an attribute, other
than inside a definition of the same name (so recursion alone does not
count).  A module-level function is reached only by its bare name or by a
from-import of it, so for it an attribute load does not count: a call of
the method _Tokens.peek does not use the function memo.peek.  A from-import
counts for module-level functions only: it does not keep a class, a method
or a nested function of the same name alive.  A method
whose name is also a data attribute there (cols is a CarrierMap field as
well as a SparseMatrix method) counts only where it is called, as
.name(...); a property, read without a call, counts on any attribute load.
Dunder methods are called by Python itself and are not checked.

A definition nothing references may stay only for one of three reasons:
perfbench/probes.py wraps it (read from its SPAN_TABLE, as in
test_probe_names), the package exports it in __all__, or it is a view that
only tests read, listed in TEST_VIEWS with what reads it.  The list may only
shrink: each of its entries must still be defined and still unreferenced.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = (ROOT / "src" / "dglift", ROOT / "scripts")
PROBES = ROOT / "perfbench" / "probes.py"

# qualified name -> the tests that read it
TEST_VIEWS = {
    "dglift.linalg.Echelon.pivots": "test_linalg, test_scalars and test_carriers: "
                                    "the pivot columns, against the oracles'",
    "dglift.memo.peek": "test_homotopy and test_memo: what a memo holds, without "
                        "building it",
}


def qualname(path: Path, *names: str) -> str:
    base = "dglift" if path.parent.name == "dglift" else "scripts"
    return ".".join((base, path.stem) + names)


class Scan(ast.NodeVisitor):
    """Definitions (qualified name, bare name, is a property, is a
    module-level function), loads (name, how: "name", "attr", "call" or
    "import") and data-attribute names of one tree of files."""

    def __init__(self):
        self.defs: list = []
        self.loads: list = []
        self.data: set = set()
        self._path = None
        self._scope: list = []   # the names of the enclosing classes and defs

    def scan(self, path: Path) -> None:
        self._path = path
        self.visit(ast.parse(path.read_text(), str(path)))

    def _define(self, node) -> None:
        prop = any(getattr(d, "id", None) in ("property", "cached_property")
                   for d in node.decorator_list)
        toplevel = not self._scope and not isinstance(node, ast.ClassDef)
        self.defs.append((qualname(self._path, *self._scope, node.name), node.name, prop,
                          toplevel))
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_ClassDef(self, node):
        for stmt in node.body:
            # class-level fields (NamedTuple, dataclass) and class constants
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self.data.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                self.data.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        self._define(node)

    visit_FunctionDef = visit_AsyncFunctionDef = _define

    def _load(self, name: str, how: str) -> None:
        if name not in self._scope:
            self.loads.append((name, how))

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute):
            self._load(node.func.attr, "call")
            self.visit(node.func.value)
            for arg in node.args + node.keywords:
                self.visit(arg)
        else:
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._load(node.attr, "attr")
        else:
            self.data.add(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._load(node.id, "name")

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._load(alias.name, "import")


def scan() -> Scan:
    s = Scan()
    for tree in TREES:
        for path in sorted(tree.glob("*.py")):
            s.scan(path)
    return s


def probe_pins() -> set:
    for node in ast.parse(PROBES.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPAN_TABLE":
            table = ast.literal_eval(node.value)
    return {".".join(["dglift", layer] + ([owner] if owner else []) + [attr])
            for layer, owners in table.items() for owner, attrs in owners.items()
            for attr in attrs}


def exported() -> set:
    init = TREES[0] / "__init__.py"
    names: set = set()
    modules: dict = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            modules.update({a.name: node.module for a in node.names})
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            names = set(ast.literal_eval(node.value))
    return {f"dglift.{modules[n]}.{n}" for n in names if n in modules}


def unreferenced(s: Scan) -> list:
    read = {name for name, how in s.loads if how == "attr"}
    used = {name for name, how in s.loads
            if how != "import" and (how != "attr" or name not in s.data)}
    by_name = {name for name, how in s.loads if how in ("name", "import")}
    return sorted(q for q, name, prop, toplevel in s.defs
                  if name not in (by_name if toplevel else used)
                  and not (prop and name in read)
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_referenced_or_allowed():
    allowed = probe_pins() | exported() | set(TEST_VIEWS)
    dead = [q for q in unreferenced(scan()) if q not in allowed]
    assert not dead, f"defined but referenced nowhere in src/ or scripts/: {dead}"


def test_the_allowlist_of_test_views_is_current():
    s = scan()
    defined = {q for q, *_ in s.defs}
    assert set(TEST_VIEWS) <= defined, set(TEST_VIEWS) - defined
    live = set(TEST_VIEWS) - set(unreferenced(s))
    assert not live, f"referenced now, so no longer an exception: {sorted(live)}"


def test_the_scan_sees_a_helper_lose_its_only_caller(tmp_path):
    """A helper whose one call is removed is reported, one that is only
    called by itself is reported, a method sharing a data attribute's
    name is reported unless something calls it, a module-level function
    shadowed by a method's name is reported until it is imported, however
    often the method is called, and a class or a method named like an
    imported function is still reported while nothing else uses it."""
    pkg = tmp_path / "dglift"
    pkg.mkdir()
    src = pkg / "m.py"
    src.write_text(
        "class C:\n"
        "    def __init__(self):\n"
        "        self.cols = {}\n"
        "    def cols(self):\n"
        "        return self.cols\n"
        "    def used(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def rec(n):\n"
        "    return rec(n - 1) if n else 0\n"
        "class T:\n"
        "    def peek(self):\n"
        "        return 0\n"
        "def peek():\n"
        "    return 1\n"
        "class Field:\n"
        "    pass\n"
        "C().used(); T().peek()\n")
    s = Scan()
    s.scan(src)
    assert unreferenced(s) == ["dglift.m.C.cols", "dglift.m.Field", "dglift.m.peek",
                               "dglift.m.rec"]
    src.write_text(src.read_text().replace("return helper()", "return 1")
                   .replace("C().used()", "C().used(); C().cols()")
                   .replace("T().peek()", "T()")
                   + "from dglift.m import peek\nfrom dglift.scalars import Field\n")
    s = Scan()
    s.scan(src)
    assert unreferenced(s) == ["dglift.m.Field", "dglift.m.T.peek", "dglift.m.helper",
                               "dglift.m.rec"]

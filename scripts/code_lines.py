#!/usr/bin/env python3
"""Count the code lines of the engine: the lines that are not blank, not a
comment and not part of a docstring.

    python3 scripts/code_lines.py [DIR]

Prints each .py file under DIR (src/dglift by default), sorted by path, with
its count, then the total.  A docstring is the string statement that opens a
module, class or function body; its lines count for none of them.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that are code."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv) -> int:
    top = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "dglift"
    total = 0
    for path in sorted(top.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.relative_to(top)} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

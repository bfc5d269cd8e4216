"""Count the lines and the code lines of the Python files in the repository.

Usage: ``python tools/src_lines.py`` (from anywhere).

Prints, for each ``*.py`` file of ``src/halfcomm``, ``tests`` and ``tools``
(not recursing), its lines and its code lines, then each directory's totals.
A code line is one that is not blank, not a comment alone, and not part of a
module, class or function docstring, as ``ast`` finds them.  Standard
library only.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/halfcomm", "tests", "tools")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path) -> tuple[int, int]:
    """(lines, code lines) of one Python file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text, path))
    code = sum(1 for k, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and k not in docs)
    return len(lines), code


def main() -> int:
    print(f"{'lines':>7} {'code':>7}  file")
    for rel in DIRS:
        folder = os.path.join(ROOT, rel)
        total = [0, 0]
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                lines, code = count(os.path.join(folder, name))
                total[0] += lines
                total[1] += code
                print(f"{lines:>7} {code:>7}  {rel}/{name}")
        print(f"{total[0]:>7} {total[1]:>7}  {rel} (total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

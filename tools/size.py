"""Size of the diffclass package: source lines and settable values per module.

Settable values are the package's dataclass fields plus the parameters with a
default of its module-level functions and of its classes' methods; functions
nested inside another function are not counted.  Lines are physical lines, as
`cat src/diffclass/*.py | wc -l` counts them.

Usage: python3 tools/size.py [package_dir]   (default: src/diffclass)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def module_size(path: Path) -> tuple[int, int, int]:
    """(lines, dataclass fields, defaulted parameters) of one module."""
    source = path.read_text(encoding="utf-8")
    fields = params = 0
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS):
            params += _defaulted(node)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            params += sum(_defaulted(s) for s in node.body if isinstance(s, FUNCTIONS))
    return source.count("\n"), fields, params


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "diffclass"
    rows = [(path.name, *module_size(path)) for path in sorted(package.glob("*.py"))]
    totals = [sum(row[i] for row in rows) for i in (1, 2, 3)]
    print(f"{'module':<16}{'lines':>7}{'fields':>8}{'params':>8}")
    for name, lines, fields, params in rows + [("total", *totals)]:
        print(f"{name:<16}{lines:>7}{fields:>8}{params:>8}")
    print(f"{totals[0]} lines, {totals[1] + totals[2]} settable values")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

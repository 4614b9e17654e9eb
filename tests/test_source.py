import ast
from pathlib import Path

import qisa_lab


def test_no_assert_statements_in_the_package():
    """Checks must hold under ``python -O``, which strips assert statements."""
    root = Path(qisa_lab.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"

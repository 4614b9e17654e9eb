import ast
from pathlib import Path

import qisa_lab
from qisa_lab.attention import VARIANTS


def test_no_assert_statements_in_the_package():
    """Checks must hold under ``python -O``, which strips assert statements."""
    root = Path(qisa_lab.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_variant_names_are_compared_only_in_the_table():
    """What a variant is lives in one table, ``attention.ROLE_TABLE``: no
    module, attention.py included, tests a value against a variant name."""
    root = Path(qisa_lab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            leaves = [e for o in operands
                      for e in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
            if any(isinstance(e, ast.Constant) and e.value in VARIANTS for e in leaves):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not found, f"comparisons against a variant name: {found}"

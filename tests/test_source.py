"""Rules on the package source itself."""

import ast
from pathlib import Path

import lctk

PACKAGE = Path(lctk.__file__).resolve().parent


def test_package_has_no_assert():
    # an internal invariant failure raises InvariantError (exit 4); an
    # assert would vanish under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

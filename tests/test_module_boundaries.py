"""Structural rules of the package source (no import of the package)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "landauspec"


def test_no_private_names_imported_across_modules():
    # a module-private helper that another module needs belongs in the
    # public API of its home module
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith(
                "landauspec")
            if not internal:
                continue
            crossings += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert crossings == []


def test_no_explicit_inverse_or_condition_number():
    # condition checks come from factorizations the code already holds
    # (Schur, Sylvester, LU); an explicit inverse costs a solve per column
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("cond", "inv")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"):
                calls.append(f"{path.name}:{node.lineno}: linalg.{node.attr}")
    assert calls == []

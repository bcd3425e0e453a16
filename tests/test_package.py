"""Package structure: the boundaries between the modules of ``davenport``."""

import ast
from pathlib import Path

import davenport

SRC = Path(davenport.__file__).parent


def test_no_module_imports_another_modules_private_name():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_exports_resolve():
    assert [name for name in davenport.__all__ if not hasattr(davenport, name)] == []

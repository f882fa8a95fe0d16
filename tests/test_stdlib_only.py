"""The runtime package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "formzeros"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_stdlib(path):
    outside = [
        name for name in _absolute_imports(path)
        if name != "__future__"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, f"{path.name} imports {outside}"

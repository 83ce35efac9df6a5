"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hessfree"
# perfbench's span tracer looks this name up on hessfree.cli, which does
# not call it (see the comment on the import)
TRACER_ONLY = {("cli.py", "derivative_norm_via_functionals")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


# __init__.py imports to re-export: the package namespace is its use
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_import(path):
    unused = [name for name in unused_imports((SRC / path).read_text()) if (path, name) not in TRACER_ONLY]
    assert unused == []


def test_finds_an_unused_import():
    assert unused_imports("import math\nfrom x import a, b as c\nprint(a)\n") == ["c", "math"]

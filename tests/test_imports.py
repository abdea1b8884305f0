"""Every module-level import in src/liecurv is read by its module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liecurv"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads.

    An import with `noqa` on one of its lines is exempt, and a name listed
    in `__all__` counts as read (the re-exports of `__init__`).
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "noqa" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read | exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .scalars import DEFAULT_TOL, is_zero\n"
              "from .structure import is_lie  # noqa: F401\n"
              "__all__ = ['f']\n"
              "from .x import f\n"
              "def g(x):\n"
              "    return is_zero(x)\n")
    assert unused_imports(source) == ["np", "DEFAULT_TOL"]

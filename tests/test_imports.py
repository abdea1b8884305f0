"""Every import in src/liecurv is read in the scope that makes it, every
public function there is exported or called, and every public method is
read."""

import ast
import importlib
from pathlib import Path

import pytest

import liecurv

SRC = Path(__file__).resolve().parents[1] / "src" / "liecurv"


def _imports(scope):
    """The import statements of a scope, outside the functions nested in it."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            yield from _imports(node)


def unused_imports(source: str) -> list:
    """Names bound by imports that their scope never reads.

    A module-level import counts as read anywhere in the module; one inside
    a function (the lazy imports of a layer) only within that function.  An
    import with `noqa` on one of its lines is exempt, and a name listed in
    `__all__` counts as read (the re-exports of `__init__`).
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = []
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        if scope is tree:
            read |= exported
        for node in _imports(scope):
            if getattr(node, "module", None) == "__future__" or any(
                    "noqa" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [name for name in (alias.asname or alias.name.split(".")[0]
                                         for alias in node.names)
                       if name not in read]
    return unused


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
              "    return is_zero(x)\n"
              "def h(x):\n"
              "    from .curvature import b_forms, ricci_general\n"
              "    if x:\n"
              "        import json\n"
              "    def inner():\n"
              "        from . import metric\n"
              "        return ricci_general(x)\n"
              "    return inner\n"
              "def k():\n"
              "    return json, b_forms, metric\n")
    assert unused_imports(source) == ["np", "DEFAULT_TOL", "b_forms", "json",
                                      "metric"]


def uncalled_functions(sources: dict, modules, exported) -> list:
    """(path, name) of the public module-level functions of `modules`,
    paths among the keys of `sources` ({path: source}), that are not in
    `exported` and that no source reads outside an import: by name, or as
    an attribute of one of `modules` (`linalg.rank`, not `report.rank`)."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    stems = {path.stem for path in modules}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in stems):
                read.add(node.attr)
    uncalled = []
    for path in modules:
        uncalled += [(path, node.name) for node in trees[path].body
                     if isinstance(node, ast.FunctionDef)
                     and not node.name.startswith("_")
                     and node.name not in exported and node.name not in read]
    return uncalled


def test_every_public_function_has_a_caller():
    """No test-only code in src: a public function of src/liecurv is
    exported by the package or called from src/ or bench/."""
    bench = SRC.parents[1] / "bench"
    modules = sorted(SRC.glob("*.py"))
    sources = {path: path.read_text()
               for path in modules + sorted(bench.glob("*.py"))}
    uncalled = uncalled_functions(sources, modules, liecurv.__all__)
    assert [(path.name, name) for path, name in uncalled] == []


def test_uncalled_function_is_reported():
    a, b, c = Path("a.py"), Path("b.py"), Path("c.py")
    sources = {a: ("from .b import helper\n"
                   "def used():\n"
                   "    return helper()\n"
                   "def exported():\n"
                   "    pass\n"
                   "def test_only():\n"
                   "    pass\n"
                   "def same_as_a_field(report):\n"
                   "    return report.test_only\n"
                   "def _private():\n"
                   "    pass\n"),
               b: ("import a\n"
                   "def helper():\n"
                   "    return a.used, a.same_as_a_field\n"
                   "def imported_only():\n"
                   "    pass\n"),
               c: "from b import imported_only\n"}
    assert uncalled_functions(sources, [a, b], ["exported"]) == [
        (a, "test_only"), (b, "imported_only")]


def unread_methods(sources: dict, modules) -> list:
    """(path, class, name) of the public methods and properties of the
    module-level classes of `modules`, paths among the keys of `sources`,
    whose name no source reads as an attribute (`x.name`, of any object)."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [(path, cls.name, node.name) for path in modules
            for cls in trees[path].body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in read]


def test_every_public_method_is_read():
    """No test-only methods in src: each public method or property of a
    class in src/liecurv is read as an attribute in src/ or bench/."""
    bench = SRC.parents[1] / "bench"
    modules = sorted(SRC.glob("*.py"))
    sources = {path: path.read_text()
               for path in modules + sorted(bench.glob("*.py"))}
    assert [(path.name, cls, name) for path, cls, name
            in unread_methods(sources, modules)] == []


def test_unread_method_is_reported():
    a, b = Path("a.py"), Path("b.py")
    sources = {a: ("class T:\n"
                   "    n: int\n"
                   "    def used(self):\n"
                   "        return self.prop\n"
                   "    @property\n"
                   "    def prop(self):\n"
                   "        pass\n"
                   "    @classmethod\n"
                   "    def build(cls):\n"
                   "        pass\n"
                   "    def test_only(self):\n"
                   "        pass\n"
                   "    def __str__(self):\n"
                   "        pass\n"
                   "def f(t):\n"
                   "    return t.used()\n"),
               b: ("from a import T\n"
                   "class U:\n"
                   "    def other(self):\n"
                   "        self.build = 1\n")}
    assert unread_methods(sources, [a, b]) == [(a, "T", "build"),
                                               (a, "T", "test_only"),
                                               (b, "U", "other")]


@pytest.mark.parametrize("name", liecurv.__all__)
def test_package_name_resolves_to_its_home_module(name):
    value = getattr(liecurv, name)
    assert value.__module__.startswith("liecurv.")
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(liecurv)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from liecurv import *", namespace)
    assert all(namespace[name] is getattr(liecurv, name)
               for name in liecurv.__all__)


def test_unknown_package_attribute_and_submodule_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        liecurv.no_such_name
    from liecurv import catalog
    assert catalog.load_catalog

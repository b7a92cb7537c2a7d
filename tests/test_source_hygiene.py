"""Every name a library module imports is used in that module, nothing
is cached across calls, a Partition is built only where one is
returned, and no nested function recurses through its closure.

A stdlib stand-in for a linter's unused-import rule: each module of
src/boolcomb except the package's __init__ (whose imports are its
exports) is parsed with ast, and every imported name must be read
somewhere in it, in code or in a string annotation.  Also checks that
no function but `invariants._meet_tables` caches across calls, that
no `functools.cached_property` is used but booldim's per-query column
index on `_Prepared` (a record that lives for one call), and that
outside graphs.py only the public functions that return a Partition
build one (inside the library a vertex block is an int mask), and that
no function nested in another reads its own name: it would hold itself
through its closure cell, so each call would leave a reference cycle
for the collector (the searches recurse as module-level functions).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "boolcomb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    quoted = [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    return {
        node.id
        for root in (tree, *quoted)
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    return imported_names(tree) - used_names(tree)


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"graphs.py", "boolfn.py", "classes.py", "extremal.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == set()


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .errors import NotMonotone, SizeLimitExceeded\n"
        "from .graphs import Graph\n"
        "def f(g: 'Graph') -> int:\n"
        "    raise SizeLimitExceeded(os.sep)\n"
    )
    assert unused_imports(source) == {"NotMonotone"}


# the one cache kept across calls: the shatter tables, keyed by n alone
ALLOWED_CACHES = {"invariants._meet_tables"}


def cached_functions(source: str) -> set[str]:
    """Functions decorated with functools.lru_cache or functools.cache, in
    any spelling (bare, called, or through the module)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    found.add(node.name)
    return found


def test_no_cache_across_calls_but_the_shatter_tables():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in cached_functions(path.read_text())
    }
    assert found == ALLOWED_CACHES


def test_a_cache_decorator_is_caught():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(n): return n\n"
        "@lru_cache\n"
        "def b(n): return n\n"
        "class C:\n"
        "    @cache\n"
        "    def c(self): return 0\n"
        "@staticmethod\n"
        "def d(n): return n\n"
    )
    assert cached_functions(source) == {"a", "b", "c"}


# the one cached_property: booldim's column index, on the search record that
# one call builds and drops, so it cannot outlive its query
ALLOWED_CACHED_PROPERTIES = {"booldim._Prepared.columns"}


def cached_properties(source: str) -> set[str]:
    """Every use of functools.cached_property, in any spelling (decorator,
    call, or through the module), dotted from the top level through the
    classes and functions around it."""
    found = set()

    def named(node):
        return (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) == "cached_property"

    def visit(node, path: list[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*path, child.name]
                if any(named(dec.func if isinstance(dec, ast.Call) else dec) for dec in child.decorator_list):
                    found.add(".".join(inner))
                visit(child, inner)
            elif isinstance(child, ast.Call) and named(child.func):
                found.add(".".join([*path, "<call>"]))
                visit(child, path)
            else:
                visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_no_cached_property_but_the_column_index():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in cached_properties(path.read_text())
    }
    assert found == ALLOWED_CACHED_PROPERTIES


def test_a_cached_property_is_caught():
    source = (
        "import functools\n"
        "from functools import cached_property\n"
        "class A:\n"
        "    @cached_property\n"
        "    def b(self): return 0\n"
        "    @functools.cached_property\n"
        "    def c(self): return 0\n"
        "    @property\n"
        "    def d(self): return 0\n"
        "    e = functools.cached_property(lambda self: 0)\n"
        "def f():\n"
        "    class G:\n"
        "        @cached_property\n"
        "        def h(self): return 0\n"
        "    return G\n"
        "@staticmethod\n"
        "def i(n): return n\n"
    )
    assert cached_properties(source) == {"A.b", "A.c", "A.<call>", "f.G.h"}


# the public functions that return a Partition; graphs.py, which defines
# it, is not scanned
ALLOWED_PARTITION_BUILDERS = {"invariants.twin_classes", "decompose.partition_complementation_sequence"}


def partition_builders(source: str) -> set[str]:
    """Top-level functions and classes that call Partition(...) or
    Partition.from_blocks(...), the name bare or through a module."""

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func.value if name(node.func) == "from_blocks" else node.func
                if name(func) == "Partition":
                    found.add(getattr(top, "name", "<module>"))
    return found


def test_partitions_are_built_only_where_one_is_returned():
    found = {
        f"{path.stem}.{name}"
        for path in MODULES
        if path.name != "graphs.py"
        for name in partition_builders(path.read_text())
    }
    assert found == ALLOWED_PARTITION_BUILDERS


def test_a_partition_build_is_caught():
    source = (
        "from . import graphs\n"
        "from .graphs import Partition\n"
        "def a(n): return Partition(n, ())\n"
        "def b(n): return Partition.from_blocks(n, [])\n"
        "def c(n): return graphs.Partition.from_blocks(n, [])\n"
        "class D:\n"
        "    def e(self): return [graphs.Partition(0, ())]\n"
        "F = Partition(0, ())\n"
        "def g(p: Partition) -> int: return len(p.blocks)\n"
        "def h(n): return Partition.equivalence_graph(n)\n"
    )
    assert partition_builders(source) == {"a", "b", "c", "D", "<module>"}


def self_recursive_closures(source: str) -> set[str]:
    """Functions nested in a function that read their own name, each
    dotted from its top-level function or class."""
    found = set()

    def visit(node, path: list[str], in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*path, child.name]
                is_function = not isinstance(child, ast.ClassDef)
                if is_function and in_function and any(
                    isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child)
                ):
                    found.add(".".join(inner))
                visit(child, inner, in_function or is_function)
            else:
                visit(child, path, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_no_function_recurses_through_a_closure():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in self_recursive_closures(path.read_text())
    }
    assert found == set()


def test_a_closure_that_recurses_through_its_cell_is_caught():
    source = (
        "def a(n):\n"
        "    def walk(k):\n"
        "        return 0 if k == 0 else walk(k - 1)\n"
        "    return walk(n)\n"
        "def b(n):\n"
        "    def key(x): return -x\n"
        "    return sorted(range(n), key=key)\n"
        "def c(n):\n"
        "    return 0 if n == 0 else c(n - 1)\n"
        "class D:\n"
        "    def e(self, n):\n"
        "        return self.e(n - 1) if n else 0\n"
        "def f(n):\n"
        "    class G:\n"
        "        def h(self):\n"
        "            if n:\n"
        "                async def gen(k):\n"
        "                    await gen(k - 1)\n"
        "    return G\n"
    )
    assert self_recursive_closures(source) == {"a.walk", "f.G.h.gen"}

"""Every function, class and method of the package has a caller in it.

A name that only tests reach is deleted, or moved into tests/conftest.py
when a test uses it as an oracle.  Names the benchmark wraps or calls
from bench/ are kept until the benchmark changes.
"""

import ast
from collections import Counter
from pathlib import Path

from test_bench_spans import BENCH, benchmark_names, load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "lrbasis"


def _references(node):
    """How often node loads each name: `name` bare, `.name` as an attribute."""
    return Counter("." + n.attr if isinstance(n, ast.Attribute) else n.id
                   for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _definitions(tree):
    """(name, node, keys that count as a use) for each top-level function
    and class, and as "Class.method" for each method other than a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, (node.name, "." + node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item, ("." + item.name,)


def unreferenced(src=SRC):
    """(module, name) of each definition that no code in the package refers
    to outside its own body; __init__.py does not count.  A method counts
    as referred to when any attribute of its name is loaded."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    dead = set()
    for module, tree in trees.items():
        for name, node, keys in _definitions(tree):
            inside = _references(node)
            if all(total[key] == inside[key] for key in keys):
                dead.add((module, name))
    return dead


def bench_attributes():
    """Every attribute name that bench/ loads and does not define itself:
    the methods the benchmark may call on package objects."""
    trees = [ast.parse(path.read_text()) for path in BENCH.glob("*.py")]
    loaded = {n.attr for tree in trees for n in ast.walk(tree)
              if isinstance(n, ast.Attribute)}
    defined = {n.name for tree in trees for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    return loaded - defined


def test_every_definition_has_a_caller():
    reached = set(load_spans().WRAPPED)
    for file in ("workloads.py", "selftest.py"):
        reached |= benchmark_names(BENCH / file)
    methods = bench_attributes()
    assert sorted((module, name) for module, name in unreferenced()
                  if (module, name) not in reached
                  and name.rpartition(".")[2] not in methods) == []


def test_no_import_inside_a_function():
    """Each module imports at its top; the package has no import cycle
    that a deferred import would have to break."""
    deferred = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred += [(path.name, fn.name, node.lineno)
                             for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert deferred == []

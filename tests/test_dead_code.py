"""Every top-level function and class of the package has a caller in it.

A name that only tests reach is deleted, or moved into tests/conftest.py
when a test uses it as an oracle.  Names the benchmark wraps or calls
from bench/ are kept until the benchmark changes.
"""

import ast
from pathlib import Path

from test_bench_spans import BENCH, benchmark_names, load_spans

SRC = Path(__file__).resolve().parents[1] / "src" / "lrbasis"


def _used_names(node):
    """Every name that node loads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unreferenced(src=SRC):
    """(module, name) of each top-level function or class that no code in
    the package refers to outside its own body; __init__.py does not count."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    defs = {module: [node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
            for module, tree in trees.items()}
    dead = set()
    for module, nodes in defs.items():
        for node in nodes:
            used = set()
            for other, tree in trees.items():
                for top in tree.body:
                    if not (other == module and top is node):
                        used |= _used_names(top)
            if node.name not in used:
                dead.add((module, node.name))
    return dead


def test_every_definition_has_a_caller():
    reached = set(load_spans().WRAPPED)
    for file in ("workloads.py", "selftest.py"):
        reached |= benchmark_names(BENCH / file)
    assert sorted(unreferenced() - reached) == []

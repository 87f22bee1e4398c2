"""The benchmark calls package functions by name; they must exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_spans():
    """bench/spans.py, imported read-only."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_wrapped_functions_resolve():
    # the traced run wraps these functions by name
    spans = load_spans()
    assert spans.WRAPPED
    for mod_name, fn_name in spans.WRAPPED:
        module = importlib.import_module(f"lrbasis.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def _lrb_module(node):
    """"m" when node is `lrb.m`, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lrb"):
        return node.attr
    return None


def benchmark_names(path):
    """Every (module, name) that a bench file reaches as lrb.module.name,
    or as alias.name after `alias = lrb.module`."""
    tree = ast.parse(path.read_text())
    aliases = {node.targets[0].id: _lrb_module(node.value)
               for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name)
               and _lrb_module(node.value)}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = _lrb_module(node.value)
        if module is None and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
        if module is not None:
            names.add((module, node.attr))
    return names


def test_benchmark_calls_resolve():
    names = set()
    for file in ("workloads.py", "selftest.py"):
        names |= benchmark_names(BENCH / file)
    assert {("hwv", "delta_eval"), ("tableaux", "recover_from_M"),
            ("tableaux", "recover_from_e")} <= names
    for mod_name, fn_name in sorted(names):
        module = importlib.import_module(f"lrbasis.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"

"""Every function, class and method of the package has a caller in it.

A name that only tests reach is deleted, or moved into tests/conftest.py
when a test uses it as an oracle.  Names the benchmark wraps or calls
from bench/ are kept until the benchmark changes.

There are two guards.  The static one reads names with ast: it sees
classes and exception types, but neither dunder methods nor a method
whose name another method shares.  The dynamic one runs `lrb` commands
and the benchmark's calls under a call hook: it sees every function,
method and lambda that runs, dunders included, but no class.
"""

import ast
import contextlib
import importlib
import inspect
import io
import random
import sys
import types
from collections import Counter
from pathlib import Path

from lrbasis import cli, hwv, oracle, polyring, tableaux, verify
from lrbasis.shapes import validate_triple
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


def benchmark_reached():
    """(module, name) of each package function the benchmark wraps or calls."""
    reached = set(load_spans().WRAPPED)
    for file in ("workloads.py", "selftest.py"):
        reached |= benchmark_names(BENCH / file)
    return reached


def test_every_definition_has_a_caller():
    reached = benchmark_reached()
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


# Left out: Python 3.12 inlines list, dict and set comprehensions into their
# function, and a generator expression belongs to the function holding it.
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _key(code):
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name


def package_functions(src=SRC):
    """(file, first line, name) of every function, method and lambda of the
    package, read off its compiled modules; module bodies, class bodies
    and comprehensions are left out."""
    found = set()
    for path in sorted(src.glob("*.py")):
        stack = [compile(path.read_text(), str(path.resolve()), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if (const.co_flags & inspect.CO_NEWLOCALS
                            and const.co_name not in COMPREHENSIONS):
                        found.add(_key(const))
    return found


@contextlib.contextmanager
def recording_calls(seen):
    """Add the code object of each Python call made inside to `seen`.

    A global trace function that returns None traces calls, not lines;
    the trace function in place before is put back afterwards.
    """
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: seen.add(frame.f_code))
    try:
        yield
    finally:
        sys.settrace(previous)


def package_modules():
    return [module for name, module in sys.modules.items()
            if name == "lrbasis" or name.startswith("lrbasis.")]


def clear_caches():
    """Empty the package's functools caches, as a new `lrb` process starts
    with them, so that a cached function runs again."""
    for module in package_modules():
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@contextlib.contextmanager
def benchmark_spans():
    """bench/spans.py's tracer installed and recording, as in a traced
    benchmark run; the package's own functions are put back afterwards."""
    saved = [(module, dict(vars(module))) for module in package_modules()]
    tracer = load_spans().Tracer()
    tracer.install()
    tracer.recording = True
    try:
        yield
    finally:
        for module, names in saved:
            vars(module).update(names)


SMALL = ["--D", "1", "--E", "1", "--F", "2"]
TWO = ["--D", "2,1", "--E", "2,1", "--F", "3,2,1"]      # two tableaux
# |F| = 13 > SYMBOLIC_LIMIT, so verify ranks values at points; one tableau
TALL = ["--D", "1,1,1,1,1,1,1", "--E", "1,1,1,1,1,1",
        "--F", "1,1,1,1,1,1,1,1,1,1,1,1,1"]
# a tableau of TWO, and so of no other triple
TABLEAU = '{"outer": [3, 2, 1], "inner": [2, 1], "rows": [[1], [1], [2]]}'


def lrb_runs(tableau_file):
    """(exit code, argv, stdin) of each `lrb` command run: every subcommand
    on small triples, then the error cases of test_cli.py and the one
    that prints a partition."""
    return [
        (0, ["count", *SMALL], ""),
        (0, ["--format", "text", "count", *SMALL], ""),
        (0, ["tableaux", *TWO], ""),
        (0, ["--format", "text", "tableaux", *TWO], ""),
        (0, ["peel", *TWO, "--index", "1"], ""),
        (0, ["monomials", *TWO, "--tableau", tableau_file], ""),
        (0, ["monomials", *TWO, "--tableau", "-"], TABLEAU),
        (0, ["delta", *SMALL], ""),
        (0, ["--format", "text", "delta", *SMALL, "--A", "symbolic"], ""),
        (0, ["delta", *TWO, "--index", "0"], ""),
        (0, ["--format", "text", "delta-ty", *TWO, "--index", "1"], ""),
        (0, ["verify", *TWO, "--all"], ""),
        (0, ["verify", *TALL, "--all"], ""),
        (0, ["oracle", *TWO], ""),
        (0, ["sl4-table"], ""),
        (0, ["bz-grade", "--dots", "x21,z12,y11,y22,x13"], ""),
        (0, ["bz-grade", "--assignment", "-"], '{"x11": 1}'),
        (1, ["count", "--D", "2", "--E", "1", "--F", "2"], ""),
        (1, ["count", "--D", "1,2", "--E", "1", "--F", "2,1,1"], ""),
        (1, ["count", "--D", "a", "--E", "1", "--F", "2"], ""),
        (1, ["peel", *TWO, "--index", "2"], ""),
        (1, ["peel", *SMALL, "--tableau", "-"], "{}"),
        (1, ["peel", *SMALL, "--tableau", "-"], "{"),
        (1, ["peel", *SMALL, "--tableau", ""], ""),
        (1, ["peel", *SMALL, "--tableau", tableau_file], ""),
        (1, ["peel", *SMALL, "--tableau", "-"],
         '{"outer": [1], "inner": [2], "rows": [[]]}'),
        (1, ["peel", *SMALL, "--tableau", "-"],
         '{"outer": [1, 1], "inner": [1], "rows": [[], [1, 1]]}'),
        (1, ["monomials", *SMALL, "--tableau", "-"],
         '{"outer": [1, 1], "inner": [1], "rows": [[], [true]]}'),
        (1, ["bz-grade", "--assignment", "-"], "[]"),
        (1, ["bz-grade", "--assignment", "-"], '{"x11": true}'),
        (1, ["bz-grade", "--assignment", "-"], '{"w11": 1}'),
        (2, ["count", "--D", "1"], ""),
        (2, ["count", *SMALL, "--n", "3"], ""),
        (2, ["bz-grade"], ""),
        (2, ["peel", *SMALL, "--index", "0", "--tableau", "-"], ""),
        (2, ["delta", *SMALL, "--index", "0", "--A", "symbolic"], ""),
        (2, ["peel", *SMALL], ""),
    ]


def run_lrb(argv, stdin=""):
    """Exit code of `lrb argv` run in-process; its output is dropped."""
    sink, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdin = saved


def run_benchmark_calls():
    """What the benchmark does that no command does, on a small triple and
    through bench/spans.py's tracer: the package functions it calls
    directly, and the comparisons it makes on what they return."""
    triple = validate_triple([2, 1], [2, 1], [3, 2, 1])
    point = verify.random_point(random.Random(0), triple)
    J = [[int(j == k) for k in range(triple.r)] for j in range(triple.t)]
    ones = [[1] * triple.s for _ in range(triple.t)]
    with benchmark_spans():
        for T in tableaux.enumerate_lr(triple):
            assert tableaux.recover_from_M(triple, tableaux.monomial_M(T)) == T
            assert tableaux.recover_from_e(triple, tableaux.monomial_e(T)) == T
            tableaux.standard_peeling(T)
            hwv.delta_MT_eval(triple, T, point)
        hwv.delta_eval(triple, J, ones, point)
        polyring.coefficient_of(hwv.delta(triple), (), {"b"})
        oracle.expand_in_schur(oracle.schur_polynomial([2, 1], 3), 3)
        assert run_lrb(["verify", *TWO, "--all"]) == 0


def test_every_function_runs(tmp_path):
    # every function, method and lambda of the package runs in some `lrb`
    # command or benchmark call
    tableau_file = tmp_path / "tableau.json"
    tableau_file.write_text(TABLEAU)
    runs = lrb_runs(str(tableau_file))
    seen = set()
    clear_caches()
    with recording_calls(seen):
        codes = [run_lrb(argv, stdin) for _, argv, stdin in runs]
        run_benchmark_calls()
    ran = {_key(code) for code in seen}
    never = sorted(package_functions() - ran)
    assert never == [], "never ran:\n" + "\n".join(
        f"{Path(file).name}:{line} {name}" for file, line, name in never)
    assert [argv for (code, argv, _), got in zip(runs, codes) if got != code] == []

    def benchmark_call_ran(module, name):
        fn = getattr(importlib.import_module(f"lrbasis.{module}"), name)
        return _key(inspect.unwrap(fn).__code__) in ran
    assert sorted(name for name in benchmark_reached()
                  if not benchmark_call_ran(*name)) == []

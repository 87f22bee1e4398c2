"""The README's library example runs and gives the values it shows."""

import ast
import re

from conftest import readme_block


def test_readme_library():
    # each statement of the "## Library" block runs in turn; a "# N tableaux"
    # comment gives the count or length of its value, a "# True" its value
    source = "\n".join(readme_block("## Library", "python"))
    lines = source.splitlines()
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                         namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            value = (namespace[stmt.targets[0].id]
                     if isinstance(stmt, ast.Assign) else None)
        comment = lines[stmt.end_lineno - 1].partition("# ")[2]
        count = re.match(r"(\d+) tableaux", comment)
        if count:
            assert (value if isinstance(value, int) else len(value)) \
                == int(count[1]), lines[stmt.end_lineno - 1]
            checked += 1
        elif comment.startswith("True"):
            assert value is True, lines[stmt.end_lineno - 1]
            checked += 1
    assert checked == 5

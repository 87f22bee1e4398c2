import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import readme_block
from lrbasis import cli, enumerate_lr, hwv, validate_triple, verify
from lrbasis.polyring import Layout

# the child process imports lrbasis from where this one found it
ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def run(*args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "lrbasis.cli", *args],
                          capture_output=True, text=True, input=stdin, env=ENV)
    return proc


RUN = ["--D", "3,3,2,1,1", "--E", "3,3,2,1", "--F", "5,5,4,3,1,1"]
SMALL = ["--D", "1", "--E", "1", "--F", "2"]


def test_count():
    p = run("count", *RUN)
    assert p.returncode == 0
    assert json.loads(p.stdout) == {"lr_count": 4, "oracle_count": 4}


def test_count_text_format():
    p = run("--format", "text", "count", *SMALL)
    assert p.returncode == 0
    assert "lr_count=1" in p.stdout


def test_tableaux():
    p = run("tableaux", *RUN)
    tabs = json.loads(p.stdout)
    assert len(tabs) == 4
    assert all(set(t) == {"outer", "inner", "rows"} for t in tabs)


def test_peel_and_monomials_by_index():
    p = run("peel", *RUN, "--index", "0")
    out = json.loads(p.stdout)
    assert len(out["strips"]) == 4
    p = run("monomials", *RUN, "--index", "0")
    out = json.loads(p.stdout)
    assert len(out["M"]) == 6 and out["e"].startswith("y[")


def test_monomials_from_stdin():
    tabs = json.loads(run("tableaux", *RUN).stdout)
    p = run("monomials", *RUN, "--tableau", "-", stdin=json.dumps(tabs[0]))
    assert p.returncode == 0
    assert json.loads(p.stdout)["M"]


def test_delta_symbolic():
    p = run("--format", "text", "delta", *SMALL, "--A", "symbolic")
    assert p.returncode == 0
    assert "a[1,1]" in p.stdout and "b[1,1]" in p.stdout


def test_delta_coefficient_and_json_terms():
    p = run("delta", *SMALL, "--index", "0")
    data = json.loads(p.stdout)
    assert set(data) == {"terms"}
    assert sorted(t["c"] for t in data["terms"]) == ["-1", "1"]


def test_delta_ty():
    p = run("--format", "text", "delta-ty", *SMALL, "--index", "0")
    assert p.returncode == 0
    assert "y[2,1]" in p.stdout and "x[" not in p.stdout


def test_verify_all():
    p = run("verify", *SMALL, "--all")
    out = json.loads(p.stdout)
    assert out["pass"] and out["rank"] == 1
    assert p.returncode == 0


def test_oracle_cmd():
    p = run("oracle", *RUN)
    assert json.loads(p.stdout) == {"oracle_count": 4}


def test_sl4_table_cmd():
    p = run("sl4-table")
    assert p.returncode == 0
    out = json.loads(p.stdout)
    assert len(out) == 18 and all(r["pass"] for r in out)


def test_bz_grade_dots():
    p = run("bz-grade", "--dots", "x21,z12,y11,y22,x13")
    out = json.loads(p.stdout)
    assert out == {"D": [2, 1, 1], "E": [1, 1, 0], "F": [1, 1, 0],
                   "hexagon": True}


def test_bz_grade_stdin_assignment():
    p = run("bz-grade", "--assignment", "-", stdin=json.dumps({"x11": 1}))
    out = json.loads(p.stdout)
    assert out["D"] == [1, 1, 1] and out["F"] == [1, 1, 1]


def _domain_error(capsys, argv):
    """The error name main reports for argv, which must exit with 1."""
    assert cli.main(argv) == 1
    return json.loads(capsys.readouterr().err)["error"]


def test_malformed_tableau_exit_1(tmp_path, capsys):
    path = tmp_path / "tableau.json"
    for bad in ({}, {"outer": 5, "inner": [], "rows": []}, [[1]],
                {"outer": [1, 1], "inner": [1], "rows": [[], 1]}):
        path.write_text(json.dumps(bad))
        argv = ["peel", *SMALL, "--tableau", str(path)]
        assert _domain_error(capsys, argv) == "ShapeError"
    p = run("peel", *SMALL, "--tableau", "-", stdin="{}")
    assert p.returncode == 1 and json.loads(p.stderr)["error"] == "ShapeError"


def test_tableau_of_another_triple_exit_1(tmp_path, capsys):
    other = enumerate_lr(validate_triple([2, 1], [2, 1], [3, 2, 1]))[0]
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(other.to_json()))
    for command in ("peel", "monomials", "delta", "delta-ty"):
        argv = [command, *SMALL, "--tableau", str(path)]
        assert _domain_error(capsys, argv) == "ShapeError"


def test_empty_tableau_path(capsys):
    # an empty --tableau is a path like any other, not a missing option
    for command in ("delta", "peel"):
        argv = [command, *SMALL, "--tableau", ""]
        assert _domain_error(capsys, argv) == "FileNotFoundError"
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", *SMALL, "--tableau", "", "--A", "symbolic"])
    assert exc.value.code == 2 and "usage: lrb delta" in capsys.readouterr().err


def test_bz_grade_non_object_exit_1(tmp_path, capsys):
    path = tmp_path / "assignment.json"
    for values in ("[]", "5"):
        path.write_text(values)
        argv = ["bz-grade", "--assignment", str(path)]
        assert _domain_error(capsys, argv) == "ShapeError"


def test_json_booleans_exit_1():
    # true is not the integer 1, in a tableau entry or a vertex value
    tableau = {"outer": [1, 1], "inner": [1], "rows": [[], [True]]}
    for argv, data in ((["monomials", *SMALL, "--tableau", "-"], tableau),
                       (["bz-grade", "--assignment", "-"], {"x11": True})):
        p = run(*argv, stdin=json.dumps(data))
        assert p.returncode == 1 and p.stdout == ""
        assert json.loads(p.stderr)["error"] == "ShapeError"


def test_bz_grade_needs_one_input():
    for argv in ([], ["--dots", "x11", "--assignment", "-"]):
        p = run("bz-grade", *argv, stdin="{}")
        assert p.returncode == 2 and "Traceback" not in p.stderr
        assert "usage: lrb bz-grade" in p.stderr


def test_tableau_named_two_ways_exit_2(capsys):
    # a tableau by --index and by --tableau, or by --index and delta's --A;
    # also named neither way, to a command that needs one
    for command, argv in (
            ("peel", ["peel", *SMALL, "--index", "0", "--tableau", "/nonexistent.json"]),
            ("delta", ["--format", "text", "delta", *SMALL, "--index", "0",
                       "--A", "symbolic"]),
            ("peel", ["peel", *SMALL]),
            ("monomials", ["monomials", *SMALL]),
            ("delta-ty", ["delta-ty", *SMALL]),
            # before the triple is read: |D| + |E| != |F| here
            ("peel", ["peel", "--D", "2", "--E", "1", "--F", "2"]),
            ("monomials", ["monomials", "--D", "2", "--E", "1", "--F", "2"]),
            ("delta-ty", ["delta-ty", "--D", "2", "--E", "1", "--F", "2"])):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"usage: lrb {command}" in err


def test_readme_commands(monkeypatch, capsys):
    # every lrb line of the README's command-line block runs and exits 0, and
    # prints exactly the JSON shown in a "# {...}" line right below it
    lines = readme_block("## Command line", "sh")
    commands = 0
    for line, after in zip(lines, lines[1:] + [""]):
        feed, _, command = line.rpartition("| ")
        if not command.startswith("lrb "):
            continue
        stdin = " ".join(shlex.split(feed)[1:]) + "\n" if feed else ""
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert cli.main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if after.startswith("# {"):
            assert out == after[2:] + "\n", line
        commands += 1
    assert commands == 12


def test_exponent_overflow_exit_1(monkeypatch, capsys):
    # a layout whose fields hold exponents up to 1 only: x[1,1]^2 sets a
    # guard bit, and the error names the exponent and the field width
    wide = hwv.triple_layout
    monkeypatch.setattr(hwv, "triple_layout",
                        lambda triple: Layout(wide(triple).variables, 1))
    assert cli.main(["delta", "--D", "1,1", "--E", "1", "--F", "2,1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {
        "error": "ExponentOverflow",
        "message": "the exponent of ('x', 1, 1) reached 2, past the 2-bit "
                   "field that holds at most 1"}


def test_domain_error_exit_1():
    p = run("count", "--D", "2", "--E", "1", "--F", "2")
    assert p.returncode == 1
    err = json.loads(p.stderr)
    assert err["error"] == "SizeMismatch"


def test_usage_error_exit_2():
    p = run("count", "--D", "1")
    assert p.returncode == 2
    # the matrix sizes are not options
    p = run("count", *SMALL, "--n", "3")
    assert p.returncode == 2


def test_thread_count_variable_ignored(monkeypatch, capsys):
    monkeypatch.setenv("LRB_THREADS", "abc")
    cli.build_parser.cache_clear()
    assert cli.main(["count", *SMALL]) == 0
    assert json.loads(capsys.readouterr().out)["lr_count"] == 1


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_resource_error_exit_1(monkeypatch, capsys, exc):
    def exhausted(*args):
        raise exc("out of room")
    monkeypatch.setattr(cli, "enumerate_lr", exhausted)
    assert cli.main(["count", *SMALL]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": exc.__name__, "message": "out of room"}


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    assert cli.main(["count", *SMALL]) == 0


def test_verify_builds_each_vector_once(monkeypatch, capsys):
    calls = []
    original = hwv.delta_MT

    def counting(triple, T):
        calls.append(T)
        return original(triple, T)
    monkeypatch.setattr(hwv, "delta_MT", counting)
    monkeypatch.setattr(verify, "delta_MT", counting)
    assert cli.main(["verify", "--D", "2,1", "--E", "2,1", "--F", "3,2,1",
                     "--all"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 2
    assert len(calls) == len(set(map(id, calls))) == 2


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, about 1 MB of the benchmark process's
    # memory; pytest loads both, so the check runs in a fresh interpreter
    code = ("import sys, lrbasis, lrbasis.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]

import argparse
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cli_agreement
from cli_agreement import SMALL, TABLEAU_USAGE_ERRORS
from conftest import readme_block
from lrbasis import cli, enumerate_lr, hwv, tableaux, validate_triple, verify
from lrbasis.polyring import Layout

# the child process imports lrbasis from where this one found it
ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def run(*args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "lrbasis.cli", *args],
                          capture_output=True, text=True, input=stdin, env=ENV)
    return proc


RUN = ["--D", "3,3,2,1,1", "--E", "3,3,2,1", "--F", "5,5,4,3,1,1"]


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
    # D = 1,1 does not fit inside F = 2: no tableau and no vector to build
    p = run("verify", "--D", "1,1", "--E", "-", "--F", "2", "--all")
    assert p.returncode == 0
    assert json.loads(p.stdout) == {
        "hwv": True, "weights": True, "sz_bound": 9e-12, "leading": True,
        "rank": 0, "lr_count": 0, "oracle_count": 0, "basis": True,
        "pass": True}


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
    # the last is SMALL's one-cell tableau with empty rows below its shape
    for bad in ({}, {"outer": 5, "inner": [], "rows": []}, [[1]],
                {"outer": [1, 1], "inner": [1], "rows": [[], 1]},
                {"outer": [1, 1], "inner": [1], "rows": [[], [1], [], [], []]}):
        path.write_text(json.dumps(bad))
        argv = ["peel", *SMALL, "--tableau", str(path)]
        assert _domain_error(capsys, argv) == "ShapeError"
    p = run("peel", *SMALL, "--tableau", "-", stdin="{}")
    assert p.returncode == 1 and json.loads(p.stderr)["error"] == "ShapeError"


def test_tableau_of_another_triple_exit_1(tmp_path, capsys):
    # a tableau of another shape, and one with the triple's skew shape,
    # filled LR, but with content (1, 1), not transpose(E) = (2)
    other = enumerate_lr(validate_triple([2, 1], [2, 1], [3, 2, 1]))[0]
    content = {"outer": [2, 1], "inner": [1], "rows": [[1], [2]]}
    path = tmp_path / "tableau.json"
    for tableau, triple in ((other.to_json(), SMALL),
                            (content, ["--D", "1", "--E", "1,1", "--F", "2,1"])):
        path.write_text(json.dumps(tableau))
        for command in ("peel", "monomials", "delta", "delta-ty"):
            argv = [command, *triple, "--tableau", str(path)]
            assert _domain_error(capsys, argv) == "ShapeError"
    assert cli.main(argv) == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert "content (1, 1)" in message and "(2,)" in message


def test_tableau_numbers_size_nothing(tmp_path):
    # a one-cell triple, and files whose entry or outer diagram is huge:
    # rejected by naming that value, before a list that long is built
    path = tmp_path / "tableau.json"
    for tableau, value in (
            ({"outer": [1], "inner": [], "rows": [[10000000]]}, "10000000"),
            ({"outer": [2000000], "inner": [], "rows": [[1]]}, "2000000 and -")):
        path.write_text(json.dumps(tableau))
        p = run("peel", "--D", "-", "--E", "1", "--F", "1", "--tableau", str(path))
        assert p.returncode == 1 and len(p.stderr) < 1024
        err = json.loads(p.stderr)
        assert err["error"] == "ShapeError" and value in err["message"]


def test_non_utf8_file_exit_1(tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff")
    for argv in (["peel", *SMALL, "--tableau", str(path)],
                 ["bz-grade", "--assignment", str(path)]):
        p = run(*argv)
        assert p.returncode == 1 and "Traceback" not in p.stderr
        assert json.loads(p.stderr)["error"] == "UnicodeDecodeError"


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
    for command, argv in TABLEAU_USAGE_ERRORS:
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
    # a missing option, and the matrix sizes, which are not options
    for argv in (["count", "--D", "1"], ["count", *SMALL, "--n", "3"]):
        p = run(*argv)
        assert p.returncode == 2 and "Traceback" not in p.stderr
        assert "usage: lrb" in p.stderr


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


def test_main_agrees_with_eager_parser(monkeypatch):
    # help and usage errors, at the top level and in each subcommand, read
    # the same from main as from a parser with every subcommand built
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_agreement.disagreements() == []


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_main_agrees_with_eager_parser_under(python):
    # the subcommand stand-in relies on argparse calling parse_known_args
    # on its parser_class and add_parser passing its keywords through:
    # checked under each of these Pythons that is on PATH and starts
    exe = shutil.which(python)
    if exe is None:
        pytest.skip(f"no {python} on PATH")
    if subprocess.run([exe, "-c", ""], capture_output=True).returncode:
        pytest.skip(f"{python} is on PATH but does not start")
    proc = subprocess.run([exe, cli_agreement.__file__], capture_output=True,
                          text=True, env=dict(ENV, COLUMNS="80"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_parser_built_for_the_named_command(monkeypatch):
    # the top level, and the subparser of the command argv reaches
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv, parsers in ((["verify", *SMALL, "--basis"], 2),
                          (["--format", "text", "count", *SMALL], 2),
                          (["--format=text", "count", *SMALL], 2),
                          (["count", "-h"], 2), (["count", *SMALL, "extra"], 2),
                          (["-h"], 1), (["frobnicate"], 1)):
        cli.build_parser.cache_clear()
        built.clear()
        cli_agreement.outcome(cli.main, argv)
        assert len(built) == parsers, argv


def test_no_parser_built_at_import():
    code = "import lrbasis.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    assert cli.main(["count", *SMALL]) == 0


def test_verify_builds_each_vector_once(monkeypatch, capsys):
    # every flag set makes one check_basis call, and no polynomial is
    # expanded: the rank and the leading terms come from one sum over
    # det Yo, on pairs of the values of all the tableaux at c + 4 y points
    # and their max-plus tops; only a group check (--hwv, --weights,
    # --all, no flag) walks det Z, over lists of values at its 2 base
    # points and their 4 translates.  The ring of a sum shows in its `one`
    calls, bases = [], []
    original, check_basis = hwv._laplace_sums, verify.check_basis

    def ring(one):
        if isinstance(one, list):
            return "values", len(one)
        return "values and tops", len(one[0])

    def counting(triple, grids, with_x, value, accumulate, one):
        calls.append((len(grids), with_x, *ring(one)))
        return original(triple, grids, with_x, value, accumulate, one)
    def basis(*args):
        bases.append(args)
        return check_basis(*args)
    monkeypatch.setattr(hwv, "_laplace_sums", counting)
    monkeypatch.setattr(verify, "check_basis", basis)
    two = ["--D", "2,1", "--E", "2,1", "--F", "3,2,1"]
    yo, z = (2, False, "values and tops", 6), (2, True, "values", 6)
    for checks, sums in (
            (["--leading"], [yo]),
            (["--basis"], [yo]),
            (["--basis", "--leading"], [yo]),
            (["--hwv"], [yo, z]),
            (["--weights"], [yo, z]),
            (["--all"], [yo, z]),
            ([], [yo, z])):
        calls.clear()
        bases.clear()
        assert cli.main(["verify", *two, *checks]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]
        assert calls == sums and len(bases) == 1, checks


def test_bare_verify_runs_every_check(capsys):
    # no check named is every check, as --all
    two = ["--D", "2,1", "--E", "2,1", "--F", "3,2,1"]
    assert cli.main(["verify", *two]) == 0
    bare = capsys.readouterr().out
    assert cli.main(["verify", *two, "--all"]) == 0
    assert capsys.readouterr().out == bare
    assert list(json.loads(bare)) == ["hwv", "weights", "sz_bound", "leading",
                                      "rank", "lr_count", "oracle_count",
                                      "basis", "pass"]


def test_verify_pass_reads_every_verdict(monkeypatch, capsys):
    # a failed leading verdict fails the report and the exit status
    monkeypatch.setattr(verify, "check_leading_term", lambda *args, **kw: False)
    argv = ["verify", "--D", "2,1", "--E", "2,1", "--F", "3,2,1", "--leading"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {"leading": False, "pass": False}


def test_verify_basis_on_the_76_tableau_triple(capsys):
    # its det Z walk has 1.4 million states and ran out of memory; the
    # rank comes from det Yo, whose walk has some 1,200
    argv = ["verify", "--D", "5,4,3,2,1", "--E", "5,4,3,2,1", "--F", "8,7,6,4,3,2",
            "--basis", "--leading"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "leading": True, "rank": 76, "lr_count": 76, "oracle_count": 76,
        "basis": True, "pass": True}


def test_verify_peels_each_tableau_once(monkeypatch, capsys):
    # check_basis builds each grid M(T) once and hands it to both sums
    calls = []
    peel = tableaux.monomial_M

    def counting(T):
        calls.append(T)
        return peel(T)
    for module in (cli, hwv, tableaux, verify):
        monkeypatch.setattr(module, "monomial_M", counting)
    argv = ["verify", "--D", "3,2,1", "--E", "3,2,1", "--F", "5,4,2,1"]
    for checks in (["--all"], ["--basis", "--leading"]):
        calls.clear()
        assert cli.main([*argv, *checks]) == 0
        assert json.loads(capsys.readouterr().out)["lr_count"] == len(calls) == 4


def test_leading_on_the_frontier_triple_expands_nothing(monkeypatch, capsys):
    # |F| = 24 and |E| = 21 rows of y: expanding delta_TY of its two
    # tableaux took 10 s and 196 MB; one max-plus sum over det Yo gives
    # both leading terms, and no tableau falls back to the expansion
    calls = []
    original = hwv._laplace_sums

    def counting(triple, grids, with_x, value, accumulate, one):
        calls.append((len(grids), with_x, type(one).__name__))
        return original(triple, grids, with_x, value, accumulate, one)

    def expanding(*args):
        raise AssertionError("delta_TY expanded")
    monkeypatch.setattr(hwv, "_laplace_sums", counting)
    monkeypatch.setattr(verify, "delta_TY", expanding)
    argv = ["verify", "--D", "2,1", "--E", "5,4,4,3,3,2", "--F", "6,5,4,4,3,2",
            "--leading"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"leading": True, "pass": True}
    assert calls == [(2, False, "tuple")]


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, about 1 MB of the benchmark process's
    # memory; pytest loads both, so the check runs in a fresh interpreter
    code = ("import sys, lrbasis, lrbasis.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]

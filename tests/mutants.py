"""Mutations of the package that its tests must catch.

Each mutant names a file under src/lrbasis, a text that must occur in it
exactly once, the text that replaces it, and the tests expected to fail.
The mutant is applied to a copy of src/ in a temporary directory, and its
tests run there with `pytest -x`.  Needs pytest; from the repository root:

    python3 tests/mutants.py [name ...]

runs every mutant, or those named, prints one line per mutant, and exits 1
naming each mutant that survives, whose text no longer occurs once, or
whose tests do not run or fail on the unmutated package.  A refactor of
mutated code updates the table with it; a mutant leaves the table only
when the code it mutates is deleted.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ELIMINATE = ["tests/test_verify.py::test_eliminate_matches_eager",
             "tests/test_hwv.py::test_eliminate_matches_eager_on_delta_eval_matrices"]

SHARED_SUM = ["tests/test_hwv.py::test_shared_sum_matches_forward_plans"]

MAX_PLUS = ["tests/test_hwv.py::test_max_plus_ring_on_hand_built_sums",
            "tests/test_hwv.py::test_cancelled_top_of_det_Yo"]

# name: (file, old text, new text, tests expected to catch it)
MUTANTS = {
    # intlinalg._eliminate: the lazy row scaling
    "refresh factor inverted": (
        "intlinalg.py",
        "top[c:] = [x * prev // lv for x in top[c:]]",
        "top[c:] = [x * lv // prev for x in top[c:]]",
        ELIMINATE),
    "level of an updated row kept": (
        "intlinalg.py",
        "                level[i] = p\n",
        "",
        ELIMINATE),
    "stale pivot row not refreshed": (
        "intlinalg.py",
        "        if lv != prev:\n",
        "        if False:\n",
        ELIMINATE),
    "level not swapped with its row": (
        "intlinalg.py",
        "            level[rank], level[piv] = level[piv], level[rank]\n",
        "",
        ELIMINATE),
    # hwv._entries
    "values read as wide as the narrowest block": (
        "hwv.py",
        "for v in range(1, max(widths, default=0) + 1)",
        "for v in range(1, min(widths, default=0) + 1)",
        ["tests/test_hwv.py::test_entries_match_eager"]),
    # hwv._laplace_sums
    "state keyed by its mask alone": (
        "hwv.py",
        "into.setdefault((rest, node), [])",
        "into.setdefault(next((k for k in into if k[0] == rest),"
        " (rest, node)), [])",
        SHARED_SUM),
    "global sign applied twice": (
        "hwv.py",
        "out = [v and accumulate(None, v, one, -1) for v in out]",
        "out = [v and accumulate(None, accumulate(None, v, one, -1), one, -1)"
        " for v in out]",
        SHARED_SUM),
    "picks blind to crossings between superrows": (
        "hwv.py",
        "odd + p + (local and sum(",
        "odd + p + 0 * (local and sum(",
        SHARED_SUM),
    "picks blind to the rows left in earlier superrows": (
        "hwv.py",
        "            parity += c * ((mask & ((1 << low) - 1)).bit_count()"
        " - earlier)\n",
        "",
        SHARED_SUM),
    "det Yo started from all the rows of Z": (
        "hwv.py",
        "start |= ((1 << f) - (1 << skip)) << low",
        "start |= ((1 << f) - 1) << low",
        SHARED_SUM),
    "a state's value used as acc": (
        "hwv.py",
        "out = [v and accumulate(None, v, one, -1) for v in out]",
        "out = [v and accumulate(accumulate(v, v, one, -1), v, one, -1)"
        " for v in out]",
        SHARED_SUM),
    "parity without c(c-1)/2": (
        "hwv.py",
        "sum(pick) - c * (c - 1) // 2",
        "sum(pick)",
        SHARED_SUM),
    "a state's earlier edges dropped": (
        "hwv.py",
        "accumulate(above.get(before), m, after, sign)",
        "accumulate(None, m, after, sign)",
        SHARED_SUM),
    # the max-plus tops of hwv.delta_TY_values_and_leads
    "equal keys keep the first count": (
        "hwv.py",
        "        return key, acc[1] + c * p[1] * q[1]\n",
        "        return acc\n",
        MAX_PLUS),
    "a cancelled top left unmarked": (
        "hwv.py",
        "if not count:",
        "if not pair:",
        MAX_PLUS),
    # polyring.y_order, read by leading_monomial and the max-plus tops
    "max-plus key in row-major y order": (
        "polyring.py",
        "key=lambda v: (v[2], v[1])",
        "key=lambda v: (v[1], v[2])",
        ["tests/test_polyring.py::test_y_order_single_variables", *MAX_PLUS]),
    # polyring._sorted_terms
    "sort key without the degree": (
        "polyring.py",
        "key = sum(e for _, e in fields) << top",
        "key = 0",
        ["tests/test_polyring.py::test_writers_match_oracle_on_random_polynomials",
         "tests/test_polyring.py::test_output_order_edge_cases"]),
    "sort key in forward field order": (
        "polyring.py",
        "key += e << top - (k + 1) * w",
        "key += e << k * w",
        ["tests/test_polyring.py::test_writers_match_oracle_on_random_polynomials",
         "tests/test_polyring.py::test_output_order_edge_cases"]),
    "a part shown again for every term": (
        "polyring.py",
        "got = memo[part] = read(part)",
        "got = read(part)",
        ["tests/test_polyring.py::test_writer_shows_each_distinct_part_once"]),
    # verify._move_one_power, check_hwv and weight_profile
    "operator image without the exponent factor": (
        "verify.py",
        "total = out.get(m2, 0) + c * e",
        "total = out.get(m2, 0) + c",
        ["tests/test_verify.py::test_raising_operator_rows_basic",
         "tests/test_verify.py::test_packed_against_tuple_monomials"]),
    "row operators from row 3": (
        "verify.py",
        "for d in range(2, triple.F.width + 1))",
        "for d in range(3, triple.F.width + 1))",
        ["tests/test_verify.py::test_row_operator_kills_determinant",
         "tests/test_verify.py::test_packed_against_tuple_monomials"]),
    "x and y column degrees pooled": (
        "verify.py",
        "for axis, k in ((\"r\", i), (family, j)):",
        "for axis, k in ((\"r\", i), (\"x\", j)):",
        ["tests/test_verify.py::test_weight_profile_values"]),
    # polyring.Polynomial
    "Polynomial keeps a zero coefficient": (
        "polyring.py",
        "else {m: c for m, c in terms.items() if c})",
        "else terms)",
        ["tests/test_polyring.py::test_polynomial_keeps_its_dict"]),
    # hwv.delta_TY_values_and_leads: the rank of check_basis
    "rank taken on det Z": (
        "hwv.py",
        "out = _laplace_sums(triple, grids, False,\n"
        "                        lambda v: ([pt[v] for pt in points], top[v])",
        "out = _laplace_sums(triple, grids, True,\n"
        "                        lambda v: ([pt[v] for pt in points], top[v])",
        ["tests/test_cli.py::test_verify_builds_each_vector_once"]),
    "a pair's top summed without acc": (
        "hwv.py",
        "_add_tops(top, p[1], q[1], c)",
        "_add_tops(None, p[1], q[1], c)",
        MAX_PLUS),
    # verify._draw
    "draw accepts r = n": (
        "verify.py",
        "while r >= n or r == -lo:",
        "while r > n or r == -lo:",
        ["tests/test_verify.py::test_draw_is_the_randint_stream"]),
    "draw from a range with no nonzero integer": (
        "verify.py",
        "    if lo > hi or lo == hi == 0:\n",
        "    if False:\n",
        ["tests/test_verify.py::test_draw_rejects_a_range_with_no_nonzero_integer"]),
    # verify._translates
    "diagonal of n counted twice": (
        "verify.py",
        "for a in range(1, i))",
        "for a in range(1, i + 1))",
        ["tests/test_verify.py::test_group_checks_agree_with_exact_checks"]),
    "n built upper unitriangular": (
        "verify.py",
        "for i in rows for a in rows if a < i}",
        "for i in rows for a in rows if a > i}",
        ["tests/test_verify.py::test_group_checks_agree_with_exact_checks"]),
    "torus character read off D, not D'": (
        "verify.py",
        "zip(cols, triple.Dt.parts + triple.Et.parts)",
        "zip(cols, triple.D.parts + triple.Et.parts)",
        ["tests/test_verify.py::test_group_checks_agree_with_exact_checks"]),
    # verify.check_leading_term and BasisReport
    "tops of another length judged": (
        "verify.py",
        "zip(tableaux, tops, strict=True)",
        "zip(tableaux, tops)",
        ["tests/test_verify.py::test_leading_term_needs_one_top_per_tableau"]),
    "leading coefficient not checked": (
        "verify.py",
        "m == monomial_e(T) and abs(c) == 1",
        "m == monomial_e(T) and True",
        ["tests/test_verify.py::test_leading_term_needs_a_unit_coefficient"]),
    "basis passed without the oracle count": (
        "verify.py",
        "return (self.lr_count == self.oracle_count == self.rank",
        "return (self.lr_count == self.rank",
        ["tests/test_verify.py::test_check_basis_reuses_given_vectors"]),
    # cli.cmd_verify
    "pass blind to the leading verdict": (
        "cli.py",
        'if k in ("hwv", "weights", "leading", "basis"))',
        'if k in ("hwv", "weights", "basis"))',
        ["tests/test_cli.py::test_verify_pass_reads_every_verdict"]),
    "bare verify runs no check": (
        "cli.py",
        "run_all = args.all or not (args.hwv or args.weights or args.leading"
        " or args.basis)",
        "run_all = args.all",
        ["tests/test_cli.py::test_bare_verify_runs_every_check"]),
    # tableaux: enumeration, the LR conditions, peeling and its inverse
    "lattice check admits one more": (
        "tableaux.py",
        "placed[v] + 1 > above[v - 1]",
        "placed[v] > above[v - 1]",
        ["tests/test_tableaux.py::test_running_example_enumeration"]),
    "lattice word condition not strict": (
        "tableaux.py",
        "if prefix[m] > prev[m - 1]:",
        "if prefix[m] >= prev[m - 1]:",
        ["tests/test_tableaux.py::test_enumerated_tableaux_are_lr"]),
    "peeling takes the leftmost cell": (
        "tableaux.py",
        "key=lambda rc: (rc[0], -rc[1])",
        "key=lambda rc: (rc[0], rc[1])",
        ["tests/test_tableaux.py::test_peeling_strip_geometry"]),
    "recovered columns in increasing order": (
        "tableaux.py",
        "cols.sort(reverse=True)",
        "cols.sort()",
        ["tests/test_tableaux.py::test_recover_roundtrips"]),
    # oracle: the horizontal strips of _kostka and the sign of w
    "strip bounded by its own row only": (
        "oracle.py",
        "range(min(k, shape[row] - below), -1, -1)",
        "range(min(k, shape[row]), -1, -1)",
        ["tests/test_oracle.py::test_schur_known_small"]),
    "sign of w dropped": (
        "oracle.py",
        "total += -rest if k % 2 else rest",
        "total += rest",
        ["tests/test_oracle.py::test_lr_coefficient_symmetry"]),
    # shapes.LRTriple
    "dt_in_ft containment reversed": (
        "shapes.py",
        "F.contains(D)",
        "D.contains(F)",
        ["tests/test_tableaux.py::test_running_example_enumeration"]),
    # cli._triple_and_tableau
    "tableau content check removed": (
        "cli.py",
        "    if tuple(content) != triple.Et.parts:\n",
        "    if False:\n",
        ["tests/test_cli.py::test_tableau_of_another_triple_exit_1"]),
    # cli._Command
    "add_parser keywords dropped": (
        "cli.py",
        "parser = argparse.ArgumentParser(**self.kwargs)",
        "parser = argparse.ArgumentParser()",
        ["tests/test_cli.py::test_main_agrees_with_eager_parser"]),
    "every subcommand built up front": (
        "cli.py",
        "        self.command, self.kwargs = command, kwargs\n",
        "        self.command, self.kwargs = command, kwargs\n"
        "        parser = argparse.ArgumentParser(**kwargs)\n"
        "        for add in COMMANDS[command][1]:\n"
        "            add(parser)\n",
        ["tests/test_cli.py::test_parser_built_for_the_named_command"]),
}


def run_tests(src, tests):
    """The exit status of pytest -x on tests, with the package from src in
    place of the pythonpath that pyproject.toml gives pytest."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def outcome(name, work):
    """What became of one mutant: "killed", or why it is reported."""
    file, old, new, tests = MUTANTS[name]
    src = work / "".join(ch if ch.isalnum() else "_" for ch in name)
    shutil.copytree(ROOT / "src", src)
    path = src / "lrbasis" / file
    text = path.read_text()
    if text.count(old) != 1:
        return f"its text occurs {text.count(old)} times in {file}"
    if run_tests(src, tests) != 0:
        return "its tests do not pass on the unmutated package"
    path.write_text(text.replace(old, new))
    rc = run_tests(src, tests)
    return {0: "survived", 1: "killed"}.get(rc, f"pytest exit status {rc}")


def main(names):
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    bad, t0 = [], time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or MUTANTS:
            result = outcome(name, Path(tmp))
            print(f"{result:>10}  {name}" if result == "killed"
                  else f"FAIL  {name}: {result}", flush=True)
            if result != "killed":
                bad.append(name)
    print(f"{len(names or MUTANTS) - len(bad)} killed, {len(bad)} reported, "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

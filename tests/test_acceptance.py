"""End-to-end acceptance checks with explicit time budgets.

Each test prints one PASS line so the whole gate can be read off a
verbose run.  Random data is drawn from fixed seeds.
"""

import random
import time

from conftest import (RUNNING_E, RUNNING_GRIDS, RUNNING_TABLEAUX, all_triples,
                      check_e1_factorization, check_grid, random_triple,
                      tableau_by_rows, triangular_pair)
from lrbasis import (check_basis, check_hwv, check_leading_term, delta,
                     delta_eval, delta_MT, enumerate_lr, leading_monomial,
                     lr_coefficient, monomial_M, monomial_e, recover_from_M,
                     reproduce_sl4_table, standard_peeling, delta_TY,
                     weight_profile)
from lrbasis.polyring import mono_text
from lrbasis.verify import random_point


def _report(capsys, num, name, elapsed=None):
    extra = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): PASS{extra}")


def test_acceptance_01_running_example_count(running, capsys):
    tabs = enumerate_lr(running)
    assert len(tabs) == 4
    got = {tuple(map(tuple, T.to_json()["rows"])) for T in tabs}
    want = {tuple(map(tuple, rows)) for rows in RUNNING_TABLEAUX.values()}
    assert got == want
    _report(capsys, 1, "running example has exactly the four known tableaux")


def test_acceptance_02_monomial_fidelity(running, capsys):
    tabs = enumerate_lr(running)
    for name in ("T", "T1"):
        T = tableau_by_rows(tabs, RUNNING_TABLEAUX[name])
        assert [list(r) for r in monomial_M(T).m] == RUNNING_GRIDS[name]
        assert mono_text(monomial_e(T)) == RUNNING_E[name]
    _report(capsys, 2, "exponent grids and e monomials match the worked values")


def test_acceptance_03_leading_term(running, capsys):
    t0 = time.time()
    tabs = enumerate_lr(running)
    for T, top in zip(tabs, check_basis(running, tableaux=tabs).tops):
        d = delta_TY(running, T)
        lm, c = leading_monomial(d)
        assert lm == monomial_e(T) and abs(c) == 1
        assert check_leading_term(running, [T], [top])
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(capsys, 3, "leading y-monomials are the e monomials with unit coefficient",
            elapsed)


def test_acceptance_04_highest_weight(capsys):
    rng = random.Random(101)
    t0 = time.time()
    for _ in range(10):
        tr = random_triple(rng, 8, require_tableaux=True)
        for _ in range(5):
            A = [[rng.randint(-6, 6) for _ in range(tr.r)] for _ in range(tr.t)]
            B = [[rng.randint(-6, 6) for _ in range(tr.s)] for _ in range(tr.t)]
            p = delta(tr, A=A, B=B)
            assert check_hwv(p, tr)
    for _ in range(10):
        tr = random_triple(rng, 10, require_tableaux=True)
        for T in enumerate_lr(tr):
            assert check_hwv(delta_MT(tr, T), tr)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(capsys, 4, "determinants and tableau coefficients are highest weight vectors",
            elapsed)


def test_acceptance_05_weight_profiles(capsys):
    rng = random.Random(102)
    t0 = time.time()
    for _ in range(10):
        tr = random_triple(rng, 10, require_tableaux=True)
        for T in enumerate_lr(tr):
            assert weight_profile(delta_MT(tr, T)).matches(tr)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(capsys, 5, "tableau coefficients have weight (F', D', E')", elapsed)


def test_acceptance_06_factorization_identity(capsys):
    rng = random.Random(103)
    t0 = time.time()
    done = 0
    while done < 10:
        tr = random_triple(rng, 8, require_tableaux=True)
        if tr.r == 0:
            continue
        A, B, J, B0, factor = triangular_pair(rng, tr)
        for _ in range(8):
            pt = random_point(rng, tr)
            assert delta_eval(tr, A, B, pt) == factor * delta_eval(tr, J, B0, pt)
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(capsys, 6, "triangular factorization rescales the reduced determinant",
            elapsed)


def test_acceptance_07_basis_rank(running, capsys):
    t0 = time.time()
    rep = check_basis(running)
    assert rep.passed and rep.lr_count == 4
    rng = random.Random(104)
    for _ in range(20):
        tr = random_triple(rng, 10, require_tableaux=True)
        rep = check_basis(tr)
        assert rep.passed, f"{tr.D} {tr.E} {tr.F}"
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(capsys, 7, "tableau coefficients are linearly independent and complete",
            elapsed)


def test_acceptance_08_sl4_table(capsys):
    t0 = time.time()
    reports = reproduce_sl4_table()
    assert len(reports) == 18 and all(r["pass"] for r in reports)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(capsys, 8, "all 18 rows of the bundled rank-3 table reproduce", elapsed)


def test_acceptance_09_oracle_equivalence(capsys):
    t0 = time.time()
    for tr in all_triples(6):
        assert len(enumerate_lr(tr)) == lr_coefficient(tr), f"{tr.D} {tr.E} {tr.F}"
    rng = random.Random(105)
    for _ in range(50):
        tr = random_triple(rng, 10)
        assert len(enumerate_lr(tr)) == lr_coefficient(tr), f"{tr.D} {tr.E} {tr.F}"
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(capsys, 9, "enumeration equals the symmetric-function oracle", elapsed)


def test_acceptance_10_peeling_soundness(capsys):
    rng = random.Random(106)
    t0 = time.time()
    for _ in range(30):
        tr = random_triple(rng, 10, require_tableaux=True)
        for T in enumerate_lr(tr):
            trace = standard_peeling(T)
            assert trace.banal_shape == tr.Et
            for strip in trace.strips:
                for (a1, c1), (a2, c2) in zip(strip, strip[1:]):
                    assert a1 < a2 and c1 >= c2
            m = monomial_M(T)
            assert check_grid(m.m, tr)
            assert recover_from_M(tr, m) == T
    elapsed = time.time() - t0
    _report(capsys, 10, "peeling produces valid strips and is invertible", elapsed)


def test_acceptance_11_first_column_factors(running, capsys):
    rng = random.Random(107)
    t0 = time.time()
    for T in enumerate_lr(running):
        assert check_e1_factorization(running, T)
    for _ in range(15):
        tr = random_triple(rng, 9, require_tableaux=True)
        for T in enumerate_lr(tr):
            assert check_e1_factorization(tr, T)
    elapsed = time.time() - t0
    _report(capsys, 11, "strip-start factors exhaust the first y column", elapsed)

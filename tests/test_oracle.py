import ast
import json
import random
import time
from math import factorial
from pathlib import Path

import pytest

from conftest import (all_triples, partitions_of, peel_lr_coefficient, poly,
                      random_triple, tableau_ssyt_monomials, unpacked)
from lrbasis import (Partition, enumerate_lr, expand_in_schur, lr_coefficient,
                     schur_polynomial, validate_triple)
from lrbasis.errors import ExponentOverflow, NegativeCoefficient, NotSymmetric
from lrbasis.oracle import _ssyt_monomials
from lrbasis.polyring import Layout, mono, zvar

ROOT = Path(__file__).resolve().parents[1]


def test_schur_known_small():
    # s_(1) in 3 variables = z1 + z2 + z3
    s = schur_polynomial([1], 3)
    assert len(s.terms) == 3 and all(c == 1 for c in s.terms.values())
    # s_(1,1) in 2 variables = z1 z2
    s = schur_polynomial([1, 1], 2)
    assert unpacked(s) == {mono((zvar(1), 1), (zvar(2), 1)): 1}
    # s_(2) in 2 variables = z1^2 + z1 z2 + z2^2
    assert len(schur_polynomial([2], 2).terms) == 3
    # too deep for the variable count
    assert schur_polynomial([1, 1, 1], 2).is_zero()


def test_schur_dimension_values():
    # number of semistandard tableaux = dimension of the irreducible
    assert sum(schur_polynomial([2, 1], 3).terms.values()) == 8
    assert sum(schur_polynomial([1, 1], 4).terms.values()) == 6
    assert sum(schur_polynomial([3], 2).terms.values()) == 4


def test_expand_recovers_schur():
    rng = random.Random(9)
    for _ in range(15):
        lam = rng.choice([(2, 1), (3,), (1, 1), (2, 2), (3, 1)])
        n = rng.randint(len(lam), 4)
        out = expand_in_schur(schur_polynomial(lam, n), n)
        assert out == {Partition(lam): 1}


def test_expand_rejects_asymmetric():
    p = poly({mono((zvar(2), 1)): 1})  # z2 alone
    with pytest.raises(NotSymmetric):
        expand_in_schur(p, 2)
    # z1^2 has a partition exponent but is not symmetric in 2 variables
    z1sq = {mono((zvar(1), 2)): 1}
    z1z2 = {mono((zvar(1), 1), (zvar(2), 1)): 1}
    for p in (poly(z1sq), poly({**z1sq, **z1z2})):
        with pytest.raises((NotSymmetric, NegativeCoefficient)):
            expand_in_schur(p, 2)
    # every rearrangement present, but z1^2 and z2^2 with unequal
    # coefficients: s_(2) taken once would leave nothing behind
    p = poly({mono((zvar(2), 2)): 1, mono((zvar(1), 2)): 2,
              mono((zvar(1), 1), (zvar(2), 1)): 1})
    with pytest.raises((NotSymmetric, NegativeCoefficient)):
        expand_in_schur(p, 2)


def z_layout(nvars, degree):
    return Layout([zvar(i) for i in range(1, nvars + 1)], degree)


def test_pieri_rule():
    # s_(1) * s_(1) = s_(2) + s_(1,1)
    s1 = schur_polynomial([1], 3, z_layout(3, 2))
    out = expand_in_schur(s1 * s1, 3)
    assert out == {Partition([2]): 1, Partition([1, 1]): 1}
    # s_(2,1) * s_(1): three summands, all multiplicity 1
    lay = z_layout(4, 4)
    out = expand_in_schur(schur_polynomial([2, 1], 4, lay)
                          * schur_polynomial([1], 4, lay), 4)
    assert out == {Partition([3, 1]): 1, Partition([2, 2]): 1,
                   Partition([2, 1, 1]): 1}
    # a product past the degree of the layout is a domain error
    with pytest.raises(ExponentOverflow):
        s1 * s1 * s1 * s1     # z[1]^4 in fields that hold 3
    with pytest.raises(ExponentOverflow, match="z', 1, 1\\) reached 4"):
        schur_polynomial([4], 2, z_layout(2, 3))


def test_lr_coefficient_known():
    assert lr_coefficient(validate_triple([2, 1], [2, 1], [3, 2, 1])) == 2
    assert lr_coefficient(validate_triple([1], [1], [2])) == 1
    assert lr_coefficient(validate_triple([1], [1], [1, 1])) == 1
    assert lr_coefficient(validate_triple([2], [2], [3, 1])) == 1


def test_lr_coefficient_zero_cases():
    assert lr_coefficient(validate_triple([2], [], [1, 1])) == 0
    assert lr_coefficient(validate_triple([], [2, 2], [1, 1, 1, 1])) == 0
    # len(D') > len(F'): D is wider than F
    assert lr_coefficient(validate_triple([3], [1], [2, 2])) == 0
    # D not inside F, though no wider and no deeper
    assert lr_coefficient(validate_triple([2, 2], [2], [3, 1, 1, 1])) == 0


def test_lr_coefficient_either_orientation_is_fast():
    # the sum runs over the rows of F or of F', whichever are fewer.  Over
    # the 20 rows of F', D = -, E = F = (20) has 2**19 permutations; the
    # second triple takes about 1 s over the 21 rows of its F'
    for D, E, F in (([], [20], [20]), ([2, 1], [20, 4, 2, 2], [21, 6, 2, 2])):
        tr = validate_triple(D, E, F)
        for t in (tr, validate_triple(tr.Dt, tr.Et, tr.Ft)):
            start = time.process_time()
            assert lr_coefficient(t) == 1
            assert time.process_time() - start < 0.1, f"{t.D} {t.E} {t.F}"


def test_lr_coefficient_symmetry():
    rng = random.Random(10)
    for _ in range(20):
        tr = random_triple(rng, 8)
        flipped = validate_triple(tr.E, tr.D, tr.F)
        assert lr_coefficient(tr) == lr_coefficient(flipped)


def test_lr_coefficient_conjugation():
    rng = random.Random(11)
    for _ in range(15):
        tr = random_triple(rng, 8)
        conj = validate_triple(tr.Dt, tr.Et, tr.Ft)
        assert lr_coefficient(tr) == lr_coefficient(conj)


def test_ssyt_monomials_match_tableau_enumeration():
    pairs = 0
    for n in range(9):
        for lam in partitions_of(n):
            for nvars in range(1, 7):
                assert _ssyt_monomials(lam, nvars) == \
                    tableau_ssyt_monomials(lam, nvars), (lam, nvars)
                pairs += 1
    assert pairs == 402


def _dominated(lam, alpha):
    return all(sum(lam[:i]) >= sum(alpha[:i]) for i in range(1, len(alpha) + 1))


def test_ssyt_monomials_rearrangements():
    for lam in ((2, 1), (3, 2, 1)):
        cells = [(a, c) for a, w in enumerate(lam) for c in range(w)]
        hooks = [lam[a] - c + sum(1 for b in lam[a + 1:] if b > c)
                 for a, c in cells]
        for n in range(len(lam), 11):
            weights = _ssyt_monomials(lam, n)
            # hook-content formula for s_lam(1^n)
            dim = 1
            for (a, c), h in zip(cells, hooks):
                dim *= n + c - a
            for h in hooks:
                dim //= h
            assert sum(weights.values()) == dim
            keys = 0
            for alpha in partitions_of(sum(lam)):
                if len(alpha) <= n and _dominated(lam, alpha):
                    count = factorial(n) // factorial(n - len(alpha))
                    for v in set(alpha):
                        count //= factorial(alpha.count(v))
                    keys += count
            assert len(weights) == keys


def schur_expansion_coefficient(tr):
    """lr_coefficient as it was before the Kostka-Steinberg sum: the
    product s_D' * s_E' expanded back into Schur polynomials."""
    nvars = max(1, tr.Dt.depth, tr.Et.depth, tr.Ft.depth)
    lay = z_layout(nvars, tr.F.size)
    prod = schur_polynomial(tr.Dt, nvars, lay) * schur_polynomial(tr.Et, nvars, lay)
    return expand_in_schur(prod, nvars).get(tr.Ft, 0)


def test_lr_coefficient_matches_peel_oracle():
    triples = 0
    for tr in all_triples(7):
        c = lr_coefficient(tr)
        assert c == peel_lr_coefficient(tr), f"{tr.D} {tr.E} {tr.F}"
        assert c == schur_expansion_coefficient(tr), f"{tr.D} {tr.E} {tr.F}"
        triples += 1
    assert triples == 2759


def test_lr_coefficient_past_the_schur_expansion():
    # the expansion took over 60 s on each of these
    for D, E, F, count in (([4, 3, 2, 1], [4, 3, 2, 1], [7, 5, 4, 2, 1, 1], 13),
                           ([5, 4, 3, 2, 1], [4, 3, 2, 1],
                            [7, 6, 5, 3, 2, 1, 1], 40)):
        tr = validate_triple(D, E, F)
        assert lr_coefficient(tr) == len(enumerate_lr(tr)) == count


def test_lr_coefficient_verify_large_pool():
    pool = json.loads((ROOT / "bench" / "pools" / "verify-large.json").read_text())
    assert len(pool["triples"]) == 20
    for D, E, F, count, _ in pool["triples"]:
        assert lr_coefficient(validate_triple(D, E, F)) == count, (D, E, F)


def test_oracle_imports_no_tableau_logic():
    tree = ast.parse((ROOT / "src" / "lrbasis" / "oracle.py").read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package |= ({node.module} if node.module
                            else {a.name for a in node.names})
            elif node.module.split(".")[0] == "lrbasis":
                package.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            package |= {a.name.partition(".")[2] for a in node.names
                        if a.name.split(".")[0] == "lrbasis"}
    assert package == {"errors", "polyring", "shapes"}

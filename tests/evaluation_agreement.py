"""The group-action verdicts of `lrb verify` against the exact checks.

For every triple with |F| <= 9 that has a tableau, and for each triple of
bench/pools/verify-symbolic.json (only read), the `hwv` and `weights`
verdicts of check_basis, taken at translated integer points, are compared
with check_hwv and weight_profile on the expanded vectors.  Needs no
pytest.  From the repository root:

    PYTHONPATH=src python3 tests/evaluation_agreement.py

prints each disagreement, then the number of triples compared, the number
of disagreements and the seconds taken; exits 1 on a disagreement.
"""

import json
import sys
import time
from pathlib import Path

from lrbasis import check_basis, check_hwv, enumerate_lr, validate_triple, \
    weight_profile
from lrbasis.hwv import _tableau_coefficients
from same_outputs import POOL, small_triples


def triples():
    yield from small_triples(9)
    for D, E, F, *_ in json.loads(Path(POOL).read_text())["triples"]:
        yield D, E, F


def main():
    t0, count, bad = time.perf_counter(), 0, 0
    for D, E, F in triples():
        tr = validate_triple(D, E, F)
        tabs = enumerate_lr(tr)
        if not tabs:
            continue
        rep = check_basis(tr, tableaux=tabs, group=True)
        polys = _tableau_coefficients(tr, tabs, True)
        exact = (all(check_hwv(p, tr) for p in polys),
                 all(weight_profile(p).matches(tr) for p in polys))
        count += 1
        if (rep.hwv, rep.weights) != exact:
            bad += 1
            print(f"D={D} E={E} F={F}: group {rep.hwv, rep.weights}, "
                  f"exact {exact}", flush=True)
    print(f"{count} triples, {bad} disagreements, "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

import pytest

from lrbasis import parse_partition, validate_triple


@pytest.fixture(scope="session")
def running():
    """The large worked example used throughout the test suite."""
    return validate_triple(parse_partition("3,3,2,1,1"),
                           parse_partition("3,3,2,1"),
                           parse_partition("5,5,4,3,1,1"),
                           n=6, k=5, ell=4)


# The four fillings of the worked example, keyed by their shape rows
# (top to bottom, left to right), and their peeling exponent grids.
RUNNING_TABLEAUX = {
    "T": [[1], [1], [1, 2], [1, 2, 3], [2, 3]],
    "T1": [[1], [1], [1, 2], [1, 2, 2], [3, 3]],
    "T2": [[1], [1], [2, 2], [1, 1, 3], [2, 3]],
    "T3": [[1], [2], [1, 3], [1, 1, 2], [2, 3]],
}

RUNNING_GRIDS = {
    "T": [[0, 0, 1, 1], [0, 2, 0, 0], [1, 0, 1, 0],
          [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
    "T1": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0],
           [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
}

RUNNING_E = {
    "T": "y[1,1]*y[2,1]*y[3,1]*y[3,2]*y[4,1]*y[4,2]*y[4,3]*y[5,2]*y[5,3]",
    "T1": "y[1,1]*y[2,1]*y[3,1]*y[3,2]*y[4,1]*y[4,2]^2*y[5,3]^2",
}


def tableau_by_rows(tabs, rows):
    """Pick the tableau whose row lists equal `rows`."""
    for T in tabs:
        if T.to_json()["rows"] == rows:
            return T
    raise AssertionError(f"no tableau with rows {rows}")


def b_variable_coefficients(tr, with_x=True):
    """Each tableau's coefficient, read off the fully expanded determinant.

    The whole determinant of Z (or of Yo when with_x is false) is expanded
    with symbolic b coefficients, and the coefficient of each tableau's
    b-monomial b^M(T) is read off it: the reference that delta_MT and
    delta_TY must equal.  For small triples only, since the expansion
    grows far beyond the one coefficient it is asked for.
    """
    from lrbasis import build_Yo, delta, enumerate_lr, monomial_M
    from lrbasis.polyring import bvar, coefficient_of, determinant, mono
    d = delta(tr) if with_x else determinant(build_Yo(tr).rows)
    out = []
    for T in enumerate_lr(tr):
        grid = monomial_M(T).m
        b = mono(*((bvar(i, h), e) for i, row in enumerate(grid, start=1)
                   for h, e in enumerate(row, start=1) if e))
        out.append(coefficient_of(d, b, {"b"}))
    return out

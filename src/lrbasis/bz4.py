"""Rank-3 triangle diagrams and the bundled table of small examples.

A diagram assigns a nonnegative integer to each of the 18 vertices of six
small triangles arranged in a big triangle; vertices are named x11..x23,
y11..y23, z11..z23.  Three boundary sums read off the gradings (as
reduced rank-3 weights), and the three internal hexagons must have equal
opposite-side sums for the diagram to be admissible.
"""

import json
from importlib import resources

from .errors import NotPartition, ShapeError
from .hwv import delta_MT
from .polyring import mono_text
from .shapes import Partition, parse_partition, validate_triple
from .tableaux import enumerate_lr, monomial_bigE, monomial_e
from .verify import check_hwv, weight_profile

VERTICES = tuple(f"{f}{i}{j}" for f in "xyz" for i in (1, 2) for j in (1, 2, 3))

_D_SUMS = (("x11", "y11", "x12", "y12", "x21", "y21"),
           ("x11", "y11", "x12", "y12"),
           ("x11", "y11"))
_E_SUMS = (("y21", "z21", "y22", "z22", "y23", "z23"),
           ("y21", "z21", "y22", "z22"),
           ("y21", "z21"))
_F_SUMS = (("x11", "z11", "x13", "z13", "x23", "z23"),
           ("x11", "z11", "x13", "z13"),
           ("x11", "z11"))

# opposite-side sums that must agree in each internal hexagon
HEXAGONS = (
    ((("y11", "z11"), ("y13", "z12")),
     (("z11", "x13"), ("z12", "x12")),
     (("x13", "y13"), ("x12", "y11"))),
    ((("y12", "z12"), ("y22", "z21")),
     (("z12", "x22"), ("z21", "x21")),
     (("x22", "y22"), ("x21", "y12"))),
    ((("y13", "z13"), ("y23", "z22")),
     (("z13", "x23"), ("z22", "x22")),
     (("x23", "y23"), ("x22", "y13"))),
)


class BZAssignment:
    """Vertex values of one diagram."""

    __slots__ = ("values",)

    def __init__(self, values):
        if not isinstance(values, dict):
            raise ShapeError("vertex values must be a {vertex: value} object, "
                             f"got {type(values).__name__}")
        unknown = set(values) - set(VERTICES)
        if unknown:
            raise ShapeError(f"unknown vertices {sorted(unknown)}")
        for v, x in values.items():
            if type(x) is not int or x < 0:   # a bool is no value
                raise ShapeError(f"vertex {v} has non-integer or negative value {x!r}")
        self.values = {v: values.get(v, 0) for v in VERTICES}

    @classmethod
    def from_dots(cls, dots):
        """Indicator assignment from a list of vertex names."""
        return cls({v: 1 for v in dots})

    def __getitem__(self, v):
        return self.values[v]


def _weight(assignment, sums):
    w = tuple(sum(assignment[v] for v in group) for group in sums)
    if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
        raise NotPartition(f"grading {w} is not weakly decreasing")
    return w


def bz_grading(assignment):
    """(D, E, F) gradings of a diagram, each a reduced 3-part weight."""
    return (_weight(assignment, _D_SUMS),
            _weight(assignment, _E_SUMS),
            _weight(assignment, _F_SUMS))


def hexagon_condition(assignment):
    """Whether all three hexagons have equal opposite-side sums."""
    for hexagon in HEXAGONS:
        for (a1, a2), (b1, b2) in hexagon:
            if assignment[a1] + assignment[a2] != assignment[b1] + assignment[b2]:
                return False
    return True


def reduce_mod_det(p, rank=4):
    """A transposed diagram as a reduced weight: pad to `rank`, drop the tail."""
    p = Partition(p)
    if p.depth > rank:
        raise ShapeError(f"depth {p.depth} exceeds rank {rank}")
    w = [p.part(i) for i in range(1, rank + 1)]
    return tuple(w[i] - w[rank - 1] for i in range(rank - 1))


def load_table():
    """The bundled 18-row table of small triples with their diagrams."""
    text = resources.files("lrbasis.data").joinpath("sl4_table.json").read_text()
    return json.loads(text)["rows"]


def reproduce_sl4_table():
    """Recompute every column of the bundled table; one report per row.

    For each row: the triple has a unique LR tableau whose monomials match
    the stored ones, the extracted coefficient is a nonzero highest weight
    vector of the tabulated weight, and the dot diagram is hexagon-valid
    with gradings matching the reduced transposed diagrams.
    """
    reports = []
    for row in load_table():
        D = parse_partition(row["D"])
        E = parse_partition(row["E"])
        F = parse_partition(row["F"])
        triple = validate_triple(D, E, F)
        tabs = enumerate_lr(triple)
        rep = {"no": row["no"], "unique": len(tabs) == 1}
        if len(tabs) == 1:
            T = tabs[0]
            rep["e_matches"] = mono_text(monomial_e(T)) == row["e"]
            rep["bigE_matches"] = mono_text(monomial_bigE(T, triple)) == row["bigE"]
            p = delta_MT(triple, T)
            rep["nonzero"] = not p.is_zero()
            rep["hwv"] = check_hwv(p, triple)
            prof = weight_profile(p)
            rep["weight_matches"] = prof.matches(triple)
        assignment = BZAssignment.from_dots(row["dots"])
        rep["hexagon"] = hexagon_condition(assignment)
        rep["grading_matches"] = (bz_grading(assignment)
                                  == (reduce_mod_det(triple.Dt),
                                      reduce_mod_det(triple.Et),
                                      reduce_mod_det(triple.Ft)))
        rep["pass"] = all(v for k, v in rep.items() if k != "no")
        reports.append(rep)
    return reports

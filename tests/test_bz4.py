import pytest

from lrbasis import (BZAssignment, bz_grading, hexagon_condition, load_table,
                     reproduce_sl4_table)
from lrbasis.bz4 import VERTICES, reduce_mod_det
from lrbasis.errors import ShapeError


def test_vertex_names():
    assert len(VERTICES) == 18
    assert "x11" in VERTICES and "z23" in VERTICES


def test_assignment_validation():
    with pytest.raises(ShapeError):
        BZAssignment({"w11": 1})
    with pytest.raises(ShapeError):
        BZAssignment({"x11": -1})
    with pytest.raises(ShapeError):
        BZAssignment({"x11": True})
    for values in ([], 5, ["x11"]):
        with pytest.raises(ShapeError):
            BZAssignment(values)
    a = BZAssignment.from_dots(["x11"])
    assert a["x11"] == 1 and a["z23"] == 0


def test_five_dot_example():
    # the worked five-dot diagram: gradings (2,1,1), (1,1,0), (1,1,0)
    a = BZAssignment.from_dots(["x21", "z12", "y11", "y22", "x13"])
    assert hexagon_condition(a)
    assert bz_grading(a) == ((2, 1, 1), (1, 1, 0), (1, 1, 0))


def test_hexagon_rejects():
    a = BZAssignment.from_dots(["y11"])  # lone dot breaks the first hexagon
    assert not hexagon_condition(a)


def test_gradings_always_weakly_decreasing():
    # the three grading sums are nested vertex sets, so nonnegative values
    # always produce partitions
    import random
    rng = random.Random(0)
    for _ in range(25):
        a = BZAssignment({v: rng.randint(0, 3) for v in VERTICES})
        for w in bz_grading(a):
            assert w[0] >= w[1] >= w[2]


def test_reduce_mod_det():
    assert reduce_mod_det([1, 1, 1, 1]) == (0, 0, 0)
    assert reduce_mod_det([2, 2, 1, 1]) == (1, 1, 0)
    assert reduce_mod_det([2, 1, 1]) == (2, 1, 1)
    with pytest.raises(ShapeError):
        reduce_mod_det([1, 1, 1, 1, 1])


def test_table_loads():
    rows = load_table()
    assert len(rows) == 18
    assert {r["no"] for r in rows} == set(range(1, 19))


def test_reproduce_table():
    reports = reproduce_sl4_table()
    assert len(reports) == 18
    for r in reports:
        assert r["pass"], r

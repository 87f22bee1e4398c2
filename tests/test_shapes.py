import pytest

from lrbasis import (Partition, SkewShape, format_partition, parse_partition,
                     validate_triple)
from lrbasis.errors import DepthExceeded, ShapeError, SizeMismatch


def test_partition_normalizes_trailing_zeros():
    assert Partition([3, 2, 0, 0]) == Partition([3, 2])
    assert hash(Partition([3, 2, 0])) == hash(Partition([3, 2]))


def test_partition_rejects_bad_input():
    with pytest.raises(ShapeError):
        Partition([2, 3])
    with pytest.raises(ShapeError):
        Partition([2, -1])
    with pytest.raises(ShapeError):
        Partition([0, 2])
    with pytest.raises(ShapeError):   # JSON true is not the part 1
        Partition([2, True])


def test_partition_accessors():
    p = Partition([5, 5, 4, 3, 1, 1])
    assert (p.depth, p.width, p.size) == (6, 5, 19)
    assert p.part(3) == 4 and p.part(7) == 0
    assert p.contains(Partition([5, 4])) and not p.contains(Partition([6]))


def test_transpose_known_values():
    assert Partition([3, 3, 2, 1, 1]).transpose().parts == (5, 3, 2)
    assert Partition([3, 3, 2, 1]).transpose().parts == (4, 3, 2)
    assert Partition([5, 5, 4, 3, 1, 1]).transpose().parts == (6, 4, 4, 3, 2)
    assert Partition([]).transpose().parts == ()


def test_transpose_involution():
    for parts in [(4, 2, 1), (1, 1, 1, 1), (7,), ()]:
        p = Partition(parts)
        assert p.transpose().transpose() == p


def test_serialization_roundtrip():
    for text in ["3,3,2,1,1", "-", "7", "2,2,2"]:
        assert format_partition(parse_partition(text)) == text
    with pytest.raises(ShapeError):
        parse_partition("2,x")


def test_skew_shape_cells():
    s = SkewShape([6, 4, 4, 3, 2], [5, 3, 2])
    assert s.cells == ((1, 6), (2, 4), (3, 3), (3, 4),
                       (4, 1), (4, 2), (4, 3), (5, 1), (5, 2))
    assert s.row_span(1) == (6, 6)
    assert s.row_span(4) == (1, 3)
    assert s.column_rows(1) == [4, 5]
    with pytest.raises(ShapeError):
        SkewShape([2], [3])


def test_validate_triple_running_example(running):
    assert running.t == 6 and running.r == 5 and running.s == 4
    assert running.Ft.parts == (6, 4, 4, 3, 2)
    assert running.Dt.parts == (5, 3, 2)
    assert running.Et.parts == (4, 3, 2)
    assert running.dt_in_ft
    assert running.skew_shape().size == 9


def test_validate_triple_errors():
    with pytest.raises(SizeMismatch):
        validate_triple([2], [1], [2])
    with pytest.raises(DepthExceeded):
        validate_triple([1, 1], [], [1, 1], k=1)
    with pytest.raises(DepthExceeded):
        validate_triple([], [3], [3], n=2)


def test_validate_triple_keeps_given_sizes():
    # F is three rows deep, so k + ell >= 3; a size left out is the least
    # that fits, k first when both are
    assert validate_triple([2], [1], [1, 1, 1]).k == 2
    tr = validate_triple([2], [1], [1, 1, 1], k=1)
    assert (tr.k, tr.ell) == (1, 2)
    tr = validate_triple([2], [1], [1, 1, 1], ell=1)
    assert (tr.k, tr.ell) == (2, 1)
    tr = validate_triple([1], [2], [1, 1, 1], ell=1)
    assert (tr.k, tr.ell) == (2, 1)
    with pytest.raises(DepthExceeded):
        validate_triple([1, 1], [1], [1, 1, 1], k=1)


def test_validate_triple_defaults():
    tr = validate_triple([1], [3], [4])
    assert tr.n >= 4 and tr.ell >= 3
    # a flat F still needs k + ell to reach its depth
    tr = validate_triple([], [2, 2], [1, 1, 1, 1])
    assert tr.t <= tr.k + tr.ell

import pytest

from conftest import partitions_of
from lrbasis import (LRTriple, Partition, SkewShape, format_partition,
                     parse_partition, validate_triple)
from lrbasis.errors import ShapeError, SizeMismatch


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
    assert len(running.skew_shape().cells) == 9


def test_validate_triple_errors():
    with pytest.raises(SizeMismatch):
        validate_triple([2], [1], [2])


def test_dt_in_ft_is_containment_of_D_in_F():
    # transposing keeps containment, so a triple reads dt_in_ft off D and
    # F: the same as on their transposes for every F with |F| <= 8 and D
    # with |D| <= |F| + 2
    pairs = [(Partition(F), Partition(D)) for f in range(9)
             for F in partitions_of(f) for d in range(f + 3) for D in partitions_of(d)]
    assert len(pairs) == 5807
    for F, D in pairs:
        assert (LRTriple(D, Partition(), F).dt_in_ft
                == F.transpose().contains(D.transpose())), (F, D)

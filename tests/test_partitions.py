import pytest
from hypothesis import given

from conftest import partition_strategy
from fusionkit.partitions import (
    FusionContext,
    _contains,
    _format_partition,
    _perm_sign,
    conjugate,
    format_partition,
    is_border,
    is_edge,
    is_restricted,
    normalize,
    parse_partition,
    partitions_up_to,
    quotient,
    rank_level_dual,
)


def test_normalize_strips_trailing_zeros():
    assert normalize((3, 2, 1, 0, 0)) == (3, 2, 1)
    assert normalize(()) == ()
    assert normalize((0, 0)) == ()


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))


@pytest.mark.parametrize(
    "parts, expected",
    [
        ([3, 2, 0], (3, 2)),
        ((x for x in (2, 1, 0)), (2, 1)),
        ((3, 2, 1, 0, 0), (3, 2, 1)),
        ((), ()),
        ((0, 0), ()),
        (["2", "1"], (2, 1)),
    ],
)
def test_normalize_results(parts, expected):
    assert normalize(parts) == expected


@pytest.mark.parametrize(
    "parts, message",
    [
        ((1, 2), "not weakly decreasing: (1, 2)"),
        ((2, 0, 1), "not weakly decreasing: (2, 0, 1)"),
        ((1, -1), "negative part in (1, -1)"),
        ((0, -1), "negative part in (0, -1)"),
    ],
)
def test_normalize_messages(parts, message):
    with pytest.raises(ValueError) as err:
        normalize(parts)
    assert str(err.value) == message


def test_parse_and_format():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert format_partition((3, 2, 1, 0)) == "3,2,1"
    assert format_partition(()) == "0"
    with pytest.raises(ValueError):
        parse_partition("2,x")


@given(partition_strategy())
def test_parse_format_roundtrip(p):
    assert parse_partition(format_partition(p)) == p
    assert _format_partition(p) == format_partition(p)


def test_conjugate_values():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((5, 4, 3, 2, 1)) == (5, 4, 3, 2, 1)


def test_conjugate_involution_exhaustive():
    for p in partitions_up_to(12):
        assert conjugate(conjugate(p)) == p


def test_contains_is_inclusion_of_box_sets():
    shapes = list(partitions_up_to(6))
    assert () in shapes
    boxes = {p: {(r, c) for r, part in enumerate(p) for c in range(part)} for p in shapes}
    for outer in shapes:
        for inner in shapes:
            assert _contains(outer, inner) == (boxes[inner] <= boxes[outer]), (outer, inner)


def test_is_restricted():
    ctx = FusionContext(3, 2)
    assert is_restricted((2, 1, 0), ctx)
    assert not is_restricted((3, 1, 0), ctx)
    assert not is_restricted((2, 1), FusionContext(3, 1))
    assert is_restricted((2, 2, 2), ctx)  # difference zero is accepted
    assert not is_restricted((1, 1, 1, 1), ctx)  # too many rows


def test_edge_and_border():
    ctx = FusionContext(3, 2)
    assert is_edge((3, 2, 1), ctx)
    assert is_border((3, 1, 0), ctx)
    assert not is_edge((2, 2, 2), ctx)


def test_quotient():
    assert quotient((3, 2, 1), FusionContext(3, 2)) == (2, 1)
    assert quotient((2, 2, 2), FusionContext(3, 2)) == ()
    assert quotient((4, 2, 1, 0), FusionContext(4, 4)) == (4, 2, 1)
    # applying it twice changes nothing
    assert quotient(quotient((3, 2, 1), FusionContext(3, 2)), FusionContext(3, 2)) == (2, 1)
    with pytest.raises(ValueError):
        quotient((1, 1, 1, 1), FusionContext(3, 2))


def test_quotient_ignores_full_columns():
    ctx = FusionContext(3, 4)
    for p in partitions_up_to(8, max_len=3):
        if not is_restricted(p, ctx):
            continue
        shifted = tuple(x + 1 for x in p) + (1,) * (3 - len(p))
        assert quotient(p, ctx) == quotient(shifted, ctx)


def test_rank_level_dual_values():
    assert rank_level_dual((2, 2, 0), FusionContext(3, 2)) == (2, 2)
    assert rank_level_dual((1, 0), FusionContext(2, 1)) == (1,)
    assert rank_level_dual((3, 2, 1), FusionContext(3, 2)) == (4, 2)


def test_rank_level_dual_rejects_unrestricted():
    with pytest.raises(ValueError):
        rank_level_dual((3, 1, 0), FusionContext(3, 2))


def test_rank_level_dual_involution_exhaustive():
    for n in range(1, 5):
        for k in range(1, 5):
            ctx = FusionContext(n, k)
            for p in partitions_up_to(n * k, max_len=n):
                if not is_restricted(p, ctx):
                    continue
                image = rank_level_dual(p, ctx)
                assert is_restricted(image, ctx.dual())
                assert rank_level_dual(image, ctx.dual()) == p


def test_perm_sign():
    assert _perm_sign((1, 2, 3)) == 1
    assert _perm_sign((2, 1, 3)) == -1
    assert _perm_sign((3, 1, 2)) == 1

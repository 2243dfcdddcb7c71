from functools import lru_cache
from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionkit import partitions
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
    partitions_of,
    partitions_up_to,
    quotient,
    rank_level_dual,
    restricted_partitions_of,
    restricted_supersets,
    subpartitions,
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


@st.composite
def partition_strategy(draw, max_size=12, max_len=6):
    n_parts = draw(st.integers(min_value=0, max_value=max_len))
    parts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=max_size),
                min_size=n_parts,
                max_size=n_parts,
            )
        ),
        reverse=True,
    )
    return normalize(parts)


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
    for p in partitions_up_to(8, (8,) * 3):
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
            for p in partitions_up_to(n * k, (n * k,) * n):
                if not is_restricted(p, ctx):
                    continue
                image = rank_level_dual(p, ctx)
                assert is_restricted(image, ctx.dual())
                assert rank_level_dual(image, ctx.dual()) == p


def test_perm_sign():
    assert _perm_sign((1, 2, 3)) == 1
    assert _perm_sign((2, 1, 3)) == -1
    assert _perm_sign((3, 1, 2)) == 1


@lru_cache(maxsize=None)
def _every_partition(total):
    """The set of partitions of ``total``: a last part added to each partition
    of what is left, then sorted into place."""
    if total == 0:
        return frozenset({()})
    return frozenset(
        tuple(sorted(p + (last,), reverse=True))
        for last in range(1, total + 1)
        for p in _every_partition(total - last)
    )


def _decreasing(shapes):
    return sorted(shapes, reverse=True)


BOUNDS = (None, 0, 1, 2, 3, 6)


@pytest.mark.parametrize("max_part", BOUNDS)
@pytest.mark.parametrize("max_len", BOUNDS)
def test_partitions_of_equals_the_reference(max_part, max_len):
    # the bounds make the box of max_len rows of max_part; a bound of None leaves
    # that side as long as the total, and two leave partitions_of unbounded
    for total in range(-1, 16):
        expected = _decreasing(
            p
            for p in (_every_partition(total) if total >= 0 else ())
            if (max_part is None or not p or p[0] <= max_part)
            and (max_len is None or len(p) <= max_len)
        )
        box = (total if max_part is None else max_part,) * (total if max_len is None else max_len)
        within = None if max_part is None and max_len is None else box
        assert list(partitions_of(total, within)) == expected, (total, max_part, max_len)


def test_subpartitions_equals_the_reference():
    # partitions_of lists each size inside nu in order; subpartitions sorts the sizes
    # together.  From |nu| = 10, as at (5, 4, 1), a row below a shrunk part can have a
    # cap below the part's new value: the room test must read the caps there
    for nu in partitions_up_to(10):
        inside = [
            [p for p in _every_partition(t) if len(p) <= len(nu) and all(map(le, p, nu))]
            for t in range(sum(nu) + 1)
        ]
        for t, expected in enumerate(inside):
            assert list(partitions_of(t, nu)) == _decreasing(expected), (t, nu)
        assert list(subpartitions(nu)) == _decreasing(sum(inside, [])), nu


def test_restricted_partitions_of_equals_the_filter():
    # the lift from the (n - 1) x k box lists what filtering every partition lists
    for n in range(1, 8):
        for k in range(1, 7):
            ctx = FusionContext(n, k)
            for total in range(16):
                filtered = [p for p in partitions_of(total, (total,) * n) if is_restricted(p, ctx)]
                assert list(restricted_partitions_of(total, ctx)) == filtered, (n, k, total)
                for la in ((), (1,)):
                    supersets = [p for p in filtered if _contains(p, la)][::-1]
                    if total >= sum(la):
                        assert list(restricted_supersets(la, total - sum(la), ctx)) == supersets


def test_restricted_partitions_draw_only_what_they_return(monkeypatch):
    drawn = []
    enumerate_partitions = partitions.partitions_of

    def spy(*args, **kwargs):
        for p in enumerate_partitions(*args, **kwargs):
            drawn.append(p)
            yield p

    monkeypatch.setattr(partitions, "partitions_of", spy)
    listed = restricted_partitions_of(30, FusionContext(8, 2))
    assert len(listed) == 5 and len(drawn) == 5
    assert sorted(p[-1] for p in listed) == [2, 3, 3, 3, 3]  # 14 and 6 boxes in the 7 x 2 box


def test_subpartitions_draw_only_what_they_return(monkeypatch):
    # nu's rows cap each row of partitions_of, so a hook draws no shape of its
    # bounding box that sticks out of it
    drawn = []
    enumerate_partitions = partitions.partitions_of

    def spy(*args, **kwargs):
        for p in enumerate_partitions(*args, **kwargs):
            drawn.append(p)
            yield p

    monkeypatch.setattr(partitions, "partitions_of", spy)
    listed = subpartitions((12,) + (1,) * 12)
    assert len(listed) == len(drawn) == 157
    assert sorted(drawn, reverse=True) == listed


def test_enumerators_take_a_long_row_or_column():
    # one loop, no recursion: a thousand parts do not reach the recursion limit
    assert list(partitions_of(1100, (1,) * 1100)) == [(1,) * 1100]
    assert restricted_partitions_of(1050, FusionContext(1100, 1)) == [(1,) * 1050]
    assert list(partitions_of(1000, (1000,))) == [(1000,)]

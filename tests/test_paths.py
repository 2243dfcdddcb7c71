from itertools import combinations, product
from operator import le

import pytest

from fusionkit.coefficients import _pair_balanced, _pair_lattice
from fusionkit.partitions import (
    FusionContext,
    _contains,
    is_restricted,
    normalize,
    partitions_up_to,
    subpartitions,
)
from fusionkit.paths import (
    LatticePath,
    _strips,
    diagonal_label,
    enumerate_paths,
    path_from_label_blocks,
    path_to_tableau,
    strip_chains,
    vertical_strips,
)


def test_diagonal_label():
    assert diagonal_label((1, 1)) == 0
    assert diagonal_label((1, 4)) == 3
    assert diagonal_label((3, 1)) == -2


def test_vertical_strips_are_the_valid_row_sets_in_order():
    # every set of rows whose boxes leave a partition inside within, listed in
    # decreasing order of the row tuples: the first box in its lowest row first
    for within in partitions_up_to(7):
        for shape in subpartitions(within):
            shape += (0,) * (len(within) - len(shape))
            for size in range(len(within) + 2):
                expected = []
                for rows in sorted(combinations(range(1, len(within) + 1), size), reverse=True):
                    grown = list(shape)
                    for row in rows:
                        grown[row - 1] += 1
                    if all(map(le, grown[1:], grown)) and all(map(le, grown, within)):
                        expected.append((tuple(grown), tuple((r, grown[r - 1]) for r in rows)))
                assert list(vertical_strips(shape, size, within)) == expected, (shape, size)


def test_enumerate_paths_basic():
    paths = enumerate_paths((1,), (2, 1), (1, 1))
    assert len(paths) == 2
    mids = {p.steps[0] for p in paths}
    assert mids == {(1, 2), (2, 1)}


def test_enumerate_paths_respects_all_boundaries():
    # target (2,1) spans 2 > k, so nothing survives at level 1
    assert enumerate_paths((1,), (2, 1), (1, 1), FusionContext(3, 1)) == ()
    # at level 2 only the inner boundary filter bites: one of the two
    # orders passes through (3,2), which spans 3
    paths = enumerate_paths((2, 2), (3, 2, 1), (1, 1), FusionContext(3, 2))
    assert len(paths) == 1
    assert paths[0].steps == ((3, 1), (1, 3))


def test_enumerate_paths_negative_ascent():
    assert enumerate_paths((1,), (2, 1), (-1, 3)) == ()
    # equal weights but base not inside target: still nothing
    assert enumerate_paths((2,), (1, 1), (0,)) == ()


def test_path_to_tableau():
    p = path_from_label_blocks((3, 2), [(3, 1), (2,)])
    assert p.labels() == (3, 1, 2)
    assert path_to_tableau(p).columns == ((3, 1), (2,))

    single = path_from_label_blocks((), [(0,)])
    assert path_to_tableau(single).columns == ((0,),)

    p2 = path_from_label_blocks((), [(0, -1), (1,)])
    assert path_to_tableau(p2).columns == ((0, -1), (1,))

    # each label lands on the one addable box of its diagonal
    assert path_from_label_blocks((2, 1), [(2,), (-2,)]).steps == ((1, 3), (3, 1))


def test_decreasing_path_counts_are_indicators():
    # a single decreasing block exists exactly when the skew shape is a
    # vertical strip, and then it is unique
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            r = sum(nu) - sum(la)
            if r == 0 or not _contains(nu, la):
                continue
            paths = enumerate_paths(la, nu, (r,))
            full_la = la + (0,) * (len(nu) - len(la))
            strip = all(b - a <= 1 for a, b in zip(full_la, nu))
            assert len(paths) == (1 if strip else 0), (la, nu)


def test_tableau_determines_path():
    # fixed base and ascents: distinct paths have distinct tableaux
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            rest = sum(nu) - sum(la)
            if rest != 4:
                continue
            paths = enumerate_paths(la, nu, (2, 2))
            tableaux = {path_to_tableau(p).columns for p in paths}
            assert len(tableaux) == len(paths)


def test_first_row_label_is_block_maximum():
    ctx = FusionContext(3, 3)
    for nu in partitions_up_to(5, max_len=3):
        for la in subpartitions(nu):
            r = sum(nu) - sum(la)
            if r == 0:
                continue
            for p in enumerate_paths(la, nu, (r,)):
                labels = p.labels()
                rows = [b[0] for b in p.steps]
                if 1 in rows:
                    assert labels[rows.index(1)] == max(labels)
                if ctx.n in rows:
                    assert labels[rows.index(ctx.n)] == min(labels)


def test_path_validation():
    with pytest.raises(ValueError):
        LatticePath((1,), ((1, 2),), (2,))
    with pytest.raises(ValueError):
        path_from_label_blocks((), [(5,)])


def test_boundaries_include_base_and_target():
    p = path_from_label_blocks((1,), [(1,), (-1,)])
    from fusionkit.paths import boundary_shapes

    assert boundary_shapes(p) == ((1,), (2,), (2, 1))
    assert p.target == (2, 1)
    assert normalize(p.base) == (1,)


def test_strip_chains_read_the_memo_as_a_direct_walk():
    # the strip memo is transparent: strip_chains yields exactly the chains, in
    # order, of a walk that asks vertical_strips itself at every step; first
    # from an empty memo, then again with the memo warm (and past its bound).
    # Pruning is exact: with the pair test of either LR route it yields exactly
    # the walk's chains whose adjacent strips all pass it
    def direct_walk(base, target, sizes, ctx):
        if ctx is not None and not (is_restricted(base, ctx) and is_restricted(target, ctx)):
            return []
        chains = [((), base + (0,) * (len(target) - len(base)))]
        for size in sizes:
            chains = [
                (chain + (boxes,), new_shape)
                for chain, shape in chains
                for new_shape, boxes in vertical_strips(shape, size, target)
                if ctx is None or is_restricted(new_shape, ctx)
            ]
        return [chain for chain, _ in chains]

    cases = []
    for target in partitions_up_to(6):
        for base in subpartitions(target):
            rest = sum(target) - sum(base)
            for m in (1, 2, 3):
                for sizes in product(range(rest + 1), repeat=m):
                    if sum(sizes) == rest:
                        for ctx in (None, FusionContext(2, 2), FusionContext(3, 1)):
                            cases.append((base, target, sizes, ctx))
    expected = [direct_walk(*case) for case in cases]
    assert sum(map(bool, expected)) > 2000  # of 9,261 cases
    _strips.cache_clear()
    for warm in (False, True):
        hits = _strips.cache_info().hits
        for case, chains in zip(cases, expected):
            assert list(strip_chains(*case)) == chains, (case, warm)
        assert _strips.cache_info().hits > hits
    for pair_ok in (_pair_balanced, _pair_lattice):
        pruned = 0
        for case, chains in zip(cases, expected):
            kept = [c for c in chains if all(map(pair_ok, c, c[1:]))]
            assert list(strip_chains(*case, pair_ok=pair_ok)) == kept, (case, pair_ok)
            pruned += len(chains) - len(kept)
        assert pruned  # the pair test rejects some chains

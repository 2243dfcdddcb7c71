"""Lattice paths in Young's lattice with diagonal labels.

A path is a chain of partitions adding one box per step.  Boxes are
(row, col) pairs with row 1 at the top; the diagonal label of a box is
col - row.  A block of consecutive steps with strictly decreasing labels
adds a vertical strip (at most one box per row), and a path cut into such
blocks by an ascent composition is the basic object counted throughout.
Every strip comes from ``vertical_strips``, which walks a padded shape
box by box; ``strip_chains`` reads the strips of each (shape, size,
target) from a bounded memo of that walk.  Only ``path_from_label_blocks``
places labels at addable boxes, and only it builds a path through the
validating ``LatticePath``; the builders that hold a normalized base and
blocks that cover the steps (``enumerate_paths``, ``omega_terms``, the
involutions' re-cut, ``fusion_rule``'s D2 test) use ``_trusted_path``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .partitions import FusionContext, Partition, _contains, _restricted, normalize

Box = tuple[int, int]


def diagonal_label(box: Box) -> int:
    """col - row; constant along diagonals."""
    row, col = box
    return col - row


def add_box(shape, box: Box) -> Partition:
    """Shape with one more box; raises if the box is not addable."""
    row, col = box
    rows = list(shape) + [0] * max(0, row - len(shape))
    if rows[row - 1] + 1 != col:
        raise ValueError(f"box {box} does not extend row {row} of {shape}")
    if row > 1 and rows[row - 2] < col:
        raise ValueError(f"box {box} not addable to {shape}")
    rows[row - 1] += 1
    return tuple(rows)


def addable_box(shape, diag: int) -> Box | None:
    """The unique addable box of the shape on the given diagonal, if any."""
    shape = tuple(shape)
    for row in range(1, len(shape) + 2):
        col = (shape[row - 1] if row <= len(shape) else 0) + 1
        if col - row == diag and (row == 1 or shape[row - 2] >= col):
            return (row, col)
    return None


def vertical_strips(shape, size: int, within):
    """All ways to add ``size`` boxes to ``shape`` inside ``within``, no two
    in the same row; ``shape`` is padded with zeros to ``len(within)`` parts.

    Yields (new_shape, boxes), boxes in add order (top row first), in
    decreasing order of the row tuples: the first box tries the lowest row
    first, each later box the rows below the one before.  The walk keeps
    an iterator of candidate rows per box on a stack, so it does not recurse.
    """
    current = list(shape)
    if not size:
        yield tuple(current), ()
        return
    # a box below the last nonzero row needs the row above it filled first
    nrows = min(len(current) - current.count(0) + size, len(current))
    rows: list[int] = []
    # the rows a box may take, lowest first; each leaves a row per box to come
    levels = [iter(range(nrows - size + 1, 0, -1))]
    while levels:
        for row in levels[-1]:
            col = current[row - 1] + 1
            if within[row - 1] >= col and (row == 1 or current[row - 2] >= col):
                break
        else:
            levels.pop()
            if rows:
                current[rows.pop() - 1] -= 1
            continue
        current[row - 1] = col
        rows.append(row)
        if len(rows) < size:
            levels.append(iter(range(nrows - size + len(rows) + 1, row, -1)))
            continue
        yield tuple(current), tuple((r, current[r - 1]) for r in rows)
        rows.pop()
        current[row - 1] = col - 1


class LatticePath(namedtuple("LatticePath", "base steps ascents")):
    """A box path from ``base`` cut into label-decreasing blocks by ``ascents``."""

    __slots__ = ()

    def __new__(cls, base, steps, ascents):
        if sum(ascents) != len(steps):
            raise ValueError("ascent blocks must account for every step")
        # every shape along the path is then normalized too (see add_box)
        return super().__new__(cls, normalize(base), steps, ascents)

    @property
    def target(self) -> Partition:
        return _walk(self.base, self.steps)

    def labels(self) -> tuple[int, ...]:
        return tuple(diagonal_label(b) for b in self.steps)


def _trusted_path(base, steps, ascents) -> LatticePath:
    """``LatticePath(base, steps, ascents)`` without its checks, for a
    normalized ``base`` and ascents that sum to ``len(steps)``."""
    return tuple.__new__(LatticePath, (base, steps, ascents))


def _walk(shape, boxes) -> Partition:
    """The shape after adding ``boxes`` in order; normalized when ``shape`` is."""
    for box in boxes:
        shape = add_box(shape, box)
    return shape


def boundary_shapes(path: LatticePath) -> tuple[Partition, ...]:
    """Shapes at block boundaries, from base to target inclusive."""
    shapes = [path.base]
    pos = 0
    for a in path.ascents:
        shapes.append(_walk(shapes[-1], path.steps[pos : pos + a]))
        pos += a
    return tuple(shapes)


class PathTableau(namedtuple("PathTableau", "columns")):
    """Column i holds the labels of block i in step order (top to bottom)."""

    __slots__ = ()


def path_to_tableau(path: LatticePath) -> PathTableau:
    columns = []
    pos = 0
    for a in path.ascents:
        columns.append(tuple(col - row for row, col in path.steps[pos : pos + a]))
        pos += a
    return PathTableau(tuple(columns))


def path_from_label_blocks(base, label_blocks) -> LatticePath:
    """Reconstruct the path adding, per block, each label in decreasing
    order at the unique addable box on its diagonal; raises when a label
    has none (the labels do not describe a path)."""
    shape, steps = base, []
    for labels in label_blocks:
        for d in sorted(labels, reverse=True):
            box = addable_box(shape, d)
            if box is None:
                raise ValueError(f"no addable box on diagonal {d} of {shape}")
            shape = add_box(shape, box)
            steps.append(box)
    return LatticePath(base, tuple(steps), tuple(len(b) for b in label_blocks))


def strip_chains(base, target, sizes, ctx: FusionContext | None = None, pair_ok=None):
    """Chains base -> target of vertical strips with the given sizes.

    ``base`` and ``target`` are normalized partitions.  Yields tuples of
    strips, each strip the tuple of its boxes in add order; equivalently the
    row-strict fillings of target/base whose i-entries form the i-th strip.
    A negative size, a weight mismatch or base not inside target yields
    nothing.  With a context, the shapes at block boundaries (base and
    target included) must all be restricted.  ``pair_ok(prev, strip)``
    prunes a strip that fails against its predecessor.  The strips of each
    step come from ``_strips``, the memo of ``vertical_strips``.  Like
    that walk, this one keeps one iterator per strip on a stack, so a chain
    of many strips does not recurse.
    """
    if any(s < 0 for s in sizes) or sum(sizes) != sum(target) - sum(base):
        return
    if not _contains(target, base):
        return
    if ctx is not None and not (
        _restricted(base, ctx) and _restricted(target, ctx)
    ):
        return
    if not sizes:
        yield ()
        return
    chain: list[tuple[Box, ...]] = []
    # Every strip stays inside target and the weights match, so the last
    # shape is target itself.
    levels = [iter(_strips(base + (0,) * (len(target) - len(base)), sizes[0], target))]
    while levels:
        for new_shape, boxes in levels[-1]:
            if ctx is not None and not _restricted(new_shape, ctx):
                continue
            if pair_ok is None or not chain or pair_ok(chain[-1], boxes):
                break
        else:
            levels.pop()
            if chain:
                chain.pop()
            continue
        if len(chain) + 1 < len(sizes):
            chain.append(boxes)
            levels.append(iter(_strips(new_shape, sizes[len(chain)], target)))
            continue
        yield (*chain, boxes)


@lru_cache(maxsize=256)
def _strips(shape, size: int, within) -> tuple:
    """``vertical_strips(shape, size, within)`` as a tuple, in its order.

    A sweep asks for the same strips again and again: at total size 7 the
    classical sweeps make about 51,500 requests for 2,509 distinct strip
    lists, and 256 entries answer 95% of them.
    """
    return tuple(vertical_strips(shape, size, within))


@lru_cache(maxsize=4096)
def _strip_successors(shape, size: int, n: int, k: int) -> tuple[Partition, ...]:
    """The shapes, kept at n parts, that one vertical strip of ``size`` boxes
    makes from the n-part ``shape`` with a span of at most k."""
    # no strip can outgrow these columns, so only the n rows bound a shape
    within = (shape[0] + size,) * n
    return tuple(
        new_shape
        for new_shape, _ in vertical_strips(shape, size, within)
        if new_shape[0] - new_shape[-1] <= k  # all n rows kept: first minus last
    )


@lru_cache(maxsize=1024)
def enumerate_paths(
    base,
    target,
    ascents,
    ctx: FusionContext | None = None,
) -> tuple[LatticePath, ...]:
    """All paths base -> target whose blocks have the given sizes.

    Blocks are label-decreasing (vertical strips).  Any negative block size
    means the empty set.  With a context, the partitions at block boundaries
    (including base and target) must all be restricted.  The 1,024 most
    recently used argument tuples are cached; ``cli._explain``, the one
    caller in the package, passes all four positionally: one key a set.
    """
    base, target, ascents = normalize(base), normalize(target), tuple(ascents)
    return tuple(
        _trusted_path(base, sum(chain, ()), ascents)
        for chain in strip_chains(base, target, ascents, ctx)
    )

"""Sign-reversing involutions on signed path terms.

``psi`` is the classical involution whose fixed points are the fitting
paths.  At level k it breaks down on one exceptional family of two-block
paths (domain D1) where the raising move would push the intermediate
shape past the level bound; ``phi1`` and its inverse ``phi2`` repair
exactly that family, and ``phi`` dispatches between the two.  The D1 and
D2 tests first run the checks that the steps and the target decide on
their own; a path that passes them is read once, as its pair word with
the box of each letter, and the phi1 or phi2 move is worked out as the
test decides.  Off both domains phi takes psi's move instead.  psi finds
its pair on the path's own steps, with no tableau, and cuts it out as a
two-block path.  Every move reads such a pair's word and boxes in one merge,
flips its letters at once (psi's e^d or f^d flips d unpaired letters, which
keeps every pair), and re-cuts the boxes along the image word in one splice,
psi's once per (start, pair) key.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .partitions import FusionContext, _conjugate, _perm_sign, _restricted, is_edge, normalize
from .paths import Box, LatticePath, PathTableau, _trusted_path, _walk
from .words import BracketWord, _fits, flip_positions, lower_f, raise_e, render, word_of


_TRACE = os.environ.get("FUSIONKIT_TRACE") == "1"


def _trace(label: str, w: BracketWord, mark: int | None = None) -> None:
    if _TRACE:
        print(f"fusionkit: {label} {render(w, mark)}", file=sys.stderr)


class SignedTerm(namedtuple("SignedTerm", "sigma path")):
    """A permutation together with a path whose ascents realize its action."""

    __slots__ = ()

    @property
    def sign(self) -> int:
        """sgn(sigma), read from sigma alone, never from a move that made the term."""
        return _perm_sign(tuple(self.sigma))


def canonical_violation(tableau: PathTableau, mu) -> int | None:
    """Index r of the first column pair (r, r+1) breaking column-strictness.

    Columns are read with labels increasing away from the base; the scan
    runs row by row from the base side outward, rightmost pair first.  A
    violation is either a weak row decrease between adjacent columns at
    equal depth, or column r+1 outlasting column r.  None means the
    arrangement is a column-strict tableau of shape mu.
    """
    columns = tableau.columns
    labels = [lab for column in columns for lab in column]
    return _violation(tuple(map(len, columns)), labels, normalize(mu))


def _violation(sizes, labels, mu) -> int | None:
    """``canonical_violation`` of the blocks of ``sizes`` whose labels, in
    step order, are ``labels``, for a normalized ``mu``."""
    ncols = mu[0] if mu else 0
    if len(sizes) != ncols:
        raise ValueError(f"tableau has {len(sizes)} columns, expected {ncols}")
    ends = list(accumulate(sizes))  # a column, read from the base, runs back from its end
    for depth in range(1, max(sizes, default=0) + 1):
        for r in range(ncols - 1, 0, -1):
            a, b = sizes[r - 1], sizes[r]
            if b >= depth > a:
                return r
            if a >= depth and b >= depth and labels[ends[r - 1] - depth] > labels[ends[r] - depth]:
                return r
    return None


def psi(term: SignedTerm, mu) -> SignedTerm:
    """Classical sign-reversing involution; fixed points are fitting paths."""
    return _psi(term, normalize(mu))


def _psi(term: SignedTerm, mu) -> SignedTerm:
    """``psi`` for a normalized ``mu``."""
    path = term.path
    r = _violation(path.ascents, [col - row for row, col in path.steps], mu)
    if r is None:
        if tuple(term.sigma) != tuple(range(1, len(term.sigma) + 1)):
            raise RuntimeError("column-strict arrangement with a non-identity permutation")
        return term
    lo = sum(path.ascents[: r - 1])
    hi = lo + path.ascents[r - 1] + path.ascents[r]
    w, image, pair, sizes = _pair_move(_shape_at(path, lo), path.steps[lo:hi], path.ascents[r - 1])
    if _TRACE:
        _trace(f"psi pair ({r},{r + 1})", w)
        _trace("psi moved", image)
    steps = path.steps[:lo] + pair + path.steps[hi:]
    ascents = path.ascents[: r - 1] + sizes + path.ascents[r + 1 :]
    sigma = tuple(r + 1 if v == r else r if v == r + 1 else v for v in term.sigma)
    return SignedTerm(sigma, _trusted_path(path.base, steps, ascents))


@lru_cache(maxsize=1024)
def _pair_move(start, steps, size: int) -> tuple:
    """(word, image, steps, sizes): psi's move of the block pair that adds
    ``steps`` to ``start``, the first block ``size`` steps long.  The re-cut's
    strip test reads the row above each box, so the key holds ``start``; at
    total size 7 the classical sweep moves 11,726 terms through 446 keys.  A
    bad pair raises every time: ``lru_cache`` keeps no exception."""
    pair = _trusted_path(start, steps, (size, len(steps) - size))
    w, image, _, boxes = _psi_move(pair)
    moved, _ = _splice(pair, image, boxes)
    return w, image, moved.steps, moved.ascents


def _psi_move(pair: LatticePath) -> tuple:
    """(word, image, None, boxes): the word of a two-block path raised or
    lowered until the two blocks trade sizes, and the box of each letter.

    Flipping an unpaired letter leaves every pair intact, so e^d flips the
    d rightmost unpaired ')' and f^d the d leftmost unpaired '(' at once.
    """
    d = pair.ascents[1] - pair.ascents[0] - 1
    if d == 0:
        raise RuntimeError("adjacent blocks differ by exactly one box at a violation")
    w, boxes = _read(pair)
    side = 2 if d > 0 else 1
    free = [i for i, p in enumerate(w.partner) if p is None and w.letters[i][1] == side]
    if len(free) < abs(d):  # too few: the operator names the missing letter
        (raise_e if d > 0 else lower_f)(flip_positions(w, free))
    return w, flip_positions(w, free[-d:] if d > 0 else free[:-d]), None, boxes


def _splice(pair: LatticePath, image: BracketWord, boxes) -> tuple[LatticePath, tuple]:
    """The two-block path re-cut along ``image``, and the shapes at its
    three boundaries.

    ``boxes`` holds the box of each letter, in word order.  A move trades
    letters between the blocks and keeps their boxes (a moved label occurs
    once in the pair), so each box joins its letter's block in ``image``,
    read backwards into add order.  A block that is not a vertical strip
    raises ``RuntimeError``.
    """
    blocks = ([], [])
    for (_, blk), box in zip(reversed(image.letters), reversed(boxes)):
        blocks[blk - 1].append(box)
    first, second = map(tuple, blocks)
    try:
        middle = _walk(pair.base, first)
        end = _walk(middle, second)
    except ValueError as exc:
        raise RuntimeError(f"re-cut block pair is not a strip chain: {exc}") from None
    moved = _trusted_path(pair.base, first + second, (len(first), len(second)))
    return moved, (pair.base, middle, end)


def _shape_at(path: LatticePath, lo: int) -> tuple:
    """The shape after the first ``lo`` steps, trusted: each row's last box sets its length."""
    rows = dict(enumerate(path.base, 1))
    rows.update(path.steps[:lo])  # a step opens a new row only just below the last
    return tuple(rows.values())


def _read(pair: LatticePath) -> tuple[BracketWord, list[Box]]:
    """The word of a two-block path and the box of each letter, in word order.

    ``word_of`` merges the labels and rejects a block that does not strictly
    decrease.  A block's letters rise as its steps are read backwards, so a
    walk back from each block's end meets its boxes in word order.
    """
    p, steps = pair.ascents[0], pair.steps
    labels = [col - row for row, col in steps]
    w = word_of(labels[:p], labels[p:])
    rising = (reversed(steps[:p]), reversed(steps[p:]))
    return w, [next(rising[blk - 1]) for _, blk in w.letters]


def _d1_move(path: LatticePath, ctx: FusionContext) -> tuple | None:
    """(word, phi1 image, kept position, boxes) for a path in D1, else None.

    The word is read only after the checks that the steps and the target
    decide on their own.
    """
    if len(path.ascents) != 2 or path.ascents[0] >= path.ascents[1]:
        return None
    p = path.ascents[0]
    rows = [row for row, _ in path.steps]
    if 1 in rows[:p] or ctx.n in rows[:p] or 1 not in rows[p:] or ctx.n not in rows[p:]:
        return None
    nu = path.target
    if not is_edge(nu, ctx):
        return None
    w, boxes = _read(path)
    # the one first-row box is the second block's: a strip has one box a row
    if w.partner[next(i for i, box in enumerate(boxes) if box[0] == 1)] is not None:
        return None
    kept = next(i for i, box in enumerate(boxes) if box[1] == nu[0] and w.partner[i] is None)
    flips = [i for i in w.unpaired() if i != kept]
    if any(w.letters[i][1] != 2 for i in flips):
        raise RuntimeError("unpaired first-block letter in the exceptional domain")
    return w, flip_positions(w, flips), kept, boxes


def in_D1(path: LatticePath, ctx: FusionContext) -> bool:
    """The two-block paths on which the classical move would overflow level k.

    The target is an edge diagram, the second block carries both the
    first-row and the row-n step while the first block carries neither,
    and the first-row letter is unpaired.
    """
    return _d1_move(path, ctx) is not None


def phi1(path: LatticePath, ctx: FusionContext) -> LatticePath:
    """Move every unpaired second-block letter but one into the first block.

    The kept letter is the lowest unpaired letter of the target's last
    column; keeping it is what holds the intermediate shape inside the
    level bound when the first-row and row-n letters migrate.
    """
    return _apply("phi1", path, _d1_move(path, ctx), ctx)


def _apply(name: str, path: LatticePath, move, ctx: FusionContext) -> LatticePath:
    """The two-block path re-cut along the image word of a psi, phi1 or
    phi2 move; every boundary stays restricted."""
    if move is None:
        raise ValueError(f"{name} applied outside its domain")
    w, image, mark, boxes = move
    _trace(f"{name} word", w, mark)
    _trace(f"{name} image", image, mark)
    new_path, shapes = _splice(path, image, boxes)
    for shape in shapes:
        if not _restricted(shape, ctx):
            raise RuntimeError(f"rebuilt path leaves the restricted region at {shape}")
    return new_path


def _d2_move(path: LatticePath, ctx: FusionContext) -> tuple | None:
    """(word, phi2 image, kept position, boxes) for a path in D2, else None.

    A member has an edge target, one first-row and one row-n step, the
    latter in block 1; it fits its two-column shape; the top second-block
    letter of the target's last column (the kept letter) is not paired with
    the letter left of the column's bottom box; and the smallest letter is
    an unpaired left parenthesis or paired with the kept letter.  The word
    is read, as in ``_d1_move``, only after the step and target checks.

    The last test implies that the path fits.  The one first-row step is
    (1, nu_1), so every box of the last column is a step, block 1's in rows
    1..j and block 2's below, and the kept letter is the box (j + 1, nu_1).
    A later block-2 letter has a larger label, so its row is some r <= j,
    which block 1 ended at nu_1: only '(' follow the kept letter.  A first
    '(' left unpaired leaves no ')' unpaired after it; one paired with the
    kept letter closes a balanced prefix, and only '(' follow.
    """
    if len(path.ascents) != 2 or not path.ascents[0] >= path.ascents[1] > 0:
        raise ValueError("D2 is defined for two nonempty blocks with the first at least as long")
    rows = [row for row, _ in path.steps]
    if rows.count(1) != 1 or rows.count(ctx.n) != 1 or ctx.n not in rows[: path.ascents[0]]:
        return None
    nu = path.target
    if not is_edge(nu, ctx):
        return None
    w, boxes = _read(path)
    _trace("membership word", w)
    column = [i for i, box in enumerate(boxes) if box[1] == nu[0]]  # bottom to top
    second = [i for i in column if w.letters[i][1] == 2]
    if not second:
        return None
    kept = second[-1]
    row, col = boxes[column[0]]
    if (row, col - 1) in boxes and w.partner[kept] == boxes.index((row, col - 1)):
        return None
    # both blocks are nonempty, so the word has a first letter
    if not ((w.letters[0][1] == 1 and w.partner[0] is None) or w.partner[0] == kept):
        return None
    # a column-strict word pairs every right parenthesis, the kept letter's too
    flips = [i for i in w.unpaired() if w.letters[i][1] == 1] + [w.partner[kept]]
    return w, flip_positions(w, flips), kept, boxes


def in_D2(path: LatticePath, ctx: FusionContext) -> bool:
    """D2 membership for a two-block path with |P1| >= |P2| > 0: the fitting
    paths that phi1 maps onto, which the level-k count excludes."""
    return _d2_move(path, ctx) is not None


def phi2(path: LatticePath, ctx: FusionContext) -> LatticePath:
    """Inverse of phi1: move the unpaired first-block letters back, plus
    the partner of the kept last-column letter."""
    return _apply("phi2", path, _d2_move(path, ctx), ctx)


def phi(term: SignedTerm, ctx: FusionContext, mu) -> SignedTerm:
    """Level-k involution on two-block signed terms.

    Dispatch: the exceptional domains D1 and D2 trade places through phi1
    and phi2; everything else either follows the classical move or is a
    fixed point (a fitting path outside D2).  The ascents must be mu' or,
    when the first block is the shorter, (mu'_2 - 1, mu'_1 + 1).
    """
    path = term.path
    if len(path.ascents) != 2:
        raise ValueError("the level-k involution acts on two-block terms")
    mu_conj = _conjugate(normalize(mu))
    a, b = path.ascents
    if len(mu_conj) != 2 or (a, b) != (mu_conj if a >= b else (mu_conj[1] - 1, mu_conj[0] + 1)):
        raise ValueError(f"ascents {path.ascents} do not fit column lengths {mu_conj}")
    if a < b:
        name, move = "phi1", _d1_move(path, ctx)
    else:
        name, move = "phi2", _d2_move(path, ctx)
        if move is None and _fits(path, mu_conj):
            return term
    if move is None:
        name, move = "psi", _psi_move(path)
    swap = (2, 1) if tuple(term.sigma) == (1, 2) else (1, 2)
    return SignedTerm(swap, _apply(name, path, move, ctx))

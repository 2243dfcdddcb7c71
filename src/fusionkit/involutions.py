"""Sign-reversing involutions on signed path terms.

``psi`` is the classical involution whose fixed points are the fitting
paths.  At level k it breaks down on one exceptional family of two-block
paths (domain D1) where the raising move would push the intermediate
shape past the level bound; ``phi1`` and its inverse ``phi2`` repair
exactly that family, and ``phi`` dispatches between the two.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

from .partitions import FusionContext, _conjugate, _restricted, is_edge, normalize, perm_sign
from .paths import (
    LatticePath,
    PathTableau,
    _place_blocks,
    _walk,
    block_boxes,
    block_has_bot,
    block_has_top,
    boundary_shapes,
    path_to_tableau,
)
from .words import (
    BracketWord,
    _fits,
    flip_positions,
    lower_f,
    pair_word,
    raise_e,
    render,
    word_type,
)


_TRACE = os.environ.get("FUSIONKIT_TRACE") == "1"


def _trace(label: str, w: BracketWord, mark: int | None = None) -> None:
    if _TRACE:
        print(f"fusionkit: {label} {render(w, mark)}", file=sys.stderr)


@dataclass(frozen=True, slots=True)
class SignedTerm:
    """A permutation together with a path whose ascents realize its action."""

    sigma: tuple[int, ...]
    path: LatticePath
    sign: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sign", perm_sign(self.sigma))


def canonical_violation(tableau: PathTableau, mu) -> int | None:
    """Index r of the first column pair (r, r+1) breaking column-strictness.

    Columns are read with labels increasing away from the base; the scan
    runs row by row from the base side outward, rightmost pair first.  A
    violation is either a weak row decrease between adjacent columns at
    equal depth, or column r+1 outlasting column r.  None means the
    arrangement is a column-strict tableau of shape mu.
    """
    mu = normalize(mu)
    ncols = mu[0] if mu else 0
    if len(tableau.columns) != ncols:
        raise ValueError(
            f"tableau has {len(tableau.columns)} columns, expected {ncols}"
        )
    cols = [tuple(reversed(c)) for c in tableau.columns]
    lens = [len(c) for c in cols]
    for depth in range(1, max(lens, default=0) + 1):
        for r in range(ncols - 1, 0, -1):
            a, b = lens[r - 1], lens[r]
            if b >= depth > a:
                return r
            if a >= depth and b >= depth and cols[r - 1][depth - 1] > cols[r][depth - 1]:
                return r
    return None


def psi(term: SignedTerm, mu) -> SignedTerm:
    """Classical sign-reversing involution; fixed points are fitting paths."""
    path = term.path
    r = canonical_violation(path_to_tableau(path), mu)
    if r is None:
        if tuple(term.sigma) != tuple(range(1, len(term.sigma) + 1)):
            raise RuntimeError("column-strict arrangement with a non-identity permutation")
        return term
    sizes = path.ascents
    d = sizes[r] - sizes[r - 1] - 1
    if d == 0:
        raise RuntimeError("adjacent blocks differ by exactly one box at a violation")
    w = pair_word(path, r)
    _trace(f"psi pair ({r},{r + 1})", w)
    for _ in range(abs(d)):
        w = raise_e(w) if d > 0 else lower_f(w)
    _trace("psi moved", w)
    new_path, _ = _splice(path, r, w)
    sigma = tuple(r + 1 if v == r else r if v == r + 1 else v for v in term.sigma)
    return SignedTerm(sigma, new_path)


def _splice(path: LatticePath, r: int, w: BracketWord) -> tuple[LatticePath, tuple]:
    """The path with blocks r, r+1 rebuilt from the two blocks of ``w``,
    and the shapes at the new pair's three boundaries.

    Only the pair is placed, from the shape where block r starts; raises
    when the new pair does not end where the old one did.
    """
    lo = sum(path.ascents[: r - 1])
    hi = lo + path.ascents[r - 1] + path.ascents[r]
    start = _walk(path.base, path.steps[:lo])
    blocks = (w.block(1), w.block(2))
    steps, shapes = _place_blocks(start, blocks)
    if shapes[-1] != _walk(start, path.steps[lo:hi]):
        raise RuntimeError("rebuilt block pair does not reach the original shape")
    ascents = path.ascents[: r - 1] + (len(blocks[0]), len(blocks[1])) + path.ascents[r + 1 :]
    new_path = LatticePath(path.base, path.steps[:lo] + steps + path.steps[hi:], ascents)
    return new_path, (start, *shapes)


def _box_of_letter(path: LatticePath) -> dict[tuple[int, int], tuple[int, int]]:
    """Map (label, block) -> box for a two-block path."""
    out = {}
    for blk in (1, 2):
        for box in block_boxes(path, blk):
            out[(box[1] - box[0], blk)] = box
    return out


def _letter_positions_in_column(path: LatticePath, w: BracketWord, col: int) -> list[int]:
    """Word positions whose boxes sit in the given column, bottom to top."""
    boxes = _box_of_letter(path)
    return [i for i, let in enumerate(w.letters) if boxes[let][1] == col]


def in_D1(path: LatticePath, ctx: FusionContext) -> bool:
    """The two-block paths on which the classical move would overflow level k.

    The target is an edge diagram, the second block carries both the
    first-row and the row-n step while the first block carries neither,
    and the first-row letter is unpaired.
    """
    if len(path.ascents) != 2 or path.ascents[0] >= path.ascents[1]:
        return False
    if not is_edge(path.target, ctx):
        return False
    if not (block_has_bot(path, 2) and block_has_top(path, 2, ctx)):
        return False
    if block_has_bot(path, 1) or block_has_top(path, 1, ctx):
        return False
    w = pair_word(path, 1)
    bot_label = max(
        box[1] - box[0] for box in block_boxes(path, 2) if box[0] == 1
    )
    pos = w.letters.index((bot_label, 2))
    return w.partner[pos] is None


def phi1(path: LatticePath, ctx: FusionContext) -> LatticePath:
    """Move every unpaired second-block letter but one into the first block.

    The kept letter is the lowest unpaired letter of the target's last
    column; keeping it is what holds the intermediate shape inside the
    level bound when the first-row and row-n letters migrate.
    """
    if not in_D1(path, ctx):
        raise ValueError("phi1 applied outside its domain")
    w = pair_word(path, 1)
    nu = path.target
    a_positions = _letter_positions_in_column(path, w, nu[0])
    kept = next(i for i in a_positions if w.partner[i] is None)
    _trace("phi1 word", w, kept)
    flips = [i for i in w.unpaired() if i != kept]
    if any(w.letters[i][1] != 2 for i in flips):
        raise RuntimeError("unpaired first-block letter in the exceptional domain")
    new_w = flip_positions(w, flips)
    _trace("phi1 image", new_w, kept)
    return _rebuild_two_block(path, new_w, ctx)


def _rebuild_two_block(path: LatticePath, w: BracketWord, ctx: FusionContext) -> LatticePath:
    """The two-block path rebuilt from ``w``; every boundary stays restricted."""
    new_path, shapes = _splice(path, 1, w)
    for shape in shapes:
        if not _restricted(shape, ctx):
            raise RuntimeError(f"rebuilt path leaves the restricted region at {shape}")
    return new_path


@dataclass(frozen=True, slots=True)
class D2Certificate:
    """Evaluation of the four membership conditions for the domain D2.

    ``column_strict``: the path fits its two-column shape.
    ``structure_ok``: edge target with exactly one first-row step and
    exactly one row-n step, the latter in block 1.
    ``last_column_ok``: the target's last column holds second-block
    letters whose top one is not paired with the letter just left of the
    column's bottom box.
    ``top_ok``: the smallest letter is an unpaired left parenthesis or
    paired with the kept last-column letter.
    """

    column_strict: bool
    structure_ok: bool
    last_column_ok: bool
    top_ok: bool
    a_labels: tuple[int, ...]
    a_i0: int | None
    a1_neighbor: int | None
    b_i0: int | None

    @property
    def is_member(self) -> bool:
        return self.column_strict and self.structure_ok and self.last_column_ok and self.top_ok


def in_D2(path: LatticePath, ctx: FusionContext) -> D2Certificate:
    """Evaluate D2 membership for a two-block path with |P1| >= |P2|."""
    if len(path.ascents) != 2 or not path.ascents[0] >= path.ascents[1] > 0:
        raise ValueError("D2 is defined for two nonempty blocks with the first at least as long")
    w = pair_word(path, 1)
    nu = path.target
    column_strict = word_type(w)[1] == 0  # fits(path, conjugate(ascents)): one block pair

    bot_boxes = [b for b in path.steps if b[0] == 1]
    top_boxes = [b for b in path.steps if b[0] == ctx.n]
    top_in_first = bool(top_boxes) and all(
        b in block_boxes(path, 1) for b in top_boxes
    )
    structure_ok = (
        is_edge(nu, ctx)
        and len(bot_boxes) == 1
        and len(top_boxes) == 1
        and top_in_first
    )

    a_positions = _letter_positions_in_column(path, w, nu[0] if nu else 0)
    a_labels = tuple(w.letters[i][0] for i in a_positions)
    second_block = [i for i in a_positions if w.letters[i][1] == 2]
    a_i0_pos = max(second_block) if second_block else None
    a1_neighbor = None
    last_column_ok = False
    if a_i0_pos is not None:
        last_column_ok = True
        boxes = _box_of_letter(path)
        bottom = boxes[w.letters[a_positions[0]]]
        neighbor_box = (bottom[0], bottom[1] - 1)
        for i, let in enumerate(w.letters):
            if boxes[let] == neighbor_box:
                a1_neighbor = let[0]
                if w.partner[a_i0_pos] == i:
                    last_column_ok = False
                break

    partner0 = w.partner[0] if w.letters else None
    top_ok = bool(w.letters) and (
        (w.letters[0][1] == 1 and partner0 is None)
        or (a_i0_pos is not None and partner0 == a_i0_pos)
    )

    b_i0 = None
    if a_i0_pos is not None and w.partner[a_i0_pos] is not None:
        b_i0 = w.letters[w.partner[a_i0_pos]][0]
    _trace("membership word", w, a_i0_pos)
    return D2Certificate(
        column_strict=column_strict,
        structure_ok=structure_ok,
        last_column_ok=last_column_ok,
        top_ok=top_ok,
        a_labels=a_labels,
        a_i0=w.letters[a_i0_pos][0] if a_i0_pos is not None else None,
        a1_neighbor=a1_neighbor,
        b_i0=b_i0,
    )


def phi2(path: LatticePath, ctx: FusionContext) -> LatticePath:
    """Inverse of phi1: move the unpaired first-block letters back, plus
    the partner of the kept last-column letter."""
    cert = in_D2(path, ctx)
    if not cert.is_member:
        raise ValueError("phi2 applied outside its domain")
    w = pair_word(path, 1)
    nu = path.target
    a_positions = _letter_positions_in_column(path, w, nu[0])
    a_i0_pos = max(i for i in a_positions if w.letters[i][1] == 2)
    b_i0_pos = w.partner[a_i0_pos]
    if b_i0_pos is None:
        raise RuntimeError("kept letter of a column-strict word must be paired")
    _trace("phi2 word", w, a_i0_pos)
    flips = [i for i in w.unpaired() if w.letters[i][1] == 1] + [b_i0_pos]
    new_w = flip_positions(w, flips)
    _trace("phi2 image", new_w)
    return _rebuild_two_block(path, new_w, ctx)


def phi(term: SignedTerm, ctx: FusionContext, mu) -> SignedTerm:
    """Level-k involution on two-block signed terms.

    Dispatch: the exceptional domains D1 and D2 trade places through phi1
    and phi2; everything else either follows the classical involution or
    is a fixed point (a fitting path outside D2).
    """
    mu = normalize(mu)
    path = term.path
    if len(path.ascents) != 2:
        raise ValueError("the level-k involution acts on two-block terms")
    p, q = path.ascents
    swap = (2, 1) if tuple(term.sigma) == (1, 2) else (1, 2)
    if p < q:
        if in_D1(path, ctx):
            return SignedTerm(swap, phi1(path, ctx))
        result = psi(term, mu)
    elif _fits(path, _conjugate(mu)):
        if in_D2(path, ctx).is_member:
            return SignedTerm(swap, phi2(path, ctx))
        return term
    else:
        result = psi(term, mu)
    for shape in boundary_shapes(result.path):
        if not _restricted(shape, ctx):
            raise RuntimeError("classical move left the restricted region")
    return result


def is_k_fusion(path: LatticePath, ctx: FusionContext, mu) -> bool:
    """Fitting, restricted at every block boundary, and outside D2."""
    mu = normalize(mu)
    if any(not _restricted(s, ctx) for s in boundary_shapes(path)):
        return False
    if not _fits(path, _conjugate(mu)):
        return False
    return not in_D2(path, ctx).is_member

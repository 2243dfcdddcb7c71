"""Sign-reversing involutions on signed path terms.

``psi`` is the classical involution whose fixed points are the fitting
paths.  At level k it breaks down on one exceptional family of two-block
paths (domain D1) where the raising move would push the intermediate
shape past the level bound; ``phi1`` and its inverse ``phi2`` repair
exactly that family, and ``phi`` dispatches between the two.  The D1 and
D2 tests read a two-block path once, as its pair word with the box of
each letter, and work out the phi1 or phi2 move as they decide.  Off both
domains phi takes psi's move instead.  Every move, of psi or phi, keeps
the pair's boxes and re-cuts them along its image word in one splice.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

from .partitions import FusionContext, _conjugate, _restricted, is_edge, normalize, perm_sign
from .paths import (
    Box,
    LatticePath,
    PathTableau,
    _walk,
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
    w, image, _, boxes = _psi_move(path, r)
    _trace(f"psi pair ({r},{r + 1})", w)
    _trace("psi moved", image)
    new_path, _ = _splice(path, r, image, boxes)
    sigma = tuple(r + 1 if v == r else r if v == r + 1 else v for v in term.sigma)
    return SignedTerm(sigma, new_path)


def _psi_move(path: LatticePath, r: int) -> tuple:
    """(word, image, None, boxes): the pair word of blocks r, r+1 raised or
    lowered until the two blocks trade sizes, and the box of each letter."""
    sizes = path.ascents
    d = sizes[r] - sizes[r - 1] - 1
    if d == 0:
        raise RuntimeError("adjacent blocks differ by exactly one box at a violation")
    w, boxes = _read(path, r)
    image = w
    for _ in range(abs(d)):
        image = raise_e(image) if d > 0 else lower_f(image)
    return w, image, None, boxes


def _splice(path: LatticePath, r: int, image: BracketWord, boxes) -> tuple[LatticePath, tuple]:
    """Blocks r, r+1 of the path re-cut along ``image``, and the shapes at
    the new pair's three boundaries.

    ``boxes`` holds the box of each letter, in word order.  A move trades
    letters between the blocks and keeps their boxes (a moved label occurs
    once in the pair), so each box joins its letter's block in ``image``,
    read backwards into add order.  A block that is not a vertical strip
    raises ``RuntimeError``.
    """
    lo = sum(path.ascents[: r - 1])
    backwards = list(zip(reversed(image.letters), reversed(boxes)))
    first, second = (tuple(box for (_, blk), box in backwards if blk == b) for b in (1, 2))
    start = _walk(path.base, path.steps[:lo])
    try:
        middle = _walk(start, first)
        end = _walk(middle, second)
    except ValueError as exc:
        raise RuntimeError(f"re-cut block pair is not a strip chain: {exc}") from None
    steps = path.steps[:lo] + first + second + path.steps[lo + len(boxes) :]
    ascents = path.ascents[: r - 1] + (len(first), len(second)) + path.ascents[r + 1 :]
    return LatticePath(path.base, steps, ascents), (start, middle, end)


def _read(path: LatticePath, r: int = 1) -> tuple[BracketWord, list[Box]]:
    """The pair word of blocks r, r+1 and the box of each letter, in word order.

    Within a block the labels decrease along the steps, so each block's
    boxes, read backwards, meet the word's letters of that block in order.
    """
    w = pair_word(path, r)
    lo = sum(path.ascents[: r - 1])
    p = lo + path.ascents[r - 1]
    first, second = reversed(path.steps[lo:p]), reversed(path.steps[p : p + path.ascents[r]])
    return w, [next(first if blk == 1 else second) for _, blk in w.letters]


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
    new_path, shapes = _splice(path, 1, image, boxes)
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


def _d2(path: LatticePath, ctx: FusionContext) -> tuple[D2Certificate, tuple | None]:
    """The D2 certificate, and for a member the phi2 move (word, image,
    position of the kept last-column letter, boxes)."""
    if len(path.ascents) != 2 or not path.ascents[0] >= path.ascents[1] > 0:
        raise ValueError("D2 is defined for two nonempty blocks with the first at least as long")
    p = path.ascents[0]
    nu = path.target
    w, boxes = _read(path)
    column_strict = word_type(w)[1] == 0  # fits(path, conjugate(ascents)): one block pair

    rows = [row for row, _ in path.steps]
    structure_ok = (
        is_edge(nu, ctx) and rows.count(1) == 1 and rows.count(ctx.n) == 1 and ctx.n in rows[:p]
    )

    a_positions = [i for i, box in enumerate(boxes) if box[1] == nu[0]]  # bottom to top
    a_labels = tuple(w.letters[i][0] for i in a_positions)
    second_block = [i for i in a_positions if w.letters[i][1] == 2]
    a_i0_pos = second_block[-1] if second_block else None
    a1_neighbor = None
    last_column_ok = a_i0_pos is not None
    if last_column_ok:
        row, col = boxes[a_positions[0]]
        if (row, col - 1) in boxes:
            i = boxes.index((row, col - 1))
            a1_neighbor = w.letters[i][0]
            last_column_ok = w.partner[a_i0_pos] != i

    # both blocks are nonempty, so the word has a first letter
    top_ok = (w.letters[0][1] == 1 and w.partner[0] is None) or (
        a_i0_pos is not None and w.partner[0] == a_i0_pos
    )

    b_i0_pos = w.partner[a_i0_pos] if a_i0_pos is not None else None
    _trace("membership word", w, a_i0_pos)
    cert = D2Certificate(
        column_strict=column_strict,
        structure_ok=structure_ok,
        last_column_ok=last_column_ok,
        top_ok=top_ok,
        a_labels=a_labels,
        a_i0=w.letters[a_i0_pos][0] if a_i0_pos is not None else None,
        a1_neighbor=a1_neighbor,
        b_i0=w.letters[b_i0_pos][0] if b_i0_pos is not None else None,
    )
    if not cert.is_member:
        return cert, None
    # a column-strict word pairs every right parenthesis, the kept letter's too
    flips = [i for i in w.unpaired() if w.letters[i][1] == 1] + [b_i0_pos]
    return cert, (w, flip_positions(w, flips), a_i0_pos, boxes)


def in_D2(path: LatticePath, ctx: FusionContext) -> D2Certificate:
    """Evaluate D2 membership for a two-block path with |P1| >= |P2|."""
    return _d2(path, ctx)[0]


def phi2(path: LatticePath, ctx: FusionContext) -> LatticePath:
    """Inverse of phi1: move the unpaired first-block letters back, plus
    the partner of the kept last-column letter."""
    return _apply("phi2", path, _d2(path, ctx)[1], ctx)


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
        cert, move = _d2(path, ctx)
        if move is None and cert.column_strict:
            return term
        name = "phi2"
    if move is None:
        name, move = "psi", _psi_move(path, 1)
    swap = (2, 1) if tuple(term.sigma) == (1, 2) else (1, 2)
    return SignedTerm(swap, _apply(name, path, move, ctx))


def is_k_fusion(path: LatticePath, ctx: FusionContext, mu) -> bool:
    """Fitting, restricted at every block boundary, and outside D2."""
    mu = normalize(mu)
    if any(not _restricted(s, ctx) for s in boundary_shapes(path)):
        return False
    return _fits(path, _conjugate(mu)) and not in_D2(path, ctx).is_member

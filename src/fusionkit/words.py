"""Two-block words, bracket pairing, and the raising/lowering operators.

The word of a pair of label-decreasing blocks is all labels sorted
increasingly; when the same label occurs in both blocks the first-block
copy comes first.  First-block letters read as '(' and second-block
letters as ')', matched by the usual parenthesization.  The operators flip
one unpaired letter at a time between the blocks.
"""

from __future__ import annotations

from collections import namedtuple
from operator import le

from .partitions import conjugate
from .paths import LatticePath


class BracketWord(namedtuple("BracketWord", "letters partner")):
    """Sorted two-block letter sequence with its bracket pairing.

    ``letters`` is a tuple of (label, block) with block 1 -> '(' and
    block 2 -> ')'.  ``partner[i]`` is the index paired with position i,
    or None when position i is unpaired; the letters determine it.
    """

    __slots__ = ()

    @property
    def brackets(self) -> str:
        return "".join("(" if blk == 1 else ")" for _, blk in self.letters)

    def unpaired(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.partner) if p is None)


def _pair(letters) -> tuple[int | None, ...]:
    partner: list[int | None] = [None] * len(letters)
    stack: list[int] = []
    for i, (_, blk) in enumerate(letters):
        if blk == 1:
            stack.append(i)
        elif stack:
            j = stack.pop()
            partner[i] = j
            partner[j] = i
    return tuple(partner)


def _from_letters(letters) -> BracketWord:
    return BracketWord(tuple(letters), _pair(letters))


def word_of(p1_labels, p2_labels) -> BracketWord:
    """Merge two strictly decreasing label blocks into a sorted bracket word,
    in one pass from their small ends."""
    a, b = tuple(p1_labels), tuple(p2_labels)
    for labels in (a, b):
        if any(map(le, labels, labels[1:])):
            raise ValueError(f"block {labels} is not strictly decreasing")
    letters = []
    i, j = len(a), len(b)
    while i and j:
        if a[i - 1] <= b[j - 1]:  # a shared label puts the first-block letter first
            i -= 1
            letters.append((a[i], 1))
        else:
            j -= 1
            letters.append((b[j], 2))
    letters += [(lab, 1) for lab in reversed(a[:i])]
    letters += [(lab, 2) for lab in reversed(b[:j])]
    return _from_letters(letters)


def word_type(w: BracketWord) -> tuple[int, int]:
    """(unpaired left count, unpaired right count)."""
    blocks = [w.letters[i][1] for i in w.unpaired()]
    return blocks.count(1), blocks.count(2)


def raise_e(w: BracketWord) -> BracketWord:
    """Flip the rightmost unpaired ')' into '('."""
    rights = [i for i in w.unpaired() if w.letters[i][1] == 2]
    if not rights:
        raise ValueError("raising operator undefined: no unpaired right parenthesis")
    return flip_positions(w, [rights[-1]])


def lower_f(w: BracketWord) -> BracketWord:
    """Flip the leftmost unpaired '(' into ')'."""
    lefts = [i for i in w.unpaired() if w.letters[i][1] == 1]
    if not lefts:
        raise ValueError("lowering operator undefined: no unpaired left parenthesis")
    return flip_positions(w, [lefts[0]])


def flip_positions(w: BracketWord, positions) -> BracketWord:
    """Swap the block of each listed position (1 <-> 2) and re-pair."""
    letters = list(w.letters)
    for i in positions:
        lab, blk = letters[i]
        letters[i] = (lab, 3 - blk)
    return _from_letters(letters)


def pair_word(path: LatticePath, i: int) -> BracketWord:
    """Bracket word of adjacent blocks (i, i+1) of a path."""
    lo = sum(path.ascents[: i - 1])
    p, q = path.ascents[i - 1], path.ascents[i]
    labels = [col - row for row, col in path.steps[lo : lo + p + q]]
    return word_of(labels[:p], labels[p:])


def fits(path: LatticePath, mu) -> bool:
    """Whether the path's blocks form a column-strict tableau of shape mu.

    Operationally: every adjacent block pair's word has no unpaired right
    parenthesis.  The path's ascent composition must equal the column
    lengths of mu.
    """
    return _fits(path, conjugate(mu))


def _fits(path: LatticePath, mu_conj) -> bool:
    """``fits`` given the column lengths ``mu_conj`` of mu."""
    if tuple(path.ascents) != mu_conj:
        raise ValueError(f"ascents {path.ascents} do not match column lengths {mu_conj}")
    return all(word_type(pair_word(path, i))[1] == 0 for i in range(1, len(path.ascents)))


def render(w: BracketWord, mark: int | None = None) -> str:
    """Bracket string for debugging; ``mark`` wraps one position in [ ]."""
    return "".join(f"[{ch}]" if i == mark else ch for i, ch in enumerate(w.brackets))

"""Partitions, restriction predicates, listings, the rank-level duality, permutation signs.

Partitions are plain tuples of weakly decreasing nonnegative integers.
Trailing zeros carry no meaning, so ``(2, 1)`` and ``(2, 1, 0)`` denote the
same partition.  The validation rule, for the whole package: the public
function a shape enters through validates it once and normalizes the zeros
away; from there it goes only to private helpers (``_contains``, ``_conjugate``,
``_restricted``, ``_format_partition``) or to ``partitions_of``'s bound, which
take it as it is, never back through a public function that validates it again.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import le, lt, neg

Partition = tuple[int, ...]


def normalize(parts) -> Partition:
    """Validate a weakly decreasing nonnegative sequence and strip trailing zeros."""
    p = tuple(map(int, parts))
    if any(map(lt, p, p[1:])):
        raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    return p[: len(p) - p.count(0)]  # decreasing and nonnegative: the zeros trail


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form, e.g. ``"3,2,1"``; ``""`` and ``"0"`` are empty."""
    text = text.strip()
    if text == "":
        return ()
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return normalize(parts)


def format_partition(p) -> str:
    return _format_partition(normalize(p))


def _format_partition(p) -> str:
    """``format_partition`` of a normalized ``p``."""
    return ",".join(map(str, p)) or "0"


def _contains(outer, inner) -> bool:
    """Diagram containment of normalized shapes: inner fits inside outer."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def conjugate(p) -> Partition:
    """Column-lengths partition (transpose of the diagram)."""
    return _conjugate(normalize(p))


def _conjugate(p) -> Partition:
    """``conjugate`` of a normalized ``p``."""
    out, rows = [], len(p)
    for j in range(p[0] if p else 0):
        while p[rows - 1] <= j:  # parts decrease, so the rows shorter than j + 1 come last
            rows -= 1
        out.append(rows)
    return tuple(out)


class FusionContext(namedtuple("FusionContext", "n k")):
    """The pair (n, k): row bound and level governing restriction predicates.

    n = 1 is degenerate but admitted; the rank-level dual of an (n, 1)
    context needs it.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return super().__new__(cls, n, k)

    def dual(self) -> "FusionContext":
        return FusionContext(self.k, self.n)


def _span(p, ctx: FusionContext) -> int | None:
    """First part minus n-th part, or None if p has more than n rows.

    ``p`` is normalized, or padded with zeros to at most n parts.
    """
    n = ctx.n  # a named tuple's field is read through a descriptor: read it once
    if len(p) > n:
        return None
    return (p[0] if p else 0) - (p[n - 1] if len(p) == n else 0)


def _restricted(p, ctx: FusionContext) -> bool:
    """``is_restricted`` for a ``p`` that ``_span`` accepts as it is."""
    d = _span(p, ctx)
    return d is not None and d <= ctx.k


def is_restricted(p, ctx: FusionContext) -> bool:
    """At most n rows and first-minus-last part at most k (difference 0 allowed)."""
    return _restricted(normalize(p), ctx)


def is_edge(p, ctx: FusionContext) -> bool:
    """First-minus-last part exactly k."""
    return _span(normalize(p), ctx) == ctx.k


def is_border(p, ctx: FusionContext) -> bool:
    """First-minus-last part exactly k + 1."""
    return _span(normalize(p), ctx) == ctx.k + 1


def quotient(p, ctx: FusionContext) -> Partition:
    """Subtract the n-th part from the first n-1: the reduced label of p's class."""
    p = normalize(p)
    if len(p) > ctx.n:
        raise ValueError(f"{p} has more than {ctx.n} parts")
    full = p + (0,) * (ctx.n - len(p))
    return normalize(tuple(full[i] - full[-1] for i in range(ctx.n - 1)))


def rank_level_dual(p, ctx: FusionContext) -> Partition:
    """The rank-level duality bijection onto (k, n)-restricted partitions.

    Slice the diagram into vertical slabs of width k, conjugate each slab,
    and glue by part-wise addition.  Bijective on restricted partitions;
    composing with the dual of the swapped context is the identity.
    """
    p = normalize(p)
    if not _restricted(p, ctx):
        raise ValueError(f"{p} is not ({ctx.n},{ctx.k})-restricted")
    k = ctx.k
    result: list[int] = [0] * k
    t = 0
    while p and t * k < p[0]:
        slab = normalize(tuple(min(max(x - t * k, 0), k) for x in p))
        for i, part in enumerate(_conjugate(slab)):
            result[i] += part
        t += 1
    return normalize(result)


@lru_cache(maxsize=1024)
def _perm_sign(sigma: tuple[int, ...]) -> int:
    """The sign of a permutation tuple, memoised: a sweep signs each of its
    few distinct permutations thousands of times."""
    inversions = sum(1 for i, a in enumerate(sigma) for b in sigma[i + 1 :] if a > b)
    return -1 if inversions % 2 else 1


def partitions_of(total: int, within: Partition | None = None):
    """Yield the partitions of ``total`` inside the partition ``within``, taken as it
    is (None bounds nothing), in decreasing lexicographic order.  One loop: fill each
    row with the largest part that fits, then shrink the last part that leaves room."""
    caps = (total,) * total if within is None else within  # a negative total gets no rows
    slots, low = len(caps), caps[-1] if caps else 0
    below = [*accumulate(caps[::-1], initial=0)] if caps and caps[0] > low else (0,)
    parts, rest, top = [], total, total
    while True:
        while rest > 0 and len(parts) < slots:
            parts.append(top := min(rest, top, caps[len(parts)]))
            rest -= top
        if rest:
            return  # only the first fill can fail: every shrink below leaves room
        yield tuple(parts)
        while parts:  # shrunk to v, the last part leaves v to each row below but the last r,
            v = parts[-1] - 1  # whose caps, below v, hold below[r]; a constant cap is never below v
            if rest < (v * (slots - len(parts)) if low >= v else v * (slots - len(parts) - (
                    r := slots - bisect_right(caps, -v, key=neg))) + below[r]):
                break
            rest += parts.pop()  # a 1, or too little room after it for one more box
        else:
            return
        top = parts[-1] = parts[-1] - 1
        rest += 1


def partitions_up_to(total: int, within: Partition | None = None):
    for s in range(total + 1):
        yield from partitions_of(s, within)


def subpartitions(nu) -> list[Partition]:
    """The partitions inside the diagram of nu, in decreasing lexicographic order."""
    nu = normalize(nu)
    return sorted((p for t in range(sum(nu) + 1) for p in partitions_of(t, nu)), reverse=True)


def restricted_partitions_of(total: int, ctx: FusionContext) -> list[Partition]:
    """Partitions of ``total`` that are (n, k)-restricted, in decreasing
    lexicographic order.  Those whose n-th part is m are listed directly, not
    filtered out of every partition: they are the partitions of total - n*m
    in the (n - 1) x k box, with m added to each of the n rows."""
    n, k = ctx
    lifted = [
        tuple([p + m for p in q]) + (m,) * (n - len(q)) if m else q
        for m in range(total // n + 1)
        for q in partitions_of(total - n * m, (k,) * (n - 1))
    ]
    return sorted(lifted, reverse=True)


def restricted_supersets(la, extra: int, ctx: FusionContext):
    """Restricted partitions obtained from la by adding ``extra`` boxes,
    in increasing lexicographic order."""
    la = normalize(la)
    return (q for q in reversed(restricted_partitions_of(sum(la) + extra, ctx)) if _contains(q, la))

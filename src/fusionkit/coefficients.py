"""Counting functions: classical Littlewood-Richardson and level-k fusion.

All coefficients are computed exactly by exhaustive enumeration at desk
scale.  The ground truth is the signed sum over permuted-ascent restricted
paths, built only where the ascents are nonnegative.  That sum is the dual
Jacobi-Trudi determinant det(e_{mu'_j - j + i}) acting on s_la through the
restricted Pieri step, so ``_plan_walk`` expands it row by row from one
shape for every nu at once: the frontiers of shapes that share a set of used
columns merge, and the moves of each row, which depend on mu and n alone,
come from the bounded plan ``_fusion_plan``, the one enumerator of sigma.
As s_la s_mu = s_mu s_la, ``fusion_expand`` walks the plan of the factor
with fewer columns from the other, ``fusion_oracle`` reads one nu of it, and
``fusion_kac_walton`` gives it again without a plan.  The level sweep's
unsigned walk and ``omega_terms`` (the signed terms the involutions act on,
depth first) keep mu's plan: mu's own chains and terms do not commute.
The classical ``lr_paths`` and ``lr_lattice`` each count one pruned walk
of ``strip_chains``, whose adjacent strips pair as brackets or read as a
lattice word; each fast route the sum certifies is one of those walks
plus the level correction (``fusion_rule``: restricted, less D2;
``fusion_tableaux``: the level wrap, less five exclusions).

Public functions validate their arguments once, by the rule in
``fusionkit.partitions``, the two fast routes through one guard
(``_fast_route``); the private cores (``_fusion_row``, ``_fusion_rule``,
``_fusion_tableaux``, ``_lr_paths``, ``_lr_lattice``, ``_count_paths``) take
normalized input that the caller has already checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement
from types import MappingProxyType

from .involutions import SignedTerm, in_D2
from .partitions import (
    FusionContext,
    Partition,
    _conjugate,
    _contains,
    _restricted,
    _span,
    normalize,
    restricted_partitions_of,
)
from .paths import (
    _strip_successors,
    _trusted_path,
    strip_chains,
    vertical_strips,
)


class UnsupportedShape(ValueError):
    """The fast fusion routes only handle shapes with at most two columns."""


def omega_terms(la, mu, nu, ctx: FusionContext | None = None):
    """Signed terms (sigma, path): paths la -> nu with ascents sigma . mu'.

    With a context, only paths whose block boundaries are restricted
    appear.  Only permutations whose composition lies in 0..len(nu) are
    visited (``_plan_sigmas``): any other has a negative block or one no
    vertical strip into nu can fill.  Paths come straight off
    ``strip_chains``; the empty mu has one term, the identity with the
    empty path, when la = nu.
    """
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    for sigma, comp in _plan_sigmas(mu, len(nu)):
        for chain in strip_chains(la, nu, comp, ctx):
            yield SignedTerm(sigma, _trusted_path(la, sum(chain, ()), comp))


def lr_paths(la, mu, nu) -> int:
    """Littlewood-Richardson coefficient as the number of fitting paths:
    strip chains la -> nu with column lengths mu' whose adjacent strips pair
    as brackets with no unpaired right parenthesis."""
    return _lr_paths(normalize(la), normalize(mu), normalize(nu))


def _lr_paths(la, mu, nu) -> int:
    """``lr_paths`` of normalized shapes."""
    return sum(1 for _ in strip_chains(la, nu, _conjugate(mu), pair_ok=_pair_balanced))


def lr_lattice(la, mu, nu) -> int:
    """The same coefficient as the number of row-strict fillings of nu/la
    with content mu' whose column reading word is lattice, counted as strip
    chains whose adjacent strips read as a lattice word."""
    return _lr_lattice(normalize(la), normalize(mu), normalize(nu))


def _lr_lattice(la, mu, nu) -> int:
    """``lr_lattice`` of normalized shapes.  A reading word is lattice when,
    for each i, its subword of the letters i and i + 1 is; that subword is
    the reading word of strips i and i + 1, so adjacent strips decide it."""
    return sum(1 for _ in strip_chains(la, nu, _conjugate(mu), pair_ok=_pair_lattice))


def _pair_balanced(prev_strip, strip) -> bool:
    """No unpaired right parenthesis in the bracket word of two strips: the
    j-th smallest label of the second is at least that of the first."""
    pairs = zip(reversed(prev_strip), reversed(strip))  # labels fall along a strip
    return len(strip) <= len(prev_strip) and all(c - r <= d - s for (r, c), (s, d) in pairs)


def _pair_lattice(prev_strip, strip) -> bool:
    """Reading-word prefix dominance for two consecutive strips: no prefix
    of their column reading word has more 2's than 1's."""
    boxes = {b: 1 for b in prev_strip} | {b: -1 for b in strip}
    return min(accumulate(boxes[b] for b in _reading_order(boxes)), default=0) >= 0


def _reading_order(boxes):
    """Column-wise reading: columns left to right, bottom to top."""
    return sorted(boxes, key=lambda b: (b[1], -b[0]))


def fusion_rule(la, mu, nu, ctx: FusionContext) -> int:
    """Level-k coefficient by path counting, for mu with at most two columns:
    the fitting paths la -> nu with column lengths mu' whose block
    boundaries are restricted, less the exceptional domain D2."""
    return _fast_route(_fusion_rule, la, mu, nu, ctx)


def _fast_route(core, la, mu, nu, ctx: FusionContext) -> int:
    """Validate the arguments of a fast route and call its private ``core``:
    mu has at most two columns, and an unrestricted shape gives 0.  A core
    walks ``strip_chains``, which yields nothing on a weight mismatch."""
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    if mu and mu[0] > 2:
        raise UnsupportedShape(f"mu = {mu} has more than two columns")
    if not all(_restricted(p, ctx) for p in (la, mu, nu)):
        return 0
    return core(la, mu, nu, ctx)


def _fusion_rule(la, mu, nu, ctx: FusionContext) -> int:
    """``fusion_rule`` of normalized restricted shapes: ``_lr_paths``'s walk
    kept restricted, less the chains in D2 when mu has two columns and
    fewer than n rows.  Else each chain counts: one column has no pair, and
    after a full column of n boxes the level excludes nothing."""
    mu_conj = _conjugate(mu)
    level_corrected = len(mu_conj) == 2 and len(mu) < ctx.n
    return sum(
        1
        for chain in strip_chains(la, nu, mu_conj, ctx, pair_ok=_pair_balanced)
        if not (level_corrected and in_D2(_trusted_path(la, sum(chain, ()), mu_conj), ctx))
    )


def fusion_oracle(la, mu, nu, ctx: FusionContext) -> int:
    """Ground truth at one nu: the nu entry of ``fusion_expand``'s row."""
    return fusion_expand(la, mu, ctx).get(normalize(nu), 0)


def _wrap_ok(entry, la, nu, ctx: FusionContext) -> bool:
    """Level wrap for restricted fillings: row n weakly below row 1 shifted k."""
    n, k = ctx.n, ctx.k
    la_full = la + (0,) * (n - len(la))
    nu_full = nu + (0,) * (n - len(nu))
    for j in range(la_full[n - 1] + 1, nu_full[n - 1] + 1):
        upper = (n, j)
        lower = (1, j + k)
        if la_full[0] < j + k <= nu_full[0] and entry[upper] > entry[lower]:
            return False
    return True


def fusion_tableaux(la, mu, nu, ctx: FusionContext) -> int:
    """Level-k coefficient recounted on skew fillings, for mu with at most
    two columns: the row-strict fillings of nu/la with content mu' whose
    column reading word is lattice and which keep the level wrap, less the
    fillings that five structural tests exclude."""
    return _fast_route(_fusion_tableaux, la, mu, nu, ctx)


def _fusion_tableaux(la, mu, nu, ctx: FusionContext) -> int:
    """``fusion_tableaux`` of normalized restricted shapes: the fillings of
    ``_lr_lattice``'s walk that keep the level wrap and pass no exclusion."""
    entries = (
        {box: i for i, strip in enumerate(strips, start=1) for box in strip}
        for strips in strip_chains(la, nu, _conjugate(mu), pair_ok=_pair_lattice)
    )
    return sum(
        1
        for entry in entries
        if _wrap_ok(entry, la, nu, ctx) and not _excluded_filling(entry, nu, ctx)
    )


def _excluded_filling(entry, nu, ctx: FusionContext) -> bool:
    """The five tests singling out lattice fillings that must not count."""
    n = ctx.n
    # edge target
    if _span(nu, ctx) != ctx.k:
        return False
    # one box in the first row; one box, filled 1, in row n
    row1 = [b for b in entry if b[0] == 1]
    rown = [b for b in entry if b[0] == n]
    if len(row1) != 1 or len(rown) != 1 or entry[rown[0]] != 1:
        return False
    # the last column holds 2's
    last = nu[0]
    two_rows = {b[0] for b in entry if b[1] == last and entry[b] == 2}
    if not two_rows:
        return False
    # 1's in the penultimate column alongside those 2's: strictly fewer
    ones_under = sum(
        1 for b in entry if b[1] == last - 1 and b[0] in two_rows and entry[b] == 1
    )
    if ones_under >= len(two_rows):
        return False
    # strict dominance except possibly at the final 2
    word = [entry[b] for b in _reading_order(entry)]
    last2 = max((i for i, v in enumerate(word) if v == 2), default=None)
    c1 = c2 = 0
    for i, v in enumerate(word):
        if v == 1:
            c1 += 1
        else:
            c2 += 1
        if c1 <= c2 and i != last2:
            return False
    return True


def fusion_expand(la, mu, ctx: FusionContext) -> dict[tuple[int, ...], int]:
    """All nonzero level-k coefficients of s_la s_mu, keyed by nu: the
    signed sum over permuted-ascent restricted paths for every nu at once,
    taken over the ascents of whichever factor has fewer columns."""
    la, mu = normalize(la), normalize(mu)
    if not _restricted(mu, ctx):
        return {}
    return _fusion_row(la, mu, ctx)


def _fusion_row(la, mu, ctx: FusionContext) -> dict[Partition, int]:
    """``fusion_expand`` of a normalized la and a normalized restricted mu:
    the nonzero entries of ``_plan_walk``'s signed frontier, keyed by nu.
    The walk runs the plan of la from mu when la has fewer columns: its
    determinant is smaller, and most of a wide mu's signed terms cancel."""
    if not _restricted(la, ctx):
        return {}
    row, n = {}, ctx.n
    base, factor = (mu, la) if la[:1] < mu[:1] else (la, mu)  # s_la s_mu = s_mu s_la
    for shape, value in _plan_walk(base, factor, ctx).items():
        if value < 0:
            raise RuntimeError(f"negative fusion coefficient for {la}, {mu} at {ctx}")
        if value:  # parts never increase, so the zeros are the trailing ones
            row[shape[: n - shape.count(0)]] = value
    return row


def _plan_walk(la, mu, ctx: FusionContext, signed: bool = True) -> dict[Partition, int]:
    """``_clamped_plan(mu, n)`` run from the normalized la, for a mu of at
    most n rows, on one frontier of restricted n-part shapes per set of used
    columns, one restricted strip step per move.  The last frontier counts
    each term's chains times sgn(sigma), or with ``signed=False`` every chain
    of every term once.  Only the signed frontier is symmetric in la and mu,
    so ``_fusion_row`` alone may swap them."""
    n, k = ctx.n, ctx.k
    states = {0: {la + (0,) * (n - len(la)): 1}}
    for plan_row in _clamped_plan(mu, n):
        grown: dict[int, dict[Partition, int]] = {}
        for used, moves in plan_row.items():
            targets = [
                (size, sign if signed else 1, grown.setdefault(taken, {}))
                for size, sign, taken in moves
            ]
            for shape, count in states[used].items():
                if not count:  # the signs cancel most entries of a wide mu
                    continue
                # a level above shape[0] + 1 bounds no span, so such levels share one key
                level = min(k, shape[0] + 1)
                for size, sign, target in targets:
                    for new_shape in _strip_successors(shape, size, n, level):
                        target[new_shape] = target.get(new_shape, 0) + sign * count
        states = grown
    (frontier,) = states.values()  # after the last row every column is used
    return frontier


@lru_cache(maxsize=256)
def _fusion_plan(mu, n: int) -> tuple:
    """The rows of det(e_{mu'_j - j + i}) as moves between sets of used
    columns, which depend on (mu, n) alone: row i maps each bitmask ``used``
    of the columns rows 0..i-1 took to the moves (size, sign, used | 1 << j)
    of each unused column j whose size mu'_j - j + i lies in 0..n.  The
    sign is -1 to the number of used columns right of j, so the signs
    multiply to sgn(sigma).  Sizes fall along a row and grow down a column,
    so the lowest unused column is a row's first candidate and the first to
    outgrow n: row 0 has none unless column 0 (len(mu) boxes) fits, and a
    move after which it never fits again is left out."""
    heights = [c - j for j, c in enumerate(_conjugate(mu))]  # column j's size at row i: + i
    m, rows, reached = len(heights), [], [0] if len(mu) <= n else []
    for i in range(m):
        plan_row = {}
        for used in reached:
            moves = []
            for j in range(_lowest_unused(used), m):
                if heights[j] + i < 0:
                    break
                low = _lowest_unused(taken := used | 1 << j)
                if not used >> j & 1 and (low == m or heights[low] + i + 1 <= n):
                    moves.append((heights[j] + i, -1 if (used >> j).bit_count() % 2 else 1, taken))
            if moves:
                plan_row[used] = tuple(moves)
        rows.append(MappingProxyType(plan_row))  # read-only: every caller shares it
        reached = list(dict.fromkeys(move[2] for moves in plan_row.values() for move in moves))
    return tuple(rows)


def _clamped_plan(mu, cap: int) -> tuple:
    """``_fusion_plan(mu, cap)`` keyed by the cap clamped to len(mu) - 1 ..
    len(mu) + mu_1 - 1: below len(mu) column 0 never fits, so no move is
    made, and no size exceeds len(mu) + mu_1 - 1, so no larger cap bounds one."""
    low, high = len(mu) - 1, len(mu) + (mu[0] if mu else 0) - 1
    return _fusion_plan(mu, low if cap < low else high if cap > high else cap)


def _plan_sigmas(mu, cap: int):
    """The pairs (sigma, sigma . mu') with entries in 0..cap, depth first
    through ``_clamped_plan(mu, cap)``, so by sigma^-1 in lexicographic order:
    row i's move of column j sets entry i of sigma . mu' to its size and
    entry j of sigma to i + 1.  A stack, not recursion, holds the open moves."""
    plan = _clamped_plan(mu, cap)
    stack = [(0, (0,) * len(plan), ())]  # (used, sigma, sigma . mu') of rows 0..i-1
    while stack:
        used, sigma, comp = stack.pop()
        if len(comp) == len(plan):
            yield sigma, comp
            continue
        for size, _, taken in reversed(plan[len(comp)].get(used, ())):
            j = (taken ^ used).bit_length() - 1
            stack.append((taken, sigma[:j] + (len(comp) + 1,) + sigma[j + 1 :], (*comp, size)))


def _lowest_unused(used: int) -> int:
    """The lowest column whose bit is clear in ``used``."""
    return (used ^ (used + 1)).bit_length() - 1


def fusion_kac_walton(la, mu, ctx: FusionContext) -> dict[Partition, int]:
    """``fusion_expand`` by the Kac-Walton formula, which walks no plan, path
    or strip: each weight w of V_mu, one per semistandard tableau of shape mu
    with entries 1..n, moves la + rho + w into the fundamental alcove of the
    affine Weyl group at shifted level n + k, and adds the sign of that move
    at the nu it lands on, unless a wall fixes it."""
    la, mu = normalize(la), normalize(mu)
    if not (_restricted(la, ctx) and _restricted(mu, ctx)):
        return {}
    n, level = ctx.n, ctx.n + ctx.k
    base = [part + n - i for i, part in enumerate(la + (0,) * (n - len(la)), start=1)]
    row: dict[Partition, int] = {}
    for entries in _tableaux(mu, n):
        x, sign = _sort_signed(b + entries.count(i) for i, b in enumerate(base, start=1))
        while sign and x[0] - x[-1] > level:  # reflect in the wall x_1 - x_n = n + k
            x, flip = _sort_signed([x[-1] + level, *x[1:-1], x[0] - level])
            sign *= -flip
        if sign and x[0] - x[-1] < level:
            nu = tuple(v - n + i for i, v in enumerate(x, start=1))
            nu = nu[: n - nu.count(0)]
            row[nu] = row.get(nu, 0) + sign
    return {nu: value for nu, value in row.items() if value}


def _tableaux(mu, n: int, above=()):
    """The rows of each semistandard tableau of shape mu with entries 1..n,
    concatenated; columns strictly increase down from ``above``."""
    if not mu:
        yield ()
        return
    for row in combinations_with_replacement(range(1, n + 1), mu[0]):
        if all(a < b for a, b in zip(above, row)):
            for rest in _tableaux(mu[1:], n, row):
                yield row + rest


def _sort_signed(x):
    """x in decreasing order, with the sign of the sort (0 on a repeated entry)."""
    x = list(x)
    inversions = sum(a < b for i, a in enumerate(x) for b in x[i + 1 :])
    return sorted(x, reverse=True), (-1) ** inversions if len(set(x)) == len(x) else 0


def gepner_witten(la, mu, nu, k: int) -> int:
    """Two-row closed form: the classical coefficient when twice the level
    clears the sum of the three row differences, else zero.

    The form as printed has k where this has 2k; the oracle refutes it,
    see ``reports/gepner_witten_n2.md`` and the script that writes it.
    """
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    for p in (la, mu, nu):
        if len(p) > 2:
            raise ValueError(f"{p} has more than two rows")
    threshold = sum(a - b for a, b in (p + (0,) * (2 - len(p)) for p in (la, mu, nu)))
    return _lr_paths(la, mu, nu) if 2 * k >= threshold else 0


def count_paths(la, nu, ctx: FusionContext | None = None) -> int:
    """Single-box chains la -> nu; with a context, every shape on the chain
    (la and nu included) must be restricted.  Counted by endpoint one box
    at a time over ``vertical_strips``, as ``_plan_walk`` counts strips."""
    return _count_paths(normalize(la), normalize(nu), ctx)


def _count_paths(la, nu, ctx: FusionContext | None) -> int:
    """``count_paths`` of normalized shapes."""
    if not _contains(nu, la):
        return 0
    if ctx is not None and not (_restricted(la, ctx) and _restricted(nu, ctx)):
        return 0
    frontier = {la + (0,) * (len(nu) - len(la)): 1}
    for _ in range(sum(nu) - sum(la)):
        grown: dict[Partition, int] = {}
        for shape, count in frontier.items():
            for new_shape, _ in vertical_strips(shape, 1, nu):
                if ctx is None or _restricted(new_shape, ctx):
                    grown[new_shape] = grown.get(new_shape, 0) + count
        frontier = grown
    # every box stays inside nu, so the last shape is nu itself
    return frontier.get(nu, 0)


def verify_restricted_path_identity(la, nu, ctx: FusionContext) -> bool:
    """Restricted path count equals the fusion-weighted sum of restricted
    standard-tableau counts over restricted shapes of the right size."""
    lhs, rhs = _path_identity_sides(normalize(la), normalize(nu), ctx, {})
    return lhs == rhs


def _path_identity_sides(la, nu, ctx: FusionContext, rows) -> tuple[int, int]:
    """Both sides of the restricted path identity for a normalized la and nu.

    ``rows`` maps mu to (la's fusion row, restricted standard count of mu)
    and is filled as needed, so a caller sweeping nu over one la builds
    each row once.
    """
    rhs = 0
    for mu in restricted_partitions_of(sum(nu) - sum(la), ctx):
        if mu not in rows:
            rows[mu] = (_fusion_row(la, mu, ctx), _count_paths((), mu, ctx))
        row, standard = rows[mu]
        rhs += row.get(nu, 0) * standard
    return _count_paths(la, nu, ctx), rhs

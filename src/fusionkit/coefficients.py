"""Counting functions: classical Littlewood-Richardson and level-k fusion.

All coefficients are computed exactly by exhaustive enumeration at desk
scale.  The ground truth is the signed sum over permuted-ascent restricted
paths, built only where the ascents are nonnegative.  ``fusion_expand``,
behind every table, takes it for all nu at once by counting strip chains
by endpoint; ``fusion_oracle`` reads one nu of that row, and
``omega_terms`` lists the individual signed terms the involutions act on.
``fusion_rule`` (path counting with the level correction) and
``fusion_tableaux`` (skew fillings with a lattice word) are the fast
routes the sum certifies.
"""

from __future__ import annotations

from functools import lru_cache

from .involutions import SignedTerm, in_D2
from .partitions import (
    FusionContext,
    Partition,
    _conjugate,
    _restricted,
    conjugate,
    contains,
    is_edge,
    is_restricted,
    nonneg_compositions,
    normalize,
    padded,
    partitions_of,
    perm_sign,
    restricted_partitions_of,
)
from .paths import enumerate_paths, strip_chain_counts, strip_chains
from .words import fits


class UnsupportedShape(ValueError):
    """The fast fusion routes only handle shapes with at most two columns."""


def _weight_ok(la, mu, nu) -> bool:
    return sum(la) + sum(mu) == sum(nu)


def omega_terms(la, mu, nu, ctx: FusionContext | None = None):
    """Signed terms (sigma, path): paths la -> nu with ascents sigma . mu'.

    With a context, only paths whose block boundaries are restricted
    appear.  Only permutations whose composition lies in 0..len(nu) are
    visited: any other has a negative block or one no vertical strip into
    nu can fill.
    """
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    if not mu:
        return
    for sigma, comp in nonneg_compositions(conjugate(mu), len(nu)):
        for path in enumerate_paths(la, nu, comp, ctx):
            yield SignedTerm(sigma, path)


def lr_paths(la, mu, nu) -> int:
    """Littlewood-Richardson coefficient as the number of fitting paths."""
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    if not _weight_ok(la, mu, nu) or not contains(nu, la):
        return 0
    if not mu:
        return 1 if la == nu else 0
    mu_conj = conjugate(mu)
    return sum(1 for p in enumerate_paths(la, nu, mu_conj, None) if fits(p, mu))


def _reading_order(boxes):
    """Column-wise reading: columns left to right, bottom to top."""
    return sorted(boxes, key=lambda b: (b[1], -b[0]))


def _is_lattice(word, m: int) -> bool:
    counts = [0] * (m + 1)
    for v in word:
        counts[v] += 1
        if v > 1 and counts[v] > counts[v - 1]:
            return False
    return True


def lr_lattice(la, mu, nu) -> int:
    """The same coefficient as the number of row-strict fillings of nu/la
    with content mu' whose column reading word is lattice."""
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    if not _weight_ok(la, mu, nu) or not contains(nu, la):
        return 0
    if not mu:
        return 1 if la == nu else 0
    sizes = conjugate(mu)
    m = len(sizes)
    count = 0
    for strips in strip_chains(la, nu, sizes):
        entry = {}
        for i, strip in enumerate(strips, start=1):
            for box in strip:
                entry[box] = i
        word = [entry[b] for b in _reading_order(entry)]
        if _is_lattice(word, m):
            count += 1
    return count


def _pair_balanced(prev_strip, strip) -> bool:
    """No unpaired right parenthesis in the bracket word of two strips."""
    letters = sorted(
        [(b[1] - b[0], 1) for b in prev_strip] + [(b[1] - b[0], 2) for b in strip]
    )
    depth = 0
    for _, blk in letters:
        depth += 1 if blk == 1 else -1
        if depth < 0:
            return False
    return True


def _pair_lattice(prev_strip, strip) -> bool:
    """Reading-word prefix dominance for two consecutive strips."""
    boxes = {b: 1 for b in prev_strip} | {b: 2 for b in strip}
    c1 = c2 = 0
    for b in _reading_order(boxes):
        if boxes[b] == 1:
            c1 += 1
        else:
            c2 += 1
            if c2 > c1:
                return False
    return True


def _expand_all(la, nu, pair_ok) -> dict[tuple[int, ...], int]:
    """Counts of fitting chains la -> nu grouped by shape mu, keeping only
    chains whose adjacent strips all pass ``pair_ok``."""
    la, nu = normalize(la), normalize(nu)
    out: dict[tuple[int, ...], int] = {}
    # a vertical strip has at most one box in each row of nu/la
    rows = sum(1 for i, part in enumerate(nu) if i >= len(la) or la[i] < part)
    for mu_conj in partitions_of(sum(nu) - sum(la), max_part=rows):
        count = sum(1 for _ in strip_chains(la, nu, mu_conj, pair_ok=pair_ok))
        if count:
            out[conjugate(mu_conj)] = count
    return out


def lr_expand_paths(la, nu) -> dict[tuple[int, ...], int]:
    """All nonzero LR coefficients of s_la s_mu at s_nu, via bracket pairing."""
    return _expand_all(la, nu, _pair_balanced)


def lr_expand_lattice(la, nu) -> dict[tuple[int, ...], int]:
    """The same table via lattice reading words."""
    return _expand_all(la, nu, _pair_lattice)


def fusion_single_column(la, r: int, nu, ctx: FusionContext) -> int:
    """1 when nu/la is an r-box vertical strip and nu is restricted."""
    return sum(1 for _ in strip_chains(normalize(la), normalize(nu), (r,), ctx))


def fusion_rule(la, mu, nu, ctx: FusionContext) -> int:
    """Level-k coefficient by path counting, for mu with at most two columns.

    Single-column mu reduces to the vertical-strip indicator; mu with n
    rows counts every restricted-boundary path (no level correction is
    needed there); otherwise the count is over k-fusion fitting paths.
    """
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    if mu and mu[0] > 2:
        raise UnsupportedShape(f"mu = {mu} has more than two columns")
    if not all(is_restricted(p, ctx) for p in (la, mu, nu)):
        return 0
    if not _weight_ok(la, mu, nu):
        return 0
    if not mu:
        return 1 if la == nu else 0
    mu_conj = conjugate(mu)
    if mu[0] == 1:
        return fusion_single_column(la, mu_conj[0], nu, ctx)
    if len(mu) == ctx.n:
        return len(enumerate_paths(la, nu, mu_conj, ctx))
    return sum(
        1
        for p in enumerate_paths(la, nu, mu_conj, ctx)
        if fits(p, mu) and not in_D2(p, ctx).is_member
    )


def fusion_oracle(la, mu, nu, ctx: FusionContext) -> int:
    """Ground truth at one nu: the nu entry of ``fusion_expand``'s row."""
    return fusion_expand(la, mu, ctx).get(normalize(nu), 0)


def _wrap_ok(entry, la, nu, ctx: FusionContext) -> bool:
    """Level wrap for restricted fillings: row n weakly below row 1 shifted k."""
    n, k = ctx.n, ctx.k
    la_full = padded(la, n)
    nu_full = padded(nu, n)
    for j in range(la_full[n - 1] + 1, nu_full[n - 1] + 1):
        upper = (n, j)
        lower = (1, j + k)
        if la_full[0] < j + k <= nu_full[0] and entry[upper] > entry[lower]:
            return False
    return True


def fusion_tableaux(la, mu, nu, ctx: FusionContext) -> int:
    """Level-k coefficient recounted on restricted skew fillings.

    Counts row-strict fillings of nu/la with content mu' (entries 1, 2)
    whose column reading word is lattice and which satisfy the level wrap,
    minus the exceptional fillings picked out by five structural tests.
    """
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    if mu and mu[0] > 2:
        raise UnsupportedShape(f"mu = {mu} has more than two columns")
    if not all(is_restricted(p, ctx) for p in (la, mu, nu)):
        return 0
    if not _weight_ok(la, mu, nu):
        return 0
    if not mu:
        return 1 if la == nu else 0
    sizes = padded(conjugate(mu), 2)
    count = 0
    for strips in strip_chains(la, nu, sizes):
        entry = {}
        for i, strip in enumerate(strips, start=1):
            for box in strip:
                entry[box] = i
        if not _wrap_ok(entry, la, nu, ctx):
            continue
        word = [entry[b] for b in _reading_order(entry)]
        if not _is_lattice(word, 2):
            continue
        if not _excluded_filling(entry, word, nu, ctx):
            count += 1
    return count


def _excluded_filling(entry, word, nu, ctx: FusionContext) -> bool:
    """The five tests singling out lattice fillings that must not count."""
    n = ctx.n
    nu_full = padded(nu, n)
    # edge target
    if not is_edge(nu, ctx):
        return False
    # one box in the first row; one box, filled 1, in row n
    row1 = [b for b in entry if b[0] == 1]
    rown = [b for b in entry if b[0] == n]
    if len(row1) != 1 or len(rown) != 1 or entry[rown[0]] != 1:
        return False
    # the last column holds 2's
    last = nu_full[0]
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
    signed sum over permuted-ascent restricted paths for every nu at once."""
    la, mu = normalize(la), normalize(mu)
    return _fusion_row(la, mu, ctx) if _restricted(mu, ctx) else {}


def _fusion_row(la, mu, ctx: FusionContext, chains=None) -> dict[Partition, int]:
    """``fusion_expand`` of a normalized la and a normalized restricted mu,
    counting each permutation's restricted strip chains from la by endpoint.

    A dict ``chains`` receives, per nu, the unsigned totals (restricted,
    unrestricted) of those chains; unrestricted chains keep n rows but may
    take any span, so the two agree exactly when no boundary is obstructed.
    """
    totals: dict[Partition, int] = {}
    # no shape on a chain spans more than |la| + |mu|, so this level bounds nothing
    wide = FusionContext(ctx.n, ctx.k + sum(la) + sum(mu))
    for sigma, comp in nonneg_compositions(_conjugate(mu), ctx.n):
        sign = perm_sign(sigma)
        counts = strip_chain_counts(la, comp, ctx)
        for nu, count in counts.items():
            totals[nu] = totals.get(nu, 0) + sign * count
        if chains is not None:  # restricted chains are among the unrestricted ones
            for nu, count in strip_chain_counts(la, comp, wide).items():
                held, every = chains.get(nu, (0, 0))
                chains[nu] = (held + counts.get(nu, 0), every + count)
    if any(value < 0 for value in totals.values()):
        raise RuntimeError(f"negative fusion coefficient for {la}, {mu} at {ctx}")
    return {nu: value for nu, value in totals.items() if value}


def gepner_witten(la, mu, nu, k: int) -> int:
    """Two-row closed form: the classical coefficient when twice the level
    clears the sum of the three row differences, else zero."""
    return _gepner_witten_printed(la, mu, nu, 2 * k)


def _gepner_witten_printed(la, mu, nu, k: int) -> int:
    """The closed form with its threshold as printed, k in place of 2k;
    the oracle refutes it (see reports/gepner_witten_n2.md)."""
    la, mu, nu = normalize(la), normalize(mu), normalize(nu)
    for p in (la, mu, nu):
        if len(p) > 2:
            raise ValueError(f"{p} has more than two rows")
    threshold = sum(padded(p, 2)[0] - padded(p, 2)[1] for p in (la, mu, nu))
    return lr_paths(la, mu, nu) if k >= threshold else 0


def count_paths(la, nu, ctx: FusionContext | None = None) -> int:
    """Single-box chains la -> nu; with a context, every shape on the chain
    (la and nu included) must be restricted."""
    la, nu = normalize(la), normalize(nu)
    if not contains(nu, la):
        return 0
    if ctx is not None and not (is_restricted(la, ctx) and is_restricted(nu, ctx)):
        return 0

    @lru_cache(maxsize=None)
    def walk(shape) -> int:
        if shape == la:
            return 1
        total = 0
        for i in range(len(shape)):
            if shape[i] and (i + 1 == len(shape) or shape[i + 1] < shape[i]):
                prev = normalize(shape[:i] + (shape[i] - 1,) + shape[i + 1 :])
                if contains(prev, la) and (ctx is None or is_restricted(prev, ctx)):
                    total += walk(prev)
        return total

    return walk(nu)


def verify_restricted_path_identity(la, nu, ctx: FusionContext) -> bool:
    """Restricted path count equals the fusion-weighted sum of restricted
    standard-tableau counts over restricted shapes of the right size."""
    la, nu = normalize(la), normalize(nu)
    lhs = count_paths(la, nu, ctx)
    m = sum(nu) - sum(la)
    rhs = 0
    for mu in restricted_partitions_of(m, ctx):
        coeff = fusion_oracle(la, mu, nu, ctx)
        if coeff:
            rhs += coeff * count_paths((), mu, ctx)
    return lhs == rhs

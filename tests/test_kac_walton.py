"""The level-k rows against an independent reference, past the sweep bounds.

``kac_walton`` is the Kac-Walton formula in its Racah-Speiser form: it
straightens lambda + rho + w for each weight w of V_mu by the affine Weyl
group at shifted level n + k.  It builds no path and no strip, and uses
nothing of the package but the shapes it is handed.
"""

from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit.coefficients import fusion_expand, fusion_rule, fusion_tableaux
from fusionkit.partitions import FusionContext, restricted_partitions_of, restricted_supersets


def _tableaux(mu, n, above=()):
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
    x, sign = list(x), 1
    for i in range(1, len(x)):  # insertion sort, one sign flip per swap
        j = i
        while j and x[j - 1] < x[j]:
            x[j - 1], x[j] = x[j], x[j - 1]
            sign, j = -sign, j - 1
    return x, sign if len(set(x)) == len(x) else 0


def kac_walton(la, mu, n: int, k: int) -> dict[tuple[int, ...], int]:
    """The nonzero level-k coefficients of s_la s_mu at n rows, keyed by nu."""
    rho = range(n - 1, -1, -1)
    base = [part + r for part, r in zip(tuple(la) + (0,) * n, rho)]
    row: dict[tuple[int, ...], int] = {}
    for entries in _tableaux(tuple(mu), n):
        x, sign = _sort_signed(b + entries.count(j) for j, b in enumerate(base, start=1))
        while sign and x[0] - x[-1] > n + k:  # reflect in the wall x1 - xn = n + k
            x, flip = _sort_signed([x[-1] + n + k, *x[1:-1], x[0] - n - k])
            sign *= -flip
        if sign and x[0] - x[-1] < n + k:
            nu = tuple(v - r for v, r in zip(x, rho))
            nu = nu[: n - nu.count(0)]
            row[nu] = row.get(nu, 0) + sign
    return {nu: value for nu, value in row.items() if value}


@st.composite
def level_inputs(draw, max_cols=None):
    """(la, mu, ctx) with n <= 6, k <= 5, |la| <= 8 and 1 <= |mu| <= 6, both restricted."""
    ctx = FusionContext(draw(st.integers(2, 6)), draw(st.integers(1, 5)))
    la = draw(st.sampled_from([p for s in range(9) for p in restricted_partitions_of(s, ctx)]))
    mus = [
        p
        for s in range(1, 7)
        for p in restricted_partitions_of(s, ctx)
        if max_cols is None or p[0] <= max_cols
    ]
    return la, draw(st.sampled_from(mus)), ctx


def test_reference_spots():
    # s_1 s_1 = s_2 + s_11; at level 1 for sl(2) only s_11 survives
    assert kac_walton((1,), (1,), 3, 5) == {(2,): 1, (1, 1): 1}
    assert kac_walton((1,), (1,), 2, 1) == {(1, 1): 1}
    # sl(2) spins 1 x 1 = 0 + 1 + 2, cut to spins j <= k - 2 at level k
    assert kac_walton((2,), (2,), 2, 4) == {(4,): 1, (3, 1): 1, (2, 2): 1}
    assert kac_walton((2,), (2,), 2, 3) == {(3, 1): 1, (2, 2): 1}
    assert kac_walton((2,), (2,), 2, 2) == {(2, 2): 1}


def test_wide_rows_equal_kac_walton():
    # one-row and two-row mu far past the sweep bounds, at levels that cut
    # the classical product (21 of 36 and 44 of 94 nu survive)
    for la, mu, n, k in (((10, 5), (20,), 3, 25), ((9, 2), (25, 3), 4, 28)):
        row = fusion_expand(la, mu, FusionContext(n, k))
        assert row == kac_walton(la, mu, n, k), (la, mu)
        assert len(row) == {3: 21, 4: 44}[n]


@settings(max_examples=200, deadline=None)
@given(level_inputs())
def test_signed_sum_equals_kac_walton(inputs):
    la, mu, ctx = inputs
    assert fusion_expand(la, mu, ctx) == kac_walton(la, mu, ctx.n, ctx.k)


@settings(max_examples=120, deadline=None)
@given(level_inputs(max_cols=2))
def test_fast_routes_equal_kac_walton(inputs):
    la, mu, ctx = inputs
    row = kac_walton(la, mu, ctx.n, ctx.k)
    for nu in restricted_supersets(la, sum(mu), ctx):
        expected = row.get(nu, 0)
        assert fusion_rule(la, mu, nu, ctx) == expected, nu
        assert fusion_tableaux(la, mu, nu, ctx) == expected, nu


@settings(max_examples=120, deadline=None)
@given(level_inputs(max_cols=2))
def test_rows_grow_with_the_level(inputs):
    la, mu, ctx = inputs
    higher = fusion_expand(la, mu, FusionContext(ctx.n, ctx.k + 1))
    for nu, value in fusion_expand(la, mu, ctx).items():
        assert value <= higher.get(nu, 0), nu

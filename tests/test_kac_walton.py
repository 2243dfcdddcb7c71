"""The level-k rows against an independent reference, past the sweep bounds.

``fusion_kac_walton`` is the Kac-Walton formula in its Racah-Speiser form: it
straightens lambda + rho + w for each weight w of V_mu by the affine Weyl
group at shifted level n + k.  It builds no path, strip or plan, and uses
nothing of the package but the validation of the shapes it is handed.
"""

import ast
import inspect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import coefficients
from fusionkit.coefficients import fusion_expand, fusion_kac_walton, fusion_rule, fusion_tableaux
from fusionkit.partitions import FusionContext, restricted_partitions_of, restricted_supersets


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
    assert fusion_kac_walton((1,), (1,), FusionContext(3, 5)) == {(2,): 1, (1, 1): 1}
    assert fusion_kac_walton((1,), (1,), FusionContext(2, 1)) == {(1, 1): 1}
    # sl(2) spins 1 x 1 = 0 + 1 + 2, cut to spins j <= k - 2 at level k
    assert fusion_kac_walton((2,), (2,), FusionContext(2, 4)) == {(4,): 1, (3, 1): 1, (2, 2): 1}
    assert fusion_kac_walton((2,), (2,), FusionContext(2, 3)) == {(3, 1): 1, (2, 2): 1}
    assert fusion_kac_walton((2,), (2,), FusionContext(2, 2)) == {(2, 2): 1}


def test_wide_rows_equal_kac_walton():
    # one-row and two-row mu far past the sweep bounds, at levels that cut
    # the classical product (21 of 36 and 44 of 94 nu survive)
    for la, mu, n, k in (((10, 5), (20,), 3, 25), ((9, 2), (25, 3), 4, 28)):
        row = fusion_expand(la, mu, FusionContext(n, k))
        assert row == fusion_kac_walton(la, mu, FusionContext(n, k)), (la, mu)
        assert len(row) == {3: 21, 4: 44}[n]


@settings(max_examples=200, deadline=None)
@given(level_inputs())
def test_signed_sum_equals_kac_walton(inputs):
    la, mu, ctx = inputs
    assert fusion_expand(la, mu, ctx) == fusion_kac_walton(la, mu, ctx)


@settings(max_examples=120, deadline=None)
@given(level_inputs(max_cols=2))
def test_fast_routes_equal_kac_walton(inputs):
    la, mu, ctx = inputs
    row = fusion_kac_walton(la, mu, ctx)
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


def _qdim(p, ctx):
    # prod over i < j <= n of sin(pi (p_i - p_j + j - i) / (n + k)) / sin(pi (j - i) / (n + k))
    n, parts = ctx.n, p + (0,) * (ctx.n - len(p))
    angle = math.pi / (n + ctx.k)
    return math.prod(
        math.sin(angle * (parts[i] - parts[j] + j - i)) / math.sin(angle * (j - i))
        for i in range(n)
        for j in range(i + 1, n)
    )


@settings(max_examples=100, deadline=None)
@given(level_inputs())
def test_rows_keep_the_quantum_dimension(inputs):
    # the quantum dimension is a character of the fusion ring:
    # sum_nu N(la, mu; nu) qdim(nu) = qdim(la) qdim(mu)
    la, mu, ctx = inputs
    total = sum(value * _qdim(nu, ctx) for nu, value in fusion_expand(la, mu, ctx).items())
    assert math.isclose(total, _qdim(la, ctx) * _qdim(mu, ctx), rel_tol=1e-9)


def _walk_from(base, factor, ctx):
    """The row as the plan of ``factor`` walked from ``base``, with no swap."""
    frontier = coefficients._plan_walk(base, factor, ctx)
    return {s: value for s, value in frontier.items() if value}


@settings(max_examples=100, deadline=None)
@given(level_inputs())
def test_rows_commute(inputs):
    # s_la s_mu = s_mu s_la: the determinant of either factor, walked from the
    # other, gives the same row, and so does the public row in either order
    la, mu, ctx = inputs
    row = _walk_from(la, mu, ctx)
    assert row == _walk_from(mu, la, ctx)
    assert fusion_expand(la, mu, ctx) == fusion_expand(mu, la, ctx) == row


def test_reference_walks_no_plan_path_or_strip():
    # the second oracle reads shapes (partitions) and itertools, and nothing of
    # paths, words, involutions or the determinant's plan
    tree = ast.parse(inspect.getsource(coefficients))
    own = {"fusion_kac_walton", "_tableaux", "_sort_signed"}
    foreign = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module not in ("partitions", "itertools")
        for alias in node.names
    }
    foreign |= {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))} - own
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in own]
    assert {fn.name for fn in functions} == own
    for fn in functions:
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert not names & foreign, (fn.name, sorted(names & foreign))

from itertools import permutations, product
from math import factorial, prod

import pytest

from fusionkit import cli, coefficients, verify
from fusionkit.coefficients import (
    UnsupportedShape,
    _clamped_plan,
    _fusion_plan,
    _plan_sigmas,
    _plan_walk,
    count_paths,
    fusion_expand,
    fusion_oracle,
    fusion_rule,
    fusion_tableaux,
    gepner_witten,
    lr_lattice,
    lr_paths,
    omega_terms,
    verify_restricted_path_identity,
)
from fusionkit.partitions import (
    FusionContext,
    conjugate,
    is_restricted,
    partitions_of,
    partitions_up_to,
    rank_level_dual,
    restricted_partitions_of,
    restricted_supersets,
    subpartitions,
)
from fusionkit.paths import _strip_successors, enumerate_paths, strip_chains
from fusionkit.verify import monotone_checks
from fusionkit.words import word_of, word_type

CTX32 = FusionContext(3, 2)


def test_lr_paths_values():
    assert lr_paths((1,), (1,), (2,)) == 1
    assert lr_paths((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_paths((2, 1), (2, 1), (4, 2)) == 1
    assert lr_paths((1,), (1,), (3,)) == 0  # weight mismatch
    assert lr_paths((1,), (), (1,)) == 1


def test_lr_lattice_values():
    assert lr_lattice((1,), (1,), (1, 1)) == 1
    assert lr_lattice((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_lattice((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_routes_agree_up_to_seven():
    for nu in partitions_up_to(7):
        for la in subpartitions(nu):
            for mu in partitions_of(sum(nu) - sum(la)):
                assert lr_paths(la, mu, nu) == lr_lattice(la, mu, nu), (la, mu, nu)


def test_lr_routes_count_pruned_chains_only(monkeypatch):
    # (8,...,1) x (10) has 10!/2 unpruned strip chains into nu; the classical
    # routes and the fast routes built on them prune as they walk, so none
    # walks strip chains without a pair test
    walk = coefficients.strip_chains

    def pruned(*args, pair_ok=None):
        assert pair_ok is not None, "a route walked every chain"
        return walk(*args, pair_ok=pair_ok)

    monkeypatch.setattr(coefficients, "strip_chains", pruned)
    la, nu = tuple(range(8, 0, -1)), (10, 8, 7, 6, 5, 4, 3, 2, 1)
    assert lr_paths(la, (10,), nu) == 1
    assert lr_lattice(la, (10,), nu) == 1
    for nu in ((3, 2, 1), (2, 2, 2)):  # the su(3) level-2 table of test_fusion_at_su3_level_two
        assert fusion_rule((2, 1), (2, 1), nu, CTX32) == 1
        assert fusion_tableaux((2, 1), (2, 1), nu, CTX32) == 1
    # the pruned walk counts the classical coefficient; the level correction
    # removes this triple's one fitting path (it is in D2)
    la, nu, ctx = (3, 1, 1, 1), (4, 1, 1, 1, 1), FusionContext(5, 3)
    assert lr_paths(la, (2,), nu) == 1
    assert fusion_rule(la, (2,), nu, ctx) == 0
    assert fusion_tableaux(la, (2,), nu, ctx) == 0


def test_rows_list_no_signed_composition(monkeypatch, capsys):
    # a one-row mu at small n has Fibonacci-many signed compositions; a row,
    # a table and a level sweep merge their sigma-prefixes instead of listing them
    def listed(*args):
        raise AssertionError("a row listed the signed compositions")

    monkeypatch.setattr(coefficients, "_plan_sigmas", listed)
    assert fusion_expand((), (20,), FusionContext(3, 20)) == {(20,): 1}
    row = fusion_expand((2, 1), (40, 20), FusionContext(3, 61))
    assert (len(row), sum(row.values())) == (7, 8)
    assert fusion_oracle((), (30,), (30,), FusionContext(2, 30)) == 1
    assert cli.main(["table", "--n", "2", "--k", "30", "--mu", "30", "--max-size", "3",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lambda,mu,nu,n,k,N",
        "0,30,30,2,30,1",
        '1,30,"30,1",2,30,1',  # (31) spans 31 > k
        '"1,1",30,"31,1",2,30,1',
        '2,30,"30,2",2,30,1',
        '"2,1",30,"31,2",2,30,1',
        '3,30,"30,3",2,30,1',
    ]
    (monotone,) = monotone_checks(3, 2, 5)
    assert (monotone.name, monotone.checked, monotone.passed) == (
        "fusion_monotone_in_level", 124, True
    )
    # the level sweep's chain totals are unsigned walks of the same plan
    chains = verify._chain_totals((), (30,), FusionContext(2, 30))
    assert (len(chains), chains[(30,)], chains[(15, 15)]) == (16, (1, 1), (3937603038,) * 2)


def test_row_walks_the_plan_of_the_narrower_factor(monkeypatch):
    # s_la s_mu = s_mu s_la: a row expands the determinant of the factor with
    # fewer columns, from the other factor; a tie keeps the caller's order
    walks = []

    def spy(base, factor, ctx, signed=True):
        walks.append((base, factor))
        return _plan_walk(base, factor, ctx, signed)

    monkeypatch.setattr(coefficients, "_plan_walk", spy)
    ctx = FusionContext(3, 200)
    row = fusion_expand((2, 1), (200,), ctx)
    assert walks == [((200,), (2, 1))]
    # of Pieri's four shapes (202, 1), (201, 2), (201, 1, 1) and (200, 2, 1), level 200 keeps one
    assert row == {(200, 2, 1): 1}
    walks.clear()
    assert fusion_expand((200,), (2, 1), ctx) == row
    assert fusion_expand((2, 1), (2,), ctx) == fusion_expand((2,), (2, 1), ctx)
    assert walks == [((200,), (2, 1)), ((2, 1), (2,)), ((2,), (2, 1))]


def test_plan_sigmas_values():
    assert list(_plan_sigmas((2, 1), 3)) == [((1, 2), (2, 1)), ((2, 1), (0, 3))]
    assert list(_plan_sigmas((2, 1), 2)) == [((1, 2), (2, 1))]
    assert list(_plan_sigmas((2,), 2)) == [((1, 2), (1, 1)), ((2, 1), (0, 2))]
    assert list(_plan_sigmas((), 0)) == [((), ())]
    # column 0 of mu = (1, 1) has two boxes, so no row takes it at cap 1
    assert _fusion_plan((1, 1), 1) == ({},)
    assert list(_plan_sigmas((1, 1), 1)) == []


def test_plan_is_keyed_by_the_clamped_cap():
    # below len(mu) column 0 never fits and above len(mu) + mu_1 - 1 the cap bounds
    # no size, so for |mu| <= 7 every cap from 0 to len(mu) + mu_1 + 2 has its clamp's plan
    for mu in partitions_up_to(7):
        for cap in range(len(mu) + (mu[0] if mu else 0) + 3):
            assert _clamped_plan(mu, cap) == _fusion_plan(mu, cap), (mu, cap)
    # the classical sweep at size 7 asks 308 (mu, cap) keys, which share 168 plans
    _fusion_plan.cache_clear()
    verify.classical_involution_checks(7)
    assert _fusion_plan.cache_info().currsize <= 168


def _sigma_dot(sigma, mu_conj):
    # entry i is (rho + mu')_{sigma^-1(i)} - rho_i, with rho = (m-1, ..., 1, 0)
    inverse = [sigma.index(value) for value in range(1, len(sigma) + 1)]
    return tuple(mu_conj[j] + i - j for i, j in enumerate(inverse))


def test_plan_sigmas_are_the_filtered_permutations():
    # every mu' of at most six columns, each column at most three boxes, at
    # caps below, at and above its tallest column: the walk lists exactly the
    # permutations whose composition lies in 0..cap, by sigma^-1 in order;
    # there are none exactly when mu has more than cap rows
    for total in range(19):
        for mu_conj in partitions_of(total, (3,) * 6):
            every = sorted(
                permutations(range(1, len(mu_conj) + 1)),
                key=lambda sigma: [sigma.index(i) for i in range(1, len(sigma) + 1)],
            )
            for cap in (0, 1, 2, 3, total):
                terms = ((sigma, _sigma_dot(sigma, mu_conj)) for sigma in every)
                expected = [term for term in terms if all(0 <= c <= cap for c in term[1])]
                assert list(_plan_sigmas(conjugate(mu_conj), cap)) == expected, (mu_conj, cap)
                assert (not expected) == (cap < max(mu_conj, default=0)), (mu_conj, cap)


def test_unsigned_walk_tallies_the_chains():
    # the unsigned walk of the plan counts, by endpoint, the restricted strip
    # chains of every term: the strip_chains tallies summed over every
    # permutation; first from an empty successor memo, then again with every
    # input in it
    cases = []
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            ctx = FusionContext(n, k)
            shapes = [p for size in range(6) for p in restricted_partitions_of(size, ctx)]
            for base, mu in product(shapes[:7], shapes):
                tally = {}
                for sigma in permutations(range(1, (mu[0] if mu else 0) + 1)):
                    comp = _sigma_dot(sigma, conjugate(mu))
                    for nu in restricted_supersets(base, sum(mu), ctx):
                        if count := sum(1 for _ in strip_chains(base, nu, comp, ctx)):
                            tally[nu] = tally.get(nu, 0) + count
                cases.append((base, mu, ctx, tally))
    _strip_successors.cache_clear()
    for warm in (False, True):
        misses = _strip_successors.cache_info().misses
        for base, mu, ctx, tally in cases:
            assert _plan_walk(base, mu, ctx, signed=False) == tally, (base, mu, ctx, warm)
        assert (_strip_successors.cache_info().misses == misses) == warm


def test_pair_test_equals_the_bracket_word():
    # the entrywise test on ascending labels is the bracket criterion: no
    # unpaired ')' in the word of two strips; on every adjacent strip pair of
    # every chain with |nu| <= 6, up to four strips, empty ones included
    pairs = passed = 0
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            rest = sum(nu) - sum(la)
            for m in range(2, 5):
                for sizes in product(range(rest + 1), repeat=m):
                    if sum(sizes) != rest:
                        continue
                    for chain in strip_chains(la, nu, sizes):
                        for first, second in zip(chain, chain[1:]):
                            labels = [[col - row for row, col in s] for s in (first, second)]
                            balanced = word_type(word_of(*labels))[1] == 0
                            assert coefficients._pair_balanced(first, second) == balanced
                            pairs += 1
                            passed += balanced
    assert (pairs, passed) == (17494, 8750)
    # adjacent strips never share a label at the same rank; other strips may,
    # and the first strip's copy comes first in the word, so the two pair
    assert word_of([0], [0]).brackets == "()"
    assert coefficients._pair_balanced(((1, 1),), ((2, 2),))


def test_fusion_at_su3_level_two():
    # adjoint times adjoint: one singlet-class and one adjoint-class term
    table = fusion_expand((2, 1), (2, 1), CTX32)
    assert table == {(3, 2, 1): 1, (2, 2, 2): 1}
    for nu, value in table.items():
        assert fusion_rule((2, 1), (2, 1), nu, CTX32) == value
        assert fusion_tableaux((2, 1), (2, 1), nu, CTX32) == value


def test_fusion_handles_unrestricted_target():
    assert fusion_oracle((2, 1), (2, 1), (4, 2), CTX32) == 0
    # both fast routes pass through one guard before their cores
    for route in (fusion_rule, fusion_tableaux):
        assert route((2, 1), (2, 1), (4, 2), CTX32) == 0  # nu unrestricted
        assert route((1,), (1, 1), (2, 1), FusionContext(3, 1)) == 0  # nu spans 2 > k
        assert route((1,), (1, 1, 1, 1), (2, 1, 1, 1), CTX32) == 0  # mu has more than n rows
        assert route((1,), (1, 1), (2, 2), CTX32) == 0  # weight mismatch
        assert route((1,), (1, 1), (2, 1), CTX32) == 1  # a vertical strip
        assert route((1,), (1, 1), (3,), FusionContext(3, 3)) == 0  # not a vertical strip


def test_fusion_rejects_wide_shapes():
    for route in (fusion_rule, fusion_tableaux):
        with pytest.raises(UnsupportedShape):
            route((1,), (3, 2, 1), (3, 2, 1, 1), FusionContext(4, 3))
        with pytest.raises(UnsupportedShape):  # before the restriction and weight tests
            route((1,), (3,), (5,), FusionContext(2, 1))


def test_fusion_oracle_values():
    ctx = FusionContext(2, 1)
    assert fusion_oracle((1,), (1,), (2,), ctx) == 0
    assert fusion_oracle((1,), (1,), (1, 1), ctx) == 1
    assert fusion_oracle((1,), (1, 1), (2, 1), CTX32) == 1


def test_full_height_shape_counts_every_path():
    # mu with n rows: no level correction is ever needed
    ctx = FusionContext(2, 2)
    for la in [(0,), (1,), (2, 1)]:
        for nu in restricted_supersets(la, 3, ctx):
            assert fusion_rule(la, (2, 1), nu, ctx) == fusion_oracle(la, (2, 1), nu, ctx)


def test_gepner_witten_formula():
    # row differences 1 + 1 + 2 = 4 must not exceed twice the level
    assert gepner_witten((1,), (1,), (2,), 2) == 1
    assert gepner_witten((1,), (1,), (2,), 1) == 0
    with pytest.raises(ValueError):
        gepner_witten((1, 1, 1), (1,), (2, 1, 1), 4)


def test_gepner_witten_equals_oracle_on_two_rows():
    for k in (1, 2, 3):
        ctx = FusionContext(2, k)
        for nu_size in range(7):
            for nu in restricted_partitions_of(nu_size, ctx):
                for la in subpartitions(nu):
                    if not is_restricted(la, ctx):
                        continue
                    for mu in restricted_partitions_of(nu_size - sum(la), ctx):
                        assert gepner_witten(la, mu, nu, k) == fusion_oracle(
                            la, mu, nu, ctx
                        ), (la, mu, nu, k)


def test_fusion_expand_equals_oracle():
    # mu up to six boxes, so up to six columns; the reference is the paper's
    # definition, the signs of the individual terms added per nu, which
    # lists every composition's paths where the row merges sigma-prefixes
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            ctx = FusionContext(n, k)
            for mu_size in range(7):
                for mu in restricted_partitions_of(mu_size, ctx):
                    for la_size in range(5):
                        for la in restricted_partitions_of(la_size, ctx):
                            terms = {
                                nu: value
                                for nu in restricted_supersets(la, mu_size, ctx)
                                if (value := sum(t.sign for t in omega_terms(la, mu, nu, ctx)))
                            }
                            assert fusion_expand(la, mu, ctx) == terms, (la, mu, ctx)


def test_omega_terms_of_the_empty_shape():
    # s_la s_() = s_la: one identity term with the empty path, at nu = la only
    for ctx in (None, CTX32):
        (term,) = omega_terms((2, 1), (), (2, 1, 0), ctx)
        assert term.sigma == () and term.sign == 1
        assert term.path.base == term.path.target == (2, 1) and term.path.steps == ()
        assert list(omega_terms((2, 1), (), (3, 1), ctx)) == []
    # at level 1, (2, 1) is not restricted, so not even the identity term is left
    assert list(omega_terms((2, 1), (), (2, 1), FusionContext(3, 1))) == []


def test_fusion_expand_single_wide_row():
    # nine columns: only 55 of the 9! compositions fit in two rows
    assert fusion_expand((3, 1), (9,), FusionContext(2, 11)) == {
        (10, 3): 1,
        (11, 2): 1,
        (12, 1): 1,
    }


def test_fusion_expand_at_many_rows():
    # a strip walk recurses per row it may touch, not per row of n
    assert fusion_expand((1,), (1,), FusionContext(1200, 1)) == {(1, 1): 1}


def test_duality_spot_checks():
    def invariant(la, mu, nu, ctx):
        dual = [rank_level_dual(p, ctx) for p in (la, mu, nu)]
        return fusion_oracle(la, mu, nu, ctx) == fusion_oracle(*dual, ctx.dual())

    assert invariant((2, 1), (2, 1), (3, 2, 1), CTX32)
    assert invariant((2, 1), (2, 1), (2, 2, 2), CTX32)
    # large level: plain conjugation symmetry of the classical numbers
    big = FusionContext(3, 8)
    assert invariant((2, 1), (2, 1), (3, 2, 1), big)


def test_restricted_standard_counts():
    assert count_paths((), (1,), CTX32) == 1
    assert count_paths((), (2, 1), CTX32) == 2
    assert count_paths((), (2, 1), FusionContext(4, 3)) == 2
    assert count_paths((), (2, 1), FusionContext(2, 1)) == 1
    assert count_paths((), (), CTX32) == 1


def test_standard_count_matches_restricted_at_big_level():
    big = FusionContext(6, 12)
    for la in partitions_up_to(6, (6,) * 5):
        assert count_paths((), la, big) == count_paths((), la)


def test_count_restricted_paths():
    ctx = FusionContext(2, 1)
    assert count_paths((1,), (2, 1), ctx) == 1
    assert count_paths((2, 1), (2, 1), ctx) == 1
    assert count_paths((1,), (2, 1), FusionContext(3, 3)) == 2
    # endpoints must be restricted
    assert count_paths((1,), (3, 1), FusionContext(2, 1)) == 0


def test_standard_counts_follow_the_hook_length_formula():
    # f^la = |la|! / (product of the hook lengths), which walks no shape
    for la in partitions_up_to(10):
        conj = conjugate(la)
        hooks = prod(part - j + conj[j] - i - 1 for i, part in enumerate(la) for j in range(part))
        assert count_paths((), la) == factorial(sum(la)) // hooks, la


def test_count_paths_through_a_thousand_rows():
    # one box per step over a thousand rows: nothing recurses per row or per box
    assert count_paths((), (1,) * 1000) == 1
    assert count_paths((1,) * 10, (1,) * 1000, FusionContext(1000, 1)) == 1


def test_single_box_paths_match_count_paths():
    # with one-box blocks every intermediate shape is a block boundary, so
    # the strip-chain enumerator and the one-box frontier of count_paths
    # count the same chains (both read vertical_strips, which test_paths
    # checks against a brute force)
    for ctx in (None, FusionContext(2, 1), CTX32, FusionContext(4, 3)):
        for nu in partitions_up_to(7):
            for la in subpartitions(nu):
                ones = (1,) * (sum(nu) - sum(la))
                paths = enumerate_paths(la, nu, ones, ctx)
                assert len(paths) == count_paths(la, nu, ctx), (la, nu, ctx)


def test_restricted_path_identity_spots():
    assert verify_restricted_path_identity((1,), (2, 1), FusionContext(2, 1))
    assert verify_restricted_path_identity((1,), (1,), CTX32)
    assert verify_restricted_path_identity((2, 1), (3, 2, 1), CTX32)


def test_classical_path_identity_at_big_level():
    # with the level out of reach the identity reduces to its classical
    # form: all chains against classical coefficients and tableau counts
    big = FusionContext(4, 20)
    for la in [(0,), (1,), (2, 1)]:
        for extra in range(0, 4):
            for nu in restricted_supersets(la, extra, big):
                if len(nu) > 4:
                    continue
                lhs = count_paths(la, nu)
                rhs = sum(
                    lr_paths(la, mu, nu) * count_paths((), mu)
                    for mu in partitions_of(extra)
                )
                assert lhs == rhs == count_paths(la, nu, big)


def test_oracle_never_negative_small_sweep():
    for n in (2, 3):
        for k in (1, 2):
            ctx = FusionContext(n, k)
            for mus in range(1, 4):
                for mu in restricted_partitions_of(mus, ctx):
                    for las in range(0, 3):
                        for la in restricted_partitions_of(las, ctx):
                            for nu in restricted_supersets(la, mus, ctx):
                                assert fusion_oracle(la, mu, nu, ctx) >= 0

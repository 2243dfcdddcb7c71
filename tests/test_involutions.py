from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from fusionkit import involutions

from fusionkit.coefficients import (
    _pair_balanced,
    _plan_sigmas,
    _rule_paths,
    fusion_oracle,
    lr_paths,
    omega_terms,
)
from fusionkit.involutions import (
    SignedTerm,
    _d2_move,
    _pair_move,
    _psi,
    _psi_move,
    _read,
    _splice,
    canonical_violation,
    in_D1,
    in_D2,
    phi,
    phi1,
    phi2,
    psi,
)
from fusionkit.partitions import (
    FusionContext,
    conjugate,
    is_edge,
    is_restricted,
    normalize,
    partitions_of,
    partitions_up_to,
    restricted_partitions_of,
    restricted_supersets,
    subpartitions,
)
from fusionkit.paths import (
    LatticePath,
    PathTableau,
    _trusted_path,
    _walk,
    add_box,
    boundary_shapes,
    enumerate_paths,
    path_from_label_blocks,
    path_to_tableau,
    strip_chains,
    vertical_strips,
)
from fusionkit.verify import classical_involution_checks
from fusionkit.words import (
    _from_letters,
    fits,
    flip_positions,
    lower_f,
    pair_word,
    raise_e,
    word_type,
)

CTX32 = FusionContext(3, 2)
CTX43 = FusionContext(4, 3)


def aiv_a_path():
    # two-block path with word )))((), the Phi-through-psi case at n=6, k=2
    return path_from_label_blocks((2, 1, 1), [(0, -1), (2, -3, -4, -5)])


def example4_path():
    # word )())) with the kept letter in the middle of the last column
    return path_from_label_blocks((3, 3, 2), [(0,), (3, 2, 1, -3)])


def example5_path():
    # word ))), kept letter is the largest label
    return path_from_label_blocks((2, 1), [(), (2, 0, -2)])


# ---------------------------------------------------------------------------
# canonical violation


def test_canonical_violation_none_for_fitting():
    p = path_from_label_blocks((1,), [(-1,), (1,)])
    assert canonical_violation(path_to_tableau(p), (2,)) is None


def test_canonical_violation_two_columns():
    assert canonical_violation(path_to_tableau(aiv_a_path()), (2, 2, 2)) == 1


def test_canonical_violation_later_pair():
    # three single-box blocks whose only clash is between columns 2 and 3
    p = path_from_label_blocks((), [(0,), (1,), (-1,)])
    assert canonical_violation(path_to_tableau(p), (3,)) == 2


def test_equal_entries_in_a_row_are_no_violation():
    # rows of a column-strict tableau weakly increase: the word of (0) and (0)
    # is "()", which pairs; two adjacent strips of a path never meet this tie
    assert canonical_violation(PathTableau(((0,), (0,))), (2,)) is None
    assert canonical_violation(PathTableau(((1,), (0,))), (2,)) == 1


def test_a_longer_right_column_is_a_violation():
    # column r + 1 outlasting column r breaks column-strictness even when the rows
    # the two columns share are in order; the sweeps never meet this case, since
    # psi's blocks would then differ by exactly one box
    assert canonical_violation(PathTableau(((0,), (1, 0))), (2, 1)) == 1


def test_canonical_violation_column_count_mismatch():
    p = path_from_label_blocks((1,), [(-1,), (1,)])
    with pytest.raises(ValueError):
        canonical_violation(path_to_tableau(p), (1, 1))


def test_scan_agrees_with_bracket_criterion():
    # pins the tableau reading convention: the row-wise scan finds no
    # violation exactly when the pairing criterion accepts the path
    for nu in partitions_up_to(8):
        for la in subpartitions(nu):
            rest = sum(nu) - sum(la)
            if rest == 0:
                continue
            for mu in partitions_of(rest):
                for p in enumerate_paths(la, nu, conjugate(mu)):
                    scan = canonical_violation(path_to_tableau(p), mu) is None
                    assert scan == fits(p, mu), (la, mu, nu, p.steps)


# ---------------------------------------------------------------------------
# the classical involution


def test_psi_fixes_fitting_terms():
    p = path_from_label_blocks((1,), [(-1,), (1,)])
    term = SignedTerm((1, 2), p)
    assert psi(term, (2,)) == term


def _assert_rebuilt_from_scratch(path, term_path):
    # psi and phi re-cut only the blocks they move; a path built afresh from
    # all of the image's block labels, and its shapes walked box by box, agree,
    # and the image covers the term's boxes
    assert path == path_from_label_blocks(path.base, path_to_tableau(path).columns)
    assert sorted(path.steps) == sorted(term_path.steps)
    shapes, shape, pos = [path.base], path.base, 0
    for a in path.ascents:
        for box in path.steps[pos : pos + a]:
            shape = add_box(shape, box)
        pos += a
        shapes.append(shape)
    assert boundary_shapes(path) == tuple(shapes)
    assert all(normalize(s) == s for s in shapes)


def test_psi_involution_small():
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            rest = sum(nu) - sum(la)
            if rest == 0:
                continue
            for mu in partitions_of(rest):
                signed = 0
                fixed = 0
                for term in omega_terms(la, mu, nu):
                    signed += term.sign
                    image = psi(term, mu)
                    _assert_rebuilt_from_scratch(image.path, term.path)
                    assert psi(image, mu) == term
                    if image == term:
                        fixed += 1
                    else:
                        assert image.sign == -term.sign
                assert signed == fixed == lr_paths(la, mu, nu)


def test_psi_swaps_r_and_r_plus_one_and_each_sign_counts_inversions():
    # psi_reverses_sign compares signs that SignedTerm derives from sigma; this
    # keeps that check a witness: psi moves sigma by the swap of the violated
    # pair (r, r + 1), and every sign is the inversion parity counted here
    def parity(sigma):
        return -1 if sum(a > b for a, b in combinations(sigma, 2)) % 2 else 1

    moved = 0
    for nu in partitions_up_to(5):
        for la in subpartitions(nu):
            for mu in partitions_of(sum(nu) - sum(la)):
                for term in omega_terms(la, mu, nu):
                    assert term.sign == parity(term.sigma), term
                    image = psi(term, mu)
                    r = canonical_violation(path_to_tableau(term.path), mu)
                    if r is None:
                        assert image == term
                        continue
                    swap = {r: r + 1, r + 1: r}
                    assert image.sigma == tuple(swap.get(v, v) for v in term.sigma), term
                    assert image.sign == parity(image.sigma) == -term.sign, term
                    moved += 1
    assert moved > 400


def test_psi_rejects_balanced_gap():
    # in a genuine signed term no block is exactly one box longer than the one
    # before it; psi rejects such a term where it enters, so its move, which
    # trusts its input, has no guard against it
    bad = SignedTerm((1, 2), path_from_label_blocks((), [(0,), (1, -1)]))
    with pytest.raises(ValueError, match="not sigma . mu'"):
        psi(bad, (2, 1))


def test_a_bad_recut_is_an_internal_fault():
    # word )(): flipping the paired label-1 letter puts labels 0 and 1 in the
    # first block, which no strip from the empty shape holds
    path = path_from_label_blocks((), [(0,), (1, -1)])
    w, boxes = _read(path)
    assert w.brackets == ")()"
    with pytest.raises(RuntimeError, match="not a strip chain"):
        _splice(path, flip_positions(w, [2]), boxes)


def _block_pair(path, r):
    # blocks r and r + 1 of a path as a two-block path of their own, from the
    # shape the blocks before them reach; built through the validating
    # LatticePath and walked box by box, not by psi's trusted cut
    lo = sum(path.ascents[: r - 1])
    hi = lo + path.ascents[r - 1] + path.ascents[r]
    start = _walk(path.base, path.steps[:lo])
    return LatticePath(start, path.steps[lo:hi], path.ascents[r - 1 : r + 1])


def _psi_by_pair(term, r):
    # psi's move of the violated pair r, with no memo: cut the pair out, read,
    # flip and re-cut it, and put it back between the untouched blocks
    path = term.path
    pair = _block_pair(path, r)
    _, image, boxes = _psi_move(pair)
    moved, _ = _splice(pair, image, boxes)
    lo = sum(path.ascents[: r - 1])
    steps = path.steps[:lo] + moved.steps + path.steps[lo + len(moved.steps) :]
    ascents = path.ascents[: r - 1] + moved.ascents + path.ascents[r + 1 :]
    swap = {r: r + 1, r + 1: r}
    sigma = tuple(swap.get(v, v) for v in term.sigma)
    return SignedTerm(sigma, LatticePath(path.base, steps, ascents))


def test_psi_memo_equals_the_uncached_move():
    # psi looks each block pair's move up by (start shape, pair steps, first
    # block size); the reference cuts the pair out afresh and moves it
    moved = 0
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            for mu in partitions_of(sum(nu) - sum(la)):
                for term in omega_terms(la, mu, nu):
                    r = canonical_violation(path_to_tableau(term.path), mu)
                    if r is None:
                        continue
                    assert _psi(term, mu) == _psi_by_pair(term, r), term
                    moved += 1
    assert moved == 2442


@st.composite
def classical_terms(draw):
    """(term, mu): one signed term of omega_terms(la, mu, nu), for the nu it
    reaches.  la has at most 4 rows and parts up to 6, mu up to 5 rows and 5
    columns; sigma comes from the plan at a drawn number of rows, then one
    vertical strip per block of sigma . mu', each drawn from its options."""
    la = tuple(sorted(draw(st.lists(st.integers(1, 6), max_size=4)), reverse=True))
    mu = tuple(sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)), reverse=True))
    rows = draw(st.integers(max(len(la), len(mu)), len(la) + len(mu)))
    sigma, comp = draw(st.sampled_from(list(_plan_sigmas(mu, rows))))
    # a block adds at most one box to the first row, so this bound is never met
    within = ((la[0] if la else 0) + len(comp),) * rows
    shape, steps = la + (0,) * (rows - len(la)), ()
    for size in comp:
        shape, boxes = draw(st.sampled_from(list(vertical_strips(shape, size, within))))
        steps += boxes
    return SignedTerm(sigma, LatticePath(la, steps, comp)), mu


def _sigma_dot(sigma, mu):
    # the composition sigma . mu', whose entry sigma_j is mu'_j - j + sigma_j
    composition = [0] * len(sigma)
    for j, (value, column) in enumerate(zip(sigma, conjugate(mu)), start=1):
        composition[value - 1] = column - j + value
    return tuple(composition)


@settings(max_examples=300, deadline=None)
@given(classical_terms())
def test_psi_laws_on_one_random_term(drawn):
    # the involution laws per term, with no table of terms, past the sweep's
    # |nu| <= 8; a moved term also equals the reference move of its pair, and
    # fresh block pairs miss the pair memo, so its misses are exercised too
    term, mu = drawn
    path, image = term.path, psi(term, mu)
    assert psi(image, mu) == term
    assert (image.path.base, image.path.target) == (path.base, path.target)
    assert image.path.ascents == _sigma_dot(image.sigma, mu)
    r = canonical_violation(path_to_tableau(path), mu)
    if r is None:
        assert image == term
        assert term.sigma == tuple(range(1, mu[0] + 1)) and fits(path, mu)
    else:
        assert image.sign == -term.sign
        assert image == _psi_by_pair(term, r)
        _assert_rebuilt_from_scratch(image.path, path)


@st.composite
def level_terms(draw):
    """(term, ctx, mu): one signed term of omega_terms(la, mu, nu, ctx), for the
    nu it reaches, at n <= 10 and 2 <= k <= 5.  mu has two columns and fewer
    than n rows; la has n parts in 0..k, each raised by the same 0..2, so it
    is restricted; sigma comes from the plan, then one vertical strip per
    block, drawn among the choices whose shape is restricted; a block with
    no such choice rejects the draw."""
    n, k = draw(st.integers(2, 10)), draw(st.integers(2, 5))
    ctx = FusionContext(n, k)
    twos = draw(st.integers(1, n - 1))
    mu = (2,) * twos + (1,) * draw(st.integers(0, n - 1 - twos))
    parts = sorted(draw(st.lists(st.integers(0, k), min_size=n, max_size=n)), reverse=True)
    low = draw(st.integers(0, 2))
    la = normalize(tuple(part + low for part in parts))
    sigma, comp = draw(st.sampled_from(list(_plan_sigmas(mu, n))))
    # a block adds at most one box to the first row, so this bound is never met
    shape, steps, within = la + (0,) * (n - len(la)), (), ((la[0] if la else 0) + 2,) * n
    for size in comp:
        options = [o for o in vertical_strips(shape, size, within) if is_restricted(o[0], ctx)]
        assume(options)
        shape, boxes = draw(st.sampled_from(options))
        steps += boxes
    return SignedTerm(sigma, LatticePath(la, steps, comp)), ctx, mu


@settings(max_examples=400, deadline=None)
@given(level_terms())
def test_phi_laws_on_one_random_term(drawn):
    # the level-k laws per term, with no table of terms, past the level sweeps'
    # n <= 5, k <= 4, |nu| <= 10: phi squares to the identity, flips the sign of
    # a moved term and keeps it a term; a fixed term is a fitting identity term
    # outside D2; and phi1 and phi2 trade D1 and D2
    term, ctx, mu = drawn
    path, image = term.path, phi(term, ctx, mu)
    assert phi(image, ctx, mu) == term
    assert (image.path.base, image.path.target) == (path.base, path.target)
    assert image.path.ascents == _sigma_dot(image.sigma, mu)
    assert all(is_restricted(shape, ctx) for shape in boundary_shapes(image.path))
    if image == term:
        assert term.sigma == (1, 2) and fits(path, mu) and not in_D2(path, ctx)
    else:
        assert image.sign == -term.sign
        _assert_rebuilt_from_scratch(image.path, path)
    if in_D1(path, ctx):
        event("D1")
        assert image.path == phi1(path, ctx) and in_D2(image.path, ctx)
        assert phi2(image.path, ctx) == path
    elif path.ascents[0] >= path.ascents[1] and in_D2(path, ctx):
        event("D2")
        assert image.path == phi2(path, ctx) and in_D1(image.path, ctx)
        assert phi1(image.path, ctx) == path


def test_psi_memo_is_keyed_by_the_block_pair_alone():
    # at total size 7 the sweep moves 11,726 terms through 446 distinct
    # (start shape, pair steps, first block size) keys; a key that held the
    # whole path would miss far more often
    _pair_move.cache_clear()
    classical_involution_checks(7)
    info = _pair_move.cache_info()
    assert (info.misses, info.hits + info.misses) == (446, 11726)


def test_psi_traces_every_move_memo_hit_or_miss(monkeypatch, capsys):
    monkeypatch.setattr(involutions, "_TRACE", True)
    term = next(t for t in omega_terms((), (2,), (1, 1)) if _psi(t, (2,)) != t)
    capsys.readouterr()
    _psi(term, (2,))
    _psi(term, (2,))  # a memo hit
    err = capsys.readouterr().err
    assert err.count("psi pair (1,2)") == 2
    assert err.count("psi moved") == 2


def test_one_flip_equals_the_operators_iterated():
    # psi flips the |d| outermost unpaired letters at once; the paper's
    # operators flip one and re-pair, |d| times, and reach the same word, or
    # fail the same way when too few letters are unpaired; on every adjacent
    # block pair of every term, not only psi's canonical one
    moves = failures = 0
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            for mu in partitions_of(sum(nu) - sum(la)):
                for term in omega_terms(la, mu, nu):
                    path = term.path
                    for r in range(1, len(path.ascents)):
                        d = path.ascents[r] - path.ascents[r - 1] - 1
                        if d == 0:
                            continue
                        pair = _block_pair(path, r)
                        w, _ = _read(pair)
                        expected = w
                        try:
                            for _ in range(abs(d)):
                                expected = raise_e(expected) if d > 0 else lower_f(expected)
                        except ValueError as exc:
                            with pytest.raises(ValueError, match=str(exc)):
                                _psi_move(pair)
                            failures += 1
                            continue
                        image = _psi_move(pair)[1]
                        assert image == expected and image.partner == expected.partner, path
                        moves += 1
    assert (moves, failures) == (4334, 4110)


def test_read_merges_the_pair_word_with_its_boxes():
    # every adjacent block pair of every path with |nu| <= 6
    pairs = 0
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            for mu in partitions_of(sum(nu) - sum(la)):
                for path in enumerate_paths(la, nu, conjugate(mu)):
                    lo = 0
                    for r in range(1, len(path.ascents)):
                        w, boxes = _read(_block_pair(path, r))
                        reference = pair_word(path, r)
                        assert (w.letters, w.partner) == (reference.letters, reference.partner)
                        assert [col - row for row, col in boxes] == [lab for lab, _ in w.letters]
                        hi = lo + path.ascents[r - 1] + path.ascents[r]
                        assert sorted(boxes) == sorted(path.steps[lo:hi])
                        lo += path.ascents[r - 1]
                        pairs += 1
    assert pairs == 2159


@pytest.mark.parametrize(
    "steps, ascents",
    [
        (((1, 1), (2, 2)), (2, 0)),  # labels 0, 0 in the first block
        (((1, 1), (1, 2)), (2, 0)),  # labels 0, 1 increase
        (((1, 1), (1, 2), (2, 3)), (1, 2)),  # labels 1, 1 in the second block
        (((2, 1), (1, 1), (1, 2), (1, 3)), (2, 2)),  # both blocks increase
    ],
)
def test_read_rejects_a_block_that_does_not_strictly_decrease(steps, ascents):
    # a block of repeated or increasing labels is no vertical strip: reading
    # its word raises, as word_of does
    path = LatticePath((), steps, ascents)
    with pytest.raises(ValueError, match="not strictly decreasing"):
        _read(path)


def test_phi_splice_equals_a_full_rebuild():
    # also pins phi's dispatch: on D1 it is phi1, on a fitting D2 member phi2
    d1 = d2 = 0
    for n in range(2, 5):
        for k in range(1, 4):
            ctx = FusionContext(n, k)
            for nu in partitions_up_to(8, (8,) * n):
                if not is_restricted(nu, ctx):
                    continue
                for la in subpartitions(nu):
                    for mu in partitions_of(sum(nu) - sum(la), (2,) * sum(nu)):
                        if mu[:1] != (2,) or len(mu) == n or not is_restricted(la, ctx):
                            continue
                        for term in omega_terms(la, mu, nu, ctx):
                            image = phi(term, ctx, mu).path
                            _assert_rebuilt_from_scratch(image, term.path)
                            path = term.path
                            if in_D1(path, ctx):
                                d1 += 1
                                assert image == phi1(path, ctx)
                            elif path.ascents[0] >= path.ascents[1] and fits(path, mu):
                                if in_D2(path, ctx):
                                    d2 += 1
                                    assert image == phi2(path, ctx)
    assert d1 == d2 > 10  # phi1 and phi2 trade the two domains one for one


# ---------------------------------------------------------------------------
# the exceptional domains


def test_in_D1_examples():
    assert in_D1(example4_path(), CTX43)
    assert in_D1(example5_path(), CTX32)


def test_in_D1_needs_edge_target():
    # same path at a higher level: target no longer an edge diagram
    assert not in_D1(example5_path(), FusionContext(3, 3))


def test_in_D1_needs_unpaired_bot():
    assert not in_D1(aiv_a_path(), FusionContext(6, 2))


def test_phi1_bracket_strings():
    q4 = phi1(example4_path(), CTX43)
    assert pair_word(q4, 1).brackets == "(())("
    q5 = phi1(example5_path(), CTX32)
    assert pair_word(q5, 1).brackets == "(()"


def test_phi1_outside_domain():
    with pytest.raises(ValueError):
        phi1(aiv_a_path(), FusionContext(6, 2))


def test_phi2_inverts_phi1_on_examples():
    for path, ctx in [(example4_path(), CTX43), (example5_path(), CTX32)]:
        image = phi1(path, ctx)
        assert in_D2(image, ctx)
        assert phi2(image, ctx) == path


def test_prop11_word_mechanics():
    # the large two-block word: flip all unpaired rights but the marked
    # one, then all unpaired lefts plus the partner of the mark
    s = ")))()(())))(()()))" + "))"
    w = _from_letters(tuple((i, 1 if c == "(" else 2) for i, c in enumerate(s)))
    assert w.brackets == s
    kept = 17
    assert kept in w.unpaired()
    image = flip_positions(w, [i for i in w.unpaired() if i != kept])
    assert image.brackets == "(((()(())(((()())" + ")(("
    partner = image.partner[kept]
    back = flip_positions(
        image, [i for i in image.unpaired() if image.letters[i][1] == 1] + [partner]
    )
    assert back.brackets == s


def test_in_D2_move_reads_the_last_column_and_kept_letter():
    # phi1 of Example 4 lies in D2: the last column holds labels 1, 2, 3 bottom to
    # top, the kept letter 2 pairs with -3, and the bottom box's left neighbour is 0
    image = phi1(example4_path(), CTX43)
    w, _, kept, boxes = _d2_move(image, CTX43)
    column = [i for i, box in enumerate(boxes) if box[1] == image.target[0]]
    assert tuple(w.letters[i][0] for i in column) == (1, 2, 3)
    assert w.letters[kept][0] == 2
    assert w.letters[w.partner[kept]][0] == -3
    row, col = boxes[column[0]]
    assert w.letters[boxes.index((row, col - 1))][0] == 0


def test_in_D2_rejects_non_edge():
    p = path_from_label_blocks((1,), [(-1,), (1,)])
    assert p.target == (2, 1)
    assert fits(p, (2,)) and not in_D2(p, FusionContext(3, 3))


def test_in_D2_needs_second_block_in_last_column():
    p = path_from_label_blocks((2, 1), [(2, -2), (0,)])
    assert fits(p, conjugate(p.ascents))
    assert not in_D2(p, CTX32)


def _d2_reference(path, ctx):
    # the four D2 conditions, each evaluated in full from the pair word with no early
    # exit: whether the step and target tests pass, and for a member the phi2 image
    w, boxes = _read(path)
    nu, rows = path.target, [row for row, _ in path.steps]
    column_strict = word_type(w)[1] == 0
    structure = (
        is_edge(nu, ctx)
        and rows.count(1) == 1
        and rows.count(ctx.n) == 1
        and ctx.n in rows[: path.ascents[0]]
    )
    column = [i for i, box in enumerate(boxes) if box[1] == nu[0]]
    second = [i for i in column if w.letters[i][1] == 2]
    kept = second[-1] if second else None
    last_column = kept is not None
    if last_column:
        row, col = boxes[column[0]]
        if (row, col - 1) in boxes:
            last_column = w.partner[kept] != boxes.index((row, col - 1))
    top = (w.letters[0][1] == 1 and w.partner[0] is None) or (
        kept is not None and w.partner[0] == kept
    )
    if not (column_strict and structure and last_column and top):
        return structure, None
    flips = [i for i in w.unpaired() if w.letters[i][1] == 1] + [w.partner[kept]]
    return structure, _splice(path, flip_positions(w, flips), boxes)[0]


def test_in_D2_equals_the_four_conditions_evaluated_in_full(monkeypatch):
    # every two-block path with a >= b > 0 to a restricted nu at n <= 4, k <= 3,
    # |nu| <= 8, the restricted ones among them; the word is read exactly for the
    # paths that pass the step and target tests
    reads = []
    monkeypatch.setattr(involutions, "_read", lambda path: reads.append(path) or _read(path))
    checked, members = 0, 0
    for n in range(2, 5):
        for k in range(1, 4):
            ctx = FusionContext(n, k)
            for nu in partitions_up_to(8, (8,) * n):
                if not is_restricted(nu, ctx):
                    continue
                for la in subpartitions(nu):
                    rest = sum(nu) - sum(la)
                    for b in range(1, rest // 2 + 1):
                        for path in enumerate_paths(la, nu, (rest - b, b)):
                            structure, expected = _d2_reference(path, ctx)
                            reads.clear()
                            assert in_D2(path, ctx) == (expected is not None), path
                            assert reads == ([path] if structure else []), path
                            if expected is not None:
                                assert phi2(path, ctx) == expected
                                members += 1
                            checked += 1
    assert (checked, members) == (1218, 72)


def test_phi_uses_psi_off_the_exceptional_domain():
    term = SignedTerm((2, 1), aiv_a_path())
    ctx = FusionContext(6, 2)
    image = phi(term, ctx, (2, 2, 2))
    assert pair_word(image.path, 1).brackets == "))((()"
    assert image.sign == -term.sign
    assert phi(image, ctx, (2, 2, 2)) == term


def test_phi_checks_mu_on_every_branch():
    # the ascents must be mu' or, with the first block shorter, (mu'_2 - 1, mu'_1 + 1)
    d1 = SignedTerm((2, 1), example5_path())  # ascents (0, 3), mu = (2, 1)
    classical = SignedTerm((2, 1), aiv_a_path())  # ascents (2, 4), mu = (2, 2, 2)
    d2 = SignedTerm((1, 2), phi1(example5_path(), CTX32))  # ascents (2, 1), mu = (2, 1)
    cases = [(d1, CTX32, (2, 1)), (classical, FusionContext(6, 2), (2, 2, 2)), (d2, CTX32, (2, 1))]
    for term, ctx, mu in cases:
        assert phi(phi(term, ctx, mu), ctx, mu) == term
        for wrong in [(1, 1, 1), (3, 1), (2, 2), (2, 2, 1)]:
            with pytest.raises(ValueError):
                phi(term, ctx, wrong)


def test_malformed_terms_are_rejected_where_they_enter():
    # psi and phi check that a term's ascents are sigma . mu', and phi that every
    # block boundary is restricted, before any move: a malformed term is no fixed
    # point and reaches no internal guard.  The grid: every term of a two-column
    # mu of at most two rows, to a nu of at most three rows and 5 boxes, with a
    # boundary outside level 1 at n = 3; phi1 and phi2 reject these paths too
    fitting = SignedTerm((1, 2), path_from_label_blocks((1,), [(-1,), (1,)]))
    ctx = FusionContext(3, 3)
    assert psi(fitting, (2,)) == phi(fitting, ctx, (2,)) == fitting
    for involution in (lambda t: psi(t, (2,)), lambda t: phi(t, ctx, (2,))):
        with pytest.raises(ValueError, match="not sigma . mu'"):
            involution(fitting._replace(sigma=(2, 1)))
    ctx, unrestricted = FusionContext(3, 1), 0
    for nu in partitions_up_to(5, (5,) * 3):
        for la in subpartitions(nu):
            for mu in partitions_of(sum(nu) - sum(la), (2, 2)):
                for term in omega_terms(la, mu, nu) if mu[:1] == (2,) else ():
                    if all(is_restricted(shape, ctx) for shape in boundary_shapes(term.path)):
                        continue
                    with pytest.raises(ValueError, match="not restricted"):
                        phi(term, ctx, mu)
                    for move in (phi1, phi2):
                        with pytest.raises(ValueError):
                            move(term.path, ctx)
                    unrestricted += 1
    assert unrestricted == 52


def test_signed_term_sign_is_read_from_sigma_and_not_compared():
    path = aiv_a_path()
    term = SignedTerm((3, 1, 2), path)
    assert term.sign == 1 and SignedTerm((2, 1), path).sign == -1
    # the parity of sigma, whether sigma is a tuple or a list
    for sigma, parity in (((1, 2, 3), 1), ((2, 1, 3), -1), ((3, 1, 2), 1), ((3, 2, 1), -1)):
        assert SignedTerm(sigma, path).sign == SignedTerm(list(sigma), path).sign == parity
    twin = SignedTerm((3, 1, 2), path)
    assert term == twin and hash(term) == hash(twin)
    assert repr(term).startswith("SignedTerm(sigma=(3, 1, 2), path=") and "sign" not in repr(term)


def test_in_D2_rejects_an_empty_second_block():
    with pytest.raises(ValueError):
        in_D2(path_from_label_blocks((), [(0, -1), ()]), CTX32)


def test_no_balanced_path_of_an_n_row_two_column_mu_is_in_D2():
    # _rule_paths subtracts D2 for every two-column mu; its docstring proves that a
    # mu with n rows loses nothing, at the left-neighbour exit of _d2_move, which
    # the paths counted in `reach` get to: an edge nu, one row-1 and one row-n
    # step, and a block-2 box in the last column
    paths = reach = 0
    for n in range(2, 7):
        for k in range(1, 5):
            ctx = FusionContext(n, k)
            for a in range(1, n + 1):
                mu_conj = (n, a)  # mu = 2^a 1^(n - a)
                for size in range(6):
                    for la in restricted_partitions_of(size, ctx):
                        for nu in restricted_supersets(la, n + a, ctx):
                            for chain in strip_chains(la, nu, mu_conj, ctx, pair_ok=_pair_balanced):
                                path = _trusted_path(la, sum(chain, ()), mu_conj)
                                assert not in_D2(path, ctx), (la, mu_conj, nu, ctx)
                                rows = [row for row, _ in path.steps]
                                paths += 1
                                reach += (
                                    is_edge(nu, ctx) and rows.count(1) == rows.count(n) == 1
                                    and any(col == nu[0] for _, col in path.steps[n:])
                                )
    assert (paths, reach) == (1788, 70)


def test_phi_fixed_points_are_k_fusion():
    # phi fixes exactly the paths that the level-k rule counts
    mu = (2, 1)
    for nu in [(3, 2, 1), (2, 2, 2)]:
        counted = set(_rule_paths((2, 1), mu, nu, CTX32))
        for p in enumerate_paths((2, 1), nu, conjugate(mu), CTX32):
            term = SignedTerm((1, 2), p)
            fixed = phi(term, CTX32, mu) == term
            assert fixed == (p in counted)


def test_bot_letters_pair_when_both_blocks_touch_first_row():
    # whenever both blocks add a first-row box, neither of those letters
    # can be unpaired
    checked = 0
    for nu in partitions_up_to(7, (7,) * 4):
        for la in subpartitions(nu):
            rest = sum(nu) - sum(la)
            for a in range(1, rest):
                for p in enumerate_paths(la, nu, (a, rest - a)):
                    if not (
                        any(row == 1 for row, _ in p.steps[:a])
                        and any(row == 1 for row, _ in p.steps[a:])
                    ):
                        continue
                    w = pair_word(p, 1)
                    bots = [
                        i
                        for i, (lab, blk) in enumerate(w.letters)
                        if any(
                            b[0] == 1 and b[1] - b[0] == lab
                            for b in (p.steps[: a] if blk == 1 else p.steps[a:])
                        )
                    ]
                    checked += 1
                    for i in bots:
                        assert w.partner[i] is not None, (la, nu, p.steps)
    assert checked > 50


def test_exceptional_instance_at_rank_five():
    # a fitting path excluded at level 3: the fusion count drops below
    # the classical one
    ctx = FusionContext(5, 3)
    la, mu, nu = (3, 1, 1, 1), (2,), (4, 1, 1, 1, 1)
    assert lr_paths(la, mu, nu) == 1
    assert fusion_oracle(la, mu, nu, ctx) == 0
    (p,) = enumerate_paths(la, nu, conjugate(mu), ctx)
    assert fits(p, mu)
    assert in_D2(p, ctx)
    assert p not in _rule_paths(la, mu, nu, ctx)

from itertools import product

import pytest

from fusionkit.partitions import partitions_up_to, subpartitions
from fusionkit.paths import enumerate_paths, path_from_label_blocks, path_to_tableau
from fusionkit.words import (
    fits,
    lower_f,
    pair_word,
    raise_e,
    render,
    word_of,
    word_type,
)
from fusionkit.words import _from_letters

EX2_BLOCK1 = (3, 2, 0, -1, -2)
EX2_BLOCK2 = (4, 1, -1, -3)


def test_merged_word_brackets():
    w = word_of(EX2_BLOCK1, EX2_BLOCK2)
    assert w.brackets == ")(()()(()"
    assert [lab for lab, _ in w.letters] == [-3, -2, -1, -1, 0, 1, 2, 3, 4]


def test_single_block_words():
    assert word_of((0,), ()).brackets == "("
    assert word_of((), (2, 0, -2)).brackets == ")))"


def test_word_of_rejects_repeats():
    with pytest.raises(ValueError):
        word_of((2, 2), ())
    with pytest.raises(ValueError):
        word_of((1, 2), ())  # not decreasing
    with pytest.raises(ValueError):
        word_of((3,), (2, 2))


def test_word_of_puts_block_one_first_on_a_shared_label():
    assert word_of((1, 0), (1, -1)).letters == ((-1, 2), (0, 1), (1, 1), (1, 2))
    assert word_of((0,), (0,)).brackets == "()"


def _compositions(total):
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_word_of_equals_the_sorted_merge_on_every_path():
    # every adjacent block pair of every path with |nu| <= 6
    pairs = 0
    for nu in partitions_up_to(6):
        for la in subpartitions(nu):
            for ascents in _compositions(sum(nu) - sum(la)):
                for path in enumerate_paths(la, nu, ascents):
                    blocks = path_to_tableau(path).columns
                    for i in range(1, len(ascents)):
                        b1, b2 = blocks[i - 1], blocks[i]
                        expected = sorted([(lab, 1) for lab in b1] + [(lab, 2) for lab in b2])
                        assert word_of(b1, b2).letters == tuple(expected)
                        assert pair_word(path, i) == word_of(b1, b2)
                        pairs += 1
    assert pairs == 4250


def test_word_type():
    assert word_type(word_of(EX2_BLOCK1, EX2_BLOCK2)) == (2, 1)
    assert word_type(word_of((1,), (2,))) == (0, 0)
    assert word_type(word_of((), (2, 0, -2))) == (0, 3)


def test_raise_and_lower():
    w = word_of(EX2_BLOCK1, EX2_BLOCK2)
    assert raise_e(w).brackets == "((()()(()"
    assert lower_f(w).brackets == "))()()(()"
    assert lower_f(raise_e(w)).letters == w.letters


def test_operators_undefined():
    balanced = word_of((1,), (2,))
    with pytest.raises(ValueError):
        raise_e(balanced)
    all_left = word_of((1, 0), ())
    with pytest.raises(ValueError):
        raise_e(all_left)


def _all_words(length):
    for blocks in product((1, 2), repeat=length):
        yield _from_letters(tuple((i, b) for i, b in enumerate(blocks)))


def test_operators_inverse_on_all_words():
    # every two-block word of length <= 10, with labels the positions
    for length in range(1, 11):
        for w in _all_words(length):
            left, right = word_type(w)
            if right:
                up = raise_e(w)
                assert word_type(up) == (left + 1, right - 1)
                assert lower_f(up).letters == w.letters
                assert up.unpaired() == w.unpaired()
            if left:
                down = lower_f(w)
                assert word_type(down) == (left - 1, right + 1)
                assert raise_e(down).letters == w.letters
                assert down.unpaired() == w.unpaired()


def test_fits():
    p = path_from_label_blocks((1,), [(-1,), (1,)])
    assert fits(p, (2,))

    # any single-column shape fits trivially
    strip = path_from_label_blocks((), [(0, -1, -2)])
    assert fits(strip, (1, 1, 1))

    # an unpaired right parenthesis: word )(
    bad = path_from_label_blocks((), [(0,), (-1,)])
    assert word_type(pair_word(bad, 1)) == (1, 1)
    assert not fits(bad, (2,))


def test_fits_requires_matching_shape():
    p = path_from_label_blocks((1,), [(-1,), (1,)])
    with pytest.raises(ValueError):
        fits(p, (1, 1))


def test_render_with_marker():
    w = word_of((), (2, 0, -2))
    assert render(w) == ")))"
    assert render(w, mark=2) == "))[)]"


def test_pair_word_of_adjacent_blocks():
    p = path_from_label_blocks((1,), [(-1,), (1,)])
    assert pair_word(p, 1).brackets == "()"

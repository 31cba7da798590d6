"""Row insertion, the insertion/recording pair, its inverse, and the word search."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from orbital import (
    BoundExceeded,
    InconsistentIndexing,
    Permutation,
    SizeMismatch,
    find_word_for_tableau,
    rs_inverse,
    rs_pair,
    tau_invariant,
)
from conftest import NINE_BOX, SIX_BOX, all_syt, tab


def test_permutation_basics():
    w = Permutation((2, 4, 1, 6, 3, 5))
    assert w.n == 6
    assert w(1) == 2 and w(4) == 6
    assert str(w) == "[2 4 1 6 3 5]"
    assert w.inverse().images == (3, 1, 5, 2, 6, 4)
    assert w.inverse().inverse() == w


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


@pytest.mark.parametrize("images", [(1.5, 2), (1.0, 2.0), ("1", "2"), (True, 2)])
def test_permutation_rejects_non_integral_images(images):
    # each used to be read through int(): (1.5, 2) became [1 2]
    with pytest.raises(ValueError, match="not a permutation of 1..2"):
        Permutation(images)


def test_rs_pair_golden():
    a, b = rs_pair(Permutation((2, 4, 1, 6, 3, 5)))
    assert a.rows == ((1, 3, 5), (2, 4, 6))
    assert b.rows == SIX_BOX


def test_rs_pair_identity_and_reversal():
    ident = Permutation((1, 2, 3, 4))
    a, b = rs_pair(ident)
    assert a.rows == b.rows == ((1, 2, 3, 4),)
    a, b = rs_pair(Permutation((4, 3, 2, 1)))
    assert a.rows == ((1,), (2,), (3,), (4,))
    assert b.rows == ((1,), (2,), (3,), (4,))


def test_bijective_on_s4():
    seen = set()
    for images in permutations(range(1, 5)):
        a, b = rs_pair(Permutation(images))
        assert a.shape == b.shape
        seen.add((a.rows, b.rows))
    assert len(seen) == 24


@given(st.permutations(list(range(1, 8))))
def test_pair_is_standard_and_shapes_agree(images):
    a, b = rs_pair(Permutation(tuple(images)))
    assert a.shape == b.shape
    # validity: positions of k and k+1 never violate standardness
    for t in (a, b):
        for r, row in enumerate(t.rows):
            assert all(row[c] < row[c + 1] for c in range(len(row) - 1))
            if r:
                assert all(t.rows[r - 1][c] < row[c] for c in range(len(row)))


def test_find_word_golden():
    assert str(find_word_for_tableau(tab(*SIX_BOX))) == "[2 4 1 6 3 5]"
    assert str(find_word_for_tableau(tab((1, 3), (2, 4)))) == "[2 1 4 3]"


def test_find_word_round_trips_recording():
    for n in range(1, 6):
        for t in all_syt(n):
            w = find_word_for_tableau(t)
            assert rs_pair(w)[1] == t


def test_find_word_is_lex_minimal():
    # brute force over S_n confirms the DFS returns the smallest word
    for n in range(2, 6):
        for t in all_syt(n):
            best = min(
                images
                for images in permutations(range(1, n + 1))
                if rs_pair(Permutation(images))[1] == t
            )
            assert find_word_for_tableau(t).images == best


def test_find_word_bound():
    # the exhaustive search stops at eight boxes; rs_inverse has no cap
    t = tab(*NINE_BOX)
    with pytest.raises(BoundExceeded):
        find_word_for_tableau(t)
    assert rs_pair(rs_inverse(t, t)) == (t, t)


def test_find_word_rejects_unvalidated_tableau():
    # every standard tableau is a recording tableau; a row that decreases
    # is not, and the search runs dry instead of returning a word
    with pytest.raises(InconsistentIndexing, match="no word has recording tableau"):
        find_word_for_tableau(tab((2, 1)))


def test_rs_inverse_inverts_rs_pair():
    for n in range(1, 8):
        for images in permutations(range(1, n + 1)):
            w = Permutation(images)
            assert rs_inverse(*rs_pair(w)) == w


def test_rs_inverse_involution_has_both_tableaux():
    for n in range(1, 9):
        for t in all_syt(n):
            assert rs_pair(rs_inverse(t, t)) == (t, t)


def test_rs_inverse_golden():
    p, q = tab((1, 3, 5), (2, 4, 6)), tab(*SIX_BOX)
    assert str(rs_inverse(p, q)) == "[2 4 1 6 3 5]"


def test_rs_inverse_rejects_shape_mismatch():
    with pytest.raises(SizeMismatch):
        rs_inverse(tab((1, 2), (3,)), tab((1,), (2,), (3,)))
    with pytest.raises(SizeMismatch):
        rs_inverse(tab((1, 2)), tab((1, 2, 3)))


def test_recording_tableau_reads_off_descents():
    # alpha_i lies in tau of the recording tableau iff w(i) > w(i+1)
    for images in permutations(range(1, 6)):
        w = Permutation(images)
        _, b = rs_pair(w)
        expected = {i for i in range(1, 5) if w(i) > w(i + 1)}
        assert tau_invariant(b).indices == expected

"""Window restriction: the box removal and jeu de taquin moves, and project
and projected_shape, which read the window from the Robinson-Schensted
word rs_inverse(t, t) and are checked against the moves (slide_project)."""

import pytest
from hypothesis import given, strategies as st

from orbital import (
    BadRange,
    InconsistentIndexing,
    StandardTableau,
    TauSet,
    TooSmall,
    iter_descriptors,
    project,
    projected_shape,
    remove_largest,
    richardson_tableau,
    strip_first,
    strip_first_steps,
    tau_invariant,
    validate_syt,
)
from conftest import TWELVE_BOX, all_syt, slide_project, tab


def test_remove_largest_golden():
    assert remove_largest(tab((1, 2), (3, 4))).rows == ((1, 2), (3,))
    # removing the only box of the last row drops the row
    assert remove_largest(tab((1, 2), (3,))).rows == ((1, 2),)


def test_remove_largest_too_small():
    with pytest.raises(TooSmall):
        remove_largest(tab((1,)))


def test_remove_largest_checks_the_largest_box_ends_its_row():
    # StandardTableau does not validate; remove_largest still refuses
    with pytest.raises(InconsistentIndexing, match="largest label 3 sits in column 2"):
        remove_largest(StandardTableau(((1, 3, 2),)))


def test_strip_first_golden():
    assert strip_first(tab((1, 2), (3, 4), (5, 6))).rows == ((1, 3), (2, 5), (4,))


def test_strip_first_step_snapshots():
    # the hole starts at (1,1), swallows the smaller neighbour each move,
    # and pops at an outer corner
    final, steps = strip_first_steps(tab((1, 2), (3, 4), (5, 6)))
    assert steps == [
        ((None, 2), (3, 4), (5, 6)),
        ((2, None), (3, 4), (5, 6)),
        ((2, 4), (3, None), (5, 6)),
        ((2, 4), (3, 6), (5, None)),
    ]
    assert final.rows == ((1, 3), (2, 5), (4,))


def test_strip_first_too_small():
    with pytest.raises(TooSmall):
        strip_first(tab((1,)))


def test_project_golden_windows():
    t = tab(*TWELVE_BOX)
    assert project(t, 4, 11).rows == ((1, 4, 6), (2, 5, 7), (3,), (8,))
    assert projected_shape(t, 4, 11).parts == (3, 3, 1, 1)
    # trivial window is the identity
    assert project(t, 1, 12) == t
    # single-box windows always give the one-box tableau
    for k in range(1, 13):
        assert project(t, k, k).rows == ((1,),)


def test_project_bad_range():
    t = tab((1, 2), (3,))
    with pytest.raises(BadRange):
        project(t, 0, 2)
    with pytest.raises(BadRange):
        project(t, 3, 2)
    with pytest.raises(BadRange):
        project(t, 1, 4)


def test_projected_shape_matches_project_on_every_window():
    # the RS factor and the RS-factor table against jeu de taquin, every
    # window of every tableau with n <= 7
    windows = 0
    for n in range(1, 8):
        for t in all_syt(n):
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    slid = slide_project(t, i, j)
                    assert project(t, i, j).rows == slid.rows
                    assert projected_shape(t, i, j) == slid.shape
                    windows += 1
            assert project(t, 1, n) == t
    assert windows == 8613


@pytest.mark.parametrize("i, j", [(0, 2), (1, 4), (3, 2)])
def test_projected_shape_bad_range(i, j):
    t = tab((1, 2), (3,))
    message = f"need 1 <= i <= j <= 3, got i={i}, j={j}"
    with pytest.raises(BadRange) as shape_err:
        projected_shape(t, i, j)
    with pytest.raises(BadRange) as project_err:
        project(t, i, j)
    assert str(shape_err.value) == str(project_err.value) == message


def test_window_shape_matches_project():
    # the RS factor against jeu de taquin on the window of every descriptor
    # with n <= 8, on its Richardson tableau (whose shape generator_report
    # reads) and on its own tableau (which remark_check reads)
    count = 0
    for d in iter_descriptors(8):
        a, b = d.window
        for t in (d.richardson, d.tableau):
            assert project(t, a, b).rows == slide_project(t, a, b).rows
        count += 1
    assert count == 198


@given(st.data())
def test_project_output_is_standard_with_window_size(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    t = data.draw(st.sampled_from(all_syt(n)))
    i = data.draw(st.integers(min_value=1, max_value=n))
    j = data.draw(st.integers(min_value=i, max_value=n))
    out = project(t, i, j)
    assert out.n == j - i + 1
    assert validate_syt(out.rows) == out


@given(st.data())
def test_removals_and_strips_commute(data):
    n = data.draw(st.integers(min_value=3, max_value=6))
    t = data.draw(st.sampled_from(all_syt(n)))
    assert strip_first(remove_largest(t)) == remove_largest(strip_first(t))


@given(st.data())
def test_project_restricts_tau(data):
    # the window tableau keeps exactly the tau indices inside the window,
    # shifted down by i - 1
    n = data.draw(st.integers(min_value=2, max_value=6))
    t = data.draw(st.sampled_from(all_syt(n)))
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=n))
    inner = tau_invariant(project(t, i, j)).indices
    outer = tau_invariant(t).indices
    assert inner == {m - (i - 1) for m in outer if i <= m <= j - 1}


def test_window_of_a_richardson_tableau_is_the_restricted_taus():
    # the generator and the remark check name a window problem by tau
    # restricted to the window: its Richardson tableau is the projection of
    # tau's, for every tau and window with n <= 8
    windows = 0
    for n in range(1, 9):
        for bits in range(1 << (n - 1)):
            tau = TauSet(frozenset(i for i in range(1, n) if bits >> (i - 1) & 1), n)
            t_r = richardson_tableau(tau, n)
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    windows += 1
                    assert project(t_r, a, b) == richardson_tableau(
                        tau.restrict(a, b), b - a + 1
                    )
    assert windows == 7423

"""Tableau projections: restriction to an index window [i, j].

Two primitive moves define the projection. Removing the largest label
restricts to 1..n-1. Stripping the smallest runs a jeu de taquin slide
from the top-left corner: the hole repeatedly swallows the smaller of its
right and lower neighbours until it reaches an outer corner, and the
surviving labels shift down by one. The window [i, j] is t after n-j
removals and i-1 strips, and it describes how matrices supported on the
variety behave after cutting to rows and columns i..j.

project does not run the moves. It reads the window from the word
w = rs_inverse(t, t): the window is the recording tableau of the factor
w(i), ..., w(j) (Schützenberger; Sagan, The Symmetric Group, section 3.9;
the argument is in project's docstring), with the row-insertion loop
that rs_pair runs. projected_shape is that window's shape. The moves
themselves (remove_largest, strip_first, strip_first_steps) remain for the
CLI's step-by-step display and as the tests' oracle. The generator and the
remark check project nothing: TauSet.restrict names their windows.
"""

from __future__ import annotations

from .errors import BadRange, InconsistentIndexing, TooSmall
from .rs import _recordings, rs_inverse
from .tableaux import Partition, StandardTableau, validate_syt

Grid = tuple[tuple[int | None, ...], ...]


def remove_largest(t: StandardTableau) -> StandardTableau:
    """Delete the box holding n; it always sits at the end of some row."""
    if t.n < 2:
        raise TooSmall("cannot remove from a single-box tableau")
    r, c = t.position(t.n)
    rows = [list(row) for row in t.rows]
    if c != len(rows[r - 1]):
        raise InconsistentIndexing(
            f"largest label {t.n} sits in column {c}, not at its row's end"
        )
    rows[r - 1].pop()
    if not rows[r - 1]:
        rows.pop(r - 1)
    return validate_syt(rows)


def strip_first_steps(t: StandardTableau) -> tuple[StandardTableau, list[Grid]]:
    """Jeu de taquin slide from (1,1), returning every intermediate grid.

    Each snapshot shows the hole as None. The final tableau has the hole's
    corner removed and all labels decremented.
    """
    if t.n < 2:
        raise TooSmall("cannot strip a single-box tableau")
    rows: list[list[int | None]] = [list(row) for row in t.rows]
    steps: list[Grid] = []

    def snap() -> None:
        steps.append(tuple(tuple(row) for row in rows))

    r = c = 0
    rows[0][0] = None
    snap()
    while True:
        right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
        below = rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else None
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            rows[r][c] = right
            c += 1
        else:
            rows[r][c] = below
            r += 1
        rows[r][c] = None
        snap()
    # hole has reached an outer corner, necessarily the end of its row
    if c != len(rows[r]) - 1:
        raise InconsistentIndexing(
            f"slide stopped in column {c + 1}, not at its row's end"
        )
    rows[r].pop()
    if not rows[r]:
        rows.pop(r)
    return validate_syt([[e - 1 for e in row] for row in rows]), steps


def strip_first(t: StandardTableau) -> StandardTableau:
    return strip_first_steps(t)[0]


def project(t: StandardTableau, i: int, j: int) -> StandardTableau:
    """Restrict t to the window [i, j]: drop boxes above j, strip below i.

    Read from w = rs_inverse(t, t), whose insertion tableau is t: the
    window is the recording tableau of the factor w(i), ..., w(j),
    relabelled 1..j-i+1. As w is an involution, the subword of w with
    values in [i, j] is that factor's inverse up to relabelling, and the
    insertion tableau of an inverse word is the recording tableau of the
    word. Deleting the largest letter of a word removes its box from the
    insertion tableau, and deleting the smallest runs jeu de taquin on it
    (Sagan, The Symmetric Group, section 3.9), so the subword's insertion
    tableau is t after n-j removals and i-1 strips.
    """
    if type(i) is not int or type(j) is not int or not 1 <= i <= j <= t.n:
        raise BadRange(f"need 1 <= i <= j <= {t.n}, got i={i!r}, j={j!r}")
    for _, rec in _recordings(rs_inverse(t, t).images[i - 1 : j]):
        pass
    return StandardTableau(tuple(tuple(row) for row in rec))


def projected_shape(t: StandardTableau, i: int, j: int) -> Partition:
    """Shape of the window restriction; bounds ranks of matrix corners.

    The shape of project(t, i, j), which raises BadRange for a window
    outside 1..n or a bound that is not an int, or is a bool.
    """
    return project(t, i, j).shape

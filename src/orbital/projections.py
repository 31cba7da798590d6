"""Tableau projections: restriction to an index window [i, j].

Two primitive moves compose into the projection. Removing the largest
label restricts to 1..n-1. Stripping the smallest runs a jeu de taquin
slide from the top-left corner: the hole repeatedly swallows the smaller
of its right and lower neighbours until it reaches an outer corner, and
the surviving labels shift down by one. project(t, i, j) applies n-j
removals then i-1 strips, and the result describes how matrices supported
on the variety behave after cutting to rows and columns i..j.

projected_shape needs only the shape, and reads it from a table built
once per tableau: with w = rs_inverse(t, t), the shape of project(t, i, j)
is the Robinson-Schensted shape of the factor w(i), ..., w(j), because
deleting the largest letter of a word deletes its box from the insertion
tableau and deleting the smallest runs jeu de taquin on it (Sagan, The
Symmetric Group, section 3.9), and w is an involution, so cutting values
to [i, j] cuts positions to [i, j]. _window_shape inserts just that
factor, for a caller that reads a single window of t.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .errors import BadRange, InconsistentIndexing, TooSmall
from .rs import _row_insert, rs_inverse
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

    The two kinds of moves commute, so applying all removals first is a
    normal form, not a choice.
    """
    if not 1 <= i <= j <= t.n:
        raise BadRange(f"need 1 <= i <= j <= {t.n}, got i={i}, j={j}")
    out = t
    for _ in range(t.n - j):
        out = remove_largest(out)
    for _ in range(i - 1):
        out = strip_first(out)
    return out


@lru_cache(maxsize=None)
def _partition(parts: tuple[int, ...]) -> Partition:
    """One shared Partition per parts tuple, so shape tables hold
    references; there are only p(1) + ... + p(n) shapes of up to n boxes."""
    return Partition(parts)


def _insertion_parts(word: Sequence[int]) -> Iterator[list[int]]:
    """Row-insert word into an empty tableau; after each letter, yield the
    row lengths so far. The same list is yielded each time, grown in place."""
    rows: list[list[int]] = []
    parts: list[int] = []
    for v in word:
        r, _ = _row_insert(rows, v)
        if r > len(parts):
            parts.append(1)
        else:
            parts[r - 1] += 1
        yield parts


@lru_cache(maxsize=128)
def _window_shapes(t: StandardTableau) -> tuple[tuple[Partition, ...], ...]:
    """table[i - 1][j - i] is the shape of project(t, i, j).

    Row i row-inserts w(i), w(i + 1), ..., w(n) for w = rs_inverse(t, t)
    and records the shape after each letter (module docstring).
    """
    w = rs_inverse(t, t).images
    return tuple(
        tuple(_partition(tuple(parts)) for parts in _insertion_parts(w[start:]))
        for start in range(len(w))
    )


def projected_shape(t: StandardTableau, i: int, j: int) -> Partition:
    """Shape of the window restriction; bounds ranks of matrix corners.

    Equal to project(t, i, j).shape, read from t's table of
    Robinson-Schensted factor shapes instead of sliding.
    """
    if not 1 <= i <= j <= t.n:
        raise BadRange(f"need 1 <= i <= j <= {t.n}, got i={i}, j={j}")
    return _window_shapes(t)[i - 1][j - i]


def _window_shape(t: StandardTableau, i: int, j: int) -> Partition:
    """projected_shape(t, i, j) without the table of every window: the
    Robinson-Schensted shape of w(i), ..., w(j) alone."""
    if not 1 <= i <= j <= t.n:
        raise BadRange(f"need 1 <= i <= j <= {t.n}, got i={i}, j={j}")
    parts: list[int] = []
    for parts in _insertion_parts(rs_inverse(t, t).images[i - 1 : j]):
        pass
    return _partition(tuple(parts))

"""Robinson-Schensted correspondence, its inverse, and the word search.

rs_pair implements classical row insertion: the word w(1), ..., w(n) is
inserted left to right, bumping along rows; the insertion tableau collects
the values and the recording tableau collects the order in which boxes
appear. The pair (insertion, recording) determines w uniquely, and
rs_inverse recovers it by reverse row insertion in O(n^2). The insertion
loop, _recordings, yields both tableaux after every letter, so
projections.project and verify's rank bounds read windows from it too;
the generator and the remark check name theirs by TauSet.restrict.

The involution w = rs_inverse(T, T) has insertion and recording tableau
both equal to T, so it is a word for T under either convention. Its span of
positions (a, b) with w(a) < w(b) meets the orbital variety labelled by T
densely, which is what the finite-field sampling layer conjugates into
position.

find_word_for_tableau answers a different question: the lexicographically
smallest permutation whose recording tableau is T. It is an exhaustive
search, capped at WORD_SEARCH_BOUND boxes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BoundExceeded, InconsistentIndexing, SizeMismatch
from .tableaux import StandardTableau

WORD_SEARCH_BOUND = 8


@dataclass(frozen=True)
class Permutation:
    """One-line notation: images[k] is the image of k+1."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        ints = all(type(v) is int for v in self.images)
        if not ints or sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.images) + "]"


def _row_insert(rows: list[list[int]], value: int) -> tuple[int, int]:
    """Bump value through the rows; returns the (row, col) of the new box."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([value])
            return (r + 1, 1)
        row = rows[r]
        idx = bisect_right(row, value)
        if idx == len(row):
            row.append(value)
            return (r + 1, idx + 1)
        value, row[idx] = row[idx], value
        r += 1


def _recordings(word: Sequence[int]) -> Iterator[tuple[list[list[int]], list[list[int]]]]:
    """Row-insert word into an empty tableau; after each letter, yield the
    insertion and recording rows so far. The same lists are yielded, grown
    in place. Raises InconsistentIndexing if a letter's box lands in
    different columns of the two."""
    ins: list[list[int]] = []
    rec: list[list[int]] = []
    for step, v in enumerate(word, start=1):
        r, c = _row_insert(ins, v)
        if r > len(rec):
            rec.append([])
        rec[r - 1].append(step)
        if len(rec[r - 1]) != c:
            raise InconsistentIndexing(
                f"step {step} recorded in column {len(rec[r - 1])}, inserted in column {c}"
            )
        yield ins, rec


def rs_pair(w: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Insertion and recording tableaux of the word w(1), ..., w(n)."""
    ins: list[list[int]] = []
    rec: list[list[int]] = []
    for ins, rec in _recordings(w.images):
        pass
    return (
        StandardTableau(tuple(tuple(row) for row in ins)),
        StandardTableau(tuple(tuple(row) for row in rec)),
    )


def rs_inverse(p: StandardTableau, q: StandardTableau) -> Permutation:
    """The word with insertion tableau p and recording tableau q.

    Reverse row insertion: for step = n down to 1, the box q labels step
    ends its row; pop that box's value out of p and bump it up through the
    rows above, each time displacing the largest entry smaller than it.
    The value leaving the first row is w(step). Raises SizeMismatch when
    the shapes differ.
    """
    if p is not q and p.shape != q.shape:
        raise SizeMismatch(f"insertion shape {p.shape} vs recording shape {q.shape}")
    rows = [list(row) for row in p.rows]
    n = p.n
    # the 0-indexed row of each label of q
    row_of = [0] * (n + 1)
    for r, row in enumerate(q.rows):
        for label in row:
            row_of[label] = r
    images = [0] * n
    for step in range(n, 0, -1):
        r = row_of[step]
        value = rows[r].pop()
        for row in reversed(rows[:r]):
            idx = bisect_left(row, value) - 1
            value, row[idx] = row[idx], value
        images[step - 1] = value
    return Permutation(tuple(images))


def find_word_for_tableau(t: StandardTableau) -> Permutation:
    """Lexicographically smallest w whose recording tableau is t.

    Depth-first search over prefixes: at step k every unused value is tried
    in increasing order, and a branch survives only if inserting the value
    creates the new box exactly where t holds the label k. The first
    complete word found is therefore the lex-smallest. The search grows
    about threefold per box, so tableaux with more than WORD_SEARCH_BOUND
    boxes raise BoundExceeded; rs_inverse gives some word for any size.
    """
    n = t.n
    if n > WORD_SEARCH_BOUND:
        raise BoundExceeded(f"word search capped at n <= {WORD_SEARCH_BOUND}, got {n}")
    rows: list[list[int]] = []
    used = [False] * (n + 1)
    word: list[int] = []

    def attempt(step: int) -> bool:
        if step > n:
            return True
        want = t.position(step)
        for v in range(1, n + 1):
            if used[v]:
                continue
            snapshot = [row[:] for row in rows]
            pos = _row_insert(rows, v)
            if pos != want:
                rows[:] = snapshot
                continue
            used[v] = True
            word.append(v)
            if attempt(step + 1):
                return True
            used[v] = False
            word.pop()
            rows[:] = snapshot
        return False

    if not attempt(1):
        raise InconsistentIndexing(
            f"no word has recording tableau {t.rows}; is it standard?"
        )
    return Permutation(tuple(word))

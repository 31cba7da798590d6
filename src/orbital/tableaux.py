"""Partitions, standard Young tableaux, tau-invariants, Richardson tableaux.

Everything here is 1-indexed: rows, columns, and box labels all start at 1,
matching the usual tableau conventions. All types are immutable and all
functions are pure.

A standard Young tableau T with n boxes labels an irreducible component
(orbital variety) of O intersected with the strictly upper triangular
matrices, where O is the nilpotent orbit of Jordan type shape(T). The
tau-invariant of T records which simple root coordinates vanish identically
on that component, and each tau-set has a unique component of maximal
dimension, whose tableau (the Richardson tableau) is read off tau's chains:
the maximal runs of labels linked through tau, each a range of labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadRange,
    ColumnNotIncreasing,
    DuplicateEntry,
    NotRichardson,
    RaggedShape,
    RowNotIncreasing,
    SizeMismatch,
    TableauError,
)


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for k, p in enumerate(self.parts):
            if type(p) is not int:
                raise ValueError(f"parts must be ints, got {p!r}")
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if k and self.parts[k - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {self.parts}")

    @property
    def n(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    def part(self, k: int) -> int:
        """The k-th part (1-indexed), or 0 past the last row."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, k: int) -> int:
        return self.parts[k]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"

    def to_json(self) -> list[int]:
        return list(self.parts)


def dual_partition(lam: Partition) -> Partition:
    """Transpose of the Young diagram: part k counts rows of length >= k."""
    if not lam.parts:
        return Partition(())
    return Partition(
        tuple(sum(1 for p in lam.parts if p >= k) for k in range(1, lam.parts[0] + 1))
    )


def dominance_le(mu: Partition, lam: Partition) -> bool:
    """Dominance order via partial sums: mu <= lam iff every prefix sum of mu
    is at most the corresponding prefix sum of lam. Both must partition the
    same n; the order is partial, so neither direction may hold."""
    if mu.n != lam.n:
        raise SizeMismatch(f"cannot compare partitions of {mu.n} and {lam.n}")
    sm = sl = 0
    for k in range(max(len(mu), len(lam))):
        sm += mu.part(k + 1)
        sl += lam.part(k + 1)
        if sm > sl:
            return False
    return True


def variety_dim(lam: Partition, n: int) -> int:
    """Dimension of any orbital variety of Jordan type lam inside sl(n):
    half of n^2 minus the sum of squared dual parts.

    A dual part d is the height of a column, and d^2 = 1 + 3 + .. + (2d-1)
    adds 2i-1 for each row i the column meets; so the sum of squared dual
    parts is the sum of (2i-1) * lambda_i over the rows i."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if lam.n != n:
        raise SizeMismatch(f"partition of {lam.n} cannot index an orbit in sl({n})")
    sq = sum((2 * i - 1) * part for i, part in enumerate(lam.parts, start=1))
    return (n * n - sq) // 2


@dataclass(frozen=True)
class StandardTableau:
    """Rows of box labels; entries increase along rows and down columns.

    Construct through validate_syt (or from_json) so the standardness
    errors are raised with their precise reasons.
    """

    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def n(self) -> int:
        return sum(map(len, self.rows))

    @cached_property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @cached_property
    def _positions(self) -> dict[int, tuple[int, int]]:
        pos: dict[int, tuple[int, int]] = {}
        for r, row in enumerate(self.rows, start=1):
            for c, entry in enumerate(row, start=1):
                pos[entry] = (r, c)
        return pos

    def position(self, entry: int) -> tuple[int, int]:
        """(row, column) of a box label, both 1-indexed."""
        return self._positions[entry]

    def row_of(self, entry: int) -> int:
        return self._positions[entry][0]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "StandardTableau":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise TableauError("tableau JSON needs a 'rows' key")
        rows = obj["rows"]
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(e) is int for e in row)
            for row in rows
        ):
            raise TableauError("'rows' must be a list of lists of integers")
        t = validate_syt(rows)
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != t.n):
            raise TableauError(f"declared n={obj['n']!r} but found {t.n} boxes")
        return t

    def __str__(self) -> str:
        return render_tableau(self)


def validate_syt(rows) -> StandardTableau:
    """Check standardness and build the tableau.

    Raises RaggedShape, DuplicateEntry, RowNotIncreasing or
    ColumnNotIncreasing naming the offending boxes, TableauError for a
    non-int entry; a well-formed input comes back as a StandardTableau.
    """
    rows = tuple(map(tuple, rows))
    if not rows or any(len(r) == 0 for r in rows):
        raise RaggedShape("rows must be nonempty")
    for k in range(1, len(rows)):
        if len(rows[k]) > len(rows[k - 1]):
            raise RaggedShape(
                f"row {k + 1} is longer than row {k} ({len(rows[k])} > {len(rows[k - 1])})"
            )
    entries = [e for row in rows for e in row]
    n = len(entries)
    seen: set[int] = set()
    for e in entries:
        if type(e) is not int:
            raise TableauError(f"entries must be ints, got {e!r}")
        if e in seen:
            raise DuplicateEntry(f"entry {e} appears twice")
        seen.add(e)
    if seen != set(range(1, n + 1)):
        raise TableauError(f"entries must be exactly 1..{n}, got {sorted(seen)}")
    for r, row in enumerate(rows, start=1):
        for c in range(1, len(row)):
            if row[c - 1] >= row[c]:
                raise RowNotIncreasing(f"row {r}: {row[c - 1]} >= {row[c]}")
    for r in range(1, len(rows)):
        upper, lower = rows[r - 1], rows[r]
        for c in range(len(lower)):
            if upper[c] >= lower[c]:
                raise ColumnNotIncreasing(
                    f"column {c + 1}: {upper[c]} >= {lower[c]}"
                )
    return StandardTableau(rows)


def render_tableau(t) -> str:
    """ASCII boxes, one tableau row per content line. Also draws the hole
    grids of strip_first_steps: None is an empty cell that counts toward
    the width, so a grid lines up with the tableau it came from."""
    rows = t.rows if isinstance(t, StandardTableau) else t
    w = len(str(sum(len(row) for row in rows)))

    def border(cells: int) -> str:
        return "+" + "+".join(["-" * (w + 2)] * cells) + "+"

    lines = [border(len(rows[0]))]
    for k, row in enumerate(rows):
        lines.append("|" + "|".join(f" {'' if e is None else e:>{w}} " for e in row) + "|")
        nxt = len(rows[k + 1]) if k + 1 < len(rows) else 0
        lines.append(border(max(len(row), nxt)))
    return "\n".join(lines)


@dataclass(frozen=True)
class TauSet:
    """Subset of simple-root indices {1, ..., n-1} inside rank-(n-1) type A."""

    indices: frozenset[int]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", frozenset(self.indices))
        if type(self.n) is not int:
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for i in self.indices:
            if type(i) is not int:
                raise ValueError(f"indices must be ints, got {i!r}")
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"index {i} outside 1..{self.n - 1}")

    def sorted(self) -> list[int]:
        return sorted(self.indices)

    def restrict(self, a: int, b: int) -> "TauSet":
        """The window problem on [a, b]: the indices in a .. b-1, relabelled
        from 1, on b - a + 1 boxes (its use is in the generator module)."""
        if type(a) is not int or type(b) is not int or not 1 <= a <= b <= self.n:
            raise BadRange(f"need 1 <= a <= b <= {self.n}, got a={a!r}, b={b!r}")
        kept = frozenset(i - a + 1 for i in self.indices if a <= i < b)
        return TauSet(kept, b - a + 1)

    @cached_property
    def positive_roots(self) -> tuple[tuple[int, int], ...]:
        """All (u, v) with alpha_u + ... + alpha_v in the span of tau: the
        lo <= u <= v < hi of each of tau's chains lo..hi, so already sorted.

        These index exactly the matrix positions (u, v+1) forced to zero on
        every orbital variety with this tau-invariant.
        """
        return tuple(
            (u, v)
            for c in _tau_chains(self)
            for u in c[:-1]
            for v in range(u, c[-1])
        )

    @cached_property
    def free_positions(self) -> tuple[tuple[int, int], ...]:
        """The strictly upper positions (a, b) outside the positive roots:
        the coordinates of the linear span m_tau."""
        forced = {(u, v + 1) for u, v in self.positive_roots}
        return tuple(
            (a, b)
            for a in range(1, self.n)
            for b in range(a + 1, self.n + 1)
            if (a, b) not in forced
        )

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.sorted()) + "}"

    def to_json(self) -> list[int]:
        return self.sorted()


def _as_tau(tau, n: int) -> TauSet:
    if type(n) is not int:
        raise ValueError(f"n must be an int, got {n!r}")
    if isinstance(tau, TauSet):
        if tau.n != n:
            raise SizeMismatch(f"tau has ambient size {tau.n}, expected {n}")
        return tau
    return TauSet(frozenset(tau), n)


def tau_invariant(t: StandardTableau) -> TauSet:
    """Indices i whose box sits strictly above the box of i+1."""
    return TauSet(
        frozenset(i for i in range(1, t.n) if t.row_of(i) < t.row_of(i + 1)),
        t.n,
    )


def richardson_tableau(tau, n: int) -> StandardTableau:
    """The filling that realizes tau with maximal-dimension shape (_richardson)."""
    return _richardson(_tau_chains(_as_tau(tau, n)))


def _richardson(chains: list[range]) -> StandardTableau:
    """The Richardson tableau with these chains (ranges, as _tau_chains
    gives them): row r holds the r-th label of every chain of length at
    least r, in chain order. Filled box by box, each next box of a chain
    fits in the row below the last: when a chain reaches row r, every
    earlier chain that reached row r also reached row r - 1, so row r - 1
    is one box longer."""
    return StandardTableau(tuple(
        tuple(c[r] for c in chains if len(c) > r)
        for r in range(max(map(len, chains)))
    ))


def chains(t_r: StandardTableau) -> list[range]:
    """Split 1..n into chains at every m with alpha_m outside tau, each a
    range of labels (see _tau_chains).

    Only defined for Richardson tableaux; anything else raises NotRichardson.
    """
    out = _tau_chains(tau_invariant(t_r))
    if _richardson(out) != t_r:
        raise NotRichardson("chains are defined on Richardson tableaux only")
    return out


def _tau_chains(tau: TauSet) -> list[range]:
    """The chains of the Richardson tableau of tau, read off tau alone: each
    maximal run of labels lo..hi linked through tau (alpha_m in tau for
    lo <= m < hi), as range(lo, hi + 1). In the Richardson tableau the run
    occupies one box per row, rows 1..hi-lo+1 (as _richardson builds it),
    so the chain lengths are the column lengths."""
    out: list[range] = []
    lo = 1
    for m in range(1, tau.n):
        if m not in tau.indices:
            out.append(range(lo, m + 1))
            lo = m + 1
    out.append(range(lo, tau.n + 1))
    return out

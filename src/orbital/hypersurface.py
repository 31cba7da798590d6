"""Classification of hypersurface orbital varieties.

A component V with tau-invariant tau has codimension one inside the linear
span m_tau exactly when its tableau arises from the Richardson tableau of
tau by one box drop: take the largest label j of some chain, currently at
the bottom of its chain in row I, and move it down to row I+1. The drop is
admissible when the result is still standard and still has tau-invariant
tau. Each admissible drop carries a sigma-set: with C_s the nearest earlier
chain of the same length I and i its smallest label, sigma spans the simple
roots alpha_i .. alpha_{j-1}, the window [i, j] cuts out the submatrix the
defining equation lives in, and I is the thickness of the window.

Admissibility is read off tau's chains C_1, ..., C_m, whose r-th labels,
in chain order, fill row r of the Richardson tableau. Chain C_k, of length
I, drops its last box j exactly when some earlier chain has length I and,
for I = 1, the chain C_{k-1} just before it has at least two boxes. Only j
moves, so only rows I and I+1 change:
- Column strictness. Of the chains of length >= I, C_k is the p-th, and q
  of those before it have length >= I+1. j lands in column q+1 of row I+1
  and row I closes up over column p, so rows I and I+1 stay strict exactly
  when j lands left of C_k's old column, q < p - 1: an earlier chain has
  length exactly I. Every other column then sets a label of one chain over
  one of the same or a later chain; row I only gains larger entries and
  row I+1 smaller ones, so rows I-1 and I+2 stay strict against them. Two
  chains of length I give lambda_I >= lambda_{I+1} + 2, so row I stays as
  long as row I+1.
- The tau-invariant. alpha_m is in it when m sits in a higher row than
  m+1, so only alpha_{j-1} and alpha_j can change; alpha_j stays out, as
  j + 1 starts the next chain in row 1. For I >= 2, j - 1 is in C_k, so
  nothing changes. For I = 1, j - 1 ends C_{k-1}, and alpha_{j-1} joins
  tau exactly when len(C_{k-1}) = 1.
- Dimension. Moving one box from row I to row I+1 raises the sum of
  (2i-1) lambda_i by 2, so the dimension always falls by exactly one.
The tests keep rebuilding and checking the whole tableau as the oracle.

A descriptor stores four facts: the dropped tableau, the Richardson
tableau, the window [i, j] and the thickness I. The dropped box j, sigma
and both chains are read from the window and the thickness. It also holds
tau, the one TauSet shared by every descriptor of its Richardson tableau.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .errors import (
    ClassificationError,
    InconsistentIndexing,
    NotApplicable,
    NotRichardson,
)
from .tableaux import (
    StandardTableau,
    TauSet,
    _richardson,
    _tau_chains,
    chains,
    richardson_tableau,
    tau_invariant,
)


@dataclass(frozen=True)
class HypersurfaceDescriptor:
    """Everything the downstream symbolic layer needs about one drop: the
    dropped tableau, the Richardson tableau, the window [i, j] and the
    thickness I. The rest follows from the window and the thickness; the
    two chains are ranges of labels, as _tau_chains gives them."""

    tableau: StandardTableau
    richardson: StandardTableau
    window: tuple[int, int]
    thickness: int
    # tau_invariant(richardson), one object shared by every descriptor of
    # that Richardson tableau; it follows from richardson, so it takes no
    # part in equality or hashing
    tau: TauSet = field(compare=False, repr=False)

    # the dropped box j, sigma = alpha_i .. alpha_{j-1}, the chain of j and
    # the nearest earlier chain of the same length, which starts at i
    dropped_box = property(lambda d: d.window[1])
    sigma_lo = property(lambda d: d.window[0])
    sigma_hi = property(lambda d: d.window[1] - 1)
    source_chain = property(lambda d: range(d.window[1] - d.thickness + 1, d.window[1] + 1))
    prev_chain = property(lambda d: range(d.window[0], d.window[0] + d.thickness))
    # (tau restricted to the window, thickness), all the generator reads of d
    window_problem = property(lambda d: (d.tau.restrict(*d.window), d.thickness))

    @property
    def n(self) -> int:
        return self.richardson.n

    @property
    def descriptor_id(self) -> str:
        tau = ",".join(str(i) for i in self.tau.sorted())
        return f"n={self.n} tau={{{tau}}} drop={self.dropped_box}"

    def to_json(self) -> dict:
        return {
            "tableau": self.tableau.to_json(),
            "richardson": self.richardson.to_json(),
            "tau": self.tau.to_json(),
            "dropped_box": self.dropped_box,
            "sigma": [self.sigma_lo, self.sigma_hi],
            "thickness": self.thickness,
            "window": list(self.window),
        }


def _drops(tau: TauSet) -> list[HypersurfaceDescriptor]:
    """The drops of t_r, the Richardson tableau of tau's chains, by dropped
    box: a chain of length I drops its last box when an earlier chain has
    length I and, for I = 1, the chain just before it has two or more boxes
    (module docstring). Every descriptor holds this tau."""
    all_chains = _tau_chains(tau)
    t_r = _richardson(all_chains)
    rows = t_r.rows
    # the latest chain of each length
    latest: dict[int, range] = {}
    out: list[HypersurfaceDescriptor] = []
    for chain in all_chains:
        j, i_row = chain[-1], len(chain)
        prev = latest.get(i_row)
        latest[i_row] = chain
        # for I = 1, the chain before ends at j - 1 and has two or more
        # boxes exactly when alpha_{j-2} is in tau
        if prev is None or (i_row == 1 and j - 2 not in tau.indices):
            continue
        r, c = t_r.position(j)
        if r != i_row:
            raise InconsistentIndexing(f"chain tail {j} sits in row {r}, not in row {i_row}")
        upper = rows[i_row - 1]
        lower = rows[i_row] if i_row < len(rows) else ()
        k = bisect(lower, j)
        dropped = StandardTableau(
            rows[: i_row - 1]
            + (upper[: c - 1] + upper[c:], lower[:k] + (j,) + lower[k:])
            + rows[i_row + 1 :]
        )
        out.append(
            HypersurfaceDescriptor(
                tableau=dropped,
                richardson=t_r,
                window=(prev[0], j),
                thickness=i_row,
                tau=tau,
            )
        )
    return out


def hypersurface_descendants(t_r: StandardTableau) -> list[HypersurfaceDescriptor]:
    """All admissible one-box drops of a Richardson tableau, by dropped box.

    Raises NotRichardson when t_r is not the Richardson tableau of its own
    tau-invariant.
    """
    tau = tau_invariant(t_r)
    if richardson_tableau(tau, t_r.n) != t_r:
        raise NotRichardson("descendants are defined on Richardson tableaux only")
    return _drops(tau)


def classify_hypersurface(t: StandardTableau) -> HypersurfaceDescriptor | None:
    """Match t against the admissible drops of its tau's Richardson tableau.

    Returns None when t is not a hypersurface component, the Richardson
    tableau included (a drop moves a box to another row). A double match
    cannot happen (the moved box is visible) and would be an internal error.
    """
    matches = [d for d in _drops(tau_invariant(t)) if d.tableau == t]
    if not matches:
        return None
    if len(matches) > 1:
        raise ClassificationError(f"tableau matched {len(matches)} distinct drops")
    return matches[0]


def sigma_is_full(t_r: StandardTableau) -> bool:
    """Whether dropping the last box N would make sigma all of {1..N-1}.

    Evaluates the two closed-form conditions: the first and last chains
    have equal length I, and the shape satisfies lambda_I = lambda_{I+1} + 2.
    Input must be a Richardson tableau (NotApplicable otherwise, raised
    through the chain computation's Richardson check).
    """
    try:
        ch = chains(t_r)
    except NotRichardson as exc:
        raise NotApplicable(str(exc)) from exc
    first, last = ch[0], ch[-1]
    if len(first) != len(last):
        return False
    i = len(first)
    lam = t_r.shape
    return lam.part(i) == lam.part(i + 1) + 2


def iter_descriptors(n_max: int) -> Iterator[HypersurfaceDescriptor]:
    """Every descriptor with n <= n_max, ordered by n, tau, dropped box.

    Tau-sets are enumerated in lexicographic order of their sorted tuples,
    so the stream is canonical and reproducible. Each Richardson tableau is
    built from its tau, so it needs no Richardson check, and each drop is
    read off the lengths of tau's chains (see the module docstring).
    ValueError when n_max is not an int or is a bool.
    """
    if type(n_max) is not int:
        raise ValueError(f"n_max must be an int, got {n_max!r}")
    for n in range(1, n_max + 1):
        subsets = sorted(
            tup
            for size in range(n)
            for tup in combinations(range(1, n), size)
        )
        for subset in subsets:
            yield from _drops(TauSet(frozenset(subset), n))

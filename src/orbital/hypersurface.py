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

A descriptor stores four facts: the dropped tableau, the Richardson
tableau, the window [i, j] and the thickness I. The dropped box j, sigma
and both chains are read from the window and the thickness.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator

from .errors import (
    ClassificationError,
    InconsistentIndexing,
    NotApplicable,
    NotRichardson,
    TableauError,
)
from .tableaux import (
    Chain,
    StandardTableau,
    TauSet,
    chains,
    richardson_tableau,
    tau_invariant,
    validate_syt,
    variety_dim,
)


@dataclass(frozen=True)
class HypersurfaceDescriptor:
    """Everything the downstream symbolic layer needs about one drop: the
    dropped tableau, the Richardson tableau, the window [i, j] and the
    thickness I. The rest follows from the window and the thickness."""

    tableau: StandardTableau
    richardson: StandardTableau
    window: tuple[int, int]
    thickness: int

    # the dropped box j, sigma = alpha_i .. alpha_{j-1}, the chain of j and
    # the nearest earlier chain of the same length, which starts at i
    dropped_box = property(lambda d: d.window[1])
    sigma_lo = property(lambda d: d.window[0])
    sigma_hi = property(lambda d: d.window[1] - 1)
    source_chain = property(lambda d: Chain(d.window[1] - d.thickness + 1, d.window[1]))
    prev_chain = property(lambda d: Chain(d.window[0], d.window[0] + d.thickness - 1))

    @property
    def n(self) -> int:
        return self.richardson.n

    @cached_property
    def tau(self) -> TauSet:
        return tau_invariant(self.richardson)

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


def _dropped_tableau(t_r: StandardTableau, chain: Chain) -> StandardTableau | None:
    """Move the chain's largest box down one row, or None if not standard."""
    box = chain.hi
    r = t_r.row_of(box)
    if r != chain.length:
        raise InconsistentIndexing(
            f"chain tail {box} sits in row {r}, not in row {chain.length}"
        )
    rows = [list(row) for row in t_r.rows]
    rows[r - 1].remove(box)
    if r == len(rows):
        rows.append([])
    insort(rows[r], box)
    if not rows[r - 1]:
        return None
    try:
        return validate_syt(rows)
    except TableauError:
        return None


def _descriptor(
    t_r: StandardTableau,
    all_chains: list[Chain],
    index: int,
    dropped: StandardTableau,
) -> HypersurfaceDescriptor:
    source = all_chains[index]
    thickness = source.length
    prev = next(
        (c for c in reversed(all_chains[:index]) if c.length == thickness), None
    )
    if prev is None:
        raise ClassificationError(
            f"admissible drop of box {source.hi} has no earlier chain of length {thickness}"
        )
    return HypersurfaceDescriptor(
        tableau=dropped,
        richardson=t_r,
        window=(prev.lo, source.hi),
        thickness=thickness,
    )


def hypersurface_descendants(t_r: StandardTableau) -> list[HypersurfaceDescriptor]:
    """All admissible one-box drops of a Richardson tableau, by dropped box.

    Raises NotRichardson (via chains) when t_r is not the Richardson
    tableau of its own tau-invariant.
    """
    tau = tau_invariant(t_r)
    ch = chains(t_r)
    out: list[HypersurfaceDescriptor] = []
    for index, chain in enumerate(ch):
        dropped = _dropped_tableau(t_r, chain)
        if dropped is None:
            continue
        if tau_invariant(dropped) != tau:
            continue
        d = _descriptor(t_r, ch, index, dropped)
        if variety_dim(dropped.shape, t_r.n) != variety_dim(t_r.shape, t_r.n) - 1:
            raise ClassificationError(
                f"drop of box {d.dropped_box} does not cut the dimension by one"
            )
        out.append(d)
    return out


def classify_hypersurface(t: StandardTableau) -> HypersurfaceDescriptor | None:
    """Match t against the admissible drops of its tau's Richardson tableau.

    Returns None when t is the Richardson tableau itself or not a
    hypersurface component at all. A double match cannot happen (the moved
    box is visible in the tableau) and would be an internal error.
    """
    tau = tau_invariant(t)
    t_r = richardson_tableau(tau, t.n)
    if t == t_r:
        return None
    matches = [d for d in hypersurface_descendants(t_r) if d.tableau == t]
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
    if first.length != last.length:
        return False
    i = first.length
    lam = t_r.shape
    return lam.part(i) == lam.part(i + 1) + 2


def iter_descriptors(n_max: int) -> Iterator[HypersurfaceDescriptor]:
    """Every descriptor with n <= n_max, ordered by n, tau, dropped box.

    Tau-sets are enumerated in lexicographic order of their sorted tuples,
    so the stream is canonical and reproducible.
    """
    for n in range(1, n_max + 1):
        subsets = sorted(
            tup
            for size in range(n)
            for tup in combinations(range(1, n), size)
        )
        for subset in subsets:
            t_r = richardson_tableau(TauSet(frozenset(subset), n), n)
            yield from hypersurface_descendants(t_r)

"""Symbolic construction of the conjectured defining equation.

For a hypersurface descriptor with window [a, b] and thickness I, the
generic member of the linear span m_tau restricted to the window is a
strictly upper triangular matrix x_R whose entry (k, l) is the free
variable x_{kl} unless alpha_k + ... + alpha_{l-1} lies in the span of tau,
in which case it vanishes. Adding t on the diagonal and cutting the
top-right (size-I) x (size-I) corner gives the window matrix; its
determinant expands as sum of m_j t^(size-I-j), and the candidate equation
f is the last surviving coefficient m_{l(lambda)}, where
l(lambda) = lambda_1 + ... + lambda_I - I over the shape lambda of the
Richardson tableau projected to the window. That projection is the
Richardson tableau of tau.restrict(a, b): tau's is the recording tableau of
the involution w0_tau reversing each chain, and project reads the window
from the factor w0_tau(a) .. w0_tau(b), the block reversal of the chains
clipped to [a, b]. A chain of length L has a box in each of rows 1 .. L, so
l(lambda) is the sum of min(L, I) over the restricted tau's chains, minus I.

So f depends on a descriptor only through its window problem
(tau.restrict(a, b), I), and the generator reads nothing else: its chains
give l(lambda) and the zeros, as alpha_r + ... + alpha_{c-1} lies in the
span of tau exactly when r and c share a chain. The walk runs on boxes
1 .. size, one row layer at a time (the layered branching program of a
determinant, Mahajan & Vinay 1997), and names each x_{rc} as
x_{r+a-1, c+a-1}, in d's coordinates.

The determinant is never expanded by cofactors here. Corner entry (r, c)
vanishes below the diagonal, so a Leibniz term is a bijection sigma from
the rows to the columns with sigma(r) >= r: a system of I vertex-disjoint
increasing paths r -> sigma(r) -> ... from a .. a+I-1 to b-I+1 .. b, with
t on every vertex no path passes through (the setting of the
Lindstrom-Gessel-Viennot lemma). Each x_{rc} sits in a single entry, so
the monomial of a term names every (r, sigma(r)) off the diagonal, and the
rows it skips are exactly the fixed points. Distinct systems therefore
give distinct monomials: no two terms cancel, every coefficient is the
sign +-1 of its bijection, and every m_j is multilinear.

wt(f) is read from the window, not from f's terms: x_{rc} weighs
e_r - e_c and t nothing, so every term of a bijection weighs
(e_a + ... + e_{a+I-1}) - (e_{b-I+1} + ... + e_b), which is the sum over
k < I of the roots alpha_{a+k} + ... + alpha_{b-1-k}.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .errors import BadWindow, InconsistentIndexing
from .hypersurface import HypersurfaceDescriptor
from .polyalg import (
    Monomial,
    MultiPoly,
    PolyMatrix,
    WeightVector,
    _json_terms,
    _JsonNames,
    t_poly,
    x,
)
from .tableaux import TauSet, _as_tau, _tau_chains, variety_dim


def _corner(tau, n: int, window: tuple[int, int], thickness: int):
    """tau as a TauSet and the window bounds (a, b), once the window and
    thickness are checked to leave a corner of side size - thickness."""
    tau = _as_tau(tau, n)
    a, b = window
    if not all(type(v) is int for v in (a, b, thickness)):
        raise BadWindow(f"window [{a!r}, {b!r}] and thickness {thickness!r} must be ints")
    if not 1 <= a <= b <= n:
        raise BadWindow(f"window [{a}, {b}] outside 1..{n}")
    _check_thickness(thickness, b - a + 1)
    return tau, a, b


def _check_thickness(thickness: int, size: int) -> None:
    """BadWindow unless 1 <= thickness and 2*thickness <= size."""
    if thickness < 1:
        raise BadWindow(f"thickness {thickness} must be at least 1")
    if size - 2 * thickness < 0:
        raise BadWindow(f"thickness {thickness} too large for window of size {size}")


def generic_richardson_matrix(tau, n: int) -> PolyMatrix:
    """Generic strictly upper triangular point of m_tau, as symbols.

    Entry (k, l) is x_{kl} on the coordinates of m_tau, tau.free_positions;
    every other entry, on or below the diagonal or at a positive root of
    tau, vanishes identically on every component with this tau.
    """
    free = set(_as_tau(tau, n).free_positions)
    zero = MultiPoly.zero()
    return PolyMatrix(tuple(
        tuple(x(k, l) if (k, l) in free else zero for l in range(1, n + 1))
        for k in range(1, n + 1)
    ))


def cmin_window(tau, n: int, window: tuple[int, int], thickness: int) -> PolyMatrix:
    """Top-right corner of x_R + t*id restricted to the window.

    With a <= b the window and size = b - a + 1, the corner keeps rows
    a .. b-thickness and columns a+thickness .. b of the restriction, a
    square matrix of side size - thickness. Diagonal positions r == c hold
    t; every other position holds entry (r, c) of
    generic_richardson_matrix(tau, n).
    """
    tau, a, b = _corner(tau, n, window, thickness)
    x_r = generic_richardson_matrix(tau, n).entries
    t = t_poly()
    return PolyMatrix(tuple(
        tuple(t if r == c else x_r[r - 1][c - 1] for c in range(a + thickness, b + 1))
        for r in range(a, b - thickness + 1)
    ))


@dataclass(frozen=True)
class GeneratorReport:
    """The window determinant unpacked: the ladder of all m_j, l(lambda),
    and the weight of the generator. The generator f is the ladder's rung
    j = l(lambda), read from it. Each rung lists its terms in print order,
    as the walk emits them (_path_systems), and to_json writes them in
    that order."""

    m_sequence: tuple[tuple[int, MultiPoly], ...]
    l_lambda: int
    weight: WeightVector
    window: tuple[int, int]
    thickness: int

    @property
    def f(self) -> MultiPoly:
        return self.m_sequence[self.l_lambda - self.thickness][1]

    def to_json(self) -> dict:
        # every rung is already in print order, so it is written as it
        # stands, each variable named once for the whole ladder; f's term
        # list is serialized once and appears under both keys
        name = _JsonNames().__getitem__
        rungs = [
            {"j": j, "poly": _json_terms(m.terms, m.terms, name)}
            for j, m in self.m_sequence
        ]
        return {
            "window": list(self.window),
            "thickness": self.thickness,
            "l_lambda": self.l_lambda,
            "f": rungs[self.l_lambda - self.thickness]["poly"],
            "weight": self.weight.to_json(),
            "m_sequence": rungs,
        }


def _path_systems(
    chains: list[range], thickness: int, max_ts: int, shift: int
) -> list[dict[Monomial, int]]:
    """The terms of the window problem's determinant with at most max_ts
    t's, bucketed by power of t: bucket k maps each monomial of t^k's
    coefficient, t stripped and each x_{rc} named x_{r+shift, c+shift}, to
    its sign. The size - 2*thickness + 1 buckets cover the whole ladder;
    those above max_ts stay empty.

    x_{rc} is free unless r and c lie in one of these chains (ranges, from
    _tau_chains). Rows 1 .. size-I are placed in order, one layer of (used
    columns as bits, t count, monomial, inversions) per row, each row in an
    unused column c >= r of 1+I .. size: column r holds t, any past the end
    of r's chain x_{rc}. Columns 1 .. I start used, so row 1's moves are
    the first layer. Column r is out of reach of later rows, so a row that
    finds it unused takes t, and an entry past max_ts t's is dropped. The
    sign is (-1)^(inversions of sigma), one per used column right of each
    new one. Entries grow by their row's moves in column order, so buckets
    keep depth-first order, _print_order's, which GeneratorReport.to_json
    relies on to write each rung without sorting it; no two systems share
    a monomial (module docstring), so they are the exact coefficients.
    """
    size = chains[-1][-1]
    first, last = 1 + thickness, size - thickness
    # per row, the x_{rc} it may take: (c, column c's bit, x_{rc}'s monomial)
    moves = [
        [(c, 1 << c, (((r + shift, c + shift), 1),))
         for c in range(max(chain.stop, first), size + 1)]
        for chain in chains
        for r in chain
        if r <= last
    ]
    layer = [((1 << first) - 2 | bit, 0, name, 0) for _, bit, name in moves[0]]
    for r in range(2, last + 1):
        row, t = moves[r - 1], 1 << r
        grown: list = []
        append = grown.append
        for used, ts, key, inv in layer:
            if used & t:
                for c, bit, name in row:
                    if not used & bit:
                        append((used | bit, ts, key + name, inv + (used >> c).bit_count()))
            elif ts < max_ts:
                append((used | t, ts + 1, key, inv + (used >> r).bit_count()))
        layer = grown
    buckets: list[dict] = [{} for _ in range(last - first + 2)]
    for _, ts, key, inv in layer:
        buckets[ts][key] = -1 if inv & 1 else 1
    return buckets


def _shape_numbers(chains: list[range], i_thick: int) -> tuple[int, int, int]:
    """(l(lambda), k, r) of the window problem with these chains and
    thickness I. The chain lengths L, longest first, are the columns of its
    Richardson shape lambda: l(lambda) = lambda_1 + ... + lambda_I - I is
    the sum of min(L, I), minus I; remark_minor's k = lambda_I - 1 is one
    less than the number of chains with L >= I; and r, the rank bound of
    lambda at k, is the total length of all but the k longest chains."""
    lengths = sorted(map(len, chains), reverse=True)
    k = sum(length >= i_thick for length in lengths) - 1
    return sum(min(length, i_thick) for length in lengths) - i_thick, k, sum(lengths[k:])


def _ladder(tau_w: TauSet, i_thick: int, shift: int, f_only=False) -> tuple[int, list[dict]]:
    """l(lambda) (_shape_numbers) and _path_systems' buckets, variables
    shifted by shift, for the window problem (tau_w, i_thick), both read
    off its chains.

    f is the bucket of t^target, target = size - i_thick - l(lambda). With
    f_only the walk stops at target t's, and walks the whole ladder only if
    target is off it or nothing was found, to tell a vanished determinant
    from a higher surviving power. The buckets up to the bound are complete,
    so InconsistentIndexing names the lowest nonempty one unless it is f's.
    """
    _check_thickness(i_thick, tau_w.n)
    top = tau_w.n - 2 * i_thick
    chains = _tau_chains(tau_w)
    l_lambda = _shape_numbers(chains, i_thick)[0]
    target = tau_w.n - i_thick - l_lambda
    bounded = f_only and 0 <= target < top
    buckets = _path_systems(chains, i_thick, target if bounded else top, shift)
    if bounded and not any(buckets):
        buckets = _path_systems(chains, i_thick, top, shift)
    lowest = next((k for k, m in enumerate(buckets) if m), None)
    if lowest is None:
        raise InconsistentIndexing("window determinant vanished identically")
    if lowest != target:
        raise InconsistentIndexing(
            f"lowest surviving t-power {lowest} but l(lambda)={l_lambda} "
            f"predicts {target}"
        )
    return l_lambda, buckets


def _window_weight(n: int, window: tuple[int, int], thickness: int) -> WeightVector:
    """The weight of every term of the window determinant, the sum over
    k < thickness of alpha_{a+k} + ... + alpha_{b-1-k} (module docstring):
    alpha_m is in the roots with k <= min(m - a, b - 1 - m), so its
    coefficient is max(0, min(thickness, m - a + 1, b - m)). As
    2*thickness <= b - a + 1, that is a trapezoid: zeros up to alpha_{a-1},
    1 .. I-1 rising, I from alpha_{a+I-1} to alpha_{b-I}, I-1 .. 1 falling
    and zeros from alpha_b on."""
    a, b = window
    rise = tuple(range(1, thickness))
    return WeightVector._raw(
        (0,) * (a - 1) + rise + (thickness,) * (b - a + 2 - 2 * thickness)
        + rise[::-1] + (0,) * (n - b)
    )


def generator_report(d: HypersurfaceDescriptor) -> GeneratorReport:
    """Window determinant, coefficient ladder, and the candidate equation f.

    The determinant of the window matrix is sum of m_j t^(size-I-j) for
    j = I .. size-I; the generator is the coefficient of the lowest power
    of t that survives, which must be m_{l(lambda)} or the indexing is
    inconsistent (InconsistentIndexing). It walks d.window_problem,
    (tau.restrict(a, b), I), naming each variable in d's coordinates.
    """
    # bucket k holds t^k, so m_j for j = I, I+1, .. is bucket top, top-1, ..
    l_lambda, buckets = _ladder(*d.window_problem, d.window[0] - 1)
    return GeneratorReport(
        m_sequence=tuple(
            enumerate(map(MultiPoly._raw, reversed(buckets)), start=d.thickness)
        ),
        l_lambda=l_lambda,
        weight=_window_weight(d.n, d.window, d.thickness),
        window=d.window,
        thickness=d.thickness,
    )


def _generator(tau_w: TauSet, i_thick: int, shift: int = 0) -> MultiPoly:
    """f of the window problem (tau_w, i_thick), variables shifted by
    shift, from the path systems with at most f's count of t's; it raises
    generator_report's InconsistentIndexing, word for word."""
    l_lambda, buckets = _ladder(tau_w, i_thick, shift, f_only=True)
    return MultiPoly._raw(buckets[tau_w.n - i_thick - l_lambda])


def _descriptor_generator(d: HypersurfaceDescriptor) -> MultiPoly:
    """generator_report(d).f, walking only f's path systems."""
    return _generator(*d.window_problem, d.window[0] - 1)


def lemma2_threshold(
    tau, n: int, window: tuple[int, int], thickness: int
) -> tuple[int, list[tuple[int, bool]]]:
    """The cutoff l(lambda) and, per index j, whether m_j vanishes.

    Returns (l_lambda, [(j, is_zero), ...]) for j = thickness .. size-thickness.
    The expected pattern is nonzero up to l(lambda) and zero beyond it;
    any window is accepted, and the pattern is reported, not checked.
    """
    tau, a, b = _corner(tau, n, window, thickness)
    chains = _tau_chains(tau.restrict(a, b))
    buckets = _path_systems(chains, thickness, b - a + 1 - 2 * thickness, 0)
    flags = [(j, not m) for j, m in enumerate(reversed(buckets), start=thickness)]
    return _shape_numbers(chains, thickness)[0], flags


@dataclass(frozen=True)
class CharPoly:
    """Product of root-lattice weights cutting out the component."""

    factors: tuple[WeightVector, ...]

    def multiset(self) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for w in self.factors:
            out[w.coeffs] = out.get(w.coeffs, 0) + 1
        return out

    def __str__(self) -> str:
        pieces = []
        for w in self.factors:
            s = str(w)
            pieces.append(f"({s})" if " + " in s or " - " in s else s)
        return " * ".join(pieces)

    def to_json(self) -> list[list[int]]:
        return [w.to_json() for w in self.factors]


def char_poly(d: HypersurfaceDescriptor) -> CharPoly:
    """Factor multiset: one linear weight per root forced to zero by tau,
    plus the weight of the non-linear generator f, which is the weight of
    its window (generator_report's weight). The factor count always equals
    the codimension of the component.

    The factors run by height, their coefficient sum, then by their first
    simple root; a root alpha_u + ... + alpha_v has height v - u + 1 and
    starts at u, and wt(f), of height I*(size - I) with size = b - a + 1
    (the sum of its thickness roots, of heights size - 1, size - 3, ..),
    starts at a.
    Height and start name a root, so this is the order of the key
    (coefficient sum, first nonzero index, coefficients). No root ties
    wt(f): a root that starts at a lies in a's chain, d.prev_chain, of
    length I, so its height is at most I - 1, below I*(size - I) as
    size >= 2*I."""
    rank = d.n - 1
    (a, b), i_thick = d.window, d.thickness
    roots = sorted((v - u + 1, u, v) for u, v in d.tau.positive_roots)
    factors = [WeightVector.root(u, v, rank) for _, u, v in roots]
    at = bisect(roots, (i_thick * (b - a + 1 - i_thick), a))
    factors.insert(at, _window_weight(d.n, d.window, i_thick))
    codim = d.n * (d.n - 1) // 2 - variety_dim(d.tableau.shape, d.n)
    if len(factors) != codim:
        raise InconsistentIndexing(
            f"{len(factors)} factors but the codimension is {codim}"
        )
    return CharPoly(tuple(factors))

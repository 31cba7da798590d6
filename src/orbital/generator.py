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
Richardson tableau projected to the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BadWindow, InconsistentIndexing
from .hypersurface import HypersurfaceDescriptor
from .polyalg import (
    MultiPoly,
    PolyMatrix,
    WeightVector,
    determinant,
    t_coefficient,
    t_poly,
    weight_of,
    x,
)
from .projections import projected_shape
from .tableaux import TauSet, _as_tau, richardson_tableau, variety_dim


def generic_richardson_matrix(tau, n: int) -> PolyMatrix:
    """Generic strictly upper triangular point of m_tau, as symbols.

    Entry (k, l) with k < l is x_{kl} unless the root
    alpha_k + ... + alpha_{l-1} is supported inside a run of tau; those
    positions vanish identically on every component with this tau.
    """
    tau = _as_tau(tau, n)
    zero = MultiPoly.zero()
    rows = []
    for k in range(1, n + 1):
        row = []
        for l in range(1, n + 1):
            if k < l and not tau.contains_root(k, l - 1):
                row.append(x(k, l))
            else:
                row.append(zero)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def cmin_window(tau, n: int, window: tuple[int, int], thickness: int) -> PolyMatrix:
    """Top-right corner of x_R + t*id restricted to the window.

    With a <= b the window and size = b - a + 1, the corner keeps rows
    a .. b-thickness and columns a+thickness .. b of the restriction, a
    square matrix of side size - thickness. Diagonal positions r == c hold
    t, positions below them vanish, and positions above hold x_{rc} when
    free under tau.
    """
    tau = _as_tau(tau, n)
    a, b = window
    if not 1 <= a <= b <= n:
        raise BadWindow(f"window [{a}, {b}] outside 1..{n}")
    size = b - a + 1
    if thickness < 1 or size - 2 * thickness < 0:
        raise BadWindow(
            f"thickness {thickness} too large for window of size {size}"
        )
    zero = MultiPoly.zero()
    t = t_poly()
    rows = []
    for r in range(a, b - thickness + 1):
        row = []
        for c in range(a + thickness, b + 1):
            if r == c:
                row.append(t)
            elif r < c and not tau.contains_root(r, c - 1):
                row.append(x(r, c))
            else:
                row.append(zero)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


@dataclass(frozen=True)
class GeneratorReport:
    """The window determinant unpacked: all m_j, the generator, its weight."""

    f: MultiPoly
    m_sequence: tuple[tuple[int, MultiPoly], ...]
    l_lambda: int
    weight: WeightVector
    window: tuple[int, int]
    thickness: int

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "thickness": self.thickness,
            "l_lambda": self.l_lambda,
            "f": self.f.to_json(),
            "weight": self.weight.to_json(),
            "m_sequence": [
                {"j": j, "poly": m.to_json()} for j, m in self.m_sequence
            ],
        }


def _window_ladder(tau, n: int, window: tuple[int, int], thickness: int, richardson):
    """l(lambda) over the Richardson tableau's shape, and the ladder of
    (j, m_j) for j = thickness .. size-thickness. The ladder covers every
    power of t in the window determinant, t^0 .. t^(size-2*thickness)."""
    a, b = window
    size = b - a + 1
    det = determinant(cmin_window(tau, n, window, thickness))
    shape = projected_shape(richardson, a, b)
    l_lambda = sum(shape.part(k) for k in range(1, thickness + 1)) - thickness
    ladder = tuple(
        (j, t_coefficient(det, size - thickness - j))
        for j in range(thickness, size - thickness + 1)
    )
    return l_lambda, ladder


@lru_cache(maxsize=128)
def generator_report(d: HypersurfaceDescriptor) -> GeneratorReport:
    """Window determinant, coefficient ladder, and the candidate equation f.

    The determinant of the window matrix is sum of m_j t^(size-I-j) for
    j = I .. size-I; the generator is the coefficient of the lowest power
    of t that survives, which must be m_{l(lambda)} or the indexing is
    inconsistent (InconsistentIndexing).
    """
    a, b = d.window
    size = b - a + 1
    i_thick = d.thickness
    l_lambda, m_sequence = _window_ladder(
        d.tau, d.n, d.window, i_thick, d.richardson
    )
    nonzero = [j for j, m in m_sequence if not m.is_zero]
    if not nonzero:
        raise InconsistentIndexing("window determinant vanished identically")
    lowest = size - i_thick - max(nonzero)
    if lowest != size - i_thick - l_lambda:
        raise InconsistentIndexing(
            f"lowest surviving t-power {lowest} but l(lambda)={l_lambda} "
            f"predicts {size - i_thick - l_lambda}"
        )
    f = m_sequence[l_lambda - i_thick][1]
    return GeneratorReport(
        f=f,
        m_sequence=m_sequence,
        l_lambda=l_lambda,
        weight=weight_of(f, rank=d.n - 1),
        window=d.window,
        thickness=i_thick,
    )


def lemma2_threshold(
    tau, n: int, window: tuple[int, int], thickness: int
) -> tuple[int, list[tuple[int, bool]]]:
    """The cutoff l(lambda) and, per index j, whether m_j vanishes.

    Returns (l_lambda, [(j, is_zero), ...]) for j = thickness .. size-thickness.
    The expected pattern is nonzero up to l(lambda) and zero beyond it.
    """
    tau = _as_tau(tau, n)
    l_lambda, ladder = _window_ladder(
        tau, n, window, thickness, richardson_tableau(tau, n)
    )
    return l_lambda, [(j, m.is_zero) for j, m in ladder]


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


def char_poly(
    d: HypersurfaceDescriptor, report: GeneratorReport | None = None
) -> CharPoly:
    """Factor multiset: one linear weight per root forced to zero by tau,
    plus the weight of the non-linear generator f. The factor count always
    equals the codimension of the component."""
    if report is None:
        report = generator_report(d)
    rank = d.n - 1
    factors = [WeightVector.root(u, v, rank) for u, v in d.tau.positive_roots()]
    factors.append(report.weight)
    factors.sort(
        key=lambda w: (
            sum(w.coeffs),
            next((k for k, c in enumerate(w.coeffs) if c), len(w.coeffs)),
            w.coeffs,
        )
    )
    codim = d.n * (d.n - 1) // 2 - variety_dim(d.tableau.shape, d.n)
    if len(factors) != codim:
        raise InconsistentIndexing(
            f"{len(factors)} factors but the codimension is {codim}"
        )
    return CharPoly(tuple(factors))

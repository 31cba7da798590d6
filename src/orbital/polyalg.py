"""Exact sparse multivariate polynomials, weights, and symbolic matrices.

Variables are matrix coordinates x_{ij} (carried as the pair (i, j)) plus
one distinguished scalar t. A monomial is a canonical tuple of
(variable, exponent) pairs sorted with the x's first, ordered by position,
and t last; a polynomial maps monomials to arbitrary-precision integer
coefficients. Coefficients never overflow and nothing is ever floated.

The weight of x_{ij} is the root-lattice vector alpha_i + ... + alpha_{j-1};
t is weight-neutral. Weight-homogeneous polynomials (every construction in
this package) therefore have a single well-defined weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import (
    MissingVariable,
    NotHomogeneousWeight,
    NotSquare,
    ZeroPolynomial,
)

T_VAR = "t"
VarId = Union[tuple[int, int], str]
Monomial = tuple[tuple[VarId, int], ...]


def _var_key(var: VarId) -> tuple[int, int, int]:
    if var == T_VAR:
        return (1, 0, 0)
    i, j = var  # type: ignore[misc]
    return (0, i, j)


def _mono(pairs: Iterable[tuple[VarId, int]]) -> Monomial:
    acc: dict[VarId, int] = {}
    for var, e in pairs:
        if e:
            acc[var] = acc.get(var, 0) + e
    return tuple(
        sorted(((v, e) for v, e in acc.items() if e), key=lambda p: _var_key(p[0]))
    )


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return _mono(list(a) + list(b))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class MultiPoly:
    """Sparse polynomial: dict from canonical monomial to nonzero int."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not coeff:
                    continue
                mono = _mono(mono)
                c = clean.get(mono, 0) + coeff
                if c:
                    clean[mono] = c
                elif mono in clean:
                    del clean[mono]
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "MultiPoly":
        """Internal: terms already canonical and free of zeros."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, var: VarId) -> "MultiPoly":
        if var != T_VAR:
            i, j = var  # type: ignore[misc]
            if not (isinstance(i, int) and isinstance(j, int)):
                raise ValueError(f"matrix variable must be an int pair, got {var!r}")
        return cls._raw({((var, 1),): 1})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        return max((_mono_degree(m) for m in self.terms), default=-1)

    def degree_in(self, var: VarId) -> int:
        best = 0
        for mono in self.terms:
            for v, e in mono:
                if v == var and e > best:
                    best = e
        return best

    def variables(self) -> list[VarId]:
        seen = {v for mono in self.terms for v, _ in mono}
        return sorted(seen, key=_var_key)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        other = _coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "MultiPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        if isinstance(other, int):
            if not other:
                return MultiPoly.zero()
            return MultiPoly._raw({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return MultiPoly._raw(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for mono in sorted(self.terms, key=_print_key):
            exps = {}
            for var, e in mono:
                key = T_VAR if var == T_VAR else f"{var[0]},{var[1]}"
                exps[key] = e
            out.append({"coeff": str(self.terms[mono]), "exps": exps})
        return out

    @classmethod
    def from_json(cls, data: list[dict]) -> "MultiPoly":
        terms: dict[Monomial, int] = {}
        for item in data:
            pairs: list[tuple[VarId, int]] = []
            for key, e in item["exps"].items():
                if key == T_VAR:
                    pairs.append((T_VAR, int(e)))
                else:
                    i, j = key.split(",")
                    pairs.append(((int(i), int(j)), int(e)))
            mono = _mono(pairs)
            terms[mono] = terms.get(mono, 0) + int(item["coeff"])
        return cls(terms)


def _coerce(p: MultiPoly | int) -> MultiPoly:
    return MultiPoly.const(p) if isinstance(p, int) else p


def x(i: int, j: int) -> MultiPoly:
    """The coordinate polynomial x_{ij}."""
    return MultiPoly.variable((i, j))


def t_poly() -> MultiPoly:
    """The scalar variable t."""
    return MultiPoly.variable(T_VAR)


# -- printing -----------------------------------------------------------------


def _var_str(var: VarId) -> str:
    if var == T_VAR:
        return "t"
    i, j = var  # type: ignore[misc]
    return f"x{i}{j}" if i <= 9 and j <= 9 else f"x{i},{j}"


def _print_key(mono: Monomial):
    word = tuple(_var_key(v) for v, e in mono for _ in range(e))
    return (-_mono_degree(mono), word)


def format_poly(p: MultiPoly) -> str:
    """Graded-lex rendering: higher degree first, t after all the x's."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for mono in sorted(p.terms, key=_print_key):
        c = p.terms[mono]
        factors = []
        for var, e in mono:
            factors.append(_var_str(var) + (f"^{e}" if e > 1 else ""))
        body = "*".join(factors)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# -- evaluation and slicing -----------------------------------------------------


def poly_eval(p: MultiPoly, assignment: Mapping[VarId, int], prime: int) -> int:
    """The value of p at the integer assignment, in GF(prime): an int in
    [0, prime).

    Every variable of p must be present in the assignment; anything
    missing raises MissingVariable rather than silently defaulting.
    """
    total = 0
    for mono, coeff in p.terms.items():
        val = coeff
        for var, e in mono:
            if var not in assignment:
                raise MissingVariable(f"no value for {_var_str(var)}")
            val = val * pow(assignment[var], e, prime) % prime
        total += val
    return total % prime


def t_coefficient(p: MultiPoly, k: int) -> MultiPoly:
    """Coefficient polynomial of t^k, with t stripped from the monomials."""
    out: dict[Monomial, int] = {}
    for mono, c in p.terms.items():
        te = 0
        rest: list[tuple[VarId, int]] = []
        for var, e in mono:
            if var == T_VAR:
                te = e
            else:
                rest.append((var, e))
        if te == k:
            out[tuple(rest)] = c
    return MultiPoly._raw(out)


# -- weights --------------------------------------------------------------------


@dataclass(frozen=True)
class WeightVector:
    """Integer vector over the simple roots alpha_1 .. alpha_rank."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, rank: int) -> "WeightVector":
        return cls((0,) * rank)

    @classmethod
    def simple(cls, i: int, rank: int) -> "WeightVector":
        if not 1 <= i <= rank:
            raise ValueError(f"alpha_{i} outside rank {rank}")
        return cls(tuple(1 if k == i else 0 for k in range(1, rank + 1)))

    @classmethod
    def root(cls, u: int, v: int, rank: int) -> "WeightVector":
        """alpha_u + alpha_{u+1} + ... + alpha_v."""
        if not 1 <= u <= v <= rank:
            raise ValueError(f"alpha({u},{v}) outside rank {rank}")
        return cls(tuple(1 if u <= k <= v else 0 for k in range(1, rank + 1)))

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if self.rank != other.rank:
            raise ValueError("weight vectors of different ranks")
        return WeightVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs, start=1):
            if not c:
                continue
            parts.append(f"a{k}" if c == 1 else f"{c}a{k}")
        return " + ".join(parts)

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def weight_of(p: MultiPoly, rank: int | None = None) -> WeightVector:
    """Common weight of all monomials of p; t counts as weight zero.

    The rank defaults to the largest column index seen minus one. A zero
    polynomial raises ZeroPolynomial; mixed weights raise
    NotHomogeneousWeight with both offending vectors named.
    """
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no weight")
    if rank is None:
        cols = [v[1] for v in p.variables() if v != T_VAR]
        rank = max(cols, default=1) - 1
    monos = iter(p.terms)
    wt = _mono_weight(next(monos), rank)
    for mono in monos:
        vec = _mono_weight(mono, rank)
        if wt != vec:
            raise NotHomogeneousWeight(f"monomial weights differ: {wt} vs {vec}")
    return WeightVector(wt)


def _mono_weight(mono: Monomial, rank: int) -> tuple[int, ...]:
    coords = [0] * rank
    for var, e in mono:
        if var == T_VAR:
            continue
        i, j = var  # type: ignore[misc]
        if not 1 <= i < j <= rank + 1:
            raise ValueError(f"variable {_var_str(var)} outside rank {rank}")
        for a in range(i, j):
            coords[a - 1] += e
    return tuple(coords)


# -- symbolic matrices ------------------------------------------------------------


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of polynomials."""

    entries: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(_coerce(e) for e in row) for row in self.entries
        )
        object.__setattr__(self, "entries", rows)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, j: int) -> MultiPoly:
        """1-indexed access."""
        return self.entries[i - 1][j - 1]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.ncols} columns into {other.nrows} rows")
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = MultiPoly.zero()
                for k in range(self.ncols):
                    a = self.entries[i][k]
                    if a.is_zero:
                        continue
                    b = other.entries[k][j]
                    if b.is_zero:
                        continue
                    acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return PolyMatrix(tuple(rows))

    def power(self, k: int) -> "PolyMatrix":
        if self.nrows != self.ncols:
            raise NotSquare("powers need a square matrix")
        if k < 1:
            raise ValueError("power must be at least 1")
        out = self
        for _ in range(k - 1):
            out = out @ self
        return out

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "PolyMatrix":
        """1-indexed row and column selections."""
        return PolyMatrix(
            tuple(
                tuple(self.entries[r - 1][c - 1] for c in cols) for r in rows
            )
        )

    def top_right(self, size: int) -> "PolyMatrix":
        return self.submatrix(
            range(1, size + 1), range(self.ncols - size + 1, self.ncols + 1)
        )

    def __str__(self) -> str:
        cells = [[format_poly(e) for e in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=0)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact symbolic determinant by Laplace expansion along rows in order.

    The row to expand is n minus the number of unused columns, so each
    sub-determinant is memoized on the bitmask of its unused columns. The
    sign starts at + and flips at each unused column passed. Terms are
    summed exactly and may cancel, as remark_check's power minors do; the
    tests use it as the oracle for the generator's path systems, which
    never cancel.
    """
    if m.nrows != m.ncols:
        raise NotSquare(f"determinant of a {m.nrows}x{m.ncols} matrix")
    n = m.nrows
    ent = m.entries
    memo: dict[int, MultiPoly] = {0: MultiPoly.const(1)}

    def det(unused: int) -> MultiPoly:
        hit = memo.get(unused)
        if hit is not None:
            return hit
        row = ent[n - unused.bit_count()]
        acc, sign = MultiPoly.zero(), 1
        for c in range(n):
            if unused >> c & 1:
                if not row[c].is_zero:
                    term = row[c] * det(unused ^ 1 << c)
                    acc = acc + term if sign > 0 else acc - term
                sign = -sign
        memo[unused] = acc
        return acc

    return det((1 << n) - 1)

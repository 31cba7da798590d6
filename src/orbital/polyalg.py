"""Exact sparse multivariate polynomials, weights, and symbolic matrices.

Variables are matrix coordinates x_{ij} (carried as the pair (i, j)) plus
one distinguished scalar t. A monomial is a canonical tuple of
(variable, exponent) pairs sorted with the x's first, ordered by position,
and t last; a polynomial maps monomials to arbitrary-precision integer
coefficients. Coefficients never overflow and nothing is ever floated.

determinant packs each monomial into one int internally, with a bit field
per variable, so multiplying two monomials is adding two ints; what it
returns is an ordinary MultiPoly. PolyMatrix is dense: power(k) and
top_right(r) build the remark's power minor (remark_minor), which the
tests expand with determinant.

The weight of x_{ij} is the root-lattice vector alpha_i + ... + alpha_{j-1};
t is weight-neutral. Weight-homogeneous polynomials (every construction in
this package) therefore have a single well-defined weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Mapping, TypeVar, Union

from .errors import (
    BadExponent,
    BadProbeInput,
    BadRange,
    BadVariable,
    BadWeight,
    MissingVariable,
    NotSquare,
)

T_VAR = "t"
VarId = Union[tuple[int, int], str]
Monomial = tuple[tuple[VarId, int], ...]
Label = TypeVar("Label")


def _var_key(var: VarId) -> tuple[int, int, int]:
    if var == T_VAR:
        return (1, 0, 0)
    i, j = var  # type: ignore[misc]
    return (0, i, j)


def _mono(pairs: Iterable[tuple[VarId, int]]) -> Monomial:
    """The canonical monomial: exponents summed per variable, zeros dropped,
    the (i, j) pairs in plain tuple order and t last, which is _var_key's
    order without a key call per pair."""
    acc: dict[VarId, int] = {}
    for var, e in pairs:
        if e:
            acc[var] = acc.get(var, 0) + e
    te = acc.pop(T_VAR, 0)
    out = sorted((v, e) for v, e in acc.items() if e)
    if te:
        out.append((T_VAR, te))
    return tuple(out)


def _checked_mono(pairs: Iterable[tuple[VarId, int]]) -> Monomial:
    """_mono of pairs from a caller, whose exponents must be non-negative
    integers; determinant's packed keys have room for nothing else."""
    pairs = tuple(pairs)
    for var, e in pairs:
        if type(e) is not int or e < 0:
            raise BadExponent(
                f"exponent of {var!r} must be a non-negative integer, got {e!r}"
            )
    return _mono(pairs)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return _mono(a + b)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class MultiPoly:
    """Sparse polynomial: dict from canonical monomial to nonzero int."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = _checked_mono(mono)
                if not _int_coeff(coeff):
                    continue
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
        return cls._raw({(): c} if _int_coeff(c) else {})

    @classmethod
    def variable(cls, var: VarId) -> "MultiPoly":
        if var != T_VAR and not (
            type(var) is tuple and len(var) == 2 and type(var[0]) is type(var[1]) is int
        ):
            raise BadVariable(f"matrix variable must be an int pair, got {var!r}")
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
        out: dict[Monomial, int] = {}
        _add_product(out, self.terms, _coerce(other).terms)
        return _nonzero(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
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
        order, exp = _print_order(self.terms, _json_exp)
        return _json_terms(self.terms, order, exp.__getitem__)

    @classmethod
    def from_json(cls, data: list[dict]) -> "MultiPoly":
        terms: dict[Monomial, int] = {}
        for item in data:
            pairs: list[tuple[VarId, int]] = []
            for key, e in item["exps"].items():
                if key == T_VAR:
                    pairs.append((T_VAR, e))
                else:
                    i, j = key.split(",")
                    pairs.append(((int(i), int(j)), e))
            mono = tuple(pairs)
            terms[mono] = terms.get(mono, 0) + int(item["coeff"])
        return cls(terms)


def _add_product(
    acc: dict[Monomial, int],
    a: Mapping[Monomial, int],
    b: Mapping[Monomial, int],
) -> None:
    """acc += a * b on term dicts; cancelled terms stay in acc as zeros
    until _nonzero drops them."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2


def _nonzero(acc: dict[Monomial, int]) -> MultiPoly:
    return MultiPoly._raw({m: c for m, c in acc.items() if c})


def _coerce(p: MultiPoly | int) -> MultiPoly:
    if type(p) is int:
        return MultiPoly.const(p)
    if not isinstance(p, MultiPoly):
        raise TypeError(f"expected an int or a MultiPoly, got {p!r}")
    return p


def _int_coeff(c: int) -> int:
    """c if it is an int and no bool, as MultiPoly and WeightVector need."""
    if type(c) is not int:
        raise ValueError(f"coefficients must be ints, got {c!r}")
    return c


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


def _json_exp(var: VarId, e: int) -> tuple[str, int]:
    return (T_VAR if var == T_VAR else f"{var[0]},{var[1]}", e)


class _JsonNames(dict):
    """(var, e) -> _json_exp(var, e), each pair named on its first lookup,
    for serializers that name the variables of many polynomials once."""

    def __missing__(self, pair: tuple[VarId, int]) -> tuple[str, int]:
        name = self[pair] = _json_exp(*pair)
        return name


def _json_terms(
    terms: Mapping[Monomial, int],
    order: Iterable[Monomial],
    name: Callable[[tuple[VarId, int]], tuple[str, int]],
) -> list[dict]:
    """The JSON term list of terms, one {"coeff", "exps"} per monomial of
    order, each (var, e) pair named by name: MultiPoly.to_json's, and
    GeneratorReport.to_json's on terms already in print order."""
    return [{"coeff": str(terms[mono]), "exps": dict(map(name, mono))} for mono in order]


def _factor_str(var: VarId, e: int) -> str:
    return _var_str(var) + (f"^{e}" if e > 1 else "")


def _print_order(
    terms: Mapping[Monomial, int], label: Callable[[VarId, int], Label]
) -> tuple[list[Monomial], dict[tuple[VarId, int], Label]]:
    """The monomials of terms in graded-lex order, and label(var, e) for
    every (var, e) pair they contain.

    Higher degree comes first; within a degree, monomials compare as the
    words listing each variable e times, in _var_key order. Each variable
    is ranked once, and a monomial's word is its run of ranks, so the
    order is exactly that of the _var_key words. The path-system walk
    emits its buckets already in this order, so their sort is linear.
    """
    pairs = {p for mono in terms for p in mono}
    variables = sorted({v for v, _ in pairs}, key=_var_key)
    rank = {v: k for k, v in enumerate(variables)}
    word = {p: (rank[p[0]],) * p[1] for p in pairs}
    runs = word.__getitem__

    def key(mono: Monomial):
        w = tuple(chain.from_iterable(map(runs, mono)))
        return (-len(w), w)

    return sorted(terms, key=key), {p: label(*p) for p in pairs}


def format_poly(p: MultiPoly) -> str:
    """Graded-lex rendering: higher degree first, t after all the x's."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    order, factor = _print_order(p.terms, _factor_str)
    for mono in order:
        c = p.terms[mono]
        body = "*".join(map(factor.__getitem__, mono))
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
    [0, prime). prime may be any modulus of at least 1, such as the
    product of primes a verify trial evaluates f modulo; one that is not
    an int, is a bool or is below 1 raises BadProbeInput, and so does a
    value of p's variables that is not an int, or is a bool.

    Every variable of p must be present in the assignment; anything
    missing raises MissingVariable rather than silently defaulting.
    """
    if not isinstance(prime, int) or isinstance(prime, bool) or prime < 1:
        raise BadProbeInput(f"modulus {prime!r} is not an int of at least 1")
    total = 0
    for mono, coeff in p.terms.items():
        val = coeff
        for var, e in mono:
            v = assignment.get(var)
            if type(v) is not int:
                if var not in assignment:
                    raise MissingVariable(f"no value for {_var_str(var)}")
                raise BadProbeInput(f"value {v!r} of {_var_str(var)} is not an int")
            val = val * (v if e == 1 else pow(v, e, prime)) % prime
        total += val
    return total % prime


def t_coefficient(p: MultiPoly, k: int) -> MultiPoly:
    """Coefficient polynomial of t^k, with t stripped from the monomials;
    BadExponent when k is not an int or is a bool."""
    if type(k) is not int:
        raise BadExponent(f"power of t must be an int, got {k!r}")
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
        object.__setattr__(self, "coeffs", tuple(map(_int_coeff, self.coeffs)))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @classmethod
    def _raw(cls, coeffs: tuple[int, ...]) -> "WeightVector":
        """Internal: coeffs already a tuple of ints, so __post_init__'s
        check is skipped."""
        w = object.__new__(cls)
        object.__setattr__(w, "coeffs", coeffs)
        return w

    @classmethod
    def zero(cls, rank: int) -> "WeightVector":
        if not (type(rank) is int and rank >= 0):
            raise BadWeight(f"rank {rank!r} is not a nonnegative int")
        return cls._raw((0,) * rank)

    @classmethod
    def simple(cls, i: int, rank: int) -> "WeightVector":
        if not (type(i) is type(rank) is int and 1 <= i <= rank):
            raise BadWeight(f"alpha_{i!r} outside rank {rank!r}")
        return cls._raw((0,) * (i - 1) + (1,) + (0,) * (rank - i))

    @classmethod
    def root(cls, u: int, v: int, rank: int) -> "WeightVector":
        """alpha_u + alpha_{u+1} + ... + alpha_v."""
        if not (type(u) is type(v) is type(rank) is int and 1 <= u <= v <= rank):
            raise BadWeight(f"alpha({u!r},{v!r}) outside rank {rank!r}")
        return cls._raw((0,) * (u - 1) + (1,) * (v - u + 1) + (0,) * (rank - v))

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if self.rank != other.rank:
            raise BadWeight(f"weight vectors of different ranks {self.rank} and {other.rank}")
        return WeightVector._raw(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

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
        """1-indexed access; an index outside 1..nrows or 1..ncols raises
        BadRange."""
        if not (type(i) is type(j) is int and 1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise BadRange(
                f"entry indices must be ints in 1..{self.nrows} and 1..{self.ncols},"
                f" got ({i!r}, {j!r})"
            )
        return self.entries[i - 1][j - 1]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product; each entry's terms are summed in one dict."""
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.ncols} columns into {other.nrows} rows")
        ent = other.entries
        out = []
        for row in self.entries:
            nonzero = [(a.terms, ent[k]) for k, a in enumerate(row) if a.terms]
            prods = []
            for j in range(other.ncols):
                acc: dict[Monomial, int] = {}
                for a, brow in nonzero:
                    _add_product(acc, a, brow[j].terms)
                prods.append(_nonzero(acc))
            out.append(tuple(prods))
        return PolyMatrix(tuple(out))

    def power(self, k: int) -> "PolyMatrix":
        if self.nrows != self.ncols:
            raise NotSquare("powers need a square matrix")
        if type(k) is not int or k < 1:
            raise BadExponent(f"power must be an int of at least 1, got {k!r}")
        out = self
        for _ in range(k - 1):
            out = out @ self
        return out

    def top_right(self, size: int) -> "PolyMatrix":
        """Rows 1..size and the last size columns; a size outside
        1..min(nrows, ncols) raises BadRange."""
        n = min(self.nrows, self.ncols)
        if type(size) is not int or not 1 <= size <= n:
            raise BadRange(f"corner size must be an int in 1..{n}, got {size!r}")
        return PolyMatrix(tuple(row[self.ncols - size :] for row in self.entries[:size]))

    def __str__(self) -> str:
        cells = [[format_poly(e) for e in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=0)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact symbolic determinant by Laplace expansion along rows in order
    (_packed_det), on packed exponent keys.

    Terms are summed exactly and may cancel; the tests use it as the oracle
    for the generator's path systems, which never cancel, and to expand
    the remark's power minors (remark_minor) against f.

    The entries' variables, in _var_key order, each get a field of
    w = max(D, 1).bit_length() bits of one int, where D sums each row's
    largest entry degree. A sub-determinant's monomial takes one factor
    from each of its rows, so its degree, and with it every exponent it
    carries, is at most D < 2^w. No field can carry into the next, so
    adding two keys is exactly multiplying the two monomials. Only the
    final terms are unpacked. Keys share low and high halves, so each half
    is unpacked once (_Unpacked) and a monomial is the two halves joined,
    low field first, which is the canonical order.
    """
    if m.nrows != m.ncols:
        raise NotSquare(f"determinant of a {m.nrows}x{m.ncols} matrix")
    found: set[VarId] = set()
    degree = 0
    for row in m.entries:
        top = 0
        for e in row:
            for mono in e.terms:
                d = 0
                for v, x in mono:
                    found.add(v)
                    d += x
                if d > top:
                    top = d
        degree += top
    variables = sorted(found, key=_var_key)
    w = max(degree, 1).bit_length()
    shift = {v: k * w for k, v in enumerate(variables)}
    ent = [
        [
            {sum([x << shift[v] for v, x in mono]): c for mono, c in e.terms.items()}
            for e in row
        ]
        for row in m.entries
    ]
    half = len(variables) // 2
    cut = half * w
    low = (1 << cut) - 1
    lows = _Unpacked(variables[:half], w)
    highs = _Unpacked(variables[half:], w)
    return MultiPoly._raw(
        {lows[key & low] + highs[key >> cut]: c for key, c in _packed_det(ent).items()}
    )


def _packed_det(ent: list[list[dict[int, int]]]) -> dict[int, int]:
    """The determinant of a square matrix of packed-key term dicts, whose
    fields are wide enough for every exponent of the result, as packed
    terms without zeros.

    The row to expand is n minus the number of unused columns, so each
    sub-determinant is memoized on the bitmask of its unused columns. The
    sign starts at + and flips at each unused column passed.
    """
    n = len(ent)
    memo: dict[int, dict[int, int]] = {0: {0: 1}}

    def det(unused: int) -> dict[int, int]:
        hit = memo.get(unused)
        if hit is not None:
            return hit
        row = ent[n - unused.bit_count()]
        acc: dict[int, int] = {}
        get = acc.get
        sign = 1
        for c in range(n):
            if unused >> c & 1:
                if row[c]:
                    minor = det(unused ^ 1 << c)
                    for k1, c1 in row[c].items():
                        c1 *= sign
                        for k2, c2 in minor.items():
                            k = k1 + k2
                            acc[k] = get(k, 0) + c1 * c2
                sign = -sign
        memo[unused] = out = {k: c for k, c in acc.items() if c}
        return out

    return det((1 << n) - 1)


class _Unpacked(dict):
    """Packed key -> monomial over the given variables, one field of w bits
    each from the lowest; each key is unpacked on its first lookup."""

    def __init__(self, variables: list[VarId], w: int):
        self.variables = variables
        self.w = w

    def __missing__(self, key: int) -> Monomial:
        w = self.w
        mask = (1 << w) - 1
        mono = []
        rest = key
        while rest:
            s = (rest & -rest).bit_length() - 1
            s -= s % w
            x = rest >> s & mask
            mono.append((self.variables[s // w], x))
            rest ^= x << s
        self[key] = out = tuple(mono)
        return out

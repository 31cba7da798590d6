"""Finite-field sampling probes for the conjectured defining equation.

Symbolic identities are cheap to claim and expensive to trust. This module
samples actual matrices over large prime fields and checks per descriptor
that the candidate equation f vanishes on points of the component
(necessity) and that points of the hypersurface f = 0 inside the linear
span m_tau look like the component (matching Jordan type and window rank
bounds, a sufficiency surrogate). That f is not the zero function on
m_tau needs no sample: f is multilinear with coefficients +-1 and never
zero (the generator raises InconsistentIndexing when the window
determinant vanishes), and a nonzero multilinear polynomial is determined
by its values on {0, 1}^m, so it is a nonzero function over every GF(p).

Points of the component come from a Robinson-Schensted word: for the
involution w = rs_inverse(T, T), whose insertion and recording tableaux
are both T, the span of positions (a, b) with w(a) < w(b) meets the
component densely, and conjugating a random point U of that span by a
random invertible upper triangular B lands in general position. B need
not be drawn whole: B = D N0 with D diagonal and N0 unipotent, so
B U B^-1 = N' U' N'^-1 with N' = D N0 D^-1 uniform unipotent and
U' = D U D^-1 uniform on the span, independent of N'. So a uniform
unipotent N gives the same law, and N U N^-1 is solved without an
inverse. That makes the draw a ring computation, which verify_conjecture
does once per trial modulo M, the product of its primes: by the Chinese
remainder theorem a uniform draw mod M is an independent uniform draw mod
each prime, and reduction mod p is a ring map, so each prime's reduction
of the one point has the law of a point drawn over GF(p) alone.

The rest of a trial's ring arithmetic is done once modulo M as well, and
each prime only tests its residues for zero. f is evaluated once at the
variety point. Each prime keeps its own hypersurface stream. In one loop
(_hypersurface_lift), each round combines by CRT the next draw of every
prime still unsolved, evaluates the coefficients h and g of each
variable once mod M, and lets each of those primes solve for the first
variable with g % p != 0; a prime that solves keeps its draw, and the
others draw again in the next round. The one-prime sampler is that loop
with M = p. The hypersurface points are lifted by CRT to one matrix mod
M and swept once: the fraction-free elimination and the power carry use
only ring operations and branch only on whether an entry is zero, and an
entry that is 0 or a unit mod M is zero under every prime or under none.
So every prime takes the same branches and reads the same tables, unless
the elimination would take a pivot whose leading entry is not a unit:
the one fallback, where each prime sweeps its own point. For a single
prime M = p, and that never happens. Each prime's result, and so every
report, is exactly what that prime alone computes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, prod
from operator import gt, mul
from typing import Iterable, NamedTuple

from .errors import (
    BadExponent,
    BadProbeInput,
    BadRange,
    DegenerateSample,
    InconsistentIndexing,
    NotApplicable,
    NotNilpotent,
    NotSquare,
)
from .generator import _descriptor_generator, _shape_numbers, generic_richardson_matrix
from .hypersurface import HypersurfaceDescriptor
from .polyalg import PolyMatrix, poly_eval
from .rs import _recordings, rs_inverse
from .tableaux import Partition, StandardTableau, _tau_chains, dual_partition

DEFAULT_PRIME = 2147483647  # 2^31 - 1
SECOND_PRIME = 2147483629  # largest prime below it


@dataclass(frozen=True)
class FieldMatrix:
    """Square matrix over GF(prime); the entries are stored reduced. A
    modulus that check_modulus rejects, or an entry that is not an int or
    is a bool, raises BadProbeInput; rows that do not make a square raise
    NotSquare. The one exception to GF(prime) is the matrix over Z/M, M a
    product of distinct primes, that _reduced builds for the sweep of a
    whole verify trial (_hypersurface_lift)."""

    rows: tuple[tuple[int, ...], ...]
    prime: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        check_modulus(self.prime)
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise NotSquare(
                f"matrix must be square: {n} rows of lengths {[len(row) for row in self.rows]}"
            )
        for row in self.rows:
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise BadProbeInput(f"matrix entry {e!r} is not an int")
        rows = tuple(tuple(e % self.prime for e in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _reduced(cls, rows: list[list[int]], prime: int) -> "FieldMatrix":
        """The samplers' constructor: rows already square and reduced mod
        prime, so __post_init__'s checks and second reduction are skipped.
        The hypersurface loop (_hypersurface_lift) also builds a matrix
        over Z/M this way, M a product of distinct primes in place of
        prime, so verify_conjecture sweeps the points of all its primes at
        once."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", tuple(map(tuple, rows)))
        object.__setattr__(m, "prime", prime)
        return m

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """1-indexed access."""
        return self.rows[i - 1][j - 1]

    def is_strictly_upper(self) -> bool:
        return not any(any(row[: r + 1]) for r, row in enumerate(self.rows))

    @cached_property
    def _sweeps(self) -> list:
        """The _window_ranks table of each nonzero power X, X^2, ..., X^m.

        Stops at X^n, which is nonzero only when X is not nilpotent. The
        echelon basis of one power is carried to the next instead of
        forming X^(k+1): rows i..n of X^(k+1) are rows i..n of X^k times
        X, so the basis vectors that came in with rows i..n of X^k, times
        X, span the same space as rows i..n of X^(k+1). Each such product
        keeps its row index and goes in bottom-up. The leading columns of
        an echelon basis depend only on the space it spans, so every table
        is the one the rows of X^(k+1) would give, and a power costs
        rank(X^k) vector-matrix products and one insertion.
        """
        n, p = self.n, self.prime
        cols = list(zip(*self.rows))
        # column j of a strictly upper X vanishes from row j on, so the
        # product of a vector that vanishes before column c is 0 up to c
        upper = self.is_strictly_upper()
        pairs = [(i, row) for i, row in enumerate(self.rows) if any(row)]
        pairs.reverse()
        tables = []
        while pairs and len(tables) < n:
            table, basis = _window_ranks(pairs, n, p)
            tables.append(table)
            pairs = []
            for i, c, vec in basis:
                skip = c + 1 if upper else 0
                image = [0] * skip + [sum(map(mul, vec, col)) % p for col in cols[skip:]]
                if any(image):
                    pairs.append((i, image))
        return tables


# -- linear algebra over GF(p) (hot path) -----------------------------------------
#
# _window_ranks is the only elimination. Its table gives jordan_type the rank
# of each power of any square matrix, and check_power_rank the rank of every
# window of each power; only that last reading needs the matrix strictly
# upper. FieldMatrix._sweeps holds one table per nonzero power, built by
# carrying the echelon basis of X^k through one more factor of X, so
# jordan_type and check_power_rank share it and no power is ever formed as
# a matrix.


class _NonUnit(Exception):
    """_window_ranks met a new pivot whose leading entry is not a unit
    modulo its modulus: the primes of that modulus would eliminate
    differently."""


def _window_ranks(pairs, n: int, p: int) -> tuple[list, list]:
    """Inserts the (row index, vector) pairs, in decreasing row index, into
    an echelon basis of vectors of length n over GF(p), whose entries must
    already be reduced mod p. Returns (ranks, basis).

    p may also be a product M of distinct primes, for the sweep of a whole
    verify trial (_joint_trial). Raises _NonUnit when the leading entry v
    of a new pivot has gcd(v, p) != 1, which never happens for a prime p:
    a prime q that divides v would skip that column alone, and the primes'
    eliminations would part. A leading entry that is eliminated needs no
    check: where q divides v, e * row - v * vector is e * row mod q, a
    unit multiple of the row q alone keeps, and unit multiples leave every
    later zero test as it was.

    ranks[i][j] (0-indexed) is the number of pivots in columns <= j once
    every vector with row index >= i is in, for every 0 <= i, j < n; rows
    that add no pivot share the previous row's tuple. basis lists (row
    index, pivot column, vector) for each vector that added a pivot, in
    insertion order, the vector reduced against the earlier ones and so
    zero before its pivot column. len(basis) = ranks[0][n - 1] is the rank
    of the vectors. Reading ranks[i][j] as the rank of the window
    [i + 1, j + 1] of X^k needs X strictly upper (check_power_rank says
    why). Zero vectors are skipped.

    Elimination is fraction-free: a row whose leading entry v meets the
    basis vector with leading entry e becomes e * row - v * vector, so no
    inverse mod p is ever taken and no vector is rescaled.
    """
    pivots: dict[int, list[int]] = {}  # pivot column -> its basis vector
    basis = []
    counts = (0,) * n  # counts[j]: pivots in columns <= j so far
    ranks = [counts] * n
    for i, row in pairs:
        if not any(row):
            continue
        for c in range(n):
            v = row[c]
            if not v:
                continue
            vec = pivots.get(c)
            if vec is None:
                if gcd(v, p) != 1:
                    raise _NonUnit(f"leading entry {v} shares a factor with {p}")
                pivots[c] = row
                basis.append((i, c, row))
                counts = counts[:c] + tuple(k + 1 for k in counts[c:])
                ranks[: i + 1] = [counts] * (i + 1)
                break
            e = vec[c]
            row = [(a * e - v * b) % p for a, b in zip(row, vec)]
    return ranks, basis


# -- rank bounds and Jordan type -------------------------------------------------


def rank_bound(lam: Partition, k: int) -> int:
    """Boxes beyond column k: the rank ceiling for the k-th power of any
    matrix whose restriction has Jordan type at most lam."""
    if type(k) is not int:
        raise BadExponent(f"power must be an int, got {k!r}")
    if k < 0:
        raise BadExponent(f"power must be nonnegative, got {k}")
    return sum(p - k for p in lam.parts if p > k)


@lru_cache(maxsize=None)
def _shape_bounds(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """rank_bound(Partition(parts), k) for k = 1, ..., n - 1."""
    lam = Partition(parts)
    return tuple(rank_bound(lam, k) for k in range(1, n))


@lru_cache(maxsize=128)
def _rank_bounds(t: StandardTableau) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """bounds[k - 1][i - 1][j - 1] = rank_bound(projected_shape(t, i, j), k)
    for 1 <= k < n and i <= j, and 0 for j < i, laid out like the tables of
    FieldMatrix._sweeps. A strictly upper X^n vanishes, so n - 1 powers
    cover every table of such an X, and its rank tables hold 0 where j < i.

    Window [i, j] has the shape of the RS recording tableau of w(i), ...,
    w(j) for w = rs_inverse(t, t) (projections.project), so row i of every
    table comes from one insertion of the suffix w(i), ..., w(n), reading
    a shape after each letter.
    """
    n = t.n
    w = rs_inverse(t, t).images
    by_row = []  # by_row[i][k - 1]: the bound row of window row i + 1, power k
    for i in range(n):
        per_shape = [
            _shape_bounds(tuple(map(len, rec)), n) for _, rec in _recordings(w[i:])
        ]
        by_row.append([(0,) * i + row for row in zip(*per_shape)])
    return tuple(zip(*by_row))


def jordan_type(x: FieldMatrix) -> Partition:
    """Partition of the nilpotent x: dual parts are the kernel-dimension
    increments of successive powers. Raises NotNilpotent if X^n is nonzero.

    The rank of X^k is entry [1, n] of its table in FieldMatrix._sweeps,
    which counts every pivot and so needs no triangularity; check_power_rank
    reads the same tables. The sweeps stop at X^n, so a matrix that is not
    nilpotent costs at most n insertions."""
    n = x.n
    if n == 0:
        return Partition(())
    sweeps = x._sweeps
    ranks = [n] + [rk[0][-1] for rk in sweeps] + [0]
    if len(sweeps) == n:
        raise NotNilpotent(f"rank sequence stabilised at {ranks[-2]}")
    cols = tuple(ranks[k - 1] - ranks[k] for k in range(1, len(ranks)))
    return dual_partition(Partition(cols))


class Violation(NamedTuple):
    i: int
    j: int
    k: int
    rank: int
    bound: int


def check_power_rank(x: FieldMatrix, t: StandardTableau) -> list[Violation]:
    """Every window power-rank inequality for x against the tableau t.

    For each corner [i, j] and power k, the rank of the corner's k-th
    power may not exceed the bound from the shape of t projected to
    [i, j]. Returns all violations (empty list = consistent with t),
    ordered by i, then j, then k.

    The rank tables come from FieldMatrix._sweeps, one per nonzero power
    and shared with jordan_type; the bounds from _rank_bounds, one table
    per tableau laid out the same way. After the vectors of rows i..n of
    X^k are in, the rank of [i, j] is the number of pivots <= j. Strict
    upper triangularity makes this exact: the corner of X^k on [i, j] is
    the k-th power of X's corner; rows below j vanish in columns <= j and
    column i vanishes in rows >= i, so the corner has the rank of rows i..n
    cut to columns <= j; and that cut keeps exactly the basis vectors whose
    pivot is <= j, which stay independent because their pivots differ.
    All ranks are compared with their bounds at once; the windows are
    walked in order only to list the violations.
    """
    if not x.is_strictly_upper():
        raise NotApplicable("power-rank checks need a strictly upper matrix")
    n = x.n
    if n != t.n:
        raise NotApplicable(f"matrix size {n} vs tableau size {t.n}")
    ranks = x._sweeps
    bounds = _rank_bounds(t)
    flat = chain.from_iterable
    if not any(map(gt, flat(flat(ranks)), flat(flat(bounds)))):
        return []
    out: list[Violation] = []
    for i in range(n):
        for j in range(i, n):
            for k, (rk, bk) in enumerate(zip(ranks, bounds), start=1):
                r, bound = rk[i][j], bk[i][j]
                if r > bound:
                    out.append(Violation(i + 1, j + 1, k, r, bound))
    return out


# -- samplers --------------------------------------------------------------------


@lru_cache(maxsize=128)
def _word_span(t: StandardTableau) -> tuple[tuple[int, int], ...]:
    """The 0-indexed positions (a, b), a < b, with w(a) < w(b) for the
    involution w = rs_inverse(t, t), row by row: one word per tableau."""
    w = rs_inverse(t, t).images
    n = len(w)
    return tuple(
        (a, b) for a in range(n - 1) for b in range(a + 1, n) if w[a] < w[b]
    )


def _below(getrandbits, n: int) -> int:
    """A draw from [0, n), n >= 1, exactly as random.Random.randrange(n)
    makes it from the same generator (CPython's
    _randbelow_with_getrandbits), without randrange's argument handling;
    randrange(1, n) is 1 + _below(getrandbits, n - 1)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@lru_cache(maxsize=1)
def _variety_rows(t: StandardTableau, seed: str, modulus: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a random point N U N^-1 of the orbital variety labelled
    by t, entries in [0, modulus), for any modulus >= 2. The last draw is
    kept, so the primes of one verify trial reduce one draw.

    U fills the positions (a, b) with w(a) < w(b), for the involution
    w = rs_inverse(t, t), uniformly; N is uniform unipotent upper
    triangular (the module docstring says why that is B's law). X = N U
    N^-1 is the unique solution of X N = C with C = N U, and both C and X
    are strictly upper, so X is solved row by row by back-substitution:
    X[i][j] = C[i][j] - sum over i < k < j of X[i][k] N[k][j], as N[j][j]
    is 1. C[i][j] and the sum are each one dot product, of row i of N with
    the part of U's column j above the diagonal, and of the row solved so
    far with the same part of N's column j (its terms k <= i vanish). No
    inverse is taken, so the modulus need not be prime.
    """
    n = t.n
    bits = random.Random(f"variety:{seed}:{modulus}").getrandbits
    u = [[0] * n for _ in range(n)]
    for a, b in _word_span(t):
        u[a][b] = _below(bits, modulus)
    nmat = [[0] * n for _ in range(n)]
    for i in range(n):
        nmat[i][i] = 1
        for j in range(i + 1, n):
            nmat[i][j] = _below(bits, modulus)
    ucols = [col[:j] for j, col in enumerate(zip(*u))]
    ncols = [col[:j] for j, col in enumerate(zip(*nmat))]
    x = []
    for i, nrow in enumerate(nmat):
        row = [0] * n
        for j in range(i + 1, n):
            row[j] = (sum(map(mul, nrow, ucols[j])) - sum(map(mul, row, ncols[j]))) % modulus
        x.append(tuple(row))
    return tuple(x)


def sample_variety_point(
    t: StandardTableau, seed, prime: int = DEFAULT_PRIME, *, modulus: int | None = None
) -> FieldMatrix:
    """Random point of the orbital variety labelled by t, over GF(prime).

    The point is drawn modulo `modulus`, a multiple of prime that
    defaults to prime, and reduced mod prime (_variety_rows). Calls with
    the same t, seed and modulus reduce one point: verify_conjecture
    passes the product of its primes, so every prime of a trial sees its
    reduction of one draw. The result is strictly upper triangular with
    Jordan type at most shape(t), equal generically. Raises BadProbeInput
    for a prime that check_modulus rejects, or a modulus that is not an
    int multiple of it.
    """
    check_modulus(prime)
    if modulus is None:
        modulus = prime
    elif not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 1 or modulus % prime:
        raise BadProbeInput(f"modulus {modulus!r} is not a multiple of {prime}")
    rows = _variety_rows(t, f"{seed}", modulus)
    if modulus != prime:
        rows = [[e % prime for e in row] for row in rows]
    return FieldMatrix._reduced(rows, prime)


def sample_hypersurface_point(
    d: HypersurfaceDescriptor, seed, prime: int = DEFAULT_PRIME
) -> FieldMatrix:
    """Random point of {f = 0} inside the linear span m_tau.

    Draws the free coordinates uniformly, then solves f = 0 for one
    variable (_solve_draw): f is multilinear, so any variable whose linear
    coefficient is nonzero at the draw can absorb the constraint. Draws
    where every coefficient degenerates are rejected; fifty straight
    rejections raise DegenerateSample. This is _hypersurface_lift with the
    one prime, so M = p. Raises BadProbeInput for a modulus that
    check_modulus rejects.
    """
    check_modulus(prime)
    f = _descriptor_generator(d)
    z, degenerate = _hypersurface_lift(d, f, f.variables(), seed, (prime,))
    if degenerate:
        raise degenerate[prime]
    return z


def _solve_draw(f, fvars, vals: dict, primes, modulus: int) -> dict:
    """{p: (variable, value)} for each prime p under which the draw vals
    solves f = 0. vals holds a residue mod modulus, a multiple of every
    prime, at each free position; variable is the first whose linear
    coefficient is nonzero mod p, and value makes f vanish mod p there.

    f = g * var + h is multilinear in var, and h = f|var=0 and g =
    f|var=1 - h are evaluated once mod modulus for each variable in turn.
    Reduction mod p is a ring map, so h % p and g % p are what p alone
    would evaluate, and every prime of one modulus is solved at once.
    """
    solved: dict = {}
    for var in fvars:
        h = poly_eval(f, {**vals, var: 0}, prime=modulus)
        g = poly_eval(f, {**vals, var: 1}, prime=modulus) - h
        for p in primes:
            if p not in solved and g % p:
                solved[p] = var, -h * pow(g, -1, p) % p
        if len(solved) == len(primes):
            break
    return solved


@lru_cache(maxsize=16)
def _crt(primes: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(M, coefficients) for distinct primes of product M: the coefficient
    of p is 1 mod p and 0 mod every other prime, so the sum of r_p times
    it, mod M, is the one residue mod M that reduces to each r_p."""
    modulus = prod(primes)
    return modulus, tuple(modulus // p * pow(modulus // p, -1, p) for p in primes)


# -- the conjecture probes ---------------------------------------------------------


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Miller-Rabin with the bases above: exact for every p below 3.3e24."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        y = pow(a, d, p)
        if y == 1 or y == p - 1:
            continue
        for _ in range(s - 1):
            y = y * y % p
            if y == p - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> int:
    """p, if it is an int, not a bool, and an odd prime below 2**64 (where
    _is_prime is exact); raises BadProbeInput otherwise. The probes sample
    over GF(p). The type is checked before _is_prime's cache, which 7.0,
    True or an unhashable modulus would otherwise reach."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise BadProbeInput(f"modulus {p!r} is not an int")
    if p >= 2**64:
        raise BadProbeInput(f"modulus {p} is too large: it must be below 2**64")
    if p < 3 or not _is_prime(p):
        raise BadProbeInput(f"{p} is not an odd prime")
    return p


class Failure(NamedTuple):
    probe: str
    trial: int
    prime: int
    detail: str


def _passed(*probes: str) -> property:
    """The trials with no failure of any of these probes under any prime."""
    return property(
        lambda r: r.trials - len({f.trial for f in r.failures if f.probe in probes})
    )


@dataclass(frozen=True)
class VerificationReport:
    """What verify_conjecture observed: its failures, by trial, then prime,
    then probe. Three of the four counts are read from them, and
    f_nonzero_on_richardson is decided without a sample; a degenerate
    sample fails both jordan_match and power_rank_ok, as neither could be
    checked."""

    descriptor_id: str
    trials: int
    primes: tuple[int, ...]
    failures: tuple[Failure, ...]

    f_vanishes_on_v = _passed("f_vanishes_on_v", "linear_conditions")
    # f is a nonzero multilinear polynomial, so a nonzero function on
    # m_tau over every GF(p) (module docstring): every trial passes
    f_nonzero_on_richardson = property(lambda r: r.trials)
    jordan_match = _passed("jordan_match", "degenerate_sample")
    power_rank_ok = _passed("power_rank", "degenerate_sample")

    @property
    def necessity_ok(self) -> bool:
        """The deterministic part: f and the linear conditions vanished on
        every sampled variety point, under every prime."""
        return self.f_vanishes_on_v == self.trials

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor_id,
            "trials": self.trials,
            "primes": list(self.primes),
            "f_vanishes_on_v": self.f_vanishes_on_v,
            "f_nonzero_on_richardson": self.f_nonzero_on_richardson,
            "jordan_match": self.jordan_match,
            "power_rank_ok": self.power_rank_ok,
            "failures": [f._asdict() for f in self.failures],
        }


def verify_conjecture(
    d: HypersurfaceDescriptor,
    trials: int,
    seed=0,
    primes: Iterable[int] = (DEFAULT_PRIME, SECOND_PRIME),
) -> VerificationReport:
    """Run the probes for `trials` independent seeds and record their
    failures under every prime.

    Each trial draws one variety point modulo the product of the primes
    and reduces it mod each prime (the module docstring says why that is
    an independent draw per prime). A trial counts toward a probe only if
    no prime recorded a failure of it, so coincidences modulo a single
    prime cannot inflate the numbers. Necessity (probe one) is expected to
    hold on every trial and the generic probes on the vast majority;
    f_nonzero_on_richardson holds on every trial by construction (module
    docstring), so no trial draws for it. A trial's ring arithmetic is
    done once modulo the product of the primes (_joint_trial), and each
    prime records what it alone would find at its reduction of the variety
    draw and at its own hypersurface point; per_prime_report in the tests'
    conftest.py rebuilds every report that way from naive samplers and the
    public probes, running none of the trial's own steps. primes may be
    any iterable; it is read once. Raises BadProbeInput for trials that is
    not an int of at least 1, no prime, a modulus that check_modulus
    rejects, or a repeated prime, before any work is done.
    """
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise BadProbeInput(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise BadProbeInput(f"trials must be at least 1, got {trials}")
    primes = tuple(primes)
    if not primes:
        raise BadProbeInput("no prime to sample over")
    for p in primes:
        check_modulus(p)
    if len(set(primes)) != len(primes):
        raise BadProbeInput(f"primes {primes} repeat a prime")
    f = _descriptor_generator(d)
    fvars = f.variables()
    failures = chain.from_iterable(
        _joint_trial(d, f, fvars, seed, trial, primes) for trial in range(trials)
    )
    return VerificationReport(d.descriptor_id, trials, primes, tuple(failures))


def _joint_trial(d: HypersurfaceDescriptor, f, fvars, seed, trial: int, primes):
    """Yields the failures of one trial under every prime, by prime and
    then probe: for each prime in turn, the failures it alone would find
    at its reduction of the variety draw and at its own hypersurface
    point, with the ring arithmetic done once modulo M, the product of the
    primes (module docstring). f is evaluated once at the variety draw mod
    M, of which each prime's point is the reduction, and the hypersurface
    points are solved and lifted to one matrix z mod M together, every
    draw of every prime in the one loop of _hypersurface_lift. Each prime
    only tests its residues.

    z is swept once, and its readings are those of its reduction mod every
    prime. Reduction mod p is a ring map, and _window_ranks and the power
    carry use only ring operations and branch only on whether an entry is
    zero. An entry that is 0 or a unit mod M is zero under every prime or
    under none (M is squarefree), so unless _window_ranks would take a
    pivot whose leading entry is neither (it raises _NonUnit: the one
    fallback, where each prime sweeps its own reduction), every prime
    takes the same branches, up to unit multiples of its rows, and has
    the same tables. For a single prime that never happens."""
    trial_seed = f"{seed}:{trial}"
    modulus = prod(primes)
    xs = [
        sample_variety_point(d.tableau, seed=trial_seed, prime=p, modulus=modulus)
        for p in primes
    ]
    draw = _variety_rows(d.tableau, trial_seed, modulus)
    value = poly_eval(f, {(a, b): draw[a - 1][b - 1] for a, b in fvars}, prime=modulus)
    z, degenerate = _hypersurface_lift(d, f, fvars, trial_seed, primes)
    try:
        shared = _readings(z, d.tableau)
    except _NonUnit:
        shared = None
    for p, x in zip(primes, xs):
        if p in degenerate:
            readings = degenerate[p]
        elif shared is not None:
            readings = shared
        else:
            point = FieldMatrix._reduced([[e % p for e in row] for row in z.rows], p)
            readings = _readings(point, d.tableau)
        yield from _probe_failures(d, trial, p, value % p, x, readings)


def _hypersurface_lift(d: HypersurfaceDescriptor, f, fvars, seed, primes):
    """(z, degenerate): z is the matrix over Z/M, M the product of the
    primes, whose reduction mod each prime p is p's point of {f = 0}, and
    degenerate maps each prime left unsolved after fifty draws to its
    DegenerateSample (z holds its last draw mod it). For one prime M = p,
    and this is sample_hypersurface_point.

    Each prime draws from its own stream, as it does alone. Each round,
    every prime still unsolved takes its next draw; the draws are combined
    by CRT, each prime's coefficient c being 1 mod it and 0 mod the others
    (_crt), and solved together by _solve_draw for the unsolved primes
    only. So every prime solves its k-th draw for the variable it would
    alone, and keeps that draw once it solves.
    """
    modulus, coeffs = _crt(primes)
    free = d.tau.free_positions
    streams = {p: random.Random(f"hyper:{seed}:{p}").getrandbits for p in primes}
    draws, solved, unsolved = {}, {}, primes
    for _ in range(50):
        for p in unsolved:
            bits = streams[p]
            draws[p] = [_below(bits, p) for _ in free]
        lifted = [0] * len(free)
        for p, c in zip(primes, coeffs):
            lifted = [t + r * c for t, r in zip(lifted, draws[p])]
        vals = {pos: t % modulus for pos, t in zip(free, lifted)}
        solved.update(_solve_draw(f, fvars, vals, unsolved, modulus))
        unsolved = [p for p in primes if p not in solved]
        if not unsolved:
            break
    degenerate = {}
    # adding c * (new - old) sets the residue mod p and keeps the others
    for p, c in zip(primes, coeffs):
        if p in solved:
            var, s = solved[p]
            vals[var] = (vals[var] + c * (s - vals[var])) % modulus
        else:
            degenerate[p] = DegenerateSample(
                f"no solvable coordinate for {d.descriptor_id} after 50 draws"
            )
    rows = [[0] * d.n for _ in range(d.n)]
    for (a, b), v in vals.items():
        rows[a - 1][b - 1] = v
    return FieldMatrix._reduced(rows, modulus), degenerate


def _readings(z: FieldMatrix, t: StandardTableau):
    """(jordan type, power-rank violations against t) of the hypersurface
    point z."""
    return jordan_type(z), check_power_rank(z, t)


def _probe_failures(d: HypersurfaceDescriptor, trial: int, p: int, value: int, x, readings):
    """Yields the failures of one trial under p, in probe order. value is
    f at the variety point x, mod p; readings are the hypersurface point's
    _readings, or the DegenerateSample its sampler raised."""
    if value:
        yield Failure("f_vanishes_on_v", trial, p, "f nonzero at variety point")
    for u, v in d.tau.positive_roots:
        if x.entry(u, v + 1):
            yield Failure("linear_conditions", trial, p, f"x{u},{v + 1} nonzero at variety point")
            break
    if isinstance(readings, DegenerateSample):
        yield Failure("degenerate_sample", trial, p, str(readings))
        return
    jt, violations = readings
    if jt != d.tableau.shape:
        yield Failure("jordan_match", trial, p, f"jordan type {jt}")
    if violations:
        yield Failure("power_rank", trial, p, f"{len(violations)} window violations")


# -- the power-minor comparison ------------------------------------------------------


class RemarkResult(NamedTuple):
    detm_equals_f: bool
    chain_condition: bool


def remark_minor(d: HypersurfaceDescriptor) -> tuple[PolyMatrix, int, int]:
    """Symbolic minor matching the generator on the window problem.

    Works on d.window_problem, whose window spans everything and whose
    Richardson tableau, of shape lambda, is d's projected to the window.
    k = lambda_I - 1 is one less than the number of its chains of length
    >= I, and r, the rank bound of lambda at k, the total length of all
    but the k longest (_shape_numbers). Returns (top-right r x r corner of
    x_R^k, k, r), x_R the window's generic_richardson_matrix. A window off
    the chain pattern raises remark_check's error.
    """
    remark_check(d)
    tau_w, i_thick = d.window_problem
    _, k, r = _shape_numbers(_tau_chains(tau_w), i_thick)
    return generic_richardson_matrix(tau_w, tau_w.n).power(k).top_right(r), k, r


def remark_check(d: HypersurfaceDescriptor, *, seed=0) -> RemarkResult:
    """Does det of the power minor reproduce f, and does the chain pattern
    predict it? Decided in closed form from the window's chain lengths:
    det(M) == +-f exactly when the chain condition holds, so the result is
    RemarkResult(cc, cc) with cc the chain condition. `seed` is accepted
    and ignored: the check draws no random numbers.

    M is the top-right r x r corner of x_R^k on the window problem
    (remark_minor) and f the generator. The window [a, b] cuts d.tau into
    chains of lengths (I, c_1, ..., c_m, I), I the thickness: it runs from
    the start of a chain of length I to the end of the nearest later one,
    and a chain ends at m exactly when m is not in tau. Anything else
    raises InconsistentIndexing, and a window off 1 <= a <= b <= n, or
    with a bound that is not an int, raises BadRange, with the message
    TauSet.restrict gives, before any chain is read. Call an interior
    chain short if c < I and long if c > I; the chain condition asks that
    all be short or all long.
    With S the total length of the short chains and m_long the number of
    long ones, _shape_numbers reads k = m_long + 1, r = I + S and
    l(lambda) = (m_long + 1)*I + S off the lengths.

    f is the t^(size - I - l(lambda)) rung of the window determinant, whose
    terms are systems of I vertex-disjoint increasing paths from the first
    chain to the last, each step x_uv to a later chain (the generator
    module docstring); such a system with e edges is a term of m_e, with
    distinct systems giving distinct monomials, so no term cancels. A path
    meets a chain at most once, so a chain of length L hosts at most
    min(L, I) path vertices and a term has at most l(lambda) edges. Path p
    may take the p-th label of every chain of length >= p, which gives
    l(lambda) edges: f is not zero, and homogeneous of degree l(lambda).

    Short class, every interior chain short (m = 0 included): k = 1,
    r = size - I = l(lambda), so f is the t^0 rung. M is rows 1..size-I and
    columns I+1..size of x_R, the window matrix at t = 0, so det(M) = f.

    Mixed class, short and long interior chains: every entry of x_R^k is 0
    or homogeneous of degree k, so det(M) is 0 or homogeneous of degree
    r*k, and r*k - l(lambda) = S*m_long > 0. As f is not zero, det(M) is
    not +-f.

    Long class, every interior chain long (m >= 1): k = m + 1, r = I and
    l(lambda) = (m + 1)*I. A term of f has l(lambda) edges, so each chain
    hosts I path vertices and each of the I paths meets every chain, once:
    the paths are layered, one vertex per chain. Entry (i, j) of M sums
    the walks of k steps, each to a later chain, from label i of the
    first chain to label j of the last; with m + 1 gaps between chains,
    these are the same layered paths. By the Lindstrom-Gessel-Viennot
    lemma (Lindstrom 1973; Gessel & Viennot 1985) on the graph layered by
    chain, det(M) is the sum of sgn(pi) x^P over the systems P of I
    vertex-disjoint layered paths, the path from source i ending at sink
    pi(i): the tail swap at the first shared vertex, which keeps both
    paths layered, cancels every other tuple. These are f's terms, with
    monomials distinct. f's sign for P is that of its bijection sigma
    from rows 1..size-I to columns I+1..size. Extended to a permutation of
    1..size that sends the j-th label of the last chain back to j, sigma
    gains I*(size - I) inversions, and runs along path i and back to
    source pi(i): a cycle of pi of length c becomes one of length
    c*(m + 2), of sign (-1)^(c - 1) * (-1)^(c*(m + 1)). So f's sign for P
    is sgn(pi) * (-1)^(I*(size - I) + I*(m + 1)), one sign for every P, and
    det(M) = +-f.
    """
    a, b = d.window
    if type(a) is not int or type(b) is not int or not 1 <= a <= b <= d.tau.n:
        raise BadRange(f"need 1 <= a <= b <= {d.tau.n}, got a={a!r}, b={b!r}")
    i_thick = d.thickness
    indices = d.tau.indices
    lengths = []
    lo = a
    for m in range(a, b):
        if m not in indices:
            lengths.append(m + 1 - lo)
            lo = m + 1
    lengths.append(b + 1 - lo)
    interior = lengths[1:-1]
    if len(lengths) < 2 or lengths[0] != i_thick or lengths[-1] != i_thick or i_thick in interior:
        pattern = f"({i_thick}, ..., {i_thick}) with no interior {i_thick}"
        raise InconsistentIndexing(f"window {d.window} cuts chains {lengths}, not {pattern}")
    cc = not interior or max(interior) < i_thick or min(interior) > i_thick
    return RemarkResult(cc, cc)

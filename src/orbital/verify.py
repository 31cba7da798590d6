"""Finite-field sampling probes for the conjectured defining equation.

Symbolic identities are cheap to claim and expensive to trust. This module
samples actual matrices over large prime fields and checks three things
per descriptor: the candidate equation f vanishes on points of the
component (necessity), f is not the zero function on the ambient linear
span (non-degeneracy), and points of the hypersurface f = 0 inside the
span look like the component (matching Jordan type and window rank
bounds, a sufficiency surrogate).

Points of the component come from a Robinson-Schensted word: for the
involution w = rs_inverse(T, T), whose insertion and recording tableaux
are both T, the span of positions (a, b) with w(a) < w(b) meets the
component densely, and conjugating a random such point by a random
invertible upper triangular matrix lands in general position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import ClassificationError, DegenerateSample, NotApplicable, NotNilpotent
from .generator import generator_report, generic_richardson_matrix
from .hypersurface import HypersurfaceDescriptor, classify_hypersurface
from .polyalg import PolyMatrix, determinant, poly_eval
from .projections import project, projected_shape
from .rs import rs_inverse
from .tableaux import Partition, StandardTableau, chains, dual_partition

DEFAULT_PRIME = 2147483647  # 2^31 - 1
SECOND_PRIME = 2147483629  # largest prime below it


@dataclass(frozen=True)
class FieldMatrix:
    """Square matrix over GF(prime), or exact rationals when prime is None."""

    rows: tuple[tuple[int, ...], ...]
    prime: int | None = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if self.prime is None:
            rows = tuple(tuple(row) for row in self.rows)
        else:
            rows = tuple(
                tuple(int(e) % self.prime for e in row) for row in self.rows
            )
        object.__setattr__(self, "rows", rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")

    @classmethod
    def _reduced(cls, rows: list[list[int]], prime: int) -> "FieldMatrix":
        """The samplers' constructor: rows already square and reduced mod
        prime, so __post_init__'s second reduction and check are skipped."""
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

    def submatrix(self, i: int, j: int) -> "FieldMatrix":
        """Principal corner on rows and columns i..j, 1-indexed."""
        return FieldMatrix(
            tuple(tuple(row[i - 1 : j]) for row in self.rows[i - 1 : j]),
            self.prime,
        )

    def is_strictly_upper(self) -> bool:
        return all(
            not self.rows[r][c]
            for r in range(self.n)
            for c in range(0, min(r + 1, self.n))
        )

    @cached_property
    def _powers(self) -> list:
        """[X, X^2, ..., X^m] for X = self, X^m its last nonzero power.
        Stops at X^n, which is nonzero only when X is not nilpotent; a
        nilpotent X costs at most n - 1 products, once per matrix."""
        out = []
        cur = self.rows
        while any(map(any, cur)):
            out.append(cur)
            if len(out) == self.n:
                break
            cur = _mat_mul(cur, self.rows, self.prime)
        return out

    @cached_property
    def _sweeps(self) -> list:
        """The _window_ranks table of each power in _powers, so that
        jordan_type and check_power_rank eliminate each power once."""
        return [_window_ranks(xk, self.prime) for xk in self._powers]


# -- linear algebra over GF(p), or the rationals when p is None (hot path) ------
#
# _window_ranks is the only elimination. Its table gives matrix_rank the rank
# of any square matrix, jordan_type the rank of each power, and
# check_power_rank the rank of every window of each power; only that last
# reading needs the matrix strictly upper. FieldMatrix._sweeps holds one table
# per power, so jordan_type and check_power_rank share it.


def _mat_mul(a: list[list[int]], b: list[list[int]], p: int | None) -> list[list[int]]:
    """a @ b, mod p unless p is None. Each row of b is added from its
    first nonzero column on, so triangular factors cost about n^3 / 6
    multiplies and a strictly upper X^k times X skips the band where
    X^(k+1) vanishes."""
    n = len(a)
    lead = []
    for row in b:
        j = 0
        while j < n and not row[j]:
            j += 1
        lead.append(j)
    out = []
    for i in range(n):
        ai = a[i]
        acc = [0] * n
        for k in range(n):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(lead[k], n):
                    acc[j] += v * bk[j]
        out.append([val % p for val in acc] if p else acc)
    return out


def matrix_rank(m: FieldMatrix) -> int:
    ranks = _window_ranks(m.rows, m.prime)
    return ranks[0][-1] if ranks else 0


# -- rank bounds and Jordan type -------------------------------------------------


def rank_bound(lam: Partition, k: int) -> int:
    """Boxes beyond column k: the rank ceiling for the k-th power of any
    matrix whose restriction has Jordan type at most lam."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return sum(p - k for p in lam.parts if p > k)


def jordan_type(x: FieldMatrix) -> Partition:
    """Partition of the nilpotent x: dual parts are the kernel-dimension
    increments of successive powers. Raises NotNilpotent if the rank
    sequence bottoms out above zero.

    The rank of X^k is entry [1, n] of its cached sweep (FieldMatrix._sweeps),
    which counts every pivot and so needs no triangularity; check_power_rank
    reads the same tables."""
    n = x.n
    if n == 0:
        return Partition(())
    ranks = [n] + [rk[0][-1] for rk in x._sweeps] + [0]
    if len(x._powers) == n:
        raise NotNilpotent(f"rank sequence stabilised at {ranks[-2]}")
    cols = tuple(ranks[k - 1] - ranks[k] for k in range(1, len(ranks)))
    return dual_partition(Partition(cols))


class Violation(NamedTuple):
    i: int
    j: int
    k: int
    rank: int
    bound: int


def _window_ranks(xk, p: int | None) -> list[tuple[int, ...]]:
    """ranks[i - 1][j - 1] is the number of pivots <= j once rows i..n of
    the square matrix xk are in, for every 1 <= i, j <= n.

    Inserts the rows bottom-up (row n first) into an echelon basis whose
    vectors have distinct leading columns, each scaled to lead with 1.
    ranks[0][n - 1] counts every pivot: the rank of any square xk. Reading
    ranks[i - 1][j - 1] as the rank of the window [i, j] needs xk strictly
    upper (check_power_rank says why). Rows that add no pivot share the
    previous row's tuple.
    """
    n = len(xk)
    basis: dict[int, list] = {}  # 0-indexed pivot column -> the vector from it on
    counts = (0,) * n  # counts[j - 1]: pivots in columns <= j so far
    ranks: list[tuple[int, ...]] = []
    for xrow in reversed(xk):
        row = [v % p for v in xrow] if p else [Fraction(v) for v in xrow]
        for c in range(n):
            v = row[c]
            if not v:
                continue
            tail = basis.get(c)
            if tail is None:
                inv = pow(v, -1, p) if p else 1 / v
                if p:
                    basis[c] = [a * inv % p for a in row[c:]]
                else:
                    basis[c] = [a * inv for a in row[c:]]
                counts = counts[:c] + tuple(k + 1 for k in counts[c:])
                break
            if p:
                row[c:] = [(a - v * b) % p for a, b in zip(row[c:], tail)]
            else:
                row[c:] = [a - v * b for a, b in zip(row[c:], tail)]
        ranks.append(counts)
    ranks.reverse()
    return ranks


def check_power_rank(x: FieldMatrix, t: StandardTableau) -> list[Violation]:
    """Every window power-rank inequality for x against the tableau t.

    For each corner [i, j] and power k, the rank of the corner's k-th
    power may not exceed the bound from the shape of t projected to
    [i, j]. Returns all violations (empty list = consistent with t),
    ordered by i, then j, then k.

    The powers X^k and one echelon sweep of each are computed once per
    matrix and shared with jordan_type (FieldMatrix._powers and _sweeps).
    A sweep gives the rank of every window at once (_window_ranks): the
    rows of X^k go in bottom-up, and after rows i..n the rank of [i, j] is
    the number of pivots <= j. Strict upper triangularity makes this exact:
    the corner of X^k on [i, j] is the k-th power of X's corner; rows
    below j vanish in columns <= j and column i vanishes in rows >= i, so
    the corner has the rank of rows i..n cut to columns <= j; and that
    cut keeps exactly the basis vectors whose pivot is <= j, which stay
    independent because their pivots differ. At most n - 1 sweeps of
    O(n^3) each replace a separate elimination per window and power.
    """
    if not x.is_strictly_upper():
        raise NotApplicable("power-rank checks need a strictly upper matrix")
    n = x.n
    if n != t.n:
        raise NotApplicable(f"matrix size {n} vs tableau size {t.n}")
    ranks = x._sweeps
    out: list[Violation] = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            lam = None
            for k, rk in enumerate(ranks, start=1):
                r = rk[i - 1][j - 1]
                if r == 0:
                    break
                if lam is None:
                    lam = projected_shape(t, i, j)
                bound = rank_bound(lam, k)
                if r > bound:
                    out.append(Violation(i, j, k, r, bound))
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


def sample_variety_point(
    t: StandardTableau, seed, prime: int = DEFAULT_PRIME
) -> FieldMatrix:
    """Random point of the orbital variety labelled by t, over GF(prime).

    Takes the involution w = rs_inverse(t, t), whose insertion and
    recording tableaux are both t, fills the positions (a, b) with
    w(a) < w(b) uniformly, and conjugates by a random invertible upper
    triangular matrix B. The result is strictly upper triangular with
    Jordan type at most shape(t), equal generically. X = B U B^-1 is the
    unique solution of X B = C with C = B U, and both C and X are
    strictly upper, so X is solved row by row by back-substitution:
    X[i][j] = (C[i][j] - sum over i < k < j of X[i][k] B[k][j]) / B[j][j].
    Forming C and solving take about n^3 / 6 multiplies each (_mat_mul
    skips the zeros below each row's diagonal).
    """
    n = t.n
    rng = random.Random(f"variety:{seed}:{prime}")
    u = [[0] * n for _ in range(n)]
    for a, b in _word_span(t):
        u[a][b] = rng.randrange(prime)
    bmat = [[0] * n for _ in range(n)]
    for i in range(n):
        bmat[i][i] = rng.randrange(1, prime)
        for j in range(i + 1, n):
            bmat[i][j] = rng.randrange(prime)
    inv = [pow(bmat[j][j], -1, prime) for j in range(n)]
    x = _mat_mul(bmat, u, prime)
    for i, row in enumerate(x):
        for j in range(i + 1, n):
            s = row[j]
            for k in range(i + 1, j):
                s -= row[k] * bmat[k][j]
            row[j] = s * inv[j] % prime
    return FieldMatrix._reduced(x, prime)


def sample_hypersurface_point(
    d: HypersurfaceDescriptor, seed, prime: int = DEFAULT_PRIME
) -> FieldMatrix:
    """Random point of {f = 0} inside the linear span m_tau.

    Draws the free coordinates uniformly, then solves f = 0 for one
    variable: f is multilinear, so any variable whose linear coefficient
    is nonzero at the draw can absorb the constraint. Draws where every
    coefficient degenerates are rejected; fifty straight rejections raise
    DegenerateSample.
    """
    f = generator_report(d).f
    free = d.tau.free_positions
    fvars = f.variables()
    rng = random.Random(f"hyper:{seed}:{prime}")
    for _ in range(50):
        vals = {pos: rng.randrange(prime) for pos in free}
        for var in fvars:
            # f = g * var + h, multilinear in var
            h = poly_eval(f, {**vals, var: 0}, prime=prime)
            g = (poly_eval(f, {**vals, var: 1}, prime=prime) - h) % prime
            if g:
                vals[var] = -h * pow(g, -1, prime) % prime
                n = d.n
                rows = [[0] * n for _ in range(n)]
                for (a, b), v in vals.items():
                    rows[a - 1][b - 1] = v
                return FieldMatrix._reduced(rows, prime)
    raise DegenerateSample(
        f"no solvable coordinate for {d.descriptor_id} after 50 draws"
    )


# -- the conjecture probes ---------------------------------------------------------


class Failure(NamedTuple):
    probe: str
    trial: int
    prime: int
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    descriptor_id: str
    trials: int
    primes: tuple[int, ...]
    f_vanishes_on_v: int
    f_nonzero_on_richardson: int
    jordan_match: int
    power_rank_ok: int
    failures: tuple[Failure, ...]

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
    primes: tuple[int, ...] = (DEFAULT_PRIME, SECOND_PRIME),
) -> VerificationReport:
    """Run the three probes for `trials` independent seeds.

    A trial counts toward a probe only if the probe holds under every
    prime, so coincidences modulo a single prime cannot inflate the
    numbers. Necessity (probe one) is expected to hold on every trial;
    the two generic probes are expected to hold on the vast majority.
    """
    report = generator_report(d)
    f = report.f
    fvars = f.variables()
    tau = d.tau
    zero_positions = [(u, v + 1) for u, v in tau.positive_roots()]
    free = tau.free_positions
    shape = d.tableau.shape
    failures: list[Failure] = []
    ok_counts = {"vanish": 0, "nonzero": 0, "jordan": 0, "rank": 0}
    for trial in range(trials):
        ok = {"vanish": True, "nonzero": True, "jordan": True, "rank": True}
        for p in primes:
            xm = sample_variety_point(d.tableau, seed=f"{seed}:{trial}", prime=p)
            assign = {v: xm.entry(v[0], v[1]) for v in fvars}
            if poly_eval(f, assign, prime=p) != 0:
                ok["vanish"] = False
                failures.append(
                    Failure("f_vanishes_on_v", trial, p, "f nonzero at variety point")
                )
            for r, c in zero_positions:
                if xm.entry(r, c):
                    ok["vanish"] = False
                    failures.append(
                        Failure(
                            "linear_conditions", trial, p, f"x{r},{c} nonzero at variety point"
                        )
                    )
                    break
            rng = random.Random(f"mtau:{seed}:{trial}:{p}")
            pt = {pos: rng.randrange(p) for pos in free}
            if poly_eval(f, {v: pt[v] for v in fvars}, prime=p) == 0:
                ok["nonzero"] = False
                failures.append(
                    Failure("f_nonzero_on_richardson", trial, p, "f vanished at generic point")
                )
            try:
                z = sample_hypersurface_point(d, seed=f"{seed}:{trial}", prime=p)
                jt = jordan_type(z)
                if jt != shape:
                    ok["jordan"] = False
                    failures.append(Failure("jordan_match", trial, p, f"jordan type {jt}"))
                violations = check_power_rank(z, d.tableau)
                if violations:
                    ok["rank"] = False
                    failures.append(
                        Failure("power_rank", trial, p, f"{len(violations)} window violations")
                    )
            except DegenerateSample as exc:
                ok["jordan"] = ok["rank"] = False
                failures.append(Failure("degenerate_sample", trial, p, str(exc)))
        for key in ok_counts:
            ok_counts[key] += ok[key]
    return VerificationReport(
        descriptor_id=d.descriptor_id,
        trials=trials,
        primes=tuple(primes),
        f_vanishes_on_v=ok_counts["vanish"],
        f_nonzero_on_richardson=ok_counts["nonzero"],
        jordan_match=ok_counts["jordan"],
        power_rank_ok=ok_counts["rank"],
        failures=tuple(failures),
    )


# -- the power-minor comparison ------------------------------------------------------


class RemarkResult(NamedTuple):
    detm_equals_f: bool
    chain_condition: bool


def _remark_minor(
    d: HypersurfaceDescriptor,
) -> tuple[HypersurfaceDescriptor, PolyMatrix, int, int]:
    """remark_minor, plus the descriptor of the projected problem."""
    a, b = d.window
    dw = classify_hypersurface(project(d.tableau, a, b))
    if dw is None:
        raise ClassificationError("projection to the window lost the descriptor")
    lam = dw.richardson.shape
    k = lam.part(dw.thickness) - 1
    r = rank_bound(lam, k)
    corner = generic_richardson_matrix(dw.tau, dw.n).power(k).top_right(r)
    return dw, corner, k, r


def remark_minor(d: HypersurfaceDescriptor) -> tuple[PolyMatrix, int, int]:
    """Symbolic minor matching the generator on the projected problem.

    Projects the descriptor to its window (so the window spans everything),
    sets k one less than the column of the last box in the projected
    Richardson tableau, and r the rank bound of the projected shape at k.
    Returns (top-right r x r corner of x_R^k, k, r).
    """
    return _remark_minor(d)[1:]


def remark_check(d: HypersurfaceDescriptor, *, seed=0) -> RemarkResult:
    """Does det of the power minor reproduce f, and does the chain pattern
    predict it?

    Equality is decided exactly, up to one global sign: det(M) == f or
    det(M) == -f as polynomials. f is never zero, because generator_report
    raises when the window determinant vanishes. The chain condition asks
    that the interior chains of the projected Richardson tableau all be
    shorter, or all longer, than the thickness. `seed` is accepted and
    ignored: the check draws no random numbers.
    """
    dw, corner, _, _ = _remark_minor(d)
    f = generator_report(dw).f
    det_m = determinant(corner)

    interior = chains(dw.richardson)[1:-1]
    i_thick = dw.thickness
    chain_condition = all(c.length < i_thick for c in interior) or all(
        c.length > i_thick for c in interior
    )
    return RemarkResult(
        detm_equals_f=det_m == f or det_m == -f, chain_condition=chain_condition
    )

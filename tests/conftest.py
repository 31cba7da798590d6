"""Shared helpers and deliberately naive oracles.

The oracles trade speed for transparency: all_syt builds every standard
tableau by recursion on the largest entry, greedy_richardson fills the
Richardson tableau box by box with a row search, slide_project restricts a
tableau to a window by the box removals and jeu de taquin slides that
define it, print_key spells out the printed term order variable by
variable, leibniz_det expands a determinant as a sum over all
permutations, minor_rank looks for the largest nonzero minor,
naive_power_rank re-multiplies the powers of every window from scratch,
sliced_power_rank ranks every window of every power on its own,
naive_variety_point conjugates with dense products and a Gauss-Jordan
inverse, naive_hypersurface_point solves each draw with randrange and two
values of f per variable, naive_descendants rebuilds and re-checks the
whole tableau of every box drop, weight_of adds up the root weights of
every term of a polynomial (the oracle of the generator's window weight),
minmax_window_weight reads the window weight coordinate by coordinate,
naive_char_poly adds p_V's factors up root by root and sorts them by a key
that scans their coefficients, ladder_payload serializes a generator
report rung by rung with MultiPoly.to_json, which sorts each rung itself,
and per_prime_report runs each verify trial under one prime at a time,
from the oracles above and the public probes and none of the trial's own
steps. remark_by_expansion decides the power-minor remark by expanding
det M with determinant and comparing it with f, the oracle of
remark_check's closed form; remark_class and degree_gap read the class
and the mixed class's degree gap off the chain lengths, and
ladder_support the ladder's support, the one chain-length fact that
closed form's proof rests on (f is not zero and of degree l(lambda)).
f_variables and f_term_count read f's variables and term count off the
chains, to cross-check the generator's walk and nothing in the proof.
They choke past small sizes, which is the point; they exist only to
cross-check the fast code.
matrix_rank is no oracle: it ranks any square matrix with the program's
own elimination, for minor_rank to check.
"""

import json
import random
import re
from bisect import insort
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, perm, prod

from orbital import (
    CharPoly,
    DegenerateSample,
    Failure,
    FieldMatrix,
    MultiPoly,
    PolyMatrix,
    StandardTableau,
    TableauError,
    WeightVector,
    chains,
    check_power_rank,
    determinant,
    generator_report,
    generic_richardson_matrix,
    jordan_type,
    poly_eval,
    projected_shape,
    remove_largest,
    rs_inverse,
    strip_first,
    tau_invariant,
    validate_syt,
    variety_dim,
)
from orbital.generator import _generator, _shape_numbers
from orbital.tableaux import _tau_chains
from orbital.verify import RemarkResult, VerificationReport, _window_ranks


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion, visible in the run log."""
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {m.group(1)} {verdict}")


def tab(*rows) -> StandardTableau:
    return StandardTableau(tuple(tuple(r) for r in rows))


# Recurring worked examples. The first two are a Richardson tableau and
# its unique codimension-one descendant; the rest are descendants whose
# windows, generators and minors get pinned in several modules.
EIGHT_RICH = ((1, 2, 5, 6, 7), (3, 8), (4,))
EIGHT_DROP = ((1, 2, 6, 7), (3, 5, 8), (4,))
SIX_BOX = ((1, 2, 4), (3, 5, 6))
FIVE_BOX = ((1, 3, 4), (2,), (5,))
NINE_BOX = ((1, 3, 6, 7, 8), (2, 4), (5, 9))
TWELVE_BOX = ((1, 3, 4, 7, 9, 12), (2, 5, 8, 10), (6,), (11,))


@lru_cache(maxsize=None)
def all_syt(n: int) -> tuple[StandardTableau, ...]:
    """Every standard Young tableau with n boxes.

    Grown by appending box n at each addable corner of every tableau with
    n - 1 boxes; entries stay increasing automatically because n is the
    largest label.
    """
    if n == 1:
        return (tab((1,)),)
    out: list[StandardTableau] = []
    for t in all_syt(n - 1):
        for i in range(len(t.rows)):
            if i == 0 or len(t.rows[i]) < len(t.rows[i - 1]):
                grown = tuple(
                    row + (n,) if k == i else row for k, row in enumerate(t.rows)
                )
                out.append(StandardTableau(grown))
        out.append(StandardTableau(t.rows + ((n,),)))
    return tuple(out)


def greedy_richardson(tau, n: int) -> StandardTableau:
    """The Richardson tableau of the indices tau on n boxes, filled box by
    box: box k goes to row 1 when alpha_{k-1} is not in tau, and otherwise
    to the topmost row strictly below row(k-1) where appending keeps the
    shape a partition."""
    rows: list[list[int]] = []
    prev_row = 0
    for k in range(1, n + 1):
        if k == 1 or (k - 1) not in tau:
            row = 1
        else:
            row = prev_row + 1
            while row <= len(rows) and len(rows[row - 1]) >= len(rows[row - 2]):
                row += 1
        if row > len(rows):
            rows.append([])
        rows[row - 1].append(k)
        prev_row = row
    return tab(*rows)


def slide_project(t: StandardTableau, i: int, j: int) -> StandardTableau:
    """The window [i, j] by its definition: n - j removals of the largest
    box, then i - 1 jeu de taquin strips of the smallest."""
    for _ in range(t.n - j):
        t = remove_largest(t)
    for _ in range(i - 1):
        t = strip_first(t)
    return t


def perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def leibniz_det(m: PolyMatrix) -> MultiPoly:
    """Determinant straight from the Leibniz formula. O(n!) on purpose."""
    total = MultiPoly.zero()
    for perm in permutations(range(1, m.nrows + 1)):
        term = MultiPoly.const(perm_sign(perm))
        for i, j in enumerate(perm, start=1):
            term = term * m.entry(i, j)
        total = total + term
    return total


def print_key(mono) -> tuple:
    """The graded-lex order of format_poly and to_json, from its
    definition: higher degree first, then the word that lists each variable
    of the monomial e times, x_{ij} ordered by (i, j) and t after every x."""
    word = tuple(
        (1, 0, 0) if var == "t" else (0, *var) for var, e in mono for _ in range(e)
    )
    return (-sum(e for _, e in mono), word)


def shifted(p: MultiPoly, s: int) -> MultiPoly:
    """p with every variable x_{ij} renamed x_{i+s, j+s}; t stays."""
    return MultiPoly(
        {
            tuple((var if var == "t" else (var[0] + s, var[1] + s), e) for var, e in mono): c
            for mono, c in p.terms.items()
        }
    )


def same_up_to_sign(p: MultiPoly, q: MultiPoly) -> bool:
    return p == q or p == -q


def minor_rank(rows, p) -> int:
    """Size of the largest minor nonzero mod p. Each minor is an exact
    integer Leibniz determinant, then reduced mod p. If every k x k minor
    vanishes, so does every larger one."""

    def minor(rs, cs) -> int:
        det = 0
        for perm in permutations(range(len(rs))):
            term = prod(rows[r][cs[c]] for r, c in zip(rs, perm))
            if term:
                det += perm_sign(perm) * term
        return det % p

    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    for k in range(1, min(nr, nc) + 1):
        if not any(
            minor(rs, cs)
            for rs in combinations(range(nr), k)
            for cs in combinations(range(nc), k)
        ):
            break
        rank = k
    return rank


def naive_mat_mul(a, b, p=None):
    n = len(a)
    out = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[v % p for v in row] for row in out] if p else out


def naive_jordan_parts(rows, p) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix: k-th column of the partition is
    rank(X^(k-1)) - rank(X^k), with every power multiplied out."""
    n = len(rows)
    ranks = [n]
    cur = rows
    while ranks[-1]:
        ranks.append(minor_rank(cur, p))
        cur = naive_mat_mul(cur, rows, p)
    cols = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return tuple(sum(1 for c in cols if c >= i) for i in range(1, cols[0] + 1))


def naive_power_rank(rows, t: StandardTableau, p) -> list[tuple[int, ...]]:
    """(i, j, k, rank, bound) for every window [i, j] and power k whose
    rank exceeds the boxes of t's projected shape beyond column k; each
    window's powers are multiplied out on their own."""
    n = len(rows)
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            sub = [list(row[i - 1 : j]) for row in rows[i - 1 : j]]
            parts = projected_shape(t, i, j).parts
            cur = sub
            for k in range(1, j - i + 2):
                r = minor_rank(cur, p)
                if r == 0:
                    break
                bound = sum(part - k for part in parts if part > k)
                if r > bound:
                    out.append((i, j, k, r, bound))
                cur = naive_mat_mul(cur, sub, p)
    return out


def matrix_rank(m: FieldMatrix) -> int:
    """Rank of any square matrix over GF(p), read off the program's one
    elimination, _window_ranks, fed every row bottom-up. The program itself
    only ranks powers and windows; comparing this with minor_rank checks
    that elimination on matrices that are not strictly upper."""
    pairs = list(enumerate(m.rows))
    pairs.reverse()
    return len(_window_ranks(pairs, m.n, m.prime)[1])


def sliced_power_rank(rows, t: StandardTableau, p) -> list[tuple[int, ...]]:
    """naive_power_rank's list, from the powers of the whole strictly upper
    matrix: each window [i, j] of each X^k is sliced out and ranked on its
    own with matrix_rank, one elimination per window and power."""
    n = len(rows)
    powers = [rows]
    while len(powers) < n:
        powers.append(naive_mat_mul(powers[-1], rows, p))
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            parts = projected_shape(t, i, j).parts
            for k, xk in enumerate(powers[: j - i + 1], start=1):
                corner = tuple(tuple(row[i - 1 : j]) for row in xk[i - 1 : j])
                r = matrix_rank(FieldMatrix(corner, p))
                if r == 0:
                    break
                bound = sum(part - k for part in parts if part > k)
                if r > bound:
                    out.append((i, j, k, r, bound))
    return out


def naive_inverse(rows, p):
    """Inverse mod p by Gauss-Jordan elimination on [rows | identity]."""
    n = len(rows)
    aug = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def naive_variety_point(t: StandardTableau, seed, modulus):
    """The rows of the variety sampler's point modulo any modulus, replaying
    its draws: U on the span of a freshly computed w = rs_inverse(t, t),
    then a unipotent upper triangular N, then N U N^-1 from dense products
    and a Gauss-Jordan inverse, whose pivots are all 1."""
    w = rs_inverse(t, t)
    n = t.n
    rng = random.Random(f"variety:{seed}:{modulus}")
    u = [[0] * n for _ in range(n)]
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            if w(a) < w(b):
                u[a - 1][b - 1] = rng.randrange(modulus)
    nmat = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            nmat[i][j] = rng.randrange(modulus)
    return naive_mat_mul(
        naive_mat_mul(nmat, u, modulus), naive_inverse(nmat, modulus), modulus
    )


def naive_hypersurface_point(d, seed, p):
    """The rows of the hypersurface sampler's point over GF(p), replaying
    its stream one draw at a time: every free coordinate of m_tau from
    randrange, then f = g * var + h solved for the first of f's variables
    with g = f|var=1 - f|var=0 nonzero mod p, each value a fresh poly_eval
    of generator_report(d).f. Raises DegenerateSample, with the sampler's
    message, after fifty draws that solve for no variable."""
    f = generator_report(d).f
    forced = {(u, v + 1) for u, v in d.tau.positive_roots}
    free = [
        (a, b) for a in range(1, d.n) for b in range(a + 1, d.n + 1) if (a, b) not in forced
    ]
    rng = random.Random(f"hyper:{seed}:{p}")
    for _ in range(50):
        vals = {pos: rng.randrange(p) for pos in free}
        for var in f.variables():
            h = poly_eval(f, {**vals, var: 0}, prime=p)
            g = (poly_eval(f, {**vals, var: 1}, prime=p) - h) % p
            if g:
                vals[var] = -h * pow(g, -1, p) % p
                return [
                    [vals.get((a, b), 0) for b in range(1, d.n + 1)] for a in range(1, d.n + 1)
                ]
    raise DegenerateSample(f"no solvable coordinate for {d.descriptor_id} after 50 draws")


def naive_descendants(t_r: StandardTableau) -> list[tuple]:
    """(tableau, richardson, window, thickness, tau) of every admissible
    one-box drop of a Richardson tableau, by dropped box, from the
    definition: move the largest label j of each chain of length I from
    row I to row I+1, rebuild the rows, and keep the result when
    validate_syt accepts it, its whole tau-invariant is t_r's and its
    dimension is one less. The window starts at the nearest earlier chain
    of length I."""
    tau = tau_invariant(t_r)
    top = variety_dim(t_r.shape, t_r.n)
    ch = chains(t_r)
    out = []
    for k, chain in enumerate(ch):
        j, thickness = chain[-1], len(chain)
        rows = [list(row) for row in t_r.rows] + [[]]
        rows[thickness - 1].remove(j)
        insort(rows[thickness], j)
        if not rows[-1]:
            rows.pop()
        try:
            t = validate_syt(rows)
        except TableauError:
            continue
        if tau_invariant(t) != tau or variety_dim(t.shape, t.n) != top - 1:
            continue
        prev = next(c for c in reversed(ch[:k]) if len(c) == thickness)
        out.append((t, t_r, (prev[0], j), thickness, tau))
    return out


def per_prime_report(d, trials: int, seed, primes: tuple[int, ...]) -> VerificationReport:
    """The report verify_conjecture(d, trials, seed, primes) must give, one
    trial and then one prime at a time. A trial's variety point is
    naive_variety_point drawn modulo the product of the primes and reduced
    mod p, f is generator_report(d).f evaluated there mod p, and the
    hypersurface point is naive_hypersurface_point's; its Jordan type and
    window violations come from the public jordan_type and
    check_power_rank, and every Failure record is written out here."""
    f = generator_report(d).f
    modulus = prod(primes)
    failures = []

    def fail(probe, detail):  # under the trial and prime of the loops below
        failures.append(Failure(probe, trial, p, detail))

    for trial in range(trials):
        trial_seed = f"{seed}:{trial}"
        draw = naive_variety_point(d.tableau, trial_seed, modulus)
        for p in primes:
            x = [[e % p for e in row] for row in draw]
            if poly_eval(f, {(a, b): x[a - 1][b - 1] for a, b in f.variables()}, prime=p):
                fail("f_vanishes_on_v", "f nonzero at variety point")
            for u, v in d.tau.positive_roots:
                if x[u - 1][v]:
                    fail("linear_conditions", f"x{u},{v + 1} nonzero at variety point")
                    break
            try:
                z = FieldMatrix(naive_hypersurface_point(d, trial_seed, p), p)
            except DegenerateSample as exc:
                fail("degenerate_sample", str(exc))
                continue
            jt = jordan_type(z)
            if jt != d.tableau.shape:
                fail("jordan_match", f"jordan type {jt}")
            violations = check_power_rank(z, d.tableau)
            if violations:
                fail("power_rank", f"{len(violations)} window violations")
    return VerificationReport(d.descriptor_id, trials, primes, tuple(failures))


def weight_of(p: MultiPoly, rank: int | None = None) -> WeightVector:
    """The common weight of every term of p, from its definition: x_{ij}
    weighs alpha_i + ... + alpha_{j-1} and t weighs nothing, each counted
    with its exponent. The rank defaults to the largest column index seen
    minus one. Raises ValueError for the zero polynomial, for terms of
    different weights, naming both, and for a variable outside the rank."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no weight")
    if rank is None:
        rank = max((var[1] for var in p.variables() if var != "t"), default=1) - 1
    monos = iter(p.terms)
    wt = mono_weight(next(monos), rank)
    for mono in monos:
        vec = mono_weight(mono, rank)
        if vec != wt:
            raise ValueError(f"monomial weights differ: {wt} vs {vec}")
    return WeightVector(wt)


def mono_weight(mono, rank: int) -> tuple[int, ...]:
    """The root weight of one monomial of (variable, exponent) pairs."""
    coords = [0] * rank
    for var, e in mono:
        if var == "t":
            continue
        i, j = var
        if not 1 <= i < j <= rank + 1:
            raise ValueError(f"variable x{i},{j} outside rank {rank}")
        for a in range(i, j):
            coords[a - 1] += e
    return tuple(coords)


def minmax_window_weight(n: int, window: tuple[int, int], thickness: int) -> WeightVector:
    """wt(f) coordinate by coordinate: alpha_m lies in the window roots
    alpha_{a+k} + ... + alpha_{b-1-k} with k < thickness and
    k <= min(m - a, b - 1 - m)."""
    a, b = window
    return WeightVector(tuple(
        max(0, min(thickness, m - a + 1, b - m)) for m in range(1, n)
    ))


def naive_char_poly(d) -> CharPoly:
    """p_V from its definition: WeightVector.root of each positive root of
    tau, and wt(f) as the sum of the thickness window roots
    alpha_{a+k} + ... + alpha_{b-1-k}, sorted by (coefficient sum, index
    of the first nonzero coefficient, coefficients)."""
    rank = d.n - 1
    a, b = d.window
    factors = [WeightVector.root(u, v, rank) for u, v in d.tau.positive_roots]
    wt_f = WeightVector.zero(rank)
    for k in range(d.thickness):
        wt_f = wt_f + WeightVector.root(a + k, b - 1 - k, rank)
    factors.append(wt_f)
    factors.sort(key=lambda w: (
        sum(w.coeffs),
        next((k for k, c in enumerate(w.coeffs) if c), len(w.coeffs)),
        w.coeffs,
    ))
    return CharPoly(tuple(factors))


def ladder_payload(rep) -> str:
    """The bytes of GeneratorReport.to_json, each rung serialized by
    MultiPoly.to_json, which sorts its terms into print order."""
    rungs = [{"j": j, "poly": m.to_json()} for j, m in rep.m_sequence]
    return json.dumps({
        "window": list(rep.window),
        "thickness": rep.thickness,
        "l_lambda": rep.l_lambda,
        "f": rep.f.to_json(),
        "weight": rep.weight.to_json(),
        "m_sequence": rungs,
    })


def remark_class(tau_w, i_thick: int) -> str:
    """The window problem's class by its interior chains: "short" if all
    are shorter than the thickness (none at all included), "long" if all
    are longer, else "mixed"."""
    interior = [len(c) for c in _tau_chains(tau_w)[1:-1]]
    if all(length < i_thick for length in interior):
        return "short"
    return "long" if all(length > i_thick for length in interior) else "mixed"


def degree_gap(tau_w, i_thick: int) -> int:
    """S * m_long: the total length of the interior chains shorter than the
    thickness, times the number of those longer."""
    interior = [len(c) for c in _tau_chains(tau_w)[1:-1]]
    return sum(L for L in interior if L < i_thick) * sum(L > i_thick for L in interior)


def minor_det_and_f(tau_w, i_thick: int) -> tuple[MultiPoly, MultiPoly]:
    """(det M, f) of the window problem: M the top-right r x r corner of
    x_R^k, with k and r read off the chain lengths, expanded by
    determinant, and f the generator."""
    _, k, r = _shape_numbers(_tau_chains(tau_w), i_thick)
    corner = generic_richardson_matrix(tau_w, tau_w.n).power(k).top_right(r)
    return determinant(corner), _generator(tau_w, i_thick)


def remark_by_expansion(tau_w, i_thick: int) -> RemarkResult:
    """remark_check's outcome on the window problem (tau_w, i_thick), by
    expansion: whether det M is f or -f, and whether the interior chains
    are all short or all long."""
    det_m, f = minor_det_and_f(tau_w, i_thick)
    return RemarkResult(
        detm_equals_f=det_m == f or det_m == -f,
        chain_condition=remark_class(tau_w, i_thick) != "mixed",
    )


def ladder_support(tau_w, i_thick: int) -> range:
    """The j with m_j != 0 on the window problem's ladder: I <= j <=
    l(lambda), with l(lambda) the sum of min(L, I) over the chain lengths
    L, minus I."""
    l_lambda = sum(min(len(c), i_thick) for c in _tau_chains(tau_w)) - i_thick
    return range(i_thick, l_lambda + 1)


def f_variables(tau_w, i_thick: int) -> list[tuple[int, int]]:
    """The variables of f, in _var_key order: x_rc, r < c, with r and c in
    different chains and every chain strictly between them shorter than
    the thickness."""
    chain_list = _tau_chains(tau_w)
    of = {label: k for k, c in enumerate(chain_list) for label in c}
    size = tau_w.n
    return [
        (r, c)
        for r in range(1, size + 1)
        for c in range(r + 1, size + 1)
        if of[r] < of[c] and all(len(between) < i_thick for between in chain_list[of[r] + 1 : of[c]])
    ]


def f_term_count(tau_w, i_thick: int) -> int:
    """The number of terms of f: I! times, over the interior chains,
    L!/(L - I)! for a chain of length L > I and I!/(I - L)! for L < I."""
    interior = [len(c) for c in _tau_chains(tau_w)[1:-1]]
    return factorial(i_thick) * prod(
        perm(length, i_thick) if length > i_thick else perm(i_thick, length) for length in interior
    )

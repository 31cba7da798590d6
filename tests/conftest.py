"""Shared helpers and deliberately naive oracles.

The oracles trade speed for transparency: all_syt builds every standard
tableau by recursion on the largest entry, leibniz_det expands a
determinant as a sum over all permutations, minor_rank looks for the
largest nonzero minor, naive_power_rank re-multiplies the powers of
every window from scratch, sliced_power_rank ranks every window of
every power on its own, and naive_variety_point conjugates with dense
products and a Gauss-Jordan inverse. They choke past small sizes, which is
the point; they exist only to cross-check the fast code.
"""

import random
import re
from functools import lru_cache
from itertools import combinations, permutations
from math import prod

from orbital import (
    FieldMatrix,
    MultiPoly,
    PolyMatrix,
    StandardTableau,
    matrix_rank,
    projected_shape,
    rs_inverse,
)


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


def naive_variety_point(t: StandardTableau, seed, prime):
    """sample_variety_point's rows, replaying its draws: U on the span of a
    freshly computed w = rs_inverse(t, t), then B, then B U B^-1 from dense
    products."""
    w = rs_inverse(t, t)
    n = t.n
    rng = random.Random(f"variety:{seed}:{prime}")
    u = [[0] * n for _ in range(n)]
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            if w(a) < w(b):
                u[a - 1][b - 1] = rng.randrange(prime)
    bmat = [[0] * n for _ in range(n)]
    for i in range(n):
        bmat[i][i] = rng.randrange(1, prime)
        for j in range(i + 1, n):
            bmat[i][j] = rng.randrange(prime)
    return naive_mat_mul(
        naive_mat_mul(bmat, u, prime), naive_inverse(bmat, prime), prime
    )

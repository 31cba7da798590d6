"""Finite-field probes: ranks, Jordan types, samplers, the conjecture checks."""

import dataclasses
import hashlib
import json
import math
import random
import re
from collections import Counter

import pytest

import orbital.verify
from orbital.generator import _generator, _ladder, _shape_numbers
from orbital.tableaux import _tau_chains
from orbital import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    BadExponent,
    BadProbeInput,
    BadRange,
    DegenerateSample,
    FieldMatrix,
    InconsistentIndexing,
    MultiPoly,
    NotApplicable,
    NotNilpotent,
    NotSquare,
    Partition,
    TauSet,
    Violation,
    check_power_rank,
    classify_hypersurface,
    cmin_window,
    determinant,
    dominance_le,
    find_word_for_tableau,
    generator_report,
    generic_richardson_matrix,
    iter_descriptors,
    jordan_type,
    poly_eval,
    project,
    rank_bound,
    remark_check,
    remark_minor,
    richardson_tableau,
    sample_hypersurface_point,
    sample_variety_point,
    t_coefficient,
    tau_invariant,
    verify_conjecture,
    x,
)
from conftest import (
    EIGHT_DROP,
    FIVE_BOX,
    NINE_BOX,
    SIX_BOX,
    all_syt,
    degree_gap,
    f_term_count,
    f_variables,
    ladder_support,
    leibniz_det,
    matrix_rank,
    minor_det_and_f,
    minor_rank,
    naive_jordan_parts,
    naive_hypersurface_point,
    naive_mat_mul,
    naive_power_rank,
    naive_variety_point,
    per_prime_report,
    remark_by_expansion,
    remark_class,
    same_up_to_sign,
    slide_project,
    sliced_power_rank,
    tab,
)


def nilpotent_blocks(*sizes: int, prime=7) -> FieldMatrix:
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for s in sizes:
        for k in range(s - 1):
            rows[at + k][at + k + 1] = 1
        at += s
    return FieldMatrix(tuple(tuple(r) for r in rows), prime)


def test_primes_are_prime():
    for p in (DEFAULT_PRIME, SECOND_PRIME):
        assert p > 2 and p % 2 == 1
        assert all(p % q for q in range(3, int(p**0.5) + 1, 2))


def test_field_matrix_reduces_and_slices():
    m = FieldMatrix(((10, -1), (0, 3)), 7)
    assert m.entry(1, 1) == 3
    assert m.entry(1, 2) == 6
    assert m.n == 2
    assert not m.is_strictly_upper()
    assert FieldMatrix(((0, 5), (0, 0)), 7).is_strictly_upper()
    # the public constructor reduces and checks squareness; only the
    # samplers skip both
    assert FieldMatrix(((0, -1), (0, 9)), 7).rows == ((0, 6), (0, 2))


@pytest.mark.parametrize(
    "rows, message",
    [
        (((0, 1), (0,)), "2 rows of lengths [2, 1]"),
        (((0, 1, 2), (0, 0, 3)), "2 rows of lengths [3, 3]"),
        (((1.5,), (0.5, 1.5)), "2 rows of lengths [1, 2]"),
    ],
)
def test_field_matrix_rejects_a_matrix_that_is_not_square(rows, message):
    # a ragged matrix used to raise a bare ValueError, and only after its
    # entries were reduced; squareness is checked first, so ragged rows of
    # floats are NotSquare too. NotSquare is a ValueError, so callers that
    # caught the old error still catch it
    with pytest.raises(NotSquare, match=re.escape(f"matrix must be square: {message}")):
        FieldMatrix(rows, 7)
    with pytest.raises(ValueError):
        FieldMatrix(rows, 7)


@pytest.mark.parametrize("bad", [1.5, "3", True, None, 7.0])
def test_field_matrix_rejects_entries_that_are_not_ints(bad):
    # 1.5 used to be stored as 1, "3" as 3 and True as 1
    with pytest.raises(BadProbeInput, match=f"^matrix entry {bad!r} is not an int$"):
        FieldMatrix(((0, bad), (0, 0)), 7)
    assert FieldMatrix(((0, 10**30), (0, -1)), 7).rows == ((0, 10**30 % 7), (0, 6))


def test_matrix_rank():
    assert matrix_rank(FieldMatrix(((1, 2), (2, 4)), 5)) == 1
    assert matrix_rank(FieldMatrix(((1, 2), (2, 5)), 5)) == 2
    # rank can drop mod p but not exactly
    assert matrix_rank(FieldMatrix(((1, 2), (2, 9)), 5)) == 1
    assert matrix_rank(FieldMatrix(((0, 0), (0, 0)), 5)) == 0


def test_rank_bound():
    lam = Partition((3, 1))
    assert rank_bound(lam, 0) == 4
    assert rank_bound(lam, 1) == 2
    assert rank_bound(lam, 2) == 1
    assert rank_bound(lam, 3) == 0
    # a BadExponent, which is still the ValueError it used to be
    with pytest.raises(BadExponent, match="^power must be nonnegative, got -1$"):
        rank_bound(lam, -1)
    assert issubclass(BadExponent, ValueError)


@pytest.mark.parametrize("k", [1.5, 2.0, True, "1"])
def test_rank_bound_rejects_non_integral_power(k):
    # 1.5 used to give 1.5 boxes and True the bound at k = 1
    with pytest.raises(BadExponent, match="power must be an int"):
        rank_bound(Partition((3, 1)), k)


def test_jordan_type():
    assert jordan_type(nilpotent_blocks(3, 2, prime=7)).parts == (3, 2)
    assert jordan_type(nilpotent_blocks(4, prime=DEFAULT_PRIME)).parts == (4,)
    zero = FieldMatrix(((0, 0), (0, 0)), 7)
    assert jordan_type(zero).parts == (1, 1)
    with pytest.raises(NotNilpotent):
        jordan_type(FieldMatrix(((1, 0), (0, 0)), 7))


def test_check_power_rank():
    m = nilpotent_blocks(3, 2, prime=7)
    t = tab((1, 2, 3), (4, 5))
    assert check_power_rank(m, t) == []
    # the same matrix against the zero-orbit tableau must violate
    col = tab((1,), (2,), (3,), (4,), (5,))
    violations = check_power_rank(m, col)
    assert violations
    assert all(isinstance(v, Violation) and v.rank > v.bound for v in violations)



def _probe_matrices(t, rng):
    """A point of the span of t's word (inside the variety's closure), a
    sparse and a dense random strictly upper matrix; small integer entries."""
    n = t.n
    w = find_word_for_tableau(t)
    fills = (
        lambda a, b: w(a + 1) < w(b + 1),
        lambda a, b: rng.random() < 0.3,
        lambda a, b: True,
    )
    for fill in fills:
        yield [
            [rng.randint(-3, 3) if a < b and fill(a, b) else 0 for b in range(n)]
            for a in range(n)
        ]


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME])
def test_kernel_matches_naive_oracles(p):
    rng = random.Random(f"kernel:{p}")
    consistent = violating = 0
    for n in range(1, 6):
        for t in all_syt(n):
            for rows in _probe_matrices(t, rng):
                m = FieldMatrix(tuple(map(tuple, rows)), p)
                assert matrix_rank(m) == minor_rank(rows, p)
                assert jordan_type(m).parts == naive_jordan_parts(rows, p)
                expected = naive_power_rank(rows, t, p)
                assert [tuple(v) for v in check_power_rank(m, t)] == expected
                if expected:
                    violating += 1
                else:
                    consistent += 1
    assert consistent > 50 and violating > 50


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME])
def test_check_power_rank_matches_sliced_oracle(p):
    # a variety point drawn over GF(DEFAULT_PRIME) (consistent when p is
    # that prime), then a sparse and a dense random strictly upper matrix,
    # for every tableau with n <= 7
    rng = random.Random(f"sliced:{p}")
    consistent = violating = 0
    for n in range(1, 8):
        for t in all_syt(n):
            points = [
                sample_variety_point(t, seed=n).rows,
                *(
                    [
                        [rng.randint(-3, 3) if a < b and rng.random() < fill else 0 for b in range(n)]
                        for a in range(n)
                    ]
                    for fill in (0.3, 1.0)
                ),
            ]
            for rows in points:
                expected = sliced_power_rank(rows, t, p)
                m = FieldMatrix(tuple(map(tuple, rows)), p)
                assert [tuple(v) for v in check_power_rank(m, t)] == expected
                if expected:
                    violating += 1
                else:
                    consistent += 1
    assert consistent > 50 and violating > 50


def test_powers_are_multiplied_once_per_matrix(monkeypatch):
    # a matrix's rank tables and a tableau's bound table are each built
    # once, so a second check_power_rank (or jordan_type) adds no work
    calls = Counter()
    for name in ("_window_ranks", "_recordings"):
        real = getattr(orbital.verify, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(orbital.verify, name, counting)
    orbital.verify._rank_bounds.cache_clear()
    m = nilpotent_blocks(4, 2, prime=7)
    t = tab((1, 2, 3, 4), (5, 6))
    assert check_power_rank(m, t) == []
    # X, X^2 and X^3; one insertion pass per start row of a 6-box tableau
    first = Counter({"_window_ranks": 3, "_recordings": 6})
    assert calls == first
    assert check_power_rank(m, t) == []
    assert jordan_type(m).parts == (4, 2)
    assert calls == first


def test_each_power_is_swept_once(monkeypatch):
    # one insertion per nonzero power: X^4 = 0 shows in the products of
    # X^3's basis, without an insertion of its own
    sweeps = 0
    real = orbital.verify._window_ranks

    def counting(pairs, n, p):
        nonlocal sweeps
        sweeps += 1
        return real(pairs, n, p)

    monkeypatch.setattr(orbital.verify, "_window_ranks", counting)
    m = nilpotent_blocks(4, 2, prime=7)
    assert jordan_type(m).parts == (4, 2)
    assert sweeps == len(m._sweeps) == 3
    # the zero matrix has no nonzero power and costs no insertion
    assert jordan_type(FieldMatrix(((0, 0), (0, 0)), 7)).parts == (1, 1)
    assert sweeps == 3


@pytest.mark.parametrize("modulus", [7 * 11, 3 * 5 * 7])
def test_one_sweep_over_a_product_of_primes(modulus):
    # a verify trial sweeps its points once over Z/M, M the product of its
    # primes. A new pivot whose leading entry is not a unit mod M signals
    # the fallback to one sweep per prime; otherwise every table is the one
    # each prime's own sweep gives, also when a leading entry that is
    # eliminated, or an entry that is never a leading one, is not a unit
    nonunit = FieldMatrix._reduced([[0, 7, 1], [0, 0, 2], [0, 0, 0]], modulus)
    message = f"^leading entry 7 shares a factor with {modulus}$"
    with pytest.raises(orbital.verify._NonUnit, match=message):
        nonunit._sweeps
    primes = [p for p in (3, 5, 7, 11) if modulus % p == 0]
    rng = random.Random(f"joint:{modulus}")
    agreed = fell_back = mixed = 0
    for n in range(1, 7):
        for _ in range(60):
            rows = [
                [rng.randrange(modulus) if a < b and rng.random() < 0.6 else 0 for b in range(n)]
                for a in range(n)
            ]
            m = FieldMatrix._reduced(rows, modulus)
            try:
                tables = m._sweeps
            except orbital.verify._NonUnit:
                fell_back += 1
                continue
            agreed += 1
            mixed += any(e and math.gcd(e, modulus) != 1 for row in rows for e in row)
            for p in primes:
                assert tables == FieldMatrix(tuple(map(tuple, rows)), p)._sweeps
    assert agreed > 100 and fell_back > 100 and mixed > 15


def _explicit_sweeps(rows, p):
    """The rank table of each nonzero power up to X^n, every power
    multiplied out and all its rows inserted."""
    n = len(rows)
    tables = []
    power = [list(row) for row in rows]
    while any(map(any, power)) and len(tables) < n:
        pairs = list(enumerate(power))
        pairs.reverse()
        tables.append(orbital.verify._window_ranks(pairs, n, p)[0])
        power = naive_mat_mul(power, rows, p)
    return tables


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME])
def test_carried_basis_matches_explicit_powers(p):
    # the sweeps carry each power's echelon basis through one more factor
    # of X; the tables must be those of the explicit powers, on sampled
    # hypersurface points and on nilpotent matrices that are not upper
    points = 0
    for d in iter_descriptors(7):
        for seed in range(2):
            try:
                z = sample_hypersurface_point(d, seed, p)
            except DegenerateSample:
                continue
            points += 1
            assert z._sweeps == _explicit_sweeps(z.rows, p), d.descriptor_id
    assert points > 100
    rng = random.Random(f"carried:{p}")
    general = 0
    for sizes in [(2,), (3,), (2, 1), (4,), (3, 1), (2, 2), (5,), (3, 2), (4, 2, 1)]:
        for _ in range(4):
            g, g_inv = _unimodular(sum(sizes), rng)
            rows = naive_mat_mul(naive_mat_mul(g, nilpotent_blocks(*sizes).rows), g_inv, p)
            m = FieldMatrix(tuple(map(tuple, rows)), p)
            general += not m.is_strictly_upper()
            assert m._sweeps == _explicit_sweeps(rows, p)
            assert len(m._sweeps) == sizes[0] - 1
    assert general > 25


def test_sweeps_of_a_matrix_that_is_not_nilpotent():
    # rank stays at 1 from X on; the sweeps stop at X^n
    rows = ((0, 1, 0), (0, 0, 0), (0, 0, 5))
    m = FieldMatrix(rows, 7)
    assert m._sweeps == _explicit_sweeps(rows, 7)
    assert len(m._sweeps) == 3
    with pytest.raises(NotNilpotent, match="stabilised at 1"):
        jordan_type(m)
    with pytest.raises(NotNilpotent):
        jordan_type(FieldMatrix(((1, 1), (6, 1)), 7))


def test_rank_bound_table():
    # bounds[k - 1][i - 1][j - 1] is the rank bound of window [i, j] at
    # power k (0 below the diagonal), the window cut by jeu de taquin
    for n in range(1, 8):
        for t in all_syt(n):
            shapes = {
                (i, j): slide_project(t, i, j).shape
                for i in range(1, n + 1)
                for j in range(i, n + 1)
            }
            bounds = orbital.verify._rank_bounds(t)
            assert len(bounds) == n - 1
            for k, table in enumerate(bounds, start=1):
                assert len(table) == n
                for i, row in enumerate(table, start=1):
                    assert row == tuple(
                        rank_bound(shapes[i, j], k) if j >= i else 0
                        for j in range(1, n + 1)
                    )


def _unimodular(n, rng):
    """A random integer matrix of determinant 1 and its inverse, as a
    product of elementary row additions."""
    g = [[int(r == c) for c in range(n)] for r in range(n)]
    g_inv = [row[:] for row in g]
    for _ in range(3 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        e[b][a], e_inv[b][a] = c, -c
        g, g_inv = naive_mat_mul(e, g), naive_mat_mul(g_inv, e_inv)
    return g, g_inv


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME])
def test_rank_and_jordan_type_of_general_matrices(p):
    # matrix_rank and jordan_type read the echelon sweep of any square
    # matrix, not only of strictly upper ones
    rng = random.Random(f"general:{p}")
    empty = FieldMatrix((), p)
    assert matrix_rank(empty) == 0
    assert jordan_type(empty).parts == ()
    for n in range(1, 5):
        for _ in range(30):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = FieldMatrix(tuple(map(tuple, rows)), p)
            assert matrix_rank(m) == minor_rank(rows, p)
            power = rows
            for _ in range(n - 1):
                power = naive_mat_mul(power, rows, p)
            if any(map(any, power)):
                with pytest.raises(NotNilpotent):
                    jordan_type(m)
            else:
                assert jordan_type(m).parts == naive_jordan_parts(rows, p)
    # nilpotent but not triangular: Jordan blocks conjugated by g
    lower = 0
    for sizes in [(1,), (2,), (1, 1), (3,), (2, 1), (4,), (3, 1), (2, 2), (2, 1, 1)]:
        n = sum(sizes)
        for _ in range(5):
            g, g_inv = _unimodular(n, rng)
            rows = naive_mat_mul(naive_mat_mul(g, nilpotent_blocks(*sizes).rows), g_inv)
            lower += any(rows[r][c] for r in range(n) for c in range(r))
            m = FieldMatrix(tuple(map(tuple, rows)), p)
            assert jordan_type(m).parts == naive_jordan_parts(rows, p) == sizes
            assert matrix_rank(m) == minor_rank(rows, p) == n - len(sizes)
    assert lower > 30


def test_check_power_rank_not_applicable():
    with pytest.raises(NotApplicable):
        check_power_rank(FieldMatrix(((1, 0), (0, 0)), 7), tab((1, 2)))
    with pytest.raises(NotApplicable):
        check_power_rank(nilpotent_blocks(2, prime=7), tab((1, 2, 3),))


def test_sample_variety_point_properties():
    t = tab(*SIX_BOX)
    for seed in range(3):
        pt = sample_variety_point(t, seed)
        assert pt.is_strictly_upper()
        assert jordan_type(pt) == t.shape
        assert check_power_rank(pt, t) == []
    # determinism: the stream depends only on (seed, prime)
    assert sample_variety_point(t, 1).rows == sample_variety_point(t, 1).rows
    assert sample_variety_point(t, 1).rows != sample_variety_point(t, 2).rows


def test_sample_variety_point_on_every_small_tableau():
    # generic points of V_T have Jordan type shape(T) and meet every window
    # bound; a word with the wrong tableau convention fails this on most T
    for n in range(1, 8):
        for t in all_syt(n):
            for seed in range(2):
                pt = sample_variety_point(t, seed)
                assert check_power_rank(pt, t) == []
                assert jordan_type(pt) == t.shape


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 7])
def test_sample_variety_point_matches_dense_oracle(prime):
    # the back-substitution, the cached word span and the constructor that
    # skips reduction, against dense products of the same draws
    for n in range(1, 8):
        for t in all_syt(n):
            for seed in range(2):
                pt = sample_variety_point(t, seed, prime)
                assert pt.rows == tuple(map(tuple, naive_variety_point(t, seed, prime)))
                assert FieldMatrix(pt.rows, prime) == pt


@pytest.mark.parametrize("primes", [(DEFAULT_PRIME, SECOND_PRIME), (7, 11)])
def test_one_variety_point_mod_the_product_serves_every_prime(primes):
    # a trial draws its point once modulo M = p * q; each prime's
    # reduction is a point of the variety over GF(p): strictly upper, no
    # window bound broken, and of Jordan type shape(t) over the 31-bit
    # primes. Over GF(7) and GF(11) the type may drop by chance, but never
    # above shape(t)
    modulus = primes[0] * primes[1]
    points = drops = 0
    for n in range(1, 8):
        for t in all_syt(n):
            rows = naive_variety_point(t, n, modulus)
            for p in primes:
                pt = sample_variety_point(t, n, p, modulus=modulus)
                assert pt.rows == tuple(tuple(e % p for e in row) for row in rows)
                assert FieldMatrix(pt.rows, p) == pt
                assert pt.is_strictly_upper()
                assert check_power_rank(pt, t) == []
                jt = jordan_type(pt)
                assert dominance_le(jt, t.shape)
                drops += jt != t.shape
                points += 1
    assert points == 702
    if primes == (DEFAULT_PRIME, SECOND_PRIME):
        assert drops == 0
    else:
        assert 0 < drops < points // 2


@pytest.mark.parametrize("bad", [8, 7 * 11 + 1, -77, 0, 77.0, True])
def test_sample_variety_point_rejects_a_modulus_prime_does_not_divide(bad):
    t = tab(*SIX_BOX)
    with pytest.raises(BadProbeInput, match=f"^modulus {bad!r} is not a multiple of 7$"):
        sample_variety_point(t, 0, 7, modulus=bad)
    assert sample_variety_point(t, 0, 7, modulus=7) == sample_variety_point(t, 0, 7)


def test_verify_conjecture_reduces_one_point_per_trial(monkeypatch):
    # every prime of a trial sees the same draw mod the product of the
    # primes, reduced; a one-prime run sees the one-prime sampler's point
    seen = []
    real = orbital.verify.sample_variety_point

    def recording(t, seed, prime, **kwargs):
        pt = real(t, seed, prime, **kwargs)
        seen.append((seed, prime, kwargs, pt.rows))
        return pt

    monkeypatch.setattr(orbital.verify, "sample_variety_point", recording)
    d = classify_hypersurface(tab(*SIX_BOX))
    verify_conjecture(d, trials=3, seed=5, primes=(7, 11))
    assert [(seed, p) for seed, p, _, _ in seen] == [
        ("5:0", 7), ("5:0", 11), ("5:1", 7), ("5:1", 11), ("5:2", 7), ("5:2", 11)
    ]
    for seed, p, kwargs, rows in seen:
        assert kwargs == {"modulus": 77}
        expected = naive_variety_point(d.tableau, seed, 77)
        assert rows == tuple(tuple(e % p for e in row) for row in expected)
    seen.clear()
    verify_conjecture(d, trials=2, seed=5, primes=(SECOND_PRIME,))
    assert [rows for _, _, _, rows in seen] == [
        real(d.tableau, f"5:{trial}", SECOND_PRIME).rows for trial in range(2)
    ]


def test_verify_conjecture_reads_an_iterator_of_primes_once():
    # the check of the primes used to exhaust an iterator, which left a
    # report with no prime, every count full and necessity_ok True
    d = classify_hypersurface(tab(*FIVE_BOX))
    rep = verify_conjecture(d, trials=3, seed=1, primes=iter([7]))
    assert rep.primes == (7,)
    assert rep == verify_conjecture(d, trials=3, seed=1, primes=(7,))
    assert rep.to_json()["primes"] == [7]
    with pytest.raises(BadProbeInput, match="no prime"):
        verify_conjecture(d, trials=1, primes=iter([]))


@pytest.mark.parametrize("p", [2**31 - 1, 2**31 - 19, 7, 3])
def test_inline_draw_is_randrange(p):
    # the samplers draw with _below; the sample stream, and with it every
    # pinned report, stays that of random.Random.randrange only while
    # CPython draws the same way. 7 and 3 reject often, 2**31 - 1 and
    # 2**31 - 19 (the default primes) rarely.
    below = orbital.verify._below
    ref, ours = random.Random(f"below:{p}"), random.Random(f"below:{p}")
    bits = ours.getrandbits
    assert [ref.randrange(p) for _ in range(10**4)] == [below(bits, p) for _ in range(10**4)]
    assert [ref.randrange(1, p) for _ in range(10**4)] == [
        1 + below(bits, p - 1) for _ in range(10**4)
    ]
    assert ref.getrandbits(32) == ours.getrandbits(32)


def test_sample_hypersurface_point_properties():
    d = classify_hypersurface(tab(*SIX_BOX))
    f = generator_report(d).f
    tau = d.tau
    for seed in range(3):
        pt = sample_hypersurface_point(d, seed)
        assert pt.is_strictly_upper()
        vals = {
            (a, b): pt.entry(a, b)
            for a in range(1, 7)
            for b in range(a + 1, 7)
        }
        assert poly_eval(f, vals, prime=DEFAULT_PRIME) == 0
        # tau-linear conditions hold by construction
        for a, b in tau.positive_roots:
            assert pt.entry(a, b + 1) == 0
        assert FieldMatrix(pt.rows, DEFAULT_PRIME) == pt
    assert (
        sample_hypersurface_point(d, 4).rows
        == sample_hypersurface_point(d, 4).rows
    )


def test_verify_conjecture_small_run():
    d = classify_hypersurface(tab(*SIX_BOX))
    rep = verify_conjecture(d, trials=5, seed=0)
    assert rep.trials == 5
    assert rep.primes == (DEFAULT_PRIME, SECOND_PRIME)
    assert rep.f_vanishes_on_v == 5
    assert rep.necessity_ok
    assert rep.failures == ()
    blob = rep.to_json()
    assert blob["descriptor"] == d.descriptor_id
    assert blob["trials"] == 5
    assert blob["failures"] == []


def test_verify_conjecture_custom_prime():
    d = classify_hypersurface(tab(*FIVE_BOX))
    rep = verify_conjecture(d, trials=4, seed=1, primes=(1000003,))
    assert rep.primes == (1000003,)
    assert rep.necessity_ok


def _f_plus_one(generator):
    return lambda d: generator(d) + MultiPoly.const(1)


def _root_entry_set(sample):
    # x_{u,v+1} = 1 for the first root alpha_u + .. + alpha_v of tau
    def patched(t, *args, **kwargs):
        point = sample(t, *args, **kwargs)
        u, v = tau_invariant(t).positive_roots[0]
        rows = [list(row) for row in point.rows]
        rows[u - 1][v] = 1
        return FieldMatrix(rows, point.prime)

    return patched


def _bounds_lowered(bounds):
    return lambda t: tuple(
        tuple(tuple(b - 1 for b in row) for row in table) for table in bounds(t)
    )


@pytest.mark.parametrize(
    "name, wrap, probes",
    [
        # the hypersurface point then solves f + 1 = 0, off {f = 0}
        ("_descriptor_generator", _f_plus_one, {"f_vanishes_on_v", "jordan_match", "power_rank"}),
        ("sample_variety_point", _root_entry_set, {"linear_conditions"}),
        ("_rank_bounds", _bounds_lowered, {"power_rank"}),
    ],
)
def test_broken_probes_are_recorded(monkeypatch, name, wrap, probes):
    # each probe's failure path, reached by breaking what it checks: every
    # trial fails the broken probes under every prime, and only the first
    # two break necessity
    d = classify_hypersurface(tab(*EIGHT_DROP))
    monkeypatch.setattr(f"orbital.verify.{name}", wrap(getattr(orbital.verify, name)))
    rep = verify_conjecture(d, trials=2)
    assert {(f.probe, f.trial, f.prime) for f in rep.failures} == {
        (probe, trial, p) for probe in probes for trial in (0, 1) for p in rep.primes
    }
    broken = bool(probes & {"f_vanishes_on_v", "linear_conditions"})
    assert rep.necessity_ok is not broken
    assert rep.f_vanishes_on_v == (0 if broken else 2)
    assert rep.to_json()["failures"] == [f._asdict() for f in rep.failures]


def test_small_prime_reports_are_pinned():
    # the CLI pins at the default primes record no failure; over GF(7),
    # GF(11) and GF(3) Jordan types drop by chance, so this digest covers
    # how failures become the four counts
    digest = hashlib.sha256()
    lowered = Counter()
    for primes in ((7, 11), (3,)):
        for d in iter_descriptors(7):
            rep = verify_conjecture(d, trials=4, seed=2, primes=primes)
            counts = (
                rep.f_vanishes_on_v,
                rep.f_nonzero_on_richardson,
                rep.jordan_match,
                rep.power_rank_ok,
            )
            digest.update(json.dumps([rep.to_json(), counts, rep.necessity_ok]).encode())
            lowered[primes] += 4 * len(counts) - sum(counts)
    assert lowered == {(7, 11): 96, (3,): 136}
    assert digest.hexdigest() == (
        "7803f3afb85da388b7c46041a79ec63887942c642f96bcac838fd01bd9a8902d"
    )


def test_degenerate_sample_under_one_prime_fails_its_trial(monkeypatch):
    # a hypersurface draw that degenerates under one prime of two leaves
    # that trial out of both counts it could not check, and no other
    d = classify_hypersurface(tab(*SIX_BOX))
    clean = verify_conjecture(d, trials=3)
    assert clean.failures == ()
    # every round of a trial's hypersurface loop solves the primes still
    # unsolved together, so a trial's first round is the one call with
    # both primes; on trial 1, SECOND_PRIME never solves
    solve = orbital.verify._solve_draw
    trial = -1

    def without_second_prime(f, fvars, vals, primes, modulus):
        nonlocal trial
        if len(primes) == 2:
            trial += 1
        solved = solve(f, fvars, vals, primes, modulus)
        if trial == 1:
            solved.pop(SECOND_PRIME, None)
        return solved

    monkeypatch.setattr(orbital.verify, "_solve_draw", without_second_prime)
    rep = verify_conjecture(d, trials=3)
    message = f"no solvable coordinate for {d.descriptor_id} after 50 draws"
    assert rep.failures == (
        orbital.verify.Failure("degenerate_sample", 1, SECOND_PRIME, message),
    )
    assert (rep.jordan_match, rep.power_rank_ok) == (2, 2)
    assert (rep.f_vanishes_on_v, rep.f_nonzero_on_richardson) == (3, 3)
    assert rep.necessity_ok


def test_joint_trial_matches_one_prime_at_a_time(monkeypatch):
    # a trial evaluates f, solves the hypersurface point and sweeps its
    # rank tables once modulo the product of its primes; every report must
    # be the one each prime's own steps give. Over small primes the sweep
    # falls back when it would take a pivot whose leading entry is not a
    # unit, and a prime's first hypersurface draw can leave f unsolved, so
    # that it draws again in the next round of the same loop
    sweeps, unsolved = Counter(), Counter()
    window_ranks = orbital.verify._window_ranks
    lift, solve = orbital.verify._hypersurface_lift, orbital.verify._solve_draw
    first_round = False

    def counting_ranks(pairs, n, p):
        try:
            return window_ranks(pairs, n, p)
        except orbital.verify._NonUnit:
            sweeps[p] += 1
            raise

    def counting_lift(*args):
        nonlocal first_round
        first_round = True
        return lift(*args)

    def counting_solve(f, fvars, vals, primes, modulus):
        nonlocal first_round
        solved = solve(f, fvars, vals, primes, modulus)
        if first_round:
            unsolved["lift"] += len(primes) - len(solved)
            first_round = False
        return solved

    monkeypatch.setattr(orbital.verify, "_window_ranks", counting_ranks)
    monkeypatch.setattr(orbital.verify, "_hypersurface_lift", counting_lift)
    monkeypatch.setattr(orbital.verify, "_solve_draw", counting_solve)
    for primes in [(DEFAULT_PRIME, SECOND_PRIME), (7, 11), (3, 5, 7), (1000003, 7), (3,)]:
        for d in iter_descriptors(7):
            before = unsolved["lift"]
            rep = verify_conjecture(d, trials=4, seed=3, primes=primes)
            unsolved[primes] += unsolved["lift"] - before
            assert rep == per_prime_report(d, 4, 3, primes), (primes, d.descriptor_id)
    del unsolved["lift"]
    # 296 trials per tuple of primes
    assert sweeps == {77: 168, 105: 289, 7000021: 166}
    assert +unsolved == {(7, 11): 1, (3, 5, 7): 18, (1000003, 7): 1, (3,): 8}


def test_per_prime_report_runs_none_of_the_trial(monkeypatch):
    # the oracle builds its own failures, so a trial that loses some of
    # its failures must no longer match it: with every jordan_match
    # failure dropped, some report at n <= 7 differs
    probe = orbital.verify._probe_failures

    def without_jordan_match(*args):
        return (f for f in probe(*args) if f.probe != "jordan_match")

    monkeypatch.setattr(orbital.verify, "_probe_failures", without_jordan_match)
    differ = sum(
        verify_conjecture(d, 4, 3, (7, 11)) != per_prime_report(d, 4, 3, (7, 11))
        for d in iter_descriptors(7)
    )
    assert differ > 0


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 7, 3])
def test_hypersurface_sampler_matches_its_oracle(p):
    # the one-prime sampler and the joint trial run the same loop; this
    # checks the loop against a replay of the stream that shares none of
    # it, the replay per_prime_report solves every hypersurface point with
    points = 0
    for d in iter_descriptors(7):
        for seed in range(3):
            assert sample_hypersurface_point(d, seed, p).rows == tuple(
                map(tuple, naive_hypersurface_point(d, seed, p))
            ), (d.descriptor_id, seed)
            points += 1
    assert points == 222


def test_verify_conjecture_rejects_empty_or_bad_work():
    d = classify_hypersurface(tab(*FIVE_BOX))
    for trials in (0, -2):
        with pytest.raises(BadProbeInput, match=f"trials must be at least 1, got {trials}"):
            verify_conjecture(d, trials=trials)
    # 2.5 used to fail in range with a bare TypeError
    with pytest.raises(BadProbeInput, match="trials must be an int, got 2.5"):
        verify_conjecture(d, trials=2.5)
    # True is an int, and used to report "trials": true
    with pytest.raises(BadProbeInput, match="trials must be an int, got True"):
        verify_conjecture(d, trials=True)
    with pytest.raises(BadProbeInput, match="no prime"):
        verify_conjecture(d, trials=5, primes=())
    # 9 used to fail deep in the sampler with "base is not invertible"
    for bad in (9, 2, 1, 0, -7, 3215031751):
        with pytest.raises(BadProbeInput, match=f"^{bad} is not an odd prime$"):
            verify_conjecture(d, trials=1, primes=(DEFAULT_PRIME, bad))
    with pytest.raises(BadProbeInput, match="below 2\\*\\*64"):
        verify_conjecture(d, trials=1, primes=(2**64 + 13,))
    # 7.0 used to reach the sampler's draw; it equals 7, so once 7 has been
    # checked a cache keyed on the modulus would let it through
    verify_conjecture(d, trials=1, primes=(7,))
    with pytest.raises(BadProbeInput, match="^modulus 7.0 is not an int$"):
        verify_conjecture(d, trials=1, primes=(7.0,))
    # an unhashable modulus used to raise TypeError from the cache
    with pytest.raises(BadProbeInput, match="^modulus \\[7\\] is not an int$"):
        verify_conjecture(d, trials=1, primes=([7],))
    with pytest.raises(BadProbeInput, match="^modulus True is not an int$"):
        verify_conjecture(d, trials=1, primes=(True,))
    # a repeated prime used to record each of its failures once per copy
    for primes in ((7, 7), (7, 11, 7)):
        with pytest.raises(BadProbeInput, match=re.escape(f"primes {primes} repeat a prime")):
            verify_conjecture(d, trials=1, primes=primes)
    check_modulus = orbital.verify.check_modulus
    assert check_modulus(3) == 3 and check_modulus(10**18 + 9) == 10**18 + 9


@pytest.mark.parametrize("bad", [0, 1, -7, 4, 9, 7.0])
def test_samplers_and_field_matrix_reject_bad_moduli(bad):
    # 0, 1 and -7 used to hang the variety sampler's draw of a nonzero
    # diagonal entry, 4 to fail in pow with a bare ValueError, and 7.0 to
    # give a FieldMatrix float rows
    d = classify_hypersurface(tab(*FIVE_BOX))
    if isinstance(bad, int):
        message = f"^{bad} is not an odd prime$"
    else:
        message = f"^modulus {bad} is not an int$"
    with pytest.raises(BadProbeInput, match=message):
        sample_variety_point(d.tableau, 0, bad)
    with pytest.raises(BadProbeInput, match=message):
        sample_hypersurface_point(d, 0, bad)
    with pytest.raises(BadProbeInput, match=message):
        FieldMatrix(((0, 1), (0, 0)), bad)


@pytest.mark.parametrize("n", [9, 10])
def test_verify_conjecture_past_eight_boxes(n):
    sized = [d for d in iter_descriptors(n) if d.n == n]
    for d in (sized[0], sized[-1]):
        rep = verify_conjecture(d, trials=2)
        assert rep.necessity_ok, rep.failures


def test_remark_minor_nine_box():
    d = classify_hypersurface(tab(*NINE_BOX))
    corner, k, r = remark_minor(d)
    assert (k, r) == (2, 4)
    assert (corner.nrows, corner.ncols) == (4, 4)
    # the minor factors as the generator times a spurious quadratic
    f = generator_report(d).f
    cofactor = x(3, 6) * x(4, 7) - x(4, 6) * x(3, 7)
    assert determinant(corner) == cofactor * f


def test_remark_check_golden():
    yes = remark_check(classify_hypersurface(tab(*SIX_BOX)))
    assert (yes.detm_equals_f, yes.chain_condition) == (True, True)
    yes5 = remark_check(classify_hypersurface(tab(*FIVE_BOX)))
    assert (yes5.detm_equals_f, yes5.chain_condition) == (True, True)
    no = remark_check(classify_hypersurface(tab(*NINE_BOX)))
    assert (no.detm_equals_f, no.chain_condition) == (False, False)


def test_remark_check_matches_leibniz_oracle():
    # both signs occur, so dropping either comparison fails this
    signs = {"+f": 0, "-f": 0, "neither": 0}
    for d in iter_descriptors(8):
        corner, _, _ = remark_minor(d)
        dw = classify_hypersurface(project(d.tableau, *d.window))
        f = generator_report(dw).f
        det_m = leibniz_det(corner)
        expected = same_up_to_sign(det_m, f)
        assert remark_check(d).detm_equals_f == expected, d.descriptor_id
        signs["+f" if det_m == f else "-f" if det_m == -f else "neither"] += 1
    assert signs == {"+f": 132, "-f": 64, "neither": 2}


def test_power_corner_matches_full_power():
    # remark_minor builds its corner from d.window_problem; it must be the
    # full power's corner on the window reached by projecting d's tableau
    # and classifying the result, at every k the descriptors meet
    ks = Counter()
    for d in iter_descriptors(8):
        corner, k, r = remark_minor(d)
        dw = classify_hypersurface(project(d.tableau, *d.window))
        full = generic_richardson_matrix(dw.tau, dw.n).power(k).top_right(r)
        assert corner == full, d.descriptor_id
        ks[k] += 1
    assert ks == {1: 94, 2: 86, 3: 17, 4: 1}


def _window_problems(n_max: int) -> dict:
    """Each distinct window problem (tau_w, thickness) with n <= n_max, with
    the first descriptor that names it."""
    problems: dict = {}
    for d in iter_descriptors(n_max):
        problems.setdefault(d.window_problem, d)
    return problems


def _shape_readings(tau_w: TauSet, i_thick: int) -> tuple[int, int, int]:
    """(k, r, l(lambda)) of the window problem, read off its Richardson
    shape lambda: k = lambda_I - 1, r the rank bound at k, and
    l(lambda) = lambda_1 + ... + lambda_I - I."""
    lam = richardson_tableau(tau_w, tau_w.n).shape
    k = lam.part(i_thick) - 1
    return k, rank_bound(lam, k), sum(lam.part(j) for j in range(1, i_thick + 1)) - i_thick


def test_shape_numbers_read_the_richardson_shape():
    # l(lambda), k and r are read off the chain lengths alone; on every
    # window problem with n <= 12 they must be the Richardson shape's
    problems = _window_problems(12)
    for tau_w, i_thick in problems:
        k, r, l_lambda = _shape_readings(tau_w, i_thick)
        assert _shape_numbers(_tau_chains(tau_w), i_thick) == (l_lambda, k, r), (tau_w, i_thick)
    assert len(problems) == 239


def test_remark_minor_reads_its_window_problem():
    # remark_minor depends on d only through d.window_problem: every
    # descriptor naming one window problem gets the same corner, and its
    # k and r are the Richardson shape's, with k >= 1 and the corner r x r
    seen: dict = {}
    for d in iter_descriptors(10):
        corner, k, r = remark_minor(d)
        problem = d.window_problem
        assert (k, r) == _shape_readings(*problem)[:2], d.descriptor_id
        assert k >= 1 and corner.nrows == corner.ncols == r >= 1, d.descriptor_id
        assert seen.setdefault(problem, (corner, k, r)) == (corner, k, r), d.descriptor_id
    assert len(seen) == 79


def test_remark_classes_match_the_expansion():
    # remark_check decides in closed form by the class of the interior
    # chains: short (det M is f, k = 1), mixed (det M and f differ in
    # degree by S*m_long) or long (det M = +-f by Lindstrom-Gessel-Viennot).
    # On every window problem with n <= 10 it must give the expansion's
    # result, and each class must rest on what its proof claims
    problems = _window_problems(10)
    classes = Counter()
    for (tau_w, i_thick), d in problems.items():
        cls = remark_class(tau_w, i_thick)
        classes[cls] += 1
        decided = remark_check(d)
        assert decided == remark_by_expansion(tau_w, i_thick), (tau_w, i_thick)
        size = tau_w.n
        k, r, l_lambda = _shape_readings(tau_w, i_thick)
        if cls == "short":
            assert decided == (True, True)
            assert (k, r, size - i_thick - l_lambda) == (1, size - i_thick, 0)
            window = cmin_window(tau_w, size, (1, size), i_thick).entries
            assert remark_minor(d)[0].entries == tuple(
                tuple(t_coefficient(e, 0) for e in row) for row in window
            ), (tau_w, i_thick)
        elif cls == "mixed":
            assert r * k - l_lambda == degree_gap(tau_w, i_thick) > 0, (tau_w, i_thick)
            assert decided == (False, False)
            det_m = determinant(remark_minor(d)[0])
            assert all(sum(e for _, e in mono) == r * k for mono in det_m.terms)
        else:
            assert r * k == l_lambda and decided == (True, True)
    assert len(problems) == 79
    assert classes == {"short": 24, "mixed": 16, "long": 39}


def test_closed_form_remark_matches_the_expansion_at_n_12():
    # the closed form against the expansion on every window problem with
    # n <= 12; in the long class det M is f times the sign the docstring's
    # proof gives, (-1)^(I*(size - I) + I*(m + 1)) with m interior chains
    problems = _window_problems(12)
    for (tau_w, i_thick), d in problems.items():
        assert remark_check(d) == remark_by_expansion(tau_w, i_thick), (tau_w, i_thick)
        if remark_class(tau_w, i_thick) == "long":
            det_m, f = minor_det_and_f(tau_w, i_thick)
            size, m = tau_w.n, len(_tau_chains(tau_w)) - 2
            sign = (-1) ** (i_thick * (size - i_thick) + i_thick * (m + 1))
            assert det_m == sign * f, (tau_w, i_thick)
    assert len(problems) == 239


def test_ladder_support_reads_off_the_chains():
    # fact 1: m_j != 0 exactly for I <= j <= l(lambda), on the whole ladder
    # of every window problem with n <= 12
    problems = _window_problems(12)
    for tau_w, i_thick in problems:
        _, buckets = _ladder(tau_w, i_thick, 0)
        support = sorted(tau_w.n - i_thick - t for t, m in enumerate(buckets) if m)
        assert support == list(ladder_support(tau_w, i_thick)), (tau_w, i_thick)
    assert len(problems) == 239


def test_f_variables_and_term_count_read_off_the_chains():
    # fact 2: x_rc is a variable of f exactly when r and c lie in different
    # chains with only short chains between them; fact 3: f's term count is
    # a product over the chains. Every window problem with n <= 12
    problems = _window_problems(12)
    terms = 0
    for tau_w, i_thick in problems:
        f = _generator(tau_w, i_thick)
        assert f.variables() == f_variables(tau_w, i_thick), (tau_w, i_thick)
        assert len(f.terms) == f_term_count(tau_w, i_thick), (tau_w, i_thick)
        terms += len(f.terms)
    assert (len(problems), terms) == (239, 109593)


def test_remark_check_rejects_a_window_off_the_chain_pattern():
    # the window must cut tau into chains of lengths (I, ..., I) with no
    # interior chain of length I; a thickness one too large, a window
    # shifted right by one or cut short by one, or one reaching back past
    # the nearest earlier chain of length I to the one before it, breaks
    # that, and both the check and the minor raise a typed error, also
    # under python -O. A window reaching past n, or not of ints, raises
    # BadRange
    broken = Counter()
    for d in iter_descriptors(8):
        a, b = d.window
        for window in ((a, d.n + 1), (float(a), b), (a, float(b))):
            e = dataclasses.replace(d, window=window)
            for check in (remark_check, remark_minor):
                with pytest.raises(BadRange, match="need 1 <= a <= b"):
                    check(e)
            broken["off range"] += 1
        bad = {"thicker": dataclasses.replace(d, thickness=d.thickness + 1)}
        bad["shorter"] = dataclasses.replace(d, window=(a, b - 1))
        if b < d.n:
            bad["shifted"] = dataclasses.replace(d, window=(a + 1, b + 1))
        earlier = [c[0] for c in _tau_chains(d.tau) if len(c) == d.thickness and c[-1] < a]
        if earlier:
            bad["wider"] = dataclasses.replace(d, window=(earlier[-1], b))
        for how, e in bad.items():
            for check in (remark_check, remark_minor):
                with pytest.raises(InconsistentIndexing, match="cuts chains"):
                    check(e)
            broken[how] += 1
    assert broken == {
        "thicker": 198, "shorter": 198, "shifted": 110, "wider": 59, "off range": 594
    }


def test_remark_degree_gap_is_the_cofactor_degree():
    # ROADMAP item 6's table: at each n, the window problems whose det M is
    # not +-f, by the total degree of the cofactor det M / f. That degree is
    # the gap r*k - l(lambda) between the two homogeneous degrees, and the
    # gap is 0 exactly where det M = +-f
    table = {
        8: {1: 2},
        9: {1: 4, 2: 3},
        10: {1: 6, 2: 6, 3: 4},
        11: {1: 10, 2: 12, 3: 8, 4: 5},
    }
    for n, degrees in table.items():
        gaps = Counter()
        for (tau_w, i_thick), d in _window_problems(n).items():
            k, r, l_lambda = _shape_readings(tau_w, i_thick)
            gap = r * k - l_lambda
            assert (gap == 0) == remark_check(d).detm_equals_f, (tau_w, i_thick)
            if gap:
                gaps[gap] += 1
        assert gaps == degrees, n


def test_remark_is_invariant_under_reversal():
    # the partner of every window problem with n <= 10, tau reversed by
    # i -> s - i, is a window problem too, with the same expanded outcome
    # and f renamed by x_rc -> x_{s+1-c, s+1-r}
    problems = _window_problems(10)
    orbits = set()
    for tau_w, i_thick in problems:
        partner = TauSet(frozenset(tau_w.n - i for i in tau_w.indices), tau_w.n)
        assert (partner, i_thick) in problems, (tau_w, i_thick)
        same = remark_by_expansion(tau_w, i_thick) == remark_by_expansion(partner, i_thick)
        assert same, (tau_w, i_thick)
        s = tau_w.n
        renamed = {
            tuple(sorted(((s + 1 - c, s + 1 - r), e) for (r, c), e in mono)): coeff
            for mono, coeff in _generator(tau_w, i_thick).terms.items()
        }
        assert _generator(partner, i_thick).terms == renamed, (tau_w, i_thick)
        orbits.add(frozenset({(tau_w, i_thick), (partner, i_thick)}))
    assert (len(problems), len(orbits)) == (79, 61)

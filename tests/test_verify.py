"""Finite-field probes: ranks, Jordan types, samplers, the conjecture checks."""

import random

import pytest

from orbital import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    FieldMatrix,
    NotApplicable,
    NotNilpotent,
    Partition,
    Violation,
    check_power_rank,
    classify_hypersurface,
    determinant,
    find_word_for_tableau,
    generator_report,
    iter_descriptors,
    jordan_type,
    matrix_rank,
    poly_eval,
    project,
    rank_bound,
    remark_check,
    remark_minor,
    sample_hypersurface_point,
    sample_variety_point,
    verify_conjecture,
    x,
)
from conftest import (
    FIVE_BOX,
    NINE_BOX,
    SIX_BOX,
    all_syt,
    leibniz_det,
    minor_rank,
    naive_jordan_parts,
    naive_mat_mul,
    naive_power_rank,
    naive_variety_point,
    same_up_to_sign,
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
    with pytest.raises(ValueError, match="square"):
        FieldMatrix(((0, 1), (0,)), 7)


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
    with pytest.raises(ValueError):
        rank_bound(lam, -1)


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
    import orbital.verify

    products = 0
    real = orbital.verify._mat_mul

    def counting(a, b, p):
        nonlocal products
        products += 1
        return real(a, b, p)

    monkeypatch.setattr(orbital.verify, "_mat_mul", counting)
    m = nilpotent_blocks(4, 2, prime=7)
    jordan_type(m)
    # X^2, X^3 and the product that finds X^4 = 0
    assert products == 3
    assert check_power_rank(m, tab((1, 2, 3, 4), (5, 6))) == []
    assert products == 3


def test_each_power_is_swept_once(monkeypatch):
    import orbital.verify

    sweeps = 0
    real = orbital.verify._window_ranks

    def counting(xk, p):
        nonlocal sweeps
        sweeps += 1
        return real(xk, p)

    monkeypatch.setattr(orbital.verify, "_window_ranks", counting)
    m = nilpotent_blocks(4, 2, prime=7)
    t = tab((1, 2, 3, 4), (5, 6))
    assert jordan_type(m).parts == (4, 2)
    assert check_power_rank(m, t) == []
    assert check_power_rank(m, t) == []
    # X, X^2 and X^3, one sweep each
    assert sweeps == len(m._powers) == 3


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
    # the band-skipping products, the cached word span and the constructor
    # that skips reduction, against dense products of the same draws
    for n in range(1, 8):
        for t in all_syt(n):
            for seed in range(2):
                pt = sample_variety_point(t, seed, prime)
                assert pt.rows == tuple(map(tuple, naive_variety_point(t, seed, prime)))
                assert FieldMatrix(pt.rows, prime) == pt


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
        for a, b in tau.positive_roots():
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

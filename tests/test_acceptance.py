"""Acceptance gate: eight criteria, one test each.

Each test name carries its criterion number; a conftest hook echoes an
"ACCEPTANCE <k> PASS/FAIL" line per criterion into the run log. Criteria
with a stated time budget assert it.
"""

import random
from itertools import permutations
from time import perf_counter

from orbital import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    Permutation,
    char_poly,
    chains,
    check_power_rank,
    classify_hypersurface,
    cmin_window,
    determinant,
    find_word_for_tableau,
    generator_report,
    hypersurface_descendants,
    iter_descriptors,
    poly_eval,
    project,
    remark_check,
    remark_minor,
    remove_largest,
    richardson_tableau,
    rs_pair,
    sample_variety_point,
    strip_first_steps,
    t_poly,
    variety_dim,
    verify_conjecture,
    x,
)
from conftest import (
    EIGHT_DROP,
    EIGHT_RICH,
    FIVE_BOX,
    NINE_BOX,
    SIX_BOX,
    TWELVE_BOX,
    all_syt,
    same_up_to_sign,
    tab,
)

F_SIX = (
    x(1, 2) * x(2, 4) * x(4, 6)
    + x(1, 2) * x(2, 5) * x(5, 6)
    + x(1, 3) * x(3, 4) * x(4, 6)
    + x(1, 3) * x(3, 5) * x(5, 6)
)


def all_taus(n):
    for bits in range(1 << (n - 1)):
        yield frozenset(i for i in range(1, n) if bits >> (i - 1) & 1)


def test_criterion_1_corpus_goldens():
    start = perf_counter()

    # Richardson tableau and dimension for tau = {2,3,7} in sl(8)
    t_r = richardson_tableau({2, 3, 7}, 8)
    assert t_r.rows == EIGHT_RICH
    assert variety_dim(t_r.shape, 8) == 24

    # its chain decomposition
    assert [list(c) for c in chains(t_r)] == [[1], [2, 3, 4], [5], [6], [7, 8]]

    # the unique codimension-one descendant, one dimension down
    ds = hypersurface_descendants(t_r)
    assert len(ds) == 1
    assert ds[0].tableau.rows == EIGHT_DROP
    assert variety_dim(ds[0].tableau.shape, 8) == 23

    # projections: largest-box removal and the jeu de taquin slide
    assert remove_largest(tab((1, 2), (3, 4))).rows == ((1, 2), (3,))
    final, steps = strip_first_steps(tab((1, 2), (3, 4), (5, 6)))
    assert final.rows == ((1, 3), (2, 5), (4,))
    assert steps[0] == ((None, 2), (3, 4), (5, 6))
    assert steps[-1] == ((2, 4), (3, 6), (5, None))

    # twelve-box descendant: tau, sigma window, thickness, window tableau
    d12 = classify_hypersurface(tab(*TWELVE_BOX))
    assert d12 is not None
    assert d12.tau.sorted() == [1, 4, 5, 7, 9, 10]
    assert (d12.sigma_lo, d12.sigma_hi) == (4, 10)
    assert d12.thickness == 3
    assert project(tab(*TWELVE_BOX), 4, 11).rows == ((1, 4, 6), (2, 5, 7), (3,), (8,))

    # six-box descendant: sigma spans all simple roots at thickness one
    d6 = classify_hypersurface(tab(*SIX_BOX))
    assert d6 is not None
    assert d6.tau.sorted() == [2, 4]
    assert (d6.sigma_lo, d6.sigma_hi) == (1, 5)
    assert d6.thickness == 1

    assert perf_counter() - start < 1.0


def test_criterion_2_symbolic_goldens():
    start = perf_counter()
    t = t_poly()

    # six-box generator
    d6 = classify_hypersurface(tab(*SIX_BOX))
    rep6 = generator_report(d6)
    assert same_up_to_sign(rep6.f, F_SIX)

    # full five-by-five window determinant, m_1 = x16 in front
    det6 = determinant(cmin_window({2, 4}, 6, (1, 6), 1))
    m2 = x(1, 2) * x(2, 6) + x(1, 3) * x(3, 6) + x(1, 4) * x(4, 6) + x(1, 5) * x(5, 6)
    expected6 = x(1, 6) * t * t * t * t - m2 * t * t * t + F_SIX * t * t
    assert same_up_to_sign(det6, expected6)
    assert dict(rep6.m_sequence)[1] == x(1, 6)

    # five-box window: det = m_2 t + m_3 and f = m_3
    d5 = classify_hypersurface(tab(*FIVE_BOX))
    rep5 = generator_report(d5)
    det5 = determinant(cmin_window({1, 4}, 5, (1, 5), 2))
    ms5 = dict(rep5.m_sequence)
    assert det5 == ms5[2] * t + ms5[3]
    assert rep5.f == ms5[3]
    f5 = (
        x(1, 3) * x(2, 4) * x(3, 5)
        - x(1, 3) * x(2, 5) * x(3, 4)
        - x(1, 4) * x(2, 3) * x(3, 5)
        + x(1, 5) * x(2, 3) * x(3, 4)
    )
    assert same_up_to_sign(rep5.f, f5)
    assert same_up_to_sign(ms5[2], x(1, 4) * x(2, 5) - x(1, 5) * x(2, 4))

    # twelve-box window: det = m_3 t^2 + m_4 t + m_5 and f = m_5
    d12 = classify_hypersurface(tab(*TWELVE_BOX))
    rep12 = generator_report(d12)
    assert [j for j, _ in rep12.m_sequence] == [3, 4, 5]
    ms12 = dict(rep12.m_sequence)
    det12 = determinant(cmin_window(d12.tau, 12, d12.window, d12.thickness))
    assert det12 == ms12[3] * t * t + ms12[4] * t + ms12[5]
    assert rep12.f == ms12[5]
    assert not ms12[3].is_zero and not ms12[4].is_zero and not ms12[5].is_zero

    assert perf_counter() - start < 5.0


def test_criterion_3_weight_and_char_poly():
    d12 = classify_hypersurface(tab(*TWELVE_BOX))
    rep = generator_report(d12)
    assert rep.weight.coeffs == (0, 0, 0, 1, 2, 3, 3, 3, 2, 1, 0)

    cp = char_poly(d12)
    simple = lambda i: tuple(1 if k == i - 1 else 0 for k in range(11))
    pair = lambda i, j: tuple(
        1 if k in (i - 1, j - 1) else 0 for k in range(11)
    )
    expected = {
        simple(1): 1,
        simple(4): 1,
        simple(5): 1,
        simple(7): 1,
        simple(9): 1,
        simple(10): 1,
        pair(4, 5): 1,
        pair(9, 10): 1,
        (0, 0, 0, 1, 2, 3, 3, 3, 2, 1, 0): 1,
    }
    assert cp.multiset() == expected
    assert len(cp.factors) == 9
    assert 66 - variety_dim(d12.tableau.shape, 12) == 9


def test_criterion_4_determinant_ladder_sweep():
    start = perf_counter()
    checked = 0
    for n in range(2, 8):
        for tau in all_taus(n):
            for d in hypersurface_descendants(richardson_tableau(tau, n)):
                rep = generator_report(d)
                for j, m in rep.m_sequence:
                    assert m.is_zero == (j > rep.l_lambda), d.descriptor_id
                checked += 1
    assert checked == 74
    assert perf_counter() - start < 120.0


def test_criterion_5_conjecture_sweep():
    start = perf_counter()
    trials = 50
    count = 0
    for d in iter_descriptors(7):
        rep = verify_conjecture(
            d, trials=trials, seed=0, primes=(DEFAULT_PRIME, SECOND_PRIME)
        )
        # necessity is deterministic: f and the tau-linear coordinates
        # vanish on every sampled point of the variety
        assert rep.necessity_ok, d.descriptor_id
        assert rep.f_vanishes_on_v == trials
        # genericity probes may lose a few draws but not ten percent
        assert rep.f_nonzero_on_richardson >= 45, d.descriptor_id
        assert rep.jordan_match >= 45, d.descriptor_id
        assert rep.power_rank_ok >= 45, d.descriptor_id
        count += 1
    assert count == 74
    assert perf_counter() - start < 600.0


def test_criterion_6_power_rank_sweep():
    for n in range(2, 8):
        for tau in all_taus(n):
            t_r = richardson_tableau(tau, n)
            for seed in range(10):
                pt = sample_variety_point(t_r, seed)
                assert check_power_rank(pt, t_r) == [], (tau, n, seed)


def test_criterion_7_minor_remark():
    assert remark_check(classify_hypersurface(tab(*SIX_BOX))).detm_equals_f
    assert remark_check(classify_hypersurface(tab(*FIVE_BOX))).detm_equals_f
    d9 = classify_hypersurface(tab(*NINE_BOX))
    r9 = remark_check(d9)
    assert not r9.detm_equals_f

    # the nine-box minor misses f by the quadratic cofactor
    # x36*x47 - x46*x37: confirmed at twenty random points. Its degree is
    # the gap r*k - l(lambda) = S*m_long between det M's degree and f's,
    # which is what lets remark_check decide the mixed class in closed form
    corner, k, r = remark_minor(d9)
    det_m = determinant(corner)
    report9 = generator_report(d9)
    f9 = report9.f
    cofactor = x(3, 6) * x(4, 7) - x(4, 6) * x(3, 7)
    assert {sum(e for _, e in mono) for mono in cofactor.terms} == {2}
    assert r * k - report9.l_lambda == 2
    variables = sorted(
        set(det_m.variables()) | set(f9.variables()) | set(cofactor.variables())
    )
    rng = random.Random("acceptance-7")
    for _ in range(20):
        pt = {v: rng.randrange(DEFAULT_PRIME) for v in variables}
        lhs = poly_eval(det_m, pt, prime=DEFAULT_PRIME)
        rhs = (
            poly_eval(cofactor, pt, prime=DEFAULT_PRIME)
            * poly_eval(f9, pt, prime=DEFAULT_PRIME)
            % DEFAULT_PRIME
        )
        assert lhs == rhs

    # finding, not a gate: does the chain pattern predict minor equality?
    agree = 0
    total = 0
    mismatches = []
    for d in iter_descriptors(7):
        res = remark_check(d)
        total += 1
        if res.detm_equals_f == res.chain_condition:
            agree += 1
        else:
            mismatches.append((d.descriptor_id, res))
    print(f"\nminor-equality finding: chain condition agrees on {agree}/{total}")
    for did, res in mismatches:
        print(f"  disagreement at {did}: {res}")
    assert total == 74


def test_criterion_8_insertion_properties():
    # bijectivity over S_4 and S_5
    for n in (4, 5):
        seen = set()
        for images in permutations(range(1, n + 1)):
            a, b = rs_pair(Permutation(images))
            assert a.shape == b.shape
            seen.add((a.rows, b.rows))
        assert len(seen) == len(list(permutations(range(1, n + 1))))

    # recording-tableau round trip for every tableau with up to six boxes
    for n in range(1, 7):
        for t in all_syt(n):
            w = find_word_for_tableau(t)
            assert rs_pair(w)[1] == t

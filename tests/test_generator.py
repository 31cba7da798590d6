"""Window matrices, the determinant ladder m_j, the generator f, p_V."""

import json
import re
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from orbital import (
    BadWindow,
    InconsistentIndexing,
    TauSet,
    WeightVector,
    char_poly,
    classify_hypersurface,
    cmin_window,
    determinant,
    generator_report,
    generic_richardson_matrix,
    hypersurface_descendants,
    iter_descriptors,
    lemma2_threshold,
    richardson_tableau,
    t_coefficient,
    t_poly,
    variety_dim,
    x,
)
from orbital.generator import (
    _descriptor_generator,
    _generator,
    _ladder,
    _path_systems,
    _window_weight,
)
from orbital.tableaux import _tau_chains
from conftest import (
    FIVE_BOX,
    SIX_BOX,
    TWELVE_BOX,
    ladder_payload,
    minmax_window_weight,
    naive_char_poly,
    print_key,
    shifted,
    tab,
    weight_of,
)

F_SIX = (
    x(1, 2) * x(2, 4) * x(4, 6)
    + x(1, 2) * x(2, 5) * x(5, 6)
    + x(1, 3) * x(3, 4) * x(4, 6)
    + x(1, 3) * x(3, 5) * x(5, 6)
)


def test_generic_matrix_zero_pattern():
    m = generic_richardson_matrix({2, 4}, 6)
    # tau roots force (2,3) and (4,5); everything else above the diagonal
    # stays free
    assert m.entry(2, 3) == 0
    assert m.entry(4, 5) == 0
    assert m.entry(1, 2) == x(1, 2)
    assert m.entry(3, 6) == x(3, 6)
    assert all(m.entry(i, j) == 0 for i in range(1, 7) for j in range(1, i + 1))


def test_cmin_window_layout():
    w = cmin_window({2, 4}, 6, (1, 6), 1)
    assert (w.nrows, w.ncols) == (5, 5)
    assert w.entry(1, 1) == x(1, 2)
    assert w.entry(2, 1) == t_poly()
    assert w.entry(5, 4) == t_poly()
    assert w.entry(2, 2) == 0  # alpha_2 in tau kills x23
    assert w.entry(4, 4) == 0  # alpha_4 in tau kills x45
    assert w.entry(1, 5) == x(1, 6)


def test_cmin_window_degenerate_size():
    # window of size exactly 2I carries no t at all
    w = cmin_window({1, 3}, 4, (1, 4), 2)
    assert (w.nrows, w.ncols) == (2, 2)
    assert w.entries == (
        (x(1, 3), x(1, 4)),
        (x(2, 3), x(2, 4)),
    )


def test_cmin_window_bad_bounds():
    with pytest.raises(BadWindow):
        cmin_window({2, 4}, 6, (0, 6), 1)
    with pytest.raises(BadWindow):
        cmin_window({2, 4}, 6, (5, 3), 1)
    with pytest.raises(BadWindow):
        cmin_window({2, 4}, 6, (1, 6), 4)  # 2I exceeds the window


def test_generator_report_six_box():
    d = classify_hypersurface(tab(*SIX_BOX))
    rep = generator_report(d)
    assert rep.f == F_SIX
    assert rep.l_lambda == 3
    assert rep.window == (1, 6)
    assert rep.thickness == 1
    assert str(rep.weight) == "a1 + a2 + a3 + a4 + a5"
    assert [j for j, _ in rep.m_sequence] == [1, 2, 3, 4, 5]
    ms = dict(rep.m_sequence)
    assert ms[1] == x(1, 6)
    assert ms[2] == -(
        x(1, 2) * x(2, 6) + x(1, 3) * x(3, 6) + x(1, 4) * x(4, 6) + x(1, 5) * x(5, 6)
    )
    assert ms[4].is_zero and ms[5].is_zero


def test_generator_report_five_box():
    d = classify_hypersurface(tab(*FIVE_BOX))
    rep = generator_report(d)
    assert rep.thickness == 2
    assert rep.l_lambda == 3
    assert [j for j, _ in rep.m_sequence] == [2, 3]
    assert dict(rep.m_sequence)[2] == x(1, 4) * x(2, 5) - x(1, 5) * x(2, 4)
    assert rep.f == (
        x(1, 3) * x(2, 4) * x(3, 5)
        - x(1, 3) * x(2, 5) * x(3, 4)
        - x(1, 4) * x(2, 3) * x(3, 5)
        + x(1, 5) * x(2, 3) * x(3, 4)
    )
    assert rep.weight.coeffs == (1, 2, 2, 1)


def test_ladder_covers_every_power_of_t():
    # the lowest surviving t-power is read off the ladder; check it, and
    # that the ladder holds every term, against the expanded determinant
    for d in iter_descriptors(8):
        a, b = d.window
        det = determinant(cmin_window(d.tau, d.n, d.window, d.thickness))
        lowest = min(next((e for v, e in mono if v == "t"), 0) for mono in det.terms)
        rep = generator_report(d)
        assert sum(len(m.terms) for _, m in rep.m_sequence) == len(det.terms)
        assert lowest == b - a + 1 - d.thickness - rep.l_lambda


def _fake_l_lambda(monkeypatch, d, chains) -> list:
    """Read l(lambda) off these chains while the path-system walk keeps
    the chains of d's own window problem; returns the list that records
    the (thickness, max_ts) of every walk."""
    own = _tau_chains(d.window_problem[0])
    calls = []

    def counted(_, thickness, max_ts, shift):
        calls.append((thickness, max_ts))
        return _path_systems(own, thickness, max_ts, shift)

    monkeypatch.setattr("orbital.generator._tau_chains", lambda _: chains)
    monkeypatch.setattr("orbital.generator._path_systems", counted)
    return calls


def test_generator_report_inconsistent_indexing(monkeypatch):
    d = classify_hypersurface(tab(*SIX_BOX))
    # l(lambda) is read from the chains of tau restricted to the window;
    # three chains of length 2 give the dropped shape (3, 3), not (4, 2)
    with monkeypatch.context() as m:
        _fake_l_lambda(m, d, [range(1, 3), range(3, 5), range(5, 7)])
        with pytest.raises(InconsistentIndexing, match="lowest surviving t-power 2 but"):
            generator_report(d)
    monkeypatch.setattr("orbital.generator._path_systems", lambda *_: [{}] * 5)
    with pytest.raises(InconsistentIndexing, match="vanished identically"):
        generator_report(d)


def test_f_only_walk_matches_the_full_ladder():
    # the walk bounded by f's count of t's against the full ladder: every
    # descriptor with n <= 10, and every window problem at n = 11 through
    # the walk of its whole ladder
    count = 0
    for d in iter_descriptors(10):
        assert _descriptor_generator(d) == generator_report(d).f
        count += 1
    assert count == 1235
    problems = {d.window_problem for d in iter_descriptors(11) if d.n == 11}
    assert len(problems) == 137
    for tau_w, i_thick in problems:
        f = _generator(tau_w, i_thick)
        l_lambda, ladder = _ladder(tau_w, i_thick, 0)
        target = tau_w.n - i_thick - l_lambda
        assert f.terms == ladder[target]
        # f's rung is the lowest one that survives, and no system carrying
        # more t's than f's terms is walked
        buckets = _path_systems(_tau_chains(tau_w), i_thick, target, 0)
        assert buckets[target] == f.terms
        assert not any(buckets[:target]) and not any(buckets[target + 1:])


def test_every_rung_lists_its_terms_in_print_order():
    # the walk grows its layers in depth-first order, which _print_order
    # takes for the printed order and sorts in linear time: every rung of
    # every window problem with n <= 10, named with and without a shift,
    # lists its monomials in print_key order
    problems = {d.window_problem for d in iter_descriptors(10)}
    assert len(problems) == 79
    for tau_w, i_thick in problems:
        for shift in (0, 3):
            for rung in _ladder(tau_w, i_thick, shift)[1]:
                assert list(rung) == sorted(rung, key=print_key), (tau_w, i_thick, shift)


def test_f_is_its_window_problems_f_shifted():
    # f depends on a descriptor only through its window problem: every
    # descriptor with n <= 10 has the f of tau restricted to its window
    # [a, b], with every index shifted by a - 1. The window problem's f is
    # read both from the walk with shift 0 and from the cofactor expansion
    # of the window problem's own matrix, which reads tau's positive roots
    count = 0
    for d in iter_descriptors(10):
        a, b = d.window
        size = b - a + 1
        tau_w = d.tau.restrict(a, b)
        rep = generator_report(d)
        f_w = _generator(tau_w, d.thickness)
        det_w = determinant(cmin_window(tau_w, size, (1, size), d.thickness))
        assert f_w == t_coefficient(det_w, size - d.thickness - rep.l_lambda), d.descriptor_id
        assert rep.f == shifted(f_w, a - 1), d.descriptor_id
        count += 1
    assert count == 1235


@pytest.mark.parametrize(
    "chains, message",
    [
        # l(lambda) = 2: f's rung is empty and a lower one is not
        ([range(1, 3), range(3, 5), range(5, 7)], "l(lambda)=2 predicts 3"),
        # l(lambda) = 4: f's rung and every lower one are empty
        ([range(k, k + 1) for k in range(1, 6)], "l(lambda)=4 predicts 1"),
        # l(lambda) = -1 and 7: f's rung lies above or below the ladder
        ([], "l(lambda)=-1 predicts 6"),
        ([range(k, k + 1) for k in range(1, 9)], "l(lambda)=7 predicts -2"),
    ],
)
def test_f_only_walk_falls_back_to_the_full_report(monkeypatch, chains, message):
    # the six-box window has size 6 and thickness 1, and its lowest
    # surviving t-power is 2; with a wrong l(lambda) the f-only walk
    # raises as generator_report does, walking the whole ladder when the
    # walk bounded at f's rung finds nothing or f's rung is off the ladder
    d = classify_hypersurface(tab(*SIX_BOX))
    _fake_l_lambda(monkeypatch, d, chains)
    with pytest.raises(InconsistentIndexing) as full:
        generator_report(d)
    with pytest.raises(InconsistentIndexing) as f_only:
        _descriptor_generator(d)
    assert str(f_only.value) == str(full.value) == f"lowest surviving t-power 2 but {message}"


def test_f_only_walk_reports_a_vanished_determinant(monkeypatch):
    d = classify_hypersurface(tab(*SIX_BOX))
    monkeypatch.setattr("orbital.generator._path_systems", lambda *_: [{}] * 5)
    with pytest.raises(InconsistentIndexing, match="vanished identically"):
        _descriptor_generator(d)


def test_a_nonempty_lower_rung_raises_after_one_walk(monkeypatch):
    # l(lambda) = 2 puts f at t^3. The walk bounded there finds t^2
    # nonempty, and every bucket up to the bound is complete, so t^2 is
    # the lowest surviving power without a second walk
    d = classify_hypersurface(tab(*SIX_BOX))
    calls = _fake_l_lambda(monkeypatch, d, [range(1, 3), range(3, 5), range(5, 7)])
    with pytest.raises(InconsistentIndexing) as err:
        _descriptor_generator(d)
    assert str(err.value) == "lowest surviving t-power 2 but l(lambda)=2 predicts 3"
    assert calls == [(1, 3)]


def test_chain_rule_matches_free_positions():
    # the walk takes x_rc unless r and c lie in one chain of tau: for
    # every tau with n <= 10, those are the coordinates of m_tau
    count = 0
    for n in range(1, 11):
        for bits in range(1 << (n - 1)):
            tau = TauSet(frozenset(i for i in range(1, n) if bits >> (i - 1) & 1), n)
            chain_of = {m: k for k, c in enumerate(_tau_chains(tau)) for m in c}
            taken = {
                (r, c)
                for r in range(1, n + 1)
                for c in range(r + 1, n + 1)
                if chain_of[r] != chain_of[c]
            }
            assert taken == set(tau.free_positions), tau
            count += 1
    assert count == 1023


def test_ladder_matches_cofactor_expansion():
    # the path-system walk, on the window problem and named in d's own
    # coordinates, against the memoized cofactor expansion of d's own
    # window matrix, rung by rung, for every descriptor with n <= 10; the
    # matrix reads tau's positive roots, not the walk's chain rule. Every
    # term has coefficient +-1 and exponents 1, so nothing cancels and
    # each m_j is multilinear
    count = 0
    for d in iter_descriptors(10):
        a, b = d.window
        size = b - a + 1
        det = determinant(cmin_window(d.tau, d.n, d.window, d.thickness))
        for j, m in generator_report(d).m_sequence:
            assert m == t_coefficient(det, size - d.thickness - j)
            assert all(c in (1, -1) for c in m.terms.values())
            assert all(e == 1 for mono in m.terms for _, e in mono)
        count += 1
    assert count == 1235


@pytest.mark.parametrize(
    "window, thickness, message",
    [
        ((1, 6), 0, "thickness 0 must be at least 1"),
        ((1, 6), 4, "thickness 4 too large for window of size 6"),
        ((0, 6), 1, "window [0, 6] outside 1..6"),
        ((5, 3), 1, "window [5, 3] outside 1..6"),
        ((1, 6), True, "window [1, 6] and thickness True must be ints"),
        ((1, 6), 1.5, "window [1, 6] and thickness 1.5 must be ints"),
        ((True, 6), 1, "window [True, 6] and thickness 1 must be ints"),
        ((1.0, 6), 1, "window [1.0, 6] and thickness 1 must be ints"),
        ((1, 6.0), 1, "window [1, 6.0] and thickness 1 must be ints"),
        ((1, 6), -1, "thickness -1 must be at least 1"),
    ],
)
def test_lemma2_threshold_rejects_bad_windows(window, thickness, message):
    with pytest.raises(BadWindow, match=re.escape(message)):
        lemma2_threshold({2, 4}, 6, window, thickness)
    with pytest.raises(BadWindow, match=re.escape(message)):
        cmin_window({2, 4}, 6, window, thickness)


@pytest.mark.parametrize("thickness", [0, 4])
def test_window_problem_rejects_a_bad_thickness(thickness):
    # the walk reads only the window problem, so it checks the thickness
    # against the window itself, as cmin_window does
    d = replace(classify_hypersurface(tab(*SIX_BOX)), thickness=thickness)
    message = {
        0: "thickness 0 must be at least 1",
        4: "thickness 4 too large for window of size 6",
    }[thickness]
    with pytest.raises(BadWindow, match=message):
        generator_report(d)
    with pytest.raises(BadWindow, match=message):
        _descriptor_generator(d)


def test_lemma2_threshold_golden():
    l, flags = lemma2_threshold({2, 4}, 6, (1, 6), 1)
    assert l == 3
    assert flags == [(1, False), (2, False), (3, False), (4, True), (5, True)]


def test_lemma2_threshold_reports_what_the_checked_walk_rejects():
    # the pattern is reported, never checked: with tau = {1} at n = 2 the
    # window [1, 2] is one chain, so its 1 x 1 corner x_12 vanishes, which
    # the generator's checked walk rejects. Of the 982 windows with n <= 6,
    # 278 are rejected so; on every window the pattern is read off the
    # expanded window matrix
    assert lemma2_threshold({1}, 2, (1, 2), 1) == (0, [(1, True)])
    with pytest.raises(InconsistentIndexing, match="vanished identically"):
        _ladder(TauSet(frozenset({1}), 2), 1, 0)
    windows, rejected = 0, 0
    for n in range(2, 7):
        for tau in (set(c) for k in range(n) for c in combinations(range(1, n), k)):
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    for i_thick in range(1, (b - a + 1) // 2 + 1):
                        windows += 1
                        det = determinant(cmin_window(tau, n, (a, b), i_thick))
                        top = b - a + 1 - i_thick
                        assert lemma2_threshold(tau, n, (a, b), i_thick)[1] == [
                            (j, not t_coefficient(det, top - j).terms)
                            for j in range(i_thick, top + 1)
                        ], (tau, n, a, b, i_thick)
                        try:
                            _ladder(TauSet(frozenset(tau), n).restrict(a, b), i_thick, 0)
                        except InconsistentIndexing:
                            rejected += 1
    assert (windows, rejected) == (982, 278)


def test_char_poly_six_box():
    d = classify_hypersurface(tab(*SIX_BOX))
    cp = char_poly(d)
    assert str(cp) == "a2 * a4 * (a1 + a2 + a3 + a4 + a5)"
    codim = 15 - variety_dim(d.tableau.shape, 6)
    assert len(cp.factors) == codim == 3
    assert cp.multiset() == {
        (0, 1, 0, 0, 0): 1,
        (0, 0, 0, 1, 0): 1,
        (1, 1, 1, 1, 1): 1,
    }
    assert cp.to_json() == [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [1, 1, 1, 1, 1]]


def test_char_poly_twelve_box():
    d = classify_hypersurface(tab(*TWELVE_BOX))
    rep = generator_report(d)
    assert rep.l_lambda == 5
    assert rep.weight.coeffs == (0, 0, 0, 1, 2, 3, 3, 3, 2, 1, 0)
    assert rep.f.total_degree() == 5
    cp = char_poly(d)
    assert str(cp) == (
        "a1 * a4 * a5 * a7 * a9 * a10 * (a4 + a5) * (a9 + a10)"
        " * (a4 + 2a5 + 3a6 + 3a7 + 3a8 + 2a9 + a10)"
    )
    assert len(cp.factors) == 66 - 57 == 9



def test_payload_matches_its_oracles_on_every_descriptor_to_n_10():
    # the --generator payload's library half against the oracles it
    # replaced, on every descriptor with n <= 10: the ladder written in walk
    # order is byte for byte the ladder MultiPoly.to_json sorts rung by
    # rung; p_V, sorted by (height, start) with wt(f) placed by the same
    # rule, is p_V sorted by a key that scans the coefficients; and the
    # closed-form window weight is the min/max formula
    count = 0
    for d in iter_descriptors(10):
        count += 1
        rep = generator_report(d)
        assert json.dumps(rep.to_json()) == ladder_payload(rep), d.descriptor_id
        assert char_poly(d) == naive_char_poly(d), d.descriptor_id
    assert count == 1235


def test_window_weight_is_the_min_max_formula():
    # every window [a, b] with n <= 12 and every thickness it leaves room for
    windows = 0
    for n in range(2, 13):
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                for i_thick in range(1, (b - a + 1) // 2 + 1):
                    windows += 1
                    got = _window_weight(n, (a, b), i_thick)
                    assert got == minmax_window_weight(n, (a, b), i_thick), (n, a, b, i_thick)
                    assert type(got.coeffs) is tuple and len(got.coeffs) == n - 1
    assert windows == 581


def test_char_poly_rejects_factor_count_off_codimension():
    # the Richardson tableau's component is one dimension larger, so the
    # descriptor's factors overshoot its codimension by one
    d = classify_hypersurface(tab(*SIX_BOX))
    with pytest.raises(InconsistentIndexing, match="3 factors but the codimension is 2"):
        char_poly(replace(d, tableau=d.richardson))

@st.composite
def descriptors(draw, max_n=6):
    n = draw(st.integers(min_value=4, max_value=max_n))
    indices = draw(st.sets(st.sampled_from(range(1, n))))
    ds = hypersurface_descendants(richardson_tableau(frozenset(indices), n))
    if not ds:
        return None
    return draw(st.sampled_from(ds))


@settings(max_examples=60)
@given(descriptors())
def test_generator_weight_identity(d):
    # wt(f) is the sum of the antidiagonal window roots, one per
    # thickness layer
    if d is None:
        return
    rep = generator_report(d)
    a, b = d.window
    expected = WeightVector.zero(d.n - 1)
    for k in range(d.thickness):
        expected = expected + WeightVector.root(a + k, b - 1 - k, d.n - 1)
    assert rep.weight == expected
    assert weight_of(rep.f, rank=d.n - 1) == expected


def test_generator_weight_matches_weight_of_on_every_descriptor():
    # wt(f) comes from the window; weight_of scans every term of f
    count = 0
    for d in iter_descriptors(9):
        rep = generator_report(d)
        assert rep.weight == weight_of(rep.f, rank=d.n - 1)
        count += 1
    assert count == 503


def test_every_generator_is_multilinear_with_unit_coefficients():
    # verify counts f_nonzero_on_richardson as passed without a sample: a
    # nonzero multilinear f with coefficients +-1 is a nonzero function on
    # m_tau over every GF(p), and generator_report never returns f = 0
    count = 0
    for d in iter_descriptors(9):
        f = generator_report(d).f
        assert f.terms, d.descriptor_id
        for mono, coeff in f.terms.items():
            assert coeff in (1, -1), d.descriptor_id
            assert all(e == 1 for _, e in mono), d.descriptor_id
        assert set(f.variables()) <= set(d.tau.free_positions), d.descriptor_id
        count += 1
    assert count == 503


@settings(max_examples=60)
@given(descriptors())
def test_generator_degree_and_support(d):
    if d is None:
        return
    rep = generator_report(d)
    assert rep.f.total_degree() == rep.l_lambda >= 2
    a, b = d.window
    for i, j in rep.f.variables():
        assert a <= i < j <= b
    # the ladder is zero exactly above the threshold
    for j, m in rep.m_sequence:
        assert m.is_zero == (j > rep.l_lambda)

"""Sparse exact polynomials, weights, matrices, symbolic determinants."""

import pytest
from hypothesis import given, settings, strategies as st

from orbital import (
    MissingVariable,
    MultiPoly,
    NotHomogeneousWeight,
    NotSquare,
    PolyMatrix,
    WeightVector,
    ZeroPolynomial,
    cmin_window,
    determinant,
    format_poly,
    iter_descriptors,
    poly_eval,
    remark_minor,
    t_coefficient,
    t_poly,
    weight_of,
    x,
)
from conftest import leibniz_det


def test_canonical_construction():
    p = MultiPoly({(((1, 2), 1), ((1, 2), 1)): 3})
    assert p == 3 * x(1, 2) * x(1, 2)
    assert list(p.terms) == [(((1, 2), 2),)]
    # zero coefficients vanish at construction
    assert MultiPoly({(((1, 2), 1),): 0}).is_zero


def test_arithmetic_identities():
    a, b = x(1, 2), x(1, 3)
    assert (a + b) * (a - b) == a * a - b * b
    assert a + 1 - 1 == a
    assert a - a == 0
    assert 2 * a == a + a
    assert -(-a) == a
    assert bool(a) and not bool(a - a)


def test_degrees():
    assert MultiPoly.zero().total_degree() == -1
    assert MultiPoly.const(5).total_degree() == 0
    p = x(1, 2) * x(2, 4) + t_poly() * t_poly() * t_poly()
    assert p.total_degree() == 3
    assert p.degree_in("t") == 3
    assert p.degree_in((1, 2)) == 1
    assert p.degree_in((9, 9)) == 0


def test_equality_and_hash():
    p = x(1, 2) * x(2, 3) + 1
    q = 1 + x(2, 3) * x(1, 2)
    assert p == q and hash(p) == hash(q)
    assert MultiPoly.const(7) == 7
    assert p != x(1, 2)


def test_format_golden():
    assert format_poly(MultiPoly.zero()) == "0"
    assert format_poly(MultiPoly.const(-3)) == "-3"
    assert format_poly(x(1, 2) * x(1, 2)) == "x12^2"
    assert format_poly(x(4, 11)) == "x4,11"
    # graded lex: higher degree first, then leftmost variable word
    p = x(1, 6) - x(1, 2) * x(2, 6) + 2 * t_poly()
    assert format_poly(p) == "-x12*x26 + x16 + 2*t"


def test_json_round_trip():
    p = 5 * x(1, 2) * x(2, 4) - x(1, 3) * t_poly() * t_poly() + 7
    assert MultiPoly.from_json(p.to_json()) == p
    blob = p.to_json()
    assert all(isinstance(item["coeff"], str) for item in blob)


def test_poly_eval_exact_modular_and_missing():
    p = x(1, 2) * x(2, 3) - 2
    # 3 * 4 - 2 = 10, and 3 mod 7; values congruent mod 7 give the same
    assert poly_eval(p, {(1, 2): 3, (2, 3): 4}, prime=7) == 3
    assert poly_eval(p, {(1, 2): -4, (2, 3): 11}, prime=7) == 3
    # zero over the integers, and zero only mod 7 (3 * 3 - 2 = 7)
    assert poly_eval(p, {(1, 2): 1, (2, 3): 2}, prime=7) == 0
    assert poly_eval(p, {(1, 2): 3, (2, 3): 3}, prime=7) == 0
    assert poly_eval(p, {(1, 2): 3, (2, 3): 3}, prime=11) == 7
    with pytest.raises(MissingVariable):
        poly_eval(p, {(1, 2): 3}, prime=7)


def test_t_coefficient():
    p = x(1, 6) * t_poly() * t_poly() + x(1, 2) * t_poly() - 5
    assert t_coefficient(p, 2) == x(1, 6)
    assert t_coefficient(p, 1) == x(1, 2)
    assert t_coefficient(p, 0) == -5
    assert t_coefficient(p, 3).is_zero


def test_weight_vector_basics():
    w = WeightVector((0, 0, 0, 1, 2))
    assert str(w) == "a4 + 2a5"
    assert w == WeightVector.simple(4, 5) + WeightVector.simple(5, 5) + WeightVector.simple(5, 5)
    assert WeightVector.root(2, 4, 5).coeffs == (0, 1, 1, 1, 0)
    assert w.to_json() == [0, 0, 0, 1, 2]


def test_weight_of():
    assert weight_of(x(1, 4), rank=5).coeffs == (1, 1, 1, 0, 0)
    assert weight_of(x(1, 2) * x(2, 4) * x(4, 6)).coeffs == (1, 1, 1, 1, 1)
    # t carries weight zero
    assert weight_of(x(1, 2) * t_poly(), rank=1).coeffs == (1,)
    with pytest.raises(ZeroPolynomial):
        weight_of(MultiPoly.zero(), rank=3)
    with pytest.raises(NotHomogeneousWeight):
        weight_of(x(1, 2) + x(1, 3), rank=3)


def test_matrix_basics():
    m = PolyMatrix(((x(1, 2), 1), (0, t_poly())))
    assert (m.nrows, m.ncols) == (2, 2)
    assert m.entry(1, 2) == 1
    assert m.entry(2, 1) == 0
    sq = m @ m
    assert sq.entry(1, 1) == x(1, 2) * x(1, 2)
    assert sq.entry(1, 2) == x(1, 2) + t_poly()
    assert m.power(3) == m @ m @ m
    assert m.submatrix((2,), (1, 2)).entries == ((MultiPoly.zero(), t_poly()),)
    assert m.top_right(1).entries == ((MultiPoly.const(1),),)


def test_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        PolyMatrix(((1, 2), (3,)))


def test_determinant_golden():
    m = PolyMatrix(((x(1, 2), x(1, 3)), (x(2, 3), t_poly())))
    assert determinant(m) == x(1, 2) * t_poly() - x(1, 3) * x(2, 3)
    assert determinant(PolyMatrix(())) == 1
    assert determinant(PolyMatrix(((7,),))) == 7


def test_determinant_not_square():
    with pytest.raises(NotSquare):
        determinant(PolyMatrix(((1, 2),)))


_ENTRIES = (
    MultiPoly.zero(),
    MultiPoly.const(1),
    MultiPoly.const(-2),
    x(1, 2),
    x(1, 3),
    x(2, 3),
    t_poly(),
    x(1, 2) + 1,
    x(1, 3) - t_poly(),
)


@settings(max_examples=60)
@given(st.lists(st.sampled_from(_ENTRIES), min_size=9, max_size=9))
def test_determinant_matches_leibniz_3x3(entries):
    m = PolyMatrix(tuple(tuple(entries[3 * r : 3 * r + 3]) for r in range(3)))
    assert determinant(m) == leibniz_det(m)


@settings(max_examples=20)
@given(st.lists(st.sampled_from(_ENTRIES), min_size=16, max_size=16))
def test_determinant_matches_leibniz_4x4(entries):
    m = PolyMatrix(tuple(tuple(entries[4 * r : 4 * r + 4]) for r in range(4)))
    assert determinant(m) == leibniz_det(m)


def test_determinant_matches_leibniz_on_program_matrices():
    # the matrices the program expands: the window matrix of every
    # descriptor with n <= 8, whose terms never cancel, and its remark
    # power minor, whose terms may cancel
    count = 0
    for d in iter_descriptors(8):
        window = cmin_window(d.tau, d.n, d.window, d.thickness)
        corner = remark_minor(d)[0]
        assert determinant(window) == leibniz_det(window)
        assert determinant(corner) == leibniz_det(corner)
        count += 1
    assert count == 198

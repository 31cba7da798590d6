"""Sparse exact polynomials, weights, matrices, symbolic determinants."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from orbital import (
    BadExponent,
    BadProbeInput,
    BadRange,
    BadVariable,
    BadWeight,
    MissingVariable,
    MultiPoly,
    NotSquare,
    OrbitalError,
    PolyMatrix,
    WeightVector,
    cmin_window,
    determinant,
    format_poly,
    iter_descriptors,
    poly_eval,
    remark_minor,
    t_coefficient,
    t_poly,
    x,
)
from orbital.polyalg import _mono, _mono_mul, _var_key
from conftest import leibniz_det, print_key, weight_of


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
    # a bool is no coefficient, so it equals no polynomial (and raises nothing)
    assert MultiPoly.const(1) != True and MultiPoly.zero() != False


def test_format_golden():
    assert format_poly(MultiPoly.zero()) == "0"
    assert format_poly(MultiPoly.const(-3)) == "-3"
    assert format_poly(x(1, 2) * x(1, 2)) == "x12^2"
    assert format_poly(x(4, 11)) == "x4,11"
    # graded lex: higher degree first, then leftmost variable word
    p = x(1, 6) - x(1, 2) * x(2, 6) + 2 * t_poly()
    assert format_poly(p) == "-x12*x26 + x16 + 2*t"


def test_bad_exponents_are_rejected():
    # a packed key has no field for a negative or fractional exponent, so
    # neither may reach a polynomial
    for e in (1.5, -1):
        with pytest.raises(BadExponent, match="non-negative integer"):
            MultiPoly.from_json([{"coeff": "1", "exps": {"1,2": e}}])
        with pytest.raises(BadExponent, match="non-negative integer"):
            MultiPoly({(((1, 2), e),): 1})
    with pytest.raises(BadExponent):
        MultiPoly.from_json([{"coeff": "1", "exps": {"t": -2}}])
    # a zero exponent is fine and drops out
    assert MultiPoly({(((1, 2), 1), ("t", 0)): 2}) == 2 * x(1, 2)


_X12 = x(1, 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        # coefficients: floats and bools were stored as they came
        (lambda: MultiPoly({(((1, 2), 1),): 1.5}), ValueError, "coefficients must be ints, got 1.5"),
        (lambda: MultiPoly.const(2.5), ValueError, "coefficients must be ints, got 2.5"),
        (lambda: MultiPoly.const(True), ValueError, "coefficients must be ints, got True"),
        # a bool exponent and a bool index were accepted, x(True, 2) as xTrue2
        (lambda: MultiPoly({(((1, 2), True),): 1}), BadExponent, "got True"),
        (lambda: x(True, 2), ValueError, "matrix variable must be an int pair, got (True, 2)"),
        # operands: floats raised a raw AttributeError, True was taken as 1
        (lambda: _X12 * 2.0, TypeError, "expected an int or a MultiPoly, got 2.0"),
        (lambda: 2.0 * _X12, TypeError, "expected an int or a MultiPoly, got 2.0"),
        (lambda: _X12 * True, TypeError, "expected an int or a MultiPoly, got True"),
        (lambda: _X12 + 1.5, TypeError, "expected an int or a MultiPoly, got 1.5"),
        (lambda: _X12 - 1.5, TypeError, "expected an int or a MultiPoly, got 1.5"),
        (lambda: _X12 + True, TypeError, "expected an int or a MultiPoly, got True"),
        # a float entry failed only later, in determinant
        (lambda: PolyMatrix(((1.5,),)), TypeError, "expected an int or a MultiPoly, got 1.5"),
        # the power of t: 1.0 and True both gave the t^1 coefficient
        (lambda: t_coefficient(t_poly(), 1.0), BadExponent, "power of t must be an int, got 1.0"),
        (lambda: t_coefficient(t_poly(), True), BadExponent, "power of t must be an int, got True"),
        # 5.0 raised a raw TypeError, True yielded nothing
        (lambda: list(iter_descriptors(5.0)), ValueError, "n_max must be an int, got 5.0"),
        (lambda: list(iter_descriptors(True)), ValueError, "n_max must be an int, got True"),
    ],
)
def test_non_int_operands_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


# neither "t" nor a pair: 5 and (1,) raised a raw TypeError or ValueError
# from unpacking, and (1, 2, 3) a raw ValueError. BadVariable is an
# OrbitalError and still a ValueError, as the rejection always was
@pytest.mark.parametrize("var", [5, (1, 2, 3), (1,), None, (1.0, 2)])
def test_variable_that_is_no_int_pair_raises_typed_error(var):
    message = f"matrix variable must be an int pair, got {var!r}"
    with pytest.raises(BadVariable, match=re.escape(message)) as caught:
        MultiPoly.variable(var)
    assert isinstance(caught.value, OrbitalError) and isinstance(caught.value, ValueError)


def test_json_round_trip():
    p = 5 * x(1, 2) * x(2, 4) - x(1, 3) * t_poly() * t_poly() + 7
    assert MultiPoly.from_json(p.to_json()) == p
    blob = p.to_json()
    assert all(isinstance(item["coeff"], str) for item in blob)


_VARS = st.sampled_from(
    ["t"] + [(i, j) for i in (1, 2, 3, 9, 10) for j in (2, 4, 10, 11) if i < j]
)
_POLYS = st.dictionaries(
    st.lists(st.tuples(_VARS, st.integers(1, 3)), max_size=4).map(tuple),
    st.integers(-3, 3),
    max_size=10,
).map(MultiPoly)


def _sorted_mono(pairs) -> tuple:
    """The canonical monomial by the _var_key sort, summing exponents."""
    acc = {}
    for var, e in pairs:
        acc[var] = acc.get(var, 0) + e
    return tuple(
        sorted(((v, e) for v, e in acc.items() if e), key=lambda p: _var_key(p[0]))
    )


_PAIRS = st.lists(st.tuples(_VARS, st.integers(0, 3)), max_size=6)


@settings(max_examples=300)
@given(_PAIRS, _PAIRS)
def test_mono_matches_var_key_sort(a, b):
    # the monomial kernel sorts the (i, j) pairs plainly and puts t last;
    # that must be the _var_key order, with and without t present
    assert _mono(a) == _sorted_mono(a)
    no_t = [p for p in a if p[0] != "t"]
    assert _mono(no_t) == _sorted_mono(no_t)
    ma, mb = _mono(a), _mono(b)
    assert _mono_mul(ma, mb) == _sorted_mono(a + b)


@settings(max_examples=200)
@given(_POLYS)
def test_print_order_matches_the_oracle(p):
    # constant terms, t, exponents above 1 and two-digit indices all meet
    # in one polynomial; to_json and format_poly list terms in print_key
    # order
    order = sorted(p.terms, key=print_key)
    assert [
        next(iter(MultiPoly.from_json([item]).terms)) for item in p.to_json()
    ] == order
    pieces = [format_poly(MultiPoly({m: p.terms[m]})) for m in order]
    expected = " ".join(
        pieces[:1]
        + [f"- {s[1:]}" if s.startswith("-") else f"+ {s}" for s in pieces[1:]]
    )
    assert format_poly(p) == (expected or "0")


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


@pytest.mark.parametrize("bad", [0, -5, 7.0, True, None])
def test_poly_eval_rejects_a_bad_modulus(bad):
    # 0 used to raise ZeroDivisionError, and -5 to return -2, outside the
    # [0, prime) the docstring promises
    p = x(1, 2) * x(2, 3) - 2
    with pytest.raises(BadProbeInput, match=f"^modulus {bad!r} is not an int of at least 1$"):
        poly_eval(p, {(1, 2): 3, (2, 3): 4}, prime=bad)
    # 1 is a modulus, and every value is 0 mod 1
    assert poly_eval(p, {(1, 2): 3, (2, 3): 4}, prime=1) == 0


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
    assert WeightVector.root(1, 5, 5).coeffs == (1, 1, 1, 1, 1)
    assert WeightVector.simple(1, 1).coeffs == (1,)
    assert WeightVector.zero(3).coeffs == (0, 0, 0) and WeightVector.zero(0).coeffs == ()
    assert w.to_json() == [0, 0, 0, 1, 2]


# a root or simple root off 1 <= u <= v <= rank, or with an index or rank
# that is no int, and a sum of weights of different ranks: the first two
# raised a plain ValueError, 1.5 and True were read as numbers, and the
# sum a plain ValueError. The zero vector of a rank that is a bool, below
# 0 or no int was of rank 1, empty, or a bare TypeError. BadWeight is an
# OrbitalError and still a ValueError, as the rejection always was
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WeightVector.simple(0, 3), "alpha_0 outside rank 3"),
        (lambda: WeightVector.simple(4, 3), "alpha_4 outside rank 3"),
        (lambda: WeightVector.simple(True, 3), "alpha_True outside rank 3"),
        (lambda: WeightVector.simple(2, 3.0), "alpha_2 outside rank 3.0"),
        (lambda: WeightVector.root(2, 1, 3), "alpha(2,1) outside rank 3"),
        (lambda: WeightVector.root(0, 2, 3), "alpha(0,2) outside rank 3"),
        (lambda: WeightVector.root(2, 4, 3), "alpha(2,4) outside rank 3"),
        (lambda: WeightVector.root(1.5, 2, 3), "alpha(1.5,2) outside rank 3"),
        (lambda: WeightVector.root(1, True, 3), "alpha(1,True) outside rank 3"),
        (
            lambda: WeightVector.root(1, 2, 3) + WeightVector.root(1, 2, 4),
            "weight vectors of different ranks 3 and 4",
        ),
        (lambda: WeightVector.zero(True), "rank True is not a nonnegative int"),
        (lambda: WeightVector.zero(-1), "rank -1 is not a nonnegative int"),
        (lambda: WeightVector.zero(2.0), "rank 2.0 is not a nonnegative int"),
    ],
)
def test_bad_weight_raises_typed_error(call, message):
    with pytest.raises(BadWeight, match=f"^{re.escape(message)}$") as caught:
        call()
    assert isinstance(caught.value, OrbitalError) and isinstance(caught.value, ValueError)


def test_weight_of():
    # the tests' oracle of the generator's window weight
    assert weight_of(x(1, 4), rank=5).coeffs == (1, 1, 1, 0, 0)
    assert weight_of(x(1, 2) * x(2, 4) * x(4, 6)).coeffs == (1, 1, 1, 1, 1)
    # t carries weight zero
    assert weight_of(x(1, 2) * t_poly(), rank=1).coeffs == (1,)
    with pytest.raises(ValueError, match="^the zero polynomial has no weight$"):
        weight_of(MultiPoly.zero(), rank=3)
    with pytest.raises(ValueError, match=r"^monomial weights differ: \(1, 0, 0\) vs \(1, 1, 0\)$"):
        weight_of(x(1, 2) + x(1, 3), rank=3)
    with pytest.raises(ValueError, match="^variable x1,5 outside rank 3$"):
        weight_of(x(1, 5), rank=3)


def test_matrix_basics():
    m = PolyMatrix(((x(1, 2), 1), (0, t_poly())))
    assert (m.nrows, m.ncols) == (2, 2)
    assert m.entry(1, 2) == 1
    assert m.entry(2, 1) == 0
    sq = m @ m
    assert sq.entry(1, 1) == x(1, 2) * x(1, 2)
    assert sq.entry(1, 2) == x(1, 2) + t_poly()
    assert m.power(3) == m @ m @ m
    assert m.top_right(1).entries == ((MultiPoly.const(1),),)
    assert m.top_right(2) == m


def test_top_right_of_a_rectangular_matrix():
    # the corner of a 1x3 matrix is its last entry, and no corner is larger
    m = PolyMatrix(((x(1, 2), x(1, 3), t_poly()),))
    assert m.top_right(1).entries == ((t_poly(),),)
    with pytest.raises(BadRange, match=re.escape("int in 1..1, got 2")):
        m.top_right(2)
    assert PolyMatrix(((1,), (x(1, 2),), (2,))).top_right(1).entries == ((MultiPoly.const(1),),)


@pytest.mark.parametrize("i, j", [(0, 1), (3, 1), (1, 0), (1, 3), (-1, -1), (True, 1), (1, 1.0)])
def test_entry_rejects_indices_outside_the_matrix(i, j):
    # (0, 1) returned row 2's entry, (-1, -1) the last one, and (True, 1)
    # the first
    m = PolyMatrix(((x(1, 2), 1), (0, t_poly())))
    message = f"entry indices must be ints in 1..2 and 1..2, got ({i!r}, {j!r})"
    with pytest.raises(BadRange, match=re.escape(message)):
        m.entry(i, j)


def test_matmul_rectangular():
    # a 1x2 times a 2x3 matrix: entries summed over the shared index, with
    # cancelling terms dropped
    a = PolyMatrix(((x(1, 2), 1),))
    b = PolyMatrix(((1, 0, t_poly()), (-x(1, 2), x(2, 3), 0)))
    prod = a @ b
    assert (prod.nrows, prod.ncols) == (1, 3)
    assert prod.entries == ((MultiPoly.zero(), x(2, 3), x(1, 2) * t_poly()),)
    assert prod.entry(1, 1).terms == {}
    with pytest.raises(ValueError, match="cannot multiply 3 columns into 1 rows"):
        b @ a


def test_power_rejects_exponents_below_one():
    # a bare loop of k - 1 products would return the matrix itself at k = 0
    m = PolyMatrix(((x(1, 2), 1), (0, t_poly())))
    for k in (0, -1):
        with pytest.raises(BadExponent, match=f"at least 1, got {k}"):
            m.power(k)
    # power's rejection was a ValueError, and still is one
    with pytest.raises(ValueError):
        m.power(0)


def test_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        PolyMatrix(((1, 2), (3,)))


def test_determinant_golden():
    m = PolyMatrix(((x(1, 2), x(1, 3)), (x(2, 3), t_poly())))
    assert determinant(m) == x(1, 2) * t_poly() - x(1, 3) * x(2, 3)
    assert determinant(PolyMatrix(())) == 1
    assert determinant(PolyMatrix(((7,),))) == 7
    # a 1x1 matrix is packed and unpacked like any other: D = 5 gives 3-bit
    # fields, and the entry's exponents above 1 come back whole
    entry = x(1, 2) * x(1, 2) * t_poly() * t_poly() * t_poly() - x(1, 3)
    assert determinant(PolyMatrix(((entry,),))) == entry
    # D = 1 + 2 = 3 gives 2-bit fields, and the result's exponent fills
    # its field: 3 = 2^2 - 1
    x12 = x(1, 2)
    assert determinant(PolyMatrix(((x12, 0), (0, x12 * x12)))) == x12 * x12 * x12


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
    # higher degrees, so the products cross field-width boundaries
    x(1, 2) * x(1, 2),
    t_poly() * t_poly() * t_poly(),
    x(1, 3) * x(2, 3) * t_poly(),
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

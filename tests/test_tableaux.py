"""Partitions, standard tableaux, tau-invariants, Richardson construction."""

import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from orbital import (
    BadExponent,
    BadProbeInput,
    BadRange,
    ColumnNotIncreasing,
    DuplicateEntry,
    NotRichardson,
    Partition,
    PolyMatrix,
    RaggedShape,
    RowNotIncreasing,
    SizeMismatch,
    TableauError,
    TauSet,
    WeightVector,
    chains,
    dominance_le,
    dual_partition,
    generic_richardson_matrix,
    poly_eval,
    project,
    projected_shape,
    render_tableau,
    richardson_tableau,
    tau_invariant,
    validate_syt,
    variety_dim,
    x,
)
from conftest import EIGHT_DROP, EIGHT_RICH, all_syt, greedy_richardson, tab


@st.composite
def tau_subsets(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    indices = draw(st.sets(st.sampled_from(range(1, n))))
    return frozenset(indices), n


def test_partition_basics():
    lam = Partition((3, 2))
    assert lam.n == 5
    assert len(lam) == 2
    assert lam.part(1) == 3
    assert lam.part(2) == 2
    assert lam.part(7) == 0
    assert list(lam) == [3, 2]
    assert str(lam) == "(3, 2)"
    assert lam.to_json() == [3, 2]


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))


@pytest.mark.parametrize("parts", [(2.5, 1), (2.0, 1), ("2", 1), (True,)])
def test_partition_rejects_non_integral_parts(parts):
    # each used to be read through int(): (2.5, 1) became (2, 1)
    with pytest.raises(ValueError, match="parts must be ints"):
        Partition(parts)


def test_dual_partition_golden():
    assert dual_partition(Partition((5, 2, 1))).parts == (3, 2, 1, 1, 1)
    assert dual_partition(Partition(())).parts == ()


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_dual_partition_is_an_involution(parts):
    lam = Partition(tuple(sorted(parts, reverse=True)))
    assert dual_partition(dual_partition(lam)) == lam
    assert dual_partition(lam).n == lam.n


def test_dominance_golden():
    assert dominance_le(Partition((3, 3)), Partition((4, 2)))
    assert not dominance_le(Partition((4, 2)), Partition((3, 3)))
    # incomparable pair: neither direction
    assert not dominance_le(Partition((3, 3)), Partition((4, 1, 1)))
    assert not dominance_le(Partition((4, 1, 1)), Partition((3, 3)))
    assert dominance_le(Partition((2, 2)), Partition((2, 2)))


def test_dominance_size_mismatch():
    with pytest.raises(SizeMismatch):
        dominance_le(Partition((2,)), Partition((2, 1)))


def test_variety_dim_golden():
    assert variety_dim(Partition((5, 2, 1)), 8) == 24
    assert variety_dim(Partition((4, 3, 1)), 8) == 23
    assert variety_dim(Partition((6, 4, 1, 1)), 12) == 57
    # one row: the regular orbit fills the strict upper triangle
    assert variety_dim(Partition((8,)), 8) == 28
    # one column: the zero orbit
    assert variety_dim(Partition((1,) * 8), 8) == 0
    with pytest.raises(SizeMismatch):
        variety_dim(Partition((3,)), 5)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_variety_dim_matches_dual_parts(parts):
    # variety_dim sums (2i - 1) * lambda_i; the definition squares the
    # column heights
    lam = Partition(tuple(sorted(parts, reverse=True)))
    squares = sum(d * d for d in dual_partition(lam).parts)
    assert variety_dim(lam, lam.n) == (lam.n * lam.n - squares) // 2


def test_validate_syt_error_cases():
    with pytest.raises(RaggedShape):
        validate_syt([[1, 2], [3, 4, 5]])
    with pytest.raises(RaggedShape):
        validate_syt([[1, 2], []])
    with pytest.raises(RaggedShape):
        validate_syt([])
    with pytest.raises(DuplicateEntry):
        validate_syt([[1, 2], [2]])
    with pytest.raises(TableauError):
        validate_syt([[1, 2], [5]])  # not 1..n
    with pytest.raises(RowNotIncreasing):
        validate_syt([[2, 1], [3]])
    with pytest.raises(ColumnNotIncreasing):
        validate_syt([[2, 3], [1], [4]])


@pytest.mark.parametrize("rows", [[[1.7, 2]], [["1", "2"]], [[1, 2.0]], [[True, 2]]])
def test_validate_syt_rejects_non_integral_entries(rows):
    # each used to be read through int(): [[1.7, 2]] became ((1, 2),)
    with pytest.raises(TableauError, match="entries must be ints"):
        validate_syt(rows)


def test_validate_syt_accepts_and_freezes():
    t = validate_syt([[1, 3], [2]])
    assert t.rows == ((1, 3), (2,))
    assert t.n == 3
    assert t.shape.parts == (2, 1)
    assert t.position(3) == (1, 2)
    assert t.row_of(2) == 2


def test_tableau_json_round_trip():
    t = tab(*EIGHT_RICH)
    again = type(t).from_json(t.to_json())
    assert again == t
    with pytest.raises(TableauError):
        type(t).from_json({"n": 9, "rows": [[1, 2], [3]]})
    with pytest.raises(TableauError):
        type(t).from_json({"boxes": []})


def test_render_tableau_golden():
    expected = "\n".join(
        [
            "+---+---+",
            "| 1 | 2 |",
            "+---+---+",
            "| 3 |",
            "+---+",
        ]
    )
    assert render_tableau(tab((1, 2), (3,))) == expected


def test_tau_set_runs_and_roots():
    tau = TauSet(frozenset({1, 4, 5, 7, 9, 10}), 12)
    assert tau.positive_roots == (
        (1, 1), (4, 4), (4, 5), (5, 5), (7, 7), (9, 9), (9, 10), (10, 10),
    )
    assert (4, 5) in tau.positive_roots
    assert (5, 7) not in tau.positive_roots
    assert str(tau) == "{1, 4, 5, 7, 9, 10}"
    assert tau.to_json() == [1, 4, 5, 7, 9, 10]


@pytest.mark.parametrize(
    "make, args, message",
    [
        (TauSet, ({1.7}, 5), "indices must be ints, got 1.7"),
        (TauSet, ({"2"}, 5), "indices must be ints, got '2'"),
        (TauSet, ({True}, 5), "indices must be ints, got True"),
        (TauSet, ({1}, 5.0), "n must be an int, got 5.0"),
        (richardson_tableau, ({1}, 4.0), "n must be an int, got 4.0"),
        (WeightVector, ((1.5, 2),), "coefficients must be ints, got 1.5"),
        (WeightVector, ((1, True),), "coefficients must be ints, got True"),
    ],
)
def test_tau_and_weights_reject_non_integral_input(make, args, message):
    # each used to be read through int(): TauSet({1.7}, 5) became {1} and
    # WeightVector((1.5, 2)) printed as a1 + 2a2
    with pytest.raises(ValueError, match=re.escape(message)):
        make(*args)


_TAU = TauSet(frozenset({1}), 4)
_T3 = validate_syt([[1, 2], [3]])
_M1 = PolyMatrix(((x(1, 2),),))


@pytest.mark.parametrize(
    "call, error, message",
    [
        # a TauSet passed with an n that is not an int: the first was
        # accepted, the second a raw TypeError, the third returned 2.0
        (lambda: richardson_tableau(_TAU, 4.0), ValueError, "n must be an int, got 4.0"),
        (lambda: generic_richardson_matrix(_TAU, 4.0), ValueError, "n must be an int, got 4.0"),
        (lambda: variety_dim(Partition((2, 1)), 3.0), ValueError, "n must be an int, got 3.0"),
        # window bounds: True was taken as 1, 1.0 named the wrong culprit
        # or raised a raw TypeError
        (lambda: TauSet(frozenset({1}), 3).restrict(True, 2), BadRange, "got a=True, b=2"),
        (lambda: TauSet(frozenset({1}), 3).restrict(1.0, 2), BadRange, "got a=1.0, b=2"),
        (lambda: TauSet(frozenset({1}), 3).restrict(1, 2.0), BadRange, "got a=1, b=2.0"),
        (lambda: project(_T3, True, 3), BadRange, "got i=True, j=3"),
        (lambda: project(_T3, 1.0, 3), BadRange, "got i=1.0, j=3"),
        (lambda: projected_shape(_T3, 1, True), BadRange, "got i=1, j=True"),
        # values outside GF(p): 3.5 came back as the value
        (lambda: poly_eval(x(1, 2), {(1, 2): 3.5}, 7), BadProbeInput, "value 3.5 of x12 is not an int"),
        (lambda: poly_eval(x(1, 2), {(1, 2): True}, 7), BadProbeInput, "value True of x12 is not an int"),
        # exponents: True was taken as 1, 1.5 a raw TypeError
        (lambda: _M1.power(True), BadExponent, "power must be an int of at least 1, got True"),
        (lambda: _M1.power(1.5), BadExponent, "power must be an int of at least 1, got 1.5"),
        # corner sizes outside 1..n: an IndexError, an empty matrix, or a
        # raw TypeError
        (lambda: _M1.top_right(3), BadRange, "int in 1..1, got 3"),
        (lambda: _M1.top_right(0), BadRange, "int in 1..1, got 0"),
        (lambda: _M1.top_right(-1), BadRange, "int in 1..1, got -1"),
        (lambda: _M1.top_right(1.0), BadRange, "int in 1..1, got 1.0"),
    ],
)
def test_non_int_bounds_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_free_positions_complement_the_positive_roots():
    # every strictly upper position (a, b) is either forced to zero by a
    # positive root (a, b - 1) or free, never both
    for n in range(1, 8):
        upper = {(a, b) for a in range(1, n) for b in range(a + 1, n + 1)}
        for bits in range(1 << (n - 1)):
            tau = TauSet(frozenset(i for i in range(1, n) if bits >> (i - 1) & 1), n)
            free = tau.free_positions
            roots = tau.positive_roots
            forced = {(u, v + 1) for u, v in roots}
            assert len(set(free)) == len(free)
            assert set(free).isdisjoint(forced)
            assert set(free) | forced == upper
            assert tau.free_positions is free
            assert tau.positive_roots is roots


def test_restrict_names_the_window_problem():
    tau = TauSet(frozenset({1, 4, 5, 7, 9, 10}), 12)
    assert tau.restrict(4, 8) == TauSet(frozenset({1, 2, 4}), 5)
    # index b is left out: alpha_b reaches past the window
    assert tau.restrict(3, 7) == TauSet(frozenset({2, 3}), 5)
    # the full window gives tau back; a == b the empty tau on one box
    for n in range(1, 8):
        for bits in range(1 << (n - 1)):
            t = TauSet(frozenset(i for i in range(1, n) if bits >> (i - 1) & 1), n)
            assert t.restrict(1, n) == t
            assert all(t.restrict(a, a) == TauSet(frozenset(), 1) for a in range(1, n + 1))
    for a, b in ((0, 3), (3, 2), (5, 13)):
        with pytest.raises(BadRange, match=f"got a={a}, b={b}"):
            tau.restrict(a, b)


def test_tau_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        TauSet(frozenset({5}), 5)


def test_tau_invariant_golden():
    assert tau_invariant(tab(*EIGHT_RICH)).sorted() == [2, 3, 7]
    assert tau_invariant(tab(*EIGHT_DROP)).sorted() == [2, 3, 7]


def test_richardson_golden():
    assert richardson_tableau({2, 3, 7}, 8).rows == EIGHT_RICH
    # empty tau: everything stays in row one
    assert richardson_tableau(set(), 5).rows == ((1, 2, 3, 4, 5),)
    # full tau: a single column
    assert richardson_tableau({1, 2, 3, 4}, 5).rows == ((1,), (2,), (3,), (4,), (5,))


def test_richardson_matches_the_greedy_filling():
    # the rows read off the chains against the box-by-box row search, for
    # every tau with n <= 12
    count = 0
    for n in range(1, 13):
        for size in range(n):
            for tau in combinations(range(1, n), size):
                assert richardson_tableau(tau, n) == greedy_richardson(tau, n), (tau, n)
                count += 1
    assert count == 4095


def test_richardson_rejects_mismatched_tau_size():
    with pytest.raises(SizeMismatch):
        richardson_tableau(TauSet(frozenset({1}), 4), 5)


def test_chains_golden():
    cs = chains(tab(*EIGHT_RICH))
    assert [list(c) for c in cs] == [[1], [2, 3, 4], [5], [6], [7, 8]]
    assert [len(c) for c in cs] == [1, 3, 1, 1, 2]


def test_chains_rejects_non_richardson():
    with pytest.raises(NotRichardson):
        chains(tab(*EIGHT_DROP))


@given(tau_subsets())
def test_richardson_round_trips_tau(tn):
    tau, n = tn
    t_r = richardson_tableau(tau, n)
    assert tau_invariant(t_r).indices == tau


@given(tau_subsets())
def test_chain_structure_matches_shape(tn):
    tau, n = tn
    t_r = richardson_tableau(tau, n)
    cs = chains(t_r)
    lam = t_r.shape
    assert len(cs) == lam.part(1)
    assert Counter(len(c) for c in cs) == Counter(dual_partition(lam).parts)
    # a chain occupies one box per row, top down
    for c in cs:
        for offset, m in enumerate(c):
            assert t_r.row_of(m) == offset + 1


@given(tau_subsets(max_n=6))
def test_richardson_is_the_unique_dimension_maximum(tn):
    tau, n = tn
    t_r = richardson_tableau(tau, n)
    top = variety_dim(t_r.shape, n)
    rivals = [t for t in all_syt(n) if tau_invariant(t).indices == tau]
    assert t_r in rivals
    for t in rivals:
        assert dominance_le(t.shape, t_r.shape)
        if t != t_r:
            assert variety_dim(t.shape, n) < top

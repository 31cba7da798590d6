"""Codimension-one descendants: enumeration, classification, sigma windows."""

import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from orbital import (
    InconsistentIndexing,
    NotApplicable,
    NotRichardson,
    TauSet,
    chains,
    classify_hypersurface,
    hypersurface_descendants,
    iter_descriptors,
    project,
    richardson_tableau,
    sigma_is_full,
    tau_invariant,
    validate_syt,
    variety_dim,
)
from conftest import EIGHT_DROP, EIGHT_RICH, all_syt, naive_descendants, tab


@st.composite
def tau_subsets(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    indices = draw(st.sets(st.sampled_from(range(1, n))))
    return frozenset(indices), n


def test_unique_descendant_golden():
    ds = hypersurface_descendants(tab(*EIGHT_RICH))
    assert len(ds) == 1
    d = ds[0]
    assert d.tableau.rows == EIGHT_DROP
    assert d.dropped_box == 5
    assert d.thickness == 1
    assert (d.sigma_lo, d.sigma_hi) == (1, 4)
    assert d.window == (1, 5)
    assert list(d.prev_chain) == [1]
    assert list(d.source_chain) == [5]
    assert d.descriptor_id == "n=8 tau={2,3,7} drop=5"
    assert variety_dim(d.richardson.shape, 8) == 24
    assert variety_dim(d.tableau.shape, 8) == 23
    # computed once per descriptor
    assert d.tau is d.tau


def test_chain_tail_off_its_row_is_typed_error(monkeypatch):
    # tau = {1, 3} on 4 boxes has the chains {1,2} and {3,4}, and {3,4}
    # drops its box 4; box 4 sits in row 1 of the one-row layout, so that
    # layout contradicts the chain
    t_r = richardson_tableau({1, 3}, 4)
    monkeypatch.setattr(
        "orbital.hypersurface._richardson", lambda _: validate_syt([[1, 2, 3, 4]])
    )
    with pytest.raises(InconsistentIndexing, match="chain tail 4 sits in row 1, not in row 2"):
        hypersurface_descendants(t_r)


def test_descendants_reject_non_richardson():
    with pytest.raises(NotRichardson):
        hypersurface_descendants(tab(*EIGHT_DROP))


def test_descriptor_json():
    d = hypersurface_descendants(tab(*EIGHT_RICH))[0]
    assert d.to_json() == {
        "tableau": {"n": 8, "rows": [[1, 2, 6, 7], [3, 5, 8], [4]]},
        "richardson": {"n": 8, "rows": [[1, 2, 5, 6, 7], [3, 8], [4]]},
        "tau": [2, 3, 7],
        "dropped_box": 5,
        "sigma": [1, 4],
        "thickness": 1,
        "window": [1, 5],
    }


def test_classify_golden():
    d = classify_hypersurface(tab(*EIGHT_DROP))
    assert d is not None and d.dropped_box == 5
    # the Richardson tableau itself is not a proper descendant
    assert classify_hypersurface(tab(*EIGHT_RICH)) is None
    # same tau as a Richardson tableau but two dimensions down
    assert classify_hypersurface(tab((1, 3), (2, 5), (4,))) is None


def test_sigma_is_full():
    assert sigma_is_full(richardson_tableau({2, 4}, 6)) is True
    assert sigma_is_full(tab(*EIGHT_RICH)) is False
    with pytest.raises(NotApplicable):
        sigma_is_full(tab(*EIGHT_DROP))


def test_iter_descriptors_counts():
    per_n = {n: 0 for n in range(2, 8)}
    for d in iter_descriptors(7):
        per_n[d.n] += 1
    assert per_n == {2: 0, 3: 0, 4: 2, 5: 6, 6: 18, 7: 48}


def test_descriptor_bytes_are_pinned():
    # every descriptor with n <= 10: its id and its JSON, in stream order
    h = hashlib.sha256()
    count = 0
    for d in iter_descriptors(10):
        h.update(d.descriptor_id.encode() + b"\n")
        h.update(json.dumps(d.to_json(), sort_keys=True).encode() + b"\n")
        count += 1
    assert count == 1235
    assert h.hexdigest() == (
        "457851cff983d59ac7779447a9a52417410d3480dbbb1fc562154daa96de84f1"
    )


def test_descendants_match_dimension_oracle():
    # independent enumeration: a descendant is exactly a non-Richardson
    # tableau with the same tau and dimension one less
    for n in range(2, 7):
        seen_taus = set()
        for t in all_syt(n):
            tau = tau_invariant(t).indices
            if tau in seen_taus:
                continue
            seen_taus.add(tau)
            t_r = richardson_tableau(tau, n)
            top = variety_dim(t_r.shape, n)
            expected = {
                s.rows
                for s in all_syt(n)
                if s != t_r
                and tau_invariant(s).indices == tau
                and variety_dim(s.shape, n) == top - 1
            }
            got = {d.tableau.rows for d in hypersurface_descendants(t_r)}
            assert got == expected


def _fields(d):
    return (d.tableau, d.richardson, d.window, d.thickness, d.tau)


def test_drops_match_whole_tableau_oracle():
    # every tau with n <= 12, in iter_descriptors order: each drop read off
    # tau's chain lengths against the whole tableau rebuilt and re-checked,
    # both through hypersurface_descendants and the stream
    expected = []
    for n in range(1, 13):
        for tau in sorted(
            tup for size in range(n) for tup in combinations(range(1, n), size)
        ):
            t_r = richardson_tableau(TauSet(frozenset(tau), n), n)
            oracle = naive_descendants(t_r)
            assert [_fields(d) for d in hypersurface_descendants(t_r)] == oracle
            expected.extend(oracle)
    assert len(expected) == 6912
    assert [_fields(d) for d in iter_descriptors(12)] == expected


def test_descriptors_share_their_richardson_tau():
    # one TauSet per Richardson tableau, from the stream and from
    # hypersurface_descendants alike
    first, shared = {}, 0
    for d in iter_descriptors(8):
        assert d.tau == tau_invariant(d.richardson)
        if d.richardson in first:
            assert d.tau is first[d.richardson].tau
            shared += 1
        first.setdefault(d.richardson, d)
    assert shared > 0
    ds = hypersurface_descendants(richardson_tableau({2, 4}, 8))
    assert len(ds) == 2 and ds[0].tau is ds[1].tau


@given(tau_subsets())
def test_descriptor_internal_consistency(tn):
    tau, n = tn
    t_r = richardson_tableau(tau, n)
    ch = chains(t_r)
    for d in hypersurface_descendants(t_r):
        assert d.window == (d.sigma_lo, d.dropped_box)
        assert d.sigma_hi == d.dropped_box - 1
        assert d.thickness == len(d.source_chain) == len(d.prev_chain)
        assert d.dropped_box == d.source_chain[-1]
        assert d.prev_chain[0] == d.sigma_lo
        # the derived chains are chains of the Richardson tableau: the
        # dropped one, and the nearest earlier one of the same length
        assert d.source_chain in ch
        earlier = ch[:ch.index(d.source_chain)]
        assert d.prev_chain == next(
            c for c in reversed(earlier) if len(c) == d.thickness
        )
        assert classify_hypersurface(d.tableau) == d


def test_projected_problem_is_the_restricted_tau():
    # projecting a descriptor to its window gives the window problem named
    # by tau restricted to the window, on the full window, same thickness
    count = 0
    for d in iter_descriptors(10):
        a, b = d.window
        inner = classify_hypersurface(project(d.tableau, a, b))
        assert inner.tau == d.tau.restrict(a, b)
        assert inner.window == (1, b - a + 1)
        assert inner.thickness == d.thickness
        assert d.window_problem == (inner.tau, inner.thickness)
        count += 1
    assert count == 1235


@given(tau_subsets(max_n=6))
def test_window_projection_renormalizes(tn):
    # cutting the window out of the pair gives a smaller descendant whose
    # sigma spans the whole window, with the same thickness
    tau, n = tn
    for d in hypersurface_descendants(richardson_tableau(tau, n)):
        a, b = d.window
        inner = classify_hypersurface(project(d.tableau, a, b))
        assert inner is not None
        assert project(d.richardson, a, b) == inner.richardson
        assert inner.window == (1, b - a + 1)
        assert inner.thickness == d.thickness
        assert sigma_is_full(inner.richardson)

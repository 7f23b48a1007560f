"""Property-based tests over randomly generated structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from finspace.collapse import aggregate_verdict
from finspace.complexes import SimplicialComplex
from finspace.posets import build_poset

from helpers import brute_transitive_closure, contains_simplex, is_subcomplex

# pairs (i, j) with i < j are acyclic by construction
acyclic_pairs = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
        lambda p: (f"n{min(p)}", f"n{max(p)}")
    ).filter(lambda p: p[0] != p[1]),
    max_size=15,
)

facet_lists = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(acyclic_pairs)
def test_order_is_transitive_closure_of_input(pairs):
    elements = sorted({x for p in pairs for x in p} | {"n0"})
    X = build_poset(elements, pairs)
    closure = brute_transitive_closure(elements, pairs)
    assert {(a, b) for a, b in X.order_pairs() if a != b} == closure


@settings(max_examples=60, deadline=None)
@given(acyclic_pairs)
def test_hasse_is_minimal(pairs):
    elements = sorted({x for p in pairs for x in p} | {"n0"})
    X = build_poset(elements, pairs)
    # dropping any cover pair loses some order relation
    for a, b in X.hasse:
        Y = build_poset(elements, [p for p in X.hasse if p != (a, b)])
        assert not Y.leq(a, b)


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_maximalize_idempotent_and_faithful(facets):
    K = SimplicialComplex(facets)
    assert SimplicialComplex([sorted(f) for f in K.facets]) == K
    for f in facets:
        assert contains_simplex(K, f)


@settings(max_examples=60, deadline=None)
@given(facet_lists, facet_lists)
def test_union_intersection_are_bounds(fa, fb):
    A, B = SimplicialComplex(fa), SimplicialComplex(fb)
    U, I = A.union(B), A.intersection(B)
    assert is_subcomplex(A, U) and is_subcomplex(B, U)
    assert is_subcomplex(I, A) and is_subcomplex(I, B)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["yes", "no", "unknown"]), max_size=6))
def test_aggregate_verdict_is_min(verdicts):
    order = {"no": 0, "unknown": 1, "yes": 2}
    expected = min(verdicts, key=order.get, default="yes")
    assert aggregate_verdict(verdicts) == expected

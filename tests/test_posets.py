import pytest

from finspace.errors import CycleDetected, DuplicateElement, UnknownElement
from finspace.generators import generate_poset
from finspace.posets import FinitePoset, antichain, build_poset, chain

from helpers import brute_transitive_closure


def test_chain_order():
    X = chain(["a", "b", "c"])
    assert X.leq("a", "c")
    assert X.lt("a", "b")
    assert not X.leq("c", "a")
    assert X.hasse == frozenset({("a", "b"), ("b", "c")})


def test_antichain_has_no_relations():
    X = antichain(["p", "q", "r"])
    assert X.hasse == frozenset()
    assert set(X.maximal_elements()) == set(X.minimal_elements()) == set("pqr")


def test_closure_then_reduction():
    # input already transitively closed; hasse must drop the long edge
    X = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert X.hasse == frozenset({("a", "b"), ("b", "c")})
    assert X.leq("a", "c")


def test_cycle_detection():
    with pytest.raises(CycleDetected) as exc:
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    assert exc.value.cycle


def test_reflexive_pair_is_a_cycle():
    with pytest.raises(CycleDetected):
        build_poset(["a"], [("a", "a")])


def test_duplicate_and_unknown_elements():
    with pytest.raises(DuplicateElement):
        build_poset(["a", "a"], [])
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "z")])


def test_down_up_sets():
    X = build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
    assert X.down_set("c") == {"a", "b", "c"}
    assert X.down_set("c", strict=True) == {"a", "b"}
    assert X.up_set("a") == {"a", "c", "d"}
    assert X.open_hull({"c"}) == {"a", "b", "c"}
    assert X.closure({"a"}) == {"a", "c", "d"}
    assert X.is_open(X.down_set("d"))
    assert not X.is_open({"c"})


def test_height():
    X = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    assert X.height_of("a") == 0
    assert X.height_of("c") == 2
    assert X.height_of("d") == 0
    assert X.height() == 2


def test_linear_extension_is_lexicographic_and_consistent():
    for seed in range(20):
        X = generate_poset(seed, 8)
        ext = X.linear_extension()
        assert sorted(ext) == list(X.elements)
        pos = {x: i for i, x in enumerate(ext)}
        for a, b in X.hasse:
            assert pos[a] < pos[b]
    # lexicographic tie-break on an antichain
    assert antichain(["c", "a", "b"]).linear_extension() == ["a", "b", "c"]


def test_opposite_swaps_order():
    X = chain(["a", "b"])
    assert X.opposite().leq("b", "a")
    assert X.opposite().opposite().hasse == X.hasse


def test_restrict_induces_order():
    X = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    sub = X.restrict({"a", "c"})
    assert sub.leq("a", "c")
    assert sub.hasse == frozenset({("a", "c")})


def test_remove_single_element():
    X = chain(["a", "b", "c"])
    Y = X.remove("b")
    assert set(Y.elements) == {"a", "c"}
    assert Y.leq("a", "c")


def test_order_pairs_match_brute_closure():
    for seed in range(30):
        X = generate_poset(seed, 7)
        closure = brute_transitive_closure(X.elements, X.hasse)
        assert {(a, b) for a, b in X.order_pairs() if a != b} == closure


def test_rebuild_from_order_pairs_round_trip():
    for seed in range(20):
        X = generate_poset(seed, 7)
        Y = build_poset(list(X.elements), [p for p in X.order_pairs() if p[0] != p[1]])
        assert Y.hasse == X.hasse


def test_json_round_trip():
    X = generate_poset(5, 6)
    Y = FinitePoset.from_json(X.to_json())
    assert Y.elements == X.elements and Y.hasse == X.hasse


def test_max_min_detection():
    X = build_poset(["a", "b", "m"], [("a", "m"), ("b", "m")])
    assert X.has_maximum()
    assert not X.has_minimum()


def test_cover_lists_match_the_hasse_set():
    """The cover adjacency built once in the constructor against a scan of
    the Hasse pairs, which is how every call answered before."""
    for seed in range(40):
        X = generate_poset(seed, 6 + seed % 10)
        for x in X.elements:
            assert X.covers_below(x) == sorted(a for a, b in X.hasse if b == x)
            assert X.covers_above(x) == sorted(b for a, b in X.hasse if a == x)
        tails = {a for a, _ in X.hasse}
        heads = {b for _, b in X.hasse}
        assert X.maximal_elements() == sorted(set(X.elements) - tails)
        assert X.minimal_elements() == sorted(set(X.elements) - heads)
    with pytest.raises(UnknownElement):
        FinitePoset(["a"], [("a", "z")])


def test_build_poset_runs_the_closure_once(monkeypatch):
    """The closure of the generating relation gives the masks, heights and
    order; only the Hasse pairs are filtered from it, with no second pass."""
    from finspace import posets

    calls = []
    closure = posets._closure

    def counting(elements, edges):
        calls.append(len(elements))
        return closure(elements, edges)

    monkeypatch.setattr(posets, "_closure", counting)
    X = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
    assert calls == [4]
    assert X == FinitePoset(X.elements, X.hasse)
    assert X.hasse == frozenset({("a", "b"), ("b", "c"), ("a", "d")})

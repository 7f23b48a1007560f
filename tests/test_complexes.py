import random

from finspace.complexes import (
    SimplicialComplex,
    _maximalize,
    cone,
    order_complex,
    simplex_boundary,
    simplex_id,
    solid_simplex,
)
from finspace.generators import generate_complex, generate_poset

from helpers import brute_chains, contains_simplex, sd_boundary, slow_face_poset, slow_maximalize


def test_facets_are_maximalized():
    K = SimplicialComplex([["a", "b"], ["a"], ["a", "b", "c"]])
    assert K.facets == frozenset({frozenset("abc")})


def _facet_families():
    """Seeded face families: random faces of mixed sizes (with repeats, nested
    faces and the empty face), all simplices of complexes, and the maximal
    chains of posets of varying height."""
    for seed in range(40):
        rng = random.Random(f"faces:{seed}")
        pool = [f"v{i}" for i in range(rng.randint(1, 9))]
        sizes = [rng.randint(0, len(pool)) for _ in range(rng.randint(0, 25))]
        faces = [frozenset(rng.sample(pool, k)) for k in sizes]
        faces += [f - {min(f)} for f in faces[:5] if f]
        yield frozenset(faces)
    for seed in range(10):
        yield frozenset(map(frozenset, generate_complex(seed).all_simplices()))
    for seed in range(20):
        X = generate_poset(seed, 8 + seed)
        yield frozenset(map(frozenset, order_complex(X).all_simplices(max_dim=2)))
    yield frozenset(map(frozenset, sd_boundary(3).all_simplices()))


def test_maximalize_matches_the_pairwise_test():
    for faces in _facet_families():
        assert _maximalize(faces) == slow_maximalize(faces)


def test_dim_and_counts():
    K = solid_simplex(["a", "b", "c"])
    assert K.dim() == 2
    assert len(K.all_simplices()) == 7
    assert K.euler_characteristic() == 1


def test_boundary_complex():
    S = simplex_boundary(2)
    assert S.dim() == 1
    assert len(S.simplices_of_dim(1)) == 3
    assert S.euler_characteristic() == 0


def test_contains_and_subcomplex():
    """A simplex is in K when K's index lists it, and L is a subcomplex of
    K when K's index closes L's facets downward."""
    K = solid_simplex(["a", "b", "c"])
    assert ("a", "b") in K.index().id_of
    assert ("a", "d") not in K.index().id_of
    L = SimplicialComplex([["a", "b"]])
    assert K.index().down_closure(L.facets) is not None
    assert L.index().down_closure(K.facets) is None


def test_union_intersection():
    A = solid_simplex(["a", "b", "c"])
    B = solid_simplex(["b", "c", "d"])
    U = A.union(B)
    assert U.facets == frozenset({frozenset("abc"), frozenset("bcd")})
    I = A.intersection(B)
    assert I.facets == frozenset({frozenset("bc")})


def test_intersection_is_pairwise_facet_meet():
    for seed in range(25):
        A = generate_complex(seed, max_vertices=6)
        B = generate_complex(seed + 1000, max_vertices=6)
        I = A.intersection(B)
        for s in I.all_simplices():
            assert contains_simplex(A, s) and contains_simplex(B, s)


def test_cone_adds_apex_everywhere():
    K = cone("z", SimplicialComplex([["a", "b"], ["c"]]))
    assert contains_simplex(K, {"z", "a", "b"})
    assert contains_simplex(K, {"z", "c"})


def test_without_removes_pair():
    K = solid_simplex(["a", "b", "c"])
    L = K.without([("a", "b"), ("a", "b", "c")])
    assert not contains_simplex(L, {"a", "b"})
    assert not contains_simplex(L, {"a", "b", "c"})
    assert contains_simplex(L, {"a", "c"})


def test_order_complex_matches_chain_enumeration():
    for seed in range(25):
        X = generate_poset(seed, 6)
        K = order_complex(X)
        assert {frozenset(s) for s in K.all_simplices()} == brute_chains(X)


def test_face_poset_adjoint_invariants():
    for seed in range(15):
        X = generate_poset(seed, 5)
        K = order_complex(X)
        if K.is_empty():
            continue
        chi = K.face_poset()
        assert chi.height() == K.dim()
        # Euler characteristic of the order complex of the face poset (the
        # barycentric subdivision) agrees with that of K
        assert order_complex(chi).euler_characteristic() == K.euler_characteristic()


def test_face_poset_matches_the_face_rederivation():
    complexes = [generate_complex(seed) for seed in range(20)]
    complexes += [order_complex(generate_poset(seed, 7)) for seed in range(5)]
    complexes += [SimplicialComplex([["a|b", "c"], ["a", "b|c"], ["a\\", "b"]])]
    for K in complexes:
        chi, slow = K.face_poset(), slow_face_poset(K)
        assert chi.elements == slow.elements
        assert chi.hasse == slow.hasse


def test_face_poset_ordering():
    chi = solid_simplex(["a", "b"]).face_poset()
    assert chi.leq(simplex_id(["a"]), simplex_id(["a", "b"]))
    assert not chi.leq(simplex_id(["a"]), simplex_id(["b"]))


def test_simplex_id_is_sorted_join():
    assert simplex_id(["b", "a"]) == "a|b"


def test_simplex_id_escapes_separators():
    assert simplex_id(["a|b", "c"]) == "a\\|b|c"
    assert simplex_id(["a", "b|c"]) == "a|b\\|c"
    assert simplex_id(["a\\", "b"]) == "a\\\\|b"
    assert simplex_id(["a\\|b"]) != simplex_id(["a\\", "b"])
    # {a|b, c} and {a, b|c} both joined to "a|b|c" before the escape
    K = SimplicialComplex([["a|b", "c"], ["a", "b|c"]])
    chi = K.face_poset()
    assert len(chi) == K.num_simplices() == 6
    assert chi.leq(simplex_id(["c"]), simplex_id(["a|b", "c"]))
    assert not chi.leq(simplex_id(["c"]), simplex_id(["a", "b|c"]))


def test_face_poset_of_iterated_subdivision():
    # vertices of sd(sd K) are simplex ids of sd K, which are ids themselves
    sd = order_complex(simplex_boundary(2).face_poset())
    sdsd = order_complex(sd.face_poset())
    chi = sdsd.face_poset()
    assert len(chi) == sdsd.num_simplices() == 24
    assert len(set(chi.elements)) == len(chi)
    for s in sdsd.simplices_of_dim(1):
        for v in s:
            assert chi.leq(simplex_id([v]), simplex_id(s))


def test_json_round_trip():
    K = generate_complex(7)
    L = SimplicialComplex.from_json(K.to_json())
    assert K == L


def test_empty_complex():
    K = SimplicialComplex([])
    assert K.is_empty()
    assert K.dim() == -1

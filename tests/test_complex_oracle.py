"""The level-built simplex index and chain-listing order complex against the
code they replaced (tests/helpers.py).

``SimplexIndex`` from facets must equal the facet-subset build field for
field, and ``order_complex`` must equal the maximal-chain walk in facets,
vertices and index, on every family below.  The nerve and N0, whose indexes
are linked from the nerve table, are checked in test_cover_oracle.py.
"""

from __future__ import annotations

import random

from finspace.complexes import SimplexIndex, SimplicialComplex, order_complex, simplex_boundary
from finspace.fixtures import dunce_hat, projective_plane
from finspace.generators import generate_complex, generate_poset
from finspace.posets import FinitePoset, antichain, build_poset, chain

from helpers import maximal_chain_order_complex, sd_boundary, subset_simplex_index

FIELDS = ("simplices", "id_of", "faces", "cofaces", "dim_start")


def assert_same_index(index: SimplexIndex, oracle: SimplexIndex) -> None:
    for field in FIELDS:
        assert getattr(index, field) == getattr(oracle, field), field


def graded_poset(rng: random.Random, widths, k: int) -> FinitePoset:
    """Each point above the bottom level lies above k random points of the
    level just below it."""
    levels = [[f"g{i}{chr(97 + j)}" for j in range(w)] for i, w in enumerate(widths)]
    pairs = [
        (y, x)
        for lo, hi in zip(levels, levels[1:])
        for x in hi
        for y in rng.sample(lo, min(k, len(lo)))
    ]
    return build_poset([x for level in levels for x in level], pairs)


def renamed(X: FinitePoset, rng: random.Random) -> FinitePoset:
    """X with its names shuffled, so that name order and the order disagree."""
    names = list(X.elements)
    new = dict(zip(names, rng.sample(names, len(names))))
    return build_poset(new.values(), [(new[a], new[b]) for a, b in X.hasse])


def poset_family():
    for seed in range(6):
        rng = random.Random(f"graded:{seed}")
        for widths, k in (((6, 6, 6), 3), ((5, 5, 5, 5), 2), ((6, 6, 6, 6), 2), ((5, 5, 5, 5), 3)):
            yield graded_poset(rng, widths, k)
    for seed in range(30):
        X = generate_poset(seed, 4 + seed % 12)
        yield X
        yield renamed(X, random.Random(seed))
        yield X.opposite()
    yield build_poset(["z", "a", "m"], [("z", "a"), ("a", "m")])
    yield build_poset(["z", "y", "b", "a"], [("z", "b"), ("y", "b"), ("z", "a"), ("b", "a")])
    for n in (0, 1, 2, 5):
        yield antichain([f"p{i}" for i in range(n)])
    yield chain(["c", "b", "a", "d"])
    yield chain([f"x{i}" for i in range(9)])
    for n in (1, 2, 3):
        yield simplex_boundary(n).face_poset()
        yield sd_boundary(n).face_poset()
    yield projective_plane().face_poset()
    yield dunce_hat().face_poset()


def facet_family():
    yield []
    yield [[]]
    yield [["a"]]
    yield [["a"], [], ["b", "c"], ["d", "e", "f", "g"], ["e", "f"], ["h"]]
    yield [["a|b", "c"], ["a", "b|c"], ["a\\", "b"], ["a\\|b"], ["z", "a|b", "c\\"]]
    yield [["x", "y", "z"], ["x", "y"], ["w"], ["w", "v", "u", "t", "s"]]
    for seed in range(20):
        rng = random.Random(f"facets:{seed}")
        pool = [f"v{i}" for i in range(rng.randint(1, 9))]
        yield [rng.sample(pool, rng.randint(0, len(pool))) for _ in range(rng.randint(0, 12))]
    for seed in range(10):
        yield generate_complex(seed).facets
    for K in (dunce_hat(), projective_plane(), simplex_boundary(4), sd_boundary(3)):
        yield K.facets


def test_index_from_facets_matches_the_subset_build():
    for facets in facet_family():
        facets = [frozenset(f) for f in facets]
        assert_same_index(SimplexIndex(facets), subset_simplex_index(facets))


def test_complex_index_matches_the_subset_build():
    for facets in facet_family():
        K = SimplicialComplex(facets)
        assert_same_index(K.index(), subset_simplex_index(K.facets))


def test_order_complex_matches_the_maximal_chains():
    for X in poset_family():
        K, oracle = order_complex(X), maximal_chain_order_complex(X)
        assert K.facets == oracle.facets
        assert K.vertices == oracle.vertices == frozenset(X.elements)
        assert_same_index(K.index(), subset_simplex_index(oracle.facets))


def test_empty_poset_gives_the_empty_complex():
    K = order_complex(antichain([]))
    assert K.is_empty() and K.dim() == -1 and K == SimplicialComplex([])
    assert K.index().simplices == [] and K.index().dim_start == [0]


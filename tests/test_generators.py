from finspace.covers import classify_cover
from finspace.cylinders import compose_relations
from finspace.generators import (
    generate_complex,
    generate_composite_instance,
    generate_good_space_cover,
    generate_monotone_map,
    generate_poset,
    generate_relation,
    generate_strong_good_cover,
)

from helpers import hypothesis_sets, slow_underline_preimage


def test_generate_poset_deterministic():
    A = generate_poset(1, 5)
    B = generate_poset(1, 5)
    assert A.elements == B.elements and A.hasse == B.hasse


def test_generate_poset_golden_seed():
    # pinned output; a change here means the generator is no longer stable
    X = generate_poset(1, 5)
    assert list(X.elements) == ["e0", "e1", "e2", "e3", "e4"]
    assert X.hasse == frozenset({("e1", "e2"), ("e1", "e4"), ("e4", "e0")})


def test_generate_poset_respects_height_cap():
    for seed in range(20):
        assert generate_poset(seed, 10, height_cap=2).height() <= 2


def test_generate_relation_deterministic_and_density_zero():
    X, Y = generate_poset(0, 4), generate_poset(1, 4)
    assert generate_relation(3, X, Y).pairs == generate_relation(3, X, Y).pairs
    assert generate_relation(3, X, Y, density=0.0).pairs == frozenset()


def test_generate_monotone_map_is_order_preserving():
    for seed in range(20):
        X = generate_poset(seed, 6)
        Y = generate_poset(seed + 50, 6)
        f = generate_monotone_map(seed, X, Y)
        for a, b in X.hasse:
            assert Y.leq(f[a], f[b])


def test_generate_complex_deterministic():
    assert generate_complex(9).facets == generate_complex(9).facets


def test_strong_good_generator_classifies_yes():
    for seed in range(8):
        _, cov = generate_strong_good_cover(seed)
        assert len(cov.members) <= 6
        cls = classify_cover(cov, max_subsets=2 ** len(cov.members))
        assert cls.strong_good == "yes"


def test_strong_good_generator_deterministic():
    a = generate_strong_good_cover(3)[1]
    b = generate_strong_good_cover(3)[1]
    assert a.to_json() == b.to_json()


def test_composite_instance_preimages_have_maxima():
    for seed in range(20):
        R1, R2 = generate_composite_instance(seed)
        R = compose_relations(R1, R2)
        for z, pre in hypothesis_sets(R, "left").items():
            assert pre == slow_underline_preimage(R, z)
            assert pre
            assert R.source.restrict(pre).has_maximum()


def test_good_space_cover_deterministic():
    a = generate_good_space_cover(2)[1]
    b = generate_good_space_cover(2)[1]
    assert a.to_json() == b.to_json()

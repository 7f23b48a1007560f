"""The bitmask poset index against the string-set code it replaced.

``helpers.SlowPoset`` rebuilds every poset the way the library used to:
frozenset reachability per element, a cubic transitive reduction, and
restriction through a fresh build.  Every ``build_poset`` call made while
generating seeded posets, face posets, cylinders and nerves is recorded and
rebuilt by the oracle, and the two must agree on every query.
"""

import random
import sys

import pytest

from finspace import posets
from finspace.collapse import core, greedy_collapse_space, is_contractible_space
from finspace.complexes import cone
from finspace.covers import non_hausdorff_nerve, reduced_nerve
from finspace.cylinders import CylinderSpec, multiple_cylinder, relation_cylinder
from finspace.errors import CycleDetected, MalformedSpec, UnknownElement
from finspace.fixtures import finite_circle_cover, worked_example_spec
from finspace.generators import (
    generate_complex,
    generate_composite_instance,
    generate_poset,
    generate_strong_good_cover,
)
from finspace.posets import FinitePoset, build_poset, chain

from helpers import (
    SlowPoset,
    _slow_toposort,
    assert_same_poset,
    polygon_arc_cover,
    sd_boundary,
    star_cover,
)


@pytest.fixture
def builds(monkeypatch):
    """Records every build_poset call, wherever finspace bound it, as
    (elements, relation pairs, result)."""
    calls = []
    original = posets.build_poset

    def recording(elements, relation_pairs):
        elements, pairs = list(elements), list(relation_pairs)
        result = original(elements, pairs)
        calls.append((elements, pairs, result))
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("finspace") and getattr(module, "build_poset", None) is original:
            monkeypatch.setattr(module, "build_poset", recording)
    return calls


def _check_recorded(calls) -> None:
    assert calls
    for elements, pairs, X in calls:
        assert_same_poset(X, SlowPoset(elements, pairs))


@pytest.mark.parametrize("size", [3, 4, 5, 7, 10, 14, 20, 40, 80, 160, 320])
def test_generated_posets_match_the_oracle(builds, size):
    for seed in range(6 if size <= 20 else 2 if size <= 80 else 1):
        X = generate_poset(seed, size)
        # the closed relation is the reduction's worst case
        build_poset(X.elements, X.order_pairs())
    _check_recorded(builds)


def _build_families() -> None:
    """Build the seeded face posets, cylinders and nerves."""
    for seed in range(12):
        generate_complex(seed).face_poset()
        cone("apex", generate_complex(seed + 100, max_card=3)).face_poset()
    sd_boundary(3)
    for seed in range(8):
        R1, R2 = generate_composite_instance(seed)
        relation_cylinder(R1)
        relation_cylinder(R2)
        X, Z = R2.source, R2.target
        multiple_cylinder(CylinderSpec((("X", X), ("Xm", X), ("Z", Z)), (R1, R2)))
    multiple_cylinder(worked_example_spec())
    covers = [star_cover(sd_boundary(2)), polygon_arc_cover(9, [0, 3, 5]), finite_circle_cover()]
    covers += [generate_strong_good_cover(seed)[1] for seed in range(3)]
    for cover in covers:
        non_hausdorff_nerve(cover)
        reduced_nerve(cover)


def test_face_posets_cylinders_nerves_and_opposites_match_the_oracle(builds):
    _build_families()
    _check_recorded(builds)
    for _, _, X in builds:
        assert_same_poset(X.opposite(), SlowPoset(X.elements, [(b, a) for a, b in X.hasse]))


@pytest.mark.parametrize("size", [5, 9, 16, 40, 80])
def test_restrict_on_random_subsets_matches_the_oracle(size):
    rng = random.Random(f"restrict:{size}")
    for seed in range(4):
        X = generate_poset(seed, size)
        S = SlowPoset(X.elements, X.hasse)
        for _ in range(6):
            members = rng.sample(X.elements, rng.randint(1, size))
            assert_same_poset(X.restrict(members), S.restrict(members))
        x = rng.choice(X.elements)
        assert_same_poset(X.remove(x), S.restrict(set(X.elements) - {x}))


def _fields(X: FinitePoset) -> dict:
    return {name: getattr(X, name) for name in FinitePoset.__slots__}


def test_every_build_path_stores_the_fields_build_poset_stores(builds):
    """The constructor, restrict, remove and opposite store, field for
    field, what build_poset stores for the same order, and answer every
    query as the oracle does, on the seeded posets, face posets, cylinders
    and nerves."""
    for seed in range(6):
        generate_poset(seed, 5 + 3 * seed)
    _build_families()
    recorded = list(builds)
    rng = random.Random("build paths")
    for elements, pairs, X in recorded:
        S = SlowPoset(elements, pairs)
        assert _fields(FinitePoset(X.elements, X.hasse)) == _fields(X)
        flipped = [(b, a) for a, b in X.hasse]
        assert _fields(X.opposite()) == _fields(build_poset(X.elements, flipped))
        assert_same_poset(X.opposite(), SlowPoset(X.elements, flipped))
        members = rng.sample(X.elements, rng.randint(1, len(X)))
        induced = [(a, b) for a, b in X.order_pairs() if a in members and b in members]
        assert _fields(X.restrict(members)) == _fields(build_poset(members, induced))
        assert_same_poset(X.restrict(members), S.restrict(members))
        x = rng.choice(X.elements)
        rest = [y for y in X.elements if y != x]
        induced = [(a, b) for a, b in X.order_pairs() if x not in (a, b)]
        assert _fields(X.remove(x)) == _fields(build_poset(rest, induced))
        assert_same_poset(X.remove(x), S.restrict(rest))


def _cycle(make, pairs):
    """The CycleDetected that make raises, checked to name a cycle of pairs."""
    with pytest.raises(CycleDetected) as exc:
        make()
    cycle = exc.value.cycle
    assert set(zip(cycle, cycle[1:] + cycle[:1])) <= set(pairs)
    return exc.value


def _oracle_cycle(make):
    """The oracle's CycleDetected, or None where its forward walk from the
    least remaining element reaches one that leads to no cycle."""
    try:
        make()
    except CycleDetected as exc:
        return exc
    except ValueError:
        return None
    raise AssertionError("the oracle found no cycle")


def test_cyclic_inputs_report_the_oracles_cycle():
    crashed = 0
    for seed in range(60):
        rng = random.Random(f"cyclic:{seed}")
        elements = [f"e{i}" for i in rng.sample(range(20), rng.randint(2, 9))]
        pairs = [tuple(rng.sample(elements, 2)) for _ in range(rng.randint(2, 14))]
        cycle = list(reversed(rng.sample(elements, rng.randint(2, len(elements)))))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
        if seed % 5 == 0:
            x = rng.choice(elements)
            pairs.insert(rng.randrange(len(pairs)), (x, x))
        rng.shuffle(pairs)
        got = _cycle(lambda: build_poset(elements, pairs), pairs)
        want = _oracle_cycle(lambda: SlowPoset(elements, pairs))
        assert want is None or (got.cycle, str(got)) == (want.cycle, str(want))
        got = _cycle(lambda: FinitePoset(elements, pairs), pairs)
        want = _oracle_cycle(lambda: _slow_toposort(sorted(elements), set(pairs)))
        assert want is None or (got.cycle, str(got)) == (want.cycle, str(want))
        crashed += want is None
    # both kinds occur: the oracle's report, and its walk running into a dead end
    assert 0 < crashed < 60


def test_a_cycle_below_a_dead_end_is_reported():
    """From a, the least remaining element, the forward walk used to step to
    b, the least successor, which lies on no cycle, and fail there."""
    pairs = [("a", "b"), ("a", "c"), ("c", "d"), ("d", "c"), ("c", "a")]
    assert _cycle(lambda: build_poset("abcd", pairs), pairs).cycle == ["a", "c"]


def test_a_non_covering_hasse_pair_is_rejected():
    with pytest.raises(MalformedSpec, match=r"\(a, c\) is not a covering pair"):
        FinitePoset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert FinitePoset("abc", [("a", "b"), ("b", "c")]) == build_poset(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")]
    )


def test_the_least_bad_hasse_pair_is_named():
    """Not the first one a frozenset of the pairs happens to yield."""
    with pytest.raises(MalformedSpec, match=r"\(b, d\) is not a covering pair"):
        FinitePoset("abcde", [("c", "e"), ("b", "c"), ("c", "d"), ("b", "e"), ("b", "d")])
    with pytest.raises(UnknownElement, match=r"\(b, x\)"):
        FinitePoset("abc", [("c", "z"), ("b", "y"), ("b", "x"), ("a", "b")])


def test_cover_lists_of_an_unknown_element_raise():
    X = chain(["b", "a"])
    for query in (X.covers_below, X.covers_above):
        with pytest.raises(UnknownElement):
            query("zzz")


def test_restrict_core_and_collapse_search_build_no_poset_from_relations(builds):
    posets_ = [generate_poset(seed, 6 + seed % 10) for seed in range(12)]
    posets_.append(cone("a", sd_boundary(2)).face_poset())
    posets_.append(sd_boundary(2).face_poset())  # a circle: the weak-point search gets stuck
    builds.clear()
    for X in posets_:
        X.restrict(X.elements[::2])
        core(X)
        greedy_collapse_space(X)
        greedy_collapse_space(X, target=X.down_set(X.elements[0]))
        is_contractible_space(X)
    assert builds == []


def _peeled_ids(mask: int) -> list[int]:
    """Set-bit positions by peeling the lowest set bit, one bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_set_bit_positions_match_the_bit_peel():
    rng = random.Random(16)
    masks = [*range(1 << 10), 1 << 9999, (1 << 64) - 1, (1 << 10000) - 1]
    for length in (3, 17, 64, 200, 1500, 10000):
        for density in (0.01, 0.1, 0.25, 0.5, 0.9):
            bits = [i for i in range(length - 1) if rng.random() < density]
            masks.append(posets._bits(bits) | 1 << length - 1)
    # 5,000 of 10,000 bits set, the dense case the peel took quadratic time on
    masks.append(posets._bits(rng.sample(range(10000), 5000)))
    for mask in masks:
        assert posets._ids(mask) == _peeled_ids(mask)

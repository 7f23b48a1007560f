"""The mask-based cover layer against the code it replaced (tests/helpers.py).

Index-set order, intersections, classifications, nerves, reduced nerves, N0,
the checkers' I_x and S_sigma, and truncation reports must be equal on every
family below.
"""

from __future__ import annotations

import random

import pytest

from finspace import covers
from finspace.complexes import SimplicialComplex, order_complex, simplex_boundary
from finspace.covers import (
    COMPLEX,
    Cover,
    _all_index_sets,
    _index_sets,
    classify_cover,
    n_zero_complex,
    n_zero_subspace,
    nerve,
    non_hausdorff_nerve,
    reduced_nerve,
)
from finspace.errors import UnknownMember
from finspace.fixtures import (
    circle_arc_cover,
    dunce_hat,
    finite_circle_cover,
    projective_plane,
    two_triangle_cover,
)
from finspace.generators import (
    generate_complex,
    generate_good_space_cover,
    generate_poset,
    generate_strong_good_cover,
)
from finspace.persistence import check_truncation_theorem

from helpers import (
    face_poset_nerve_homology,
    polygon_arc_cover,
    sd_boundary,
    slow_check_truncation_theorem,
    slow_classify_cover,
    slow_i_x_masks,
    slow_id_masks,
    slow_index_sets,
    slow_intersection,
    slow_intersection_is_empty,
    slow_n_zero_complex,
    slow_n_zero_subspace,
    slow_nerve,
    slow_reduced_nerve,
    slow_s_sigma_ids,
    slow_subunion,
    star_cover,
    subset_simplex_index,
    two_mode_index_sets,
    walked_classify_cover,
)


def random_complex_cover(seed: int) -> Cover:
    """The facets of a random complex dealt out to two to four members."""
    K = generate_complex(seed)
    rng = random.Random(f"deal:{seed}")
    facets = sorted(sorted(f) for f in K.facets)
    k = rng.randint(2, 4)
    groups = [[] for _ in range(k)]
    for i, f in enumerate(facets):
        groups[i if i < k else rng.randrange(k)].append(f)
    members = tuple((f"M{i}", SimplicialComplex(g)) for i, g in enumerate(groups) if g)
    return Cover("complex", K, members)


def random_space_cover(seed: int) -> Cover:
    """Down sets of the maxima of a random space, plus random open sets."""
    X = generate_poset(seed, 8, height_cap=3)
    rng = random.Random(f"open:{seed}")
    members = [X.down_set(x) for x in X.maximal_elements()]
    for _ in range(rng.randint(0, 2)):
        members.append(X.open_hull(rng.sample(list(X.elements), 2)))
    return Cover("poset", X, tuple((f"O{i}", frozenset(m)) for i, m in enumerate(members)))


def with_hard_member(K: SimplicialComplex) -> Cover:
    """K with one of its triangles: K is a stuck sub-union."""
    triangle = min(sorted(f) for f in K.facets)
    return Cover("complex", K, (("K", K), ("T", SimplicialComplex([triangle]))))


def complex_covers() -> list[Cover]:
    covers = [circle_arc_cover(), two_triangle_cover()]
    covers += [generate_strong_good_cover(seed)[1] for seed in range(8)]
    covers += [polygon_arc_cover(12, [0, 3, 6, 9]), polygon_arc_cover(9, [0, 2, 3, 7, 8])]
    covers += [random_complex_cover(seed) for seed in range(25)]
    covers += [star_cover(sd_boundary(2)), star_cover(simplex_boundary(3))]
    covers += [with_hard_member(dunce_hat()), with_hard_member(projective_plane())]
    return covers


def space_covers() -> list[Cover]:
    covers = [finite_circle_cover()]
    covers += [generate_good_space_cover(seed)[1] for seed in range(8)]
    covers += [random_space_cover(seed) for seed in range(12)]
    return covers


def all_covers() -> list[Cover]:
    return complex_covers() + space_covers()


def test_families_have_empty_triple_intersections_and_hard_verdicts():
    triples = 0
    verdicts = set()
    for cov in all_covers():
        for J in slow_index_sets(cov, 20, nerve_simplices_only=False):
            if len(J) == 3 and slow_intersection_is_empty(cov, J):
                triples += 1
        verdicts.add(classify_cover(cov, nerve_simplices_only=True).strong_good)
    assert triples >= 10
    assert verdicts == {"yes", "no", "unknown"}


def test_index_sets_and_intersections_match_oracle():
    for cov in all_covers():
        listed = list(_index_sets(cov))
        assert [J for J, _ in listed] == slow_index_sets(cov, 20, nerve_simplices_only=True)
        assert list(_all_index_sets(cov.names())) == slow_index_sets(cov, 20, nerve_simplices_only=False)
        # an index set outside the nerve table has an empty intersection
        table = dict(listed)
        for J in _all_index_sets(cov.names()):
            assert (table.get(J, 0) == 0) == slow_intersection_is_empty(cov, J)
        for J in slow_index_sets(cov, 20, nerve_simplices_only=False):
            assert cov.intersection(J) == slow_intersection(cov, J)
            assert cov.intersection(reversed(J)) == slow_intersection(cov, J)
            assert cov.intersection_is_empty(J) == slow_intersection_is_empty(cov, J)
            if cov.kind == "complex":
                assert cov.subunion(J) == slow_subunion(cov, J)
        # a single member is its own intersection, as before: nothing is built
        for name in cov.names():
            assert cov.intersection([name]) is cov.member(name)


def test_classification_matches_oracle():
    """Classified twice per cover, the second time from the verdicts the
    first kept; many covers list several index sets with one mask.  The
    records are also those of the two-mode walk.  Each record's
    intersection, built only on request, is the oracle's."""
    shared = 0
    for cov in all_covers():
        masks = [m for _, m in _index_sets(cov)]
        shared += len(set(masks)) < len(masks)
        for only in (False, True):
            cls = classify_cover(cov, nerve_simplices_only=only)
            assert cls == slow_classify_cover(cov, nerve_simplices_only=only)
            assert cls == walked_classify_cover(cov, only)
        for r in cls.records:
            assert cov.intersection(r.index_set) == slow_intersection(cov, r.index_set)
    assert shared >= 20


def test_records_read_late_match_the_oracles_records():
    """The records a classification builds on first read, and each record
    read alone off the table, are the oracles' records in both modes; the
    good and strong-good verdicts, aggregated over distinct masks, are
    those the oracles aggregate over every record."""
    for cov in all_covers():
        for only in (False, True):
            cls = classify_cover(cov, nerve_simplices_only=only)
            slow = slow_classify_cover(cov, nerve_simplices_only=only)
            walked = walked_classify_cover(cov, only)
            assert "records" not in vars(cls)
            assert [cls.record(r.index_set) for r in slow.records] == list(slow.records)
            assert "records" not in vars(cls)
            assert cls.records == slow.records == walked.records
            assert (cls.good, cls.strong_good) == (slow.good, slow.strong_good)
            assert (cls.good, cls.strong_good) == (walked.good, walked.strong_good)


def assert_class_intersections_match(cov, classes):
    """Every index set of a reduced-nerve class meets in the oracle's
    intersection of the class's first set, which Cover.intersection builds."""
    for Js in classes.values():
        first = slow_intersection(cov, Js[0])
        assert cov.intersection(Js[0]) == first
        assert all(slow_intersection(cov, J) == first for J in Js[1:])


def test_nerves_match_oracle():
    for cov in all_covers():
        N = slow_nerve(cov)
        assert nerve(cov) == N
        assert nerve(cov) is nerve(cov)
        assert non_hausdorff_nerve(cov) == N.face_poset()
        rn, slow = reduced_nerve(cov), slow_reduced_nerve(cov)
        assert rn.poset == slow.poset
        assert list(rn.poset.elements) == list(slow.poset.elements)
        assert rn.classes == slow.classes
        assert_class_intersections_match(cov, rn.classes)


NERVE_FLAVORS = [f for f, (_, _, obj) in covers.FLAVORS.items() if obj == "nerve"]


def test_nerve_flavors_read_the_face_poset_homology_off_the_nerve():
    """The nerve flavours take the nerve's homology from the nerve for
    finite-space covers too; the order complex of its face poset is the
    nerve's barycentric subdivision, so the face poset's homology is the
    same, on the finite circle and every good-space cover of seeds 0-59."""
    assert len(NERVE_FLAVORS) == 4
    for cov in [finite_circle_cover()] + [generate_good_space_cover(s)[1] for s in range(60)]:
        expected = face_poset_nerve_homology(cov).summary()
        for flavor in NERVE_FLAVORS:
            assert covers.check_nerve_theorem(cov, flavor)["nerve_homology"] == expected


def test_n_zero_matches_oracle():
    for cov in all_covers():
        cls = slow_classify_cover(cov, nerve_simplices_only=True)
        for mode in ("trivial", "collapsible"):
            for reduced in (False, True):
                assert n_zero_subspace(
                    cov, mode=mode, reduced=reduced, classification=cls
                ) == slow_n_zero_subspace(cov, mode, reduced, cls)


def test_n_zero_complex_matches_the_subset_closure():
    for cov in complex_covers():
        cls = slow_classify_cover(cov, nerve_simplices_only=True)
        for mode in ("trivial", "collapsible"):
            expected = slow_n_zero_complex(cov, mode, cls)
            assert n_zero_complex(cov, mode=mode, classification=cls) == expected


def test_nerve_and_n0_indexes_match_the_subset_build():
    """The nerve and N0 link their indexes straight from the nerve table;
    the facet-subset build of their facets gives the same index."""
    fields = ("simplices", "id_of", "faces", "cofaces", "dim_start")
    for cov in all_covers() + [star_cover(sd_boundary(3))]:
        complexes = [nerve(cov)]
        if cov.kind == COMPLEX:
            complexes += [n_zero_complex(cov, mode=mode)[0] for mode in ("trivial", "collapsible")]
        for K in complexes:
            oracle = subset_simplex_index(K.facets)
            assert K == SimplicialComplex(K.facets)  # facets maximal, as given
            for field in fields:
                assert getattr(K.index(), field) == getattr(oracle, field), field


def test_inverted_i_x_and_s_sigma_match_the_scan():
    """Per parent position, the inversion's I_x masks over N0 and reduced N0,
    and its S_sigma ids on N0 and K(reduced N0), equal the per-key scan."""
    larger = [star_cover(sd_boundary(3))]
    larger += [generate_good_space_cover(seed)[1] for seed in range(3, 6)]
    for cov in all_covers() + larger:
        if cov.kind == COMPLEX:
            n0, _ = n_zero_complex(cov)
            K = order_complex(n_zero_subspace(cov, mode="collapsible", reduced=True).poset)
            for L, masks in ((n0, cov._masks), (K, slow_id_masks(cov))):
                assert covers._s_sigma_ids(cov, L, masks) == slow_s_sigma_ids(cov, L, masks)
        else:
            for mode, reduced in (("trivial", False), ("collapsible", False), ("collapsible", True)):
                P = n_zero_subspace(cov, mode=mode, reduced=reduced).poset
                assert covers._i_x_masks(cov, P) == slow_i_x_masks(cov, P)


def test_truncation_reports_match_oracle():
    """The exhaustive list and the empty-intersection flag are also the
    two-mode walk's; both flags occur."""
    flags = set()
    for cov in complex_covers():
        report = check_truncation_theorem(cov)
        assert report == slow_check_truncation_theorem(cov)
        walk = list(two_mode_index_sets(cov, 20, nerve_simplices_only=False))
        assert report["subsets_checked"] == len(walk)
        assert report["has_empty_intersections"] == any(not m for _, m in walk)
        flags.add(report["has_empty_intersections"])
        assert check_truncation_theorem(
            cov, max_enum=2, sample_size=6, seed=3
        ) == slow_check_truncation_theorem(cov, max_enum=2, sample_size=6, seed=3)
    assert flags == {True, False}


def test_star_cover_of_sd_boundary_of_3_simplex_matches_oracle():
    cov = star_cover(sd_boundary(3))
    assert len(cov.members) == 14
    assert nerve(cov) == slow_nerve(cov)
    rn, slow = reduced_nerve(cov), slow_reduced_nerve(cov)
    assert (rn.poset, rn.classes) == (slow.poset, slow.classes)
    assert_class_intersections_match(cov, rn.classes)


@pytest.mark.parametrize("cov", [circle_arc_cover(), finite_circle_cover()])
def test_unknown_member_raises(cov):
    for call in (
        lambda: cov.intersection(["U1", "nope"]),
        lambda: cov.intersection_is_empty(["nope", "U1"]),
        lambda: cov.subunion(["U1", "nope"]),
        lambda: slow_intersection(cov, ["U1", "nope"]),
    ):
        with pytest.raises(UnknownMember, match="no cover member named 'nope'"):
            call()

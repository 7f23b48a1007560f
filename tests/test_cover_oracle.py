"""The mask-based cover layer against the code it replaced (tests/helpers.py).

Index-set order, intersections, classifications, nerves, reduced nerves, N0,
the checkers' I_x and S_sigma, and truncation reports must be equal on every
family below.
"""

from __future__ import annotations

import json
import random

import pytest

from finspace import collapse as clp
from finspace import covers
from finspace.collapse import replay_space_certificate
from finspace.complexes import SimplicialComplex, simplex_boundary, simplex_id
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
)
from finspace.generators import (
    generate_complex,
    generate_good_space_cover,
    generate_poset,
    generate_strong_good_cover,
)
from finspace.persistence import check_truncation_theorem
from finspace.posets import FinitePoset

from helpers import (
    all_pairs_reduced_nerve,
    closed_index_sets,
    complex_route_reduced_report,
    face_poset_nerve_homology,
    polygon_arc_cover,
    sd_boundary,
    seeded_cone_cover,
    slow_check_truncation_theorem,
    slow_classify_cover,
    slow_holder_masks,
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
    subunion_covers,
    two_mode_index_sets,
    two_triangle_cover,
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
        verdicts.add(classify_cover(cov).strong_good)
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
    records, every index set's, are also those of the oracles and of the
    two-mode walk in either mode, an index set a nerve-only listing leaves
    out reading as empty.  Each record's intersection, built only on
    request, is the oracle's."""
    shared = 0
    for cov in all_covers():
        masks = [m for _, m in _index_sets(cov)]
        shared += len(set(masks)) < len(masks)
        for only in (False, True):
            cls = classify_cover(cov)
            assert cls == slow_classify_cover(cov, nerve_simplices_only=only)
            assert cls == walked_classify_cover(cov, only)
        for r in cls.records:
            assert cov.intersection(r.index_set) == slow_intersection(cov, r.index_set)
    assert shared >= 20


def test_records_read_late_match_the_oracles_records():
    """The records a classification builds on first read are the oracles'
    records; the good and strong-good verdicts, aggregated over distinct
    masks, are those the oracles aggregate over every record."""
    for cov in all_covers():
        cls = classify_cover(cov)
        slow = slow_classify_cover(cov)
        walked = walked_classify_cover(cov, False)
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
        cls = slow_classify_cover(cov)
        for mode in ("trivial", "collapsible"):
            for reduced in (False, True):
                assert n_zero_subspace(
                    cov, mode=mode, reduced=reduced, classification=cls
                ) == slow_n_zero_subspace(cov, mode, reduced, cls)


def test_n_zero_complex_matches_the_subset_closure():
    for cov in complex_covers():
        cls = slow_classify_cover(cov)
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
    """Per parent position, the inversion's masks over the posets the
    checkers read them on (I_x of a point over N0 and reduced N0, Q_sigma of
    a simplex over reduced N0) and its S_sigma ids on N0 equal the per-key
    scan."""
    larger = [star_cover(sd_boundary(3))]
    larger += [generate_good_space_cover(seed)[1] for seed in range(3, 6)]
    for cov in all_covers() + larger:
        if cov.kind == COMPLEX:
            n0, _ = n_zero_complex(cov)
            assert covers._s_sigma_ids(cov, n0) == slow_s_sigma_ids(cov, n0, cov._masks)
            modes = [("collapsible", True)]
        else:
            modes = [("trivial", False), ("collapsible", False), ("collapsible", True)]
        for mode, reduced in modes:
            P = n_zero_subspace(cov, mode=mode, reduced=reduced).poset
            assert covers._holder_masks(cov, P) == slow_holder_masks(cov, P)


def reduced_complex_covers() -> list[Cover]:
    """``complex_covers()``, which holds the star cover of sd ∂Δ² and the
    strong-good covers of seeds 0-7, with the star cover of sd ∂Δ³ and the
    strong-good covers of seeds 8-19."""
    covs = complex_covers() + [star_cover(sd_boundary(3))]
    return covs + [generate_strong_good_cover(seed)[1] for seed in range(8, 20)]


def test_reduced_complex_on_the_poset_matches_the_complex_route():
    """Each S_sigma decided on its subposet Q_sigma of reduced N0 (a weak
    collapse, the height as the dimension) gives the whole report of the
    route that built K(reduced N0) and searched free faces on its index."""
    verdicts = set()
    for cov in reduced_complex_covers():
        for args in ((), (3, 7)):
            report = covers.check_nerve_theorem(cov, "reduced-complex", *args)
            assert report == complex_route_reduced_report(cov, *args)
            verdicts |= {v["verdict"] for v in report["per_simplex"].values()}
            verdicts.add(report["hypothesis_verdict"])
    assert verdicts == {"yes", "no"}


def test_a_stuck_poset_collapse_falls_back_to_the_free_face_search(monkeypatch):
    """With every weak collapse the check runs stuck, each non-empty S_sigma
    is decided by the free-face search on K(Q_sigma) built alone, with the
    check's restarts and seed, and the report is the complex route's byte
    for byte, each entry's note included."""
    stuck, searched = [], []
    search = clp.greedy_collapse_complex

    def stuck_collapse(X, alive, target=None):
        stuck.append(alive)
        return clp.unknown("greedy weak-point removal got stuck")

    def counting_search(K, **kwargs):
        searched.append(tuple(kwargs.values()))
        return search(K, **kwargs)

    monkeypatch.setattr(clp, "_weak_collapse", stuck_collapse)
    monkeypatch.setattr(clp, "greedy_collapse_complex", counting_search)
    covs = [circle_arc_cover(), two_triangle_cover(), star_cover(sd_boundary(2))]
    covs += [generate_strong_good_cover(seed)[1] for seed in range(4)]
    covs += [polygon_arc_cover(9, [0, 2, 3, 7, 8]), with_hard_member(projective_plane())]
    for cov in covs:
        for args in ((), (3, 7)):
            stuck.clear()
            searched.clear()
            report = covers.check_nerve_theorem(cov, "reduced-complex", *args)
            oracle = complex_route_reduced_report(cov, *args)
            entries = report["per_simplex"]
            filled = [k for k, v in entries.items() if v.get("note") != "S_sigma is empty"]
            assert len(stuck) == len(filled) > 0
            assert searched == [args or (8, 0)] * len(filled)  # restarts and seed passed on
            assert json.dumps(report) == json.dumps(oracle)  # every entry, note and witness


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


def _poset_fields(X: FinitePoset) -> dict:
    return {name: getattr(X, name) for name in FinitePoset.__slots__}


def test_refinement_order_is_the_all_pairs_order():
    """On every cover family in the tests, the reduced nerve ordered from
    one-member refinements stores, field for field, the poset that testing
    every pair of classes for reverse inclusion gave."""
    families = all_covers() + list(subunion_covers()) + [star_cover(sd_boundary(3))]
    families += [seeded_cone_cover(seed, 3 + seed % 6) for seed in range(12)]
    for cov in families:
        ours, theirs = reduced_nerve(cov), all_pairs_reduced_nerve(cov)
        assert _poset_fields(ours.poset) == _poset_fields(theirs.poset)
        assert ours.classes == theirs.classes


def test_the_nerve_retracts_onto_the_reduced_nerve_by_beat_points():
    """J -> {i : the intersection over J lies in U_i} is a closure operator
    on the nerve's face poset.  A non-closed set maximal among those left is
    an up-beat point, its closure the least point above it, so removing beat
    points outside the closed sets ends exactly on them, and the removals
    replay.  The closed sets, ordered by inclusion, are the reduced nerve:
    each is the largest index set of its class."""
    retracted = 0
    for cov in all_covers() + list(subunion_covers()):
        X = non_hausdorff_nerve(cov)
        closed = closed_index_sets(cov)
        keep = X._mask(closed)
        cert, left = clp._peel(X, (1 << len(X)) - 1, clp.BEAT_KINDS, keep=keep)
        assert left == keep
        retracted += len(closed) < len(X)
        assert replay_space_certificate(X, cert, target=closed)
        rn = reduced_nerve(cov)
        name = {simplex_id(max(Js, key=len)): rep for rep, Js in rn.classes.items()}
        hasse = {(name[a], name[b]) for a, b in X.restrict(closed).hasse}
        assert sorted(name) == sorted(closed) and hasse == rn.poset.hasse
    assert retracted >= 30


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

import dataclasses
import json
import random
from itertools import combinations

import pytest

from finspace import persistence
from finspace import collapse as clp
from finspace.collapse import _collapse_run
from finspace.complexes import SimplicialComplex, order_complex, simplex_boundary
from finspace.covers import Cover, _all_index_sets, classify_cover, nerve
from finspace.errors import InvalidCover, InvariantViolation, NotAChain, UnknownMember
from finspace.fixtures import (
    circle_arc_cover,
    dunce_hat,
    finite_circle_cover,
    projective_plane,
)
from finspace.generators import generate_good_space_cover, generate_strong_good_cover
from finspace.homology import _betti_gf2, reduced_homology
from finspace.persistence import check_truncation_theorem, persistence_over_chain
from finspace.posets import _ids

from helpers import (
    alive_at,
    betti_numbers_gf2_oracle,
    contains_simplex,
    every_predecessor_positive_degree_failures,
    gf2_betti,
    largest_predecessor_positive_degree_failures,
    per_union_positive_degree_failures,
    polygon_arc_cover,
    sd_boundary,
    seeded_cone_cover,
    slow_check_truncation_theorem,
    slow_persistence_over_chain,
    star_cover,
    subunion_covers,
)


def test_chain_must_be_strictly_increasing():
    cov = circle_arc_cover()
    with pytest.raises(NotAChain):
        persistence_over_chain(cov, [["U1", "U2"], ["U1"]])
    with pytest.raises(NotAChain):
        persistence_over_chain(cov, [["U1"], ["U1"]])


def test_poset_cover_rejected():
    with pytest.raises(InvalidCover):
        persistence_over_chain(finite_circle_cover(), [["U1"], ["U1", "U2"]])


def test_circle_barcode():
    diagram = persistence_over_chain(
        circle_arc_cover(), [["U1"], ["U1", "U2"], ["U1", "U2", "U3"]]
    )
    assert diagram.bars_in_degree(0) == [(1, None)]
    assert diagram.bars_in_degree(1) == [(3, None)]
    assert alive_at(diagram, 2, 1) == 0
    assert alive_at(diagram, 3, 1) == 1


def test_barcode_json_lines():
    diagram = persistence_over_chain(
        circle_arc_cover(), [["U1"], ["U1", "U2"], ["U1", "U2", "U3"]]
    )
    lines = [json.loads(l) for l in diagram.to_json_lines().splitlines()]
    assert {"degree": 1, "birth": 3, "death": None} in lines


def test_acyclic_filtration_has_no_positive_bars():
    _, cov = generate_strong_good_cover(4)
    names = sorted(cov.names())
    chain = [names[: i + 1] for i in range(len(names))]
    diagram = persistence_over_chain(cov, chain)
    for deg, bars in diagram.bars:
        if deg > 0:
            assert all(death is not None for _, death in bars)


def order_complex_cover(space_cover) -> Cover:
    """K(X) covered by the K(U) of the open members: a chain of X lies in
    the down set of its top element, hence in every member holding it."""
    X = space_cover.parent
    return Cover(
        "complex",
        order_complex(X),
        tuple((n, order_complex(X.restrict(U))) for n, U in space_cover.members),
    )


def seeded_chains(cover, seed, count=3):
    """Strictly increasing chains: prefixes of a shuffled member order."""
    rng = random.Random(f"chain:{seed}")
    names = sorted(cover.names())
    for _ in range(count):
        rng.shuffle(names)
        cuts = sorted(rng.sample(range(1, len(names) + 1), rng.randint(1, len(names))))
        yield [names[:c] for c in cuts]


def _persistence_covers():
    for seed in range(8):
        yield generate_strong_good_cover(seed)[1]
        yield order_complex_cover(generate_good_space_cover(seed)[1])
    yield circle_arc_cover()
    for n, cuts in ((12, [0, 3, 6, 9]), (9, [0, 2, 5]), (10, [0, 1, 4, 6, 8])):
        yield polygon_arc_cover(n, cuts)
    for K in (projective_plane(), dunce_hat()):
        triangle = SimplicialComplex([min(sorted(f) for f in K.facets)])
        yield Cover("complex", K, (("K", K), ("T", triangle)))


def test_persistence_matches_the_subunion_rebuild():
    checked = 0
    for seed, cov in enumerate(_persistence_covers()):
        for chain in seeded_chains(cov, seed):
            assert persistence_over_chain(cov, chain) == slow_persistence_over_chain(cov, chain)
            checked += 1
    assert checked == 3 * 22


def test_restricted_betti_numbers_match_each_subunion_of_its_own():
    """The cross-check's GF(2) Betti numbers, read off the parent's index on
    a sub-union's ids, against the sub-union built as a complex, some of
    them of lower dimension than the parent."""
    covers = [generate_strong_good_cover(seed)[1] for seed in range(6)]
    covers += [polygon_arc_cover(12, [0, 3, 6, 9]), polygon_arc_cover(10, [0, 1, 4, 6, 8])]
    covers += [star_cover(sd_boundary(2)), star_cover(simplex_boundary(3))]
    checked = lower = 0
    for seed, cov in enumerate(covers):
        index = cov.parent.index()
        names = sorted(cov.names())
        rng = random.Random(f"subunion:{seed}")
        subsets = [names] + [rng.sample(names, rng.randint(1, len(names))) for _ in range(8)]
        for J in subsets:
            K = cov.subunion(J)
            betti = _betti_gf2(index, _ids(cov._union_mask(J)))
            assert betti == gf2_betti(K) == betti_numbers_gf2_oracle(K), (seed, J)
            checked += 1
            lower += K.dim() < cov.parent.dim()
    assert checked == 9 * len(covers) and lower >= 5


def _prefix_chains():
    """(cover, chain): the prefix chain of each cover's members, in sorted
    order and in a seeded shuffle, on the sub-union covers and the star
    covers of sd of the boundaries of the 2- and 3-simplex."""
    covers = list(subunion_covers()) + [star_cover(sd_boundary(2)), star_cover(sd_boundary(3))]
    for seed, cov in enumerate(covers):
        names = sorted(cov.names())
        shuffled = random.Random(f"prefix:{seed}").sample(names, len(names))
        for order in (names, shuffled):
            yield cov, [order[:k] for k in range(1, len(order) + 1)]


def _tampered(diagram):
    """The diagram, and one copy per bar with that bar's birth one step
    later, its death one step later, or the bar dropped."""
    yield diagram
    for n, (deg, bars) in enumerate(diagram.bars):
        for i, (birth, death) in enumerate(bars):
            for bar in ((birth + 1, death), (birth, None if death is None else death + 1), None):
                changed = bars[:i] + ((bar,) if bar else ()) + bars[i + 1:]
                yield dataclasses.replace(
                    diagram, bars=diagram.bars[:n] + ((deg, changed),) + diagram.bars[n + 1:]
                )


def _raised(check, *args):
    try:
        check(*args)
    except InvariantViolation as e:
        return str(e)
    return None


def test_the_betti_check_names_the_first_count_a_tampered_bar_moves():
    """Moving one bar's birth or death a step later, or dropping the bar,
    makes the check raise at the first step and degree whose alive count
    moved, with that count and the true one, also at a step that adds no
    simplex (the dunce hat and RP2 covers add their triangle after the
    whole complex); the untampered diagram passes."""
    raised = unchanged = 0
    for cov, chain in _prefix_chains():
        index = cov.parent.index()
        steps = [_ids(cov._union_mask(J)) for J in chain]
        unchanged += sum(a == b for a, b in zip(steps, steps[1:]))
        true, *tampered = _tampered(persistence_over_chain(cov, chain))
        assert _raised(persistence._check_against_betti, true, index, steps) is None
        cells = [
            (t, k) for t, ids in enumerate(steps, start=1) if ids
            for k in range(len(index.simplices[ids[-1]]))
        ]
        for diagram in tampered:
            moved = [(t, k) for t, k in cells if alive_at(diagram, t, k) != alive_at(true, t, k)]
            expected = None
            if moved:
                t, k = moved[0]
                alive, b = alive_at(diagram, t, k) - (k == 0), alive_at(true, t, k) - (k == 0)
                expected = f"bar count {alive} disagrees with betti_{k}={b} at step {t}"
            assert _raised(persistence._check_against_betti, diagram, index, steps) == expected
            raised += expected is not None
    assert unchanged >= 2 and raised > 100


def test_persistence_rejects_unknown_member_names():
    with pytest.raises(UnknownMember, match="no cover member named 'nope'"):
        persistence_over_chain(circle_arc_cover(), [["U1"], ["U1", "nope"]])


@pytest.mark.parametrize("chain", [[["U1"], ["nope"]], [["nope"], ["U1"]]])
def test_persistence_resolves_names_before_checking_the_order(chain):
    with pytest.raises(UnknownMember, match="no cover member named 'nope'"):
        persistence_over_chain(circle_arc_cover(), chain)


def test_persistence_sees_degree_one_bars_and_torsion_mod_2():
    cov = polygon_arc_cover(12, [0, 3, 6, 9])
    diagram = persistence_over_chain(cov, [["A0"], ["A0", "A2"], ["A0", "A1", "A2", "A3"]])
    assert diagram.bars_in_degree(0) == [(1, None), (2, 3)]
    assert diagram.bars_in_degree(1) == [(3, None)]
    P = projective_plane()
    triangle = SimplicialComplex([min(sorted(f) for f in P.facets)])
    cov = Cover("complex", P, (("P", P), ("T", triangle)))
    diagram = persistence_over_chain(cov, [["T"], ["P", "T"]])
    assert diagram.bars_in_degree(1) == [(2, None)]
    assert diagram.bars_in_degree(2) == [(2, None)]


def test_subunion():
    cov = circle_arc_cover()
    K = cov.subunion(["U1", "U2"])
    assert contains_simplex(K, {"w0", "w1"})
    assert not contains_simplex(K, {"w4", "w5"})
    assert cov.subunion([]).is_empty()


def test_truncation_circle_negative():
    report = check_truncation_theorem(circle_arc_cover())
    assert report["part1_nerve_homology_match"]
    assert not report["part2_subunions_acyclic"]
    assert [f["index_set"] for f in report["part2_failures"]] == [["U1", "U2", "U3"]]
    assert report["has_empty_intersections"]
    assert report["enumeration"] == "exhaustive"
    # all pairwise and single intersections are fine; only the full union fails
    assert report["good"] == "yes"
    assert "note" in report


def test_truncation_positive_on_strong_good_instances():
    for seed in range(10):
        _, cov = generate_strong_good_cover(seed)
        report = check_truncation_theorem(cov)
        assert report["part1_nerve_homology_match"], seed
        assert report["part2_subunions_acyclic"], seed
        assert report["strong_good"] == "yes"
        assert not report["predicted_failure_mode"]


def test_truncation_reads_the_classification_of_an_equal_cover():
    # the same document built twice: the nerve tables are equal, not the same
    cov, other = circle_arc_cover(), circle_arc_cover()
    report = check_truncation_theorem(cov, classification=classify_cover(other))
    assert report == check_truncation_theorem(cov)


def test_truncation_sampling_label_beyond_cap():
    # a path of 13 edges covered edge by edge: the nerve stays small, but the
    # member count exceeds the exhaustive-enumeration cap
    from finspace.complexes import SimplicialComplex, order_complex

    edges = [[f"v{i}", f"v{i + 1}"] for i in range(13)]
    parent = SimplicialComplex(edges)
    members = tuple(
        (f"U{i:02d}", SimplicialComplex([e])) for i, e in enumerate(edges)
    )
    cov = Cover("complex", parent, members)
    report = check_truncation_theorem(cov, max_enum=12, sample_size=20)
    assert report["enumeration"].startswith("sampled")
    assert report["subsets_checked"] >= 13
    assert report["part2_subunions_acyclic"]


def test_truncation_sample_is_capped_by_the_index_sets_there_are():
    """Three arcs give 7 non-empty index sets, fewer than the default sample
    of 64: the sample takes all 7 and stops, with the sampled label."""
    cov = circle_arc_cover()
    report = check_truncation_theorem(cov, max_enum=1)
    assert report["enumeration"] == "sampled (cap 1 exceeded, seed 0)"
    assert report["subsets_checked"] == 7
    assert report == slow_check_truncation_theorem(cov, max_enum=1)


# -- part 2 by collapse, homology only where the collapse gets stuck ---------


@pytest.fixture
def homology_calls(monkeypatch):
    """The complexes handed to reduced_homology by the truncation checker;
    the first two are part 1's, the parent and the nerve."""
    seen = []
    real = persistence.reduced_homology

    def counting(K):
        seen.append(K)
        return real(K)

    monkeypatch.setattr(persistence, "reduced_homology", counting)
    return seen


def test_cone_cover_part2_computes_no_homology(homology_calls):
    for seed in range(5):
        _, cov = generate_strong_good_cover(seed)
        homology_calls.clear()
        report = check_truncation_theorem(cov)
        assert report["part2_subunions_acyclic"]
        assert homology_calls == [cov.parent, nerve(cov)]


def check_part2(monkeypatch, cov):
    """The truncation report of cov, the complexes its check builds and the
    simplex ids it computes homology on past part 1.  The nerve and the
    classification, kept with the cover, are made first.  Each failure
    witness must be the homology of its sub-union, built here only."""
    classify_cover(cov)
    nerve(cov)
    built, homology = [], []
    init, real = SimplicialComplex.__init__, persistence._homology

    def building(self, facets):
        built.append(self)
        init(self, facets)

    def counting(index, ids):
        homology.append(list(ids))
        return real(index, ids)

    monkeypatch.setattr(SimplicialComplex, "__init__", building)
    monkeypatch.setattr(persistence, "_homology", counting)
    report = check_truncation_theorem(cov)
    monkeypatch.undo()
    for failure in report["part2_failures"]:
        K_J = cov.subunion(failure["index_set"])
        assert failure["homology"] == reduced_homology(K_J).summary()
    return report, built, homology


def test_arc_cover_part2_computes_only_the_circle(monkeypatch):
    cov = polygon_arc_cover(12, [0, 3, 6, 9])
    report, built, homology = check_part2(monkeypatch, cov)
    # opposite arcs are disjoint: their sub-unions are disconnected
    assert cov.intersection_is_empty(["A0", "A2"]) and cov.intersection_is_empty(["A1", "A3"])
    assert report["subsets_checked"] == 15
    assert [f["index_set"] for f in report["part2_failures"]] == [["A0", "A1", "A2", "A3"]]
    assert built == []
    assert homology == [list(range(cov.parent.num_simplices()))]
    assert report == slow_check_truncation_theorem(cov)


def test_disconnected_subunion_collapses_to_its_components():
    cov = polygon_arc_cover(12, [0, 3, 6, 9])
    for K, expected in ((cov.subunion(["A0", "A2"]), True), (cov.parent, False)):
        ids = list(range(K.num_simplices()))
        assert (_collapse_run(K.index(), ids) is not None) is expected
    # the sub-union inside the parent's index
    parent = cov.parent.index()
    ids = sorted(parent.id_of[s] for s in cov.subunion(["A0", "A2"]).all_simplices())
    assert _collapse_run(parent, ids) is not None


def test_relative_pass_stops_on_dimensions_not_on_the_euler_count(monkeypatch):
    """A is the cone a * boundary(xyz), a disk, and B the triangle xyz.
    K_{A,B} adds only xyz to K_A: the added simplices' Euler count equals
    their number with nothing removed, yet K_{A,B} is the 2-sphere."""
    disk = SimplicialComplex([("a", "x", "y"), ("a", "x", "z"), ("a", "y", "z")])
    triangle = SimplicialComplex([("x", "y", "z")])
    cov = Cover("complex", disk.union(triangle), (("A", disk), ("B", triangle)))
    index = cov.parent.index()
    added = _ids(cov._union_mask(["A", "B"]) & ~cov._union_mask(["A"]))
    assert [index.simplices[i] for i in added] == [("x", "y", "z")]
    assert _collapse_run(index, added) is None
    report, built, homology = check_part2(monkeypatch, cov)
    assert [f["index_set"] for f in report["part2_failures"]] == [["A", "B"]]
    degrees = report["part2_failures"][0]["homology"]["degrees"]
    assert [(d["betti"], d["torsion"]) for d in degrees] == [(0, []), (0, []), (1, [])]
    assert report == slow_check_truncation_theorem(cov)
    assert built == [] and homology == [list(range(len(index.simplices)))]


def recorded_passes(monkeypatch):
    """The passes the truncation checker runs, as (simplices, collapsed)."""
    passes, real = [], clp._collapse_run

    def recording(index, ids=None, rng=None):
        pairs = real(index, ids, rng)
        passes.append(([index.simplices[i] for i in ids], pairs is not None))
        return pairs

    monkeypatch.setattr(clp, "_collapse_run", recording)
    return passes


def test_relative_pass_stuck_on_a_joining_arc_tries_the_other_predecessors(monkeypatch):
    """On a path, C's arc joins the disjoint arcs A and B.  K_{A,B,C} is
    built from K_{A,B}, two components that collapsed, and the relative
    pass from it gets stuck on C's interior.  The other collapsed
    predecessors follow, the largest first: K_{B,C} (as large as K_{A,C},
    and listed first, as J minus its first member) takes A's arc as what
    K_J adds, which collapses onto it: no full pass and no homology."""
    verts = [f"p{i:02d}" for i in range(13)]
    edges = [[verts[i], verts[i + 1]] for i in range(12)]
    members = (
        ("A", SimplicialComplex(edges[:5])),
        ("B", SimplicialComplex(edges[7:])),
        ("C", SimplicialComplex(edges[5:7])),
    )
    cov = Cover("complex", SimplicialComplex(edges), members)
    passes = recorded_passes(monkeypatch)
    report, built, homology = check_part2(monkeypatch, cov)
    assert report["part2_subunions_acyclic"] and homology == []
    assert report == slow_check_truncation_theorem(cov)
    # the last two passes decide K_{A,B,C}: C's interior, then A's arc
    (joining, stuck), (arc, collapsed) = passes[-2:]
    assert joining == [("p06",), ("p05", "p06"), ("p06", "p07")]
    assert not stuck
    assert arc == [(f"p{i:02d}",) for i in range(5)] + [
        (f"p{i:02d}", f"p{i + 1:02d}") for i in range(5)
    ]
    assert collapsed
    assert all(len(simplices) < 25 for simplices, _ in passes)  # no full pass on the path


def test_every_stuck_predecessor_leaves_the_full_pass_and_homology(monkeypatch):
    """Three arcs close a 12-gon.  Every pair of arcs is a path that
    collapses, and each relative pass of the whole circle adds the third
    arc's interior, which joins the path's two ends and gets stuck: the
    full pass runs, gets stuck too, and homology finds the circle."""
    cov = polygon_arc_cover(12, [0, 4, 8])
    passes = recorded_passes(monkeypatch)
    report, built, homology = check_part2(monkeypatch, cov)
    assert [f["index_set"] for f in report["part2_failures"]] == [["A0", "A1", "A2"]]
    assert report == slow_check_truncation_theorem(cov)
    whole = cov.parent.num_simplices()
    assert built == [] and homology == [list(range(whole))]
    # the circle's passes: three relative ones, each adding an arc's 3
    # interior vertices and 4 edges, then the full pass, all stuck
    *relative, full = passes[-4:]
    assert [(len(simplices), ok) for simplices, ok in relative] == [(7, False)] * 3
    assert (len(full[0]), full[1]) == (whole, False)


def pass_count_covers():
    """Two arc covers, four 6-member cone covers and two vertex-star covers,
    on which the walk's passes are counted."""
    covers = [polygon_arc_cover(12, [0, 3, 6, 9]), polygon_arc_cover(9, [0, 2, 3, 7, 8])]
    covers += [seeded_cone_cover(seed, 6) for seed in range(4)]
    return covers + [star_cover(sd_boundary(2)), star_cover(simplex_boundary(3))]


def test_each_distinct_pass_runs_once(monkeypatch):
    """The walk passes each id mask at most once per call, whether it asks
    for the mask as what a union adds or as a whole union, and its failures
    are those of one full pass per distinct sub-union."""
    runs, real = [], clp._collapse_run

    def recording(index, ids, rng=None):
        runs.append(tuple(ids))
        return real(index, ids, rng)

    monkeypatch.setattr(clp, "_collapse_run", recording)
    counts = []
    for cov in pass_count_covers():
        subsets = list(_all_index_sets(cov.names()))
        runs.clear()
        failures = persistence._positive_degree_failures(cov, subsets)
        assert len(runs) == len(set(runs))
        counts.append(len(runs))
        assert failures == per_union_positive_degree_failures(cov, subsets)
    # the walk asks for 20, 40, 39, 51, 55, 44, 32 and 7 passes
    assert counts == [14, 18, 28, 25, 32, 31, 24, 7]


def test_a_mask_classified_collapsible_runs_no_pass(monkeypatch):
    """After classify_cover, no id mask whose collapsibility it found Yes
    is passed again, whether as a member, as what a union adds or as a
    whole union, and the failures are those of the walk that reads no
    classification."""
    runs, real = [], clp._collapse_run

    def recording(index, ids, rng=None):
        runs.append(sum(1 << i for i in ids))
        return real(index, ids, rng)

    counts = []
    for cov in pass_count_covers():
        cls = classify_cover(cov)
        yes = {mask for mask, (_, c) in cls.verdicts.items() if c.is_yes()}
        subsets = list(_all_index_sets(cov.names()))
        monkeypatch.setattr(clp, "_collapse_run", recording)
        runs.clear()
        failures = persistence._positive_degree_failures(cov, subsets)
        monkeypatch.undo()
        assert yes and not yes & set(runs)
        counts.append(len(runs))
        assert failures == every_predecessor_positive_degree_failures(cov, subsets)
    # against 14, 18, 28, 25, 32, 31, 24 and 7 without the classification
    assert counts == [10, 13, 22, 19, 26, 25, 18, 3]


def walk_families():
    """The sub-union families, more arc and cone covers, and vertex-star
    covers, each with the index sets the checker walks exhaustively (when
    it has at most 12 members) and with a seeded sample of them."""
    covers = list(subunion_covers())
    covers += [polygon_arc_cover(n, sorted(random.Random(n).sample(range(n), k)))
               for n, k in ((9, 3), (14, 5), (18, 7))]
    covers += [seeded_cone_cover(seed, 5) for seed in range(10, 14)]
    covers += [star_cover(sd_boundary(2)), star_cover(simplex_boundary(3))]
    for seed, cov in enumerate(covers + [star_cover(sd_boundary(3))]):
        names = sorted(cov.names())
        if len(names) <= 12:
            yield cov, list(_all_index_sets(names))
        rng = random.Random(f"sample:{seed}")
        sample = {tuple(sorted(rng.sample(names, rng.randint(1, len(names))))) for _ in range(24)}
        yield cov, sorted(sample)


@pytest.mark.parametrize("classified", [False, True])
def test_walk_matches_the_every_predecessor_walk_and_one_pass_per_union(classified):
    """The walk that tries the base each union was built from first finds
    the failures of the walk that tries every collapsed predecessor, the
    largest first, and of one full pass per distinct union, exhaustively
    and on seeded samples, on a copy of each cover that keeps no
    classification and on one classified first."""
    for cov, subsets in walk_families():
        cov = Cover(cov.kind, cov.parent, cov.members)
        if classified:
            classify_cover(cov)
        failures = persistence._positive_degree_failures(cov, subsets)
        assert failures == every_predecessor_positive_degree_failures(cov, subsets)
        assert failures == per_union_positive_degree_failures(cov, subsets)


def test_walk_matches_the_largest_predecessor_walk(monkeypatch):
    """The walk finds the failures of the walk that tried the largest
    collapsed predecessor only, exhaustively and on seeded samples.  It
    runs the full pass on a new union only after the relative pass from
    each predecessor whose own full pass collapses has got stuck, and over
    the families it runs fewer passes: a circle tries each of its arcs
    before the full pass, but a path joined in the middle no longer
    re-walks the whole path."""
    masks = []
    real = clp._collapse_run

    def recording(index, ids, rng=None):
        masks.append(sum(1 << i for i in ids))
        return real(index, ids, rng)

    monkeypatch.setattr(clp, "_collapse_run", recording)
    walks = full_checked = fewer = 0
    total = [0, 0]  # passes run by the walk and by the largest-predecessor walk
    for cov, subsets in walk_families():
        masks.clear()
        old = largest_predecessor_positive_degree_failures(cov, subsets)
        old_masks = list(masks)
        masks.clear()
        assert persistence._positive_degree_failures(cov, subsets) == old
        fewer += len(masks) < len(old_masks)
        total[0] += len(masks)
        total[1] += len(old_masks)
        walks += 1
        # a full pass on a new union whose predecessors came before follows
        # a stuck relative pass from every collapsed one
        index, ran, seen = cov.parent.index(), set(masks), {}
        for J in subsets:
            union = cov._union_mask(J)
            if union in seen.values():
                seen[J] = union
                continue
            below = {seen[K] for K in combinations(J, len(J) - 1) if K in seen} - {union}
            seen[J] = union
            if len(J) == 1 or union not in ran:
                continue
            for u in below:
                if real(index, _ids(u)) is not None:
                    assert real(index, _ids(union & ~u)) is None
                    full_checked += 1
    assert walks == 51 and full_checked > 40 and fewer >= 5
    assert total[0] < total[1]


def test_dunce_hat_subunion_falls_back_to_homology(monkeypatch):
    D = dunce_hat()
    triangle = SimplicialComplex([min(sorted(f) for f in D.facets)])
    cov = Cover("complex", D, (("D", D), ("T", triangle)))
    report, built, homology = check_part2(monkeypatch, cov)
    assert report["part2_subunions_acyclic"]
    assert not report["part2_failures"]
    # K_D and K_{D,T} are both the dunce hat: one homology computation
    assert built == []
    assert homology == [list(range(D.num_simplices()))]


def test_projective_plane_subunion_still_fails(monkeypatch):
    P = projective_plane()
    triangle = SimplicialComplex([min(sorted(f) for f in P.facets)])
    cov = Cover("complex", P, (("P", P), ("T", triangle)))
    report, built, homology = check_part2(monkeypatch, cov)
    assert not report["part2_subunions_acyclic"]
    assert [f["index_set"] for f in report["part2_failures"]] == [["P"], ["P", "T"]]
    assert report["part2_failures"][0]["homology"]["degrees"][1]["torsion"] == [2]
    assert report == slow_check_truncation_theorem(cov)
    assert built == []
    assert homology == [list(range(P.num_simplices()))]

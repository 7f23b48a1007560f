import random

import pytest

from finspace import collapse as clp
from finspace import covers
from finspace import complexes
from finspace.complexes import SimplicialComplex, order_complex, simplex_id, solid_simplex
from finspace.covers import (
    Cover,
    chains_containing,
    check_nerve_theorem,
    classify_cover,
    containing_intersections,
    n_zero_complex,
    n_zero_subspace,
    nerve,
    non_hausdorff_nerve,
    reduced_nerve,
)
from finspace.errors import InvalidCover, MalformedSpec
from finspace.fixtures import (
    circle_arc_cover,
    circle_complex,
    dunce_hat,
    finite_circle,
    finite_circle_cover,
)
from finspace.generators import (
    generate_good_space_cover,
    generate_poset,
    generate_strong_good_cover,
)
from finspace.homology import homology_equal, homology_of_poset
from finspace.persistence import check_truncation_theorem
from finspace.posets import FinitePoset, build_poset, chain

from helpers import contains_simplex, record_of, sd_boundary, star_cover, two_triangle_cover


def test_cover_must_cover_parent():
    K = circle_complex()
    with pytest.raises(InvalidCover):
        Cover("complex", K, (("U1", SimplicialComplex([["w0", "w1"]])),))


def test_poset_cover_members_must_be_open():
    X = chain(["a", "b"])
    with pytest.raises(InvalidCover):
        Cover("poset", X, (("U", frozenset({"b"})), ("V", frozenset({"a", "b"}))))


_PATH = SimplicialComplex([["a", "b"], ["b", "c"]])
_SPACE = build_poset(["a", "b", "c"], [("a", "b")])  # a < b, c apart


def _sub(*facets):
    return SimplicialComplex(facets)


@pytest.mark.parametrize(
    "kind, parent, members, message",
    [
        pytest.param(
            "complex", _PATH, (("U", _PATH), ("U", _PATH)), "duplicate member names",
            id="complex-duplicate-names",
        ),
        pytest.param(
            "poset", _SPACE, (("U", {"a"}), ("U", {"a", "b", "c"})), "duplicate member names",
            id="poset-duplicate-names",
        ),
        pytest.param(
            "bogus", _PATH, (("U", _PATH), ("U", _PATH)), "duplicate member names",
            id="duplicate-names-before-kind",
        ),
        pytest.param(
            "complex", _PATH, (), "a cover needs at least one member", id="complex-no-members"
        ),
        pytest.param(
            "poset", _SPACE, (), "a cover needs at least one member", id="poset-no-members"
        ),
        pytest.param(
            "bogus", _PATH, (), "a cover needs at least one member", id="no-members-before-kind"
        ),
        pytest.param(
            "bogus", _PATH, (("U", _PATH),), "unknown cover kind 'bogus'", id="unknown-kind"
        ),
        pytest.param(
            "complex", _PATH, (("U", frozenset({"a", "b", "c"})),),
            "member 'U' is not a complex", id="complex-member-not-a-complex",
        ),
        pytest.param(
            "complex", _PATH, (("U", _sub(["a", "c"])), ("V", _PATH)),
            "member 'U' is not a subcomplex of the parent", id="complex-member-not-a-subcomplex",
        ),
        pytest.param(
            "complex", _PATH, (("U", _sub(["a", "z"])),),
            "member 'U' is not a subcomplex of the parent", id="complex-member-unknown-vertex",
        ),
        pytest.param(
            "complex", _PATH, (("U", _PATH), ("V", _sub(["a", "c"])), ("W", frozenset())),
            "member 'V' is not a subcomplex of the parent", id="complex-first-bad-member-wins",
        ),
        pytest.param(
            "complex", _PATH, (("U", _sub(["a", "b"])),),
            "members do not cover the parent complex", id="complex-vertex-uncovered",
        ),
        pytest.param(
            "complex", _PATH, (("U", _sub(["a", "b"])), ("V", _sub(["c"]))),
            "members do not cover the parent complex", id="complex-edge-uncovered",
        ),
        pytest.param(
            "poset", _SPACE, (("U", {"a", "z"}),),
            "member 'U' is not a subset of the space", id="poset-member-not-a-subset",
        ),
        pytest.param(
            "poset", _SPACE, (("U", {"b", "z"}),),
            "member 'U' is not a subset of the space", id="poset-subset-before-open",
        ),
        pytest.param(
            "poset", _SPACE, (("U", {"b"}),),
            "member 'U' is not open (not downward closed)", id="poset-member-not-open",
        ),
        pytest.param(
            "poset", _SPACE, (("U", {"a", "b", "c"}), ("V", {"b"}), ("W", {"z"})),
            "member 'V' is not open (not downward closed)", id="poset-first-bad-member-wins",
        ),
        pytest.param(
            "poset", _SPACE, (("U", {"a", "b"}),),
            "members do not cover the space", id="poset-point-uncovered",
        ),
    ],
)
def test_cover_validation_messages(kind, parent, members, message):
    with pytest.raises(InvalidCover) as raised:
        Cover(kind, parent, members)
    assert str(raised.value) == message


def test_cover_construction_builds_no_member_index(monkeypatch):
    """The members' masks come from the parent's index: constructing the 14
    vertex stars of sd ∂Δ³ over a fresh parent and reading the masks
    builds that one index and no complex.  Every index is linked by
    ``SimplexIndex._link`` and every complex stored by
    ``SimplicialComplex._assign``, so those are counted."""
    members = star_cover(sd_boundary(3)).members
    parent = SimplicialComplex(sd_boundary(3).facets)  # an order complex comes indexed
    built = {"index": 0, "complex": 0}
    link, assign = complexes.SimplexIndex._link, SimplicialComplex._assign

    def counting_index(self, levels):
        built["index"] += 1
        link(self, levels)

    def counting_complex(self, facets, index):
        built["complex"] += 1
        assign(self, facets, index)

    monkeypatch.setattr(complexes.SimplexIndex, "_link", counting_index)
    monkeypatch.setattr(SimplicialComplex, "_assign", counting_complex)
    cov = Cover("complex", parent, members)
    masks = cov._masks
    assert built == {"index": 1, "complex": 0}
    index = parent.index()
    for name, sub in members:
        assert masks[name] == sum(1 << index.id_of[s] for s in sub.all_simplices())


def test_cover_accessors():
    cov = circle_arc_cover()
    assert cov.names() == ["U1", "U2", "U3"]
    assert cov.intersection(["U1", "U2"]).facets == frozenset({frozenset({"w2"})})
    assert cov.intersection_is_empty(["U1", "U2", "U3"])
    assert not cov.subunion(["U1", "U2"]).is_empty()


def test_cover_json_round_trip():
    for cov in (circle_arc_cover(), finite_circle_cover()):
        assert Cover.from_json(cov.to_json()).to_json() == cov.to_json()


def test_nerve_of_single_member_cover():
    K = solid_simplex(["a", "b"])
    cov = Cover("complex", K, (("U", K),))
    assert nerve(cov).facets == frozenset({frozenset({"U"})})
    assert len(non_hausdorff_nerve(cov)) == 1


def test_circle_nerve_is_sphere_boundary():
    N = nerve(circle_arc_cover())
    assert sorted(map(sorted, N.facets)) == [["U1", "U2"], ["U1", "U3"], ["U2", "U3"]]
    chi = non_hausdorff_nerve(circle_arc_cover())
    assert len(chi) == 6 and chi.height() == 1


def test_nerve_downward_closed():
    _, cov = generate_strong_good_cover(5)
    N = nerve(cov)
    for s in N.all_simplices():
        for v in s:
            smaller = frozenset(s) - {v}
            if smaller:
                assert contains_simplex(N, smaller)


def test_reduced_nerve_identifies_equal_intersections():
    K = solid_simplex(["a", "b"])
    cov = Cover("complex", K, (("U", K), ("V", K)))
    rn = reduced_nerve(cov)
    assert len(rn.poset) == 1
    assert len(order_complex(rn.poset).all_simplices()) == 1


def test_reduced_nerve_nested_pair_is_chain():
    L2 = solid_simplex(["a", "b", "c"])
    L1 = solid_simplex(["a", "b"])
    cov = Cover("complex", L2, (("L1", L1), ("L2", L2)))
    rn = reduced_nerve(cov)
    assert len(rn.poset) == 2
    assert rn.poset.height() == 1


def test_reduced_nerve_distinct_intersections_matches_face_poset():
    cov = circle_arc_cover()
    rn = reduced_nerve(cov)
    chi = non_hausdorff_nerve(cov)
    assert len(rn.poset) == len(chi)
    assert rn.poset.height() == chi.height()


def test_classify_two_triangles_strong_good():
    cls = classify_cover(two_triangle_cover())
    assert cls.good == "yes" and cls.strong_good == "yes"


def test_classify_circle_cover():
    cls = classify_cover(circle_arc_cover())
    assert cls.good == "yes" and cls.strong_good == "yes"
    rec = record_of(cls, ("U1", "U2", "U3"))
    assert rec.empty


def test_classify_records_intersection_antimonotone():
    _, cov = generate_strong_good_cover(2)
    cls = classify_cover(cov, max_subsets=2 ** len(cov.members))
    for r in cls.records:
        for r2 in cls.records:
            if set(r.index_set) < set(r2.index_set) and not r2.empty:
                assert not r.empty


@pytest.fixture
def searches(monkeypatch):
    """The id sets handed to the free-face search, one entry per search (None
    for a whole index); classify_cover runs it on the parent's index."""
    seen = []
    search = clp._free_face_search

    def counting(index, ids, end, restarts, seed):
        seen.append(None if ids is None else tuple(ids))
        return search(index, ids, end, restarts, seed)

    monkeypatch.setattr(clp, "_free_face_search", counting)
    return seen


def _distinct_nonempty_masks(cov):
    """The distinct masks of the nerve's index sets, all of them non-empty."""
    return {m for _, m in covers._index_sets(cov)}


def test_classify_searches_each_intersection_once(searches):
    square = SimplicialComplex([["c0", "c1"], ["c1", "c2"], ["c2", "c3"], ["c0", "c3"]])
    arcs = Cover(
        "complex",
        square,
        (
            ("A", SimplicialComplex([["c0", "c1"], ["c1", "c2"]])),
            ("B", SimplicialComplex([["c2", "c3"], ["c0", "c3"]])),
        ),
    )
    cls = classify_cover(arcs)
    assert len(searches) == 3
    assert record_of(cls, ("A", "B")).triviality.verdict == "no"
    searches.clear()
    cls = classify_cover(Cover("complex", dunce_hat(), (("D", dunce_hat()),)))
    assert len(searches) == 1
    assert cls.good == "unknown" and cls.strong_good == "unknown"


def test_index_sets_sharing_a_mask_share_one_search(searches):
    """Cones with a shared apex over disjoint edges: every index set of two
    or more members meets in the apex alone."""
    edges = [["b0", "b1"], ["b2", "b3"], ["b4", "b5"], ["b6", "b7"], ["b8", "b9"]]
    members = tuple((f"U{i}", SimplicialComplex([e + ["a"]])) for i, e in enumerate(edges))
    parent = SimplicialComplex(e + ["a"] for e in edges)
    cov = Cover("complex", parent, members)
    cls = classify_cover(cov)
    assert len(cls.records) == 31
    assert len(searches) == len(_distinct_nonempty_masks(cov)) == 6
    apex = parent.index().id_of[("a",)]
    assert searches[-1] == (apex,)
    shared = [r for r in cls.records if len(r.index_set) > 1]
    assert all(cov.intersection(r.index_set) == SimplicialComplex([["a"]]) for r in shared)
    assert all(r.collapsibility is shared[0].collapsibility for r in shared)
    assert cls.strong_good == "yes"


def test_a_second_classification_runs_no_search(searches):
    """The verdicts stay with the cover: the truncation checker, given no
    classification, reuses the generator's instead of searching again."""
    _, cov = generate_strong_good_cover(3)
    generated = len(searches)
    assert generated >= len(_distinct_nonempty_masks(cov))
    searches.clear()
    first = classify_cover(cov)
    report = check_truncation_theorem(cov)
    assert searches == [] and report["strong_good"] == "yes"
    # other restarts or another seed are other verdicts, searched afresh
    again = classify_cover(cov, seed=1)
    assert len(searches) == len(_distinct_nonempty_masks(cov))
    assert again.strong_good == first.strong_good == "yes"


def test_verdicts_alone_build_no_record(monkeypatch):
    """Read for its good and strong-good verdicts only, as the truncation
    checker and the benchmark read it, a classification builds no
    IntersectionRecord and decides each distinct non-empty mask once; a
    second classification decides none, and records are built on first
    read."""
    built, decided = [], []
    init, decide = covers.IntersectionRecord.__init__, covers._classify_intersection

    def building(self, *args):
        built.append(args[0])
        init(self, *args)

    def deciding(cover, mask, restarts, seed):
        decided.append(mask)
        return decide(cover, mask, restarts, seed)

    monkeypatch.setattr(covers.IntersectionRecord, "__init__", building)
    monkeypatch.setattr(covers, "_classify_intersection", deciding)
    covs = [generate_strong_good_cover(seed)[1] for seed in range(4)]
    covs += [circle_arc_cover(), star_cover(sd_boundary(2)), finite_circle_cover()]
    for cov in map(_fresh, covs):
        decided.clear()
        for _ in range(2):
            cls = classify_cover(cov)
            if cov.kind == "complex":
                report = check_truncation_theorem(cov, classification=cls)
                assert (report["good"], report["strong_good"]) == (cls.good, cls.strong_good)
        assert built == []
        assert sorted(decided) == sorted(_distinct_nonempty_masks(cov))
        assert len(cls.records) == 2 ** len(cov.members) - 1
        assert built == [r.index_set for r in cls.records]
        assert cls.records is cls.records
        built.clear()


def test_certificates_build_their_steps_when_a_record_is_read(monkeypatch):
    """Classification and the truncation checker build no free-face step;
    reading a record's certificate builds that certificate's steps and no
    other.  Index sets with one intersection share one certificate."""
    built = []
    real = clp.FreeFacePair

    def building(face, coface):
        built.append((face, coface))
        return real(face, coface)

    monkeypatch.setattr(clp, "FreeFacePair", building)
    covs = [generate_strong_good_cover(seed)[1] for seed in range(4)]
    covs += [circle_arc_cover(), star_cover(sd_boundary(2))]
    read = 0
    for cov in map(_fresh, covs):
        cls = classify_cover(cov)
        check_truncation_theorem(cov, classification=cls)
        assert built == []
        certs = {id(r.collapsibility.certificate): r for r in cls.records if not r.empty}
        for record in list(certs.values())[-2:]:
            if record.collapsibility.verdict == "yes":
                steps = record.collapsibility.certificate.steps
                assert built == [(p.face, p.coface) for p in steps]
                assert record.triviality.certificate.steps is steps
                read += len(steps)
                built.clear()
    assert read > 0


def test_a_record_is_read_off_the_table():
    """The records list every index set, and each is read off the nerve
    table and the verdicts: an index set outside the nerve gives its empty
    record, one inside it the verdicts of its mask."""
    cov = circle_arc_cover()
    cls = classify_cover(cov)
    assert "records" not in vars(cls)
    by_set = {r.index_set: r for r in cls.records}
    assert list(by_set) == list(covers._all_index_sets(cov.names()))
    assert by_set[("U1", "U2", "U3")] == covers.IntersectionRecord(("U1", "U2", "U3"), True, None, None)
    pair = by_set[("U1", "U2")]
    assert not pair.empty and pair.collapsibility.verdict == "yes"
    for J, record in by_set.items():
        mask = cls.table.get(J)
        assert record.empty == (not mask)
        assert mask is None or (record.triviality, record.collapsibility) == cls.verdicts[mask]


def test_strong_good_implies_good():
    for seed in range(10):
        _, cov = generate_strong_good_cover(seed)
        cls = classify_cover(cov, max_subsets=2 ** len(cov.members))
        assert cls.strong_good == "yes"
        assert cls.good == "yes"


def test_n_zero_subspace_of_good_cover_is_whole_nerve():
    cov = finite_circle_cover()
    res = n_zero_subspace(cov, mode="trivial")
    chi = non_hausdorff_nerve(cov)
    assert set(res.poset.elements) == set(chi.elements)
    assert not res.excluded_unknown


def test_containing_intersections_circle():
    cov = finite_circle_cover()
    ix = containing_intersections(cov, "x2")
    # x2 lies in U1, U2 and their overlap
    assert set(ix.elements) == {
        simplex_id(["U1"]),
        simplex_id(["U2"]),
        simplex_id(["U1", "U2"]),
    }
    assert ix.height() == 1


def test_chains_containing_two_triangles():
    cov = two_triangle_cover()
    s_sigma = chains_containing(cov, ("v0", "v2"))
    assert contains_simplex(s_sigma, {"A", "B"})


def test_n_zero_complex_downward_closed():
    _, cov = generate_strong_good_cover(7)
    n0, excluded = n_zero_complex(cov)
    for s in n0.all_simplices():
        for v in s:
            smaller = frozenset(s) - {v}
            if smaller:
                assert contains_simplex(n0, smaller)


def test_check_nerve_theorem_good_complex_circle():
    report = check_nerve_theorem(circle_arc_cover(), "good-complex")
    assert report["hypothesis_verdict"] == "yes"
    assert report["conclusion_homology_match"]
    assert report["parent_homology"]["degrees"][1]["betti"] == 1


def test_check_nerve_theorem_good_space():
    report = check_nerve_theorem(finite_circle_cover(), "good-space")
    assert report["hypothesis_verdict"] == "yes"
    assert report["conclusion_homology_match"]


def test_check_nerve_theorem_subnerve_space():
    report = check_nerve_theorem(finite_circle_cover(), "trivial-subnerve-space")
    assert report["hypothesis_verdict"] == "yes"
    assert report["conclusion_homology_match"]


def test_check_nerve_theorem_reduced_space():
    report = check_nerve_theorem(finite_circle_cover(), "reduced-space")
    assert "assumption" in report
    assert report["conclusion_homology_match"] in (True, False)


def test_check_nerve_theorem_reports_failed_hypothesis():
    # one member is a two-point antichain: its own intersection is not trivial
    X = build_poset(["p", "q", "r"], [])
    cov = Cover("poset", X, (("U", frozenset({"p", "q"})), ("V", frozenset({"r"}))))
    report = check_nerve_theorem(cov, "good-space")
    assert report["hypothesis_verdict"] == "no"
    assert "conclusion_homology_match" in report


def test_check_nerve_theorem_unknown_flavor():
    with pytest.raises(MalformedSpec):
        check_nerve_theorem(circle_arc_cover(), "no-such-flavor")


def test_good_space_cover_generator_shadow():
    for seed in range(10):
        X, cov = generate_good_space_cover(seed)
        chi = non_hausdorff_nerve(cov)
        assert homology_equal(homology_of_poset(X), homology_of_poset(chi))


def test_reduced_nerve_is_built_once_per_cover(monkeypatch):
    built = []
    real = covers.ReducedNerve

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(covers, "ReducedNerve", counting)
    cov = finite_circle_cover()
    report = check_nerve_theorem(cov, "reduced-space")
    assert len(built) == 1
    assert report == check_nerve_theorem(finite_circle_cover(), "reduced-space")
    assert len(built) == 2  # a second, equal cover builds its own
    assert reduced_nerve(cov) is reduced_nerve(cov)
    assert len(built) == 2


@pytest.fixture
def built(monkeypatch):
    """Every SimplicialComplex constructed while the test runs: each one,
    from facets or from levels, is stored by ``_assign``."""
    seen = []
    assign = SimplicialComplex._assign

    def counting(self, facets, index):
        seen.append(self)
        assign(self, facets, index)

    monkeypatch.setattr(SimplicialComplex, "_assign", counting)
    return seen


def _fresh(cov: Cover) -> Cover:
    """An equal cover, with none of the nerves or verdicts kept with cov."""
    return Cover(cov.kind, cov.parent, cov.members)


def test_star_cover_nerve_builds_one_complex(built):
    """14 members, 2^14 index sets: the nerve and the reduced nerve build one
    complex between them, the nerve; a reduced-nerve class is a mask."""
    cov = star_cover(sd_boundary(3))
    built.clear()
    N = nerve(cov)
    rn = reduced_nerve(cov)
    assert len(cov.members) == 14
    assert len(N.all_simplices()) == 830 and N.euler_characteristic() == 2
    assert len(rn.poset) == len(rn.classes) == 136
    assert len(built) == 1 and built[0] is N


def test_classification_builds_no_complex(built):
    """Every intersection is decided, and a stuck one's homology computed,
    on the simplex ids of its mask in the parent's index."""
    D = dunce_hat()
    triangle = SimplicialComplex([min(sorted(f) for f in D.facets)])
    covs = [generate_strong_good_cover(seed)[1] for seed in range(6)]
    covs += [star_cover(sd_boundary(3)), Cover("complex", D, (("D", D), ("T", triangle)))]
    covs = [_fresh(cov) for cov in covs]
    built.clear()
    verdicts = [classify_cover(cov) for cov in covs]
    assert built == []
    assert [cls.strong_good for cls in verdicts] == ["yes"] * 7 + ["unknown"]
    assert record_of(verdicts[-1], ["D"]).collapsibility.witness is None


def test_more_members_than_the_cap_are_refused():
    """21 members exceed the subset-enumeration cap in the library, as they
    do on the command line."""
    verts = [f"v{i:02d}" for i in range(covers.MAX_MEMBERS + 1)]
    cov = Cover(
        "complex",
        SimplicialComplex([[v] for v in verts]),
        tuple((v, SimplicialComplex([[v]])) for v in verts),
    )
    for call in (nerve, reduced_nerve, classify_cover):
        with pytest.raises(InvalidCover, match="21 members exceed the subset-enumeration cap 20"):
            call(cov)


def test_s_sigma_flavors_build_no_complex_per_simplex(built):
    """S_sigma is a list of simplex ids on the index of N0, or a mask over
    the reduced N0 poset: the complexes a check builds do not grow with the
    parent, and the reduced flavour builds none, K(reduced N0) included."""
    for flavor, complexes in (("trivial-subnerve-complex", 1), ("reduced-complex", 0)):
        counts = {}
        for n in (2, 3):
            cov = star_cover(sd_boundary(n))
            classify_cover(cov)
            built.clear()
            report = check_nerve_theorem(cov, flavor)
            assert {v["verdict"] for v in report["per_simplex"].values()} == {"yes"}
            counts[cov.parent.num_simplices()] = len(built)
        assert counts == {12: complexes, 74: complexes}  # N0, or nothing


def test_subnerve_complex_check_builds_n0_once(monkeypatch):
    """S_sigma of every simplex is read off one N0 and the members' masks."""
    calls = []
    real = covers.n_zero_complex

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(covers, "n_zero_complex", counting)
    cov = star_cover(sd_boundary(3))
    report = check_nerve_theorem(cov, "trivial-subnerve-complex")
    assert len(calls) == 1
    assert len(report["per_simplex"]) == len(cov.parent.all_simplices()) == 74
    assert report["hypothesis_verdict"] == "yes" and report["conclusion_homology_match"]


_SPACE_FLAVORS = {
    "trivial-subnerve-space": ("trivial", False),
    "collapsible-subnerve-space": ("collapsible", False),
    "reduced-space": ("collapsible", True),
}


def _space_covers():
    return [finite_circle_cover()] + [generate_good_space_cover(seed)[1] for seed in range(5)]


def test_i_x_verdicts_match_the_restricted_subposets():
    for cov in _space_covers():
        for flavor, (mode, reduced) in _SPACE_FLAVORS.items():
            report = check_nerve_theorem(cov, flavor)
            n0 = n_zero_subspace(cov, mode=mode, reduced=reduced)
            test = clp.greedy_collapse_space
            if mode == "trivial":
                test = clp.is_homotopically_trivial_poset
            for x in cov.parent.elements:
                ix = containing_intersections(cov, x, n0=n0)
                expected = test(ix).to_doc() if len(ix) else {"verdict": "no", "note": "I_x is empty"}
                assert report["per_point"][x] == expected


def test_an_unknown_mode_is_refused_by_every_n0_construction():
    """n_zero_complex and chains_containing once read any mode other than
    "trivial" as collapsible."""
    cov, space = two_triangle_cover(), finite_circle_cover()
    for call in (
        lambda: n_zero_complex(cov, mode="bogus"),
        lambda: chains_containing(cov, ("v0", "v2"), mode="bogus"),
        lambda: n_zero_subspace(space, mode="bogus"),
        lambda: containing_intersections(space, "x2", mode="bogus"),
    ):
        with pytest.raises(MalformedSpec, match="mode must be trivial or collapsible, got 'bogus'"):
            call()


def test_index_sets_are_enumerated_once_per_cover(monkeypatch):
    """The nerve, the reduced nerve, classification in either mode, every
    applicable nerve-theorem check and the truncation checker read one
    nerve table."""
    calls = []
    enumerate_sets = covers._index_sets

    def counting(cov, *args, **kwargs):
        calls.append(cov)
        return enumerate_sets(cov, *args, **kwargs)

    fresh = [_fresh(star_cover(sd_boundary(2))), _fresh(generate_good_space_cover(3)[1])]
    monkeypatch.setattr(covers, "_index_sets", counting)
    for cov in fresh:
        calls.clear()
        nerve(cov)
        reduced_nerve(cov)
        classify_cover(cov)
        classify_cover(cov)
        for flavor, (kind, _, _) in covers.FLAVORS.items():
            if kind in (None, cov.kind):
                check_nerve_theorem(cov, flavor)
        if cov.kind == "complex":
            check_truncation_theorem(cov)
        assert calls == [cov]
    # classification of every index set, or truncation, first: still one walk
    for check in (classify_cover, check_truncation_theorem):
        cov = _fresh(star_cover(sd_boundary(2)))
        calls.clear()
        check(cov)
        nerve(cov)
        classify_cover(cov)
        assert calls == [cov]


def test_space_nerve_checks_restrict_only_to_build_n0(monkeypatch):
    # one more restrict per point when each I_x was a subposet
    calls = []
    restrict = FinitePoset.restrict

    def counting(self, members):
        calls.append(self)
        return restrict(self, members)

    monkeypatch.setattr(FinitePoset, "restrict", counting)
    for cov in _space_covers():
        for flavor in _SPACE_FLAVORS:
            calls.clear()
            check_nerve_theorem(cov, flavor)
            assert len(calls) == 1


def test_mask_height_matches_the_subposet():
    rng = random.Random(0)
    for seed in range(30):
        P = generate_poset(seed, 5 + seed % 8)
        for _ in range(5):
            mask = rng.getrandbits(len(P))
            assert covers._height(P, mask) == P.restrict(P._members(mask)).height()


def test_points_and_simplices_in_no_verified_intersection_are_reported_empty():
    """A circle beside a point, each its own member: N0 holds only the
    point's member, so every point or simplex of the circle lies in no
    verified intersection and its entry is a No noting the empty I_x or
    S_sigma, while the extra point's entry is a Yes."""
    C = circle_complex()
    Z = SimplicialComplex([["z"]])
    complex_cover = Cover("complex", C.union(Z), (("C", C), ("Z", Z)))
    for flavor in ("trivial-subnerve-complex", "reduced-complex"):
        report = check_nerve_theorem(complex_cover, flavor)
        entries = report["per_simplex"]
        assert entries.pop("z") == {"verdict": "yes"}
        assert len(entries) == len(C.all_simplices())
        assert all(v == {"verdict": "no", "note": "S_sigma is empty"} for v in entries.values())
        assert report["hypothesis_verdict"] == "no"
    X = finite_circle()
    P = build_poset(list(X.elements) + ["e"], list(X.hasse))
    space_cover = Cover("poset", P, (("C", frozenset(X.elements)), ("E", frozenset(["e"]))))
    for flavor in ("trivial-subnerve-space", "collapsible-subnerve-space", "reduced-space"):
        report = check_nerve_theorem(space_cover, flavor)
        entries = report["per_point"]
        assert entries.pop("e") == {"verdict": "yes"}
        assert sorted(entries) == sorted(X.elements)
        assert all(v == {"verdict": "no", "note": "I_x is empty"} for v in entries.values())
        assert report["hypothesis_verdict"] == "no"

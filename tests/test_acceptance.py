"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

All comparisons are exact (integer and set equality, zero tolerance); there
are no floating-point quantities anywhere in the library.
"""

from finspace.collapse import (
    free_faces,
    greedy_collapse_complex,
    is_contractible_space,
    replay_complex_certificate,
    replay_space_certificate,
    shadow_report,
)
from finspace.covers import non_hausdorff_nerve, nerve
from finspace.cylinders import (
    CylinderSpec,
    compose_relations,
    graph_relation,
    mapping_cylinder,
    multiple_cylinder,
    relation_cylinder,
    check_collapse_left,
    tag,
)
from finspace.fixtures import (
    circle_arc_cover,
    dunce_hat,
    projective_plane,
    two_triangles,
    worked_example_spec,
)
from finspace.generators import (
    generate_complex,
    generate_composite_instance,
    generate_good_space_cover,
    generate_monotone_map,
    generate_poset,
    generate_relation,
    generate_strong_good_cover,
)
from finspace.homology import (
    boundary_matrices,
    homology_equal,
    homology_of_poset,
    reduced_homology,
)
from finspace.persistence import check_truncation_theorem, persistence_over_chain
from finspace.posets import antichain

from helpers import betti_numbers_oracle, boundary_of_boundary, brute_contractible


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_worked_example_cylinder():
    spec = worked_example_spec()
    B = multiple_cylinder(spec)
    cross = {
        (a, b) for a, b in B.order_pairs() if a.split(".")[0] != b.split(".")[0]
    }
    expected = {
        ("X0.a1", "X1.b1"),
        ("X0.a1", "X1.b2"),
        ("X0.a1", "X1.b3"),
        ("X0.a2", "X1.b2"),
        ("X0.a2", "X1.b3"),
        ("X2.c1", "X1.b2"),
        ("X2.c1", "X1.b3"),
        ("X2.c2", "X1.b3"),
    }
    internal_ok = all(
        B.leq(tag(n, a), tag(n, b)) == X.leq(a, b)
        for n, X in spec.spaces
        for a in X.elements
        for b in X.elements
    )
    _report(1, "worked-example-cylinder", cross == expected and internal_ok)


def test_criterion_02_cylinder_coincidence_100_seeds():
    ok = True
    for seed in range(100):
        X = generate_poset(seed, 3 + seed % 5)
        Y = generate_poset(seed + 7919, 3 + (seed + 1) % 4)
        R = generate_relation(seed, X, Y, 0.35, source_name="X0", target_name="X1")
        spec = CylinderSpec((("X0", X), ("X1", Y)), (R,))
        B1, B2 = relation_cylinder(R), multiple_cylinder(spec)
        if set(B1.elements) != set(B2.elements) or B1.hasse != B2.hasse:
            ok = False
            break
        f = generate_monotone_map(seed, X, Y)
        Rg = graph_relation(f, X, Y, source_name="X0", target_name="X1")
        if relation_cylinder(Rg).hasse != mapping_cylinder(f, X, Y, "X0", "X1").hasse:
            ok = False
            break
    _report(2, "cylinder-coincidence", ok)


def test_criterion_03_triangle_union_collapse():
    K = two_triangles()
    res = greedy_collapse_complex(K)
    ok = (
        res.verdict == "yes"
        and len(res.certificate.steps) == 5
        and replay_complex_certificate(K, res.certificate)
    )
    _report(3, "triangle-union-collapse", ok)


def test_criterion_04_dunce_hat():
    K = dunce_hat()
    res = greedy_collapse_complex(K)
    rep = shadow_report(K)
    ok = (
        free_faces(K) == []
        and res.verdict == "unknown"
        and reduced_homology(K).is_trivial()
        and rep["contractible_shadow"] == "yes"
        and rep["shadow_basis"] == "acyclic"
        and rep["collapsible"] == "unknown"
    )
    _report(4, "dunce-hat", ok)


def test_criterion_05_circle_arc_cover():
    cover = circle_arc_cover()
    N = nerve(cover)
    nerve_ok = sorted(map(sorted, N.facets)) == [
        ["U1", "U2"],
        ["U1", "U3"],
        ["U2", "U3"],
    ]
    h_nerve = reduced_homology(N)
    h_parent = reduced_homology(cover.parent)
    hom_ok = (
        h_nerve.betti[1] == h_parent.betti[1] == 1
        and not any(h_nerve.torsion)
        and not any(h_parent.torsion)
    )
    diagram = persistence_over_chain(
        cover, [["U1"], ["U1", "U2"], ["U1", "U2", "U3"]]
    )
    bars_ok = diagram.bars_in_degree(1) == [(3, None)]
    trunc = check_truncation_theorem(cover)
    trunc_ok = not trunc["part2_subunions_acyclic"] and [
        f["index_set"] for f in trunc["part2_failures"]
    ] == [["U1", "U2", "U3"]]
    _report(5, "circle-arc-cover", nerve_ok and hom_ok and bars_ok and trunc_ok)


def test_criterion_06_truncation_positive_200_covers():
    failures = 0
    for seed in range(200):
        parent, cover = generate_strong_good_cover(seed)
        assert len(cover.members) <= 6 and len(parent.facets) <= 40
        rep = check_truncation_theorem(cover)
        if not (
            rep["enumeration"] == "exhaustive"
            and rep["part1_nerve_homology_match"]
            and rep["part2_subunions_acyclic"]
        ):
            failures += 1
    _report(6, "truncation-positive", failures == 0)


def test_criterion_07_collapse_schedule_100_instances():
    ok = True
    for seed in range(100):
        R1, R2 = generate_composite_instance(seed)
        R = compose_relations(R1, R2)
        pre_ok = all(
            R.source.restrict(pre).has_maximum()
            for z in R.target.elements
            for pre in [
                R.source.open_hull(R.preimage(R.target.down_set(z)))
            ]
        )
        rep = check_collapse_left(R)
        coll = rep["collapse"]
        if not (pre_ok and coll.get("verdict") == "yes" and coll.get("proof_identity")):
            ok = False
            break
        B = relation_cylinder(R)
        target = {tag(R.source_name, x) for x in R.source.elements}
        if not replay_space_certificate(B, coll["certificate"], target=target):
            ok = False
            break
    _report(7, "collapse-schedule", ok)


def test_criterion_08_contractibility_500_posets():
    ok = True
    for seed in range(500):
        X = generate_poset(seed, 1 + seed % 12)
        if is_contractible_space(X) != brute_contractible(X):
            ok = False
            break
        x = list(X.elements)[seed % len(X)]
        if not is_contractible_space(X.restrict(X.down_set(x))):
            ok = False
            break
        if not is_contractible_space(X.restrict(X.up_set(x))):
            ok = False
            break
    for size in (2, 3, 5):
        if is_contractible_space(antichain([f"a{i}" for i in range(size)])):
            ok = False
    _report(8, "contractibility-exactness", ok)


def test_criterion_09_homology_oracle_300_complexes():
    ok = True
    for seed in range(300):
        K = generate_complex(seed)
        hom = reduced_homology(K)
        if list(hom.betti) != list(betti_numbers_oracle(K)):
            ok = False
            break
        rows = boundary_matrices(K)
        for d in range(2, len(rows)):
            if any(boundary_of_boundary(rows[d], rows[d - 1])):
                ok = False
    rp2 = reduced_homology(projective_plane())
    ok = ok and list(rp2.torsion[1]) == [2]
    _report(9, "homology-backend-oracle", ok)


def test_criterion_10_nerve_shadow_100_covers():
    ok = True
    for seed in range(100):
        X, cover = generate_good_space_cover(seed)
        chi = non_hausdorff_nerve(cover)
        if not homology_equal(homology_of_poset(X), homology_of_poset(chi)):
            ok = False
            break
    _report(10, "nerve-theorem-shadow", ok)

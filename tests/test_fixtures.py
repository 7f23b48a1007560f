from itertools import combinations

from finspace.collapse import is_contractible_space
from finspace.covers import classify_cover
from finspace.fixtures import (
    circle_arc_cover,
    circle_complex,
    dunce_hat,
    finite_circle,
    finite_circle_cover,
    projective_plane,
    two_triangles,
    worked_example_spec,
)
from finspace.homology import reduced_homology


def edge_triangle_counts(K):
    triangles = K.simplices_of_dim(2)
    counts = {}
    for e in K.simplices_of_dim(1):
        counts[e] = sum(1 for t in triangles if set(e) <= set(t))
    return counts


def test_dunce_hat_enumeration():
    K = dunce_hat()
    assert len(K.simplices_of_dim(0)) == 8
    assert len(K.simplices_of_dim(1)) == 24
    assert len(K.simplices_of_dim(2)) == 17
    assert K.euler_characteristic() == 1
    # no edge is free: each lies in at least two triangles
    assert all(c >= 2 for c in edge_triangle_counts(K).values())


def test_dunce_hat_is_acyclic():
    assert reduced_homology(dunce_hat()).is_trivial()


def test_projective_plane_enumeration():
    K = projective_plane()
    counts = edge_triangle_counts(K)
    # a closed surface: every one of the 15 edges lies in exactly 2 triangles
    assert len(counts) == 15
    assert all(c == 2 for c in counts.values())
    assert K.euler_characteristic() == 1


def test_circle_cover_intersections():
    cov = circle_arc_cover()
    singles = {
        ("U1", "U2"): "w2",
        ("U2", "U3"): "w4",
        ("U1", "U3"): "w0",
    }
    for J, v in singles.items():
        assert cov.intersection(J).facets == frozenset({frozenset({v})})
    assert cov.intersection_is_empty(("U1", "U2", "U3"))
    assert reduced_homology(circle_complex()).betti[1] == 1


def test_two_triangles_counts():
    assert len(two_triangles().all_simplices()) == 11


def test_worked_example_shapes():
    spec = worked_example_spec()
    names = [n for n, _ in spec.spaces]
    assert names == ["X0", "X1", "X2"]
    assert [R.direction for R in spec.relations] == ["right", "left"]


def test_finite_circle_cover_is_good_not_contractible():
    X = finite_circle()
    assert not is_contractible_space(X)
    cov = finite_circle_cover()
    cls = classify_cover(cov)
    assert cls.good == "yes"
    for k in (1, 2):
        for J in combinations(cov.names(), k):
            if not cov.intersection_is_empty(J):
                assert is_contractible_space(X.restrict(cov.intersection(J)))


def test_fixture_drift_reports_malformed_documents(tmp_path):
    from finspace.suite import _check_fixture_drift

    (tmp_path / "dunce-hat.json").write_text(dunce_hat().to_json())
    (tmp_path / "projective-plane.json").write_text("[1, 2]")
    (tmp_path / "two-triangles.json").write_text('{"facets": [[1, 2]]}')
    (tmp_path / "circle.json").write_text('{"facets": [["a"')
    ok, detail = _check_fixture_drift(str(tmp_path))
    assert not ok
    assert detail["mismatches"] == [
        {"file": name, "reason": "malformed"}
        for name in ("projective-plane.json", "two-triangles.json", "circle.json")
    ]

import json

import pytest

from finspace.covers import Cover
from finspace.errors import InvalidCover, NotAChain
from finspace.fixtures import circle_arc_cover, finite_circle_cover
from finspace.generators import generate_strong_good_cover
from finspace.persistence import check_truncation_theorem, persistence_over_chain


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
    assert diagram.alive_at(2, 1) == 0
    assert diagram.alive_at(3, 1) == 1


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


def test_subunion():
    cov = circle_arc_cover()
    K = cov.subunion(["U1", "U2"])
    assert K.contains_simplex({"w0", "w1"})
    assert not K.contains_simplex({"w4", "w5"})
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


def test_truncation_sampling_label_beyond_cap():
    # a path of 13 edges covered edge by edge: the nerve stays small, but the
    # member count exceeds the exhaustive-enumeration cap
    from finspace.complexes import SimplicialComplex

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

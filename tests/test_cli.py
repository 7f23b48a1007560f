import argparse
import json
import os
import re

import pytest

from finspace import cli, covers
from finspace.cli import build_parser, main
from finspace.collapse import CollapseCertificate, greedy_collapse_complex, replay_space_certificate
from finspace.complexes import SimplicialComplex
from finspace.covers import Cover
from finspace.cylinders import CylinderSpec, Relation, compose_relations, relation_cylinder, tag
from finspace.errors import (
    CycleDetected,
    DuplicateElement,
    FinspaceError,
    InvalidCover,
    MalformedSpec,
)
from finspace.fixtures import (
    circle_arc_cover,
    circle_complex,
    dunce_hat,
    finite_circle,
    projective_plane,
    two_triangles,
    worked_example_spec,
)
from finspace.generators import generate_composite_instance
from finspace.posets import FinitePoset, build_poset


@pytest.fixture
def paths(tmp_path):
    out = {}
    out["cover"] = tmp_path / "cover.json"
    out["cover"].write_text(circle_arc_cover().to_json())
    out["complex"] = tmp_path / "complex.json"
    out["complex"].write_text(dunce_hat().to_json())
    out["poset"] = tmp_path / "poset.json"
    out["poset"].write_text(finite_circle().to_json())
    out["cylinder"] = tmp_path / "cylinder.json"
    out["cylinder"].write_text(worked_example_spec().to_json())
    out["tmp"] = tmp_path
    return out


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_poset_summary(paths, capsys):
    code, out = run(capsys, "poset", "--in", str(paths["poset"]))
    doc = json.loads(out)
    assert code == 0
    assert doc["core_size"] == 6 and not doc["contractible"]


def test_complex_summary(paths, capsys):
    code, out = run(capsys, "complex", "--in", str(paths["complex"]))
    doc = json.loads(out)
    assert code == 0
    assert doc["free_faces"] == 0
    assert doc["euler_characteristic"] == 1


def test_cylinder_build(paths, capsys):
    code, out = run(capsys, "cylinder", "--in", str(paths["cylinder"]))
    doc = json.loads(out)
    assert code == 0
    assert len(doc["cylinder"]["elements"]) == 7


def test_nerve_modes(paths, capsys):
    code, out = run(capsys, "nerve", "--in", str(paths["cover"]))
    assert code == 0 and "nerve" in json.loads(out)
    code, out = run(capsys, "nerve", "--in", str(paths["cover"]), "--mode", "face-poset")
    assert code == 0 and len(json.loads(out)["face_poset"]["elements"]) == 6


def test_cover_classify(paths, capsys, monkeypatch):
    code, out = run(capsys, "cover", "classify", "--in", str(paths["cover"]))
    doc = json.loads(out)
    assert code == 0
    assert doc["good"] == "yes" and doc["strong_good"] == "yes"
    code, out = run(capsys, "cover", "classify", "--in", str(paths["cover"]), "--max-subsets", "20")
    assert code == 0 and json.loads(out)["good"] == "yes"
    # three members exceed a cap of two
    assert main(["cover", "classify", "--in", str(paths["cover"]), "--max-subsets", "2"]) == 2
    # with no --max-subsets, the cap is covers.MAX_MEMBERS as it is when the command runs
    capsys.readouterr()
    monkeypatch.setattr(covers, "MAX_MEMBERS", 2)
    assert main(["cover", "classify", "--in", str(paths["cover"])]) == 2
    assert capsys.readouterr().err == "error: 3 members exceed the subset-enumeration cap 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--in", "f", "--seed", "3"],
        ["nerve", "--in", "f", "--out", "o"],
        ["poset", "--in", "f", "--restarts", "2"],
        ["complex", "--in", "f", "--max-subsets", "5"],
        ["cover", "classify", "--in", "f", "--mode", "x"],
        ["verify", "truncation", "--in", "f", "--mode", "x"],
        ["suite", "--max-subsets", "5"],
    ],
)
def test_unread_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_homology_command(paths, capsys):
    code, out = run(capsys, "homology", "--in", str(paths["complex"]))
    degrees = json.loads(out)
    assert code == 0
    assert all(d["betti"] == 0 and d["torsion"] == [] for d in degrees)


def test_persistence_command(paths, capsys):
    code, out = run(
        capsys, "persistence", "--in", str(paths["cover"]), "--mode", "U1<U1,U2<U1,U2,U3"
    )
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert {"degree": 1, "birth": 3, "death": None} in lines


@pytest.mark.parametrize(
    "chain, step",
    [
        ("U1<<U1,U2", 2), ("U1<U1,U2<", 3), ("U1<U1,U2,", 2), ("<U1", 1), ("", 1),
        ("U1,,U2", 1), ("U1<,U1,U2", 2), ("U1<U1,,U2<", 2),
    ],
)
def test_persistence_empty_step_exits_2(paths, capsys, chain, step):
    # a step with no name is an empty index set; a step naming members
    # has an empty member name among them
    code = main(["persistence", "--in", str(paths["cover"]), "--mode", chain])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    empty = "empty index set" if chain.split("<")[step - 1] == "" else "empty member name"
    assert captured.err == f"error: {empty} at step {step}\n"


@pytest.mark.parametrize("chain", ["U1<Z", "Z<U1", "U1<U1,Z", "U2<U1"])
def test_persistence_unknown_member_exits_2_naming_it(paths, capsys, chain):
    # names are resolved before the chain's order is checked
    code = main(["persistence", "--in", str(paths["cover"]), "--mode", chain])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    expected = "no cover member named 'Z'" if "Z" in chain else "is not strictly contained in"
    assert expected in captured.err and captured.err.count("\n") == 1


def test_verify_truncation_exit_zero(paths, capsys):
    # the circle cover has an empty triple intersection, so part 2's failure
    # is expected rather than a mismatch
    code, out = run(capsys, "verify", "truncation", "--in", str(paths["cover"]))
    doc = json.loads(out)
    assert code == 0
    assert not doc["part2_subunions_acyclic"]


def test_verify_truncation_classifies_with_the_given_restarts_and_seed(
    paths, capsys, monkeypatch
):
    seen = []
    real = cli.classify_cover

    def recording(cover, **kwargs):
        seen.append(kwargs)
        return real(cover, **kwargs)

    monkeypatch.setattr(cli, "classify_cover", recording)
    argv = ["verify", "truncation", "--in", str(paths["cover"]), "--restarts", "3", "--seed", "5"]
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["seed"] == 5
    assert seen == [{"restarts": 3, "seed": 5}]


def test_verify_nerve_flavor(paths, capsys):
    code, out = run(capsys, "verify", "good-complex", "--in", str(paths["cover"]))
    doc = json.loads(out)
    assert code == 0
    assert doc["conclusion_homology_match"]


def test_verify_replay_detects_corruption(paths, capsys):
    K = two_triangles()
    cert = greedy_collapse_complex(K).certificate
    good_doc = {
        "complex": json.loads(K.to_json()),
        "certificate": json.loads(cert.to_json()),
    }
    p = paths["tmp"] / "replay.json"
    p.write_text(json.dumps(good_doc))
    code, out = run(capsys, "verify", "replay-complex", "--in", str(p))
    assert code == 0 and json.loads(out)["replay_ok"]

    corrupted = json.loads(json.dumps(good_doc))
    corrupted["certificate"]["steps"][0]["face"] = ["v0", "v3"]
    p.write_text(json.dumps(corrupted))
    code, out = run(capsys, "verify", "replay-complex", "--in", str(p))
    assert code == 1 and not json.loads(out)["replay_ok"]


def test_missing_file_is_input_error(capsys):
    code = main(["poset", "--in", "/nonexistent/path.json"])
    assert code == 2


def test_malformed_document_is_input_error(paths, capsys):
    p = paths["tmp"] / "bad.json"
    p.write_text(json.dumps({"nope": 1}))
    code = main(["complex", "--in", str(p)])
    assert code == 2


def test_suite_quick(paths, capsys, tmp_path):
    code, out = run(capsys, "suite", "--seed", "0", "--out", str(tmp_path / "certs"))
    doc = json.loads(out)
    assert code == 0
    assert doc["failed"] == 0
    assert any(c["name"] == "golden/worked-example" for c in doc["checks"])


_FIXTURE_FILES = {
    "dunce-hat.json": dunce_hat,
    "projective-plane.json": projective_plane,
    "two-triangles.json": two_triangles,
    "circle.json": circle_complex,
}


@pytest.mark.parametrize(
    "drift, code, mismatches",
    [
        (None, 0, []),
        ("edit", 1, [{"file": "circle.json", "reason": "content"}]),
        ("remove", 1, [{"file": "circle.json", "reason": "missing"}]),
    ],
)
def test_suite_checks_fixture_drift(drift, code, mismatches, capsys, tmp_path):
    """The four bundled fixtures written with to_json pass the drift check;
    an edited file fails it on content and a removed one as missing."""
    for name, build in _FIXTURE_FILES.items():
        (tmp_path / name).write_text(build().to_json())
    if drift == "edit":
        (tmp_path / "circle.json").write_text(two_triangles().to_json())
    elif drift == "remove":
        (tmp_path / "circle.json").unlink()
    got, out = run(capsys, "suite", "--seed", "0", "--fixtures", str(tmp_path))
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "golden/fixture-drift")
    assert (got, check["passed"]) == (code, not mismatches)
    assert check["detail"] == {"mismatches": mismatches}


def test_collapse_certificate_written_to_file(paths, capsys, tmp_path):
    K = two_triangles()
    p = tmp_path / "tri.json"
    p.write_text(K.to_json())
    cert_path = tmp_path / "cert.json"
    code, out = run(
        capsys,
        "complex",
        "--in",
        str(p),
        "--mode",
        "collapse",
        "--out",
        str(cert_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["collapse"]["verdict"] == "yes"
    assert cert_path.exists()
    steps = json.loads(cert_path.read_text())["steps"]
    assert len(steps) == 5


def _two_relations(tmp_path, R1, R2):
    """A cylinder spec file for X -R1-> Xm -R2-> Z, and its document."""
    spaces = (("X", R1.source), ("Xm", R1.target), ("Z", R2.target))
    doc = {
        "spaces": [
            {"name": n, "elements": list(X.elements), "relations": sorted(map(list, X.hasse))}
            for n, X in spaces
        ],
        "relations": [
            {"source": "X", "target": "Xm", "pairs": sorted(map(list, R1.pairs))},
            {"source": "Xm", "target": "Z", "pairs": sorted(map(list, R2.pairs))},
        ],
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return p, doc


def test_intermediate_out_writes_both_certificates(capsys, tmp_path):
    """Both one-sided collapses certify on composite seed 0; the file keys
    each certificate by its report path, and each replays onto the source
    copy of its own relation cylinder."""
    p, doc = _two_relations(tmp_path, *generate_composite_instance(0))
    cert_path = tmp_path / "certs.json"
    code, out = run(
        capsys, "cylinder", "--in", str(p), "--mode", "intermediate-left", "--out", str(cert_path)
    )
    report = json.loads(out)
    assert code == 0 and report["certificate_file"] == str(cert_path)
    certs = json.loads(cert_path.read_text())
    assert sorted(certs) == ["composite/collapse", "factor/collapse"]
    factor, middle = CylinderSpec.from_doc(doc).relations
    for key, R in (("factor", factor), ("composite", compose_relations(factor, middle))):
        assert report[key]["collapse"]["certificate"] is None
        cert = CollapseCertificate.from_json(json.dumps(certs[f"{key}/collapse"]))
        kept = {tag(R.source_name, x) for x in R.source.elements}
        assert replay_space_certificate(relation_cylinder(R), cert, target=kept)
    assert [len(certs[k]["steps"]) for k in sorted(certs)] == [4, 7]


def test_intermediate_exit_code_follows_the_collapses_alone(capsys, tmp_path):
    """A hypothesis that does not hold is reported, not a mismatch: on
    composite seed 0 neither right-hand hypothesis holds and no collapse is
    attempted, so intermediate-right exits 0, as check-right does."""
    p, _ = _two_relations(tmp_path, *generate_composite_instance(0))
    code, out = run(capsys, "cylinder", "--in", str(p), "--mode", "intermediate-right")
    report = json.loads(out)
    assert report["verdict"] == "no" and code == 0
    assert [report[k]["collapse"]["verdict"] for k in ("factor", "composite")] == [
        "not-attempted",
        "not-attempted",
    ]
    assert run(capsys, "cylinder", "--in", str(p), "--mode", "check-right")[0] == 0


def test_intermediate_right_out_writes_both_certificates(capsys, tmp_path):
    """Identity relations X -> Xm -> Z on the poset a < b, a < c: both
    right-hand collapses certify and each certificate replays onto the target
    copy of its own relation cylinder."""
    X = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    identity = frozenset((x, x) for x in X.elements)
    R1 = Relation(X, X, identity, source_name="X", target_name="Xm")
    R2 = Relation(X, X, identity, source_name="Xm", target_name="Z")
    p, doc = _two_relations(tmp_path, R1, R2)
    cert_path = tmp_path / "certs.json"
    code, out = run(
        capsys, "cylinder", "--in", str(p), "--mode", "intermediate-right", "--out", str(cert_path)
    )
    report = json.loads(out)
    assert code == 0 and report["certificate_file"] == str(cert_path)
    certs = json.loads(cert_path.read_text())
    assert sorted(certs) == ["composite/collapse", "factor/collapse"]
    first, factor = CylinderSpec.from_doc(doc).relations
    for key, R in (("factor", factor), ("composite", compose_relations(first, factor))):
        assert report[key]["collapse"]["verdict"] == "yes"
        cert = CollapseCertificate.from_json(json.dumps(certs[f"{key}/collapse"]))
        kept = {tag(R.target_name, z) for z in R.target.elements}
        assert replay_space_certificate(relation_cylinder(R), cert, target=kept)


_POSET = {"elements": ["a", "b"], "relations": [["a", "b"]]}
_COMPLEX = {"facets": [["a", "b"], ["b", "c"]]}
_COVER = {
    "kind": "complex",
    "parent": _COMPLEX,
    "members": [{"name": "U", "facets": [["a", "b"]]}, {"name": "V", "facets": [["b", "c"]]}],
}
_CYLINDER = {
    "spaces": [{"name": "X", **_POSET}, {"name": "Y", **_POSET}],
    "relations": [{"source": "X", "target": "Y", "pairs": [["a", "a"]]}],
}
# A -> B -> C -> D: the collapse checks read one relation or the composite of two
_CHAIN4 = {
    "spaces": [{"name": n, **_POSET} for n in "ABCD"],
    "relations": [{"source": s, "target": t, "pairs": [["a", "a"]]} for s, t in zip("ABC", "BCD")],
}
_CERT = {"steps": [{"kind": "free-pair", "face": ["a"], "coface": ["a", "b"]}]}
# a cycle a < c < a whose least element's least successor, b, leads to no cycle
_CYCLIC = {
    "elements": list("abcd"),
    "relations": [["a", "b"], ["a", "c"], ["c", "d"], ["d", "c"], ["c", "a"]],
}


@pytest.mark.parametrize(
    "argv, text",
    [
        (["poset"], "[1, 2]"),
        (["poset"], '{"elements": ["a", "b"], "relations": [["a"'),
        (["poset"], json.dumps({"elements": ["a"]})),
        (["poset"], json.dumps({"elements": [1, 2], "relations": []})),
        (["poset"], json.dumps({"elements": ["a", "b"], "relations": [["a"]]})),
        (["poset"], json.dumps({"elements": ["a"], "relations": "ab"})),
        (["homology", "--mode", "poset"], json.dumps({"elements": [["a"]], "relations": []})),
        (["complex"], '"facets"'),
        (["complex"], json.dumps({"facets": [[1, 2]]})),
        (["complex"], json.dumps({"facets": "ab"})),
        (["homology"], json.dumps({"facets": [["a"], None]})),
        (["nerve"], json.dumps({k: v for k, v in _COVER.items() if k != "members"})),
        (["nerve"], json.dumps({**_COVER, "parent": [["a", "b"]]})),
        (["nerve"], json.dumps({**_COVER, "kind": 3})),
        (["cover", "classify"], json.dumps({**_COVER, "members": [{"name": 1, "facets": []}]})),
        (["cover", "classify"], json.dumps({**_COVER, "members": ["U"]})),
        (["persistence"], "[]"),
        (["verify", "truncation"], "null"),
        (["verify", "good-complex"], json.dumps({**_COVER, "members": {"U": []}})),
        (["cylinder"], json.dumps({**_CYLINDER, "spaces": "X"})),
        (["cylinder"], json.dumps({**_CYLINDER, "relations": [{"source": "Z", "target": "Y", "pairs": []}]})),
        (["cylinder"], json.dumps({**_CYLINDER, "relations": [{"source": "X", "target": "Y", "pairs": [["a"]]}]})),
        (["cylinder"], json.dumps({"spaces": [{"name": "X", "elements": ["a"]}], "relations": []})),
        (["verify", "replay-complex"], json.dumps({"complex": _COMPLEX})),
        (["verify", "replay-complex"], json.dumps({"complex": _COMPLEX, "certificate": {"steps": [{}]}})),
        (["verify", "replay-complex"], json.dumps({"complex": _COMPLEX, "certificate": [_CERT]})),
        (["verify", "replay-space"], json.dumps({"poset": _POSET, "certificate": _CERT, "target": "a"})),
        (["verify", "replay-space"], json.dumps({"poset": _POSET, "certificate": {"steps": [{"kind": "up-beat"}]}})),
        (["poset"], json.dumps(_CYCLIC)),
        (["verify", "replay-space"], json.dumps({"poset": _POSET, "certificate": {"steps": [{"kind": "sideways", "element": "a"}]}})),
        (["verify", "replay-complex"], json.dumps({"complex": _COMPLEX, "certificate": {"steps": [{"kind": "sideways", "element": "a"}]}})),
        (["verify", "replay-space"], json.dumps({"poset": _POSET, "certificate": {"steps": []}, "target": ["z"]})),
        (["verify", "replay-complex"], json.dumps({"complex": _COMPLEX, "certificate": _CERT, "target": {"facets": [["a", "z"]]}})),
        (["verify", "replay-complex"], json.dumps({"complex": {"facets": []}, "certificate": _CERT})),
        (["verify", "replay-space"], json.dumps({"poset": {"elements": [], "relations": []}, "certificate": _CERT})),
        (["cylinder", "--mode", "check-left"], json.dumps(_CHAIN4)),
        (["cylinder", "--mode", "check-right"], json.dumps(_CHAIN4)),
        # X0 -> X1 right and X2 -> X1 left: the left-going relation is named
        (["cylinder", "--mode", "check-left"], worked_example_spec().to_json()),
        (["cylinder", "--mode", "check-right"], worked_example_spec().to_json()),
        (["cylinder", "--mode", "intermediate-left"], worked_example_spec().to_json()),
        (["cylinder", "--mode", "intermediate-right"], worked_example_spec().to_json()),
        (["verify", "replay-space"], json.dumps({"poset": _POSET, "certificate": {"steps": []}, "target": []})),
        (["verify", "replay-complex"], json.dumps({"complex": _COMPLEX, "certificate": _CERT, "target": {"facets": []}})),
        # string values the library's readers once read as lists of letters,
        # and an unknown cover kind
        (["poset"], json.dumps({"elements": "ab", "relations": []})),
        (["complex"], json.dumps({"facets": ["ab"]})),
        (["nerve"], json.dumps({"kind": "poset", "parent": _POSET, "members": [{"name": "U", "elements": "ab"}]})),
        (["verify", "replay-complex"], json.dumps({"complex": _COMPLEX, "certificate": {"steps": [{**_CERT["steps"][0], "face": "a"}]}})),
        (["nerve"], json.dumps({**_COVER, "kind": "sphere"})),
        # a step that repeats a vertex, which a set of its ids would drop
        (["verify", "replay-complex"], json.dumps({"complex": {"facets": [["a", "b"]]}, "certificate": {"steps": [{"kind": "free-pair", "face": ["a", "a"], "coface": ["b", "a", "b"]}]}})),
        # a filtration step that repeats a member
        (["persistence", "--mode", "U,U<U,V"], json.dumps(_COVER)),
    ],
)
def test_malformed_input_exits_2_with_one_line(argv, text, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code = main(argv + ["--in", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


_STEPS_ONE_OF = "a step kind must be one of free-pair, down-beat, up-beat, down-weak, up-weak"


@pytest.mark.parametrize(
    "reader, doc, error, message",
    [
        (FinitePoset, {"elements": ["a"]}, MalformedSpec, "the poset needs a 'relations' key"),
        (FinitePoset, {"elements": [1, 2], "relations": []}, MalformedSpec, "the poset elements must be a list of string ids"),
        (FinitePoset, {"elements": "ab", "relations": []}, MalformedSpec, "the poset elements must be a list of string ids"),
        (FinitePoset, {"elements": ["a", "b"], "relations": [["a"]]}, MalformedSpec, "each entry of the poset relations must hold 2 ids"),
        (FinitePoset, {"elements": ["a"], "relations": "ab"}, MalformedSpec, "the poset relations must be a list"),
        (FinitePoset, _CYCLIC, CycleDetected, "relation contains a cycle: a < c < a"),
        (SimplicialComplex, {"facets": [[1, 2]]}, MalformedSpec, "each entry of the complex facets must be a list of string ids"),
        (SimplicialComplex, {"facets": ["ab"]}, MalformedSpec, "each entry of the complex facets must be a list of string ids"),
        (SimplicialComplex, {"facets": "ab"}, MalformedSpec, "the complex facets must be a list"),
        (Cover, {k: v for k, v in _COVER.items() if k != "members"}, MalformedSpec, "the cover needs a 'members' key"),
        (Cover, {**_COVER, "parent": [["a", "b"]]}, MalformedSpec, "the cover parent must be a JSON object"),
        (Cover, {**_COVER, "kind": 3}, MalformedSpec, "the cover kind must be a string id"),
        (Cover, {**_COVER, "kind": "sphere"}, InvalidCover, "unknown cover kind 'sphere'"),
        (Cover, {**_COVER, "members": {"U": []}}, MalformedSpec, "the cover 'members' must be a list"),
        (Cover, {**_COVER, "members": ["U"]}, MalformedSpec, "each entry of the cover 'members' must be a JSON object"),
        (Cover, {**_COVER, "members": [{"name": 1, "facets": []}]}, MalformedSpec, "a cover member name must be a string id"),
        (Cover, {"kind": "poset", "parent": _POSET, "members": [{"name": "U", "elements": "ab"}]}, MalformedSpec, "member elements must be a list of string ids"),
        (CylinderSpec, {**_CYLINDER, "spaces": "X"}, MalformedSpec, "the cylinder 'spaces' must be a list"),
        (CylinderSpec, {"spaces": [{"name": "X", "elements": ["a"]}], "relations": []}, MalformedSpec, "a space needs a 'relations' key"),
        (CylinderSpec, {**_CYLINDER, "relations": [{"source": "Z", "target": "Y", "pairs": []}]}, MalformedSpec, "relation source 'Z' names no space"),
        (CylinderSpec, {**_CYLINDER, "relations": [{"source": "X", "target": "Y", "pairs": [["a"]]}]}, MalformedSpec, "each entry of pairs must hold 2 ids"),
        (CollapseCertificate, [_CERT], MalformedSpec, "the certificate must be a JSON object"),
        (CollapseCertificate, {"steps": [{}]}, MalformedSpec, "a certificate step needs a 'kind' key"),
        (CollapseCertificate, {"steps": [{"kind": "up-beat"}]}, MalformedSpec, "a point-removal step needs a 'element' key"),
        (CollapseCertificate, {"steps": [{**_CERT["steps"][0], "face": "a"}]}, MalformedSpec, "a step face must be a list of string ids"),
        (CollapseCertificate, {"steps": [{"kind": "sideways", "element": "a"}]}, MalformedSpec, f"{_STEPS_ONE_OF}, got 'sideways'"),
        (CollapseCertificate, {"steps": [{**_CERT["steps"][0], "face": ["a", "a"]}]}, MalformedSpec, "a step face repeats an id: ['a', 'a']"),
        (CollapseCertificate, {"steps": [{**_CERT["steps"][0], "coface": ["b", "a", "b"]}]}, MalformedSpec, "a step coface repeats an id: ['b', 'a', 'b']"),
        # lists that name a set, which a set of their ids would shorten
        (SimplicialComplex, {"facets": [["a", "a", "b"]]}, MalformedSpec, "each entry of the complex facets repeats an id: ['a', 'a', 'b']"),
        (Cover, {**_COVER, "members": [{"name": "U", "facets": [["a", "b", "a"]]}]}, MalformedSpec, "each entry of member facets repeats an id: ['a', 'b', 'a']"),
        (Cover, {"kind": "poset", "parent": _POSET, "members": [{"name": "U", "elements": ["a", "a"]}]}, MalformedSpec, "member elements repeats an id: ['a', 'a']"),
    ],
)
def test_readers_reject_malformed_documents(reader, doc, error, message):
    """Each type's from_json rejects a malformed document with the message
    the CLI prints for it after "error: "."""
    with pytest.raises(FinspaceError) as exc:
        reader.from_json(json.dumps(doc))
    assert type(exc.value) is error and str(exc.value) == message


def test_a_cover_with_a_bad_parent_and_a_bad_member_names_the_parent(tmp_path, capsys):
    """The parent is read and built before any member is checked."""
    doc = {
        "kind": "poset",
        "parent": {"elements": ["a", "a"], "relations": []},
        "members": [{"name": "U", "elements": "a"}],
    }
    message = "duplicate element ids in ['a', 'a']"
    with pytest.raises(DuplicateElement, match=re.escape(message)):
        Cover.from_doc(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["nerve", "--in", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "mode", ["check-left", "check-right", "intermediate-left", "intermediate-right"]
)
def test_check_modes_name_a_left_going_relation(paths, capsys, mode):
    """The worked example's X2 -> X1 is left-going: the check modes would
    compose it as stored, so they name it by its spec names and stop."""
    assert main(["cylinder", "--in", str(paths["cylinder"]), "--mode", mode]) == 2
    assert capsys.readouterr().err == (
        "error: relation X2 -> X1 is left-going;"
        " the check modes compose right-going relations only\n"
    )


_BACKWARDS = {
    "spaces": [{"name": "X0", **_POSET}, {"name": "X1", "elements": ["c"], "relations": []}],
    "relations": [{"source": "X1", "target": "X0", "pairs": [], "direction": "right"}],
}
_ONE_MEMBER_DUNCE_HAT = Cover("complex", dunce_hat(), (("D", dunce_hat()),)).to_doc()
_SPACE_COVER = {"kind": "poset", "parent": _POSET, "members": [{"name": "U", "elements": ["a", "b"]}]}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["verify", "trivial-subnerve-complex"], _ONE_MEMBER_DUNCE_HAT, "N0 is empty; no verified intersections"),
        (["verify", "reduced-complex"], _ONE_MEMBER_DUNCE_HAT, "reduced N0 is empty; no verified intersections"),
        (["cylinder", "--mode", "intermediate-left"], _CYLINDER, "intermediate checks need exactly two relations"),
        (["cylinder"], _BACKWARDS, "relation 0 marked right does not match X0->X1"),
        (["cylinder"], {**_CYLINDER, "relations": [{"source": "X", "target": "Y", "pairs": [["a", "zz"]]}]}, "'zz' not in target poset"),
        # X and Y are equal posets, so only the names show the wrong way
        (["cylinder"], {**_CYLINDER, "relations": [{"source": "Y", "target": "X", "pairs": [["a", "a"]], "direction": "right"}]}, "relation 0 marked right does not match X0->X1"),
        (["cylinder"], {**_CYLINDER, "relations": [{"source": "X", "target": "Y", "pairs": [["a", "a"]], "direction": "left"}]}, "relation 0 marked left does not match X1->X0"),
        (["verify", "replay-space"], {"poset": _POSET, "certificate": {"steps": []}, "target": ["a", "a"]}, "the target repeats an id: ['a', 'a']"),
        (["persistence", "--mode", "U,U<U,V"], _COVER, "the index set at step 1 repeats an id: ('U', 'U')"),
        # a nerve flavour on a cover of the other kind
        (["verify", "good-complex"], _SPACE_COVER, "good-complex applies to covers of complexes"),
        (["verify", "strong-good-complex"], _SPACE_COVER, "strong-good-complex applies to covers of complexes"),
        (["verify", "good-space"], _COVER, "good-space applies to covers of finite spaces"),
        (["verify", "strong-good-space"], _COVER, "strong-good-space applies to covers of finite spaces"),
    ],
)
def test_input_errors_exit_2_with_their_message(argv, doc, message, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main(argv + ["--in", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "step",
    [_CERT["steps"][0], {"kind": "down-beat", "element": "zz"}],
    ids=["free-pair-step", "unknown-element"],
)
def test_replay_space_rejects_a_step_it_cannot_take(step, tmp_path, capsys):
    p = tmp_path / "replay.json"
    p.write_text(json.dumps({"poset": _POSET, "certificate": {"steps": [step]}}))
    code, out = run(capsys, "verify", "replay-space", "--in", str(p))
    assert (code, json.loads(out)) == (1, {"replay_ok": False})


def test_verify_exits_1_when_the_hypotheses_hold_and_the_homologies_differ(
    paths, capsys, monkeypatch
):
    monkeypatch.setattr(covers, "homology_equal", lambda a, b: False)
    code, out = run(capsys, "verify", "good-complex", "--in", str(paths["cover"]))
    doc = json.loads(out)
    assert (doc["hypothesis_verdict"], doc["conclusion_homology_match"]) == ("yes", False)
    assert code == 1


def test_malformed_input_exit_code_from_the_shell(tmp_path):
    import os
    import subprocess
    import sys

    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "finspace.cli", "poset", "--in", str(p)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stderr.splitlines() == ["error: the document must be a JSON object"]


def test_output_does_not_depend_on_the_hash_seed(paths, tmp_path):
    """Stdout, stderr and exit codes agree under two hash seeds that order a
    frozenset of a relation's three unknown pairs differently (on CPython
    3.11, 'r' comes first under 0 and 'q' under 3); the least pair is named."""
    import subprocess
    import sys

    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    pairs = [["p", "a"], ["q", "a"], ["r", "b"]]
    bad.write_text(json.dumps({**_CYLINDER, "relations": [{"source": "X", "target": "Y", "pairs": pairs}]}))
    good.write_text(json.dumps(_CYLINDER))
    commands = [
        ["cylinder", "--in", str(bad)],
        ["cylinder", "--in", str(paths["cylinder"])],
        ["cylinder", "--in", str(good), "--mode", "check-left"],
        ["poset", "--in", str(paths["poset"]), "--mode", "collapse"],
        ["nerve", "--in", str(paths["cover"]), "--mode", "reduced"],
    ]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    runs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs.append([
            subprocess.run(
                [sys.executable, "-m", "finspace.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            for argv in commands
        ])
    first, second = ([(r.returncode, r.stdout, r.stderr) for r in rs] for rs in runs)
    assert first == second
    assert first[0] == (2, "", "error: 'p' not in source poset\n")
    assert [code for code, _, _ in first[1:]] == [0, 0, 0, 0]


def _readme_flag_table():
    """Subcommand -> {option string: --mode choices or None} from the README."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        # "verify FLAVOR" names its positional argument in capitals
        name = " ".join(w for w in command.strip("`").split() if not w.isupper())
        options = {}
        for flag in re.findall(r"`(--[^`]*)`", flags):
            option, _, rest = flag.partition(" ")
            choices = re.fullmatch(r"\{(.*)\}", rest)
            options[option] = tuple(choices.group(1).split(",")) if choices else None
        table[name] = options
    return table


def _parser_flag_table():
    table = {}

    def walk(parser, name):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for action in subs:
            for child, sp in action.choices.items():
                walk(sp, f"{name} {child}".strip())
        if not subs:
            table[name] = {
                option: tuple(a.choices) if a.choices else None
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
                for option in a.option_strings
            }

    walk(build_parser(), "")
    return table


def test_readme_flag_table_matches_the_parser():
    """Each subcommand's option strings and --mode choices in the README are
    the parser's, so a flag added or removed without the README fails."""
    assert _readme_flag_table() == _parser_flag_table()


_RESTARTS_ARGV = {
    "complex": (["complex", "--mode", "collapse"], _COMPLEX),
    "cover classify": (["cover", "classify"], _COVER),
    "verify": (["verify", "good-complex"], _COVER),
    "suite": (["suite"], None),
}


def test_negative_restarts_exits_2_with_one_line(tmp_path, capsys):
    """No schedule runs for a negative count; the collapsible path once came
    out "unknown" with exit 0."""
    takes_restarts = {name for name, flags in _parser_flag_table().items() if "--restarts" in flags}
    assert set(_RESTARTS_ARGV) == takes_restarts
    for argv, doc in _RESTARTS_ARGV.values():
        if doc is not None:
            p = tmp_path / "in.json"
            p.write_text(json.dumps(doc))
            argv = argv + ["--in", str(p)]
        code = main(argv + ["--restarts", "-5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == ["error: restarts must be non-negative, got -5"]

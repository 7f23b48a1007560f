"""Pinned digest of the CLI's bytes over a fixed corpus of invocations.

Each invocation runs ``main(argv)`` in process, in a working directory of
its own, with its input at ``in.json`` and its ``--out`` files under fixed
relative names, so no path enters the hash.  The exit code, stdout, stderr
and every file the invocation leaves are hashed; only the suite's
per-check ``wall_time_s`` is blanked first.  So any change to a report's
bytes (key order and indentation included), an exit code, an error message
or a written certificate shows up as a different hash.
"""

import hashlib
import json
import os
import re

from finspace.cli import main
from finspace.collapse import greedy_collapse_complex, greedy_collapse_space
from finspace.complexes import SimplicialComplex
from finspace.covers import FLAVORS
from finspace.fixtures import (
    circle_arc_cover,
    dunce_hat,
    finite_circle,
    finite_circle_cover,
    projective_plane,
    two_triangle_cover,
    two_triangles,
    worked_example_spec,
)
from finspace.generators import generate_composite_instance
from finspace.posets import build_poset

PINNED = "c73e2b9f19ce9523a46ae95cfb2ae97c6fd9621e212f93492e8478d9b7bb0f00"


def _cylinder_doc(spaces, relations) -> str:
    """The CLI document of named spaces and relations (source, target, pairs,
    direction)."""
    return json.dumps(
        {
            "spaces": [
                {"name": n, "elements": list(X.elements), "relations": sorted(map(list, X.hasse))}
                for n, X in spaces
            ],
            "relations": [
                {"source": s, "target": t, "pairs": sorted(map(list, pairs)), "direction": d}
                for s, t, pairs, d in relations
            ],
        }
    )


def _chain_doc(R1, R2) -> str:
    """X -R1-> Xm -R2-> Z, both right-going."""
    spaces = (("X", R1.source), ("Xm", R1.target), ("Z", R2.target))
    return _cylinder_doc(spaces, [("X", "Xm", R1.pairs, "right"), ("Xm", "Z", R2.pairs, "right")])


def _corpus():
    """(argv, text of in.json or None) per invocation."""
    arcs, triangles = circle_arc_cover().to_json(), two_triangle_cover().to_json()
    circle_cover = finite_circle_cover().to_json()
    poset = finite_circle().to_json()
    T = two_triangles()
    faces = T.face_poset()
    spec = worked_example_spec()
    worked = _cylinder_doc(
        spec.spaces, [(R.source_name, R.target_name, R.pairs, R.direction) for R in spec.relations]
    )
    composite = _chain_doc(*generate_composite_instance(0))
    V = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    identity = frozenset((x, x) for x in V.elements)
    identities = _cylinder_doc(
        (("X", V), ("Xm", V), ("Z", V)), [("X", "Xm", identity, "right"), ("Xm", "Z", identity, "right")]
    )
    out = ["--out", "cert.json"]

    yield ["poset"], poset
    yield ["poset"] + out, faces.to_json()
    yield ["poset", "--mode", "collapse"] + out, faces.to_json()
    yield ["poset", "--mode", "collapse"] + out, poset
    yield ["complex"], dunce_hat().to_json()
    yield ["complex", "--mode", "collapse"] + out, T.to_json()
    yield ["complex", "--mode", "collapse", "--restarts", "1", "--seed", "4"] + out, dunce_hat().to_json()
    yield ["complex", "--mode", "order"], T.to_json()
    yield ["cylinder"], worked
    yield ["cylinder", "--mode", "check-left"] + out, composite
    yield ["cylinder", "--mode", "check-right"], composite
    yield ["cylinder", "--mode", "intermediate-left"] + out, composite
    yield ["cylinder", "--mode", "intermediate-right"] + out, identities
    for cover in (arcs, circle_cover):
        for mode in ("nerve", "face-poset", "reduced"):
            yield ["nerve", "--mode", mode], cover
    yield ["cover", "classify"], arcs
    yield ["cover", "classify", "--seed", "3", "--restarts", "2"], triangles
    yield ["cover", "classify", "--max-subsets", "2"], circle_cover
    yield ["homology"], projective_plane().to_json()
    yield ["homology", "--mode", "poset"], poset
    yield ["persistence"], arcs
    yield ["persistence", "--mode", "U1<U1,U2<U1,U2,U3"], arcs
    for cover in (arcs, triangles, circle_cover):
        for flavor in list(FLAVORS) + ["truncation"]:
            yield ["verify", flavor], cover
    cert = json.loads(greedy_collapse_complex(T).certificate.to_json())
    replay = {"complex": json.loads(T.to_json()), "certificate": cert}
    yield ["verify", "replay-complex"], json.dumps(replay)
    yield ["verify", "replay-complex"], json.dumps(
        {**replay, "certificate": {"steps": cert["steps"][1:]}}
    )
    edge = SimplicialComplex([["v0", "v2"]])
    onto = json.loads(greedy_collapse_complex(T, target=edge).certificate.to_json())
    yield ["verify", "replay-complex"], json.dumps(
        {**replay, "certificate": onto, "target": json.loads(edge.to_json())}
    )
    space_cert = json.loads(greedy_collapse_space(faces).certificate.to_json())
    space = {"poset": json.loads(faces.to_json()), "certificate": space_cert}
    yield ["verify", "replay-space"], json.dumps(space)
    corrupted = [dict(step, kind="up-beat") for step in space_cert["steps"]]
    yield ["verify", "replay-space"], json.dumps({**space, "certificate": {"steps": corrupted}})
    yield ["suite"], None
    yield ["suite", "--mode", "full", "--seed", "2", "--restarts", "3", "--out", "certs"], None
    # input errors: exit 2 with one line on stderr
    yield ["poset"], '{"elements": ["a"'
    yield ["complex"], json.dumps({"facets": "ab"})
    yield ["nerve"], json.dumps({**json.loads(arcs), "kind": "sphere"})
    yield ["cover", "classify", "--restarts", "-1"], arcs
    yield ["persistence", "--mode", "U1<<U2"], arcs
    yield ["poset", "--in", "missing.json"], None


def _blank_wall_times(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', text)


def _record(argv, text, capsys) -> list:
    if text is not None:
        with open("in.json", "w") as fh:
            fh.write(text)
        argv = argv + ["--in", "in.json"]
    code = main(argv)
    captured = capsys.readouterr()
    written = {}
    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.join(root, name)
            if path != os.path.join(".", "in.json"):
                with open(path) as fh:
                    written[path] = fh.read()
    return [argv, code, _blank_wall_times(captured.out), captured.err, sorted(written.items())]


def test_cli_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    records = []
    for k, (argv, text) in enumerate(_corpus()):
        case = tmp_path / str(k)
        case.mkdir()
        monkeypatch.chdir(case)
        records.append(_record(argv, text, capsys))
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == PINNED

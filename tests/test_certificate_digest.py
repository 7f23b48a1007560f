"""Pinned digest of search results over seeded instance families.

The digest covers certificate JSON, verdict, note and witness summary of
every search the collapse engine runs on these families, so any change to
the schedule of a search, to the predicate it tests or to the fallback that
produces No/Unknown shows up as a different hash.
"""

import hashlib
import json

from finspace.collapse import (
    CollapseCertificate,
    TriStateResult,
    beat_points,
    core,
    gamma_points,
    greedy_collapse_complex,
    greedy_collapse_space,
    is_homotopically_trivial_complex,
    is_homotopically_trivial_poset,
    replay_complex_certificate,
    replay_space_certificate,
    shadow_report,
    staged_union_collapse,
    weak_points,
)
from finspace.complexes import SimplicialComplex, cone
from finspace.covers import Cover, classify_cover, check_nerve_theorem
from finspace.cylinders import check_intermediate
from finspace.fixtures import (
    circle_arc_cover,
    dunce_hat,
    finite_circle,
    finite_circle_cover,
    projective_plane,
    two_triangle_cover,
)
from finspace.generators import (
    generate_complex,
    generate_composite_instance,
    generate_poset,
    generate_strong_good_cover,
)

PINNED = "c6f14780c8dce536bc14484623f6672aa0c7e3a661b9053cff3cdc73da0a51c8"


def _plain(obj):
    if isinstance(obj, TriStateResult):
        return {
            "verdict": obj.verdict,
            "note": obj.note,
            "witness": obj.witness.summary() if obj.witness is not None else None,
            "certificate": obj.certificate.to_json() if obj.certificate else None,
        }
    if isinstance(obj, CollapseCertificate):
        return obj.to_json()
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_plain(v) for v in obj)
    return obj


def _classification(cls):
    return {
        "good": cls.good,
        "strong_good": cls.strong_good,
        "records": [
            [r.index_set, r.empty, _plain(r.triviality), _plain(r.collapsibility)]
            for r in cls.records
        ],
    }


def _spaces():
    out = []
    for seed in range(30):
        X = generate_poset(seed, 6 + seed % 3)
        _, cert = core(X)
        res = greedy_collapse_space(X)
        out.append(
            [
                cert.to_json(),
                beat_points(X),
                weak_points(X),
                gamma_points(X),
                res,
                is_homotopically_trivial_poset(X),
                res.is_yes() and replay_space_certificate(X, res.certificate),
            ]
        )
        keep = X.down_set(X.elements[-1])
        out.append(greedy_collapse_space(X, target=keep))
    for X in (finite_circle(), dunce_hat().face_poset()):
        out += [greedy_collapse_space(X), is_homotopically_trivial_poset(X), gamma_points(X)]
    return out


def _complexes():
    out = []
    for seed in range(25):
        K = generate_complex(seed, max_vertices=6, max_facets=6, max_card=3)
        C = cone("apex", K)
        for L in (K, C):
            res = greedy_collapse_complex(L, restarts=3, seed=seed)
            out.append(
                [
                    res,
                    is_homotopically_trivial_complex(L, restarts=3, seed=seed),
                    shadow_report(L, restarts=3, seed=seed),
                    res.is_yes() and replay_complex_certificate(L, res.certificate),
                ]
            )
        out.append(greedy_collapse_complex(C, target=K.intersection(C)))
        out.append(staged_union_collapse([C, cone("apex", SimplicialComplex([["w0"]]))]))
    for L in (dunce_hat(), projective_plane()):
        out += [greedy_collapse_complex(L, restarts=2), is_homotopically_trivial_complex(L, restarts=2)]
    return out


def _cylinders():
    out = []
    for seed in range(12):
        R1, R2 = generate_composite_instance(seed)
        out.append([check_intermediate(R1, R2, "left"), check_intermediate(R1, R2, "right")])
    return out


def _four_cycle_arcs():
    K = SimplicialComplex([["c0", "c1"], ["c1", "c2"], ["c2", "c3"], ["c3", "c0"]])
    return Cover(
        "complex",
        K,
        (
            ("A", SimplicialComplex([["c0", "c1"], ["c1", "c2"]])),
            ("B", SimplicialComplex([["c2", "c3"], ["c3", "c0"]])),
        ),
    )


def _dunce_member_covers():
    D = dunce_hat()
    P = D.face_poset()
    return Cover("complex", D, (("D", D),)), Cover("poset", P, (("D", frozenset(P.elements)),))


def _covers():
    out = []
    for seed in range(6):
        _, cover = generate_strong_good_cover(seed)
        out.append(_classification(classify_cover(cover, max_subsets=2 ** len(cover.members))))
    for cover in (
        circle_arc_cover(),
        two_triangle_cover(),
        finite_circle_cover(),
        _four_cycle_arcs(),
        *_dunce_member_covers(),
    ):
        out.append(_classification(classify_cover(cover, restarts=2)))
    out.append(check_nerve_theorem(finite_circle_cover(), "trivial-subnerve-space"))
    out.append(check_nerve_theorem(two_triangle_cover(), "trivial-subnerve-complex"))
    return out


def test_certificate_digest_is_pinned():
    doc = _plain([_spaces(), _complexes(), _cylinders(), _covers()])
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED

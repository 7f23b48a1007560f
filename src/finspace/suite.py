"""Aggregated golden checks and randomized property suites.

Every record carries the seed it ran under; a fixed seed gives a
bit-identical report (wall times excepted).  Yes-claims are only counted as
passing when their certificates replay.
"""

from __future__ import annotations

import json
import os
import time

from . import fixtures as fx
from . import generators as gen
from .collapse import (
    free_faces,
    greedy_collapse_complex,
    replay_complex_certificate,
)
from .complexes import SimplicialComplex
from .covers import nerve, non_hausdorff_nerve
from .cylinders import (
    CylinderSpec,
    check_collapse_left,
    compose_relations,
    mapping_cylinder,
    multiple_cylinder,
    relation_cylinder,
    tag,
)
from .errors import MalformedSpec
from .homology import homology_equal, homology_of_poset, reduced_homology
from .persistence import check_truncation_theorem, persistence_over_chain

WORKED_EXAMPLE_CROSS_PAIRS = {
    ("X0.a1", "X1.b1"),
    ("X0.a1", "X1.b2"),
    ("X0.a1", "X1.b3"),
    ("X0.a2", "X1.b2"),
    ("X0.a2", "X1.b3"),
    ("X2.c1", "X1.b2"),
    ("X2.c1", "X1.b3"),
    ("X2.c2", "X1.b3"),
}


def _cross_pairs(B) -> set[tuple[str, str]]:
    return {
        (a, b)
        for a, b in B.order_pairs()
        if a.split(".", 1)[0] != b.split(".", 1)[0]
    }


def _check_worked_example() -> tuple[bool, dict]:
    spec = fx.worked_example_spec()
    B = multiple_cylinder(spec)
    cross = _cross_pairs(B)
    internal_ok = all(
        B.leq(tag(name, a), tag(name, b))
        for name, X in spec.spaces
        for a, b in X.hasse
    )
    ok = cross == WORKED_EXAMPLE_CROSS_PAIRS and internal_ok
    return ok, {"cross_pairs": sorted(map(list, cross)), "internal_ok": internal_ok}


def _check_triangle_union(out_dir) -> tuple[bool, dict]:
    K = fx.two_triangles()
    res = greedy_collapse_complex(K)
    ok = (
        res.verdict == "yes"
        and len(res.certificate.steps) == 5
        and replay_complex_certificate(K, res.certificate)
    )
    detail = {"verdict": res.verdict, "steps": len(res.certificate.steps) if res.certificate else 0}
    if out_dir and res.certificate:
        path = os.path.join(out_dir, "two-triangles.cert.json")
        with open(path, "w") as fh:
            fh.write(res.certificate.to_json())
        detail["certificate_file"] = path
    return ok, detail


def _check_dunce_hat(restarts: int, seed: int) -> tuple[bool, dict]:
    K = fx.dunce_hat()
    hom = reduced_homology(K)
    res = greedy_collapse_complex(K, restarts=restarts, seed=seed)
    ok = not free_faces(K) and res.verdict == "unknown" and hom.is_trivial()
    return ok, {
        "free_faces": len(free_faces(K)),
        "collapse_verdict": res.verdict,
        "acyclic": hom.is_trivial(),
    }


def _check_circle_arcs() -> tuple[bool, dict]:
    cover = fx.circle_arc_cover()
    N = nerve(cover)
    nerve_ok = sorted(map(sorted, N.facets)) == [["U1", "U2"], ["U1", "U3"], ["U2", "U3"]]
    diagram = persistence_over_chain(
        cover, [["U1"], ["U1", "U2"], ["U1", "U2", "U3"]]
    )
    bars = diagram.bars_in_degree(1)
    bars_ok = bars == [(3, None)]
    rep = check_truncation_theorem(cover)
    trunc_ok = (
        rep["part1_nerve_homology_match"]
        and not rep["part2_subunions_acyclic"]
        and [f["index_set"] for f in rep["part2_failures"]] == [["U1", "U2", "U3"]]
    )
    ok = nerve_ok and bars_ok and trunc_ok
    return ok, {"nerve_ok": nerve_ok, "degree1_bars": [list(b) for b in bars], "truncation_ok": trunc_ok}


def _check_projective_plane() -> tuple[bool, dict]:
    hom = reduced_homology(fx.projective_plane())
    ok = tuple(hom.betti[:3]) == (0, 0, 0) and list(hom.torsion[1]) == [2]
    return ok, {"homology": hom.summary()}


def _check_finite_circle() -> tuple[bool, dict]:
    cover = fx.finite_circle_cover()
    chi = non_hausdorff_nerve(cover)
    ok = homology_equal(homology_of_poset(cover.parent), homology_of_poset(chi))
    return ok, {"match": ok}


def _defined_order(X, Y, pairs) -> set[tuple[str, str]]:
    """The order pairs, reflexive ones included, of the cylinder of a
    relation from X to Y (copies X0 and X1), read off its definition: each
    copy's own order, and x <= y whenever x <= a, (a, b) is related and
    b <= y."""
    order = {
        (tag(n, a), tag(n, b))
        for n, Z in (("X0", X), ("X1", Y)) for a in Z.elements for b in Z.elements if Z.leq(a, b)
    }
    order.update(
        (tag("X0", x), tag("X1", y))
        for a, b in pairs for x in X.elements if X.leq(x, a) for y in Y.elements if Y.leq(b, y)
    )
    return order


def _order(B) -> set[tuple[str, str]]:
    """B's order pairs, reflexive ones included."""
    return B.order_pairs() | {(x, x) for x in B.elements}


def _suite_coincidence(seed: int, count: int) -> tuple[bool, dict]:
    """The relation cylinder, the multiple cylinder of one relation and the
    mapping cylinder against their definition, on seeded posets."""
    failures = []
    for i in range(count):
        s = seed * 10_000 + i
        X = gen.generate_poset(s, 3 + i % 5)
        Y = gen.generate_poset(s + 1, 3 + (i + 2) % 4)
        R = gen.generate_relation(s, X, Y, 0.35, source_name="X0", target_name="X1")
        spec = CylinderSpec((("X0", X), ("X1", Y)), (R,))
        want = _defined_order(X, Y, R.pairs)
        if not _order(relation_cylinder(R)) == _order(multiple_cylinder(spec)) == want:
            failures.append({"seed": s, "kind": "relation"})
        f = gen.generate_monotone_map(s, X, Y)
        if _order(mapping_cylinder(f, X, Y, "X0", "X1")) != _defined_order(X, Y, f.items()):
            failures.append({"seed": s, "kind": "map"})
    return not failures, {"count": count, "failures": failures}


def _suite_truncation_positive(seed: int, count: int) -> tuple[bool, dict]:
    failures = []
    for i in range(count):
        s = seed * 10_000 + i
        _, cover = gen.generate_strong_good_cover(s)
        rep = check_truncation_theorem(cover)
        if not (rep["part1_nerve_homology_match"] and rep["part2_subunions_acyclic"]):
            failures.append({"seed": s})
    return not failures, {"count": count, "failures": failures}


def _suite_collapse_schedule(seed: int, count: int) -> tuple[bool, dict]:
    failures = []
    for i in range(count):
        s = seed * 10_000 + i
        R1, R2 = gen.generate_composite_instance(s)
        rep = check_collapse_left(compose_relations(R1, R2))
        coll = rep["collapse"]
        if coll.get("verdict") != "yes" or not coll.get("proof_identity"):
            failures.append({"seed": s, "verdict": coll.get("verdict")})
    return not failures, {"count": count, "failures": failures}


def _suite_nerve_shadow(seed: int, count: int) -> tuple[bool, dict]:
    failures = []
    for i in range(count):
        s = seed * 10_000 + i
        X, cover = gen.generate_good_space_cover(s)
        chi = non_hausdorff_nerve(cover)
        if not homology_equal(homology_of_poset(X), homology_of_poset(chi)):
            failures.append({"seed": s})
    return not failures, {"count": count, "failures": failures}


def _suite_union_lemma(seed: int, count: int, restarts: int) -> tuple[bool, dict]:
    """Union of two collapsible complexes with collapsible overlap collapses."""
    failures = []
    produced = 0
    i = 0
    while produced < count and i < count * 20:
        s = seed * 10_000 + i
        i += 1
        A = gen.generate_complex(s, max_vertices=6, max_facets=5)
        B = gen.generate_complex(s + 1, max_vertices=6, max_facets=5)
        inter = A.intersection(B)
        if inter.is_empty():
            continue
        if not all(
            greedy_collapse_complex(K, restarts=restarts, seed=s).is_yes()
            for K in (A, B, inter)
        ):
            continue
        produced += 1
        res = greedy_collapse_complex(A.union(B), restarts=restarts, seed=s)
        if not res.is_yes():
            failures.append({"seed": s})
    return not failures, {"count": produced, "failures": failures}


def run_suite(
    seed: int = 0,
    restarts: int = 8,
    full: bool = False,
    out_dir: str | None = None,
    fixtures_dir: str | None = None,
) -> dict:
    """Golden checks plus seeded property suites; see the CLI ``suite`` command.

    ``fixtures_dir``, when given, must contain JSON documents matching the
    bundled fixtures; mismatches count as failures (drift detection).
    """
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    n_coincidence = 100 if full else 20
    n_trunc = 200 if full else 10
    n_schedule = 100 if full else 20
    n_shadow = 100 if full else 10
    n_union = 50 if full else 10
    checks = [
        ("golden/worked-example", lambda: _check_worked_example()),
        ("golden/triangle-union", lambda: _check_triangle_union(out_dir)),
        ("golden/dunce-hat", lambda: _check_dunce_hat(restarts, seed)),
        ("golden/circle-arcs", lambda: _check_circle_arcs()),
        ("golden/projective-plane", lambda: _check_projective_plane()),
        ("golden/finite-circle", lambda: _check_finite_circle()),
        ("random/cylinder-coincidence", lambda: _suite_coincidence(seed, n_coincidence)),
        ("random/truncation-positive", lambda: _suite_truncation_positive(seed, n_trunc)),
        ("random/collapse-schedule", lambda: _suite_collapse_schedule(seed, n_schedule)),
        ("random/nerve-shadow", lambda: _suite_nerve_shadow(seed, n_shadow)),
        ("random/union-lemma", lambda: _suite_union_lemma(seed, n_union, restarts)),
    ]
    if fixtures_dir:
        checks.append(("golden/fixture-drift", lambda: _check_fixture_drift(fixtures_dir)))
    records = []
    for name, fn in checks:
        t0 = time.perf_counter()
        ok, detail = fn()
        records.append(
            {
                "name": name,
                "passed": ok,
                "detail": detail,
                "wall_time_s": round(time.perf_counter() - t0, 4),
            }
        )
    records.sort(key=lambda r: r["name"])
    failed = sum(1 for r in records if not r["passed"])
    return {
        "seed": seed,
        "restarts": restarts,
        "mode": "full" if full else "quick",
        "checks": records,
        "passed": len(records) - failed,
        "failed": failed,
    }


def _check_fixture_drift(fixtures_dir: str) -> tuple[bool, dict]:
    """Compare on-disk fixture documents against the bundled constructions."""
    expected = {
        "dunce-hat.json": fx.dunce_hat(),
        "projective-plane.json": fx.projective_plane(),
        "two-triangles.json": fx.two_triangles(),
        "circle.json": fx.circle_complex(),
    }
    mismatches = []
    for name, K in expected.items():
        path = os.path.join(fixtures_dir, name)
        if not os.path.exists(path):
            mismatches.append({"file": name, "reason": "missing"})
            continue
        with open(path) as fh:
            try:
                on_disk = SimplicialComplex.from_doc(json.load(fh))
            except (json.JSONDecodeError, UnicodeDecodeError, MalformedSpec):
                on_disk = None
        if on_disk is None:
            mismatches.append({"file": name, "reason": "malformed"})
        elif on_disk != K:
            mismatches.append({"file": name, "reason": "content"})
    return not mismatches, {"mismatches": mismatches}

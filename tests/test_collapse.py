import json

import pytest

from finspace import collapse as clp
from finspace import cylinders
from finspace.collapse import (
    CollapseCertificate,
    FreeFacePair,
    PointRemoval,
    TriStateResult,
    aggregate_verdict,
    beat_points,
    core,
    free_faces,
    gamma_points,
    greedy_collapse_complex,
    greedy_collapse_space,
    is_contractible_space,
    is_homotopically_trivial_poset,
    replay_complex_certificate,
    replay_space_certificate,
    shadow_report,
    staged_union_collapse,
    weak_points,
)
from finspace.complexes import SimplicialComplex, simplex_boundary, solid_simplex
from finspace.errors import (
    EmptyObject,
    EmptySpace,
    InvariantViolation,
    MalformedSpec,
    TargetNotInduced,
)
from finspace.fixtures import dunce_hat, finite_circle, projective_plane, two_triangles
from finspace.generators import generate_poset
from finspace.posets import antichain, build_poset, chain

from helpers import brute_contractible


def test_beat_points_on_chain():
    assert dict(beat_points(chain(["a", "b"]))) == {"a": "up-beat", "b": "down-beat"}


def test_beat_points_on_antichain():
    assert beat_points(antichain(["p", "q"])) == []


def test_core_of_chain_is_singleton():
    cr, cert = core(chain(["a", "b", "c", "d"]))
    assert len(cr) == 1
    assert len(cert.steps) == 3
    assert replay_space_certificate(chain(["a", "b", "c", "d"]), cert, target=set(cr.elements))


def test_core_idempotent():
    for seed in range(25):
        X = generate_poset(seed, 8)
        cr, _ = core(X)
        cr2, cert2 = core(cr)
        assert set(cr2.elements) == set(cr.elements)
        assert not cert2.steps


def test_contractible_agrees_with_brute_force():
    for seed in range(60):
        X = generate_poset(seed, 7)
        assert is_contractible_space(X) == brute_contractible(X)


def test_contractible_of_empty_raises():
    X = chain(["a"])
    with pytest.raises(EmptySpace):
        is_contractible_space(X.remove("a"))


def test_minimal_open_and_closed_sets_contractible():
    for seed in range(20):
        X = generate_poset(seed, 8)
        for x in X.elements:
            assert is_contractible_space(X.restrict(X.down_set(x)))
            assert is_contractible_space(X.restrict(X.up_set(x)))


def test_beat_points_are_weak_points():
    for seed in range(25):
        X = generate_poset(seed, 7)
        weak = {x for x, _ in weak_points(X)}
        assert {x for x, _ in beat_points(X)} <= weak


def test_weak_points_are_gamma_yes():
    for seed in range(15):
        X = generate_poset(seed, 6)
        gammas = dict(gamma_points(X))
        for x, _ in weak_points(X):
            assert gammas[x].verdict == "yes"


def test_greedy_collapse_space_chain():
    res = greedy_collapse_space(chain(["a", "b", "c"]))
    assert res.is_yes() and len(res.certificate.steps) == 2
    assert replay_space_certificate(chain(["a", "b", "c"]), res.certificate)


def test_greedy_collapse_space_antichain_is_no():
    res = greedy_collapse_space(antichain(["p", "q"]))
    assert res.verdict == "no"
    assert res.witness is not None and not res.witness.is_trivial()


def test_greedy_collapse_space_circle_is_no():
    res = greedy_collapse_space(finite_circle())
    assert res.verdict == "no"


def test_collapse_space_onto_target():
    X = build_poset(["a", "b", "t"], [("t", "a"), ("t", "b")])
    res = greedy_collapse_space(X, target={"t"})
    assert res.is_yes()
    assert replay_space_certificate(X, res.certificate, target={"t"})
    # a target outside the space is an input error, not a failed replay
    with pytest.raises(TargetNotInduced):
        greedy_collapse_space(X, target={"t", "z"})
    with pytest.raises(TargetNotInduced):
        replay_space_certificate(X, res.certificate, target={"z"})


def test_free_faces_solid_triangle():
    pairs = free_faces(solid_simplex(["a", "b", "c"]))
    assert (("a", "b"), ("a", "b", "c")) in pairs


def test_free_faces_boundary_is_empty():
    assert free_faces(simplex_boundary(2)) == []


def test_greedy_collapse_triangle():
    res = greedy_collapse_complex(solid_simplex(["a", "b", "c"]))
    assert res.is_yes()
    assert len(res.certificate.steps) == 3
    assert replay_complex_certificate(solid_simplex(["a", "b", "c"]), res.certificate)


def test_greedy_collapse_sphere_is_no():
    res = greedy_collapse_complex(simplex_boundary(2))
    assert res.verdict == "no"
    assert res.witness is not None


def test_negative_restarts_raise():
    # a negative count runs no schedule, not even the deterministic pass
    for restarts in (-1, -5):
        with pytest.raises(MalformedSpec):
            greedy_collapse_complex(solid_simplex(["a", "b"]), restarts=restarts)


def test_dunce_hat_unknown():
    K = dunce_hat()
    assert free_faces(K) == []
    res = greedy_collapse_complex(K)
    assert res.verdict == "unknown"


def test_a_stuck_search_onto_an_acyclic_target_of_lower_dimension_is_unknown():
    """The dunce hat and a vertex or an edge are all acyclic, though their
    homology is listed up to different dimensions: no No."""
    K = dunce_hat()
    X = K.face_poset()
    res = greedy_collapse_space(X, target=["v1"])
    assert res.verdict == "unknown" and res.witness is None
    res = greedy_collapse_complex(K, target=solid_simplex(["v1", "v2"]))
    assert res.verdict == "unknown" and res.witness is None
    acyclic = clp.reduced_homology(K)
    assert acyclic.is_trivial()
    with pytest.raises(InvariantViolation):
        TriStateResult("no", witness=acyclic, note="homology differs from target")


def test_the_whole_set_is_contracted_once(monkeypatch):
    """The dunce hat's face poset has a larger core and a stuck weak-point
    collapse: triviality is Unknown after one contraction of the whole set,
    with no second one after the collapse."""
    X = dunce_hat().face_poset()
    whole = (1 << len(X)) - 1
    calls = []
    real = clp._contraction

    def counting(Y, alive):
        calls.append(alive == whole)
        return real(Y, alive)

    monkeypatch.setattr(clp, "_contraction", counting)
    note = "acyclic but neither core nor greedy collapse reach a point"
    stuck = TriStateResult("unknown", note=note)
    assert is_homotopically_trivial_poset(X) == stuck
    assert calls.count(True) == 1
    calls.clear()
    verdicts = cylinders._subspace_verdicts(X, whole)
    assert verdicts["triviality"] == stuck and verdicts["collapsibility"].verdict == "unknown"
    assert calls.count(True) == 1


def test_shadow_report_dunce_hat():
    rep = shadow_report(dunce_hat())
    assert rep["contractible_shadow"] == "yes"
    assert rep["shadow_basis"] == "acyclic"
    assert rep["collapsible"] == "unknown"


def test_staged_union_collapse():
    A = solid_simplex(["a", "b", "c"])
    B = solid_simplex(["b", "c", "d"])
    res = staged_union_collapse([A, B])
    assert res.is_yes()
    assert replay_complex_certificate(A.union(B), res.certificate)


def test_staged_union_collapse_returns_the_stage_that_did_not_collapse():
    """A triangle hung on a vertex of the dunce hat: peeled last, the hat
    cannot collapse onto the triangle; peeled first, the triangle collapses
    onto the hat, whose own collapse then gets stuck.  Both stuck stages
    read Unknown on the acyclic hat and No on RP2."""
    for K, verdict in ((dunce_hat(), "unknown"), (projective_plane(), "no")):
        T = solid_simplex([min(K.vertices), "x", "y"])
        onto_triangle = staged_union_collapse([T, K], restarts=2)
        assert onto_triangle == greedy_collapse_complex(K.union(T), target=T, restarts=2)
        assert onto_triangle.verdict == verdict
        last = staged_union_collapse([K, T], restarts=2)
        assert greedy_collapse_complex(K.union(T), target=K, restarts=2).is_yes()
        assert last == greedy_collapse_complex(K, restarts=2)
        assert last.verdict == verdict


def test_certificate_json_round_trip():
    cert = CollapseCertificate(
        (
            PointRemoval("z3", "down-weak"),
            FreeFacePair(("v0", "v1"), ("v0", "v1", "v2")),
        )
    )
    doc = json.loads(cert.to_json())
    assert doc["steps"][0] == {"kind": "down-weak", "element": "z3"}
    assert doc["steps"][1]["face"] == ["v0", "v1"]
    assert CollapseCertificate.from_json(cert.to_json()) == cert


def test_corrupted_certificate_fails_replay():
    K = two_triangles()
    good = greedy_collapse_complex(K).certificate
    steps = list(good.steps)
    steps[0], steps[-1] = steps[-1], steps[0]
    # swapping steps breaks freeness at the first removal
    assert replay_complex_certificate(K, CollapseCertificate(tuple(steps))) in (False,)
    bogus = CollapseCertificate((FreeFacePair(("v0",), ("v0", "v9")),))
    assert not replay_complex_certificate(K, bogus)


def test_replay_raises_on_the_inputs_a_search_rejects():
    """A target outside the complex, an empty target and an empty complex or
    space are bad input to replay, as to a search, not a certificate that
    fails."""
    K = two_triangles()
    cert = greedy_collapse_complex(K).certificate
    outside = SimplicialComplex([["v0", "z"]])
    for check in (greedy_collapse_complex, replay_complex_certificate):
        args = (K,) if check is greedy_collapse_complex else (K, cert)
        with pytest.raises(TargetNotInduced):
            check(*args, target=outside)
        with pytest.raises(EmptyObject):
            check(*args, target=SimplicialComplex([]))
    with pytest.raises(EmptyObject):
        replay_complex_certificate(SimplicialComplex([]), cert)
    with pytest.raises(EmptySpace):
        replay_space_certificate(antichain([]), CollapseCertificate())
    X = chain(["a", "b", "c"])
    with pytest.raises(EmptySpace):
        greedy_collapse_space(X, target=[])
    with pytest.raises(EmptySpace):
        replay_space_certificate(X, greedy_collapse_space(X).certificate, target=[])


def test_replay_space_accepts_any_valid_kind():
    # b is both a down-beat and an up-beat point of a < b < c
    X = chain(["a", "b", "c"])
    for kinds in (("up-beat", "down-beat"), ("up-weak", "down-weak")):
        steps = (PointRemoval("b", kinds[0]), PointRemoval("c", kinds[1]))
        assert replay_space_certificate(X, CollapseCertificate(steps))


def test_replay_space_rejects_invalid_steps():
    X = chain(["a", "b", "c"])
    for steps in (
        (PointRemoval("b", "sideways"),),
        (PointRemoval("b", "down-beat"), PointRemoval("b", "down-beat")),
    ):
        assert not replay_space_certificate(X, CollapseCertificate(steps))
    # a minimum of the finite circle: two incomparable points above it
    step = PointRemoval("x1", "up-weak")
    assert not replay_space_certificate(finite_circle(), CollapseCertificate((step,)))


def test_triviality_from_collapse():
    """The space rule and the subcomplex rule that turn a collapsibility
    verdict into a triviality verdict."""
    X = chain(["a", "b", "c"])
    found = greedy_collapse_space(X)
    assert clp._after_collapse(X, clp._everything(X), found) is found
    # after Unknown, a space still gets its core test
    stuck = TriStateResult("unknown", note="stuck")
    res = clp._after_collapse(X, clp._everything(X), stuck)
    assert res.is_yes() and replay_space_certificate(X, res.certificate)
    F = dunce_hat().face_poset()
    res = clp._after_collapse(F, clp._everything(F), stuck)
    assert res.verdict == "unknown" and "core" in res.note
    # a subcomplex has no test left: Yes and No carry over, Unknown stays
    for K in (two_triangles(), projective_plane()):
        verdict = greedy_collapse_complex(K)
        assert clp._after_complex_collapse(verdict) is verdict
    res = clp._after_complex_collapse(greedy_collapse_complex(dunce_hat(), restarts=1))
    assert res.verdict == "unknown" and res.note == "acyclic but greedy collapse got stuck"


def test_trivial_poset_verdicts():
    assert is_homotopically_trivial_poset(chain(["a", "b"])).is_yes()
    assert is_homotopically_trivial_poset(finite_circle()).verdict == "no"


def test_aggregate_verdict_lattice():
    assert aggregate_verdict([]) == "yes"
    assert aggregate_verdict(["yes", "unknown"]) == "unknown"
    assert aggregate_verdict(["unknown", "no", "yes"]) == "no"


def test_euler_characteristic_invariant_along_certificates():
    K = two_triangles()
    res = greedy_collapse_complex(K)
    current = K
    for step in res.certificate.steps:
        before = current.euler_characteristic()
        current = current.without([step.face, step.coface])
        assert current.euler_characteristic() == before

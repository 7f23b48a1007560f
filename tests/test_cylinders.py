import pytest

from finspace import cylinders, suite
from finspace.collapse import replay_space_certificate
from finspace.cylinders import (
    LEFT,
    RIGHT,
    CylinderSpec,
    Relation,
    check_collapse_left,
    check_collapse_right,
    check_intermediate,
    compose_relations,
    graph_relation,
    mapping_cylinder,
    multiple_cylinder,
    multiple_mapping_cylinder,
    relation_cylinder,
    tag,
)
from finspace.errors import MalformedSpec, MismatchedSpaces, NotOrderPreserving, UnknownElement
from finspace.fixtures import worked_example_spec
from finspace.generators import (
    generate_composite_instance,
    generate_poset,
    generate_relation,
)
from finspace.posets import build_poset, chain

from helpers import (
    brute_transitive_closure,
    hypothesis_sets,
    slow_overline_image,
    slow_underline_preimage,
)


def test_relation_validation():
    X, Y = chain(["a"]), chain(["b"])
    with pytest.raises(UnknownElement):
        Relation(X, Y, frozenset({("z", "b")}))
    with pytest.raises(MalformedSpec):
        Relation(X, Y, frozenset(), direction="sideways")


def test_image_preimage():
    X, Y = chain(["a1", "a2"]), chain(["b1", "b2"])
    R = Relation(X, Y, frozenset({("a1", "b1"), ("a2", "b1"), ("a2", "b2")}))
    assert R.image({"a2"}) == {"b1", "b2"}
    assert R.preimage({"b1"}) == {"a1", "a2"}


def test_relation_cylinder_matches_brute_closure():
    for seed in range(30):
        X = generate_poset(seed, 4)
        Y = generate_poset(seed + 500, 4)
        R = generate_relation(seed, X, Y, 0.4, source_name="S", target_name="T")
        B = relation_cylinder(R)
        gen_pairs = (
            {(tag("S", a), tag("S", b)) for a, b in X.hasse}
            | {(tag("T", a), tag("T", b)) for a, b in Y.hasse}
            | {(tag("S", a), tag("T", b)) for a, b in R.pairs}
        )
        closure = brute_transitive_closure(B.elements, gen_pairs)
        assert {(a, b) for a, b in B.order_pairs() if a != b} == closure


def test_cylinder_needs_distinct_names():
    X = chain(["a"])
    R = Relation(X, X, frozenset(), source_name="X", target_name="X")
    with pytest.raises(MalformedSpec):
        relation_cylinder(R)


def test_graph_relation_rejects_non_monotone():
    X = chain(["a", "b"])
    Y = chain(["u", "v"])
    with pytest.raises(NotOrderPreserving):
        graph_relation({"a": "v", "b": "u"}, X, Y)
    with pytest.raises(NotOrderPreserving):
        graph_relation({"a": "u"}, X, Y)


def test_mapping_cylinder_is_relation_cylinder_of_graph():
    X = chain(["a", "b"])
    Y = chain(["u", "v", "w"])
    f = {"a": "u", "b": "w"}
    B1 = mapping_cylinder(f, X, Y, "X", "Y")
    B2 = relation_cylinder(graph_relation(f, X, Y, RIGHT, "X", "Y"))
    assert B1.hasse == B2.hasse


def test_compose_relations():
    X, Y, Z = chain(["x"]), chain(["y1", "y2"]), chain(["z"])
    R1 = Relation(X, Y, frozenset({("x", "y1")}))
    R2 = Relation(Y, Z, frozenset({("y1", "z")}))
    assert compose_relations(R1, R2).pairs == frozenset({("x", "z")})


def test_composing_mismatched_relations_names_both():
    R0, R1 = worked_example_spec().relations  # X0 -> X1 and X2 -> X1
    with pytest.raises(MismatchedSpaces) as err:
        compose_relations(R0, R1)
    assert str(err.value) == (
        "X0 -> X1 and X2 -> X1 do not compose:"
        " the target of the first is not the source of the second"
    )


def test_worked_example_cross_pairs():
    B = multiple_cylinder(worked_example_spec())
    cross = {
        (a, b)
        for a, b in B.order_pairs()
        if a.split(".")[0] != b.split(".")[0]
    }
    assert cross == {
        ("X0.a1", "X1.b1"),
        ("X0.a1", "X1.b2"),
        ("X0.a1", "X1.b3"),
        ("X0.a2", "X1.b2"),
        ("X0.a2", "X1.b3"),
        ("X2.c1", "X1.b2"),
        ("X2.c1", "X1.b3"),
        ("X2.c2", "X1.b3"),
    }


def test_worked_example_internal_orders_preserved():
    spec = worked_example_spec()
    B = multiple_cylinder(spec)
    for name, X in spec.spaces:
        for a, b in X.hasse:
            assert B.lt(tag(name, a), tag(name, b))
        # and no extra internal pairs appear
        for a in X.elements:
            for b in X.elements:
                assert B.leq(tag(name, a), tag(name, b)) == X.leq(a, b)


def test_multiple_cylinder_single_relation_coincides():
    for seed in range(25):
        X = generate_poset(seed, 5)
        Y = generate_poset(seed + 99, 4)
        R = generate_relation(seed, X, Y, 0.35, source_name="X0", target_name="X1")
        spec = CylinderSpec((("X0", X), ("X1", Y)), (R,))
        B1 = relation_cylinder(R)
        B2 = multiple_cylinder(spec)
        assert set(B1.elements) == set(B2.elements)
        assert B1.hasse == B2.hasse


def test_multiple_mapping_cylinder_coincides():
    X = chain(["a", "b"])
    Y = chain(["u", "v"])
    f = {"a": "u", "b": "v"}
    B1 = multiple_mapping_cylinder([f], [("X0", X), ("X1", Y)], [RIGHT])
    B2 = mapping_cylinder(f, X, Y, "X0", "X1")
    assert B1.hasse == B2.hasse


def test_multiple_mapping_cylinder_rejects_an_unknown_direction():
    """A direction other than right or left is refused by name, for a map
    either way round, rather than read as left or blamed on the map."""
    spaces = [("X0", chain(["a", "b"])), ("X1", chain(["u", "v"]))]
    forward, backward = {"a": "u", "b": "v"}, {"u": "a", "v": "b"}
    assert len(multiple_mapping_cylinder([backward], spaces, [LEFT])) == 4
    for f in (forward, backward):
        with pytest.raises(MalformedSpec, match="direction must be right or left, got 'sideways'"):
            multiple_mapping_cylinder([f], spaces, ["sideways"])


def test_left_relations_put_later_space_below():
    # with a left relation the odd space sits above the even one on its right
    X1 = chain(["b"])
    X2 = chain(["c"])
    R = Relation(X2, X1, frozenset({("c", "b")}), direction=LEFT,
                 source_name="X2", target_name="X1")
    spec = CylinderSpec((("X0", chain(["a"])), ("X1", X1), ("X2", X2)),
                        (Relation(chain(["a"]), X1, frozenset({("a", "b")}),
                                  direction=RIGHT, source_name="X0", target_name="X1"), R))
    B = multiple_cylinder(spec)
    assert B.lt("X2.c", "X1.b")
    assert B.lt("X0.a", "X1.b")


def test_underline_overline():
    X = build_poset(["a", "b", "m"], [("a", "m"), ("b", "m")])
    Z = chain(["z"])
    R = Relation(X, Z, frozenset({("m", "z")}))
    assert hypothesis_sets(R, "left")["z"] == slow_underline_preimage(R, "z") == {"a", "b", "m"}
    Rop = Relation(Z, X, frozenset({("z", "a")}))
    assert hypothesis_sets(Rop, "right")["z"] == slow_overline_image(Rop, "z") == {"a", "m"}


def test_check_collapse_left_certifies_and_replays():
    for seed in range(15):
        R1, R2 = generate_composite_instance(seed)
        R = compose_relations(R1, R2)
        report = check_collapse_left(R)
        assert report["hypothesis_collapsibility"] == "yes"
        coll = report["collapse"]
        assert coll["verdict"] == "yes"
        assert coll["proof_identity"]
        B = relation_cylinder(R)
        target = {tag(R.source_name, x) for x in R.source.elements}
        assert replay_space_certificate(B, coll["certificate"], target=target)


def test_tag_escapes_the_separator():
    assert tag("X", "a") == "X.a"
    assert tag("X.a", "b") == "X\\.a.b"
    assert tag("X", "a.b") == "X.a.b"
    assert tag("X\\", "a") == "X\\\\.a"
    names = [("X.a", "b"), ("X", "a.b"), ("X\\", "b.c"), ("X.b", "c"), ("X.b\\", "c")]
    assert len({tag(c, e) for c, e in names}) == len(names)
    # copy X.a over the element b and copy X over the element a.b stay apart
    X, Y = chain(["a.b"]), chain(["b"])
    R = Relation(X, Y, frozenset({("a.b", "b")}), source_name="X", target_name="X.a")
    B = relation_cylinder(R)
    assert len(B) == 2 and B.lt(tag("X", "a.b"), tag("X.a", "b"))
    assert len(multiple_cylinder(CylinderSpec((("X", X), ("X.a", Y)), (R,)))) == 2


def test_collapse_checks_build_one_cylinder(monkeypatch):
    R1, R2 = generate_composite_instance(3)
    R = compose_relations(R1, R2)
    expected = {"left": check_collapse_left(R), "right": check_collapse_right(R)}
    built = []
    build = cylinders.relation_cylinder

    def counting(relation):
        built.append(relation)
        return build(relation)

    monkeypatch.setattr(cylinders, "relation_cylinder", counting)
    for side, check in (("left", check_collapse_left), ("right", check_collapse_right)):
        built.clear()
        assert check(R) == expected[side]
        assert built == [R]
    assert expected["left"]["collapse"]["verdict"] == "yes"


def test_check_intermediate_builds_two_cylinders(monkeypatch):
    # one per one-sided check; the composite's height is read off its report
    R1, R2 = generate_composite_instance(3)
    expected = {side: check_intermediate(R1, R2, side) for side in ("left", "right")}
    built = []
    build = cylinders.relation_cylinder

    def counting(relation):
        built.append(relation)
        return build(relation)

    monkeypatch.setattr(cylinders, "relation_cylinder", counting)
    composite = compose_relations(R1, R2)
    for side, factor in (("left", R1), ("right", R2)):
        built.clear()
        report = check_intermediate(R1, R2, side)
        assert report == expected[side]
        assert built == [factor, composite]
        assert report["height_bound_cylinder"] == build(composite).height()


def test_check_collapse_right_on_opposite_instance():
    # dualize: relate z to everything above g(z) by flipping a left instance
    X = build_poset(["a", "b", "m"], [("m", "a"), ("m", "b")])
    Z = chain(["z"])
    R = Relation(Z, X, frozenset({("z", "m"), ("z", "a"), ("z", "b")}),
                 source_name="Z", target_name="X")
    report = check_collapse_right(R)
    assert report["hypothesis_collapsibility"] == "yes"
    assert report["collapse"]["verdict"] == "yes"


def test_check_collapse_left_not_attempted_when_hypothesis_fails():
    X = build_poset(["a", "b"], [])
    Z = chain(["z"])
    R = Relation(X, Z, frozenset({("a", "z"), ("b", "z")}))
    report = check_collapse_left(R)
    assert report["hypothesis_collapsibility"] == "no"
    assert report["collapse"] == {"verdict": "not-attempted"}


def test_check_intermediate():
    R1, R2 = generate_composite_instance(3)
    report = check_intermediate(R1, R2, "left")
    assert report["side"] == "left"
    assert report["verdict"] in ("yes", "no", "unknown")
    assert report["height_bound_cylinder"] >= report["height_bound_intermediate"]


def test_cylinder_spec_validation():
    X = chain(["a"])
    with pytest.raises(MalformedSpec):
        CylinderSpec((("X0", X),), ())


def test_suite_coincidence_check_reads_the_definition(monkeypatch):
    """The suite's cylinder check compares each cylinder with the order its
    definition gives, so a cylinder builder that drops a related pair fails
    it, although all three cylinders would still agree with each other."""
    assert suite._suite_coincidence(0, 20) == (True, {"count": 20, "failures": []})
    real = cylinders._cylinder

    def dropping(spaces, cross):
        return real(spaces, [(lo, hi, sorted(pairs)[1:]) for lo, hi, pairs in cross])

    monkeypatch.setattr(cylinders, "_cylinder", dropping)
    ok, detail = suite._suite_coincidence(0, 20)
    assert not ok
    kinds = {f["kind"] for f in detail["failures"]}
    assert kinds == {"relation", "map"}


def test_executor_reports_a_hypothesis_set_that_is_not_the_punctured_set(monkeypatch):
    """Identity relation on a < b, a < c: with b's hypothesis set given as
    {a} instead of {a, b}, every set is still contractible and the collapse
    still replays, but the executor reports that the proof's identity fails."""
    X = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    R = Relation(X, X, frozenset((x, x) for x in X.elements), source_name="X", target_name="Y")
    assert check_collapse_left(R)["collapse"]["proof_identity"] is True
    real = cylinders._hypothesis_masks

    def wrong(R, side):
        masks = real(R, side)
        masks[X._at("b")] = 1 << X._at("a")
        return masks

    monkeypatch.setattr(cylinders, "_hypothesis_masks", wrong)
    collapse = check_collapse_left(R)["collapse"]
    assert collapse["verdict"] == "yes" and collapse["proof_identity"] is False

"""Each input error the library raises on a call no other test makes: the
error type and the whole message."""

import pytest

from finspace import collapse as clp
from finspace.complexes import SimplicialComplex
from finspace.covers import (
    Cover,
    chains_containing,
    check_nerve_theorem,
    classify_cover,
    containing_intersections,
)
from finspace.cylinders import (
    LEFT,
    CylinderSpec,
    Relation,
    check_intermediate,
    multiple_mapping_cylinder,
)
from finspace.errors import (
    EmptyComplex,
    EmptyObject,
    EmptySpace,
    FinspaceError,
    InvalidCover,
    MalformedSpec,
    UnknownElement,
    UnknownSimplex,
)
from finspace.fixtures import circle_arc_cover, dunce_hat, finite_circle_cover
from finspace.generators import generate_composite_instance
from finspace.homology import boundary_matrices
from finspace.persistence import check_truncation_theorem, persistence_over_chain
from finspace.posets import build_poset

X = build_poset(["a", "b"], [("a", "b")])
Y = build_poset(["c"], [])
R = Relation(X, Y, frozenset({("a", "c")}))
EMPTY_POSET = build_poset([], [])
# two equal posets: a relation between them is told apart by its names only
_TWINS = [{"name": n, "elements": ["a", "b"], "relations": [["a", "b"]]} for n in ("X0", "X1")]
EMPTY_COMPLEX = SimplicialComplex([])


def _dunce_hat_cover() -> Cover:
    """One member, the dunce hat, whose triviality is Unknown: N0 is empty."""
    D = dunce_hat()
    return Cover("complex", D, (("D", D),))


CASES = {
    # cylinders
    "relation-pair-outside-target": (
        lambda: Relation(X, Y, frozenset({("a", "zz")})),
        UnknownElement, "'zz' not in target poset",
    ),
    "image-of-unknown-element": (
        lambda: R.image(["zz"]), UnknownElement, "'zz' not in source poset",
    ),
    "preimage-of-unknown-element": (
        lambda: R.preimage(["zz"]), UnknownElement, "'zz' not in target poset",
    ),
    "duplicate-copy-names": (
        lambda: CylinderSpec((("X", X), ("X", Y)), (R,)),
        MalformedSpec, "duplicate copy names",
    ),
    "right-relation-stored-backwards": (
        lambda: CylinderSpec((("X0", Y), ("X1", X)), (R,)),
        MalformedSpec, "relation 0 marked right does not match X0->X1",
    ),
    "left-relation-stored-forwards": (
        lambda: CylinderSpec((("X0", X), ("X1", Y)), (Relation(X, Y, R.pairs, LEFT),)),
        MalformedSpec, "relation 0 marked left does not match X1->X0",
    ),
    "right-relation-named-backwards-between-equal-posets": (
        lambda: CylinderSpec.from_doc({"spaces": _TWINS, "relations": [
            {"source": "X1", "target": "X0", "pairs": [], "direction": "right"}
        ]}),
        MalformedSpec, "relation 0 marked right does not match X0->X1",
    ),
    "left-relation-named-forwards-between-equal-posets": (
        lambda: CylinderSpec.from_doc({"spaces": _TWINS, "relations": [
            {"source": "X0", "target": "X1", "pairs": [], "direction": "left"}
        ]}),
        MalformedSpec, "relation 0 marked left does not match X1->X0",
    ),
    "mapping-cylinder-counts": (
        lambda: multiple_mapping_cylinder([], [("X", X), ("Y", Y)], []),
        MalformedSpec, "need one map and direction per adjacent pair",
    ),
    "intermediate-side": (
        lambda: check_intermediate(*generate_composite_instance(0), "up"),
        MalformedSpec, "side must be left or right, got 'up'",
    ),
    # covers
    "intersection-of-no-members": (
        lambda: circle_arc_cover().intersection([]),
        InvalidCover, "intersection of an empty index set",
    ),
    "containing-intersections-of-a-complex-cover": (
        lambda: containing_intersections(circle_arc_cover(), "v0"),
        InvalidCover, "containing_intersections needs a cover of a finite space",
    ),
    "containing-intersections-of-an-unknown-point": (
        lambda: containing_intersections(finite_circle_cover(), "zz"),
        UnknownElement, "'zz' is not a point of the covered space",
    ),
    "chains-containing-of-a-space-cover": (
        lambda: chains_containing(finite_circle_cover(), ["a"]),
        InvalidCover, "chains_containing needs a cover of a complex",
    ),
    "chains-containing-of-an-unknown-simplex": (
        lambda: chains_containing(circle_arc_cover(), ["zz"]),
        UnknownSimplex, "['zz'] is not a simplex of the parent",
    ),
    "negative-restarts-classifying-a-space-cover": (
        lambda: classify_cover(finite_circle_cover(), restarts=-1),
        MalformedSpec, "restarts must be non-negative, got -1",
    ),
    "negative-restarts-checking-a-space-cover": (
        lambda: check_nerve_theorem(finite_circle_cover(), "good-space", restarts=-1),
        MalformedSpec, "restarts must be non-negative, got -1",
    ),
    "empty-n0": (
        lambda: check_nerve_theorem(_dunce_hat_cover(), "trivial-subnerve-complex"),
        InvalidCover, "N0 is empty; no verified intersections",
    ),
    "empty-reduced-n0": (
        lambda: check_nerve_theorem(_dunce_hat_cover(), "reduced-complex"),
        InvalidCover, "reduced N0 is empty; no verified intersections",
    ),
    # collapse
    "collapse-the-empty-space": (
        lambda: clp.greedy_collapse_space(EMPTY_POSET),
        EmptySpace, "cannot collapse the empty space",
    ),
    "triviality-of-the-empty-space": (
        lambda: clp.is_homotopically_trivial_poset(EMPTY_POSET),
        EmptyObject, "the empty space is not homotopically trivial",
    ),
    "triviality-of-the-empty-complex": (
        lambda: clp.is_homotopically_trivial_complex(EMPTY_COMPLEX),
        EmptyObject, "the empty complex is not homotopically trivial",
    ),
    # homology
    "boundary-matrices-of-the-empty-complex": (
        lambda: boundary_matrices(EMPTY_COMPLEX),
        EmptyComplex, "cannot build chain complex of the empty complex",
    ),
    # persistence
    "persistence-over-an-empty-index-set": (
        lambda: persistence_over_chain(circle_arc_cover(), [[], ["U1"]]),
        MalformedSpec, "empty index set at step 1",
    ),
    "persistence-over-an-index-set-that-repeats-a-member": (
        lambda: persistence_over_chain(circle_arc_cover(), [["U1", "U1"], ["U1", "U2"]]),
        MalformedSpec, "the index set at step 1 repeats an id: ('U1', 'U1')",
    ),
    "truncation-with-the-classification-of-another-cover": (
        lambda: check_truncation_theorem(
            circle_arc_cover(), classification=classify_cover(_dunce_hat_cover())
        ),
        InvalidCover, "the classification is not of this cover",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_input_error_type_and_message(name):
    call, error, message = CASES[name]
    with pytest.raises(FinspaceError) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message

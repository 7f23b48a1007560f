"""Hand-built golden instances used by tests and the verification suite."""

from __future__ import annotations

from .complexes import SimplicialComplex
from .covers import Cover
from .cylinders import LEFT, RIGHT, CylinderSpec, Relation
from .posets import FinitePoset, build_poset, chain


def worked_example_spec() -> CylinderSpec:
    """Three spaces joined by a right-going and a left-going relation.

    X0 = a1 < a2, X1 = b1 < b2 < b3, X2 = c1 < c2, with
    R0 = {(a1,b1), (a2,b2)} right and R1 = {(c1,b2), (c2,b3)} left.
    """
    X0 = chain(["a1", "a2"])
    X1 = chain(["b1", "b2", "b3"])
    X2 = chain(["c1", "c2"])
    R0 = Relation(
        X0, X1, frozenset({("a1", "b1"), ("a2", "b2")}),
        direction=RIGHT, source_name="X0", target_name="X1",
    )
    R1 = Relation(
        X2, X1, frozenset({("c1", "b2"), ("c2", "b3")}),
        direction=LEFT, source_name="X2", target_name="X1",
    )
    return CylinderSpec((("X0", X0), ("X1", X1), ("X2", X2)), (R0, R1))


def circle_complex() -> SimplicialComplex:
    """A hexagon: the circle as a 1-complex on w0..w5."""
    verts = [f"w{i}" for i in range(6)]
    return SimplicialComplex(
        [[verts[i], verts[(i + 1) % 6]] for i in range(6)]
    )


def circle_arc_cover() -> Cover:
    """Three closed arcs covering the hexagon, pairwise meeting in a vertex.

    The triple intersection is empty, so the nerve is the boundary of a
    2-simplex.
    """
    arcs = {
        "U1": [["w0", "w1"], ["w1", "w2"]],
        "U2": [["w2", "w3"], ["w3", "w4"]],
        "U3": [["w4", "w5"], ["w5", "w0"]],
    }
    return Cover(
        "complex",
        circle_complex(),
        tuple((name, SimplicialComplex(facets)) for name, facets in arcs.items()),
    )


def two_triangles() -> SimplicialComplex:
    """Two solid triangles glued along the edge v0-v2."""
    return SimplicialComplex([["v0", "v1", "v2"], ["v0", "v2", "v3"]])


def dunce_hat() -> SimplicialComplex:
    """An 8-vertex, 24-edge, 17-triangle triangulation of the dunce hat.

    Built as the quotient of a triangulated disc (a nonagon around an inner
    pentagon) whose boundary is wrapped three times, twice forwards and once
    backwards, onto the 3-cycle v1-v2-v3.  Every edge lies in at least two
    triangles, so the complex has no free face, yet it is acyclic.
    """
    # v1 = identified corner, v2/v3 = interior points of the identified edge,
    # v4..v8 = the inner pentagon
    facets = [
        ["v1", "v2", "v4"],
        ["v2", "v3", "v4"],
        ["v3", "v4", "v5"],
        ["v1", "v3", "v5"],
        ["v1", "v2", "v5"],
        ["v2", "v5", "v6"],
        ["v2", "v3", "v6"],
        ["v1", "v3", "v6"],
        ["v1", "v6", "v7"],
        ["v1", "v3", "v7"],
        ["v3", "v7", "v8"],
        ["v2", "v3", "v8"],
        ["v1", "v2", "v8"],
        ["v1", "v4", "v8"],
        ["v4", "v5", "v6"],
        ["v4", "v6", "v7"],
        ["v4", "v7", "v8"],
    ]
    return SimplicialComplex(facets)


def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5],
        [2, 3, 4], [2, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6],
    ]
    return SimplicialComplex([[f"p{v}" for v in f] for f in facets])


def finite_circle() -> FinitePoset:
    """The six-point finite model of the circle: three maxima over three minima."""
    return build_poset(
        ["x1", "x2", "x3", "y1", "y2", "y3"],
        [
            ("x1", "y1"), ("x2", "y1"),
            ("x2", "y2"), ("x3", "y2"),
            ("x3", "y3"), ("x1", "y3"),
        ],
    )


def finite_circle_cover() -> Cover:
    """Good cover of the finite circle by the minimal open sets of its maxima."""
    X = finite_circle()
    return Cover(
        "poset",
        X,
        (
            ("U1", X.down_set("y1")),
            ("U2", X.down_set("y2")),
            ("U3", X.down_set("y3")),
        ),
    )

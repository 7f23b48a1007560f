"""Relation cylinders and the multiple cylinder of a chain of relations.

A relation between two finite spaces induces a cylinder: the disjoint union
with the cross order generated by related pairs.  Chains of direction-tagged
relations induce the multiple cylinder, where even-indexed spaces sit below
their odd-indexed neighbours.  The hypothesis checkers evaluate, per point,
the triviality/collapsibility of the open hull of preimages (or the closure
of images) and, when everything is collapsible, execute and verify the
corresponding collapse of the cylinder onto one end.  Hypothesis sets are
masks over the kept end, decided once per distinct set on its own masks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from . import collapse as clp
from .errors import (
    Document,
    MalformedSpec,
    MismatchedSpaces,
    NotOrderPreserving,
    UnknownElement,
    _field,
    _id_lists,
    _objects,
    _string,
)
from .posets import FinitePoset, _hull, _ids, build_poset

RIGHT = "right"
LEFT = "left"


def tag(copy: str, element: str) -> str:
    """Id of an element in a named copy: ``<copy>.<element>``.

    The copy name has ``\\`` and ``.`` escaped by a backslash, so the first
    unescaped ``.`` ends it and distinct pairs get distinct ids; the element
    name is kept as it is.  The id of a copy name without either character
    is the plain join.
    """
    copy = copy.replace("\\", "\\\\").replace(".", "\\.")
    return f"{copy}.{element}"


@dataclass(frozen=True)
class Relation:
    """A subset of source x target with a direction tag for sequence position."""

    source: FinitePoset
    target: FinitePoset
    pairs: frozenset[tuple[str, str]]
    direction: str = RIGHT
    source_name: str = "X"
    target_name: str = "Y"

    def __post_init__(self):
        for a, b in sorted(self.pairs):  # the least offending pair is named
            if a not in self.source:
                raise UnknownElement(f"{a!r} not in source poset")
            if b not in self.target:
                raise UnknownElement(f"{b!r} not in target poset")
        if self.direction not in (RIGHT, LEFT):
            raise MalformedSpec(f"direction must be right or left, got {self.direction!r}")

    def image(self, members) -> frozenset[str]:
        members = frozenset(members)
        for x in sorted(members):
            if x not in self.source:
                raise UnknownElement(f"{x!r} not in source poset")
        return frozenset(b for a, b in self.pairs if a in members)

    def preimage(self, members) -> frozenset[str]:
        members = frozenset(members)
        for y in sorted(members):
            if y not in self.target:
                raise UnknownElement(f"{y!r} not in target poset")
        return frozenset(a for a, b in self.pairs if b in members)


def compose_relations(R1: Relation, R2: Relation) -> Relation:
    """R2 after R1: pairs (x, z) with some middle y related on both sides."""
    if R1.target != R2.source:
        raise MismatchedSpaces(
            f"{R1.source_name} -> {R1.target_name} and {R2.source_name} -> {R2.target_name}"
            " do not compose: the target of the first is not the source of the second"
        )
    by_middle: dict[str, set[str]] = {}
    for y, z in R2.pairs:
        by_middle.setdefault(y, set()).add(z)
    pairs = {
        (x, z) for x, y in R1.pairs for z in by_middle.get(y, ())
    }
    return Relation(
        R1.source,
        R2.target,
        frozenset(pairs),
        direction=RIGHT,
        source_name=R1.source_name,
        target_name=R2.target_name,
    )


def relation_cylinder(R: Relation) -> FinitePoset:
    """B(R): disjoint union with the order generated by x <= y for related pairs.

    Elements are tagged "<copy>.<id>" with the relation's space names.
    """
    sn, tn = R.source_name, R.target_name
    if sn == tn:
        raise MalformedSpec("source and target copies need distinct names")
    return _cylinder(((sn, R.source), (tn, R.target)), [(sn, tn, R.pairs)])


def _cylinder(spaces, cross) -> FinitePoset:
    """The order on the tagged copies of the named spaces generated by their
    Hasse pairs and by (lower copy, upper copy, pairs (lower, upper)) in cross."""
    elements: list[str] = []
    gen: list[tuple[str, str]] = []
    for name, X in spaces:
        elements += [tag(name, x) for x in X.elements]
        gen += [(tag(name, a), tag(name, b)) for a, b in X.hasse]
    for lo, hi, pairs in cross:
        gen += [(tag(lo, a), tag(hi, b)) for a, b in pairs]
    return build_poset(elements, gen)


def graph_relation(
    f: dict[str, str],
    X: FinitePoset,
    Y: FinitePoset,
    direction: str = RIGHT,
    source_name: str = "X",
    target_name: str = "Y",
) -> Relation:
    """The relation x R f(x) of an order-preserving map, validated."""
    for x in X.elements:
        if x not in f or f[x] not in Y:
            raise NotOrderPreserving(f"map undefined or out of range at {x!r}")
    for a, b in X.hasse:
        if not Y.leq(f[a], f[b]):
            raise NotOrderPreserving(f"{a!r} < {b!r} but images are not ordered")
    return Relation(
        X,
        Y,
        frozenset((x, f[x]) for x in X.elements),
        direction=direction,
        source_name=source_name,
        target_name=target_name,
    )


def mapping_cylinder(
    f: dict[str, str],
    X: FinitePoset,
    Y: FinitePoset,
    source_name: str = "X",
    target_name: str = "Y",
) -> FinitePoset:
    """Non-Hausdorff mapping cylinder B(f), as the cylinder of the graph relation."""
    return relation_cylinder(graph_relation(f, X, Y, RIGHT, source_name, target_name))


@dataclass(frozen=True)
class CylinderSpec(Document):
    """Spaces X_0..X_n and direction-tagged relations R_0..R_{n-1}.

    ``spaces`` is a list of (copy name, poset).  A right relation R_i has
    source X_i and target X_{i+1}; a left one the other way around.  In the
    document each space is a poset document with a ``name`` and each
    relation names its source and target spaces, which must be its two
    copies in the order of its direction even when their posets are equal;
    its direction defaults to right.
    """

    spaces: tuple[tuple[str, FinitePoset], ...]
    relations: tuple[Relation, ...] = field(default=())

    def __post_init__(self):
        if len(self.spaces) < 2 or len(self.relations) != len(self.spaces) - 1:
            raise MalformedSpec(
                f"{len(self.spaces)} spaces need {len(self.spaces) - 1} relations"
            )
        names = [n for n, _ in self.spaces]
        if len(set(names)) != len(names):
            raise MalformedSpec("duplicate copy names")
        for i, R in enumerate(self.relations):
            lo, hi = self.spaces[i][1], self.spaces[i + 1][1]
            _check_direction(i, R.direction, (R.source, R.target), lo, hi)

    def to_doc(self) -> dict:
        return {
            "spaces": [{"name": n, **X.to_doc()} for n, X in self.spaces],
            "relations": [
                {
                    "source": R.source_name,
                    "target": R.target_name,
                    "direction": R.direction,
                    "pairs": sorted(map(list, R.pairs)),
                }
                for R in self.relations
            ],
        }

    @staticmethod
    def from_doc(doc) -> "CylinderSpec":
        spaces = []
        for s in _objects(doc, "spaces", "the cylinder"):
            name = _string(_field(s, "name", "a space"), "a space name")
            spaces.append((name, FinitePoset.from_doc(s, "a space")))
        by_name = dict(spaces)

        def space(r, key):
            name = _string(_field(r, key, "a relation"), f"a relation {key}")
            if name not in by_name:
                raise MalformedSpec(f"relation {key} {name!r} names no space")
            return name, by_name[name]

        relations = []
        for r in _objects(doc, "relations", "the cylinder"):
            (sn, source), (tn, target) = space(r, "source"), space(r, "target")
            pairs = _id_lists(_field(r, "pairs", "a relation"), "pairs", 2)
            direction = _string(r.get("direction", RIGHT), "a relation direction")
            relations.append(
                Relation(source, target, frozenset(map(tuple, pairs)), direction, sn, tn)
            )
        spec = CylinderSpec(tuple(spaces), tuple(relations))
        # equal posets pass the check above, so the document's names decide
        for i, R in enumerate(relations):
            lo, hi = spaces[i][0], spaces[i + 1][0]
            _check_direction(i, R.direction, (R.source_name, R.target_name), lo, hi)
        return spec


def _check_direction(i: int, direction: str, ends: tuple, lo, hi) -> None:
    """Raise MalformedSpec unless the ends of relation i, its (source,
    target), run from lo to hi when it is marked right and from hi to lo
    when it is marked left: lo and hi stand for copies i and i + 1, as
    posets or as names."""
    if direction == RIGHT and ends != (lo, hi):
        raise MalformedSpec(f"relation {i} marked right does not match X{i}->X{i+1}")
    if direction == LEFT and ends != (hi, lo):
        raise MalformedSpec(f"relation {i} marked left does not match X{i+1}->X{i}")


def multiple_cylinder(spec: CylinderSpec) -> FinitePoset:
    """Multiple cylinder of relations: even-indexed copies sit below odd ones.

    Both stored orientations of a relation normalize to lower-space x
    upper-space pairs before the order is generated.
    """
    cross = []
    for i, R in enumerate(spec.relations):
        even, odd = (i, i + 1) if i % 2 == 0 else (i + 1, i)
        # relation pairs run source -> target; orient each to (even, odd)
        source_is_even = (R.direction == RIGHT) == (even == i)
        pairs = R.pairs if source_is_even else [(b, a) for a, b in R.pairs]
        cross.append((spec.spaces[even][0], spec.spaces[odd][0], pairs))
    return _cylinder(spec.spaces, cross)


def multiple_mapping_cylinder(
    maps: list[dict[str, str]],
    spaces: list[tuple[str, FinitePoset]],
    directions: list[str],
) -> FinitePoset:
    """Multiple non-Hausdorff mapping cylinder via the induced graph relations."""
    if not len(maps) == len(directions) == len(spaces) - 1:
        raise MalformedSpec("need one map and direction per adjacent pair")
    relations = []
    for i, (f, d) in enumerate(zip(maps, directions)):
        lo_name, lo = spaces[i]
        hi_name, hi = spaces[i + 1]
        if d == RIGHT:
            relations.append(graph_relation(f, lo, hi, RIGHT, lo_name, hi_name))
        elif d == LEFT:
            relations.append(graph_relation(f, hi, lo, LEFT, hi_name, lo_name))
        else:
            raise MalformedSpec(f"direction must be right or left, got {d!r}")
    return multiple_cylinder(CylinderSpec(tuple(spaces), tuple(relations)))


# ---------------------------------------------------------------------------
# hypothesis sets and collapse checkers
# ---------------------------------------------------------------------------


def _hypothesis_masks(R: Relation, side: str) -> list[int]:
    """Per far position, the hypothesis set as a mask over the kept space:
    the kept points related to the far point's down set (left) or up set
    (right), hulled the same way in the kept space."""
    kept, _, far, _, _ = _side(R, side)
    related = [0] * len(far)
    for a, b in R.pairs:
        k, z = (a, b) if side == "left" else (b, a)
        related[far._at(z)] |= 1 << kept._at(k)
    out = []
    for i, beyond in enumerate(_strict(far, side)):
        mask = related[i]
        for j in _ids(beyond):
            mask |= related[j]
        out.append(_hull(mask, _strict(kept, side)))
    return out


def _strict(X: FinitePoset, side: str) -> list[int]:
    """X's strict down sets (left) or up sets (right), by position."""
    return X._below if side == "left" else X._above


def _subspace_verdicts(X: FinitePoset, mask: int) -> dict:
    if not mask:
        empty = clp.TriStateResult("no", note="empty subspace")
        return {"empty": True, "triviality": empty, "collapsibility": empty}
    triviality, collapsibility = clp._space_verdicts(X, mask)
    return {"empty": False, "triviality": triviality, "collapsibility": collapsibility}


def check_collapse_left(R: Relation) -> dict:
    """Hypotheses of the preimage-side collapse and, when they all hold,
    an executed certificate that B(R) collapses onto the source copy."""
    return _check_collapse(R, "left")


def check_collapse_right(R: Relation) -> dict:
    """Dual checker: image-side hypotheses and collapse onto the target copy."""
    return _check_collapse(R, "right")


def _side(R: Relation, side: str):
    """Kept space and copy name, far space and copy name, and the weak-point
    kind a far point is removed as."""
    if side == "left":
        return R.source, R.source_name, R.target, R.target_name, clp.DOWN_WEAK
    return R.target, R.target_name, R.source, R.source_name, clp.UP_WEAK


def _check_collapse(R: Relation, side: str) -> dict:
    kept, _, far, _, _ = _side(R, side)
    masks = _hypothesis_masks(R, side)
    verdicts = {m: _subspace_verdicts(kept, m) for m in set(masks)}
    per_element = {z: dict(verdicts[m]) for z, m in zip(far.elements, masks)}
    report = _aggregate_hypotheses(per_element)
    B = relation_cylinder(R)
    if report["hypothesis_collapsibility"] == "yes":
        report["collapse"] = _execute_target_removal(R, B, side, masks)
    else:
        report["collapse"] = {"verdict": "not-attempted"}
    report["per_element"] = per_element
    report["height_bound"] = B.height()
    return report


def _aggregate_hypotheses(per_element: dict) -> dict:
    return {
        f"hypothesis_{key}": clp.aggregate_verdict(v[key].verdict for v in per_element.values())
        for key in ("triviality", "collapsibility")
    }


def _execute_target_removal(R: Relation, B: FinitePoset, side: str, masks: list[int]) -> dict:
    """Remove the far copy's points of B = B(R) one by one along a linear
    extension.

    Each removal is verified twice: the punctured set of the removed point in
    the remaining poset must equal its hypothesis set (``masks``, by far
    position), and the point must be a weak point of the remaining poset at
    removal time.  A copy's ids share the prefix ``<copy>.``, so its points
    sit at consecutive positions of B in the copy's own order, and a mask
    over the copy moves to B's positions by one shift.
    """
    kept, kept_name, far, far_name, kind = _side(R, side)
    kept_at, far_at = (bisect_left(B.elements, tag(name, "")) for name in (kept_name, far_name))
    order = list(far._order)  # ascending: lower points first
    if kind == clp.UP_WEAK:  # upper points first
        order.reverse()
    strict = _strict(B, side)
    steps = []
    alive = (1 << len(B)) - 1
    identity_ok = True
    for k in order:
        i = far_at + k
        if strict[i] & alive != masks[k] << kept_at:
            identity_ok = False
        if not clp.removable(B, alive, i, kind):
            return {
                "verdict": "failed",
                "failed_at": far.elements[k],
                "proof_identity": identity_ok,
                "note": "removed point is not a weak point at removal time",
            }
        steps.append((i, kind))
        alive ^= 1 << i
    cert = clp.CollapseCertificate._of_positions(clp.POINT_REMOVAL, B.elements, steps)
    target = B.elements[kept_at : kept_at + len(kept)]
    replay_ok = clp.replay_space_certificate(B, cert, target=target)
    return {
        "verdict": "yes" if replay_ok else "failed",
        "proof_identity": identity_ok,
        "certificate": cert,
        "target": kept_name,
    }


def check_intermediate(R1: Relation, R2: Relation, side: str) -> dict:
    """Both hypothesis families (on one factor and on the composite), with the
    two one-sided collapse certificates and the height bounds."""
    composite = compose_relations(R1, R2)
    if side not in ("left", "right"):
        raise MalformedSpec(f"side must be left or right, got {side!r}")
    factor, kept = (R1, R1.source) if side == "left" else (R2, R2.target)
    check = check_collapse_left if side == "left" else check_collapse_right
    factor_report, composite_report = check(factor), check(composite)
    verdict = clp.aggregate_verdict(
        r["hypothesis_collapsibility"] for r in (factor_report, composite_report)
    )
    return {
        "side": side,
        "factor": factor_report,
        "composite": composite_report,
        "verdict": verdict,
        "height_bound_intermediate": kept.height(),
        "height_bound_cylinder": composite_report["height_bound"],
        "note": (
            "bounded-deformation claims are reported as two one-sided "
            "collapse certificates; the deformation itself is not synthesized"
        ),
    }

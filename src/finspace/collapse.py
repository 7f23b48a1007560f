"""Collapse predicates for finite spaces and simplicial complexes.

Contractibility of a finite space is decidable (iterated beat-point removal
down to the core).  Collapsibility and homotopical triviality are not, so
those checkers answer with a three-valued verdict: Yes carries a replayable
certificate, No carries a non-trivial homology witness, Unknown is honest
failure of the greedy search.

Each point-removal kind (down-beat, up-beat, down-weak, up-weak) names a
side, the punctured down or up set of the point, and a test from
``posets.py``.  The beat test, ``_one_extreme``, walks once to an extreme
point of the punctured set and checks that the rest of the set lies below
(or above) it.  The weak test asks only whether the punctured set is
contractible, which ``_contractible`` answers on ints with the beat test,
building no removal steps: the core of a finite space is unique up to
homeomorphism (Stong), so the verdict does not depend on the order of the
beat-point removals.  ``removable`` reads a kind's side and test from one
table, and certificate replay and the cylinder executor call it, so replay
accepts any step that is valid for its declared kind.  The core and greedy
searches run the one point-removal loop, ``posets._prune``, with the same
tests and name the (position, side) steps it records by kind.  Its
worklist retests a point that failed only after a point comparable to it
was removed, and taking the lowest position first, it removes the point a
rescan from the first point would.  A subspace is an int mask over its
parent's element positions, read with the parent's reachability masks; one
weak-point collapse and one triviality fallback act on such masks for
whole spaces, links, cylinder hypothesis sets and cover intersections,
with the certificates of the subposets they stand for.  No subposet is
built: a stuck search reads the homology of its masks.

Free-face searches, the truncation checker, replay and ``free_faces`` share
one state, built by ``_free_state``: per simplex of the index, whether it is
present and the number and id sum of its present codimension-1 cofaces,
updated in O(dim) per removed pair, so no complex is rebuilt per step.  One
loop on ints, ``_collapse_run``, removes free pairs among given ids and
never touches a simplex outside them; it stops when no id of positive
dimension is left, records (face id, coface id) pairs, and a certificate is
built once, for the schedule that succeeded, so a verdict-only caller
builds none.  When the ids are what a complex K has beyond a subcomplex L,
a coface in K of an id lies outside L too, so the counts over the ids are
the counts in K: a pass that removes every id collapses K onto L, and one
that leaves only vertices collapses K onto L plus isolated vertices.  The
same loop therefore gives a collapse to a point (all of K's ids, one
vertex left), a targeted collapse (L the target, none left) and the
truncation checker's relative pass (L a sub-union already collapsed).  A
subcomplex is searched as its simplex ids on its parent's index, and a
stuck search reads the homology of the same ids.  A target is found on
that index too, by its facets closed downward
(``SimplexIndex.down_closure``), so no index of the target is built.  The
loop's free list is its only record of which ids are free: the present ids
with one present coface.

A collapsibility verdict gives a triviality verdict by one rule per kind of
object: Yes and No carry over; after Unknown a subcomplex has no test left
(``_after_complex_collapse``) and a subspace has its core
(``_after_collapse``).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import SimplexIndex, SimplicialComplex
from .errors import (
    EmptyObject,
    EmptySpace,
    InvariantViolation,
    MalformedSpec,
    TargetNotInduced,
)
from .homology import (
    HomologyResult,
    _homology,
    _poset_homology,
    homology_equal,
    reduced_homology,
)
from .posets import FinitePoset, _contractible, _height, _ids, _one_extreme, _prune, _weak

DOWN_BEAT = "down-beat"
UP_BEAT = "up-beat"
DOWN_WEAK = "down-weak"
UP_WEAK = "up-weak"


@dataclass(frozen=True)
class PointRemoval:
    element: str
    kind: str  # down-beat / up-beat / down-weak / up-weak

    def to_doc(self) -> dict:
        return {"kind": self.kind, "element": self.element}


@dataclass(frozen=True)
class FreeFacePair:
    face: tuple[str, ...]
    coface: tuple[str, ...]

    def to_doc(self) -> dict:
        return {"kind": "free-pair", "face": list(self.face), "coface": list(self.coface)}


@dataclass(frozen=True)
class CollapseCertificate:
    """Ordered removal steps witnessing a collapse onto the declared target."""

    steps: tuple = ()

    def to_json(self) -> str:
        return json.dumps({"steps": [s.to_doc() for s in self.steps]})

    @staticmethod
    def from_json(text: str) -> "CollapseCertificate":
        steps = []
        for doc in json.loads(text)["steps"]:
            if doc["kind"] == "free-pair":
                steps.append(FreeFacePair(tuple(doc["face"]), tuple(doc["coface"])))
            else:
                steps.append(PointRemoval(doc["element"], doc["kind"]))
        return CollapseCertificate(tuple(steps))


@dataclass(frozen=True)
class TriStateResult:
    verdict: str  # "yes" / "no" / "unknown"
    certificate: CollapseCertificate | None = None
    witness: HomologyResult | None = None
    note: str = ""

    def __post_init__(self):
        if self.verdict == "yes" and self.certificate is None:
            raise InvariantViolation("a yes verdict needs a certificate")
        # empty subobjects carry a note instead of a homology witness
        if self.verdict == "no" and self.witness is None and not self.note:
            raise InvariantViolation("a no verdict needs a homology witness or a note")
        if self.verdict == "no" and self.witness is not None and self.witness.is_trivial():
            raise InvariantViolation("a no verdict cannot rest on trivial homology")

    def is_yes(self) -> bool:
        return self.verdict == "yes"

    def to_doc(self) -> dict:
        doc: dict = {"verdict": self.verdict}
        if self.witness is not None:
            doc["witness"] = self.witness.summary()
        if self.note:
            doc["note"] = self.note
        return doc


def yes(certificate: CollapseCertificate) -> TriStateResult:
    return TriStateResult("yes", certificate=certificate)


def no(witness: HomologyResult, note: str = "") -> TriStateResult:
    return TriStateResult("no", witness=witness, note=note)


def unknown(note: str) -> TriStateResult:
    return TriStateResult("unknown", note=note)


_VERDICT_ORDER = {"no": 0, "unknown": 1, "yes": 2}


def aggregate_verdict(verdicts: Iterable[str]) -> str:
    """Min over the lattice no < unknown < yes; empty input aggregates to yes."""
    out = "yes"
    for v in verdicts:
        if _VERDICT_ORDER[v] < _VERDICT_ORDER[out]:
            out = v
    return out


# ---------------------------------------------------------------------------
# finite spaces
# ---------------------------------------------------------------------------


BEAT_KINDS = (DOWN_BEAT, UP_BEAT)
WEAK_KINDS = (DOWN_WEAK, UP_WEAK)
# per kind, the side of its punctured set (0 down, 1 up) and the test it passes
_KIND_TESTS = {
    DOWN_BEAT: (0, _one_extreme),
    UP_BEAT: (1, _one_extreme),
    DOWN_WEAK: (0, _weak),
    UP_WEAK: (1, _weak),
}


def removable(X: FinitePoset, alive: int, i: int, kind: str) -> bool:
    """Whether the point at position i is of the given kind in the subspace
    ``alive`` of X, a mask over X's element positions.

    The down kinds look at the punctured down set of the point in alive, the
    up kinds at its punctured up set; both are read off X's reachability
    masks, since a subspace carries the induced order.  That set must be
    non-empty and have exactly one maximal element (down-beat), exactly one
    minimal element (up-beat), or be contractible (weak kinds).  An unknown
    kind is never removable.
    """
    if kind not in _KIND_TESTS:
        return False
    side, test = _KIND_TESTS[kind]
    strict, beyond = (X._above, X._below) if side else (X._below, X._above)
    punctured = strict[i] & alive
    return bool(punctured) and test(X, punctured, beyond, strict)


def _everything(X: FinitePoset) -> int:
    return (1 << len(X)) - 1


def _point_kind(X: FinitePoset, x: str, kinds: tuple[str, str]) -> str | None:
    i, alive = X._at(x), _everything(X)
    return next((kind for kind in kinds if removable(X, alive, i, kind)), None)


def beat_point_kind(X: FinitePoset, x: str) -> str | None:
    return _point_kind(X, x, BEAT_KINDS)


def weak_point_kind(X: FinitePoset, x: str) -> str | None:
    return _point_kind(X, x, WEAK_KINDS)


def _removable_points(X: FinitePoset, kind_of) -> list[tuple[str, str]]:
    return [(x, kind) for x in X.elements if (kind := kind_of(X, x))]


def beat_points(X: FinitePoset) -> list[tuple[str, str]]:
    """All beat points with their kind, in element order."""
    return _removable_points(X, beat_point_kind)


def weak_points(X: FinitePoset) -> list[tuple[str, str]]:
    return _removable_points(X, weak_point_kind)


def _peel(
    X: FinitePoset, alive: int, kinds: tuple[str, str], keep: int = 0, size: int = 1
) -> tuple[CollapseCertificate, int]:
    """Remove from the mask alive the first point outside the mask keep, in
    element order, that has one of the kinds (``BEAT_KINDS`` or
    ``WEAK_KINDS``, the down kind tried first), round after round, until no
    such point is left or only ``size`` points remain.  Returns the removals
    and what is left alive.  The loop is ``posets._prune`` with the kinds'
    test, recording (position, side)."""
    steps: list[tuple[int, int]] = []
    _, test = _KIND_TESTS[kinds[0]]  # both kinds share the test
    left = _prune(X, alive, test, keep, size, steps)
    names = X.elements
    return CollapseCertificate(tuple(PointRemoval(names[i], kinds[s]) for i, s in steps)), left


def _contraction(X: FinitePoset, alive: int) -> CollapseCertificate | None:
    """Beat-point removals taking the non-empty subspace alive of X to a
    point, or None when its core is larger."""
    cert, left = _peel(X, alive, BEAT_KINDS)
    return cert if left.bit_count() == 1 else None


def core(X: FinitePoset) -> tuple[FinitePoset, CollapseCertificate]:
    """Remove beat points (lexicographically first each round) until none remain."""
    cert, alive = _peel(X, _everything(X), BEAT_KINDS)
    return X.restrict(X._members(alive)), cert


def is_contractible_space(X: FinitePoset) -> bool:
    if not len(X):
        raise EmptySpace("contractibility of the empty space is not defined")
    return _contractible(X, _everything(X))


def gamma_points(X: FinitePoset) -> list[tuple[str, TriStateResult]]:
    """Per element, the triviality verdict of its link (punctured down + up sets)."""
    out = []
    for x, below, above in zip(X.elements, X._below, X._above):
        link = below | above
        out.append((x, _triviality(X, link) if link else unknown("empty link")))
    return out


def _stuck(homology, whole, target, note: str) -> TriStateResult:
    """Verdict of a search that got stuck: No when the homology of the whole
    object rules out the declared end state, else Unknown."""
    hom = homology(whole)
    if target is None:
        if not hom.is_trivial():
            return no(hom, "non-trivial reduced homology")
    else:
        target_hom = homology(target)
        if not homology_equal(hom, target_hom):
            witness = hom if not hom.is_trivial() else target_hom
            return no(witness, "homology differs from target")
    return unknown(note)


def _weak_collapse(X: FinitePoset, alive: int, target: int | None = None) -> TriStateResult:
    """Greedy weak-point collapse of the non-empty subspace alive of X to a
    point, or onto the subspace target (both masks over X's positions).  A
    stuck search reads the homology of the masks, each in its own degrees,
    to decide No or Unknown."""
    size = 1 if target is None else target.bit_count()
    cert, left = _peel(X, alive, WEAK_KINDS, target or 0, size)
    if left.bit_count() == size:
        return yes(cert)
    note = "greedy weak-point removal got stuck"
    return _stuck(lambda m: _poset_homology(X, m, _height(X, m) + 1), alive, target, note)


def greedy_collapse_space(
    X: FinitePoset, target: Iterable[str] | None = None
) -> TriStateResult:
    """Collapse X to a point (or onto a target subposet) by weak-point removals."""
    if not len(X):
        raise EmptySpace("cannot collapse the empty space")
    return _weak_collapse(X, _everything(X), _target_mask(X, target))


def _target_mask(X: FinitePoset, target: Iterable[str] | None) -> int | None:
    """The mask of a target subspace, or None for no target; an empty target
    raises EmptySpace and one naming an element outside X TargetNotInduced."""
    if target is None:
        return None
    keep = frozenset(target)
    if not keep:
        raise EmptySpace("cannot collapse onto the empty space")
    if not keep <= set(X.elements):
        raise TargetNotInduced(f"target {sorted(keep)} is not a subset of the space")
    return X._mask(keep)


def replay_space_certificate(
    X: FinitePoset, cert: CollapseCertificate, target: Iterable[str] | None = None
) -> bool:
    """Check each removal is valid for its declared kind; verify the end state.
    An empty X or target raises EmptySpace and a target naming an element
    outside X raises TargetNotInduced, as a search would."""
    if not len(X):
        raise EmptySpace("cannot collapse the empty space")
    keep = _target_mask(X, target)
    alive = _everything(X)
    for step in cert.steps:
        if not isinstance(step, PointRemoval) or step.element not in X:
            return False
        i = X._at(step.element)
        if not alive >> i & 1 or not removable(X, alive, i, step.kind):
            return False
        alive ^= 1 << i
    if keep is not None:
        return alive == keep
    return alive.bit_count() == 1


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


def _free_state(
    index: SimplexIndex, ids: Sequence[int] | None
) -> tuple[list[bool], list[int], list[int]]:
    """The state of the free-face loop on the ids (ascending; default: all
    of the index): per simplex of the index, whether it is among the ids,
    and the number and id sum of its codimension-1 cofaces among them; the
    sum names the coface when there is one.

    A present simplex s is free exactly when it has one such coface t: a
    larger simplex s + {p, q} would bring the two cofaces s + {p} and
    s + {q}, so t is maximal and the only simplex above s.  The lists are
    sized to the index and read by id.
    """
    n = len(index.simplices)
    if ids is None:
        cofaces = index.cofaces
        return [True] * n, [len(c) for c in cofaces], [sum(c) for c in cofaces]
    present, count, cosum = [False] * n, [0] * n, [0] * n
    faces = index.faces
    for i in ids:
        present[i] = True
        for f in faces[i]:
            count[f] += 1
            cosum[f] += i
    return present, count, cosum


def free_faces(K: SimplicialComplex) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Pairs (face, unique coface): the face lies in exactly one larger simplex."""
    index = K.index()
    _, count, cosum = _free_state(index, None)
    simplices = index.simplices
    return [(simplices[s], simplices[cosum[s]]) for s, above in enumerate(count) if above == 1]


def _collapse_run(
    index: SimplexIndex,
    ids: Sequence[int] | None = None,
    rng: random.Random | None = None,
) -> list[tuple[int, int]] | None:
    """One greedy pass that removes free pairs among the ids (ascending;
    default: all of the index), never touching a simplex outside them,
    until no id of positive dimension is left.  Returns the removed (face
    id, coface id) pairs in order, or None when stuck.

    The free ids are kept as a sorted list, which is the order of
    ``free_faces``: the deterministic pass takes the first, a restart draws
    from the whole list.  The list holds exactly the present ids with one
    present coface, so no second record of it is kept: a simplex outside
    the ids is never present, so it is never listed; a face joins when its
    count falls to 1 while present, and leaves when its count falls to 0
    while present.  The free face s leaves when it is taken, and its coface
    t is never listed: a coface above t would give s a second coface.  The
    faces of t and of s have different dimensions, so each face of the pair
    is updated once and its freeness is final when it is retested.

    The pass stops on dimensions, never on an Euler count: when the ids are
    not closed under faces, their own Euler count can balance with nothing
    removed (a triangle filling a disk's boundary adds +1 simplex and +1 to
    chi, and makes a sphere).
    """
    start = range(len(index.simplices)) if ids is None else ids
    present, count, cosum = _free_state(index, ids)
    faces = index.faces
    free = [s for s in start if count[s] == 1]
    # the ids of positive dimension follow the vertices
    left = len(start) and len(start) - bisect_left(start, index.dim_start[1])
    steps: list[tuple[int, int]] = []
    while left:
        if not free:
            return None
        s = free[0] if rng is None else rng.choice(free)
        free.remove(s)
        t = cosum[s]
        steps.append((s, t))
        present[s] = present[t] = False
        left -= 2 if faces[s] else 1
        for gone in (t, s):
            for u in faces[gone]:
                above = count[u] = count[u] - 1
                cosum[u] -= gone
                if present[u]:
                    if above == 1:
                        insort(free, u)
                    elif not above:
                        free.remove(u)
    return steps


def check_restarts(restarts: int) -> None:
    """Raise MalformedSpec on a negative number of restarts."""
    if restarts < 0:
        raise MalformedSpec(f"restarts must be non-negative, got {restarts}")


def _free_face_search(
    index: SimplexIndex,
    ids: Sequence[int] | None,
    end: int,
    restarts: int,
    seed: int,
) -> CollapseCertificate | None:
    """The deterministic pass, then ``restarts`` seeded random ones, on the
    ids (ascending; None for all of the index).  A pass succeeds when it
    leaves ``end`` of the ids: 1 for a collapse to a point, 0 for a collapse
    onto the simplices outside them.  Returns the first certificate found,
    or None when every schedule gets stuck.

    Any index that holds the simplices lists them in the same relative
    (dimension, lexicographic) order, so the first free face and the
    position a restart draws are the same on each, and so is the
    certificate.  A negative ``restarts`` raises MalformedSpec: no schedule
    would run, and Unknown would report a search that never happened.
    """
    check_restarts(restarts)
    size = len(index.simplices) if ids is None else len(ids)
    for attempt in range(restarts + 1):
        rng = random.Random(f"restart:{seed}:{attempt - 1}") if attempt else None
        steps = _collapse_run(index, ids, rng)
        if steps is not None and size - 2 * len(steps) == end:
            simplices = index.simplices
            return CollapseCertificate(
                tuple(FreeFacePair(simplices[s], simplices[t]) for s, t in steps)
            )
    return None


def _free_face_verdict(
    index: SimplexIndex,
    ids: Sequence[int] | None,
    target: int | None,
    restarts: int,
    seed: int,
) -> TriStateResult:
    """Verdict on collapsing the subcomplex ids of index (ascending, closed
    under faces; None for all of it) to a point, or all of the index onto
    the subcomplex whose mask over it is target.  When every schedule gets
    stuck, the homology of those ids, read on the same index, decides No or
    Unknown."""
    whole = range(len(index.simplices)) if ids is None else ids
    if target is None:
        cert = _free_face_search(index, ids, 1, restarts, seed)
    else:  # the search may remove every simplex outside the target
        cert = _free_face_search(index, _outside(index, target), 0, restarts, seed)
        target = _ids(target)
    if cert is not None:
        return yes(cert)
    note = "no free faces left on any attempted schedule"
    return _stuck(lambda part: _homology(index, part), whole, target, note)


def _outside(index: SimplexIndex, mask: int) -> list[int]:
    """The ids of index outside the mask, ascending."""
    return _ids(((1 << len(index.simplices)) - 1) ^ mask)


def _collapse_input(
    K: SimplicialComplex, target: SimplicialComplex | None
) -> tuple[SimplexIndex, int | None]:
    """K's index and the target's mask over it (None for no target).
    Raises EmptyObject on an empty K or an empty target and
    TargetNotInduced on a target that is not a subcomplex of K."""
    if K.is_empty():
        raise EmptyObject("cannot collapse the empty complex")
    if target is None:
        return K.index(), None
    if target.is_empty():
        raise EmptyObject("cannot collapse onto the empty complex")
    mask = K.index().down_closure(target.facets)
    if mask is None:
        raise TargetNotInduced("target is not a subcomplex")
    return K.index(), mask


def greedy_collapse_complex(
    K: SimplicialComplex,
    target: SimplicialComplex | None = None,
    restarts: int = 8,
    seed: int = 0,
) -> TriStateResult:
    """Greedy free-face removal with seeded random restarts.

    Deterministic first pass: lowest dimension, lexicographic simplex order.
    """
    index, target = _collapse_input(K, target)
    return _free_face_verdict(index, None, target, restarts, seed)


def staged_union_collapse(
    parts: list[SimplicialComplex], restarts: int = 8, seed: int = 0
) -> TriStateResult:
    """Collapse a union of complexes stage by stage.

    Repeatedly peels the last part: the union collapses onto the union of the
    rest whenever the peeled part collapses onto its intersection with the
    rest, then recurses; the final part is collapsed to a point.  A
    schedule the library offers for unions of collapsible complexes with
    collapsible intersections; no search in the library calls it.
    """
    if not parts:
        raise EmptyObject("no parts given")
    if len(parts) == 1:
        return greedy_collapse_complex(parts[0], restarts=restarts, seed=seed)
    rest = parts[0]
    for p in parts[1:-1]:
        rest = rest.union(p)
    last = parts[-1]
    whole = rest.union(last)
    step1 = greedy_collapse_complex(whole, target=rest, restarts=restarts, seed=seed)
    if not step1.is_yes():
        return step1
    tail = staged_union_collapse(parts[:-1], restarts=restarts, seed=seed)
    if not tail.is_yes():
        return tail
    return yes(
        CollapseCertificate(step1.certificate.steps + tail.certificate.steps)
    )


def replay_complex_certificate(
    K: SimplicialComplex,
    cert: CollapseCertificate,
    target: SimplicialComplex | None = None,
) -> bool:
    """Re-execute free-face pairs, checking freeness at each step, on the
    simplices of K outside the target, and check that one vertex is left
    (none outside a target).  A face or coface may list its vertices in any
    order.  An empty K or target raises EmptyObject and a target that is
    not a subcomplex of K raises TargetNotInduced, as a search would.
    """
    index, target = _collapse_input(K, target)
    id_of, faces = index.id_of, index.faces
    ids = None if target is None else _outside(index, target)
    left, end = (len(index.simplices), 1) if ids is None else (len(ids), 0)
    present, count, cosum = _free_state(index, ids)
    for step in cert.steps:
        if not isinstance(step, FreeFacePair):
            return False
        s = id_of.get(tuple(sorted(frozenset(step.face))))
        if s is None or not present[s] or count[s] != 1:
            return False
        t = cosum[s]
        if id_of.get(tuple(sorted(frozenset(step.coface)))) != t:
            return False
        present[s] = present[t] = False
        left -= 2
        for gone in (t, s):
            for u in faces[gone]:
                count[u] -= 1
                cosum[u] -= gone
    return left == end


# ---------------------------------------------------------------------------
# homotopical triviality (three-valued)
# ---------------------------------------------------------------------------


def _after_complex_collapse(collapsibility: TriStateResult) -> TriStateResult:
    """Triviality of a subcomplex given its greedy collapsibility verdict.

    Yes carries over (collapsible implies homotopically trivial) and so does
    No (its witness is non-trivial homology).  After Unknown the subcomplex
    is acyclic and no test is left.
    """
    if collapsibility.verdict != "unknown":
        return collapsibility
    return unknown("acyclic but greedy collapse got stuck")


def _after_collapse(X: FinitePoset, alive: int, collapsibility: TriStateResult) -> TriStateResult:
    """Triviality of the subspace alive of X given its greedy collapsibility
    verdict: as for a subcomplex, except that after Unknown a finite space
    has one more test left, its core."""
    if collapsibility.verdict != "unknown":
        return collapsibility
    return _triviality(X, alive, collapsibility)


def _triviality(
    X: FinitePoset, alive: int, collapsibility: TriStateResult | None = None
) -> TriStateResult:
    """Triviality of the non-empty subspace alive of X: a contraction by beat
    points when its core is a point, else the verdict of its greedy collapse
    (``collapsibility`` when already known), with Unknown for an acyclic
    space."""
    cert = _contraction(X, alive)
    if cert is not None:
        return yes(cert)
    collapsibility = collapsibility or _weak_collapse(X, alive)
    if collapsibility.verdict != "unknown":
        return collapsibility
    return unknown("acyclic but neither core nor greedy collapse reach a point")


def is_homotopically_trivial_poset(X: FinitePoset) -> TriStateResult:
    if not len(X):
        raise EmptyObject("the empty space is not homotopically trivial")
    return _triviality(X, _everything(X))


def is_homotopically_trivial_complex(
    K: SimplicialComplex, restarts: int = 8, seed: int = 0
) -> TriStateResult:
    if K.is_empty():
        raise EmptyObject("the empty complex is not homotopically trivial")
    return _after_complex_collapse(greedy_collapse_complex(K, restarts=restarts, seed=seed))


def shadow_report(K: SimplicialComplex, restarts: int = 8, seed: int = 0) -> dict:
    """Decidable homology shadow of contractibility next to the honest
    collapsibility verdict.  Acyclicity does not prove contractibility, so the
    shadow verdict is labelled as such rather than folded into a TriState."""
    hom = reduced_homology(K)
    coll = greedy_collapse_complex(K, restarts=restarts, seed=seed)
    return {
        "contractible_shadow": "yes" if hom.is_trivial() else "no",
        "shadow_basis": "acyclic" if hom.is_trivial() else "non-trivial reduced homology",
        "collapsible": coll.verdict,
        "homology": hom.summary(),
    }

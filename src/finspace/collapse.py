"""Collapse predicates for finite spaces and simplicial complexes.

Contractibility of a finite space is decidable (iterated beat-point removal
down to the core).  Collapsibility and homotopical triviality are not, so
those checkers answer with a three-valued verdict: Yes carries a replayable
certificate, No carries a non-trivial homology witness, Unknown is honest
failure of the greedy search.

Each point-removal kind (down-beat, up-beat, down-weak, up-weak) is decided
in one place, ``removable``.  The core and greedy searches, certificate
replay and the cylinder executor all call it, so replay accepts any step that
is valid for its declared kind, whichever other kinds the point also has.
Free-face search and replay likewise share one unique-coface test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable

from .complexes import SimplicialComplex
from .errors import EmptyObject, EmptySpace, InvariantViolation, TargetNotInduced
from .homology import HomologyResult, homology_of_poset, reduced_homology
from .posets import FinitePoset

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


def removable(X: FinitePoset, x: str, kind: str) -> bool:
    """Whether x is a point of the given kind in X.

    The down kinds look at the punctured down set of x, the up kinds at its
    punctured up set.  That set must be non-empty and have a maximum
    (down-beat), a minimum (up-beat) or be contractible (weak kinds).  An
    unknown kind is never removable.
    """
    if kind in (DOWN_BEAT, DOWN_WEAK):
        punctured = X.down_set(x, strict=True)
    elif kind in (UP_BEAT, UP_WEAK):
        punctured = X.up_set(x, strict=True)
    else:
        return False
    if not punctured:
        return False
    sub = X.restrict(punctured)
    if kind == DOWN_BEAT:
        return sub.has_maximum()
    if kind == UP_BEAT:
        return sub.has_minimum()
    return is_contractible_space(sub)


def _first_kind(X: FinitePoset, x: str, kinds: tuple[str, str]) -> str | None:
    for kind in kinds:
        if removable(X, x, kind):
            return kind
    return None


def beat_point_kind(X: FinitePoset, x: str) -> str | None:
    return _first_kind(X, x, (DOWN_BEAT, UP_BEAT))


def weak_point_kind(X: FinitePoset, x: str) -> str | None:
    return _first_kind(X, x, (DOWN_WEAK, UP_WEAK))


def _removable_points(X: FinitePoset, kind_of) -> list[tuple[str, str]]:
    return [(x, kind) for x in X.elements if (kind := kind_of(X, x))]


def beat_points(X: FinitePoset) -> list[tuple[str, str]]:
    """All beat points with their kind, in element order."""
    return _removable_points(X, beat_point_kind)


def weak_points(X: FinitePoset) -> list[tuple[str, str]]:
    return _removable_points(X, weak_point_kind)


def _remove_points(
    X: FinitePoset, kind_of, keep: frozenset[str] = frozenset(), size: int = 0
) -> tuple[FinitePoset, CollapseCertificate]:
    """Remove the first point outside keep that kind_of accepts, round after
    round, until no such point is left or only ``size`` points remain."""
    steps: list[PointRemoval] = []
    current = X
    while len(current) > size:
        for x in current.elements:
            if x not in keep and (kind := kind_of(current, x)):
                steps.append(PointRemoval(x, kind))
                current = current.remove(x)
                break
        else:
            break
    return current, CollapseCertificate(tuple(steps))


def core(X: FinitePoset) -> tuple[FinitePoset, CollapseCertificate]:
    """Remove beat points (lexicographically first each round) until none remain."""
    return _remove_points(X, beat_point_kind)


def is_contractible_space(X: FinitePoset) -> bool:
    if not len(X):
        raise EmptySpace("contractibility of the empty space is not defined")
    return len(core(X)[0]) == 1


def gamma_points(X: FinitePoset) -> list[tuple[str, TriStateResult]]:
    """Per element, the triviality verdict of its link (punctured down + up sets)."""
    out = []
    for x in X.elements:
        link = X.down_set(x, strict=True) | X.up_set(x, strict=True)
        if not link:
            out.append((x, unknown("empty link")))
            continue
        out.append((x, is_homotopically_trivial_poset(X.restrict(link))))
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
        if hom.summary() != target_hom.summary():
            witness = hom if not hom.is_trivial() else target_hom
            return no(witness, "homology differs from target")
    return unknown(note)


def greedy_collapse_space(
    X: FinitePoset, target: Iterable[str] | None = None
) -> TriStateResult:
    """Collapse X to a point (or onto a target subposet) by weak-point removals."""
    if not len(X):
        raise EmptySpace("cannot collapse the empty space")
    keep = frozenset(target) if target is not None else None
    if keep is not None and not keep <= set(X.elements):
        raise TargetNotInduced(f"target {sorted(keep)} is not a subset of the space")
    size = 1 if keep is None else len(keep)
    current, cert = _remove_points(X, weak_point_kind, keep or frozenset(), size)
    if len(current) == size:
        return yes(cert)
    return _stuck(
        homology_of_poset,
        X,
        None if keep is None else X.restrict(keep),
        "greedy weak-point removal got stuck",
    )


def replay_space_certificate(
    X: FinitePoset, cert: CollapseCertificate, target: Iterable[str] | None = None
) -> bool:
    """Check each removal is valid for its declared kind; verify the end state."""
    current = X
    for step in cert.steps:
        if not isinstance(step, PointRemoval) or step.element not in current:
            return False
        if not removable(current, step.element, step.kind):
            return False
        current = current.remove(step.element)
    if target is not None:
        return set(current.elements) == set(target)
    return len(current) == 1


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


def _unique_coface(simplices: list[frozenset[str]], face: frozenset[str]):
    """The one simplex properly containing face, when there is exactly one and
    it has one more vertex; otherwise None."""
    cofaces = [t for t in simplices if face < t]
    if len(cofaces) == 1 and len(cofaces[0]) == len(face) + 1:
        return cofaces[0]
    return None


def free_faces(K: SimplicialComplex) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Pairs (face, unique coface): the face lies in exactly one larger simplex."""
    simplices = [frozenset(s) for s in K.all_simplices()]
    out = []
    for s in simplices:
        coface = _unique_coface(simplices, s)
        if coface is not None:
            out.append((tuple(sorted(s)), tuple(sorted(coface))))
    return sorted(out, key=lambda p: (len(p[0]), p))


def _collapse_run(
    K: SimplicialComplex,
    keep: SimplicialComplex | None,
    rng: random.Random | None,
) -> tuple[TriStateResult | None, list[FreeFacePair]]:
    """One greedy pass; returns (Yes-result or None when stuck, steps so far)."""
    steps: list[FreeFacePair] = []
    current = K
    while True:
        if keep is None:
            if len(current.all_simplices()) == 1:
                return yes(CollapseCertificate(tuple(steps))), steps
        elif current == keep:
            return yes(CollapseCertificate(tuple(steps))), steps
        pairs = free_faces(current)
        if keep is not None:
            pairs = [
                p
                for p in pairs
                if not keep.contains_simplex(p[0]) and not keep.contains_simplex(p[1])
            ]
        if not pairs:
            return None, steps
        face, coface = pairs[0] if rng is None else rng.choice(pairs)
        steps.append(FreeFacePair(face, coface))
        current = current.without([face, coface])


def greedy_collapse_complex(
    K: SimplicialComplex,
    target: SimplicialComplex | None = None,
    restarts: int = 8,
    seed: int = 0,
) -> TriStateResult:
    """Greedy free-face removal with seeded random restarts.

    Deterministic first pass: lowest dimension, lexicographic simplex order.
    """
    if K.is_empty():
        raise EmptyObject("cannot collapse the empty complex")
    if target is not None and not target.is_subcomplex_of(K):
        raise TargetNotInduced("target is not a subcomplex")
    result, _ = _collapse_run(K, target, None)
    if result is not None:
        return result
    for r in range(restarts):
        result, _ = _collapse_run(K, target, random.Random(f"restart:{seed}:{r}"))
        if result is not None:
            return result
    return _stuck(reduced_homology, K, target, "no free faces left on any attempted schedule")


def staged_union_collapse(
    parts: list[SimplicialComplex], restarts: int = 8, seed: int = 0
) -> TriStateResult:
    """Collapse a union of complexes stage by stage.

    Repeatedly peels the last part: the union collapses onto the union of the
    rest whenever the peeled part collapses onto its intersection with the
    rest, then recurses; the final part is collapsed to a point.  Used as the
    fallback schedule for unions of collapsible complexes with collapsible
    intersections.
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
    """Re-execute free-face pairs, checking freeness at each step."""
    current = K
    for step in cert.steps:
        if not isinstance(step, FreeFacePair):
            return False
        face = frozenset(step.face)
        coface = frozenset(step.coface)
        if not current.contains_simplex(face):
            return False
        simplices = [frozenset(t) for t in current.all_simplices()]
        if _unique_coface(simplices, face) != coface:
            return False
        current = current.without([face, coface])
    if target is not None:
        return current == target
    return len(current.all_simplices()) == 1


# ---------------------------------------------------------------------------
# homotopical triviality (three-valued)
# ---------------------------------------------------------------------------


def triviality_from_collapse(obj, collapsibility: TriStateResult) -> TriStateResult:
    """Triviality verdict of obj given its greedy collapsibility verdict.

    Yes carries over (collapsible implies homotopically trivial) and so does
    No (its witness is non-trivial homology).  After Unknown the object is
    acyclic; only a finite space has one more test left, its core.
    """
    if collapsibility.verdict != "unknown":
        return collapsibility
    if isinstance(obj, SimplicialComplex):
        return unknown("acyclic but greedy collapse got stuck")
    core_poset, cert = core(obj)
    if len(core_poset) == 1:
        return yes(cert)
    return unknown("acyclic but neither core nor greedy collapse reach a point")


def is_homotopically_trivial_poset(X: FinitePoset) -> TriStateResult:
    if not len(X):
        raise EmptyObject("the empty space is not homotopically trivial")
    core_poset, cert = core(X)
    if len(core_poset) == 1:
        return yes(cert)
    return triviality_from_collapse(X, greedy_collapse_space(X))


def is_homotopically_trivial_complex(
    K: SimplicialComplex, restarts: int = 8, seed: int = 0
) -> TriStateResult:
    if K.is_empty():
        raise EmptyObject("the empty complex is not homotopically trivial")
    return triviality_from_collapse(K, greedy_collapse_complex(K, restarts=restarts, seed=seed))


def is_homotopically_trivial(obj, restarts: int = 8, seed: int = 0) -> TriStateResult:
    if isinstance(obj, FinitePoset):
        return is_homotopically_trivial_poset(obj)
    if isinstance(obj, SimplicialComplex):
        return is_homotopically_trivial_complex(obj, restarts=restarts, seed=seed)
    raise TypeError(f"unsupported object {obj!r}")


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

"""Collapse predicates for finite spaces and simplicial complexes.

Contractibility of a finite space is decidable (iterated beat-point removal
down to the core).  Collapsibility of a finite complex is decidable too, by
exhaustive search over removal orders, but deciding it is NP-complete from
dimension 3 (Tancer, DCG 55, 2016), so the library searches greedily.  The
collapse and triviality checkers answer with a three-valued verdict: Yes
carries a replayable certificate, No carries a non-trivial homology
witness, and Unknown means that the greedy search got stuck.

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
weak-point collapse and one triviality rule act on such masks for
whole spaces, cylinder hypothesis sets and cover intersections, with the
certificates of the subposets they stand for.  No subposet is
built: a stuck search reads the homology of its masks.

Free-face searches, the truncation checker, replay and ``free_faces`` share
one state, built by ``_free_state``: per simplex of the index, whether it is
present and the number and id sum of its present codimension-1 cofaces,
updated in O(dim) per removed pair, so no complex is rebuilt per step.  One
loop on ints, ``_collapse_run``, removes free pairs among given ids and
never touches a simplex outside them; it stops when no id of positive
dimension is left and records (face id, coface id) pairs, and only the
schedule that succeeded keeps them, in its certificate.  When the ids are
what a complex K has beyond a subcomplex L, a coface in K of an id lies
outside L too, so the counts over the ids are the counts in K: a pass that
removes every id collapses K onto L, and one that leaves only vertices
collapses K onto L plus isolated vertices.  The same loop therefore gives
a collapse to a point (all of K's ids, one vertex left), a targeted
collapse (L the target, none left) and the truncation checker's relative
pass (L a sub-union already collapsed).  A subcomplex is searched as its
simplex ids on its parent's index, and a stuck search reads the homology
of the same ids.  A target is found on that index too, by its facets
closed downward (``SimplexIndex.down_closure``), so no index of the
target is built.  The loop's free list is its only record of which ids are free: the present ids
with one present coface.

A certificate keeps the positions its search found, over the names it
searched: an index's simplices with (face id, coface id) pairs, or a
poset's elements with (position, kind) pairs from ``_peel`` or the
cylinder executor.  Its steps are built from them on first read (replay
by names, ``--out``, equality or JSON), so a caller that reads only the
verdict builds none, and the positions are kept after that read.  Replay
runs one loop per kind on positions over its target's numbering.  When
the certificate was made over that very sequence of names, the target's
``simplices`` or ``elements``, it reads the stored positions as they are;
looking the names up would map each to its own position.  Any other
certificate (read from a document, or made on an equal but distinct
complex or poset) has its steps' names looked up on the target, and a
free pair that repeats a vertex names no simplex.

A triviality verdict comes from two tests, the greedy collapse and, for a
subspace, the beat-point contraction, by one rule.  A collapse verdict
already computed decides unless it is Unknown: its Yes is a collapse to a
point, which certifies triviality, and its No carries a homology witness.
Otherwise a subspace tries the contraction and then, if no collapse verdict
was computed, the weak collapse (``_triviality``); after Unknown a
subcomplex has no test left (``_after_complex_collapse``).
``_space_verdicts`` and ``_complex_verdicts`` give the (triviality,
collapsibility) of a subspace mask or of a subcomplex's ids from one
search, and cylinder hypothesis sets, cover intersections and S_sigma read
both there.  I_x and ``is_homotopically_trivial_poset`` compute no
collapse verdict, so their contraction comes first.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import SimplexIndex, SimplicialComplex
from .errors import (
    Document,
    EmptyObject,
    EmptySpace,
    InvariantViolation,
    MalformedSpec,
    TargetNotInduced,
    _field,
    _id_set,
    _objects,
    _string,
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
FREE_PAIR = "free-pair"
POINT_REMOVAL = "point-removal"  # a step of one of the four kinds above


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
        return {"kind": FREE_PAIR, "face": list(self.face), "coface": list(self.coface)}


class CollapseCertificate(Document):
    """Ordered removal steps witnessing a collapse onto the declared target.

    A certificate the library makes keeps the positions its search found,
    over the names it searched (``_of_positions``): an index's
    ``simplices`` with (face id, coface id) pairs, or a poset's
    ``elements`` with (position, kind) pairs.  Its ``FreeFacePair`` or
    ``PointRemoval`` steps are built from them on first read, so a caller
    that reads only the verdict builds none, and the positions are kept
    after that read.  Replay on that very sequence of names reads the
    positions as they are (``_positions_over``); a certificate read from a
    document has steps only, and replay looks their names up.  Equality,
    hashing, repr and the document read ``steps``, as those of a frozen
    dataclass with that one field do.
    """

    __slots__ = ("_steps", "_names", "_positions", "_kind")

    def __init__(self, steps: tuple = ()):
        self._steps, self._names, self._positions, self._kind = steps, None, None, None

    @classmethod
    def _of_positions(
        cls, kind: str, names: Sequence, positions: Sequence
    ) -> "CollapseCertificate":
        """The certificate of positions over names: (face id, coface id)
        pairs over simplices for ``FREE_PAIR``, (position, kind) pairs over
        elements for ``POINT_REMOVAL``."""
        cert = cls.__new__(cls)
        cert._steps, cert._names, cert._positions, cert._kind = None, names, positions, kind
        return cert

    @property
    def steps(self) -> tuple:
        if self._steps is None:
            names = self._names
            if self._kind == FREE_PAIR:
                self._steps = tuple(FreeFacePair(names[s], names[t]) for s, t in self._positions)
            else:
                self._steps = tuple(PointRemoval(names[i], kind) for i, kind in self._positions)
        return self._steps

    def _positions_over(self, names: Sequence) -> Sequence | None:
        """The positions the certificate was made with when they are over
        this very sequence of names, else None."""
        return self._positions if names is self._names else None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self):
        return hash((self.steps,))

    def __repr__(self):
        return f"{type(self).__qualname__}(steps={self.steps!r})"

    def to_doc(self) -> dict:
        return {"steps": [s.to_doc() for s in self.steps]}

    @staticmethod
    def from_doc(doc) -> "CollapseCertificate":
        steps = []
        for step in _objects(doc, "steps", "the certificate"):
            kind = _string(_field(step, "kind", "a certificate step"), "a step kind")
            if kind == FREE_PAIR:
                face = _id_set(_field(step, "face", "a free-pair step"), "a step face")
                coface = _id_set(_field(step, "coface", "a free-pair step"), "a step coface")
                steps.append(FreeFacePair(tuple(face), tuple(coface)))
            elif kind in BEAT_KINDS + WEAK_KINDS:
                element = _field(step, "element", "a point-removal step")
                steps.append(PointRemoval(_string(element, "a step element"), kind))
            else:
                kinds = ", ".join((FREE_PAIR,) + BEAT_KINDS + WEAK_KINDS)
                raise MalformedSpec(f"a step kind must be one of {kinds}, got {kind!r}")
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


def beat_points(X: FinitePoset) -> list[tuple[str, str]]:
    """All beat points with their kind, in element order."""
    return [(x, kind) for x in X.elements if (kind := beat_point_kind(X, x))]


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
    return CollapseCertificate._of_positions(
        POINT_REMOVAL, X.elements, [(i, kinds[s]) for i, s in steps]
    ), left


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
    A certificate made on X's elements is replayed at the positions its
    search found, any other at its steps' elements looked up in X.  An
    empty X or target raises EmptySpace and a target naming an element
    outside X raises TargetNotInduced, as a search would."""
    if not len(X):
        raise EmptySpace("cannot collapse the empty space")
    keep = _target_mask(X, target)
    removals = cert._positions_over(X.elements)
    if removals is None:
        removals = _removals_by_name(X, cert)
        if removals is None:
            return False
    alive = _everything(X)
    for i, kind in removals:
        if not alive >> i & 1 or not removable(X, alive, i, kind):
            return False
        alive ^= 1 << i
    if keep is not None:
        return alive == keep
    return alive.bit_count() == 1


def _removals_by_name(X: FinitePoset, cert: CollapseCertificate) -> list[tuple[int, str]] | None:
    """The names route of space replay: each step's element looked up in X,
    as (position, kind), or None when a step is not a point removal or
    names no element of X."""
    removals = []
    for step in cert.steps:
        if not isinstance(step, PointRemoval) or step.element not in X:
            return None
        removals.append((X._at(step.element), step.kind))
    return removals


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


def _free_state(
    index: SimplexIndex, ids: Sequence[int]
) -> tuple[list[bool], list[int], list[int]]:
    """The state of the free-face loop on the ids (ascending): per simplex
    of the index, whether it is among the ids, and the number and id sum of
    its codimension-1 cofaces among them; the sum names the coface when
    there is one.  When the ids are all of the index, the counts and sums
    are read off its coface lists.

    A present simplex s is free exactly when it has one such coface t: a
    larger simplex s + {p, q} would bring the two cofaces s + {p} and
    s + {q}, so t is maximal and the only simplex above s.  The lists are
    sized to the index and read by id.
    """
    n = len(index.simplices)
    if len(ids) == n:
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
    _, count, cosum = _free_state(index, range(len(index.simplices)))
    simplices = index.simplices
    return [(simplices[s], simplices[cosum[s]]) for s, above in enumerate(count) if above == 1]


def _collapse_run(
    index: SimplexIndex, ids: Sequence[int], rng: random.Random | None = None
) -> list[tuple[int, int]] | None:
    """One greedy pass that removes free pairs among the ids (ascending),
    never touching a simplex outside them, until no id of positive
    dimension is left.  Returns the removed (face id, coface id) pairs in
    order, or None when stuck.

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
    present, count, cosum = _free_state(index, ids)
    faces = index.faces
    free = [s for s in ids if count[s] == 1]
    # the ids of positive dimension follow the vertices
    left = len(ids) and len(ids) - bisect_left(ids, index.dim_start[1])
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
    ids: Sequence[int],
    end: int,
    restarts: int,
    seed: int,
) -> CollapseCertificate | None:
    """The deterministic pass, then ``restarts`` seeded random ones, on the
    ids (ascending).  A pass succeeds when it leaves ``end`` of the ids: 1
    for a collapse to a point, 0 for a collapse onto the simplices outside
    them.  Returns the first certificate found, or None when every schedule
    gets stuck; its steps are built when first read.

    Any index that holds the simplices lists them in the same relative
    (dimension, lexicographic) order, so the first free face and the
    position a restart draws are the same on each, and so is the
    certificate.  A negative ``restarts`` raises MalformedSpec: no schedule
    would run, and Unknown would report a search that never happened.
    """
    check_restarts(restarts)
    for attempt in range(restarts + 1):
        rng = random.Random(f"restart:{seed}:{attempt - 1}") if attempt else None
        steps = _collapse_run(index, ids, rng)
        if steps is not None and len(ids) - 2 * len(steps) == end:
            return CollapseCertificate._of_positions(FREE_PAIR, index.simplices, steps)
    return None


def _free_face_verdict(
    index: SimplexIndex,
    ids: Sequence[int],
    target: int | None,
    restarts: int,
    seed: int,
) -> TriStateResult:
    """Verdict on collapsing the subcomplex ids of index (ascending, closed
    under faces) to a point, or, when the ids are all of the index, onto
    the subcomplex whose mask over it is target.  When every schedule gets
    stuck, the homology of those ids, read on the same index, decides No or
    Unknown."""
    if target is None:
        cert = _free_face_search(index, ids, 1, restarts, seed)
    else:  # the search may remove every simplex outside the target
        cert = _free_face_search(index, _outside(index, target), 0, restarts, seed)
        target = _ids(target)
    if cert is not None:
        return yes(cert)
    note = "no free faces left on any attempted schedule"
    return _stuck(lambda part: _homology(index, part), ids, target, note)


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
    return _free_face_verdict(index, range(len(index.simplices)), target, restarts, seed)


def replay_complex_certificate(
    K: SimplicialComplex,
    cert: CollapseCertificate,
    target: SimplicialComplex | None = None,
) -> bool:
    """Re-execute free-face pairs, checking freeness at each step, on the
    simplices of K outside the target, and check that one vertex is left
    (none outside a target).  A certificate made on K's index is replayed at
    the ids its search found, any other at its steps' faces and cofaces
    looked up on the index: they may list their vertices in any order, and
    a step that repeats a vertex fails.  An empty K or target raises
    EmptyObject and a target that is not a subcomplex of K raises
    TargetNotInduced, as a search would.
    """
    index, target = _collapse_input(K, target)
    pairs = cert._positions_over(index.simplices)
    if pairs is None:
        pairs = _pair_ids_by_name(index.id_of, cert)
        if pairs is None:
            return False
    faces = index.faces
    if target is None:
        ids, end = range(len(index.simplices)), 1
    else:
        ids, end = _outside(index, target), 0
    left = len(ids)
    present, count, cosum = _free_state(index, ids)
    for s, t in pairs:
        if not present[s] or count[s] != 1 or cosum[s] != t:
            return False
        present[s] = present[t] = False
        left -= 2
        for gone in (t, s):
            for u in faces[gone]:
                count[u] -= 1
                cosum[u] -= gone
    return left == end


def _pair_ids_by_name(
    id_of: dict[tuple[str, ...], int], cert: CollapseCertificate
) -> list[tuple[int, int]] | None:
    """The names route of complex replay: each step's face and coface, in
    any vertex order, looked up in id_of, as (face id, coface id), or None
    when a step is not a free pair, repeats a vertex or names a simplex the
    index lacks."""
    pairs = []
    for step in cert.steps:
        if not isinstance(step, FreeFacePair):
            return None
        face, coface = sorted(set(step.face)), sorted(set(step.coface))
        if len(face) != len(step.face) or len(coface) != len(step.coface):
            return None
        s, t = id_of.get(tuple(face)), id_of.get(tuple(coface))
        if s is None or t is None:
            return None
        pairs.append((s, t))
    return pairs


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


def _triviality(
    X: FinitePoset, alive: int, collapsibility: TriStateResult | None = None
) -> TriStateResult:
    """Triviality of the non-empty subspace alive of X.  A greedy collapse
    verdict already computed (``collapsibility``) decides unless it is
    Unknown; otherwise a contraction by beat points when the core is a
    point, else the verdict of the greedy collapse, run here when none was
    computed, with Unknown for an acyclic space."""
    if collapsibility is not None and collapsibility.verdict != "unknown":
        return collapsibility
    cert = _contraction(X, alive)
    if cert is not None:
        return yes(cert)
    collapsibility = collapsibility or _weak_collapse(X, alive)
    if collapsibility.verdict != "unknown":
        return collapsibility
    return unknown("acyclic but neither core nor greedy collapse reach a point")


def _space_verdicts(X: FinitePoset, mask: int) -> tuple[TriStateResult, TriStateResult]:
    """The triviality and collapsibility of the non-empty subspace mask of
    X, from one greedy collapse."""
    collapsibility = _weak_collapse(X, mask)
    return _triviality(X, mask, collapsibility), collapsibility


def _complex_verdicts(
    index: SimplexIndex, ids: Sequence[int], restarts: int, seed: int
) -> tuple[TriStateResult, TriStateResult]:
    """The triviality and collapsibility of the subcomplex ids of index
    (ascending, closed under faces), from one free-face search."""
    collapsibility = _free_face_verdict(index, ids, None, restarts, seed)
    return _after_complex_collapse(collapsibility), collapsibility


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

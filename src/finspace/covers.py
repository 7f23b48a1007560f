"""Covers, nerves and the nerve-theorem hypothesis checkers.

A cover is a named family of subcomplexes of a complex, or of open (downward
closed) subsets of a finite space, whose union is the whole object.  The
nerve records which index sets have non-empty common intersection; the
non-Hausdorff nerve is its face poset; the reduced nerve identifies index
sets with literally equal intersections and orders the distinct
intersections by reverse inclusion.

Each member is an int bitmask over the parent's simplex ids (a complex) or
element positions (a finite space); an intersection is an AND of masks.
The nerve's index sets and their masks are enumerated once per cover into
one nerve table, which the nerves, classification and every checker read;
an index set outside it has an empty intersection, so a classification
of every index set and the truncation checker walk no intersections of
their own.
``FLAVORS`` gives each nerve-theorem flavor its cover kind, verdict mode
and nerve object.  One inversion pass over masks gives, for every position
of the cover's masks, the mask over a poset P (N0 or reduced N0) of the
elements whose intersection holds it: a point's I_x, or, for reduced N0,
the Q_sigma with S_sigma = K(Q_sigma), so K(reduced N0) is never built.
Over the sub-nerve N0 of a complex, S_sigma is the ids, on N0's index, of
the simplices whose vertices all hold sigma.  Only ``Cover.intersection``
builds an intersection as an object of its own.

Classification verdicts are three-valued and Unknown intersections are
never silently treated as trivial or collapsible: the N0 constructions
exclude them and list them separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, groupby
from operator import and_, or_

from . import collapse as clp
from .complexes import SimplicialComplex, order_complex, simplex_id
from .errors import (
    Document,
    InvalidCover,
    InvariantViolation,
    MalformedSpec,
    UnknownElement,
    UnknownMember,
    UnknownSimplex,
    _field,
    _id_set,
    _id_sets,
    _objects,
    _string,
)
from .homology import homology_equal, homology_of_poset, reduced_homology
from .posets import FinitePoset, _bits, _height, _ids, build_poset

COMPLEX = "complex"
POSET = "poset"
# the most members whose index sets are enumerated
MAX_MEMBERS = 20
# per cover kind: the parent type, and the key, id check and type of a
# member in a cover document
_KINDS = {
    COMPLEX: (SimplicialComplex, "facets", _id_sets, SimplicialComplex),
    POSET: (FinitePoset, "elements", _id_set, frozenset),
}


@dataclass(frozen=True)
class Cover(Document):
    """Named subobjects covering a complex or a finite space.

    For ``kind == "complex"`` members map names to subcomplexes; for posets,
    to downward closed element sets.  Construction builds and validates one
    int bitmask per member, ``_masks``, the cover's only record of what each
    member contains: for a complex, the member's facets looked up in the
    parent's simplex index and closed downward; for a finite space, its
    element positions.  The members cover the parent when the OR of the
    masks is full.  The nerve table, the nerves and the verdicts per
    intersection mask are built on first use and kept in ``_memo``.  Neither
    takes part in equality or hashing.
    """

    kind: str
    parent: object
    members: tuple[tuple[str, object], ...]
    _masks: dict = field(init=False, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        names = [n for n, _ in self.members]
        if len(set(names)) != len(names):
            raise InvalidCover("duplicate member names")
        if not self.members:
            raise InvalidCover("a cover needs at least one member")
        _kind(self.kind)
        masks = {name: self._validated_mask(name, sub) for name, sub in self.members}
        if reduce(or_, masks.values()) != (1 << _positions(self)) - 1:
            whole = "parent complex" if self.kind == COMPLEX else "space"
            raise InvalidCover(f"members do not cover the {whole}")
        object.__setattr__(self, "_masks", masks)

    def _validated_mask(self, name: str, sub) -> int:
        """The mask of one member, raising InvalidCover when it is not a
        subcomplex (a complex cover) or an open subset (a finite space)."""
        if self.kind == COMPLEX:
            if not isinstance(sub, SimplicialComplex):
                raise InvalidCover(f"member {name!r} is not a complex")
            mask = self.parent.index().down_closure(sub.facets)
            if mask is None:
                raise InvalidCover(f"member {name!r} is not a subcomplex of the parent")
            return mask
        X = self.parent
        if not all(x in X for x in sub):
            raise InvalidCover(f"member {name!r} is not a subset of the space")
        if not X.is_open(sub):
            raise InvalidCover(f"member {name!r} is not open (not downward closed)")
        return X._mask(sub)

    # -- member accessors ----------------------------------------------------

    def names(self) -> list[str]:
        return [n for n, _ in self.members]

    def member(self, name: str):
        for n, sub in self.members:
            if n == name:
                return sub
        raise UnknownMember(f"no cover member named {name!r}")

    def _member_masks(self, J):
        """The masks of the members named in J."""
        for n in J:
            if n not in self._masks:
                self.member(n)  # raises UnknownMember
            yield self._masks[n]

    def _mask(self, J: tuple[str, ...]) -> int:
        """Mask of the intersection over the index set J."""
        if not J:
            raise InvalidCover("intersection of an empty index set")
        return reduce(and_, self._member_masks(J), -1)

    def _union_mask(self, J) -> int:
        """Mask of the union of the members in J (0 for an empty J)."""
        return reduce(or_, self._member_masks(J), 0)

    def intersection(self, names):
        """The intersection over the index set names, built from its mask.

        A single member is returned as it is.  For complexes the facets are
        the masked simplices with no masked coface.
        """
        J = tuple(sorted(names))
        mask = self._mask(J)
        if len(J) == 1:
            return self.member(J[0])
        if self.kind == COMPLEX:
            index = self.parent.index()
            return SimplicialComplex(
                index.simplices[i]
                for i in _ids(mask)
                if not any(mask >> c & 1 for c in index.cofaces[i])
            )
        return self.parent._members(mask)

    def subunion(self, names) -> object:
        """K_J: union of the members indexed by J (empty J gives the empty object)."""
        subs = [self.member(n) for n in sorted(set(names))]
        if self.kind == COMPLEX:
            return SimplicialComplex(f for sub in subs for f in sub.facets)
        return frozenset().union(*subs)

    def intersection_is_empty(self, names) -> bool:
        return not self._mask(tuple(sorted(names)))

    def to_doc(self) -> dict:
        if self.kind == COMPLEX:
            members = [{"name": n, **sub.to_doc()} for n, sub in self.members]
        else:
            members = [{"name": n, "elements": sorted(sub)} for n, sub in self.members]
        return {"kind": self.kind, "parent": self.parent.to_doc(), "members": members}

    @staticmethod
    def from_doc(doc) -> "Cover":
        """Check the document as the cover is built: its kind first, then its
        parent (checked and built), then each member's name and facets (a
        complex cover) or elements (a finite space)."""
        kind = _string(_field(doc, "kind", "the cover"), "the cover kind")
        parent_type, key, ids, member_type = _kind(kind)
        parent = parent_type.from_doc(_field(doc, "parent", "the cover"), "the cover parent")
        members = []
        for m in _objects(doc, "members", "the cover"):
            name = _string(_field(m, "name", "a cover member"), "a cover member name")
            sub = member_type(ids(_field(m, key, "a cover member"), f"member {key}"))
            members.append((name, sub))
        return Cover(kind, parent, tuple(members))


def _kind(kind: str):
    """The parent type of a cover kind, and its members' document key, id
    check and type; an unknown kind raises InvalidCover."""
    if kind not in _KINDS:
        raise InvalidCover(f"unknown cover kind {kind!r}")
    return _KINDS[kind]


def _index_sets(cover: Cover):
    """The nerve's index sets J with the masks of their intersections, in
    deterministic order (size, then lexicographic).

    Level by level, each J with a non-empty intersection is extended only
    by names after its last one; the nerve is downward closed, so none is
    lost.
    """
    names = sorted(cover.names())
    masks = [cover._masks[n] for n in names]
    level = [((n,), m, k) for k, (n, m) in enumerate(zip(names, masks)) if m]
    while level:
        for J, m, _ in level:
            yield J, m
        level = [
            (J + (names[k],), meet, k)
            for J, m, last in level
            for k in range(last + 1, len(names))
            if (meet := m & masks[k])
        ]


def _nerve_table(cover: Cover, cap: int = MAX_MEMBERS) -> dict[tuple[str, ...], int]:
    """The nerve's index sets with their intersection masks, in
    ``_index_sets`` order: the one enumeration per cover that every nerve
    construction, classification and check reads.  A cover of more than
    cap members is refused."""
    if len(cover.members) > cap:
        raise InvalidCover(f"{len(cover.members)} members exceed the subset-enumeration cap {cap}")
    table = cover._memo.get("nerve_table")
    if table is None:
        table = cover._memo["nerve_table"] = dict(_index_sets(cover))
    return table


def _all_index_sets(names):
    """Every non-empty index set over the names, in the nerve table's order
    (size, then lexicographic)."""
    names = sorted(names)
    return (J for k in range(1, len(names) + 1) for J in combinations(names, k))


def _id_masks(cover: Cover, ids) -> list[int]:
    """The nerve table's masks of the index sets with the given simplex ids,
    the elements naming them in the (reduced) non-Hausdorff nerve."""
    by_id = {simplex_id(J): m for J, m in _nerve_table(cover).items()}
    return [by_id[i] for i in ids]


def _levels(index_sets) -> list[list[tuple[str, ...]]]:
    """Index sets in (size, lexicographic) order, closed under faces, as the
    levels of their complex (see ``SimplexIndex``)."""
    return [list(level) for _, level in groupby(index_sets, len)]


def nerve(cover: Cover) -> SimplicialComplex:
    """N(U): simplices are index sets with non-empty intersection.  Built
    once per cover, its index linked straight from the nerve table."""
    N = cover._memo.get("nerve")
    if N is None:
        N = cover._memo["nerve"] = SimplicialComplex._from_levels(_levels(_nerve_table(cover)))
    return N


def non_hausdorff_nerve(cover: Cover) -> FinitePoset:
    """Face poset of the nerve; elements are simplex ids of index sets."""
    return nerve(cover).face_poset()


@dataclass(frozen=True)
class ReducedNerve:
    """Distinct non-empty intersections ordered by reverse inclusion.  Equal
    intersections are identified; each class is named by the simplex id of
    its smallest index set, which ``classes`` maps to all the class's sets."""

    poset: FinitePoset
    classes: dict[str, tuple[tuple[str, ...], ...]]


def reduced_nerve(cover: Cover) -> ReducedNerve:
    """The reduced nerve, built once per cover and kept with it.

    Its order is generated by the one-member refinements: a class c lies
    below c ∩ U_i (bigger intersection = lower) for each member U_i that
    cuts it to a smaller non-empty intersection, at most classes × members
    pairs, and ``build_poset`` closes them.  The closure is all of reverse
    inclusion: an intersection c ∩ U_j ∩ ... ∩ U_k inside c is reached from
    c one member at a time, through non-empty intersections.

    It stands for the nerve: J ↦ {i : ∩J ⊆ U_i} is a closure operator on
    the nerve's face poset, whose image, the closed index sets ordered by
    inclusion, is the reduced nerve's poset.  The image of a closure
    operator on a finite space is a strong deformation retract of it
    (Stong 1966; Barmak, Algebraic Topology of Finite Topological Spaces
    and Applications, LNM 2032, 2011), so the two have one homotopy type.
    """
    rn = cover._memo.get("reduced_nerve")
    if rn is not None:
        return rn
    groups: dict[int, list[tuple[str, ...]]] = {}
    for J, m in _nerve_table(cover).items():
        groups.setdefault(m, []).append(J)
    # index sets arrive in (size, lexicographic) order: each class's first is its smallest
    reps = {m: simplex_id(Js[0]) for m, Js in groups.items()}
    members = cover._masks.values()
    pairs = [(reps[c], reps[cut]) for c in groups for u in members if c != (cut := c & u) and cut]
    poset = build_poset(reps.values(), pairs)
    classes = {reps[m]: tuple(sorted(Js)) for m, Js in groups.items()}
    rn = cover._memo["reduced_nerve"] = ReducedNerve(poset, classes)
    return rn


@dataclass(frozen=True)
class IntersectionRecord:
    index_set: tuple[str, ...]
    empty: bool
    triviality: clp.TriStateResult | None
    collapsibility: clp.TriStateResult | None


@dataclass(frozen=True, eq=False)
class CoverClassification:
    """The good and strong-good verdicts of a cover, with a record per
    index set built on first read.

    ``table`` maps index sets to the masks of their intersections, a falsy
    mask meaning an empty one, and ``verdicts`` each distinct non-empty
    mask to its (triviality, collapsibility).  The records list every
    non-empty index set over ``names`` in (size, lexicographic) order, an
    index set outside the table being empty.  Equality compares the
    records and both verdicts.
    """

    good: str
    strong_good: str
    table: dict = field(repr=False)
    verdicts: dict = field(repr=False)
    names: tuple[str, ...]

    @cached_property
    def records(self) -> tuple[IntersectionRecord, ...]:
        return tuple(map(self._record, _all_index_sets(self.names)))

    def _record(self, J: tuple[str, ...]) -> IntersectionRecord:
        mask = self.table.get(J)
        if not mask:
            return IntersectionRecord(J, True, None, None)
        return IntersectionRecord(J, False, *self.verdicts[mask])

    def __eq__(self, other):
        if not isinstance(other, CoverClassification):
            return NotImplemented
        return (self.records, self.good, self.strong_good) == (
            other.records, other.good, other.strong_good
        )

    def __hash__(self):
        return hash((self.records, self.good, self.strong_good))


def classify_cover(
    cover: Cover,
    max_subsets: int = MAX_MEMBERS,
    restarts: int = 8,
    seed: int = 0,
) -> CoverClassification:
    """Per-intersection triviality and collapsibility verdicts.

    The index sets are every non-empty set of member names in (size,
    lexicographic) order, those outside the nerve table being empty; a
    cover of more than max_subsets members is refused.  Each distinct
    non-empty intersection mask of the table is decided once, and every
    index set with that mask shares its verdicts, which the cover keeps
    per (restarts, seed), so a later classification of the same cover
    runs no search.  The good and strong-good verdicts
    aggregate those distinct verdicts, and the per-index-set records are
    built only when read, from the table and the verdicts.  Both verdicts
    of an intersection come from ``collapse._complex_verdicts`` (subcomplexes)
    or ``collapse._space_verdicts`` (open subsets), which hold the rule that
    reads triviality off collapsibility.  A negative ``restarts`` raises
    MalformedSpec for either kind of cover.
    """
    clp.check_restarts(restarts)
    table = _nerve_table(cover, max_subsets)
    # the cover's only writer of its verdicts: they hold the table's masks alone
    known = cover._memo.setdefault(("verdicts", restarts, seed), {})
    for mask in table.values():
        if mask not in known:
            known[mask] = _classify_intersection(cover, mask, restarts, seed)
    good = clp.aggregate_verdict(t.verdict for t, _ in known.values())
    strong = clp.aggregate_verdict(c.verdict for _, c in known.values())
    if strong == "yes" and good != "yes":
        raise InvariantViolation("collapsible intersections must classify as good")
    return CoverClassification(good, strong, table, known, tuple(sorted(cover.names())))


def _collapsible_masks(cover: Cover) -> list[int]:
    """The intersection masks that some classification of the cover, under
    any restarts and seed, found collapsible."""
    return [
        mask
        for key, known in cover._memo.items()
        if key[0] == "verdicts"
        for mask, (_, collapsibility) in known.items()
        if collapsibility.verdict == "yes"
    ]


def _classify_intersection(
    cover: Cover, mask: int, restarts: int, seed: int
) -> tuple[clp.TriStateResult, clp.TriStateResult]:
    """The triviality and collapsibility of the non-empty intersection with
    the given mask: the simplex ids of the mask on the parent's index, or
    the parent's subspace mask."""
    X = cover.parent
    if cover.kind == COMPLEX:
        return clp._complex_verdicts(X.index(), _ids(mask), restarts, seed)
    return clp._space_verdicts(X, mask)


@dataclass(frozen=True)
class NZeroResult:
    """N0: the induced subposet of the (reduced) non-Hausdorff nerve on the
    index sets whose verdict is Yes under the chosen mode.  Unknowns are
    excluded and listed, never treated as verified."""

    poset: FinitePoset
    included: tuple[tuple[str, ...], ...]
    excluded_unknown: tuple[tuple[str, ...], ...]


def _verdicts(cover: Cover, mode: str, classification, restarts: int = 8, seed: int = 0):
    """Each non-empty index set's verdict under mode, in size order, and the
    sorted index sets whose verdict is Unknown.  Every N0 construction
    checks its mode here."""
    if mode not in ("trivial", "collapsible"):
        raise MalformedSpec(f"mode must be trivial or collapsible, got {mode!r}")
    cls = classification or classify_cover(cover, restarts=restarts, seed=seed)
    k = 0 if mode == "trivial" else 1  # the verdict's place in (triviality, collapsibility)
    verdict_of = {J: cls.verdicts[m][k].verdict for J, m in cls.table.items() if m}
    return verdict_of, tuple(sorted(J for J, v in verdict_of.items() if v == "unknown"))


def _holders(masks, size: int) -> list[list[int]]:
    """For each of size positions, the ascending indices of the masks holding it."""
    holders: list[list[int]] = [[] for _ in range(size)]
    for k, m in enumerate(masks):
        for i in _ids(m):
            holders[i].append(k)
    return holders


def _positions(cover: Cover) -> int:
    """The number of positions of the cover's masks: the parent's simplex
    ids (a complex) or element positions (a finite space)."""
    return len(cover.parent.index().simplices if cover.kind == COMPLEX else cover.parent)


def _holder_masks(cover: Cover, P: FinitePoset) -> list[int]:
    """For each position of the cover's masks, the mask over P (N0 or
    reduced N0) of the elements whose intersection holds it: a point's I_x,
    or the Q_sigma of a simplex sigma, whose order complex is S_sigma."""
    return [_bits(ks) for ks in _holders(_id_masks(cover, P.elements), _positions(cover))]


def _s_sigma_ids(cover: Cover, L: SimplicialComplex) -> list[list[int]]:
    """S_sigma for every simplex sigma of the covered complex, by sigma's id:
    the ascending ids of the simplices of L, a subcomplex of the nerve,
    whose vertices' members all hold sigma."""
    masks = [reduce(and_, map(cover._masks.__getitem__, t)) for t in L.index().simplices]
    return _holders(masks, _positions(cover))


def n_zero_subspace(
    cover: Cover,
    mode: str = "trivial",
    reduced: bool = False,
    classification: CoverClassification | None = None,
    restarts: int = 8,
    seed: int = 0,
) -> NZeroResult:
    verdict_of, excluded = _verdicts(cover, mode, classification, restarts, seed)
    included = tuple(sorted(J for J, v in verdict_of.items() if v == "yes"))
    if reduced:
        rn = reduced_nerve(cover)
        poset = rn.poset.restrict(
            rep for rep, Js in rn.classes.items() if any(verdict_of[J] == "yes" for J in Js)
        )
    else:
        poset = non_hausdorff_nerve(cover).restrict(simplex_id(J) for J in included)
    return NZeroResult(poset, included, excluded)


def containing_intersections(
    cover: Cover,
    x: str,
    mode: str = "trivial",
    reduced: bool = False,
    n0: NZeroResult | None = None,
    classification: CoverClassification | None = None,
) -> FinitePoset:
    """I_x: the part of N0 whose intersections contain the point x."""
    if cover.kind != POSET:
        raise InvalidCover("containing_intersections needs a cover of a finite space")
    if x not in cover.parent:
        raise UnknownElement(f"{x!r} is not a point of the covered space")
    n0 = n0 or n_zero_subspace(cover, mode=mode, reduced=reduced, classification=classification)
    P = n0.poset
    return P.restrict(P._members(_holder_masks(cover, P)[cover.parent._at(x)]))


def n_zero_complex(
    cover: Cover,
    mode: str = "trivial",
    classification: CoverClassification | None = None,
) -> tuple[SimplicialComplex, tuple[tuple[str, ...], ...]]:
    """Subcomplex of the nerve on verified index sets, with the excluded list.

    Walking the index sets in size order, a verified set is kept when all
    its codimension-1 faces were kept, that is when all its non-empty
    subsets are verified, so the result is honestly downward closed.  The
    kept sets, in the nerve table's order, are the complex's levels.
    """
    verdict_of, excluded = _verdicts(cover, mode, classification)
    kept: dict[tuple[str, ...], None] = {}
    for J, v in verdict_of.items():
        if v == "yes" and (len(J) == 1 or all(J[:k] + J[k + 1:] in kept for k in range(len(J)))):
            kept[J] = None
    return SimplicialComplex._from_levels(_levels(kept)), excluded


def chains_containing(
    cover: Cover,
    sigma,
    mode: str = "trivial",
    classification: CoverClassification | None = None,
) -> SimplicialComplex:
    """S_sigma: full subcomplex of the verified sub-nerve on the members
    containing the given simplex.  Empty when no member contains it."""
    if cover.kind != COMPLEX:
        raise InvalidCover("chains_containing needs a cover of a complex")
    s = frozenset(sigma)
    i = cover.parent.index().id_of.get(tuple(sorted(s)))
    if i is None:
        raise UnknownSimplex(f"{sorted(s)} is not a simplex of the parent")
    n0, _ = n_zero_complex(cover, mode=mode, classification=classification)
    simplices = n0.index().simplices
    return SimplicialComplex(simplices[j] for j in _s_sigma_ids(cover, n0)[i])


# ---------------------------------------------------------------------------
# nerve-theorem checkers
# ---------------------------------------------------------------------------

# flavor: (the cover kind it applies to, None for both; verdict mode; nerve object)
FLAVORS = {
    "good-complex": (None, "trivial", "nerve"),
    "strong-good-complex": (None, "collapsible", "nerve"),
    "good-space": (None, "trivial", "nerve"),
    "strong-good-space": (None, "collapsible", "nerve"),
    "trivial-subnerve-space": (POSET, "trivial", "N0"),
    "collapsible-subnerve-space": (POSET, "collapsible", "N0"),
    "trivial-subnerve-complex": (COMPLEX, "trivial", "N0"),
    "reduced-space": (POSET, "collapsible", "reduced N0"),
    "reduced-complex": (COMPLEX, "collapsible", "reduced N0"),
}


def check_nerve_theorem(
    cover: Cover,
    flavor: str,
    restarts: int = 8,
    seed: int = 0,
) -> dict:
    """Evaluate one nerve theorem's hypotheses and its homology shadow.

    The conclusion (reduced homology of the parent equals that of the nerve
    object, all degrees, betti and torsion) is computed regardless of the
    hypothesis verdicts so counterexample hunting is possible.  Simple
    homotopy equivalence itself is not decided.
    """
    if flavor not in FLAVORS:
        raise MalformedSpec(f"unknown flavor {flavor!r}; choose from {tuple(FLAVORS)}")
    kind, mode, nerve_object = FLAVORS[flavor]
    cls = classify_cover(cover, restarts=restarts, seed=seed)
    report: dict = {"flavor": flavor}

    X = cover.parent
    # the nerve object: the nerve L for the nerve flavours, of either cover
    # kind (the order complex of its face poset, the non-Hausdorff nerve, is
    # sd L, so the two have one homology; McCord 1966); for the sub-nerve
    # N0 of a complex, a complex L; else a finite space P standing for K(P),
    # which is never built
    P = None
    if nerve_object == "nerve":
        report["hypothesis_verdict"] = cls.strong_good if mode == "collapsible" else cls.good
        L = nerve(cover)
    else:
        space, reduced = kind == POSET, nerve_object == "reduced N0"
        if cover.kind != kind:
            raise InvalidCover(
                f"{flavor} applies to covers of {'finite spaces' if space else 'complexes'}"
            )
        if space or reduced:
            n0 = n_zero_subspace(cover, mode=mode, reduced=reduced, classification=cls)
            excluded, P = n0.excluded_unknown, n0.poset
        else:
            L, excluded = n_zero_complex(cover, mode=mode, classification=cls)
        if reduced:
            bound = "height" if space else "dim"
            cap = X.height() if space else X.dim()
            report[f"{bound}_cap"] = cap
            report[f"n0_{bound}_ok"] = P.height() <= cap if len(P) else True
        per_element = {}
        bounds_ok = True
        if P is not None:  # per point its I_x, per simplex its Q_sigma: masks over P
            # S_sigma = K(Q_sigma), of dimension Q_sigma's height; a weak-point
            # collapse of Q_sigma gives one of K(Q_sigma) (Barmak-Minian 2008)
            decide = clp._triviality if mode == "trivial" else clp._weak_collapse
            part, own = ("I_x", X.height_of) if space else ("S_sigma", lambda s: len(s) - 1)
            for x, q in zip(X.elements if space else X.all_simplices(), _holder_masks(cover, P)):
                key = x if space else simplex_id(x)
                if not q:
                    per_element[key] = clp.TriStateResult("no", note=f"{part} is empty")
                    continue
                per_element[key] = decide(P, q)
                if not space and per_element[key].verdict == "unknown":  # stuck, acyclic
                    K = order_complex(P.restrict(P._members(q)))
                    per_element[key] = clp.greedy_collapse_complex(K, restarts=restarts, seed=seed)
                bounds_ok &= not reduced or _height(P, q) <= cap - own(x)
        else:  # S_sigma per simplex sigma, as simplex ids of N0's index
            index = L.index()
            for s, ids in zip(X.all_simplices(), _s_sigma_ids(cover, L)):
                if not ids:
                    per_element[simplex_id(s)] = clp.TriStateResult("no", note="S_sigma is empty")
                    continue
                verdicts = clp._complex_verdicts(index, ids, restarts, seed)
                per_element[simplex_id(s)] = verdicts[mode == "collapsible"]
        report["per_point" if space else "per_simplex"] = {
            k: v.to_doc() for k, v in per_element.items()
        }
        verdicts = [v.verdict for v in per_element.values()]
        if reduced:
            report[f"{bound}_bounds_ok"] = bounds_ok
            if not bounds_ok or not report[f"n0_{bound}_ok"]:
                verdicts.append("no")
        report["excluded_unknown"] = list(excluded)
        report["hypothesis_verdict"] = clp.aggregate_verdict(
            verdicts + ["unknown"] * len(excluded)
        )
        if L.is_empty() if P is None else not len(P):
            raise InvalidCover(f"{nerve_object} is empty; no verified intersections")
        if reduced:
            report["assumption"] = REDUCED_NERVE_ASSUMPTION

    parent_hom = reduced_homology(X) if cover.kind == COMPLEX else homology_of_poset(X)
    nerve_obj_hom = reduced_homology(L) if P is None else homology_of_poset(P)
    report["parent_homology"] = parent_hom.summary()
    report["nerve_homology"] = nerve_obj_hom.summary()
    report["conclusion_homology_match"] = homology_equal(parent_hom, nerve_obj_hom)
    report["note"] = (
        "homology agreement is the computable shadow of the asserted "
        "(simple) homotopy equivalence; the equivalence itself is not decided"
    )
    return report


REDUCED_NERVE_ASSUMPTION = (
    "reduced nerve taken as: distinct non-empty intersections ordered by "
    "reverse inclusion, equal intersections identified"
)

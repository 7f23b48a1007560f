"""Covers, nerves and the nerve-theorem hypothesis checkers.

A cover is a named family of subcomplexes of a complex, or of open (downward
closed) subsets of a finite space, whose union is the whole object.  The
nerve records which index sets have non-empty common intersection; the
non-Hausdorff nerve is its face poset; the reduced nerve identifies index
sets with literally equal intersections and orders the distinct
intersections by reverse inclusion.

Classification verdicts are three-valued and Unknown intersections are
never silently treated as trivial or collapsible: the N0 constructions
exclude them and list them separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from . import collapse as clp
from .complexes import SimplicialComplex, order_complex, simplex_id
from .errors import (
    InvalidCover,
    InvariantViolation,
    MalformedSpec,
    UnknownElement,
    UnknownMember,
    UnknownSimplex,
)
from .homology import homology_equal, homology_of_poset, reduced_homology
from .posets import FinitePoset, _bits, _ids, build_poset

COMPLEX = "complex"
POSET = "poset"


@dataclass(frozen=True)
class Cover:
    """Named subobjects covering a complex or a finite space.

    For ``kind == "complex"`` members map names to subcomplexes; for posets,
    to downward closed element sets.

    Each member is also held as an int bitmask, over the parent's simplex ids
    for complexes and over element positions for finite spaces, so the
    intersection of an index set is an AND of masks.  The masks, the nerve,
    the reduced nerve and the classification verdicts per intersection mask
    are built on first use and kept in ``_memo``, which takes no part in
    equality or hashing.
    """

    kind: str
    parent: object
    members: tuple[tuple[str, object], ...]
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        names = [n for n, _ in self.members]
        if len(set(names)) != len(names):
            raise InvalidCover("duplicate member names")
        if not self.members:
            raise InvalidCover("a cover needs at least one member")
        if self.kind == COMPLEX:
            for name, sub in self.members:
                if not isinstance(sub, SimplicialComplex):
                    raise InvalidCover(f"member {name!r} is not a complex")
                if not sub.is_subcomplex_of(self.parent):
                    raise InvalidCover(f"member {name!r} is not a subcomplex of the parent")
            if SimplicialComplex(f for _, sub in self.members for f in sub.facets) != self.parent:
                raise InvalidCover("members do not cover the parent complex")
        elif self.kind == POSET:
            union: set[str] = set()
            for name, sub in self.members:
                sub = frozenset(sub)
                if not sub <= set(self.parent.elements):
                    raise InvalidCover(f"member {name!r} is not a subset of the space")
                if not self.parent.is_open(sub):
                    raise InvalidCover(f"member {name!r} is not open (not downward closed)")
                union |= sub
            if union != set(self.parent.elements):
                raise InvalidCover("members do not cover the space")
        else:
            raise InvalidCover(f"unknown cover kind {self.kind!r}")

    # -- member accessors ----------------------------------------------------

    def names(self) -> list[str]:
        return [n for n, _ in self.members]

    def member(self, name: str):
        for n, sub in self.members:
            if n == name:
                return sub
        raise UnknownMember(f"no cover member named {name!r}")

    def _masks(self) -> dict[str, int]:
        masks = self._memo.get("masks")
        if masks is None:
            if self.kind == COMPLEX:
                id_of = self.parent.index().id_of
                masks = {
                    n: _bits(id_of[s] for s in sub.index().simplices) for n, sub in self.members
                }
            else:
                masks = {n: self.parent._mask(sub) for n, sub in self.members}
            self._memo["masks"] = masks
        return masks

    def _mask(self, J: tuple[str, ...]) -> int:
        """Mask of the intersection over the index set J."""
        if not J:
            raise InvalidCover("intersection of an empty index set")
        masks = self._masks()
        out = -1
        for n in J:
            if n not in masks:
                self.member(n)  # raises UnknownMember
            out &= masks[n]
        return out

    def _union_mask(self, J) -> int:
        """Mask of the union of the members in J (0 for an empty J)."""
        masks = self._masks()
        union = 0
        for n in J:
            if n not in masks:
                self.member(n)  # raises UnknownMember
            union |= masks[n]
        return union

    def _object(self, J: tuple[str, ...], mask: int):
        """The intersection over the sorted index set J, built from its mask.

        A single member is returned as it is.  For complexes the facets are
        the masked simplices with no masked coface.
        """
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

    def intersection(self, names):
        J = tuple(sorted(names))
        return self._object(J, self._mask(J))

    def subunion(self, names) -> object:
        """K_J: union of the members indexed by J (empty J gives the empty object)."""
        subs = [self.member(n) for n in sorted(set(names))]
        if self.kind == COMPLEX:
            return SimplicialComplex(f for sub in subs for f in sub.facets)
        return frozenset().union(*subs)

    def intersection_is_empty(self, names) -> bool:
        return not self._mask(tuple(sorted(names)))

    def to_json(self) -> str:
        if self.kind == COMPLEX:
            return json.dumps(
                {
                    "kind": self.kind,
                    "parent": json.loads(self.parent.to_json()),
                    "members": [
                        {"name": n, "facets": sorted(sorted(f) for f in sub.facets)}
                        for n, sub in self.members
                    ],
                }
            )
        return json.dumps(
            {
                "kind": self.kind,
                "parent": json.loads(self.parent.to_json()),
                "members": [
                    {"name": n, "elements": sorted(sub)} for n, sub in self.members
                ],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Cover":
        doc = json.loads(text)
        if doc["kind"] == COMPLEX:
            parent = SimplicialComplex(doc["parent"]["facets"])
            members = tuple(
                (m["name"], SimplicialComplex(m["facets"])) for m in doc["members"]
            )
        else:
            parent = FinitePoset.from_json(json.dumps(doc["parent"]))
            members = tuple(
                (m["name"], frozenset(m["elements"])) for m in doc["members"]
            )
        return Cover(doc["kind"], parent, members)


def _index_sets(cover: Cover, max_subsets: int, nerve_simplices_only: bool):
    """Non-empty index sets J with the mask of their intersection, in
    deterministic order (size, then lexicographic).

    Level by level, each J is extended only by names after its last one.
    With ``nerve_simplices_only`` only sets with a non-empty intersection are
    listed and extended; the nerve is downward closed, so none is lost.
    """
    names = sorted(cover.names())
    if len(names) > max_subsets:
        raise InvalidCover(
            f"{len(names)} members exceed the subset-enumeration cap {max_subsets}"
        )
    by_name = cover._masks()
    masks = [by_name[n] for n in names]
    level = [
        ((n,), m, k)
        for k, (n, m) in enumerate(zip(names, masks))
        if m or not nerve_simplices_only
    ]
    while level:
        for J, m, _ in level:
            yield J, m
        level = [
            (J + (names[k],), meet, k)
            for J, m, last in level
            for k in range(last + 1, len(names))
            if (meet := m & masks[k]) or not nerve_simplices_only
        ]


def nerve(cover: Cover) -> SimplicialComplex:
    """N(U): simplices are index sets with non-empty intersection.

    Built once per cover from its maximal index sets.
    """
    N = cover._memo.get("nerve")
    if N is None:
        masks = cover._masks()
        N = SimplicialComplex(
            J
            for J, m in _index_sets(cover, 20, nerve_simplices_only=True)
            if not any(m & masks[n] for n in masks if n not in J)
        )
        cover._memo["nerve"] = N
    return N


def non_hausdorff_nerve(cover: Cover) -> FinitePoset:
    """Face poset of the nerve; elements are simplex ids of index sets."""
    return nerve(cover).face_poset()


@dataclass(frozen=True)
class ReducedNerve:
    """Distinct non-empty intersections ordered by reverse inclusion.

    Equal intersections are identified; each class is named by the simplex id
    of its smallest index set.  ``classes`` maps that id to all index sets in
    the class, ``intersections`` to the literal intersection object.
    """

    poset: FinitePoset
    classes: dict[str, tuple[tuple[str, ...], ...]]
    intersections: dict[str, object]


def reduced_nerve(cover: Cover) -> ReducedNerve:
    """The reduced nerve, built once per cover and kept with it."""
    rn = cover._memo.get("reduced_nerve")
    if rn is not None:
        return rn
    groups: dict[int, list[tuple[str, ...]]] = {}
    for J, m in _index_sets(cover, 20, nerve_simplices_only=True):
        groups.setdefault(m, []).append(J)
    # index sets arrive in (size, lexicographic) order: each class's first is its smallest
    reps = {m: simplex_id(Js[0]) for m, Js in groups.items()}
    # bigger intersection = lower (reverse inclusion)
    pairs = [(reps[a], reps[b]) for a in groups for b in groups if a != b and a & b == b]
    poset = build_poset(reps.values(), pairs)
    classes = {reps[m]: tuple(sorted(Js)) for m, Js in groups.items()}
    intersections = {reps[m]: cover._object(Js[0], m) for m, Js in groups.items()}
    rn = cover._memo["reduced_nerve"] = ReducedNerve(poset, classes, intersections)
    return rn


def reduced_nerve_complex(cover: Cover) -> SimplicialComplex:
    """Simplicial counterpart of the reduced nerve: its order complex."""
    return order_complex(reduced_nerve(cover).poset)


@dataclass(frozen=True)
class IntersectionRecord:
    index_set: tuple[str, ...]
    object: object
    empty: bool
    triviality: clp.TriStateResult | None
    collapsibility: clp.TriStateResult | None


@dataclass(frozen=True)
class CoverClassification:
    records: tuple[IntersectionRecord, ...]
    good: str
    strong_good: str

    def record(self, J) -> IntersectionRecord:
        J = tuple(sorted(J))
        for r in self.records:
            if r.index_set == J:
                return r
        raise UnknownMember(f"no record for index set {J}")


def classify_cover(
    cover: Cover,
    max_subsets: int = 20,
    nerve_simplices_only: bool = False,
    restarts: int = 8,
    seed: int = 0,
) -> CoverClassification:
    """Per-intersection triviality and collapsibility verdicts.

    Empty intersections are recorded and skipped.  Each distinct non-empty
    intersection is searched once: every index set with the same mask shares
    its object and verdicts, which the cover keeps per (restarts, seed), so
    a later classification of the same cover runs no search.  The
    triviality verdict is derived from the collapsibility verdict (see
    ``triviality_from_collapse``).
    """
    known = cover._memo.setdefault(("verdicts", restarts, seed), {})
    records = []
    empty = SimplicialComplex([]) if cover.kind == COMPLEX else frozenset()
    for J, mask in _index_sets(cover, max_subsets, nerve_simplices_only):
        if not mask:
            records.append(IntersectionRecord(J, empty, True, None, None))
            continue
        if mask not in known:
            known[mask] = _classify_intersection(cover, J, mask, restarts, seed)
        obj, triviality, collapsibility = known[mask]
        records.append(IntersectionRecord(J, obj, False, triviality, collapsibility))
    nonempty = [r for r in records if not r.empty]
    good = clp.aggregate_verdict(r.triviality.verdict for r in nonempty)
    strong = clp.aggregate_verdict(r.collapsibility.verdict for r in nonempty)
    if strong == "yes" and good != "yes":
        raise InvariantViolation("collapsible intersections must classify as good")
    return CoverClassification(tuple(records), good, strong)


def _classify_intersection(
    cover: Cover, J: tuple[str, ...], mask: int, restarts: int, seed: int
) -> tuple[object, clp.TriStateResult, clp.TriStateResult]:
    """The object, triviality and collapsibility of the non-empty
    intersection over J with the given mask.

    A complex intersection is searched on the parent's simplex index, on
    the ids of its mask; its own index is built only when every schedule
    gets stuck and its homology decides between No and Unknown.
    """
    obj = cover._object(J, mask)
    if cover.kind == COMPLEX:
        sub = obj
        cert = clp._free_face_search(
            cover.parent.index(), frozenset(), 1, restarts, seed, _ids(mask)
        )
        collapsibility = clp._search_verdict(cert, sub)
    else:
        sub = cover.parent.restrict(obj)
        collapsibility = clp.greedy_collapse_space(sub)
    return obj, clp.triviality_from_collapse(sub, collapsibility), collapsibility


@dataclass(frozen=True)
class NZeroResult:
    """N0: the sub-nerve of verified intersections.

    ``poset`` is the induced subposet of the (reduced) non-Hausdorff nerve on
    index sets whose verdict is Yes under the chosen mode; Unknowns are
    excluded and listed, never treated as verified.
    """

    poset: FinitePoset
    included: tuple[tuple[str, ...], ...]
    excluded_unknown: tuple[tuple[str, ...], ...]


def n_zero_subspace(
    cover: Cover,
    mode: str = "trivial",
    reduced: bool = False,
    classification: CoverClassification | None = None,
    restarts: int = 8,
    seed: int = 0,
) -> NZeroResult:
    if mode not in ("trivial", "collapsible"):
        raise MalformedSpec(f"mode must be trivial or collapsible, got {mode!r}")
    cls = classification or classify_cover(
        cover, nerve_simplices_only=True, restarts=restarts, seed=seed
    )
    verdict_of = {}
    for r in cls.records:
        if r.empty:
            continue
        v = r.triviality if mode == "trivial" else r.collapsibility
        verdict_of[r.index_set] = v.verdict
    included = tuple(sorted(J for J, v in verdict_of.items() if v == "yes"))
    excluded = tuple(sorted(J for J, v in verdict_of.items() if v == "unknown"))
    if reduced:
        rn = reduced_nerve(cover)
        keep = set()
        for rep, Js in rn.classes.items():
            if any(J in included for J in Js):
                keep.add(rep)
        poset = rn.poset.restrict(keep)
    else:
        chi = non_hausdorff_nerve(cover)
        keep = {simplex_id(J) for J in included}
        poset = chi.restrict(keep & set(chi.elements))
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
    result = n0 or n_zero_subspace(
        cover, mode=mode, reduced=reduced, classification=classification
    )
    if reduced:
        rn = reduced_nerve(cover)
        keep = {
            rep
            for rep in result.poset.elements
            if x in rn.intersections[rep]
        }
    else:
        keep = {
            simplex_id(J)
            for J in result.included
            if x in cover.intersection(J)
        }
    return result.poset.restrict(keep & set(result.poset.elements))


def n_zero_complex(
    cover: Cover,
    mode: str = "trivial",
    classification: CoverClassification | None = None,
) -> tuple[SimplicialComplex, tuple[tuple[str, ...], ...]]:
    """Subcomplex of the nerve on verified index sets, with the excluded list.

    Only index sets all of whose non-empty subsets are also verified are kept,
    so the result is honestly downward closed.
    """
    cls = classification or classify_cover(cover, nerve_simplices_only=True)
    verdict_of = {}
    for r in cls.records:
        if not r.empty:
            v = r.triviality if mode == "trivial" else r.collapsibility
            verdict_of[r.index_set] = v.verdict
    ok = {J for J, v in verdict_of.items() if v == "yes"}
    closed = [
        J
        for J in ok
        if all(
            tuple(sub) in ok
            for k in range(1, len(J))
            for sub in combinations(J, k)
            if tuple(sub) in verdict_of
        )
    ]
    excluded = tuple(sorted(J for J, v in verdict_of.items() if v == "unknown"))
    if not closed:
        return SimplicialComplex([]), excluded
    return SimplicialComplex(closed), excluded


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
    if not cover.parent.contains_simplex(s):
        raise UnknownSimplex(f"{sorted(s)} is not a simplex of the parent")
    n0, _ = n_zero_complex(cover, mode=mode, classification=classification)
    verts = {
        name for name, sub in cover.members if sub.contains_simplex(s)
    }
    return n0.full_subcomplex(verts & n0.vertices)


# ---------------------------------------------------------------------------
# nerve-theorem checkers
# ---------------------------------------------------------------------------

FLAVORS = (
    "good-complex",
    "strong-good-complex",
    "good-space",
    "strong-good-space",
    "trivial-subnerve-space",
    "collapsible-subnerve-space",
    "trivial-subnerve-complex",
    "reduced-space",
    "reduced-complex",
)


def _parent_homology(cover: Cover):
    if cover.kind == COMPLEX:
        return reduced_homology(cover.parent)
    return homology_of_poset(cover.parent)


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
        raise MalformedSpec(f"unknown flavor {flavor!r}; choose from {FLAVORS}")
    cls = classify_cover(cover, nerve_simplices_only=True, restarts=restarts, seed=seed)
    report: dict = {"flavor": flavor}
    mode = "collapsible" if ("strong" in flavor or "collapsible" in flavor or "reduced" in flavor) else "trivial"

    if flavor in ("good-complex", "strong-good-complex", "good-space", "strong-good-space"):
        report["hypothesis_verdict"] = cls.strong_good if mode == "collapsible" else cls.good
        nerve_obj_hom = (
            reduced_homology(nerve(cover))
            if cover.kind == COMPLEX
            else homology_of_poset(non_hausdorff_nerve(cover))
        )
    elif flavor in ("trivial-subnerve-space", "collapsible-subnerve-space"):
        if cover.kind != POSET:
            raise InvalidCover(f"{flavor} applies to covers of finite spaces")
        n0 = n_zero_subspace(cover, mode=mode, classification=cls)
        per_point = {}
        for x in cover.parent.elements:
            ix = containing_intersections(cover, x, mode=mode, n0=n0, classification=cls)
            if not len(ix):
                per_point[x] = clp.TriStateResult("no", note="I_x is empty")
            elif mode == "trivial":
                per_point[x] = clp.is_homotopically_trivial_poset(ix)
            else:
                per_point[x] = clp.greedy_collapse_space(ix)
        report["per_point"] = {x: v.to_doc() for x, v in per_point.items()}
        report["excluded_unknown"] = list(n0.excluded_unknown)
        report["hypothesis_verdict"] = clp.aggregate_verdict(
            [v.verdict for v in per_point.values()]
            + ["unknown"] * len(n0.excluded_unknown)
        )
        if not len(n0.poset):
            raise InvalidCover("N0 is empty; no verified intersections")
        nerve_obj_hom = homology_of_poset(n0.poset)
    elif flavor == "trivial-subnerve-complex":
        if cover.kind != COMPLEX:
            raise InvalidCover(f"{flavor} applies to covers of complexes")
        n0c, excluded = n_zero_complex(cover, mode="trivial", classification=cls)
        per_simplex = {}
        for s in cover.parent.all_simplices():
            ss = chains_containing(cover, s, mode="trivial", classification=cls)
            if ss.is_empty():
                per_simplex[s] = clp.TriStateResult("no", note="S_sigma is empty")
            else:
                per_simplex[s] = clp.is_homotopically_trivial_complex(
                    ss, restarts=restarts, seed=seed
                )
        report["per_simplex"] = {simplex_id(s): v.to_doc() for s, v in per_simplex.items()}
        report["excluded_unknown"] = list(excluded)
        report["hypothesis_verdict"] = clp.aggregate_verdict(
            [v.verdict for v in per_simplex.values()] + ["unknown"] * len(excluded)
        )
        if n0c.is_empty():
            raise InvalidCover("N0 is empty; no verified intersections")
        nerve_obj_hom = reduced_homology(n0c)
    elif flavor == "reduced-space":
        if cover.kind != POSET:
            raise InvalidCover(f"{flavor} applies to covers of finite spaces")
        n = cover.parent.height()
        n0 = n_zero_subspace(cover, mode="collapsible", reduced=True, classification=cls)
        report["height_cap"] = n
        report["n0_height_ok"] = n0.poset.height() <= n if len(n0.poset) else True
        per_point = {}
        bounds_ok = True
        for x in cover.parent.elements:
            ix = containing_intersections(
                cover, x, mode="collapsible", reduced=True, n0=n0, classification=cls
            )
            if not len(ix):
                per_point[x] = clp.TriStateResult("no", note="I_x is empty")
                continue
            per_point[x] = clp.greedy_collapse_space(ix)
            if ix.height() > n - cover.parent.height_of(x):
                bounds_ok = False
        report["per_point"] = {x: v.to_doc() for x, v in per_point.items()}
        report["height_bounds_ok"] = bounds_ok
        report["excluded_unknown"] = list(n0.excluded_unknown)
        verdicts = [v.verdict for v in per_point.values()]
        if not bounds_ok or not report["n0_height_ok"]:
            verdicts.append("no")
        report["hypothesis_verdict"] = clp.aggregate_verdict(
            verdicts + ["unknown"] * len(n0.excluded_unknown)
        )
        if not len(n0.poset):
            raise InvalidCover("reduced N0 is empty; no verified intersections")
        nerve_obj_hom = homology_of_poset(n0.poset)
        report["assumption"] = REDUCED_NERVE_ASSUMPTION
    else:  # reduced-complex
        if cover.kind != COMPLEX:
            raise InvalidCover(f"{flavor} applies to covers of complexes")
        n = cover.parent.dim()
        rn = reduced_nerve(cover)
        n0 = n_zero_subspace(cover, mode="collapsible", reduced=True, classification=cls)
        n0_complex = order_complex(n0.poset) if len(n0.poset) else SimplicialComplex([])
        report["dim_cap"] = n
        report["n0_dim_ok"] = (n0_complex.dim() <= n) if not n0_complex.is_empty() else True
        per_simplex = {}
        bounds_ok = True
        for s in cover.parent.all_simplices():
            keep = {
                rep for rep in n0.poset.elements
                if rn.intersections[rep].contains_simplex(frozenset(s))
            }
            sub = n0.poset.restrict(keep)
            if not len(sub):
                per_simplex[s] = clp.TriStateResult("no", note="S_sigma is empty")
                continue
            s_sigma = order_complex(sub)
            per_simplex[s] = clp.greedy_collapse_complex(
                s_sigma, restarts=restarts, seed=seed
            )
            if s_sigma.dim() > n - (len(s) - 1):
                bounds_ok = False
        report["per_simplex"] = {simplex_id(s): v.to_doc() for s, v in per_simplex.items()}
        report["dim_bounds_ok"] = bounds_ok
        report["excluded_unknown"] = list(n0.excluded_unknown)
        verdicts = [v.verdict for v in per_simplex.values()]
        if not bounds_ok or not report["n0_dim_ok"]:
            verdicts.append("no")
        report["hypothesis_verdict"] = clp.aggregate_verdict(
            verdicts + ["unknown"] * len(n0.excluded_unknown)
        )
        if n0_complex.is_empty():
            raise InvalidCover("reduced N0 is empty; no verified intersections")
        nerve_obj_hom = reduced_homology(n0_complex)
        report["assumption"] = REDUCED_NERVE_ASSUMPTION

    parent_hom = _parent_homology(cover)
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

"""Abstract simplicial complexes stored by facets.

Bridges to finite spaces: the order complex K(X) of a poset and the face
poset of a complex.  Simplices are materialized once per complex into a
:class:`SimplexIndex`, linked in one step from per-dimension levels: a
complex given by facets builds them on first use, top-down from its facets;
``_chain_levels`` lists the chains of a poset, or of a subspace given as a
mask, level by level, and ``order_complex`` returns the complex of all of
X's chains with its index already linked.  The empty complex is
representable but the empty simplex is never a member.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, combinations, compress, count, repeat
from operator import not_
from typing import Iterable, Sequence

from .errors import Document, _field, _id_sets
from .posets import FinitePoset, _bits, _ids, build_poset

Simplex = frozenset


def simplex_id(s: Iterable[str]) -> str:
    """Canonical string id of a simplex, used as a face-poset element id.

    The sorted vertex names are joined with ``|``, each with ``\\`` and ``|``
    escaped by a backslash, so distinct simplices get distinct ids; the id of
    names without either character is the plain join.
    """
    return "|".join(v.replace("\\", "\\\\").replace("|", "\\|") for v in sorted(s))


class SimplexIndex:
    """Every simplex of a complex, interned as an int.

    Ids follow (dimension, lexicographic) order over sorted vertex tuples.
    ``faces[i]`` lists the ids of the codimension-1 faces of simplex i and
    ``cofaces[i]`` those of the simplices it is a codimension-1 face of, both
    ascending; the k-th face of a d-simplex omits its vertex at position
    d - k.  The ids of dimension d run from ``dim_start[d]`` up to
    ``dim_start[d + 1]``.

    Every index is linked by ``_link`` from levels: one list per dimension,
    ascending from the vertices, each already in lexicographic order.  Built
    from facets, the levels are made top-down: a level is its dimension's
    facets together with the codimension-1 faces of the level above, so
    each simplex is hashed once per coface.  ``_chain_levels`` lists a
    poset's chains straight into levels.
    """

    __slots__ = ("simplices", "id_of", "faces", "cofaces", "dim_start")

    def __init__(self, facets: Iterable[Simplex]):
        by_size: dict[int, list[tuple[str, ...]]] = {}
        for f in map(tuple, map(sorted, facets)):
            by_size.setdefault(len(f), []).append(f)
        levels: list[list[tuple[str, ...]]] = []
        above: list[tuple[str, ...]] = []
        for k in range(max(by_size, default=0), 0, -1):
            level = set(by_size.get(k, ()))
            level.update(chain.from_iterable(map(combinations, above, repeat(k))))
            above = sorted(level)
            levels.append(above)
        levels.reverse()
        self._link(levels)

    @classmethod
    def _from_levels(cls, levels: list[list[tuple[str, ...]]]) -> "SimplexIndex":
        """The index of the simplices in levels, which must be closed under
        faces."""
        index = cls.__new__(cls)
        index._link(levels)
        return index

    def _link(self, levels: list[list[tuple[str, ...]]]) -> None:
        """Number the simplices of levels in order and link each to its
        faces and cofaces: the one step that makes every index.

        The faces of a dimension are looked up in one flat stream, the
        codimension-1 faces of each of its simplices in turn, and grouped
        back into tuples of d + 1 by one iterator zipped with itself; the
        cofaces are appended face by face, in id order.
        """
        self.simplices: list[tuple[str, ...]] = list(chain.from_iterable(levels))
        self.id_of: dict[tuple[str, ...], int] = dict(zip(self.simplices, count()))
        self.dim_start: list[int] = list(accumulate(map(len, levels), initial=0))
        face_id = self.id_of.__getitem__
        faces: list[tuple[int, ...]] = [()] * len(levels[0]) if levels else []  # a vertex has none
        for d, level in enumerate(levels[1:], 1):
            stream = map(face_id, chain.from_iterable(map(combinations, level, repeat(d))))
            faces += zip(*[stream] * (d + 1))
        cofaces: list[list[int]] = [[] for _ in faces]
        for i, ids in enumerate(faces):
            for f in ids:
                cofaces[f].append(i)
        self.faces, self.cofaces = faces, cofaces

    def down_closure(self, facets: Iterable[Iterable[str]]) -> int | None:
        """The mask over the ids of the given simplices and all their faces,
        or None when one of them is not in the index: a subcomplex of the
        indexed complex, given by its facets, found on this index."""
        ids = [self.id_of.get(tuple(sorted(f))) for f in facets]
        if None in ids:
            return None
        seen, level = set(), set(ids)
        while level:
            seen |= level
            level = {f for i in level for f in self.faces[i]} - seen
        return _bits(seen)

    def dim_cuts(self, ids: Sequence[int]) -> list[int]:
        """For ascending ids, the positions in ids where each dimension's
        ids begin, followed by len(ids): the counterpart of ``dim_start``
        for the subset, found by bisection."""
        return [bisect_left(ids, start) for start in self.dim_start]


class SimplicialComplex(Document):
    """Immutable abstract simplicial complex.

    ``facets`` are the maximal simplices; no facet contains another.
    Isolated vertices are singleton facets.
    """

    __slots__ = ("facets", "vertices", "_index")

    def __init__(self, facets: Iterable[Iterable[str]]):
        self._assign(_maximalize(frozenset(map(frozenset, facets))), None)

    def _assign(self, facets: frozenset[Simplex], index: SimplexIndex | None) -> None:
        """Store the facets and the index, when it is already built: the one
        step that makes every complex."""
        self.facets: frozenset[Simplex] = facets
        self.vertices: frozenset[str] = frozenset().union(*facets)
        self._index: SimplexIndex | None = index

    @classmethod
    def _from_levels(cls, levels: list[list[tuple[str, ...]]]) -> "SimplicialComplex":
        """The complex of the simplices in levels (see ``SimplexIndex``),
        which must be closed under faces, with its index linked from them;
        the facets are the simplices with no coface."""
        index = SimplexIndex._from_levels(levels)
        K = cls.__new__(cls)
        maximal = compress(index.simplices, map(not_, index.cofaces))
        K._assign(frozenset(map(frozenset, maximal)), index)
        return K

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"

    def is_empty(self) -> bool:
        return not self.facets

    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def index(self) -> SimplexIndex:
        """The simplex index, built on first use and kept with the complex."""
        if self._index is None:
            self._index = SimplexIndex(self.facets)
        return self._index

    def all_simplices(self, max_dim: int | None = None) -> list[tuple[str, ...]]:
        """All simplices, by dimension then lexicographically, as sorted tuples."""
        index = self.index()
        top = self.dim() if max_dim is None else min(max_dim, self.dim())
        return index.simplices[: index.dim_start[max(top + 1, 0)]]

    def simplices_of_dim(self, d: int) -> list[tuple[str, ...]]:
        if not 0 <= d <= self.dim():
            return []
        index = self.index()
        return index.simplices[index.dim_start[d] : index.dim_start[d + 1]]

    def num_simplices(self) -> int:
        return len(self.index().simplices)

    def euler_characteristic(self) -> int:
        starts = self.index().dim_start
        return sum((-1) ** d * (starts[d + 1] - starts[d]) for d in range(len(starts) - 1))

    # -- subcomplexes and combinations ---------------------------------------

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return SimplicialComplex(list(self.facets) + list(other.facets))

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        common = [a & b for a in self.facets for b in other.facets if a & b]
        return SimplicialComplex(common)

    def without(self, simplices: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Remove the given simplices (and implicitly all their cofaces)."""
        gone = {frozenset(s) for s in simplices}
        keep = [
            s
            for s in map(frozenset, self.all_simplices())
            if s not in gone and not any(g <= s for g in gone)
        ]
        return SimplicialComplex(keep)

    # -- bridges to finite spaces --------------------------------------------

    def face_poset(self) -> FinitePoset:
        """Poset of all simplices ordered by inclusion (element ids via simplex_id)."""
        index = self.index()
        ids = [simplex_id(s) for s in index.simplices]
        pairs = [(ids[f], ids[i]) for i, faces in enumerate(index.faces) for f in faces]
        return build_poset(ids, pairs)

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        return {"facets": sorted(sorted(f) for f in self.facets)}

    @staticmethod
    def from_doc(doc, what: str = "the complex") -> "SimplicialComplex":
        facets = _field(doc, "facets", what)
        return SimplicialComplex(_id_sets(facets, f"{what} facets"))


def _maximalize(faces: frozenset[Simplex]) -> frozenset[Simplex]:
    """The non-empty faces in no other face.  A face strictly containing f is
    larger than the smallest face and passes through f's rarest vertex."""
    faces = [f for f in faces if f]
    smallest = min(map(len, faces), default=0)
    through: dict[str, list[Simplex]] = {}
    for g in faces:
        if len(g) > smallest:
            for v in g:
                through.setdefault(v, []).append(g)
    return frozenset(
        f
        for f in faces
        if not through or not any(f < g for g in min((through.get(v, ()) for v in f), key=len))
    )


def order_complex(X: FinitePoset) -> SimplicialComplex:
    """K(X): simplices are the non-empty chains of X, facets the maximal chains."""
    return SimplicialComplex._from_levels(_chain_levels(X, (1 << len(X)) - 1))


def _chain_levels(X: FinitePoset, mask: int) -> list[list[tuple[str, ...]]]:
    """The levels (see ``SimplexIndex``) of K of the subspace mask of X: its
    non-empty chains, by size.

    The chains are listed level by level over X's positions, which follow
    its sorted element names: a chain is extended only by the positions of
    mask after its last one that are comparable to every member, carried as
    a mask.  So each chain is listed once, and each level comes out in
    lexicographic order, as the index wants it.
    """
    singles = [(x,) for x in X.elements]
    # the positions of mask after i comparable to i
    later = [(b | a) & mask & -(2 << i) for i, (b, a) in enumerate(zip(X._below, X._above))]
    level = [(singles[i], later[i]) for i in _ids(mask)]
    levels = []
    while level:
        levels.append([c for c, _ in level])
        level = [(c + singles[j], m & later[j]) for c, m in level if m for j in _ids(m)]
    return levels


def simplex_boundary(n: int, prefix: str = "v") -> SimplicialComplex:
    """Boundary of an n-simplex on vertices prefix0..prefixn."""
    verts = [f"{prefix}{i}" for i in range(n + 1)]
    return SimplicialComplex(combinations(verts, n))


def solid_simplex(vertices: Iterable[str]) -> SimplicialComplex:
    return SimplicialComplex([list(vertices)])


def cone(apex: str, base: SimplicialComplex) -> SimplicialComplex:
    """Cone with the given apex over a base complex."""
    if base.is_empty():
        return SimplicialComplex([[apex]])
    return SimplicialComplex([f | {apex} for f in base.facets])

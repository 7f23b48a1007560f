"""Finite T0-spaces as partial orders.

A finite T0-space is the same data as a finite poset: the minimal open set
of a point is its down-set, the closure of a point is its up-set.  Posets
are immutable.  Every poset is built by one routine, ``_build``: it indexes
the elements by sorted position and stores, once, each position's strict
down- and up-set as int bitmasks, its height, a linear extension and the
Hasse pairs; queries, covers included, are mask operations.  All
deterministic orderings tie-break by lexicographic element id.

A subspace is a mask over the positions.  One worklist loop, ``_prune``,
is the only routine that removes points from a subspace: a point goes when
its punctured down or up set passes a test, the beat test ``_one_extreme``
(exactly one maximal or one minimal point) or the weak test ``_weak`` (the
punctured set is contractible).  Asked to record its removals, the loop
takes the lowest position first, so certificates follow element order; a
verdict-only run takes the highest first.  With the beat test it decides
contractibility, ``_contractible``; beat then weak removals give
``_weak_reduction``, which shrinks the input of poset homology.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import (
    CycleDetected,
    Document,
    DuplicateElement,
    MalformedSpec,
    UnknownElement,
    _field,
    _id_lists,
    _string_ids,
)


class FinitePoset(Document):
    """Immutable finite poset given by its Hasse diagram.

    ``hasse`` holds covering pairs ``(a, b)`` meaning ``a < b`` with nothing
    strictly between; MalformedSpec names the least pair that is not
    covering.  Use :func:`build_poset` to construct one from an arbitrary
    acyclic generating relation.
    """

    __slots__ = ("elements", "hasse", "_pos", "_below", "_above", "_order", "_height_of")

    def __init__(self, elements: Iterable[str], hasse: Iterable[tuple[str, str]]):
        given = sorted({(a, b) for a, b in hasse})
        elements, pos, edges = _intern(elements, given, "hasse")
        _build(self, elements, pos, edges)
        if len(self.hasse) != len(given):
            a, b = next(p for p, (i, j) in zip(given, edges) if self._above[i] & self._below[j])
            raise MalformedSpec(f"hasse pair ({a}, {b}) is not a covering pair")

    # -- basic queries -----------------------------------------------------

    def __contains__(self, x: str) -> bool:
        return x in self._pos

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.elements == other.elements
            and self.hasse == other.hasse
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.hasse))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements, {len(self.hasse)} covers)"

    def _at(self, x: str) -> int:
        """Position of x in ``elements``."""
        i = self._pos.get(x)
        if i is None:
            raise UnknownElement(f"{x!r} is not an element of this poset")
        return i

    def _mask(self, members: Iterable[str]) -> int:
        out = 0
        for x in members:
            out |= 1 << self._at(x)
        return out

    def _members(self, mask: int) -> frozenset[str]:
        return frozenset(map(self.elements.__getitem__, _ids(mask)))

    def lt(self, a: str, b: str) -> bool:
        return bool(self._below[self._at(b)] >> self._at(a) & 1)

    def leq(self, a: str, b: str) -> bool:
        return a == b and a in self._pos or self.lt(a, b)

    def covers_below(self, x: str) -> list[str]:
        return [self.elements[i] for i in _extremal(self._below[self._at(x)], self._above)]

    def covers_above(self, x: str) -> list[str]:
        return [self.elements[i] for i in _extremal(self._above[self._at(x)], self._below)]

    # -- open / closed subsets ---------------------------------------------

    def down_set(self, x: str, strict: bool = False) -> frozenset[str]:
        """Minimal open set U_x; with ``strict`` the punctured version."""
        i = self._at(x)
        return self._members(self._below[i] if strict else self._below[i] | 1 << i)

    def up_set(self, x: str, strict: bool = False) -> frozenset[str]:
        """Closure F_x of the point x; with ``strict`` the punctured version."""
        i = self._at(x)
        return self._members(self._above[i] if strict else self._above[i] | 1 << i)

    def open_hull(self, members: Iterable[str]) -> frozenset[str]:
        return self._members(_hull(self._mask(members), self._below))

    def closure(self, members: Iterable[str]) -> frozenset[str]:
        return self._members(_hull(self._mask(members), self._above))

    def is_open(self, members: Iterable[str]) -> bool:
        mask = self._mask(members)
        return _hull(mask, self._below) == mask

    # -- global structure ----------------------------------------------------

    def height_of(self, x: str) -> int:
        """Length (edge count) of the longest chain ending at x."""
        return self._height_of[self._at(x)]

    def height(self) -> int:
        return max(self._height_of, default=0)

    def maximal_elements(self) -> list[str]:
        return [x for x, up in zip(self.elements, self._above) if not up]

    def minimal_elements(self) -> list[str]:
        return [x for x, down in zip(self.elements, self._below) if not down]

    def has_maximum(self) -> bool:
        return len(self.maximal_elements()) == 1

    def has_minimum(self) -> bool:
        return len(self.minimal_elements()) == 1

    def opposite(self) -> "FinitePoset":
        pos = self._pos
        edges = [(pos[b], pos[a]) for a, b in self.hasse]
        return _build(FinitePoset.__new__(FinitePoset), self.elements, pos, edges)

    def linear_extension(self) -> list[str]:
        """Total order respecting the partial order, lexicographic tie-break."""
        return [self.elements[i] for i in self._order]

    def restrict(self, members: Iterable[str]) -> "FinitePoset":
        """Induced subposet on a subset of elements: b covers a there when
        a < b and no member lies strictly between them."""
        keep = self._mask(members)
        kept = _ids(keep)
        new = {i: k for k, i in enumerate(kept)}
        edges = [
            (new[i], new[j]) for j in kept for i in _extremal(self._below[j] & keep, self._above)
        ]
        names = tuple(map(self.elements.__getitem__, kept))
        pos = {x: k for k, x in enumerate(names)}
        return _build(FinitePoset.__new__(FinitePoset), names, pos, edges)

    def order_pairs(self) -> frozenset[tuple[str, str]]:
        """All strict order pairs (a, b) with a < b."""
        names = self.elements
        return frozenset(
            (names[i], b) for b, below in zip(names, self._below) for i in _ids(below)
        )

    def remove(self, x: str) -> "FinitePoset":
        i = self._at(x)
        return self.restrict(self.elements[:i] + self.elements[i + 1 :])

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        return {"elements": list(self.elements), "relations": sorted(map(list, self.hasse))}

    @staticmethod
    def from_doc(doc, what: str = "the poset") -> "FinitePoset":
        elements = _string_ids(_field(doc, "elements", what), f"{what} elements")
        relations = _id_lists(_field(doc, "relations", what), f"{what} relations", size=2)
        return build_poset(elements, relations)


def _ids(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending.

    Peeling the lowest set bit costs a few big-int operations per set bit,
    each linear in the mask's length; scanning the binary digits costs a
    fixed set-up and a step per digit.  Measured on CPython 3.11, a peel
    step costs about 1024 + length units and the scan 4096 + 256 * length,
    so the scan runs only where it is the cheaper one, and either way the
    cost stays linear in the length.  With 5 or fewer set bits the scan is
    never cheaper, so those masks skip the comparison.
    """
    count = mask.bit_count()
    if count > 5:
        length = mask.bit_length()
        if count * (length + 1024) > (length << 8) + 4096:
            return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bits(ids: Iterable[int]) -> int:
    """The mask with the given positions set."""
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def _extremal(mask: int, strict: list[int]) -> list[int]:
    """Positions of mask whose strict set misses mask, ascending: the
    maximal ones of mask for strict up sets, the minimal ones for down sets."""
    return [i for i in _ids(mask) if not strict[i] & mask]


def _hull(mask: int, strict: list[int]) -> int:
    """mask together with the strict sets of its positions."""
    out = mask
    for i in _ids(mask):
        out |= strict[i]
    return out


def _height(X: FinitePoset, mask: int) -> int:
    """Length (edge count) of the longest chain in the subspace mask of X,
    read along X's linear extension."""
    height: dict[int, int] = {}
    for j in X._order:
        if mask >> j & 1:
            height[j] = 1 + max(map(height.__getitem__, _ids(X._below[j] & mask)), default=-1)
    return max(height.values(), default=0)


def _one_extreme(X: FinitePoset, mask: int, beyond: list[int], strict: list[int]) -> bool:
    """The beat test: whether the non-empty subspace mask of X has exactly
    one maximal point, where ``beyond`` holds each position's strict up-set
    and ``strict`` its strict down-set; with the two swapped, exactly one
    minimal point.  A point whose punctured down set passes is a down-beat
    point, one whose punctured up set passes (swapped) an up-beat point.

    A finite set has exactly one maximal element when it has a maximum, so
    one walk along ``beyond`` inside the mask reaches a maximal point m, and
    one containment decides: every other point of the mask lies below m.
    """
    m = mask.bit_length() - 1
    while further := beyond[m] & mask:
        m = further.bit_length() - 1
    return not (mask ^ 1 << m) & ~strict[m]


def _weak(X: FinitePoset, mask: int, beyond: list[int], strict: list[int]) -> bool:
    """The weak test: whether the non-empty subspace mask of X (a punctured
    down or up set) is contractible; the direction does not matter."""
    return _contractible(X, mask)


def _prune(
    X: FinitePoset, alive: int, test, keep: int = 0, size: int = 1, steps: list | None = None
) -> int:
    """What is left of the non-empty subspace alive of X after removing,
    one at a time, points outside the mask keep whose punctured down set in
    what is left is non-empty and passes ``test(X, down, above, below)``, or
    whose punctured up set is non-empty and passes ``test(X, up, below,
    above)`` (X's strict masks); the loop stops at ``size`` points.

    The points wait on a worklist.  A point's test reads only its punctured
    sets, so a point that failed can pass again only after a point
    comparable to it was removed, and a removal puts back on the worklist
    just those points: every point off the worklist would fail.  When
    ``steps`` is a list, each removal is appended to it as (position, side),
    side 0 for the down set and 1 for the up set, and the lowest position
    goes first: that is the first removable point in element order, the one
    a rescan from the first point would remove, so certificates follow
    element order.  Otherwise the highest position goes first, which on
    graded posets runs fewer tests.
    """
    below, above = X._below, X._above
    count = alive.bit_count()
    free = ~keep
    todo = alive & free
    while count > size and todo:
        i = (todo & -todo if steps is not None else todo).bit_length() - 1
        todo ^= 1 << i
        if (down := below[i] & alive) and test(X, down, above, below):
            side = 0
        elif (up := above[i] & alive) and test(X, up, below, above):
            side = 1
        else:
            continue
        alive ^= 1 << i
        count -= 1
        todo |= (below[i] | above[i]) & alive & free
        if steps is not None:
            steps.append((i, side))
    return alive


def _contractible(X: FinitePoset, alive: int) -> bool:
    """Whether beat-point removals take the non-empty subspace alive of X to
    a point.

    The core is unique up to homeomorphism (Stong), so every maximal run of
    beat-point removals ends at the same number of points, whatever the
    order, and no removal steps are recorded.
    """
    return _prune(X, alive, _one_extreme).bit_count() == 1


def _weak_reduction(X: FinitePoset, alive: int) -> int:
    """What weak-point removals leave of the non-empty subspace alive of X:
    first every beat point goes, then every point whose punctured down or up
    set is contractible (a weak point).  The result depends on the order,
    its weak homotopy type does not: removing a weak point x gives a
    collapse K(X) onto K(X - x) (Barmak and Minian, Adv. Math. 218, 2008)."""
    return _prune(X, _prune(X, alive, _one_extreme), _weak)


def _intern(elements: Iterable[str], pairs: Iterable[tuple[str, str]], what: str):
    """The sorted elements, their positions and the pairs as position pairs
    in the order given; raises on duplicate or unknown elements."""
    elements = tuple(sorted(elements))
    if len(set(elements)) != len(elements):
        raise DuplicateElement(f"duplicate element ids in {list(elements)}")
    pos = {x: i for i, x in enumerate(elements)}
    edges = []
    for a, b in pairs:
        if a not in pos or b not in pos:
            raise UnknownElement(f"{what} pair ({a}, {b}) mentions unknown element")
        edges.append((pos[a], pos[b]))
    return elements, pos, edges


def _build(X: FinitePoset, elements: tuple[str, ...], pos: dict[str, int], edges):
    """Store on X the poset generated by edges (i, j), i below j, over the
    positions of the sorted elements, and return X.  The stored Hasse
    diagram is the transitive reduction: the edges with nothing both above
    i and below j (a covering pair of the closure is an edge, as a longer
    path passes an element between its ends)."""
    order, below, above, height = _closure(elements, edges)
    X.elements, X._pos = elements, pos
    X._order, X._below, X._above, X._height_of = order, below, above, height
    X.hasse = frozenset((elements[i], elements[j]) for i, j in edges if not above[i] & below[j])
    return X


def _closure(elements: Sequence[str], edges: Iterable[tuple[int, int]]):
    """The strict order generated by edges (i, j), i below j, over the
    positions of elements: the topological order taking the least ready
    position first, below- and above-masks (the transpose, built in reverse
    order) and heights (a longest path along a generating relation is a
    longest chain).  The closure of the generating relation is the order
    itself, with the same masks and heights, and its least-ready-first order
    is the same: either edge set makes ready exactly the minimal unplaced
    positions.  Raises CycleDetected when the edges close a cycle."""
    n = len(elements)
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        preds[j].append(i)
        succs[i].append(j)
    indeg = [len(p) for p in preds]
    ready = [i for i in range(n) if not indeg[i]]
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if not indeg[j]:
                heapq.heappush(ready, j)
    if len(order) != n:
        raise CycleDetected([elements[i] for i in _find_cycle(succs, indeg)])
    below, above, height = [0] * n, [0] * n, [0] * n
    down, up = [0] * n, [0] * n  # the masks with the position's own bit
    for j in order:
        below[j] = reduce(or_, map(down.__getitem__, preds[j]), 0)
        down[j] = below[j] | 1 << j
        height[j] = 1 + max(map(height.__getitem__, preds[j]), default=-1)
    for i in reversed(order):
        above[i] = reduce(or_, map(up.__getitem__, succs[i]), 0)
        up[i] = above[i] | 1 << i
    return order, below, above, height


def _find_cycle(succs: list[list[int]], indeg: list[int]) -> list[int]:
    """A cycle among the positions a topological sort left with positive
    in-degree, starting from the least and stepping to the least next one;
    positions above a cycle that lead to none are dropped first, so the walk
    cannot end at one of them."""
    remaining = {i for i, d in enumerate(indeg) if d > 0}
    while dead := {i for i in remaining if remaining.isdisjoint(succs[i])}:
        remaining -= dead
    seen: dict[int, int] = {}
    path: list[int] = []
    i = min(remaining)
    while i not in seen:
        seen[i] = len(path)
        path.append(i)
        i = min(j for j in succs[i] if j in remaining)
    return path[seen[i]:]


def build_poset(
    elements: Iterable[str], relation_pairs: Iterable[tuple[str, str]]
) -> FinitePoset:
    """Build a poset from any acyclic generating relation: the order is its
    transitive closure and the stored Hasse diagram its transitive reduction.
    """
    elements, pos, edges = _intern(elements, relation_pairs, "relation")
    for i, j in edges:
        if i == j:
            raise CycleDetected([elements[i]])
    return _build(FinitePoset.__new__(FinitePoset), elements, pos, set(edges))


def antichain(elements: Iterable[str]) -> FinitePoset:
    return FinitePoset(elements, [])


def chain(elements: list[str]) -> FinitePoset:
    """Chain ordered by list position (not by id)."""
    return FinitePoset(elements, list(zip(elements, elements[1:])))

"""Finite T0-spaces as partial orders.

A finite T0-space is the same data as a finite poset: the minimal open set
of a point is its down-set, the closure of a point is its up-set.  Posets
are immutable; every query is answered from a precomputed reachability
table.  All deterministic orderings tie-break by lexicographic element id.
"""

from __future__ import annotations

import heapq
import json
from typing import Iterable, Mapping

from .errors import CycleDetected, DuplicateElement, UnknownElement


class FinitePoset:
    """Immutable finite poset given by its Hasse diagram.

    ``hasse`` holds covering pairs ``(a, b)`` meaning ``a < b`` with nothing
    strictly between.  Use :func:`build_poset` to construct one from an
    arbitrary acyclic generating relation.
    """

    __slots__ = (
        "elements", "hasse", "_covers_below", "_covers_above", "_below", "_above", "_height_of"
    )

    def __init__(self, elements: Iterable[str], hasse: Iterable[tuple[str, str]]):
        self.elements: tuple[str, ...] = tuple(sorted(elements))
        if len(set(self.elements)) != len(self.elements):
            raise DuplicateElement(f"duplicate element ids in {self.elements}")
        self.hasse: frozenset[tuple[str, str]] = frozenset((a, b) for a, b in hasse)
        self._covers_below: dict[str, list[str]] = {x: [] for x in self.elements}
        self._covers_above: dict[str, list[str]] = {x: [] for x in self.elements}
        for a, b in self.hasse:
            if a not in self._covers_below or b not in self._covers_below:
                raise UnknownElement(f"hasse pair ({a}, {b}) mentions unknown element")
            self._covers_below[b].append(a)
            self._covers_above[a].append(b)
        for covers in (self._covers_below, self._covers_above):
            for x in covers:
                covers[x].sort()
        self._below = _reachability(self.elements, self.hasse)
        self._above = _reachability(self.elements, [(b, a) for a, b in self.hasse])
        self._height_of: dict[str, int] = {}
        for x in self.linear_extension():
            preds = [self._height_of[y] for y in self._covers_below[x]]
            self._height_of[x] = 1 + max(preds) if preds else 0

    # -- basic queries -----------------------------------------------------

    def __contains__(self, x: str) -> bool:
        return x in self._below

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

    def _check(self, x: str) -> None:
        if x not in self._below:
            raise UnknownElement(f"{x!r} is not an element of this poset")

    def lt(self, a: str, b: str) -> bool:
        self._check(a), self._check(b)
        return a in self._below[b]

    def leq(self, a: str, b: str) -> bool:
        return a == b and a in self._below or self.lt(a, b)

    def covers_below(self, x: str) -> list[str]:
        return list(self._covers_below.get(x, ()))

    def covers_above(self, x: str) -> list[str]:
        return list(self._covers_above.get(x, ()))

    # -- open / closed subsets ---------------------------------------------

    def down_set(self, x: str, strict: bool = False) -> frozenset[str]:
        """Minimal open set U_x; with ``strict`` the punctured version."""
        self._check(x)
        below = self._below[x]
        return below if strict else below | {x}

    def up_set(self, x: str, strict: bool = False) -> frozenset[str]:
        """Closure F_x of the point x; with ``strict`` the punctured version."""
        self._check(x)
        above = self._above[x]
        return above if strict else above | {x}

    def open_hull(self, members: Iterable[str]) -> frozenset[str]:
        members = frozenset(members)
        for x in members:
            self._check(x)
        out: set[str] = set()
        for x in members:
            out |= self.down_set(x)
        return frozenset(out)

    def closure(self, members: Iterable[str]) -> frozenset[str]:
        members = frozenset(members)
        for x in members:
            self._check(x)
        out: set[str] = set()
        for x in members:
            out |= self.up_set(x)
        return frozenset(out)

    def is_open(self, members: Iterable[str]) -> bool:
        members = frozenset(members)
        for x in members:
            self._check(x)
        return all(self._below[x] <= members for x in members)

    # -- global structure ----------------------------------------------------

    def height_of(self, x: str) -> int:
        """Length (edge count) of the longest chain ending at x."""
        self._check(x)
        return self._height_of[x]

    def height(self) -> int:
        if not self.elements:
            return 0
        return max(self._height_of.values())

    def maximal_elements(self) -> list[str]:
        return [x for x in self.elements if not self._covers_above[x]]

    def minimal_elements(self) -> list[str]:
        return [x for x in self.elements if not self._covers_below[x]]

    def has_maximum(self) -> bool:
        return len(self.maximal_elements()) == 1

    def has_minimum(self) -> bool:
        return len(self.minimal_elements()) == 1

    def opposite(self) -> "FinitePoset":
        return FinitePoset(self.elements, [(b, a) for a, b in self.hasse])

    def linear_extension(self) -> list[str]:
        """Total order respecting the partial order, lexicographic tie-break."""
        indeg = {x: 0 for x in self.elements}
        for _, b in self.hasse:
            indeg[b] += 1
        ready = [x for x in self.elements if indeg[x] == 0]
        heapq.heapify(ready)
        out: list[str] = []
        while ready:
            x = heapq.heappop(ready)
            out.append(x)
            for y in self._covers_above[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(ready, y)
        return out

    def restrict(self, members: Iterable[str]) -> "FinitePoset":
        """Induced subposet on a subset of elements."""
        members = frozenset(members)
        for x in members:
            self._check(x)
        pairs = [
            (a, b)
            for b in members
            for a in self._below[b]
            if a in members
        ]
        return build_poset(members, pairs)

    def order_pairs(self) -> frozenset[tuple[str, str]]:
        """All strict order pairs (a, b) with a < b."""
        return frozenset((a, b) for b in self.elements for a in self._below[b])

    def remove(self, x: str) -> "FinitePoset":
        self._check(x)
        return self.restrict(set(self.elements) - {x})

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": list(self.elements),
                "relations": sorted(map(list, self.hasse)),
            }
        )

    @staticmethod
    def from_json(text: str) -> "FinitePoset":
        doc = json.loads(text)
        return build_poset(doc["elements"], [tuple(p) for p in doc["relations"]])


def _reachability(
    elements: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, frozenset[str]]:
    """For each node, the set of nodes strictly reachable *into* it.

    Edges run (a, b) with a below b; the table maps b -> all a with a < b.
    """
    preds: dict[str, set[str]] = {x: set() for x in elements}
    for a, b in edges:
        preds[b].add(a)
    order = _toposort(elements, edges)
    below: dict[str, frozenset[str]] = {}
    for x in order:
        acc: set[str] = set()
        for p in preds[x]:
            acc.add(p)
            acc |= below[p]
        below[x] = frozenset(acc)
    return below


def _toposort(elements: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[str]:
    succ: dict[str, list[str]] = {x: [] for x in elements}
    indeg = {x: 0 for x in succ}
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    stack = sorted((x for x in succ if indeg[x] == 0), reverse=True)
    out: list[str] = []
    while stack:
        x = stack.pop()
        out.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                stack.append(y)
    if len(out) != len(succ):
        raise CycleDetected(_find_cycle(succ, indeg))
    return out


def _find_cycle(succ: Mapping[str, list[str]], indeg: Mapping[str, int]) -> list[str]:
    remaining = {x for x, d in indeg.items() if d > 0}
    start = min(remaining)
    seen: dict[str, int] = {}
    path: list[str] = []
    x = start
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = min(y for y in succ[x] if y in remaining)
    return path[seen[x]:]


def build_poset(
    elements: Iterable[str], relation_pairs: Iterable[tuple[str, str]]
) -> FinitePoset:
    """Build a poset from any acyclic generating relation.

    The order is the transitive closure of ``relation_pairs``; the stored
    Hasse diagram is its transitive reduction.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement(f"duplicate element ids in {sorted(elements)}")
    known = set(elements)
    pairs = set()
    for a, b in relation_pairs:
        if a not in known or b not in known:
            raise UnknownElement(f"relation pair ({a}, {b}) mentions unknown element")
        if a == b:
            raise CycleDetected([a])
        pairs.add((a, b))
    below = _reachability(elements, pairs)  # raises CycleDetected
    hasse = [
        (a, b)
        for b in elements
        for a in below[b]
        if not any(a in below[c] for c in below[b])
    ]
    return FinitePoset(elements, hasse)


def antichain(elements: Iterable[str]) -> FinitePoset:
    return FinitePoset(elements, [])


def chain(elements: list[str]) -> FinitePoset:
    """Chain ordered by list position (not by id)."""
    return FinitePoset(elements, list(zip(elements, elements[1:])))

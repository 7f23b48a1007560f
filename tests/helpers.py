"""Independent oracles used by the test suite.

The brute-force ones deliberately avoid the library's own algorithms:
contractibility is decided by searching every beat-point removal order,
chains are enumerated from the raw order relation, and transitive closures
are recomputed from scratch.  The facet-subset index build and the
maximal-chain order complex are the reference for the level-built index and
the chain-listing order complex, and the per-simplex link the reference for
the one that looks up each dimension's faces in one stream.  The slow
collapse engine further down is the reference for the indexed one, the free-face engines after it (a state
with methods, its parent-array pass stopped on a simplex count, and the
truncation checker's old pass in dicts and a heap, the loop with a set
mirroring its free list) the reference for the one loop on ids, the
search that builds a certificate's steps at once the reference for the
certificate that builds them on first read, the
facet-by-facet target lookup and the set walk that closed a cover member
downward the reference for the closure on the parent's index, the
rescanning point peel in it, the dirty-scan peel and the verdict-only
highest-first loop the reference for the one point-removal loop, the
counting point predicates (a beat test that counts extremes, a weak test
that builds the contraction's certificate) the reference for the one-walk
beat test and the verdict-only contraction, the contraction-first
triviality rule the reference for the one rule that reads a computed
collapse verdict first, the string-set cylinder
checkers after them (pair scans and a subposet per hypothesis set) the
reference for the mask-based ones, the cover layer after them (pairwise
intersections, all 2^n index sets, the index-set walk with an all-sets
mode, records built per index set, homology on every sub-union, a full
free-face pass per sub-union, the lattice walk that tried the largest
collapsed predecessor only, and the reduced-nerve order that tested every
pair of classes) the reference for the mask-based one, its one nerve
table, its records built on first read, the truncation pass along the
sub-union lattice and the reduced nerve ordered by one-member refinements,
the nerve's face poset the
reference for the nerve's homology in the nerve-theorem checker, the
reduced-complex check that built K(reduced N0) whole the reference for
the one that decides each S_sigma on a subposet of reduced N0, the dense
chain complex after that (dense boundary matrices, fraction-free and dense
GF(2) ranks, dense Smith normal form, persistence over rebuilt sub-unions)
the reference for the sparse rows and the sparse Smith normal form
elimination, Smith normal form on every simplex's boundary row the
reference for homology after coreduction, the coreduction with a component
pre-pass the reference for the one that finds components in its drain,
the coreduction with a call per removed simplex the reference for the
inline drain, homology on the whole order complex the reference for poset
homology after weak-point removal, and the string-set poset at the end (frozenset
reachability, cubic reduction, restriction by rebuild) the reference for
the bitmask poset index.  The compositions of library calls at the very end
stand in for public functions the library no longer has, which the digests
and some tests still read.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Sequence
from itertools import accumulate, chain, combinations, count
from math import gcd

from finspace import collapse as clp
from finspace.collapse import (
    DOWN_BEAT,
    DOWN_WEAK,
    UP_BEAT,
    UP_WEAK,
    CollapseCertificate,
    FreeFacePair,
    PointRemoval,
    _stuck,
    yes,
)
from finspace.complexes import (
    SimplexIndex,
    SimplicialComplex,
    order_complex,
    simplex_boundary,
    simplex_id,
)
from finspace.covers import (
    COMPLEX,
    FLAVORS,
    MAX_MEMBERS,
    REDUCED_NERVE_ASSUMPTION,
    Cover,
    CoverClassification,
    IntersectionRecord,
    NZeroResult,
    ReducedNerve,
    _classify_intersection,
    _nerve_table,
    classify_cover,
    n_zero_subspace,
    nerve,
    non_hausdorff_nerve,
)
from finspace.cylinders import Relation, _hypothesis_masks, relation_cylinder, tag
from finspace.errors import CycleDetected, EmptyObject, InvalidCover, TargetNotInduced
from finspace.fixtures import dunce_hat, projective_plane, two_triangles
from finspace.generators import generate_strong_good_cover
from finspace.homology import (
    HomologyResult,
    _betti_gf2,
    _homology,
    _reduced_betti,
    boundary_matrices,
    homology_equal,
    homology_of_poset,
    reduced_homology,
    smith_normal_form,
)
from finspace.persistence import PersistenceDiagram
from finspace.posets import FinitePoset, _ids, build_poset


def brute_contractible(X: FinitePoset) -> bool:
    """Search all beat-point removal orders down to a singleton."""
    order = {
        (a, b) for a in X.elements for b in X.elements if a != b and X.leq(a, b)
    }
    memo: dict[frozenset, bool] = {}

    def beats(elems: frozenset) -> list[str]:
        out = []
        for x in elems:
            down = [a for a in elems if (a, x) in order]
            up = [b for b in elems if (x, b) in order]
            if down and any(all((a, m) in order or a == m for a in down) for m in down):
                out.append(x)
            elif up and any(all((m, b) in order or b == m for b in up) for m in up):
                out.append(x)
        return out

    def search(elems: frozenset) -> bool:
        if len(elems) == 1:
            return True
        if elems in memo:
            return memo[elems]
        result = any(search(elems - {x}) for x in beats(elems))
        memo[elems] = result
        return result

    return search(frozenset(X.elements))


def subset_simplex_index(facets) -> SimplexIndex:
    """The facet-subset index build: every subset of every facet into one
    set, sorted by (size, lexicographic) key, then each simplex's faces
    looked up one by one and appended to their coface lists."""
    seen: set[tuple[str, ...]] = set()
    for f in facets:
        fs = sorted(f)
        for k in range(1, len(fs) + 1):
            seen.update(combinations(fs, k))
    index = SimplexIndex.__new__(SimplexIndex)
    index.simplices = sorted(seen, key=lambda s: (len(s), s))
    index.id_of = {s: i for i, s in enumerate(index.simplices)}
    index.faces = []
    index.cofaces = [[] for _ in index.simplices]
    index.dim_start = []
    for i, s in enumerate(index.simplices):
        if len(s) > len(index.dim_start):
            index.dim_start.append(i)
        faces = tuple(index.id_of[t] for t in combinations(s, len(s) - 1) if t)
        for f in faces:
            index.cofaces[f].append(i)
        index.faces.append(faces)
    index.dim_start.append(len(index.simplices))
    return index


def per_simplex_index(levels) -> SimplexIndex:
    """The index linked from levels (see ``SimplexIndex``) one simplex at
    a time: ``SimplexIndex._link`` before it looked up a dimension's faces
    in one stream.  Each simplex's face tuple is built by a comprehension
    of its own, and the coface lists are appended in id order."""
    index = SimplexIndex.__new__(SimplexIndex)
    index.simplices = list(chain.from_iterable(levels))
    index.id_of = dict(zip(index.simplices, count()))
    index.dim_start = list(accumulate(map(len, levels), initial=0))
    face_id = index.id_of.__getitem__
    faces = [()] * len(levels[0]) if levels else []
    for d, level in enumerate(levels[1:], 1):
        faces += [tuple(map(face_id, combinations(s, d))) for s in level]
    cofaces = [[] for _ in faces]
    for i, ids in enumerate(faces):
        for f in ids:
            cofaces[f].append(i)
    index.faces, index.cofaces = faces, cofaces
    return index


def maximal_chain_order_complex(X: FinitePoset) -> SimplicialComplex:
    """K(X) from its maximal chains, each found by a depth-first walk up
    the covering relation from a minimal element."""
    maximal_chains: list[frozenset[str]] = []

    def extend(chain: list[str], x: str) -> None:
        chain.append(x)
        uppers = X.covers_above(x)
        if not uppers:
            maximal_chains.append(frozenset(chain))
        for y in uppers:
            extend(chain, y)
        chain.pop()

    for x in X.minimal_elements():
        extend([], x)
    return SimplicialComplex(maximal_chains)


def brute_chains(X: FinitePoset) -> set[frozenset]:
    """All non-empty chains, enumerated by subset filtering."""
    out = set()
    elems = list(X.elements)
    for k in range(1, len(elems) + 1):
        for sub in combinations(elems, k):
            if all(
                X.leq(a, b) or X.leq(b, a) for a, b in combinations(sub, 2)
            ):
                out.add(frozenset(sub))
    return out


def brute_transitive_closure(
    elements, pairs
) -> set[tuple[str, str]]:
    """Warshall closure of a relation, recomputed independently."""
    reach = {(a, b) for a, b in pairs}
    for m in elements:
        for a in elements:
            for b in elements:
                if (a, m) in reach and (m, b) in reach:
                    reach.add((a, b))
    return reach


# -- the rebuild-based collapse engine ---------------------------------------
#
# The library searches and replays collapses on a simplex index (complexes)
# and on a shrinking set of alive points (spaces).  The functions below are
# the engine it replaced: every step rescans all simplices for free faces and
# rebuilds the complex, and every point test builds the induced subposet.
# They share no code with the indexed engine besides the certificate types
# and the stuck-verdict tail, and serve as its oracle.


def contains_simplex(K: SimplicialComplex, simplex) -> bool:
    """Whether the non-empty simplex lies in a facet of K."""
    s = frozenset(simplex)
    return bool(s) and any(s <= f for f in K.facets)


def is_subcomplex(L: SimplicialComplex, K: SimplicialComplex) -> bool:
    """Whether every facet of L lies in a facet of K."""
    return all(contains_simplex(K, f) for f in L.facets)


def slow_simplices(K: SimplicialComplex) -> list[frozenset]:
    """All simplices, by dimension then lexicographically, from the facets."""
    seen = set()
    for f in K.facets:
        fs = sorted(f)
        for k in range(1, len(fs) + 1):
            seen.update(combinations(fs, k))
    return [frozenset(s) for s in sorted(seen, key=lambda s: (len(s), s))]


def slow_without(K: SimplicialComplex, simplices) -> SimplicialComplex:
    gone = {frozenset(s) for s in simplices}
    return SimplicialComplex(
        s for s in slow_simplices(K) if s not in gone and not any(g <= s for g in gone)
    )


def _slow_unique_coface(simplices, face):
    cofaces = [t for t in simplices if face < t]
    if len(cofaces) == 1 and len(cofaces[0]) == len(face) + 1:
        return cofaces[0]
    return None


def slow_free_faces(K: SimplicialComplex):
    simplices = slow_simplices(K)
    out = []
    for s in simplices:
        coface = _slow_unique_coface(simplices, s)
        if coface is not None:
            out.append((tuple(sorted(s)), tuple(sorted(coface))))
    return sorted(out, key=lambda p: (len(p[0]), p))


def slow_collapse_run(K, keep, rng):
    """One greedy pass; the certificate, or None when stuck."""
    steps = []
    current = K
    while True:
        if keep is None:
            if len(slow_simplices(current)) == 1:
                return CollapseCertificate(tuple(steps))
        elif current == keep:
            return CollapseCertificate(tuple(steps))
        pairs = slow_free_faces(current)
        if keep is not None:
            pairs = [
                p
                for p in pairs
                if not contains_simplex(keep, p[0]) and not contains_simplex(keep, p[1])
            ]
        if not pairs:
            return None
        face, coface = pairs[0] if rng is None else rng.choice(pairs)
        steps.append(FreeFacePair(face, coface))
        current = slow_without(current, [face, coface])


# -- the two free-face engines the one loop on ids replaced --------------------
#
# The library's ``_collapse_run`` removes free pairs among given ids until no
# id of positive dimension is left.  Below are the engines it replaced: the
# ``Shrinking`` state with methods, the parent-array pass on it that stops on
# a simplex count and never removes ``keep``, and the verdict-only pass of
# the truncation checker in dicts and a heap sized to its ids.  Then the loop
# itself as it was while a set mirrored its free list, and the targets as
# collapses, replays and covers found them before the parent's index did.


class Shrinking:
    """A complex shrinking by free-pair removals, kept on its simplex index.

    Per simplex it holds whether it is present and the number and id sum of
    its present codimension-1 cofaces; the sum names the coface when there is
    one.  Simplices in ``keep`` are never free.  ``ids``, when given, are the
    simplices present at the start, a subcomplex of the indexed one; by
    default all are.
    """

    __slots__ = ("index", "keep", "start", "present", "count", "cosum", "size")

    def __init__(self, index, keep=frozenset(), ids=None):
        self.index = index
        self.keep = keep
        n = len(index.simplices)
        self.start = range(n) if ids is None else ids
        if ids is None:
            self.present = [True] * n
            self.count = [len(c) for c in index.cofaces]
            self.cosum = [sum(c) for c in index.cofaces]
            self.size = n
            return
        present = self.present = [False] * n
        count = self.count = [0] * n
        cosum = self.cosum = [0] * n
        self.size = len(ids)
        faces = index.faces
        for i in ids:
            present[i] = True
            for f in faces[i]:
                count[f] += 1
                cosum[f] += i

    def coface_if_free(self, s):
        """The coface of s when s is present, outside keep and free; else None."""
        if self.present[s] and self.count[s] == 1 and s not in self.keep:
            return self.cosum[s]
        return None

    def free_ids(self):
        """The free simplices, ascending."""
        present, count, keep = self.present, self.count, self.keep
        return [s for s in self.start if count[s] == 1 and present[s] and s not in keep]

    def remove_pair(self, s, t):
        """Remove the free face s with its coface t."""
        self.present[s] = self.present[t] = False
        self.size -= 2
        for gone in (t, s):
            for f in self.index.faces[gone]:
                self.count[f] -= 1
                self.cosum[f] -= gone


def shrinking_free_faces(K: SimplicialComplex):
    """``free_faces`` read off a ``Shrinking`` state."""
    state = Shrinking(K.index())
    simplices = state.index.simplices
    return [(simplices[s], simplices[state.cosum[s]]) for s in state.free_ids()]


def _repeats_a_vertex(step) -> bool:
    """Whether a free-pair step's face or coface lists a vertex twice: it
    names no simplex, so replay fails on it."""
    return any(len(set(part)) != len(part) for part in (step.face, step.coface))


def shrinking_replay_complex(K: SimplicialComplex, cert, target=None) -> bool:
    """Replay on a ``Shrinking`` state of all of K, checking at the end that
    exactly the target's simplices (or one simplex) are left."""
    state = Shrinking(K.index())
    id_of = state.index.id_of
    for step in cert.steps:
        if not isinstance(step, FreeFacePair) or _repeats_a_vertex(step):
            return False
        s = id_of.get(tuple(sorted(frozenset(step.face))))
        t = None if s is None else state.coface_if_free(s)
        if t is None or id_of.get(tuple(sorted(frozenset(step.coface)))) != t:
            return False
        state.remove_pair(s, t)
    if target is None:
        return state.size == 1
    remaining = target.all_simplices()
    return state.size == len(remaining) and all(
        (s := id_of.get(simplex)) is not None and state.present[s] for simplex in remaining
    )


def parent_array_collapse_run(index, keep, size, rng, ids=None):
    """One greedy pass down to ``size`` simplices without touching keep,
    from the subcomplex ``ids`` (default: all of the index), inlined on the
    arrays of a ``Shrinking`` state; the (face id, coface id) pairs, or None
    when stuck."""
    state = Shrinking(index, keep, ids)
    present, count, cosum, faces = state.present, state.count, state.cosum, index.faces
    free = state.free_ids()
    listed = set(free)
    steps = []
    left = state.size
    while left != size:
        if not free:
            return None
        s = free[0] if rng is None else rng.choice(free)
        t = cosum[s]
        steps.append((s, t))
        present[s] = present[t] = False
        left -= 2
        for gone in (t, s):
            for u in faces[gone]:
                above = count[u] = count[u] - 1
                cosum[u] -= gone
                if above == 1 and present[u] and u not in keep:
                    if u not in listed:
                        listed.add(u)
                        insort(free, u)
                elif u in listed:
                    listed.remove(u)
                    free.remove(u)
    return steps


def dict_heap_collapses_onto(index: SimplexIndex, ids: Sequence[int]) -> bool:
    """Whether the deterministic free-face pass removes every simplex of
    positive dimension among the ids, keeping every simplex outside them,
    on dicts sized to the ids and a heap of free candidates."""
    faces = index.faces
    count = dict.fromkeys(ids, 0)
    cosum = dict.fromkeys(ids, 0)
    left = 0
    for i in ids:
        if faces[i]:
            left += 1
            for f in faces[i]:
                if f in count:
                    count[f] += 1
                    cosum[f] += i
    free = [s for s in ids if count[s] == 1]
    while left:
        while free and count.get(free[0]) != 1:
            heapq.heappop(free)
        if not free:
            return False
        s = heapq.heappop(free)
        t = cosum[s]
        del count[s], count[t]
        left -= 2 if faces[s] else 1
        for gone in (t, s):
            for u in faces[gone]:
                if u in count:
                    above = count[u] = count[u] - 1
                    cosum[u] -= gone
                    if above == 1:
                        heapq.heappush(free, u)
    return True


def shrinking_collapse_run(index, keep, size, rng, ids=None):
    """The free-face pass on ``Shrinking`` methods, one certificate step
    built per removal; the certificate, or None when stuck."""
    state = Shrinking(index, keep, ids)
    free = state.free_ids()
    listed = set(free)
    steps = []
    while state.size != size:
        if not free:
            return None
        s = free[0] if rng is None else rng.choice(free)
        t = state.cosum[s]
        steps.append(FreeFacePair(index.simplices[s], index.simplices[t]))
        state.remove_pair(s, t)
        for u in index.faces[t] + index.faces[s]:
            if (state.coface_if_free(u) is not None) != (u in listed):
                if u in listed:
                    listed.remove(u)
                    del free[bisect_left(free, u)]
                else:
                    listed.add(u)
                    insort(free, u)
    return CollapseCertificate(tuple(steps))


def listed_collapse_run(index, ids=None, rng=None):
    """``_collapse_run`` with a set of the listed ids beside its free list,
    consulted before each insertion and removal; the (face id, coface id)
    pairs, or None when stuck."""
    start = range(len(index.simplices)) if ids is None else ids
    present, count, cosum = clp._free_state(index, start)
    faces = index.faces
    free = [s for s in start if count[s] == 1]
    listed = set(free)
    left = len(start) and len(start) - bisect_left(start, index.dim_start[1])
    steps = []
    while left:
        if not free:
            return None
        s = free[0] if rng is None else rng.choice(free)
        t = cosum[s]
        steps.append((s, t))
        present[s] = present[t] = False
        left -= 2 if faces[s] else 1
        for gone in (t, s):
            for u in faces[gone]:
                above = count[u] = count[u] - 1
                cosum[u] -= gone
                if above == 1 and present[u]:
                    if u not in listed:
                        listed.add(u)
                        insort(free, u)
                elif u in listed:
                    listed.remove(u)
                    free.remove(u)
    return steps


def eager_certificate(index: SimplexIndex, pairs) -> CollapseCertificate:
    """The certificate of removed (face id, coface id) pairs with its steps
    built at once."""
    simplices = index.simplices
    return CollapseCertificate(tuple(FreeFacePair(simplices[s], simplices[t]) for s, t in pairs))


def eager_free_face_search(index: SimplexIndex, ids, end: int, restarts: int, seed: int):
    """``_free_face_search`` building the certificate's steps as soon as a
    schedule succeeds."""
    for attempt in range(restarts + 1):
        rng = random.Random(f"restart:{seed}:{attempt - 1}") if attempt else None
        steps = clp._collapse_run(index, ids, rng)
        if steps is not None and len(ids) - 2 * len(steps) == end:
            return eager_certificate(index, steps)
    return None


def facet_scan_target_ids(K: SimplicialComplex, target: SimplicialComplex) -> list[int]:
    """The ascending ids on K's index of a target's simplices, found as
    before: emptiness checks, a facet-by-facet subcomplex scan, and the
    target's own simplices, listed on its own index, looked up in K's."""
    if K.is_empty():
        raise EmptyObject("cannot collapse the empty complex")
    if target.is_empty():
        raise EmptyObject("cannot collapse onto the empty complex")
    if not is_subcomplex(target, K):
        raise TargetNotInduced("target is not a subcomplex")
    return sorted(K.index().id_of[s] for s in target.all_simplices())


def set_walk_down_closure(index: SimplexIndex, facets) -> int | None:
    """The mask of the given simplices and their faces on index, closed by a
    walk over a set of ids (None when one of them is not in the index): the
    cover's member lookup before the index had one."""
    ids = [index.id_of.get(tuple(sorted(f))) for f in facets]
    if None in ids:
        return None
    seen = set(ids)
    todo = list(seen)
    while todo:
        for f in index.faces[todo.pop()]:
            if f not in seen:
                seen.add(f)
                todo.append(f)
    out = 0
    for i in seen:
        out |= 1 << i
    return out


def slow_greedy_collapse_complex(K, target=None, restarts=8, seed=0):
    for rng in [None] + [random.Random(f"restart:{seed}:{r}") for r in range(restarts)]:
        cert = slow_collapse_run(K, target, rng)
        if cert is not None:
            return yes(cert)
    return _stuck(reduced_homology, K, target, "no free faces left on any attempted schedule")


def slow_replay_complex(K, cert, target=None) -> bool:
    current = K
    for step in cert.steps:
        if not isinstance(step, FreeFacePair) or _repeats_a_vertex(step):
            return False
        face = frozenset(step.face)
        coface = frozenset(step.coface)
        if not contains_simplex(current, face):
            return False
        if _slow_unique_coface(slow_simplices(current), face) != coface:
            return False
        current = slow_without(current, [face, coface])
    if target is not None:
        return current == target
    return len(slow_simplices(current)) == 1


def slow_removable(X: FinitePoset, x: str, kind: str) -> bool:
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
    return len(slow_core(sub)[0]) == 1


def _slow_first_kind(X, x, kinds):
    return next((kind for kind in kinds if slow_removable(X, x, kind)), None)


def slow_points(X: FinitePoset, kinds) -> list[tuple[str, str]]:
    return [(x, kind) for x in X.elements if (kind := _slow_first_kind(X, x, kinds))]


def _slow_remove_points(X, kinds, keep=frozenset(), size=0):
    steps = []
    current = X
    while len(current) > size:
        for x in current.elements:
            if x not in keep and (kind := _slow_first_kind(current, x, kinds)):
                steps.append(PointRemoval(x, kind))
                current = current.remove(x)
                break
        else:
            break
    return current, CollapseCertificate(tuple(steps))


def first_kind(X: FinitePoset, alive: int, i: int, kinds) -> str | None:
    """The first of the kinds the point at position i has in alive."""
    return next((kind for kind in kinds if clp.removable(X, alive, i, kind)), None)


def rescan_peel(X: FinitePoset, alive: int, kinds, keep: int = 0, size: int = 0):
    """The point peel before its worklist: after every removal the scan
    restarts from the first alive point outside keep."""
    steps = []
    while alive.bit_count() > size:
        for i in _ids(alive & ~keep):
            if kind := first_kind(X, alive, i, kinds):
                steps.append(PointRemoval(X.elements[i], kind))
                alive ^= 1 << i
                break
        else:
            break
    return CollapseCertificate(tuple(steps)), alive


def dirty_scan_peel(
    X: FinitePoset, alive: int, kinds, keep: int = 0, size: int = 0
) -> tuple[CollapseCertificate, int]:
    """The certificate-building point loop before it ran on
    ``posets._prune``: the scan moves forward once, and removing the point i
    marks dirty the alive points outside keep, at or before the scan
    position, that lie below or above i; dirty points are retested first,
    lowest first, before the scan moves on."""
    steps: list[PointRemoval] = []
    todo = alive & ~keep
    ahead = iter(_ids(todo))
    count = alive.bit_count()
    dirty = 0
    while count > size:
        if dirty:
            low = dirty & -dirty
            dirty ^= low
            i = low.bit_length() - 1
        else:
            i = pos = next(ahead, None)
            if i is None:
                break
        if kind := first_kind(X, alive, i, kinds):
            steps.append(PointRemoval(X.elements[i], kind))
            alive ^= 1 << i
            todo ^= 1 << i
            count -= 1
            dirty |= (X._below[i] | X._above[i]) & todo & ((2 << pos) - 1)
    return CollapseCertificate(tuple(steps)), alive


def verdict_prune(X: FinitePoset, alive: int, test) -> int:
    """The verdict-only point loop before it recorded steps: the highest
    position goes first, a removal requeues the alive points comparable to
    it, and ``test(mask, beyond, strict)`` takes no poset."""
    below, above = X._below, X._above
    count = alive.bit_count()
    todo = alive
    while count > 1 and todo:
        i = todo.bit_length() - 1
        todo ^= 1 << i
        down = below[i] & alive
        if (down and test(down, above, below)) or (
            (up := above[i] & alive) and test(up, below, above)
        ):
            alive ^= 1 << i
            count -= 1
            todo |= (below[i] | above[i]) & alive
    return alive


def _counting_beat(mask: int, beyond, strict) -> bool:
    return counting_one_extreme(mask, beyond)


def verdict_contractible(X: FinitePoset, alive: int) -> bool:
    """Contractibility by ``verdict_prune`` with the counting beat test."""
    return verdict_prune(X, alive, _counting_beat).bit_count() == 1


def verdict_weak_reduction(X: FinitePoset, alive: int) -> int:
    """Beat points, then weak points, removed by ``verdict_prune``."""

    def weak(mask: int, beyond, strict) -> bool:
        return verdict_contractible(X, mask)

    return verdict_prune(X, verdict_prune(X, alive, _counting_beat), weak)


def counting_one_extreme(mask: int, beyond) -> bool:
    """The beat test before its one walk: count the points of mask with
    nothing of mask beyond them."""
    return sum(1 for y in _ids(mask) if not beyond[y] & mask) == 1


def counting_removable(X: FinitePoset, alive: int, i: int, kind: str) -> bool:
    """``removable`` before the one-walk beat test and the verdict-only
    contraction: beat kinds count the extremes of the punctured set, weak
    kinds build the certificate of its contraction."""
    if kind in (DOWN_BEAT, DOWN_WEAK):
        punctured, beyond = X._below[i] & alive, X._above
    elif kind in (UP_BEAT, UP_WEAK):
        punctured, beyond = X._above[i] & alive, X._below
    else:
        return False
    if not punctured:
        return False
    if kind in (DOWN_WEAK, UP_WEAK):
        return counting_contraction(X, punctured) is not None
    return counting_one_extreme(punctured, beyond)


def counting_contraction(X: FinitePoset, alive: int) -> CollapseCertificate | None:
    """Beat-point removals taking the non-empty subspace alive of X to a
    point, each the first beat point in element order by the counting test,
    or None when its core is larger."""
    steps = []
    while alive.bit_count() > 1:
        for i in _ids(alive):
            kind = next((k for k in (DOWN_BEAT, UP_BEAT) if counting_removable(X, alive, i, k)), None)
            if kind:
                steps.append(PointRemoval(X.elements[i], kind))
                alive ^= 1 << i
                break
        else:
            return None
    return CollapseCertificate(tuple(steps))


def contraction_first_triviality(X: FinitePoset, alive: int) -> clp.TriStateResult:
    """The triviality rule cylinder hypothesis sets followed before the
    library's one rule: the beat-point contraction first, even when a
    collapse verdict is already computed, then the greedy collapse, with
    Unknown for an acyclic space."""
    cert = clp._contraction(X, alive)
    if cert is not None:
        return yes(cert)
    collapsibility = clp._weak_collapse(X, alive)
    if collapsibility.verdict != "unknown":
        return collapsibility
    return clp.unknown("acyclic but neither core nor greedy collapse reach a point")


def after_collapse(collapsibility, triviality) -> clp.TriStateResult:
    """The library's triviality rule restated on public calls: a collapse
    verdict that is not Unknown decides, else the object's own triviality
    test, called only then."""
    return collapsibility if collapsibility.verdict != "unknown" else triviality()


def slow_core(X: FinitePoset):
    return _slow_remove_points(X, (DOWN_BEAT, UP_BEAT))


def slow_greedy_collapse_space(X: FinitePoset, target=None):
    keep = frozenset(target) if target is not None else frozenset()
    size = 1 if target is None else len(keep)
    current, cert = _slow_remove_points(X, (DOWN_WEAK, UP_WEAK), keep, size)
    if len(current) == size:
        return yes(cert)
    return _stuck(
        order_complex_homology,
        X,
        None if target is None else X.restrict(keep),
        "greedy weak-point removal got stuck",
    )


def slow_replay_space(X: FinitePoset, cert, target=None) -> bool:
    current = X
    for step in cert.steps:
        if not isinstance(step, PointRemoval) or step.element not in current:
            return False
        if not slow_removable(current, step.element, step.kind):
            return False
        current = current.remove(step.element)
    if target is not None:
        return set(current.elements) == set(target)
    return len(current) == 1


# -- the cylinder checkers on string sets --------------------------------------
#
# The library keeps each hypothesis set as a mask over the kept space, finds
# all of them in one pass over the relation's pairs and decides each distinct
# set once on the kept space's masks.  The functions below are the checkers
# it replaced: preimages and images by a scan of all pairs per point, and a
# subposet built for every hypothesis set and every point link.


def hypothesis_sets(R: Relation, side: str) -> dict[str, frozenset[str]]:
    """The library's hypothesis masks read as names: per far point, the kept
    points of its hypothesis set."""
    kept, far = (R.source, R.target) if side == "left" else (R.target, R.source)
    return {z: kept._members(m) for z, m in zip(far.elements, _hypothesis_masks(R, side))}


def slow_underline_preimage(R: Relation, y: str) -> frozenset[str]:
    return R.source.open_hull(R.preimage(R.target.down_set(y)))


def slow_overline_image(R: Relation, x: str) -> frozenset[str]:
    return R.target.closure(R.image(R.source.up_set(x)))


def slow_check_collapse(R: Relation, side: str) -> dict:
    if side == "left":
        kept, far, hypothesis = R.source, R.target, slow_underline_preimage
    else:
        kept, far, hypothesis = R.target, R.source, slow_overline_image
    per_element = {}
    for z in far.elements:
        members = hypothesis(R, z)
        if not members:
            empty = clp.TriStateResult("no", note="empty subspace")
            per_element[z] = {"empty": True, "triviality": empty, "collapsibility": empty}
            continue
        sub = kept.restrict(members)
        coll = clp.greedy_collapse_space(sub)
        per_element[z] = {
            "empty": False,
            "triviality": after_collapse(coll, lambda: clp.is_homotopically_trivial_poset(sub)),
            "collapsibility": coll,
        }
    report = {
        key: clp.aggregate_verdict(v[field].verdict for v in per_element.values())
        for key, field in (
            ("hypothesis_triviality", "triviality"),
            ("hypothesis_collapsibility", "collapsibility"),
        )
    }
    if report["hypothesis_collapsibility"] == "yes":
        report["collapse"] = slow_execute_target_removal(R, side)
    else:
        report["collapse"] = {"verdict": "not-attempted"}
    report["per_element"] = per_element
    report["height_bound"] = relation_cylinder(R).height()
    return report


def slow_gamma_points(X: FinitePoset):
    out = []
    for x in X.elements:
        link = X.down_set(x, strict=True) | X.up_set(x, strict=True)
        if not link:
            out.append((x, clp.TriStateResult("no", note="empty link")))
            continue
        out.append((x, clp.is_homotopically_trivial_poset(X.restrict(link))))
    return out


def nerve_relation(cover: Cover) -> Relation:
    """sigma R J when the simplex sigma lies in the intersection over J: a
    relation from the face poset X(K) of the covered complex to the opposite
    of its non-Hausdorff nerve, whose cylinder compares the two."""
    pairs = frozenset(
        (simplex_id(s), simplex_id(J))
        for J in nerve(cover).all_simplices()
        for s in cover.intersection(J).all_simplices()
    )
    return Relation(
        cover.parent.face_poset(),
        non_hausdorff_nerve(cover).opposite(),
        pairs,
        source_name="X",
        target_name="N",
    )


def slow_execute_target_removal(R: Relation, side: str) -> dict:
    """The cylinder executor, removing each far point from a rebuilt poset."""
    B = relation_cylinder(R)
    if side == "left":
        order = R.target.linear_extension()
        kept, kept_name, far_name = R.source, R.source_name, R.target_name
    else:
        order = list(reversed(R.source.linear_extension()))
        kept, kept_name, far_name = R.target, R.target_name, R.source_name
    steps = []
    current = B
    identity_ok = True
    for z in order:
        tz = tag(far_name, z)
        if side == "left":
            punctured = current.down_set(tz, strict=True)
            expected = frozenset(tag(kept_name, x) for x in slow_underline_preimage(R, z))
            kind = DOWN_WEAK
        else:
            punctured = current.up_set(tz, strict=True)
            expected = frozenset(tag(kept_name, y) for y in slow_overline_image(R, z))
            kind = UP_WEAK
        if punctured != expected:
            identity_ok = False
        if not slow_removable(current, tz, kind):
            return {
                "verdict": "failed",
                "failed_at": z,
                "proof_identity": identity_ok,
                "note": "removed point is not a weak point at removal time",
            }
        steps.append(PointRemoval(tz, kind))
        current = current.remove(tz)
    cert = CollapseCertificate(tuple(steps))
    target_elements = {tag(kept_name, x) for x in kept.elements}
    replay_ok = slow_replay_space(B, cert, target=target_elements)
    return {
        "verdict": "yes" if replay_ok else "failed",
        "proof_identity": identity_ok,
        "certificate": cert,
        "target": kept_name,
    }


# -- the cover layer before masks ---------------------------------------------
#
# The library holds each cover member as a bitmask over the parent's simplex
# ids (element positions for finite spaces), enumerates the nerve level by
# level, and proves sub-unions acyclic by collapse.  The functions below are
# the code it replaced: pairwise facet intersections, every one of the 2^n
# index sets, classes compared as expanded simplex sets, and homology on
# every sub-union.


def slow_face_poset(K: SimplicialComplex) -> FinitePoset:
    """Face poset with every face re-derived from the vertex tuples."""
    simplices = K.all_simplices()
    ids = {frozenset(s): simplex_id(s) for s in simplices}
    pairs = [
        (ids[frozenset(t)], ids[frozenset(s)])
        for s in simplices
        if len(s) > 1
        for t in combinations(s, len(s) - 1)
    ]
    return build_poset(ids.values(), pairs)


def sd_boundary(n: int) -> SimplicialComplex:
    """Barycentric subdivision of the boundary of the n-simplex."""
    return order_complex(simplex_boundary(n).face_poset())


def star_cover(K: SimplicialComplex) -> Cover:
    """One member per vertex: its closed star."""
    verts = sorted(K.vertices)
    return Cover(
        "complex",
        K,
        tuple(
            (f"S{i:02d}", SimplicialComplex(f for f in K.facets if v in f))
            for i, v in enumerate(verts)
        ),
    )


def polygon_arc_cover(n: int, cuts: list[int]) -> Cover:
    """An n-gon covered by the arcs between consecutive cut vertices."""
    verts = [f"q{i:02d}" for i in range(n)]
    edges = [[verts[i], verts[(i + 1) % n]] for i in range(n)]
    members = []
    for i, a in enumerate(cuts):
        b = cuts[(i + 1) % len(cuts)]
        span = (b - a) % n or n
        members.append((f"A{i}", SimplicialComplex(edges[(a + t) % n] for t in range(span))))
    return Cover("complex", SimplicialComplex(edges), tuple(members))


def seeded_cone_cover(seed: int, members: int) -> Cover:
    """Members are cones with the shared apex "a" over three random edges
    of a six-vertex pool."""
    rng = random.Random(seed)
    pool = [f"b{i}" for i in range(6)]
    cones = [
        (f"U{i + 1}", SimplicialComplex(rng.sample(pool, 2) + ["a"] for _ in range(3)))
        for i in range(members)
    ]
    parent = SimplicialComplex(f for _, K in cones for f in K.facets)
    return Cover("complex", parent, tuple(cones))


def subunion_covers():
    """Seeded cone covers of 3-8 members, arc covers of 12, 16 and 20-gons,
    strong-good covers and the dunce hat and RP2 each with a triangle."""
    for seed in range(6):
        yield seeded_cone_cover(seed, 3 + seed)
    for seed, (n, arcs) in enumerate(((12, 4), (16, 6), (20, 8))):
        yield polygon_arc_cover(n, sorted(random.Random(seed).sample(range(n), arcs)))
    for seed in range(5):
        yield generate_strong_good_cover(seed)[1]
    for K in (dunce_hat(), projective_plane()):
        triangle = SimplicialComplex([min(sorted(f) for f in K.facets)])
        yield Cover("complex", K, (("K", K), ("T", triangle)))


def slow_intersection(cover, names):
    names = sorted(names)
    out = cover.member(names[0])
    for n in names[1:]:
        if cover.kind == COMPLEX:
            out = out.intersection(cover.member(n))
        else:
            out = frozenset(out) & frozenset(cover.member(n))
    return out


def slow_intersection_is_empty(cover, names) -> bool:
    obj = slow_intersection(cover, names)
    return obj.is_empty() if cover.kind == COMPLEX else not obj


def slow_index_sets(cover, max_subsets: int, nerve_simplices_only: bool):
    names = sorted(cover.names())
    assert len(names) <= max_subsets
    return [
        J
        for k in range(1, len(names) + 1)
        for J in combinations(names, k)
        if not (nerve_simplices_only and slow_intersection_is_empty(cover, J))
    ]


def two_mode_index_sets(cover, max_subsets: int, nerve_simplices_only: bool):
    """Index sets J with the mask of their intersection, in (size,
    lexicographic) order: the library's ``_index_sets`` before it walked
    the nerve alone.  Each level extends J only by later names; with
    ``nerve_simplices_only`` only non-empty intersections are listed and
    extended, else every index set is, an empty one with mask 0."""
    names = sorted(cover.names())
    if len(names) > max_subsets:
        raise InvalidCover(
            f"{len(names)} members exceed the subset-enumeration cap {max_subsets}"
        )
    masks = [cover._masks[n] for n in names]
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


def slow_nerve(cover) -> SimplicialComplex:
    return SimplicialComplex(slow_index_sets(cover, 20, nerve_simplices_only=True))


def face_poset_nerve_homology(cover) -> HomologyResult:
    """The nerve's homology read off its face poset, the non-Hausdorff
    nerve, as the nerve-theorem checker read it for finite-space covers."""
    return homology_of_poset(non_hausdorff_nerve(cover))


def _as_set(key) -> frozenset:
    if isinstance(key, frozenset) and key and isinstance(next(iter(key)), frozenset):
        out = set()
        for f in key:
            for k in range(1, len(f) + 1):
                out.update(map(frozenset, combinations(sorted(f), k)))
        return frozenset(out)
    return frozenset(key)


def slow_reduced_nerve(cover) -> ReducedNerve:
    groups: dict = {}
    for J in slow_index_sets(cover, 20, nerve_simplices_only=True):
        obj = slow_intersection(cover, J)
        key = obj.facets if cover.kind == COMPLEX else obj
        groups.setdefault(key, []).append(J)
    reps = {key: simplex_id(min(Js, key=lambda J: (len(J), J))) for key, Js in groups.items()}
    pairs = [
        (reps[a], reps[b])
        for a in groups
        for b in groups
        if a is not b and _as_set(b) < _as_set(a)
    ]
    return ReducedNerve(
        build_poset(reps.values(), pairs),
        {reps[k]: tuple(sorted(groups[k])) for k in groups},
    )


def all_pairs_reduced_nerve(cover) -> ReducedNerve:
    """``reduced_nerve`` ordered by testing every pair of classes for
    reverse inclusion, grouping the nerve table's masks."""
    groups: dict[int, list[tuple[str, ...]]] = {}
    for J, m in _nerve_table(cover).items():
        groups.setdefault(m, []).append(J)
    reps = {m: simplex_id(Js[0]) for m, Js in groups.items()}
    pairs = [(reps[a], reps[b]) for a in groups for b in groups if a != b and a & b == b]
    poset = build_poset(reps.values(), pairs)
    return ReducedNerve(poset, {reps[m]: tuple(sorted(Js)) for m, Js in groups.items()})


def closed_index_sets(cover) -> list[str]:
    """The simplex ids of the nerve's closed index sets: per distinct
    non-empty intersection, the members that contain it."""
    names = sorted(cover.names())
    masks = set(_nerve_table(cover).values())
    return [simplex_id(n for n in names if m & cover._masks[n] == m) for m in masks]


def slow_classify_cover(
    cover, max_subsets=20, nerve_simplices_only=False, restarts=8, seed=0
) -> CoverClassification:
    records = []
    for J in slow_index_sets(cover, max_subsets, nerve_simplices_only):
        obj = slow_intersection(cover, J)
        if slow_intersection_is_empty(cover, J):
            records.append(IntersectionRecord(J, True, None, None))
            continue
        if cover.kind == COMPLEX:
            coll = clp.greedy_collapse_complex(obj, restarts=restarts, seed=seed)
            triviality = after_collapse(
                coll, lambda: clp.is_homotopically_trivial_complex(obj, restarts, seed)
            )
        else:
            sub = cover.parent.restrict(obj)
            coll = clp.greedy_collapse_space(sub)
            triviality = after_collapse(coll, lambda: clp.is_homotopically_trivial_poset(sub))
        records.append(IntersectionRecord(J, False, triviality, coll))
    return listed_classification(cover, records)


def walked_classify_cover(cover, nerve_simplices_only, restarts=8, seed=0) -> CoverClassification:
    """``classify_cover`` on the two-mode walk: the index sets and masks it
    lists, each distinct non-empty mask decided once by the library's
    ``_classify_intersection``."""
    known: dict = {}
    records = []
    for J, mask in two_mode_index_sets(cover, MAX_MEMBERS, nerve_simplices_only):
        if not mask:
            records.append(IntersectionRecord(J, True, None, None))
            continue
        if mask not in known:
            known[mask] = _classify_intersection(cover, mask, restarts, seed)
        records.append(IntersectionRecord(J, False, *known[mask]))
    return listed_classification(cover, records)


def listed_classification(cover, records) -> CoverClassification:
    """The classification of the cover with the given records, its
    verdicts aggregated over every non-empty record, not over distinct
    masks: each non-empty index set is its own key in the table, and an
    index set outside it reads as empty, as in the library's table."""
    nonempty = [r for r in records if not r.empty]
    return CoverClassification(
        clp.aggregate_verdict(r.triviality.verdict for r in nonempty),
        clp.aggregate_verdict(r.collapsibility.verdict for r in nonempty),
        {r.index_set: r.index_set for r in nonempty},
        {r.index_set: (r.triviality, r.collapsibility) for r in nonempty},
        tuple(sorted(cover.names())),
    )


def slow_n_zero_subspace(cover, mode, reduced, classification) -> NZeroResult:
    verdict_of = {}
    for r in classification.records:
        if not r.empty:
            v = r.triviality if mode == "trivial" else r.collapsibility
            verdict_of[r.index_set] = v.verdict
    included = tuple(sorted(J for J, v in verdict_of.items() if v == "yes"))
    excluded = tuple(sorted(J for J, v in verdict_of.items() if v == "unknown"))
    if reduced:
        rn = slow_reduced_nerve(cover)
        keep = {rep for rep, Js in rn.classes.items() if any(J in included for J in Js)}
        poset = rn.poset.restrict(keep)
    else:
        chi = slow_nerve(cover).face_poset()
        poset = chi.restrict({simplex_id(J) for J in included} & set(chi.elements))
    return NZeroResult(poset, included, excluded)


def slow_n_zero_complex(cover, mode, classification):
    """N0 as a complex: a verified index set is kept when every non-empty
    proper subset of it that is a nerve set is verified too."""
    verdict_of = {}
    for r in classification.records:
        if not r.empty:
            verdict_of[r.index_set] = (r.triviality if mode == "trivial" else r.collapsibility).verdict
    ok = {J for J, v in verdict_of.items() if v == "yes"}
    closed = [
        J
        for J in ok
        if all(
            sub in ok
            for k in range(1, len(J))
            for sub in combinations(J, k)
            if sub in verdict_of
        )
    ]
    excluded = tuple(sorted(J for J, v in verdict_of.items() if v == "unknown"))
    return SimplicialComplex(closed), excluded


# each nerve flavour, and the flavour of its mode for the other cover kind:
# the pairs that ran as aliases on either kind of cover
OTHER_KIND = {
    "good-complex": "good-space",
    "good-space": "good-complex",
    "strong-good-complex": "strong-good-space",
    "strong-good-space": "strong-good-complex",
}


def kind_refusal(flavor: str) -> str:
    """The message that refuses a cover of the other kind than flavor's."""
    whole = "finite spaces" if FLAVORS[flavor][0] == "poset" else "complexes"
    return f"{flavor} applies to covers of {whole}"


# The checkers read I_x and S_sigma off one inversion of masks
# (``covers._holders``).  Below is the scan it replaced: per parent position,
# the keys whose mask holds it, and every simplex of L tested against them.
# After it, the reduced-complex check by the route that built K(reduced N0)
# whole and read every S_sigma off its index.


def holding(masks: dict, keys, i: int) -> set:
    """The keys whose mask holds position i: a point's position in the
    covered space, or a simplex id in the covered complex's index."""
    return {k for k in keys if masks[k] >> i & 1}


def slow_id_masks(cover) -> dict:
    """The intersection mask of every nerve index set, by its simplex id."""
    return {simplex_id(J): cover._mask(J) for J in slow_index_sets(cover, 20, True)}


def slow_holder_masks(cover, P: FinitePoset) -> list[int]:
    """Per position of the cover's masks (a point of the covered space, or
    a simplex id of the covered complex), the mask over P of the elements
    whose intersection holds it."""
    by_id = slow_id_masks(cover)
    X = cover.parent
    size = len(X.index().simplices) if cover.kind == COMPLEX else len(X)
    return [P._mask(holding(by_id, P.elements, i)) for i in range(size)]


def slow_s_sigma_ids(cover, L: SimplicialComplex, vertex_masks: dict) -> list[list[int]]:
    """S_sigma of every simplex of the covered complex, as ids on L's index."""
    index = L.index()
    out = []
    for i in range(len(cover.parent.index().simplices)):
        held = holding(vertex_masks, L.vertices, i)
        out.append([j for j, t in enumerate(index.simplices) if held.issuperset(t)])
    return out


def complex_route_reduced_report(cover, restarts: int = 8, seed: int = 0) -> dict:
    """``check_nerve_theorem(cover, "reduced-complex")`` by the route that
    built L = K(reduced N0) whole: each S_sigma is the ids of L's simplices
    whose vertices' class masks all hold sigma, decided by the free-face
    search on L's index, and its dimension is read off its last simplex."""
    cls = classify_cover(cover, restarts=restarts, seed=seed)
    n0 = n_zero_subspace(cover, mode="collapsible", reduced=True, classification=cls)
    X, P = cover.parent, n0.poset
    L = order_complex(P)
    index, cap = L.index(), X.dim()
    report = {"flavor": "reduced-complex", "dim_cap": cap}
    report["n0_dim_ok"] = P.height() <= cap if len(P) else True
    per_simplex, bounds_ok = {}, True
    for s, ids in zip(X.all_simplices(), slow_s_sigma_ids(cover, L, slow_id_masks(cover))):
        if not ids:
            per_simplex[simplex_id(s)] = clp.TriStateResult("no", note="S_sigma is empty")
            continue
        per_simplex[simplex_id(s)] = clp._complex_verdicts(index, ids, restarts, seed)[1]
        bounds_ok &= len(index.simplices[ids[-1]]) - 1 <= cap - (len(s) - 1)
    report["per_simplex"] = {k: v.to_doc() for k, v in per_simplex.items()}
    report["dim_bounds_ok"] = bounds_ok
    verdicts = [v.verdict for v in per_simplex.values()]
    if not bounds_ok or not report["n0_dim_ok"]:
        verdicts.append("no")
    excluded = n0.excluded_unknown
    report["excluded_unknown"] = list(excluded)
    report["hypothesis_verdict"] = clp.aggregate_verdict(verdicts + ["unknown"] * len(excluded))
    if not len(P):
        raise InvalidCover("reduced N0 is empty; no verified intersections")
    report["assumption"] = REDUCED_NERVE_ASSUMPTION
    parent_hom, n0_hom = reduced_homology(X), homology_of_poset(P)
    report["parent_homology"] = parent_hom.summary()
    report["nerve_homology"] = n0_hom.summary()
    report["conclusion_homology_match"] = homology_equal(parent_hom, n0_hom)
    report["note"] = (
        "homology agreement is the computable shadow of the asserted "
        "(simple) homotopy equivalence; the equivalence itself is not decided"
    )
    return report


def slow_subunion(cover, names) -> SimplicialComplex:
    out = SimplicialComplex([])
    for n in sorted(set(names)):
        out = out.union(cover.member(n))
    return out


def slow_check_truncation_theorem(
    cover, max_enum=12, sample_size=64, seed=0, classification=None
) -> dict:
    names = sorted(cover.names())
    cls = classification or slow_classify_cover(cover, nerve_simplices_only=True)
    part1 = homology_equal(reduced_homology(cover.parent), reduced_homology(slow_nerve(cover)))
    if len(names) <= max_enum:
        subsets = [J for k in range(1, len(names) + 1) for J in combinations(names, k)]
        enumeration = "exhaustive"
    else:
        rng = random.Random(seed)
        subsets = {tuple(sorted(f)) for f in slow_nerve(cover).facets}
        while len(subsets) < min(sample_size, 2 ** len(names) - 1):
            k = rng.randint(1, len(names))
            subsets.add(tuple(sorted(rng.sample(names, k))))
        subsets = sorted(subsets)
        enumeration = f"sampled (cap {max_enum} exceeded, seed {seed})"
    failures = []
    for J in subsets:
        K_J = slow_subunion(cover, J)
        if K_J.is_empty():
            continue
        hom = reduced_homology(K_J)
        if not (all(b == 0 for b in hom.betti[1:]) and all(not t for t in hom.torsion)):
            failures.append({"index_set": list(J), "homology": hom.summary()})
    has_empty = not contains_simplex(slow_nerve(cover), frozenset(names))
    report = {
        "part1_nerve_homology_match": part1,
        "part2_subunions_acyclic": not failures,
        "part2_failures": failures,
        "good": cls.good,
        "strong_good": cls.strong_good,
        "has_empty_intersections": has_empty,
        "predicted_failure_mode": bool(
            failures and cls.good == "yes" and cls.strong_good != "yes"
        ),
        "enumeration": enumeration,
        "subsets_checked": len(subsets),
    }
    if failures and cls.strong_good == "yes" and has_empty:
        report["note"] = (
            "some sub-family has an empty intersection, so the union argument "
            "behind part 2 does not apply even though every non-empty "
            "intersection is collapsible"
        )
    return report


def chi_collapses_to_vertices(index: SimplexIndex, ids: Sequence[int]) -> bool:
    """Whether the deterministic free-face pass takes the subcomplex ids
    (closed under faces) down to isolated vertices: the pass on parent-sized
    arrays, stopped at the Euler characteristic, which a collapse keeps and
    which a state without edges has as its size."""
    cuts = index.dim_cuts(ids)
    chi = sum((-1) ** d * (hi - lo) for d, (lo, hi) in enumerate(zip(cuts, cuts[1:])))
    return parent_array_collapse_run(index, frozenset(), chi, None, ids) is not None


def per_union_positive_degree_failures(cover: Cover, subsets) -> list[dict]:
    """The part-2 failures with one full free-face pass per distinct
    sub-union, each union the OR of all its members' masks, and the
    homology of every union that pass gets stuck on."""
    index = cover.parent.index()
    failure_of: dict[int, dict | None] = {}
    failures = []
    for J in subsets:
        union = cover._union_mask(J)
        if union not in failure_of:
            failure_of[union] = None
            ids = _ids(union)
            if ids and not chi_collapses_to_vertices(index, ids):
                hom = _homology(index, ids)
                if any(hom.betti[1:]) or any(hom.torsion):
                    failure_of[union] = hom.summary()
        if failure_of[union] is not None:
            failures.append({"index_set": list(J), "homology": failure_of[union]})
    return failures



def largest_predecessor_positive_degree_failures(cover: Cover, subsets) -> list[dict]:
    """The part-2 failures by the walk along the sub-union lattice that
    tries one collapsed predecessor only: each new union K_J is collapsed
    relative to the largest K_{J-j} already shown to collapse to vertices,
    and when that relative pass gets stuck, the full pass runs on all of
    K_J's ids, then their homology.  Each id mask is passed once per call."""
    index = cover.parent.index()
    names = cover.names()
    bit = {n: 1 << k for k, n in enumerate(names)}
    member = dict(zip(bit.values(), cover._member_masks(names)))
    union_of = {0: 0}
    collapsed = {0}
    passed: dict[int, bool] = {}

    def passes(mask: int) -> bool:
        if mask not in passed:
            passed[mask] = clp._collapse_run(index, _ids(mask)) is not None
        return passed[mask]

    failure_of: dict[int, dict | None] = {}
    failures = []
    for J in subsets:
        bits = [bit[n] for n in J]
        key = sum(bits)
        below = [(union_of[key ^ b], b) for b in bits if key ^ b in union_of]
        union = below[0][0] | member[below[0][1]] if below else cover._union_mask(J)
        union_of[key] = union
        if union not in failure_of:
            failure_of[union] = None
            best = max((u for u, _ in below if u in collapsed), key=int.bit_count, default=0)
            if passes(union & ~best) or (best and passes(union)):
                collapsed.add(union)
            else:
                hom = _homology(index, _ids(union))
                if any(hom.betti[1:]) or any(hom.torsion):
                    failure_of[union] = hom.summary()
        if failure_of[union] is not None:
            failures.append({"index_set": list(J), "homology": failure_of[union]})
    return failures


def every_predecessor_positive_degree_failures(cover: Cover, subsets) -> list[dict]:
    """The part-2 failures by the walk along the sub-union lattice that
    tries every collapsed predecessor in turn, the largest first: each new
    union K_J is collapsed relative to each K_{J-j} already shown to
    collapse to vertices, and when every relative pass gets stuck, the full
    pass runs on all of K_J's ids, then their homology.  Each id mask is
    passed once per call, and no classification is read."""
    index = cover.parent.index()
    names = cover.names()
    bit = {n: 1 << k for k, n in enumerate(names)}
    member = dict(zip(bit.values(), cover._member_masks(names)))
    union_of = {0: 0}
    collapsed = {0}
    passed: dict[int, bool] = {}
    failure_of: dict[int, dict | None] = {}
    failures = []
    for J in subsets:
        key = sum(bit[n] for n in J)
        last = bit[J[-1]]
        rest = union_of.get(key ^ last)
        union = cover._union_mask(J) if rest is None else rest | member[last]
        union_of[key] = union
        if union not in failure_of:
            failure_of[union] = None
            bases = [u for n in J if (u := union_of.get(key ^ bit[n])) in collapsed]
            bases.sort(key=int.bit_count, reverse=True)
            for mask in [union & ~u for u in bases] + [union]:
                ok = passed.get(mask)
                if ok is None:
                    ok = passed[mask] = clp._collapse_run(index, _ids(mask)) is not None
                if ok:
                    collapsed.add(union)
                    break
            else:
                hom = _homology(index, _ids(union))
                if any(hom.betti[1:]) or any(hom.torsion):
                    failure_of[union] = hom.summary()
        if failure_of[union] is not None:
            failures.append({"index_set": list(J), "homology": failure_of[union]})
    return failures



# -- the dense chain complex and the sub-union persistence reduction ---------
#
# The library reads sparse boundary rows off the simplex index and reduces
# persistence on the parent's index.  Below are the paths it replaced: dense
# row-major boundary matrices over tuple-keyed bases, a fraction-free rank,
# a dense GF(2) rank, a dense minimal-pivot Smith normal form and a
# persistence reduction over an index rebuilt from the sub-unions' simplices.
# Homology from them uses the dense ``_dense_snf`` only, never the sparse
# elimination.  Homology with the sparse elimination
# on every row, before the library coreduced the complex first, is kept too.


def sparse(M) -> list[dict[int, int]]:
    """A dense integer matrix as sparse rows {column: nonzero value}."""
    return [{j: v for j, v in enumerate(row) if v} for row in M]


def boundary_of_boundary(rows, lower):
    """Each row of the transposed boundary times the transposed boundary one
    degree down, as {column: value} with zero sums dropped."""
    out = []
    for row in rows:
        acc: dict[int, int] = {}
        for j, v in row.items():
            for k, w in lower[j].items():
                acc[k] = acc.get(k, 0) + v * w
        out.append({k: v for k, v in acc.items() if v})
    return out


def dense_boundary_matrices(K: SimplicialComplex):
    """Bases per dimension and dense boundary matrices C_d -> C_{d-1}, row-major;
    boundaries[0] is the empty matrix."""
    bases = [tuple(K.simplices_of_dim(d)) for d in range(K.dim() + 1)]
    boundaries = [tuple(() for _ in bases[0])]
    for d in range(1, len(bases)):
        index = {s: i for i, s in enumerate(bases[d - 1])}
        rows = len(bases[d - 1])
        cols = []
        for s in bases[d]:
            col = [0] * rows
            for i in range(len(s)):
                col[index[s[:i] + s[i + 1:]]] = (-1) ** i
            cols.append(col)
        boundaries.append(tuple(tuple(col[r] for col in cols) for r in range(rows)))
    return bases, boundaries


def rank_fraction_free(M) -> int:
    """Rank over the rationals by Bareiss fraction-free elimination."""
    A = [list(row) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(m):
        piv = next((i for i in range(row, n) if A[i][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        for i in range(row + 1, n):
            for j in range(col + 1, m):
                A[i][j] = (A[row][col] * A[i][j] - A[i][col] * A[row][j]) // prev
            A[i][col] = 0
        prev = A[row][col]
        rank += 1
        row += 1
        if row == n:
            break
    return rank


def dense_rank_gf2(M) -> int:
    """Rank over the binary field of a dense integer matrix."""
    rows = [sum(1 << j for j, v in enumerate(r) if v % 2) for r in M]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        piv = rows.pop()
        rank += 1
        low = piv & -piv
        rows = [r ^ piv if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def _dense_snf(M: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Smith normal form by repeated minimal-pivot elimination on a dense copy."""
    A = [list(row) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    factors: list[int] = []
    t = 0
    while True:
        # find a pivot of minimal absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = A[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        A[t], A[i] = A[i], A[t]
        for row in A:
            row[t], row[j] = row[j], row[t]
        while True:
            p = A[t][t]
            done = True
            for i in range(t + 1, n):
                if A[i][t]:
                    q = A[i][t] // p
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    done = done and A[i][t] == 0
            for j in range(t + 1, m):
                if A[t][j]:
                    q = A[t][j] // p
                    for row in A:
                        row[j] -= q * row[t]
                    done = done and A[t][j] == 0
            if done:
                break
            # remainder smaller than |p| moved into the block; reselect
            best_ij = min(
                ((i, j) for i in range(t, n) for j in range(t, m) if A[i][j]),
                key=lambda ij: abs(A[ij[0]][ij[1]]),
            )
            i, j = best_ij
            A[t], A[i] = A[i], A[t]
            for row in A:
                row[t], row[j] = row[j], row[t]
        # enforce divisibility of later entries by the pivot
        p = abs(A[t][t])
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            continue  # redo this pivot with the merged row
        factors.append(p)
        t += 1
    # normalize divisibility chain (pivoting by minimal value already gives it,
    # but the merge path above can land slightly out of order)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            factors[i], factors[j] = g, a * b // g
    return factors, len(factors)


def _dense_per_boundary(K, fn, default):
    bases, boundaries = dense_boundary_matrices(K)
    out = [default] * (len(bases) + 1)
    for d in range(1, len(bases)):
        out[d] = fn(boundaries[d])
    return bases, out


def _dense_betti(bases, ranks) -> list[int]:
    betti = [len(basis) - ranks[d] - ranks[d + 1] for d, basis in enumerate(bases)]
    betti[0] -= 1
    return betti


def betti_numbers_oracle(K: SimplicialComplex) -> list[int]:
    """Rational Betti numbers by fraction-free elimination (reduced convention)."""
    return _dense_betti(*_dense_per_boundary(K, rank_fraction_free, 0))


def betti_numbers_gf2_oracle(K: SimplicialComplex) -> list[int]:
    """Reduced Betti numbers over the binary field from dense matrices."""
    return _dense_betti(*_dense_per_boundary(K, dense_rank_gf2, 0))


def homology_oracle(K: SimplicialComplex) -> HomologyResult:
    """Reduced integral homology by dense Smith normal form."""
    bases, snf = _dense_per_boundary(K, _dense_snf, ((), 0))
    betti = _dense_betti(bases, [rank for _, rank in snf])
    torsion = tuple(tuple(f for f in snf[d + 1][0] if f > 1) for d in range(len(bases)))
    return HomologyResult(tuple(betti), torsion)


def full_snf_homology(K: SimplicialComplex) -> HomologyResult:
    """Reduced integral homology by sparse Smith normal form of the whole
    boundary, every simplex's row included: the library's path before it
    ran Smith normal form only on the simplices a coreduction leaves."""
    none = ((), 0)
    snf = [none] + [smith_normal_form(rows) for rows in boundary_matrices(K)[1:]] + [none]
    betti = _reduced_betti(K.index().dim_start, [rank for _, rank in snf])
    torsion = tuple(tuple(f for f in snf[d + 1][0] if f > 1) for d in range(K.dim() + 1))
    return HomologyResult(tuple(betti), torsion)


def prepass_coreduce(index: SimplexIndex, ids: Sequence[int]) -> tuple[list[int], int]:
    """Coreduction with a component pre-pass: the library's ``_coreduce``
    before it found the components in its own drain.  A walk over edges,
    with its own seen array and stack, finds the lowest vertex of every
    component and removes it; then one FIFO queue drains all components at
    once.  Returns the ascending ids left and the components beyond the
    first."""
    faces, cofaces = index.faces, index.cofaces
    live = [len(f) for f in faces]
    alive = bytearray(len(faces))
    for i in ids:
        alive[i] = 1
    queue: deque[int] = deque()

    def remove(x: int) -> None:
        alive[x] = 0
        for c in cofaces[x]:
            if alive[c]:
                live[c] -= 1
                if live[c] == 1:
                    queue.append(c)

    components = 0
    seen = bytearray(len(faces))
    for v in ids[: bisect_left(ids, index.dim_start[1])]:
        if seen[v]:
            continue
        components += 1
        seen[v] = 1
        stack = [v]
        while stack:
            for e in cofaces[stack.pop()]:
                if alive[e]:
                    for w in faces[e]:
                        if not seen[w]:
                            seen[w] = 1
                            stack.append(w)
        remove(v)
    while queue:
        c = queue.popleft()
        if alive[c] and live[c] == 1:
            remove(c)
            remove(next(f for f in faces[c] if alive[f]))
    return [i for i, a in enumerate(alive) if a], components - 1


def closure_coreduce(index: SimplexIndex, ids: Sequence[int]) -> tuple[list[int], int]:
    """The library's ``_coreduce`` before its drain ran inline: a nested
    ``remove`` called once per removed simplex, and the live face of a
    queued coface found by a generator.  The same one scan of the vertices
    and the same FIFO queue; returns the ascending ids left and the
    components beyond the first."""
    faces, cofaces = index.faces, index.cofaces
    live = [len(f) for f in faces]
    if len(ids) == len(faces):
        alive = bytearray(b"\x01") * len(faces)
    else:
        alive = bytearray(len(faces))
        for i in ids:
            alive[i] = 1
    queue: deque[int] = deque()

    def remove(x: int) -> None:
        alive[x] = 0
        for c in cofaces[x]:
            if alive[c]:
                live[c] -= 1
                if live[c] == 1:
                    queue.append(c)

    components = 0
    for v in ids[: bisect_left(ids, index.dim_start[1])]:
        if not alive[v]:
            continue
        components += 1
        remove(v)
        while queue:
            c = queue.popleft()
            if alive[c] and live[c] == 1:
                remove(c)
                remove(next(f for f in faces[c] if alive[f]))
    return [i for i, a in enumerate(alive) if a], components - 1


def order_complex_homology(X: FinitePoset) -> HomologyResult:
    """Reduced integral homology of X on its whole order complex K(X): the
    library's path before it removed weak points first."""
    return reduced_homology(order_complex(X))


def graded_poset(rng: random.Random, widths, k: int) -> FinitePoset:
    """Levels of the given widths, each point of a level above the first
    lying above ``k`` random points of the level just below it."""
    levels = [[f"g{i}{chr(97 + j)}" for j in range(w)] for i, w in enumerate(widths)]
    pairs = [
        (y, x)
        for lo, hi in zip(levels, levels[1:])
        for x in hi
        for y in sorted(rng.sample(lo, min(k, len(lo))))
    ]
    return build_poset([x for level in levels for x in level], pairs)


def slow_persistence_over_chain(cover, chain) -> PersistenceDiagram:
    """Column reduction over an index rebuilt from the sub-unions' simplices."""
    chain = [tuple(sorted(J)) for J in chain]
    appearance: dict[tuple[str, ...], int] = {}
    for t, J in enumerate(chain, start=1):
        for s in slow_subunion(cover, J).all_simplices():
            appearance.setdefault(s, t)
    ordered = sorted(appearance, key=lambda s: (appearance[s], len(s), s))
    index = {s: i for i, s in enumerate(ordered)}
    columns = []
    for s in ordered:
        mask = 0
        if len(s) > 1:
            for i in range(len(s)):
                mask |= 1 << index[s[:i] + s[i + 1:]]
        columns.append(mask)
    low_owner: dict[int, int] = {}
    pairs = []
    for j, col in enumerate(columns):
        while col:
            low = col.bit_length() - 1
            if low not in low_owner:
                low_owner[low] = j
                pairs.append((low, j))
                break
            col ^= columns[low_owner[low]]
        columns[j] = col
    paired = {i for i, _ in pairs} | {j for _, j in pairs}
    by_degree: dict[int, list] = {}
    for i, j in pairs:
        birth, death = appearance[ordered[i]], appearance[ordered[j]]
        if death > birth:
            by_degree.setdefault(len(ordered[i]) - 1, []).append((birth, death))
    for i, s in enumerate(ordered):
        if i not in paired:
            by_degree.setdefault(len(s) - 1, []).append((appearance[s], None))
    return PersistenceDiagram(
        tuple(chain),
        tuple(
            (deg, tuple(sorted(bs, key=lambda b: (b[0], b[1] is None, b[1]))))
            for deg, bs in sorted(by_degree.items())
        ),
    )


# -- the string-set poset ------------------------------------------------------
#
# The library interns a poset's elements as sorted positions and keeps strict
# reachability as int bitmasks, built once per poset.  SlowPoset is the
# representation it replaced: per element, frozensets of the elements below
# and above, each recomputed by its own topological sort; the transitive
# reduction tests every comparable pair against every element between; and
# restriction runs the closed pairs through a fresh build.  Its cycle report
# walks the string relation.


def _slow_toposort(elements, edges) -> list[str]:
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
        raise CycleDetected(_slow_find_cycle(succ, indeg))
    return out


def _slow_find_cycle(succ, indeg) -> list[str]:
    remaining = {x for x, d in indeg.items() if d > 0}
    seen: dict[str, int] = {}
    path: list[str] = []
    x = min(remaining)
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = min(y for y in succ[x] if y in remaining)
    return path[seen[x]:]


def _slow_reachability(elements, edges) -> dict[str, frozenset[str]]:
    """For each element, the set of elements strictly below it along edges."""
    preds: dict[str, set[str]] = {x: set() for x in elements}
    for a, b in edges:
        preds[b].add(a)
    below: dict[str, frozenset[str]] = {}
    for x in _slow_toposort(elements, edges):
        acc: set[str] = set()
        for p in preds[x]:
            acc.add(p)
            acc |= below[p]
        below[x] = frozenset(acc)
    return below


class SlowPoset:
    """The poset generated by relation_pairs, as the string-set code built it."""

    def __init__(self, elements, relation_pairs):
        elements = list(elements)
        pairs = set()
        for a, b in relation_pairs:
            if a == b:
                raise CycleDetected([a])
            pairs.add((a, b))
        below = _slow_reachability(elements, pairs)
        self.hasse = frozenset(
            (a, b)
            for b in elements
            for a in below[b]
            if not any(a in below[c] for c in below[b])
        )
        self.elements = tuple(sorted(elements))
        self.below = _slow_reachability(self.elements, self.hasse)
        self.above = _slow_reachability(self.elements, [(b, a) for a, b in self.hasse])
        self.covers_below = {x: sorted(a for a, b in self.hasse if b == x) for x in self.elements}
        self.covers_above = {x: sorted(b for a, b in self.hasse if a == x) for x in self.elements}
        indeg = {x: len(self.covers_below[x]) for x in self.elements}
        ready = [x for x in self.elements if not indeg[x]]
        self.linear_extension: list[str] = []
        while ready:
            x = heapq.heappop(ready)
            self.linear_extension.append(x)
            for y in self.covers_above[x]:
                indeg[y] -= 1
                if not indeg[y]:
                    heapq.heappush(ready, y)
        self.height_of: dict[str, int] = {}
        for x in self.linear_extension:
            preds = [self.height_of[y] for y in self.covers_below[x]]
            self.height_of[x] = 1 + max(preds) if preds else 0

    def restrict(self, members) -> "SlowPoset":
        members = frozenset(members)
        return SlowPoset(members, [(a, b) for b in members for a in self.below[b] if a in members])

    def order_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for b in self.elements for a in self.below[b])


def assert_same_poset(X: FinitePoset, S: SlowPoset) -> None:
    """Every query of the indexed poset X against the string-set oracle S."""
    assert X.elements == S.elements
    assert X.hasse == S.hasse
    assert X.order_pairs() == S.order_pairs()
    for x in X.elements:
        assert X.down_set(x, strict=True) == S.below[x]
        assert X.up_set(x, strict=True) == S.above[x]
        assert X.down_set(x) == S.below[x] | {x}
        assert X.up_set(x) == S.above[x] | {x}
        assert X.covers_below(x) == S.covers_below[x]
        assert X.covers_above(x) == S.covers_above[x]
        assert X.height_of(x) == S.height_of[x]
    assert X.linear_extension() == S.linear_extension
    assert X.height() == max(S.height_of.values(), default=0)
    assert X.maximal_elements() == [x for x in S.elements if not S.above[x]]
    assert X.minimal_elements() == [x for x in S.elements if not S.below[x]]


def slow_maximalize(faces) -> frozenset:
    """The non-empty faces contained in no other, each tested against all."""
    faces = frozenset(f for f in faces if f)
    return frozenset(f for f in faces if not any(f < g for g in faces))


# -- compositions of library calls for functions the library no longer has ---
#
# The digests and some tests read point links, weak points, staged unions,
# the two-triangle cover, alive counts, GF(2) Betti numbers of a whole
# complex and single classification records.  The library keeps no public
# function for them; these compose the calls that remain.


def gamma_points(X: FinitePoset) -> list[tuple[str, clp.TriStateResult]]:
    """Per element, the triviality verdict of its link (punctured down and
    up sets) by the library's one rule on the link's mask.  An isolated
    point's link is empty, and the empty space is not homotopically
    trivial, so its verdict is No."""
    out = []
    for x, below, above in zip(X.elements, X._below, X._above):
        link = below | above
        out.append((x, clp._triviality(X, link) if link else clp.TriStateResult("no", note="empty link")))
    return out


def weak_points(X: FinitePoset) -> list[tuple[str, str]]:
    """The weak points with their kind, in element order."""
    return [(x, kind) for x in X.elements if (kind := clp.weak_point_kind(X, x))]


def staged_union_collapse(parts, restarts: int = 8, seed: int = 0) -> clp.TriStateResult:
    """Collapse a union of complexes stage by stage: the union collapses onto
    the union of all parts but the last by a targeted collapse, then the
    rest is collapsed the same way, the first part to a point.  The first
    stage that does not collapse is the verdict; otherwise the stages'
    steps, joined, are one certificate."""
    if len(parts) == 1:
        return clp.greedy_collapse_complex(parts[0], restarts=restarts, seed=seed)
    rest = parts[0]
    for p in parts[1:-1]:
        rest = rest.union(p)
    step1 = clp.greedy_collapse_complex(rest.union(parts[-1]), target=rest, restarts=restarts, seed=seed)
    if not step1.is_yes():
        return step1
    tail = staged_union_collapse(parts[:-1], restarts=restarts, seed=seed)
    if not tail.is_yes():
        return tail
    return yes(CollapseCertificate(step1.certificate.steps + tail.certificate.steps))


def two_triangle_cover() -> Cover:
    """Two solid triangles glued along the edge v0-v2, each a member."""
    return Cover(
        "complex",
        two_triangles(),
        (
            ("A", SimplicialComplex([["v0", "v1", "v2"]])),
            ("B", SimplicialComplex([["v0", "v2", "v3"]])),
        ),
    )


def alive_at(diagram: PersistenceDiagram, step: int, k: int) -> int:
    """The number of degree-k bars of the diagram alive at the step."""
    return sum(
        1
        for birth, death in diagram.bars_in_degree(k)
        if birth <= step and (death is None or death > step)
    )


def gf2_betti(K: SimplicialComplex) -> list[int]:
    """Reduced Betti numbers of K over the binary field, on its whole index."""
    index = K.index()
    return _betti_gf2(index, range(len(index.simplices)))


def record_of(cls: CoverClassification, J) -> IntersectionRecord:
    """The record of the index set J among the classification's records."""
    return next(r for r in cls.records if r.index_set == tuple(sorted(J)))

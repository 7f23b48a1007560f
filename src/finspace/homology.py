"""Exact simplicial homology over the integers.

A subcomplex is an ascending, face-closed list of simplex ids on its
parent's :class:`SimplexIndex`; ``reduced_homology`` of a complex is the
case of all its ids, and covers and persistence ask for the homology of
intersections and sub-unions by their ids, without building them.  The
ids are first coreduced (Mrozek and Batko, *Coreduction homology
algorithm*, DCG 41, 2009) in one scan of their vertices: each live vertex,
the lowest of a connected component not yet reached, goes, the first
together with the empty simplex and each further one as a class of reduced
H~0, and its component drains: first in first out, every simplex with
exactly one live face goes together with that face.  Boundary coefficients
are ±1, so the boundary restricted to the simplices left has the same
integral homology, torsion included.  On those simplices each d-simplex
gives one sparse row ``{j: ±1}`` over the positions j of its remaining
codimension-1 faces among the remaining (d-1)-simplices, signed by the
sorted-vertex orientation; ``boundary_matrices`` builds the same rows for
every simplex.  These rows form the transpose of the boundary matrix,
which has the same rank and invariant factors.  ``smith_normal_form``
takes them as they are (arbitrary-precision Python ints, so no overflow)
and runs one sparse elimination that always pivots on an entry of least
absolute value: a unit (±1) pivot drops out at once with its row and
column, and a larger one gives way to its smaller remainders until it
divides what is left of its row and column, where any torsion lives.
Betti numbers over the binary field come from the same ids' face lists
packed as bitmasks.  The homology of a finite space is that of its order
complex, listed only on what weak-point removal leaves of the space
(Barmak and Minian, *Simple homotopy types and finite spaces*, Adv. Math.
218, 2008: removing a weak point collapses the order complex onto that of
the rest) and padded with trivial degrees up to the space's height, the
dimension of the whole order complex.  Smith normal form of the whole
boundary, the dense boundary builder, the dense minimal-pivot elimination
``_dense_snf``, the fraction-free rank and the homology of the whole order
complex live in the tests, as oracles.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import compress
from math import gcd

from .complexes import SimplexIndex, SimplicialComplex, _chain_levels
from .errors import EmptyComplex, EmptySpace
from .posets import FinitePoset, _bits, _weak_reduction


def boundary_matrices(K: SimplicialComplex) -> list[list[dict[int, int]]]:
    """Sparse boundary rows of K per degree, read off its simplex index.

    Entry d holds one row per d-simplex (in index order): ``{j: ±1}`` over
    the positions j of its faces among the (d-1)-simplices, where the face
    missing vertex i has sign (-1)^i.  Entry d is the transposed boundary
    C_d -> C_{d-1}; entry 0 is empty.
    """
    if K.is_empty():
        raise EmptyComplex("cannot build chain complex of the empty complex")
    index = K.index()
    return _boundary_rows(index, range(len(index.simplices)), index.dim_start)


def _boundary_rows(
    index: SimplexIndex, ids: Sequence[int], cuts: Sequence[int]
) -> list[list[dict[int, int]]]:
    """Sparse boundary rows per degree of the simplex ids (ascending) of
    index, whose dimension d begins at position ``cuts[d]`` of ids.

    Entry d holds one row per d-simplex among ids: ``{j: ±1}`` over its
    faces among ids, j being the face's position among their
    (d-1)-simplices; faces not among ids are left out.
    """
    out: list[list[dict[int, int]]] = [[]]
    for d in range(1, len(cuts) - 1):
        # faces[i] omits the vertex at position d, d-1, ..., 0 in turn
        signs = [(-1) ** (d - k) for k in range(d + 1)]
        column = {f: j for j, f in enumerate(ids[cuts[d - 1] : cuts[d]])}
        out.append([
            {column[f]: sign for f, sign in zip(index.faces[i], signs) if f in column}
            for i in ids[cuts[d] : cuts[d + 1]]
        ])
    return out


def _coreduce(index: SimplexIndex, ids: Sequence[int]) -> tuple[list[int], int]:
    """Coreduction (Mrozek and Batko, DCG 41, 2009) of the subcomplex made of
    the simplex ids of index, ascending and closed under faces: the
    ascending ids of the simplices it leaves, and the number of connected
    components beyond the first.

    One scan over the vertices, ascending: a live vertex is the lowest of
    a component not yet reached.  It goes, the first one together with the
    empty simplex and each further one with an empty simplex of its own,
    which raises reduced H~0 by one, and then its component drains: first
    in first out, every simplex with exactly one live face goes together
    with that face.  The dead simplices always form a subcomplex, so a
    drain leaves no live vertex in its component (a live edge on a dead
    vertex has one live face and was queued), and components share no
    cofaces, so each drains as it would in one queue for all.  All
    boundary coefficients are ±1, so the boundary restricted to what is
    left has the homology of the whole over the integers, torsion included.
    """
    faces, cofaces = index.faces, index.cofaces
    live = [len(f) for f in faces]  # live faces per simplex of ids
    if len(ids) == len(faces):  # all of the index
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
            continue  # a vertex of a component already drained
        components += 1
        remove(v)
        while queue:
            c = queue.popleft()
            if alive[c] and live[c] == 1:
                remove(c)
                remove(next(f for f in faces[c] if alive[f]))
    return list(compress(range(len(alive)), alive)), components - 1


def smith_normal_form(M: Sequence[Mapping[int, int]]) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... and the rank of a sparse integer matrix.

    Each row of M maps column indices to values; M is not modified.  Each
    step pivots on an entry of least absolute value in the whole matrix: the
    shortest row holding one (a lazy heap on (least value, length, row
    index), pushed again whenever a row changes), and within it the column
    with the fewest entries (lowest column index on ties).  Row operations
    reduce the pivot's column to remainders.  If none is left, column
    operations, which then change the pivot's row alone, reduce its row.  A
    pivot with no remainder left in its row or column is a diagonal entry
    and drops out with both; a unit (±1) pivot always does.  Otherwise a
    remainder smaller than the pivot is the next pivot, so the loop ends by
    Euclid's argument.  The diagonal entries above 1 are brought to a
    divisibility chain by replacing pairs with their gcd and lcm.
    """
    rows = [{j: v for j, v in row.items() if v} for row in M]
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(_least(row), len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    units = 0
    factors: list[int] = []
    while heap:
        least, length, r = heapq.heappop(heap)
        row = rows[r]
        if length != len(row):
            continue  # stale entry: the row changed or dropped out
        # every live row's current key is in the heap, so an entry that
        # still finds its value in the row holds the least in the matrix
        candidates = [j for j, v in row.items() if v == least or v == -least]
        if not candidates:
            continue  # stale entry: the row changed
        c = min(candidates, key=lambda j: (len(cols[j]), j))
        p = row.pop(c)
        below = cols.pop(c)
        below.discard(r)
        kept = set()  # rows left holding a remainder in column c
        for i in below:
            target = rows[i]
            q, rest = divmod(target.pop(c), p)
            if rest:
                target[c] = rest
                kept.add(i)
            for j, v in row.items():
                w = target.get(j, 0) - q * v
                if w:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = w
                else:
                    del target[j]
                    cols[j].discard(i)
            if target:
                heapq.heappush(heap, (_least(target), len(target), i))
        if kept:  # a remainder in column c is the next, smaller pivot
            row[c] = p
            kept.add(r)
            cols[c] = kept
        else:
            # column c holds the pivot alone, so column operations by it
            # change row r alone: its entries go to their remainders mod p,
            # which are all 0 for a unit
            left = {j: w for j, v in row.items() if (w := v % p)} if least > 1 else {}
            for j in row:
                if j not in left:
                    cols[j].discard(r)
            if not left:
                rows[r] = {}
                if least == 1:
                    units += 1
                else:
                    factors.append(least)
                continue
            row = rows[r] = left
            row[c] = p
            cols[c] = {r}
        heapq.heappush(heap, (_least(row), len(row), r))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            factors[i], factors[j] = g, a * b // g
    return [1] * units + factors, units + len(factors)


def _least(row: Mapping[int, int]) -> int:
    """Least absolute value among the (nonzero) entries of a sparse row."""
    values = row.values()
    return 1 if 1 in values or -1 in values else min(map(abs, values))


def rank_gf2(rows: Iterable[int]) -> int:
    """Rank over the binary field of rows packed as int bitmasks."""
    pivots: dict[int, int] = {}  # lowest set bit -> the reduced row that owns it
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


@dataclass(frozen=True)
class HomologyResult:
    """Reduced Betti numbers and torsion coefficients per degree.

    ``betti`` and ``torsion`` are indexed by degree; degree 0 counts
    components minus one.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)

    def unreduced_betti0(self) -> int:
        return self.betti[0] + 1

    def summary(self) -> dict:
        return {
            "reduced": True,
            "degrees": [
                {"degree": d, "betti": b, "torsion": list(t)}
                for d, (b, t) in enumerate(zip(self.betti, self.torsion))
            ],
        }

    def __str__(self) -> str:
        parts = []
        for d, (b, t) in enumerate(zip(self.betti, self.torsion)):
            if b or t:
                tor = " + " + " + ".join(f"Z/{k}" for k in t) if t else ""
                parts.append(f"H~{d} = Z^{b}{tor}")
        return "; ".join(parts) if parts else "trivial"


def _reduced_betti(start: Sequence[int], ranks: Sequence[int]) -> list[int]:
    """Reduced Betti numbers from where each dimension's simplices start,
    followed by their total (as ``SimplexIndex.dim_start``), and the ranks
    of the boundaries, indexed by degree 0..dim+1."""
    betti = [start[d + 1] - start[d] - ranks[d] - ranks[d + 1] for d in range(len(start) - 1)]
    betti[0] -= 1
    return betti


def reduced_homology(K: SimplicialComplex) -> HomologyResult:
    """Reduced integral homology of K: Smith normal form of the boundary
    restricted to the simplices a coreduction leaves."""
    index = K.index()
    return _homology(index, range(len(index.simplices)))


def _homology(index: SimplexIndex, ids: Sequence[int]) -> HomologyResult:
    """Reduced integral homology of the subcomplex made of the simplex ids
    of index (ascending, closed under faces), read in its own dimensions."""
    if not ids:
        raise EmptyComplex("homology of the empty complex is not defined here")
    left, extra = _coreduce(index, ids)
    top = len(index.simplices[ids[-1]])  # the subcomplex's dimension + 1
    cuts = index.dim_cuts(left)[: top + 1]
    # (factors, rank) per degree 0..dim+1; degrees 0 and dim+1 have no boundary
    none = ((), 0)
    rows = _boundary_rows(index, left, cuts)
    snf = [none] + [smith_normal_form(degree) for degree in rows[1:]] + [none]
    betti = _reduced_betti(cuts, [rank for _, rank in snf])
    # the empty simplex went with the first component's lowest vertex; the
    # lowest vertex of each further component is one more class of H~0
    betti[0] += 1 + extra
    torsion = tuple(tuple(f for f in snf[d + 1][0] if f > 1) for d in range(top))
    return HomologyResult(tuple(betti), torsion)


def betti_numbers_gf2(K: SimplicialComplex) -> list[int]:
    """Reduced Betti numbers over the binary field."""
    if K.is_empty():
        raise EmptyComplex("cannot build chain complex of the empty complex")
    index = K.index()
    return _betti_gf2(index, range(len(index.simplices)))


def _betti_gf2(index: SimplexIndex, ids: Sequence[int]) -> list[int]:
    """Reduced Betti numbers over the binary field of the non-empty
    subcomplex made of the simplex ids of index (ascending, closed under
    faces).

    Each boundary row is the bitmask of a simplex's face ids; ranks need no
    renumbering, so the rows are read off the index as they are.
    """
    cuts = index.dim_cuts(ids)[: len(index.simplices[ids[-1]]) + 1]  # to the ids' dimension
    ranks = [0] * len(cuts)
    for d in range(1, len(cuts) - 1):
        ranks[d] = rank_gf2(_bits(index.faces[i]) for i in ids[cuts[d] : cuts[d + 1]])
    return _reduced_betti(cuts, ranks)


def homology_of_poset(X: FinitePoset) -> HomologyResult:
    """Reduced integral homology of X: that of its order complex K(X), in
    K(X)'s degrees 0..height(X).  K is listed only on what weak-point
    removal leaves of X, which has the same homology (Barmak and Minian),
    and the degrees above that part's dimension read 0."""
    return _poset_homology(X, (1 << len(X)) - 1, X.height() + 1)


def _poset_homology(X: FinitePoset, alive: int, degrees: int) -> HomologyResult:
    """Reduced integral homology of the order complex of the subspace alive
    of X (a mask over X's positions), in ``degrees`` degrees.

    Removing a weak point x gives a collapse K(X) onto K(X - x) (Barmak and
    Minian, Adv. Math. 218, 2008), so the homology, torsion included, is
    that of K of what weak-point removal leaves; its chains are listed on
    the mask, and the degrees above its dimension are padded with zeros.
    """
    if not alive:
        raise EmptySpace("homology of the empty space is not defined here")
    index = SimplexIndex._from_levels(_chain_levels(X, _weak_reduction(X, alive)))
    hom = _homology(index, range(len(index.simplices)))
    pad = degrees - len(hom.betti)
    return HomologyResult(hom.betti + (0,) * pad, hom.torsion + ((),) * pad)


def homology_equal(a: HomologyResult, b: HomologyResult) -> bool:
    """Equality of reduced homology in all degrees (betti and torsion)."""
    top = max(len(a.betti), len(b.betti))
    for d in range(top):
        ba = a.betti[d] if d < len(a.betti) else 0
        bb = b.betti[d] if d < len(b.betti) else 0
        ta = a.torsion[d] if d < len(a.torsion) else ()
        tb = b.torsion[d] if d < len(b.torsion) else ()
        if ba != bb or tuple(sorted(ta)) != tuple(sorted(tb)):
            return False
    return True

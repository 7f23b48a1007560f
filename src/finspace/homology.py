"""Exact simplicial homology over the integers.

Boundary matrices come from the lexicographically sorted simplex bases with
signs from the sorted-vertex orientation.  Integral homology is read off
Smith normal form invariant factors (arbitrary-precision Python ints, so no
overflow is possible).  ``smith_normal_form`` first eliminates unit (±1)
pivots on a sparse copy of the matrix, then runs the dense minimal-pivot
elimination ``_dense_snf`` only on the residual block, where any torsion
lives (Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001).  The dense
routine is also the tests' oracle for the sparse one.  A fraction-free
Gaussian elimination rank and a GF(2) rank serve as independent cross-checks.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from .complexes import SimplicialComplex, order_complex
from .errors import EmptyComplex, EmptySpace
from .posets import FinitePoset


@dataclass(frozen=True)
class ChainComplexData:
    """Bases and boundary matrices of a complex, one entry per dimension."""

    bases: tuple[tuple[tuple[str, ...], ...], ...]
    # boundaries[d] maps C_d -> C_{d-1}; boundaries[0] is the empty matrix
    boundaries: tuple[tuple[tuple[int, ...], ...], ...]

    def dim(self) -> int:
        return len(self.bases) - 1


def boundary_matrices(K: SimplicialComplex) -> ChainComplexData:
    """Integer boundary matrices of K (reduce mod 2 for the binary field)."""
    if K.is_empty():
        raise EmptyComplex("cannot build chain complex of the empty complex")
    bases = [tuple(K.simplices_of_dim(d)) for d in range(K.dim() + 1)]
    boundaries: list[tuple[tuple[int, ...], ...]] = [tuple(() for _ in bases[0])]
    for d in range(1, len(bases)):
        index = {s: i for i, s in enumerate(bases[d - 1])}
        rows = len(bases[d - 1])
        cols = []
        for s in bases[d]:
            col = [0] * rows
            for i in range(len(s)):
                col[index[s[:i] + s[i + 1:]]] = (-1) ** i
            cols.append(col)
        # store row-major
        boundaries.append(tuple(tuple(col[r] for col in cols) for r in range(rows)))
    return ChainComplexData(tuple(bases), tuple(boundaries))


def smith_normal_form(M: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... and the rank of an integer matrix.

    Unit pivots are eliminated first on a sparse copy of M: each step takes
    the shortest row holding a ±1 entry (a lazy heap on row length, lowest
    row index on ties) and, within it, the ±1 entry whose column has the
    fewest entries (lowest column index on ties).  A unit pivot contributes
    the factor 1 and its row and column drop out.  Whatever is left, where
    any torsion lives, goes to the dense ``_dense_snf``.
    """
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    units = 0
    while heap:
        length, r = heapq.heappop(heap)
        row = rows[r]
        if length != len(row):
            continue  # stale entry: the row changed or was eliminated
        candidates = [j for j, v in row.items() if v == 1 or v == -1]
        if not candidates:
            continue  # pushed again if a later elimination changes it
        c = min(candidates, key=lambda j: (len(cols[j]), j))
        p = row.pop(c)
        below = cols.pop(c)
        below.discard(r)
        for i in below:
            target = rows[i]
            f = target.pop(c) * p  # p is ±1, its own inverse
            for j, v in row.items():
                w = target.get(j, 0) - f * v
                if w:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = w
                else:
                    del target[j]
                    cols[j].discard(i)
            if target:
                heapq.heappush(heap, (len(target), i))
        for j in row:
            cols[j].discard(r)
        rows[r] = {}
        units += 1
    live = [row for row in rows if row]
    used = sorted({j for row in live for j in row})
    factors, rank = _dense_snf([[row.get(j, 0) for j in used] for row in live])
    return [1] * units + factors, units + rank


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
            g = _gcd(a, b)
            factors[i], factors[j] = g, a * b // g
    return factors, len(factors)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def rank_fraction_free(M: Sequence[Sequence[int]]) -> int:
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


def rank_gf2(M: Sequence[Sequence[int]]) -> int:
    """Rank over the binary field, rows packed as bitmasks."""
    rows = []
    for r in M:
        mask = 0
        for j, v in enumerate(r):
            if v % 2:
                mask |= 1 << j
        if mask:
            rows.append(mask)
    rank = 0
    while rows:
        piv = rows.pop()
        rank += 1
        low = piv & -piv
        rows = [r ^ piv if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion coefficients per degree.

    ``betti`` and ``torsion`` are indexed by degree.  When ``reduced`` is
    true, degree 0 counts components minus one.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced: bool = True

    def is_trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)

    def unreduced_betti0(self) -> int:
        return self.betti[0] + (1 if self.reduced else 0)

    def summary(self) -> dict:
        return {
            "reduced": self.reduced,
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


def _per_boundary(data: ChainComplexData, fn, default) -> list:
    """fn of each non-empty boundary matrix, indexed by degree 0..dim+1;
    ``default`` where the matrix is empty or out of range."""
    out = [default] * (data.dim() + 2)
    for d in range(1, data.dim() + 1):
        M = data.boundaries[d]
        if M and M[0]:
            out[d] = fn(M)
    return out


def _reduced_betti(data: ChainComplexData, ranks: list[int]) -> list[int]:
    """Reduced Betti numbers from the ranks of the boundary matrices."""
    betti = [len(basis) - ranks[d] - ranks[d + 1] for d, basis in enumerate(data.bases)]
    betti[0] -= 1
    return betti


def reduced_homology(K: SimplicialComplex) -> HomologyResult:
    """Reduced integral homology of K via Smith normal form."""
    if K.is_empty():
        raise EmptyComplex("homology of the empty complex is not defined here")
    data = boundary_matrices(K)
    snf = _per_boundary(data, smith_normal_form, ((), 0))
    betti = _reduced_betti(data, [rank for _, rank in snf])
    torsion = tuple(tuple(f for f in snf[d + 1][0] if f > 1) for d in range(data.dim() + 1))
    return HomologyResult(tuple(betti), torsion, reduced=True)


def betti_numbers_oracle(K: SimplicialComplex) -> list[int]:
    """Rational Betti numbers by fraction-free elimination (reduced convention)."""
    data = boundary_matrices(K)
    return _reduced_betti(data, _per_boundary(data, rank_fraction_free, 0))


def betti_numbers_gf2(K: SimplicialComplex) -> list[int]:
    """Reduced Betti numbers over the binary field."""
    data = boundary_matrices(K)
    return _reduced_betti(data, _per_boundary(data, rank_gf2, 0))


def homology_of_poset(X: FinitePoset) -> HomologyResult:
    if not len(X):
        raise EmptySpace("homology of the empty space is not defined here")
    return reduced_homology(order_complex(X))


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

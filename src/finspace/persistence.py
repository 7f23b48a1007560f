"""Persistence over sub-union filtrations of a cover.

The filtration is a strictly increasing chain of index sets; its carrier is
the chain of sub-unions K_J.  Reduction runs over the binary field (the
vanishing statement needs no torsion bookkeeping) on the parent's simplex
index; per-step bar counts are cross-checked against GF(2) Betti numbers of
each sub-union, read off the same index restricted to the sub-union's ids by
a rank computation of their own, independent of the column reduction.

The truncation checker likewise decides each sub-union on its ids, and
builds none.  It walks the index sets along the sub-union lattice, in the
order they are enumerated: K_J is K_{J-j} plus what member j adds, and
collapses compose, so K_J passes when its added simplices collapse away
onto any K_{J-j} already shown to collapse to isolated vertices.  Each such
predecessor is tried in turn, the largest first, by a relative pass that
stops when no added simplex of positive dimension is left, not on an Euler
count.  When every one gets stuck, the full pass runs on all of K_J's ids,
and when that gets stuck too, their homology decides.  The work is paid
once per distinct sub-union, not once per index set.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from . import collapse as clp
from .complexes import SimplexIndex
from .covers import (
    COMPLEX, Cover, CoverClassification, _all_index_sets, _nerve_table, classify_cover, nerve,
)
from .errors import InvalidCover, InvariantViolation, MalformedSpec, NotAChain, _distinct
from .homology import _betti_gf2, _homology, homology_equal, reduced_homology
from .posets import _ids


@dataclass(frozen=True)
class PersistenceDiagram:
    """Bars per degree over a chain of index sets.

    A bar is (birth step, death step or None); steps are 1-based positions in
    the filtration chain.  Zero-length bars are dropped.
    """

    chain: tuple[tuple[str, ...], ...]
    bars: tuple[tuple[int, tuple[tuple[int, int | None], ...]], ...]

    def bars_in_degree(self, k: int) -> list[tuple[int, int | None]]:
        for deg, bs in self.bars:
            if deg == k:
                return list(bs)
        return []

    def to_json_lines(self) -> str:
        lines = []
        for deg, bs in self.bars:
            for birth, death in bs:
                lines.append(json.dumps({"degree": deg, "birth": birth, "death": death}))
        return "\n".join(lines)


def persistence_over_chain(cover: Cover, chain) -> PersistenceDiagram:
    """Boundary-matrix column reduction over GF(2) on the sub-union filtration.

    The reduction runs on the parent's simplex index: a simplex enters at the
    first step whose sub-union holds it, and the filtration orders simplices
    by (step, id).  An index set that is empty or repeats a member raises
    MalformedSpec.
    """
    if cover.kind != COMPLEX:
        raise InvalidCover("persistence needs a cover of a simplicial complex")
    chain = [tuple(sorted(J)) for J in chain]
    for k, J in enumerate(chain, start=1):
        if not J:
            raise MalformedSpec(f"empty index set at step {k}")
        _distinct(J, f"the index set at step {k}")
    # an unknown name raises before the order is checked
    masks = [cover._union_mask(J) for J in chain]
    for a, b in zip(chain, chain[1:]):
        if not set(a) < set(b):
            raise NotAChain(f"{a} is not strictly contained in {b}")
    # the ids of each step's sub-union, ascending
    steps = [_ids(mask) for mask in masks]
    index = cover.parent.index()
    appearance: dict[int, int] = {}
    for t, ids in enumerate(steps, start=1):
        for i in ids:
            appearance.setdefault(i, t)
    # each step adds its new ids in ascending order, so insertion order is (step, id)
    order = list(appearance)
    position = {i: p for p, i in enumerate(order)}
    # columns as bitmasks of filtration positions
    columns = [sum(1 << position[f] for f in index.faces[i]) for i in order]
    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
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
    birth_of = list(appearance.values())
    degree_of = [len(index.simplices[i]) - 1 for i in order]
    by_degree: dict[int, list[tuple[int, int | None]]] = {}
    for i, j in pairs:
        if birth_of[j] > birth_of[i]:
            by_degree.setdefault(degree_of[i], []).append((birth_of[i], birth_of[j]))
    for i in range(len(order)):
        if i not in paired:
            by_degree.setdefault(degree_of[i], []).append((birth_of[i], None))
    diagram = PersistenceDiagram(
        tuple(chain),
        tuple(
            (deg, tuple(sorted(bs, key=lambda b: (b[0], b[1] is None, b[1]))))
            for deg, bs in sorted(by_degree.items())
        ),
    )
    _check_against_betti(diagram, index, steps)
    return diagram


def _check_against_betti(
    diagram: PersistenceDiagram, index: SimplexIndex, steps: Sequence[Sequence[int]]
) -> None:
    """Raise InvariantViolation unless the bars alive at each step count the
    GF(2) Betti numbers of that step's sub-union, given by its simplex ids
    on the index.

    The counts of bars alive at each step are carried along the chain: per
    degree, a bar adds one at its birth, a step from 1 on, and takes one
    away at its death, or at its birth if it dies no later.
    """
    change: dict[int, Counter] = {}
    for k, bars in diagram.bars:
        delta = change[k] = Counter()
        for birth, death in bars:
            delta[birth] += 1
            if death is not None:
                delta[max(birth, death)] -= 1
    alive = dict.fromkeys(change, 0)
    for t, ids in enumerate(steps, start=1):
        for k, delta in change.items():
            alive[k] += delta[t]
        if not ids:
            continue
        betti = _betti_gf2(index, ids)
        for k, b in enumerate(betti):
            # reduced convention: one essential component bar
            count = alive.get(k, 0) - (k == 0)
            if count != b:
                raise InvariantViolation(
                    f"bar count {count} disagrees with betti_{k}={b} at step {t}"
                )


def check_truncation_theorem(
    cover: Cover,
    max_enum: int = 12,
    sample_size: int = 64,
    seed: int = 0,
    classification: CoverClassification | None = None,
) -> dict:
    """Both parts of the persistent-homology truncation statement.

    Part 1: H_k of the nerve equals H_k of the parent in all degrees (betti
    and torsion).  Part 2: every sub-union K_J is acyclic in positive
    degrees; a K_J that collapses to isolated vertices passes without a
    homology computation.  Index sets are enumerated exhaustively up to
    ``max_enum`` members; beyond that, nerve facets plus a seeded random
    sample, up to ``sample_size`` sets or all 2^n - 1 of them when there
    are fewer, with the cap recorded in the report.
    """
    if cover.kind != COMPLEX:
        raise InvalidCover("the truncation checker needs a cover of a complex")
    names = sorted(cover.names())
    cls = classification or classify_cover(cover)
    N = nerve(cover)
    part1 = homology_equal(reduced_homology(cover.parent), reduced_homology(N))
    if len(names) <= max_enum:
        subsets = list(_all_index_sets(names))
        enumeration = "exhaustive"
    else:
        rng = random.Random(seed)
        subsets = {tuple(sorted(f)) for f in N.facets}
        while len(subsets) < min(sample_size, 2 ** len(names) - 1):
            k = rng.randint(1, len(names))
            subsets.add(tuple(sorted(rng.sample(names, k))))
        subsets = sorted(subsets)
        enumeration = f"sampled (cap {max_enum} exceeded, seed {seed})"
    failures = _positive_degree_failures(cover, subsets)
    part2 = not failures
    has_empty = tuple(names) not in _nerve_table(cover)
    report = {
        "part1_nerve_homology_match": part1,
        "part2_subunions_acyclic": part2,
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


def _positive_degree_failures(cover: Cover, subsets) -> list[dict]:
    """Sub-unions K_J with homology in a positive degree, with that homology.

    The index sets are walked in their given order; an index set's mask of
    members, the OR of their bits, keys a table of the union masks met so
    far, and the union of J is the union of J minus its last member, taken
    from the table, OR that member's mask (OR over all members when that
    set did not come before, as can happen in the sampled mode).
    Sub-unions are told apart by their union masks, and only a union not
    met before costs more than those lookups: each distinct one is decided
    once, on the parent's simplex index restricted to its ids.  No
    sub-union is built.

    A K_J that collapses to isolated vertices is acyclic in positive
    degrees.  Collapses compose, so K_J passes when it collapses onto any
    sub-union K_{J-j} already shown to collapse to vertices: a relative
    pass runs only on the ids K_J adds, with K_{J-j}'s simplices kept.
    Every such predecessor is tried in turn, the largest first (the empty
    one for a first member), until one pass succeeds.  The pass stops when
    no added simplex of positive dimension is left, never on an Euler
    count, which can balance on a sphere.  When every relative pass gets
    stuck, or no predecessor has collapsed, the full pass runs on all the
    ids of K_J, and when that gets stuck too, the homology of those ids
    decides.  The verdict does not depend on the route: a union fails
    exactly when it has homology in a positive degree.

    The deterministic pass is a function of its ids alone, and different
    sub-unions often hand it the same ids (what K_J adds to K_{J-j} can be
    what another union adds to its predecessor), so each id mask is passed
    once per call and its outcome kept, for the relative and the full pass
    alike.
    """
    index = cover.parent.index()
    names = cover.names()
    bit = {n: 1 << k for k, n in enumerate(names)}
    member = dict(zip(bit.values(), cover._member_masks(names)))  # member bit -> mask
    union_of = {0: 0}  # index set as a mask of member bits -> union mask
    collapsed = {0}  # union masks shown to collapse to isolated vertices
    passed: dict[int, bool] = {}  # id mask -> whether the pass on its ids succeeded
    failure_of: dict[int, dict | None] = {}
    failures = []
    for J in subsets:
        key = 0
        for n in J:
            key |= bit[n]
        last = bit[J[-1]]
        rest = union_of.get(key ^ last)
        union = cover._union_mask(J) if rest is None else rest | member[last]
        union_of[key] = union
        if union not in failure_of:
            failure_of[union] = None
            # the collapsed unions of J minus one member, largest first
            bases = [u for n in J if (u := union_of.get(key ^ bit[n])) in collapsed]
            bases.sort(key=int.bit_count, reverse=True)
            # what K_J adds to each of them, then all of K_J
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

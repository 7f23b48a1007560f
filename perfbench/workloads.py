"""Seeded workloads: plain-data inputs, the timed operations, and their checks.

Every input is plain data (facet lists, element and relation lists, cover
documents) made from the seed by the builders below.  They use only the
standard library, so no finspace code runs while inputs are generated; in
particular ``finspace.generators`` is never used, because it classifies every
cover it generates.  An operation ("op") turns one input into finspace
objects with the public constructors and runs the public API on them, so
object construction stays inside the timed region.

Each workload is a fixed round of input classes.  A run repeats whole rounds,
so the share of each class is the same at any speed.  The class counts place
the median and the 90th percentile inside one class of similar cost each (see
the comments in the class lists below).  The expected answers come from
oracles written here (chain and face enumeration, GF(2) ranks on bitmasks),
not from finspace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable


@dataclass(frozen=True)
class Instance:
    cls: str  # input class, e.g. "poset20k3"
    kind: str  # op kind, a key of OPS
    data: tuple


@dataclass(frozen=True)
class InputClass:
    name: str
    kind: str
    count: int  # instances per round
    build: Callable[[random.Random], tuple]
    fixed: bool = False  # the same instance in every round and for every seed


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[InputClass, ...]
    pool_rounds: int  # distinct rounds generated; longer runs cycle through them
    trace_rounds: int  # fixed work of the traced run, so its counts repeat
    warmup: tuple[tuple[str, Callable[[], tuple]], ...]  # (op kind, tiny input)

    def round_size(self) -> int:
        return sum(c.count for c in self.classes)

    def make_pool(self, seed: int) -> list[list[Instance]]:
        """``pool_rounds`` rounds, each shuffled; a pure function of the seed."""
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        fixed = {c.name: c.build(rng) for c in self.classes if c.fixed}
        rounds = []
        for _ in range(self.pool_rounds):
            one = []
            for c in self.classes:
                for _ in range(c.count):
                    data = fixed[c.name] if c.fixed else c.build(rng)
                    one.append(Instance(c.name, c.kind, data))
            rng.shuffle(one)
            rounds.append(one)
        return rounds


# ---------------------------------------------------------------------------
# plain-data builders
# ---------------------------------------------------------------------------


def graded_poset(rng, widths, k, prefix):
    """(elements, relations, levels): each point above the bottom level is
    related to ``k`` random points of the level just below it."""
    levels = [[f"{prefix}{i}{chr(97 + j)}" for j in range(w)] for i, w in enumerate(widths)]
    relations = [
        (y, x)
        for lo, hi in zip(levels, levels[1:])
        for x in hi
        for y in sorted(rng.sample(lo, min(k, len(lo))))
    ]
    return [x for level in levels for x in level], relations, levels


def boundary_facets(n, prefix="v"):
    """Facets of the boundary of the n-simplex."""
    return [list(f) for f in combinations([f"{prefix}{i}" for i in range(n + 1)], n)]


def subdivision_facets(facets):
    """Facets of the barycentric subdivision: the full flags of each facet."""
    out = []
    for f in facets:
        for perm in permutations(sorted(f)):
            out.append(["|".join(sorted(perm[: i + 1])) for i in range(len(perm))])
    return out


PROJECTIVE_PLANE = [
    [f"p{v}" for v in f]
    for f in (
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    )
]


def random_pure_base(rng, vertices, facets, dim):
    """``facets`` distinct random dim-simplices over a pool of ``vertices``."""
    pool = [f"b{i:02d}" for i in range(vertices)]
    return [list(c) for c in rng.sample(list(combinations(pool, dim + 1)), facets)]


def face_poset_data(facets):
    """(elements, relations) of the face poset: codimension-one face pairs."""
    ids = {s: "|".join(s) for s in faces(facets)}
    relations = [
        (ids[t], ids[s]) for s in ids if len(s) > 1 for t in combinations(s, len(s) - 1)
    ]
    return sorted(ids.values()), sorted(relations)


def composite_data(rng, x_widths, z_widths):
    """A relation pair whose composite satisfies the left collapse hypothesis.

    R1 is the identity on X and R2 relates x to z when x <= g(z), where g maps
    each z by height onto a random maximal chain of X; the open hull of the
    composite preimage of U_z is then U_{g(z)}, which has a maximum.
    """
    xe, xr, _ = graded_poset(rng, x_widths, 2, "x")
    ze, zr, z_levels = graded_poset(rng, z_widths, 2, "z")
    below = _strict_below(xe, xr)
    above = {x: sorted(b for a, b in xr if a == x) for x in xe}
    chain = [rng.choice(sorted(x for x in xe if not below[x]))]
    while above[chain[-1]]:
        chain.append(rng.choice(above[chain[-1]]))
    height = {z: i for i, level in enumerate(z_levels) for z in level}
    g = {z: chain[min(height[z], len(chain) - 1)] for z in ze}
    pairs = sorted((x, z) for z in ze for x in below[g[z]] | {g[z]})
    return xe, xr, ze, zr, pairs


def cone_cover_data(rng, members, pool=6, base_edges=3):
    """Members are cones with the shared apex "a" over random edges of a pool."""
    names = [f"b{i}" for i in range(pool)]
    return tuple(
        (f"U{i + 1}", [rng.sample(names, 2) + ["a"] for _ in range(base_edges)])
        for i in range(members)
    )


def arc_cover_data(rng, vertices, arcs):
    """A hollow polygon covered by ``arcs`` arcs; neighbours share one vertex."""
    verts = [f"q{i:02d}" for i in range(vertices)]
    cuts = sorted(rng.sample(range(vertices), arcs))
    members = []
    for i in range(arcs):
        a, b = cuts[i], cuts[(i + 1) % arcs]
        span = (b - a) % vertices
        path = [verts[(a + t) % vertices] for t in range(span + 1)]
        members.append((f"A{i + 1:02d}", [list(e) for e in zip(path, path[1:])]))
    return tuple(members)


def star_cover_data(facets):
    """Closed vertex stars of a complex, one member per vertex."""
    verts = sorted({v for f in facets for v in f})
    return tuple(
        (f"S{i:02d}", [f for f in facets if v in f]) for i, v in enumerate(verts)
    )


# ---------------------------------------------------------------------------
# timed operations; ``fs`` is the finspace package, looked up at call time
# ---------------------------------------------------------------------------


def op_poset_homology(fs, data):
    elements, relations = data
    return fs.homology_of_poset(fs.build_poset(elements, relations))


def op_complex_homology(fs, data):
    (facets,) = data
    return fs.reduced_homology(fs.SimplicialComplex(facets))


def op_cone_collapse(fs, data):
    (base,) = data
    K = fs.cone("a", fs.SimplicialComplex(base))
    res = fs.greedy_collapse_complex(K)
    return res, res.is_yes() and fs.replay_complex_certificate(K, res.certificate)


def op_space_collapse(fs, data):
    elements, relations = data
    X = fs.build_poset(elements, relations)
    res = fs.greedy_collapse_space(X)
    return res, res.is_yes() and fs.replay_space_certificate(X, res.certificate)


def op_cylinder_collapse(fs, data):
    xe, xr, ze, zr, pairs = data
    X = fs.build_poset(xe, xr)
    Z = fs.build_poset(ze, zr)
    R1 = fs.graph_relation({x: x for x in X.elements}, X, X, source_name="X", target_name="Xm")
    R2 = fs.Relation(X, Z, frozenset(pairs), source_name="X", target_name="Z")
    return fs.check_collapse_left(fs.compose_relations(R1, R2))


def _complex_cover(fs, members):
    subs = tuple((name, fs.SimplicialComplex(facets)) for name, facets in members)
    parent = fs.SimplicialComplex([f for _, facets in members for f in facets])
    return fs.Cover("complex", parent, subs)


def op_cover_pipeline(fs, data):
    (members,) = data
    cover = _complex_cover(fs, members)
    cls = fs.classify_cover(cover)
    N = fs.nerve(cover)
    report = fs.check_truncation_theorem(cover, classification=cls)
    names = sorted(cover.names())
    diagram = fs.persistence_over_chain(cover, [names[:i] for i in range(1, len(names) + 1)])
    return cls, N, report, diagram


def op_star_nerve(fs, data):
    (members,) = data
    cover = _complex_cover(fs, members)
    return fs.nerve(cover), fs.reduced_nerve(cover)


OPS = {
    "poset_homology": op_poset_homology,
    "complex_homology": op_complex_homology,
    "cone_collapse": op_cone_collapse,
    "space_collapse": op_space_collapse,
    "cylinder_collapse": op_cylinder_collapse,
    "cover_pipeline": op_cover_pipeline,
    "star_nerve": op_star_nerve,
}


# ---------------------------------------------------------------------------
# outcome summaries, taken right after each op (outside the timed region)
# ---------------------------------------------------------------------------


def _homology_summary(h):
    return tuple(h.betti), tuple(tuple(t) for t in h.torsion)


def _search_summary(out):
    res, replayed = out
    return res.verdict, bool(replayed)


def _cylinder_summary(report):
    c = report["collapse"]
    return report["hypothesis_collapsibility"], c.get("verdict"), c.get("proof_identity")


def _pipeline_summary(out):
    cls, N, report, diagram = out
    return (
        cls.good,
        cls.strong_good,
        report["part1_nerve_homology_match"],
        report["part2_subunions_acyclic"],
        sorted(tuple(f["index_set"]) for f in report["part2_failures"]),
        sorted(tuple(sorted(f)) for f in N.facets),
        diagram.bars,
    )


def _star_summary(out):
    N, rn = out
    return len(N.all_simplices()), N.euler_characteristic(), len(rn.poset)


SUMMARIES = {
    "poset_homology": _homology_summary,
    "complex_homology": _homology_summary,
    "cone_collapse": _search_summary,
    "space_collapse": _search_summary,
    "cylinder_collapse": _cylinder_summary,
    "cover_pipeline": _pipeline_summary,
    "star_nerve": _star_summary,
}


# ---------------------------------------------------------------------------
# oracles and checks
# ---------------------------------------------------------------------------


def faces(facets):
    """All non-empty faces as sorted tuples."""
    out = set()
    for f in facets:
        f = sorted(f)
        for k in range(1, len(f) + 1):
            out.update(combinations(f, k))
    return out


def _strict_below(elements, relations):
    below = {x: set() for x in elements}
    preds = {x: [] for x in elements}
    for a, b in relations:
        preds[b].append(a)

    def visit(x):
        if not below[x] and preds[x]:
            for p in preds[x]:
                below[x] |= visit(p) | {p}
        return below[x]

    for x in elements:
        visit(x)
    return below


def chains(elements, relations):
    """All non-empty chains of the poset, i.e. the simplices of its order complex."""
    below = _strict_below(elements, relations)
    out = []

    def extend(chain, candidates):
        out.append(tuple(chain))
        for y in candidates:
            extend(chain + [y], [z for z in candidates if z in below[y]])

    for x in elements:
        extend([x], sorted(below[x]))
    return out


def reduced_betti_gf2(simplices):
    """Reduced Betti numbers over GF(2), by bitmask elimination per dimension."""
    by_dim: dict[int, list[frozenset]] = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(frozenset(s))
    top = max(by_dim)
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}
    rank = [0] * (top + 2)
    for d in range(1, top + 1):
        pivots: dict[int, int] = {}
        for s in by_dim[d]:
            col = 0
            for v in s:
                col |= 1 << index[d - 1][s - {v}]
            while col:
                low = col.bit_length() - 1
                if low not in pivots:
                    pivots[low] = col
                    rank[d] += 1
                    break
                col ^= pivots[low]
    betti = [len(by_dim[d]) - rank[d] - rank[d + 1] for d in range(top + 1)]
    betti[0] -= 1
    return betti, [len(by_dim[d]) for d in range(top + 1)]


KNOWN_HOMOLOGY = {
    # class -> (reduced betti, torsion per degree)
    "sd_bd4": ((0, 0, 0, 1), ((), (), (), ())),
    "sd_rp2": ((0, 0, 0), ((), (2,), ())),
    "bd7": ((0,) * 6 + (1,), ((),) * 7),
}


def check_homology(inst, summary):
    """Euler identity, universal coefficients against GF(2), known answers."""
    betti, torsion = summary
    if inst.kind == "poset_homology":
        simplices = chains(*inst.data)
    else:
        simplices = faces(inst.data[0])
    gf2, fvec = reduced_betti_gf2(simplices)
    size = {"simplices": len(simplices), "f_vector": fvec,
            "matrix_shapes": [[fvec[d - 1], fvec[d]] for d in range(1, len(fvec))]}
    chi = sum((-1) ** d * n for d, n in enumerate(fvec))
    errors = []
    if len(betti) != len(fvec) or len(torsion) != len(fvec):
        errors.append(f"{len(betti)} degrees reported for a complex of dimension {len(fvec) - 1}")
    elif sum((-1) ** d * b for d, b in enumerate(betti)) != chi - 1:
        errors.append(f"Euler identity fails: betti {betti}, chi {chi}")
    even = [sum(1 for t in ts if t % 2 == 0) for ts in torsion] + [0]
    uct = [b + even[d] + (even[d - 1] if d else 0) for d, b in enumerate(betti)]
    if uct != gf2[: len(uct)]:
        errors.append(f"GF(2) mismatch: from integers {uct}, direct {gf2}")
    known = KNOWN_HOMOLOGY.get(inst.cls)
    if known and (tuple(betti), tuple(torsion)) != known:
        errors.append(f"expected {known}, got {(betti, torsion)}")
    return errors, size


def check_collapse(inst, summary):
    errors = []
    if inst.kind == "cylinder_collapse":
        hypothesis, verdict, identity = summary
        if (hypothesis, verdict, identity) != ("yes", "yes", True):
            errors.append(f"hypothesis {hypothesis}, collapse {verdict}, identity {identity}")
        xe, _, ze, _, pairs = inst.data
        size = {"points": len(xe) + len(ze), "pairs": len(pairs)}
    else:
        verdict, replayed = summary
        if (verdict, replayed) != ("yes", True):
            errors.append(f"verdict {verdict}, replay {replayed}")
        if inst.kind == "cone_collapse":
            size = {"simplices": 1 + 2 * len(faces(inst.data[0]))}
        else:
            size = {"points": len(inst.data[0])}
    return errors, size


def check_cover(inst, summary):
    (members,) = inst.data
    names = tuple(sorted(n for n, _ in members))
    size = {"members": len(members),
            "simplices": len(faces([f for _, facets in members for f in facets]))}
    if inst.kind == "star_nerve":
        return _check_star(members, summary), size
    good, strong, part1, part2, failures, facets, bars = summary
    errors = []
    if (good, strong, part1) != ("yes", "yes", True):
        errors.append(f"good {good}, strong-good {strong}, part 1 {part1}")
    if inst.cls.startswith("cones"):
        if not part2 or failures:
            errors.append(f"part 2 failed at {failures}")
        if facets != [names]:
            errors.append(f"nerve is not the full simplex: {facets}")
        if bars != ((0, ((1, None),)),):
            errors.append(f"cone sub-unions should only carry the H0 bar: {bars}")
    else:
        if part2 or failures != [names]:
            errors.append(f"part 2 should fail exactly at the full index set: {failures}")
        if bars != ((0, ((1, None),)), (1, ((len(names), None),))):
            errors.append(f"the circle should appear at the last step: {bars}")
    return errors, size


def _check_star(members, summary):
    """Closed vertex stars of a flag complex are full subcomplexes, so each
    intersection is determined by its vertex set."""
    verts = sorted({v for _, facets in members for f in facets for v in f})
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = [sum(bit[v] for v in {v for f in facets for v in f}) for _, facets in members]
    simplices = chi = 0
    distinct = set()
    for J in range(1, 1 << len(masks)):
        m = (1 << len(verts)) - 1
        for i, mask in enumerate(masks):
            if J >> i & 1:
                m &= mask
        if m:
            simplices += 1
            chi += 1 if bin(J).count("1") % 2 else -1
            distinct.add(m)
    expected = (simplices, chi, len(distinct))
    return [] if summary == expected else [f"star nerve: expected {expected}, got {summary}"]


CHECKS = {
    "poset_homology": check_homology,
    "complex_homology": check_homology,
    "cone_collapse": check_collapse,
    "space_collapse": check_collapse,
    "cylinder_collapse": check_collapse,
    "cover_pipeline": check_cover,
    "star_nerve": check_cover,
}


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------


def _graded(widths, k):
    return lambda rng: graded_poset(rng, widths, k, "p")[:2]


def _cone_base(vertices, facets, dim):
    return lambda rng: (random_pure_base(rng, vertices, facets, dim),)


def _cone_face_poset(vertices, edges):
    return lambda rng: face_poset_data(
        [f + ["a"] for f in random_pure_base(rng, vertices, edges, 1)]
    )


def _cones(members):
    return lambda rng: (cone_cover_data(rng, members),)


def _arcs(vertices, arcs):
    return lambda rng: (arc_cover_data(rng, vertices, arcs),)


HOMOLOGY_EXACT = Workload(
    name="homology-exact",
    classes=(
        InputClass("poset18k3", "poset_homology", 5, _graded((6, 6, 6), 3)),
        InputClass("sd_rp2", "complex_homology", 1,
                   lambda rng: (subdivision_facets(PROJECTIVE_PLANE),), fixed=True),
        InputClass("bd7", "complex_homology", 1, lambda rng: (boundary_facets(7),), fixed=True),
        # ranks 7-12 of 20: the median falls in the middle of this class
        InputClass("poset20k2", "poset_homology", 6, _graded((5, 5, 5, 5), 2)),
        InputClass("poset24k2", "poset_homology", 3, _graded((6, 6, 6, 6), 2)),
        # the heavy fifth of a round: the 90th percentile falls inside it
        InputClass("poset20k3", "poset_homology", 3, _graded((5, 5, 5, 5), 3)),
        InputClass("sd_bd4", "complex_homology", 1,
                   lambda rng: (subdivision_facets(boundary_facets(4)),), fixed=True),
    ),
    pool_rounds=24,
    trace_rounds=2,
    warmup=(
        ("poset_homology", lambda: graded_poset(random.Random(0), (2, 2), 1, "w")[:2]),
        ("complex_homology", lambda: (boundary_facets(2),)),
    ),
)

COLLAPSE_CERTIFY = Workload(
    name="collapse-certify",
    classes=(
        InputClass("cone2d_s", "cone_collapse", 2, _cone_base(8, 10, 2)),
        InputClass("cylinder", "cylinder_collapse", 4,
                   lambda rng: composite_data(rng, (4, 4, 4), (3, 3, 3))),
        InputClass("space_s", "space_collapse", 2, _cone_face_poset(6, 6)),
        # ranks 8-11 of 20: the median falls in the middle of this class
        InputClass("cone2d_m", "cone_collapse", 4, _cone_base(9, 14, 2)),
        InputClass("space_m", "space_collapse", 4, _cone_face_poset(7, 8)),
        # the heavy fifth of a round
        InputClass("cone2d_l", "cone_collapse", 2, _cone_base(10, 18, 2)),
        InputClass("cone3d", "cone_collapse", 2, _cone_base(8, 8, 3)),
    ),
    pool_rounds=48,
    trace_rounds=4,
    warmup=(
        ("cone_collapse", lambda: ([["b0", "b1"], ["b1", "b2"]],)),
        ("space_collapse", lambda: face_poset_data([["a", "b0", "b1"]])),
        ("cylinder_collapse", lambda: composite_data(random.Random(0), (2, 2), (2,))),
    ),
)

COVER_NERVE = Workload(
    name="cover-nerve",
    classes=(
        InputClass("arcs12x4", "cover_pipeline", 4, _arcs(12, 4)),
        InputClass("cones3", "cover_pipeline", 4, _cones(3)),
        InputClass("cones4", "cover_pipeline", 4, _cones(4)),
        # ranks 12-25 of 43, of similar cost: the median falls inside them
        InputClass("cones5", "cover_pipeline", 8, _cones(5)),
        InputClass("arcs16x6", "cover_pipeline", 6, _arcs(16, 6)),
        InputClass("cones6", "cover_pipeline", 4, _cones(6)),
        InputClass("cones7", "cover_pipeline", 2, _cones(7)),
        InputClass("arcs20x8", "cover_pipeline", 2, _arcs(20, 8)),
        # 8 of 43 ops just under the star cover: the 90th percentile falls among them
        InputClass("cones8", "cover_pipeline", 8, _cones(8)),
        InputClass("star_sd_bd3", "star_nerve", 1,
                   lambda rng: (star_cover_data(subdivision_facets(boundary_facets(3))),),
                   fixed=True),
    ),
    pool_rounds=8,
    trace_rounds=1,
    warmup=(
        ("cover_pipeline", lambda: (cone_cover_data(random.Random(0), 2, pool=3, base_edges=1),)),
        ("star_nerve", lambda: (star_cover_data(boundary_facets(2)),)),
    ),
)

WORKLOADS = {w.name: w for w in (HOMOLOGY_EXACT, COLLAPSE_CERTIFY, COVER_NERVE)}

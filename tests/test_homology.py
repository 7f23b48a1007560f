import math
import random

import pytest

from finspace import collapse as clp
from finspace import homology
from finspace.complexes import (
    SimplicialComplex,
    cone,
    order_complex,
    simplex_boundary,
    solid_simplex,
)
from finspace.errors import EmptyComplex, EmptySpace
from finspace.fixtures import dunce_hat, finite_circle, projective_plane
from finspace.generators import generate_complex, generate_poset
from finspace.posets import _height, _ids, _weak_reduction, antichain, build_poset, chain
from finspace.homology import (
    _coreduce,
    _homology,
    boundary_matrices,
    _poset_homology,
    homology_equal,
    homology_of_poset,
    rank_gf2,
    reduced_homology,
    smith_normal_form,
)

from helpers import (
    _dense_snf,
    betti_numbers_gf2_oracle,
    betti_numbers_oracle,
    boundary_of_boundary,
    closure_coreduce,
    dense_boundary_matrices,
    full_snf_homology,
    gf2_betti,
    graded_poset,
    homology_oracle,
    order_complex_homology,
    polygon_arc_cover,
    prepass_coreduce,
    rank_fraction_free,
    sd_boundary,
    sparse,
)


def test_snf_divisibility_golden():
    factors, rank = smith_normal_form(sparse([[2, 0], [0, 3]]))
    assert factors == [1, 6]
    assert rank == 2


def test_snf_zero_matrix():
    factors, rank = smith_normal_form(sparse([[0, 0], [0, 0]]))
    assert factors == []
    assert rank == 0


def test_snf_rank_matches_fraction_free():
    rng = random.Random("snf-rank")
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(sparse(M))[1] == rank_fraction_free(M)


def _random_matrix(rng, rows, cols, density, entry):
    """Integer matrix of random density with entries drawn by entry(rng)."""
    return [
        [entry(rng) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


# (label suffix, largest side, entry): units mixed with small non-units, and
# large entries, mostly coprime, whose elimination re-pivots through long
# Euclidean chains of remainders
FAMILIES = (
    ("", 7, lambda rng: rng.choice((1, -1, 2, -2, 3, -4, 6, 9))),
    ("-large", 10, lambda rng: rng.randint(-1000, 1000)),
)


def _random_matrices(label, count):
    for suffix, side, entry in FAMILIES:
        rng = random.Random(label + suffix)
        for _ in range(count):
            size = rng.randint(1, side), rng.randint(1, side)
            yield _random_matrix(rng, *size, rng.random(), entry)


def _boundaries(K):
    """(sparse rows, dense matrix) of each boundary of K in degrees 1..dim."""
    return list(zip(boundary_matrices(K)[1:], dense_boundary_matrices(K)[1][1:]))


def test_snf_matches_dense_on_random_matrices():
    for M in _random_matrices("snf-dense", 500):
        assert smith_normal_form(sparse(M)) == _dense_snf(M), M


def test_snf_mixed_unit_and_torsion_blocks():
    assert smith_normal_form(sparse([[1, 0, 0], [0, 2, 0], [0, 0, 3]])) == ([1, 1, 6], 3)
    assert smith_normal_form(sparse([[2, 0, 0], [0, 1, 0], [0, 0, 4]])) == ([1, 2, 4], 3)
    # a unit pivot whose elimination leaves the torsion entry 2 behind
    M = [[1, 1, 0], [1, -1, 0], [0, 0, 0]]
    assert smith_normal_form(sparse(M)) == ([1, 2], 2) == _dense_snf(M)


def test_snf_chains_only_the_diagonal_above_one(monkeypatch):
    """Unit pivots drop out uncounted, whatever their row length; only the
    diagonal entries above 1 meet in the gcd/lcm chain."""
    calls = []
    monkeypatch.setattr(homology, "gcd", lambda a, b: calls.append((a, b)) or math.gcd(a, b))
    M = [[1, 5, 7, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]
    assert smith_normal_form(sparse(M)) == ([1, 1, 1, 6], 4) == _dense_snf(M)
    assert calls == [(2, 3)]


@pytest.mark.parametrize(
    "M, expected",
    [
        ([[0]], []),
        ([[0, 0, 0]], []),
        ([[0], [0], [0]], []),
        ([[]], []),
        ([], []),
        ([[-5]], [5]),
        ([[1, 2, 3]], [1]),
        ([[4], [6], [0]], [2]),
        ([[0, -1, 0]], [1]),
    ],
)
def test_snf_degenerate_shapes(M, expected):
    assert smith_normal_form(sparse(M)) == (expected, len(expected)) == _dense_snf(M)


def test_snf_leaves_input_untouched():
    M = ((1, 2, 0), (1, -1, 3), (0, 2, 2))
    copy = [list(r) for r in M]
    for fn in (_dense_snf, rank_fraction_free):
        fn(M)
        assert [list(r) for r in M] == copy
    rows = sparse(M)
    smith_normal_form(rows)
    assert rows == sparse(copy)
    masks = [0b11, 0b11, 0b10]
    rank_gf2(masks)
    assert masks == [0b11, 0b11, 0b10]


def test_snf_ignores_stored_zeros():
    assert smith_normal_form([{0: 1, 1: 0}, {1: 2, 2: 0}]) == ([1, 2], 2)
    # the pivot row's stored zero lands in a row without that column
    assert smith_normal_form([{0: 1, 1: 0}, {0: 1, 2: 3}]) == ([1, 3], 2)


def test_snf_matches_dense_on_boundary_matrices():
    """The sparse rows are the transposed boundary: same invariant factors."""
    complexes = [generate_complex(seed) for seed in range(30)]
    complexes += [order_complex(generate_poset(seed, 9)) for seed in range(6)]
    complexes += [projective_plane(), dunce_hat()]
    for K in complexes:
        for rows, M in _boundaries(K):
            assert smith_normal_form(rows) == _dense_snf(M)


def test_boundary_rows_are_the_transposed_dense_boundary():
    for K in [generate_complex(seed) for seed in range(20)] + [projective_plane()]:
        for rows, M in _boundaries(K):
            assert rows == sparse(zip(*M))


def test_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def factors(M):
        return [abs(f) for f in invariant_factors(sympy.Matrix(M), domain=sympy.ZZ) if f]

    for M in _random_matrices("snf-sympy", 150):
        assert smith_normal_form(sparse(M))[0] == factors(M), M
    for K in (projective_plane(), generate_complex(3)):
        for rows, M in _boundaries(K):
            assert smith_normal_form(rows)[0] == factors(M)


def test_rank_gf2_basics():
    assert rank_gf2([0b01, 0b10]) == 2
    assert rank_gf2([0b11, 0b11]) == 1
    assert rank_gf2([0b110, 0b011, 0b101]) == 2
    assert rank_gf2([0, 0]) == 0
    assert rank_gf2([]) == 0


def test_boundary_squares_to_zero():
    for seed in range(40):
        rows = boundary_matrices(generate_complex(seed))
        for d in range(2, len(rows)):
            assert not any(boundary_of_boundary(rows[d], rows[d - 1]))


def test_sphere_homology():
    for n in (1, 2, 3):
        hom = reduced_homology(simplex_boundary(n + 1))
        expected = [0] * (n + 1)
        expected[n] = 1
        assert list(hom.betti[: n + 1]) == expected
        assert all(not t for t in hom.torsion)


def test_solid_simplex_is_acyclic():
    hom = reduced_homology(solid_simplex(["a", "b", "c", "d"]))
    assert hom.is_trivial()


def test_disjoint_points_reduced_betti0():
    hom = reduced_homology(SimplicialComplex([["a"], ["b"], ["c"]]))
    assert hom.betti[0] == 2
    assert hom.unreduced_betti0() == 3


def test_projective_plane_torsion():
    hom = reduced_homology(projective_plane())
    assert tuple(hom.betti) == (0, 0, 0)
    assert list(hom.torsion[1]) == [2]
    assert not hom.torsion[0] and not hom.torsion[2]


def test_dunce_hat_acyclic():
    assert reduced_homology(dunce_hat()).is_trivial()


def test_subdivided_five_sphere():
    """sd of the boundary of the 5-simplex: 4,682 simplices, H~_4 = Z."""
    K = sd_boundary(5)
    assert K.num_simplices() == 4682
    hom = reduced_homology(K)
    assert hom.betti == (0, 0, 0, 0, 1)
    assert not any(hom.torsion)


def _homology_families():
    yield from (generate_complex(seed) for seed in range(60))
    yield from (order_complex(generate_poset(seed, 3 + seed % 7)) for seed in range(20))
    yield projective_plane()
    yield dunce_hat()


def test_homology_matches_dense_oracle():
    for K in _homology_families():
        assert reduced_homology(K) == homology_oracle(K)
        assert gf2_betti(K) == betti_numbers_gf2_oracle(K)
    assert homology_oracle(projective_plane()).torsion[1] == (2,)


def _disjoint_union(parts):
    """The disjoint union of complexes, their vertices renamed apart."""
    return SimplicialComplex(
        [f"{i}.{v}" for v in f] for i, K in enumerate(parts) for f in K.facets
    )


def _disjoint_unions():
    """RP^2 next to isolated vertices and seeded complexes, in shuffled order."""
    rng = random.Random("disjoint-unions")
    point = SimplicialComplex([["p"]])
    for n in range(12):
        parts = [projective_plane()] + [point] * (n % 3)
        parts += [generate_complex(rng.randrange(1000)) for _ in range(1 + n % 3)]
        rng.shuffle(parts)
        yield _disjoint_union(parts)


def _suspension(K, level=0):
    """Two cones over K, their apexes named apart by level."""
    return SimplicialComplex([*cone(f"n{level}", K).facets, *cone(f"s{level}", K).facets])


def _coreduction_families():
    yield from _homology_families()
    yield from _disjoint_unions()
    # torsion one and two degrees up, alone and next to RP^2
    yield _suspension(projective_plane())
    yield _suspension(_suspension(projective_plane()), 1)
    yield _disjoint_union([projective_plane(), _suspension(projective_plane())])
    yield from (simplex_boundary(n) for n in range(1, 8))
    yield sd_boundary(4)
    yield order_complex(projective_plane().face_poset())
    yield from (order_complex(generate_poset(seed, 4 + seed % 9)) for seed in range(30))


def test_coreduced_homology_matches_both_oracles():
    results = []
    for K in _coreduction_families():
        hom = reduced_homology(K)
        assert hom == full_snf_homology(K) == homology_oracle(K), K
        results.append(hom)
    # torsion in degrees 1 to 3, and next to further components
    assert {d for h in results for d, t in enumerate(h.torsion) if t} == {1, 2, 3}
    assert sum(1 for h in results if any(h.torsion) and h.betti[0]) == 13
    assert sum(1 for h in results if h.betti[0]) == 49


def test_one_scan_coreduction_matches_the_prepass_oracle():
    """The cells left and the components counted equal the pre-pass
    coreduction's on the coreduction families (the homology families among
    them) and on seeded complexes, many of them disconnected."""
    disconnected = 0
    seeded = (generate_complex(seed) for seed in range(60, 400))
    for K in [*_coreduction_families(), *seeded]:
        index = K.index()
        ids = range(len(index.simplices))
        left, extra = _coreduce(index, ids)
        assert (left, extra) == prepass_coreduce(index, ids)
        disconnected += extra > 0
    assert disconnected >= 80


def test_inline_drain_matches_the_closure_oracle():
    """The cells left and the components counted equal those of the drain
    with a call per removed simplex, on the homology families' whole
    indexes and on seeded face-closed subsets of their ids."""
    partial = 0
    for n, K in enumerate(_homology_families()):
        index = K.index()
        whole = range(len(index.simplices))
        assert _coreduce(index, whole) == closure_coreduce(index, whole)
        rng = random.Random(f"coreduce:{n}")
        facets = sorted(sorted(f) for f in K.facets)
        for _ in range(3):
            ids = _ids(index.down_closure(rng.sample(facets, rng.randint(1, len(facets)))))
            assert _coreduce(index, ids) == closure_coreduce(index, ids)
            partial += len(ids) < len(whole)
    assert partial >= 100  # of 246 subsets, the rest all of K


def test_coreduction_leaves_one_cell_of_the_subdivided_six_sphere():
    # a last-in first-out queue leaves 22,053 of the 47,292 simplices
    index = sd_boundary(6).index()
    ids, extra = _coreduce(index, range(len(index.simplices)))
    assert len(index.simplices) == 47292
    assert (len(ids), extra) == (1, 0)
    assert len(index.simplices[ids[0]]) == 6  # the class of H~5


def test_coreduction_counts_the_components_beyond_the_first():
    point = SimplicialComplex([["p"]])
    K = _disjoint_union([point, projective_plane(), point, point])
    assert _coreduce(K.index(), range(K.num_simplices()))[1] == 3
    for K in [*_disjoint_unions(), *_homology_families()]:
        extra = _coreduce(K.index(), range(K.num_simplices()))[1]
        assert extra == homology_oracle(K).unreduced_betti0() - 1


def test_betti_oracles_agree():
    for seed in range(60):
        K = generate_complex(seed)
        snf = reduced_homology(K)
        oracle = betti_numbers_oracle(K)
        assert list(snf.betti) == list(oracle)


def test_gf2_betti_without_torsion_matches_rational():
    for seed in range(40):
        K = generate_complex(seed)
        hom = reduced_homology(K)
        if any(t for t in hom.torsion):
            continue
        assert list(hom.betti) == list(gf2_betti(K))


def test_gf2_betti_sees_torsion():
    # over the binary field RP^2 looks like it has homology in degrees 1 and 2
    assert gf2_betti(projective_plane()) == [0, 1, 1]


def test_homology_equal():
    a = reduced_homology(simplex_boundary(2))
    b = reduced_homology(simplex_boundary(2, prefix="w"))
    assert homology_equal(a, b)
    assert not homology_equal(a, reduced_homology(solid_simplex(["a", "b"])))


def test_empty_complex_raises():
    with pytest.raises(EmptyComplex):
        reduced_homology(SimplicialComplex([]))


def _subcomplexes():
    """(parent, subcomplex) pairs: seeded facet subsets and skeletons of
    random complexes, disconnected arc sub-unions, RP^2 next to a triangle, the dunce hat and
    one of its triangles, and a single vertex."""
    for seed in range(40):
        K = generate_complex(seed)
        rng = random.Random(f"subcomplex:{seed}")
        facets = sorted(sorted(f) for f in K.facets)
        yield K, SimplicialComplex(rng.sample(facets, rng.randint(1, len(facets))))
        if K.dim() > 0:
            yield K, SimplicialComplex(K.all_simplices(K.dim() - 1))  # a skeleton
    arcs = polygon_arc_cover(12, [0, 3, 6, 9])
    for J in (["A0", "A2"], ["A1", "A3"], ["A0", "A1", "A2"], ["A0", "A1", "A2", "A3"]):
        yield arcs.parent, arcs.subunion(J)
    P = _disjoint_union([projective_plane(), solid_simplex(["a", "b", "c"])])
    rp2 = SimplicialComplex(f for f in P.facets if not any(v.startswith("1.") for v in f))
    yield from ((P, P), (P, rp2), (P, solid_simplex(["1.a", "1.b", "1.c"])))
    D = dunce_hat()
    yield from ((D, D), (D, SimplicialComplex([min(sorted(f) for f in D.facets)])))
    yield D, SimplicialComplex([[min(D.vertices)]])


def test_homology_of_ids_matches_the_built_subcomplex():
    """The homology of a subcomplex's ids in its parent's index is that of
    the subcomplex built as a complex of its own."""
    results, lower = [], 0
    for parent, sub in _subcomplexes():
        index = parent.index()
        ids = sorted(index.id_of[s] for s in sub.all_simplices())
        hom = _homology(index, ids)
        assert hom == reduced_homology(sub) == full_snf_homology(sub), sorted(sub.facets)
        results.append(hom)
        lower += sub.dim() < parent.dim()
    assert sum(1 for h in results if h.betti[0]) >= 3  # disconnected ones
    assert sum(1 for h in results if h.torsion[1:2] == ((2,),)) == 2  # RP^2, alone or not
    assert lower >= 40  # read in the subcomplex's own dimensions
    with pytest.raises(EmptyComplex):
        _homology(dunce_hat().index(), [])


def _posets():
    """Seeded posets, graded posets with k = 2 and 3 covers below each
    point, face posets (RP^2 with its Z/2, the dunce hat, sd of simplex
    boundaries), the finite circle, antichains, chains and a point; each
    with its opposite."""
    out = [generate_poset(seed, 3 + seed % 14) for seed in range(300)]
    rng = random.Random("graded")
    for widths, k in (((6, 6, 6), 3), ((5, 5, 5, 5), 2), ((6, 6, 6, 6), 2), ((5, 5, 5, 5), 3)):
        out += [graded_poset(rng, widths, k) for _ in range(12)]
    for K in (projective_plane(), dunce_hat(), sd_boundary(2), sd_boundary(3), simplex_boundary(4)):
        out.append(K.face_poset())
    out.append(finite_circle())
    for n in (1, 2, 3, 5):
        out += [antichain([f"a{i}" for i in range(n)]), chain([f"c{i}" for i in range(n)])]
    return out + [X.opposite() for X in out]


def test_poset_homology_matches_the_whole_order_complex():
    """Homology after weak-point removal is the homology of K(X), degree
    count, betti and torsion alike."""
    torsion = shrunk = 0
    for X in _posets():
        hom = homology_of_poset(X)
        assert hom == order_complex_homology(X), (X.elements, sorted(X.hasse))
        assert len(hom.betti) == len(hom.torsion) == X.height() + 1
        torsion += any(hom.torsion)
        shrunk += _weak_reduction(X, (1 << len(X)) - 1).bit_count() < len(X)
    assert torsion == 2  # the face poset of RP^2 and its opposite
    assert shrunk >= 400


def test_subspace_homology_matches_the_built_subposet():
    """The masked routine, in the subspace's own degrees, against K of the
    subposet built as a poset of its own."""
    rng = random.Random("subspace")
    for X in _posets()[::3]:
        for _ in range(4):
            mask = rng.getrandbits(len(X)) or 1
            sub = X.restrict(X._members(mask))
            assert _poset_homology(X, mask, _height(X, mask) + 1) == order_complex_homology(sub)
    with pytest.raises(EmptySpace):
        _poset_homology(finite_circle(), 0, 1)
    with pytest.raises(EmptySpace):
        homology_of_poset(antichain([]))


def test_weak_reduction_leaves_no_weak_point():
    for X in _posets():
        whole = (1 << len(X)) - 1
        left = _weak_reduction(X, whole)
        assert left and left & whole == left
        if left.bit_count() > 1:
            for i in range(len(X)):
                if left >> i & 1:
                    assert not any(clp.removable(X, left, i, k) for k in clp.WEAK_KINDS)


def test_a_contractible_space_reports_a_zero_degree_per_chain_length():
    """A space with a maximum (so contractible) of height h reports h + 1
    degrees, all trivial, though weak-point removal leaves one point."""
    for seed in range(60):
        X = generate_poset(seed, 2 + seed % 12)
        top = build_poset(X.elements + ("top",), [(x, "top") for x in X.elements] + list(X.hasse))
        h = top.height()
        assert homology_of_poset(top) == homology.HomologyResult((0,) * (h + 1), ((),) * (h + 1))
        assert _weak_reduction(top, (1 << len(top)) - 1).bit_count() == 1
    assert homology_of_poset(chain(["a", "b", "c"])).betti == (0, 0, 0)


def test_homology_result_prints_its_non_zero_degrees():
    assert str(reduced_homology(projective_plane())) == "H~1 = Z^0 + Z/2"
    assert str(reduced_homology(solid_simplex(["a", "b", "c"]))) == "trivial"
    assert str(homology.HomologyResult((1, 2), ((), (3,)))) == "H~0 = Z^1; H~1 = Z^2 + Z/3"
    # every result is reduced, and says so in its summary
    assert reduced_homology(projective_plane()).summary()["reduced"] is True

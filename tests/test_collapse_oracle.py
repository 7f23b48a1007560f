"""The collapse engine against the rebuild-based engine it replaced.

The library searches and replays complexes on a simplex index and spaces on
a shrinking set of points; ``helpers`` keeps the old engine, which rescans
and rebuilds at every step.  On seeded families both must give equal
verdicts, certificates and free-face lists, and their replays must accept
and reject the same certificates.  The free-face loop on ids is also checked
step for step against the engines it replaced (a state with methods, its
parent-array pass stopped on a simplex count, and the truncation checker's
pass in dicts and a heap), and searches must build a certificate only for
the schedule that succeeds.  The truncation checker's passes along the
sub-union lattice are checked against one full pass per sub-union, stopped
at the Euler characteristic.
"""

import random
from collections import Counter
from itertools import combinations, product

import pytest

from finspace import collapse as clp
from finspace import persistence, posets
from finspace.collapse import (
    BEAT_KINDS,
    WEAK_KINDS,
    CollapseCertificate,
    FreeFacePair,
    PointRemoval,
    beat_points,
    core,
    free_faces,
    greedy_collapse_complex,
    greedy_collapse_space,
    is_contractible_space,
    replay_complex_certificate,
    replay_space_certificate,
)
from finspace.complexes import SimplicialComplex, cone, order_complex, simplex_boundary
from finspace.covers import _all_index_sets, _nerve_table, classify_cover
from finspace.cylinders import (
    _execute_target_removal,
    _hypothesis_masks,
    _side,
    compose_relations,
    relation_cylinder,
    tag,
)
from finspace.errors import EmptyObject, TargetNotInduced
from finspace.fixtures import dunce_hat, finite_circle, projective_plane, two_triangles
from finspace.generators import (
    generate_complex,
    generate_composite_instance,
    generate_poset,
)
from finspace.homology import _coreduce
from finspace.persistence import check_truncation_theorem
from finspace.posets import FinitePoset, _ids

import helpers
from helpers import (
    brute_contractible,
    chi_collapses_to_vertices,
    counting_contraction,
    counting_one_extreme,
    counting_removable,
    dict_heap_collapses_onto,
    dirty_scan_peel,
    eager_certificate,
    eager_free_face_search,
    facet_scan_target_ids,
    gamma_points,
    listed_collapse_run,
    nerve_relation,
    parent_array_collapse_run,
    per_union_positive_degree_failures,
    prepass_coreduce,
    rescan_peel,
    sd_boundary,
    seeded_cone_cover,
    set_walk_down_closure,
    shrinking_collapse_run,
    shrinking_free_faces,
    shrinking_replay_complex,
    slow_collapse_run,
    slow_core,
    slow_execute_target_removal,
    slow_free_faces,
    slow_greedy_collapse_complex,
    slow_greedy_collapse_space,
    slow_points,
    slow_replay_complex,
    slow_replay_space,
    staged_union_collapse,
    star_cover,
    subunion_covers,
    verdict_contractible,
    verdict_weak_reduction,
    weak_points,
)


def _plain(res):
    witness = res.witness.summary() if res.witness is not None else None
    return res.verdict, res.note, witness, res.certificate


def _complexes():
    """(seed, K, cone over K) for seeded random complexes."""
    for seed in range(30):
        K = generate_complex(seed, max_vertices=6, max_facets=6, max_card=3)
        yield seed, K, cone("apex", K)


def _posets():
    for seed in range(30):
        yield generate_poset(seed, 6 + seed % 4)


def _cylinder_relations():
    for seed in range(10):
        R1, R2 = generate_composite_instance(seed)
        yield from (R1, R2, compose_relations(R1, R2))


def _sd_boundary(n: int) -> SimplicialComplex:
    """Barycentric subdivision of the boundary of the n-simplex."""
    return order_complex(simplex_boundary(n).face_poset())


def test_free_faces_match_oracle():
    fixed = [dunce_hat(), projective_plane(), two_triangles(), cone("z", dunce_hat())]
    for L in fixed + [L for _, K, C in _complexes() for L in (K, C)]:
        assert free_faces(L) == slow_free_faces(L)


def test_greedy_complex_matches_oracle():
    for seed, K, C in _complexes():
        for L in (K, C):
            assert _plain(greedy_collapse_complex(L, restarts=2, seed=seed)) == _plain(
                slow_greedy_collapse_complex(L, restarts=2, seed=seed)
            )
        # a targeted collapse: the cone onto its base
        assert _plain(greedy_collapse_complex(C, target=K)) == _plain(
            slow_greedy_collapse_complex(C, target=K)
        )
    for L in (dunce_hat(), projective_plane()):
        assert _plain(greedy_collapse_complex(L, restarts=3, seed=5)) == _plain(
            slow_greedy_collapse_complex(L, restarts=3, seed=5)
        )


def test_random_schedules_match_oracle():
    """Restart passes draw from the free list; equal draws need equal lists."""
    for seed, K, C in list(_complexes())[:12] + [(99, dunce_hat(), cone("z", dunce_hat()))]:
        index = C.index()
        base = frozenset(index.id_of[s] for s in K.all_simplices())
        outside = [i for i in range(len(index.simplices)) if i not in base]
        for r in range(3):
            for ids, end, target in ((range(len(index.simplices)), 1, None), (outside, 0, K)):
                pairs = clp._collapse_run(index, ids, random.Random(f"{seed}:{r}"))
                ours = _accepted(index, pairs, len(ids), end)
                theirs = slow_collapse_run(C, target, random.Random(f"{seed}:{r}"))
                assert ours == theirs


def _accepted(index, pairs, size, end):
    """The certificate of a pass over size ids when it leaves end of them,
    as a search accepts it; else None."""
    if pairs is None or size - 2 * len(pairs) != end:
        return None
    return eager_certificate(index, pairs)


def test_subunion_passes_match_the_method_call_oracle():
    """The loop on ids removes the same pairs as the pass on ``Shrinking``
    methods stopped at the Euler characteristic, on every distinct sub-union
    the truncation checker collapses, for the deterministic pass and three
    seeded restarts."""
    runs = stuck = 0
    for seed, cov in enumerate(subunion_covers()):
        index = cov.parent.index()
        names = sorted(cov.names())
        masks = {
            cov._union_mask(J)
            for k in range(1, len(names) + 1)
            for J in combinations(names, k)
        }
        for mask in masks:
            ids = _ids(mask)
            chi = sum((-1) ** (len(index.simplices[i]) - 1) for i in ids)
            for r in (None, 0, 1, 2):
                rngs = [None if r is None else random.Random(f"{seed}:{r}") for _ in range(2)]
                pairs = clp._collapse_run(index, ids, rngs[0])
                theirs = shrinking_collapse_run(index, frozenset(), chi, rngs[1], ids)
                assert (None if pairs is None else eager_certificate(index, pairs)) == theirs
                runs += 1
                stuck += pairs is None
    # the families reach both collapses and stuck passes
    assert runs > 2000 and 0 < stuck < runs


def test_one_scan_coreduction_matches_the_prepass_on_cover_ids():
    """On the ids of every intersection and every sub-union of the
    families, the coreduction leaves the cells and counts the components
    the pre-pass coreduction does; many of them are disconnected."""
    runs = disconnected = 0
    for cov in subunion_covers():
        index = cov.parent.index()
        masks = {cov._union_mask(J) for J in _all_index_sets(cov.names())}
        masks.update(_nerve_table(cov).values())
        for mask in masks:
            ids = _ids(mask)
            left, extra = _coreduce(index, ids)
            assert (left, extra) == prepass_coreduce(index, ids)
            runs += 1
            disconnected += extra > 0
    assert runs > 700 and disconnected > 200


def test_full_pass_on_a_subunion_is_the_euler_count_pass():
    """On all of a sub-union's ids, the pass that stops when no simplex of
    positive dimension is left decides as the parent-sized pass stopped at
    the Euler characteristic, on every distinct sub-union of the families."""
    seen = Counter()
    for cov in subunion_covers():
        index = cov.parent.index()
        names = sorted(cov.names())
        masks = {
            cov._union_mask(J)
            for k in range(1, len(names) + 1)
            for J in combinations(names, k)
        }
        for mask in masks:
            ids = _ids(mask)
            verdict = clp._collapse_run(index, ids) is not None
            assert verdict == chi_collapses_to_vertices(index, ids)
            seen[verdict] += 1
    # the circles, the dunce hat and RP2 get stuck
    assert seen[True] > 600 and seen[False] >= 4


def _lattice_passes(cov):
    """(union mask, kept mask) of each pass the truncation checker can run
    on cov: every distinct sub-union in full (nothing kept), and relative to
    every distinct sub-union of one member fewer that it strictly contains."""
    names = sorted(cov.names())
    out = set()
    for k in range(1, len(names) + 1):
        for J in combinations(names, k):
            union = cov._union_mask(J)
            out.add((union, 0))
            for j in J if k > 1 else ():
                below = cov._union_mask([n for n in J if n != j])
                if below != union:
                    out.add((union, below))
    return sorted(out)


def test_one_loop_matches_the_engines_it_replaced():
    """On every full and relative pass along the sub-union lattice of the
    families, for the deterministic pass and three seeded restarts, the loop
    on the ids a sub-union adds removes the same pairs as the parent-array
    pass that keeps the smaller sub-union and stops at the Euler count of
    the added ids; where the loop gets stuck, that pass either gets stuck
    too or stops with an added simplex of positive dimension left.  The
    deterministic verdict is the dict-and-heap pass's.  On the tamper
    families, ``free_faces`` and replay agree with the ``Shrinking`` state."""
    runs = Counter()
    for seed, cov in enumerate(subunion_covers()):
        index = cov.parent.index()
        for union, below in _lattice_passes(cov):
            ids, kept = _ids(union & ~below), frozenset(_ids(below))
            # a pass that leaves only vertices of the ids leaves chi of them
            chi = sum((-1) ** (len(index.simplices[i]) - 1) for i in ids)
            for r in (None, 0, 1, 2):
                rngs = [None if r is None else random.Random(f"{seed}:{r}") for _ in range(2)]
                pairs = clp._collapse_run(index, ids, rngs[0])
                theirs = parent_array_collapse_run(
                    index, kept, len(kept) + chi, rngs[1], _ids(union)
                )
                if pairs is not None:
                    assert theirs == pairs
                elif theirs is not None:
                    gone = {i for pair in theirs for i in pair}
                    assert any(index.faces[i] for i in ids if i not in gone)
                if r is None:
                    assert (pairs is not None) == dict_heap_collapses_onto(index, ids)
                runs[bool(below), pairs is not None] += 1
    # full and relative passes both collapse and get stuck
    assert all(runs[kind] for kind in product((False, True), repeat=2))
    verdicts = Counter()
    for seed, K, C in _complexes():
        for L in (K, C):
            assert free_faces(L) == shrinking_free_faces(L)
        res = greedy_collapse_complex(C)
        if len(res.certificate.steps) < 2:
            continue
        for cert, target in _complex_tampers(C, list(res.certificate.steps)):
            ours = replay_complex_certificate(C, cert, target)
            assert ours == shrinking_replay_complex(C, cert, target)
            verdicts[ours] += 1
    assert verdicts[True] and verdicts[False] > verdicts[True]


def test_one_loop_matches_the_loop_with_a_listed_set():
    """The free list alone, with no set mirroring it, removes the same pairs
    and gets stuck at the same point as the loop that kept one: on every
    full and relative pass along the sub-union lattice of the families and
    on each parent's whole index, for the deterministic pass and three
    seeded restarts."""
    runs = Counter()
    for seed, cov in enumerate(subunion_covers()):
        index = cov.parent.index()
        whole = range(len(index.simplices))
        passes = [(whole, False)] + [(_ids(u & ~b), bool(b)) for u, b in _lattice_passes(cov)]
        for ids, relative in passes:
            for r in (None, 0, 1, 2):
                rngs = [None if r is None else random.Random(f"{seed}:{r}") for _ in range(2)]
                pairs = clp._collapse_run(index, ids, rngs[0])
                assert pairs == listed_collapse_run(index, ids, rngs[1])
                runs[relative, pairs is not None] += 1
    assert all(runs[kind] for kind in product((False, True), repeat=2))


def _targets():
    """(K, target): each seeded cone onto its base, as the certificate
    digest collapses it, the first stage of staged unions of two and three
    parts, and seeded subcomplexes spanned by random simplices of the
    cone."""
    for seed, K, C in _complexes():
        yield C, K.intersection(C)
        point = cone("apex", SimplicialComplex([["w0"]]))
        other = cone("apex", generate_complex(seed + 100, max_vertices=5, max_facets=4, max_card=3))
        yield C.union(point), C
        yield C.union(other).union(point), C.union(other)
        rng = random.Random(f"target:{seed}")
        simplices = C.all_simplices()
        for size in (1, 3, 6):
            yield C, SimplicialComplex(rng.sample(simplices, min(size, len(simplices))))


def test_targets_on_the_parent_index_match_the_facet_scan():
    """A target found on its parent's index has the ids the facet scan and
    the target's own index gave and the mask the set walk gave, so does
    each member of a complex cover, and a target that is empty or not a
    subcomplex raises as it did."""
    for K, target in _targets():
        index = K.index()
        mask = index.down_closure(target.facets)
        assert clp._collapse_input(K, target) == (index, mask)
        assert mask == set_walk_down_closure(index, target.facets)
        assert _ids(mask) == facet_scan_target_ids(K, target)
    for cov in subunion_covers():  # complex covers build their members the same way
        index = cov.parent.index()
        for name, sub in cov.members:
            assert cov._masks[name] == set_walk_down_closure(index, sub.facets)
    T = two_triangles()
    # an edge of neither triangle, and a vertex outside T
    outside = ([["v1", "v3"]], [["v0", "v2"], ["v0", "z"]])
    assert [T.index().down_closure(facets) for facets in outside] == [None, None]
    for K, target in [(T, SimplicialComplex(f)) for f in outside] + [
        (T, SimplicialComplex([])),
        (SimplicialComplex([]), T),
    ]:
        with pytest.raises((EmptyObject, TargetNotInduced)) as expected:
            facet_scan_target_ids(K, target)
        for run in (
            lambda: clp._collapse_input(K, target),
            lambda: greedy_collapse_complex(K, target=target),
            lambda: replay_complex_certificate(K, CollapseCertificate(), target),
        ):
            with pytest.raises(expected.type) as raised:
                run()
            assert str(raised.value) == str(expected.value)


def test_targeted_search_and_replay_build_no_index_of_the_target():
    """The target is read off its facets on the parent's index, for the
    search, its replay and the homology a stuck search reads."""
    verdicts = Counter()
    for K, given in _targets():
        target = SimplicialComplex(given.facets)  # a parent earlier may have an index
        res = greedy_collapse_complex(K, target=target, restarts=1)
        cert = res.certificate if res.is_yes() else CollapseCertificate()
        assert replay_complex_certificate(K, cert, target) == res.is_yes()
        assert target._index is None
        verdicts[res.verdict] += 1
    assert verdicts["yes"] and verdicts["no"]


def _recording(real, seen, what):
    def recorded(index, ids, *rest):
        seen.append(what(ids))
        return real(index, ids, *rest)

    return recorded


def _lattice_and_oracle(monkeypatch, cov, **kw):
    """The truncation report of cov along the sub-union lattice and with the
    per-union oracle; with each, the ids handed to homology and the number
    of ids handed to free-face passes.  The classification, kept with the
    cover, is made first, so every pass recorded is a truncation pass."""
    classify_cover(cov)
    runs = []
    for failures in (persistence._positive_degree_failures, per_union_positive_degree_failures):
        homology, passed = [], []
        monkeypatch.setattr(persistence, "_positive_degree_failures", failures)
        for module, name, seen, what in (
            (persistence, "_homology", homology, tuple),
            (helpers, "_homology", homology, tuple),
            (clp, "_collapse_run", passed, len),
            (helpers, "chi_collapses_to_vertices", passed, len),
        ):
            monkeypatch.setattr(module, name, _recording(getattr(module, name), seen, what))
        report = check_truncation_theorem(cov, **kw)
        monkeypatch.undo()
        runs.append((report, homology, sum(passed)))
    return runs


@pytest.mark.parametrize("mode", [{}, {"max_enum": 2, "sample_size": 6}])
def test_truncation_along_the_lattice_matches_the_per_union_oracle(monkeypatch, mode):
    """Equal reports on cone covers of 3-8 members, arc covers of 12, 16 and
    20-gons, strong-good seeds 0-4 and the dunce-hat and RP2 covers, both
    exhaustive and sampled; homology runs only on sub-unions the oracle
    computes it on, and the passes see fewer simplices in all."""
    failing = ours_total = theirs_total = 0
    for cov in subunion_covers():
        (report, homology, passed), (oracle, oracle_homology, oracle_passed) = (
            _lattice_and_oracle(monkeypatch, cov, **mode)
        )
        assert report == oracle
        assert len(set(homology)) == len(homology)
        assert set(homology) <= set(oracle_homology)
        assert passed <= 2 * oracle_passed
        failing += bool(report["part2_failures"])
        ours_total += passed
        theirs_total += oracle_passed
    # RP2 and the circles fail, in both modes
    assert failing >= 2
    assert ours_total < theirs_total


@pytest.fixture
def pairs_built(monkeypatch):
    """The free-face certificate steps the collapse module constructs."""
    made = []
    real = clp.FreeFacePair

    def counting(face, coface):
        made.append((face, coface))
        return real(face, coface)

    monkeypatch.setattr(clp, "FreeFacePair", counting)
    return made


def test_truncation_part2_builds_no_certificate(pairs_built):
    cov = seeded_cone_cover(5, 8)
    cls = classify_cover(cov)
    pairs_built.clear()
    report = check_truncation_theorem(cov, classification=cls)
    assert report["subsets_checked"] == 255 and report["part2_subunions_acyclic"]
    assert pairs_built == []


def test_searches_build_one_certificate_on_success(pairs_built):
    for seed, K, C in list(_complexes())[:10]:
        res = greedy_collapse_complex(C, restarts=8, seed=seed)
        steps = res.certificate.steps
        assert pairs_built == [(p.face, p.coface) for p in steps]
        assert res.certificate == shrinking_collapse_run(C.index(), frozenset(), 1, None)
        pairs_built.clear()
    # a dunce hat with a triangle hung on a vertex: every schedule removes
    # the triangle and gets stuck on the hat
    D = dunce_hat()
    hung = D.union(SimplicialComplex([[min(D.vertices), "x", "y"]]))
    assert greedy_collapse_complex(hung, restarts=3).verdict == "unknown"
    assert pairs_built == []


def _dunce_hat_times_interval() -> SimplicialComplex:
    """The dunce hat times an interval, each prism cut into three
    tetrahedra along the vertex order.  The deterministic pass gets stuck
    on it, and some seeded restarts reach a point."""
    facets = []
    for f in dunce_hat().facets:
        a, b, c = sorted(f)
        facets += [[a + "0", b + "0", c + "0", c + "1"], [a + "0", b + "0", b + "1", c + "1"]]
        facets.append([a + "0", a + "1", b + "1", c + "1"])
    return SimplicialComplex(facets)


def _search_cases():
    """(complex, target or None, seed): each seeded complex and its cone,
    searched to a point, the cone onto its base, and the fixed complexes."""
    for seed, K, C in _complexes():
        yield K, None, seed
        yield C, None, seed
        yield C, K, seed
    hung = dunce_hat().union(SimplicialComplex([[min(dunce_hat().vertices), "x", "y"]]))
    for seed, L in enumerate((dunce_hat(), projective_plane(), cone("z", dunce_hat()), hung)):
        yield L, None, seed
    for seed in range(3):
        yield _dunce_hat_times_interval(), None, seed


def test_lazy_certificates_equal_eager_ones(monkeypatch):
    """A certificate from ``_free_face_search`` builds no step until read,
    and read fresh through each of ==, hash, repr and the JSON text it is
    the certificate built at once from the same pairs, and it replays; for
    the deterministic pass alone and with seeded restarts."""
    made = []
    real = clp.FreeFacePair

    def counting(face, coface):
        made.append((face, coface))
        return real(face, coface)

    found = from_restart = 0
    for L, target, seed in _search_cases():
        index = L.index()
        if target is None:
            ids, end = range(len(index.simplices)), 1
        else:
            ids, end = clp._outside(index, index.down_closure(target.facets)), 0
        for restarts in (0, 8):
            eager = eager_free_face_search(index, ids, end, restarts, seed)

            def search():
                return clp._free_face_search(index, ids, end, restarts, seed)

            if eager is None:
                assert search() is None
                continue
            assert search() == eager and eager == search()
            assert hash(search()) == hash(eager)
            assert repr(search()) == repr(eager)
            assert search().to_json() == eager.to_json()
            with monkeypatch.context() as m:
                m.setattr(clp, "FreeFacePair", counting)
                made.clear()
                cert = search()
                assert made == []
                assert cert.steps is cert.steps
                assert made == [(p.face, p.coface) for p in eager.steps]
            assert replay_complex_certificate(L, search(), target)
            found += 1
            from_restart += restarts and eager_free_face_search(index, ids, end, 0, seed) is None
    assert found > 60 and from_restart > 0


def test_staged_union_matches_oracle(monkeypatch):
    """Unions peeled part by part with targeted collapses get the same
    verdicts and certificates from the indexed engine and the rebuild one."""
    cases = []
    for seed, K, C in list(_complexes())[:15]:
        other = cone("apex", generate_complex(seed + 100, max_vertices=5, max_facets=4, max_card=3))
        cases.append([C, other])
        cases.append([C, other, cone("apex", SimplicialComplex([["w0"]]))])
    ours = [_plain(staged_union_collapse(parts, restarts=2, seed=1)) for parts in cases]
    monkeypatch.setattr(clp, "greedy_collapse_complex", slow_greedy_collapse_complex)
    theirs = [_plain(staged_union_collapse(parts, restarts=2, seed=1)) for parts in cases]
    assert ours == theirs
    assert any(v == "yes" for v, *_ in ours)


def test_space_searches_match_oracle():
    for X in _posets():
        cr, cert = core(X)
        assert (cr, cert) == slow_core(X)
        assert is_contractible_space(X) == (len(cr) == 1)
        assert beat_points(X) == slow_points(X, BEAT_KINDS)
        assert weak_points(X) == slow_points(X, WEAK_KINDS)
        assert _plain(greedy_collapse_space(X)) == _plain(slow_greedy_collapse_space(X))
        keep = X.down_set(X.elements[-1])
        assert _plain(greedy_collapse_space(X, target=keep)) == _plain(
            slow_greedy_collapse_space(X, target=keep)
        )


def test_subspace_collapse_matches_the_built_subposet():
    """The weak-point collapse of a mask, with the homology a stuck search
    reads in the subspace's own degrees, against the subposet built."""
    rng = random.Random("subspace-collapse")
    lower = 0
    for X in _posets():
        for _ in range(3):
            alive = rng.getrandbits(len(X)) | 1
            sub = X.restrict(X._members(alive))
            ours = clp._weak_collapse(X, alive)
            assert _plain(ours) == _plain(slow_greedy_collapse_space(sub))
            keep = X._mask(sub.down_set(sub.elements[-1]))
            assert _plain(clp._weak_collapse(X, alive, keep)) == _plain(
                slow_greedy_collapse_space(sub, target=X._members(keep))
            )
            lower += ours.witness is not None and len(ours.witness.betti) <= X.height()
    assert lower >= 5


def _peel_cases():
    """(X, alive, kinds, keep, size) for the worklist peel against the rescan."""
    for seed in range(60):
        X = generate_poset(seed, 6 + seed % 9)
        rng = random.Random(seed)
        everything = (1 << len(X)) - 1
        for kinds in (BEAT_KINDS, WEAK_KINDS):
            yield X, everything, kinds, 0, 0
            alive = rng.getrandbits(len(X)) | 1
            keep = rng.getrandbits(len(X)) & alive & rng.getrandbits(len(X))
            yield X, alive, kinds, keep, rng.randint(0, alive.bit_count())
    relations = [R for seed in range(10) for R in generate_composite_instance(seed)]
    relations.append(nerve_relation(star_cover(sd_boundary(2))))
    for R in relations:
        for side in ("left", "right"):
            kept = _side(R, side)[0]
            for mask in set(_hypothesis_masks(R, side)) - {0}:
                for kinds in (BEAT_KINDS, WEAK_KINDS):
                    yield kept, mask, kinds, 0, 0
                    yield kept, mask, kinds, 0, 1
    B = relation_cylinder(relations[-1])
    for kinds in (BEAT_KINDS, WEAK_KINDS):
        yield B, (1 << len(B)) - 1, kinds, 0, 0


def _peel_results(cases):
    return [(cert.to_json(), alive) for cert, alive in (clp._peel(*c) for c in cases)]


def test_worklist_peel_matches_rescan_oracle(monkeypatch):
    cases = list(_peel_cases())
    ours = _peel_results(cases)
    monkeypatch.setattr(clp, "_peel", rescan_peel)
    assert ours == _peel_results(cases)
    # the cases reach removals, stuck searches and searches stopped at size
    assert any(cert != '{"steps": []}' for cert, _ in ours)
    assert any(alive.bit_count() > c[4] for (_, alive), c in zip(ours, cases))
    assert any(alive.bit_count() == c[4] > 1 for (_, alive), c in zip(ours, cases))


def test_worklist_peel_retests_fewer_points(monkeypatch):
    # 29 weak tests (28 points, one tested on both sides) against 57 when
    # every removal restarts the scan; each weak test is one contractibility
    # verdict, and the contractions inside it make no weak tests of their own
    N = nerve_relation(star_cover(sd_boundary(2))).target
    contractible = posets._contractible
    calls = []

    def counting(X, mask):
        calls.append(mask)
        return contractible(X, mask)

    monkeypatch.setattr(posets, "_contractible", counting)
    tests = []
    for peel in (clp._peel, dirty_scan_peel, rescan_peel):
        calls.clear()
        peel(N, (1 << len(N)) - 1, WEAK_KINDS)
        tests.append(len(calls))
    assert tests == [29, 29, 57]


def test_one_point_loop_matches_the_loops_it_replaced():
    """``posets._prune`` recording steps gives the dirty-scan peel's
    certificates and masks, keep and size included; without steps it gives
    the old verdict-only loop's contractibility verdicts and weak-point
    reductions, removal order included."""
    cases = list(_peel_cases())
    ours = [clp._peel(*case) for case in cases]
    assert ours == [dirty_scan_peel(*case) for case in cases]
    assert any(case[3] and cert.steps for case, (cert, _) in zip(cases, ours))
    rng = random.Random("one point loop")
    spaces = [generate_poset(seed, 4 + seed % 13) for seed in range(80)]
    for widths, k in (((5, 5, 5, 5), 2), ((6, 6, 6), 3), ((6, 6, 6, 6), 2)):
        spaces += [helpers.graded_poset(rng, widths, k) for _ in range(6)]
    for K in (sd_boundary(2), sd_boundary(3), dunce_hat(), projective_plane()):
        spaces.append(K.face_poset())
    tested = Counter()
    for X in spaces + [X.opposite() for X in spaces]:
        for alive in _masks(X, rng):
            verdict = posets._contractible(X, alive)
            assert verdict == verdict_contractible(X, alive)
            reduced = posets._weak_reduction(X, alive)
            assert reduced == verdict_weak_reduction(X, alive)
            core_size = posets._prune(X, alive, posets._one_extreme).bit_count()
            tested[verdict, reduced.bit_count() < core_size] += 1
    # contractible masks, and cores that weak points shrink or leave alone
    assert len(tested) == 3 and min(tested.values()) >= 40, tested


def test_cylinder_executor_matches_oracle():
    for R in _cylinder_relations():
        for side in ("left", "right"):
            B = relation_cylinder(R)
            masks = _hypothesis_masks(R, side)
            assert _execute_target_removal(R, B, side, masks) == slow_execute_target_removal(R, side)


# -- point predicates on ints ---------------------------------------------------


def _predicate_posets():
    """Face posets of cones over random graphs and relation cylinders of
    composites (the collapse-certify shapes), generated posets, face posets
    of cones over random complexes, the finite circle and the dunce hat."""
    for seed in range(8):
        rng = random.Random(seed)
        edges = rng.sample(list(combinations(range(7), 2)), 6 + seed % 3)
        yield cone("a", SimplicialComplex([[f"b{u}", f"b{v}"] for u, v in edges])).face_poset()
    for R in list(_cylinder_relations())[:9]:
        yield relation_cylinder(R)
    yield relation_cylinder(nerve_relation(star_cover(sd_boundary(2))))
    yield from _posets()
    for _, _, C in list(_complexes())[:8]:
        yield C.face_poset()
    yield finite_circle()
    yield dunce_hat().face_poset()


def _masks(X: FinitePoset, rng: random.Random) -> list[int]:
    """The whole space, random subspaces, and every punctured down and up set."""
    full = (1 << len(X)) - 1
    masks = [full] + [rng.getrandbits(len(X)) | 1 << rng.randrange(len(X)) for _ in range(6)]
    return masks + [m for m in X._below + X._above if m]


def test_one_walk_beat_test_matches_the_counting_oracle():
    tested = Counter()
    for X in _predicate_posets():
        rng = random.Random(len(X))
        for alive in _masks(X, rng):
            for i in _ids(alive):
                for strict, beyond in ((X._below, X._above), (X._above, X._below)):
                    if punctured := strict[i] & alive:
                        ours = clp._one_extreme(X, punctured, beyond, strict)
                        assert ours == counting_one_extreme(punctured, beyond)
                        tested[ours] += 1
    assert tested[True] > 1000 and tested[False] > 1000


def test_contractible_matches_the_certificate_building_oracle():
    tested = Counter()
    for X in _predicate_posets():
        rng = random.Random(len(X))
        for alive in _masks(X, rng):
            cert = counting_contraction(X, alive)
            assert clp._contractible(X, alive) == (cert is not None)
            assert clp._contraction(X, alive) == cert
            tested[cert is not None] += 1
    assert tested[True] > 100 and tested[False] > 100


def test_contractible_matches_brute_force_on_small_posets():
    tested = Counter()
    for seed in range(40):
        X = generate_poset(seed, 4 + seed % 5)
        rng = random.Random(seed)
        for alive in _masks(X, rng):
            ours = clp._contractible(X, alive)
            assert ours == brute_contractible(X.restrict(X._members(alive)))
            tested[ours] += 1
    assert tested[True] and tested[False]


def test_searches_replays_and_executor_match_under_the_counting_predicate(monkeypatch):
    spaces = list(_predicate_posets())
    replays = [
        (X, cert, target)
        for X in spaces
        if (res := greedy_collapse_space(X)).verdict == "yes" and len(res.certificate.steps) > 1
        for cert, target in _space_tampers(X, list(res.certificate.steps))
    ]

    def results():
        out = []
        for X in spaces:
            keep = X.down_set(X.elements[-1])
            out.append(_plain(greedy_collapse_space(X)))
            out.append(_plain(greedy_collapse_space(X, target=keep)))
            out.append(core(X))
            out.append([(x, _plain(res)) for x, res in gamma_points(X)])
        for R in _cylinder_relations():
            for side in ("left", "right"):
                B = relation_cylinder(R)
                out.append(_execute_target_removal(R, B, side, _hypothesis_masks(R, side)))
        out.append([replay_space_certificate(*case) for case in replays])
        return out

    ours = results()
    monkeypatch.setattr(clp, "removable", counting_removable)
    assert results() == ours
    assert any(ours[-1]) and not all(ours[-1])


def _complex_tampers(L: SimplicialComplex, steps: list):
    """(certificate, target) pairs, each broken in one way or kept valid."""
    first = steps[0]
    free = {face for face, _ in free_faces(L)}
    blocked = next(
        FreeFacePair(s, t)
        for t in L.all_simplices()
        for s in combinations(t, len(t) - 1)
        if s and s not in free
    )
    out = [
        (steps, None),
        (steps[::-1], None),
        (steps[1:] + steps[:1], None),
        ([PointRemoval(first.face[0], "down-beat")] + steps[1:], None),
        ([blocked] + steps, None),
        ([FreeFacePair(first.face, steps[1].coface)] + steps[1:], None),
        (steps[:1] + steps[:1] + steps[1:], None),
        ([FreeFacePair(first.face[:1] + first.face, first.coface)] + steps[1:], None),
        ([FreeFacePair(first.face[::-1], first.coface[::-1])] + steps[1:], None),
        (steps, SimplicialComplex([[first.face[0]]])),
        (steps, L),
        (steps[:-1], None),
        (steps[:-1], SimplicialComplex([set(steps[-1].coface) - set(steps[-1].face)])),
    ]
    return [(CollapseCertificate(tuple(s)), target) for s, target in out]


def _space_tampers(X: FinitePoset, steps: list):
    first = steps[0]
    flipped = dict(zip(BEAT_KINDS + WEAK_KINDS, BEAT_KINDS[::-1] + WEAK_KINDS[::-1]))
    stuck = [x for x in X.elements if not clp.weak_point_kind(X, x)]
    out = [
        (steps, None),
        (steps[::-1], None),
        (steps[1:] + steps[:1], None),
        ([PointRemoval(first.element, flipped[first.kind])] + steps[1:], None),
        ([PointRemoval(first.element, "sideways")] + steps[1:], None),
        ([PointRemoval(x, "down-weak") for x in stuck[:1]] + steps, None),
        (steps[:1] + steps, None),
        (steps, {X.elements[0]}),
        (steps, set(X.elements)),
        (steps[:-1], None),
    ]
    return [(CollapseCertificate(tuple(s)), target) for s, target in out]


def test_tampered_complex_certificates_match_oracle():
    verdicts = Counter()
    for seed, K, C in _complexes():
        res = greedy_collapse_complex(C)
        if len(res.certificate.steps) < 2:
            continue
        for cert, target in _complex_tampers(C, list(res.certificate.steps)):
            ours = replay_complex_certificate(C, cert, target)
            assert ours == slow_replay_complex(C, cert, target)
            verdicts[ours] += 1
    assert verdicts[True] and verdicts[False] > verdicts[True]


def test_tampered_space_certificates_match_oracle():
    verdicts = Counter()
    spaces = [cone("apex", K).face_poset() for _, K, _ in list(_complexes())[:8]]
    for X in spaces + list(_posets()):
        res = greedy_collapse_space(X)
        if res.verdict != "yes" or len(res.certificate.steps) < 2:
            continue
        for cert, target in _space_tampers(X, list(res.certificate.steps)):
            ours = replay_space_certificate(X, cert, target)
            assert ours == slow_replay_space(X, cert, target)
            verdicts[ours] += 1
    assert verdicts[True] and verdicts[False] > verdicts[True]


# -- no per-step rebuilds ------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Counts of SimplicialComplex and FinitePoset constructions."""
    counts = Counter()
    for cls in (SimplicialComplex, FinitePoset):

        def init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


def test_complex_search_and_replay_build_no_objects_per_step(builds):
    seen = []
    for n in (2, 3, 4):
        C = cone("apex", _sd_boundary(n))
        builds.clear()
        res = greedy_collapse_complex(C)
        assert res.is_yes() and replay_complex_certificate(C, res.certificate)
        seen.append((len(res.certificate.steps), dict(builds)))
    assert len({steps for steps, _ in seen}) == 3
    assert all(counts == seen[0][1] for _, counts in seen)


def test_space_search_and_replay_build_no_objects_per_step(builds):
    seen = []
    for n in (3, 6, 9):
        path = SimplicialComplex([[f"b{i}", f"b{i + 1}"] for i in range(n)])
        X = cone("a", path).face_poset()
        builds.clear()
        res = greedy_collapse_space(X)
        assert res.is_yes() and replay_space_certificate(X, res.certificate)
        cr, _ = core(X)
        assert len(cr) == 1
        seen.append((len(res.certificate.steps), dict(builds)))
    assert len({steps for steps, _ in seen}) == 3
    assert all(counts == seen[0][1] for _, counts in seen)


def test_cone_over_sd_boundary_of_4_simplex_collapses_and_replays():
    """1 081 simplices: tens of seconds for the rebuild-based engine."""
    C = cone("apex", _sd_boundary(4))
    assert C.num_simplices() == 1081
    res = greedy_collapse_complex(C)
    assert res.is_yes() and len(res.certificate.steps) == 540
    assert replay_complex_certificate(C, res.certificate)


# -- replay by positions and by names ------------------------------------------
#
# A certificate the library makes keeps the positions its search found, and
# replay on the very index or poset it was made on reads them as they are.
# Any other certificate goes the names route, which stays the oracle: each
# certificate, found or tampered, is replayed by positions, by names after a
# trip through its document, and on an equal complex or poset with an index
# or elements of its own, and all three must agree.


def _fresh_complex(K: SimplicialComplex) -> SimplicialComplex:
    L = SimplicialComplex(K.facets)
    assert L == K and L.index().simplices is not K.index().simplices
    return L


def _fresh_poset(X: FinitePoset) -> FinitePoset:
    Y = FinitePoset(X.elements, X.hasse)
    assert Y == X and Y.elements is not X.elements
    return Y


def _tampered(positions: list, extra: list) -> list:
    """The positions as found, and broken in one way each: swapped,
    reversed, truncated, a step repeated, and with each extra step put
    first (a wrong kind or coface, a face of the target, another face)."""
    out = [positions, positions[::-1], positions[1:] + positions[:1], positions[:-1]]
    out += [positions[:1] + positions] if positions else []
    return out + [[step] + positions for step in extra]


@pytest.fixture
def by_name(monkeypatch):
    """The number of replays that took the names route."""
    calls = Counter()
    for name in ("_pair_ids_by_name", "_removals_by_name"):

        def counting(*args, _real=getattr(clp, name)):
            calls["names"] += 1
            return _real(*args)

        monkeypatch.setattr(clp, name, counting)
    return calls


def _three_ways(replay, obj, fresh, cert, target, by_name) -> bool:
    """The replay of cert by positions on obj, which it was made on, after
    checking that by names and on the equal fresh object agree with it."""
    before = by_name["names"]
    ours = replay(obj, cert, target)
    assert by_name["names"] == before
    assert replay(obj, CollapseCertificate.from_doc(cert.to_doc()), target) == ours
    assert replay(fresh, cert, target) == ours
    assert by_name["names"] == before + 2
    return ours


def _complex_cases():
    """(complex, target or None, certificate) for each Yes of the search
    cases, to a point and onto a target."""
    for L, target, seed in _search_cases():
        res = greedy_collapse_complex(L, target=target, restarts=8, seed=seed)
        if res.is_yes():
            yield L, target, res.certificate


def _space_cases():
    """(poset, target or None, certificate) for each Yes of the weak-point
    collapse, to a point and onto the down set of the last element, on the
    oracle's posets, face posets of cones and relation cylinders."""
    spaces = [cone("apex", K).face_poset() for _, K, _ in list(_complexes())[:8]]
    spaces += list(_posets()) + [relation_cylinder(R) for R in _cylinder_relations()]
    for X in spaces:
        for target in (None, X.down_set(X.elements[-1])):
            res = greedy_collapse_space(X, target=target)
            if res.is_yes():
                yield X, target, res.certificate


def _executor_cases():
    """(cylinder B(R), kept copy's points, certificate) of each collapse the
    executor makes, on R1, R2 and their composite for composite seeds 0-39."""
    for seed in range(40):
        R1, R2 = generate_composite_instance(seed)
        for R in (R1, R2, compose_relations(R1, R2)):
            for side in ("left", "right"):
                B = relation_cylinder(R)
                report = _execute_target_removal(R, B, side, _hypothesis_masks(R, side))
                if report["verdict"] == "yes":
                    kept, kept_name = _side(R, side)[:2]
                    yield B, {tag(kept_name, x) for x in kept.elements}, report["certificate"]


def test_complex_replay_by_positions_agrees_with_the_names_route(by_name):
    verdicts = Counter()
    for L, target, cert in _complex_cases():
        index, fresh = L.index(), _fresh_complex(L)
        positions = list(cert._positions_over(index.simplices))
        if not positions:
            continue
        # the first face with the last coface, and another face of the
        # first coface with it, free or not
        s, t = positions[0]
        extra = [(s, positions[-1][1])] + [(f, t) for f in index.faces[t][-1:] if f != s]
        if target is not None:  # a face of the target and its coface there
            top = max(_ids(index.down_closure(target.facets)))
            extra += [(index.faces[top][0], top)] if index.faces[top] else []
        for tampered in _tampered(positions, extra):
            made = CollapseCertificate._of_positions(clp.FREE_PAIR, index.simplices, tampered)
            for end in {target, None}:
                verdicts[_three_ways(replay_complex_certificate, L, fresh, made, end, by_name)] += 1
        # a wrong kind: the steps of a space certificate
        X = L.face_poset()
        space = greedy_collapse_space(X)
        if space.is_yes():
            assert not replay_complex_certificate(L, space.certificate)
            assert not replay_space_certificate(X, cert)
    assert verdicts[True] > 100 and verdicts[False] > verdicts[True]


def _removal_tampers(X: FinitePoset, positions: list, target) -> list:
    """Point-removal steps put first: a kind flipped, a point that is not
    removable, and a point of the target."""
    flipped = dict(zip(BEAT_KINDS + WEAK_KINDS, BEAT_KINDS[::-1] + WEAK_KINDS[::-1]))
    i, kind = positions[0]
    extra = [(i, flipped[kind])]
    stuck = [j for j, x in enumerate(X.elements) if not clp.weak_point_kind(X, x)]
    extra += [(j, "down-weak") for j in stuck[:1]]
    if target:
        extra.append((X._at(min(target)), kind))
    return _tampered(positions, extra)


def test_space_replay_by_positions_agrees_with_the_names_route(by_name):
    verdicts = Counter()
    for X, target, cert in _space_cases():
        fresh = _fresh_poset(X)
        positions = list(cert._positions_over(X.elements))
        if not positions:
            continue
        for tampered in _removal_tampers(X, positions, target):
            made = CollapseCertificate._of_positions(clp.POINT_REMOVAL, X.elements, tampered)
            for end in {target, None}:
                verdicts[_three_ways(replay_space_certificate, X, fresh, made, end, by_name)] += 1
    assert verdicts[True] > 50 and verdicts[False] > verdicts[True]


def test_executor_replay_by_positions_agrees_with_the_names_route(by_name):
    verdicts = Counter()
    for B, kept, cert in _executor_cases():
        fresh = _fresh_poset(B)
        positions = list(cert._positions_over(B.elements))
        for tampered in _removal_tampers(B, positions, kept):
            made = CollapseCertificate._of_positions(clp.POINT_REMOVAL, B.elements, tampered)
            for end in (kept, None):
                verdicts[_three_ways(replay_space_certificate, B, fresh, made, end, by_name)] += 1
    assert verdicts[True] > 50 and verdicts[False] > verdicts[True]


READS = {
    "steps": lambda cert: cert.steps,
    "==": lambda cert: cert == CollapseCertificate(cert.steps),
    "to_doc": lambda cert: cert.to_doc(),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_reading_a_certificate_keeps_its_positions(read, by_name):
    """A certificate read first through ``steps``, ``==`` or ``to_doc``, as
    the tracer, ``--out`` and the checks read it, keeps the positions its
    search found, and its replay still reads them, with the same result."""
    cases = [
        (replay_complex_certificate, L, target, cert, L.index().simplices)
        for L, target, cert in list(_complex_cases())[:40]
    ]
    cases += [
        (replay_space_certificate, X, target, cert, X.elements)
        for X, target, cert in list(_space_cases())[:30] + list(_executor_cases())[:30]
    ]
    for replay, obj, target, cert, names in cases:
        positions = cert._positions_over(names)
        assert positions is not None
        before = replay(obj, cert, target)
        READS[read](cert)
        assert cert._positions_over(names) is positions
        assert replay(obj, cert, target) == before
    assert by_name["names"] == 0

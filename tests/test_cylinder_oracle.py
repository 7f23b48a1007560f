"""The cylinder checkers against the string-set checkers they replaced.

The library keeps each hypothesis set as a mask over the kept space and
decides each distinct set once on that space's reachability masks;
``helpers`` keeps the checkers that scanned all pairs per point and built a
subposet per hypothesis set.  On seeded families both must give equal
reports, certificates included.
"""

from dataclasses import replace

from finspace import collapse as clp
from finspace import cylinders
from finspace.collapse import gamma_points
from finspace.covers import classify_cover
from finspace.cylinders import (
    _execute_target_removal,
    _hypothesis_masks,
    check_collapse_left,
    check_collapse_right,
    compose_relations,
    relation_cylinder,
)
from finspace.fixtures import dunce_hat, finite_circle
from finspace.generators import (
    generate_composite_instance,
    generate_good_space_cover,
    generate_poset,
    generate_relation,
)
from finspace.posets import FinitePoset

from helpers import (
    hypothesis_sets,
    nerve_relation,
    rescan_peel,
    sd_boundary,
    slow_check_collapse,
    slow_execute_target_removal,
    slow_gamma_points,
    slow_overline_image,
    slow_underline_preimage,
    star_cover,
)

CHECKS = {"left": check_collapse_left, "right": check_collapse_right}


def _composite_relations():
    for seed in range(40):
        R1, R2 = generate_composite_instance(seed)
        yield from (R1, R2, compose_relations(R1, R2))


def _random_relations():
    for seed in range(20):
        X = generate_poset(seed, 5)
        Y = generate_poset(seed + 300, 4)
        yield generate_relation(seed, X, Y, 0.15)


def _reports(relations):
    """(ours, oracle) per relation and side."""
    for R in relations:
        for side, check in CHECKS.items():
            yield check(R), slow_check_collapse(R, side)


def _hypothesis_sets(reports):
    return [v for ours, _ in reports for v in ours["per_element"].values()]


def test_composite_reports_match_oracle():
    reports = list(_reports(_composite_relations()))
    for ours, oracle in reports:
        assert ours == oracle
    sets = _hypothesis_sets(reports)
    # the family reaches hypothesis sets that are not contractible
    assert any(not v["empty"] and not v["triviality"].is_yes() for v in sets)
    assert any(ours["collapse"]["verdict"] == "yes" for ours, _ in reports)


def test_random_relation_reports_match_oracle():
    reports = list(_reports(_random_relations()))
    for ours, oracle in reports:
        assert ours == oracle
    assert any(v["empty"] for v in _hypothesis_sets(reports))


def test_star_cover_nerve_relation_reports_match_oracle():
    R = nerve_relation(star_cover(sd_boundary(2)))
    for ours, oracle in _reports([R]):
        assert ours == oracle
        assert ours["collapse"]["verdict"] == "yes"


def test_star_cover_of_sd_boundary_3_certifies_as_with_the_rescan(monkeypatch):
    """74 + 830 points; the worklist peel leaves every certificate as the
    rescanning peel builds it."""
    R = nerve_relation(star_cover(sd_boundary(3)))
    assert (len(R.source), len(R.target)) == (74, 830)
    ours = [check(R) for check in CHECKS.values()]
    for report in ours:
        assert report["hypothesis_triviality"] == report["hypothesis_collapsibility"] == "yes"
        assert report["collapse"]["verdict"] == "yes" and report["collapse"]["proof_identity"]
    monkeypatch.setattr(clp, "_peel", rescan_peel)
    assert ours == [check(R) for check in CHECKS.values()]


def test_the_executor_finds_each_copy_whatever_the_copy_names():
    """The executor reads a copy's points of B(R) as a block of consecutive
    positions; copy names that sort either way round, contain the escaped
    characters or extend each other give the oracle's report, removal
    failures included."""
    names = [("X", "Y"), ("Y", "X"), ("A", "A-"), ("A.b", "A"), ("a\\", "a"), ("a.", "a\\.")]
    relations = [*_composite_relations(), *_random_relations()]
    for k, R in enumerate(relations):
        source_name, target_name = names[k % len(names)]
        R = replace(R, source_name=source_name, target_name=target_name)
        B = relation_cylinder(R)
        for side in ("left", "right"):
            ours = _execute_target_removal(R, B, side, _hypothesis_masks(R, side))
            assert ours == slow_execute_target_removal(R, side)


def test_hypothesis_sets_match_the_pair_scan():
    relations = [*_composite_relations(), *_random_relations()]
    relations.append(nerve_relation(star_cover(sd_boundary(2))))
    for R in relations:
        left, right = hypothesis_sets(R, "left"), hypothesis_sets(R, "right")
        assert left == {y: slow_underline_preimage(R, y) for y in R.target.elements}
        assert right == {x: slow_overline_image(R, x) for x in R.source.elements}


def test_gamma_points_match_the_restrict_oracle():
    spaces = [generate_poset(seed, 6 + seed % 4) for seed in range(30)]
    spaces += [finite_circle(), dunce_hat().face_poset()]
    for X in spaces:
        assert gamma_points(X) == slow_gamma_points(X)


def test_each_distinct_hypothesis_set_is_decided_once(monkeypatch):
    R = nerve_relation(star_cover(sd_boundary(2)))
    decide = cylinders._subspace_verdicts
    decided = []

    def counting(X, mask):
        decided.append(mask)
        return decide(X, mask)

    monkeypatch.setattr(cylinders, "_subspace_verdicts", counting)
    for side, check in CHECKS.items():
        decided.clear()
        report = check(R)
        masks = cylinders._hypothesis_masks(R, side)
        assert len(report["per_element"]) == len(masks)
        assert sorted(decided) == sorted(set(masks))
    # the nerve's 24 index sets share 18 distinct hypothesis sets
    left = cylinders._hypothesis_masks(R, "left")
    assert (len(left), len(set(left))) == (24, 18)


def test_each_hypothesis_set_is_collapsed_once(monkeypatch):
    # 70 more runs, one per set whose core is not a point, when triviality
    # ran a collapse of its own
    collapse = clp._weak_collapse
    runs = []

    def counting(X, alive, target=None):
        runs.append(alive)
        return collapse(X, alive, target)

    monkeypatch.setattr(clp, "_weak_collapse", counting)
    sets = 0
    for R in _composite_relations():
        for side, check in CHECKS.items():
            check(R)
            sets += len(set(cylinders._hypothesis_masks(R, side)) - {0})
    assert len(runs) == sets == 638


def _counting_restrict(monkeypatch) -> list:
    calls = []
    restrict = FinitePoset.restrict

    def counting(self, members):
        calls.append(self)
        return restrict(self, members)

    monkeypatch.setattr(FinitePoset, "restrict", counting)
    return calls


def test_collapse_checks_build_no_subposet(monkeypatch):
    # 830 restricts on the left and 74 on the right before hypothesis sets
    # became masks: one per far point
    R = nerve_relation(star_cover(sd_boundary(3)))
    calls = _counting_restrict(monkeypatch)
    for check in CHECKS.values():
        assert check(R)["collapse"]["verdict"] == "yes"
    assert calls == []


def test_space_cover_classification_builds_no_subposet(monkeypatch):
    # 33 restricts before intersections were collapsed on the parent's masks
    covers = [generate_good_space_cover(seed)[1] for seed in range(10)]
    calls = _counting_restrict(monkeypatch)
    for cover in covers:
        assert classify_cover(cover).good == "yes"
    assert calls == []

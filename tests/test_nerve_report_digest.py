"""Pinned digests of every nerve-theorem report on fixed and seeded covers.

Each flavor runs on each cover; a flavor that does not apply to a cover's
kind, or whose N0 is empty, records the exception type and message instead.
The reports are hashed as written, key order included, so any change to a
verdict, a per-point or per-simplex entry, a bound or a message shows up as
a different hash.
"""

import hashlib
import json

from finspace import covers
from finspace.covers import FLAVORS, check_nerve_theorem
from finspace.errors import FinspaceError
from finspace.fixtures import circle_arc_cover, finite_circle_cover
from finspace.generators import generate_good_space_cover, generate_strong_good_cover

from helpers import OTHER_KIND, kind_refusal, sd_boundary, star_cover, two_triangle_cover

PINNED = "959bb94135d1c6319544c06c95e95fa79e85a79b075bb2ab2ab68968861340fa"
# the larger inputs: the 14-member star cover of sd ∂Δ³ and good-space seeds 3-5
PINNED_LARGE = "09ce1525440396aeaa161d1b888f8066483214ebfc670cdd438deb17fdb3f295"
# both digests while the four nerve flavours ran on either kind of cover
PINNED_EITHER_KIND = "e1515d85e3ade995d3bc09700742be444a018298556f1e427d7ee36a1f0500a2"
PINNED_LARGE_EITHER_KIND = "d4c3c46f221bb4dfd3f8179df11f64b2b11b6406eee6f4dc013b858261600488"
# the reduced-complex report on the 30-member star cover of sd ∂Δ⁴, computed
# on the route that built K(reduced N0) whole (about 46 s there, 2 s on the poset route)
PINNED_30 = "0bd4e99380047bed2bb59509a38783528bccb40b2f0e75b9aea67252aa874ae3"


def _covers():
    yield circle_arc_cover()
    yield two_triangle_cover()
    yield finite_circle_cover()
    yield star_cover(sd_boundary(2))
    for seed in range(3):
        yield generate_strong_good_cover(seed)[1]
    for seed in range(3):
        yield generate_good_space_cover(seed)[1]


def _large_covers():
    yield star_cover(sd_boundary(3))
    for seed in range(3, 6):
        yield generate_good_space_cover(seed)[1]


def _reports(covers):
    out = []
    for cover in covers:
        for flavor in FLAVORS:
            try:
                out.append(check_nerve_theorem(cover, flavor))
            except FinspaceError as exc:
                out.append({"flavor": flavor, "raised": type(exc).__name__, "message": str(exc)})
    return out


def _digest(covers) -> str:
    return hashlib.sha256(json.dumps(_reports(covers)).encode()).hexdigest()


def test_nerve_theorem_reports_are_pinned():
    assert _digest(_covers()) == PINNED


def test_nerve_theorem_reports_on_larger_covers_are_pinned():
    assert _digest(_large_covers()) == PINNED_LARGE


def _either_kind(reports: list) -> tuple[list, int]:
    """The reports of the nerve flavours as they were when each ran on
    either kind of cover, and how many moved: a nerve flavour's refusal of
    a cover of the other kind becomes the report of the other kind's flavour
    of its mode on the same cover, renamed."""
    projected, moved = [], 0
    for k in range(0, len(reports), len(FLAVORS)):
        by_flavor = dict(zip(FLAVORS, reports[k:k + len(FLAVORS)]))
        for flavor, report in by_flavor.items():
            if flavor in OTHER_KIND and "raised" in report:
                assert report["raised"] == "InvalidCover"
                assert report["message"] == kind_refusal(flavor)
                report = {**by_flavor[OTHER_KIND[flavor]], "flavor": flavor}
                moved += 1
            projected.append(report)
    return projected, moved


def test_only_the_cross_kind_nerve_flavour_entries_moved():
    """Mapping each cross-kind refusal back to the report it replaced gives
    the digests of the nerve flavours that ran on either kind of cover:
    every same-kind report is as it was."""
    for covs, n, pinned in (
        (_covers(), 10, PINNED_EITHER_KIND),
        (_large_covers(), 4, PINNED_LARGE_EITHER_KIND),
    ):
        projected, moved = _either_kind(_reports(covs))
        assert moved == 2 * n  # two nerve flavours of the other kind per cover
        assert hashlib.sha256(json.dumps(projected).encode()).hexdigest() == pinned


def test_reduced_complex_report_on_the_30_member_star_cover_is_pinned(monkeypatch):
    """30 members exceed the cap of 20, so the test raises it to 40."""
    monkeypatch.setattr(covers, "MAX_MEMBERS", 40)
    cover = star_cover(sd_boundary(4))
    assert len(cover.members) == 30
    report = check_nerve_theorem(cover, "reduced-complex")
    assert report["hypothesis_verdict"] == "no"
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == PINNED_30

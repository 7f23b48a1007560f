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

from helpers import sd_boundary, star_cover, two_triangle_cover

PINNED = "e1515d85e3ade995d3bc09700742be444a018298556f1e427d7ee36a1f0500a2"
# the larger inputs: the 14-member star cover of sd ∂Δ³ and good-space seeds 3-5
PINNED_LARGE = "d4c3c46f221bb4dfd3f8179df11f64b2b11b6406eee6f4dc013b858261600488"
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


def test_reduced_complex_report_on_the_30_member_star_cover_is_pinned(monkeypatch):
    """30 members exceed the cap of 20, so the test raises it to 40.
    Setting ``covers.MAX_MEMBERS`` alone would do nothing: ``_nerve_table``'s
    cap and ``classify_cover``'s max_subsets take its value when they are
    defined, so their ``__defaults__`` are raised as well."""
    monkeypatch.setattr(covers, "MAX_MEMBERS", 40)
    monkeypatch.setattr(covers._nerve_table, "__defaults__", (40,))
    defaults = covers.classify_cover.__defaults__
    monkeypatch.setattr(covers.classify_cover, "__defaults__", (40,) + defaults[1:])
    cover = star_cover(sd_boundary(4))
    assert len(cover.members) == 30
    report = check_nerve_theorem(cover, "reduced-complex")
    assert report["hypothesis_verdict"] == "no"
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == PINNED_30

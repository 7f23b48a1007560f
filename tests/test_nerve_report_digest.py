"""Pinned digests of every nerve-theorem report on fixed and seeded covers.

Each flavor runs on each cover; a flavor that does not apply to a cover's
kind, or whose N0 is empty, records the exception type and message instead.
The reports are hashed as written, key order included, so any change to a
verdict, a per-point or per-simplex entry, a bound or a message shows up as
a different hash.
"""

import hashlib
import json

from finspace.covers import FLAVORS, check_nerve_theorem
from finspace.errors import FinspaceError
from finspace.fixtures import circle_arc_cover, finite_circle_cover, two_triangle_cover
from finspace.generators import generate_good_space_cover, generate_strong_good_cover

from helpers import sd_boundary, star_cover

PINNED = "e1515d85e3ade995d3bc09700742be444a018298556f1e427d7ee36a1f0500a2"
# the larger inputs: the 14-member star cover of sd ∂Δ³ and good-space seeds 3-5
PINNED_LARGE = "d4c3c46f221bb4dfd3f8179df11f64b2b11b6406eee6f4dc013b858261600488"


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

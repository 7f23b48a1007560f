"""Internal consistency checks raise InvariantViolation, also under ``python -O``."""

import os
import subprocess
import sys

import pytest

from finspace import collapse as clp
from finspace.collapse import TriStateResult
from finspace.covers import classify_cover
from finspace.errors import FinspaceError, InvariantViolation
from finspace.fixtures import circle_arc_cover
from finspace.persistence import _check_against_betti, persistence_over_chain
from finspace.posets import _ids


def test_invariant_violation_is_a_finspace_error():
    assert issubclass(InvariantViolation, FinspaceError)


def test_tristate_requires_certificate_or_witness():
    with pytest.raises(InvariantViolation):
        TriStateResult("yes")
    with pytest.raises(InvariantViolation):
        TriStateResult("no")
    assert TriStateResult("no", note="empty").verdict == "no"
    assert TriStateResult("unknown").verdict == "unknown"


def test_barcode_disagreeing_with_betti_numbers():
    cover = circle_arc_cover()
    chain = [["U1"], ["U1", "U2"], ["U1", "U2", "U3"]]
    diagram = persistence_over_chain(cover, chain)
    index = cover.parent.index()
    # the circle (step 3) checked in place of the first arc: one bar too many
    circle = _ids(cover._union_mask(chain[-1]))
    with pytest.raises(InvariantViolation):
        _check_against_betti(diagram, index, [circle] * 3)


def test_collapsible_cover_must_classify_good(monkeypatch):
    monkeypatch.setattr(clp, "_after_complex_collapse", lambda res: clp.unknown("forced"))
    with pytest.raises(InvariantViolation):
        classify_cover(circle_arc_cover())


def test_checks_survive_optimized_mode():
    code = (
        "import sys\n"
        "from finspace.collapse import TriStateResult\n"
        "from finspace.errors import InvariantViolation\n"
        "assert False, 'asserts are on'\n"
        "try:\n"
        "    TriStateResult('yes')\n"
        "except InvariantViolation:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "1"]

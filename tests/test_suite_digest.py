"""Pinned digest of ``finspace suite --mode full``.

The report is printed by the CLI, its per-check ``wall_time_s`` dropped,
and hashed re-serialized with sorted keys, so any change to a check's
verdict or ``detail`` (counts, certificates' step totals, homology
summaries) shows up as a different hash.
"""

import hashlib
import json

from finspace.cli import main

PINNED = "0100e325f3cf166c25cfd689c36654b23aa7a568f7e3846da9b0f7be47e9c68a"


def test_full_suite_report_is_pinned(capsys):
    assert main(["suite", "--mode", "full"]) == 0
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        del check["wall_time_s"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED

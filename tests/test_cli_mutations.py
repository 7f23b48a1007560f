"""Seeded mutations of every CLI document keep the input contract.

Every JSON-object input of the CLI digest corpus is mutated, with the
command line it is given to there.  Every key at any depth is deleted or
set to null, 7, "x", [], {}, [[]] or [1, 2]; every list entry is swapped
for a number or a nested list; and the document is also given as text
that is not JSON (cut in half, with a stray bracket, empty) or as JSON
that is not an object.  A fixed seeded sample of the mutations runs in
process.  Bad input must end in exit 2 with one ``error: `` line and
nothing on stdout, never in an exception, and exit 1 must come from one
of the CLI's verification exits, with a report that shows the mismatch.
"""

import json
import random

import pytest

from finspace.cli import main

from test_cli_digest import _corpus

VALUES = [None, 7, "x", [], {}, [[]], [1, 2]]
SWAPS = [7, [[]]]
GONE = object()  # a key deleted rather than set
SAMPLE = 600


def _inputs():
    """(argv, document) per corpus invocation whose input is a JSON object."""
    for argv, text in _corpus():
        if text is None:
            continue
        try:
            doc = json.loads(text)
        except ValueError:
            continue
        if isinstance(doc, dict):
            yield argv, doc


def _places(node, path=()):
    """(path, whether the path ends in a key) for every key of an object
    and every entry of a list, at any depth."""
    entries = node.items() if isinstance(node, dict) else enumerate(node)
    for step, value in entries:
        yield path + (step,), isinstance(node, dict)
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (step,))


def _replaced(doc, path, value):
    """A copy of doc with the entry at path set to value, or deleted."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    if value is GONE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _mutations():
    """(argv, text of in.json) per mutation, in a fixed order."""
    for argv, doc in _inputs():
        for path, is_key in _places(doc):
            for value in [GONE, *VALUES] if is_key else SWAPS:
                yield argv, json.dumps(_replaced(doc, path, value))
        text = json.dumps(doc)
        for broken in (text[: len(text) // 2], text + "]", "", "[]", "7", "null"):
            yield argv, broken


def _verification_mismatch(argv, report) -> bool:
    """Whether the report shows one of the CLI's verification mismatches
    that a document reaches: a failed cylinder collapse, a truncation
    conclusion that fails where it is implied, a certificate that does not
    replay, or a nerve flavour whose hypotheses hold and whose homologies
    differ.  The sixth, a failed suite check, reads no document."""
    command = argv[0]
    if command == "cylinder":
        checks = [report["factor"], report["composite"]] if "factor" in report else [report]
        return any(c["collapse"]["verdict"] == "failed" for c in checks)
    if command != "verify":
        return False
    flavor = argv[1]
    if flavor == "truncation":
        implied = report["strong_good"] == "yes" and not report["has_empty_intersections"]
        holds = report["part1_nerve_homology_match"] and report["part2_subunions_acyclic"]
        return implied and not holds
    if flavor.startswith("replay-"):
        return report == {"replay_ok": False}
    return report["hypothesis_verdict"] == "yes" and not report["conclusion_homology_match"]


def _run(argv, text, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main on argv with text as in.json,
    in the current directory; an exception that escapes main fails."""
    with open("in.json", "w") as fh:
        fh.write(text)
    try:
        code = main(argv + ["--in", "in.json"])
    except Exception as exc:  # the contract: no exception escapes main
        pytest.fail(f"{argv} raised {exc!r} on {text}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_contract(argv, text, code, out, err) -> None:
    where = f"{argv} on {text}"
    assert code in (0, 1, 2), where
    if code == 2:
        assert out == "" and err.startswith("error: "), where
        assert err.count("\n") == 1 and err.endswith("\n"), where
    elif code == 1:
        assert _verification_mismatch(argv, json.loads(out)), where


def test_a_seeded_sample_of_document_mutations_keeps_the_input_contract(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    every = list(_mutations())
    sample = sorted(random.Random(2024).sample(range(len(every)), SAMPLE))
    codes = set()
    for k in sample:
        argv, text = every[k]
        code, out, err = _run(argv, text, capsys)
        _check_contract(argv, text, code, out, err)
        codes.add(code)
    # the sample reaches every exit
    assert codes == {0, 1, 2}

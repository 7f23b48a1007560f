import argparse
import ast
import importlib
import json
import os
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_tier1_workflow_parses():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    job = doc["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12", "3.13"]
    runs = [step.get("run", "") for step in job["steps"]]
    assert any('pip install -e ".[test]"' in r for r in runs)
    assert any("python -m pytest -q --continue-on-collection-errors" in r for r in runs)


def test_tier1_workflow_runs_the_perf_smoke():
    """Each workload's traced pass runs in CI and must end with correct output."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    smoke = [r for r in runs if "perfbench/run.py" in r]
    assert len(smoke) == 1
    for workload in ("homology-exact", "collapse-certify", "cover-nerve"):
        assert workload in smoke[0]
    assert "--seed 1 --seconds 1 --trace 1" in smoke[0]
    assert '["correct"] is True' in smoke[0]
    assert '["hook_errors"] == 0' in smoke[0]
    assert '["missing_functions"]' in smoke[0]


# the functions that left the library; the tracer still lists them
GONE = [
    "homology.rank_fraction_free",
    "homology.betti_numbers_oracle",
    "cylinders.underline_preimage",
    "cylinders.overline_image",
]


@pytest.mark.parametrize(
    "correct, hook_errors, missing, exit_code",
    [
        pytest.param(True, 0, GONE, 0, id="True-0-0"),
        pytest.param(True, 1, GONE, 1, id="True-1-1"),
        pytest.param(False, 0, GONE, 1, id="False-0-1"),
        pytest.param(False, 2, GONE, 1, id="False-2-1"),
        pytest.param(True, 0, [], 0, id="nothing-missing"),
        pytest.param(True, 0, GONE + ["posets.build_poset"], 1, id="traced-function-missing"),
    ],
)
def test_perf_smoke_check_fails_on_wrong_output_or_hook_errors(
    tmp_path, correct, hook_errors, missing, exit_code
):
    """The smoke's check reads the traced report (first, indented JSON
    document) and the result line (last line) that perfbench/run.py prints.
    A listed function the tracer could not find, beyond the oracles that
    left the library, fails it too: a rename would stop its counts."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    smoke = next(r for r in runs if "perfbench/run.py" in r)
    check = next(line for line in smoke.splitlines() if "python3 -c" in line)
    code = shlex.split(check)[-1]
    report = {
        "workload": "w",
        "hook_errors": hook_errors,
        "missing_functions": missing,
        "functions": {},
    }
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1}
    text = json.dumps(report, indent=1) + "\n" + json.dumps(result) + "\n"
    (tmp_path / "smoke.out").write_text(text)
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, timeout=60)
    assert run.returncode == exit_code


def test_perf_smoke_forgives_exactly_the_functions_that_left():
    """The smoke's allow-list of untraced functions (the set literal in its
    check) is GONE: an extra entry there would let a rename zero its counts
    with no failure."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    smoke = next(r for r in runs if "perfbench/run.py" in r)
    check = next(line for line in smoke.splitlines() if "python3 -c" in line)
    sets = [n for n in ast.walk(ast.parse(shlex.split(check)[-1])) if isinstance(n, ast.Set)]
    assert len(sets) == 1
    allowed = ast.literal_eval(sets[0])
    assert allowed == set(GONE) and len(GONE) == len(set(GONE))


def _tracer_layers() -> dict:
    """LAYERS of perfbench/tracer.py, read from its source without running
    the tracer."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    node = next(
        n for n in tree.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["LAYERS"]
    )
    return ast.literal_eval(node.value)


def test_tracer_finds_every_listed_function():
    """Each LAYERS entry resolves by the tracer's own rule: the name in
    finspace.<layer>, or the method on its class there.  A rename fails
    here, naming the entry, instead of silently zeroing its counts."""
    untraced = []
    for layer, names in _tracer_layers().items():
        module = importlib.import_module(f"finspace.{layer}")
        for qual in names:
            owner, _, attr = qual.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if holder is None or vars(holder).get(attr) is None:
                untraced.append(f"{layer}.{qual}")
    missing = sorted(set(untraced) - set(GONE))
    assert not missing, f"untraced LAYERS entries: {missing}"


def test_every_export_resolves_once():
    """Each name in finspace.__all__ is bound on the package and listed
    once, so deleting a function cannot leave a dangling export."""
    finspace = importlib.import_module("finspace")
    names = finspace.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(finspace, n)] == []


def test_tier1_workflow_runs_the_full_suite_after_the_tests():
    """The end-to-end suite runs in full mode; a failed check exits non-zero."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    tier1 = next(i for i, r in enumerate(runs) if "python -m pytest" in r)
    suite = [i for i, r in enumerate(runs) if "finspace suite --mode full" in r]
    assert len(suite) == 1 and suite[0] > tier1


def _readme_flavor_table() -> dict:
    """flavor -> (cover kind or None for "either", mode, nerve object), from
    the README's table of nerve-theorem flavors."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| flavor | cover kind | mode | nerve object |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        flavor, kind, mode, nerve_object = (cell.strip() for cell in line.strip("|").split("|"))
        table[flavor.strip("`")] = (None if kind == "either" else kind, mode, nerve_object)
    return table


def test_flavors_agree_across_readme_library_and_parser():
    """The README lists covers.FLAVORS, rows in order, and `verify` offers
    exactly those flavors plus the three other checks."""
    flavors = importlib.import_module("finspace.covers").FLAVORS
    assert list(_readme_flavor_table().items()) == list(flavors.items())
    parser = importlib.import_module("finspace.cli").build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = commands.choices["verify"]
    choices = next(a.choices for a in verify._actions if a.dest == "flavor")
    assert choices == list(flavors) + ["truncation", "replay-complex", "replay-space"]

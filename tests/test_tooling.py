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
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
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


@pytest.mark.parametrize(
    "correct, hook_errors, exit_code",
    [(True, 0, 0), (True, 1, 1), (False, 0, 1), (False, 2, 1)],
)
def test_perf_smoke_check_fails_on_wrong_output_or_hook_errors(
    tmp_path, correct, hook_errors, exit_code
):
    """The smoke's check reads the traced report (first, indented JSON
    document) and the result line (last line) that perfbench/run.py prints."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    smoke = next(r for r in runs if "perfbench/run.py" in r)
    check = next(line for line in smoke.splitlines() if "python3 -c" in line)
    code = shlex.split(check)[-1]
    report = {"workload": "w", "hook_errors": hook_errors, "functions": {}}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1}
    text = json.dumps(report, indent=1) + "\n" + json.dumps(result) + "\n"
    (tmp_path / "smoke.out").write_text(text)
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, timeout=60)
    assert run.returncode == exit_code


def test_tier1_workflow_runs_the_full_suite_after_the_tests():
    """The end-to-end suite runs in full mode; a failed check exits non-zero."""
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        doc = yaml.safe_load(fh)
    runs = [step.get("run", "") for step in doc["jobs"]["tests"]["steps"]]
    tier1 = next(i for i, r in enumerate(runs) if "python -m pytest" in r)
    suite = [i for i, r in enumerate(runs) if "finspace suite --mode full" in r]
    assert len(suite) == 1 and suite[0] > tier1

import os

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

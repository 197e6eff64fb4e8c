"""``.github/workflows/ci.yml`` is checked, not just read.

The workflow grew 613 → 713 lines by every PR appending its own ``cmp``
loop; it now runs one conformance script instead.  These tests keep it
that way: a line ceiling, every repository path a step names exists,
and artifacts are compared (and faults injected) in the ``conformance``
job only.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def run_steps():
    """``(job, step name, script)`` of every ``run:`` step."""
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return [
        (job, step.get("name", ""), step["run"])
        for job, body in jobs.items()
        for step in body["steps"]
        if "run" in step
    ]


def test_stays_under_the_line_ceiling():
    assert len(WORKFLOW.read_text().splitlines()) <= 400


def test_every_path_a_step_names_exists():
    named = {
        path
        for _, _, script in run_steps()
        for path in re.findall(
            r"\b(?:tests|tools|benchmarks|examples)/[\w./-]*\w", script
        )
    }
    assert "tools/conformance.py" in named and len(named) > 5
    # BENCH_*.json sidecars are written by the benchmark step before.
    missing = sorted(
        path
        for path in named
        if not (ROOT / path).exists() and "/results/" not in path
    )
    assert not missing


def test_only_the_conformance_job_compares_artifacts():
    offenders = [
        (job, name)
        for job, name, script in run_steps()
        if job != "conformance" and re.search(r"\bcmp |REPRO_FAULTS=", script)
    ]
    assert not offenders
    conformance = [script for job, _, script in run_steps() if job == "conformance"]
    assert any("tools/conformance.py" in script for script in conformance)

"""The JSON wire schema of the prep service.

One submission payload = one workload name + the CLI's pipeline knobs
(flat, not nested — the knob names are exactly the ``repro.cli``
option names with dashes as underscores) + scheduling fields::

    {
        "workload": "fzp",
        "pec": true,
        "field_size": 15.0,
        "machine": "raster",
        "priority": 5
    }

Parsing is strict: unknown keys, wrong types and invalid values are
:class:`SchemaError`\\ s, which the HTTP layer turns into ``400``
responses with the message in the body.  Valid payloads become a
:class:`JobSpec` wrapping a :class:`~repro.core.recipe.PrepRecipe` —
the same validated value object the CLI builds its pipeline from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.recipe import PrepRecipe, number_complaint
from repro.service.jobs import Job


class SchemaError(ValueError):
    """A submission payload that cannot become a job (HTTP 400)."""


#: Submission keys that are scheduling/naming concerns, not pipeline
#: knobs (everything else in a payload must be a PrepRecipe field).
_SPEC_KEYS = ("workload", "priority", "name", "timeout", "retries")


@dataclass(frozen=True)
class JobSpec:
    """A validated submission: what to prepare, how, and how urgently.

    Attributes:
        workload: built-in workload name (see
            :data:`repro.layout.generators.WORKLOADS`).
        recipe: the full pipeline-knob set.
        priority: scheduling priority — higher runs earlier (FIFO
            within a class); default 0.
        name: job name; defaults to the workload name, matching
            ``repro.cli demo`` (artifact bytes never depend on it).
        timeout: per-job wall-clock budget in seconds; a run exceeding
            it is stopped at the next shard boundary and the job fails
            (``None`` = no limit).
        retries: whole-job re-run attempts after an unexpected failure
            (timeouts and cancellations are never retried); default 0.
    """

    workload: str
    recipe: PrepRecipe
    priority: int = 0
    name: Optional[str] = None
    timeout: Optional[float] = None
    retries: int = 0

    @property
    def job_name(self) -> str:
        return self.name or self.workload


def known_workloads() -> list:
    """The submittable workload names, sorted."""
    from repro.layout import generators

    return sorted(generators.WORKLOADS)


def parse_job_spec(payload) -> JobSpec:
    """Validate a decoded JSON payload into a :class:`JobSpec`.

    Raises:
        SchemaError: non-object payload, missing/unknown workload,
            unknown keys, or any invalid knob value.
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"job payload must be a JSON object, got {type(payload).__name__}"
        )
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise SchemaError("'workload' is required and must be a string")
    workloads = known_workloads()
    if workload not in workloads:
        raise SchemaError(
            f"unknown workload {workload!r}; choose from {workloads}"
        )
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise SchemaError(f"'priority' must be an integer, got {priority!r}")
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"'name' must be a string, got {name!r}")
    timeout = payload.get("timeout")
    why = None if timeout is None else number_complaint(timeout)
    if why:
        raise SchemaError(f"'timeout' {why}, got {timeout!r}")
    retries = payload.get("retries", 0)
    if isinstance(retries, bool) or not isinstance(retries, int):
        raise SchemaError(f"'retries' must be an integer, got {retries!r}")
    if retries < 0:
        raise SchemaError(f"'retries' must be >= 0, got {retries!r}")
    knobs = {k: v for k, v in payload.items() if k not in _SPEC_KEYS}
    try:
        recipe = PrepRecipe.from_dict(knobs)
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from exc
    return JobSpec(
        workload=workload,
        recipe=recipe,
        priority=priority,
        name=name,
        timeout=timeout,
        retries=retries,
    )


def job_view(job: Job) -> dict:
    """The JSON representation served by ``GET /jobs/{id}``.

    A done job's ``result.execution`` is
    :meth:`ExecutionStats.to_json() <repro.core.stats.ExecutionStats.to_json>`
    — generated from the stats schema, not listed here: run-level keys
    at the top (the fast-kernel degradation counters among them — a
    nonzero value means part of the job ran on a slower exact path even
    though the recipe asked for the fast kernel), ``faults`` always,
    ``memory`` for a streamed run, ``dist`` for a distributed one and
    the per-cell reuse counters for ``hierarchy="cells"``.
    """
    view = {
        "id": job.id,
        "state": job.state,
        "workload": job.spec.workload,
        "name": job.spec.job_name,
        "priority": job.spec.priority,
        "timeout": job.spec.timeout,
        "retries": job.spec.retries,
        "attempts": job.attempts,
        "cancel_requested": job.cancel_requested,
        "recipe": job.spec.recipe.to_dict(),
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "progress": {
            "shards_done": job.shards_done,
            "shards_total": job.shards_total,
        },
        "error": job.error,
        "result": job.result,
    }
    if job.state == "done":
        artifacts = {"result": f"/jobs/{job.id}/result"}
        if job.program_path is not None:
            artifacts["program"] = f"/jobs/{job.id}/result?artifact=program"
        view["artifacts"] = artifacts
    return view

"""The JSON wire schema of the prep service.

One submission payload = one workload name + the pipeline knobs (flat,
not nested — the keys are the :class:`~repro.core.recipe.PrepRecipe`
field names, from which the ``repro.cli`` flags are generated: dashes
for underscores, and ``streaming`` is ``--stream``) + scheduling
fields::

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

from dataclasses import dataclass, fields
from typing import Optional

from repro.core.recipe import (
    COUNT,
    INTEGER,
    OPTIONAL_POSITIVE,
    OPTIONAL_STRING,
    PrepRecipe,
    knob,
    validate,
)
from repro.layout import generators
from repro.service.jobs import Job


class SchemaError(ValueError):
    """A submission payload that cannot become a job (HTTP 400)."""


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
            it is stopped when the budget runs out — a pool wait, a
            backoff or the fleet's wait is cut short, the in-process
            serial rung stops at its next shard boundary — and the job
            fails (``None`` = no limit).
        retries: whole-job re-run attempts after an unexpected failure
            (timeouts and cancellations are never retried); default 0.
    """

    workload: str
    recipe: PrepRecipe
    priority: int = knob(0, INTEGER)
    name: Optional[str] = knob(None, OPTIONAL_STRING)
    timeout: Optional[float] = knob(None, OPTIONAL_POSITIVE)
    retries: int = knob(0, COUNT)

    def __post_init__(self) -> None:
        validate(self, SchemaError, quote="'")

    @property
    def job_name(self) -> str:
        return self.name or self.workload


def parse_job_spec(payload) -> JobSpec:
    """Validate a decoded JSON payload into a :class:`JobSpec`: the
    scheduling keys are :class:`JobSpec`'s own knobs, every other key
    must be a :class:`~repro.core.recipe.PrepRecipe` field.

    Raises:
        SchemaError: non-object payload, missing/unknown workload,
            unknown keys, or any invalid knob value.
    """
    if not isinstance(payload, dict):
        raise SchemaError(
            f"job payload must be a JSON object, got {type(payload).__name__}"
        )
    knobs = dict(payload)
    workload = knobs.pop("workload", None)
    if not isinstance(workload, str) or not workload:
        raise SchemaError("'workload' is required and must be a string")
    scheduling = {
        f.name: knobs.pop(f.name)
        for f in fields(JobSpec)
        if "kind" in f.metadata and f.name in knobs
    }
    try:
        generators.workload(workload)
        recipe = PrepRecipe.from_dict(knobs)
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc)) from exc
    return JobSpec(workload=workload, recipe=recipe, **scheduling)


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

"""Prep-as-a-service: the HTTP job server over the preparation pipeline.

The batch CLI prepares one layout per invocation; this package turns
the same pipeline into a long-running shared facility — the operating
model of an e-beam data-prep installation, where many designs queue
against one preparation flow and one machine:

* :mod:`repro.service.schemas` — the JSON job-submission schema, parsed
  into a :class:`~repro.core.recipe.PrepRecipe` (the exact knob set the
  CLI exposes, built through the same code path).
* :mod:`repro.service.jobs` — the thread-safe in-memory job store and
  the job state machine (``queued → running → done | failed``, or
  ``cancelled`` by a ``DELETE``: at once while queued, at the run's next
  deadline check while running).
* :mod:`repro.service.queue` — the priority job queue with a
  concurrency limit, draining onto the persistent worker pool.
* :mod:`repro.service.runner` — runs one job through the pipeline with
  the server's *shared* content-addressed shard cache, so identical
  shards are never recomputed twice for anyone.
* :mod:`repro.service.health` — liveness/readiness probes.
* :mod:`repro.service.app` — the stdlib HTTP front-end
  (:func:`~repro.service.app.create_server`) binding it all together.

Determinism contract: a job submitted over HTTP produces byte-identical
``.ebj``/``.ebp`` artifacts and digests to the same job run via the
CLI — both front-ends build their pipeline from one
:class:`~repro.core.recipe.PrepRecipe`, and neither artifact format
embeds names, paths or timestamps.
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "PrepServer": "app",
        "create_server": "app",
        "Job": "jobs",
        "JobStore": "jobs",
        "JobQueue": "queue",
        "JobRunner": "runner",
        "SchemaError": "schemas",
        "parse_job_spec": "schemas",
    },
)

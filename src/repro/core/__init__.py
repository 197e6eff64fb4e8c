"""Core pipeline: layout in, machine job and reports out.

This package is the paper's primary contribution — the data-preparation
flow that connects all the substrates:

1. flatten the hierarchy (:mod:`repro.layout.flatten`),
2. merge geometry per layer (boolean union),
3. fracture into machine figures (:mod:`repro.fracture`),
4. proximity-correct shot doses (:mod:`repro.pec`),
5. emit a :class:`~repro.core.job.MachineJob` and estimate writing time
   on any :class:`~repro.machine.base.Machine`,
6. optionally verify fidelity by exposure simulation
   (:mod:`repro.core.metrics`).
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "CacheDegradedWarning": "executor",
        "CacheStats": "cache",
        "ExecutionResult": "executor",
        "ExecutionStats": "stats",
        "FaultPlan": "faults",
        "FaultyCache": "faults",
        "HierarchicalFractureResult": "hierarchical",
        "InjectedFaultError": "faults",
        "RetryPolicy": "ladder",
        "Shard": "plan",
        "TransientFaultError": "faults",
        "ShardCache": "cache",
        "ShardOverlapWarning": "plan",
        "fingerprint": "cache",
        "fracture_hierarchical": "hierarchical",
        "plan_shards": "plan",
        "shard_cache_key": "cache",
        "shutdown_worker_pool": "ladder",
        "warm_worker_pool": "ladder",
        "MachineJob": "job",
        "PreparationPipeline": "pipeline",
        "PipelineResult": "pipeline",
        "FidelityReport": "metrics",
        "fidelity_report": "metrics",
        "FieldedJob": "fields",
        "partition_fields": "fields",
        "order_shots": "fields",
        "deflection_travel": "fields",
        "read_job": "jobfile",
        "write_job": "jobfile",
        "dumps_job": "jobfile",
        "loads_job": "jobfile",
    },
)

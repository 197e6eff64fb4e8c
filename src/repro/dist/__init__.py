"""Distributed shard execution: lease queue, worker daemons, protocol.

The single-host execution engine (:mod:`repro.core.executor`) already
made shard work units content-addressed, picklable and
byte-deterministic; this package adds the scheduling layer that lets
*other processes and hosts* compute them.  A coordinator
(:mod:`repro.dist.coordinator`) hands out leases over a tiny
length-prefixed TCP protocol (:mod:`repro.dist.protocol`); worker
daemons (:mod:`repro.dist.worker`) pull leases, execute shards through
the exact per-shard entry point the local pool uses, and commit the
serialized results back.  Because a shard's bytes depend only on its
inputs, at-least-once delivery is safe by construction: duplicate
commits carry identical bytes and are discarded, so leases can be
reclaimed, re-granted and speculatively re-executed without ever
changing the output — the distributed run stays byte-identical to a
serial one.
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "CoordinatorServer": "coordinator",
        "DistPolicy": "coordinator",
        "LeaseQueue": "coordinator",
        "ProtocolError": "protocol",
        "WorkerDaemon": "worker",
        "coordinator_for": "coordinator",
        "parse_endpoint": "protocol",
        "shutdown_coordinators": "coordinator",
    },
)

"""Sharded serve cluster: a consistent-hash front door over N workers.

``repro.cluster`` scales the serving tier *out* the way the paper scales
aggregate NoC bandwidth — by overlaying parallel resources over one
substrate instead of fattening a single channel.  Three layers (see
``docs/serving.md`` for the operator's view):

* :mod:`repro.cluster.ring` — a seeded consistent-hash ring with virtual
  nodes.  Job digests map deterministically onto shards, so request
  coalescing and warm-cache locality survive sharding: every request
  for one cell lands on the same worker, whose scheduler coalesces it.
  When a shard drains or dies its keys remap to ring successors; every
  other key stays put.
* :mod:`repro.cluster.router` — the front door, served by the worker's
  own :class:`~repro.serve.http.ServeServer`.  It consistent-hashes
  ``/v1/simulate`` bodies onto shards and proxies over pooled
  keep-alive connections, fans ``/v1/sweep`` grids out
  cell-by-cell to each cell's owner (streaming NDJSON progress exactly
  like a worker), aggregates ``/healthz`` and ``/metrics`` across
  shards, serves a ``/cluster`` status endpoint, and answers
  503 + ``Retry-After`` only when *no* shard can take a key.
* :mod:`repro.cluster.supervisor` — ``repro serve --workers N``.
  Spawns worker processes on successive ports (per-shard result-store
  directories over one shared read-through tier), monitors
  ``/healthz``, marks unhealthy shards draining (ring removal;
  in-flight requests settle), and restarts dead workers with backoff.

Quick start (in-process, ephemeral ports)::

    from repro.cluster import Cluster
    from repro.serve import ServeClient

    cluster = Cluster(workers=2, fast=True)
    port = cluster.start()                  # router port
    client = ServeClient(port=port)
    client.simulate(design="baseline", workload="uniform")
    cluster.stop()

Or from the shell: ``repro serve --workers 4``.
"""

from repro.cluster.ring import HashRing
from repro.cluster.router import (
    ClusterRouter, Shard, ShardProxyError, SHARD_STATES,
)
from repro.cluster.supervisor import Cluster, WorkerSupervisor, WorkerHandle

__all__ = [
    "Cluster",
    "ClusterRouter",
    "HashRing",
    "SHARD_STATES",
    "Shard",
    "ShardProxyError",
    "WorkerHandle",
    "WorkerSupervisor",
]

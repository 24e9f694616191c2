"""The ``repro serve`` analysis service.

A long-lived asyncio front-end over the analysis pipeline: one process
imports the toolchain once, keeps every cache tier warm, and serves
analysis requests over a newline-delimited-JSON TCP protocol.  The
request lifecycle is::

    admit → coalesce → schedule → infer → cache

* :mod:`repro.service.server` — the :class:`AnalysisService` core
  (request normalization, in-flight coalescing, response shaping) and the
  :class:`AnalysisServer` TCP front-end, which handles every request on
  a connection concurrently (id-tagged replies as they finish, id-less
  ones in request order);
* :mod:`repro.service.scheduler` — the bounded priority queue feeding the
  reusable :class:`repro.analysis.batch.PoolHandle`, with deadlines and
  load shedding;
* :mod:`repro.service.cluster` — the worker-process fleet and the
  consistent-hash ring behind ``repro serve --workers N``;
* :mod:`repro.service.router` — the front-end that shards requests over
  the fleet by content key, with supervision and hot restarts;
* :mod:`repro.service.client` — the blocking client behind ``repro
  query``: one class that issues one request at a time or keeps many in
  flight on a connection, with one retry path;
* :mod:`repro.service.resilience` — retry/backoff policies, per-slot
  circuit breakers and deadline propagation (see ``docs/robustness.md``
  and :mod:`repro.faults` for the deterministic chaos layer).

See the "Service layer" and "Cluster layer" sections of
``docs/architecture.md`` for the data-flow diagrams and
``repro.perf.service_bench`` for the load generator that produces
``BENCH_service.json``.
"""

from .client import DEFAULT_PORT, ServiceClient, ServiceError
from .cluster import AnalysisCluster, ClusterConfig, HashRing, WorkerHandle
from .resilience import CircuitBreaker, RetryPolicy
from .router import RouterServer
from .scheduler import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    DeadlineExceeded,
    Scheduler,
    SchedulerBusy,
)
from .server import AnalysisServer, AnalysisService, ServiceConfig

__all__ = [
    "AnalysisCluster",
    "AnalysisServer",
    "AnalysisService",
    "CircuitBreaker",
    "ClusterConfig",
    "DEFAULT_PORT",
    "DeadlineExceeded",
    "HashRing",
    "PRIORITY_BULK",
    "PRIORITY_INTERACTIVE",
    "RetryPolicy",
    "RouterServer",
    "Scheduler",
    "SchedulerBusy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "WorkerHandle",
]

"""Worker-process fleet and consistent-hash ring for the clustered service.

One :class:`AnalysisCluster` owns N worker *processes*, each running the
unmodified single-process server core (:class:`~repro.service.server.
AnalysisServer`, inference in-process) on a loopback port of its own.  The
router (:mod:`repro.service.router`) consistent-hashes every request's
content key onto one worker, so each worker sees a stable slice of the
key space and its :class:`~repro.core.inference.JudgementMemo`,
result cache and parse memo all stay hot for *its* keys — shard
affinity is what makes a process fleet better than a process pool.

Design notes
------------

* **Spawn, not fork.**  The parent runs an asyncio loop and executor
  threads that hold intern-table locks; a forked child could inherit a
  lock mid-acquisition and deadlock.  Workers are started through the
  ``spawn`` multiprocessing context (a fresh interpreter, the service
  config pickled across) and report their bound port back over a pipe.
* **Slot-stable identity.**  The hash ring is built over slot *indices*,
  not process ids or ports: a respawned worker re-occupies its slot, so
  routing is unchanged across crashes and rolling restarts.
* **Disk-cache handoff.**  Each slot owns a cache directory
  (``<cache_dir>/worker-<slot>``).  A respawned or hot-replaced worker
  reuses its predecessor's directory, so the disk tier carries the warm
  state across the process boundary — the first repeat request after a
  crash is a disk hit, not a re-inference.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .server import ServiceConfig

__all__ = [
    "AnalysisCluster",
    "ClusterConfig",
    "HashRing",
    "WorkerHandle",
    "DEFAULT_VIRTUAL_NODES",
]

DEFAULT_VIRTUAL_NODES = 64

#: Seconds to wait for a spawned worker to report its port.
SPAWN_TIMEOUT = 60.0
#: Supervision cadence and ping patience (router-side), in seconds.
PING_INTERVAL = 2.0
PING_TIMEOUT = 15.0
#: Most router-side requests outstanding per worker before new ones are
#: shed with ``busy`` (the worker's own queue bound still applies behind
#: this).
MAX_PENDING_PER_WORKER = 8192
#: Consecutive failures that open a worker slot's circuit breaker
#: (router-side; the supervision ping is the half-open probe).
BREAKER_FAILURES = 5


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------


class HashRing:
    """Consistent-hash ring over worker slots, with virtual nodes.

    Each slot contributes ``virtual_nodes`` points on a 64-bit ring;
    a key routes to the slot owning the first point at or after the
    key's own hash.  With enough virtual nodes the key space splits
    near-uniformly, and adding or removing one slot remaps only the
    arcs adjacent to that slot's points — about ``1/N`` of all keys —
    instead of reshuffling everything the way ``hash(key) % N`` would.

    Deterministic by construction (:mod:`hashlib`, no process-seeded
    ``hash``): every router instance, every process, every run routes a
    given key identically.
    """

    def __init__(
        self,
        slots: Sequence[int],
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        if not slots:
            raise ValueError("a hash ring needs at least one slot")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self.slots = tuple(slots)
        points: List[Tuple[int, int]] = []
        for slot in self.slots:
            for replica in range(virtual_nodes):
                points.append((self._hash(f"slot:{slot}:{replica}"), slot))
        points.sort()
        self._hashes = [point for point, _slot in points]
        self._owners = [slot for _point, slot in points]

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def lookup(self, key: str) -> int:
        """The slot owning ``key`` (stable across processes and runs)."""
        point = self._hash(key)
        index = bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._owners[index]


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _cluster_worker_main(slot: int, pipe, config: ServiceConfig, host: str) -> None:
    """Entry point of one worker process: serve until shutdown.

    Runs in a fresh ``spawn`` interpreter.  Binds an ephemeral port,
    reports it through ``pipe``, then serves the standard protocol —
    the router talks to it exactly like any other client would.
    """
    import asyncio

    from ..obs.logs import configure_logging
    from .server import AnalysisServer, AnalysisService

    # Each spawned worker configures its own stderr logging, stamped with
    # its slot so interleaved cluster logs stay attributable.
    configure_logging(
        config.log_level, config.log_json, process_name=f"worker-{slot}"
    )

    async def serve() -> None:
        server = AnalysisServer(AnalysisService(config), host=host, port=0)
        try:
            bound_host, port = await server.start()
        except Exception as error:
            pipe.send(("error", f"{type(error).__name__}: {error}"))
            pipe.close()
            return
        pipe.send(("ready", port))
        pipe.close()
        await server.serve_forever()

    asyncio.run(serve())


@dataclass
class WorkerHandle:
    """One live worker process and the slot identity it occupies."""

    slot: int
    process: Any
    port: int
    cache_dir: Optional[str]
    generation: int = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def terminate(self, timeout: float = 5.0) -> None:
        """Stop the process: SIGTERM, then SIGKILL if it lingers."""
        process = self.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout)
        # Release the process object's pipe/sentinel file descriptors.
        process.close()
        self.process = None

    def kill(self) -> None:
        """SIGKILL immediately (fault injection uses this too)."""
        process = self.process
        if process is None:
            return
        if process.is_alive():
            process.kill()
            process.join(5.0)
        process.close()
        self.process = None


@dataclass
class ClusterConfig:
    """Tunables for one worker fleet."""

    workers: int = 2
    #: Template for every worker's service core.  ``cache_dir`` is
    #: treated as the *base* directory: slot ``i`` stores its disk tier
    #: under ``<cache_dir>/worker-<i>``.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    host: str = "127.0.0.1"


class AnalysisCluster:
    """N slot-stable worker processes plus the ring that addresses them.

    Process lifecycle only — connection management, routing and
    supervision policy live in :class:`~repro.service.router.RouterServer`.
    All methods here are synchronous and blocking (they join processes
    and wait on pipes); async callers run them in an executor.
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.ring = HashRing(range(self.config.workers))
        self.handles: List[Optional[WorkerHandle]] = [None] * self.config.workers
        self.restarts = 0
        self._context = multiprocessing.get_context("spawn")

    # -- configuration -------------------------------------------------------

    def worker_config(self, slot: int) -> ServiceConfig:
        """The service configuration slot ``slot``'s processes run."""
        template = self.config.service
        cache_dir = template.cache_dir
        if cache_dir is not None:
            cache_dir = os.path.join(cache_dir, f"worker-{slot}")
        # The worker's pipeline window must exceed the router's pending
        # cap: the router sheds with ``busy`` *before* the worker's
        # connection reader would ever block, so health-check pings are
        # never stuck behind a stalled window.
        window = max(template.pipeline_window, 2 * MAX_PENDING_PER_WORKER)
        return replace(template, cache_dir=cache_dir, pipeline_window=window)

    # -- lifecycle -----------------------------------------------------------

    def spawn(self, slot: int) -> WorkerHandle:
        """Start (or restart) the worker for ``slot``; blocks until ready.

        The new process reuses the slot's cache directory, so whatever
        its predecessor persisted is immediately servable — the
        disk-cache handoff of a respawn or rolling restart.
        """
        if not 0 <= slot < self.config.workers:
            raise ValueError(f"no such worker slot: {slot}")
        previous = self.handles[slot]
        generation = previous.generation + 1 if previous is not None else 0
        config = self.worker_config(slot)
        if config.cache_dir is not None:
            os.makedirs(config.cache_dir, exist_ok=True)
        parent_pipe, child_pipe = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_cluster_worker_main,
            args=(slot, child_pipe, config, self.config.host),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_pipe.close()
        try:
            if not parent_pipe.poll(SPAWN_TIMEOUT):
                raise RuntimeError(
                    f"worker {slot} did not report a port within "
                    f"{SPAWN_TIMEOUT:.0f}s"
                )
            status, value = parent_pipe.recv()
        except (EOFError, OSError, RuntimeError) as error:
            process.terminate()
            process.join(5.0)
            raise RuntimeError(f"worker {slot} failed to start: {error}") from error
        finally:
            parent_pipe.close()
        if status != "ready":
            process.terminate()
            process.join(5.0)
            raise RuntimeError(f"worker {slot} failed to start: {value}")
        handle = WorkerHandle(
            slot=slot,
            process=process,
            port=value,
            cache_dir=config.cache_dir,
            generation=generation,
        )
        self.handles[slot] = handle
        if generation > 0:
            self.restarts += 1
        return handle

    def start(self) -> List[WorkerHandle]:
        """Spawn every slot that is not already running."""
        for slot in range(self.config.workers):
            handle = self.handles[slot]
            if handle is None or not handle.alive:
                self.spawn(slot)
        return [handle for handle in self.handles if handle is not None]

    def stop(self) -> None:
        """Terminate every worker process."""
        for handle in self.handles:
            if handle is not None:
                handle.terminate()
        self.handles = [None] * self.config.workers

    # -- addressing ----------------------------------------------------------

    def slot_for(self, key: str) -> int:
        return self.ring.lookup(key)

    def handle_for(self, key: str) -> Optional[WorkerHandle]:
        return self.handles[self.ring.lookup(key)]

    # -- reporting -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "workers": self.config.workers,
            "virtual_nodes": self.ring.virtual_nodes,
            "restarts": self.restarts,
            "slots": [
                {
                    "slot": index,
                    "alive": handle.alive if handle is not None else False,
                    "port": handle.port if handle is not None else None,
                    "generation": handle.generation if handle is not None else None,
                    "cache_dir": handle.cache_dir if handle is not None else None,
                }
                for index, handle in enumerate(self.handles)
            ],
        }

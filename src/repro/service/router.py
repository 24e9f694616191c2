"""Front-end router of the clustered analysis service.

:class:`RouterServer` accepts the exact NDJSON protocol of
:class:`~repro.service.server.AnalysisServer` — sequential clients,
pipelined (id-tagged) clients, every op — and fans requests out over the
worker fleet of an :class:`~repro.service.cluster.AnalysisCluster`:

* ``analyze`` / ``validate`` requests are normalized to their
  content-addressed key (the same
  :func:`~repro.service.server.normalize_request_key` the workers use)
  and consistent-hashed onto one worker slot.  Repeat bodies skip the
  normalization through a bounded route memo, so the steady-state cost
  of routing is a dictionary probe and two byte splices.
* Every forwarded request travels pipelined with a router-assigned
  correlation id; the worker echoes the id as the first bytes of its
  response line, so the router re-addresses responses to clients by
  rewriting that prefix — report payloads cross the router as opaque
  bytes, never re-decoded.
* ``ping`` / ``stats`` / ``shutdown`` are answered by the router itself;
  ``stats`` aggregates every worker's counters (summed service, cache,
  scheduler and judgement-memo blocks) plus a ``cluster`` block and the
  per-worker detail.

Supervision: a per-slot watchdog pings workers and watches process
liveness.  When a worker dies, its in-flight requests fail fast with a
*retryable* ``{"status":"error","code":503,"retryable":true}`` response
(clients get an answer, never a hang), the slot is respawned on its old
cache directory (disk handoff — repeats of the failed keys come back as
disk hits), and requests that arrived during the restart are queued and
re-dispatched to the fresh process.  :meth:`RouterServer.rolling_restart`
hot-replaces workers one slot at a time with the same handoff.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.cache import AnalysisCache, _LRU
from ..obs.metrics import MetricsRegistry, render_prometheus
from ..obs.trace import requested_trace_id
from .cluster import AnalysisCluster, ClusterConfig, WorkerHandle
from .resilience import CircuitBreaker, decrement_deadline
from .server import (
    MAX_REQUEST_BYTES,
    _PipelineWriter,
    frame_response,
    normalize_request_key,
    split_pipeline_id,
)

__all__ = ["RouterServer"]

logger = logging.getLogger(__name__)

#: Bound of the route memo (request-body bytes → worker slot).
ROUTE_MEMO_ENTRIES = 8192

#: How long a worker may take to answer an aggregated-stats probe.
STATS_TIMEOUT = 30.0


def _retryable_error(message: str) -> Dict[str, Any]:
    return {
        "status": "error",
        "code": 503,
        "error": message,
        "retryable": True,
    }


@dataclass
class _Pending:
    """One forwarded request awaiting its worker response."""

    link: "_WorkerLink"
    #: The id-stripped request body (leading ``,``), kept for accounting
    #: and debuggability; responses are routed purely by the entry.
    body: bytes
    #: Pipelined client: the link to write to plus the client's own id.
    client: Optional["_ClientLink"] = None
    client_id: Any = None
    #: ``True`` when the client id can be byte-spliced (a plain int).
    raw: bool = True
    #: Sequential clients and internal probes resolve a future instead.
    future: Optional["asyncio.Future"] = None
    #: Internal probes (stats, pings) want the decoded object.
    internal: bool = False
    #: Traced request: the propagated trace id plus the router-side spans
    #: to splice in front of the worker's spans in the response.
    trace_id: Optional[str] = None
    trace_spans: Optional[List[Dict[str, Any]]] = None


class _ClientLink:
    """One accepted client connection: reader state + batched writer."""

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        window: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._metrics = metrics
        self.pipeline = _PipelineWriter(writer, window)
        self.pipeline.start()
        # FIFO of response futures for the sequential (no-id) protocol:
        # a dedicated task writes them strictly in request order, so a
        # pre-pipelining client sees exactly the old wire behaviour even
        # while its requests run on different workers.
        self.ordered: "deque[asyncio.Future]" = deque()
        self._ordered_wake = asyncio.Event()
        self._ordered_task: Optional[asyncio.Task] = None
        self.closed = False

    def send(self, data: bytes) -> None:
        self.pipeline.send(data)

    def submit_ordered(self, future: "asyncio.Future") -> None:
        self.ordered.append(future)
        self._ordered_wake.set()
        if self._ordered_task is None:
            self._ordered_task = asyncio.get_running_loop().create_task(
                self._ordered_writer()
            )

    async def _ordered_writer(self) -> None:
        while True:
            if not self.ordered:
                self._ordered_wake.clear()
                await self._ordered_wake.wait()
                continue
            future = self.ordered.popleft()
            try:
                data = await future
            except asyncio.CancelledError:
                raise
            except Exception as error:  # pragma: no cover - futures carry bytes
                # A response producer failed: the sequential client gets
                # nothing for this request, which desynchronizes its
                # request/response pairing — worth more than silence.
                logger.warning(
                    "dropping ordered response: %s: %s",
                    type(error).__name__, error,
                )
                if self._metrics is not None:
                    self._metrics.counter(
                        "repro_router_dropped_responses_total",
                        "Ordered responses dropped because their producer failed.",
                    ).inc()
                continue
            self.send(data)

    async def close(self) -> None:
        self.closed = True
        if self._ordered_task is not None:
            self._ordered_task.cancel()
            try:
                await self._ordered_task
            except asyncio.CancelledError:
                pass
            self._ordered_task = None
        await self.pipeline.close()


class _WorkerLink:
    """The router's pipelined connection to one worker slot.

    Survives the worker process it talks to: when the process dies the
    link drops to ``restarting``, queues new frames in a bounded backlog,
    and resumes on the respawned process — slot identity (and therefore
    routing) never changes.
    """

    def __init__(self, router: "RouterServer", slot: int) -> None:
        self.router = router
        self.slot = slot
        self.state = "down"  # down | up | restarting
        self.outstanding: set = set()
        self.backlog: "deque[Tuple[int, bytes]]" = deque()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pipeline: Optional[_PipelineWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self.generation = -1

    @property
    def pending(self) -> int:
        return len(self.outstanding) + len(self.backlog)

    async def connect(self, handle: WorkerHandle) -> None:
        reader, writer = await asyncio.open_connection(
            self.router.cluster.config.host, handle.port, limit=MAX_REQUEST_BYTES
        )
        self._reader = reader
        self._writer = writer
        self._pipeline = _PipelineWriter(writer, window=1 << 30)
        self._pipeline.start()
        self.generation = handle.generation
        self.state = "up"
        self._read_task = asyncio.get_running_loop().create_task(self._read_loop())
        self._flush_backlog()

    def _flush_backlog(self) -> None:
        while self.backlog and self.state == "up":
            request_id, frame = self.backlog.popleft()
            self.outstanding.add(request_id)
            self._pipeline.send(frame)

    def send(self, request_id: int, frame: bytes) -> None:
        if self.state == "up":
            self.outstanding.add(request_id)
            self._pipeline.send(frame)
        else:
            self.backlog.append((request_id, frame))

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                if not line.endswith(b"\n"):
                    # Truncated frame at EOF: the worker died mid-write.
                    # Never forward partial bytes to a client — fall
                    # through to the connection-loss path, which fails
                    # the in-flight requests retryably instead.
                    logger.warning(
                        "worker %d sent a truncated frame (%d bytes); dropping it",
                        self.slot, len(line),
                    )
                    break
                request_id, tail = split_pipeline_id(line)
                if request_id is None:
                    continue  # not ours (never happens: we only pipeline)
                self.outstanding.discard(request_id)
                self.router._resolve(request_id, tail)
        except (ConnectionError, OSError, asyncio.LimitOverrunError, ValueError) as error:
            # EOF raises no exception; landing here means the transport
            # failed mid-stream — say so before the restart machinery runs.
            logger.warning(
                "worker %d read loop failed: %s: %s",
                self.slot, type(error).__name__, error,
            )
            self.router.metrics.counter(
                "repro_router_worker_read_failures_total",
                "Worker connections that failed mid-stream (not clean EOFs).",
            ).inc()
        finally:
            if self.state == "up":
                self.state = "restarting"
                self.router._worker_lost(self)

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait (bounded) until every outstanding response arrived."""
        deadline = time.monotonic() + timeout
        while self.outstanding and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        self.state = "down"
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass
            self._read_task = None
        if self._pipeline is not None:
            await self._pipeline.close()
            self._pipeline = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError) as error:
                # The worker side is usually already gone; note it and
                # move on — the socket is closed either way.
                logger.debug(
                    "worker %d writer close: %s: %s",
                    self.slot, type(error).__name__, error,
                )
            self._writer = None


class RouterServer:
    """NDJSON front-end that shards the protocol over a worker fleet."""

    def __init__(
        self,
        cluster: Optional[AnalysisCluster] = None,
        config: Optional[ClusterConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.cluster = cluster or AnalysisCluster(config)
        self.host = host
        self.port = port
        # The router's own parse memo for key normalization; memory-only
        # (the workers own the disk tiers).
        self._keys = AnalysisCache(directory=None, memory_entries=8)
        self._route_memo = _LRU(ROUTE_MEMO_ENTRIES)
        self._pending: Dict[int, _Pending] = {}
        self._sequence = itertools.count(1)
        self._links: List[_WorkerLink] = []
        self._slot_locks: List[asyncio.Lock] = []
        self._supervisors: List[asyncio.Task] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._clients: set = set()
        self._shutdown: Optional[asyncio.Event] = None
        self._stopping = False
        self.started_at = time.monotonic()
        # Router-local registry; the metrics op renders it alongside every
        # worker's snapshot, labeled worker="router".
        self.metrics = MetricsRegistry()
        self.counters = self.metrics.group(
            "repro_router",
            [
                "requests",
                "routed",
                "route_memo_hits",
                "local",
                "shed",
                "retryable_failures",
                "redispatched",
                "worker_failures",
                "breaker_shed",
                "deadline_shed",
            ],
            "Router admission and supervision counters.",
        )
        self.metrics.gauge_func(
            "repro_router_pending",
            lambda: len(self._pending),
            "Forwarded requests awaiting their worker response.",
        )
        # Per-slot circuit breakers: K consecutive failures open a slot's
        # circuit; while open, traffic for that slot sheds to the
        # retryable-503 path instead of queueing onto a sick worker, and
        # the supervision ping doubles as the half-open probe.
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(self.cluster.config.breaker_failures)
            for _ in range(self.cluster.config.workers)
        ]
        self.metrics.gauge_func(
            "repro_router_breakers_open",
            lambda: sum(
                1 for breaker in self.breakers if breaker.state != breaker.CLOSED
            ),
            "Worker slots whose circuit is currently open or half-open.",
        )

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Spawn the fleet, connect to every worker, bind the listener."""
        if self._shutdown is None:
            self._shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.cluster.start)
        workers = self.cluster.config.workers
        self._links = [_WorkerLink(self, slot) for slot in range(workers)]
        self._slot_locks = [asyncio.Lock() for _ in range(workers)]
        for slot in range(workers):
            await self._links[slot].connect(self.cluster.handles[slot])
        self._supervisors = [
            loop.create_task(self._supervise(slot)) for slot in range(workers)
        ]
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self._stopping = True
        for task in self._supervisors:
            task.cancel()
        for task in self._supervisors:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._supervisors = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for client in list(self._clients):
            await client.close()
        self._clients.clear()
        for link in self._links:
            await link.close()
        await asyncio.get_running_loop().run_in_executor(None, self.cluster.stop)
        if self._shutdown is not None:
            self._shutdown.set()

    # -- client connections --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _ClientLink(
            writer, self.cluster.config.service.pipeline_window, self.metrics
        )
        self._clients.add(client)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    client.send(
                        b'{"status":"error","code":400,"error":"request too large"}\n'
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.counters["requests"] += 1
                request_id, tail = split_pipeline_id(line)
                if request_id is not None:
                    await self._admit(client, request_id, True, line, tail)
                else:
                    await self._admit(client, None, False, line, b"," + line[1:])
        except ConnectionError as error:
            # Resets and broken pipes: normal client behaviour under load,
            # but worth a counter so a flapping client is visible.
            logger.debug("client connection lost: %s", error)
            self.metrics.counter(
                "repro_router_client_resets_total",
                "Client connections that ended with a reset or broken pipe.",
            ).inc()
        finally:
            self._clients.discard(client)
            await client.close()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError) as error:
                logger.debug("client writer close: %s", error)

    async def _admit(
        self,
        client: _ClientLink,
        request_id: Any,
        pipelined: bool,
        line: bytes,
        body: bytes,
    ) -> None:
        """Route one request line: memo fast path, else decode and decide.

        ``body`` is the id-stripped request bytes starting at the leading
        ``,`` — identical for equal requests regardless of framing, which
        makes it both the route-memo key and the forwarded frame tail.
        """
        # Traced requests skip the byte-level route memo: the router must
        # decode them to mint/propagate the trace id and record its spans.
        # Deadlined requests skip it too — the router decrements the
        # remaining budget, so the forwarded bytes differ per request.
        traced = b'"trace"' in body
        deadlined = b'"deadline_ms"' in body
        if not traced and not deadlined:
            slot = self._route_memo.get(body)
            if slot is not None:
                self.counters["route_memo_hits"] += 1
                self._forward(client, request_id, pipelined, True, body, slot)
                return
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            self._respond_local(
                client,
                request_id,
                pipelined,
                True,
                {"status": "error", "code": 400, "error": f"bad JSON: {error}"},
            )
            return
        if not isinstance(request, dict):
            self._respond_local(
                client,
                request_id,
                pipelined,
                True,
                {"status": "error", "code": 400, "error": "request must be a JSON object"},
            )
            return
        raw = True
        if not pipelined and "id" in request:
            # Non-canonical pipelined framing: honour the id, but splice
            # responses through the decoded path.
            request_id = request.pop("id")
            pipelined = True
            raw = isinstance(request_id, int) and not isinstance(request_id, bool)
            body = b"," + json.dumps(request, separators=(",", ":")).encode("utf-8")[1:] + b"\n"
        op = request.get("op", "analyze")
        if op == "ping":
            self.counters["local"] += 1
            self._respond_local(
                client, request_id, pipelined, raw, {"status": "ok", "op": "ping"}
            )
            return
        if op == "stats":
            self.counters["local"] += 1
            self._spawn_local(client, request_id, pipelined, raw, self._stats_response())
            return
        if op == "metrics":
            self.counters["local"] += 1
            self._spawn_local(
                client, request_id, pipelined, raw,
                self._metrics_response(request.get("format")),
            )
            return
        if op == "shutdown":
            self.counters["local"] += 1
            self._respond_local(
                client, request_id, pipelined, raw, {"status": "ok", "op": "shutdown"}
            )
            asyncio.get_running_loop().create_task(self._shutdown_after_flush(client))
            return
        if op in ("analyze", "validate", "tune"):
            source = request.get("source")
            if not isinstance(source, str) or not source.strip():
                self._respond_local(
                    client,
                    request_id,
                    pipelined,
                    raw,
                    {
                        "status": "error",
                        "code": 400,
                        "error": "'source' must be a non-empty string",
                    },
                )
                return
            kind = request.get("kind", "lnum")
            trace_id = requested_trace_id(request.get("trace")) if traced else None
            route_started = time.perf_counter()
            # Both ops route on the *analysis* key of the source, so a
            # program's analyses and validations share a worker — and
            # therefore a parse memo, judgement memo and result cache.
            loop = asyncio.get_running_loop()
            key = await loop.run_in_executor(
                None,
                normalize_request_key,
                self._keys,
                source,
                kind if kind in ("lnum", "fpcore") else "lnum",
                self.cluster.config.service.inference,
            )
            slot = self.cluster.ring.lookup(key)
            deadline_ms = request.get("deadline_ms") if deadlined else None
            if trace_id is None and deadline_ms is None:
                self._route_memo.put(body, slot)
                self._forward(client, request_id, pipelined, raw, body, slot)
                return
            # Re-encoded forwarding path (traced and/or deadlined).
            # Forward the resolved trace id (never the bare ``true``), so
            # the worker's echo and the router's spans agree on the trace.
            # The client's correlation id (still present on canonically
            # framed lines) must not leak into the worker frame — the
            # forwarded frame carries the router's own id.
            request.pop("id", None)
            if trace_id is not None:
                request["trace"] = trace_id
            if deadline_ms is not None:
                # This hop's share (key normalization, mostly) comes out
                # of the end-to-end budget before the remainder travels
                # on; an exhausted budget is shed here — computing an
                # answer nobody is waiting for helps no one.
                budget = decrement_deadline(
                    deadline_ms, time.perf_counter() - route_started
                )
                if budget is None:
                    self.counters["deadline_shed"] += 1
                    self._respond_local(
                        client,
                        request_id,
                        pipelined,
                        raw,
                        {
                            "status": "error",
                            "code": 504,
                            "error": "deadline_ms budget exhausted at the router",
                        },
                    )
                    return
                request["deadline_ms"] = budget
            body = (
                b","
                + json.dumps(request, separators=(",", ":")).encode("utf-8")[1:]
                + b"\n"
            )
            spans = None
            if trace_id is not None:
                spans = [
                    {
                        "name": "router.route",
                        "seconds": time.perf_counter() - route_started,
                        "slot": slot,
                    }
                ]
            self._forward(
                client, request_id, pipelined, raw, body, slot,
                trace_id=trace_id, trace_spans=spans,
            )
            return
        self.counters["local"] += 1
        self._respond_local(
            client,
            request_id,
            pipelined,
            raw,
            {"status": "error", "code": 400, "error": f"unknown op {op!r}"},
        )

    # -- responses -----------------------------------------------------------

    def _respond_local(
        self,
        client: _ClientLink,
        request_id: Any,
        pipelined: bool,
        raw: bool,
        response: Dict[str, Any],
    ) -> None:
        if pipelined:
            client.send(frame_response(request_id, response))
        else:
            future = asyncio.get_running_loop().create_future()
            future.set_result(
                json.dumps(response, separators=(",", ":")).encode("utf-8") + b"\n"
            )
            client.submit_ordered(future)

    def _spawn_local(
        self,
        client: _ClientLink,
        request_id: Any,
        pipelined: bool,
        raw: bool,
        coroutine,
    ) -> None:
        """Answer from an async computation (stats) without blocking reads."""
        loop = asyncio.get_running_loop()
        if pipelined:
            async def respond() -> None:
                response = await coroutine
                client.send(frame_response(request_id, response))

            loop.create_task(respond())
        else:
            async def produce() -> bytes:
                response = await coroutine
                return json.dumps(response, separators=(",", ":")).encode("utf-8") + b"\n"

            client.submit_ordered(loop.create_task(produce()))

    def _forward(
        self,
        client: _ClientLink,
        request_id: Any,
        pipelined: bool,
        raw: bool,
        body: bytes,
        slot: int,
        trace_id: Optional[str] = None,
        trace_spans: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        link = self._links[slot]
        if not self.breakers[slot].allow():
            # The slot's circuit is open: shed to the retryable-503 path
            # instead of queueing onto a worker that keeps failing.  The
            # client's backoff (plus the supervision ping acting as the
            # half-open probe) decides when traffic flows again.
            self.counters["breaker_shed"] += 1
            self._respond_local(
                client,
                request_id,
                pipelined,
                raw,
                _retryable_error(f"worker {slot} circuit open; retry shortly"),
            )
            return
        if link.pending >= self.cluster.config.max_pending_per_worker:
            self.counters["shed"] += 1
            self._respond_local(
                client,
                request_id,
                pipelined,
                raw,
                {"status": "busy", "code": 429, "error": "worker backlog full"},
            )
            return
        router_id = next(self._sequence)
        entry = _Pending(
            link=link, body=body, raw=raw,
            trace_id=trace_id, trace_spans=trace_spans,
        )
        if pipelined:
            entry.client = client
            entry.client_id = request_id
        else:
            entry.future = asyncio.get_running_loop().create_future()
            client.submit_ordered(entry.future)
        self._pending[router_id] = entry
        self.counters["routed"] += 1
        link.send(router_id, b'{"id":%d' % router_id + body)

    def _resolve(self, router_id: int, tail: bytes) -> None:
        """Route one worker response line back to its requester."""
        entry = self._pending.pop(router_id, None)
        if entry is None:
            return
        if not entry.internal:
            # Any response at all proves the worker is serving; the first
            # success after a half-open probe re-closes the circuit.
            self._breaker_event(entry.link.slot, "record_success")
        if entry.internal:
            try:
                payload = json.loads(b"{" + tail[1:])
            except json.JSONDecodeError:
                payload = None
            if entry.future is not None and not entry.future.done():
                entry.future.set_result(payload)
            return
        if entry.trace_spans:
            # Traced responses are decoded once at the router so its own
            # spans go in front of the worker's (trace order = hop order).
            try:
                payload = json.loads(b"{" + tail[1:])
            except json.JSONDecodeError:  # pragma: no cover - workers emit JSON
                return
            block = payload.get("trace")
            if isinstance(block, dict):
                block["spans"] = entry.trace_spans + list(block.get("spans", []))
            else:
                payload["trace"] = {"id": entry.trace_id, "spans": entry.trace_spans}
            if entry.future is not None:
                if not entry.future.done():
                    entry.future.set_result(
                        json.dumps(payload, separators=(",", ":")).encode("utf-8")
                        + b"\n"
                    )
                return
            if entry.client is None or entry.client.closed:
                return
            entry.client.send(frame_response(entry.client_id, payload))
            return
        if entry.future is not None:
            if not entry.future.done():
                entry.future.set_result(b"{" + tail[1:])
            return
        if entry.client is None or entry.client.closed:
            return
        if entry.raw:
            entry.client.send(b'{"id":%d' % entry.client_id + tail)
        else:
            try:
                payload = json.loads(b"{" + tail[1:])
            except json.JSONDecodeError:  # pragma: no cover - workers emit JSON
                return
            entry.client.send(frame_response(entry.client_id, payload))

    def _fail(self, router_id: int, entry: _Pending, response: Dict[str, Any]) -> None:
        if entry.internal:
            if entry.future is not None and not entry.future.done():
                entry.future.set_result(None)
            return
        self.counters["retryable_failures"] += 1
        self._breaker_event(entry.link.slot, "record_failure")
        if entry.trace_spans:
            response = {
                **response,
                "trace": {"id": entry.trace_id, "spans": entry.trace_spans},
            }
        if entry.future is not None:
            if not entry.future.done():
                entry.future.set_result(
                    json.dumps(response, separators=(",", ":")).encode("utf-8") + b"\n"
                )
            return
        if entry.client is not None and not entry.client.closed:
            entry.client.send(frame_response(entry.client_id, response))

    async def _shutdown_after_flush(self, client: _ClientLink) -> None:
        """Give the shutdown acknowledgement a moment to reach the client."""
        for _ in range(50):
            if not client.ordered and not client.pipeline._buffer:
                break
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.02)
        self._shutdown.set()

    # -- worker supervision --------------------------------------------------

    def _breaker_event(self, slot: int, action: str) -> None:
        """Drive one slot's breaker and count any state transition."""
        breaker = self.breakers[slot]
        before = breaker.state
        getattr(breaker, action)()
        if breaker.state != before:
            logger.info(
                "worker %d circuit %s -> %s", slot, before, breaker.state
            )
            self.metrics.counter(
                "repro_router_breaker_transitions_total",
                "Circuit-breaker state transitions, labeled by target state.",
                state=breaker.state,
            ).inc()

    def _worker_lost(self, link: _WorkerLink) -> None:
        """Read-loop callback: the worker's connection is gone."""
        if self._stopping:
            return
        self.counters["worker_failures"] += 1
        # A dead process is definitionally unhealthy: open the circuit
        # outright instead of waiting for K individual failures.
        self._breaker_event(link.slot, "trip")
        logger.warning(
            "worker %d lost with %d requests in flight; respawning",
            link.slot, len(link.outstanding),
        )
        response = _retryable_error(
            f"worker {link.slot} died mid-request; safe to retry"
        )
        for router_id in list(link.outstanding):
            entry = self._pending.pop(router_id, None)
            if entry is not None:
                self._fail(router_id, entry, response)
        link.outstanding.clear()
        asyncio.get_running_loop().create_task(self._revive(link.slot))

    async def _revive(self, slot: int) -> None:
        """Respawn a dead worker on its old slot + cache directory."""
        async with self._slot_locks[slot]:
            if self._stopping:
                return
            link = self._links[slot]
            if link.state == "up":
                return
            await link.close()
            loop = asyncio.get_running_loop()
            handle = self.cluster.handles[slot]
            if handle is not None:
                # Reap whatever is left of the dead process first.
                await loop.run_in_executor(None, handle.kill)
            try:
                handle = await loop.run_in_executor(None, self.cluster.spawn, slot)
                await link.connect(handle)
            except Exception as error:
                # Spawn failed (resource exhaustion, teardown race): shed
                # whatever queued meanwhile; the supervisor retries on its
                # next tick.
                logger.error(
                    "respawn of worker %d failed (%s: %s); shedding %d queued",
                    slot, type(error).__name__, error, len(link.backlog),
                )
                self.metrics.counter(
                    "repro_router_spawn_failures_total",
                    "Worker respawn attempts that failed.",
                ).inc()
                response = _retryable_error(
                    f"worker {slot} is restarting; retry shortly"
                )
                while link.backlog:
                    router_id, _frame = link.backlog.popleft()
                    entry = self._pending.pop(router_id, None)
                    if entry is not None:
                        self._fail(router_id, entry, response)
                return
            self.counters["redispatched"] += len(link.outstanding)
            # A successful respawn+connect is itself a health probe: move
            # the slot's (tripped) circuit to half-open so the next real
            # request can re-close it instead of waiting out a ping tick.
            self._breaker_event(slot, "probe_success")
            logger.info("worker %d respawned (generation %d)", slot, link.generation)

    async def _supervise(self, slot: int) -> None:
        """Watchdog: process liveness + periodic health-check pings."""
        interval = self.cluster.config.ping_interval
        timeout = self.cluster.config.ping_timeout
        while True:
            await asyncio.sleep(interval)
            if self._stopping:
                return
            link = self._links[slot]
            if link.state != "up":
                # A revive is in flight (or failed): nudge it along.
                async with self._slot_locks[slot]:
                    pass
                if self._links[slot].state != "up":
                    asyncio.get_running_loop().create_task(self._revive(slot))
                continue
            handle = self.cluster.handles[slot]
            if handle is None or not handle.alive:
                # The process died but the socket has not signalled EOF
                # yet: treat it exactly like a connection loss.
                link.state = "restarting"
                self._worker_lost(link)
                continue
            response = await self._probe(slot, {"op": "ping"}, timeout)
            if response is None and link.state == "up" and not self._stopping:
                # Hung worker: kill it; the EOF path does the rest.
                await asyncio.get_running_loop().run_in_executor(None, handle.kill)
            elif response is not None:
                # A healthy ping doubles as the circuit's half-open probe.
                self._breaker_event(slot, "probe_success")

    async def _probe(
        self, slot: int, request: Dict[str, Any], timeout: float
    ) -> Optional[Dict[str, Any]]:
        """One internal pipelined request to a worker; ``None`` on failure."""
        link = self._links[slot]
        if link.state != "up":
            return None
        router_id = next(self._sequence)
        body = (
            b"," + json.dumps(request, separators=(",", ":")).encode("utf-8")[1:] + b"\n"
        )
        entry = _Pending(
            link=link,
            body=body,
            internal=True,
            future=asyncio.get_running_loop().create_future(),
        )
        self._pending[router_id] = entry
        link.send(router_id, b'{"id":%d' % router_id + body)
        try:
            return await asyncio.wait_for(entry.future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(router_id, None)
            link.outstanding.discard(router_id)
            return None

    # -- hot restart ---------------------------------------------------------

    async def rolling_restart(self) -> Dict[str, Any]:
        """Replace every worker, one slot at a time, keeping warm state.

        For each slot: spawn the replacement (which immediately reuses
        the slot's disk cache — the handoff), cut new traffic over to
        it, drain the old process's in-flight responses, then terminate
        the old process.  Clients never see the restart beyond latency.
        """
        replaced = 0
        loop = asyncio.get_running_loop()
        for slot in range(self.cluster.config.workers):
            async with self._slot_locks[slot]:
                old_link = self._links[slot]
                old_handle = self.cluster.handles[slot]
                handle = await loop.run_in_executor(None, self.cluster.spawn, slot)
                new_link = _WorkerLink(self, slot)
                await new_link.connect(handle)
                self._links[slot] = new_link
                # Old responses keep flowing through the old link until
                # its outstanding set drains; only then stop the process.
                await old_link.drain()
                old_link.state = "down"  # a clean handoff, not a failure
                await old_link.close()
                if old_handle is not None:
                    await loop.run_in_executor(None, old_handle.terminate)
                replaced += 1
        return {"replaced": replaced, "workers": self.cluster.config.workers}

    # -- stats aggregation ---------------------------------------------------

    async def _stats_response(self) -> Dict[str, Any]:
        stats = await self.aggregate_stats()
        return {"status": "ok", "op": "stats", "stats": stats}

    async def _metrics_response(self, fmt: Optional[str] = None) -> Dict[str, Any]:
        """Every worker's registry snapshot plus the router's own.

        The structured response keeps the snapshots separate (labeled by
        slot); the Prometheus rendering merges them under shared metric
        headers with a ``worker`` label distinguishing the series.
        """
        probes = await asyncio.gather(
            *(
                self._probe(slot, {"op": "metrics"}, STATS_TIMEOUT)
                for slot in range(self.cluster.config.workers)
            )
        )
        router_snapshot = self.metrics.to_dict()
        workers: List[Dict[str, Any]] = []
        snapshots = [({"worker": "router"}, router_snapshot)]
        for slot, response in enumerate(probes):
            block = None
            if response is not None and response.get("status") == "ok":
                block = response.get("metrics")
            workers.append({"slot": slot, "metrics": block})
            if block is not None:
                snapshots.append(({"worker": str(slot)}, block))
        out: Dict[str, Any] = {
            "status": "ok",
            "op": "metrics",
            "router": router_snapshot,
            "workers": workers,
        }
        if fmt == "prometheus":
            out["prometheus"] = render_prometheus(snapshots)
        return out

    async def aggregate_stats(self) -> Dict[str, Any]:
        """Summed per-worker counters plus cluster health, for ``/stats``."""
        probes = await asyncio.gather(
            *(
                self._probe(slot, {"op": "stats"}, STATS_TIMEOUT)
                for slot in range(self.cluster.config.workers)
            )
        )
        service: Dict[str, Any] = {}
        cache: Dict[str, Any] = {}
        scheduler: Dict[str, Any] = {}
        resilience: Dict[str, Any] = {}
        tuning: Dict[str, Any] = {}
        slow_requests: List[Dict[str, Any]] = []
        inflight = 0
        workers: List[Dict[str, Any]] = []
        for slot, response in enumerate(probes):
            handle = self.cluster.handles[slot]
            block = None
            if response is not None and response.get("status") == "ok":
                block = response.get("stats")
            workers.append(
                {
                    "slot": slot,
                    "alive": handle.alive if handle is not None else False,
                    "port": handle.port if handle is not None else None,
                    "generation": handle.generation if handle is not None else None,
                    "stats": block,
                }
            )
            if block is None:
                continue
            _merge_counters(service, block.get("service", {}))
            _merge_counters(cache, block.get("cache", {}))
            _merge_counters(scheduler, block.get("scheduler", {}))
            # Graceful-degradation counters are per worker *process*, so
            # this sum covers the live generation of each slot only —
            # counters die with a killed worker.  The per-worker blocks
            # below keep the slot-level view.
            _merge_counters(resilience, block.get("resilience", {}))
            # Tuning counters follow the same per-process lifecycle.
            _merge_counters(tuning, block.get("tuning", {}))
            inflight += block.get("inflight", 0)
            for entry in block.get("slow_requests", []) or []:
                if isinstance(entry, dict):
                    slow_requests.append({**entry, "worker": slot})
        # Cluster-wide slow log: every worker's ring buffer, slowest first,
        # bounded by the per-worker buffer size.
        slow_requests.sort(key=lambda entry: entry.get("seconds", 0.0), reverse=True)
        del slow_requests[max(1, self.cluster.config.service.slow_log_entries):]
        memo = cache.get("judgement_memo")
        if isinstance(memo, dict):
            probes_total = memo.get("hits", 0) + memo.get("misses", 0)
            memo["hit_rate"] = memo.get("hits", 0) / probes_total if probes_total else 0.0
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "service": service,
            "inflight": inflight,
            "cache": cache,
            "scheduler": scheduler,
            "resilience": resilience,
            "tuning": tuning,
            "slow_requests": slow_requests,
            "cluster": {
                "workers": self.cluster.config.workers,
                "alive": sum(1 for entry in workers if entry["alive"]),
                "restarts": self.cluster.restarts,
                "pending": len(self._pending),
                **dict(self.counters),
                "breakers": [breaker.describe() for breaker in self.breakers],
            },
            "workers": workers,
        }


def _merge_counters(target: Dict[str, Any], block: Dict[str, Any]) -> None:
    """Sum numeric leaves of ``block`` into ``target``, recursing on dicts.

    Lists and strings are skipped — the per-worker blocks in the
    ``workers`` array keep the full fidelity.
    """
    for key, value in block.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            target[key] = target.get(key, 0) + value
        elif isinstance(value, dict):
            nested = target.setdefault(key, {})
            if isinstance(nested, dict):
                _merge_counters(nested, value)

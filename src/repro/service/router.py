"""Front-end router of the clustered analysis service.

:class:`RouterServer` accepts the exact NDJSON protocol of
:class:`~repro.service.server.AnalysisServer` — requests with and
without ids, every op — and fans requests out over the
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
from .cluster import (
    BREAKER_FAILURES,
    MAX_PENDING_PER_WORKER,
    PING_INTERVAL,
    PING_TIMEOUT,
    AnalysisCluster,
    ClusterConfig,
    WorkerHandle,
)
from .resilience import CircuitBreaker, decrement_deadline
from .server import (
    IMPLICIT,
    MAX_REQUEST_BYTES,
    _PipelineWriter,
    decode_request,
    normalize_request_key,
    pop_request_id,
    response_tail,
    split_frame,
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
    #: The client connection to reply on, the request's ticket there and
    #: the client's own id (:data:`~repro.service.server.IMPLICIT` when
    #: it sent none).
    client: Optional[_PipelineWriter] = None
    ticket: Optional[list] = None
    client_id: Any = IMPLICIT
    #: Internal probes (stats, pings) resolve a future with the decoded
    #: response instead.
    future: Optional["asyncio.Future"] = None
    #: Traced request: the propagated trace id plus the router-side spans
    #: to splice in front of the worker's spans in the response.
    trace_id: Optional[str] = None
    trace_spans: Optional[List[Dict[str, Any]]] = None


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
            self._pipeline.close()
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
            CircuitBreaker(BREAKER_FAILURES)
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
            # Close the live client connections too, so no handler stays
            # parked in readline() (or waiting for replies) past shutdown.
            for client in list(self._clients):
                client.close()
                client.writer.close()
            self._clients.clear()
            await self._server.wait_closed()
            self._server = None
        for link in self._links:
            await link.close()
        await asyncio.get_running_loop().run_in_executor(None, self.cluster.stop)
        if self._shutdown is not None:
            self._shutdown.set()

    # -- client connections --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _PipelineWriter(writer, self.cluster.config.service.pipeline_window)
        self._clients.add(client)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    self._reply(
                        client,
                        client.open(),
                        IMPLICIT,
                        {"status": "error", "code": 400, "error": "request too large"},
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.counters["requests"] += 1
                await self._admit(client, line)
            # End of input (a client may half-close after its last
            # request): every request read so far is still answered.
            await client.flush()
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
            client.close()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError) as error:
                logger.debug("client writer close: %s", error)

    async def _admit(self, client: _PipelineWriter, line: bytes) -> None:
        """Route one request line: memo fast path, else decode and decide.

        The request's *body* is its id-stripped bytes starting at a
        leading ``,`` — identical for equal requests whether they came
        framed with an id or without one, which makes it both the
        route-memo key and the forwarded frame tail.
        """
        ticket = client.open()
        request_id, body = split_frame(line)
        # Traced requests skip the byte-level route memo: the router must
        # decode them to mint/propagate the trace id and record its spans.
        # Deadlined requests skip it too — the router decrements the
        # remaining budget, so the forwarded bytes differ per request.
        if body is not None and b'"trace"' not in body and b'"deadline_ms"' not in body:
            slot = self._route_memo.get(body)
            if slot is not None:
                self.counters["route_memo_hits"] += 1
                self._forward(client, ticket, request_id, body, slot)
                return
        request, error = decode_request(line)
        if error is None and not isinstance(request, dict):
            error = {"status": "error", "code": 400, "error": "request must be a JSON object"}
        if error is not None:
            self._reply(client, ticket, request_id, error)
            return
        # A non-canonical id leaves no body: the request is re-encoded.
        request_id, body = pop_request_id(request, request_id, body)
        op = request.get("op", "analyze")
        if op in ("ping", "stats", "metrics", "shutdown"):
            self.counters["local"] += 1
            if op == "ping":
                self._reply(client, ticket, request_id, {"status": "ok", "op": "ping"})
            elif op == "stats":
                self._spawn_local(client, ticket, request_id, self._stats_response())
            elif op == "metrics":
                self._spawn_local(
                    client, ticket, request_id, self._metrics_response(request.get("format"))
                )
            else:
                self._reply(client, ticket, request_id, {"status": "ok", "op": "shutdown"})
                asyncio.get_running_loop().create_task(self._shutdown_after_flush(client))
            return
        if op not in ("analyze", "validate", "tune"):
            self.counters["local"] += 1
            self._reply(
                client, ticket, request_id,
                {"status": "error", "code": 400, "error": f"unknown op {op!r}"},
            )
            return
        source = request.get("source")
        if not isinstance(source, str) or not source.strip():
            self._reply(
                client, ticket, request_id,
                {"status": "error", "code": 400, "error": "'source' must be a non-empty string"},
            )
            return
        kind = request.get("kind", "lnum")
        trace_id = requested_trace_id(request.get("trace"))
        deadline_ms = request.get("deadline_ms")
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            # No budget to spend at this hop: the worker applies the
            # wire's rules (0 disables the deadline, a non-number is a 400).
            deadline_ms = None
        route_started = time.perf_counter()
        # Every op routes on the *analysis* key of the source, so a
        # program's analyses, validations and tunings share a worker — and
        # therefore a parse memo, judgement memo and result cache.
        key = await asyncio.get_running_loop().run_in_executor(
            None,
            normalize_request_key,
            self._keys,
            source,
            kind if kind in ("lnum", "fpcore") else "lnum",
            self.cluster.config.service.inference,
        )
        slot = self.cluster.ring.lookup(key)
        if trace_id is None and deadline_ms is None:
            if body is None:
                body = response_tail(request)
            self._route_memo.put(body, slot)
            self._forward(client, ticket, request_id, body, slot)
            return
        # Re-encoded forwarding path (traced and/or deadlined).  Forward
        # the resolved trace id (never the bare ``true``), so the worker's
        # echo and the router's spans agree on the trace.
        if trace_id is not None:
            request["trace"] = trace_id
        if deadline_ms is not None:
            # This hop's share (key normalization, mostly) comes out of the
            # end-to-end budget before the remainder travels on; an
            # exhausted budget is shed here — computing an answer nobody is
            # waiting for helps no one.
            budget = decrement_deadline(deadline_ms, time.perf_counter() - route_started)
            if budget is None:
                self.counters["deadline_shed"] += 1
                self._reply(
                    client, ticket, request_id,
                    {
                        "status": "error",
                        "code": 504,
                        "error": "deadline_ms budget exhausted at the router",
                    },
                )
                return
            request["deadline_ms"] = budget
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
            client, ticket, request_id, response_tail(request), slot,
            trace_id=trace_id, trace_spans=spans,
        )

    # -- responses -----------------------------------------------------------

    @staticmethod
    def _reply(
        client: _PipelineWriter, ticket: list, request_id: Any, response: Dict[str, Any]
    ) -> None:
        client.reply(ticket, response_tail(response), request_id)

    def _spawn_local(
        self, client: _PipelineWriter, ticket: list, request_id: Any, coroutine
    ) -> None:
        """Answer from an async computation (stats) without blocking reads."""

        async def respond() -> None:
            self._reply(client, ticket, request_id, await coroutine)

        asyncio.get_running_loop().create_task(respond())

    def _forward(
        self,
        client: _PipelineWriter,
        ticket: list,
        request_id: Any,
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
            self._reply(
                client, ticket, request_id,
                _retryable_error(f"worker {slot} circuit open; retry shortly"),
            )
            return
        if link.pending >= MAX_PENDING_PER_WORKER:
            self.counters["shed"] += 1
            self._reply(
                client, ticket, request_id,
                {"status": "busy", "code": 429, "error": "worker backlog full"},
            )
            return
        router_id = next(self._sequence)
        self._pending[router_id] = _Pending(
            link=link, body=body, client=client, ticket=ticket, client_id=request_id,
            trace_id=trace_id, trace_spans=trace_spans,
        )
        self.counters["routed"] += 1
        link.send(router_id, b'{"id":%d' % router_id + body)

    def _resolve(self, router_id: int, tail: bytes) -> None:
        """Route one worker response line back to its requester."""
        entry = self._pending.pop(router_id, None)
        if entry is None:
            return
        if entry.future is not None:
            payload, _error = decode_request(b"{" + tail[1:])
            if not entry.future.done():
                entry.future.set_result(payload)
            return
        # Any response at all proves the worker is serving; the first
        # success after a half-open probe re-closes the circuit.
        self._breaker_event(entry.link.slot, "record_success")
        if entry.trace_spans:
            # Traced responses are decoded once at the router so its own
            # spans go in front of the worker's (trace order = hop order).
            payload, _error = decode_request(b"{" + tail[1:])
            if isinstance(payload, dict):
                block = payload.get("trace")
                if isinstance(block, dict):
                    block["spans"] = entry.trace_spans + list(block.get("spans", []))
                else:
                    payload["trace"] = {"id": entry.trace_id, "spans": entry.trace_spans}
                tail = response_tail(payload)
        entry.client.reply(entry.ticket, tail, entry.client_id)

    def _fail(self, router_id: int, entry: _Pending, response: Dict[str, Any]) -> None:
        if entry.future is not None:
            if not entry.future.done():
                entry.future.set_result(None)
            return
        self.counters["retryable_failures"] += 1
        self._breaker_event(entry.link.slot, "record_failure")
        if entry.trace_spans:
            response = {
                **response,
                "trace": {"id": entry.trace_id, "spans": entry.trace_spans},
            }
        self._reply(entry.client, entry.ticket, entry.client_id, response)

    async def _shutdown_after_flush(self, client: _PipelineWriter) -> None:
        """Stop once the replies to everything the client sent up to the
        shutdown (its acknowledgement last) reached the socket."""
        await client.flush()
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
        while True:
            await asyncio.sleep(PING_INTERVAL)
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
            response = await self._probe(slot, {"op": "ping"}, PING_TIMEOUT)
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

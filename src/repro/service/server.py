"""The analysis service core and its asyncio TCP front-end.

:class:`AnalysisService` is protocol-independent: it takes request
dictionaries and returns response dictionaries, which makes the whole
admit → coalesce → schedule → infer → cache pipeline unit-testable
without sockets.  :class:`AnalysisServer` wraps it in a
newline-delimited-JSON TCP listener (one JSON object per line in each
direction — trivially framed, stdlib-only, and pipelinable).

Request normalization and coalescing
------------------------------------

Every ``analyze`` request is normalized to a *content-addressed key*
before anything else happens: Λnum sources are parsed (through the
shared parse memo) and keyed by the hash-consed term fingerprints of
their definitions via :func:`repro.analysis.cache.term_key` /
:func:`~repro.analysis.cache.make_key`, so two requests that differ only
in whitespace or comments are the *same* request; sources that fail to
parse (and FPCore inputs, whose surface syntax is already canonical
s-expressions) fall back to :func:`~repro.analysis.cache.source_key`.

The key then drives a three-way admission split:

1. **cache hit** — answered immediately from the service's
   :class:`~repro.analysis.cache.AnalysisCache`;
2. **in-flight duplicate** — some earlier request with the same key is
   already scheduled: the new request *coalesces* onto the same future
   and no second inference is ever queued (N concurrent queries for one
   program cost exactly one inference);
3. **miss** — a :class:`~repro.service.scheduler.Job` is submitted to
   the bounded scheduler (which may shed it with a ``busy`` response).

Wire protocol
-------------

Requests:  ``{"op": "analyze", "source": "...", "kind": "lnum",
"priority": "interactive", "deadline_ms": 30000, "no_cache": false}``,
``{"op": "validate", "source": "...", "kind": "lnum", "samples": 64,
"points": 4, "seed": 0}`` (the differential soundness harness of
:mod:`repro.validation`, same admission/coalescing pipeline, results keyed
by normalized content *and* sampling parameters), ``{"op": "stats"}``,
``{"op": "ping"}``, ``{"op": "shutdown"}``.

Responses always carry ``status``: ``ok`` (with ``report`` for analyze),
``busy`` (queue full, code 429), ``timeout`` (deadline exceeded, code
504) or ``error`` (malformed request, code 400).  The ``stats`` response
is the ``/stats`` endpoint of the issue: service counters (requests,
coalesced, inferences), result-cache counters per tier, and scheduler
lane / shed counters.

Pipelining
----------

Every request is pipelined: the server reads a connection's lines as
they arrive, handles them concurrently (many in flight per connection)
and frames each reply for its request.  A request may carry an ``id``;
its reply echoes the id as its **first** JSON member —
``{"id":7,"status":"ok",...}`` — as soon as it is ready, so replies may
arrive out of order and a router can correlate them from the fixed byte
prefix without decoding report payloads.  A request without an ``id``
gets a connection-local implicit one: its reply carries no id and is
released only after every earlier request on the connection replied, so
a client that sends no ids sees replies in request order, byte for byte
as in the original sequential protocol.  A client may half-close after
its last request: every request read before the end of input is still
answered, and a ``shutdown`` waits for the replies ahead of it.  Replies
are written in batches (one ``drain`` per ready batch), which is where
most of the multi-client throughput comes from on a loaded server.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..analysis.batch import BatchItem
from ..analysis.cache import (
    AnalysisCache,
    CacheStats,
    _LRU,
    config_key,
    make_key,
    memo_report,
    quarantined_total,
    source_key,
    term_key,
)
from ..core import ast as A
from ..core.errors import LnumError
from ..core.inference import (
    InferenceConfig,
    JudgementMemo,
    engine_fallback_stats,
)
from ..faults import FAULT_SITES, activate, active_plan, injected_counts, plan_from_environment
from ..obs.metrics import MetricsRegistry
from ..obs.trace import RequestTrace, requested_trace_id
from ..tuning.search import parse_fraction
from ..tuning.stats import tuning_stats
from .scheduler import (
    PRIORITY_NAMES,
    DeadlineExceeded,
    Job,
    Scheduler,
    SchedulerBusy,
)

logger = logging.getLogger(__name__)

__all__ = [
    "AnalysisServer",
    "AnalysisService",
    "ServiceConfig",
    "decode_request",
    "normalize_request_key",
    "response_tail",
    "split_frame",
    "split_pipeline_id",
]

#: Longest accepted request line (sources are inlined in the JSON).
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Most requests in flight per connection before the reader
#: stops pulling new lines (TCP backpressure does the rest).
DEFAULT_PIPELINE_WINDOW = 1024

#: Longest a connection's teardown (or a ``shutdown``) waits for the
#: replies of the requests read before it to be written: the default
#: request deadline, so a reply still being computed is not cut off.
FLUSH_TIMEOUT = 60.0

#: Memory-tier capacity of the result cache (reports, validation and
#: tuning results).
RESULT_CACHE_ENTRIES = 4096

#: Bounds of the hot-path memos: request-body bytes → content key, and
#: content key → serialized report bytes.  They let a repeated request
#: hit the memory tier without re-normalizing the source or
#: re-encoding the report.
HOT_KEY_ENTRIES = 4096
HOT_REPORT_ENTRIES = 1024

#: Bound of the cross-request subterm-judgement memo.
JUDGEMENT_MEMO_ENTRIES = 65_536

#: Integer request parameters per op: ``(name, default, minimum)``.
#: ``points`` must be >= 1: the stochastic budget is split across the
#: points, so zero points would silently discard every requested sample
#: while still reporting a verdict.
_INTEGER_PARAMETERS = {
    "validate": (("samples", 64, 0), ("points", 4, 1), ("seed", 0, 0)),
    "tune": (("samples", 8, 0), ("points", 3, 1), ("seed", 0, 0), ("budget", 48, 1)),
}


def _consume_result(future: "asyncio.Future") -> None:
    """Swallow a fire-and-forget future's outcome (best-effort persist)."""
    try:
        future.exception()
    except BaseException:
        pass


def normalize_request_key(
    cache: AnalysisCache,
    source: str,
    kind: str,
    config: Optional[InferenceConfig],
) -> str:
    """Content-addressed key for one analyze request (see ``request_key``).

    Module-level so the cluster router can normalize with its *own* parse
    memo and route on exactly the key the worker will compute — the
    whole shard-affinity story rests on the two sides agreeing.
    """
    if kind == "lnum":
        try:
            program = cache.cached_parse(source)
            if not program.definitions and program.main is None:
                # Nothing to fingerprint (comment-only/empty source):
                # a structural key would collapse all such programs
                # onto one constant, so key on the text instead.
                return source_key(source, kind, config)
            parts = []
            for definition in program.definitions:
                term = A.intern_term(definition.term)
                # The declared error-bound annotation is *not* part of
                # the lambda term, but it changes the report
                # (annotation_satisfied), so it must be in the key.
                parts.append(
                    f"{definition.name}:{definition.return_annotation}"
                    f"={A.term_fingerprint(term)}"
                )
            if program.main is not None:
                main = A.intern_term(program.main)
                if not program.definitions:
                    return term_key(main, config, "service")
                parts.append(f"<main>={A.term_fingerprint(main)}")
            return make_key("service", config_key(config), *parts)
        except (LnumError, RecursionError):
            # Unparseable (or adversarially deep) sources key on their
            # text; the analysis worker reports the actual failure.
            pass
    return source_key(source, kind, config)


_ID_PREFIX = b'{"id":'


def split_pipeline_id(line: bytes) -> Tuple[Optional[int], Optional[bytes]]:
    """Split the canonical pipelined framing ``{"id":N,...`` off a request.

    Returns ``(request_id, tail)`` where ``tail`` is everything after the
    id member's value (starting at the ``,`` or ``}``) — for two requests
    that differ only in their correlation id the tails are byte-identical,
    which is what makes the tail usable as a hot-path memo key.  Returns
    ``(None, None)`` for anything but the canonical framing; callers fall
    back to full JSON decoding (a request may still carry an ``id`` in a
    non-leading position).
    """
    if not line.startswith(_ID_PREFIX):
        return None, None
    index = len(_ID_PREFIX)
    end = index
    size = len(line)
    while end < size and line[end : end + 1].isdigit():
        end += 1
    if end == index:
        return None, None
    if end >= size or line[end] not in b",}":
        return None, None
    return int(line[index:end]), line[end:]


def decode_request(line: bytes) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """``(request, None)`` for a decodable line, else ``(None, 400 response)``.

    The one decoder of every request path: malformed JSON *and* bytes
    that are not UTF-8 (``UnicodeDecodeError``, which is not a
    ``JSONDecodeError``) both become a structured 400.
    """
    try:
        return json.loads(line), None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        return None, {"status": "error", "code": 400, "error": f"bad JSON: {error}"}


def response_tail(response: Dict[str, Any]) -> bytes:
    """A response's reply *tail*: its JSON encoding without the leading ``{``
    (so it starts at ``,``), newline included — what a
    :class:`_PipelineWriter` frames for its request."""
    return b"," + json.dumps(response, separators=(",", ":")).encode("utf-8")[1:] + b"\n"


#: The id of a request sent without one: its reply carries no id and is
#: released in request order among the connection's other such replies.
IMPLICIT = object()


def split_frame(line: bytes) -> Tuple[Any, Optional[bytes]]:
    """A request line's ``(request_id, body)``, before any JSON decoding.

    The *body* is the id-stripped request bytes starting at ``,`` —
    identical for equal requests whether they came framed with a
    canonical ``{"id":N,`` prefix or without an id, which makes it the
    hot-path memo key and, in the router, the forwarded frame tail.  A
    line without the canonical prefix gets the :data:`IMPLICIT` id and a
    body only when it starts with ``{`` (``None`` otherwise: the caller
    decodes and re-encodes).  The id may still turn out to be a
    non-canonical one; see :func:`pop_request_id`.
    """
    request_id, body = split_pipeline_id(line)
    if request_id is None:
        return IMPLICIT, (b"," + line[1:] if line.startswith(b"{") else None)
    return request_id, body


def pop_request_id(
    request: Dict[str, Any], request_id: Any, body: Optional[bytes]
) -> Tuple[Any, Optional[bytes]]:
    """Take a decoded request's ``id`` member off it.

    A line without the canonical prefix whose request still carries an
    ``id`` (any JSON value, in any position) is answered under that id;
    its body still contains the id, so it must never key a hot path and
    comes back ``None``.  Returns the final ``(request_id, body)``.
    """
    if "id" in request:
        popped = request.pop("id")
        if request_id is IMPLICIT:
            return popped, None
    return request_id, body


class _PipelineWriter:
    """Per-connection reply framing, ordering and batching.

    Every request on a connection gets an order ticket (:meth:`open`) when
    it is read.  :meth:`reply` frames a reply tail for its request: an
    explicit id's reply goes out as ``{"id":N`` + tail at once, in
    whatever order requests finish; an :data:`IMPLICIT` id's reply goes
    out as ``{`` + tail, but only after every earlier request on the
    connection has replied — so a client that sends no ids sees its
    replies in request order, although the requests run concurrently.

    A single writer task joins everything that accumulated since the
    last flush into one ``write`` + ``drain``: under load this collapses
    hundreds of per-reply syscalls into a handful of large writes.
    """

    def __init__(self, writer: asyncio.StreamWriter, window: int) -> None:
        self.writer = writer
        self.window = max(1, window)
        self.inflight = 0
        self.closed = False
        self._buffer: list = []
        #: Tickets of unanswered requests, oldest first: ``[None]``
        #: until answered, then the frame to release (``b""`` once an
        #: explicit-id reply went out on its own).
        self._order: "deque[list]" = deque()
        #: Tickets handed out and tickets released, for :meth:`flush`.
        self._opened = 0
        self._released = 0
        self._wake = asyncio.Event()
        self._room = asyncio.Event()
        self._room.set()
        #: Set whenever a batch reaches the socket (or the writer closes).
        self._written = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def admit(self) -> None:
        """Block the connection reader while the in-flight window is full."""
        while self.inflight >= self.window and not self.closed:
            self._room.clear()
            await self._room.wait()

    def open(self) -> list:
        """The next request's ticket (call in request order)."""
        self.inflight += 1
        self._opened += 1
        ticket: list = [None]
        self._order.append(ticket)
        return ticket

    def reply(self, ticket: list, tail: bytes, request_id: Any = IMPLICIT) -> None:
        """Frame ``tail`` (see :func:`response_tail`) for its request and send it."""
        self.inflight -= 1
        if self.inflight < self.window:
            self._room.set()
        if request_id is IMPLICIT:
            ticket[0] = b"{" + tail[1:]
        else:
            if isinstance(request_id, int) and not isinstance(request_id, bool):
                prefix = b'{"id":%d' % request_id
            else:
                prefix = b'{"id":' + json.dumps(request_id).encode("utf-8")
            self.send(prefix + tail)
            ticket[0] = b""
        order = self._order
        while order and order[0][0] is not None:
            frame = order.popleft()[0]
            self._released += 1
            if frame:
                self.send(frame)

    def send(self, data: bytes) -> None:
        """Queue one complete, already framed line."""
        if self.closed:
            return
        self._buffer.append(data)
        self._wake.set()

    async def flush(self) -> None:
        """Wait until the replies of every request opened so far were
        handed to the socket — replies still being computed included —
        or the connection closed; at most :data:`FLUSH_TIMEOUT`."""
        target = self._opened

        async def written() -> None:
            while not self.closed and (self._released < target or self._buffer):
                self._written.clear()
                await self._written.wait()

        try:
            await asyncio.wait_for(written(), FLUSH_TIMEOUT)
        except asyncio.TimeoutError:
            logger.warning("gave up waiting for replies after %.0f s", FLUSH_TIMEOUT)

    async def _run(self) -> None:
        try:
            while not self.closed:
                await self._wake.wait()
                self._wake.clear()
                if not self._buffer:
                    continue
                batch = b"".join(self._buffer)
                self._buffer.clear()
                self.writer.write(batch)
                self._written.set()
                await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self.closed = True
            self._room.set()
            self._written.set()

    def close(self) -> None:
        self.closed = True
        self._room.set()
        self._written.set()
        self._task.cancel()


@dataclass
class ServiceConfig:
    """Tunables for one service instance."""

    queue_size: int = 256
    cache_dir: Optional[str] = None  # None: memory-only (no disk tier)
    default_deadline_seconds: Optional[float] = 60.0
    inference: Optional[InferenceConfig] = None
    #: Most requests in flight per connection.
    pipeline_window: int = DEFAULT_PIPELINE_WINDOW
    #: Inference engine forwarded with every analysis job
    #: ("auto"/"interpreted"/"compiled").  ``auto`` keeps the judgement
    #: memo's cross-request reuse (memoized inference stays interpreted)
    #: and compiles only memo-less runs.
    engine: str = "auto"
    #: Requests slower than this (seconds, end to end) land in the
    #: in-memory slow-request ring buffer surfaced as
    #: ``/stats → slow_requests`` (0 disables the log).
    slow_request_seconds: float = 1.0
    #: Ring-buffer capacity of the slow-request log.
    slow_log_entries: int = 64
    #: ``repro serve --log-level``: debug/info/warning/error.
    log_level: str = "info"
    #: ``repro serve --log-json``: one JSON object per stderr log line.
    log_json: bool = False
    #: Deterministic fault-injection spec (``repro serve --faults``; see
    #: :mod:`repro.faults`).  ``None`` falls back to the ``REPRO_FAULTS``
    #: environment variable; empty/absent disables injection.  The spec
    #: travels in this (pickled) config, so cluster workers inject too.
    faults: Optional[str] = None


class AnalysisService:
    """Protocol-independent request handling: admit, coalesce, schedule."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        # The one result store: a memory LRU over the optional disk tier
        # (no cache_dir: memory only).  It doubles as the parse memo.
        self.cache = AnalysisCache(
            directory=self.config.cache_dir, memory_entries=RESULT_CACHE_ENTRIES
        )
        # Cross-request judgement memo: subterms shared between *different*
        # programs (Horner steps, FMA patterns, a corpus's common helper
        # functions) are inferred once per server lifetime.  Bounded, like
        # every other long-lived table in this process.
        self.judgement_memo = JudgementMemo(JUDGEMENT_MEMO_ENTRIES)
        # One registry per service instance: every counter below, the
        # scheduler's lanes and queue-wait histogram, and the result cache's
        # collector callbacks all land here, so the `{"op": "metrics"}`
        # verb and the Prometheus text see one coherent snapshot.
        self.metrics = MetricsRegistry()
        self.scheduler = Scheduler(
            queue_size=self.config.queue_size,
            parse_cache=self.cache,
            judgement_memo=self.judgement_memo,
            engine=self.config.engine,
            metrics=self.metrics,
        )
        self._inflight: Dict[str, Job] = {}
        # Hot-path memos for repeated requests, touched only from the
        # event loop (no locking).  ``_hot_keys`` maps the id-stripped
        # request bytes to the op + content key a full ``handle`` pass
        # computed for them; ``_hot_reports`` caches one JSON encoding per
        # cached report object, so N hits on one report serialize it once.
        self._hot_keys = _LRU(HOT_KEY_ENTRIES)
        self._hot_reports = _LRU(HOT_REPORT_ENTRIES)
        # Dict-shaped view over registry counters: `counters["x"] += 1`
        # and `dict(self.counters)` (the /stats block) both still work.
        self.counters = self.metrics.group(
            "repro_service",
            [
                "requests",
                "analyze_requests",
                "validate_requests",
                "tune_requests",
                "cache_hits",
                "coalesced",
                "scheduled",
                "inferences",
                "busy",
                "timeouts",
                "errors",
            ],
            "Service admission counters.",
        )
        self._register_cache_metrics()
        parse_stats = self.cache.parse_stats
        for field_name in ("hits", "misses"):
            self.metrics.counter_func(
                f"repro_parse_cache_{field_name}_total",
                (lambda f: lambda: getattr(parse_stats, f))(field_name),
                "Shared parse-memo counters.",
            )
        self.metrics.gauge_func(
            "repro_service_inflight",
            lambda: len(self._inflight),
            "Scheduled jobs whose futures have not resolved.",
        )
        # Graceful-degradation observability: compiled-engine failures
        # that fell back to the interpreter, and corrupt disk-cache
        # entries quarantined aside.  Registered unconditionally — both
        # paths exist without fault injection.
        self.metrics.counter_func(
            "repro_engine_fallbacks_total",
            lambda: engine_fallback_stats()["fallbacks"],
            "Compiled-engine failures served by the interpreted engine instead.",
        )
        self.metrics.gauge_func(
            "repro_engine_quarantined_plans",
            lambda: engine_fallback_stats()["quarantined"],
            "Programs whose compiled plans are quarantined after a failure.",
        )
        self.metrics.counter_func(
            "repro_cache_quarantined_total",
            quarantined_total,
            "Corrupt disk-cache entries quarantined (renamed *.corrupt).",
        )
        # Deterministic fault injection: the spec arrives via the (pickled)
        # config or the inherited REPRO_FAULTS environment; see repro.faults.
        plan = activate(self.config.faults or plan_from_environment())
        if plan is not None:
            logger.warning("fault injection active: %s", plan.spec)
            for site in FAULT_SITES:
                self.metrics.counter_func(
                    "repro_faults_injected_total",
                    (lambda s: lambda: injected_counts().get(s, 0))(site),
                    "Faults injected by the active plan, by site.",
                    site=site,
                )
        #: Ring buffer of the slowest recent requests (op, key, status,
        #: seconds), surfaced as ``/stats → slow_requests``.
        self._slow_log: "deque" = deque(maxlen=max(1, self.config.slow_log_entries))
        self.started_at = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await self.scheduler.start()

    async def stop(self) -> None:
        await self.scheduler.stop()

    # -- request normalization ----------------------------------------------

    def request_key(self, source: str, kind: str) -> str:
        """Content-addressed key for one analyze request.

        Λnum sources are keyed by the hash-consed structure of their
        definitions — the same normalization the batch/benchmark path uses
        through :func:`~repro.analysis.cache.term_key` — so formatting
        changes coalesce onto one key.  Unparseable sources key on their
        text; their (failed) reports are cached all the same.
        """
        return normalize_request_key(
            self.cache, source, kind, self.config.inference
        )

    # -- pipelined fast path -------------------------------------------------

    def fast_payload(self, body: bytes) -> Optional[bytes]:
        """Serve a memory-cache hit for a previously-seen request body.

        ``body`` is the id-stripped request line (see
        :meth:`AnalysisServer._serve_line`).  When the body was seen
        before (so its content key is memoized) *and* the report is in
        the memory tier, this returns the complete response **tail** —
        everything after the ``{"id":N`` prefix, newline included — built
        from memoized report bytes, for the connection's writer to frame.
        Returns ``None`` in every other case; the caller then takes the
        full ``handle`` path, which re-validates, probes disk, coalesces,
        or schedules as usual.
        """
        entry = self._hot_keys.get(body)
        if entry is None:
            return None
        started = time.perf_counter()
        op, key = entry
        report = self.cache.peek(key)
        if report is None:
            return None
        self.counters["requests"] += 1
        self.counters[f"{op}_requests"] += 1
        self.counters["cache_hits"] += 1
        elapsed = time.perf_counter() - started
        self._observe_cache_lookup("hot", elapsed)
        self._observe_request(op, "ok", elapsed)
        return (
            b',"status":"ok","op":"%s","key":"%s","cached":true,'
            b'"coalesced":false,"seconds":%.6f,"report":'
            % (op.encode("ascii"), key.encode("ascii"), elapsed)
            + self._report_bytes(key, report)
            + b"}\n"
        )

    def _report_bytes(self, key: str, report: Any) -> bytes:
        """One JSON encoding per live report object, memoized per key."""
        entry = self._hot_reports.get(key)
        if entry is not None and entry[0] is report:
            return entry[1]
        data = json.dumps(report.to_dict(), separators=(",", ":")).encode("utf-8")
        self._hot_reports.put(key, (report, data))
        return data

    def remember_key(self, body: bytes, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        """Memoize ``body → (op, key)`` after a successful full pass.

        Only cache-respecting ``ok`` responses register: a ``no_cache``
        body demands a fresh inference every time, and error/busy/timeout
        responses carry no stable key worth remembering.
        """
        if response.get("status") != "ok":
            return
        op = response.get("op")
        if op not in ("analyze", "validate", "tune") or request.get("no_cache"):
            return
        if "trace" in request:
            # A traced request must take the full handle path every time —
            # the hot-path byte memo cannot produce its spans.
            return
        self._hot_keys.put(body, (op, response["key"]))

    # -- dispatch ------------------------------------------------------------

    async def handle(self, request: Any) -> Dict[str, Any]:
        """One request dictionary in, one response dictionary out.

        Never raises (barring cancellation): any unexpected failure —
        say a ``RecursionError`` from an adversarially deep source in the
        parser — becomes a 500-style error response instead of killing
        the caller's connection.
        """
        self.counters["requests"] += 1
        started = time.perf_counter()
        try:
            response = await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            response = self._error(
                f"internal error: {type(error).__name__}: {error}", code=500
            )
        elapsed = time.perf_counter() - started
        op = request.get("op", "analyze") if isinstance(request, dict) else "invalid"
        self._observe_request(op, response.get("status", "error"), elapsed)
        threshold = self.config.slow_request_seconds
        if threshold and elapsed >= threshold:
            entry = {
                "op": op,
                "status": response.get("status"),
                "key": response.get("key"),
                "seconds": elapsed,
                "unix_time": time.time(),
            }
            self._slow_log.append(entry)
            logger.warning(
                "slow request: op=%s status=%s %.3fs key=%s",
                op, entry["status"], elapsed, entry["key"],
            )
        return response

    async def _dispatch(self, request: Any) -> Dict[str, Any]:
        if not isinstance(request, dict):
            return self._error("request must be a JSON object")
        op = request.get("op", "analyze")
        if op == "ping":
            return {"status": "ok", "op": "ping"}
        if op == "stats":
            # disk_usage() scans the cache directory — off the loop.
            stats = await asyncio.get_running_loop().run_in_executor(None, self.stats)
            return {"status": "ok", "op": "stats", "stats": stats}
        if op == "metrics":
            snapshot = self.metrics.to_dict()
            response = {"status": "ok", "op": "metrics", "metrics": snapshot}
            if request.get("format") == "prometheus":
                from ..obs.metrics import render_prometheus

                response["prometheus"] = render_prometheus([({}, snapshot)])
            return response
        if op == "shutdown":
            return {"status": "ok", "op": "shutdown"}
        if op == "analyze":
            return await self._handle_analyze(request)
        if op == "validate":
            return await self._handle_analyze(request, op="validate")
        if op == "tune":
            return await self._handle_analyze(request, op="tune")
        return self._error(f"unknown op {op!r}")

    def _error(self, message: str, code: int = 400) -> Dict[str, Any]:
        self.counters["errors"] += 1
        return {"status": "error", "code": code, "error": message}

    def _observe_request(self, op: str, outcome: str, seconds: float) -> None:
        self.metrics.histogram(
            "repro_request_seconds",
            "End-to-end request latency by op and outcome.",
            op=str(op),
            outcome=str(outcome),
        ).observe(seconds)

    def _observe_cache_lookup(self, tier: str, seconds: float) -> None:
        self.metrics.histogram(
            "repro_cache_lookup_seconds",
            "Result-cache lookup latency by serving tier.",
            tier=tier,
        ).observe(seconds)

    async def _handle_analyze(
        self, request: Dict[str, Any], op: str = "analyze"
    ) -> Dict[str, Any]:
        plan = active_plan()
        if plan is not None and plan.should("kill_worker"):
            # Simulate an abrupt worker death (OOM-kill, segfault): no
            # cleanup, no goodbye — the router's supervision machinery and
            # the client's retries are what the chaos run exercises.
            logger.critical("fault injection: kill_worker firing on %s; dying", op)
            os._exit(1)
        self.counters[f"{op}_requests"] += 1
        trace_id = requested_trace_id(request.get("trace"))
        trace = RequestTrace(trace_id) if trace_id else None
        source = request.get("source")
        if not isinstance(source, str) or not source.strip():
            return self._error("'source' must be a non-empty string")
        kind = request.get("kind", "lnum")
        if kind not in ("lnum", "fpcore"):
            return self._error(f"unknown kind {kind!r} (expected 'lnum' or 'fpcore')")
        priority_name = request.get("priority", "interactive")
        if not isinstance(priority_name, str) or priority_name not in PRIORITY_NAMES:
            return self._error(
                f"unknown priority {priority_name!r} (expected 'interactive' or 'bulk')"
            )
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
            return self._error("'deadline_ms' must be a number")
        if deadline_ms is not None and deadline_ms <= 0:
            # 0 disables, matching `repro serve --deadline 0`.
            deadline_ms = None
            deadline_disabled = True
        else:
            deadline_disabled = False
        name = request.get("name") or "<request>"
        no_cache = bool(request.get("no_cache", False))

        params: Optional[Dict[str, Any]] = None
        if op in _INTEGER_PARAMETERS:
            params = {}
            for field_name, default, minimum in _INTEGER_PARAMETERS[op]:
                value = request.get(field_name, default)
                if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                    return self._error(
                        f"{field_name!r} must be an integer >= {minimum}"
                    )
                params[field_name] = value
        if op == "tune":
            for field_name in ("target", "target_ratio"):
                value = request.get(field_name)
                if value is None:
                    continue
                if not isinstance(value, (str, int, float)) or isinstance(value, bool):
                    return self._error(f"{field_name!r} must be a number or fraction string")
                try:
                    parsed = parse_fraction(str(value))
                except ValueError:
                    return self._error(f"{field_name!r} is not a valid fraction")
                if parsed <= 0:
                    return self._error(f"{field_name!r} must be positive")
                params[field_name] = str(parsed)
            stochastic = request.get("stochastic", False)
            if not isinstance(stochastic, bool):
                return self._error("'stochastic' must be a boolean")
            params["stochastic"] = stochastic

        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        # Key normalization parses the source — real work for a large
        # program — so it runs on the executor, keeping the event loop
        # free to serve other connections' memory-cache hits meanwhile.
        key = await loop.run_in_executor(None, self.request_key, source, kind)
        if trace is not None:
            trace.add("normalize", time.perf_counter() - started)
        if op == "validate":
            # Validation results are a different value type under different
            # parameters, so they live under their own content key.
            key = make_key(
                "validate", key, params["samples"], params["points"], params["seed"]
            )
        elif op == "tune":
            key = make_key(
                "tune",
                key,
                params["samples"],
                params["points"],
                params["seed"],
                params["budget"],
                params.get("target"),
                params.get("target_ratio"),
                params["stochastic"],
            )

        if not no_cache:
            lookup_started = time.perf_counter()
            tier = "miss"
            if self.cache.directory is None:
                cached = self.cache.get(key)  # memory-only: cheap, inline
            else:
                cached = self.cache.peek(key)
            if cached is not None:
                tier = "memory"
            elif self.cache.directory is not None:
                # Disk-tier pickle reads happen off the loop too.  The
                # exact-text alias only exists for analyze results (it is
                # the key `repro batch` uses for the same program).
                cached = await loop.run_in_executor(
                    None, self._probe_disk_tiers, key, source, kind, op
                )
                if cached is not None:
                    tier = "disk"
                else:
                    # Re-check the memory tier: an in-flight duplicate may
                    # have completed (stored its report and deregistered)
                    # while the disk probe ran off-loop; without this, that
                    # narrow window would schedule a second inference for
                    # the same program.  ``count=False``: the probe above
                    # already recorded this lookup's miss.
                    cached = self.cache.peek(key, count=False)
                    if cached is not None:
                        tier = "memory"
            lookup_seconds = time.perf_counter() - lookup_started
            self._observe_cache_lookup(tier, lookup_seconds)
            if trace is not None:
                trace.add("cache.lookup", lookup_seconds, tier=tier)
            if cached is not None:
                self.counters["cache_hits"] += 1
                return self._ok(cached, key, started, op, cached=True, trace=trace)

        if deadline_disabled:
            deadline_seconds: Optional[float] = None
        elif deadline_ms is not None:
            deadline_seconds = deadline_ms / 1000.0
        else:
            deadline_seconds = self.config.default_deadline_seconds

        # ``no_cache`` opts out of coalescing too: such a request demands a
        # fresh inference, and letting cache-respecting duplicates ride it
        # would produce results that never reach the cache.
        inflight = self._inflight.get(key) if not no_cache else None
        if inflight is not None:
            # Coalesce: ride the in-flight computation instead of queueing
            # a duplicate.  This waiter may carry a longer budget than the
            # submitter whose deadline the job inherited — extend the
            # job's queue deadline so shared work is not dropped while a
            # live waiter still has time left.
            self.counters["coalesced"] += 1
            if trace is not None:
                trace.add("coalesce", 0.0)
            if inflight.deadline is not None:
                if deadline_seconds is None:
                    inflight.deadline = None
                else:
                    inflight.deadline = max(
                        inflight.deadline, time.monotonic() + deadline_seconds
                    )
            return await self._await_report(
                inflight.future, deadline_seconds, key, started, op,
                coalesced=True, trace=trace, job=inflight,
            )

        deadline: Optional[float] = None
        if deadline_seconds is not None:
            deadline = time.monotonic() + deadline_seconds

        job = Job(
            key=key,
            item=BatchItem(name=name, kind=kind, source=source),
            config=self.config.inference,
            priority=PRIORITY_NAMES[priority_name],
            deadline=deadline,
            future=asyncio.get_running_loop().create_future(),
            kind=op,
            params=params,
        )
        if not no_cache:
            self._inflight[key] = job
        # Caching and in-flight cleanup follow the *job*, not the waiter:
        # the future resolves only when the inference actually finishes
        # (or the job is dropped/shed), so a report that completes after
        # its submitter's deadline is still stored, and retries keep
        # coalescing onto the running work until then.
        job.future.add_done_callback(
            lambda future: self._finish_job(job, no_cache, future)
        )
        try:
            self.scheduler.submit(job)
        except SchedulerBusy as busy:
            # Resolving the future triggers _finish_job, which deregisters
            # the in-flight entry (guarded, so a shed no_cache request
            # never evicts another request's registration) and consumes
            # the exception.
            if not job.future.done():
                job.future.set_exception(busy)
            self.counters["busy"] += 1
            response = {"status": "busy", "code": 429, "key": key}
            if trace is not None:
                response["trace"] = trace.to_dict()
            return response
        self.counters["scheduled"] += 1
        return await self._await_report(
            job.future, deadline_seconds, key, started, op, trace=trace, job=job
        )

    async def _await_report(
        self,
        future: "asyncio.Future",
        deadline_seconds: Optional[float],
        key: str,
        started: float,
        op: str = "analyze",
        coalesced: bool = False,
        trace: Optional[RequestTrace] = None,
        job: Optional[Job] = None,
    ) -> Dict[str, Any]:
        """Wait on a (possibly shared) job future and shape the response.

        ``shield`` so one waiter's cancellation (a dropped connection)
        never cancels the shared work; ``wait_for`` so each waiter's *own*
        deadline applies — while queued, while running, and while riding a
        coalesced computation with a longer budget.
        """
        try:
            if deadline_seconds is not None:
                report = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline_seconds
                )
            else:
                report = await asyncio.shield(future)
        except (asyncio.TimeoutError, DeadlineExceeded):
            self.counters["timeouts"] += 1
            response = {"status": "timeout", "code": 504, "key": key}
            if trace is not None:
                response["trace"] = trace.to_dict()
            return response
        except SchedulerBusy:
            self.counters["busy"] += 1
            response = {"status": "busy", "code": 429, "key": key}
            if trace is not None:
                response["trace"] = trace.to_dict()
            return response
        except Exception as error:  # pragma: no cover - defensive
            return self._error(f"analysis failed: {error}", code=500)
        return self._ok(
            report, key, started, op, coalesced=coalesced, trace=trace, job=job
        )

    def _finish_job(self, job: Job, no_cache: bool, future: "asyncio.Future") -> None:
        """Done-callback for every scheduled job (runs on the event loop)."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        if future.cancelled() or future.exception() is not None:
            return
        self.counters["inferences"] += 1
        report = future.result()
        phases = getattr(report, "phases", None)
        if phases:
            for phase, value in phases.items():
                if phase == "memo_hits":
                    if value:
                        self.metrics.counter(
                            "repro_engine_memo_hits_total",
                            "Judgement-memo hits across instrumented inferences.",
                        ).inc(int(value))
                    continue
                self.metrics.histogram(
                    "repro_engine_phase_seconds",
                    "Per-inference engine phase durations.",
                    phase=phase,
                ).observe(value)
        if no_cache:
            return
        self.cache.put(job.key, report, persist=False)
        if self.cache.directory is not None:
            # Persist asynchronously (pickle writes + budget eviction can
            # take milliseconds): responses never wait on disk.  Validation
            # results skip the exact-text alias — that key is the batch
            # engine's *analysis* report for the same source.
            asyncio.get_running_loop().run_in_executor(
                None,
                self._persist,
                job.key,
                job.item.source,
                job.item.kind,
                report,
                job.kind == "analyze",
            ).add_done_callback(_consume_result)

    def _alias_key(self, source: str, kind: str) -> str:
        """The exact-text key `repro batch` stores the same program under.

        Probing and writing it keeps the disk tier interoperable in both
        directions — a batch-warmed directory serves the service and vice
        versa.  Only computed on the executor-side miss/persist paths:
        digesting a large source has no place on the event loop.
        """
        return source_key(source, kind, self.config.inference)

    def _probe_disk_tiers(
        self, key: str, source: str, kind: str, op: str = "analyze"
    ) -> Any:
        """Blocking cache probe (disk included); runs on the executor."""
        cached = self.cache.get(key)
        if cached is None and op == "analyze":
            # The alias probe reads the disk tier only: a full lookup would
            # count a second miss for one logical lookup and hold the entry
            # in memory under both keys.
            alias = self._alias_key(source, kind)
            if alias != key:
                cached = self.cache.read_disk(alias)
                if cached is not None:
                    self.cache.put(key, cached, persist=False)
        return cached

    def _persist(
        self, key: str, source: str, kind: str, report: Any, alias_too: bool = True
    ) -> None:
        """Blocking disk write-back; runs on the executor."""
        self.cache.write_disk(key, report)
        if not alias_too:
            return
        alias = self._alias_key(source, kind)
        if alias != key:
            self.cache.write_disk(alias, report)

    def _ok(
        self,
        report: Any,
        key: str,
        started: float,
        op: str = "analyze",
        cached: bool = False,
        coalesced: bool = False,
        trace: Optional[RequestTrace] = None,
        job: Optional[Job] = None,
    ) -> Dict[str, Any]:
        response = {
            "status": "ok",
            "op": op,
            "key": key,
            "cached": cached,
            "coalesced": coalesced,
            "seconds": time.perf_counter() - started,
            "report": report.to_dict(),
        }
        if trace is not None:
            if job is not None and job.queue_wait_seconds is not None:
                trace.add("queue.wait", job.queue_wait_seconds)
            phases = getattr(report, "phases", None)
            if phases and not cached:
                # A cached report's phases describe whatever inference
                # originally produced it, not this request — the tier span
                # already tells that story.
                engine = "compiled" if "execute" in phases else "interpreted"
                trace.add(
                    "engine.select", 0.0,
                    requested=self.config.engine, engine=engine,
                )
                memo_hits = phases.get("memo_hits")
                for phase in ("parse", "lower", "execute", "convert", "interpret"):
                    if phase not in phases:
                        continue
                    attributes: Dict[str, Any] = {}
                    if phase == "interpret" and memo_hits is not None:
                        attributes["memo_hits"] = memo_hits
                    trace.add(f"engine.{phase}", phases[phase], **attributes)
            response["trace"] = trace.to_dict()
        return response

    # -- reporting -----------------------------------------------------------

    def _tier_stats(self) -> Tuple[CacheStats, CacheStats]:
        """Memory- and disk-tier views of the result cache's counters.

        ``cache.stats`` counts a disk promotion as a hit (what a caller of
        ``get`` sees); per tier it is a memory miss plus a disk hit.  Every
        put is written through to disk (here, off the loop by ``_persist``).
        """
        stats, disk_hits = self.cache.stats, self.cache.disk_hits
        memory = CacheStats(
            stats.hits - disk_hits, stats.misses + disk_hits, stats.puts, stats.evictions
        )
        disk = CacheStats(disk_hits, stats.misses, stats.puts, self.cache.disk_evictions)
        return memory, disk

    def _register_cache_metrics(self) -> None:
        """Collector callbacks over the result cache's counters, sampled at
        snapshot time: the request path pays nothing for them."""
        tiers = ["memory"] + (["disk"] if self.cache.directory is not None else [])
        for index, tier in enumerate(tiers):
            for field_name in ("hits", "misses", "puts", "evictions"):
                self.metrics.counter_func(
                    f"repro_cache_{field_name}_total",
                    lambda i=index, f=field_name: getattr(self._tier_stats()[i], f),
                    f"Result-cache {tier}-tier counters.",
                    tier=tier,
                )
        self.metrics.gauge_func(
            "repro_cache_entries",
            lambda: self.cache.entries,
            "Live entries in the memory tier.",
            tier="memory",
        )
        self.metrics.counter_func(
            "repro_cache_disk_hits_total",
            lambda: self.cache.disk_hits,
            "Memory misses served by the disk tier.",
        )
        memo = self.judgement_memo
        for field_name in ("hits", "misses"):
            self.metrics.counter_func(
                f"repro_judgement_memo_{field_name}_total",
                lambda f=field_name: getattr(memo, f),
                "Cross-request subterm judgement memo counters.",
            )

    def _cache_report(self) -> Dict[str, Any]:
        """The ``cache`` block of ``/stats``: memory-tier counters, the disk
        tier when there is one, and the cross-request judgement memo."""
        memory, disk = self._tier_stats()
        report: Dict[str, Any] = {
            "entries": self.cache.entries,
            **memory.to_dict(),
            "disk_hits": self.cache.disk_hits,
        }
        if self.cache.directory is not None:
            disk_entries, disk_bytes = self.cache.disk_usage()
            report["disk"] = {**disk.to_dict(), "entries": disk_entries, "bytes": disk_bytes}
        report["judgement_memo"] = self.judgement_memo.stats()
        return report

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: service, cache and scheduler counters."""
        out = {
            "uptime_seconds": time.monotonic() - self.started_at,
            "service": dict(self.counters),
            "inflight": len(self._inflight),
            "cache": self._cache_report(),
            "parse_cache": self.cache.parse_stats.to_dict(),
            "scheduler": self.scheduler.stats(),
            # Process-wide bounded memos (grade add/mul LRUs, intern
            # tables, fingerprint/free-variable memos, exactmath caches):
            # occupancy vs. caps, so a long-lived server is observable.
            "memos": memo_report(),
            # Graceful-degradation counters: compiled-plan quarantine and
            # interpreter fallbacks (see repro.core.inference).
            "resilience": engine_fallback_stats(),
            # Mixed-precision tuning counters (candidates, certifications,
            # cache hits); process-local like the resilience block, merged
            # across cluster workers by the router.
            "tuning": tuning_stats(),
            # Ring buffer of requests slower than
            # ``ServiceConfig.slow_request_seconds``, newest last.
            "slow_requests": list(self._slow_log),
        }
        plan = active_plan()
        if plan is not None:
            out["faults"] = plan.describe()
        return out


class AnalysisServer:
    """Newline-delimited-JSON TCP front-end over an :class:`AnalysisService`."""

    def __init__(
        self,
        service: Optional[AnalysisService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or AnalysisService()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        # Live connections (their reply writers), so stop() can close
        # them: since Python 3.12.1 ``Server.wait_closed`` waits for every
        # connection handler to finish, and an idle client parked in
        # readline() would otherwise hold shutdown hostage.
        self._connections: set = set()
        # Created inside the running loop (asyncio primitives bind their
        # loop at construction on Python 3.9).
        self._shutdown: Optional[asyncio.Event] = None

    async def start(self) -> Tuple[str, int]:
        """Bind, start the scheduler workers, and return ``(host, port)``."""
        if self._shutdown is None:
            self._shutdown = asyncio.Event()
        await self.service.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or cancellation)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            for pipeline in list(self._connections):
                pipeline.close()
                pipeline.writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()
        if self._shutdown is not None:
            self._shutdown.set()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        pipeline = _PipelineWriter(writer, self.service.config.pipeline_window)
        self._connections.add(pipeline)
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    pipeline.reply(
                        pipeline.open(),
                        response_tail(
                            {"status": "error", "code": 400, "error": "request too large"}
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await pipeline.admit()
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(pipeline, pipeline.open(), line)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            # End of input (a client may half-close after its last
            # request): every request read so far is still answered.
            await pipeline.flush()
        except ConnectionError:
            # Covers resets *and* broken pipes (a client that sent a
            # request and hung up before reading the response).
            pass
        finally:
            self._connections.discard(pipeline)
            for task in list(tasks):
                task.cancel()
            for task in list(tasks):
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            pipeline.close()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_line(self, pipeline: _PipelineWriter, ticket: list, line: bytes) -> None:
        """Answer one request line; every line of a connection runs here.

        A canonical ``{"id":N,...`` frame and an id-less line starting
        with ``{`` both reduce to the same id-stripped *body*
        (:func:`split_frame`), so a repeated request takes the
        byte-spliced hot path (:meth:`AnalysisService.fast_payload`)
        whichever way it is framed.
        """
        request_id, body = split_frame(line)
        request: Any = None
        tail = self.service.fast_payload(body) if body is not None else None
        if tail is None:
            request, error = decode_request(line)
            if error is not None:
                response = error
            else:
                if isinstance(request, dict):
                    request_id, body = pop_request_id(request, request_id, body)
                response = await self.service.handle(request)
                if body is not None:
                    self.service.remember_key(body, request, response)
            tail = response_tail(response)
        tail = await self._wire_fault(tail, pipeline.writer)
        if tail is None:
            # The fault took the connection down: nothing more is written.
            pipeline.close()
            return
        pipeline.reply(ticket, tail, request_id)
        if isinstance(request, dict) and request.get("op") == "shutdown":
            try:
                # The replies to everything sent before the shutdown go
                # out first, then the acknowledgement.
                await pipeline.flush()
            finally:
                # Also when the client hangs up on the acknowledgement and
                # its connection's teardown cancels this task.
                self._shutdown.set()

    @staticmethod
    async def _wire_fault(
        frame: bytes, writer: asyncio.StreamWriter
    ) -> Optional[bytes]:
        """Apply any active wire-level fault to one outgoing response frame.

        ``slow_response`` delays the frame (arg = milliseconds);
        ``truncate_frame`` writes half the bytes then aborts the
        connection (a crash mid-write); ``drop_connection`` aborts
        without writing anything.  Returns the frame to send normally, or
        ``None`` when the fault consumed it.
        """
        plan = active_plan()
        if plan is None:
            return frame
        if plan.should("slow_response"):
            await asyncio.sleep(plan.arg("slow_response", 25.0) / 1000.0)
        if plan.should("truncate_frame"):
            logger.warning("fault injection: truncating a %d-byte frame", len(frame))
            try:
                writer.write(frame[: max(1, len(frame) // 2)])
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.transport.abort()
            return None
        if plan.should("drop_connection"):
            logger.warning("fault injection: dropping the connection")
            writer.transport.abort()
            return None
        return frame

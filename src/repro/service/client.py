"""Blocking client library for the ``repro serve`` analysis service.

The server speaks newline-delimited JSON over TCP, so the client is a
socket, a buffered file object, and ``json`` — no third-party
dependencies, usable from scripts, tests and the ``repro query`` CLI
verb alike::

    from repro.service.client import ServiceClient

    with ServiceClient(port=7351) as client:
        response = client.analyze(open("prog.lnum").read())
        print(response["report"]["functions"][0]["relative_error_bound"])
        print(client.stats()["service"]["coalesced"])

One :class:`ServiceClient` holds one connection.  It tags every request
with a correlation ``id``, so besides one-at-a-time calls it can keep
many requests in flight (``submit`` / ``drain`` / ``collect``) and match
the possibly out-of-order responses back up; retries of retryable
failures resubmit under the same id.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import global_registry
from .resilience import RetryPolicy, retryable_response

logger = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "render_report",
    "render_tuning",
    "render_validation",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7351


class ServiceError(Exception):
    """A transport failure or an error/busy/timeout response.

    ``response`` carries the decoded server response when one was
    received (``status``, ``code``, ...), or ``None`` for pure transport
    failures.
    """

    def __init__(self, message: str, response: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.response = response


class ServiceClient:
    """A blocking client that multiplexes requests on one connection.

    Every request is tagged with an integer correlation id.  ``submit``
    writes one without waiting; ``drain`` / ``collect`` read responses
    and match them by id, in whatever order the server finishes them, so
    one client can keep many requests in flight and saturate a server
    about as well as dozens of one-at-a-time clients::

        with ServiceClient(port=7351) as client:
            ids = [client.submit({"op": "analyze", "source": src})
                   for src in sources]
            responses = client.collect(ids)

    :meth:`request` (and the ``analyze`` / ``stats`` / ... helpers on top
    of it) is one ``submit`` + ``drain``.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 120.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Backoff policy for retryable failures (``None`` disables).
        #: Safe for analysis traffic: requests are content-addressed and
        #: idempotent, so a retry coalesces or hits the cache.
        self.retry = retry
        self._socket: Optional[socket.socket] = None
        self._reader = None
        self._writer = None
        self._next_id = 0
        #: Responses read while draining some other id.
        self._responses: Dict[int, Dict[str, Any]] = {}
        #: Retry state: every request still in flight (payload and first
        #: submit time) and the per-request attempt counters.
        self._inflight: Dict[int, Tuple[Dict[str, Any], float]] = {}
        self._attempts: Dict[int, int] = {}
        #: The last transport failure, and the requests it ended: their
        #: ``deadline_ms`` budget was spent before they could be resubmitted.
        self._last_failure: Optional[ServiceError] = None
        self._failed: Dict[int, ServiceError] = {}

    # -- connection management ----------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._socket is None:
            try:
                self._socket = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as error:
                raise ServiceError(
                    f"cannot connect to {self.host}:{self.port}: {error}"
                ) from error
            # The timeout must govern every read/write on the established
            # connection, not just the handshake: a worker that accepts
            # and then hangs would otherwise stall readline() forever.
            self._socket.settimeout(self.timeout)
            self._reader = self._socket.makefile("rb")
            self._writer = self._socket.makefile("wb")
        return self

    def close(self) -> None:
        for stream in (self._reader, self._writer):
            if stream is not None:
                try:
                    stream.close()
                except OSError as error:
                    # Flushing a buffered writer onto a dead socket fails
                    # here; the connection is gone either way, but record
                    # it — a reset mid-close can mean a lost request.
                    logger.debug("stream close failed: %s", error)
                    global_registry().counter(
                        "repro_client_close_errors_total",
                        "Client stream/socket close failures.",
                    ).inc()
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError as error:
                logger.debug("socket close failed: %s", error)
                global_registry().counter(
                    "repro_client_close_errors_total",
                    "Client stream/socket close failures.",
                ).inc()
        self._socket = self._reader = self._writer = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the protocol --------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> int:
        """Send one request without waiting; returns its correlation id.

        The request is framed canonically (``id`` first), which lets the
        server and router take their byte-splicing fast paths.  Writes are
        buffered until :meth:`flush` or the next :meth:`drain`.
        """
        request_id = self._next_id
        self._next_id += 1
        if self.retry is not None:
            self._inflight[request_id] = (payload, time.monotonic())
        try:
            self.connect()
            self._write(request_id, payload)
        except ServiceError as error:
            if self.retry is None:
                raise
            # The connection is gone: the first drain pass resubmits it.
            self._last_failure = error
        return request_id

    def _write(self, request_id: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, separators=(",", ":"))
        if body == "{}":
            line = '{"id":%d}\n' % request_id
        else:
            line = '{"id":%d,' % request_id + body[1:] + "\n"
        try:
            self._writer.write(line.encode("utf-8"))
        except OSError as error:
            self.close()
            raise ServiceError(f"connection to {self.host}:{self.port} failed: {error}") from error

    def flush(self) -> None:
        try:
            self._writer.flush()
        except OSError as error:
            self.close()
            raise ServiceError(f"connection to {self.host}:{self.port} failed: {error}") from error

    def drain(self, request_id: int) -> Dict[str, Any]:
        """The response for ``request_id``, reading lines until it arrives.

        With a retry policy set, retryable failures — a worker-death 503
        from the router, or the whole connection dropping mid-stream — are
        retried transparently under the *same* correlation id (after a
        reconnect-and-resubmit-all for transport failures), with the
        policy's backoff between attempts.  Retries are safe for analysis
        traffic: requests are content-addressed and idempotent, so a retry
        coalesces or hits the cache.  A ``deadline_ms`` budget is reduced
        by the time spent since the first submit before every resubmit,
        so retrying never extends the caller's end-to-end deadline; once
        it is spent, the last failure stands: a retryable reply is
        returned, a transport failure is raised — also for a request whose
        budget ran out while another request was being drained.
        """
        while True:
            failure = self._failed.pop(request_id, None)
            if failure is not None:
                self._attempts.pop(request_id, None)
                raise failure
            response = self._drain_once(request_id)
            if response is None:
                # Transport failure with retries left: the connection was
                # re-established and every in-flight request resubmitted.
                continue
            if (
                self.retry is not None
                and response.get("status") != "ok"
                and retryable_response(response)
                and self._retry_one(request_id)
            ):
                continue
            self._inflight.pop(request_id, None)
            self._attempts.pop(request_id, None)
            return response

    def collect(self, request_ids: List[int]) -> List[Dict[str, Any]]:
        """Responses for ``request_ids``, in the order *asked for*."""
        return [self.drain(request_id) for request_id in request_ids]

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, return the decoded response object."""
        response = self.drain(self.submit(payload))
        response.pop("id", None)
        return response

    def _drain_once(self, request_id: int) -> Optional[Dict[str, Any]]:
        """One read pass; ``None`` means a transport failure was retried."""
        try:
            if self._socket is None and request_id not in self._responses:
                if self.retry is None:
                    raise ServiceError(f"not connected to {self.host}:{self.port}")
                # A failed submit or a dropped connection: reconnect and
                # resubmit everything in flight.
                self._resubmit_all()
                if request_id in self._failed:
                    return None
            response = self._responses.pop(request_id, None)
            if response is not None:
                return response
            self.flush()
            while True:
                try:
                    line = self._reader.readline()
                except OSError as error:
                    self.close()
                    raise ServiceError(
                        f"connection to {self.host}:{self.port} failed: {error}"
                    ) from error
                if not line:
                    self.close()
                    raise ServiceError("server closed the connection")
                try:
                    response = json.loads(line)
                except json.JSONDecodeError as error:
                    # A truncated/garbled frame desynchronizes the whole
                    # stream: drop the connection so a retry starts clean.
                    self.close()
                    raise ServiceError(f"malformed response: {error}") from error
                got = response.get("id")
                if got == request_id:
                    return response
                if got is not None:
                    self._responses[got] = response
        except ServiceError as error:
            if self.retry is None or not self._retry_all(request_id):
                raise
            self._last_failure = error
            return None

    def _retry_one(self, request_id: int) -> bool:
        """Back off and resubmit one request; ``False`` when out of retries."""
        delay = self._next_delay(request_id)
        if delay is None:
            return False
        payload = self._budgeted(request_id, delay)
        if payload is None:
            return False
        time.sleep(delay)
        try:
            self.connect()
            self._write(request_id, payload)
        except ServiceError as error:
            # The connection is gone: the next drain pass resubmits.
            self._last_failure = error
        return True

    def _retry_all(self, request_id: int) -> bool:
        """Back off after a dropped connection; the next drain pass
        reconnects and resubmits every in-flight request."""
        delay = self._next_delay(request_id)
        if delay is None or self._budgeted(request_id, delay) is None:
            return False
        time.sleep(delay)
        self.close()  # always resubmit on a fresh connection
        return True

    def _resubmit_all(self) -> None:
        self.connect()
        for request_id in list(self._inflight):
            if request_id in self._responses:
                continue  # answered before the connection dropped
            payload = self._budgeted(request_id, 0.0)
            if payload is None:
                del self._inflight[request_id]
                self._failed[request_id] = self._last_failure or ServiceError(
                    f"connection to {self.host}:{self.port} lost"
                )
                continue
            self._write(request_id, payload)

    def _budgeted(self, request_id: int, delay: float) -> Optional[Dict[str, Any]]:
        """The request to resubmit after ``delay`` more seconds, with its
        ``deadline_ms`` reduced by the time burned since the first submit;
        ``None`` once that budget is spent (or the request is unknown)."""
        entry = self._inflight.get(request_id)
        if entry is None:
            return None
        payload, submitted = entry
        budget = payload.get("deadline_ms")
        if not isinstance(budget, (int, float)) or isinstance(budget, bool) or budget <= 0:
            return payload
        remaining = budget - (time.monotonic() - submitted + delay) * 1000.0
        if remaining <= 0:
            return None
        return {**payload, "deadline_ms": remaining}

    def _next_delay(self, request_id: int) -> Optional[float]:
        """The backoff before this request's next attempt, or ``None``."""
        schedule = self.retry.schedule() if self.retry is not None else []
        attempt = self._attempts.get(request_id, 0)
        if attempt >= len(schedule):
            global_registry().counter(
                "repro_client_retries_exhausted_total",
                "Requests that failed after exhausting their retries.",
            ).inc()
            return None
        self._attempts[request_id] = attempt + 1
        global_registry().counter(
            "repro_client_retries_total",
            "Retry attempts after retryable failures.",
        ).inc()
        return schedule[attempt]

    def _checked(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`request`, raising :class:`ServiceError` on a non-ok reply."""
        response = self.request(payload)
        status = response.get("status")
        if status != "ok":
            raise ServiceError(
                f"server replied {status!r}"
                + (f": {response['error']}" if "error" in response else ""),
                response=response,
            )
        return response

    # -- operations ----------------------------------------------------------

    def ping(self) -> bool:
        return self._checked({"op": "ping"}).get("status") == "ok"

    def stats(self) -> Dict[str, Any]:
        """The server's ``/stats`` payload (service/cache/scheduler counters)."""
        return self._checked({"op": "stats"})["stats"]

    def metrics(self, format: Optional[str] = None) -> Dict[str, Any]:
        """The server's metrics snapshot (``{"op": "metrics"}``).

        Against a single server the response carries ``metrics`` (the
        registry snapshot); against a cluster router it carries ``router``
        plus per-slot ``workers`` snapshots.  ``format="prometheus"`` adds
        a ``prometheus`` member with the text exposition (worker-labeled
        when routed).
        """
        payload: Dict[str, Any] = {"op": "metrics"}
        if format:
            payload["format"] = format
        return self._checked(payload)

    def shutdown(self) -> None:
        """Ask the server to stop accepting and exit its serve loop."""
        try:
            self.request({"op": "shutdown"})
        finally:
            self.close()

    def analyze(
        self,
        source: str,
        kind: str = "lnum",
        name: Optional[str] = None,
        priority: str = "interactive",
        deadline_ms: Optional[float] = None,
        no_cache: bool = False,
        trace: Any = None,
    ) -> Dict[str, Any]:
        """Analyse one program source; returns the full ``ok`` response.

        The response's ``report`` is a
        :meth:`repro.analysis.batch.ProgramReport.to_dict` dictionary;
        ``cached`` / ``coalesced`` tell how the request was served.
        ``trace=True`` (or a caller-supplied id string) requests a span
        trace, echoed under the response's ``trace`` key.  Raises
        :class:`ServiceError` (with ``response`` attached) on
        busy/timeout/error responses.
        """
        payload: Dict[str, Any] = {
            "op": "analyze",
            "source": source,
            "kind": kind,
            "priority": priority,
        }
        if name:
            payload["name"] = name
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if no_cache:
            payload["no_cache"] = True
        if trace:
            payload["trace"] = trace
        return self._checked(payload)

    def validate(
        self,
        source: str,
        kind: str = "lnum",
        name: Optional[str] = None,
        samples: int = 64,
        points: int = 4,
        seed: int = 0,
        priority: str = "bulk",
        deadline_ms: Optional[float] = None,
        no_cache: bool = False,
        trace: Any = None,
    ) -> Dict[str, Any]:
        """Run the differential soundness harness on one program source.

        The response's ``report`` is an
        :meth:`repro.validation.harness.ItemValidation.to_dict` dictionary
        (per-function verdicts, backend bounds, tightness ratios).
        Validation fans out many concrete executions, so it defaults to the
        bulk scheduling lane.
        """
        payload: Dict[str, Any] = {
            "op": "validate",
            "source": source,
            "kind": kind,
            "priority": priority,
            "samples": samples,
            "points": points,
            "seed": seed,
        }
        if name:
            payload["name"] = name
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if no_cache:
            payload["no_cache"] = True
        if trace:
            payload["trace"] = trace
        return self._checked(payload)

    def tune(
        self,
        source: str,
        kind: str = "lnum",
        name: Optional[str] = None,
        target: Optional[str] = None,
        target_ratio: Optional[str] = None,
        budget: int = 48,
        samples: int = 8,
        points: int = 3,
        seed: int = 0,
        stochastic: bool = False,
        priority: str = "bulk",
        deadline_ms: Optional[float] = None,
        no_cache: bool = False,
        trace: Any = None,
    ) -> Dict[str, Any]:
        """Search certified mixed-precision assignments for one program.

        The response's ``report`` is a
        :meth:`repro.tuning.search.ItemTuning.to_dict` dictionary (one
        per-function tuning outcome with the chosen assignment, certified
        bound and candidate counts).  ``target`` is an absolute RP bound
        (fraction string); ``target_ratio`` a multiple of the program's
        uniform binary64 bound.  Tuning certifies many candidates, so it
        defaults to the bulk scheduling lane.
        """
        payload: Dict[str, Any] = {
            "op": "tune",
            "source": source,
            "kind": kind,
            "priority": priority,
            "budget": budget,
            "samples": samples,
            "points": points,
            "seed": seed,
        }
        if target is not None:
            payload["target"] = str(target)
        if target_ratio is not None:
            payload["target_ratio"] = str(target_ratio)
        if stochastic:
            payload["stochastic"] = True
        if name:
            payload["name"] = name
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if no_cache:
            payload["no_cache"] = True
        if trace:
            payload["trace"] = trace
        return self._checked(payload)


def render_report(response: Dict[str, Any]) -> str:
    """Human-readable rendering of one analyze response (``repro query``).

    Mirrors the per-function layout of ``repro check`` closely enough to
    eyeball, from the JSON dictionary alone (the client must not need the
    analysis classes to print a result).
    """
    report = response.get("report", {})
    lines: List[str] = []
    served = "cached" if response.get("cached") else (
        "coalesced" if response.get("coalesced") else "inferred"
    )
    lines.append(f"== {report.get('name', '<request>')} ({report.get('kind')}) [{served}]")
    if not report.get("ok", False):
        lines.append(f"  error: {report.get('error')}")
        return "\n".join(lines)
    for function in report.get("functions", []):
        lines.append(f"{function['name']}: {function['type']}")
        if function.get("error_grade") is not None:
            lines.append(f"  RP error grade : {function['error_grade']}")
        if function.get("relative_error_bound") is not None:
            lines.append(
                f"  relative error : {function['relative_error_bound']:.3e}"
            )
        if function.get("annotation") is not None:
            lines.append(
                f"  annotation     : {function['annotation']} "
                f"({'satisfied' if function.get('annotation_satisfied') else 'VIOLATED'})"
            )
    lines.append(f"  served in {response.get('seconds', 0.0) * 1000.0:.1f} ms")
    return "\n".join(lines)


def render_validation(response: Dict[str, Any]) -> str:
    """Human-readable rendering of one validate response (``repro query``)."""
    report = response.get("report", {})
    served = "cached" if response.get("cached") else (
        "coalesced" if response.get("coalesced") else "validated"
    )
    lines: List[str] = [
        f"== {report.get('name', '<request>')} ({report.get('kind')}) "
        f"[{served}] verdict: {report.get('verdict', '?').upper()}"
    ]
    if not report.get("ok", False):
        lines.append(f"  error: {report.get('error')}")
        return "\n".join(lines)
    for program in report.get("reports", []):
        lines.append(f"{program['name']}: {program['verdict']}")
        empirical = program.get("empirical")
        if empirical and empirical.get("ok"):
            lines.append(
                f"  empirical max  : {empirical['max_relative_error']:.3e} rel "
                f"({empirical['runs']} runs; worst: {empirical['worst_mode']})"
            )
        for backend in program.get("backends", []):
            if backend.get("relative_error") is not None:
                tightness = backend.get("tightness")
                lines.append(
                    f"  {backend['backend']:<15}: {backend['relative_error']:.3e} "
                    f"[{backend['status']}]"
                    + (f" (tightness {tightness:.3f})" if tightness is not None else "")
                )
            else:
                lines.append(
                    f"  {backend['backend']:<15}: {backend['status']} "
                    f"({backend.get('message', '')})"
                )
    lines.append(f"  served in {response.get('seconds', 0.0) * 1000.0:.1f} ms")
    return "\n".join(lines)


def render_tuning(response: Dict[str, Any]) -> str:
    """Human-readable rendering of one tune response (``repro query --tune``)."""
    report = response.get("report", {})
    served = "cached" if response.get("cached") else (
        "coalesced" if response.get("coalesced") else "tuned"
    )
    lines: List[str] = [
        f"== {report.get('name', '<request>')} ({report.get('kind')}) "
        f"[{served}] verdict: {report.get('verdict', '?').upper()}"
    ]
    if not report.get("ok", False):
        lines.append(f"  error: {report.get('error')}")
        return "\n".join(lines)
    for program in report.get("reports", []):
        lines.append(f"{program['name']}: {program['status']}")
        assignment = program.get("assignment")
        if assignment and program.get("sites"):
            counts = ", ".join(
                f"{count}x {name}"
                for name, count in sorted(assignment["counts"].items())
            )
            lines.append(
                f"  assignment     : {counts} "
                f"(cost {assignment['cost']}/{assignment['baseline_cost']}, "
                f"-{program['cost_reduction'] * 100.0:.1f}%)"
            )
        if program.get("certified_rp") is not None:
            target = program.get("target")
            lines.append(
                f"  certified bound: {program['certified_rp']:.3e} rp"
                + (f" (target {target:.3e})" if target is not None else "")
            )
        lines.append(
            f"  candidates     : {program['candidates']} "
            f"({program['certifications']} inferred, "
            f"{program['cache_hits']} cache hits)"
        )
        for note in program.get("notes", []):
            lines.append(f"  note: {note}")
    lines.append(f"  served in {response.get('seconds', 0.0) * 1000.0:.1f} ms")
    return "\n".join(lines)

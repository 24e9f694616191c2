"""A recorded NDJSON exchange that pins the serve protocol's bytes.

``tests/data/serve_transcript.json`` holds request lines and the replies
a single :class:`~repro.service.server.AnalysisServer` and a 1-worker
:class:`~repro.service.router.RouterServer` sent for them.  The first
test replays the lines on one connection, waiting for each reply before
the next line, and compares the replies byte for byte after zeroing the
timing members (response latency, report and inference seconds, engine
phase times and trace span times).  ``stats`` replies are compared by
their key sets only.

The exchange covers unframed requests, canonical ``{"id":N,...}``
frames, non-canonical and string ids, ``ping``, an ``analyze`` miss and
hits (including the server's byte-spliced hot path), a traced request,
``validate``, 400 errors on every framing, ``stats``, lines with
leading whitespace and, last, ``shutdown``.  The tests after it cover
what one recorded exchange cannot: bytes that are not UTF-8, id-less
requests that run concurrently yet reply in request order, and clients
that half-close their connection before the replies are ready.

To re-record after a deliberate protocol change, run :func:`record`
against both targets and rewrite the data file with its output.
"""

import json
import logging
import os
import re
import socket

import pytest

from repro.perf.service_bench import _RouterHarness, _ServerHarness
from repro.service.server import ServiceConfig

_FMA = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "programs", "fma.lnum"
)
with open(_FMA, "r", encoding="utf-8") as _handle:
    SLOW_SOURCE = _handle.read()

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "serve_transcript.json")

_NUMBER = rb"-?[0-9][0-9.eE+-]*"
#: Timing members: ``seconds``, ``inference_seconds`` and the like.
_SECONDS = re.compile(rb'"([a-z_]*seconds)":' + _NUMBER)
#: An engine's per-phase timings (``"phases":{"parse":...}``).
_PHASES = re.compile(rb'"phases":\{[^{}]*\}')


def normalize(reply: bytes):
    """Zero timing members; reduce ``stats`` replies to their key sets."""
    decoded = json.loads(reply)
    if decoded.get("op") == "stats" and isinstance(decoded.get("stats"), dict):
        return {"keys": sorted(decoded), "stats_keys": sorted(decoded["stats"])}
    reply = _SECONDS.sub(rb'"\1":0', reply)
    reply = _PHASES.sub(lambda match: re.sub(_NUMBER, b"0", match.group(0)), reply)
    return reply.decode("utf-8")


def replay(port: int, lines):
    """Send each line on one connection, reading one reply per line."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        reader = sock.makefile("rb")
        for line in lines:
            sock.sendall(line.encode("utf-8") + b"\n")
            reply = reader.readline()
            assert reply.endswith(b"\n"), (line[:80], reply[:200])
            replies.append(normalize(reply))
    return replies


def _harness(target: str):
    config = ServiceConfig(queue_size=64)
    if target == "server":
        return _ServerHarness(config)
    return _RouterHarness(1, config)


def record(target: str, lines):
    """The normalized replies one fresh ``target`` gives for ``lines``."""
    with _harness(target) as harness:
        return replay(harness.port, lines)


with open(DATA, "r", encoding="utf-8") as _handle:
    TRANSCRIPT = json.load(_handle)


@pytest.mark.parametrize("target", ["server", "router"])
def test_replies_match_the_recorded_transcript(target):
    steps = TRANSCRIPT["steps"]
    replies = record(target, [step["send"] for step in steps])
    for step, reply in zip(steps, replies):
        assert reply == step[target], step["send"][:120]
    assert len(replies) == len(steps)


@pytest.mark.parametrize("target", ["server", "router"])
@pytest.mark.parametrize("framing", [b"", b'"id":1,'], ids=["unframed", "id-frame"])
def test_invalid_utf8_gets_a_400_and_the_connection_survives(target, framing):
    # Bytes that are not UTF-8 fail ``json.loads`` with a
    # ``UnicodeDecodeError``, not a ``JSONDecodeError``: the reply must
    # still be a structured 400 on the same framing, and the connection
    # must go on serving.
    with _harness(target) as harness:
        with socket.create_connection(("127.0.0.1", harness.port), timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"{" + framing + b'"op":"ping","note":"\xff\xfe"}\n')
            reply = json.loads(reader.readline())
            assert reply["status"] == "error" and reply["code"] == 400, reply
            assert "utf-8" in reply["error"], reply
            if framing:
                assert reply["id"] == 1
            else:
                assert "id" not in reply
            sock.sendall(b'{"op":"ping"}\n')
            assert json.loads(reader.readline()) == {"status": "ok", "op": "ping"}


@pytest.mark.parametrize("target", ["server", "router"])
def test_requests_without_ids_run_concurrently_and_reply_in_order(target):
    # A slow id-less request does not hold up the connection: an id-tagged
    # request sent after it is answered first, while the id-less replies
    # still come back in request order.
    slow = json.dumps(
        {"op": "validate", "source": SLOW_SOURCE, "samples": 4096, "points": 4}
    ).encode("utf-8")
    with _harness(target) as harness:
        with socket.create_connection(("127.0.0.1", harness.port), timeout=120) as sock:
            sock.sendall(slow + b'\n{"op":"ping"}\n{"id":1,"op":"ping"}\n')
            reader = sock.makefile("rb")
            replies = [json.loads(reader.readline()) for _ in range(3)]
    assert replies[0] == {"id": 1, "status": "ok", "op": "ping"}
    assert replies[1]["op"] == "validate" and replies[1]["status"] == "ok", replies[1]
    assert replies[2] == {"status": "ok", "op": "ping"}


@pytest.mark.parametrize("target", ["server", "router"])
@pytest.mark.parametrize("last", ["ping", "shutdown"])
def test_requests_sent_before_a_half_close_are_answered(target, last):
    # A client may send its requests and half-close (``shutdown(SHUT_WR)``,
    # ``nc -N``) before any reply is ready: everything read before the end
    # of input is still answered, in request order, before the connection
    # closes — and a ``shutdown`` is acknowledged after the replies ahead
    # of it.
    slow = json.dumps(
        {"op": "validate", "source": SLOW_SOURCE, "samples": 4096, "points": 4}
    ).encode("utf-8")
    miss = json.dumps({"op": "analyze", "source": SLOW_SOURCE, "name": "FMA"}).encode("utf-8")
    with _harness(target) as harness:
        with socket.create_connection(("127.0.0.1", harness.port), timeout=120) as sock:
            sock.sendall(b"\n".join([slow, miss, b'{"op":"%s"}' % last.encode(), b""]))
            sock.shutdown(socket.SHUT_WR)
            replies = [json.loads(line) for line in sock.makefile("rb")]
    assert [reply.get("op") for reply in replies] == ["validate", "analyze", last], replies
    assert all(reply["status"] == "ok" for reply in replies), replies
    assert replies[1]["cached"] is False


@pytest.mark.parametrize("target", ["server", "router"])
def test_stopping_closes_idle_client_connections(target, caplog):
    # A client still connected when the server stops is disconnected
    # cleanly: no handler is left parked in readline() for loop teardown
    # to cancel (which asyncio logs as an error).
    with _harness(target) as harness:
        sock = socket.create_connection(("127.0.0.1", harness.port), timeout=30)
        sock.sendall(b'{"op":"ping"}\n')
        assert json.loads(sock.makefile("rb").readline())["status"] == "ok"
    with sock:
        assert sock.recv(1) == b""
    assert [record for record in caplog.records if record.levelno >= logging.ERROR] == []


@pytest.mark.parametrize("target", ["server", "router"])
def test_deadline_ms_without_a_budget_follows_the_server_rules(target):
    # ``deadline_ms: 0`` disables the deadline and a non-number is a 400,
    # through the router exactly as on a single server.
    with _harness(target) as harness:
        with socket.create_connection(("127.0.0.1", harness.port), timeout=60) as sock:
            reader = sock.makefile("rb")
            replies = []
            for deadline in (0, "soon"):
                request = {"op": "analyze", "source": SLOW_SOURCE, "deadline_ms": deadline}
                sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
                replies.append(json.loads(reader.readline()))
    assert replies[0]["status"] == "ok", replies[0]
    assert replies[1] == {
        "status": "error", "code": 400, "error": "'deadline_ms' must be a number"
    }, replies[1]

"""Closed-loop capacity of the ``serve`` cluster, per request kind.

    python3 -m perfbench.capacity --seconds 5

Starts the same ``repro serve --workers 2`` cluster as the ``serve``
workload, warms it the same way, then keeps ``CONNECTIONS x DEPTH``
requests in flight for ``--seconds`` each: first never-seen programs only
(misses), then warm repeats only (hits).  Prints the completed requests per
second of each kind and the mean engine time per inference (from
``repro_engine_phase_seconds`` deltas), as one JSON line.

``serve.py`` pins these figures and sets its open-loop arrival rates as
fractions of them; ``README.md`` records the measurement.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Dict, List

from . import serve
from .corpus import serve_misses

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Requests in flight per connection: enough that neither worker idles.
DEPTH = 4


async def closed_loop(port: int, bodies: List[bytes], seconds: float) -> float:
    """Completed requests per second with ``DEPTH`` in flight per connection.

    ``bodies`` are sent in order, cycling (pass more never-seen programs
    than the loop completes); every reply must be ``ok``.
    """
    loop = asyncio.get_running_loop()
    links = [
        await asyncio.open_connection("127.0.0.1", port, limit=serve.LINE_LIMIT)
        for _ in range(serve.CONNECTIONS)
    ]
    sent = [0]
    done = [0]
    deadline = loop.time() + seconds

    def send(writer: asyncio.StreamWriter) -> None:
        body = bodies[sent[0] % len(bodies)]
        writer.write(b'{"id":%d,' % sent[0] + body[1:] + b"\n")
        sent[0] += 1

    async def drive(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        for _ in range(DEPTH):
            send(writer)
        in_flight = DEPTH
        while in_flight:
            line = await reader.readline()
            if json.loads(line).get("status") != "ok":
                raise RuntimeError(f"request failed: {line[:200]!r}")
            in_flight -= 1
            if loop.time() < deadline:
                done[0] += 1
                send(writer)
                in_flight += 1

    start = loop.time()
    try:
        await asyncio.gather(*(drive(reader, writer) for reader, writer in links))
    finally:
        for _reader, writer in links:
            writer.close()
    return done[0] / (deadline - start)


def measure(root: str, work: str, env: Dict[str, str], seconds: float) -> Dict[str, float]:
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.perf.service_bench import bench_sources

    hits = [serve._body(kind, source) for _name, kind, source in bench_sources()]
    # Far more never-seen programs than a closed loop completes in time.
    generated = [serve._body(kind, source) for _name, kind, source in serve_misses(0, 20_000)]
    warm, misses = generated[:serve.WARM_MISSES], generated[serve.WARM_MISSES:]
    cluster = serve.Cluster(root, os.path.join(work, "cache"), os.path.join(work, "serve.log"), env)
    try:
        serve.warm_up(cluster, hits, warm)
        before = serve.counters(cluster.request({"op": "stats"})["stats"], cluster.request({"op": "metrics"}))
        miss_rps = asyncio.run(closed_loop(cluster.port, misses, seconds))
        after = serve.counters(cluster.request({"op": "stats"})["stats"], cluster.request({"op": "metrics"}))
        hit_rps = asyncio.run(closed_loop(cluster.port, hits, seconds))
    finally:
        cluster.stop()
    engine_s = sum(after[f"phase.{phase}"] - before[f"phase.{phase}"] for phase in serve.PHASES)
    inferences = after["service.inferences"] - before["service.inferences"]
    return {
        "miss_rps": miss_rps,
        "hit_rps": hit_rps,
        "engine_s_per_inference": engine_s / inferences if inferences else 0.0,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    arguments = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="capacity-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        started = time.monotonic()
        result = measure(ROOT, work, env, arguments.seconds)
        result["elapsed_s"] = time.monotonic() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

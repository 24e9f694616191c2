"""Closed-loop load generator for the ``repro serve`` analysis service.

Measures what the service layer actually buys: a long-lived process that
has already paid import/parse/cache-warmup costs, serving queries at
memory-cache speed, versus the one-shot CLI loop that re-pays all of it
per program.  The harness:

1. starts an in-process server (its own event loop in a daemon thread,
   ephemeral port) backed by a fresh, memory-only result cache;
2. warms it with one pass over the benchmark programs (the paper
   examples of :mod:`repro.benchsuite.paper_examples` plus the bundled
   ``examples/programs``);
3. for each concurrency level (default 1/8/64) runs *closed-loop*
   clients — every client thread owns one connection and issues its next
   request as soon as the previous response arrives — for a fixed wall
   window, recording per-request latency;
4. starts a multi-worker cluster (:class:`~repro.service.router.
   RouterServer` over ``--workers`` processes) and drives it with the
   *pipelined* load generator: a few threads multiplex hundreds of
   logical clients over pre-encoded ``{"id":N,...}`` request bytes, one
   outstanding request per logical client, correlating responses by the
   id prefix alone — the 256-client row that a thread-per-connection
   closed loop cannot produce on a small box;
5. times the cold baseline: ``python -m repro check <file>`` subprocess
   invocations, one fresh interpreter per program, exactly like a shell
   loop over the corpus;
6. writes ``BENCH_service.json`` (repo root by convention) with
   throughput and p50/p99 latency per level, the multi-worker rows, the
   multi-worker-vs-single-process speedup and the warm-vs-cold speedup.

``--baseline benchmarks/service_baseline.json`` gates the run:
:func:`compare_with_baseline` fails (exit 1) when the multi-worker
speedup drops below the committed floor, which is how CI keeps the
cluster row honest without pinning absolute throughput on shared
runners.

Run it from a checkout::

    PYTHONPATH=src python -m repro.perf.service_bench --quick
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..service import AnalysisServer, AnalysisService, ServiceConfig
from ..service.client import ServiceClient

__all__ = [
    "SERVICE_BENCH_FILENAME",
    "SERVICE_BASELINE_PATH",
    "SERVICE_REPORT_SCHEMA",
    "bench_sources",
    "compare_with_baseline",
    "encode_requests",
    "run_cluster_levels",
    "run_pipelined_level",
    "run_service_levels",
    "measure_cold_cli",
    "main",
]

SERVICE_BENCH_FILENAME = "BENCH_service.json"
SERVICE_BASELINE_PATH = os.path.join("benchmarks", "service_baseline.json")
SERVICE_REPORT_SCHEMA = 2

DEFAULT_CLIENT_LEVELS: Tuple[int, ...] = (1, 8, 64)
DEFAULT_WINDOW_SECONDS = 2.0
DEFAULT_CLUSTER_WORKERS = 4
DEFAULT_CLUSTER_CLIENTS = 256
#: OS threads multiplexing the logical pipelined clients.  A handful is
#: enough: each thread drives clients/threads connections' worth of
#: in-flight requests over one socket with batched reads and writes.
PIPELINE_THREADS = 4


def bench_sources() -> List[Tuple[str, str, str]]:
    """``(name, kind, source)`` for the benchmark corpus.

    Paper examples first (they are what Tables 3–5 run), then the bundled
    example programs; FPCore inputs keep their kind so the server
    exercises both frontends.
    """
    from ..benchsuite.paper_examples import PAPER_EXAMPLES

    corpus: List[Tuple[str, str, str]] = []
    for name, example in sorted(PAPER_EXAMPLES.items()):
        corpus.append((f"paper:{name}", "lnum", example.source))
    examples_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__)))),
        "examples",
        "programs",
    )
    if os.path.isdir(examples_dir):
        from ..analysis.batch import SOURCE_SUFFIXES

        for filename in sorted(os.listdir(examples_dir)):
            kind = SOURCE_SUFFIXES.get(os.path.splitext(filename)[1].lower())
            if kind is None:
                continue
            path = os.path.join(examples_dir, filename)
            with open(path, "r", encoding="utf-8") as handle:
                corpus.append((f"examples:{filename}", kind, handle.read()))
    return corpus


# ---------------------------------------------------------------------------
# Server-in-a-thread harness
# ---------------------------------------------------------------------------


class _ServerHarness:
    """An :class:`AnalysisServer` on its own event loop in a daemon thread."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        import asyncio

        async def serve() -> None:
            server = AnalysisServer(AnalysisService(self.config), port=0)
            _host, self.port = await server.start()
            self._ready.set()
            await server.serve_forever()

        asyncio.run(serve())

    def __enter__(self) -> "_ServerHarness":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service did not come up within 30 s")
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            ServiceClient(port=self.port, timeout=5).shutdown()
        except Exception:
            pass
        self._thread.join(timeout=10)


class _RouterHarness:
    """A :class:`~repro.service.router.RouterServer` fleet in a daemon thread.

    Same shape as :class:`_ServerHarness`, but the port belongs to the
    router and ``workers`` analysis processes sit behind it.  Startup is
    slower (each worker is a fresh ``spawn`` interpreter), hence the
    longer readiness timeout.
    """

    def __init__(self, workers: int, config: Optional[ServiceConfig] = None) -> None:
        self.workers = workers
        self.config = config or ServiceConfig()
        self.port: Optional[int] = None
        self.router = None
        self.loop = None  # the router's event loop (tests drive async APIs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        import asyncio

        from ..service.cluster import ClusterConfig
        from ..service.router import RouterServer

        async def serve() -> None:
            self.loop = asyncio.get_running_loop()
            self.router = RouterServer(
                config=ClusterConfig(workers=self.workers, service=self.config)
            )
            _host, self.port = await self.router.start()
            self._ready.set()
            await self.router.serve_forever()

        asyncio.run(serve())

    def __enter__(self) -> "_RouterHarness":
        self._thread.start()
        if not self._ready.wait(timeout=60 + 60 * self.workers):
            raise RuntimeError("cluster did not come up in time")
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            ServiceClient(port=self.port, timeout=10).shutdown()
        except Exception:
            pass
        self._thread.join(timeout=30)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _client_loop(
    port: int,
    corpus: Sequence[Tuple[str, str, str]],
    offset: int,
    stop_at: float,
    latencies: List[float],
    errors: List[str],
) -> None:
    try:
        with ServiceClient(port=port) as client:
            index = offset
            while time.perf_counter() < stop_at:
                name, kind, source = corpus[index % len(corpus)]
                index += 1
                start = time.perf_counter()
                client.analyze(source, kind=kind, name=name)
                latencies.append(time.perf_counter() - start)
    except Exception as error:  # surface, don't hang the level
        errors.append(str(error))


def run_service_levels(
    port: int,
    corpus: Sequence[Tuple[str, str, str]],
    levels: Sequence[int],
    window_seconds: float,
    progress=None,
) -> List[Dict[str, Any]]:
    """Closed-loop throughput/latency at each concurrency level."""
    results: List[Dict[str, Any]] = []
    for clients in levels:
        per_thread: List[List[float]] = [[] for _ in range(clients)]
        errors: List[str] = []
        stop_at = time.perf_counter() + window_seconds
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(port, corpus, index, stop_at, per_thread[index], errors),
            )
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise RuntimeError(f"client errors at level {clients}: {errors[:3]}")
        latencies = sorted(
            latency for bucket in per_thread for latency in bucket
        )
        requests = len(latencies)
        level = {
            "clients": clients,
            "requests": requests,
            "wall_seconds": elapsed,
            "throughput_rps": requests / elapsed if elapsed else 0.0,
            "latency_ms": {
                "p50": _percentile(latencies, 0.50) * 1000.0,
                "p99": _percentile(latencies, 0.99) * 1000.0,
                "mean": (statistics.fmean(latencies) * 1000.0) if latencies else 0.0,
                "max": (latencies[-1] * 1000.0) if latencies else 0.0,
            },
        }
        results.append(level)
        if progress:
            progress(
                f"  {clients:>3} client(s): {level['throughput_rps']:,.0f} req/s, "
                f"p50 {level['latency_ms']['p50']:.2f} ms, "
                f"p99 {level['latency_ms']['p99']:.2f} ms"
            )
    return results


def encode_requests(corpus: Sequence[Tuple[str, str, str]]) -> List[bytes]:
    """Pre-encoded request *tails* for the pipelined generator.

    Each entry is ``b',...body...}\\n'`` — everything after the ``id``
    member of a canonical ``{"id":N,...}`` frame — so the hot loop
    builds a request with one ``%d`` format and one concatenation, never
    touching :mod:`json`.
    """
    tails: List[bytes] = []
    for name, kind, source in corpus:
        body = json.dumps(
            {"op": "analyze", "source": source, "kind": kind, "name": name},
            separators=(",", ":"),
        )
        tails.append(b"," + body[1:].encode("utf-8") + b"\n")
    return tails


def _pipelined_loop(
    port: int,
    tails: Sequence[bytes],
    logical_clients: int,
    id_base: int,
    stop_at: float,
    latencies: List[float],
    errors: List[str],
) -> None:
    """One OS thread multiplexing ``logical_clients`` closed loops.

    Keeps exactly one request in flight per logical client: every
    response read immediately enqueues that client's next request, and
    reads/writes are batched per ``recv`` so a single socket carries the
    whole cohort.  Responses are correlated by the ``{"id":N,`` byte
    prefix alone — the payload is never JSON-decoded.
    """
    import socket

    try:
        connection = socket.create_connection(("127.0.0.1", port), timeout=120)
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        outstanding: Dict[int, float] = {}
        next_id = id_base
        index = id_base % len(tails)
        batch: List[bytes] = []

        def enqueue() -> None:
            nonlocal next_id, index
            batch.append(b'{"id":%d' % next_id + tails[index % len(tails)])
            outstanding[next_id] = time.perf_counter()
            next_id += 1
            index += 1

        for _ in range(logical_clients):
            enqueue()
        connection.sendall(b"".join(batch))
        batch.clear()
        buffered = b""
        while outstanding:
            chunk = connection.recv(1 << 18)
            if not chunk:
                errors.append("server closed the connection mid-level")
                return
            now = time.perf_counter()
            lines = (buffered + chunk).split(b"\n")
            buffered = lines.pop()
            stopping = now >= stop_at
            for line in lines:
                request_id = int(line[6 : line.index(b",", 6)])
                latencies.append(now - outstanding.pop(request_id))
                if line.find(b'"status":"ok"', 0, 64) == -1:
                    errors.append(f"non-ok response: {line[:160]!r}")
                    return
                if not stopping:
                    enqueue()
            if batch:
                connection.sendall(b"".join(batch))
                batch.clear()
        connection.close()
    except Exception as error:  # surface, don't hang the level
        errors.append(repr(error))


def run_pipelined_level(
    port: int,
    corpus: Sequence[Tuple[str, str, str]],
    logical_clients: int,
    window_seconds: float,
    threads: int = PIPELINE_THREADS,
) -> Dict[str, Any]:
    """Throughput/latency for one pipelined multiplexed level."""
    threads = max(1, min(threads, logical_clients))
    tails = encode_requests(corpus)
    per_thread: List[List[float]] = [[] for _ in range(threads)]
    errors: List[str] = []
    share = logical_clients // threads
    counts = [
        share + (1 if index < logical_clients - share * threads else 0)
        for index in range(threads)
    ]
    stop_at = time.perf_counter() + window_seconds
    started = time.perf_counter()
    workers = [
        threading.Thread(
            target=_pipelined_loop,
            args=(
                port,
                tails,
                counts[index],
                index * 10_000_000,
                stop_at,
                per_thread[index],
                errors,
            ),
        )
        for index in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"pipelined clients failed: {errors[:3]}")
    latencies = sorted(latency for bucket in per_thread for latency in bucket)
    requests = len(latencies)
    return {
        "clients": logical_clients,
        "threads": threads,
        "pipelined": True,
        "requests": requests,
        "wall_seconds": elapsed,
        "throughput_rps": requests / elapsed if elapsed else 0.0,
        "latency_ms": {
            "p50": _percentile(latencies, 0.50) * 1000.0,
            "p99": _percentile(latencies, 0.99) * 1000.0,
            "mean": (statistics.fmean(latencies) * 1000.0) if latencies else 0.0,
            "max": (latencies[-1] * 1000.0) if latencies else 0.0,
        },
    }


def run_cluster_levels(
    port: int,
    corpus: Sequence[Tuple[str, str, str]],
    workers: int,
    client_levels: Sequence[int],
    window_seconds: float,
    progress=None,
) -> List[Dict[str, Any]]:
    """Pipelined multiplexed load against a running cluster router."""
    rows: List[Dict[str, Any]] = []
    for clients in client_levels:
        row = run_pipelined_level(port, corpus, clients, window_seconds)
        row["workers"] = workers
        rows.append(row)
        if progress:
            progress(
                f"  {workers} worker(s) x {clients:>3} client(s): "
                f"{row['throughput_rps']:,.0f} req/s, "
                f"p50 {row['latency_ms']['p50']:.2f} ms, "
                f"p99 {row['latency_ms']['p99']:.2f} ms"
            )
    return rows


def compare_with_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Regression check for the multi-worker row; returns failure strings.

    Gates on the *speedup ratio* (multi-worker pipelined vs
    single-process closed-loop, same corpus, same box, same run), which
    transfers across machines, plus a generous absolute floor so a
    wedged cluster cannot pass on ratio alone.
    """
    failures: List[str] = []
    speedup = report.get("multi_worker_speedup")
    floor = baseline.get("min_multi_worker_speedup")
    if floor is not None:
        if speedup is None:
            failures.append("report has no multi_worker_speedup (cluster rows missing?)")
        elif speedup < floor:
            failures.append(
                f"multi-worker speedup {speedup:.2f}x is below the baseline "
                f"floor {floor:.2f}x"
            )
    min_rps = baseline.get("min_cluster_throughput_rps")
    if min_rps is not None:
        rows = report.get("cluster_levels") or []
        best = max((row["throughput_rps"] for row in rows), default=0.0)
        if best < min_rps:
            failures.append(
                f"best cluster throughput {best:,.0f} req/s is below the "
                f"baseline floor {min_rps:,.0f} req/s"
            )
    workers_floor = baseline.get("min_workers")
    if workers_floor is not None:
        rows = report.get("cluster_levels") or []
        most = max((row.get("workers", 0) for row in rows), default=0)
        if most < workers_floor:
            failures.append(
                f"cluster rows cover at most {most} worker(s); baseline "
                f"requires {workers_floor}"
            )
    return failures


def measure_cold_cli(
    corpus: Sequence[Tuple[str, str, str]],
    iterations: int,
    progress=None,
) -> Dict[str, Any]:
    """Time one-shot ``python -m repro check|fpcore`` subprocesses.

    Every invocation pays interpreter start, package import, parse and
    inference — the pre-service cost of answering one query from a shell.
    """
    source_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    environment = dict(os.environ)
    environment["PYTHONPATH"] = source_root + os.pathsep + environment.get("PYTHONPATH", "")
    timings: List[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-cold-") as workdir:
        files: List[Tuple[str, str]] = []
        for index, (name, kind, source) in enumerate(corpus):
            suffix = ".fpcore" if kind == "fpcore" else ".lnum"
            path = os.path.join(workdir, f"prog{index}{suffix}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            files.append((kind, path))
        for round_index in range(max(1, iterations)):
            for kind, path in files:
                verb = "fpcore" if kind == "fpcore" else "check"
                start = time.perf_counter()
                completed = subprocess.run(
                    [sys.executable, "-m", "repro", verb, path],
                    env=environment,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                elapsed = time.perf_counter() - start
                if completed.returncode not in (0, 1):
                    raise RuntimeError(
                        f"cold run failed ({completed.returncode}) for {path}"
                    )
                timings.append(elapsed)
            if progress:
                progress(f"  cold round {round_index + 1}/{iterations} done")
    seconds_per_request = statistics.fmean(timings)
    return {
        "iterations": len(timings),
        "seconds_per_request": seconds_per_request,
        "throughput_rps": 1.0 / seconds_per_request if seconds_per_request else 0.0,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.perf.service_bench",
        description="Closed-loop load generator for the repro analysis service",
    )
    parser.add_argument(
        "--clients", default=None, metavar="1,8,64",
        help="comma-separated concurrency levels (default 1,8,64)",
    )
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_WINDOW_SECONDS,
        help="measurement window per level (default 2.0)",
    )
    parser.add_argument(
        "--cold-iters", type=int, default=2,
        help="rounds over the corpus for the cold one-shot baseline",
    )
    parser.add_argument(
        "--skip-cold", action="store_true", help="skip the subprocess baseline"
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_CLUSTER_WORKERS,
        help=f"cluster size for the multi-worker rows (default {DEFAULT_CLUSTER_WORKERS})",
    )
    parser.add_argument(
        "--cluster-clients", default=None, metavar="256",
        help="comma-separated pipelined client levels for the cluster "
        f"(default {DEFAULT_CLUSTER_CLIENTS})",
    )
    parser.add_argument(
        "--skip-cluster", action="store_true",
        help="skip the multi-worker cluster rows",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"gate the report against a baseline (e.g. {SERVICE_BASELINE_PATH}); "
        "exit 1 on regression",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="short windows + 1,8 clients + 2 workers + 1 cold round (CI smoke)",
    )
    parser.add_argument(
        "--out", default=SERVICE_BENCH_FILENAME, metavar="PATH",
        help=f"report destination (default ./{SERVICE_BENCH_FILENAME})",
    )
    arguments = parser.parse_args(argv)

    levels = (
        tuple(int(level) for level in arguments.clients.split(","))
        if arguments.clients
        else ((1, 8) if arguments.quick else DEFAULT_CLIENT_LEVELS)
    )
    window = 0.5 if arguments.quick and arguments.seconds == DEFAULT_WINDOW_SECONDS else arguments.seconds
    cold_iterations = 1 if arguments.quick else arguments.cold_iters
    cluster_workers = min(arguments.workers, 2) if arguments.quick else arguments.workers
    cluster_levels_spec = (
        tuple(int(level) for level in arguments.cluster_clients.split(","))
        if arguments.cluster_clients
        else ((32,) if arguments.quick else (DEFAULT_CLUSTER_CLIENTS,))
    )

    progress = lambda line: print(line, file=sys.stderr, flush=True)  # noqa: E731
    corpus = bench_sources()
    progress(f"corpus: {len(corpus)} program(s)")

    config = ServiceConfig(queue_size=max(512, 8 * max(levels)))
    with _ServerHarness(config) as harness:
        progress(f"server up on port {harness.port}; warming cache ...")
        with ServiceClient(port=harness.port) as client:
            ok = 0
            for name, kind, source in corpus:
                response = client.analyze(source, kind=kind, name=name)
                ok += bool(response["report"]["ok"])
            warm_stats = client.stats()
        progress(f"warm: {ok}/{len(corpus)} analyses ok")
        progress(f"closed-loop service levels ({window:g} s windows):")
        service_levels = run_service_levels(
            harness.port, corpus, levels, window, progress=progress
        )
        with ServiceClient(port=harness.port) as client:
            final_stats = client.stats()

    cluster_rows: List[Dict[str, Any]] = []
    cluster_stats: Optional[Dict[str, Any]] = None
    if not arguments.skip_cluster and cluster_workers >= 1:
        progress(f"starting {cluster_workers}-worker cluster ...")
        with _RouterHarness(cluster_workers, config) as cluster_harness:
            progress(
                f"router up on port {cluster_harness.port}; warming workers ..."
            )
            with ServiceClient(port=cluster_harness.port) as client:
                for name, kind, source in corpus:
                    client.analyze(source, kind=kind, name=name)
            progress(f"pipelined cluster levels ({window:g} s windows):")
            cluster_rows = run_cluster_levels(
                cluster_harness.port,
                corpus,
                cluster_workers,
                cluster_levels_spec,
                window,
                progress=progress,
            )
            with ServiceClient(port=cluster_harness.port) as client:
                stats = client.stats()
                cluster_stats = {
                    "workers": stats["cluster"]["workers"],
                    "alive": stats["cluster"]["alive"],
                    "restarts": stats["cluster"]["restarts"],
                    "requests": stats["cluster"]["requests"],
                    "route_memo_hits": stats["cluster"]["route_memo_hits"],
                    "inferences": stats["service"]["inferences"],
                }

    cold: Optional[Dict[str, Any]] = None
    if not arguments.skip_cold:
        progress("cold one-shot CLI baseline:")
        cold = measure_cold_cli(corpus, cold_iterations, progress=progress)
        progress(
            f"  {cold['seconds_per_request'] * 1000.0:.0f} ms/request "
            f"({cold['throughput_rps']:.2f} req/s)"
        )

    best_throughput = max(level["throughput_rps"] for level in service_levels)
    report: Dict[str, Any] = {
        "schema": SERVICE_REPORT_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "corpus": [name for name, _kind, _source in corpus],
        "server": {
            "queue_size": config.queue_size,
            "warm_inferences": warm_stats["service"]["inferences"],
        },
        "service_levels": service_levels,
        "cache": {
            "hits": final_stats["cache"]["hits"],
            "misses": final_stats["cache"]["misses"],
            "inferences": final_stats["service"]["inferences"],
        },
    }
    if cluster_rows:
        report["cluster_levels"] = cluster_rows
        report["cluster"] = cluster_stats
        best_cluster = max(row["throughput_rps"] for row in cluster_rows)
        report["multi_worker_speedup"] = (
            best_cluster / best_throughput if best_throughput else None
        )
        progress(
            f"multi-worker pipelined peak is {report['multi_worker_speedup']:.1f}x "
            "the single-process closed-loop peak"
        )
    if cold is not None:
        report["cold_cli"] = cold
        report["warm_vs_cold_speedup"] = (
            best_throughput / cold["throughput_rps"] if cold["throughput_rps"] else None
        )
        progress(
            f"warm service is {report['warm_vs_cold_speedup']:.0f}x the cold CLI loop"
        )

    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {arguments.out}")

    if arguments.baseline:
        with open(arguments.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = compare_with_baseline(report, baseline)
        if failures:
            for failure in failures:
                print(f"BASELINE REGRESSION: {failure}", file=sys.stderr)
            return 1
        progress(f"baseline gate passed ({arguments.baseline})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

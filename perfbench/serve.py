"""The ``serve`` workload: an open-loop load against ``repro serve --workers 2``.

The cluster runs as its own process tree (router + 2 spawned workers) with
a fresh cache directory; this module is the single load process.  Arrivals
are seeded Poisson at fixed rates below saturation, sent over two
pipelined connections, and every request is timed from its *scheduled*
send time, so a stall shows up in the latency of the requests behind it.

Traffic: warm repeats of ``perf.service_bench.bench_sources()`` (hits) and
seeded programs never seen before (misses: parse, inference, cache write),
at rates derived below from the cluster's measured capacity.
Per-layer numbers come from the service's own ``/stats`` and
``{"op": "metrics"}`` output, as deltas around the measurement window; with
tracing on, only misses carry ``"trace": true`` (every other one, so the
traced and untraced miss latencies give the tracing overhead), because the
server never hot-path-memoizes a traced body and a traced hit would measure
a different path.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from .corpus import serve_misses
from .metrics import percentile

WORKERS = 2
CONNECTIONS = 2
#: Closed-loop capacity of this cluster (requests/s) with only misses or
#: only hits in flight, measured by ``python3 -m perfbench.capacity`` on a
#: 2-vCPU x86-64 VM (three runs: misses 166-193/s at 4.3-4.6 ms of engine
#: time per inference, hits 5010-5630/s).  The figures are pinned, not
#: re-measured per run, so the offered load stays the same when the code
#: under test gets faster or slower and a change shows up as latency.
MISS_CAPACITY = 180.0
HIT_CAPACITY = 5400.0
#: Open-loop arrival rates: misses at a sixth of miss capacity, and two
#: hits per miss (~1 % of hit capacity), so the cluster runs at under 20 %
#: of capacity and the latencies measure the service path, not queueing
#: bursts.  Heavier loads spread the p99s more from run to run (README,
#: *Serve load*).  The mix is a choice, not taken from observed traffic (no
#: trace exists).
MISS_RATE = MISS_CAPACITY / 6
HIT_RATE = 2 * MISS_RATE
#: Cluster lifetimes per run (fresh start, fresh cache directory, untimed
#: warm-up each), each measuring an equal part of the schedule;
#: ``setup_s`` is the median of their starts.  A worker's full garbage
#: collections pause it longer as its heap grows (13-32 ms in the first
#: seconds, 117 ms after 40 s at this load), so short lifetimes keep those
#: pauses short and alike, and more of them average out each lifetime's
#: share of tail latency.
WINDOWS = 6
#: Misses per run at the least, so the miss p99 has twelve samples beyond
#: it (40 s of schedule, under 7 s per lifetime).
MIN_MISSES = 1200
#: Never-seen programs sent before each window, untimed, so first-use code
#: paths in both workers are not charged to the first misses measured.
WARM_MISSES = 40
#: A program no workload sends, used to see the cluster answer.
FIRST_REQUEST = b'{"op":"analyze","kind":"fpcore","source":"(FPCore (x) (* x 1.5))"}\n'
LINE_LIMIT = 64 * 1024 * 1024
#: Engine phases reported by ``repro_engine_phase_seconds``.
PHASES = ("parse", "lower", "execute", "convert", "interpret")


class Cluster:
    """One ``python -m repro serve --workers 2 --port 0`` process tree."""

    def __init__(self, root: str, cache_dir: str, log_path: str, env: Dict[str, str]) -> None:
        self.spawned = time.monotonic()
        self.log = open(log_path, "ab")
        self.port = 0
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", str(WORKERS),
             "--port", "0", "--cache-dir", cache_dir],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        self.pids = [self.process.pid]
        try:
            self.port = self._read_port()
            with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
                sock.sendall(FIRST_REQUEST)
                reply = _read_line(sock)
            if json.loads(reply).get("status") != "ok":
                raise RuntimeError(f"cluster answered its first request with {reply[:200]!r}")
            self.setup_s = time.monotonic() - self.spawned
            self.pids = self._tree()
            self._pin_workers()
        except BaseException:
            self.stop()
            raise

    def _pin_workers(self) -> None:
        """Pin each worker, every thread of it, to a CPU of its own.

        Left to the kernel, both workers sometimes share one CPU for a whole
        lifetime, and a miss then waits behind the other worker's inference
        as well as its own worker's: on a 2-vCPU VM, at four lifetimes per
        run, ``miss_p99_ms`` read 22-37 ms over twelve runs unpinned and
        18-21 ms over six runs pinned.  Threads a worker starts
        later inherit the pin.  The router and this process stay unpinned.
        A machine that refuses the call is measured unpinned.
        """
        cmdlines = {}
        for pid in self.pids[1:]:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    cmdlines[pid] = handle.read()
            except OSError:
                continue
        for pid, cpu in worker_pins(cmdlines, sorted(os.sched_getaffinity(0))).items():
            try:
                for thread in os.listdir(f"/proc/{pid}/task"):
                    os.sched_setaffinity(int(thread), {cpu})
            except OSError:
                continue

    def _read_port(self) -> int:
        assert self.process.stdout is not None
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])

    def _tree(self) -> List[int]:
        """The router and every process it spawned (workers, helpers)."""
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat", "rb") as handle:
                        fields = handle.read().rsplit(b")", 1)[1].split()
                    parents[int(entry)] = int(fields[1])
                except (OSError, IndexError, ValueError):
                    continue
        tree = [self.process.pid]
        for pid in tree:
            tree.extend(child for child, parent in parents.items() if parent == pid)
        return tree

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with socket.create_connection(("127.0.0.1", self.port), timeout=60) as sock:
            sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            return json.loads(_read_line(sock))

    def peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` among the router and its workers."""
        peak = 0
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def stop(self) -> None:
        """Shut the tree down and wait for every process in it."""
        pids = self._tree() if self.process.poll() is None else self.pids
        if self.port:
            try:
                self.request({"op": "shutdown"})
            except (OSError, ValueError):
                pass
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        # Workers are the router's children: poll until they are gone,
        # killing any that outlive the router's own shutdown.
        deadline = time.monotonic() + 10
        for pid in pids[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, 9)
                while _alive(pid):
                    time.sleep(0.05)
        self.log.close()


def worker_pins(cmdlines: Dict[int, bytes], cpus: Sequence[int]) -> Dict[int, int]:
    """``{worker pid: cpu}``, the workers (spawned ``spawn_main`` children,
    not the resource tracker) in pid order over ``cpus`` in turn."""
    workers = sorted(pid for pid, cmdline in cmdlines.items() if b"spawn_main" in cmdline)
    return {pid: cpus[index % len(cpus)] for index, pid in enumerate(workers)}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except OSError:
        return False
    return state != b"Z"


def _read_line(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
        if chunk.endswith(b"\n"):
            break
    return b"".join(chunks)


def _body(kind: str, source: str, trace: bool = False) -> bytes:
    payload: Dict[str, Any] = {"op": "analyze", "kind": kind, "source": source}
    if trace:
        payload["trace"] = True
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def schedule(
    seed: int, seconds: float, hits: int, misses: int, hit_programs: int
) -> List[Tuple[float, str, int]]:
    """``(due offset s, kind, index)`` — Poisson arrivals, kinds shuffled.

    Misses take the miss programs in order; each hit picks one of the
    ``hit_programs`` uniformly.
    """
    rng = random.Random(f"perfbench-serve-schedule-{seed}")
    kinds = ["miss"] * misses + ["hit"] * hits
    rng.shuffle(kinds)
    rate = len(kinds) / seconds
    due = 0.0
    plan = []
    miss_index = 0
    for kind in kinds:
        due += rng.expovariate(rate)
        if kind == "miss":
            plan.append((due, kind, miss_index))
            miss_index += 1
        else:
            plan.append((due, kind, rng.randrange(hit_programs)))
    return plan


async def _drive(
    port: int, plan: Sequence[Tuple[float, str, int]], bodies: Dict[str, List[bytes]],
    timeout: float,
) -> List[List[Any]]:
    """Send the plan over pipelined connections; one record per request.

    A record is ``[kind, index, due, sent, received, response line]`` in
    the loop's monotonic clock.
    """
    loop = asyncio.get_running_loop()
    links = [
        await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
        for _ in range(CONNECTIONS)
    ]
    records: List[List[Any]] = []
    outstanding = [0] * CONNECTIONS
    done = asyncio.Event()
    sent_all = [False]

    async def read(link: int) -> None:
        reader = links[link][0]
        while True:
            line = await reader.readline()
            if not line:
                return
            received = loop.time()
            request_id = int(line[6:line.index(b",")])
            record = records[request_id]
            record[4] = received
            record[5] = line
            outstanding[link] -= 1
            if sent_all[0] and not any(outstanding):
                done.set()

    readers = [loop.create_task(read(link)) for link in range(CONNECTIONS)]
    start = loop.time() + 0.2
    try:
        for due, kind, index in plan:
            delay = start + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            request_id = len(records)
            link = request_id % CONNECTIONS
            body = bodies[kind][index]
            records.append([kind, index, start + due, loop.time(), None, None])
            outstanding[link] += 1
            links[link][1].write(b'{"id":%d,' % request_id + body[1:] + b"\n")
        sent_all[0] = True
        if any(outstanding):
            await asyncio.wait_for(done.wait(), timeout)
    finally:
        for _reader, writer in links:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return records


def warm_up(cluster: Cluster, hits: List[bytes], misses: List[bytes]) -> None:
    """Untimed: each hit program inferred, then served once through the full
    path (which registers its body on the hot path); a few never-seen
    programs take every miss code path through both workers."""
    for body in hits * 2 + misses:
        with socket.create_connection(("127.0.0.1", cluster.port), timeout=60) as sock:
            sock.sendall(body + b"\n")
            _read_line(sock)


def _counter(metrics: Dict[str, Any], name: str, **labels: str) -> Tuple[float, float]:
    """``(sum, count)`` of a histogram, or ``(value, 0)`` of a counter, over workers."""
    total = count = 0.0
    for worker in metrics.get("workers", []):
        for metric in worker.get("metrics", {}).get("metrics", []):
            if metric["name"] != name:
                continue
            for sample in metric["samples"]:
                if all(sample["labels"].get(key) == value for key, value in labels.items()):
                    if "count" in sample:
                        total += sample["sum"]
                        count += sample["count"]
                    else:
                        total += sample["value"]
    return total, count


def counters(stats: Dict[str, Any], metrics: Dict[str, Any]) -> Dict[str, float]:
    """The cumulative counters the serve layers are computed from."""

    def stat(path: str) -> float:
        node: Any = stats
        for part in path.split("."):
            node = node[part]
        return float(node)

    flat = {
        path: stat(path)
        for path in (
            "cluster.routed",  # every forwarded request, route-memo hits included
            "cluster.route_memo_hits",
            "service.inferences",
            "service.coalesced",
            "service.busy",
            "cache.lookups",
            "cache.hits",
            "cache.disk_hits",
            "cache.evictions",
        )
    }
    for tier in ("hot", "memory", "disk"):
        flat[f"lookup.{tier}.s"], flat[f"lookup.{tier}.n"] = _counter(
            metrics, "repro_cache_lookup_seconds", tier=tier
        )
    flat["queue.s"], flat["queue.n"] = _counter(metrics, "repro_queue_wait_seconds")
    for phase in PHASES:
        flat[f"phase.{phase}"] = _counter(metrics, "repro_engine_phase_seconds", phase=phase)[0]
    return flat


def layer_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    """Per-layer serve metrics from counter deltas over the measurement windows."""

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {
        "service.router.route_memo_hit_ratio": share(
            delta["cluster.route_memo_hits"], delta["cluster.routed"]
        ),
        "service.server.inferences": delta["service.inferences"],
        "service.server.coalesced": delta["service.coalesced"],
        "service.scheduler.queue_wait_s": share(delta["queue.s"], delta["queue.n"]),
        "service.scheduler.busy": delta["service.busy"],
        "service.cachefarm.hit_ratio": share(delta["cache.hits"], delta["cache.lookups"]),
        "service.cachefarm.disk_hits": delta["cache.disk_hits"],
        "service.cachefarm.evictions": delta["cache.evictions"],
    }
    for tier in ("hot", "memory", "disk"):
        out[f"service.server.{tier}_lookups"] = delta[f"lookup.{tier}.n"]
        out[f"service.server.{tier}_mean_s"] = share(delta[f"lookup.{tier}.s"], delta[f"lookup.{tier}.n"])
    for phase in PHASES:
        out[f"service.engine.{phase}_s"] = delta[f"phase.{phase}"]
    return out


def _functions(report: Dict[str, Any]) -> Any:
    """A report's judgements without timing fields."""
    return [
        {key: value for key, value in function.items() if key != "inference_seconds"}
        for function in report.get("functions", [])
    ] if report.get("ok") else ["error", report.get("error")]


def wrong(response: Dict[str, Any], expected: Any) -> bool:
    """Whether a response fails or differs from the oracle's judgements.

    A report with ``ok`` false is wrong even when the oracle agrees: every
    program sent is generated to type-check.
    """
    report = response.get("report") or {}
    return response.get("status") != "ok" or not report.get("ok") or _functions(report) != expected


def oracle(programs: Sequence[Tuple[str, str]]) -> List[Any]:
    """In-process ``analyze`` reports of ``(kind, source)`` pairs."""
    from repro.analysis.batch import BatchItem, analyze_item

    return [
        _functions(analyze_item(BatchItem("<request>", kind, source), None).to_dict())
        for kind, source in programs
    ]


def run(root: str, work: str, env: Dict[str, str], seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, float], int, int]:
    """Measure one run; returns ``(metrics, attempted, failed)``.

    The schedule is split into ``WINDOWS`` consecutive parts, each sent to
    its own freshly started cluster (whose start is also a ``setup_s``
    sample), so a run pools independent service lifetimes.
    """
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.perf.service_bench import bench_sources

    misses = max(MIN_MISSES, int(round(MISS_RATE * seconds)))
    span = misses / MISS_RATE
    hits = int(round(HIT_RATE * span))
    hit_programs = [(kind, source) for _name, kind, source in bench_sources()]
    generated = [(kind, source) for _name, kind, source in serve_misses(seed, misses + WARM_MISSES)]
    miss_programs, warm_programs = generated[:misses], generated[misses:]
    bodies = {
        "hit": [_body(kind, source) for kind, source in hit_programs],
        "miss": [
            _body(kind, source, trace=trace and index % 2 == 0)
            for index, (kind, source) in enumerate(miss_programs)
        ],
    }
    plan = schedule(seed, span, hits, misses, len(hit_programs))
    cut = [len(plan) * part // WINDOWS for part in range(WINDOWS + 1)]

    setups: List[float] = []
    records: List[List[Any]] = []
    delta: Dict[str, float] = {}
    rss = 0.0
    for window in range(WINDOWS):
        cluster = Cluster(root, os.path.join(work, f"serve-cache-{window}"), os.path.join(work, "serve.log"), env)
        try:
            setups.append(cluster.setup_s)
            warm_up(cluster, bodies["hit"], [_body(kind, source) for kind, source in warm_programs])
            before = counters(cluster.request({"op": "stats"})["stats"], cluster.request({"op": "metrics"}))
            part = plan[cut[window]:cut[window + 1]]
            offset = part[0][0]
            part_records = asyncio.run(_drive(
                cluster.port, [(due - offset, kind, index) for due, kind, index in part], bodies, timeout=120,
            ))
            after = counters(cluster.request({"op": "stats"})["stats"], cluster.request({"op": "metrics"}))
            rss = max(rss, cluster.peak_rss_mb())
        finally:
            cluster.stop()
        records.extend(part_records)
        for key, value in after.items():
            delta[key] = delta.get(key, 0.0) + value - before[key]

    expected = {"hit": oracle(hit_programs), "miss": oracle(miss_programs)}
    failed = 0
    latencies: Dict[str, List[float]] = {"hit": [], "miss": []}
    traced: Dict[bool, List[float]] = {True: [], False: []}
    late = []
    route_s = []
    wall = 0.0
    for window in range(WINDOWS):
        part = records[cut[window]:cut[window + 1]]
        wall += max(record[4] or record[3] for record in part) - part[0][2]
        for kind, index, due, sent, received, line in part:
            late.append(sent - due)
            response = json.loads(line) if line is not None else {}
            if wrong(response, expected[kind][index]):
                failed += 1
                continue
            latencies[kind].append(received - due)
            if kind == "miss":
                traced["trace" in response].append(received - due)
                for span_row in response.get("trace", {}).get("spans", []):
                    if span_row.get("name") == "router.route":
                        route_s.append(span_row["seconds"])

    values: Dict[str, float] = {
        "setup_s": median(setups),
        "wall_s": wall,
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - failed / len(records),
    }
    for kind, samples in latencies.items():
        values[f"{kind}_p50_ms"] = 1000.0 * percentile(samples or [0.0], 50)
        values[f"{kind}_p99_ms"] = 1000.0 * percentile(samples or [0.0], 99)
    if trace:
        values.update(layer_metrics(delta))
        values["service.router.route_s"] = sum(route_s) / len(route_s) if route_s else 0.0
        values["loader.late_p99_ms"] = 1000.0 * percentile(late, 99)
        if traced[True] and traced[False]:
            values["trace.overhead_ratio"] = median(traced[True]) / median(traced[False])
    return values, len(records), failed

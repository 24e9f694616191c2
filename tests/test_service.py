"""Tests for the ``repro serve`` analysis service.

The protocol-independent :class:`AnalysisService` core is driven directly
with ``asyncio`` (admission, coalescing, deadlines, shedding are all
deterministic there: every request runs its synchronous admission path
before the first worker gets a turn), and a real TCP server on an
ephemeral port checks the wire protocol and the blocking client.
"""

import asyncio
import os
import sys
import threading
import time

import pytest

from repro.analysis.batch import BatchItem, PoolHandle
from repro.analysis.cache import AnalysisCache
from repro.core.inference import JudgementMemo
from repro.service import (
    AnalysisServer,
    AnalysisService,
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    Scheduler,
    SchedulerBusy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.scheduler import Job

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "programs"
)

FMA_SOURCE = """
function FMA (x: num) (y: num) (z: num) : M[eps]num {
  a = mul (x, y);
  b = add (|a, z|);
  rnd b
}
"""

HORNER_SOURCE = open(os.path.join(EXAMPLES, "horner2.lnum")).read()
HYPOT_FPCORE = open(os.path.join(EXAMPLES, "hypot.fpcore")).read()


def run(coroutine):
    return asyncio.run(coroutine)


async def make_service(**overrides):
    config = ServiceConfig(**overrides)
    service = AnalysisService(config)
    await service.start()
    return service


async def wait_until(predicate, timeout=10.0):
    """Poll ``predicate`` until true (admission involves executor hops)."""
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        assert asyncio.get_event_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


# ---------------------------------------------------------------------------
# The service's result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    KEY = "deadbeef" * 8

    def test_put_get_roundtrip(self):
        cache = AnalysisCache(memory_entries=8)
        cache.put(self.KEY, {"value": 1})
        assert cache.get(self.KEY) == {"value": 1}
        assert self.KEY in cache
        assert cache.get("0" * 64) is None

    def test_stats_shape_and_counters(self):
        cache = AnalysisCache(memory_entries=4)
        cache.put(self.KEY, 1)
        cache.get(self.KEY)
        cache.get("0" * 64)
        assert cache.stats.to_dict() == {
            "hits": 1, "misses": 1, "puts": 1, "evictions": 0, "lookups": 2,
        }
        assert cache.entries == 1
        assert cache.disk_hits == 0

    def test_lru_eviction_is_counted(self):
        cache = AnalysisCache(memory_entries=2)
        for index in range(4):
            cache.put(f"{index:08x}" + "0" * 56, index)
        assert cache.entries == 2
        assert cache.stats.evictions == 2

    def test_disk_tier_promotion(self, tmp_path):
        AnalysisCache(directory=str(tmp_path)).put(self.KEY, "persisted")
        # A fresh cache over the same directory misses memory, hits disk.
        rebooted = AnalysisCache(directory=str(tmp_path))
        assert rebooted.get(self.KEY) == "persisted"
        assert rebooted.disk_hits == 1
        # And the value was promoted: the second read is a memory hit.
        assert rebooted.peek(self.KEY) == "persisted"
        assert rebooted.get(self.KEY) == "persisted"
        assert rebooted.disk_hits == 1
        assert rebooted.stats.hits == 3 and rebooted.stats.misses == 0

    def test_peek_counts_hits_only(self, tmp_path):
        AnalysisCache(directory=str(tmp_path)).put(self.KEY, 1)
        cache = AnalysisCache(directory=str(tmp_path))
        # Memory only: the entry on disk is invisible, and the miss is
        # left for the follow-up ``get`` to count.
        assert cache.peek(self.KEY) is None
        assert cache.stats.lookups == 0
        cache.put("0" * 64, 2, persist=False)
        assert cache.peek("0" * 64, count=False) == 2
        assert cache.stats.lookups == 0
        assert cache.peek("0" * 64) == 2
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        assert cache.disk_hits == 0
        # ``persist=False`` wrote nothing; ``write_disk`` does.
        assert cache.read_disk("0" * 64) is None
        cache.write_disk("0" * 64, 2)
        assert cache.read_disk("0" * 64) == 2


    def test_counters_survive_concurrent_traffic(self):
        # The event loop and executor threads share one memory tier: with
        # a tiny switch interval, a lost counter update would show.
        cache = AnalysisCache(memory_entries=16)
        workers, rounds = 8, 1000

        def traffic(seed):
            for index in range(rounds):
                key = f"{(seed + index) % 32:08x}" + "0" * 56
                cache.put(key, index)
                cache.get(key)
                cache.peek(key, count=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=traffic, args=(seed,)) for seed in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert cache.stats.puts == workers * rounds
        assert cache.stats.lookups == workers * rounds
        assert cache.entries <= 16


# ---------------------------------------------------------------------------
# Bounded disk cache (satellite)
# ---------------------------------------------------------------------------


class TestBoundedDiskCache:
    def test_entry_budget_evicts_oldest_first(self, tmp_path):
        cache = AnalysisCache(directory=str(tmp_path), disk_max_entries=3, disk_max_bytes=None)
        for index in range(5):
            cache.put(f"key{index}", list(range(50)))
            os.utime(
                os.path.join(str(tmp_path), f"key{index}.pkl"), (index, index)
            )
        entries, _bytes = cache.disk_usage()
        assert entries == 3
        survivors = {name for name in os.listdir(str(tmp_path)) if name.endswith(".pkl")}
        # key4 was written last (then clamped to mtime 4): the oldest two fell.
        assert survivors == {"key2.pkl", "key3.pkl", "key4.pkl"}
        assert cache.disk_evictions >= 2

    def test_byte_budget(self, tmp_path):
        cache = AnalysisCache(
            directory=str(tmp_path), disk_max_entries=None, disk_max_bytes=2048
        )
        for index in range(20):
            cache.put(f"key{index}", b"x" * 512)
        _entries, total = cache.disk_usage()
        assert total <= 2048

    def test_unbounded_when_disabled(self, tmp_path):
        cache = AnalysisCache(
            directory=str(tmp_path), disk_max_entries=None, disk_max_bytes=None
        )
        for index in range(10):
            cache.put(f"key{index}", index)
        assert cache.disk_usage()[0] == 10

    def test_read_refreshes_mtime(self, tmp_path):
        cache = AnalysisCache(directory=str(tmp_path), disk_max_entries=2, disk_max_bytes=None)
        cache.put("old", 1)
        path = os.path.join(str(tmp_path), "old.pkl")
        os.utime(path, (1, 1))
        before = os.stat(path).st_mtime
        fresh = AnalysisCache(directory=str(tmp_path))
        assert fresh.get("old") == 1
        assert os.stat(path).st_mtime > before


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


def _job(key, priority=PRIORITY_INTERACTIVE, deadline=None, source=FMA_SOURCE):
    return Job(
        key=key,
        item=BatchItem(name=key, kind="lnum", source=source),
        priority=priority,
        deadline=deadline,
    )


class TestScheduler:
    def test_full_queue_sheds(self):
        async def scenario():
            scheduler = Scheduler(queue_size=2)
            # Workers never started: the queue only fills.
            scheduler.submit(_job("a"))
            scheduler.submit(_job("b"))
            with pytest.raises(SchedulerBusy):
                scheduler.submit(_job("c"))
            assert scheduler.counters["shed"] == 1
            assert scheduler.counters["submitted"] == 2

        run(scenario())

    def test_priority_lane_ordering(self):
        async def scenario():
            scheduler = Scheduler(queue_size=8)
            scheduler.submit(_job("bulk1", priority=PRIORITY_BULK))
            scheduler.submit(_job("fast", priority=PRIORITY_INTERACTIVE))
            scheduler.submit(_job("bulk2", priority=PRIORITY_BULK))
            order = []
            while not scheduler._queue.empty():
                _p, _s, job = scheduler._queue.get_nowait()
                order.append(job.key)
            # Interactive jumps the bulk lane; bulk stays FIFO.
            assert order == ["fast", "bulk1", "bulk2"]
            assert scheduler.lane_counters == {"interactive": 1, "bulk": 2}

        run(scenario())

    def test_expired_deadline_never_runs(self):
        async def scenario():
            scheduler = Scheduler(queue_size=8)
            await scheduler.start()
            import time

            future = scheduler.submit(_job("late", deadline=time.monotonic() - 1.0))
            from repro.service import DeadlineExceeded

            with pytest.raises(DeadlineExceeded):
                await future
            assert scheduler.counters["expired"] == 1
            assert scheduler.counters["completed"] == 0
            await scheduler.stop()

        run(scenario())

    def test_deadline_governs_the_queue_not_running_work(self, monkeypatch):
        # The job deadline drops *queued* work; once dispatched, a job
        # runs to completion and resolves with its report even past the
        # deadline (client-facing timeouts are the server's wait_for),
        # and the worker keeps serving afterwards.
        import time as time_module

        def slow_then_fast(item, config, cache, memo=None, engine="auto"):
            if item.name == "slow":
                time_module.sleep(0.3)
            from repro.analysis.batch import _analyze_item

            return _analyze_item(item, config, cache, memo, engine)

        monkeypatch.setattr(
            "repro.service.scheduler.analyze_item", slow_then_fast
        )

        async def scenario():
            import time

            scheduler = Scheduler(queue_size=8)
            await scheduler.start()
            slow = await asyncio.wait_for(
                scheduler.submit(_job("slow", deadline=time.monotonic() + 0.05)),
                30,
            )
            assert slow.ok  # finished late, but finished — and is kept
            assert scheduler.counters["expired"] == 0
            report = await asyncio.wait_for(scheduler.submit(_job("next")), 30)
            assert report.ok
            assert scheduler.counters["completed"] == 2
            await scheduler.stop()

        run(scenario())

    def test_jobs_run_and_complete(self):
        async def scenario():
            scheduler = Scheduler(queue_size=8)
            await scheduler.start()
            report = await scheduler.submit(_job("ok"))
            assert report.ok and report.analyses[0].name == "FMA"
            assert scheduler.counters["completed"] == 1
            await scheduler.stop()

        run(scenario())


# ---------------------------------------------------------------------------
# Request normalization
# ---------------------------------------------------------------------------


class TestRequestKey:
    def test_formatting_is_normalized_away(self):
        async def scenario():
            service = await make_service()
            reformatted = FMA_SOURCE.replace("\n", "\n\n").replace("  ", "\t")
            assert service.request_key(FMA_SOURCE, "lnum") == service.request_key(
                reformatted, "lnum"
            )
            await service.stop()

        run(scenario())

    def test_distinct_programs_get_distinct_keys(self):
        async def scenario():
            service = await make_service()
            other = FMA_SOURCE.replace("mul", "div")
            assert service.request_key(FMA_SOURCE, "lnum") != service.request_key(
                other, "lnum"
            )
            await service.stop()

        run(scenario())

    def test_annotation_changes_the_key(self):
        async def scenario():
            # Same body, different declared error bound: these must never
            # share a cache entry (one satisfies its annotation, the other
            # violates it).
            service = await make_service()
            satisfied = "function f (x: num) : M[eps]num { rnd x }"
            violated = "function f (x: num) : M[0]num { rnd x }"
            assert service.request_key(satisfied, "lnum") != service.request_key(
                violated, "lnum"
            )
            first = await service.handle({"op": "analyze", "source": satisfied})
            second = await service.handle({"op": "analyze", "source": violated})
            assert not second["cached"]
            assert first["report"]["functions"][0]["annotation_satisfied"] is True
            assert second["report"]["functions"][0]["annotation_satisfied"] is False
            await service.stop()

        run(scenario())

    def test_empty_or_comment_only_sources_do_not_collide(self):
        async def scenario():
            service = await make_service()
            key_a = service.request_key("# only a comment, program A", "lnum")
            key_b = service.request_key("# a different comment, program B", "lnum")
            assert key_a != key_b
            await service.stop()

        run(scenario())

    def test_unparseable_sources_fall_back_to_source_key(self):
        async def scenario():
            service = await make_service()
            key1 = service.request_key("function broken (", "lnum")
            key2 = service.request_key("function broken (", "lnum")
            key3 = service.request_key("function broken ((", "lnum")
            assert key1 == key2 != key3
            await service.stop()

        run(scenario())


# ---------------------------------------------------------------------------
# The service core: coalescing, caching, deadlines, shedding
# ---------------------------------------------------------------------------


class TestAnalysisService:
    def test_concurrent_duplicates_coalesce_to_one_inference(self):
        async def scenario():
            service = await make_service()
            responses = await asyncio.gather(
                *[
                    service.handle({"op": "analyze", "source": FMA_SOURCE})
                    for _ in range(8)
                ]
            )
            assert [response["status"] for response in responses] == ["ok"] * 8
            # The coalescing contract: N duplicates, exactly one inference.
            # (A duplicate that is admitted after the shared job already
            # finished is served from the cache instead of coalescing —
            # either way no second inference may ever be scheduled.)
            assert service.counters["inferences"] == 1
            assert service.counters["scheduled"] == 1
            assert (
                service.counters["coalesced"] + service.counters["cache_hits"] == 7
            )
            assert service.counters["coalesced"] >= 1
            riders = [r for r in responses if r["coalesced"] or r["cached"]]
            assert len(riders) == 7
            bounds = {
                response["report"]["functions"][0]["relative_error_bound"]
                for response in responses
            }
            assert len(bounds) == 1
            await service.stop()

        run(scenario())

    def test_repeat_request_is_served_from_cache(self):
        async def scenario():
            service = await make_service()
            first = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            second = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            assert not first["cached"] and second["cached"]
            # Formatting changes hit the same content-addressed entry.
            third = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE + "\n\n"}
            )
            assert third["cached"]
            assert service.counters["inferences"] == 1
            assert service.counters["cache_hits"] == 2
            await service.stop()

        run(scenario())

    def test_shared_subexpressions_hit_the_judgement_memo_across_requests(self):
        # Two *different* programs with a common body: distinct request
        # keys (no cache hit, two inferences), but the second inference
        # reuses the first one's subterm judgements through the shared
        # cross-request memo — and /stats makes that observable.
        shared_body = (
            "  let [x1] = x;\n"
            "  a = mul (x1, x1);\n"
            "  b = add (|a, x1|);\n"
            "  rnd b\n"
        )
        source_a = "function SqA (x: ![3]num) : M[eps]num {\n" + shared_body + "}\n"
        source_b = "function SqB (x: ![3]num) : M[eps]num {\n" + shared_body + "}\n"

        async def scenario():
            service = await make_service()
            first = await service.handle({"op": "analyze", "source": source_a})
            hits_after_first = service.judgement_memo.hits
            second = await service.handle({"op": "analyze", "source": source_b})
            assert first["status"] == second["status"] == "ok"
            assert not second["cached"]
            assert service.counters["inferences"] == 2
            assert service.judgement_memo.hits > hits_after_first
            stats = service.stats()
            memo_block = stats["cache"]["judgement_memo"]
            assert memo_block["hits"] >= 1
            assert memo_block["entries"] <= memo_block["capacity"]
            # The process-wide memo occupancy report rides along.
            assert {"ast", "grades"} <= set(stats["memos"])
            await service.stop()

        run(scenario())

    def test_service_shares_its_memos_with_the_scheduler(self):
        # Inference always runs in-process: the scheduler's worker gets
        # the service's own judgement memo and parse cache, not copies.
        service = AnalysisService()
        assert isinstance(service.judgement_memo, JudgementMemo)
        assert service.scheduler.judgement_memo is service.judgement_memo
        assert service.scheduler.parse_cache is service.cache

    def test_worker_reuses_the_admission_parse(self):
        async def scenario():
            service = await make_service()
            await service.handle({"op": "analyze", "source": FMA_SOURCE})
            stats = service.cache.parse_stats
            # Admission parsed once (miss) for key normalization; the
            # thread-mode worker must hit that memo, not re-parse.
            assert stats.misses == 1
            assert stats.hits >= 1
            await service.stop()

        run(scenario())

    def test_no_cache_bypasses_the_farm(self):
        async def scenario():
            service = await make_service()
            await service.handle({"op": "analyze", "source": FMA_SOURCE})
            again = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "no_cache": True}
            )
            assert not again["cached"]
            assert service.counters["inferences"] == 2
            await service.stop()

        run(scenario())

    def test_no_cache_requests_do_not_coalesce(self):
        async def scenario():
            service = await make_service()
            responses = await asyncio.gather(
                service.handle({"op": "analyze", "source": FMA_SOURCE}),
                service.handle(
                    {"op": "analyze", "source": FMA_SOURCE, "no_cache": True}
                ),
            )
            assert [r["status"] for r in responses] == ["ok", "ok"]
            # The no_cache request must run its own inference (riding the
            # cached-path future would skip the fresh run it demanded),
            # and the cache-respecting one still populates the cache.
            assert service.counters["inferences"] == 2
            assert service.counters["coalesced"] == 0
            repeat = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            assert repeat["cached"]
            await service.stop()

        run(scenario())

    def test_fpcore_requests(self):
        async def scenario():
            service = await make_service()
            response = await service.handle(
                {"op": "analyze", "source": HYPOT_FPCORE, "kind": "fpcore"}
            )
            assert response["status"] == "ok"
            assert response["report"]["functions"][0]["name"] == "hypot"
            await service.stop()

        run(scenario())

    def test_parse_failures_become_failed_reports_and_cache(self):
        async def scenario():
            service = await make_service()
            response = await service.handle(
                {"op": "analyze", "source": "function broken ("}
            )
            assert response["status"] == "ok"
            assert response["report"]["ok"] is False
            assert response["report"]["error"]
            repeat = await service.handle(
                {"op": "analyze", "source": "function broken ("}
            )
            assert repeat["cached"]
            await service.stop()

        run(scenario())

    def test_expired_deadline_returns_timeout(self):
        async def scenario():
            # Workers not started: the tiny deadline passes while queued.
            service = AnalysisService(ServiceConfig())
            response = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "deadline_ms": 20}
            )
            assert response["status"] == "timeout" and response["code"] == 504
            assert service.counters["timeouts"] == 1
            await service.stop()

        run(scenario())

    def test_deadline_ms_zero_disables_the_deadline(self):
        async def scenario():
            # 0 means "no deadline", matching `repro serve --deadline 0` —
            # not "time out immediately".
            service = await make_service()
            response = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "deadline_ms": 0}
            )
            assert response["status"] == "ok"
            await service.stop()

        run(scenario())

    def test_coalesced_waiter_honours_its_own_deadline(self):
        async def scenario():
            # Workers never started, so the owner's job sits in the queue
            # forever; a coalescing waiter with a tight deadline must still
            # get its 504 instead of inheriting the owner's budget.
            service = AnalysisService(ServiceConfig())
            owner = asyncio.ensure_future(
                service.handle({"op": "analyze", "source": FMA_SOURCE})
            )
            await wait_until(lambda: service._inflight)  # owner registered
            waiter = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "deadline_ms": 20}
            )
            assert waiter["status"] == "timeout" and waiter["code"] == 504
            assert service.counters["coalesced"] == 1
            assert service.counters["timeouts"] == 1
            owner.cancel()
            try:
                await owner
            except asyncio.CancelledError:
                pass
            await service.stop()

        run(scenario())

    def test_disk_cache_is_shared_with_the_batch_engine(self, tmp_path):
        from repro.analysis.batch import BatchAnalyzer, BatchItem

        # Warm the directory through the batch engine ...
        engine = BatchAnalyzer(
            jobs=1, cache=AnalysisCache(directory=str(tmp_path))
        )
        engine.analyze_items(
            [BatchItem(name="fma", kind="lnum", source=FMA_SOURCE)]
        )

        async def scenario():
            # ... then a fresh service over the same directory serves the
            # exact same source text without inferring again.
            service = await make_service(cache_dir=str(tmp_path))
            response = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE}
            )
            assert response["cached"], response
            assert service.counters["inferences"] == 0
            # And service-side inferences write the exact-text alias, so a
            # later batch over a new program starts warm too.
            other = FMA_SOURCE.replace("FMA", "FMB")
            await service.handle({"op": "analyze", "source": other})
            await service.stop()

        run(scenario())

        from repro.analysis.cache import source_key

        warm = AnalysisCache(directory=str(tmp_path))
        other = FMA_SOURCE.replace("FMA", "FMB")
        assert warm.get(source_key(other, "lnum", None)) is not None

    def test_disk_promotion_counts_as_a_memory_miss(self, tmp_path):
        async def scenario():
            warm = await make_service(cache_dir=str(tmp_path))
            await warm.handle({"op": "analyze", "source": FMA_SOURCE})
            # The report and its exact-text alias are persisted off-loop.
            await wait_until(
                lambda: sum(name.endswith(".pkl") for name in os.listdir(tmp_path)) == 2
            )
            await warm.stop()
            service = await make_service(cache_dir=str(tmp_path))
            for _ in range(2):
                response = await service.handle({"op": "analyze", "source": FMA_SOURCE})
                assert response["cached"], response
            cache = service.stats()["cache"]
            # First request: a memory miss served by disk; second: a memory hit.
            assert (cache["hits"], cache["misses"], cache["lookups"]) == (1, 1, 2)
            assert cache["disk_hits"] == 1
            assert (cache["disk"]["hits"], cache["disk"]["misses"]) == (1, 0)
            assert cache["entries"] == 1
            await service.stop()

        run(scenario())

    def test_late_completion_is_cached_for_retries(self, monkeypatch):
        # An inference that outlives its client's deadline still finishes;
        # its report must land in the cache so a retry is served instantly
        # instead of re-running (and re-timing-out) the same work.
        import time as time_module

        from repro.analysis.batch import _analyze_item

        def slow(item, config, cache, memo=None, engine="auto"):
            time_module.sleep(0.25)
            return _analyze_item(item, config, cache, memo, engine)

        monkeypatch.setattr("repro.service.scheduler.analyze_item", slow)

        async def scenario():
            service = await make_service()
            first = await service.handle(
                {"op": "analyze", "source": FMA_SOURCE, "deadline_ms": 50}
            )
            assert first["status"] == "timeout"
            # The work is still in flight: an immediate retry coalesces
            # onto it instead of scheduling a duplicate inference.
            riding = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            assert riding["status"] == "ok" and riding["coalesced"]
            assert service.counters["scheduled"] == 1
            await wait_until(lambda: service.cache.entries > 0)
            retry = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            assert retry["status"] == "ok" and retry["cached"]
            assert service.counters["inferences"] == 1
            await service.stop()

        run(scenario())

    def test_coalesced_waiter_extends_the_job_deadline(self):
        async def scenario():
            # Workers not started yet: the job waits in the queue past the
            # owner's 50 ms budget.  The coalescing waiter brings a much
            # longer budget, so once workers start, the job must still run
            # (instead of being dropped at the owner's deadline).
            service = AnalysisService(ServiceConfig())
            owner = asyncio.ensure_future(
                service.handle(
                    {"op": "analyze", "source": FMA_SOURCE, "deadline_ms": 50}
                )
            )
            await wait_until(lambda: service._inflight)
            waiter = asyncio.ensure_future(
                service.handle(
                    {"op": "analyze", "source": FMA_SOURCE, "deadline_ms": 20000}
                )
            )
            await wait_until(lambda: service.counters["coalesced"] == 1)
            assert (await owner)["status"] == "timeout"
            await service.scheduler.start()
            response = await asyncio.wait_for(waiter, 30)
            assert response["status"] == "ok" and response["coalesced"]
            assert service.counters["inferences"] == 1
            assert service.scheduler.counters["expired"] == 0
            await service.stop()

        run(scenario())

    def test_queued_request_is_released_at_its_deadline(self):
        async def scenario():
            # Workers never started: the job sits queued forever, but the
            # submitting client must still get its 504 at the deadline.
            service = AnalysisService(ServiceConfig())
            response = await asyncio.wait_for(
                service.handle(
                    {"op": "analyze", "source": FMA_SOURCE, "deadline_ms": 50}
                ),
                timeout=10,
            )
            assert response["status"] == "timeout" and response["code"] == 504
            assert service.counters["timeouts"] == 1
            await service.stop()

        run(scenario())

    def test_full_queue_returns_busy(self):
        async def scenario():
            # Workers intentionally not started: the first request parks in
            # the queue, the second distinct one must be shed.
            service = AnalysisService(ServiceConfig(queue_size=1))
            first = asyncio.ensure_future(
                service.handle({"op": "analyze", "source": FMA_SOURCE})
            )
            await wait_until(
                lambda: service.scheduler.stats()["queue_depth"] == 1
            )
            response = await service.handle(
                {"op": "analyze", "source": HORNER_SOURCE}
            )
            assert response["status"] == "busy" and response["code"] == 429
            assert service.counters["busy"] == 1
            first.cancel()
            try:
                await first
            except asyncio.CancelledError:
                pass
            await service.stop()

        run(scenario())

    def test_adversarially_deep_source_gets_an_error_response(self):
        async def scenario():
            service = await make_service()
            deep = "(" * 100_000 + "x" + ")" * 100_000
            response = await service.handle({"op": "analyze", "source": deep})
            # RecursionError (or a parse failure) must surface as a JSON
            # response, never escape and kill the connection.
            assert response["status"] in ("ok", "error")
            if response["status"] == "ok":
                assert response["report"]["ok"] is False
            # The service still works afterwards.
            follow_up = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            assert follow_up["status"] == "ok"
            await service.stop()

        run(scenario())

    def test_malformed_requests_are_rejected(self):
        async def scenario():
            service = await make_service()
            assert (await service.handle([1, 2]))["status"] == "error"
            assert (await service.handle({"op": "nope"}))["status"] == "error"
            assert (await service.handle({"op": "analyze"}))["status"] == "error"
            assert (
                await service.handle({"op": "analyze", "source": "x", "kind": "java"})
            )["status"] == "error"
            assert (
                await service.handle(
                    {"op": "analyze", "source": "x", "priority": "vip"}
                )
            )["status"] == "error"
            # An unhashable priority is a 400, not a 500 TypeError.
            started = time.monotonic()
            response = await service.handle(
                {"op": "analyze", "source": "x", "priority": []}
            )
            assert response["code"] == 400
            assert time.monotonic() - started < 1.0
            assert service.counters["errors"] == 6
            await service.stop()

        run(scenario())

    def test_stats_shape(self):
        async def scenario():
            service = await make_service()
            await service.handle({"op": "analyze", "source": FMA_SOURCE})
            response = await service.handle({"op": "stats"})
            stats = response["stats"]
            assert {"service", "cache", "scheduler", "inflight", "uptime_seconds"} <= set(
                stats
            )
            assert {
                "requests",
                "coalesced",
                "inferences",
                "cache_hits",
                "busy",
                "timeouts",
            } <= set(stats["service"])
            assert {
                "hits", "misses", "puts", "evictions", "lookups", "entries", "disk_hits",
            } <= set(stats["cache"])
            assert {"queue_depth", "shed", "lanes"} <= set(stats["scheduler"])
            await service.stop()

        run(scenario())


# ---------------------------------------------------------------------------
# The TCP server + blocking client
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_server():
    # The same server-in-a-daemon-thread harness the load generator uses.
    from repro.perf.service_bench import _ServerHarness

    with _ServerHarness(ServiceConfig()) as harness:
        yield harness.port


class TestServerRoundTrip:
    def test_client_analyze_and_stats(self, live_server):
        with ServiceClient(port=live_server) as client:
            assert client.ping()
            response = client.analyze(FMA_SOURCE, name="fma")
            assert response["status"] == "ok"
            assert response["report"]["functions"][0]["name"] == "FMA"
            repeat = client.analyze(FMA_SOURCE)
            assert repeat["cached"]
            stats = client.stats()
            assert stats["service"]["inferences"] == 1
            assert stats["service"]["cache_hits"] == 1

    def test_concurrent_clients_coalesce_over_tcp(self, live_server):
        results = []
        barrier = threading.Barrier(4)

        def worker():
            with ServiceClient(port=live_server) as client:
                barrier.wait(timeout=10)
                results.append(client.analyze(HORNER_SOURCE))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 4
        assert all(response["status"] == "ok" for response in results)
        with ServiceClient(port=live_server) as client:
            stats = client.stats()
        # However the four requests interleaved (coalesced or cached),
        # the server performed exactly one inference for the program.
        assert stats["service"]["inferences"] == 1

    def test_bad_json_line_yields_error_response(self, live_server):
        import json
        import socket

        with socket.create_connection(("127.0.0.1", live_server), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["status"] == "error" and response["code"] == 400

    def test_busy_and_error_raise_service_error(self, live_server):
        with ServiceClient(port=live_server) as client:
            with pytest.raises(ServiceError) as info:
                client.analyze("")  # empty source
            assert info.value.response["status"] == "error"

    def test_query_cli_round_trip(self, live_server, capsys):
        from repro.cli import main

        path = os.path.join(EXAMPLES, "horner2.lnum")
        assert main(["query", path, "--port", str(live_server)]) == 0
        output = capsys.readouterr().out
        assert "Horner2" in output and "2*eps" in output
        # Stats flag prints the JSON payload.
        assert main(["query", "--stats", "--port", str(live_server)]) == 0
        assert '"inferences"' in capsys.readouterr().out

    def test_shutdown_completes_with_an_idle_connection_open(self):
        # Regression guard for Python >= 3.12.1, where Server.wait_closed
        # waits for every connection handler: an idle client parked in
        # readline() must not hold shutdown hostage.
        import socket

        from repro.perf.service_bench import _ServerHarness

        with _ServerHarness(ServiceConfig()) as harness:
            idle = socket.create_connection(("127.0.0.1", harness.port), timeout=10)
            try:
                ServiceClient(port=harness.port, timeout=10).shutdown()
                harness._thread.join(timeout=15)
                assert not harness._thread.is_alive(), (
                    "server did not shut down with an idle connection open"
                )
            finally:
                idle.close()

    def test_query_cli_unreachable_server(self, capsys):
        from repro.cli import main

        assert main(["query", os.path.join(EXAMPLES, "horner2.lnum"), "--port", "1"]) == 3
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The validate request kind
# ---------------------------------------------------------------------------


class TestValidateOp:
    REQUEST = {
        "op": "validate",
        "source": FMA_SOURCE,
        "samples": 4,
        "points": 1,
        "seed": 0,
    }

    def test_validate_round_trip_and_caching(self):
        async def scenario():
            service = await make_service()
            first = await service.handle(dict(self.REQUEST))
            assert first["status"] == "ok" and first["op"] == "validate"
            report = first["report"]
            assert report["ok"] and report["verdict"] == "sound"
            (program,) = report["reports"]
            assert program["verdict"] == "sound"
            backends = {entry["backend"] for entry in program["backends"]}
            assert {"lnum", "gappa_like", "fptaylor_like", "standard_bounds"} <= backends
            # Same source + same sampling parameters: cached.
            second = await service.handle(dict(self.REQUEST))
            assert second["cached"]
            # Different sampling parameters are a different request.
            third = await service.handle({**self.REQUEST, "samples": 5})
            assert not third["cached"]
            assert service.counters["validate_requests"] == 3
            assert service.counters["inferences"] == 2
            await service.stop()

        run(scenario())

    def test_validate_key_is_distinct_from_analyze(self):
        async def scenario():
            service = await make_service()
            analyze = await service.handle({"op": "analyze", "source": FMA_SOURCE})
            validate = await service.handle(dict(self.REQUEST))
            assert analyze["key"] != validate["key"]
            # Neither is served from the other's cache entry.
            assert not validate["cached"]
            assert validate["report"]["reports"][0]["backends"]
            await service.stop()

        run(scenario())

    def test_validate_rejects_bad_parameters(self):
        async def scenario():
            service = await make_service()
            response = await service.handle({**self.REQUEST, "samples": "lots"})
            assert response["status"] == "error"
            response = await service.handle({**self.REQUEST, "points": -1})
            assert response["status"] == "error"
            # Zero points would silently drop the whole stochastic budget.
            response = await service.handle({**self.REQUEST, "points": 0})
            assert response["status"] == "error"
            await service.stop()

        run(scenario())

    def test_concurrent_validate_duplicates_coalesce(self):
        async def scenario():
            service = await make_service()
            responses = await asyncio.gather(
                *[service.handle(dict(self.REQUEST)) for _ in range(4)]
            )
            assert [response["status"] for response in responses] == ["ok"] * 4
            assert service.counters["inferences"] == 1
            assert (
                service.counters["coalesced"] + service.counters["cache_hits"] == 3
            )
            await service.stop()

        run(scenario())

    def test_client_validate_over_tcp(self, live_server):
        with ServiceClient(port=live_server) as client:
            response = client.validate(FMA_SOURCE, name="fma", samples=4, points=1)
            assert response["status"] == "ok"
            assert response["report"]["verdict"] == "sound"
            stats = client.stats()
            assert stats["service"]["validate_requests"] == 1

    def test_query_cli_validate_flag(self, live_server, capsys):
        from repro.cli import main

        path = os.path.join(EXAMPLES, "fma.lnum")
        code = main(
            [
                "query",
                path,
                "--validate",
                "--samples",
                "4",
                "--points",
                "1",
                "--port",
                str(live_server),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SOUND" in output and "lnum" in output


# ---------------------------------------------------------------------------
# The reusable pool handle
# ---------------------------------------------------------------------------


class TestPoolHandle:
    def test_thread_mode_reuses_executor(self):
        pool = PoolHandle(1)
        assert not pool.started
        first = pool.submit(len, "abc").result()
        assert first == 3 and pool.started
        executor = pool.executor
        pool.submit(len, "abcd").result()
        assert pool.executor is executor
        pool.close()
        assert not pool.started
        # Reusable after close: a new executor is created lazily.
        assert pool.submit(len, "ab").result() == 2
        pool.close()

    def test_batch_analyzer_owns_a_pool(self):
        from repro.analysis.batch import BatchAnalyzer

        with BatchAnalyzer(jobs=1) as engine:
            assert engine.pool.jobs == 1

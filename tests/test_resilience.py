"""Chaos suite for the resilience layer.

Unit coverage for the deterministic primitives (fault plans, retry
schedules, circuit breakers, deadline arithmetic), the graceful-
degradation paths (corrupt disk-cache quarantine, compiled-engine
fallback), the shed-expired scheduler satellite and the client read
timeout — then one end-to-end chaos run: a two-worker cluster under a
pinned fault plan (worker kills, delayed/truncated frames, corrupted
cache writes, injected compiled-engine failures) must serve every
request through the retrying pipelined client with zero client-visible
failures and identical answers for identical programs.
"""

import json
import os
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.batch import BatchItem
from repro.analysis.cache import (
    QUARANTINE_MAX_FILES,
    AnalysisCache,
    memo_report,
    quarantined_total,
)
from repro.core import ast as A
from repro.core.inference import engine_fallback_stats, infer
from repro.faults import (
    FAULT_SITES,
    FaultPlan,
    activate,
    active_plan,
    deactivate,
    plan_from_environment,
)
from repro.service import (
    CircuitBreaker,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.resilience import decrement_deadline, retryable_response
from repro.service.scheduler import (
    DeadlineExceeded,
    Job,
    PRIORITY_INTERACTIVE,
    Scheduler,
)

FMA_SOURCE = """
function FMA (x: num) (y: num) (z: num) : M[eps]num {
  a = mul (x, y);
  b = add (|a, z|);
  rnd b
}
"""


@pytest.fixture(autouse=True)
def no_leaked_fault_plan():
    """Every test starts and ends with fault injection disabled."""
    deactivate()
    yield
    deactivate()


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    @given(
        retries=st.integers(min_value=0, max_value=12),
        base=st.floats(min_value=0.001, max_value=0.5),
        multiplier=st.floats(min_value=1.0, max_value=3.0),
        max_delay=st.floats(min_value=0.01, max_value=4.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        budget=st.floats(min_value=0.001, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_schedule_is_deterministic_and_budget_capped(
        self, retries, base, multiplier, max_delay, jitter, budget, seed
    ):
        policy = RetryPolicy(
            retries=retries, base_delay=base, multiplier=multiplier,
            max_delay=max_delay, jitter=jitter, budget_seconds=budget,
            seed=seed,
        )
        schedule = policy.schedule()
        # Determinism: a fresh instance with the same fields agrees exactly.
        assert schedule == RetryPolicy(
            retries=retries, base_delay=base, multiplier=multiplier,
            max_delay=max_delay, jitter=jitter, budget_seconds=budget,
            seed=seed,
        ).schedule()
        assert len(schedule) <= retries
        assert all(delay >= 0.0 for delay in schedule)
        # No single delay exceeds the cap, and the cumulative sleep never
        # exceeds the budget (the final delay is clipped to the remainder).
        assert all(delay <= max_delay + 1e-9 for delay in schedule)
        assert sum(schedule) <= budget + 1e-9

    def test_zero_retries_is_empty(self):
        assert RetryPolicy(retries=0).schedule() == []
        assert RetryPolicy(retries=5, budget_seconds=0.0).schedule() == []

    def test_different_seeds_differ(self):
        kwargs = dict(retries=8, jitter=0.9, budget_seconds=100.0)
        assert (
            RetryPolicy(seed=1, **kwargs).schedule()
            != RetryPolicy(seed=2, **kwargs).schedule()
        )

    def test_retryable_response_contract(self):
        assert retryable_response(None)  # pure transport failure
        assert retryable_response({"status": "error", "retryable": True})
        assert not retryable_response({"status": "error", "code": 400})
        assert not retryable_response({"status": "ok"})


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    SPEC = "seed=7;kill_worker=@3;slow_response=0.4:15;corrupt_cache=0.1"

    def test_decisions_are_deterministic(self):
        first = FaultPlan.from_spec(self.SPEC)
        second = FaultPlan.from_spec(self.SPEC)
        for site in ("slow_response", "corrupt_cache"):
            assert [first.should(site) for _ in range(200)] == [
                second.should(site) for _ in range(200)
            ]

    def test_ordinal_sites_fire_exactly_where_listed(self):
        plan = FaultPlan.from_spec("seed=1;kill_worker=@2,5")
        fired = [plan.should("kill_worker") for _ in range(6)]
        assert fired == [False, True, False, False, True, False]
        seen, injected = plan.counts()["kill_worker"]
        assert (seen, injected) == (6, 2)

    def test_sites_keep_independent_counters(self):
        plan = FaultPlan.from_spec("seed=1;kill_worker=@1;drop_connection=@1")
        assert plan.should("kill_worker")
        # drop_connection's stream was not advanced by kill_worker events.
        assert plan.should("drop_connection")

    def test_unknown_site_and_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("seed=1;explode=0.5")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("kill_worker=1.5")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("kill_worker=@0")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("kill_worker")

    def test_seed_changes_the_stream(self):
        one = FaultPlan.from_spec("seed=1;corrupt_cache=0.5")
        two = FaultPlan.from_spec("seed=2;corrupt_cache=0.5")
        assert [one.should("corrupt_cache") for _ in range(128)] != [
            two.should("corrupt_cache") for _ in range(128)
        ]

    def test_arg_and_defaults(self):
        plan = FaultPlan.from_spec("seed=1;slow_response=1.0:80")
        assert plan.arg("slow_response", 25.0) == 80.0
        assert plan.arg("kill_worker", 25.0) == 25.0

    def test_unlisted_site_never_fires(self):
        plan = FaultPlan.from_spec("seed=1;kill_worker=@1")
        assert all(not plan.should("corrupt_cache") for _ in range(32))

    def test_activation_lifecycle(self, monkeypatch):
        assert active_plan() is None
        plan = activate(self.SPEC)
        assert active_plan() is plan and plan.spec == self.SPEC
        deactivate()
        assert active_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "seed=3;kill_worker=@9")
        assert plan_from_environment() == "seed=3;kill_worker=@9"
        monkeypatch.delenv("REPRO_FAULTS")
        assert plan_from_environment() is None

    def test_describe_lists_every_site(self):
        plan = FaultPlan.from_spec(self.SPEC)
        description = plan.describe()
        assert description["seed"] == 7
        assert {site["site"] for site in description["sites"]} <= set(FAULT_SITES)
        assert set(description["injected"]) == {
            "kill_worker", "slow_response", "corrupt_cache",
        }


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_k_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow() and breaker.state == breaker.CLOSED
        breaker.record_failure()
        assert not breaker.allow() and breaker.state == breaker.OPEN

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED

    def test_trip_opens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=5)
        breaker.trip()
        assert breaker.state == breaker.OPEN and not breaker.allow()

    def test_full_open_half_open_closed_cycle(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        breaker.probe_success()
        assert breaker.state == breaker.HALF_OPEN and breaker.allow()
        breaker.record_success()
        assert breaker.state == breaker.CLOSED
        assert breaker.transitions == {
            breaker.CLOSED: 1, breaker.OPEN: 1, breaker.HALF_OPEN: 1,
        }

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.trip()
        breaker.probe_success()
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert breaker.transitions[breaker.OPEN] == 2

    def test_probe_on_closed_is_a_success(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.probe_success()
        assert breaker.consecutive_failures == 0
        assert breaker.state == breaker.CLOSED

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


# ---------------------------------------------------------------------------
# Deadline propagation
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_decrement_passes_remaining_budget(self):
        assert decrement_deadline(1000.0, 0.25) == pytest.approx(750.0)

    def test_exhausted_budget_is_none(self):
        assert decrement_deadline(100.0, 0.2) is None
        assert decrement_deadline(100.0, 0.1) is None  # exactly spent

    def test_non_numeric_and_bool_are_none(self):
        assert decrement_deadline("soon", 0.0) is None
        assert decrement_deadline(None, 0.0) is None
        assert decrement_deadline(True, 0.0) is None

    def test_scheduler_sheds_expired_jobs_before_dispatch(self):
        import asyncio

        async def scenario():
            scheduler = Scheduler(queue_size=8)
            job = Job(
                key="expired",
                item=BatchItem(name="expired", kind="lnum", source=FMA_SOURCE),
                priority=PRIORITY_INTERACTIVE,
                deadline=time.monotonic() - 0.01,
            )
            future = scheduler.submit(job)
            await scheduler.start()
            with pytest.raises(DeadlineExceeded):
                await future
            # Both the legacy counter and the resilience-layer name move.
            assert scheduler.counters["expired"] == 1
            assert scheduler.counters["shed_expired"] == 1
            assert scheduler.counters["completed"] == 0
            await scheduler.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Client read timeout (satellite)
# ---------------------------------------------------------------------------


class TestClientTimeout:
    def test_timeout_applies_to_reads(self):
        """A server that accepts but never answers must not hang the client."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        held = []

        def accept_and_hold():
            try:
                connection, _ = listener.accept()
                held.append(connection)  # keep it open, never write
            except OSError:
                pass

        thread = threading.Thread(target=accept_and_hold, daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=port, timeout=0.3)
            started = time.monotonic()
            with pytest.raises(ServiceError):
                client.ping()
            assert time.monotonic() - started < 5.0
            client.close()
        finally:
            for connection in held:
                connection.close()
            listener.close()


class TestRetryDeadline:
    def test_resubmits_keep_the_id_and_shrink_the_deadline(self):
        """A retried request never carries more budget than it has left."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        frames = []

        def serve():
            connection, _ = listener.accept()
            with connection, connection.makefile("rb") as reader:
                for reply in (
                    {"status": "error", "code": 503, "error": "busy worker", "retryable": True},
                    {"status": "ok", "op": "ping"},
                ):
                    frame = json.loads(reader.readline())
                    frames.append(frame)
                    reply = {"id": frame["id"], **reply}
                    connection.sendall(json.dumps(reply).encode("utf-8") + b"\n")

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            policy = RetryPolicy(retries=2, base_delay=0.05, jitter=0.0)
            with ServiceClient(port=port, timeout=10, retry=policy) as client:
                response = client.request({"op": "ping", "deadline_ms": 5000})
            thread.join(timeout=10)
        finally:
            listener.close()
        assert response == {"status": "ok", "op": "ping"}
        first, second = frames
        assert second["id"] == first["id"]
        assert first["deadline_ms"] == 5000
        # At least the 50 ms backoff came out of the budget.
        assert second["deadline_ms"] <= 5000 - 50

    def test_dropped_connection_resubmits_with_a_smaller_deadline(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        frames = []

        def serve():
            for answer in (False, True):  # hang up on the first connection
                connection, _ = listener.accept()
                with connection, connection.makefile("rb") as reader:
                    frame = json.loads(reader.readline())
                    frames.append(frame)
                    if answer:
                        reply = {"id": frame["id"], "status": "ok", "op": "ping"}
                        connection.sendall(json.dumps(reply).encode("utf-8") + b"\n")

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            policy = RetryPolicy(retries=2, base_delay=0.05, jitter=0.0)
            with ServiceClient(port=port, timeout=10, retry=policy) as client:
                response = client.request({"op": "ping", "deadline_ms": 5000})
            thread.join(timeout=10)
        finally:
            listener.close()
        assert response == {"status": "ok", "op": "ping"}
        first, second = frames
        assert second["id"] == first["id"]
        assert second["deadline_ms"] <= 5000 - 50

    def test_a_budget_spent_by_another_retry_raises_the_last_failure(self):
        # Two requests are in flight when the connection drops.  Draining
        # the first backs off and resubmits everything in flight; by then
        # the second request's deadline_ms is spent, so it is not
        # resubmitted and draining it raises the transport failure, as a
        # spent budget does for the request being drained.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        resubmitted = []

        def serve():
            connection, _ = listener.accept()
            with connection, connection.makefile("rb") as reader:
                reader.readline()
                reader.readline()  # read both, then hang up unanswered
            connection, _ = listener.accept()
            with connection, connection.makefile("rb") as reader:
                frame = json.loads(reader.readline())
                resubmitted.append(frame)
                reply = {"id": frame["id"], "status": "ok", "op": "ping"}
                connection.sendall(json.dumps(reply).encode("utf-8") + b"\n")
                connection.settimeout(1.0)
                try:
                    extra = reader.readline()
                except OSError:
                    extra = b""
                if extra:
                    resubmitted.append(json.loads(extra))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            policy = RetryPolicy(retries=2, base_delay=0.1, jitter=0.0)
            with ServiceClient(port=port, timeout=10, retry=policy) as client:
                roomy = client.submit({"op": "ping"})
                tight = client.submit({"op": "ping", "deadline_ms": 50})
                assert client.drain(roomy) == {"id": roomy, "status": "ok", "op": "ping"}
                with pytest.raises(ServiceError, match="closed the connection"):
                    client.drain(tight)
            thread.join(timeout=10)
        finally:
            listener.close()
        assert [frame["id"] for frame in resubmitted] == [roomy]


# ---------------------------------------------------------------------------
# Corrupt-cache quarantine (satellite)
# ---------------------------------------------------------------------------


class TestCacheQuarantine:
    def test_corrupt_entry_is_renamed_and_recomputable(self, tmp_path):
        cache = AnalysisCache(directory=str(tmp_path))
        cache.put("victim", {"payload": list(range(64))})
        path = os.path.join(str(tmp_path), "victim.pkl")
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage\x00")
        before = quarantined_total()
        fresh = AnalysisCache(directory=str(tmp_path))
        assert fresh.get("victim") is None  # a miss, not an exception
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(str(tmp_path), "victim.corrupt"))
        assert fresh.quarantined == 1
        assert quarantined_total() == before + 1
        # The key is clear again: the next write/read cycle is clean.
        fresh.put("victim", "recomputed")
        assert AnalysisCache(directory=str(tmp_path)).get("victim") == "recomputed"

    def test_quarantine_is_bounded_per_directory(self, tmp_path):
        for index in range(QUARANTINE_MAX_FILES):
            (tmp_path / f"old{index}.corrupt").write_bytes(b"x")
        cache = AnalysisCache(directory=str(tmp_path))
        cache.put("victim", 1)
        path = os.path.join(str(tmp_path), "victim.pkl")
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage\x00")
        assert AnalysisCache(directory=str(tmp_path)).get("victim") is None
        # Over the cap: unlinked instead of renamed.
        assert not os.path.exists(path)
        assert not os.path.exists(os.path.join(str(tmp_path), "victim.corrupt"))

    def test_clear_sweeps_quarantine_files(self, tmp_path):
        (tmp_path / "stale.corrupt").write_bytes(b"x")
        cache = AnalysisCache(directory=str(tmp_path))
        cache.put("live", 1)
        cache.clear()
        assert list(tmp_path.iterdir()) == []

    def test_memo_report_exposes_quarantine_counters(self):
        block = memo_report()["cache_quarantine"]
        assert block["cap_per_directory"] == QUARANTINE_MAX_FILES
        assert block["entries"] >= 0

    def test_injected_corruption_round_trips_through_quarantine(self, tmp_path):
        activate("seed=11;corrupt_cache=1.0")
        writer = AnalysisCache(directory=str(tmp_path))
        writer.put("victim", {"answer": 42})
        deactivate()
        reader = AnalysisCache(directory=str(tmp_path))
        assert reader.get("victim") is None
        assert reader.quarantined == 1
        assert os.path.exists(os.path.join(str(tmp_path), "victim.corrupt"))


# ---------------------------------------------------------------------------
# Compiled-engine graceful degradation
# ---------------------------------------------------------------------------


class TestCompiledFallback:
    def test_injected_failure_degrades_to_identical_answer(self):
        # Interned (hash-consed), so the failed plan can be quarantined by
        # its ``_intern_id``; a constant unlikely to collide with other tests.
        term = A.intern_term(A.Let("t", A.Const(987654.25), A.Var("t")))
        reference = infer(term, {}, memo=False, engine="interpreted")
        before = engine_fallback_stats()

        activate("seed=5;compiled_error=@1")
        degraded = infer(term, {}, memo=False, engine="compiled")
        after = engine_fallback_stats()
        assert degraded.type == reference.type
        assert degraded.context == reference.context
        assert after["fallbacks"] == before["fallbacks"] + 1
        assert after["quarantined"] >= before["quarantined"] + 1

        # The plan is quarantined: even with injection disabled, the same
        # term skips the compiled engine instead of re-failing, and the
        # answer is still identical.
        deactivate()
        again = infer(term, {}, memo=False, engine="compiled")
        final = engine_fallback_stats()
        assert again.type == reference.type
        assert again.context == reference.context
        assert final["fallbacks"] == after["fallbacks"] + 1

    def test_compiled_engine_unaffected_without_a_plan(self):
        term = A.Let("u", A.Const(13.5), A.Var("u"))
        reference = infer(term, {}, memo=False, engine="interpreted")
        result = infer(term, {}, memo=False, engine="compiled")
        assert result.type == reference.type
        assert result.context == reference.context


# ---------------------------------------------------------------------------
# End-to-end chaos: a faulted cluster must look healthy from outside
# ---------------------------------------------------------------------------


class TestChaosCluster:
    #: Aggressive plan scaled to a short run: each worker lifetime dies on
    #: its 10th analysis, a quarter of cache writes are corrupted, and
    #: half of the compiled inferences fail over to the interpreter.
    SPEC = (
        "seed=20;kill_worker=@10;slow_response=0.1:30;truncate_frame=@30;"
        "corrupt_cache=0.25;compiled_error=0.5"
    )
    REQUESTS = 48

    def test_chaos_run_has_no_client_visible_failures(self, tmp_path):
        from repro.perf.chaos_smoke import chaos_corpus, run_chaos_load
        from repro.perf.service_bench import _RouterHarness

        corpus = chaos_corpus(limit=8)
        retry = RetryPolicy(retries=8, base_delay=0.1, budget_seconds=60.0, seed=7)
        config = ServiceConfig(
            engine="compiled", cache_dir=str(tmp_path), queue_size=512,
            faults=self.SPEC,
        )
        with _RouterHarness(2, config) as harness:
            load = run_chaos_load(harness.port, corpus, self.REQUESTS, retry)
            with ServiceClient(port=harness.port, timeout=30) as client:
                stats = client.stats()

        # Zero client-visible failures, every request answered.
        assert load["failures"] == []
        assert all(report is not None for report in load["reports"])
        assert all(report.get("ok") for report in load["reports"])

        # Identical programs produce identical (normalized) reports, no
        # matter which mix of compiled/fallback/cache/retry served them.
        canonical = {}
        for index, report in enumerate(load["reports"]):
            blob = json.dumps(report, sort_keys=True)
            program = index % len(corpus)
            assert canonical.setdefault(program, blob) == blob, (
                f"request {index} (program {program}) diverged under faults"
            )

        # The run actually exercised the resilience layer: workers died
        # and were respawned, and every slot's breaker both opened and
        # re-closed at least once across the run.
        assert stats["cluster"]["restarts"] >= 1
        opened = sum(
            breaker["transitions"]["open"]
            for breaker in stats["cluster"]["breakers"]
        )
        reclosed = sum(
            breaker["transitions"]["closed"]
            for breaker in stats["cluster"]["breakers"]
        )
        assert opened >= 1 and reclosed >= 1

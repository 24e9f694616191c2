"""Tests for the cluster layer behind ``repro serve --workers N``.

Three groups:

* :class:`TestHashRing` — pure property tests (hypothesis) for the
  consistent-hash ring: determinism, minimal remapping when the fleet
  grows or shrinks by one slot, and near-uniform key distribution.
* :class:`TestRouting` — a module-scoped 4-worker cluster, memory-only:
  concurrent duplicate keys infer exactly once, routing is stable across
  reconnects, pipelined responses correlate out of order, and the
  aggregated ``/stats`` payload has the documented shape.
* :class:`TestSupervision` — a module-scoped 2-worker cluster with a
  disk tier: cross-request judgement-memo hits inside each worker,
  SIGKILL fault injection (retryable error, respawn, disk-cache
  handoff) and rolling restarts.

Worker processes are fresh ``spawn`` interpreters, so the cluster
fixtures are deliberately module-scoped — each fleet is paid for once.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchsuite.paper_examples import PAPER_EXAMPLES
from repro.perf.service_bench import _RouterHarness, bench_sources
from repro.service.client import ServiceClient
from repro.service.cluster import HashRing
from repro.service.server import ServiceConfig

KEYS = [f"key-{index}" for index in range(1500)]


def _owners(ring, keys):
    return {key: ring.lookup(key) for key in keys}


class TestHashRing:
    def test_rings_with_the_same_slots_agree(self):
        first = HashRing(range(5))
        second = HashRing(range(5))
        assert _owners(first, KEYS) == _owners(second, KEYS)

    def test_slot_order_does_not_matter(self):
        assert _owners(HashRing([0, 1, 2, 3]), KEYS) == _owners(
            HashRing([3, 1, 0, 2]), KEYS
        )

    def test_rejects_empty_and_degenerate_rings(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing([0], virtual_nodes=0)

    @settings(max_examples=15, deadline=None)
    @given(slots=st.integers(min_value=1, max_value=8))
    def test_adding_a_slot_only_moves_keys_to_the_new_slot(self, slots):
        before = _owners(HashRing(range(slots)), KEYS)
        after = _owners(HashRing(range(slots + 1)), KEYS)
        moved = 0
        for key in KEYS:
            if after[key] != before[key]:
                # Consistent hashing never shuffles keys *between*
                # surviving slots — a key either stays or goes to the
                # newcomer.
                assert after[key] == slots
                moved += 1
        # ~1/(N+1) of the keys move (the newcomer's fair share); 2.5x
        # covers virtual-node variance at 64 points per slot.
        assert moved / len(KEYS) <= 2.5 / (slots + 1)

    @settings(max_examples=15, deadline=None)
    @given(
        slots=st.integers(min_value=2, max_value=8),
        removed=st.integers(min_value=0, max_value=7),
    )
    def test_removing_a_slot_strands_only_its_own_keys(self, slots, removed):
        removed %= slots
        before = _owners(HashRing(range(slots)), KEYS)
        survivors = [slot for slot in range(slots) if slot != removed]
        after = _owners(HashRing(survivors), KEYS)
        for key in KEYS:
            if before[key] != removed:
                assert after[key] == before[key]

    @settings(max_examples=15, deadline=None)
    @given(slots=st.integers(min_value=2, max_value=8))
    def test_distribution_is_within_2x_of_uniform(self, slots):
        ring = HashRing(range(slots))
        counts = {slot: 0 for slot in range(slots)}
        for key in KEYS:
            counts[ring.lookup(key)] += 1
        uniform = len(KEYS) / slots
        assert max(counts.values()) <= 2.0 * uniform
        assert min(counts.values()) >= 0.5 * uniform


# ---------------------------------------------------------------------------
# 4-worker routing cluster (memory-only)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster4():
    with _RouterHarness(4, ServiceConfig(queue_size=2048)) as harness:
        yield harness


def _aggregated(port):
    with ServiceClient(port=port, timeout=60) as client:
        return client.stats()


class TestRouting:
    def test_concurrent_duplicate_keys_infer_exactly_once(self, cluster4):
        corpus = bench_sources()[:8]
        before = _aggregated(cluster4.port)["service"].get("inferences", 0)
        errors = []

        def worker(offset):
            try:
                with ServiceClient(port=cluster4.port, timeout=120) as client:
                    for step in range(len(corpus)):
                        name, kind, source = corpus[(offset + step) % len(corpus)]
                        response = client.analyze(source, kind=kind, name=name)
                        if not response["report"]["ok"]:
                            errors.append(f"{name}: {response['report'].get('error')}")
            except Exception as error:
                errors.append(repr(error))

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:5]

        stats = _aggregated(cluster4.port)
        # 64 clients x 8 programs = 512 requests, but every key was
        # inferred exactly once on exactly one shard: the rest were
        # cache hits or coalesced onto the one in-flight inference.
        assert stats["service"]["inferences"] - before == len(corpus)

    def test_routing_is_stable_across_reconnects(self, cluster4):
        name, kind, source = bench_sources()[8]
        per_slot_before = [
            (entry["stats"]["service"].get("analyze_requests", 0) if entry["stats"] else 0)
            for entry in _aggregated(cluster4.port)["workers"]
        ]
        for _ in range(3):  # a fresh connection every time
            with ServiceClient(port=cluster4.port, timeout=120) as client:
                assert client.analyze(source, kind=kind, name=name)["status"] == "ok"
        per_slot_after = [
            (entry["stats"]["service"].get("analyze_requests", 0) if entry["stats"] else 0)
            for entry in _aggregated(cluster4.port)["workers"]
        ]
        deltas = [after - before for before, after in zip(per_slot_before, per_slot_after)]
        # All three requests landed on one slot; no other slot saw any.
        assert sorted(deltas) == [0, 0, 0, 3]

    def test_pipelined_responses_correlate_out_of_order(self, cluster4):
        corpus = bench_sources()
        # Reports are content-addressed: corpus entries whose sources
        # fingerprint identically share one key (and the first
        # requester's report).  A sequential pass records each entry's
        # expected (key, report) pair; the pipelined pass then proves
        # out-of-order responses land on the right requests.
        expected = []
        with ServiceClient(port=cluster4.port, timeout=120) as client:
            for name, kind, source in corpus:
                response = client.analyze(source, kind=kind, name=name)
                expected.append((response["key"], response["report"]["name"]))
        with ServiceClient(port=cluster4.port, timeout=120) as client:
            submitted = {}
            for round_index in range(2):
                for index, (name, kind, source) in enumerate(corpus):
                    request_id = client.submit(
                        {"op": "analyze", "source": source, "kind": kind, "name": name}
                    )
                    submitted[request_id] = index
            responses = client.collect(list(reversed(list(submitted))))
            for request_id, response in zip(reversed(list(submitted)), responses):
                assert response["id"] == request_id
                assert response["status"] == "ok"
                key, report_name = expected[submitted[request_id]]
                assert response["key"] == key
                assert response["report"]["name"] == report_name

    def test_single_worker_is_wire_compatible(self):
        # A 1-worker cluster answers the PR 5 protocol byte-for-byte the
        # way the sequential tests expect: plain requests, ordered
        # responses, no ids.
        with _RouterHarness(1, ServiceConfig(queue_size=256)) as harness:
            with ServiceClient(port=harness.port, timeout=120) as client:
                assert client.ping()
                name, kind, source = bench_sources()[0]
                response = client.analyze(source, kind=kind, name=name)
                assert response["status"] == "ok"
                assert "id" not in response
                assert response["report"]["ok"]

    def test_aggregated_stats_have_the_cluster_shape(self, cluster4):
        stats = _aggregated(cluster4.port)
        cluster = stats["cluster"]
        assert cluster["workers"] == 4
        assert cluster["alive"] == 4
        for counter in ("requests", "routed", "route_memo_hits", "shed", "worker_failures"):
            assert counter in cluster
        workers = stats["workers"]
        assert [entry["slot"] for entry in workers] == [0, 1, 2, 3]
        for entry in workers:
            assert entry["alive"] is True
            assert entry["stats"] is not None
            assert "service" in entry["stats"] and "cache" in entry["stats"]
        # Aggregates are sums of the per-worker blocks.
        assert stats["service"]["requests"] == sum(
            entry["stats"]["service"]["requests"] for entry in workers
        )


# ---------------------------------------------------------------------------
# 2-worker supervision cluster (disk tier)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster2(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("cluster-cache")
    config = ServiceConfig(queue_size=1024, cache_dir=str(cache_dir))
    with _RouterHarness(2, config) as harness:
        yield harness


def _wait_for_alive(port, expected, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            stats = _aggregated(port)
            if stats["cluster"]["alive"] >= expected:
                return stats
        except Exception:
            pass
        time.sleep(0.25)
    raise AssertionError(f"cluster did not report {expected} live workers in time")


class TestSupervision:
    def test_each_worker_gets_cross_request_memo_hits(self, cluster2):
        # Programs that share whole definitions (FMA, pow2r, mulfp
        # families): whichever worker a program hashes to, its sibling
        # programs replay memoized subterm judgements when co-located.
        names = ["FMA", "Horner2", "Horner2_with_error", "pow2_rounded", "pow4", "MA", "case1"]
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            for name in names:
                response = client.analyze(
                    PAPER_EXAMPLES[name].source, kind="lnum", name=name
                )
                assert response["status"] == "ok"
        stats = _aggregated(cluster2.port)
        # The aggregate proves reuse happened; the per-worker blocks
        # prove it happened *inside* a worker (the memo is per-process).
        assert stats["cache"]["judgement_memo"]["hits"] > 0
        per_worker = [
            entry["stats"]["cache"]["judgement_memo"]["hits"]
            for entry in stats["workers"]
            if entry["stats"] is not None
        ]
        assert any(hits > 0 for hits in per_worker)

    def test_killed_worker_yields_retryable_error_then_recovers(self, cluster2):
        router = cluster2.router
        source = PAPER_EXAMPLES["FMA"].source
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            client.analyze(source, kind="lnum", name="FMA")  # persists to the disk tier

        restarts_before = _aggregated(cluster2.port)["cluster"]["restarts"]
        with ServiceClient(port=cluster2.port, timeout=60) as client:
            request_id = client.submit(
                {"op": "validate", "source": source, "kind": "lnum",
                 "samples": 8192, "points": 4, "seed": 0}
            )
            client.flush()
            time.sleep(0.4)  # let the worker get well into the sampling run
            victim = None
            for slot, link in enumerate(router._links):
                # Skip internal supervision probes; only a real client
                # request marks the slot as the one to kill.
                for router_id in list(link.outstanding):
                    entry = router._pending.get(router_id)
                    if entry is not None and entry.future is None:
                        victim = slot
                        break
                if victim is not None:
                    break
            assert victim is not None, "the slow request never reached a worker"
            router.cluster.handles[victim].kill()
            response = client.drain(request_id)  # bounded by the socket timeout
        assert response["status"] == "error"
        assert response["code"] == 503
        assert response["retryable"] is True

        stats = _wait_for_alive(cluster2.port, expected=2)
        assert stats["cluster"]["restarts"] > restarts_before
        assert stats["cluster"]["worker_failures"] >= 1
        assert stats["workers"][victim]["generation"] >= 1

        with ServiceClient(port=cluster2.port, timeout=120) as client:
            # The retried request succeeds on the respawned worker ...
            retried = client.validate(source, kind="lnum", samples=64, points=2, seed=0)
            assert retried["status"] == "ok"
            # ... and the pre-crash analysis comes back from the disk
            # handoff: the fresh process has an empty memory tier, so a
            # cached response here can only come from the slot's
            # inherited cache directory.
            again = client.analyze(source, kind="lnum", name="FMA")
            assert again["status"] == "ok"
            assert again["cached"] is True
        stats = _aggregated(cluster2.port)
        assert stats["workers"][victim]["stats"]["cache"]["disk_hits"] >= 1

    def test_rolling_restart_bumps_generations_and_keeps_caches(self, cluster2):
        import asyncio

        before = _aggregated(cluster2.port)
        generations = [entry["generation"] for entry in before["workers"]]
        source = PAPER_EXAMPLES["pow4"].source
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            client.analyze(source, kind="lnum", name="pow4")

        future = asyncio.run_coroutine_threadsafe(
            cluster2.router.rolling_restart(), cluster2.loop
        )
        result = future.result(timeout=120)
        assert result == {"replaced": 2, "workers": 2}

        after = _wait_for_alive(cluster2.port, expected=2)
        for entry, generation in zip(after["workers"], generations):
            assert entry["generation"] == generation + 1
            assert entry["alive"] is True
        with ServiceClient(port=cluster2.port, timeout=120) as client:
            response = client.analyze(source, kind="lnum", name="pow4")
            assert response["status"] == "ok"
            assert response["cached"] is True

"""Tests for the serving loop (``repro.serve.server``) and its batcher."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve.batching import PendingRequest, RequestBatcher, group_requests
from repro.serve.loadgen import LoadGenerator
from repro.serve.registry import ModelRegistry, UnknownCellError
from repro.serve.server import ClusterServer


@pytest.fixture
def server(tmp_path, rng):
    registry = ModelRegistry(tmp_path / "run", k=3, seed=1, fsync=False)
    with ClusterServer(registry, query_workers=2) as srv:
        srv.ingest("a", rng.normal(size=(120, 2)))
        srv.ingest("b", rng.normal(size=(120, 2)) + 6.0)
        yield srv


class TestBatcher:
    def test_collects_up_to_max_batch(self):
        """A batch is what is queued, capped at ``max_batch`` — in order."""
        batcher = RequestBatcher(max_batch=3)
        for index in range(5):
            batcher.submit("assign", "cell", {"i": index})
        assert batcher.depth == 5
        first = batcher.next_batch()
        assert [r.payload["i"] for r in first] == [0, 1, 2]
        second = batcher.next_batch()
        assert [r.payload["i"] for r in second] == [3, 4]

    def test_lone_request_is_handed_over_at_once(self):
        """No timeout is given: were the batcher to wait for company,
        this call would block forever."""
        batcher = RequestBatcher(max_batch=32)
        request = batcher.submit("summary", "cell")
        assert batcher.next_batch() == [request]
        assert batcher.depth == 0

    def test_idle_timeout_returns_none(self):
        batcher = RequestBatcher()
        assert batcher.next_batch(timeout=0.01) is None

    def test_close_drains_to_empty_batch(self):
        batcher = RequestBatcher()
        queued = batcher.submit("assign", "cell")
        batcher.close()
        batcher.close()  # idempotent
        assert batcher.closed
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("assign", "cell")
        # What was accepted before the close is still handed out.
        assert batcher.next_batch() == [queued]
        assert batcher.next_batch() == []
        assert batcher.next_batch() == []

    def test_submit_racing_close_is_never_lost(self):
        """A submit that got past the closed check while ``close()`` runs
        must come out of ``next_batch`` before the empty batch; queued
        behind the close it would never be answered."""
        batcher = RequestBatcher()
        inside, release = threading.Event(), threading.Event()

        class ParkedAppend(type(batcher._pending)):
            def append(self, item):
                inside.set()
                assert release.wait(timeout=10)
                super().append(item)

        batcher._pending = ParkedAppend()
        accepted = []
        submitter = threading.Thread(
            target=lambda: accepted.append(batcher.submit("summary", "cell"))
        )
        submitter.start()
        assert inside.wait(timeout=10)  # past the check, not yet queued
        closer = threading.Thread(target=batcher.close)
        closer.start()
        release.set()
        for thread in (submitter, closer):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert batcher.next_batch() == accepted and len(accepted) == 1
        assert batcher.next_batch() == []

    def test_grouping_preserves_arrival_order(self):
        batcher = RequestBatcher(max_batch=6)
        for op, cell in [
            ("assign", "a"),
            ("summary", "a"),
            ("assign", "a"),
            ("assign", "b"),
        ]:
            batcher.submit(op, cell)
        groups = group_requests(batcher.next_batch())
        assert [key for key, _ in groups] == [
            ("assign", "a"),
            ("summary", "a"),
            ("assign", "b"),
        ]
        assert len(dict(groups)[("assign", "a")]) == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            RequestBatcher(max_batch=0)


class TestServer:
    def test_sync_roundtrip(self, server, rng):
        points = rng.normal(size=(7, 2))
        result = server.assign("a", points)
        assert result.assignments.shape == (7,)
        assert result.model_version == 1
        info = server.summary("a")
        assert info.model.weights.sum() == pytest.approx(120)
        assert sorted(server.cells()) == ["a", "b"]

    def test_pooled_assign_matches_individual(self, server, rng):
        """Same-cell assigns answered in one pooled batch must carry the
        exact bits of individually-answered requests."""
        queries = [rng.normal(size=(5, 2)) for _ in range(6)]
        expected = [server.assign("a", q) for q in queries]
        futures = [server.submit("assign", "a", points=q) for q in queries]
        pooled = [f.result(timeout=10) for f in futures]
        for one, many in zip(expected, pooled):
            np.testing.assert_array_equal(one.assignments, many.assignments)
            np.testing.assert_array_equal(one.sq_dists, many.sq_dists)
            np.testing.assert_array_equal(one.centroids, many.centroids)

    def test_malformed_member_fails_alone(self, server, rng):
        good = rng.normal(size=(4, 2))
        futures = [
            server.submit("assign", "a", points=good),
            server.submit("assign", "a", points=rng.normal(size=(4, 5))),
            server.submit("assign", "a", points=good),
        ]
        assert futures[0].result(timeout=10).assignments.shape == (4,)
        assert futures[2].result(timeout=10).assignments.shape == (4,)
        with pytest.raises(Exception):
            futures[1].result(timeout=10)

    def test_ingest_order_is_submission_order(self, server, rng):
        futures = [
            server.submit("ingest", "a", points=rng.normal(size=(30, 2)))
            for _ in range(4)
        ]
        receipts = [f.result(timeout=10) for f in futures]
        assert [r.partition for r in receipts] == [1, 2, 3, 4]

    def test_unknown_cell_propagates(self, server):
        with pytest.raises(UnknownCellError):
            server.assign("ghost", np.zeros((1, 2)))

    def test_unknown_endpoint_rejected(self, server):
        with pytest.raises(ValueError, match="unknown endpoint"):
            server.submit("drop-tables", "a")

    def test_stats_merges_registry_and_serving(self, server, rng):
        server.assign("a", rng.normal(size=(3, 2)))
        stats = server.stats()
        assert stats["ingests"] == 2
        assert stats["serving"]["endpoints"]["assign"]["requests"] >= 1
        assert stats["serving"]["qps"] > 0
        # The queue is visible: this very request is the one group in
        # flight, nothing waits, and every group so far was a lone one.
        assert stats["serving"]["queues"] == {
            "query_depth": 0,
            "ingest_backlog": 0,
            "in_flight_groups": 1,
        }
        assert stats["serving"]["batch_sizes"] == {"1": 4}

    def test_submit_after_close_raises(self, tmp_path, rng):
        registry = ModelRegistry(tmp_path / "r2", k=3, fsync=False)
        srv = ClusterServer(registry, query_workers=0).start()
        srv.ingest("a", rng.normal(size=(50, 2)))
        srv.close()
        with pytest.raises(RuntimeError, match="not running"):
            srv.submit("summary", "a")

    def test_close_answers_everything_accepted_and_joins_threads(
        self, tmp_path, rng
    ):
        registry = ModelRegistry(tmp_path / "r5", k=3, fsync=False)
        srv = ClusterServer(registry, query_workers=2).start()
        srv.ingest("a", rng.normal(size=(50, 2)))
        futures = [
            srv.submit("ingest", "a", points=rng.normal(size=(30, 2)))
            if index % 5 == 0
            else srv.submit("assign", "a", points=rng.normal(size=(4, 2)))
            for index in range(40)
        ]
        srv.close()
        assert all(future.done() for future in futures)
        assert [f.result().partition for f in futures[::5]] == list(range(1, 9))
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("serve-")
        ]

    def test_close_fails_a_request_no_worker_ever_took(self, tmp_path):
        """However a request comes to be stranded in a queue (here: put
        there after the workers have gone), ``close()`` fails it — a
        hung client is strictly worse than a failed request."""
        registry = ModelRegistry(tmp_path / "r6", k=3, fsync=False)
        srv = ClusterServer(registry, query_workers=2).start()
        srv._queries.close()
        srv._ingests.close()
        for thread in srv._threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        stranded = [
            PendingRequest("summary", "a", {}),
            PendingRequest("ingest", "a", {}),
        ]
        srv._queries._pending.append(stranded[0])
        srv._ingests._pending.append(stranded[1])
        srv.close()
        for request in stranded:
            with pytest.raises(RuntimeError, match="server closed"):
                request.future.result(timeout=10)

    def test_inline_mode_serves_queries(self, tmp_path, rng):
        registry = ModelRegistry(tmp_path / "r3", k=3, fsync=False)
        with ClusterServer(registry, query_workers=0) as srv:
            srv.ingest("a", rng.normal(size=(60, 2)))
            assert srv.summary("a").partitions == 1

    def test_concurrent_clients(self, server, rng):
        errors: list[Exception] = []

        def client(seed: int) -> None:
            local = np.random.default_rng(seed)
            try:
                for _ in range(20):
                    server.assign("a", local.normal(size=(4, 2)))
                    server.summary("b")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert server.metrics.total_requests >= 160

    def test_validation(self, tmp_path):
        registry = ModelRegistry(tmp_path / "r4", k=3, fsync=False)
        with pytest.raises(ValueError, match="query_workers"):
            ClusterServer(registry, query_workers=-1)


class TestLoadGenerator:
    def test_deterministic_workload_reports(self, server):
        generator = LoadGenerator(
            server, ["a", "b"], seed=3, mix={"assign": 0.7, "summary": 0.3}
        )
        report = generator.run(0.3, concurrency=2)
        assert report.total_requests > 0
        assert report.errors == 0
        assert report.qps > 0
        assert set(report.endpoints) == {"assign", "summary"}
        for stats in report.endpoints.values():
            assert stats["p50_ms"] <= stats["p99_ms"] or stats["count"] == 0
        payload = report.to_payload()
        assert payload["concurrency"] == 2

    def test_update_lag_reported_with_ingest(self, server):
        generator = LoadGenerator(
            server, ["a"], seed=1, mix={"ingest": 1.0}, ingest_points=30
        )
        report = generator.run(0.3, concurrency=1)
        assert report.endpoints["ingest"]["count"] > 0
        assert report.update_lag_ms["p99"] > 0

    def test_validation(self, server):
        with pytest.raises(ValueError, match="non-empty"):
            LoadGenerator(server, [])
        with pytest.raises(ValueError, match="unknown ops"):
            LoadGenerator(server, ["a"], mix={"frobnicate": 1.0})
        with pytest.raises(ValueError, match="sum to > 0"):
            LoadGenerator(server, ["a"], mix={"assign": 0.0})
        generator = LoadGenerator(server, ["a"])
        with pytest.raises(ValueError, match="duration_seconds"):
            generator.run(0.0)
        with pytest.raises(ValueError, match="concurrency"):
            generator.run(1.0, concurrency=0)

    def test_infers_dimensionality(self, server):
        generator = LoadGenerator(server, ["a"], seed=0)
        assert generator.dim == 2

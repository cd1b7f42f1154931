"""Scheduling, ordering and visibility of the serving loop.

What these pin down is *who may make whom wait*: reads never wait for
an ingest's k-means, batches form only behind busy workers, and per
cell the fold order is the arrival order whatever the thread schedule.
Every test parks threads on ``Event``s — none depends on wall-clock.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.serve.registry as registry_module
from repro.serve.registry import ModelRegistry
from repro.serve.server import ClusterServer
from repro.stream.checkpoint import JournalWriter, read_journal

WAIT = 20.0
K = 3
SEED = 1


def make_registry(run_dir) -> ModelRegistry:
    return ModelRegistry(run_dir, k=K, seed=SEED, fsync=False)


@pytest.fixture
def server(tmp_path, rng):
    with ClusterServer(make_registry(tmp_path / "run"), query_workers=2) as srv:
        srv.ingest("a", rng.normal(size=(120, 2)))
        srv.ingest("b", rng.normal(size=(120, 2)) + 6.0)
        yield srv


def same_model(one, other) -> bool:
    return np.array_equal(one.centroids, other.centroids) and np.array_equal(
        one.weights, other.weights
    )


def registry_truncated_to(state, cell, version, run_dir) -> ModelRegistry:
    """A fresh registry over the first ``version`` partitions of ``cell``."""
    with JournalWriter(run_dir / "journal.rjl", fsync=False) as writer:
        for index in range(version):
            writer.append_partition(state.partitions[cell][index])
    return make_registry(run_dir)


class TestReadsDoNotWaitForIngest:
    def test_reads_complete_while_an_ingest_is_mid_flight(
        self, server, rng, monkeypatch
    ):
        """Cell A's ingest is parked inside its partial k-means: reads of
        B *and of A* are answered meanwhile, from the pre-ingest version;
        once the receipt resolves, a read sees the new one."""
        started, release = threading.Event(), threading.Event()
        real = registry_module.partial_kmeans

        def parked_partial(*args, **kwargs):
            started.set()
            assert release.wait(timeout=WAIT)
            return real(*args, **kwargs)

        monkeypatch.setattr(registry_module, "partial_kmeans", parked_partial)
        receipt = server.submit("ingest", "a", points=rng.normal(size=(60, 2)))
        try:
            assert started.wait(timeout=WAIT)
            queries = rng.normal(size=(5, 2))
            assert server.submit("assign", "b", points=queries).result(WAIT)
            during = server.submit("assign", "a", points=queries).result(WAIT)
            assert during.model_version == 1
            assert server.submit("summary", "a").result(WAIT).partitions == 1
            assert server.submit("window", "a", last_n=1).result(WAIT).upto == 1
            assert not receipt.done()
        finally:
            release.set()
        assert receipt.result(WAIT).model_version == 2
        # Read-your-writes: submitted after the receipt resolved.
        assert server.assign("a", queries).model_version == 2

    def test_inline_mode_runs_ingest_on_the_dispatcher(self, tmp_path, rng):
        """``query_workers=0``: one thread, one queue, ingest included."""
        threads: list[str] = []
        registry = make_registry(tmp_path / "inline")
        real = registry.ingest

        def spy(cell, points):
            threads.append(threading.current_thread().name)
            return real(cell, points)

        registry.ingest = spy
        with ClusterServer(registry, query_workers=0) as srv:
            srv.ingest("a", rng.normal(size=(60, 2)))
            assert srv.summary("a").partitions == 1
            assert [thread.name for thread in srv._threads] == ["serve-dispatch"]
        assert threads == ["serve-dispatch"]


class TestBatchingUnderBackpressure:
    def test_requests_pool_only_while_every_worker_is_busy(
        self, server, rng, monkeypatch
    ):
        """Both query workers are parked mid-request: six assigns for one
        cell submitted meanwhile come out as ONE pooled group when a
        worker comes free; the same six on the idle server were six
        groups of one."""
        queries = [rng.normal(size=(4, 2)) for _ in range(6)]
        expected = [server.assign("a", q) for q in queries]
        before = server.metrics.snapshot()
        assert set(before["batch_sizes"]) == {"1"}
        assert before["endpoints"]["assign"]["batches"] == 6

        release = threading.Event()
        parked = threading.Semaphore(0)
        real_run = server._run_group

        def parked_run(op, cell, group):
            if op == "summary":
                parked.release()
                assert release.wait(timeout=WAIT)
            real_run(op, cell, group)

        monkeypatch.setattr(server, "_run_group", parked_run)
        blockers = []
        try:
            for cell in ("a", "b"):
                # One at a time, so that each parks a worker of its own.
                blockers.append(server.submit("summary", cell))
                assert parked.acquire(timeout=WAIT)
            futures = [server.submit("assign", "a", points=q) for q in queries]
            queues = server.metrics.snapshot()["queues"]
            assert queues["in_flight_groups"] == 2
            assert queues["query_depth"] == len(queries)
        finally:
            release.set()
        pooled = [future.result(WAIT) for future in futures]
        for blocker in blockers:
            blocker.result(WAIT)
        after = server.metrics.snapshot()
        assert after["endpoints"]["assign"]["batches"] == 7
        assert after["batch_sizes"]["5-8"] == 1
        for one, many in zip(expected, pooled):
            np.testing.assert_array_equal(one.assignments, many.assignments)
            np.testing.assert_array_equal(one.sq_dists, many.sq_dists)


class TestOrderingUnderConcurrency:
    def test_fold_order_is_arrival_order_and_reopen_is_bit_identical(
        self, tmp_path, rng
    ):
        """Four ingesting clients and two readers on two cells: per cell,
        receipts are contiguous, the journal holds the chunks in the order
        they arrived, every summary a reader saw is the journal prefix of
        its version (no torn publish), and a fresh registry on the journal
        serves the live server's last bits."""
        run_dir = tmp_path / "run"
        cells = ("a", "b")
        per_client = 5
        arrivals: dict[str, list[int]] = {cell: [] for cell in cells}
        receipts: dict[int, object] = {}
        seen: dict[tuple[str, int], object] = {}
        errors: list[BaseException] = []
        writers_done = threading.Event()
        arrival_lock = threading.Lock()

        with ClusterServer(make_registry(run_dir), query_workers=2) as srv:
            for cell in cells:
                srv.ingest(cell, rng.normal(size=(100, 2)))

            def ingest_client(client: int) -> None:
                local = np.random.default_rng(client)
                try:
                    for step in range(per_client):
                        # The chunk's size names it in the journal.
                        size = 30 + client * per_client + step
                        cell = cells[(client + step) % len(cells)]
                        points = local.normal(size=(size, 2))
                        with arrival_lock:
                            arrivals[cell].append(size)
                            future = srv.submit("ingest", cell, points=points)
                        receipts[size] = future.result(WAIT)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            def reader() -> None:
                local = np.random.default_rng(99)
                try:
                    finished = False
                    while not finished:
                        # One more pass after the writers: the final
                        # version is always among those checked.
                        finished = writers_done.is_set()
                        for cell in cells:
                            info = srv.summary(cell)
                            seen[(cell, info.partitions)] = info.model
                            srv.assign(cell, local.normal(size=(3, 2)))
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            writers = [
                threading.Thread(target=ingest_client, args=(client,))
                for client in range(4)
            ]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            writers_done.set()
            for thread in readers:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in writers + readers)
            assert not errors
            live = {cell: srv.summary(cell) for cell in cells}

        state = read_journal(run_dir / "journal.rjl")
        for cell in cells:
            # Receipts: arrival order is partition order, no gaps.
            assert [receipts[size].partition for size in arrivals[cell]] == list(
                range(1, len(arrivals[cell]) + 1)
            )
            journaled = state.partitions[cell]
            assert sorted(journaled) == list(range(len(arrivals[cell]) + 1))
            assert [
                int(round(journaled[index].summary.weights.sum()))
                for index in range(1, len(journaled))
            ] == arrivals[cell]
        with make_registry(run_dir) as reopened:
            for cell in cells:
                again = reopened.summary(cell)
                assert again.partitions == live[cell].partitions
                assert same_model(again.model, live[cell].model)
        assert all((cell, live[cell].partitions) in seen for cell in cells)
        for (cell, version), model in seen.items():
            prefix_dir = tmp_path / f"prefix_{cell}_{version}"
            prefix_dir.mkdir()
            with registry_truncated_to(state, cell, version, prefix_dir) as prefix:
                assert same_model(prefix.summary(cell).model, model), (
                    cell,
                    version,
                )

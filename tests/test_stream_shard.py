"""Chaos tests for the shard-per-cell coordinator/worker runtime.

The acceptance bar: with a seeded :class:`FaultPlan` that SIGKILLs one
of >= 3 workers mid-stream, the run completes and the final per-cell
models are **bit-identical** to a fault-free shard run — same centroids,
same weights, down to the last float bit.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.pipeline import split_into_chunks
from repro.core.recipe import Recipe
from repro.stream.faults import FaultPlan, FaultSpec
from repro.stream.items import DataChunk
from repro.stream.kmeans_ops import (
    PartialKMeansOperator,
    chunk_rng,
    merge_cell,
    run_partial_merge_stream,
)
from repro.stream.metrics import RecoveryEvent, ShardWorkerStats
from repro.stream.query import Query, QueryError
from repro.stream.shard import (
    _CHUNK_RNG_SENTINEL,
    SHARD_METHOD,
    CellTask,
    ShardConfig,
    ShardCoordinator,
    cell_journal_path,
    run_sharded,
)
from repro.stream.supervision import RetryPolicy
from repro.stream.tracing import metrics_to_dict
from tests.conftest import make_blobs


def small_cells(n_cells=6, n_points=200, dim=2):
    centers = np.array([[0.0] * dim, [8.0] * dim, [-8.0] * dim])
    return {
        f"lat{i}lon0": make_blobs(n_points // 3, centers, scale=0.5, seed=100 + i)
        + i * 50.0
        for i in range(n_cells)
    }


def heavy_cells(n_cells=4, per_blob=2_000):
    """Cells big enough that a worker is mid-cell for a few hundred ms."""
    centers = np.array([[0.0] * 8, [9.0] * 8])
    return {
        f"lat{i}lon0": make_blobs(per_blob, centers, scale=0.8, seed=200 + i)
        for i in range(n_cells)
    }  # 2 * per_blob points of 8 dimensions per cell


def in_process_models(cells, k, n_chunks, seed, restarts=1, seeding="kmeans||"):
    """Every cell recomputed in-process from the pieces shard workers run.

    Chunk RNG, then the plan engine's partial operator per chunk, then the
    shared merge — no worker, journal or coordinator involved.
    """
    partial = PartialKMeansOperator(
        k=k,
        restarts=restarts,
        seeding=seeding,
        seed_sequence=np.random.SeedSequence(seed),
    )
    models = {}
    for cell_id, points in cells.items():
        chunk_stream = chunk_rng(
            partial.seed_sequence, cell_id, _CHUNK_RNG_SENTINEL
        )
        chunks = split_into_chunks(points, n_chunks, chunk_stream)
        messages = [
            message
            for index, chunk in enumerate(chunks)
            for message in partial.process(
                DataChunk(cell_id, index, chunk, len(chunks))
            )
        ]
        models[cell_id], _ = merge_cell(
            messages,
            k,
            expected=len(chunks),
            evaluate_on=points,
            method=SHARD_METHOD,
        )
    return models


def fast_config(n_workers=3, **overrides):
    defaults = dict(
        n_workers=n_workers,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.5,
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


def assert_models_bit_identical(expected, actual):
    assert sorted(expected) == sorted(actual)
    for cell_id, model in expected.items():
        other = actual[cell_id]
        assert model.centroids.tobytes() == other.centroids.tobytes(), cell_id
        assert model.weights.tobytes() == other.weights.tobytes(), cell_id
        assert model.mse == other.mse, cell_id


@pytest.fixture(scope="module")
def cells():
    return small_cells()


@pytest.fixture(scope="module")
def baseline(cells):
    """Fault-free shard run the chaos runs must match bit for bit."""
    models, metrics = run_sharded(
        cells, k=4, n_chunks=4, seed=42, config=fast_config(3)
    )
    return models, metrics


class TestFaultFree:
    def test_all_cells_clustered(self, cells, baseline):
        models, metrics = baseline
        assert sorted(models) == sorted(cells)
        for model in models.values():
            assert model.method == SHARD_METHOD
            assert model.k == 4
            assert not model.extra.get("incomplete")
        assert metrics.backend == "shards"
        assert len(metrics.shards) == 3
        assert not metrics.recoveries

    def test_kernel_name_alone_selects_the_tier(self, cells, baseline):
        """elkan keeps the bits."""
        models, _ = baseline
        elkan, _ = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=fast_config(2),
            kernel="elkan",
        )
        assert_models_bit_identical(models, elkan)

    @pytest.mark.parametrize("kernel", ["blas", "bogus"])
    def test_bad_kernel_name_fails_before_any_worker_starts(
        self, cells, kernel, monkeypatch
    ):
        """Not an empty model flagged incomplete: a ValueError, up front."""
        started = []
        monkeypatch.setattr(
            ShardCoordinator, "_spawn_worker",
            lambda self, *args, **kwargs: started.append(args),
        )
        with pytest.raises(
            ValueError,
            match=f"unknown k-means kernel '{kernel}'; "
            "expected one of dense, elkan",
        ):
            run_sharded(cells, k=3, config=fast_config(1), kernel=kernel)
        assert not started

    def test_worker_count_does_not_change_bits(self, cells, baseline):
        models, _ = baseline
        for n_workers in (1, 2):
            again, _ = run_sharded(
                cells, k=4, n_chunks=4, seed=42, config=fast_config(n_workers)
            )
            assert_models_bit_identical(models, again)

    def test_same_seed_same_bits_different_seed_different(self, cells):
        config = fast_config(2)
        a, _ = run_sharded(cells, k=4, n_chunks=4, seed=9, config=config)
        b, _ = run_sharded(cells, k=4, n_chunks=4, seed=9, config=config)
        c, _ = run_sharded(cells, k=4, n_chunks=4, seed=10, config=config)
        assert_models_bit_identical(a, b)
        assert any(
            a[cid].centroids.tobytes() != c[cid].centroids.tobytes() for cid in a
        )

    def test_empty_cell_yields_empty_model(self):
        cells = {
            "lat0lon0": make_blobs(60, np.array([[0.0, 0.0]]), seed=1),
            "lat1lon0": np.zeros((0, 2)),
        }
        models, _ = run_sharded(
            cells, k=3, n_chunks=2, seed=0, config=fast_config(2)
        )
        assert models["lat1lon0"].extra.get("empty_cell")
        assert models["lat1lon0"].weights.sum() == 0.0

    def test_mse_matches_plan_engine_quality(self, cells, baseline):
        """Shard models are real clusterings, not comparable bits only."""
        models, _ = baseline
        plan_models, _ = run_partial_merge_stream(
            cells, k=4, restarts=1, n_chunks=4, seed=42
        )
        for cell_id in models:
            # Different chunk RNG streams, but the same algorithm on the
            # same data: quality must land in the same ballpark.
            assert models[cell_id].mse < plan_models[cell_id].mse * 3 + 1e-9


class TestKillChaos:
    def test_sigkill_mid_stream_is_bit_identical(self, cells, baseline):
        """The ISSUE acceptance test: kill 1 of 3 workers mid-stream."""
        models, _ = baseline
        plan = FaultPlan(
            seed=7, specs=[FaultSpec(target="worker#1", kind="kill", at_index=2)]
        )
        chaos, metrics = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=fast_config(3), fault_plan=plan
        )
        assert_models_bit_identical(models, chaos)
        assert not any(m.extra.get("incomplete") for m in chaos.values())
        assert len(metrics.recoveries) == 1
        event = metrics.recoveries[0]
        assert event.worker_name == "worker#1"
        assert event.reason == "dead-pid"
        assert event.cells_reassigned >= 1
        assert event.recovery_seconds >= 0.0
        lost = [s for s in metrics.shards if s.name == "worker#1"]
        assert lost and lost[0].lost_reason == "dead-pid"

    def test_journal_replay_adopts_completed_partitions(self, cells, baseline):
        """A kill after some partitions completes means replays, not redos."""
        models, _ = baseline
        plan = FaultPlan(
            seed=7, specs=[FaultSpec(target="worker#0", kind="kill", at_index=3)]
        )
        chaos, metrics = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=fast_config(3), fault_plan=plan
        )
        assert_models_bit_identical(models, chaos)
        replayed = sum(s.partitions_replayed for s in metrics.shards)
        assert replayed >= 1
        assert metrics.total_replayed_records >= 1

    def test_kill_with_single_worker_respawns(self, cells, baseline):
        models, _ = baseline
        plan = FaultPlan(
            seed=3, specs=[FaultSpec(target="worker#0", kind="kill", at_index=5)]
        )
        chaos, metrics = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=fast_config(1), fault_plan=plan
        )
        assert_models_bit_identical(models, chaos)
        assert len(metrics.shards) == 2  # the original and its replacement
        assert metrics.shards[1].respawns == 1

    def test_respawn_off_raises(self, cells):
        from repro.stream.errors import ShardError

        plan = FaultPlan(
            seed=3, specs=[FaultSpec(target="worker#0", kind="kill", at_index=0)]
        )
        with pytest.raises(ShardError, match="worker#0"):
            run_sharded(
                cells,
                k=4,
                n_chunks=4,
                seed=42,
                config=fast_config(1, respawn=False),
                fault_plan=plan,
            )


class TestHeartbeatChaos:
    def test_heartbeat_drop_recovers_bit_identical(self):
        """A silent-but-alive worker is fenced and its cells reassigned."""
        cells = heavy_cells()
        config = fast_config(2, heartbeat_interval=0.03, heartbeat_timeout=0.15)
        models, _ = run_sharded(
            cells, k=8, n_chunks=6, restarts=2, seed=1, config=config
        )
        plan = FaultPlan(
            seed=3,
            specs=[
                FaultSpec(target="worker#0", kind="heartbeat-drop", at_index=0)
            ],
        )
        chaos, metrics = run_sharded(
            cells,
            k=8,
            n_chunks=6,
            restarts=2,
            seed=1,
            config=config,
            fault_plan=plan,
        )
        assert_models_bit_identical(models, chaos)
        assert any(
            event.reason == "missed-heartbeats" for event in metrics.recoveries
        )

    def test_worker_that_stops_reading_cannot_wedge_the_coordinator(self):
        """A silent worker parks without reading its connection.

        Each task (6 000 x 8 float64 points, 384 kB) exceeds the socket
        buffer and each worker owns two cells: a coordinator that sent
        worker#0's second assignment while worker#0 is parked would block
        in ``send`` forever, never reaching the heartbeat check.
        """
        cells = heavy_cells(per_blob=3_000)
        config = fast_config(2, heartbeat_interval=0.03, heartbeat_timeout=0.15)
        run = dict(k=8, n_chunks=6, restarts=2, seed=1, config=config)
        expected, _ = run_sharded(cells, **run)
        plan = FaultPlan(
            seed=3,
            specs=[
                FaultSpec(target="worker#0", kind="heartbeat-drop", at_index=0)
            ],
        )
        outcome = {}

        def chaos_run():
            try:
                outcome["result"] = run_sharded(cells, fault_plan=plan, **run)
            except BaseException as exc:  # re-raised on the test thread
                outcome["error"] = exc

        thread = threading.Thread(target=chaos_run, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "coordinator wedged in send()"
        if "error" in outcome:
            raise outcome["error"]
        chaos, metrics = outcome["result"]
        assert_models_bit_identical(expected, chaos)
        assert [e.reason for e in metrics.recoveries] == ["missed-heartbeats"]


class TestMatchesInProcessPipeline:
    """Each shard cell model = the shared pieces run in-process."""

    def assert_cells_match(self, cells, models):
        oracle = in_process_models(cells, k=4, n_chunks=4, seed=42)
        assert_models_bit_identical(oracle, models)
        for cell_id, model in models.items():
            assert model.partitions == oracle[cell_id].partitions
            assert model.extra == oracle[cell_id].extra

    def test_fault_free(self, cells, baseline):
        models, _ = baseline
        self.assert_cells_match(cells, models)

    def test_under_kill(self, cells):
        plan = FaultPlan(
            seed=7, specs=[FaultSpec(target="worker#1", kind="kill", at_index=2)]
        )
        models, metrics = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=fast_config(3), fault_plan=plan
        )
        assert [e.reason for e in metrics.recoveries] == ["dead-pid"]
        self.assert_cells_match(cells, models)


class TestDegradeTier:
    def test_exhausted_reassignment_budget_degrades(self, cells):
        # One worker, killed at its very first partition, with a budget of
        # one attempt per cell and no second chance: every cell the dead
        # worker owned is salvaged from (empty) journals and marked.
        plan = FaultPlan(
            seed=3, specs=[FaultSpec(target="worker#0", kind="kill", at_index=0)]
        )
        config = fast_config(
            1, reassign_policy=RetryPolicy(max_retries=0), respawn=True
        )
        models, metrics = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=config, fault_plan=plan
        )
        assert sorted(models) == sorted(cells)
        incomplete = [c for c, m in models.items() if m.extra.get("incomplete")]
        assert incomplete
        assert sorted(metrics.incomplete_cells) == sorted(incomplete)
        for cell_id in incomplete:
            extra = models[cell_id].extra
            assert extra["expected_partitions"] == 4
            assert extra["missing_partitions"] == list(range(4))
        event = metrics.recoveries[0]
        assert event.cells_degraded == len(incomplete)

    def test_degrade_salvages_journaled_partitions(self, cells, baseline):
        # Killed mid-cell with no reassignment budget: the finished
        # partitions of the in-flight cell survive into the degraded model.
        models, _ = baseline
        plan = FaultPlan(
            seed=3, specs=[FaultSpec(target="worker#0", kind="kill", at_index=2)]
        )
        config = fast_config(
            1, reassign_policy=RetryPolicy(max_retries=0), respawn=True
        )
        degraded, metrics = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=config, fault_plan=plan
        )
        assert sorted(degraded) == sorted(cells)
        partial = [
            c
            for c, m in degraded.items()
            if m.extra.get("incomplete") and m.partitions > 0
        ]
        assert partial, "expected at least one partially salvaged cell"
        for cell_id in partial:
            extra = degraded[cell_id].extra
            assert 0 < len(extra["missing_partitions"]) < 4
            assert degraded[cell_id].partitions == 4 - len(
                extra["missing_partitions"]
            )


class TestTcpTransport:
    def test_tcp_matches_pipe_bits(self, cells, baseline):
        models, _ = baseline
        tcp, metrics = run_sharded(
            cells,
            k=4,
            n_chunks=4,
            seed=42,
            config=fast_config(2, transport="tcp"),
        )
        assert_models_bit_identical(models, tcp)
        assert all(s.pid > 0 for s in metrics.shards)

    def test_kill_chaos_over_tcp(self, cells, baseline):
        models, _ = baseline
        plan = FaultPlan(
            seed=7, specs=[FaultSpec(target="worker#1", kind="kill", at_index=2)]
        )
        chaos, metrics = run_sharded(
            cells,
            k=4,
            n_chunks=4,
            seed=42,
            config=fast_config(3, transport="tcp"),
            fault_plan=plan,
        )
        assert_models_bit_identical(models, chaos)
        assert metrics.recoveries


class TestMetricsAndTracing:
    def test_shard_stats_exported(self, baseline):
        _, metrics = baseline
        payload = metrics_to_dict(metrics)
        assert len(payload["shards"]) == 3
        for entry in payload["shards"]:
            assert set(entry) >= {
                "name",
                "pid",
                "cells_owned",
                "cells_completed",
                "partitions_computed",
                "heartbeats",
            }
        assert payload["resilience"]["total_reassignments"] == 0
        assert payload["resilience"]["total_replayed_records"] == 0

    def test_recovery_events_exported(self, cells):
        plan = FaultPlan(
            seed=7, specs=[FaultSpec(target="worker#1", kind="kill", at_index=2)]
        )
        _, metrics = run_sharded(
            cells, k=4, n_chunks=4, seed=42, config=fast_config(3), fault_plan=plan
        )
        payload = metrics_to_dict(metrics)
        assert payload["recoveries"]
        event = payload["recoveries"][0]
        assert set(event) == {
            "worker_name",
            "reason",
            "cells_reassigned",
            "cells_degraded",
            "replayed_records",
            "recovery_seconds",
        }
        assert payload["resilience"]["total_reassignments"] >= 1
        lines = "\n".join(metrics.summary_lines())
        assert "shard worker#1" in lines
        assert "recovery: worker#1" in lines


class TestWiring:
    def test_backend_shards_routes_run_partial_merge_stream(self, cells):
        models, outcome = run_partial_merge_stream(
            cells, k=4, restarts=1, n_chunks=4, seed=42, backend="shards", workers=2
        )
        assert outcome.metrics.backend == "shards"
        assert sorted(models) == sorted(cells)
        assert all(m.method == SHARD_METHOD for m in models.values())

    def test_env_var_routes_to_shards(self, cells, monkeypatch):
        from repro.stream.mp import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "shards")
        _, outcome = run_partial_merge_stream(
            cells, k=4, restarts=1, n_chunks=4, seed=42, workers=2
        )
        assert outcome.metrics.backend == "shards"

    def test_query_with_shards(self, cells, baseline):
        result = (
            Query.scan_cells(cells)
            .partition(4)
            .cluster(k=4, restarts=1)
            .merge()
            .with_seed(42)
            .with_shards(2)
            .execute()
        )
        assert result.execution.metrics.backend == "shards"
        # Query's shard route passes its own defaults (restarts from
        # cluster()), which match run_sharded(seeding="random").
        direct, _ = run_sharded(
            cells,
            k=4,
            restarts=1,
            seeding="random",
            n_chunks=4,
            seed=42,
            config=fast_config(2),
        )
        assert_models_bit_identical(direct, result.models)

    def test_query_with_shards_chaos(self, cells):
        plan = FaultPlan(
            seed=7, specs=[FaultSpec(target="worker#1", kind="kill", at_index=2)]
        )
        query = (
            Query.scan_cells(cells)
            .partition(4)
            .cluster(k=4, restarts=1)
            .merge()
            .with_seed(42)
        )
        fault_free = query.with_shards(3).execute()
        chaos = (
            Query.scan_cells(cells)
            .partition(4)
            .cluster(k=4, restarts=1)
            .merge()
            .with_seed(42)
            .with_shards(3)
            .execute(fault_plan=plan)
        )
        assert_models_bit_identical(fault_free.models, chaos.models)
        assert chaos.execution.metrics.recoveries

    def test_query_shards_from_buckets(self, tmp_path):
        from repro.data.generator import generate_cell_points
        from repro.data.gridcell import GridCell, GridCellId
        from repro.data.gridio import write_bucket_dir

        grid = [
            GridCell(GridCellId(10, 20), generate_cell_points(200, seed=1)),
            GridCell(GridCellId(11, 20), generate_cell_points(150, seed=2)),
        ]
        write_bucket_dir(tmp_path / "buckets", grid)
        result = (
            Query.scan_buckets(str(tmp_path / "buckets"))
            .partition(3)
            .cluster(k=3, restarts=1)
            .merge()
            .with_seed(5)
            .with_shards(2)
            .execute()
        )
        assert sorted(result.models) == ["lat10lon20", "lat11lon20"]

    def test_with_shards_conflicts_with_backend(self, cells):
        query = Query.scan_cells(cells).partition(4).cluster(k=4)
        with pytest.raises(QueryError, match="conflicts"):
            query.with_backend("processes").with_shards(2)
        with pytest.raises(QueryError, match="with_shards"):
            Query.scan_cells(cells).with_backend("shards")

    def test_with_shards_rejects_checkpoint_and_prefix_queries(self, cells):
        base = (
            Query.scan_cells(cells).partition(4).cluster(k=4).with_shards(2)
        )
        with pytest.raises(QueryError, match="checkpoint"):
            base.checkpoint("/tmp/nope").execute()
        query = (
            Query.scan_cells(cells)
            .partition(4)
            .cluster(k=4)
            .with_shards(2)
            .with_prefix_queries(every=1)
        )
        with pytest.raises(QueryError, match="prefix"):
            query.execute()

    def test_executor_and_planner_reject_shards(self, cells):
        from repro.stream.graph import DataflowGraph
        from repro.stream.kmeans_ops import build_partial_merge_graph
        from repro.stream.planner import Planner

        graph = build_partial_merge_graph(
            cells, k=4, recipe=Recipe(restarts=1), n_chunks=4
        )
        with pytest.raises(ValueError, match="not plan-based"):
            Planner().plan(graph, backend="shards")


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            ShardConfig(n_workers=0)
        with pytest.raises(ValueError, match="transport"):
            ShardConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ShardConfig(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ShardConfig(heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ValueError, match="stall_timeout"):
            ShardConfig(stall_timeout=-1.0)

    def test_with_shards_validates_count(self, ):
        cells = small_cells(2)
        with pytest.raises(QueryError, match="shards"):
            Query.scan_cells(cells).with_shards(0)

    def test_journal_paths_are_distinct_and_safe(self, tmp_path):
        a = cell_journal_path(tmp_path, "lat1lon2", 0)
        b = cell_journal_path(tmp_path, "lat1lon2", 1)
        c = cell_journal_path(tmp_path, "lat1/lon2", 0)
        assert a != b
        assert a.parent == b.parent
        assert c.name != a.name
        assert "/" not in c.name

    def test_cell_task_is_picklable(self, tmp_path):
        import pickle

        partial = PartialKMeansOperator(
            k=2,
            restarts=1,
            max_iter=10,
            seed_sequence=np.random.SeedSequence(7),
        ).to_spec()
        task = CellTask(
            cell_id="lat0lon0",
            epoch=0,
            points=np.zeros((4, 2)),
            n_chunks=2,
            merge_k=2,
            partial=partial,
            journal_path=str(tmp_path / "x.rjl"),
            prior_journals=(),
            fsync=False,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.cell_id == task.cell_id
        assert clone.points.tobytes() == task.points.tobytes()
        assert clone.partial == partial
        assert clone.partial.build().seed_sequence.entropy == 7

    def test_metric_dataclasses(self):
        stats = ShardWorkerStats(name="w")
        assert stats.pid == 0 and stats.heartbeats == 0
        event = RecoveryEvent(
            worker_name="w",
            reason="dead-pid",
            cells_reassigned=1,
            cells_degraded=0,
            replayed_records=2,
            recovery_seconds=0.5,
        )
        assert event.replayed_records == 2

"""Tests for the process-parallel execution backend (repro.stream.mp)."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.stream.errors import WorkerCrashed
from repro.stream.items import DataChunk
from repro.stream.kmeans_ops import (
    PartialKMeansOperator,
    PartialKMeansSpec,
    run_partial_merge_stream,
)
from repro.stream.mp import (
    BACKEND_ENV_VAR,
    PROCESSES,
    THREADS,
    resolve_backend,
    start_worker,
    supports_process_backend,
    validate_backend,
)
from repro.stream.operators import FunctionTransform
from repro.stream.query import Query
from repro.stream.supervision import SupervisionPolicy
from tests.conftest import child_pids, make_blobs


@pytest.fixture
def cells():
    centers = np.array([[0.0, 0.0], [6.0, 6.0]])
    return {
        "west": make_blobs(80, centers, scale=0.5, seed=11),
        "east": make_blobs(60, centers, scale=0.5, seed=12),
    }


def run_task(worker, item):
    """One task through ``worker``: post it, then collect its reply."""
    worker.post(item)
    return worker.collect()


class _ExplodingSpec:
    """Module-level (picklable) spec whose operator always raises."""

    def build(self):
        def explode(item):
            raise RuntimeError("boom from the worker")

        return FunctionTransform("exploder", explode)


class _EchoSpec:
    """Spec whose operator sends every item straight back."""

    def build(self):
        return FunctionTransform("echo", lambda item: [item])


class _BadBuildSpec:
    """Spec whose build() itself raises inside the worker."""

    def build(self):
        raise ValueError("cannot build this operator")


class TestBackendResolution:
    def test_validate_accepts_known_backends(self):
        assert validate_backend(THREADS) == "threads"
        assert validate_backend(PROCESSES) == "processes"

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            validate_backend("gpu")

    def test_first_candidate_wins(self):
        assert resolve_backend(None, PROCESSES, THREADS) == PROCESSES

    def test_defaults_to_threads(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None, None) == THREADS

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, PROCESSES)
        assert resolve_backend(None) == PROCESSES
        assert resolve_backend(THREADS) == THREADS  # explicit wins

    def test_unknown_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(ValueError) as excinfo:
            resolve_backend(None)
        # The message must say where the bad value came from and what
        # would have been accepted.
        assert BACKEND_ENV_VAR in str(excinfo.value)
        assert "gpu" in str(excinfo.value)
        for valid in (THREADS, PROCESSES):
            assert valid in str(excinfo.value)

    def test_environment_value_whitespace_stripped(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, f"  {PROCESSES}\n")
        assert resolve_backend(None) == PROCESSES

    def test_blank_environment_value_falls_back(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "   ")
        assert resolve_backend(None) == THREADS


class TestOperatorSpec:
    def test_partial_operator_supports_backend(self):
        operator = PartialKMeansOperator(
            k=3, restarts=1, seed_sequence=np.random.SeedSequence(5)
        )
        assert supports_process_backend(operator)
        assert not supports_process_backend(
            FunctionTransform("f", lambda item: [item])
        )

    def test_spec_pickle_roundtrip_rebuilds_identical_rng(self, cells):
        operator = PartialKMeansOperator(
            k=3, restarts=2, seed_sequence=np.random.SeedSequence(42)
        )
        spec = pickle.loads(pickle.dumps(operator.to_spec()))
        assert isinstance(spec, PartialKMeansSpec)
        rebuilt = spec.build()
        chunk = DataChunk(
            cell_id="west", partition=1, points=cells["west"], n_partitions=2
        )
        (a,) = list(operator.process(chunk))
        (b,) = list(rebuilt.process(chunk))
        assert a.summary.centroids.tobytes() == b.summary.centroids.tobytes()
        assert a.summary.weights.tobytes() == b.summary.weights.tobytes()

    def test_clone_shares_spec(self):
        operator = PartialKMeansOperator(
            k=3, restarts=1, seed_sequence=np.random.SeedSequence(9)
        )
        assert operator.clone().to_spec() == operator.to_spec()


class TestPipeTransfer:
    def test_chunk_roundtrip_is_lossless(self, cells):
        chunk = DataChunk(
            cell_id="west", partition=0, points=cells["west"], n_partitions=4
        )
        worker = start_worker(_EchoSpec(), name="echo#0")
        try:
            (rebuilt,) = run_task(worker, chunk)
        finally:
            worker.shutdown()
        assert rebuilt.cell_id == chunk.cell_id
        assert rebuilt.partition == chunk.partition
        assert rebuilt.n_partitions == chunk.n_partitions
        assert rebuilt.points.dtype == chunk.points.dtype
        assert rebuilt.points.shape == chunk.points.shape
        assert rebuilt.points.tobytes() == chunk.points.tobytes()
        # The point bytes shipped over the pipe are accounted.
        assert worker.stats.bytes_shipped == chunk.points.nbytes


class TestWorkerLifecycle:
    def test_worker_matches_in_process_result(self, cells):
        operator = PartialKMeansOperator(
            k=3, restarts=2, seed_sequence=np.random.SeedSequence(7)
        )
        worker = start_worker(operator.to_spec(), name="partial#0")
        try:
            assert worker.stats.pid != os.getpid()
            chunk = DataChunk(
                cell_id="east", partition=0, points=cells["east"], n_partitions=1
            )
            (remote,) = run_task(worker, chunk)
            (local,) = list(operator.process(chunk))
            assert (
                remote.summary.centroids.tobytes()
                == local.summary.centroids.tobytes()
            )
            assert worker.stats.items == 1
            assert worker.stats.bytes_shipped == cells["east"].nbytes
            assert worker.stats.busy_seconds > 0
        finally:
            worker.shutdown()

    def test_worker_error_rebuilt_in_parent(self, cells):
        worker = start_worker(_ExplodingSpec(), name="exploder#0")
        try:
            chunk = DataChunk(cell_id="c", partition=0, points=cells["west"])
            with pytest.raises(RuntimeError, match="boom from the worker"):
                run_task(worker, chunk)
            # The worker survives an operator error and keeps serving.
            with pytest.raises(RuntimeError, match="boom from the worker"):
                run_task(worker, chunk)
        finally:
            worker.shutdown()

    def test_build_failure_surfaces_at_startup(self):
        with pytest.raises(ValueError, match="cannot build this operator"):
            start_worker(_BadBuildSpec(), name="bad#0")

    def test_spawn_context(self, cells):
        operator = PartialKMeansOperator(
            k=2, restarts=1, seed_sequence=np.random.SeedSequence(3)
        )
        worker = start_worker(
            operator.to_spec(), name="partial#0", mp_context="spawn"
        )
        try:
            chunk = DataChunk(cell_id="w", partition=0, points=cells["west"])
            (remote,) = run_task(worker, chunk)
            (local,) = list(operator.process(chunk))
            assert (
                remote.summary.centroids.tobytes()
                == local.summary.centroids.tobytes()
            )
        finally:
            worker.shutdown()


class TestProcessBackendExecution:
    def test_end_to_end_with_metrics(self, cells):
        models, outcome = run_partial_merge_stream(
            cells,
            k=3,
            restarts=2,
            n_chunks=2,
            seed=5,
            backend="processes",
            workers=2,
        )
        assert set(models) == set(cells)
        metrics = outcome.metrics
        assert metrics.backend == "processes"
        assert len(metrics.pool) == 2
        assert metrics.pool_skipped is None
        assert metrics.bytes_shipped > 0
        assert metrics.worker_busy_seconds > 0
        assert all(w.pid != os.getpid() for w in metrics.pool)
        # 2 cells x 2 partitions, each small enough to go whole.
        assert sum(w.partitions for w in metrics.pool) == 4
        assert any("backend: processes" in line for line in metrics.summary_lines())

    def test_no_child_process_outlives_execute(self, cells):
        before = set(child_pids())
        result = (
            Query.scan_cells(cells)
            .partition(2)
            .cluster(k=3, restarts=2)
            .with_seed(5)
            .with_backend("processes", workers=2)
            .execute()
        )
        assert set(result.models) == set(cells)
        assert len(result.execution.metrics.pool) == 2
        # Neither a worker nor a multiprocessing helper process (such as
        # the resource tracker shared memory used to start) is left.
        assert set(child_pids()) - before == set()

    def test_thread_backend_reports_no_workers(self, cells, monkeypatch):
        # On one usable CPU the thread backend forks no pool, and says why.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        __, outcome = run_partial_merge_stream(
            cells, k=3, restarts=1, n_chunks=2, seed=5, backend="threads"
        )
        assert outcome.metrics.backend == "threads"
        assert outcome.metrics.pool == []
        assert outcome.metrics.pool_skipped == "one usable CPU"
        assert "  pool: none (one usable CPU)" in outcome.metrics.summary_lines()

    def test_workers_argument_validated(self, cells):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_partial_merge_stream(cells, k=3, workers=0)

    def test_specless_transform_stays_in_thread(self):
        from repro.stream.executor import Executor
        from repro.stream.graph import DataflowGraph
        from repro.stream.operators import Sink, Source
        from repro.stream.planner import Planner

        class _Numbers(Source):
            def generate(self):
                yield from range(5)

        class _Collect(Sink):
            def __init__(self):
                super().__init__("collect")
                self.seen = []

            def consume(self, item):
                self.seen.append(item)

            def result(self):
                return sorted(self.seen)

        graph = DataflowGraph()
        graph.add(_Numbers("numbers"))
        graph.add(FunctionTransform("double", lambda item: [item * 2]))
        graph.add(_Collect())
        graph.connect("numbers", "double")
        graph.connect("double", "collect")
        plan = Planner().plan(graph, backend="processes")
        outcome = Executor().run(plan)
        assert outcome.value == [0, 2, 4, 6, 8]
        # FunctionTransform has no spec: no pool was started.
        assert outcome.metrics.backend == "processes"
        assert outcome.metrics.pool == []
        assert outcome.metrics.pool_skipped == "no partial operator"

    def test_restart_policy_keeps_operator_in_process(self, cells, monkeypatch):
        """A restart-supervised partial keeps its instance (and snapshot)
        in this process and sends one partition at a time to the pool;
        an injected crash is recovered with the same bits."""
        from repro.stream.faults import FaultPlan, FaultSpec

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone, __ = run_partial_merge_stream(
                cells, k=3, restarts=1, n_chunks=2, seed=5, backend="threads"
            )
        models, outcome = run_partial_merge_stream(
            cells,
            k=3,
            restarts=1,
            n_chunks=2,
            seed=5,
            backend="processes",
            workers=2,
            supervision={"partial": SupervisionPolicy.restart(1)},
            fault_plan=FaultPlan([FaultSpec("partial", "crash", at_index=1)]),
        )
        assert outcome.metrics.total_restarts == 1
        assert len(outcome.metrics.pool) == 2
        for key, model in models.items():
            assert model.centroids.tobytes() == alone[key].centroids.tobytes()

    def test_plan_backend_recorded_in_describe(self, cells):
        from repro.stream.kmeans_ops import build_partial_merge_graph
        from repro.stream.planner import Planner

        graph = build_partial_merge_graph(cells, k=3, n_chunks=2, seed=1)
        plan = Planner().plan(graph, backend="processes")
        assert "backend: processes" in plan.describe()

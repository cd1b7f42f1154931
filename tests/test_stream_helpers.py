"""The partial pool: partitions and restarts on every usable CPU, same bits.

The executor forks one pool of worker processes before its operator
threads start (:mod:`repro.stream.helpers`).  A small partition goes
whole to a worker, with several in flight; a large one with ``R >= 2``
deals its restarts ``1 … R-1`` over the workers.  Every test here holds
whether or not the host has a second CPU: where a pool is expected, the
expectation is computed from :func:`usable_cpus`, so under
``taskset -c 0`` the same tests check that none is forked, that the run
says why, and that the bits do not change.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.core.restarts as restarts_module
import repro.stream.helpers as helpers_module
from repro.core.restarts import best_of_restarts
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import write_bucket_dir
from repro.serve.registry import ModelRegistry
from repro.stream.checkpoint import JOURNAL_FILENAME, JournalWriter, read_journal
from repro.stream.errors import ExecutionError
from repro.stream.faults import FaultPlan, FaultSpec
from repro.stream.helpers import PartialPool, usable_cpus
from repro.stream.items import DataChunk
from repro.stream.kmeans_ops import PartialKMeansOperator
from repro.stream.query import Query
from repro.stream.supervision import SupervisionPolicy
from repro.stream.tracing import metrics_to_dict
from tests.conftest import child_pids, make_blobs

RESTARTS = 3


class HelperBoom(RuntimeError):
    """Raised inside a pool worker only (module level: picklable)."""


@pytest.fixture(scope="module")
def pool():
    """Two restart-batch workers forked directly (whatever the CPU count)."""
    helpers = PartialPool.fork(2)
    yield helpers
    helpers.shutdown()


@pytest.fixture
def fan_out_everything(monkeypatch):
    """Spread the restarts of partitions of any size over the pool."""
    monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 0)


@pytest.fixture
def points():
    generator = np.random.default_rng(3)
    centers = generator.normal(scale=6.0, size=(6, 4))
    return make_blobs(60, centers, scale=1.0, seed=5)


@pytest.fixture
def cells():
    centers = np.array([[0.0, 0.0, 0.0], [6.0, 6.0, 0.0], [0.0, 6.0, 6.0]])
    return {
        GridCellId(lat=0, lon=0).key: make_blobs(300, centers, scale=1.5, seed=11),
        GridCellId(lat=1, lon=0).key: make_blobs(250, centers, scale=1.5, seed=12),
    }


@pytest.fixture
def buckets(tmp_path, cells):
    directory = tmp_path / "buckets"
    write_bucket_dir(
        directory,
        [
            GridCell(cell_id=GridCellId.from_key(key), points=pts)
            for key, pts in cells.items()
        ],
    )
    return directory


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture(autouse=True)
def no_stray_threads():
    """The pool forks only from a single-threaded parent: let threads an
    earlier test abandoned (timed-out attempts) finish first."""
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(10.0)
    yield


def expected_pool() -> int:
    """Workers the thread backend's executor forks on this host."""
    cpus = usable_cpus()
    return cpus if cpus >= 2 else 0


def assert_pool(metrics) -> None:
    """The run forked the expected pool, or said why it forked none."""
    assert len(metrics.pool) == expected_pool()
    assert metrics.pool_skipped == (None if expected_pool() else "one usable CPU")


def query(
    buckets, run_dir=None, clones=1, restarts=RESTARTS, seeding="random", resume=False
):
    chain = (
        Query.scan_buckets(str(buckets))
        .partition(2)
        .cluster(k=4, restarts=restarts, max_iter=30, seeding=seeding)
        .with_partial_clones(clones)
        .with_seed(9)
    )
    if run_dir is not None:
        chain = chain.checkpoint(run_dir, resume=resume, fsync=False)
    return chain


def run_alone(chain):
    """``chain`` executed as if on one CPU: the one-thread reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        result = chain.execute()
    assert result.execution.metrics.pool == []
    return result


@pytest.fixture
def journal_order(monkeypatch):
    """``(cell, partition)`` of every journaled partition record, in order."""
    order: list[tuple[str, int]] = []
    real_append = JournalWriter.append_partition

    def append_partition(self, message):
        order.append((message.cell_id, message.partition))
        real_append(self, message)

    monkeypatch.setattr(JournalWriter, "append_partition", append_partition)
    return order


def model_bytes(models) -> dict:
    return {
        key: (
            model.centroids.tobytes(),
            model.weights.tobytes(),
            np.float64(model.mse).tobytes(),
        )
        for key, model in models.items()
    }


def journal_content(run_dir) -> tuple:
    """Every journaled partition and cell, minus the wall-clock fields."""
    state = read_journal(run_dir / JOURNAL_FILENAME)
    partitions = sorted(
        (
            cell,
            index,
            message.summary.centroids.tobytes(),
            message.summary.weights.tobytes(),
            message.partial_iterations,
            message.kernel_counters["distance_evals_computed"],
            message.kernel_counters["distance_evals_skipped"],
        )
        for cell, by_index in state.partitions.items()
        for index, message in by_index.items()
    )
    cells = sorted(
        (
            cell,
            model.centroids.tobytes(),
            model.weights.tobytes(),
            np.float64(model.mse).tobytes(),
            model.extra["merge_iterations"],
        )
        for cell, model in state.cells.items()
    )
    return partitions, cells, state.complete


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive (an exited, unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def assert_no_leftovers(before_pids):
    assert set(child_pids()) - set(before_pids) == set()
    assert threading.active_count() == 1


def kill_first_helper_task(monkeypatch, tmp_path):
    """Make the first worker to start a Lloyd run SIGKILL itself mid-task."""
    parent = os.getpid()
    marker = tmp_path / "killed"
    real_lloyd = restarts_module.lloyd

    def lloyd(*args, **kwargs):
        if os.getpid() != parent:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return real_lloyd(*args, **kwargs)

    monkeypatch.setattr(restarts_module, "lloyd", lloyd)
    return marker


def raise_in_helpers(monkeypatch):
    """Make every Lloyd run inside a worker raise :class:`HelperBoom`."""
    parent = os.getpid()
    real_lloyd = restarts_module.lloyd

    def lloyd(*args, **kwargs):
        if os.getpid() != parent:
            raise HelperBoom("raised inside a pool worker")
        return real_lloyd(*args, **kwargs)

    monkeypatch.setattr(restarts_module, "lloyd", lloyd)


class TestRunnerBitIdentity:
    """The pool's restart runner returns the in-process runner's bits."""

    @pytest.mark.parametrize("restarts", [1, 2, 3, 5])
    @pytest.mark.parametrize("kernel", ["dense", "elkan"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seeding", ["random", "kmeans++", "kmeans||"])
    def test_same_bits_as_in_process(
        self, pool, fan_out_everything, points, seeding, weighted, kernel, restarts
    ):
        weights = (
            np.random.default_rng(1).uniform(0.5, 3.0, size=points.shape[0])
            if weighted
            else None
        )
        reports = []
        items_before = sum(stats.items for stats in pool.stats)
        for runner in (None, pool):
            reports.append(
                best_of_restarts(
                    points,
                    6,
                    restarts,
                    np.random.default_rng(17),
                    weights=weights,
                    seeding=seeding,
                    max_iter=40,
                    kernel=kernel,
                    runner=runner,
                )
            )
        local, helped = reports
        assert helped.best.centroids.tobytes() == local.best.centroids.tobytes()
        assert (
            helped.best.cluster_weights.tobytes()
            == local.best.cluster_weights.tobytes()
        )
        assert np.float64(helped.best.mse).tobytes() == np.float64(
            local.best.mse
        ).tobytes()
        assert [np.float64(m).tobytes() for m in helped.mses] == [
            np.float64(m).tobytes() for m in local.mses
        ]
        assert helped.best_index == local.best_index
        assert helped.iteration_counts == local.iteration_counts
        for name in ("distance_evals_computed", "distance_evals_skipped"):
            assert getattr(helped.counters, name) == getattr(local.counters, name)
        # Restarts 1 … R-1 were dealt over the two workers, round-robin
        # with this thread's lane 0.
        lanes = min(2, restarts - 1) + 1
        off_thread = restarts - len(range(0, restarts, lanes))
        assert sum(stats.items for stats in pool.stats) - items_before == off_thread

    def test_small_partitions_stay_on_the_thread(self, pool, points):
        before = sum(stats.items for stats in pool.stats)
        small = points[: helpers_module.FANOUT_MIN_POINTS - 1]
        best_of_restarts(small, 4, 3, np.random.default_rng(2), runner=pool)
        assert sum(stats.items for stats in pool.stats) == before


class TestSharedPool:
    def test_concurrent_callers_get_their_own_bits(self, fan_out_everything):
        """More calling threads than workers, switching threads every
        microsecond: every call gets the in-process bits and no worker is
        lost or handed to two callers at once."""
        datasets = [
            make_blobs(
                40, np.random.default_rng(seed).normal(scale=5.0, size=(5, 3)), seed=seed
            )
            for seed in range(4)
        ]
        expected = [
            best_of_restarts(pts, 5, 4, np.random.default_rng(i)).best.centroids
            for i, pts in enumerate(datasets)
        ]
        mismatches: list[int] = []
        helpers = PartialPool.fork(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def caller(index):
                for _ in range(5):
                    report = best_of_restarts(
                        datasets[index],
                        5,
                        4,
                        np.random.default_rng(index),
                        runner=helpers,
                    )
                    centroids = report.best.centroids.tobytes()
                    if centroids != expected[index].tobytes():
                        mismatches.append(index)

            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
            # Both workers are back in the pool, and took restarts.
            assert helpers.live == 2
            assert len(helpers._free) == 2
            assert all(stats.items > 0 for stats in helpers.stats)
        finally:
            sys.setswitchinterval(interval)
            helpers.shutdown()
        assert mismatches == []


class TestEngineBitIdentity:
    """Query models and journals do not depend on the pool."""

    @pytest.mark.parametrize("clones", [1, 2])
    def test_models_and_journal_equal_one_cpu_run(
        self, monkeypatch, buckets, tmp_path, clones
    ):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        helped = query(buckets, tmp_path / "helped", clones=clones).execute()
        assert_pool(helped.execution.metrics)
        alone = run_alone(query(buckets, tmp_path / "alone", clones=clones))
        assert model_bytes(helped.models) == model_bytes(alone.models)
        assert journal_content(tmp_path / "helped") == journal_content(
            tmp_path / "alone"
        )
        for stage in ("partial", "merge"):
            for name in ("distance_evals_computed", "distance_evals_skipped"):
                assert (
                    helped.execution.metrics.kernel_counters[stage][name]
                    == alone.execution.metrics.kernel_counters[stage][name]
                )

    def test_helpers_reported_in_metrics_and_summary(self, monkeypatch, buckets):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        metrics = query(buckets).execute().execution.metrics
        assert_pool(metrics)
        trace = metrics_to_dict(metrics)
        if expected_pool() == 0:
            assert "  pool: none (one usable CPU)" in metrics.summary_lines()
            assert trace["pool"] == []
            assert trace["pool_skipped"] == "one usable CPU"
            return
        assert all(worker.pid not in (0, os.getpid()) for worker in metrics.pool)
        assert all(worker.spawn_seconds > 0 for worker in metrics.pool)
        # 2 cells x 2 partitions, each with restarts 1 and 2 off-thread,
        # one per worker.
        assert sum(worker.items for worker in metrics.pool) == 4 * (RESTARTS - 1)
        assert sum(w.restart_batches for w in metrics.pool) == 4 * (RESTARTS - 1)
        assert sum(worker.partitions for worker in metrics.pool) == 0
        assert sum(worker.busy_seconds for worker in metrics.pool) > 0
        assert metrics.bytes_shipped > 0
        lines = metrics.summary_lines()
        assert sum("pool pool#" in line for line in lines) == len(metrics.pool)
        assert trace["pool_skipped"] is None
        assert [worker["restart_batches"] for worker in trace["pool"]] == [
            worker.restart_batches for worker in metrics.pool
        ]

    def test_small_partitions_go_whole(self, buckets):
        metrics = query(buckets).execute().execution.metrics
        assert_pool(metrics)
        if expected_pool():
            assert sum(worker.partitions for worker in metrics.pool) == 4
            assert sum(worker.restart_batches for worker in metrics.pool) == 0


class TestPoolBitIdentity:
    """Pooled runs against a one-CPU run: model bits and journal order."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("clones", [1, 2])
    # 140 points: the 150-point partitions fan their restarts out and the
    # 125-point ones go whole; 10 000: every partition goes whole.
    @pytest.mark.parametrize("fanout", [140, 10_000])
    @pytest.mark.parametrize("seeding", ["random", "kmeans++"])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_same_bits_as_one_cpu(
        self,
        monkeypatch,
        buckets,
        tmp_path,
        journal_order,
        backend,
        clones,
        fanout,
        seeding,
        restarts,
    ):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", fanout)

        def chain(name):
            return query(
                buckets,
                tmp_path / name,
                clones=clones,
                restarts=restarts,
                seeding=seeding,
            )

        alone = run_alone(chain("alone"))
        alone_order = list(journal_order)
        journal_order.clear()
        pooled_chain = chain("pooled")
        if backend == "processes":
            pooled_chain = pooled_chain.with_backend("processes")
        pooled = pooled_chain.execute()
        metrics = pooled.execution.metrics
        if backend == "processes":
            assert len(metrics.pool) == clones
            assert metrics.pool_skipped is None
        else:
            assert_pool(metrics)
        assert model_bytes(pooled.models) == model_bytes(alone.models)
        assert journal_content(tmp_path / "pooled") == journal_content(
            tmp_path / "alone"
        )
        if clones == 1:
            # One dispatcher emits in input order, as one thread does.
            assert journal_order == alone_order
        else:
            assert sorted(journal_order) == sorted(alone_order)

    def test_uneven_partitions_leave_in_input_order(self, tmp_path, journal_order):
        """Long and short partitions alternate, so workers finish out of
        order; summaries still reach the journal in input order."""
        centers = np.random.default_rng(5).normal(scale=6.0, size=(4, 3))
        cells = {
            GridCellId(lat=index, lon=0).key: make_blobs(
                500 if index % 2 else 20, centers, seed=index
            )
            for index in range(8)
        }
        write_bucket_dir(
            tmp_path / "uneven",
            [
                GridCell(cell_id=GridCellId.from_key(key), points=pts)
                for key, pts in cells.items()
            ],
        )
        alone = run_alone(query(tmp_path / "uneven", tmp_path / "alone", restarts=1))
        alone_order = list(journal_order)
        journal_order.clear()
        pooled = query(tmp_path / "uneven", tmp_path / "pooled", restarts=1).execute()
        assert_pool(pooled.execution.metrics)
        assert journal_order == alone_order
        assert model_bytes(pooled.models) == model_bytes(alone.models)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_resume_from_a_torn_journal(
        self, monkeypatch, buckets, tmp_path, journal_order, backend
    ):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 140)
        full = query(buckets, tmp_path / "full").execute()
        journal = tmp_path / "full" / JOURNAL_FILENAME
        with open(journal, "r+b") as handle:
            handle.truncate(journal.stat().st_size // 2)
        shutil.copytree(tmp_path / "full", tmp_path / "torn")
        journal_order.clear()
        alone = run_alone(query(buckets, tmp_path / "full", resume=True))
        alone_order = list(journal_order)
        journal_order.clear()
        chain = query(buckets, tmp_path / "torn", resume=True)
        if backend == "processes":
            chain = chain.with_backend("processes")
        resumed = chain.execute()
        checkpoint = resumed.execution.metrics.checkpoint
        assert checkpoint.partitions_recomputed > 0
        assert model_bytes(resumed.models) == model_bytes(full.models)
        assert model_bytes(resumed.models) == model_bytes(alone.models)
        assert journal_order == alone_order
        assert journal_content(tmp_path / "torn") == journal_content(
            tmp_path / "full"
        )


class TestForkSafety:
    def test_helpers_fork_from_a_single_threaded_parent(self, buckets):
        seen: list[int] = []
        armed = [True]

        def before_fork():
            if armed[0]:
                seen.append(threading.active_count())

        os.register_at_fork(before=before_fork)
        try:
            query(buckets).execute()
        finally:
            armed[0] = False
        assert len(seen) == expected_pool()
        assert all(count == 1 for count in seen)

    def test_no_helpers_beside_another_thread(self, buckets):
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        try:
            metrics = query(buckets).execute().execution.metrics
        finally:
            release.set()
            bystander.join(10.0)
        assert metrics.pool == []
        assert metrics.pool_skipped == (
            "another thread alive" if expected_pool() else "one usable CPU"
        )

    def test_one_cpu_forks_none(self, one_cpu, buckets):
        metrics = query(buckets).execute().execution.metrics
        assert metrics.pool == []
        assert metrics.pool_skipped == "one usable CPU"

    def test_single_restart_forks_the_pool(self, buckets):
        metrics = query(buckets, restarts=1).execute().execution.metrics
        assert_pool(metrics)
        if expected_pool():
            assert sum(worker.partitions for worker in metrics.pool) == 4

    def test_clones_share_one_pool_sized_by_usable_cpus(self, monkeypatch, buckets):
        """While a run's tasks are gathered, its live children number the
        usable CPUs, with one partial clone or two; the bits are equal."""
        real_gather = helpers_module._Task.gather
        seen: list[int] = []
        before: set[int] = set()

        def gather(self):
            seen.append(len(set(child_pids()) - before))
            return real_gather(self)

        monkeypatch.setattr(helpers_module._Task, "gather", gather)
        models = []
        for clones in (1, 2):
            before = set(child_pids())
            seen.clear()
            run = query(buckets, clones=clones, restarts=1).execute()
            assert_pool(run.execution.metrics)
            assert set(seen) == ({expected_pool()} if expected_pool() else set())
            models.append(model_bytes(run.models))
        assert models[0] == models[1]


class TestFailurePaths:
    def test_killed_helper_is_dropped_and_its_restarts_rerun(
        self, monkeypatch, tmp_path, points
    ):
        expected = best_of_restarts(points, 6, 5, np.random.default_rng(4))
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 0)
        marker = kill_first_helper_task(monkeypatch, tmp_path)
        before = child_pids()
        helpers = PartialPool.fork(2)
        try:
            pids = {stats.pid for stats in helpers.stats}
            report = best_of_restarts(
                points, 6, 5, np.random.default_rng(4), runner=helpers
            )
            assert marker.exists()
            assert helpers.live == 1
            # The dead worker was reaped and not replaced.
            assert len(set(child_pids()) & pids) == 1
            again = best_of_restarts(
                points, 6, 5, np.random.default_rng(4), runner=helpers
            )
            assert helpers.live == 1
            assert len(helpers.stats) == 2
        finally:
            helpers.shutdown()
        for run in (report, again):
            assert run.best.centroids.tobytes() == expected.best.centroids.tobytes()
            assert run.mses == expected.mses
            assert run.iteration_counts == expected.iteration_counts
            assert run.best_index == expected.best_index
        assert set(child_pids()) - set(before) == set()

    def test_killed_helper_mid_run_keeps_the_bits(
        self, monkeypatch, tmp_path, buckets
    ):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        alone = run_alone(query(buckets))
        marker = kill_first_helper_task(monkeypatch, tmp_path)
        before = child_pids()
        helped = query(buckets).execute()
        assert model_bytes(helped.models) == model_bytes(alone.models)
        assert_pool(helped.execution.metrics)
        assert marker.exists() == (expected_pool() > 0)
        assert_no_leftovers(before)

    def test_killed_worker_mid_partition_reruns_it(
        self, monkeypatch, tmp_path, buckets
    ):
        alone = run_alone(query(buckets, restarts=1))
        marker = kill_first_helper_task(monkeypatch, tmp_path)
        before = child_pids()
        pooled = query(buckets, restarts=1).execute()
        metrics = pooled.execution.metrics
        assert model_bytes(pooled.models) == model_bytes(alone.models)
        assert_pool(metrics)
        assert marker.exists() == (expected_pool() > 0)
        if expected_pool():
            # The killed worker's partition ran on the partial thread.
            assert sum(worker.partitions for worker in metrics.pool) == 3
        assert_no_leftovers(before)

    def test_restart_supervision_and_injected_crash_keep_the_bits(
        self, monkeypatch, buckets
    ):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        alone = run_alone(query(buckets))
        # The supervisor deep-copies the partial operator (pool and all)
        # and replays its input on the copy after the crash.
        helped = (
            query(buckets)
            .with_supervision({"partial": SupervisionPolicy.restart(2)})
            .execute(fault_plan=FaultPlan([FaultSpec("partial", "crash", at_index=1)]))
        )
        assert helped.execution.metrics.total_restarts == 1
        assert_pool(helped.execution.metrics)
        assert model_bytes(helped.models) == model_bytes(alone.models)

    @pytest.mark.parametrize(
        "policy", [SupervisionPolicy.degrade(), SupervisionPolicy.restart(1)]
    )
    def test_supervised_partials_behave_as_on_one_cpu(self, buckets, policy):
        """A fault-wrapped, supervised partial keeps one partition in
        flight; losses, restarts and bits equal a one-CPU run's."""

        def run(chain):
            return chain.with_supervision({"partial": policy}).execute(
                fault_plan=FaultPlan([FaultSpec("partial", "crash", at_index=2)])
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone = run(query(buckets, restarts=1))
        pooled = run(query(buckets, restarts=1))
        assert_pool(pooled.execution.metrics)
        for name in ("lost_partitions", "total_restarts", "total_degraded"):
            assert getattr(pooled.execution.metrics, name) == getattr(
                alone.execution.metrics, name
            )
        assert model_bytes(pooled.models) == model_bytes(alone.models)

    def test_helpers_exit_when_their_parent_is_killed(self):
        """No worker keeps its own pipe's parent end open, so every one
        sees EOF, and exits, when the process that forked it dies."""
        script = (
            "import os, sys, time\n"
            "from repro.stream.helpers import PartialPool\n"
            "pool = PartialPool.fork(3)\n"
            "print(' '.join(str(s.pid) for s in pool.stats), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 3
        finally:
            parent.kill()
            parent.wait(10.0)
            parent.stdout.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.05)
        assert not any(map(_running, pids))

    def test_helper_error_keeps_its_type(self, monkeypatch, points):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 0)
        raise_in_helpers(monkeypatch)
        helpers = PartialPool.fork(2)
        try:
            with pytest.raises(HelperBoom, match="inside a pool worker"):
                best_of_restarts(
                    points, 6, 3, np.random.default_rng(4), runner=helpers
                )
            # The workers survive an error and keep serving.
            assert helpers.live == 2
            with pytest.raises(HelperBoom):
                best_of_restarts(
                    points, 6, 3, np.random.default_rng(4), runner=helpers
                )
        finally:
            helpers.shutdown()

    def test_nothing_left_after_execute_raises(self, monkeypatch, buckets):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        self.assert_remote_error_surfaces(monkeypatch, query(buckets))

    def test_whole_partition_error_keeps_its_type(self, monkeypatch, buckets):
        self.assert_remote_error_surfaces(monkeypatch, query(buckets, restarts=1))

    @staticmethod
    def assert_remote_error_surfaces(monkeypatch, chain):
        raise_in_helpers(monkeypatch)
        before = child_pids()
        if expected_pool() == 0:
            chain.execute()
        else:
            with pytest.raises(ExecutionError) as caught:
                chain.execute()
            assert any(
                isinstance(failure.__cause__, HelperBoom)
                for failure in caught.value.failures
            )
        assert_no_leftovers(before)

    def test_nothing_left_after_execute_returns(self, buckets):
        before = child_pids()
        query(buckets).execute()
        assert_no_leftovers(before)


class TestWhereHelpersNeverRun:
    """Serving, shards, the staged replay and ``spawn`` fork nothing."""

    @pytest.fixture
    def forks(self, monkeypatch):
        calls: list[int] = []
        real_fork = PartialPool.fork.__func__

        def spy(cls, count, partial=None, mp_context=None):
            calls.append(count)
            return real_fork(cls, count, partial, mp_context)

        monkeypatch.setattr(PartialPool, "fork", classmethod(spy))
        return calls

    def test_shard_runtime(self, forks, buckets):
        query(buckets).with_shards(2).execute()
        assert forks == []

    def test_model_registry(self, forks, tmp_path, points):
        with ModelRegistry(tmp_path / "serve", k=4, fsync=False) as registry:
            registry.ingest("cell", points)
        assert forks == []

    def test_staged_replay(self, forks, points):
        """Direct operator calls, as the benchmark's serial replay makes."""
        operator = PartialKMeansOperator(
            k=4, restarts=RESTARTS, seed_sequence=np.random.SeedSequence(9)
        )
        (message,) = operator.process(DataChunk("cell", 0, points, n_partitions=1))
        assert message.summary.weights.sum() == points.shape[0]
        assert forks == []

    def test_spawn_start_method(self, forks, monkeypatch, buckets):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        metrics = query(buckets).execute().execution.metrics
        assert metrics.pool == []
        assert metrics.pool_skipped == (
            "spawn start method" if expected_pool() else "one usable CPU"
        )
        assert forks == []

    def test_thread_backend_forks_them(self, forks, buckets):
        query(buckets).execute()
        assert forks == ([expected_pool()] if expected_pool() else [])


class TestProcessesBackend:
    """``with_backend('processes', workers=n)`` is the same pool, of n."""

    def test_pool_of_n_on_one_cpu_under_spawn(self, one_cpu, monkeypatch, buckets):
        alone = query(buckets, restarts=1).execute()
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        pooled = (
            Query.scan_buckets(str(buckets))
            .partition(2)
            .cluster(k=4, restarts=1, max_iter=30)
            .with_backend("processes", workers=2)
            .with_seed(9)
            .execute()
        )
        metrics = pooled.execution.metrics
        assert len(metrics.pool) == 2
        assert sum(worker.partitions for worker in metrics.pool) == 4
        assert model_bytes(pooled.models) == model_bytes(alone.models)
        # Every worker is gone.  (``spawn`` also starts multiprocessing's
        # one resource tracker per process, which stays for reuse.)
        assert not set(child_pids()) & {worker.pid for worker in metrics.pool}
        assert threading.active_count() == 1

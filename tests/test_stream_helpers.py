"""Restart helpers: a partition's restarts on every usable CPU, same bits.

The thread backend forks restart helpers before its operator threads
start and deals each large partition's restarts ``1 … R-1`` over them
(:mod:`repro.stream.helpers`).  Every test here holds whether or not the
host has a second CPU: where helpers are expected, the expectation is
computed from :func:`usable_cpus`, so under ``taskset -c 0`` the same
tests check that none is forked and that the bits do not change.
"""

from __future__ import annotations

import os
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
from repro.stream.checkpoint import JOURNAL_FILENAME, read_journal
from repro.stream.errors import ExecutionError
from repro.stream.faults import FaultPlan, FaultSpec
from repro.stream.helpers import RestartHelpers, usable_cpus
from repro.stream.query import Query
from repro.stream.supervision import SupervisionPolicy
from tests.conftest import child_pids, make_blobs

RESTARTS = 3


class HelperBoom(RuntimeError):
    """Raised inside a helper process only (module level: picklable)."""


@pytest.fixture(scope="module")
def pool():
    """Two helpers forked directly (whatever the CPU count)."""
    helpers = RestartHelpers.fork(2)
    yield helpers
    helpers.shutdown()


@pytest.fixture
def fan_out_everything(monkeypatch):
    """Spread the restarts of partitions of any size over the helpers."""
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
    """Helpers fork only from a single-threaded parent: let threads an
    earlier test abandoned (timed-out attempts) finish first."""
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(10.0)
    yield


def expected_helpers(partial_restarts: int = RESTARTS, clones: int = 1) -> int:
    """Helpers the executor forks on this host for one partial stage."""
    cpus = usable_cpus()
    return min(cpus, clones * (partial_restarts - 1)) if cpus >= 2 else 0


def query(buckets, run_dir=None, clones=1, restarts=RESTARTS):
    chain = (
        Query.scan_buckets(str(buckets))
        .partition(2)
        .cluster(k=4, restarts=restarts, max_iter=30)
        .with_partial_clones(clones)
        .with_seed(9)
    )
    if run_dir is not None:
        chain = chain.checkpoint(run_dir, fsync=False)
    return chain


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
    """Make the first helper to start a task SIGKILL itself mid-task."""
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
    """Make every Lloyd run inside a helper raise :class:`HelperBoom`."""
    parent = os.getpid()
    real_lloyd = restarts_module.lloyd

    def lloyd(*args, **kwargs):
        if os.getpid() != parent:
            raise HelperBoom("raised inside a restart helper")
        return real_lloyd(*args, **kwargs)

    monkeypatch.setattr(restarts_module, "lloyd", lloyd)


class TestRunnerBitIdentity:
    """The helper runner returns the in-process runner's bits."""

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
        # Restarts 1 … R-1 were dealt over the two helpers, round-robin
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
        """More calling threads than helpers, switching threads every
        microsecond: every call gets the in-process bits and no helper is
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
        helpers = RestartHelpers.fork(2)
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
            # Both helpers are back in the pool, and took restarts.
            assert helpers.live == 2
            assert len(helpers._free) == 2
            assert all(stats.items > 0 for stats in helpers.stats)
        finally:
            sys.setswitchinterval(interval)
            helpers.shutdown()
        assert mismatches == []


class TestEngineBitIdentity:
    """Query models and journals do not depend on the helpers."""

    @pytest.mark.parametrize("clones", [1, 2])
    def test_models_and_journal_equal_one_cpu_run(
        self, monkeypatch, buckets, tmp_path, clones
    ):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        helped = query(buckets, tmp_path / "helped", clones=clones).execute()
        assert len(helped.execution.metrics.helpers) == expected_helpers(
            clones=clones
        )
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone = query(buckets, tmp_path / "alone", clones=clones).execute()
        assert alone.execution.metrics.helpers == []
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
        if expected_helpers() == 0:
            assert metrics.helpers == []
            return
        assert all(helper.pid not in (0, os.getpid()) for helper in metrics.helpers)
        assert all(helper.spawn_seconds > 0 for helper in metrics.helpers)
        # 2 cells x 2 partitions, each with restarts 1 and 2 off-thread.
        assert sum(helper.items for helper in metrics.helpers) == 4 * (RESTARTS - 1)
        assert sum(helper.busy_seconds for helper in metrics.helpers) > 0
        lines = metrics.summary_lines()
        assert sum("helper restart-helper#" in line for line in lines) == len(
            metrics.helpers
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
        assert len(seen) == expected_helpers()
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
        assert metrics.helpers == []

    def test_one_cpu_forks_none(self, one_cpu, buckets):
        assert query(buckets).execute().execution.metrics.helpers == []

    def test_single_restart_forks_none(self, buckets):
        metrics = query(buckets, restarts=1).execute().execution.metrics
        assert metrics.helpers == []


class TestFailurePaths:
    def test_killed_helper_is_dropped_and_its_restarts_rerun(
        self, monkeypatch, tmp_path, points
    ):
        expected = best_of_restarts(points, 6, 5, np.random.default_rng(4))
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 0)
        marker = kill_first_helper_task(monkeypatch, tmp_path)
        before = child_pids()
        helpers = RestartHelpers.fork(2)
        try:
            pids = {stats.pid for stats in helpers.stats}
            report = best_of_restarts(
                points, 6, 5, np.random.default_rng(4), runner=helpers
            )
            assert marker.exists()
            assert helpers.live == 1
            # The dead helper was reaped and not replaced.
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
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone = query(buckets).execute()
        marker = kill_first_helper_task(monkeypatch, tmp_path)
        before = child_pids()
        helped = query(buckets).execute()
        assert model_bytes(helped.models) == model_bytes(alone.models)
        assert len(helped.execution.metrics.helpers) == expected_helpers()
        assert marker.exists() == (expected_helpers() > 0)
        assert_no_leftovers(before)

    def test_restart_supervision_and_injected_crash_keep_the_bits(
        self, monkeypatch, buckets
    ):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone = query(buckets).execute()
        # The supervisor deep-copies the partial operator (helpers and
        # all) and replays its input on the copy after the crash.
        helped = (
            query(buckets)
            .with_supervision({"partial": SupervisionPolicy.restart(2)})
            .execute(fault_plan=FaultPlan([FaultSpec("partial", "crash", at_index=1)]))
        )
        assert helped.execution.metrics.total_restarts == 1
        assert len(helped.execution.metrics.helpers) == expected_helpers()
        assert model_bytes(helped.models) == model_bytes(alone.models)

    def test_helpers_exit_when_their_parent_is_killed(self):
        """No helper keeps its own pipe's parent end open, so every one
        sees EOF, and exits, when the process that forked it dies."""
        script = (
            "import os, sys, time\n"
            "from repro.stream.helpers import RestartHelpers\n"
            "pool = RestartHelpers.fork(3)\n"
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
        helpers = RestartHelpers.fork(2)
        try:
            with pytest.raises(HelperBoom, match="inside a restart helper"):
                best_of_restarts(
                    points, 6, 3, np.random.default_rng(4), runner=helpers
                )
            # The helpers survive an error and keep serving.
            assert helpers.live == 2
            with pytest.raises(HelperBoom):
                best_of_restarts(
                    points, 6, 3, np.random.default_rng(4), runner=helpers
                )
        finally:
            helpers.shutdown()

    def test_nothing_left_after_execute_raises(self, monkeypatch, buckets):
        monkeypatch.setattr(helpers_module, "FANOUT_MIN_POINTS", 100)
        raise_in_helpers(monkeypatch)
        before = child_pids()
        if expected_helpers() == 0:
            query(buckets).execute()
        else:
            with pytest.raises(ExecutionError) as caught:
                query(buckets).execute()
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
    """Only the thread backend's executor forks helpers."""

    @pytest.fixture
    def forks(self, monkeypatch):
        calls: list[int] = []
        real_fork = RestartHelpers.fork.__func__

        def spy(cls, count, mp_context=None):
            calls.append(count)
            return real_fork(cls, count, mp_context)

        monkeypatch.setattr(RestartHelpers, "fork", classmethod(spy))
        return calls

    def test_processes_backend(self, forks, buckets):
        result = query(buckets).with_backend("processes").execute()
        assert result.execution.metrics.helpers == []
        assert forks == []

    def test_shard_runtime(self, forks, buckets):
        query(buckets).with_shards(2).execute()
        assert forks == []

    def test_model_registry(self, forks, tmp_path, points):
        with ModelRegistry(tmp_path / "serve", k=4, fsync=False) as registry:
            registry.ingest("cell", points)
        assert forks == []

    def test_spawn_start_method(self, forks, monkeypatch, buckets):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        result = query(buckets).execute()
        assert result.execution.metrics.helpers == []
        assert forks == []

    def test_thread_backend_forks_them(self, forks, buckets):
        query(buckets).execute()
        assert forks == ([expected_helpers()] if expected_helpers() else [])

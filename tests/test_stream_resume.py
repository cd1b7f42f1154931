"""Kill-and-resume tests for checkpointed queries.

The acceptance bar: a run killed mid-flight and resumed from its journal
produces a final model **bit-identical** to an uninterrupted run — same
centroids, same weights, same MSE, down to the last float bit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.data.generator import generate_cell_points
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import write_bucket_dir
from repro.stream.checkpoint import (
    JOURNAL_FILENAME,
    CheckpointError,
    JournalWriter,
    ManifestMismatchError,
    read_journal,
)
from repro.stream.errors import ExecutionError
from repro.stream.faults import FaultPlan, FaultSpec
from repro.stream.query import Query, QueryError


@pytest.fixture
def bucket_dir(tmp_path):
    cells = [
        GridCell(GridCellId(10, 20), generate_cell_points(400, seed=1)),
        GridCell(GridCellId(11, 20), generate_cell_points(300, seed=2)),
        GridCell(GridCellId(12, 20), generate_cell_points(350, seed=3)),
    ]
    write_bucket_dir(tmp_path / "buckets", cells)
    return tmp_path / "buckets"


def checkpointed_query(buckets, run_dir, seed=7):
    return (
        Query.scan_buckets(str(buckets))
        .partition(4)
        .cluster(k=5, restarts=2)
        .merge()
        .with_seed(seed)
        .checkpoint(run_dir, resume=True, fsync=False)
    )


def plain_query(buckets, seed=7):
    return (
        Query.scan_buckets(str(buckets))
        .partition(4)
        .cluster(k=5, restarts=2)
        .merge()
        .with_seed(seed)
    )


def assert_models_bit_identical(expected, actual):
    assert set(expected) == set(actual)
    for key in expected:
        np.testing.assert_array_equal(
            expected[key].centroids, actual[key].centroids
        )
        np.testing.assert_array_equal(
            expected[key].weights, actual[key].weights
        )
        assert expected[key].mse == actual[key].mse


class TestCrashAndResume:
    def test_resume_after_injected_crash_is_bit_identical(
        self, bucket_dir, tmp_path
    ):
        run_dir = tmp_path / "run"
        # Crash the merge sink after 5 messages: the chaos wrapper fires
        # before consume, so exactly 5 partitions are journaled.
        faults = FaultPlan(
            seed=3,
            specs=[FaultSpec(target="merge", kind="crash", at_index=5)],
        )
        with pytest.raises(ExecutionError):
            checkpointed_query(bucket_dir, run_dir).execute(fault_plan=faults)

        state = read_journal(run_dir / JOURNAL_FILENAME)
        journaled = sum(len(parts) for parts in state.partitions.values())
        assert journaled == 5
        assert not state.complete

        resumed = checkpointed_query(bucket_dir, run_dir).execute()
        checkpoint = resumed.execution.metrics.checkpoint
        assert checkpoint.resumed
        total = checkpoint.partitions_replayed + checkpoint.partitions_recomputed
        # 3 cells x 4 partitions, minus whatever cells were finalised and
        # replayed wholesale from their journaled models.
        assert checkpoint.partitions_recomputed < 12
        assert total <= 12

        baseline = plain_query(bucket_dir).execute()
        assert_models_bit_identical(baseline.models, resumed.models)

    def test_resume_after_torn_write_is_bit_identical(
        self, bucket_dir, tmp_path
    ):
        """A journal truncated mid-record (a torn write: the process died
        inside a CRC frame) must resume cleanly from the last whole
        record and still produce bit-identical models."""
        run_dir = tmp_path / "run"
        checkpointed_query(bucket_dir, run_dir).execute()
        journal = run_dir / JOURNAL_FILENAME
        whole = read_journal(journal)
        assert whole.complete and not whole.torn

        # Tear the tail: cut inside the final record's payload, leaving
        # its CRC frame half-written.
        size = journal.stat().st_size
        with journal.open("r+b") as handle:
            handle.truncate(size - 3)

        torn = read_journal(journal)
        assert torn.torn
        assert not torn.complete
        assert torn.valid_bytes < size - 3
        # Every record before the tear decoded; only the torn one is gone.
        assert torn.records == whole.records - 1

        resumed = checkpointed_query(bucket_dir, run_dir).execute()
        assert resumed.execution.metrics.checkpoint.resumed
        baseline = plain_query(bucket_dir).execute()
        assert_models_bit_identical(baseline.models, resumed.models)
        # The rewritten journal is whole again.
        healed = read_journal(journal)
        assert healed.complete and not healed.torn

    def test_resume_of_complete_run_touches_no_buckets(
        self, bucket_dir, tmp_path
    ):
        run_dir = tmp_path / "run"
        first = checkpointed_query(bucket_dir, run_dir).execute()
        # A complete journal short-circuits: headers are still read for
        # manifest validation, but no payload is rescanned and nothing is
        # recomputed.
        state = read_journal(run_dir / JOURNAL_FILENAME)
        assert state.complete

        second = checkpointed_query(bucket_dir, run_dir).execute()
        checkpoint = second.execution.metrics.checkpoint
        assert checkpoint.resumed
        assert checkpoint.partitions_recomputed == 0
        assert_models_bit_identical(first.models, second.models)

    def test_journal_naming_a_retired_kernel_still_replays(
        self, bucket_dir, tmp_path
    ):
        """Recorded kernel names are labels: nothing resolves them.

        Journals written before the ``hamerly`` kernel was deleted carry
        its name in their partition counters, and those written by the
        ``blas`` kernel also carry its ``gemm_calls`` / ``refine_rows``
        fields; they must replay exactly like any other journal.
        """
        finished = checkpointed_query(bucket_dir, tmp_path / "run").execute()
        state = read_journal(tmp_path / "run" / JOURNAL_FILENAME)
        messages = [
            state.partitions[cell][index]
            for cell in sorted(state.partitions)
            for index in sorted(state.partitions[cell])
        ]

        def resume_from_copy(name, rename_every, retired=None):
            run_dir = tmp_path / name
            run_dir.mkdir()
            with JournalWriter(run_dir / JOURNAL_FILENAME, fsync=False) as out:
                out.append_manifest(state.manifest)
                for position, message in enumerate(messages):
                    counters = dict(message.kernel_counters)
                    if rename_every and position % rename_every == 0:
                        counters.update(retired or {"kernel": "hamerly"})
                    out.append_partition(
                        replace(message, kernel_counters=counters)
                    )
            return checkpointed_query(bucket_dir, run_dir).execute()

        control = resume_from_copy("verbatim", rename_every=0)
        old = resume_from_copy("retired-name", rename_every=2)
        blas = resume_from_copy(
            "blas-fields", rename_every=2,
            retired={"kernel": "blas", "gemm_calls": 7, "refine_rows": 13},
        )
        assert_models_bit_identical(finished.models, old.models)
        assert_models_bit_identical(finished.models, blas.models)
        for run in (control, old, blas):
            stats = run.execution.metrics.checkpoint
            assert stats.resumed and stats.cells_replayed == 0
            assert stats.partitions_replayed == len(messages)
            assert stats.partitions_recomputed == 0

    def test_journal_recording_the_paper_criterion_resumes(
        self, bucket_dir, tmp_path
    ):
        """Journals from when the stopping rule was a parameter resume.

        They record ``criterion`` / ``merge_criterion`` as ``"None"`` (the
        paper's rule); any other recorded rule cannot be reproduced, so
        its journal is refused.
        """
        finished = checkpointed_query(bucket_dir, tmp_path / "run").execute()
        state = read_journal(tmp_path / "run" / JOURNAL_FILENAME)
        messages = [
            state.partitions[cell][index]
            for cell in sorted(state.partitions)
            for index in sorted(state.partitions[cell])
        ]

        def write_journal(name, criterion):
            run_dir = tmp_path / name
            run_dir.mkdir()
            manifest = dict(
                state.manifest, criterion=criterion, merge_criterion="None"
            )
            with JournalWriter(run_dir / JOURNAL_FILENAME, fsync=False) as out:
                out.append_manifest(manifest)
                for message in messages:
                    out.append_partition(message)
            return run_dir

        old = checkpointed_query(
            bucket_dir, write_journal("paper", "None")
        ).execute()
        stats = old.execution.metrics.checkpoint
        assert stats.resumed and stats.partitions_recomputed == 0
        assert stats.partitions_replayed == len(messages)
        assert_models_bit_identical(finished.models, old.models)

        foreign = write_journal("foreign", "MseDeltaCriterion(tol=0.1)")
        with pytest.raises(ManifestMismatchError, match="criterion:"):
            checkpointed_query(bucket_dir, foreign).execute()

    def test_existing_journal_without_resume_refused(
        self, bucket_dir, tmp_path
    ):
        run_dir = tmp_path / "run"
        checkpointed_query(bucket_dir, run_dir).execute()
        query = (
            Query.scan_buckets(str(bucket_dir))
            .partition(4)
            .cluster(k=5, restarts=2)
            .merge()
            .with_seed(7)
            .checkpoint(run_dir, resume=False)
        )
        with pytest.raises(CheckpointError, match="already exists"):
            query.execute()

    def test_resume_with_changed_config_refused(self, bucket_dir, tmp_path):
        run_dir = tmp_path / "run"
        faults = FaultPlan(
            seed=3,
            specs=[FaultSpec(target="merge", kind="crash", at_index=2)],
        )
        with pytest.raises(ExecutionError):
            checkpointed_query(bucket_dir, run_dir).execute(fault_plan=faults)
        changed = (
            Query.scan_buckets(str(bucket_dir))
            .partition(4)
            .cluster(k=9, restarts=2)  # k differs from the journal
            .merge()
            .with_seed(7)
            .checkpoint(run_dir, resume=True)
        )
        with pytest.raises(ManifestMismatchError, match="k:"):
            changed.execute()

    def test_resume_with_changed_inputs_refused(self, bucket_dir, tmp_path):
        run_dir = tmp_path / "run"
        faults = FaultPlan(
            seed=3,
            specs=[FaultSpec(target="merge", kind="crash", at_index=2)],
        )
        with pytest.raises(ExecutionError):
            checkpointed_query(bucket_dir, run_dir).execute(fault_plan=faults)
        extra = GridCell(GridCellId(50, 50), generate_cell_points(100, seed=9))
        write_bucket_dir(bucket_dir, [extra])
        with pytest.raises(ManifestMismatchError, match="inventory"):
            checkpointed_query(bucket_dir, run_dir).execute()

    def test_seedless_checkpoint_adopts_journaled_seed(
        self, bucket_dir, tmp_path
    ):
        run_dir = tmp_path / "run"
        faults = FaultPlan(
            seed=3,
            specs=[FaultSpec(target="merge", kind="crash", at_index=4)],
        )
        query = (
            Query.scan_buckets(str(bucket_dir))
            .partition(4)
            .cluster(k=5, restarts=2)
            .merge()
            .checkpoint(run_dir, resume=True, fsync=False)
        )
        with pytest.raises(ExecutionError):
            query.execute(fault_plan=faults)
        state = read_journal(run_dir / JOURNAL_FILENAME)
        recorded_seed = state.manifest["seed"]
        assert recorded_seed is not None

        resumed = (
            Query.scan_buckets(str(bucket_dir))
            .partition(4)
            .cluster(k=5, restarts=2)
            .merge()
            .checkpoint(run_dir, resume=True, fsync=False)
            .execute()
        )
        baseline = plain_query(bucket_dir, seed=recorded_seed).execute()
        assert_models_bit_identical(baseline.models, resumed.models)

    def test_checkpoint_requires_bucket_source(self, tmp_path):
        query = (
            Query.scan_cells({"c": generate_cell_points(100, seed=0)})
            .partition(2)
            .cluster(k=3, restarts=1)
            .checkpoint(tmp_path / "run")
        )
        with pytest.raises(QueryError, match="scan_buckets"):
            query.execute()


_CHILD_SCRIPT = """
import sys
from repro.stream.faults import FaultPlan, FaultSpec
from repro.stream.query import Query

buckets, run_dir = sys.argv[1], sys.argv[2]
# Slow the merge sink so the parent can SIGKILL us mid-run with records
# already journaled.
faults = FaultPlan(
    seed=1,
    specs=[FaultSpec(target="merge", kind="delay", probability=1.0,
                     delay_seconds=0.35)],
)
(
    Query.scan_buckets(buckets)
    .partition(4)
    .cluster(k=5, restarts=2)
    .merge()
    .with_seed(7)
    .checkpoint(run_dir, resume=True)
    .execute(fault_plan=faults)
)
"""


class TestSubprocessKill:
    def test_sigkilled_run_resumes_bit_identical(self, bucket_dir, tmp_path):
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, str(bucket_dir), str(run_dir)],
            env=env,
        )
        journal = run_dir / JOURNAL_FILENAME
        try:
            # Wait until the child has durably journaled some partitions,
            # then kill it without warning.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail(
                        "child exited before it could be killed "
                        f"(rc={child.returncode})"
                    )
                if journal.exists():
                    state = read_journal(journal)
                    journaled = sum(
                        len(parts) for parts in state.partitions.values()
                    )
                    if journaled >= 2:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("journal never accumulated partition records")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        state = read_journal(journal)
        assert not state.complete
        journaled = sum(len(parts) for parts in state.partitions.values())
        assert journaled >= 2

        resumed = checkpointed_query(bucket_dir, run_dir).execute()
        checkpoint = resumed.execution.metrics.checkpoint
        assert checkpoint.resumed
        assert checkpoint.partitions_recomputed < 12

        baseline = plain_query(bucket_dir).execute()
        assert_models_bit_identical(baseline.models, resumed.models)

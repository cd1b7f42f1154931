"""Tests for the declarative query builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generator import generate_cell_points
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import write_bucket_dir
from repro.stream.query import Query, QueryError
from repro.stream.scheduler import ResourceManager


@pytest.fixture
def cells(blobs_6d) -> dict[str, np.ndarray]:
    return {"a": blobs_6d, "b": blobs_6d[:300] + 1.0}


class TestValidation:
    def test_missing_cluster_stage(self, cells):
        with pytest.raises(QueryError, match="no cluster stage"):
            Query.scan_cells(cells).partition(4).execute()

    def test_missing_partitioning(self, cells):
        with pytest.raises(QueryError, match="no partitioning"):
            Query.scan_cells(cells).cluster(k=4).execute()

    def test_duplicate_stage_rejected(self, cells):
        with pytest.raises(QueryError, match="twice"):
            Query.scan_cells(cells).partition(4).partition(5)
        with pytest.raises(QueryError, match="twice"):
            Query.scan_cells(cells).cluster(k=4).cluster(k=5)
        with pytest.raises(QueryError, match="twice"):
            Query.scan_cells(cells).merge(k=4).merge(k=5)

    def test_empty_cells_rejected(self):
        with pytest.raises(QueryError, match="non-empty"):
            Query.scan_cells({})

    def test_bad_parameters(self, cells):
        with pytest.raises(QueryError, match="n_chunks"):
            Query.scan_cells(cells).partition(0)
        with pytest.raises(QueryError, match="k must be"):
            Query.scan_cells(cells).cluster(k=0)
        with pytest.raises(QueryError, match="clones"):
            Query.scan_cells(cells).with_partial_clones(0)


class TestExecution:
    def test_in_memory_query(self, cells):
        result = (
            Query.scan_cells(cells)
            .partition(3)
            .cluster(k=5, restarts=2, max_iter=50)
            .merge()
            .with_seed(0)
            .execute()
        )
        assert set(result.models) == {"a", "b"}
        for cell_id, model in result.models.items():
            assert model.weights.sum() == pytest.approx(
                cells[cell_id].shape[0]
            )
        assert result.execution.metrics.wall_seconds > 0

    def test_with_kernel_name_alone_selects_the_tier(self, cells):
        """One knob: elkan keeps the bits; retired names are refused."""
        def run(kernel):
            query = Query.scan_cells(cells).partition(3)
            query = query.cluster(k=5, restarts=2, max_iter=50).merge()
            return query.with_seed(0).with_kernel(kernel).execute()

        dense, elkan = run("dense"), run("elkan")
        for key in cells:
            np.testing.assert_array_equal(
                dense.models[key].centroids, elkan.models[key].centroids
            )
        counters = elkan.execution.metrics.kernel_counters
        assert {c["kernel"] for c in counters.values()} == {"elkan"}
        for retired in ("hamerly", "blas"):
            with pytest.raises(
                QueryError,
                match=f"unknown k-means kernel '{retired}'; "
                "expected one of dense, elkan",
            ):
                Query.scan_cells(cells).with_kernel(retired)

    def test_merge_defaults_to_cluster_k(self, cells):
        result = (
            Query.scan_cells(cells)
            .partition(3)
            .cluster(k=5, restarts=1, max_iter=30)
            .with_seed(0)
            .execute()
        )
        assert all(m.k <= 5 for m in result.models.values())

    def test_memory_partitioning(self, cells):
        resources = ResourceManager(
            memory_budget_bytes=32 * 1024, worker_slots=2
        )
        result = (
            Query.scan_cells(cells)
            .partition_by_memory()
            .cluster(k=5, restarts=1, max_iter=30)
            .with_resources(resources)
            .with_seed(0)
            .execute()
        )
        cap = resources.max_points_per_partition(6)
        expected = resources.partitions_for(cells["a"].shape[0], 6)
        assert result.models["a"].partitions == expected
        assert cap * expected >= cells["a"].shape[0]

    def test_bucket_query(self, tmp_path):
        cell = GridCell(GridCellId(5, 6), generate_cell_points(600, seed=1))
        write_bucket_dir(tmp_path, [cell])
        result = (
            Query.scan_buckets(str(tmp_path))
            .partition(3)
            .cluster(k=6, restarts=2, max_iter=50)
            .with_seed(0)
            .execute()
        )
        model = result.models[cell.cell_id.key]
        assert model.weights.sum() == pytest.approx(600)

    def test_clone_override_changes_plan(self, cells):
        result = (
            Query.scan_cells(cells)
            .partition(4)
            .cluster(k=5, restarts=1, max_iter=30)
            .with_partial_clones(3)
            .with_seed(0)
            .execute()
        )
        partial_ops = [
            op
            for op in result.execution.metrics.operators
            if op.name.startswith("partial")
        ]
        assert len(partial_ops) == 3


class TestExplain:
    def test_explain_prints_plan_without_running(self, cells):
        lines: list[str] = []
        query = (
            Query.scan_cells(cells)
            .partition(4)
            .cluster(k=5, restarts=2)
            .merge(k=5)
            .explain(printer=lines.append)
        )
        text = "\n".join(lines)
        assert "logical plan" in text
        assert "partial_kmeans(k=5, restarts=2, kernel=default)" in text
        assert "physical plan" in text
        # explain returns the query for chaining
        assert isinstance(query, Query)

    def test_explain_requires_valid_query(self, cells):
        with pytest.raises(QueryError):
            Query.scan_cells(cells).explain(printer=lambda s: None)

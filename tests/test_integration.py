"""Cross-module integration tests: the full paper pipeline end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SerialKMeans
from repro.compression import Codebook, MultivariateHistogram
from repro.core import PartialMergeKMeans
from repro.core.kernels import KernelCounters
from repro.core.quality import mse as evaluate_mse
from repro.data import (
    SwathSimulator,
    bin_stripes_into_buckets,
    generate_cell_points,
    make_partitioner,
    scan_bucket_dir,
    stream_bucket_points,
    write_bucket_dir,
)
from repro.stream import ResourceManager, run_partial_merge_stream


class TestSwathToModelPipeline:
    """Acquisition -> binning -> disk -> scan -> cluster -> compress."""

    def test_full_chain(self, tmp_path, rng):
        simulator = SwathSimulator(
            footprints_per_orbit=200, samples_per_footprint=60, seed=1
        )
        buckets = bin_stripes_into_buckets(simulator.fly(2))
        populated = [
            b.freeze(rng) for b in buckets.values() if b.n_points >= 100
        ]
        assert populated, "swath must populate at least one dense cell"

        write_bucket_dir(tmp_path, populated[:3])

        for cell in scan_bucket_dir(tmp_path):
            report = PartialMergeKMeans(
                k=8, restarts=2, n_chunks=3, seed=0
            ).fit(cell.points)
            model = report.model
            assert model.weights.sum() == pytest.approx(cell.n_points)

            histogram = MultivariateHistogram.from_model(cell.points, model)
            assert histogram.total_count == pytest.approx(cell.n_points)

            codebook = Codebook.from_model(model)
            assert codebook.distortion(cell.points) == pytest.approx(
                model.mse, rel=1e-9
            )


class TestStreamedFileScan:
    """One-pass file streaming feeds the chunked pipeline directly."""

    def test_stream_chunks_into_pipeline(self, tmp_path, rng):
        from repro.data.gridcell import GridCell, GridCellId

        points = generate_cell_points(2_000, seed=5)
        cell = GridCell(GridCellId(0, 0), points)
        write_bucket_dir(tmp_path, [cell])
        path = next(tmp_path.glob("*.gbk"))

        chunks = list(stream_bucket_points(path, chunk_points=500))
        algo = PartialMergeKMeans(k=10, restarts=2, seed=0)
        report = algo.fit_chunks(chunks, evaluate_on=points)
        assert report.model.partitions == 4
        assert report.model.weights.sum() == pytest.approx(2_000)


class TestPartitionerIntoPipeline:
    @pytest.mark.parametrize("name", ["random", "spatial", "salami"])
    def test_all_slicing_strategies_cluster(self, name):
        points = generate_cell_points(1_200, seed=2)
        chunks = make_partitioner(name, seed=0).split(points, 4)
        report = PartialMergeKMeans(k=10, restarts=2, seed=0).fit_chunks(
            chunks, evaluate_on=points
        )
        assert report.model.weights.sum() == pytest.approx(1_200)
        assert report.model.mse > 0


class TestStreamEngineVsDirectApi:
    def test_same_data_same_scale_of_quality(self):
        points = generate_cell_points(3_000, seed=8)
        serial = SerialKMeans(k=20, restarts=3, seed=0).fit(points)
        direct = PartialMergeKMeans(
            k=20, restarts=3, n_chunks=5, seed=0
        ).fit(points)
        streamed, __ = run_partial_merge_stream(
            {"cell": points}, k=20, restarts=3, n_chunks=5, seed=0
        )
        serial_mse = evaluate_mse(points, serial.centroids)
        assert direct.model.mse < serial_mse * 3
        assert streamed["cell"].mse < serial_mse * 3

    def test_memory_budget_bounds_actual_chunk_sizes(self):
        points = generate_cell_points(5_000, seed=9)
        resources = ResourceManager(
            memory_budget_bytes=64 * 1024, worker_slots=2
        )
        models, __ = run_partial_merge_stream(
            {"cell": points}, k=10, restarts=1, resources=resources, seed=0
        )
        cap = resources.max_points_per_partition(6)
        partitions = models["cell"].partitions
        assert -(-5_000 // partitions) <= cap


def _distance_work(counters: KernelCounters) -> int:
    """Dense-equivalent distance evaluations of one or more Lloyd runs.

    ``computed + skipped`` is what the ``dense`` kernel would evaluate,
    whichever kernel ran, so the count measures the algorithm's work and
    not the kernel's shortcuts or the host's load.
    """
    return counters.distance_evals_computed + counters.distance_evals_skipped


class TestPaperShapeSmoke:
    """Tiny-scale sanity check of the paper's qualitative claims.

    Both claims are stated in counted distance work rather than seconds,
    so a busy host cannot flip them.
    """

    def test_partial_time_smaller_than_serial_at_scale(self):
        points = generate_cell_points(6_000, seed=3)
        serial = SerialKMeans(k=40, restarts=3, seed=0).fit(points)
        split = PartialMergeKMeans(
            k=40, restarts=3, n_chunks=10, seed=0
        ).fit(points)
        # The headline claim: chunked clustering does less work end to end.
        split_work = sum(
            _distance_work(p.counters) for p in split.partials
        ) + _distance_work(split.merge.counters)
        serial_counters = KernelCounters.from_dict(
            serial.extra["kernel_counters"]
        )
        assert split_work < _distance_work(serial_counters)

    def test_merge_time_is_small_fraction(self):
        points = generate_cell_points(4_000, seed=4)
        split = PartialMergeKMeans(
            k=40, restarts=3, n_chunks=5, seed=0
        ).fit(points)
        partial_work = sum(_distance_work(p.counters) for p in split.partials)
        assert _distance_work(split.merge.counters) < partial_work

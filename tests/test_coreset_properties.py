"""Property-based tests (hypothesis) for the coreset merge tree.

The contracts under test (ISSUE 6):

(a) a :class:`CoresetTreeSink` fed a partition stream produces final cell
    models **bit-identical** to a one-shot :class:`MergeKMeansSink` fed
    the same stream, for every kernel — the tree rides alongside the
    exact merge, it never changes it;
(b) total weight mass is conserved at every tree node (a node's summary
    carries exactly the mass of the leaves it covers);
(c) the prefix query after i partitions is bit-identical to the query of
    a fresh tree fed exactly the first i partitions, and independent of
    arrival order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import WeightedCentroidSet
from repro.core.recipe import Recipe
from repro.stream.coreset import CoresetTree, CoresetTreeSink
from repro.stream.items import CentroidMessage, Watermark
from repro.stream.kmeans_ops import MergeKMeansSink


@st.composite
def partition_streams(draw, min_partitions=1, max_partitions=12):
    """Strategy: one cell's partition stream of weighted centroid sets.

    Centroid coordinates and weights are drawn as exact float64 values,
    so every derived quantity in the tests is reproducible bit-for-bit.
    """
    n_partitions = draw(st.integers(min_partitions, max_partitions))
    dim = draw(st.integers(1, 4))
    coord = st.floats(
        min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
    )
    weight = st.floats(
        min_value=0.5, max_value=40.0, allow_nan=False, allow_infinity=False
    )
    messages = []
    for partition in range(n_partitions):
        k = draw(st.integers(1, 5))
        centroids = np.array(
            [[draw(coord) for _ in range(dim)] for _ in range(k)],
            dtype=np.float64,
        )
        weights = np.array([draw(weight) for _ in range(k)], dtype=np.float64)
        messages.append(
            CentroidMessage(
                cell_id="cell",
                partition=partition,
                summary=WeightedCentroidSet(
                    centroids=centroids,
                    weights=weights,
                    source=f"cell/P{partition}",
                ),
                n_partitions=n_partitions,
            )
        )
    return messages


def assert_sets_bit_identical(a: WeightedCentroidSet, b: WeightedCentroidSet):
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.weights, b.weights)


class TestTreeVersusOneShotMerge:
    @pytest.mark.parametrize("kernel", ["dense", "elkan"])
    @given(messages=partition_streams())
    @settings(max_examples=25, deadline=None)
    def test_final_models_bit_identical(self, kernel, messages):
        """(a) swapping in the tree sink changes no bit of any model."""
        plain = MergeKMeansSink(k=3, recipe=Recipe(kernel=kernel))
        tree = CoresetTreeSink(k=3, recipe=Recipe(kernel=kernel), query_every=1)
        for sink in (plain, tree):
            for message in messages:
                sink.consume(message)
            sink.consume(Watermark("cell", n_partitions=len(messages)))
        expected = plain.result()["cell"]
        actual = tree.result()["cell"]
        np.testing.assert_array_equal(expected.centroids, actual.centroids)
        np.testing.assert_array_equal(expected.weights, actual.weights)
        assert expected.mse == actual.mse
        assert expected.extra["merge_iterations"] == (
            actual.extra["merge_iterations"]
        )

    @given(messages=partition_streams())
    @settings(max_examples=25, deadline=None)
    def test_query_weight_matches_final_model_weight(self, messages):
        sink = CoresetTreeSink(k=3)
        for message in messages:
            sink.consume(message)
        models = sink.result()
        total = sum(m.summary.total_weight for m in messages)
        assert models["cell"].weights.sum() == pytest.approx(total)
        query = sink.final_queries["cell"]
        assert query.upto == len(messages)
        assert query.model.total_weight == pytest.approx(total)


class TestWeightConservation:
    @given(messages=partition_streams(min_partitions=2))
    @settings(max_examples=25, deadline=None)
    def test_every_node_conserves_weight(self, messages):
        """(b) each node's mass equals the mass of the leaves it covers."""
        tree = CoresetTree(k=3)
        for message in messages:
            tree.offer(message)
        mass = [m.summary.total_weight for m in messages]
        for node in tree.nodes():
            covered = sum(mass[node.start : node.end])
            assert node.total_weight == pytest.approx(
                covered, rel=1e-9, abs=1e-9
            )

    @given(messages=partition_streams(min_partitions=2))
    @settings(max_examples=25, deadline=None)
    def test_window_queries_conserve_weight(self, messages):
        tree = CoresetTree(k=3)
        for message in messages:
            tree.offer(message)
        mass = [m.summary.total_weight for m in messages]
        for last_n in (1, 2, len(messages)):
            answer = tree.query_window(last_n)
            covered = sum(mass[answer.start : answer.upto])
            assert answer.model.total_weight == pytest.approx(
                covered, rel=1e-9, abs=1e-9
            )


class TestPrefixQueryDeterminism:
    @given(messages=partition_streams(min_partitions=2))
    @settings(max_examples=20, deadline=None)
    def test_prefix_query_equals_fresh_tree_of_prefix(self, messages):
        """(c) querying mid-stream ≡ querying a tree holding only the
        prefix — the live tree's extra partitions never leak in."""
        live = CoresetTree(k=3)
        checkpoints = {}
        for message in messages:
            live.offer(message)
            checkpoints[live.n_inserted] = live.query_prefix()
        for upto, answer in checkpoints.items():
            fresh = CoresetTree(k=3)
            for message in messages[:upto]:
                fresh.offer(message)
            assert_sets_bit_identical(
                answer.model, fresh.query_prefix().model
            )

    @given(
        messages=partition_streams(min_partitions=2),
        order_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_arrival_order_is_irrelevant(self, messages, order_seed):
        """Out-of-order delivery (cloned partials, either backend) builds
        the same tree: answers are bit-identical to in-order delivery."""
        in_order = CoresetTree(k=3)
        for message in messages:
            in_order.offer(message)
        shuffled = CoresetTree(k=3)
        permuted = list(messages)
        np.random.default_rng(order_seed).shuffle(permuted)
        for message in permuted:
            shuffled.offer(message)
        assert shuffled.n_inserted == in_order.n_inserted
        assert shuffled.n_stashed == 0
        assert_sets_bit_identical(
            in_order.query_prefix().model, shuffled.query_prefix().model
        )
        for last_n in (1, len(messages)):
            assert_sets_bit_identical(
                in_order.query_window(last_n).model,
                shuffled.query_window(last_n).model,
            )

    @given(messages=partition_streams(min_partitions=2))
    @settings(max_examples=15, deadline=None)
    def test_kernels_bit_identical_on_node_merges(self, messages):
        trees = {}
        for kernel in ("dense", "elkan"):
            tree = CoresetTree(k=3, recipe=Recipe(kernel=kernel))
            for message in messages:
                tree.offer(message)
            trees[kernel] = tree.query_prefix().model
        assert_sets_bit_identical(trees["dense"], trees["elkan"])

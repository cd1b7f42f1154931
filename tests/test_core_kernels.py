"""Kernel layer tests: bit-identity, counters, selection, early abandon.

The load-bearing property is the determinism contract: every *exact*
kernel must produce bit-identical ``assignments``, ``centroids``, ``sse``
and ``iterations`` to the dense reference on every input — including
weighted merge-style configurations and empty-cluster repair paths —
because the engine's crash-resume and cross-backend determinism
guarantees are built on top of it.  The retired ``blas`` kernel, the
only inexact one there was, is refused by name everywhere.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    KERNEL_ENV_VAR,
    DenseKernel,
    ElkanKernel,
    KernelCounters,
    aggregate_weighted_sums,
    available_kernels,
    merge_counter_dicts,
    resolve_kernel,
)
from repro.core.kmeans import _repair_empty_clusters, lloyd
from repro.core.merge import merge_kmeans
from repro.core.model import WeightedCentroidSet
from repro.core.restarts import best_of_restarts

#: Exact-tier kernels checked bit-for-bit against the dense reference.
ALT_KERNELS = ("elkan",)


def _assert_identical(ref, alt, label):
    assert alt.assignments.tobytes() == ref.assignments.tobytes(), label
    assert alt.centroids.tobytes() == ref.centroids.tobytes(), label
    assert alt.cluster_weights.tobytes() == ref.cluster_weights.tobytes(), label
    assert alt.sse == ref.sse, label
    assert alt.mse == ref.mse, label
    assert alt.iterations == ref.iterations, label
    assert alt.converged == ref.converged, label


# ---------------------------------------------------------------------------
# Bit-identity property tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(8))
def test_kernels_bit_identical_randomized(case):
    """Random (n, k, d, weights, seeding) cases: all kernels, same bits."""
    rng = np.random.default_rng(1000 + case)
    n = int(rng.integers(50, 800))
    k = int(rng.integers(2, min(24, n // 2)))
    d = int(rng.integers(1, 12))
    pts = rng.normal(scale=rng.uniform(0.5, 50.0), size=(n, d))
    weights = (
        None if case % 3 == 0 else rng.uniform(0.0, 5.0, size=n)
    )
    seeds = pts[rng.choice(n, size=k, replace=False)]
    max_iter = int(rng.integers(5, 60))
    ref = lloyd(pts, seeds, weights=weights, max_iter=max_iter, kernel="dense")
    for name in ALT_KERNELS:
        alt = lloyd(pts, seeds, weights=weights, max_iter=max_iter, kernel=name)
        _assert_identical(ref, alt, (name, case))


def test_kernels_bit_identical_clustered_data():
    """Well-separated clusters (the pruning-friendly case)."""
    rng = np.random.default_rng(7)
    centers = rng.uniform(-100, 100, size=(10, 6))
    pts = np.vstack(
        [c + rng.normal(scale=0.5, size=(200, 6)) for c in centers]
    )
    seeds = pts[rng.choice(pts.shape[0], size=10, replace=False)]
    ref = lloyd(pts, seeds, kernel="dense")
    for name in ALT_KERNELS:
        _assert_identical(ref, lloyd(pts, seeds, kernel=name), name)


def test_kernels_bit_identical_weighted_merge_configuration():
    """The merge step's shape: few heavy weighted points, duplicates."""
    rng = np.random.default_rng(11)
    # Pooled partial summaries: many near-duplicate centroids with
    # point-count weights, exactly what merge_kmeans clusters.
    base = rng.normal(size=(12, 4))
    pooled = np.vstack([base + rng.normal(scale=1e-3, size=base.shape)
                        for _ in range(8)])
    weights = rng.integers(1, 500, size=pooled.shape[0]).astype(float)
    partials = [
        WeightedCentroidSet(pooled[i::8], weights[i::8], source=f"P{i}")
        for i in range(8)
    ]
    ref = merge_kmeans(partials, k=12, kernel="dense")
    for name in ALT_KERNELS:
        alt = merge_kmeans(partials, k=12, kernel=name)
        assert alt.model.centroids.tobytes() == ref.model.centroids.tobytes()
        assert alt.model.weights.tobytes() == ref.model.weights.tobytes()
        assert alt.mse == ref.mse
        assert alt.iterations == ref.iterations


def test_kernels_bit_identical_through_empty_cluster_repair():
    """Seeds chosen so some clusters start (and stay) empty."""
    rng = np.random.default_rng(3)
    pts = np.vstack(
        [
            rng.normal(loc=0.0, scale=0.1, size=(100, 3)),
            rng.normal(loc=50.0, scale=0.1, size=(100, 3)),
        ]
    )
    # All seeds in one clump: the far clump's seeds go empty on iteration
    # one and the repair path must fire.
    seeds = np.repeat(pts[:1], 6, axis=0) + rng.normal(
        scale=1e-6, size=(6, 3)
    )
    ref = lloyd(pts, seeds, kernel="dense")
    assert ref.iterations >= 1
    for name in ALT_KERNELS:
        _assert_identical(ref, lloyd(pts, seeds, kernel=name), name)


def test_kernels_bit_identical_duplicate_centroids():
    """Exact distance ties must keep argmin's first-index behaviour."""
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(300, 2))
    seeds = np.vstack([pts[0], pts[0], pts[10], pts[20]])  # duplicated seed
    ref = lloyd(pts, seeds, kernel="dense", max_iter=20)
    for name in ALT_KERNELS:
        _assert_identical(ref, lloyd(pts, seeds, kernel=name, max_iter=20), name)


def test_kernels_bit_identical_through_restarts():
    """best_of_restarts consumes identical RNG streams per kernel."""
    rng_pts = np.random.default_rng(21)
    pts = rng_pts.normal(size=(400, 5))
    ref = best_of_restarts(
        pts, k=8, restarts=4, rng=np.random.default_rng(2), kernel="dense"
    )
    for name in ALT_KERNELS:
        alt = best_of_restarts(
            pts, k=8, restarts=4, rng=np.random.default_rng(2), kernel=name
        )
        assert alt.mses == ref.mses
        assert alt.iteration_counts == ref.iteration_counts
        assert alt.best_index == ref.best_index
        _assert_identical(ref.best, alt.best, name)


def test_kernels_bit_identical_high_k_regime():
    """k >= 40: the regime the elkan group bounds exist for."""
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(2000, 6))
    seeds = pts[rng.choice(2000, size=48, replace=False)]
    ref = lloyd(pts, seeds, kernel="dense", max_iter=30)
    for name in ALT_KERNELS:
        alt = lloyd(pts, seeds, kernel=name, max_iter=30)
        _assert_identical(ref, alt, (name, "k=48"))


# ---------------------------------------------------------------------------
# Input dtype / memory-layout coverage (satellite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "layout", ["float32", "fortran", "strided", "fortran32"]
)
def test_kernels_accept_every_input_layout(layout):
    """float32 / Fortran-ordered / non-contiguous inputs: every kernel.

    ``lloyd`` canonicalises inputs to float64 C-contiguous before the
    kernel sees them, so every kernel must give the same answer for the
    same logical values regardless of the caller's dtype or layout.
    """
    rng = np.random.default_rng(31)
    base = rng.normal(size=(240, 5))
    seeds = base[rng.choice(240, size=9, replace=False)].copy()
    if layout == "float32":
        pts = base.astype(np.float32)
    elif layout == "fortran":
        pts = np.asfortranarray(base)
    elif layout == "strided":
        padded = rng.normal(size=(480, 5))
        padded[::2] = base
        pts = padded[::2]
        assert not pts.flags["C_CONTIGUOUS"]
    else:
        pts = np.asfortranarray(base.astype(np.float32))
    # Reference computed from the canonical float64 copy of the same values.
    canonical = np.ascontiguousarray(pts, dtype=np.float64)
    ref = lloyd(canonical, seeds, kernel="dense", max_iter=25)
    for name in ("dense",) + ALT_KERNELS:
        alt = lloyd(pts, seeds, kernel=name, max_iter=25)
        _assert_identical(ref, alt, (name, layout))


# ---------------------------------------------------------------------------
# Hypothesis property test (satellite): the contract on random shapes
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=8, max_value=160),
    k=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=10),
)
def test_property_exact_kernels_bit_identical(seed, n, k, d):
    """Any (n, k, d): exact kernels reproduce dense bit for bit."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=rng.uniform(1e-2, 1e2), size=(n, d))
    seeds = pts[rng.choice(n, size=k, replace=False)]
    ref = lloyd(pts, seeds, kernel="dense", max_iter=15)
    for name in ALT_KERNELS:
        alt = lloyd(pts, seeds, kernel=name, max_iter=15)
        _assert_identical(ref, alt, (name, seed, n, k, d))


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def test_dense_counters_account_every_evaluation():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 4))
    seeds = pts[:8]
    result = lloyd(pts, seeds, kernel="dense")
    counters = result.counters
    assert counters is not None and counters.kernel == "dense"
    # One full (n, k) pass per iteration, +1 for repair re-assigns (none
    # here) and +1 for the final post-loop assignment.
    assert counters.assign_calls == result.iterations + 1
    assert counters.distance_evals_computed == counters.assign_calls * 200 * 8
    assert counters.distance_evals_skipped == 0
    assert counters.bound_check_hits == 0


@pytest.mark.parametrize("name", ALT_KERNELS)
def test_bounds_kernels_account_every_evaluation(name):
    rng = np.random.default_rng(1)
    centers = rng.uniform(-50, 50, size=(8, 5))
    pts = np.vstack([c + rng.normal(scale=0.3, size=(250, 5)) for c in centers])
    seeds = pts[rng.choice(pts.shape[0], 8, replace=False)]
    dense = lloyd(pts, seeds, kernel="dense")
    fast = lloyd(pts, seeds, kernel=name)
    assert fast.counters.distance_evals_skipped > 0
    assert fast.counters.bound_check_hits > 0
    # The pruning must translate into strictly less distance work than
    # the dense reference, and the accounting is exact: every evaluation
    # is either computed or provably skipped, never double-counted.
    assert (
        fast.counters.distance_evals_computed
        < dense.counters.distance_evals_computed
    )
    assert (
        fast.counters.distance_evals_computed
        + fast.counters.distance_evals_skipped
        == dense.counters.distance_evals_computed
    )
    assert fast.counters.assign_seconds >= 0.0
    # One group-bound set maintained per assignment pass.
    assert fast.counters.bound_groups >= fast.counters.assign_calls


def test_counters_dict_roundtrip_and_merge():
    # "hamerly" is a retired kernel: the name is a label, never resolved.
    a = KernelCounters("hamerly", 100, 50, 10, 2, 0.5)
    b = KernelCounters.from_dict(a.as_dict())
    assert b == a
    assert KernelCounters.from_dict(None) is None
    # Unknown keys (future fields) are tolerated.
    payload = a.as_dict()
    payload["novel_field"] = 1
    assert KernelCounters.from_dict(payload) == a
    agg = KernelCounters()
    agg.merge(a)
    agg.merge(a)
    assert agg.distance_evals_computed == 200
    assert agg.kernel == "hamerly"
    merged = merge_counter_dicts({}, a.as_dict())
    merged = merge_counter_dicts(merged, a.as_dict())
    assert merged["distance_evals_computed"] == 200
    assert merged["kernel"] == "hamerly"
    assert merge_counter_dicts({"x": 1}, None) == {"x": 1}


def test_counters_from_dict_keeps_unknown_kernel_name_verbatim():
    """Old journals carry retired kernel names; reading must not resolve."""
    payload = KernelCounters("elkan", 7, 3).as_dict()
    payload["kernel"] = "hamerly"
    counters = KernelCounters.from_dict(payload)
    assert counters.kernel == "hamerly"
    assert counters.as_dict() == payload
    # blas runs also wrote two fields this version no longer has.
    blas = dict(payload, kernel="blas", gemm_calls=7, refine_rows=13)
    counters = KernelCounters.from_dict(blas)
    assert counters.kernel == "blas"
    assert counters.as_dict() == dict(payload, kernel="blas")
    assert len(fields(KernelCounters)) == 7


def test_counters_dict_carries_new_fields():
    a = KernelCounters("elkan", bound_groups=5)
    payload = a.as_dict()
    assert payload["bound_groups"] == 5
    roundtrip = KernelCounters.from_dict(payload)
    assert roundtrip == a
    merged = merge_counter_dicts({}, payload)
    merged = merge_counter_dicts(merged, payload)
    assert merged["bound_groups"] == 10


# ---------------------------------------------------------------------------
# Selection: one knob — the kernel's name (argument or environment)
# ---------------------------------------------------------------------------


def test_available_kernels_lists_all_four():
    # (Historical test id, pinned by the tier-1 floor list: two today.)
    assert available_kernels() == ("dense", "elkan")


def test_resolve_kernel_precedence(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert isinstance(resolve_kernel(None), DenseKernel)
    assert isinstance(resolve_kernel("elkan"), ElkanKernel)
    monkeypatch.setenv(KERNEL_ENV_VAR, "elkan")
    assert isinstance(resolve_kernel(None), ElkanKernel)
    # Explicit argument beats the environment.
    assert isinstance(resolve_kernel("dense"), DenseKernel)
    # Instances pass through untouched.
    instance = ElkanKernel()
    assert resolve_kernel(instance) is instance
    monkeypatch.setenv(KERNEL_ENV_VAR, "")
    assert isinstance(resolve_kernel(None), DenseKernel)


def test_resolve_kernel_rejects_unknown(monkeypatch):
    """Unknown and retired names alike: one error naming value and choices."""
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    for name in ("fancy", "hamerly", "tiled", "blas"):
        with pytest.raises(ValueError, match="unknown k-means kernel") as info:
            resolve_kernel(name)
        message = str(info.value)
        assert repr(name) in message
        assert "dense, elkan" in message
        assert KERNEL_ENV_VAR not in message


def test_resolve_kernel_names_env_var_for_bad_env_value(monkeypatch):
    """A bad REPRO_KMEANS_KERNEL value must be blamed on the env var."""
    for name in ("fancy", "hamerly", "blas"):
        monkeypatch.setenv(KERNEL_ENV_VAR, name)
        with pytest.raises(ValueError) as excinfo:
            resolve_kernel(None)
        message = str(excinfo.value)
        assert KERNEL_ENV_VAR in message
        assert repr(name) in message
        assert "dense, elkan" in message


def test_retired_blas_name_fails_loudly(monkeypatch):
    """Named as an argument or in the environment, lloyd refuses blas."""
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(120, 3))
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    # Nor is the waiver variable of the blas era consulted.
    monkeypatch.setenv("REPRO_KMEANS_EXACT", "maybe")
    assert isinstance(resolve_kernel(None), DenseKernel)
    with pytest.raises(ValueError, match="'blas'; expected one of dense, elkan"):
        lloyd(pts, pts[:5], kernel="blas")
    monkeypatch.setenv(KERNEL_ENV_VAR, "blas")
    with pytest.raises(ValueError) as excinfo:
        lloyd(pts, pts[:5])
    message = str(excinfo.value)
    assert f"{KERNEL_ENV_VAR}='blas'" in message
    assert message.endswith("expected one of dense, elkan")


def test_env_knob_drives_lloyd(monkeypatch):
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(120, 3))
    seeds = pts[:5]
    monkeypatch.setenv(KERNEL_ENV_VAR, "elkan")
    via_env = lloyd(pts, seeds)
    assert via_env.kernel == "elkan"
    monkeypatch.delenv(KERNEL_ENV_VAR)
    ref = lloyd(pts, seeds)
    assert ref.kernel == "dense"
    _assert_identical(ref, via_env, "env knob")


# ---------------------------------------------------------------------------
# Aggregation helper
# ---------------------------------------------------------------------------


def test_aggregate_weighted_sums_matches_scatter_add():
    rng = np.random.default_rng(9)
    for n, k, d in [(500, 7, 3), (64, 64, 17), (1000, 2, 1)]:
        weighted = rng.normal(size=(n, d))
        assignments = rng.integers(0, k, size=n)
        expected = np.zeros((k, d))
        np.add.at(expected, assignments, weighted)
        got = aggregate_weighted_sums(weighted, assignments, k)
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Empty-cluster repair regression (satellite: penalty refresh per donor)
# ---------------------------------------------------------------------------


def test_repair_two_empties_pick_distinct_regions():
    """Two simultaneously empty clusters must not take near-duplicate donors.

    Construction: the current assignment leaves the two farthest points as
    near-duplicates at x=100 (distances 10000 and ~10000), with the next
    independent outlier at x=50.  The stale-penalty bug reseeds the second
    empty centroid onto the *twin* of the first donor (its penalty was
    never refreshed against the new centroid); the fixed repair lowers the
    twin's penalty to ~1e-6 and picks the x=50 outlier instead.
    """
    points = np.array(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [100.0, 0.0],
            [100.0, 1e-3],
            [50.0, 0.0],
        ]
    )
    n = points.shape[0]
    weights = np.ones(n)
    centroids = np.zeros((3, 2))  # clusters 1 and 2 are empty
    assignments = np.zeros(n, dtype=np.intp)
    sq_dists = (points**2).sum(axis=1)
    empty = np.array([1, 2])
    _repair_empty_clusters(
        centroids, points, weights, assignments, sq_dists, empty
    )
    donors = [tuple(centroids[1]), tuple(centroids[2])]
    # Exactly one donor from the x=100 twin pair — the buggy version took
    # both twins and left the x=50 outlier unrepresented.
    twins = sum(1 for donor in donors if donor[0] == 100.0)
    assert twins == 1, donors
    assert (50.0, 0.0) in donors


def test_repair_degenerate_data_leaves_centroids():
    """All points on their centroids: nothing positive to donate."""
    points = np.zeros((4, 2))
    centroids = np.array([[0.0, 0.0], [9.0, 9.0]])
    assignments = np.zeros(4, dtype=np.intp)
    sq_dists = np.zeros(4)
    _repair_empty_clusters(
        centroids, points, np.ones(4), assignments, sq_dists, np.array([1])
    )
    assert centroids[1].tolist() == [9.0, 9.0]


def test_lloyd_repairs_multiple_empty_clusters_distinctly():
    """End-to-end: three tight clumps, all seeds exactly coincident.

    Iteration one assigns every point to cluster 0 (first-index ties), so
    clusters 1 and 2 are simultaneously empty and both get repaired in the
    same call — the regression scenario for the stale-penalty bug.
    """
    rng = np.random.default_rng(23)
    clumps = [
        rng.normal(loc=(0, 0), scale=0.01, size=(50, 2)),
        rng.normal(loc=(100, 0), scale=0.01, size=(2, 2)),
        rng.normal(loc=(0, 100), scale=0.01, size=(2, 2)),
    ]
    pts = np.vstack(clumps)
    seeds = np.repeat(pts[:1], 3, axis=0)
    result = lloyd(pts, seeds)
    # Every clump ends up owning at least one centroid: the repair spread
    # the empty centroids over distinct badly-represented regions.
    assigned_clumps = {
        int(np.argmin([np.abs(c - ctr).sum() for ctr in ((0, 0), (100, 0), (0, 100))]))
        for c in result.centroids
    }
    assert assigned_clumps == {0, 1, 2}
    assert result.sse < 1.0

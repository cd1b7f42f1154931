"""Pluggable Lloyd-iteration backends: two exact, bit-identical kernels.

Every stage of the pipeline — the serial baseline, the partial operator,
and the merge operator — funnels through :func:`repro.core.kmeans.lloyd`,
which delegates the per-iteration *assignment step* to one of the kernels
defined here.

* ``dense`` — the reference, and the default for small runs: every
  (point, centroid) distance by ``cdist`` per iteration, exactly the
  seed implementation's behaviour, scored on the caller's thread in row
  tiles of at most ``_TILE_BYTES`` (:class:`DenseKernel`); the tiles do
  not change a bit of the output.
* ``elkan`` — a Yinyang-style group-bounds kernel: each point keeps one
  lower bound per *group* of ``≈ 8`` centroids, deflated by that
  group's own maximum drift, plus an Elkan-style inter-centroid filter;
  only bound-check survivors get an exact full candidate row
  (:class:`ElkanKernel`).  The default for runs of at least
  ``_BOUNDS_MIN_PAIRS`` (point, centroid) pairs.

**Determinism contract.**  ``dense`` and ``elkan`` produce bit-identical
``assignments``, per-point squared distances, and therefore
``centroids``, ``sse`` and ``iterations``, including ``np.argmin``'s
first-index tie-breaking.  Two mechanisms enforce this:

1. every distance value that can influence an output is produced by
   ``scipy.spatial.distance.cdist(..., "sqeuclidean")`` on float64
   C-contiguous inputs — ``cdist`` computes each pair independently, so a
   subset call (one centroid column, a contiguous group of rows) is
   bit-equal to the corresponding entries of the full matrix — and
2. pruning decisions are strictly *conservative*: bounds carry guard
   bands (``_GUARD``, ``_GUARD32``) absorbing floating-point
   drift-update and float32-storage error, so a pruned point is
   *provably* strictly closest to its kept centroid — no tie possible.

Kernel selection: pass ``kernel=`` (a name or a :class:`LloydKernel`
instance) or set ``REPRO_KMEANS_KERNEL``; the explicit argument wins.
With neither, :func:`resolve_kernel` picks by the run's size — ``elkan``
from ``_BOUNDS_MIN_PAIRS`` (point, centroid) pairs up, ``dense`` below —
which changes no bit, only the time.  Unknown names raise a
``ValueError`` naming the bad value, the valid kernels, and — when the
name came from the environment — the variable itself.

Centroid aggregation uses one ``np.bincount`` per dimension
(:func:`aggregate_weighted_sums`) — the same sequential accumulation
order as the seed's ``np.add.at``, so bit-identical sums.  The ``elkan``
kernel re-sums only clusters whose *membership changed* (a subset
``bincount`` over their members preserves per-bin accumulation order,
hence bits); unchanged clusters reuse cached sums verbatim.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "KERNEL_ENV_VAR",
    "KernelCounters",
    "LloydKernel",
    "DenseKernel",
    "ElkanKernel",
    "available_kernels",
    "resolve_kernel",
    "aggregate_weighted_sums",
]

#: Environment variable selecting the default kernel.
KERNEL_ENV_VAR = "REPRO_KMEANS_KERNEL"

#: Relative guard band on float64 bounds.  Accumulated floating-point
#: error on a drift-updated bound is a few ulps (~1e-16 relative) per
#: iteration; deflating the lower bound by 1e-9 per update absorbs that
#: with ~6 orders of magnitude to spare while costing essentially no
#: pruning power (a point is kept only when its two nearest centroids are
#: within 1e-9 relative distance — at which point recomputing is correct).
_GUARD = 1e-9

#: Relative guard band on *float32-stored* group lower bounds (elkan).
#: float32 rounding is ~6e-8 relative per store/subtract; 4e-6 dominates
#: every rounding in the store → drift-subtract → compare chain while
#: still pruning everything not within 4e-6 relative of a tie.
_GUARD32 = 4e-6

#: Byte budget for one live score block, shared by both kernels: a pass
#: scores at most this much of its (points × centroids) matrix at once,
#: so its working set is the points, O(n) buffers and one tile.  Tiles
#: of 1 MiB (3 276 float64 rows at k = 40) measured within 3 % of 4 MiB
#: tiles and of the untiled pass, for every kernel, at 4 000 to 50 000
#: points on a 2-vCPU host.
_TILE_BYTES = 1 << 20

#: With no kernel named, a ``lloyd`` run whose passes score at least
#: this many (point, centroid) pairs runs ``elkan`` and a smaller one
#: ``dense``: the crossover of the ``BENCH_kernel.json`` rows at k = 40,
#: d = 6, ``max_iter=25`` on a 2-vCPU host.  2 000 points (this many
#: pairs) tie within 5 %; at 1 000 ``dense`` is 1.6x faster, from 4 000
#: up ``elkan`` is 1.4x and more (``docs/kernels.md``, "Which kernel
#: runs by default").
_BOUNDS_MIN_PAIRS = 80_000


def _tile_rows(k: int) -> int:
    """Rows per tile so a ``(rows, k)`` block of float64 scores fits."""
    return max(1, _TILE_BYTES // (8 * max(1, k)))


@dataclass
class KernelCounters:
    """Instrumentation for one (or an aggregate of) Lloyd kernel run(s).

    Attributes:
        kernel: kernel name the counters belong to.
        distance_evals_computed: point-centroid distance evaluations
            actually performed.
        distance_evals_skipped: evaluations a dense kernel would have
            performed that this kernel proved redundant.
        bound_check_hits: points whose bound test pruned the full
            candidate scan in some iteration.
        assign_calls: kernel assignment passes executed.
        assign_seconds: wall time spent inside assignment passes.
        bound_groups: centroid groups whose lower bounds were maintained,
            summed over assignment passes (elkan; 0 for dense).
    """

    kernel: str = "dense"
    distance_evals_computed: int = 0
    distance_evals_skipped: int = 0
    bound_check_hits: int = 0
    assign_calls: int = 0
    assign_seconds: float = 0.0
    bound_groups: int = 0

    def merge(self, other: "KernelCounters | None") -> None:
        """Accumulate ``other`` into this aggregate (in place)."""
        if other is None:
            return
        self.kernel = other.kernel or self.kernel
        for name in _COUNT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        """JSON-safe representation (used by stream messages and traces)."""
        # Cast through each field's declared default type so numpy scalars
        # accumulated by the kernels serialise as plain int/float.
        return {
            f.name: type(f.default)(getattr(self, f.name))
            for f in fields(self)
        }

    @staticmethod
    def from_dict(payload: dict | None) -> "KernelCounters | None":
        """Rebuild counters from :meth:`as_dict` output (``None`` passes)."""
        if payload is None:
            return None
        # The kernel name is a label, kept verbatim and never resolved,
        # and fields this version does not know are dropped: journals
        # written by retired kernels must keep replaying.
        known = {f.name for f in fields(KernelCounters)}
        return KernelCounters(
            **{key: value for key, value in payload.items() if key in known}
        )


#: The additive fields of :class:`KernelCounters` (everything but the name).
_COUNT_FIELDS = tuple(
    f.name for f in fields(KernelCounters) if f.name != "kernel"
)


def merge_counter_dicts(target: dict, source: dict | None) -> dict:
    """Accumulate a counters dict (``as_dict`` shape) into ``target``.

    Numeric fields add; the ``kernel`` name is carried over (last writer
    wins — mixed-kernel aggregates keep the most recent name).
    """
    if source:
        for key, value in source.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                target[key] = target.get(key, 0) + value
            else:
                target[key] = value
    return target


def _pair_sq_distances(points: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Exact squared distances of ``points`` to one centroid, cdist-bitwise.

    The centroid goes on the *left*: ``cdist`` vectorises its inner loop
    over the second operand's rows, so the ``(1, m)`` orientation runs
    ~9x faster than ``(m, 1)`` while staying bit-equal (``cdist``
    evaluates each pair independently and symmetrically).
    """
    return cdist(centroid.reshape(1, -1), points, metric="sqeuclidean")[0]


def _grouped_assigned_sq(
    points: np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
    out: np.ndarray,
    rows: np.ndarray | None = None,
) -> None:
    """Write each point's exact squared distance to its centroid to ``out``.

    Values are bitwise equal to the corresponding entries of the full
    dense ``cdist`` matrix (``cdist`` evaluates pairs independently).
    Points are grouped by centroid so each group is one vectorised call,
    gathered at most ``_TILE_BYTES`` of points at a time into one reused
    buffer: no copy of the points outlives the call, and none is larger
    than a tile.

    When ``rows`` is given only those point indices are evaluated (and
    only those slots of ``out`` written).
    """
    k, dim = centroids.shape
    labels = assignments if rows is None else assignments[rows]
    order = _label_argsort(labels, k)
    bounds = np.zeros(k + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
    del labels
    if rows is not None:
        order = rows[order]
    step = _tile_rows(dim)
    buffer = np.empty((min(step, order.size), dim), dtype=np.float64)
    for j in range(k):
        for lo in range(bounds[j], bounds[j + 1], step):
            tile = order[lo:min(bounds[j + 1], lo + step)]
            block = buffer[:tile.size]
            np.take(points, tile, axis=0, out=block)
            out[tile] = _pair_sq_distances(block, centroids[j])


def _label_argsort(assignments: np.ndarray, k: int) -> np.ndarray:
    """Stable argsort of cluster labels via a narrowed radix-friendly copy.

    Labels are small ints: sorting a narrowed copy runs a one/two-byte
    radix pass instead of a 64-bit merge sort (~6x faster here) with an
    identical stable order.
    """
    if k <= 256:
        return np.argsort(assignments.astype(np.uint8), kind="stable")
    if k <= 65536:
        return np.argsort(assignments.astype(np.uint16), kind="stable")
    return np.argsort(assignments, kind="stable")


def _centroid_groups(k: int, target_size: int = 8) -> np.ndarray:
    """Boundaries of ``G ≈ k/target_size`` contiguous centroid groups.

    Returns ``starts`` with ``G + 1`` entries delimiting equal-width index
    ranges ``[starts[g], starts[g+1])``.  Groups are contiguous in the
    *original* centroid order: measurements show spatial grouping (e.g.
    sorting by first coordinate) prunes no better here, and index-range
    groups let every per-group reduction run as a cheap ``reshape`` +
    ``min`` instead of a ``take`` + ``reduceat``.  Grouping only affects
    pruning power, never outputs.
    """
    n_groups = max(1, (k + target_size - 1) // target_size)
    return (np.arange(n_groups + 1, dtype=np.intp) * k) // n_groups


def _group_min_t(mat_t: np.ndarray, gstarts: np.ndarray) -> np.ndarray:
    """Per-column minimum of a *transposed* ``(k, m)`` score matrix.

    Returns ``(G, m)``.  Reducing over contiguous row slices (axis 0)
    vectorises across the ``m`` points; reducing over a short last axis
    (the ``(m, k)`` orientation) is ~10x slower in numpy, which is why
    every hot path here carries scores transposed.
    """
    n_groups = gstarts.size - 1
    out = np.empty((n_groups, mat_t.shape[1]), dtype=mat_t.dtype)
    for g in range(n_groups):
        mat_t[gstarts[g]:gstarts[g + 1]].min(axis=0, out=out[g])
    return out


def _min_argmin_t(mat_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise ``(min, argmin)`` of a transposed ``(k, m)`` matrix.

    min + first-True match beats ``argmin(axis=0)`` ~2x and keeps the
    identical first-index tie-break: ``argmax`` on the boolean equality
    matrix returns the first row whose value equals the columnwise
    minimum.
    """
    best = np.minimum.reduce(mat_t, axis=0)
    return best, (mat_t == best).argmax(axis=0)


def _half_nearest_centroid(centroids: np.ndarray) -> np.ndarray:
    """Elkan radius ``s(a) = ½·min_{j≠a} d(c_a, c_j)`` per centroid."""
    cc = cdist(centroids, centroids, metric="euclidean")
    np.fill_diagonal(cc, np.inf)
    return 0.5 * cc.min(axis=1)


class LloydKernel:
    """One Lloyd assignment backend; holds per-run state between iterations.

    Lifecycle (driven by :func:`repro.core.kmeans.lloyd`)::

        kernel.start(points)
        repeat:
            assignments, sq_dists = kernel.assign(centroids)
            # (empty-cluster repair mutates centroids -> kernel.invalidate())
            sums = kernel.aggregate(weighted_points, assignments, k)
            kernel.notify_update(old_centroids, new_centroids)

    Every kernel is bit-identical to the dense reference.  Kernel
    instances are single-run and not thread-safe; ``resolve_kernel``
    hands out a fresh instance per ``lloyd`` call.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.counters = KernelCounters(kernel=self.name)
        self._points: np.ndarray | None = None
        self._reset()

    def start(self, points: np.ndarray) -> None:
        """Begin a run over ``points`` (already float64 C-contiguous)."""
        self._points = points
        self.counters = KernelCounters(kernel=self.name)
        self._reset()

    def _reset(self) -> None:
        """Drop all per-run state (shared by ``__init__`` and ``start``)."""

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(assignments, sq_dists)`` for the current centroids.

        Times and counts the pass around the kernel's :meth:`_assign`.
        """
        assert self._points is not None, "kernel used before start()"
        started = time.perf_counter()
        try:
            return self._assign(centroids)
        finally:
            self.counters.assign_calls += 1
            self.counters.assign_seconds += time.perf_counter() - started

    def _assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One pass, bit-identical to ``cdist`` + first-index ``argmin``."""
        raise NotImplementedError

    def aggregate(
        self, weighted_points: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Per-cluster sums of weighted points for the update step.

        The base implementation is the shared bit-exact ``bincount``
        aggregation; kernels may override it with something faster as
        long as it keeps the bits.  The returned array may be
        kernel-owned — callers must not mutate it.
        """
        return aggregate_weighted_sums(weighted_points, assignments, k)

    def cluster_mass(
        self, weights: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Per-cluster total weight for the current assignment.

        The base implementation is the reference weighted ``bincount``;
        bounds kernels override it to update only the clusters whose
        membership changed (bit-identical — a subset ``bincount``
        accumulates each bin in the same increasing-row order as the
        full one).  The returned array may be kernel-owned — callers
        must not mutate it.
        """
        return np.bincount(assignments, weights=weights, minlength=k)

    def notify_update(
        self, old_centroids: np.ndarray, new_centroids: np.ndarray
    ) -> None:
        """Observe the centroid update step (drift bookkeeping)."""

    def invalidate(self) -> None:
        """Drop cached bounds (an empty-cluster repair teleported a centroid)."""


def _assign_rows(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The dense pass: ``(assignments, sq_dists)`` of every row.

    The rows are scored one ``_TILE_BYTES`` tile at a time.  ``cdist``
    evaluates pairs independently and ``argmin`` is per row, so the tiles
    yield the bits of one full pass.
    """
    n = points.shape[0]
    assignments = np.empty(n, dtype=np.intp)
    sq_dists = np.empty(n, dtype=np.float64)
    step = _tile_rows(centroids.shape[0])
    for start in range(0, n, step):
        stop = min(n, start + step)
        d2 = cdist(points[start:stop], centroids, metric="sqeuclidean")
        rows = assignments[start:stop]
        np.argmin(d2, axis=1, out=rows)
        sq_dists[start:stop] = d2[np.arange(stop - start), rows]
    return assignments, sq_dists


class DenseKernel(LloydKernel):
    """The reference kernel: every (point, centroid) pair, every iteration.

    Each pass scores all ``n·k`` pairs with ``cdist`` on the caller's
    thread, one tile at a time (:func:`_assign_rows`).
    """

    name = "dense"

    def _assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points
        self.counters.distance_evals_computed += pts.shape[0] * centroids.shape[0]
        return _assign_rows(pts, centroids)


class ElkanKernel(LloydKernel):
    """Group-bounds (Yinyang-style) kernel for the high-``k`` regime.

    State per point: the assignment, the exact squared assigned distance
    as of the last pass, and one float32 lower bound per *centroid group*
    (:func:`_centroid_groups`, ``G ≈ k/8`` groups), stored un-deflated
    together with the group's cumulative drift at refresh time.  At test
    time the bound is reconstructed as ``stored − cumulative_drift_now``,
    so a centroid update costs ``O(k)``, not ``O(n·G)``.  Guard bands
    (``_GUARD32``) make every float32 rounding strictly conservative.

    A pass first makes every point's assigned distance exact again, in
    place: points whose assigned centroid is bitwise unchanged keep last
    pass's value verbatim, the members of clusters that moved get one
    exact evaluation each, grouped by cluster a tile at a time
    (:func:`_grouped_assigned_sq`).  The bound test then compares the
    *exact* assigned distance (no drift slack on the upper side —
    Yinyang's local filter) against the tightest group bound and the
    Elkan inter-centroid radius ``s(a) = ½·min_{j≠a} d(c_a, c_j)``; only
    the few genuine survivors get an exact full ``cdist`` row (same
    argmin/tie-break as dense), which also refreshes their group bounds.

    Memory: the per-point state is the assignment, the assigned distance
    and the ``(G, n)`` float32 bounds — no copy of the points — plus
    ``O(n)`` temporaries and one tile per pass, so a ``lloyd`` call
    stays inside the same ≤ 2× point-bytes bound as ``dense``.

    Every output-bearing value comes from ``cdist`` on float64 inputs, so
    outputs are bit-identical to the dense reference; the accounting
    identity ``computed + skipped == dense computed`` holds exactly.
    """

    name = "elkan"

    def _reset(self) -> None:
        self._assignments: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None
        self._lower: np.ndarray | None = None  # (G, n) float32, +CD offset
        self._cum_drift: np.ndarray | None = None  # (G,) float64
        self._gstarts: np.ndarray | None = None
        self._valid = False
        self._moved: np.ndarray | None = None
        # Exact incremental aggregation cache.
        self._agg_sums: np.ndarray | None = None
        self._agg_k = -1
        self._agg_rebuild = True
        self._agg_changed: np.ndarray | None = None  # (k,) bool
        # Exact incremental cluster-mass cache (+ shared member gather).
        self._mass: np.ndarray | None = None
        self._mass_k = -1
        self._members: tuple[np.ndarray, np.ndarray] | None = None

    def invalidate(self) -> None:
        self._valid = False
        self._agg_rebuild = True
        self._members = None

    def _full_refresh(
        self, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points
        assert pts is not None
        n, k = pts.shape[0], centroids.shape[0]
        self._gstarts = _centroid_groups(k)
        n_groups = self._gstarts.size - 1
        self._cum_drift = np.zeros(n_groups, dtype=np.float64)
        self._lower = np.full((n_groups, n), np.inf, dtype=np.float32)
        assignments = np.empty(n, dtype=np.intp)
        sq_dists = np.empty(n, dtype=np.float64)
        step = _tile_rows(k)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            # Transposed (k, m) tile: ``cdist`` evaluates each pair
            # independently and symmetrically, so entries are bit-equal
            # to the (n, k) orientation, and axis-0 reductions vectorise
            # across points.
            d2t = cdist(centroids, pts[lo:hi], metric="sqeuclidean")
            sq_dists[lo:hi], assignments[lo:hi] = _min_argmin_t(d2t)
            if k >= 2:
                # Mask the assigned entry so every group bound is a lower
                # bound on the distance to the *other* centroids of the
                # group.
                d2t[assignments[lo:hi], np.arange(hi - lo)] = np.inf
                lower = np.sqrt(_group_min_t(d2t, self._gstarts))
                lower *= 1.0 - _GUARD32
                self._lower[:, lo:hi] = lower

        self._assignments = assignments
        self._sq_dists = sq_dists
        self._moved = None
        self._valid = True
        self._agg_rebuild = True
        self._members = None
        self.counters.distance_evals_computed += n * k
        self.counters.bound_groups += n_groups
        return assignments, sq_dists

    def _tightest_group_bound(self) -> np.ndarray:
        """Per-point minimum over groups of the drift-deflated bounds.

        Stored bounds share a per-group scalar cumulative-drift offset,
        inflated slightly so the float32 subtraction is strictly
        conservative.
        """
        lower = self._lower
        adj = self._cum_drift * (1.0 + _GUARD32)
        lmin = lower[0] - np.float32(adj[0])
        for g in range(1, lower.shape[0]):
            np.minimum(lmin, lower[g] - np.float32(adj[g]), out=lmin)
        return lmin

    def _refresh_survivor_bounds(
        self, rows_d2t: np.ndarray, survivors: np.ndarray
    ) -> None:
        """Refresh group bounds for survivor rows from their exact row.

        ``rows_d2t`` is the transposed ``(k, m)`` distance block with the
        (new) assigned entries already masked with ``inf``.
        """
        vals = np.sqrt(_group_min_t(rows_d2t, self._gstarts))
        vals *= 1.0 - _GUARD32
        # Store with the current cumulative drift folded in, so the
        # shared per-group subtraction at test time nets out to only the
        # drift accumulated *since this refresh*.
        vals += self._cum_drift[:, None]
        self._lower[:, survivors] = vals.astype(np.float32)

    def _assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points
        n, k = pts.shape[0], centroids.shape[0]
        if not self._valid or self._assignments is None:
            return self._full_refresh(centroids)

        assignments = self._assignments
        sq_dists = self._sq_dists
        assert sq_dists is not None and self._lower is not None
        n_groups = self._lower.shape[0]

        # Step 1: make every assigned distance exact again, in place.
        # Rows whose centroid is bitwise unchanged keep last pass's
        # value (what cdist would reproduce bit for bit); the members
        # of moved clusters are re-evaluated, grouped by cluster.
        moved = self._moved
        if moved is None or moved.all():
            rows, recompute = None, n
        else:
            rows = np.flatnonzero(moved[assignments])
            recompute = rows.size
        if recompute:
            _grouped_assigned_sq(pts, centroids, assignments, sq_dists, rows)
        del rows

        # Step 2: bound test against the *exact* assigned distance
        # (Yinyang's local filter — no drift slack on the upper
        # side) using the tightest group bound.  Temporaries are
        # updated in place: one float32 and two float64 vectors.
        lmin = self._tightest_group_bound()

        if k >= 2:
            # Elkan inter-centroid filter: a point strictly inside
            # s(a) = half the distance to a's nearest other centroid
            # provably keeps its assignment (triangle inequality).
            s_radius = _half_nearest_centroid(centroids)
            s_radius *= 1.0 - _GUARD
            bound = s_radius[assignments]
            np.maximum(bound, lmin, out=bound)
        else:
            bound = lmin.astype(np.float64)
        del lmin

        upper = np.sqrt(sq_dists)
        upper *= 1.0 + _GUARD
        survivors = np.flatnonzero(upper >= bound)
        del upper, bound
        m = survivors.size
        pruned = n - m

        computed = recompute + m * k
        self.counters.bound_check_hits += pruned
        self.counters.bound_groups += n_groups
        self.counters.distance_evals_computed += computed
        self.counters.distance_evals_skipped += max(n * k - computed, 0)

        if m:
            old_assign = assignments[survivors]
            step = _tile_rows(k)
            for lo in range(0, m, step):
                rows = survivors[lo:lo + step]
                rows_d2t = cdist(centroids, pts[rows], metric="sqeuclidean")
                row_sq, row_assign = _min_argmin_t(rows_d2t)
                assignments[rows] = row_assign
                sq_dists[rows] = row_sq
                if k >= 2:
                    rows_d2t[row_assign, np.arange(rows.size)] = np.inf
                    self._refresh_survivor_bounds(rows_d2t, rows)
            row_assign = assignments[survivors]
            changed = row_assign != old_assign
            if changed.any():
                # Exact incremental aggregation: remember which
                # clusters' membership changed this pass.
                if self._agg_changed is not None:
                    self._agg_changed[old_assign[changed]] = True
                    self._agg_changed[row_assign[changed]] = True
                else:
                    self._agg_rebuild = True

        self._moved = None
        return assignments, sq_dists

    def aggregate(
        self, weighted_points: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Bit-exact per-cluster sums, recomputing only changed clusters.

        A cluster whose member *set* is unchanged since the cached sums
        were built would reproduce the exact same ``bincount`` bits (same
        contributions, same point-index order), so its cached row is
        reused verbatim.  Clusters touched by a membership change are
        re-summed with a subset ``bincount`` over their current members —
        ``np.flatnonzero`` yields rows in increasing index order, so each
        bin accumulates in the same order as the full ``bincount`` and
        the result is bit-identical.
        """
        if (
            self._agg_sums is None
            or self._agg_rebuild
            or self._agg_k != k
            or self._agg_changed is None
        ):
            self._agg_sums = aggregate_weighted_sums(
                weighted_points, assignments, k
            )
            self._agg_k = k
            self._agg_rebuild = False
            self._agg_changed = np.zeros(k, dtype=bool)
            self._members = None
            return self._agg_sums
        changed = np.flatnonzero(self._agg_changed)
        if changed.size:
            # Reuse the changed-cluster member gather from cluster_mass
            # when it ran this pass (consume-once cache).
            if self._members is not None:
                rows, sub_assign = self._members
                self._members = None
            else:
                rows = np.flatnonzero(self._agg_changed[assignments])
                sub_assign = assignments[rows]
            sums = self._agg_sums
            # One column gathered at a time: the same values in the same
            # order as a full-width gather, at 1/d of its memory.
            for column in range(weighted_points.shape[1]):
                col_sums = np.bincount(
                    sub_assign,
                    weights=weighted_points[rows, column],
                    minlength=k,
                )
                sums[changed, column] = col_sums[changed]
            self._agg_changed[:] = False
        return self._agg_sums

    def cluster_mass(
        self, weights: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Bit-exact per-cluster mass, recomputing only changed clusters.

        Same argument as :meth:`aggregate`: an unchanged member set
        reproduces the full ``bincount`` bits verbatim, and a subset
        ``bincount`` accumulates changed bins in the same increasing-row
        order.  The changed-cluster member gather is cached for
        :meth:`aggregate`, which runs next in the same pass.
        """
        if (
            self._mass is None
            or self._agg_rebuild
            or self._mass_k != k
            or self._agg_changed is None
        ):
            self._mass = np.bincount(assignments, weights=weights, minlength=k)
            self._mass_k = k
            return self._mass
        changed = np.flatnonzero(self._agg_changed)
        if changed.size:
            rows = np.flatnonzero(self._agg_changed[assignments])
            sub_assign = assignments[rows]
            self._members = (rows, sub_assign)
            sub_mass = np.bincount(
                sub_assign, weights=weights[rows], minlength=k
            )
            self._mass[changed] = sub_mass[changed]
        return self._mass

    def notify_update(
        self, old_centroids: np.ndarray, new_centroids: np.ndarray
    ) -> None:
        """Fold one centroid update into the per-group cumulative drift.

        Nothing to maintain while no bounds are live (until the next full
        refresh).
        """
        if not self._valid or self._lower is None:
            return
        drift = np.sqrt(((new_centroids - old_centroids) ** 2).sum(axis=1))
        group_drift = np.maximum.reduceat(drift, self._gstarts[:-1])
        # Inflated slightly, so subtracting the accumulated value at test
        # time is strictly conservative.
        self._cum_drift += group_drift * (1.0 + _GUARD)
        # "moved" is tracked bitwise rather than as drift > 0 because a
        # subnormal displacement can square to exactly zero.
        moved = np.any(new_centroids != old_centroids, axis=1)
        self._moved = moved if self._moved is None else self._moved | moved


_KERNELS: dict[str, type[LloydKernel]] = {
    cls.name: cls for cls in (DenseKernel, ElkanKernel)
}


def available_kernels() -> tuple[str, ...]:
    """Names accepted by ``resolve_kernel`` (and the CLI/env knobs)."""
    return tuple(sorted(_KERNELS))


def resolve_kernel(
    kernel: "str | LloydKernel | None" = None, pairs: int = 0
) -> LloydKernel:
    """Resolve a kernel selection to a fresh kernel instance.

    Precedence: an explicit ``kernel`` argument (name or instance) wins,
    then the ``REPRO_KMEANS_KERNEL`` environment variable, then the size
    rule: ``elkan`` for a run whose passes score at least
    ``_BOUNDS_MIN_PAIRS`` (point, centroid) pairs — ``pairs`` = n·k,
    which ``lloyd`` supplies — and ``dense`` below that.  The two are
    bit-identical, so the rule only picks the faster.  Passing an
    instance hands it back as-is (the caller owns its lifecycle).
    Unknown names raise a ``ValueError`` naming the bad value, the valid
    kernels, and the environment variable when the name came from it.
    """
    if isinstance(kernel, LloydKernel):
        return kernel
    name, from_env = kernel, False
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or None
        from_env = name is not None
    if not name:
        return ElkanKernel() if pairs >= _BOUNDS_MIN_PAIRS else DenseKernel()
    cls = _KERNELS.get(name)
    if cls is None:
        what = (
            f"{KERNEL_ENV_VAR}={name!r} names an unknown k-means kernel"
            if from_env
            else f"unknown k-means kernel {name!r}"
        )
        valid = ", ".join(available_kernels())
        raise ValueError(f"{what}; expected one of {valid}")
    return cls()


def aggregate_weighted_sums(
    weighted_points: np.ndarray, assignments: np.ndarray, k: int
) -> np.ndarray:
    """Per-cluster sums of weighted points via per-dimension ``bincount``.

    Replaces the seed implementation's ``np.add.at`` scatter-add (which
    falls back to an unbuffered per-element inner loop) with one
    ``np.bincount`` per dimension.  Both accumulate sequentially in point
    order, so the sums are bit-identical — ``bincount`` is just an order
    of magnitude faster.
    """
    dim = weighted_points.shape[1]
    sums = np.empty((k, dim), dtype=np.float64)
    for column in range(dim):
        sums[:, column] = np.bincount(
            assignments, weights=weighted_points[:, column], minlength=k
        )
    return sums

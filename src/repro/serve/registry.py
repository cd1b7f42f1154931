"""Warm model registry: per-cell clustering state resident in memory.

One :class:`ModelRegistry` owns a run directory's ``.rjl`` journal and
keeps, per grid cell:

* the **served model** — a :class:`~repro.core.model.ClusterModel`
  maintained by the incremental fold discipline of
  :mod:`repro.core.incremental` (:func:`~repro.core.incremental.fold_summary`),
* the **coreset tree** — the PR 5
  :class:`~repro.stream.coreset.CoresetTree`, answering prefix/window
  queries over the cell's partition history in milliseconds.

Warm-start contract
-------------------

All serving state is a *pure function of the journal's contiguous
record prefix* under a fixed registry configuration ``(k, seed,
recipe)`` — the :class:`~repro.core.recipe.Recipe` the registry builds
from its ``restarts``, ``max_iter`` and ``kernel``:

* journaled ``cell`` records are adopted as each cell's base model
  (bit-identical — the journal codec never round-trips floats through
  JSON text);
* journaled ``partition`` records beyond the base model's
  ``partitions`` count are re-folded in index order with the
  deterministic largest-weight-seeded merge;
* the coreset tree is rebuilt from the same ``partition`` records,
  adopting journaled ``tree_node`` summaries instead of recomputing
  merges.

A restarted registry therefore serves **bit-identical** responses to
one that never died — the property ``tests/test_serve_warm_restart.py``
proves with a SIGKILL.  Ingested chunks append ``partition`` (and
``tree_node``) records to the same journal *before* the fold is
applied, so the durable state always leads the served state.

The partial k-means run on an ingested chunk draws its restart seeds
from a generator keyed on ``(registry seed, cell id, partition index)``
— re-ingesting a chunk after a crash reproduces the exact summary, so
at-least-once delivery by a client converges to the same bits.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.incremental import fold_summary
from repro.core.model import ClusterModel, as_points
from repro.core.partial import partial_kmeans
from repro.core.recipe import SERVE_RECIPE, Recipe
from repro.core.quality import assign_to_nearest
from repro.stream.checkpoint import (
    JOURNAL_FILENAME,
    JournalState,
    JournalWriter,
    read_journal,
)
from repro.stream.coreset import CoresetTree, PrefixQuery
from repro.stream.errors import StreamError
from repro.stream.items import CentroidMessage

__all__ = [
    "ServeError",
    "UnknownCellError",
    "AssignResult",
    "SummaryInfo",
    "IngestReceipt",
    "ModelRegistry",
]


class ServeError(StreamError):
    """A serving request cannot be answered."""


class UnknownCellError(ServeError):
    """The requested cell is in neither the registry nor the journal."""


def _chunk_rng(seed: int, cell_id: str, partition: int) -> np.random.Generator:
    """Deterministic restart RNG for one (cell, partition) ingest.

    Keyed on the registry seed plus a stable hash of the cell id plus
    the partition index, so the partial summary of a chunk is a pure
    function of its content and position — the warm-restart and
    at-least-once-ingest guarantees both rest on this.
    """
    return np.random.default_rng(
        [seed, zlib.crc32(cell_id.encode("utf-8")), partition]
    )


@dataclass(frozen=True)
class AssignResult:
    """Answer to one ``assign``/``nearest`` request.

    Attributes:
        cell_id: the queried cell.
        assignments: nearest-centroid index per query point.
        sq_dists: squared distance to that centroid per query point.
        centroids: the assigned centroids' coordinates (``nearest``
            requests read these; plain ``assign`` callers may ignore).
        model_version: partitions folded into the answering model.
        stale: whether the model's age exceeded the registry TTL.
    """

    cell_id: str
    assignments: np.ndarray
    sq_dists: np.ndarray
    centroids: np.ndarray
    model_version: int
    stale: bool

    def to_payload(self) -> dict:
        """JSON-safe representation (floats round-trip exactly)."""
        return {
            "cell": self.cell_id,
            "assignments": [int(a) for a in self.assignments],
            "sq_dists": self.sq_dists.tolist(),
            "centroids": self.centroids.tolist(),
            "model_version": self.model_version,
            "stale": self.stale,
        }


@dataclass(frozen=True)
class SummaryInfo:
    """Answer to one ``summary`` request: the cell's hot model + freshness.

    Attributes:
        cell_id: the queried cell.
        model: the served model (empty watermark for zero-point cells).
        partitions: partitions folded in (base + serve-time).
        folds: serve-time folds applied since warm start.
        age_seconds: time since the model last changed (or was warmed).
        stale: whether ``age_seconds`` exceeded the registry TTL.
    """

    cell_id: str
    model: ClusterModel
    partitions: int
    folds: int
    age_seconds: float
    stale: bool

    def to_payload(self) -> dict:
        """JSON-safe representation (floats round-trip exactly)."""
        return {
            "cell": self.cell_id,
            "k": self.model.k,
            "centroids": self.model.centroids.tolist(),
            "weights": self.model.weights.tolist(),
            "mse": self.model.mse,
            "method": self.model.method,
            "partitions": self.partitions,
            "folds": self.folds,
            "age_seconds": self.age_seconds,
            "stale": self.stale,
        }


@dataclass(frozen=True)
class IngestReceipt:
    """Acknowledgement of one folded chunk.

    Attributes:
        cell_id: the cell the chunk was folded into.
        partition: journal partition index the chunk was recorded under.
        n_points: points folded.
        model_version: partitions in the model after the fold.
        partial_seconds: wall-clock of the chunk's partial k-means.
        fold_seconds: wall-clock of journal append + merge + tree offer.
    """

    cell_id: str
    partition: int
    n_points: int
    model_version: int
    partial_seconds: float
    fold_seconds: float

    def to_payload(self) -> dict:
        """JSON-safe representation."""
        return {
            "cell": self.cell_id,
            "partition": self.partition,
            "n_points": self.n_points,
            "model_version": self.model_version,
            "partial_seconds": self.partial_seconds,
            "fold_seconds": self.fold_seconds,
        }


@dataclass
class _CellEntry:
    """One cell's resident serving state."""

    cell_id: str
    model: ClusterModel | None
    tree: CoresetTree
    partitions: int
    updated_at: float
    #: Held by readers for one answer and by a writer only to *publish*.
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Serialises the cell's writers across the whole ingest (partial
    #: k-means, journal append, fold), which runs outside ``lock``.
    ingest_lock: threading.Lock = field(default_factory=threading.Lock)
    folds: int = 0


class ModelRegistry:
    """Hot per-cell models + coreset trees over one run journal.

    Args:
        run_dir: directory holding (or about to hold) the ``.rjl``
            journal; created on first ingest if absent.
        k: centroids for cells the journal gives no model for (new cells
            and zero-point-cell watermarks); populated journal models
            keep their own ``k``.
        seed: base seed for ingest-time partial k-means restarts.
        restarts: seed restarts per ingested chunk.
        max_iter: Lloyd cap for every ingest's partial k-means and for
            all folds and tree merges.
        kernel: assignment backend for all of those (the kernels are
            bit-identical; performance knob only).
        ttl_seconds: serve-side staleness horizon — responses from a
            model older than this carry ``stale=True`` (and are counted)
            so callers can trigger refreshes; ``None`` disables.
        fsync: fsync the journal after every record (default).  Turning
            it off trades durability for ingest latency — tests only.

    ``restarts``, ``max_iter`` and ``kernel`` become the registry's
    :attr:`recipe` (:class:`~repro.core.recipe.Recipe`): an unknown kernel
    name, or ``restarts`` or ``max_iter`` below 1, raises ``ValueError``
    here, not at the first ingest.

    Thread safety: distinct cells proceed concurrently.  Within a cell,
    writers queue on ``ingest_lock`` for the whole ingest while readers
    share the short ``lock`` with the writer's final publish only — a
    read is answered from the last published version, never from a
    half-applied one.
    """

    def __init__(
        self,
        run_dir: str | Path,
        k: int = 8,
        seed: int = 0,
        restarts: int = SERVE_RECIPE.restarts,
        max_iter: int = SERVE_RECIPE.max_iter,
        kernel: str | None = None,
        ttl_seconds: float | None = None,
        fsync: bool = True,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.recipe = Recipe(
            restarts=restarts, max_iter=max_iter, merge_max_iter=max_iter, kernel=kernel
        )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.run_dir = Path(run_dir)
        self.journal_path = self.run_dir / JOURNAL_FILENAME
        self.k = k
        self.seed = seed
        self.ttl_seconds = ttl_seconds
        self._fsync = fsync
        self._lock = threading.Lock()
        self._entries: dict[str, _CellEntry] = {}
        #: Cells known to exist in the journal (re-warmable after evict).
        self._known_cells: set[str] = set()
        self._journal: JournalWriter | None = None
        # -- accounting ------------------------------------------------------
        self.recovery_seconds = 0.0
        self.partitions_replayed = 0
        self.cells_adopted = 0
        self.nodes_preloaded = 0
        self.gaps_skipped = 0
        self.stale_served = 0
        self.evictions = 0
        self.rewarms = 0
        self.ingests = 0
        self._warm_start()

    # -- warm start ----------------------------------------------------------

    def _warm_start(self) -> None:
        began = time.perf_counter()
        state = self._read_state()
        if state is not None:
            for cell_id in sorted(set(state.cells) | set(state.partitions)):
                self._entries[cell_id] = self._build_entry(cell_id, state)
                self._known_cells.add(cell_id)
        self.recovery_seconds = time.perf_counter() - began

    def _read_state(self) -> JournalState | None:
        if not self.journal_path.exists():
            return None
        if self.journal_path.stat().st_size == 0:
            return None
        return read_journal(self.journal_path)

    def _build_entry(self, cell_id: str, state: JournalState) -> _CellEntry:
        """Rebuild one cell's serving state from the journal.

        Deterministic by construction: the base model is adopted
        bit-exactly, serve-time partitions are folded in index order
        with the deterministic merge, and the tree adopts journaled
        node summaries — so two registries warmed from the same journal
        prefix are indistinguishable.
        """
        base = state.cells.get(cell_id)
        base_partitions = base.partitions if base is not None else 0
        by_partition = state.partitions.get(cell_id, {})
        prefix = 0
        while prefix in by_partition:
            prefix += 1
        self.gaps_skipped += max(0, len(by_partition) - prefix)
        tree = self._make_tree(cell_id, state.tree_nodes.get(cell_id))
        model = base
        for index in range(prefix):
            message = by_partition[index]
            tree.offer(message)
            if index >= base_partitions:
                model = fold_summary(
                    model,
                    message.summary,
                    k=self._fold_k(model),
                    recipe=self.recipe,
                )
                self.partitions_replayed += 1
        if base is not None:
            self.cells_adopted += 1
        self.nodes_preloaded += tree.nodes_preloaded
        return _CellEntry(
            cell_id=cell_id,
            model=model,
            tree=tree,
            partitions=max(prefix, base_partitions),
            updated_at=time.monotonic(),
        )

    def _make_tree(self, cell_id: str, preloaded) -> CoresetTree:
        # Every *computed* tree merge is journaled (adopted ones already
        # are), so the next warm start adopts instead of recomputing.
        def node_sink(start, count, summary, _cell=cell_id):
            self._writer().append_tree_node(_cell, start, count, summary)

        return CoresetTree(
            k=self.k,
            recipe=self.recipe,
            node_sink=node_sink,
            preloaded=preloaded,
        )

    def _fold_k(self, model: ClusterModel | None) -> int:
        if model is not None and model.k > 0:
            return model.k
        return self.k

    # -- entry access --------------------------------------------------------

    def cells(self) -> list[str]:
        """Resident cells, sorted."""
        with self._lock:
            return sorted(self._entries)

    def _entry(self, cell_id: str, create: bool = False) -> _CellEntry:
        with self._lock:
            entry = self._entries.get(cell_id)
            if entry is not None:
                return entry
            known = cell_id in self._known_cells
        if known:
            # Evicted earlier: re-warm this cell from the journal.
            state = self._read_state()
            if state is not None and (
                cell_id in state.cells or cell_id in state.partitions
            ):
                entry = self._build_entry(cell_id, state)
                with self._lock:
                    resident = self._entries.setdefault(cell_id, entry)
                self.rewarms += 1
                return resident
        if not create:
            raise UnknownCellError(
                f"cell {cell_id!r} is in neither the registry nor the journal"
            )
        entry = _CellEntry(
            cell_id=cell_id,
            model=None,
            tree=self._make_tree(cell_id, None),
            partitions=0,
            updated_at=time.monotonic(),
        )
        with self._lock:
            resident = self._entries.setdefault(cell_id, entry)
            self._known_cells.add(cell_id)
        return resident

    def _writer(self) -> JournalWriter:
        with self._lock:
            if self._journal is None:
                self.run_dir.mkdir(parents=True, exist_ok=True)
                self._journal = JournalWriter(
                    self.journal_path, fsync=self._fsync
                )
            return self._journal

    def _freshness(self, entry: _CellEntry) -> tuple[float, bool]:
        age = time.monotonic() - entry.updated_at
        stale = self.ttl_seconds is not None and age > self.ttl_seconds
        if stale:
            self.stale_served += 1
        return age, stale

    # -- ingest --------------------------------------------------------------

    def ingest(self, cell_id: str, points: np.ndarray) -> IngestReceipt:
        """Fold one chunk of new points into a cell, durably.

        The chunk is summarised by partial k-means (restart seeds keyed
        on ``(seed, cell, partition index)``), the summary is journaled,
        and only then is the fold applied to the hot model and the
        coreset tree — crash between journal and fold re-derives the
        fold from the journal on restart.

        All of that runs under the cell's ``ingest_lock`` only, against
        the model read under it (no other writer can change it); the
        cell's read ``lock`` is taken just to publish the result, so
        readers of the cell wait for the publish, not for the k-means
        and the fsync before it.  A chunk is checked *before* anything
        is journaled, so a refused chunk leaves no hole behind.
        """
        pts = as_points(points)
        entry = self._entry(cell_id, create=True)
        with entry.ingest_lock:
            index = entry.partitions
            model = entry.model
            k = self._fold_k(model)
            if pts.shape[0] < k:
                raise ServeError(
                    f"ingest chunk for cell {cell_id!r} has {pts.shape[0]} "
                    f"point(s), fewer than k={k}"
                )
            self._check_dim(cell_id, pts, model)
            fresh = partial_kmeans(
                pts,
                k,
                self.recipe,
                _chunk_rng(self.seed, cell_id, index),
                source=f"serve/P{index}",
            )
            fold_began = time.perf_counter()
            message = CentroidMessage(
                cell_id=cell_id,
                partition=index,
                summary=fresh.summary,
                n_partitions=0,
                partial_seconds=fresh.seconds,
            )
            self._writer().append_partition(message)
            folded = fold_summary(model, fresh.summary, k=k, recipe=self.recipe)
            with entry.lock:
                # The tree offer can fail (it journals merged nodes);
                # the plain stores after it cannot, so a reader never
                # sees a model without its partition count.
                entry.tree.offer(message)
                entry.model = folded
                entry.partitions = index + 1
                entry.folds += 1
                entry.updated_at = time.monotonic()
            self.ingests += 1
            return IngestReceipt(
                cell_id=cell_id,
                partition=index,
                n_points=pts.shape[0],
                model_version=index + 1,
                partial_seconds=fresh.seconds,
                fold_seconds=time.perf_counter() - fold_began,
            )

    # -- queries -------------------------------------------------------------

    def _served_model(self, entry: _CellEntry) -> ClusterModel:
        model = entry.model
        if model is None or model.k == 0:
            raise ServeError(
                f"cell {entry.cell_id!r} has no populated model yet "
                "(zero-point watermark; ingest a chunk to bootstrap it)"
            )
        return model

    @staticmethod
    def _check_dim(
        cell_id: str, pts: np.ndarray, model: ClusterModel | None
    ) -> None:
        if model is not None and model.k > 0 and pts.shape[1] != model.dim:
            raise ServeError(
                f"points have dimension {pts.shape[1]}, cell {cell_id!r} "
                f"serves dimension {model.dim}"
            )

    def assign(self, cell_id: str, points: np.ndarray) -> AssignResult:
        """Nearest-centroid assignment of ``points`` under the hot model."""
        pts = as_points(points)
        entry = self._entry(cell_id)
        with entry.lock:
            model = self._served_model(entry)
            self._check_dim(cell_id, pts, model)
            assignments, sq_dists = assign_to_nearest(pts, model.centroids)
            age, stale = self._freshness(entry)
            return AssignResult(
                cell_id=cell_id,
                assignments=assignments,
                sq_dists=sq_dists,
                centroids=model.centroids[assignments].copy(),
                model_version=entry.partitions,
                stale=stale,
            )

    def summary(self, cell_id: str) -> SummaryInfo:
        """The cell's hot model plus freshness accounting."""
        entry = self._entry(cell_id)
        with entry.lock:
            model = entry.model
            if model is None:
                raise ServeError(
                    f"cell {cell_id!r} has no model yet (no chunk folded)"
                )
            age, stale = self._freshness(entry)
            return SummaryInfo(
                cell_id=cell_id,
                model=model,
                partitions=entry.partitions,
                folds=entry.folds,
                age_seconds=age,
                stale=stale,
            )

    def prefix(self, cell_id: str, upto: int | None = None) -> PrefixQuery:
        """Coreset-tree clustering of the cell's partition prefix."""
        entry = self._entry(cell_id)
        with entry.lock:
            answer = entry.tree.query_prefix(upto=upto)
            return PrefixQuery(
                cell_id=cell_id,
                start=answer.start,
                upto=answer.upto,
                model=answer.model,
                nodes_reused=answer.nodes_reused,
                merge_iterations=answer.merge_iterations,
                cached=answer.cached,
                seconds=answer.seconds,
            )

    def window(
        self, cell_id: str, last_n: int, upto: int | None = None
    ) -> PrefixQuery:
        """Coreset-tree clustering of the cell's trailing chunk window."""
        entry = self._entry(cell_id)
        with entry.lock:
            answer = entry.tree.query_window(last_n, upto=upto)
            return PrefixQuery(
                cell_id=cell_id,
                start=answer.start,
                upto=answer.upto,
                model=answer.model,
                nodes_reused=answer.nodes_reused,
                merge_iterations=answer.merge_iterations,
                cached=answer.cached,
                seconds=answer.seconds,
            )

    # -- lifecycle -----------------------------------------------------------

    def evict_idle(self, idle_seconds: float) -> list[str]:
        """Drop cells untouched for ``idle_seconds`` from memory.

        Evicted cells stay journal-backed: the next request for one
        re-warms it lazily (counted in :attr:`rewarms`), so eviction is
        a memory policy, never a data loss.
        """
        now = time.monotonic()
        evicted: list[str] = []
        with self._lock:
            for cell_id in list(self._entries):
                entry = self._entries[cell_id]
                if now - entry.updated_at >= idle_seconds:
                    del self._entries[cell_id]
                    evicted.append(cell_id)
            self.evictions += len(evicted)
        return sorted(evicted)

    def stats(self) -> dict:
        """JSON-safe registry accounting (warm start, folds, eviction)."""
        with self._lock:
            resident = len(self._entries)
            partitions = sum(e.partitions for e in self._entries.values())
        return {
            "resident_cells": resident,
            "known_cells": len(self._known_cells),
            "partitions": partitions,
            "recovery_seconds": self.recovery_seconds,
            "cells_adopted": self.cells_adopted,
            "partitions_replayed": self.partitions_replayed,
            "nodes_preloaded": self.nodes_preloaded,
            "gaps_skipped": self.gaps_skipped,
            "ingests": self.ingests,
            "stale_served": self.stale_served,
            "evictions": self.evictions,
            "rewarms": self.rewarms,
        }

    def close(self) -> None:
        """Flush and close the journal (idempotent)."""
        with self._lock:
            journal = self._journal
            self._journal = None
        if journal is not None:
            journal.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

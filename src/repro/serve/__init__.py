"""Always-on clustering service: warm models, async serving, load gen.

The batch engine answers one :class:`~repro.stream.query.Query` per
process and exits; this package keeps the answers *resident*.  A
:class:`~repro.serve.registry.ModelRegistry` holds every cell's
:class:`~repro.core.model.ClusterModel` and
:class:`~repro.stream.coreset.CoresetTree` hot in memory — warm-started
from the run's ``.rjl`` journal, folded forward chunk by chunk via
:mod:`repro.core.incremental` — and a
:class:`~repro.serve.server.ClusterServer` answers ``assign`` /
``nearest`` / ``summary`` / ``prefix`` / ``window`` queries over it at
interactive latency — dispatched as soon as a worker is free, batched
only under backpressure — while ingest folds on its own lane.

See ``docs/serving.md`` for the warm-start contract, the ordering and
visibility contract and the staleness/TTL semantics.
"""

from repro.serve.batching import PendingRequest, RequestBatcher, group_requests
from repro.serve.loadgen import LoadGenerator, LoadReport
from repro.serve.registry import (
    AssignResult,
    IngestReceipt,
    ModelRegistry,
    ServeError,
    SummaryInfo,
    UnknownCellError,
)
from repro.serve.server import ClusterServer

__all__ = [
    "ModelRegistry",
    "ClusterServer",
    "LoadGenerator",
    "LoadReport",
    "RequestBatcher",
    "PendingRequest",
    "group_requests",
    "AssignResult",
    "SummaryInfo",
    "IngestReceipt",
    "ServeError",
    "UnknownCellError",
]

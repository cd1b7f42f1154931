"""Deterministic fault injection for stream plans (the chaos engine).

The paper's deployment story — many partial-k-means clones racing while
the merge operator idles — only survives contact with real clusters if
the engine tolerates crashing clones, stalling queues and flaky I/O.
This module makes those failures *reproducible*: a :class:`FaultPlan` is
a seeded list of :class:`FaultSpec` entries that wrap physical operators
(any :class:`~repro.stream.operators.Source`, ``Transform`` or ``Sink``)
without touching operator code, and inject

* ``crash``   — raise :class:`~repro.stream.errors.InjectedFault`,
* ``delay``   — sleep before handling each matching item,
* ``stall``   — a one-shot long sleep (a stuck queue / wedged worker),
* ``truncate``— end a source's stream early (lost partitions).

Two further kinds target :mod:`repro.stream.shard` worker *processes*
rather than in-plan operators (``FaultPlan.wrap`` ignores them):

* ``kill``           — the worker SIGKILLs itself mid-task,
* ``heartbeat-drop`` — the worker goes silent: it stops heartbeating and
  makes no further progress until the coordinator fences it.

Injection decisions depend only on ``(plan seed, spec index, target
name, item index)`` — never on thread scheduling — so the same plan
replayed over the same pipeline produces an identical injection trace
(:meth:`FaultPlan.trace`), which is what makes chaos tests assertable.
"""

from __future__ import annotations

import copy
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.stream.errors import InjectedFault
from repro.stream.operators import Operator, Sink, Source, Transform

__all__ = [
    "FaultSpec",
    "InjectionEvent",
    "FaultPlan",
    "ChaosSource",
    "ChaosTransform",
    "ChaosSink",
    "SHARD_KINDS",
]

_KINDS = ("crash", "delay", "stall", "truncate", "kill", "heartbeat-drop")

#: Fault kinds handled by shard worker processes, not operator wrappers.
SHARD_KINDS = ("kill", "heartbeat-drop")

#: Default injection budget per kind; ``None`` means unlimited.  One-shot
#: defaults keep crash faults recoverable: a restarted clone replaying its
#: buffered items must not crash again at the same index.
_DEFAULT_BUDGET: dict[str, int | None] = {
    "crash": 1,
    "stall": 1,
    "truncate": 1,
    "delay": None,
    "kill": 1,
    "heartbeat-drop": 1,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes:
        target: physical operator name to attack (``"partial#1"``) or a
            logical name (``"partial"``, matching every clone).  For the
            shard kinds the target is a worker name (``"worker#1"``).
        kind: ``"crash"``, ``"delay"``, ``"stall"``, ``"truncate"``
            (``truncate`` is only meaningful on sources), or the
            shard-runtime kinds ``"kill"`` / ``"heartbeat-drop"``.
        at_index: inject when the wrapper's item counter equals this
            index (counting every item the operator handles, including
            control messages).  ``None`` disables index triggering.
        probability: per-item injection probability in ``[0, 1]``;
            decided by a counter-based hash of the plan seed, so it is
            deterministic and independent of thread scheduling.
        delay_seconds: sleep duration for ``delay``/``stall``.
        max_injections: cap on how many times this spec may fire;
            ``None`` uses the kind default (1 for crash/stall/truncate,
            unlimited for delay).
        message: carried into the raised :class:`InjectedFault`.
    """

    target: str
    kind: str
    at_index: int | None = None
    probability: float = 0.0
    delay_seconds: float = 0.0
    max_injections: int | None = None
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {_KINDS}")
        if not self.target:
            raise ValueError("fault target must be non-empty")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.at_index is None and self.probability == 0.0:
            raise ValueError("fault needs at_index or probability > 0")
        if self.at_index is not None and self.at_index < 0:
            raise ValueError(f"at_index must be >= 0, got {self.at_index}")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        if self.max_injections is not None and self.max_injections < 1:
            raise ValueError("max_injections must be >= 1 when given")

    @property
    def budget(self) -> int | None:
        """Effective injection cap (``None`` = unlimited)."""
        if self.max_injections is not None:
            return self.max_injections
        return _DEFAULT_BUDGET[self.kind]


@dataclass(frozen=True, order=True)
class InjectionEvent:
    """One fault actually injected during a run.

    Attributes:
        spec_index: position of the firing :class:`FaultSpec` in the plan.
        target: physical operator the fault hit.
        item_index: the wrapper's item counter at injection time.
        kind: the fault kind that fired.
    """

    spec_index: int
    target: str
    item_index: int
    kind: str


class FaultPlan:
    """A seeded, replayable set of faults to inject into one plan.

    Pass to :meth:`repro.stream.planner.Planner.plan` (or the
    ``fault_plan=`` hooks on :func:`~repro.stream.kmeans_ops.
    run_partial_merge_stream` / :meth:`~repro.stream.query.Query.execute`)
    and every physical operator a spec targets is transparently wrapped.

    Thread safety: injection budgets and the trace are guarded by a lock;
    :meth:`trace` returns events in a canonical sort order so two replays
    of the same plan compare equal even though operator threads interleave
    differently.

    Args:
        specs: the faults to inject.
        seed: drives the probabilistic triggers deterministically.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._spent: dict[int, int] = {}
        self._events: list[InjectionEvent] = []

    # -- wiring -------------------------------------------------------------

    def wrap(self, operator: Operator, physical_name: str) -> Operator:
        """Wrap ``operator`` if any spec targets it; otherwise return it.

        Args:
            operator: the physical instance about to be scheduled.
            physical_name: its physical name (``"partial#2"``); specs
                match on this or on the operator's logical name.
        """
        indexed = [
            (index, spec)
            for index, spec in enumerate(self.specs)
            if spec.target in (physical_name, operator.name)
            and spec.kind not in SHARD_KINDS
        ]
        if not indexed:
            return operator
        if isinstance(operator, Source):
            return ChaosSource(self, operator, physical_name, indexed)
        if isinstance(operator, Sink):
            return ChaosSink(self, operator, physical_name, indexed)
        if isinstance(operator, Transform):
            return ChaosTransform(self, operator, physical_name, indexed)
        raise TypeError(f"cannot wrap {operator!r}")  # pragma: no cover

    def shard_specs(self, worker_name: str) -> list[tuple[int, FaultSpec]]:
        """Indexed ``kill``/``heartbeat-drop`` specs aimed at one worker.

        The shard runtime ships these to the worker process, which makes
        the (deterministic) injection decisions locally — a killed worker
        cannot report back, so shard-kind injections appear in the
        coordinator's :class:`~repro.stream.metrics.RecoveryEvent` log
        rather than in :meth:`trace`.
        """
        return [
            (index, spec)
            for index, spec in enumerate(self.specs)
            if spec.kind in SHARD_KINDS and spec.target == worker_name
        ]

    # -- injection decisions -------------------------------------------------

    def _chance(self, spec_index: int, target: str, item_index: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for one decision."""
        key = f"{self.seed}:{spec_index}:{target}:{item_index}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def should_inject(
        self, spec_index: int, spec: FaultSpec, target: str, item_index: int
    ) -> bool:
        """Decide (and atomically claim budget for) one injection."""
        triggered = spec.at_index is not None and item_index == spec.at_index
        if not triggered and spec.probability > 0.0:
            triggered = self._chance(spec_index, target, item_index) < spec.probability
        if not triggered:
            return False
        with self._lock:
            spent = self._spent.get(spec_index, 0)
            budget = spec.budget
            if budget is not None and spent >= budget:
                return False
            self._spent[spec_index] = spent + 1
            self._events.append(
                InjectionEvent(
                    spec_index=spec_index,
                    target=target,
                    item_index=item_index,
                    kind=spec.kind,
                )
            )
        return True

    # -- observability -------------------------------------------------------

    def trace(self) -> tuple[InjectionEvent, ...]:
        """All injections so far, in canonical (deterministic) order."""
        with self._lock:
            return tuple(sorted(self._events))

    def injected_count(self) -> int:
        """Number of faults injected so far."""
        with self._lock:
            return len(self._events)

    def reset(self) -> None:
        """Clear budgets and the trace so the same plan can be replayed."""
        with self._lock:
            self._spent.clear()
            self._events.clear()


class _ChaosMixin:
    """Shared per-instance injection loop for the three wrappers."""

    def _init_chaos(
        self,
        plan: FaultPlan,
        inner: Operator,
        physical_name: str,
        indexed_specs: list[tuple[int, FaultSpec]],
    ) -> None:
        self._plan = plan
        self._inner = inner
        self._physical_name = physical_name
        self._indexed_specs = list(indexed_specs)
        self._item_index = 0

    @property
    def inner(self) -> Operator:
        """The wrapped operator."""
        return self._inner

    def _inject(self) -> bool:
        """Run every matching spec against the current item.

        Returns:
            True when a ``truncate`` spec fired (callers stop the stream).

        Raises:
            InjectedFault: when a ``crash`` spec fired.
        """
        index = self._item_index
        self._item_index += 1
        for spec_index, spec in self._indexed_specs:
            if not self._plan.should_inject(
                spec_index, spec, self._physical_name, index
            ):
                continue
            if spec.kind in ("delay", "stall"):
                time.sleep(spec.delay_seconds)
            elif spec.kind == "truncate":
                return True
            else:  # crash
                raise InjectedFault(self._physical_name, index, spec.message)
        return False


class ChaosSource(_ChaosMixin, Source):
    """Source wrapper: faults fire before each item is emitted."""

    def __init__(
        self,
        plan: FaultPlan,
        inner: Source,
        physical_name: str,
        indexed_specs: list[tuple[int, FaultSpec]],
    ) -> None:
        Source.__init__(self, inner.name)
        self._init_chaos(plan, inner, physical_name, indexed_specs)

    def generate(self) -> Iterator[Any]:
        for item in self._inner.generate():
            if self._inject():
                return  # truncate: the stream ends here
            yield item


class ChaosTransform(_ChaosMixin, Transform):
    """Transform wrapper: faults fire before each ``process`` call.

    Crashes are raised *before* delegating, so the wrapped operator's
    state (e.g. a partial-k-means clone's RNG) is untouched by the failed
    attempt — exactly like a process that died before doing the work.
    """

    def __init__(
        self,
        plan: FaultPlan,
        inner: Transform,
        physical_name: str,
        indexed_specs: list[tuple[int, FaultSpec]],
    ) -> None:
        Transform.__init__(self, inner.name)
        self._init_chaos(plan, inner, physical_name, indexed_specs)

    # The planner and executor read these off the physical instance.
    @property
    def parallelizable(self) -> bool:  # type: ignore[override]
        return self._inner.parallelizable

    @property
    def max_retries(self) -> int:  # type: ignore[override]
        return self._inner.max_retries

    @property
    def retryable_errors(self):  # type: ignore[override]
        return self._inner.retryable_errors

    @property
    def retry_policy(self):  # type: ignore[override]
        return self._inner.retry_policy

    def process(self, item: Any) -> Iterable[Any]:
        self._inject()
        return self._inner.process(item)

    def finish(self) -> Iterable[Any]:
        return self._inner.finish()

    def clone(self) -> "ChaosTransform":
        return ChaosTransform(
            self._plan,
            self._inner.clone(),
            self._physical_name,
            self._indexed_specs,
        )

    def __deepcopy__(self, memo) -> "ChaosTransform":
        # Restart snapshots deep-copy the operator; the fault plan (with
        # its lock, budgets and trace) must stay shared so one-shot
        # faults do not re-fire during replay.
        return ChaosTransform(
            self._plan,
            copy.deepcopy(self._inner, memo),
            self._physical_name,
            self._indexed_specs,
        )


class ChaosSink(_ChaosMixin, Sink):
    """Sink wrapper: faults fire before each ``consume`` call."""

    def __init__(
        self,
        plan: FaultPlan,
        inner: Sink,
        physical_name: str,
        indexed_specs: list[tuple[int, FaultSpec]],
    ) -> None:
        Sink.__init__(self, inner.name)
        self._init_chaos(plan, inner, physical_name, indexed_specs)

    def consume(self, item: Any) -> None:
        self._inject()
        self._inner.consume(item)

    def result(self) -> Any:
        return self._inner.result()

"""Query planner: logical dataflow graph → physical execution plan.

Mirrors Conquest's optimizer at the scale this library needs: the planner
chooses how many *clones* of each parallelizable operator to run, given a
:class:`~repro.stream.scheduler.ResourceManager`.  Clone slots are awarded
proportionally to the operators' cost hints — in the partial/merge query
the partial k-means operator carries nearly all the cost, so it receives
nearly all the clones, which is precisely the paper's "Option 1"
parallelization (Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stream.faults import FaultPlan
from repro.stream.graph import DataflowGraph
from repro.stream.mp import SHARDS, validate_backend
from repro.stream.operators import Operator, Sink, Transform
from repro.stream.queues import SmartQueue
from repro.stream.scheduler import ResourceManager
from repro.stream.supervision import SupervisionPolicy

__all__ = ["PhysicalOperator", "PhysicalPlan", "Planner"]

#: Input queue capacity; small enough to exert backpressure, large enough
#: to keep clones fed.
_QUEUE_CAPACITY = 64


@dataclass(frozen=True)
class PhysicalOperator:
    """One schedulable operator instance.

    Attributes:
        name: physical name (``logical`` or ``logical#i`` for clones).
        logical_name: the logical operator this instance realises.
        operator: the operator instance to run.
        input_queue: queue to consume from (``None`` for sources).
        output_queue: queue to produce into (``None`` for the sink).
    """

    name: str
    logical_name: str
    operator: Operator
    input_queue: SmartQueue | None
    output_queue: SmartQueue | None


@dataclass
class PhysicalPlan:
    """A fully wired set of physical operators ready for execution.

    Attributes:
        operators: all physical instances, topologically ordered by stage.
        queues: input queue per consuming logical operator.
        clone_counts: physical instances per logical operator.
        supervision: per-logical-operator supervision policies copied off
            the graph (the executor consults these first).
        fault_plan: chaos engine attached at plan time, if any.
        stall_timeout: watchdog deadline in seconds; when set, the
            executor monitors queue progress and diagnoses hung operators
            (``None`` disables the watchdog).
        backend: execution backend for cloneable transforms —
            ``"threads"`` (default), ``"processes"`` (worker processes
            fed over pipes), or ``None`` to defer to the
            executor's own setting.
    """

    operators: list[PhysicalOperator] = field(default_factory=list)
    queues: dict[str, SmartQueue] = field(default_factory=dict)
    clone_counts: dict[str, int] = field(default_factory=dict)
    supervision: dict[str, SupervisionPolicy] = field(default_factory=dict)
    fault_plan: FaultPlan | None = None
    stall_timeout: float | None = None
    backend: str | None = None

    def describe(self) -> str:
        """One-line-per-operator plan description (for CLI/examples)."""
        lines = ["physical plan:"]
        for logical, count in self.clone_counts.items():
            lines.append(f"  {logical}: {count} instance(s)")
        if self.backend is not None:
            lines.append(f"  backend: {self.backend}")
        return "\n".join(lines)


class Planner:
    """Compiles logical graphs into physical plans.

    Args:
        resources: the resource envelope; defaults to host CPU count and
            the default memory budget.
    """

    def __init__(self, resources: ResourceManager | None = None) -> None:
        self.resources = resources if resources is not None else ResourceManager()

    def plan(
        self,
        graph: DataflowGraph,
        clone_overrides: dict[str, int] | None = None,
        fault_plan: FaultPlan | None = None,
        stall_timeout: float | None = None,
        backend: str | None = None,
    ) -> PhysicalPlan:
        """Compile ``graph`` into a :class:`PhysicalPlan`.

        Args:
            graph: validated logical dataflow graph.
            clone_overrides: explicit clone counts per logical operator
                (used by the speed-up experiments to pin parallelism);
                values are clamped to 1 for non-parallelizable operators.
            fault_plan: optional chaos engine; every physical instance a
                spec targets is wrapped transparently (testing only).
            stall_timeout: arm the executor's hung-operator watchdog with
                this deadline in seconds (``None`` leaves it off).
            backend: run cloneable transforms on ``"threads"`` or
                ``"processes"``; ``None`` defers to the executor.  The
                ``"shards"`` backend is not plan-based and is rejected
                here — use :func:`repro.stream.shard.run_sharded`.

        Returns:
            A wired physical plan.
        """
        graph.validate()
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be positive, got {stall_timeout}")
        overrides = dict(clone_overrides or {})
        clone_counts = self._decide_clones(graph, overrides)

        plan = PhysicalPlan(
            clone_counts=clone_counts,
            supervision=graph.supervision_policies(),
            fault_plan=fault_plan,
            stall_timeout=stall_timeout,
            backend=self._validate_plan_backend(backend),
        )
        # One input queue per consuming logical operator.
        for name in graph.names():
            operator = graph.operator(name)
            if isinstance(operator, (Transform, Sink)):
                plan.queues[name] = SmartQueue(
                    name=f"q->{name}", capacity=_QUEUE_CAPACITY
                )

        for name in graph.names():
            operator = graph.operator(name)
            count = clone_counts[name]
            downstream = graph.downstream_of(name)
            output_queue = plan.queues.get(downstream) if downstream else None
            input_queue = plan.queues.get(name)
            for index in range(count):
                instance = operator if count == 1 else operator.clone()
                physical_name = name if count == 1 else f"{name}#{index}"
                if fault_plan is not None:
                    instance = fault_plan.wrap(instance, physical_name)
                if output_queue is not None:
                    output_queue.register_producer()
                plan.operators.append(
                    PhysicalOperator(
                        name=physical_name,
                        logical_name=name,
                        operator=instance,
                        input_queue=input_queue,
                        output_queue=output_queue,
                    )
                )
        return plan

    @staticmethod
    def _validate_plan_backend(backend: str | None) -> str | None:
        """Accept only plan-compatible backends (threads/processes)."""
        if backend is None:
            return None
        validate_backend(backend)
        if backend == SHARDS:
            raise ValueError(
                "the 'shards' backend is not plan-based; use "
                "repro.stream.shard.run_sharded, "
                "run_partial_merge_stream(backend='shards') or "
                "Query.with_shards(n) instead of the Planner"
            )
        return backend

    def _decide_clones(
        self, graph: DataflowGraph, overrides: dict[str, int]
    ) -> dict[str, int]:
        """Choose instance counts: overrides win, then cost-weighted split."""
        counts: dict[str, int] = {}
        cloneable: list[str] = []
        for name in graph.names():
            operator = graph.operator(name)
            if name in overrides:
                requested = max(1, int(overrides[name]))
                counts[name] = 1 if not operator.parallelizable else requested
            elif operator.parallelizable and isinstance(operator, Transform):
                cloneable.append(name)
            else:
                counts[name] = 1

        if not cloneable:
            return counts

        singletons = sum(counts.values())
        budget = self.resources.clones_available(reserved=singletons)
        total_cost = sum(graph.cost_hint(name) for name in cloneable)
        remaining = budget
        for position, name in enumerate(cloneable):
            if position == len(cloneable) - 1:
                share = remaining
            else:
                share = max(1, round(budget * graph.cost_hint(name) / total_cost))
                share = min(share, remaining - (len(cloneable) - position - 1))
            counts[name] = max(1, share)
            remaining -= counts[name]
        return counts

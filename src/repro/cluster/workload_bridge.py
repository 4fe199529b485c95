"""Closed-loop workload generators driving the cluster substrate.

YCSB generators are closed-loop: each generator thread issues an operation,
waits for it to complete, then immediately issues the next one.  Throughput
is therefore determined by latency — which is exactly how better replica
selection translates into the higher read throughput of Figure 7.
"""

from __future__ import annotations


from ..simulator.engine import EventLoop
from ..simulator.request import Request
from ..workloads.ycsb import YCSBWorkload
from .coordinator import Coordinator

__all__ = ["ClosedLoopGenerator"]


class ClosedLoopGenerator:
    """One YCSB-style generator thread bound to a coordinator.

    Parameters
    ----------
    loop:
        Shared event loop.
    generator_id:
        Stable identifier.
    workload:
        The operation stream (mix, key skew, record sizes).
    coordinator:
        The coordinator node this generator's connection terminates at.
    group_label:
        Label attached to every operation (used to slice latency series per
        generator group, e.g. in the Figure 11 experiment).
    start_at_ms / stop_issuing_at_ms:
        When the generator starts and stops issuing new operations.
    max_operations:
        Optional cap on the number of operations issued.
    think_time_ms:
        Delay between receiving a response and issuing the next operation
        (0 = full closed loop, as YCSB runs at maximum attainable throughput).
    """

    def __init__(
        self,
        loop: EventLoop,
        generator_id: int,
        workload: YCSBWorkload,
        coordinator: Coordinator,
        group_label: str = "",
        start_at_ms: float = 0.0,
        stop_issuing_at_ms: float | None = None,
        max_operations: int | None = None,
        think_time_ms: float = 0.0,
    ) -> None:
        if start_at_ms < 0:
            raise ValueError("start_at_ms must be non-negative")
        if think_time_ms < 0:
            raise ValueError("think_time_ms must be non-negative")
        self.loop = loop
        self.generator_id = generator_id
        self.workload = workload
        self.coordinator = coordinator
        self.group_label = group_label or workload.name
        self.start_at_ms = float(start_at_ms)
        self.stop_issuing_at_ms = stop_issuing_at_ms
        self.max_operations = max_operations
        self.think_time_ms = float(think_time_ms)

        self.operations_issued = 0
        self.operations_completed = 0
        self.total_latency_ms = 0.0
        self.stopped = False

    # --------------------------------------------------------------------- run
    def start(self) -> None:
        """Schedule the generator's first operation."""
        self.loop.schedule_at(max(self.start_at_ms, self.loop.now), self._issue_next)

    def stop(self) -> None:
        """Stop issuing new operations (in-flight ones still complete)."""
        self.stopped = True

    def _should_stop(self) -> bool:
        if self.stopped:
            return True
        if self.max_operations is not None and self.operations_issued >= self.max_operations:
            return True
        if self.stop_issuing_at_ms is not None and self.loop.now >= self.stop_issuing_at_ms:
            return True
        return False

    def _issue_next(self) -> None:
        if self._should_stop():
            self.stopped = True
            return
        operation = self.workload.next_operation()
        self.operations_issued += 1
        self.coordinator.execute(operation, self._on_done, group_label=self.group_label)

    def _on_done(self, request: Request, latency_ms: float) -> None:
        self.operations_completed += 1
        self.total_latency_ms += latency_ms
        if self._should_stop():
            self.stopped = True
            return
        self.loop.post(self.think_time_ms, self._issue_next)

    # ------------------------------------------------------------- observation
    @property
    def mean_latency_ms(self) -> float:
        """Mean latency over this generator's completed operations."""
        if self.operations_completed == 0:
            return 0.0
        return self.total_latency_ms / self.operations_completed

    def stats(self) -> dict:
        """Per-generator counters."""
        return {
            "generator_id": self.generator_id,
            "group": self.group_label,
            "issued": self.operations_issued,
            "completed": self.operations_completed,
            "mean_latency_ms": self.mean_latency_ms,
            "stopped": self.stopped,
        }

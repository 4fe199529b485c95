"""Spans around the calls into each layer, recorded from outside the program.

The benchmark installs timing wrappers at class level around the boundary
callables named in :data:`BOUNDARIES` and removes them again after the
traced leg.  Each call records one span: boundary name, start, end, parent
span and — where the call carries a ``Request`` — its request id (child
spans inherit their parent's id).  A boundary's *self time* is its spans'
duration minus the part their child spans cover, so self times of all
boundaries add up to at most the wall time of the traced leg.

Every span updates the per-boundary ``calls`` / ``self_s`` accumulators;
the first :data:`FULL_SPANS` spans are also kept in full in preallocated
arrays (that is the first few thousand requests of a leg) and written out
by :meth:`Tracer.write_jsonl` when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter

#: Spans kept in full per traced leg; later spans are only aggregated.
FULL_SPANS = 50_000

#: boundary name -> [(module, class or None, attribute), ...].  A class of
#: ``"*"`` means every non-abstract definition in the ReplicaSelector tree.
BOUNDARIES = {
    # flat simulator, object path
    "simulator.build": [("repro.simulator.simulation", "ReplicaSelectionSimulation", "__init__")],
    "simulator.engine.run": [("repro.simulator.engine", "EventLoop", "run")],
    "simulator.engine.schedule": [("repro.simulator.engine", "EventLoop", "schedule_at")],
    "simulator.workload.generate": [("repro.simulator.workload", "WorkloadGenerator", "_generate_one")],
    "simulator.client.on_request": [("repro.simulator.client", "SimClient", "on_request")],
    "simulator.client.on_response": [("repro.simulator.client", "SimClient", "on_server_response")],
    "simulator.server.enqueue": [("repro.simulator.server", "SimServer", "enqueue")],
    "simulator.server.finish": [("repro.simulator.server", "SimServer", "_finish_service")],
    "simulator.metrics.record": [
        ("repro.simulator.metrics", "MetricsCollector", "on_issue"),
        ("repro.simulator.metrics", "MetricsCollector", "on_backpressure"),
        ("repro.simulator.metrics", "MetricsCollector", "on_complete"),
        ("repro.simulator.metrics", "MetricsCollector", "on_server_complete"),
        ("repro.simulator.metrics", "MetricsCollector", "on_client_complete"),
    ],
    "simulator.metrics.result": [
        ("repro.simulator.metrics", "MetricsCollector", "result"),
        ("repro.simulator.metrics", "SimulationResult", "digest"),
        ("repro.cluster.metrics", "ClusterMetrics", "result"),
    ],
    # flat simulator, batched path: opaque from outside
    "simulator.kernel.run": [("repro.simulator.kernel", "BatchedKernel", "run")],
    # selectors and the C3 core, shared by every executor
    "strategies.submit": [("repro.strategies.base", "*", "submit")],
    "strategies.on_response": [("repro.strategies.base", "*", "on_response")],
    "core.scheduler.submit": [("repro.core.scheduler", "C3Scheduler", "submit")],
    "core.scheduler.on_response": [("repro.core.scheduler", "C3Scheduler", "on_response")],
    "core.scheduler.drain_backlog": [("repro.core.scheduler", "C3Scheduler", "drain_backlog")],
    # cluster substrate
    "cluster.build": [("repro.cluster.cluster", "CassandraCluster", "__init__")],
    "cluster.generator.issue": [("repro.cluster.workload_bridge", "ClosedLoopGenerator", "_issue_next")],
    "cluster.coordinator.execute": [("repro.cluster.coordinator", "Coordinator", "execute")],
    "cluster.coordinator.on_response": [("repro.cluster.coordinator", "Coordinator", "on_remote_response")],
    "cluster.node.enqueue": [("repro.cluster.node", "ClusterNode", "enqueue")],
    "cluster.node.finish": [("repro.cluster.node", "ClusterNode", "_finish_service")],
    "cluster.storage.service_time": [
        ("repro.cluster.storage", "StorageEngine", "read_service_time"),
        ("repro.cluster.storage", "StorageEngine", "write_service_time"),
    ],
    "cluster.ring.replicas_for": [("repro.cluster.ring", "TokenRing", "replicas_for")],
    "cluster.metrics.record": [
        ("repro.cluster.metrics", "ClusterMetrics", "record_issue"),
        ("repro.cluster.metrics", "ClusterMetrics", "record_copy"),
        ("repro.cluster.metrics", "ClusterMetrics", "record_backpressure"),
        ("repro.cluster.metrics", "ClusterMetrics", "record_load"),
        ("repro.cluster.metrics", "ClusterMetrics", "record_operation"),
    ],
    # sweep runner (traced serially, in this process)
    "runner.expand": [("repro.runner.spec", "SweepSpec", "trials")],
    "runner.execute_trial": [("repro.runner.runner", None, "execute_trial")],
    "runner.config_to_payload": [("repro.runner.runner", None, "config_to_payload")],
    "runner.cache.get": [("repro.runner.cache", "TrialCache", "get")],
    "runner.cache.put": [("repro.runner.cache", "TrialCache", "put")],
    "runner.aggregate": [("repro.runner.results", "SweepResult", "aggregates")],
}

#: Which boundaries each traced workload installs.  The sweep leaves the
#: simulator unwrapped: its trials are the unit of work there.
GROUPS = {
    "sim": [n for n in BOUNDARIES if n.startswith(("simulator.", "strategies.", "core."))],
    "cluster": [
        n
        for n in BOUNDARIES
        if n.startswith(("cluster.", "strategies.", "core.", "simulator.engine.", "simulator.metrics.result"))
    ],
    "runner": [n for n in BOUNDARIES if n.startswith("runner.")],
    "live": ["strategies.submit", "strategies.on_response"] + [n for n in BOUNDARIES if n.startswith("core.")],
}


def _selector_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, capacity: int = FULL_SPANS) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.capacity = capacity
        zeros = bytes(8 * capacity)
        self.span_name = array("q", zeros)
        self.span_parent = array("q", zeros)
        self.span_request = array("q", zeros)
        self.span_start = array("d", zeros)
        self.span_end = array("d", zeros)
        self.count = 0  # spans seen, recorded in full or not
        # One frame per open span: [span index, time covered by children, request id].
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrappers
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def _wrap(self, fn, nid: int):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        name_arr, parent_arr, req_arr = self.span_name, self.span_parent, self.span_request
        start_arr, end_arr = self.span_start, self.span_end
        capacity = self.capacity
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.count
            tracer.count = index + 1
            if stack:
                parent = stack[-1]
                parent_index, request_id = parent[0], parent[2]
            else:
                parent, parent_index, request_id = None, -1, -1
            if len(args) > 1:
                # Methods that carry a Request take it as their first argument.
                request_id = getattr(args[1], "request_id", request_id)
            frame = [index, 0.0, request_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if index < capacity:
                    name_arr[index] = nid
                    parent_arr[index] = parent_index
                    req_arr[index] = request_id
                    start_arr[index] = start
                    end_arr[index] = end

        return traced

    def install(self, group: str) -> None:
        """Wrap every boundary of ``group``; undo with :meth:`uninstall`."""
        for name in GROUPS[group]:
            nid = self._name_id(name)
            for module_name, class_name, attr in BOUNDARIES[name]:
                module = importlib.import_module(module_name)
                if class_name is None:
                    owners = [module]
                elif class_name == "*":
                    owners = [
                        cls
                        for cls in _selector_classes(module.ReplicaSelector)
                        if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False)
                    ]
                else:
                    owners = [getattr(module, class_name)]
                for owner in owners:
                    original = vars(owner)[attr]
                    setattr(owner, attr, self._wrap(original, nid))
                    self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- results
    def totals(self) -> dict[str, tuple[int, float]]:
        """``{boundary: (calls, self seconds)}`` over every span seen."""
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        """The totals as per-layer metrics: ``<boundary>.calls`` and ``.self_s``."""
        result = {}
        for name, (calls, self_s) in self.totals().items():
            result[f"{name}.calls"] = calls
            result[f"{name}.self_s"] = self_s
        return result

    def attributed_s(self) -> float:
        return sum(self.self_s)

    def write_jsonl(self, path) -> None:
        """Full spans first, then one aggregate line per boundary."""
        kept = min(self.count, self.capacity)
        origin = self.span_start[0] if kept else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(kept):
                fh.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": self.names[self.span_name[i]],
                            "parent": self.span_parent[i],
                            "request": self.span_request[i],
                            "start_us": round((self.span_start[i] - origin) * 1e6, 3),
                            "end_us": round((self.span_end[i] - origin) * 1e6, 3),
                        }
                    )
                    + "\n"
                )
            for name, (calls, self_s) in self.totals().items():
                fh.write(
                    json.dumps({"aggregate": name, "calls": calls, "self_s": self_s, "spans_seen": self.count})
                    + "\n"
                )

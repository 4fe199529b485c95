"""Batched event-loop kernel for the flat simulator's hot path.

``SimulationConfig(kernel="batched")`` replaces the object-graph event flow
(`Event` objects calling ``SimClient``/``SimServer`` bound methods, one
``Request`` instance and one ``ServerFeedback`` per hop) with a single typed
dispatch loop:

* **Array-of-struct request state, in-flight only** — requests live in
  parallel Python lists (created/client/group/kind/parent/dispatched/
  server/completed) indexed by request id; no ``Request`` objects are
  allocated on the hot path.  A request id is an arena *slot*, unique only
  while its request lives: a slot goes back on a free list once nothing can
  name it any more (a response's latency is recorded; a hedged primary's
  own response is in and every copy it fired has answered), and a new
  request takes a free slot before the arena grows.  Nothing uses a rid as
  more than a key — selectors treat ``request`` as opaque and C3's backlog
  is FIFO — so the object path's id counter need not be reproduced.  The
  arena, and with it a leg's memory, grows with peak in-flight requests,
  not with ``num_requests``: ``tracemalloc`` peak of a streaming C3 run on
  9 servers × 10 clients goes 0.45 → 0.73 MB from 5 000 to 40 000
  requests, up to 0.26 MB of it the completion-time buffer below (0.98 →
  6.23 MB when every request kept its slot and every completion time
  stayed to the end; the object path 0.21 → 0.35 MB), and ``flat_scale``
  ``peak_rss_mb`` went 75.1 → 51.4 MB (median of ten interleaved pairs,
  10/10).  Exact mode's latency lists stay O(requests): they are the
  measurement.
* **Typed heap entries** — a request's three hops (ENQUEUE, FINISH,
  RESPONSE) are plain tuples ``(time, seq, code, a, b, c)`` pushed onto the
  same heap that the loop's own entries use — ``(time, seq, None, Event)``
  timers (scenario components, fluctuation processes, the clients' retry,
  park and hedge timers) and ``(time, seq, callback, args)`` messages.
  ``seq`` is unique, so tuple comparison never reaches the mixed third slot.
* **One request lifecycle** — each client is a :class:`KernelClient`, the
  ``SimClient`` that runs :class:`~repro.core.lifecycle.RequestLifecycle`
  on arena slots.  The kernel inlines only the hot path: an arrival's
  submit and dispatch in the LOR, stock and C3 modes, and the three hops.
  Everything else a client does — liveness-filtered and custom-selector
  submits, backlog releases, the retry chain, parking, hedging — is the
  lifecycle's own code, reached through the client's I/O hooks.
* **Vectorized service draws** — each server consumes a pre-drawn block of
  standard-exponential variates on its own RNG stream
  (``rng.standard_exponential(n)`` advances the stream exactly as ``n``
  scalar ``rng.exponential(mean)`` calls do, and ``mean * e`` is bitwise
  equal to ``exponential(mean)``).
* **Batched selector scoring** — LOR scores replica groups over contiguous
  per-client outstanding counts instead of defaultdict lookups: for the run,
  the selector's own state is that dense list (``kernel_state``), and
  ``kernel_restore`` turns it back into the dict.  C3 is scored inline over
  the scorer's live dense arrays and calls the shared
  :class:`~repro.core.rate_control.CubicRateController` objects.  Every
  other strategy, P2C included, runs through its normal selector methods
  (correct, less accelerated).
* **No shadow counters** — every count the inlined hops keep is the owning
  object's own field: the server's, the client's, the selector's,
  ``scorer.counters`` and the metrics collector's counts and latency lists
  (or streaming histograms).  A loop timer, a scenario component or a
  lifecycle call mid-run reads what the object path would show there.
  Two things wait for a flush nothing outside reads before it: the
  arrival count (``generated``, written back around every generic callback
  and at slice end) and the per-server completion times, flushed through
  :meth:`~repro.simulator.metrics.WindowedCounter.record_batch` at the end
  of any slice that leaves more than ``_FLUSH_BLOCK`` of them buffered, and
  in ``finish()`` — one scatter per distinct window instead of one dict
  update per completion.  ``record_batch`` is additive, so the chunks sum to
  the one batch a whole run would make.

The inlined selector paths are twins of code that also lives behind the
selectors' methods, and each stays because it pays.  Requests per host
second of the fast path over this kernel's own polymorphic ``_CUSTOM`` path
(``selector.submit`` / ``on_response`` per request, dispatch still inline;
``_detect_mode`` patched to return it) on the ``flat_scale`` configuration,
ten interleaved process pairs per strategy, digests equal in every pair and
the fast path ahead in every pair:

===============  ======================
inlined path     fast / polymorphic
===============  ======================
C3               1.45x  (1.35–1.41x)
LOR              1.77x  (1.57x)
stock selectors  1.32x  (1.26x)
===============  ======================

(Median of the per-pair ratios at 60 000 requests a leg; in brackets an
earlier run of the same comparison at 120 000, ahead in at least nine pairs.)

``run_slice`` also carried four blocks transcribed from handlers the kernel
has anyway.  Each was replaced by a call to its handler (the coin block by
the scalar draw the object path makes) and measured alone against the inline
version on the ``flat_scale`` configuration — interleaved pairs, one seed a
pair, order alternating, digests equal in every pair; the ratio is requests
per host second with the call over inline.  No median leaves the quartile
spread of the inline side's own legs (8–28 % of its median on the loaded
machine that measured; the in-process harness comparing the inline version
with itself read 1.08, 12/16), so all four are calls now, and these are the
figures that bringing one back inline would have to beat:

==============================================  =========================================
was inline in ``run_slice``                     call / inline: median of pairs (wins)
==============================================  =========================================
read-repair fanout → ``_rr_fanout``             0.97 (4/10) · 1.03 (13/20)
read-repair coin block → ``rng.random()``       0.94 (2/10) · 1.01 (6/12) · 0.95 (6/20)
FINISH slot refill → ``start_service``          0.93 (3/10) · 0.98 (5/12) · 0.97 (8/20)
C3 backpressure's own arrival rescheduling      0.97 (4/10) · 1.00 (10/20)
==============================================  =========================================

(First figure: process pairs of three 120 000-request legs; last: single
legs alternating inside one process.)  The workload variates come from the
generator's draw source (:data:`~repro.simulator.workload.RNGS`), so nothing
here knows the ``rng`` regime.  ``"block"`` over ``"v1"`` was 1.19x under
this kernel (``flat_scale`` configuration, 28 949 → 34 825 requests per
host second, 10/10 pairs) and 1.13x on the object path (``flat_c3``'s,
18 824 → 21 310, 9/10) while every ``v1`` variate was a Generator method
call.  Since the scalar draws call numpy's C samplers directly
(:mod:`repro.core.samplers`), the same comparison (C3, ten alternating
process pairs) reads 1.03x under this kernel (7/10, quartiles 0.94–1.14)
and 1.03x on the object path (9/10, 1.01–1.05): the speed that kept the
regime's second digest domain is down to a few per cent.

Everything timed — ENQUEUE and RESPONSE entries included — shares the one
heap; only the next workload arrival is kept outside it, as a scalar.
Plain heap pushes measured 0.98–1.10x the speed of dedicated monotone lanes
for those two entry kinds (five workloads, within noise), so there are none.

Equivalence contract: for any config, ``kernel="batched"`` must produce a
result whose digest is byte-identical to ``kernel="object"`` — same RNG
draw order on every stream, same heap ordering, same float expressions (see
``tests/simulator/test_kernel_equivalence.py``).  Scenario components keep
working unmodified: they schedule generic events on the shared loop, and
mid-run mutations (crash/restore, speed multipliers, network swaps, arrival
rate changes) are read through the live server/network/process objects.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any

import numpy as np

from ..controls.detectors import BinaryFailureDetector
from ..core.feedback import ServerFeedback
from ..core.lifecycle import Hedge
from ..core.scheduler import C3Scheduler
from ..strategies.base import ReplicaSelector, StatefulSelector
from ..strategies.least_outstanding import LeastOutstandingSelector
from .client import SimClient
from .metrics import WindowedCounter
from .network import ConstantLatency
from .request import record_size_factor
from .server import SimServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import SimulationResult
    from .simulation import ReplicaSelectionSimulation

__all__ = ["BatchedKernel", "KernelClient", "KernelServer"]

# Typed heap-entry codes (slot 2 of a 6-tuple; the loop's own entries carry
# None (timer) or a callback (message) there instead).
_ENQUEUE = 0  # (t, seq, 0, rid, sid, 0.0)      request arrives at server
_FINISH = 1  # (t, seq, 1, rid, sid, st)       service slot completes
_RESPONSE = 2  # (t, seq, 2, rid, qsize, stime)  response arrives at client
# The next workload arrival is scalar state (_arr_t/_arr_seq), not a heap
# entry: at most one is ever pending, and arrival times strictly increase.
# The clients' backlog retry, park and hedge timers are the lifecycle's own
# EventLoop timers.

# Request kinds as small ints (order matches RequestKind usage: only the
# write/read split and duplicate-ness matter to metrics).
_READ = 0
_WRITE = 1
_READ_REPAIR = 2
_SPECULATIVE = 3

# Selector fast-path modes.
_LOR = 0
_STOCK = 1
_CUSTOM = 2
_C3 = 3

#: Sentinel "no pending arrival" time (compares after every real event).
_NEVER = float("inf")

#: Pre-drawn standard-exponential variates per server block.
_SVC_BLOCK = 512

#: Buffered per-server completion times past which a slice's end flushes
#: them into the load series.
_FLUSH_BLOCK = 8192


class KernelServer(SimServer):
    """A :class:`SimServer` whose service starts are driven by the kernel.

    In kernel mode the FIFO queue holds request *ids* (ints) rather than
    ``Request`` objects, and service times come from a pre-drawn block of
    standard-exponential variates on the server's own RNG stream.
    ``_try_start_service`` is overridden because scenario components call it
    directly (``restore()`` at the end of a crash window must drain the
    queue that built up), and those starts must stay on the block stream.

    Everything else is the object's own state, written by the kernel in
    place — the queue, the slots, the request/queue counters, busy time and
    the service-time EWMA — and read there by scenario components, the
    ``server_state_fn`` of snitch-style selectors and :meth:`stats`.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Set here, not as class defaults the kernel later shadows: attributes
        # first assigned after ``__init__`` can cost the instance CPython's
        # inline attribute values, and every field access in ``run_slice``
        # then specialises to the slower dict-with-hint form.
        self.kernel: BatchedKernel | None = None
        self._svc_block: Any = None  # np.ndarray block of standard-exponential draws
        self._svc_i = 0

    def _try_start_service(self) -> None:
        kernel = self.kernel
        if kernel is None:
            super()._try_start_service()
        else:
            kernel.start_service(self, kernel.loop._now)


class KernelClient(SimClient):
    """A :class:`SimClient` whose requests are the kernel's arena slots.

    The kernel runs the hot path itself (an arrival's fast submit and
    dispatch, the response), and hands this client every other step of the
    request lifecycle: liveness-filtered and custom-selector submits, the
    backlog releases, the retry chain, parking and hedging run in
    :class:`~repro.core.lifecycle.RequestLifecycle`, on the loop's own
    timers, with the kernel's time on the loop clock.  What it overrides is
    I/O on ints: a sent request is a typed ENQUEUE entry, a copy is a new
    arena slot, and a slot goes back on the free list once nothing can name
    it.  A hedged read's ``op`` is ``[primary slot, responses still owed]``
    — the primary's and each copy's — and the primary's slot is freed when
    none is owed.  Requests are typed ``Any``: ints here, ``Request``
    objects in the base class.
    """

    #: The running :class:`BatchedKernel`; ``None`` outside a run.
    kernel: Any = None

    def _replica_group(self, request: Any) -> tuple:
        return self.kernel._group[request]

    def _transmit(self, request: Any, server_id: Any, now: float) -> bool:
        kernel = self.kernel
        kernel._disp[request] = now
        kernel._sid[request] = server_id
        delay = self.network.one_way_delay(self.client_id, server_id)
        loop = self.loop
        seq = loop._seq
        loop._seq = seq + 1
        heappush(kernel.heap, (now + delay, seq, _ENQUEUE, request, server_id, 0.0))
        return True

    def _count_backpressure(self, request: Any) -> None:
        self.metrics.on_backpressure()

    def _read_repair(self, request: Any, now: float) -> None:
        kernel = self.kernel
        if kernel._kind[request] != _READ or kernel._parent[request] >= 0:
            return
        probability = self.read_repair_probability
        if probability > 0.0 and self._rr_coin() < probability:
            kernel._rr_fanout(request, self.client_id, now)

    def _hedge(self, request: Any, server_id: Any, now: float) -> None:
        kernel = self.kernel
        if kernel._kind[request] == _READ and kernel._parent[request] < 0:
            hedge = self._arm_hedge([request, 1], kernel._group[request], server_id)
            if hedge is not None:
                self._hedge_ops[request] = hedge

    def _send_hedge(self, hedge: Hedge, server_id: Any, now: float) -> None:
        op = hedge.op
        op[1] += 1
        kernel = self.kernel
        duplicate = kernel._new_request(self.client_id, hedge.group, now, _SPECULATIVE, op[0])
        self._hedge_by_copy[duplicate] = hedge
        self.metrics.duplicate_requests += 1
        self.hedges_fired += 1
        self._transmit(duplicate, server_id, now)

    def _hedge_complete(self, request: Any, response_time: float, now: float) -> None:
        """:meth:`SimClient._hedge_complete` on slots: the first response
        completes the read, and every response is owed to its op."""
        kernel = self.kernel
        kernel._srv_times[kernel._sid[request]].append(now)
        comp = kernel._comp
        hedge = self._hedge_by_copy.pop(request, None)
        if hedge is not None:
            kernel._free.append(request)
            self._answered(hedge)
            if hedge.done:
                return
            self._close_hedge(hedge)
            self.hedges_won += 1
            primary = hedge.op[0]
            if comp[primary] < 0.0:
                comp[primary] = now
            dispatched = kernel._disp[primary]
            if dispatched >= 0.0:
                self.hedging.record(now - dispatched)
            kernel._record_latency(primary, comp[primary] - kernel._created[primary])
            return
        hedge = self._hedge_ops.get(request)
        if hedge is None or not hedge.done:
            if hedge is not None:
                self._close_hedge(hedge)  # a copy answering later is swallowed
            if kernel._parent[request] < 0:
                if kernel._kind[request] == _READ:
                    self.hedging.record(response_time)
                kernel._record_latency(request, comp[request] - kernel._created[request])
        if hedge is None:
            kernel._free.append(request)
        else:
            self._answered(hedge)

    def _answered(self, hedge: Hedge) -> None:
        """Count one response owed to ``hedge``'s op as in; once none is,
        the op and its primary's slot go."""
        op = hedge.op
        op[1] -= 1
        if not op[1]:
            del self._hedge_ops[op[0]]
            self.kernel._free.append(op[0])


class BatchedKernel:
    """Runs one :class:`ReplicaSelectionSimulation` through the typed loop."""

    def __init__(self, sim: "ReplicaSelectionSimulation") -> None:
        cfg = sim.config
        self.sim = sim
        self.loop = sim.loop
        # The kernel pushes 6-tuple entries onto the loop's Event heap and
        # duck-types the detector/metrics objects; those seams are typed Any
        # — the run-time invariants are pinned by the equivalence suites.
        self.heap: list[Any] = sim.loop._heap
        # Sequence numbers come from the loop's plain-int counter
        # (``loop._seq``), read/incremented inline at every draw site so the
        # kernel and any mid-run ``loop.schedule`` calls (fallback paths,
        # scenario components) share one globally unique, issuance-ordered
        # stream — exactly as when both held the same itertools.count object.
        self.metrics: Any = sim.metrics
        self.tracker = sim.down_tracker
        self.det: Any = sim.failure_detector
        self._binary = type(self.det) is BinaryFailureDetector

        self.servers: list[KernelServer] = []
        for sid in range(cfg.num_servers):
            server = sim.servers[sid]
            if not isinstance(server, KernelServer):
                raise TypeError(
                    "kernel='batched' requires KernelServer instances; build the "
                    "simulation with SimulationConfig(kernel='batched')"
                )
            server.kernel = self
            self.servers.append(server)
        self.size_factor = record_size_factor(cfg.record_size)

        self.clients: list[KernelClient] = []
        for client in sim.clients:
            if not isinstance(client, KernelClient):
                raise TypeError(
                    "kernel='batched' requires KernelClient instances; build the "
                    "simulation with SimulationConfig(kernel='batched')"
                )
            client.kernel = self
            self.clients.append(client)
        clients = self.clients
        # Selectors are dispatched on their *exact* run-time type
        # (_detect_mode) and then accessed through per-mode attributes the
        # base classes don't declare; Any is the honest type.
        self._sels: list[Any] = [c.selector for c in clients]
        self.rrp = float(cfg.read_repair_probability)
        self._hedged = any(c.hedging is not None for c in clients)
        self.mode = self._detect_mode(self._sels[0]) if self._sels else _CUSTOM

        num_servers = cfg.num_servers
        if self.mode == _LOR:
            for sel in self._sels:
                sel.kernel_state(num_servers)
        elif self.mode == _C3:
            states = [sel.kernel_state(num_servers) for sel in self._sels]
            c3_cfg = self._sels[0].config
            if any(s is None for s in states) or any(
                sel.config != c3_cfg for sel in self._sels
            ):
                # Subclassed internals or heterogeneous configs: run C3
                # through the fully polymorphic path instead.
                self.mode = _CUSTOM
            else:
                scorer_state = [s[0] for s in states]
                self._c3_rt_val = [x[0] for x in scorer_state]
                self._c3_rt_cnt = [x[1] for x in scorer_state]
                self._c3_qs_val = [x[2] for x in scorer_state]
                self._c3_qs_cnt = [x[3] for x in scorer_state]
                self._c3_st_val = [x[4] for x in scorer_state]
                self._c3_st_cnt = [x[5] for x in scorer_state]
                self._c3_out = [x[6] for x in scorer_state]
                self._c3_fb_cnt = [x[7] for x in scorer_state]
                self._c3_last_sent = [x[8] for x in scorer_state]
                self._c3_last_fb = [x[9] for x in scorer_state]
                self._c3_tiekey = [x[10] for x in scorer_state]
                self._c3_ctrl = [s[1] for s in states]
                # Config scalars are read exactly as the scorer reads them
                # (no float() coercion — arithmetic must match bitwise).
                self.c3_alpha = c3_cfg.ewma_alpha
                self.c3_w = c3_cfg.concurrency_weight
                self.c3_b = c3_cfg.score_exponent
                self.c3_floor = c3_cfg.service_time_floor_ms
                self.c3_rc = c3_cfg.rate_control_enabled

        # Arena: one slot per in-flight request, rid == slot index; _free
        # holds the slots no request can name any more.
        self._free: list[int] = []
        self._created: list[float] = []
        self._client: list[int] = []
        self._group: list[tuple] = []
        self._kind: list[int] = []
        self._parent: list[int] = []
        self._disp: list[float] = []
        self._sid: list[int] = []
        self._comp: list[float] = []

        self._exact = sim.metrics.metrics_mode == "exact"
        #: Completion times per server, waiting for the load series.
        self._srv_times: list[list[float]] = [[] for _ in range(num_servers)]

        generator = sim.generator
        assert generator is not None
        self.gen = generator
        self.proc = generator.process
        self.groups = generator.groups
        self.read_fraction = generator.read_fraction
        #: The generator's draw source: the kernel consumes the workload
        #: variates itself, at the positions the object path would.
        self.draws = generator.draws

    @staticmethod
    def _detect_mode(selector: ReplicaSelector) -> int:
        """Pick the fast path the selector's exact type allows.

        The inlined LOR and C3 paths require the *exact* class (a subclass
        may override any hook); the generic stock path requires the base
        ``submit``/``on_response``/backlog methods to be unoverridden.
        Anything else — rate-limited round-robin (a ``C3Scheduler`` whose
        scorer rotates), user strategies — takes the fully polymorphic path.
        """
        cls = type(selector)
        if cls is LeastOutstandingSelector:
            return _LOR
        if cls is C3Scheduler:
            return _C3
        if (
            isinstance(selector, StatefulSelector)
            and cls.submit is StatefulSelector.submit
            and cls.on_response is StatefulSelector.on_response
            and cls.pending_backlog is ReplicaSelector.pending_backlog
            and cls.drain_backlog is ReplicaSelector.drain_backlog
        ):
            return _STOCK
        return _CUSTOM

    # ------------------------------------------------------------------- run
    def run(self) -> "SimulationResult":
        """The whole run, under the driver both engines share."""
        return self.sim.drive(self)

    def start(self) -> None:
        """Draw the first workload arrival.

        The next arrival is scalar state rather than a heap entry: arrival
        times are strictly increasing, so at most one is pending and it never
        needs heap ordering among its own kind.  It still consumes a heap
        sequence number at "push" time so (time, seq) comparisons against
        real heap entries break ties exactly as the object path's scheduled
        arrival events do.
        """
        loop = self.loop
        if self.proc.total_arrivals > 0:
            self._arr_t = loop._now + self.draws.next_gap() * (1.0 / self.proc.rate_per_ms)
            self._arr_seq = loop._seq
            loop._seq += 1
        else:
            self._arr_t = _NEVER
            self._arr_seq = 0

    def run_slice(self, until: float) -> None:
        """Process every heap entry with ``time <= until``.

        The four per-request handlers (RESPONSE, FINISH, ENQUEUE, ARRIVAL)
        are inlined here with the loop-invariant state hoisted into locals;
        each writes its counts on the owning server, client, selector, scorer
        and metrics collector in place.  The rest goes through methods: the
        read-repair fanout and refilling a freed
        service slot from the queue (``_rr_fanout``, ``start_service``), and
        every other step of a request — suspicious-mode and custom-selector
        submits, backlog releases, the retry chain, parking, hedging — through
        the request's :class:`KernelClient`, with ``t`` put on the loop clock
        first: the lifecycle's timers read it.  Only the refill is common
        (four FINISH events in five on the ``flat_scale`` configuration); the
        module docstring records what each call measured against a
        transcribed copy.  A slice that leaves more than ``_FLUSH_BLOCK``
        completion times buffered ends by flushing them.
        """
        loop = self.loop
        heap = self.heap
        pop = heappop
        push = heappush
        servers = self.servers
        created = self._created
        client_of = self._client
        group_of = self._group
        kind_of = self._kind
        parent_of = self._parent
        disp = self._disp
        sid_of = self._sid
        comp = self._comp
        free = self._free
        free_pop = free.pop
        free_app = free.append
        srv_times = self._srv_times
        tracker = self.tracker
        binary = self._binary
        det = self.det
        mode = self.mode
        hedged = self._hedged
        sels = self._sels
        clients = self.clients
        size_factor = self.size_factor
        sim = self.sim
        rrp = self.rrp
        metrics = self.metrics
        exact = self._exact
        lat_all = metrics._latencies
        lat_read = metrics._read_latencies
        lat_write = metrics._write_latencies
        if mode == _C3:
            c3_rt_val = self._c3_rt_val
            c3_rt_cnt = self._c3_rt_cnt
            c3_qs_val = self._c3_qs_val
            c3_qs_cnt = self._c3_qs_cnt
            c3_st_val = self._c3_st_val
            c3_st_cnt = self._c3_st_cnt
            c3_out = self._c3_out
            c3_fb_cnt = self._c3_fb_cnt
            c3_last_sent = self._c3_last_sent
            c3_last_fb = self._c3_last_fb
            c3_tiekey = self._c3_tiekey
            c3_ctrl = self._c3_ctrl
            c3_alpha = self.c3_alpha
            c3_w = self.c3_w
            c3_b = self.c3_b
            c3_floor = self.c3_floor
            c3_rc = self.c3_rc
        proc = self.proc
        draws = self.draws
        next_client = draws.next_client
        next_group = draws.next_group
        next_coin = draws.next_coin
        next_gap = draws.next_gap
        groups = self.groups
        read_fraction = self.read_fraction
        always_read = read_fraction >= 1.0
        # Arrival-process state and the network model only change via
        # scenario events, so both are hoisted here and re-derived after
        # each generic Event callback rather than per event.  ``generated``
        # is written back, to the process and the generator, around
        # callbacks and at slice end.
        gen = self.gen
        generated = proc.generated
        total_arrivals = proc.total_arrivals
        inv_rate = 1.0 / proc.rate_per_ms
        network = sim.network
        const_delay = network.delay_ms if type(network) is ConstantLatency else None
        arr_t = self._arr_t
        arr_seq = self._arr_seq
        fired = 0
        while True:
            # Two event sources merge by (time, seq): the heap and the scalar
            # next-arrival.  seqs are globally unique, so the comparison
            # below imposes exactly the order one shared heap would.
            if heap:
                entry = heap[0]
                t = entry[0]
                s = entry[1]
            else:
                entry = None
                t = _NEVER
                s = 0
            if arr_t < t or (arr_t == t and arr_seq < s):
                arrival = True
                t = arr_t
            else:
                arrival = False
            if t > until:
                break
            if arrival:
                # Workload arrivals live as scalar state (at most one is ever
                # pending, and arrival times are strictly increasing), so the
                # hottest event class never touches the heap.  The seq is
                # still consumed at the same stream position the object path
                # consumed it, so (t, seq) ties against heap entries resolve
                # identically.
                fired += 1
                generated += 1
                cid = next_client()
                group = groups[next_group()]
                kind = _READ if always_read or next_coin() < read_fraction else _WRITE
                if free:
                    rid = free_pop()
                    created[rid] = t
                    client_of[rid] = cid
                    group_of[rid] = group
                    kind_of[rid] = kind
                    parent_of[rid] = -1
                    disp[rid] = -1.0
                    sid_of[rid] = -1
                    comp[rid] = -1.0
                else:
                    rid = len(created)
                    created.append(t)
                    client_of.append(cid)
                    group_of.append(group)
                    kind_of.append(kind)
                    parent_of.append(-1)
                    disp.append(-1.0)
                    sid_of.append(-1)
                    comp.append(-1.0)
                client = clients[cid]
                client.requests_handled += 1
                metrics.issued_requests += 1
                suspicious = tracker.count != 0 if binary else det.suspicious()
                if suspicious or mode == _CUSTOM:
                    loop._now = t
                    client._submit(rid, t)
                else:
                    # Inline submit + dispatch for the LOR/stock/C3 fast
                    # modes (no liveness filtering needed, so the
                    # dispatch-time re-check is also vacuous).
                    if mode == _STOCK:
                        sel = sels[cid]
                        sel.requests_submitted += 1
                        sid = sel.choose(group, t)
                        sel.record_send(sid, t)
                    elif mode == _C3:
                        # Inline Algorithm 1: scalar cubic scores over the
                        # scorer's live dense arrays (expression transcribed
                        # from cubic_score, bitwise-equal), rank by
                        # (score, outstanding, tiekey), then the rate-control
                        # acquire loop.  The arrays are shared, so method
                        # fallbacks (read-repair duplicates go through
                        # on_duplicate_send) stay coherent with this inline
                        # path.
                        sel = sels[cid]
                        sel.requests_submitted += 1
                        counters = sel.scorer.counters
                        rt_val = c3_rt_val[cid]
                        qs_val = c3_qs_val[cid]
                        st_val = c3_st_val[cid]
                        st_cnt = c3_st_cnt[cid]
                        souts = c3_out[cid]
                        tiekey = c3_tiekey[cid]
                        counters.score_evaluations += len(group)
                        decorated = []
                        k = 0
                        for s in group:
                            stv = st_val[s]
                            if not st_cnt[s] or stv < c3_floor:
                                stv = c3_floor
                            q = 1.0 + souts[s] * c3_w + qs_val[s]
                            decorated.append(
                                (
                                    rt_val[s] - stv + (q**c3_b) / (1.0 / stv),
                                    souts[s],
                                    tiekey[s],
                                    k,
                                )
                            )
                            k += 1
                        if not c3_rc:
                            sid = group[min(decorated)[3]]
                        else:
                            decorated.sort()
                            sid = -1
                            ctrls = c3_ctrl[cid]
                            for d in decorated:
                                cand_sid = group[d[3]]
                                if ctrls[cand_sid].try_acquire(t):
                                    sid = cand_sid
                                    break
                            if sid < 0:
                                # Backpressure: every replica is over rate.
                                sel.backlog.enqueue(rid, group, t)
                                sel.requests_backpressured += 1
                                metrics.backpressure_events += 1
                                loop._now = t
                                client._schedule_retry(sel.earliest_availability(group, t))
                        if sid >= 0:
                            souts[sid] += 1
                            c3_last_sent[cid][sid] = t
                            counters.sends += 1
                            sel.requests_sent += 1
                    else:
                        # LOR, in one pass: track the current minimum and
                        # lazily build the tie list only when a tie exists,
                        # so the common no-tie case touches no list
                        # machinery.
                        sel = sels[cid]
                        sel.requests_submitted += 1
                        out = sel._outstanding
                        sid = -1
                        lowest = 1 << 60
                        tied = None
                        for s in group:
                            v = out[s]
                            if v < lowest:
                                lowest = v
                                sid = s
                                tied = None
                            elif v == lowest:
                                if tied is None:
                                    tied = [sid, s]
                                else:
                                    tied.append(s)
                        if tied is not None:
                            sid = tied[int(sel.rng.integers(len(tied)))]
                        out[sid] += 1
                    # sid < 0: C3 backpressure queued the request, and only
                    # the next arrival is left to draw.
                    if sid >= 0:
                        disp[rid] = t
                        sid_of[rid] = sid
                        delay = const_delay
                        if delay is None:
                            delay = network.one_way_delay(cid, sid)
                        seq_v = loop._seq
                        loop._seq = seq_v + 1
                        push(heap, (t + delay, seq_v, _ENQUEUE, rid, sid, 0.0))
                        if kind == _READ and rrp > 0.0 and client._rr_coin() < rrp:
                            loop._now = t
                            self._rr_fanout(rid, cid, t)
                        if hedged:
                            loop._now = t
                            client._hedge(rid, sid, t)
                if generated < total_arrivals:
                    arr_t = t + next_gap() * inv_rate
                    arr_seq = loop._seq
                    loop._seq = arr_seq + 1
                else:
                    arr_t = _NEVER
                continue
            pop(heap)
            code = entry[2]
            if type(code) is not int:
                # A generic loop entry: a timer's Event (scenario component,
                # fluctuation process) or a handle-free message.
                if code is None:
                    event = entry[3]
                    event._loop = None
                    if event.cancelled:
                        loop._dead -= 1
                        continue
                loop._now = t
                fired += 1
                proc.generated = gen.requests_generated = generated
                if code is None:
                    event.callback(*event.args, **event.kwargs)
                else:
                    code(*entry[3])
                generated = proc.generated
                inv_rate = 1.0 / proc.rate_per_ms
                network = sim.network
                const_delay = network.delay_ms if type(network) is ConstantLatency else None
                continue
            # loop._now is deliberately NOT updated per typed event: nothing
            # inline reads the loop clock (handlers take ``t`` explicitly),
            # generic callbacks get it set above, calls into a client set it
            # first, and the trailing max() below restores it at slice end.
            fired += 1
            if code == _RESPONSE:
                rid = entry[3]
                cid = client_of[rid]
                sid = sid_of[rid]
                client = clients[cid]
                client.responses_handled += 1
                if not binary:
                    det.heartbeat(sid, t)
                if comp[rid] < 0.0:
                    comp[rid] = t
                dispatched = disp[rid]
                response_time = t - dispatched if dispatched >= 0.0 else t - created[rid]
                released = None
                if mode == _LOR:
                    sel = sels[cid]
                    sel.responses_received += 1
                    out = sel._outstanding
                    if out[sid] > 0:
                        out[sid] -= 1
                elif mode == _STOCK:
                    sel = sels[cid]
                    sel.responses_received += 1
                    sel.record_response(
                        sid, ServerFeedback(entry[4], entry[5], sid), response_time, t
                    )
                elif mode == _C3:
                    # Inline Algorithm 2: three EWMA folds into the scorer's
                    # live arrays (transcribed from its on_response), then the
                    # CUBIC controller update and a guarded backlog drain.
                    sel = sels[cid]
                    sel.responses_received += 1
                    sel.scorer.counters.responses += 1
                    souts = c3_out[cid]
                    if souts[sid] > 0:
                        souts[sid] -= 1
                    vals = c3_rt_val[cid]
                    cnts = c3_rt_cnt[cid]
                    if cnts[sid]:
                        vals[sid] = c3_alpha * response_time + (1.0 - c3_alpha) * vals[sid]
                    else:
                        vals[sid] = response_time
                    cnts[sid] += 1
                    vals = c3_qs_val[cid]
                    cnts = c3_qs_cnt[cid]
                    sample = float(entry[4])
                    if cnts[sid]:
                        vals[sid] = c3_alpha * sample + (1.0 - c3_alpha) * vals[sid]
                    else:
                        vals[sid] = sample
                    cnts[sid] += 1
                    vals = c3_st_val[cid]
                    cnts = c3_st_cnt[cid]
                    sample = entry[5]
                    if sample < c3_floor:
                        sample = c3_floor
                    if cnts[sid]:
                        vals[sid] = c3_alpha * sample + (1.0 - c3_alpha) * vals[sid]
                    else:
                        vals[sid] = sample
                    cnts[sid] += 1
                    c3_fb_cnt[cid][sid] += 1
                    c3_last_fb[cid][sid] = t
                    if c3_rc:
                        c3_ctrl[cid][sid].on_response(t)
                        if sel.backlog._pending:
                            released = sel.drain_backlog(t)
                else:
                    released = sels[cid].on_response(
                        sid, ServerFeedback(entry[4], entry[5], sid), response_time, t
                    )
                if hedged:
                    client._hedge_complete(rid, response_time, t)
                else:
                    srv_times[sid].append(t)
                    if parent_of[rid] < 0:
                        latency = comp[rid] - created[rid]
                        if exact:
                            metrics.completed_requests += 1
                            lat_all.append(latency)
                            if kind_of[rid] == _WRITE:
                                lat_write.append(latency)
                            else:
                                lat_read.append(latency)
                        else:
                            self._record_latency(rid, latency)
                    free_app(rid)
                if released:
                    loop._now = t
                    client._release_all(released, t)
            elif code == _FINISH:
                rid = entry[3]
                sid = entry[4]
                service_time = entry[5]
                server = servers[sid]
                ins = server._in_service - 1
                server._in_service = ins
                server.requests_completed += 1
                server.busy_time_ms += service_time
                alpha = server.feedback_alpha
                value = alpha * service_time + (1.0 - alpha) * server.smoothed_service_time
                server.smoothed_service_time = value
                queue = server._queue
                qsize = len(queue) + ins
                stime = value if value > 1e-3 else 1e-3
                if queue and server._up and ins < server.concurrency:
                    self.start_service(server, t)
                cid = client_of[rid]
                delay = const_delay
                if delay is None:
                    delay = network.one_way_delay(sid, cid)
                seq_v = loop._seq
                loop._seq = seq_v + 1
                push(heap, (t + delay, seq_v, _RESPONSE, rid, qsize, stime))
            else:  # _ENQUEUE
                rid = entry[3]
                sid = entry[4]
                server = servers[sid]
                up = server._up
                if not up:
                    server.enqueued_while_down += 1
                server.requests_received += 1
                queue = server._queue
                ins = server._in_service
                pending = len(queue) + ins
                server.cumulative_queue_samples += pending
                server.queue_samples += 1
                pending += 1
                if pending > server.max_queue_length:
                    server.max_queue_length = pending
                # Queued requests imply no free slot (start_service always
                # drains), so a free slot here means the queue is empty and
                # this request starts service immediately.
                if up and ins < server.concurrency:
                    server._in_service = ins + 1
                    mean = (server.base_service_time_ms * server._service_time_multiplier) * size_factor
                    if server.deterministic:
                        st = mean
                    else:
                        block = server._svc_block
                        i = server._svc_i
                        if block is None or i >= _SVC_BLOCK:
                            block = server._svc_block = server.rng.standard_exponential(
                                _SVC_BLOCK
                            )
                            i = 0
                        st = float(mean * block[i])
                        server._svc_i = i + 1
                    seq_v = loop._seq
                    loop._seq = seq_v + 1
                    push(heap, (t + st, seq_v, _FINISH, rid, sid, st))
                else:
                    queue.append(rid)
        if arr_t > until and (not heap or heap[0][0] > until):
            loop._now = max(loop._now, until)
        loop._processed += fired
        self._arr_t = arr_t
        self._arr_seq = arr_seq
        proc.generated = gen.requests_generated = generated
        if sum(map(len, srv_times)) > _FLUSH_BLOCK:
            self._flush_completions()

    # ------------------------------------------------------------- requests
    def _new_request(self, cid: int, group: tuple, t: float, kind: int, parent: int) -> int:
        """A slot for a new request: a free one if any, else one more at the
        arena's end (``run_slice``'s arrival path inlines both)."""
        if self._free:
            rid = self._free.pop()
            self._created[rid] = t
            self._client[rid] = cid
            self._group[rid] = group
            self._kind[rid] = kind
            self._parent[rid] = parent
            self._disp[rid] = -1.0
            self._sid[rid] = -1
            self._comp[rid] = -1.0
            return rid
        rid = len(self._created)
        self._created.append(t)
        self._client.append(cid)
        self._group.append(group)
        self._kind.append(kind)
        self._parent.append(parent)
        self._disp.append(-1.0)
        self._sid.append(-1)
        self._comp.append(-1.0)
        return rid

    def _rr_fanout(self, rid: int, cid: int, t: float) -> None:
        """Send read-repair duplicates to the primary's live siblings, each
        through the client's placement (its detector check included)."""
        down = self.tracker.count
        primary_sid = self._sid[rid]
        group = self._group[rid]
        servers = self.servers
        client = self.clients[cid]
        selector = client.selector
        for sid in group:
            if sid == primary_sid:
                continue
            if down and not servers[sid]._up:
                continue
            duplicate = self._new_request(cid, group, t, _READ_REPAIR, rid)
            self.metrics.duplicate_requests += 1
            selector.on_duplicate_send(sid, t)
            client._place(duplicate, sid, t)
            client.read_repairs_issued += 1

    # -------------------------------------------------------------- servers
    def start_service(self, server: KernelServer, t: float) -> None:
        """Start queued requests while slots are free (block-drawn times).

        Called when a FINISH frees a slot, and the target of
        :meth:`KernelServer._try_start_service`, so scenario ``restore()``
        calls drain through the same stream.
        """
        queue = server._queue
        if not queue or not server._up or server._in_service >= server.concurrency:
            return
        loop = self.loop
        heap = self.heap
        sid = server.server_id
        rng = server.rng
        size_factor = self.size_factor
        concurrency = server.concurrency
        block = server._svc_block
        i = server._svc_i
        while server._up and server._in_service < concurrency and queue:
            rid = queue.popleft()
            server._in_service += 1
            mean = (server.base_service_time_ms * server._service_time_multiplier) * size_factor
            if server.deterministic:
                service_time = mean
            else:
                if block is None or i >= len(block):
                    block = server._svc_block = rng.standard_exponential(_SVC_BLOCK)
                    i = 0
                service_time = float(mean * block[i])
                i += 1
            seq = loop._seq
            loop._seq = seq + 1
            heappush(heap, (t + service_time, seq, _FINISH, rid, sid, service_time))
        server._svc_i = i

    def _record_latency(self, rid: int, latency: float) -> None:
        metrics = self.metrics
        metrics.completed_requests += 1
        if self._exact:
            metrics._latencies.append(latency)
            if self._kind[rid] == _WRITE:
                metrics._write_latencies.append(latency)
            else:
                metrics._read_latencies.append(latency)
        else:
            metrics._histogram.record(latency)
            if self._kind[rid] == _WRITE:
                metrics._write_histogram.record(latency)
            else:
                metrics._read_histogram.record(latency)

    # ------------------------------------------------------------------ end
    def finish(self) -> None:
        """End the run: flush the buffered completion times into the load
        series, hand the LOR selectors their dicts back and unhook.

        Every counter is already on its object (see the module docstring),
        so ``stats()`` and ``result()`` read them as the object path leaves
        them.
        """
        self._flush_completions()
        if self.mode == _LOR:
            for sel in self._sels:
                sel.kernel_restore()

        # The run is over: hand the servers back to their own
        # ``_try_start_service`` and let go of the clients (kernel ↔
        # KernelServer / KernelClient is a cycle through the simulation
        # otherwise), and drop the arena.
        for server in self.servers:
            server.kernel = None
        for client in self.clients:
            client.kernel = None
        self._created, self._disp, self._comp = [], [], []
        self._client, self._kind, self._parent, self._sid = [], [], [], []
        self._group, self._free, self._srv_times = [], [], []

    def _flush_completions(self) -> None:
        """Move the buffered per-server completion times into the load series.

        A server's counter is created by its first flush, as the object path
        creates it at the first completion, so the series' keys are the same.
        """
        metrics = self.metrics
        windows = metrics._per_server_windows
        for sid, times in enumerate(self._srv_times):
            if times:
                counter = windows.get(sid)
                if counter is None:
                    counter = windows[sid] = WindowedCounter(metrics.window_ms)
                counter.record_batch(np.asarray(times, dtype=float))
                metrics._per_server_completed[sid] += len(times)
                times.clear()

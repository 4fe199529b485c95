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
* **Typed heap entries** — the simulation's seven event kinds are plain
  tuples ``(time, seq, code, a, b, c)`` pushed onto the same heap that the
  loop's own entries use — ``(time, seq, None, Event)`` timers (scenario
  components, fluctuation processes) and ``(time, seq, callback, args)``
  messages.  ``seq`` is unique, so tuple comparison never reaches the mixed
  third slot.
* **Vectorized service draws** — each server consumes a pre-drawn block of
  standard-exponential variates on its own RNG stream
  (``rng.standard_exponential(n)`` advances the stream exactly as ``n``
  scalar ``rng.exponential(mean)`` calls do, and ``mean * e`` is bitwise
  equal to ``exponential(mean)``).
* **Batched selector scoring** — LOR scores replica groups over contiguous
  per-client outstanding counts instead of defaultdict lookups, with
  end-of-run write-back through the selector's ``kernel_state``/
  ``kernel_restore`` seams.  C3 is scored inline over the scorer's live
  dense arrays and calls the shared
  :class:`~repro.core.rate_control.CubicRateController` objects.  Every
  other strategy, P2C included, runs through its normal selector methods
  (correct, less accelerated).
* **Batched metrics** — latencies accumulate in flat lists (exact mode) or
  go straight into the streaming histograms, and per-server completion
  times are buffered and flushed through
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
from ..core.lifecycle import _MIN_RETRY_MS, _PARKED_RETRY_MS
from ..strategies.base import ReplicaSelector, StatefulSelector
from ..strategies.c3 import C3Selector
from ..strategies.least_outstanding import LeastOutstandingSelector
from .metrics import WindowedCounter
from .network import ConstantLatency
from .server import SimServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import SimulationResult
    from .simulation import ReplicaSelectionSimulation

__all__ = ["BatchedKernel", "KernelServer"]

# Typed heap-entry codes (slot 2 of a 6-tuple; the loop's own entries carry
# None (timer) or a callback (message) there instead).
_ENQUEUE = 0  # (t, seq, 0, rid, sid, 0.0)      request arrives at server
_FINISH = 1  # (t, seq, 1, rid, sid, st)       service slot completes
_RESPONSE = 2  # (t, seq, 2, rid, qsize, stime)  response arrives at client
# Code 3 (workload arrival) is retired: at most one arrival is ever pending
# and arrival times are strictly increasing, so the kernel keeps the next
# arrival as scalar state (_arr_t/_arr_seq) instead of a heap entry.
_HEDGE = 4  # (t, seq, 4, cid, rid, 0.0)      hedge timer fires
_RETRY = 5  # (t, seq, 5, cid, 0, 0.0)        backlog retry timer
_PARKED = 6  # (t, seq, 6, cid, 0, 0.0)        parked-request retry timer

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

# Hedge field indices (core.lifecycle.Hedge as a list, for hot-path speed).
_OP_DONE = 0
_OP_FIRED = 1
_OP_USED = 2
_OP_ARMED = 3
#: Responses the op still waits for: the primary's plus each unanswered
#: copy's.  The primary's slot is freed when this reaches zero.
_OP_OWED = 4


class KernelServer(SimServer):
    """A :class:`SimServer` whose service starts are driven by the kernel.

    In kernel mode the FIFO queue holds request *ids* (ints) rather than
    ``Request`` objects, and service times come from a pre-drawn block of
    standard-exponential variates on the server's own RNG stream.
    ``_try_start_service`` is overridden because scenario components call it
    directly (``restore()`` at the end of a crash window must drain the
    queue that built up), and those starts must stay on the block stream.

    State observable mid-run — ``pending_requests``,
    ``current_service_time_ms``, crash/restore/speed-multiplier controls —
    is the live object state, so scenario components and the
    ``server_state_fn`` used by snitch-style selectors read exactly what the
    object path would show.  Write-only accounting (request/queue counters,
    busy time, the service-time EWMA) accumulates in kernel-local dense
    lists and is folded back into the object at the end of the run.
    """

    kernel: "BatchedKernel | None" = None
    _svc_block: Any = None  # np.ndarray block of standard-exponential draws
    _svc_i: int = 0

    def _try_start_service(self) -> None:
        kernel = self.kernel
        if kernel is None:
            super()._try_start_service()
        else:
            kernel.start_service(self, kernel.loop._now)


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
        # Dense caches of per-server state that is immutable after
        # construction (the deque entries cache the *objects*; their
        # contents stay live).  Dynamic state that anything outside the
        # kernel can observe or mutate mid-run (_up, _in_service,
        # multiplier, the queue contents) is always read through the server
        # object so scenario components and the snitch/oracle
        # ``server_state_fn`` see exactly what the object path would show.
        srv = self.servers
        # The queues hold request-id ints in kernel mode (the object path
        # stores Request instances in the same deques), hence Any.
        self._srv_queue: list[Any] = [s._queue for s in srv]
        self._srv_conc = [s.concurrency for s in srv]
        self._srv_base = [s.base_service_time_ms for s in srv]
        self._srv_rng = [s.rng for s in srv]
        self._srv_det = [s.deterministic for s in srv]
        self._srv_alpha = [s._service_time_ewma.alpha for s in srv]
        # Write-only server accounting lives in dense lists for the run and
        # is folded back in finish().  Nothing reads these mid-run: the
        # snitch/oracle ``server_state_fn`` reads only pending_requests and
        # current_service_time_ms, which stay live on the object.
        self._s_reqr = [s.requests_received for s in srv]
        self._s_reqc = [s.requests_completed for s in srv]
        self._s_busy = [s.busy_time_ms for s in srv]
        self._s_cqs = [s.cumulative_queue_samples for s in srv]
        self._s_qs = [s.queue_samples for s in srv]
        self._s_maxq = [s.max_queue_length for s in srv]
        self._s_ewv: list[Any] = [s._service_time_ewma._value for s in srv]
        self._s_ewc = [s._service_time_ewma._count for s in srv]
        self.size_factor = 1.0 if cfg.record_size <= 0 else max(0.25, cfg.record_size / 1024.0)

        clients = sim.clients
        self.n_clients = len(clients)
        # Selectors and hedging policies are dispatched on their *exact*
        # run-time type (_detect_mode) and then accessed through per-mode
        # attributes the base classes don't declare; Any is the honest type.
        self._sels: list[Any] = [c.selector for c in clients]
        self._crngs = [c.rng for c in clients]
        self._rr_coins = [c._rr_coin for c in clients]
        self.rrp = float(cfg.read_repair_probability)
        self._policies: list[Any] = [c.hedging for c in clients]
        self._hedged = any(p is not None for p in self._policies)
        self.mode = self._detect_mode(self._sels[0]) if self._sels else _CUSTOM

        num_servers = cfg.num_servers
        if self.mode == _LOR:
            self._sel_rngs = [sel.rng for sel in self._sels]
            self._out: list[Any] = [sel.kernel_state(num_servers) for sel in self._sels]
            self._subm = [sel.requests_submitted for sel in self._sels]
            self._resp = [sel.responses_received for sel in self._sels]
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
                self._c3_scheds = [sel.scheduler for sel in self._sels]
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
                n_c3 = self.n_clients
                self._c3_subm = [0] * n_c3
                self._c3_sent = [0] * n_c3
                self._c3_bp = [0] * n_c3
                self._c3_resp = [0] * n_c3
                self._c3_s_sends = [0] * n_c3
                self._c3_s_resps = [0] * n_c3
                self._c3_s_evals = [0] * n_c3

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

        # Per-client timers / hedging book-keeping.
        n = self.n_clients
        self._parked: list[list[int]] = [[] for _ in range(n)]
        self._parked_armed = [False] * n
        self._retry_armed = [False] * n
        self._hedge_ops: list[dict] = [{} for _ in range(n)]
        self._hedge_by_copy: list[dict] = [{} for _ in range(n)]

        # Client counters (synced back to SimClient objects at end of run).
        self._requests_handled = [0] * n
        self._responses_handled = [0] * n
        self._rr_count = [0] * n
        self._parked_cnt = [0] * n
        self._hedges_fired = [0] * n
        self._hedges_won = [0] * n

        # Metrics accumulators.
        self._exact = sim.metrics.metrics_mode == "exact"
        self._lat_all: list[float] = []
        self._lat_read: list[float] = []
        self._lat_write: list[float] = []
        self._srv_times: list[list[float]] = [[] for _ in range(num_servers)]
        self.completed = 0
        self.issued = 0
        self.duplicates = 0
        self.backpressure = 0

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
        Anything else — rate-limited round-robin (a ``C3Selector`` whose
        scorer rotates), user strategies — takes the fully polymorphic path.
        """
        cls = type(selector)
        if cls is LeastOutstandingSelector:
            return _LOR
        if cls is C3Selector:
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

    def _push(self, time: float, code: int, a, b, c) -> None:
        loop = self.loop
        seq = loop._seq
        loop._seq = seq + 1
        heappush(self.heap, (time, seq, code, a, b, c))

    def run_slice(self, until: float) -> None:
        """Process every heap entry with ``time <= until``.

        The four per-request handlers (RESPONSE, FINISH, ENQUEUE, ARRIVAL)
        are inlined here with their state hoisted into locals: at ~5 heap
        entries per completed request, attribute lookups inside the handlers
        are the dominant Python overhead once allocation is gone.  The rest
        — suspicious-mode submits, custom selectors, the read-repair fanout,
        hedge/retry/park timers, and refilling a freed service slot from the
        queue — goes through the method handlers (``_submit``,
        ``_rr_fanout``, ``start_service``, ...).  Only the refill is common
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
        size_factor = self.size_factor
        sim = self.sim
        rrp = self.rrp
        exact = self._exact
        lat_all = self._lat_all
        lat_read = self._lat_read
        lat_write = self._lat_write
        responses_handled = self._responses_handled
        requests_handled = self._requests_handled
        q_all = self._srv_queue
        conc_all = self._srv_conc
        base_all = self._srv_base
        srng_all = self._srv_rng
        det_all = self._srv_det
        alpha_all = self._srv_alpha
        reqr = self._s_reqr
        reqc = self._s_reqc
        busy = self._s_busy
        cqs = self._s_cqs
        qs = self._s_qs
        maxq = self._s_maxq
        ewv = self._s_ewv
        ewc = self._s_ewc
        rr_coins = self._rr_coins
        if mode == _LOR:
            out_all = self._out
            subm = self._subm
            resp = self._resp
            sel_rngs = self._sel_rngs
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
            c3_scheds = self._c3_scheds
            c3_subm = self._c3_subm
            c3_sent = self._c3_sent
            c3_bp = self._c3_bp
            c3_resp = self._c3_resp
            c3_s_sends = self._c3_s_sends
            c3_s_resps = self._c3_s_resps
            c3_s_evals = self._c3_s_evals
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
        # is written back around callbacks and at slice end.
        generated = proc.generated
        total_arrivals = proc.total_arrivals
        inv_rate = 1.0 / proc.rate_per_ms
        network = sim.network
        const_delay = network.delay_ms if type(network) is ConstantLatency else None
        issued_delta = 0
        completed_delta = 0
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
                requests_handled[cid] += 1
                issued_delta += 1
                suspicious = tracker.count != 0 if binary else det.suspicious()
                if suspicious or mode == _CUSTOM:
                    self._submit(rid, cid, t)
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
                        c3_subm[cid] += 1
                        rt_val = c3_rt_val[cid]
                        qs_val = c3_qs_val[cid]
                        st_val = c3_st_val[cid]
                        st_cnt = c3_st_cnt[cid]
                        souts = c3_out[cid]
                        tiekey = c3_tiekey[cid]
                        c3_s_evals[cid] += len(group)
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
                                sched = c3_scheds[cid]
                                sched.backlog.enqueue(rid, group, t)
                                c3_bp[cid] += 1
                                self.backpressure += 1
                                retry_after = sched.rate_control.earliest_availability(
                                    group, t
                                )
                                self._schedule_retry(cid, retry_after, t)
                        if sid >= 0:
                            souts[sid] += 1
                            c3_last_sent[cid][sid] = t
                            c3_s_sends[cid] += 1
                            c3_sent[cid] += 1
                    else:
                        # LOR, in one pass: track the current minimum and
                        # lazily build the tie list only when a tie exists,
                        # so the common no-tie case touches no list
                        # machinery.
                        subm[cid] += 1
                        out = out_all[cid]
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
                            sid = tied[int(sel_rngs[cid].integers(len(tied)))]
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
                        if kind == _READ and rrp > 0.0 and rr_coins[cid]() < rrp:
                            self._rr_fanout(rid, cid, t)
                        if hedged:
                            self._maybe_hedge(rid, cid, t)
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
                proc.generated = generated
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
            # on the typed path reads the loop clock (handlers take ``t``
            # explicitly), generic callbacks get it set above, and the
            # trailing max() below restores it at slice end.
            fired += 1
            if code == _RESPONSE:
                rid = entry[3]
                cid = client_of[rid]
                sid = sid_of[rid]
                responses_handled[cid] += 1
                if not binary:
                    det.heartbeat(sid, t)
                if comp[rid] < 0.0:
                    comp[rid] = t
                dispatched = disp[rid]
                response_time = t - dispatched if dispatched >= 0.0 else t - created[rid]
                released = None
                if mode == _LOR:
                    resp[cid] += 1
                    out = out_all[cid]
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
                    # live arrays (transcribed from _ewma_fold), then the
                    # CUBIC controller update and a guarded backlog drain.
                    c3_resp[cid] += 1
                    c3_s_resps[cid] += 1
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
                        sched = c3_scheds[cid]
                        if sched.backlog._pending:
                            rel = sched.drain_backlog(t)
                            if rel:
                                released = [(e.request, chosen) for e, chosen in rel]
                else:
                    released = sels[cid].on_response(
                        sid, ServerFeedback(entry[4], entry[5], sid), response_time, t
                    )
                if hedged:
                    self._hedge_complete(rid, cid, sid, response_time, t)
                else:
                    srv_times[sid].append(t)
                    if parent_of[rid] < 0:
                        latency = comp[rid] - created[rid]
                        if exact:
                            completed_delta += 1
                            lat_all.append(latency)
                            if kind_of[rid] == _WRITE:
                                lat_write.append(latency)
                            else:
                                lat_read.append(latency)
                        else:
                            self._record_latency(rid, latency)
                    free_app(rid)
                if released:
                    for pending_rid, pending_sid in released:
                        self._send(pending_rid, cid, pending_sid, t)
            elif code == _FINISH:
                rid = entry[3]
                sid = entry[4]
                service_time = entry[5]
                server = servers[sid]
                ins = server._in_service - 1
                server._in_service = ins
                reqc[sid] += 1
                busy[sid] += service_time
                alpha = alpha_all[sid]
                value = alpha * service_time + (1.0 - alpha) * ewv[sid]
                ewv[sid] = value
                ewc[sid] += 1
                queue = q_all[sid]
                qsize = len(queue) + ins
                stime = value if value > 1e-3 else 1e-3
                if queue and server._up and ins < conc_all[sid]:
                    self.start_service(server, t)
                cid = client_of[rid]
                delay = const_delay
                if delay is None:
                    delay = network.one_way_delay(sid, cid)
                seq_v = loop._seq
                loop._seq = seq_v + 1
                push(heap, (t + delay, seq_v, _RESPONSE, rid, qsize, stime))
            elif code == _ENQUEUE:
                rid = entry[3]
                sid = entry[4]
                server = servers[sid]
                up = server._up
                if not up:
                    server.enqueued_while_down += 1
                reqr[sid] += 1
                queue = q_all[sid]
                ins = server._in_service
                pending = len(queue) + ins
                cqs[sid] += pending
                qs[sid] += 1
                pending += 1
                if pending > maxq[sid]:
                    maxq[sid] = pending
                # Queued requests imply no free slot (start_service always
                # drains), so a free slot here means the queue is empty and
                # this request starts service immediately.
                if up and ins < conc_all[sid]:
                    server._in_service = ins + 1
                    mean = (base_all[sid] * server._service_time_multiplier) * size_factor
                    if det_all[sid]:
                        st = mean
                    else:
                        block = server._svc_block
                        i = server._svc_i
                        if block is None or i >= _SVC_BLOCK:
                            block = server._svc_block = srng_all[sid].standard_exponential(
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
            elif code == _HEDGE:
                self._on_hedge(entry[1], entry[3], entry[4], t)
            elif code == _RETRY:
                self._on_retry(entry[3], t)
            else:
                self._on_parked(entry[3], t)
        if arr_t > until and (not heap or heap[0][0] > until):
            loop._now = max(loop._now, until)
        loop._processed += fired
        self._arr_t = arr_t
        self._arr_seq = arr_seq
        proc.generated = generated
        self.issued += issued_delta
        self.completed += completed_delta
        if sum(map(len, srv_times)) > _FLUSH_BLOCK:
            self._flush_completions()

    # ------------------------------------------------------------- liveness
    def _suspicious(self) -> bool:
        if self._binary:
            return self.tracker.count != 0
        return self.det.suspicious()

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

    def _submit(self, rid: int, cid: int, t: float) -> None:
        candidates = self._group[rid]
        if self._suspicious():
            if self._binary:
                servers = self.servers
                live = tuple(s for s in candidates if servers[s]._up)
            else:
                det = self.det
                live = tuple(s for s in candidates if det.is_alive(s, t))
            if not live:
                self._park(rid, cid, t)
                return
            candidates = live
        mode = self.mode
        if mode == _LOR:
            self._subm[cid] += 1
            out = self._out[cid]
            lowest = min(out[s] for s in candidates)
            tied = [s for s in candidates if out[s] == lowest]
            if len(tied) == 1:
                sid = tied[0]
            else:
                sid = tied[int(self._sel_rngs[cid].integers(len(tied)))]
            out[sid] += 1
            self._send(rid, cid, sid, t)
        elif mode == _STOCK:
            sel = self._sels[cid]
            sel.requests_submitted += 1
            sid = sel.choose(candidates, t)
            sel.record_send(sid, t)
            self._send(rid, cid, sid, t)
        else:
            decision = self._sels[cid].submit(rid, candidates, t)
            sid = decision.server_id
            if sid is not None:
                self._send(rid, cid, sid, t)
            else:
                self.backpressure += 1
                self._schedule_retry(cid, decision.retry_after_ms, t)

    def _send(self, rid: int, cid: int, sid: int, t: float) -> None:
        self._dispatch(rid, cid, sid, t)
        self._read_repair(rid, cid, t)
        if self._hedged:
            self._maybe_hedge(rid, cid, t)

    def _dispatch(self, rid: int, cid: int, sid: int, t: float) -> None:
        if self._suspicious():
            alive = self.servers[sid]._up if self._binary else self.det.is_alive(sid, t)
            if not alive:
                # A selector-internal placement (backlog drain) raced with a
                # crash: release the selector's accounting and park.
                self._sel_timeout(cid, sid, t)
                self._park(rid, cid, t)
                return
        self._disp[rid] = t
        self._sid[rid] = sid
        network = self.sim.network
        delay = (
            network.delay_ms
            if type(network) is ConstantLatency
            else network.one_way_delay(cid, sid)
        )
        loop = self.loop
        seq = loop._seq
        loop._seq = seq + 1
        heappush(self.heap, (t + delay, seq, _ENQUEUE, rid, sid, 0.0))

    def _sel_timeout(self, cid: int, sid: int, t: float) -> None:
        if self.mode == _LOR:
            out = self._out[cid]
            if out[sid] > 0:
                out[sid] -= 1
        else:
            self._sels[cid].on_timeout(sid, t)

    def _read_repair(self, rid: int, cid: int, t: float) -> None:
        if self._kind[rid] != _READ or self._parent[rid] >= 0:
            return
        rrp = self.rrp
        if rrp > 0.0 and self._rr_coins[cid]() < rrp:
            self._rr_fanout(rid, cid, t)

    def _rr_fanout(self, rid: int, cid: int, t: float) -> None:
        """Send read-repair duplicates to the primary's live siblings."""
        down = self.tracker.count
        primary_sid = self._sid[rid]
        group = self._group[rid]
        servers = self.servers
        fast = self.mode == _LOR
        for sid in group:
            if sid == primary_sid:
                continue
            if down and not servers[sid]._up:
                continue
            duplicate = self._new_request(cid, group, t, _READ_REPAIR, rid)
            self.duplicates += 1
            if fast:
                self._out[cid][sid] += 1
            else:
                self._sels[cid].on_duplicate_send(sid, t)
            self._dispatch(duplicate, cid, sid, t)
            self._rr_count[cid] += 1

    # -------------------------------------------------------------- hedging
    def _maybe_hedge(self, rid: int, cid: int, t: float) -> None:
        policy = self._policies[cid]
        if policy is None:
            return
        if self._kind[rid] != _READ or self._parent[rid] >= 0:
            return
        sid = self._sid[rid]
        if sid < 0 or rid in self._hedge_ops[cid]:
            return
        threshold = policy.threshold_ms()
        if threshold is None:
            return
        loop = self.loop
        seq = loop._seq
        loop._seq = seq + 1
        heappush(self.heap, (t + threshold, seq, _HEDGE, cid, rid, 0.0))
        self._hedge_ops[cid][rid] = [False, 0, {sid}, seq, 1]

    def _on_hedge(self, seq: int, cid: int, rid: int, t: float) -> None:
        op = self._hedge_ops[cid].get(rid)
        if op is None or op[_OP_DONE] or op[_OP_ARMED] != seq:
            return
        op[_OP_ARMED] = None
        policy = self._policies[cid]
        group = self._group[rid]
        used = op[_OP_USED]
        if self._binary:
            servers = self.servers
            candidates = tuple(s for s in group if s not in used and servers[s]._up)
        else:
            det = self.det
            candidates = tuple(s for s in group if s not in used and det.is_alive(s, t))
        if not candidates:
            # Every unused replica is currently suspect; keep the timer armed
            # while budget and an unused replica remain (see
            # RequestLifecycle._fire_hedge, whose decision this repeats).
            self._rearm_hedge(cid, rid, op, policy, t)
            return
        target = candidates[int(self._crngs[cid].integers(len(candidates)))]
        duplicate = self._new_request(cid, group, t, _SPECULATIVE, rid)
        used.add(target)
        op[_OP_FIRED] += 1
        op[_OP_OWED] += 1
        self._hedge_by_copy[cid][duplicate] = rid
        self.duplicates += 1
        self._hedges_fired[cid] += 1
        if self.mode == _LOR:
            self._out[cid][target] += 1
        else:
            self._sels[cid].on_duplicate_send(target, t)
        self._dispatch(duplicate, cid, target, t)
        self._rearm_hedge(cid, rid, op, policy, t)

    def _rearm_hedge(self, cid: int, rid: int, op: list, policy, t: float) -> None:
        if op[_OP_FIRED] < policy.max_extra and len(op[_OP_USED]) < len(self._group[rid]):
            threshold = policy.threshold_ms()
            if threshold is not None:
                loop = self.loop
                seq = loop._seq
                loop._seq = seq + 1
                heappush(self.heap, (t + threshold, seq, _HEDGE, cid, rid, 0.0))
                op[_OP_ARMED] = seq

    def _hedge_complete(self, rid: int, cid: int, sid: int, response_time: float, t: float) -> None:
        # Server load is credited per response, at the response's own time.
        self._srv_times[sid].append(t)
        primary = self._hedge_by_copy[cid].pop(rid, None)
        comp = self._comp
        if primary is not None:
            self._free.append(rid)
            # The primary's op outlives the primary's own response until
            # every copy has answered, so this lookup never meets a reused slot.
            op = self._answered(cid, primary)
            if op[_OP_DONE]:
                return
            op[_OP_DONE] = True
            self._hedges_won[cid] += 1
            if comp[primary] < 0.0:
                comp[primary] = t
            dispatched = self._disp[primary]
            if dispatched >= 0.0:
                self._policies[cid].record(t - dispatched)
            if self._parent[primary] < 0:
                self._record_latency(primary, comp[primary] - self._created[primary])
            return
        op = self._hedge_ops[cid].get(rid)
        if op is None or not op[_OP_DONE]:
            if op is not None:
                op[_OP_DONE] = True  # a copy answering later is swallowed
            if self._kind[rid] == _READ and self._parent[rid] < 0:
                self._policies[cid].record(response_time)
            if self._parent[rid] < 0:
                self._record_latency(rid, comp[rid] - self._created[rid])
        if op is None:
            self._free.append(rid)
        else:
            self._answered(cid, rid)

    def _answered(self, cid: int, primary: int) -> list:
        """Count one response owed to ``primary``'s hedged op as in; the op
        and the primary's slot go once none is owed."""
        ops = self._hedge_ops[cid]
        op = ops[primary]
        op[_OP_OWED] -= 1
        if not op[_OP_OWED]:
            del ops[primary]
            self._free.append(primary)
        return op

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
        self.completed += 1
        if self._exact:
            self._lat_all.append(latency)
            if self._kind[rid] == _WRITE:
                self._lat_write.append(latency)
            else:
                self._lat_read.append(latency)
        else:
            metrics = self.metrics
            metrics._histogram.record(latency)
            if self._kind[rid] == _WRITE:
                metrics._write_histogram.record(latency)
            else:
                metrics._read_histogram.record(latency)

    # ------------------------------------------------------ parking / retries
    def _park(self, rid: int, cid: int, t: float) -> None:
        self.backpressure += 1
        self._parked_cnt[cid] += 1
        self._parked[cid].append(rid)
        if not self._parked_armed[cid]:
            self._parked_armed[cid] = True
            self._push(t + _PARKED_RETRY_MS, _PARKED, cid, 0, 0.0)

    def _on_parked(self, cid: int, t: float) -> None:
        self._parked_armed[cid] = False
        parked = self._parked[cid]
        self._parked[cid] = []
        for rid in parked:
            self._submit(rid, cid, t)

    def _schedule_retry(self, cid: int, delay_ms: float, t: float) -> None:
        if self._retry_armed[cid]:
            return
        self._retry_armed[cid] = True
        delay = float(delay_ms)
        if delay < _MIN_RETRY_MS:
            delay = _MIN_RETRY_MS
        self._push(t + delay, _RETRY, cid, 0, 0.0)

    def _on_retry(self, cid: int, t: float) -> None:
        self._retry_armed[cid] = False
        sel = self._sels[cid]
        for rid, sid in sel.drain_backlog(t):
            self._send(rid, cid, sid, t)
        if sel.pending_backlog() > 0:
            retry = sel.next_retry_ms(t)
            self._schedule_retry(cid, retry if retry is not None else 1.0, t)

    # ------------------------------------------------------------- write-back
    def finish(self) -> int:
        """Fold kernel-local state back into the object graph.

        After this, ``sim.metrics``, every ``SimClient`` counter, and the
        LOR and C3 selector state match what the object path would have left
        behind, so ``stats()``/``result()`` work unchanged.  Returns the
        number of requests still parked.
        """
        metrics = self.metrics
        if self._exact:
            metrics._latencies = self._lat_all
            metrics._read_latencies = self._lat_read
            metrics._write_latencies = self._lat_write
        metrics.completed_requests = self.completed
        metrics.issued_requests = self.issued
        metrics.duplicate_requests = self.duplicates
        metrics.backpressure_events = self.backpressure
        for sid, server in enumerate(self.servers):
            server.requests_received = self._s_reqr[sid]
            server.requests_completed = self._s_reqc[sid]
            server.busy_time_ms = self._s_busy[sid]
            server.cumulative_queue_samples = self._s_cqs[sid]
            server.queue_samples = self._s_qs[sid]
            server.max_queue_length = self._s_maxq[sid]
            ewma = server._service_time_ewma
            ewma._value = self._s_ewv[sid]
            ewma._count = self._s_ewc[sid]
        self._flush_completions()

        self.gen.requests_generated = self.proc.generated
        for cid, client in enumerate(self.sim.clients):
            client.requests_handled = self._requests_handled[cid]
            client.responses_handled = self._responses_handled[cid]
            client.read_repairs_issued = self._rr_count[cid]
            client.requests_parked = self._parked_cnt[cid]
            client.hedges_fired = self._hedges_fired[cid]
            client.hedges_won = self._hedges_won[cid]
        if self.mode == _LOR:
            for cid, sel in enumerate(self._sels):
                sel.kernel_restore(self._out[cid], self._subm[cid], self._resp[cid])
        elif self.mode == _C3:
            for cid, sel in enumerate(self._sels):
                sel.kernel_restore(
                    self._c3_subm[cid],
                    self._c3_sent[cid],
                    self._c3_bp[cid],
                    self._c3_resp[cid],
                    self._c3_s_sends[cid],
                    self._c3_s_resps[cid],
                    self._c3_s_evals[cid],
                )

        # The run is over: hand the servers back to their own
        # ``_try_start_service`` (kernel ↔ KernelServer is a cycle through
        # the simulation otherwise) and drop the arena.
        for server in self.servers:
            server.kernel = None
        self._created, self._disp, self._comp = [], [], []
        self._client, self._kind, self._parent, self._sid = [], [], [], []
        self._group, self._free, self._srv_times = [], [], []
        return sum(len(parked) for parked in self._parked)

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

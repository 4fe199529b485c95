"""Open-loop workload generation for the flat simulator (§6).

Requests arrive according to a Poisson process "to mimic arrival of user
requests at web servers"; each request is handed to a client (uniformly, or
according to a demand skew where X% of the clients produce 80% of the load)
and targets a replica group chosen uniformly at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ..core import samplers
from .engine import EventLoop
from .request import Request, RequestKind

__all__ = [
    "RNGS",
    "BlockDraws",
    "BlockRNG",
    "DemandSkew",
    "PoissonArrivalProcess",
    "ScalarDraws",
    "WorkloadGenerator",
    "replica_groups",
]

#: Variates drawn per underlying Generator call in the ``rng="block"`` regime.
#: Purely a performance knob *within* the block domain — but changing it
#: changes stream positions, so it is part of the domain's definition and
#: must never be altered without versioning the regime name.
BLOCK_SIZE = 512


def replica_groups(num_servers: int, replication_factor: int) -> list[tuple[int, ...]]:
    """Consecutive-server replica groups (ring placement, RF neighbours).

    Server ``i`` anchors group ``(i, i+1, …, i+RF-1 mod N)`` — the layout a
    consistent-hashing ring with ``N`` equally sized token ranges produces.
    """
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    if num_servers < replication_factor:
        raise ValueError("need at least replication_factor servers")
    return [
        tuple((i + offset) % num_servers for offset in range(replication_factor))
        for i in range(num_servers)
    ]


@dataclass(frozen=True, slots=True)
class DemandSkew:
    """A "X% of clients generate Y% of demand" skew (Figure 15 uses 80 %).

    Attributes
    ----------
    client_fraction:
        Fraction of clients forming the "heavy" group (0 < f < 1).
    demand_fraction:
        Fraction of the total demand generated by the heavy group.
    """

    client_fraction: float
    demand_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.client_fraction < 1.0:
            raise ValueError("client_fraction must be in (0, 1)")
        if not 0.0 < self.demand_fraction < 1.0:
            raise ValueError("demand_fraction must be in (0, 1)")

    def client_probabilities(self, num_clients: int) -> np.ndarray:
        """Per-client selection probabilities implementing the skew."""
        if num_clients < 2:
            raise ValueError("demand skew needs at least 2 clients")
        heavy = max(1, int(round(self.client_fraction * num_clients)))
        heavy = min(heavy, num_clients - 1)
        light = num_clients - heavy
        probs = np.empty(num_clients, dtype=float)
        probs[:heavy] = self.demand_fraction / heavy
        probs[heavy:] = (1.0 - self.demand_fraction) / light
        return probs


class ScalarDraws:
    """One scalar draw per variate — the ``rng="v1"`` regime's stream.

    The draw-source interface both engines consume: ``next_client`` /
    ``next_group`` / ``next_coin`` / ``next_gap``, each one variate.  Each is
    a :mod:`~repro.core.samplers` sampler bound to ``rng`` — numpy's C
    function behind the scalar Generator call the legacy stream made at that
    point, so ``"v1"`` digests and cache keys are unchanged (a skewed
    ``next_client`` is :func:`~repro.core.samplers.weighted`, the index
    ``rng.choice(num_clients, p=client_probs)`` draws); ``next_gap`` is a
    *standard* exponential that the caller scales by ``1/λ``, which is bit for bit
    ``rng.exponential(1/λ)`` and leaves the generator in the same state
    (``tests/simulator/test_rng_block.py``).
    """

    __slots__ = ("next_client", "next_group", "next_coin", "next_gap")

    def __init__(
        self,
        rng: np.random.Generator,
        num_clients: int,
        client_probs: "np.ndarray | None",
        num_groups: int,
    ) -> None:
        self.next_client: Callable[[], int] = (
            samplers.below(rng, num_clients)
            if client_probs is None
            else samplers.weighted(rng, client_probs)
        )
        self.next_group = samplers.below(rng, num_groups)
        self.next_coin = samplers.uniform(rng)
        self.next_gap = samplers.standard_exponential(rng)


class BlockDraws:
    """Block-drawn workload variates — the ``rng="block"`` regime's stream.

    One instance is shared by the arrival process, the generator, and (under
    ``kernel="batched"``) the kernel itself, so both engines consume the
    workload RNG at identical positions.  Each variate kind — client index,
    replica-group index, read/write coin, inter-arrival gap — is drawn from
    the underlying Generator in blocks of :data:`BLOCK_SIZE` and served one
    at a time; a kind's block is refilled exactly when it is exhausted, so
    the stream is fully defined by the *consumption order* (gap first via
    chained scheduling, then client/group/coin per arrival), which both
    engines share.  The resulting stream positions differ from the scalar
    per-arrival draws of ``rng="v1"``, which is why ``"block"`` is a
    distinct digest domain.
    """

    __slots__ = (
        "rng",
        "num_clients",
        "client_probs",
        "num_groups",
        "_clients",
        "_ci",
        "_groups",
        "_gi",
        "_coins",
        "_coi",
        "_gaps",
        "_gpi",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        num_clients: int,
        client_probs: "np.ndarray | None",
        num_groups: int,
    ) -> None:
        self.rng = rng
        self.num_clients = num_clients
        self.client_probs = client_probs
        self.num_groups = num_groups
        self._clients: list[int] = []
        self._ci = 0
        self._groups: list[int] = []
        self._gi = 0
        self._coins: list[float] = []
        self._coi = 0
        self._gaps: list[float] = []
        self._gpi = 0

    def next_client(self) -> int:
        i = self._ci
        if i == len(self._clients):
            if self.client_probs is None:
                self._clients = self.rng.integers(self.num_clients, size=BLOCK_SIZE).tolist()
            else:
                self._clients = self.rng.choice(
                    self.num_clients, size=BLOCK_SIZE, p=self.client_probs
                ).tolist()
            i = 0
        self._ci = i + 1
        return self._clients[i]

    def next_group(self) -> int:
        i = self._gi
        if i == len(self._groups):
            self._groups = self.rng.integers(self.num_groups, size=BLOCK_SIZE).tolist()
            i = 0
        self._gi = i + 1
        return self._groups[i]

    def next_coin(self) -> float:
        i = self._coi
        if i == len(self._coins):
            self._coins = self.rng.random(BLOCK_SIZE).tolist()
            i = 0
        self._coi = i + 1
        return self._coins[i]

    def next_gap(self) -> float:
        """A standard-exponential variate; the caller scales by ``1/λ``.

        Scaling at consumption time (rather than at block-draw time) keeps
        mid-run :meth:`PoissonArrivalProcess.set_rate` changes strictly
        forward-looking, exactly like the scalar regime.
        """
        i = self._gpi
        if i == len(self._gaps):
            self._gaps = self.rng.standard_exponential(BLOCK_SIZE).tolist()
            i = 0
        self._gpi = i + 1
        return self._gaps[i]


class BlockRNG:
    """Selector-facing RNG adapter for the ``rng="block"`` regime.

    Wraps a numpy Generator and serves the selector-side draws —
    ``integers(n)``, ``random()``, ``choice(...)`` — from one shared block
    of :data:`BLOCK_SIZE` uniform floats, turning each ~0.5–6µs Generator
    call into a list index.  Derivations (index = ``⌊u·n⌋``, distinct pair
    via a shifted second draw, weighted choice via inverse CDF) are fixed
    here and consumed identically by the object engine (selectors call the
    adapter like a Generator) and the batched kernel (which inlines the
    same arithmetic), so ``"block"`` runs stay digest-identical across
    kernels while occupying different stream positions than ``"v1"``.
    """

    __slots__ = ("rng", "_u", "_i")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._u: list[float] = []
        self._i = 0

    def _next_u(self) -> float:
        i = self._i
        if i == len(self._u):
            self._u = self.rng.random(BLOCK_SIZE).tolist()
            i = 0
        self._i = i + 1
        return self._u[i]

    def random(self) -> float:
        return self._next_u()

    def integers(self, n: int) -> int:
        return int(self._next_u() * n)

    def pair(self, n: int) -> "tuple[int, int]":
        """Two *distinct* indices in ``[0, n)`` from two uniforms."""
        a = int(self._next_u() * n)
        b = int(self._next_u() * (n - 1))
        if b >= a:
            b += 1
        return a, b

    def choice(self, n: int, size: int | None = None, replace: bool = True, p=None):
        """The Generator.choice subset the selectors actually use."""
        if p is not None:
            if size is not None:
                raise NotImplementedError("BlockRNG.choice: p with size is unsupported")
            u = self._next_u()
            acc = 0.0
            last = 0
            for last, pi in enumerate(p):
                acc += pi
                if u < acc:
                    return last
            return last
        if size is None:
            return int(self._next_u() * n)
        if size == 2 and not replace:
            return self.pair(n)
        raise NotImplementedError(f"BlockRNG.choice(size={size}, replace={replace})")


class PoissonArrivalProcess:
    """Chained Poisson arrivals on the event loop.

    Parameters
    ----------
    loop:
        The event loop.
    rate_per_ms:
        Mean arrival rate λ in requests per millisecond.
    total_arrivals:
        Number of arrivals to generate before stopping.
    on_arrival:
        Callback invoked (with no arguments) at each arrival instant.
    rng:
        Random generator for the exponential inter-arrival draws.
    next_gap:
        Zero-argument callable returning *standard*-exponential variates —
        a draw source's ``next_gap``; gaps are ``next_gap() * (1/λ)``.
        Defaults to scalar draws from ``rng``.
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_per_ms: float,
        total_arrivals: int,
        on_arrival: Callable[[], None],
        rng: np.random.Generator | None = None,
        next_gap: Callable[[], float] | None = None,
    ) -> None:
        if rate_per_ms <= 0:
            raise ValueError("rate_per_ms must be positive")
        if total_arrivals < 0:
            raise ValueError("total_arrivals must be non-negative")
        self.loop = loop
        self.rate_per_ms = float(rate_per_ms)
        self.total_arrivals = int(total_arrivals)
        self.on_arrival = on_arrival
        self.next_gap = next_gap or (rng or np.random.default_rng()).standard_exponential
        self.generated = 0

    def start(self) -> None:
        """Schedule the first arrival."""
        if self.total_arrivals > 0:
            self._schedule_next()

    def set_rate(self, rate_per_ms: float) -> None:
        """Change λ mid-run (load spikes/ramps).

        Takes effect from the next inter-arrival draw; the already-scheduled
        gap is left untouched so the change is strictly forward-looking.
        """
        if rate_per_ms <= 0:
            raise ValueError("rate_per_ms must be positive")
        self.rate_per_ms = float(rate_per_ms)

    def _schedule_next(self) -> None:
        self.loop.post(self.next_gap() * (1.0 / self.rate_per_ms), self._arrive)

    def _arrive(self) -> None:
        self.generated += 1
        self.on_arrival()
        if self.generated < self.total_arrivals:
            self._schedule_next()


class WorkloadGenerator:
    """Creates requests and routes them to clients.

    Parameters
    ----------
    loop:
        Event loop.
    clients:
        The simulated clients (anything with an ``on_request(request)``
        method and a ``client_id``).
    groups:
        The replica groups requests may target; chosen uniformly at random
        per request (the paper's simulator does not model key→group hashing).
    rate_per_ms / total_requests:
        Poisson arrival rate and the number of data requests to generate.
    demand_skew:
        Optional :class:`DemandSkew`; ``None`` assigns requests to clients
        uniformly.
    read_fraction:
        Fraction of requests that are reads (1.0 in the §6 simulations; the
        cluster substrate uses its own workload model).
    record_size:
        Payload size attached to each request.
    rng:
        Random generator.
    id_source:
        Optional per-simulation request-id counter (defaults to the
        process-global counter).
    draw_source:
        The class serving the workload variates from ``rng`` — an entry of
        :data:`RNGS`: :class:`ScalarDraws` (the default, the legacy stream)
        or :class:`BlockDraws` (a distinct digest domain).  The instance is
        ``self.draws``; the batched kernel consumes the same one.
    """

    def __init__(
        self,
        loop: EventLoop,
        clients: Sequence,
        groups: Sequence[tuple],
        rate_per_ms: float,
        total_requests: int,
        demand_skew: DemandSkew | None = None,
        read_fraction: float = 1.0,
        record_size: int = 1024,
        rng: np.random.Generator | None = None,
        id_source: Iterator[int] | None = None,
        draw_source: "type[ScalarDraws] | type[BlockDraws]" = ScalarDraws,
    ) -> None:
        if not clients:
            raise ValueError("need at least one client")
        if not groups:
            raise ValueError("need at least one replica group")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.loop = loop
        self.clients = list(clients)
        self.groups = [tuple(g) for g in groups]
        self.read_fraction = float(read_fraction)
        self.record_size = int(record_size)
        self.rng = rng or np.random.default_rng()
        self._id_source = id_source
        client_probs = demand_skew.client_probabilities(len(self.clients)) if demand_skew else None
        self.draws = draw_source(self.rng, len(self.clients), client_probs, len(self.groups))
        self.process = PoissonArrivalProcess(
            loop, rate_per_ms, total_requests, self._generate_one, next_gap=self.draws.next_gap
        )
        self.requests_generated = 0

    def start(self) -> None:
        """Begin generating arrivals."""
        self.process.start()

    def _generate_one(self) -> None:
        draws = self.draws
        client = self.clients[draws.next_client()]
        group = self.groups[draws.next_group()]
        kind = (
            RequestKind.READ
            if self.read_fraction >= 1.0 or draws.next_coin() < self.read_fraction
            else RequestKind.WRITE
        )
        request = Request.create(
            client_id=client.client_id,
            replica_group=group,
            created_at=self.loop.now,
            kind=kind,
            record_size=self.record_size,
            id_source=self._id_source,
        )
        self.requests_generated += 1
        client.on_request(request)


#: ``SimulationConfig.rng`` → (workload draw source, selector-side RNG adapter
#: or ``None`` for the bare Generator).  Each regime is a separate digest
#: domain: within one, object and batched kernels are digest-identical; across
#: them the RNG streams occupy different positions, so results legitimately
#: differ.  ``"v1"`` is the legacy stream every pinned digest uses.
RNGS = {"v1": (ScalarDraws, None), "block": (BlockDraws, BlockRNG)}

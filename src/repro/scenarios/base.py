"""Scenario core: the context handed to components and the Scenario container.

A :class:`Scenario` is a named, ordered list of
:class:`ScenarioComponent` instances.  Components are declarative
descriptions ("GC pauses on all servers", "crash server 0 at t=250 ms for
400 ms"); when the simulation starts they schedule their edges on the event
loop through a :class:`ScenarioContext`, which exposes the attachment points
the simulator offers — servers, the network model, the workload arrival
process, and a seeded RNG stream.

Determinism: every random decision inside a scenario draws from RNGs spawned
via :meth:`ScenarioContext.spawn_rng`, which derive deterministically from
the simulation seed.  Components spawn their RNGs in declaration order, so a
scenario's randomness is a pure function of ``(config, seed)`` — the golden
digest suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.engine import EventLoop
    from ..simulator.network import NetworkModel
    from ..simulator.server import SimServer
    from ..simulator.simulation import ReplicaSelectionSimulation
    from ..simulator.workload import PoissonArrivalProcess

__all__ = ["Scenario", "ScenarioComponent", "ScenarioContext", "target_indices"]


def target_indices(targets: Any, num_servers: int) -> list[int]:
    """Resolve a declarative target spec into server indexes in ``range(num_servers)``.

    Accepted specs:

    * ``"all"`` / ``None`` — every server;
    * an ``int`` — the server at that index (negative indexes allowed);
    * a ``float`` fraction in (0, 1) — the first ``round(f × N)``
      servers (at least one);
    * a sequence of ``int`` indexes.
    """
    if targets is None or targets == "all":
        return list(range(num_servers))
    if isinstance(targets, bool):
        raise ValueError("targets must not be a bool")
    if isinstance(targets, int):
        return [_index(targets, num_servers)]
    if isinstance(targets, float):
        if not 0.0 < targets < 1.0:
            raise ValueError("fractional targets must be in (0, 1)")
        return list(range(max(1, round(targets * num_servers))))
    return [_index(int(i), num_servers) for i in targets]


def _index(index: int, num_servers: int) -> int:
    if not -num_servers <= index < num_servers:
        raise ValueError(f"scenario target index {index} is out of range for {num_servers} servers")
    return index % num_servers


class ScenarioContext:
    """Everything a component may attach to, plus deterministic RNG spawning.

    Parameters
    ----------
    loop:
        The simulation's event loop.
    servers:
        The simulated servers in id order (``servers[i]`` is server ``i``).
    rng:
        The scenario's root RNG (derived from the simulation seed); use
        :meth:`spawn_rng` rather than drawing from it directly so sibling
        components stay independent.
    simulation:
        The owning simulation, used for network swaps; ``None`` for
        standalone/unit-test contexts (network components then error).
    """

    def __init__(
        self,
        loop: "EventLoop",
        servers: Sequence["SimServer"],
        rng: np.random.Generator,
        simulation: "ReplicaSelectionSimulation | None" = None,
    ) -> None:
        self.loop = loop
        self.servers = list(servers)
        self.rng = rng
        self.simulation = simulation

    # ------------------------------------------------------------------ rng
    def spawn_rng(self) -> np.random.Generator:
        """A child RNG derived deterministically from the scenario stream."""
        return np.random.default_rng(self.rng.integers(2**63))

    # -------------------------------------------------------------- targets
    def resolve_targets(self, targets: Any) -> list["SimServer"]:
        """The servers a target spec names (see :func:`target_indices`)."""
        return [self.servers[i] for i in target_indices(targets, len(self.servers))]

    # -------------------------------------------------------------- network
    @property
    def network(self) -> "NetworkModel":
        """The currently active network model."""
        if self.simulation is None:
            raise ValueError("this scenario context has no simulation attached")
        return self.simulation.network

    def set_network(self, model: "NetworkModel") -> None:
        """Swap the network model for the simulation and every client."""
        if self.simulation is None:
            raise ValueError("this scenario context has no simulation attached")
        self.simulation.network = model
        for client in self.simulation.clients:
            client.network = model

    # ------------------------------------------------------------- workload
    @property
    def arrival_process(self) -> "PoissonArrivalProcess":
        """The workload generator's arrival process (for load shaping)."""
        if self.simulation is None or self.simulation.generator is None:
            raise ValueError("this scenario context has no workload generator attached")
        return self.simulation.generator.process


class ScenarioComponent:
    """One composable perturbation.

    Subclasses implement :meth:`start` (schedule their edges on the context)
    and may override :meth:`stop` to tear their perturbation down so event
    loops and servers can be reused.
    """

    def start(self, ctx: ScenarioContext) -> None:
        raise NotImplementedError

    def stop(self) -> None:  # pragma: no cover - trivial default
        """Undo the perturbation (default: nothing to undo)."""


@dataclass(frozen=True)
class Scenario:
    """A named, ordered composition of perturbation components.

    Attributes
    ----------
    name:
        Registry name (what ``SimulationConfig.scenario`` refers to).
    components:
        The perturbations, started in order.
    """

    name: str
    components: tuple[ScenarioComponent, ...] = ()
    _started: list = field(default_factory=list, repr=False, compare=False)

    def start(self, ctx: ScenarioContext) -> None:
        """Start every component against ``ctx`` (in declaration order)."""
        for component in self.components:
            component.start(ctx)
            self._started.append(component)

    def stop(self) -> None:
        """Stop every started component, restoring perturbed state."""
        while self._started:
            self._started.pop().stop()

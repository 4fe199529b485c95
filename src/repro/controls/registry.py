"""The control registry: adaptive controllers registered under canonical names.

The third leg of the registry architecture — after scenarios (what is
perturbed) and strategies (how replicas are ranked) — controls describe the
*adaptive machinery around* selection.  Each control module declares a
frozen *param dataclass* (defaults = the paper's / Cassandra's values) and
registers its implementation with :func:`register_control` —
:meth:`Registry.register <repro.strategies.specbase.Registry.register>` of
:data:`CONTROLS` — under one ``kind``:

* ``"detector"`` — failure detectors consulted by clients before replica
  selection (``SimulationConfig.failure_detector``);
* ``"hedge"`` — hedged-request / speculative-retry policies
  (``SimulationConfig.hedging``, ``ClusterConfig.hedging``);
* ``"rate"`` — per-server send-rate controllers (the generic CUBIC
  controller shared by C3 and the RR ablation).

A custom ``factory`` receives the keyword context of
``ControlSpec.build(**context)`` as a mapping (the shared crash tracker, the
server map); the default factory ignores it.
"""

from __future__ import annotations

from ..strategies.specbase import Registry, RegistryEntry

__all__ = [
    "CONTROLS",
    "CONTROL_KINDS",
    "ControlInfo",
    "control_names",
    "get_control",
    "kind_label",
    "register_control",
    "resolve_control",
]

#: The control families a registration may declare, with their
#: human-readable labels (error messages, CLI listing).
CONTROLS = Registry(
    "control",
    kinds={"detector": "failure detector", "hedge": "hedging policy", "rate": "rate controller"},
)
CONTROL_KINDS = tuple(CONTROLS.kinds)

ControlInfo = RegistryEntry
register_control = CONTROLS.register
control_names = CONTROLS.names
get_control = CONTROLS.get
resolve_control = CONTROLS.resolve
#: The human-readable name of a control kind (``"detector"`` → ``"failure detector"``).
kind_label = CONTROLS.kinds.__getitem__

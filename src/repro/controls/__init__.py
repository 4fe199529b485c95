"""Adaptive controls: failure detection, hedging, and rate control.

The third registry of the reproduction (after scenarios and strategies).
Controls are the adaptive machinery *around* replica selection — how
clients decide a replica is dead (``kind="detector"``), when they issue
extra request copies (``kind="hedge"``), and how per-server send rates
adapt (``kind="rate"``).  Every control is addressed by the same canonical
spec grammar as strategies (``"phi:threshold=8"``,
``"hedge:quantile=0.95,max_extra=1"``) via :class:`ControlSpec`, and the
three axes compose freely: any selector × any detector × any hedging
policy is a valid sweep point with its own cache key.
"""

from .registry import (
    CONTROL_KINDS,
    ControlInfo,
    control_names,
    get_control,
    kind_label,
    register_control,
    resolve_control,
)
from .spec import ControlSpec

# Importing the implementation modules registers the built-in controls; the
# import order below fixes the registry listing order (detectors, hedging,
# rate control).
from .detectors import (
    BinaryFailureDetector,
    FailureDetector,
    PhiAccrualFailureDetector,
)
from .hedging import QuantileHedging
from .rate import cubic_config_from_params

__all__ = [
    "CONTROL_KINDS",
    "BinaryFailureDetector",
    "ControlInfo",
    "ControlSpec",
    "FailureDetector",
    "PhiAccrualFailureDetector",
    "QuantileHedging",
    "control_names",
    "cubic_config_from_params",
    "get_control",
    "kind_label",
    "register_control",
    "resolve_control",
]

"""Live asyncio cluster backend behind the simulator's spec surface.

The same canonical :class:`~repro.strategies.StrategySpec` /
:class:`~repro.controls.ControlSpec` / scenario strings that drive the
discrete-event simulator drive real load here: replica servers are OS
processes running the simulator's server model on asyncio's clock
(:mod:`repro.live.server` over :mod:`repro.replica`), the load
generator replays the simulator's open-loop Poisson workload through the
strategies/controls registries over TCP (:mod:`repro.live.client`), and
:mod:`repro.live.harness` orchestrates trials in the cluster-test-script
shape — fork N localhost server processes, warmup/cooldown trimming,
streaming-histogram latency capture, per-trial artifact directories.

Wire format lives in :mod:`repro.live.protocol`; the C3-vs-baseline p99
comparison gate (used by the CI ``live-smoke`` job) in
:mod:`repro.live.compare`.
"""

from importlib import import_module
from typing import Any

from .protocol import MAX_FRAME_BYTES, encode_message

# The harness and the comparison gate are imported on first use: a server
# run by hand (`python -m repro.live.server`) imports this package and needs
# neither (nor the simulator and numpy behind them), and `python -m
# repro.live.compare` must not find its module already loaded (runpy's
# found-in-sys.modules RuntimeWarning).
_EXPORTS = {
    "LiveTrialConfig": "harness",
    "LiveTrialResult": "harness",
    "build_payload": "harness",
    "payload_digest": "harness",
    "run_trial": "harness",
    "write_artifacts": "harness",
    "ComparisonResult": "compare",
    "compare_p99": "compare",
    "load_trial": "compare",
}

__all__ = sorted([*_EXPORTS, "MAX_FRAME_BYTES", "encode_message"])


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

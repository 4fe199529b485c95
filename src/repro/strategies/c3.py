"""The C3 strategy adapter — wraps the core scheduler behind the selector API."""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Sequence

from ..core.config import C3Config
from ..core.feedback import ServerFeedback
from ..core.rate_control import CubicRateController, PerServerRateControl, RateControlEvent
from ..core.scheduler import C3Scheduler
from ..core.scoring import ReplicaScorer
from .base import ReplicaSelector, SelectorDecision
from .paramspec import config_params
from .registry import BuildContext, register_strategy

__all__ = ["C3Params", "C3Selector", "c3_config_from_params"]


C3Params = config_params(
    "C3Params",
    C3Config,
    derived=("concurrency_weight",),
    module=__name__,
    doc="""Sweepable C3 parameters (defaults = the paper's §4 values).

    The fields are :class:`~repro.core.config.C3Config`'s, with its types
    and defaults; a spec param simply overrides the matching config field.
    ``None`` means "derived": the concurrency weight defaults to the number
    of clients in the deployment, ``gamma`` to the saddle-duration
    heuristic, and the hysteresis to twice the rate window.  Paper-notation
    aliases are registered alongside: ``b`` (score exponent), ``w``
    (concurrency weight), ``cubic_c`` (the cubic curve's scaling factor γ)
    and ``delta_ms`` (the rate window δ).
    """,
)


def c3_config_from_params(
    params: Mapping[str, Any], base: C3Config | None = None
) -> C3Config:
    """Apply explicit spec params over a base :class:`C3Config`.

    The base carries the deployment-derived defaults (``with_clients``);
    params present in the spec override it field-by-field.  Specs are the
    one way to set C3 params, and the base differs from ``C3Config()`` only
    in fields whose param default is ``None`` ("derived"), so the params
    that parsing drops for equalling their default lose nothing.
    """
    config = base or C3Config()
    overrides = {key: value for key, value in params.items() if value is not None}
    return config.copy(**overrides) if overrides else config


def _validate_c3_params(params: Mapping[str, Any]) -> None:
    # C3Config.__post_init__ owns the value constraints; applying the params
    # to a default config surfaces them at spec-parse time.
    c3_config_from_params(params)


def _build_c3(params: Mapping[str, Any], ctx: BuildContext) -> "C3Selector":
    config = c3_config_from_params(params, ctx.c3_config)
    return C3Selector(config=config)


@register_strategy(
    "C3",
    params=C3Params,
    description="Adaptive replica selection: cubic scoring + distributed rate control (the paper's system)",
    param_aliases={
        "b": "score_exponent",
        "w": "concurrency_weight",
        "cubic_c": "gamma",
        "delta_ms": "rate_delta_ms",
    },
    factory=_build_c3,
    validate=_validate_c3_params,
)
class C3Selector(ReplicaSelector):
    """Replica selection with C3 ranking, rate control and backpressure.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.C3Config` controlling scoring and rate
        control.  Remember to call :meth:`C3Config.with_clients` (or set
        ``concurrency_weight``) so the concurrency compensation matches the
        deployment, as the paper prescribes.

    Set ``scheduler.rate_control.record_history`` before the run to keep the
    per-server rate traces :meth:`rate_history` returns (Figure 13).
    """

    name = "C3"

    def __init__(self, config: C3Config | None = None) -> None:
        self.config = config or C3Config()
        self.scheduler = C3Scheduler(self.config)

    # ------------------------------------------------------------------ sends
    def submit(self, request: object, replica_group: Sequence[Hashable], now: float) -> SelectorDecision:
        return self.scheduler.submit(request, replica_group, now)

    def kernel_state(
        self, num_servers: int
    ) -> "tuple[tuple, list[CubicRateController]] | None":
        """Live state views for the batched kernel's inlined C3 path.

        Returns ``(scorer_state, controllers)`` where ``scorer_state`` is
        :meth:`ReplicaScorer.kernel_state`'s tuple of live dense arrays and
        ``controllers`` is the eagerly-created per-server
        :class:`CubicRateController` list (creation draws no randomness and
        every controller's clock anchors at 0, so eager creation is
        digest-neutral).  Returns ``None`` — sending the kernel to the
        polymorphic fallback — when any component was subclassed or the
        scorer's slot table is not the identity over ``0..num_servers-1``.
        """
        scheduler = self.scheduler
        if type(scheduler) is not C3Scheduler:
            return None
        scorer = scheduler.scorer
        rate_control = scheduler.rate_control
        if type(scorer) is not ReplicaScorer or type(rate_control) is not PerServerRateControl:
            return None
        state = scorer.kernel_state(num_servers)
        if state is None:
            return None
        controllers = [rate_control.controller(sid) for sid in range(num_servers)]
        return state, controllers

    def kernel_restore(
        self,
        submitted: int,
        sent: int,
        backpressured: int,
        responses: int,
        scorer_sends: int,
        scorer_responses: int,
        scorer_evaluations: int,
    ) -> None:
        """Fold the kernel's locally-accumulated counter deltas back in.

        The dense scorer arrays, rate controllers and backlog queues are
        shared live with the kernel (fallback paths mutate them directly),
        so only the batched observability counters need restoring.
        """
        scheduler = self.scheduler
        scheduler.requests_submitted += submitted
        scheduler.requests_sent += sent
        scheduler.requests_backpressured += backpressured
        scheduler.responses_received += responses
        scheduler.scorer.kernel_restore(scorer_sends, scorer_responses, scorer_evaluations)

    def on_duplicate_send(self, server_id: Hashable, now: float) -> None:
        # Read-repair duplicates occupy the server and will generate
        # feedback, so they must be reflected in the outstanding count even
        # though they bypass ranking and rate limiting.
        self.scheduler.scorer.on_send(server_id, now)

    # -------------------------------------------------------------- responses
    def on_response(
        self,
        server_id: Hashable,
        feedback: ServerFeedback | None,
        response_time: float,
        now: float,
    ) -> list[tuple[object, Hashable]]:
        released = self.scheduler.on_response(server_id, feedback, response_time, now)
        return [(entry.request, chosen) for entry, chosen in released] if released else []

    def on_timeout(self, server_id: Hashable, now: float) -> None:
        self.scheduler.on_timeout(server_id, now)

    # ---------------------------------------------------------------- backlog
    def drain_backlog(self, now: float) -> list[tuple[object, Hashable]]:
        released = self.scheduler.drain_backlog(now)
        return [(entry.request, chosen) for entry, chosen in released]

    def cancel(self, request: object) -> None:
        self.scheduler.cancel(request)

    def pending_backlog(self) -> int:
        return self.scheduler.backlog.pending()

    def next_retry_ms(self, now: float) -> float | None:
        return self.scheduler.next_backlog_retry_ms(now)

    # ------------------------------------------------------------ observation
    def sending_rates(self) -> dict[Hashable, float]:
        """Current per-server sending rates (requests per δ window)."""
        return self.scheduler.sending_rates()

    def rate_history(self, server_id: Hashable) -> list[RateControlEvent]:
        """The recorded rate adjustments for one server (Figure 13 traces)."""
        return self.scheduler.rate_control.controller(server_id).history

    def stats(self) -> dict:
        return self.scheduler.stats()

"""The C3 core: replica ranking, rate control, backpressure, and scheduling.

This subpackage contains the paper's primary contribution, decoupled from any
simulation substrate so it can be unit-tested and reused directly.
"""

from .backpressure import BacklogEntry, BacklogQueue, BackpressureQueues
from .config import C3Config
from .cubic import cubic_inflection_ms, gamma_for_saddle
from .ewma import EWMA
from .feedback import ServerFeedback
from .rate_control import CubicRateController, RateLimiter, ReceiveRateTracker, cubic_rate
from .scheduler import C3Scheduler, ScheduleDecision
from .scoring import ReplicaScorer, ServerStats, cubic_score

__all__ = [
    "BacklogEntry",
    "BacklogQueue",
    "BackpressureQueues",
    "C3Config",
    "C3Scheduler",
    "CubicRateController",
    "EWMA",
    "RateLimiter",
    "ReceiveRateTracker",
    "ReplicaScorer",
    "ScheduleDecision",
    "ServerFeedback",
    "ServerStats",
    "cubic_inflection_ms",
    "cubic_rate",
    "cubic_score",
    "gamma_for_saddle",
]

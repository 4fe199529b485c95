"""The flat simulator against closed-form queueing results.

Golden digests and the kernel-equivalence matrix pin that the simulator did
not *change*; these tests check that it is *right*.  With uniform-random
selection, no service-rate fluctuation and no read repair, every server sees
a Poisson thinning of the Poisson arrivals and serves exponential times with
``server_concurrency`` slots: an M/M/c queue at the configured utilisation,
plus one network hop each way.

* ``c = 4``: the mean sojourn is Erlang C's (Kleinrock, *Queueing Systems*
  vol. 1, 1975), 5.93 ms with 4 ms service at ρ = 0.7 and 2 × 0.25 ms network.
* ``c = 1``: the M/M/1 sojourn is exponential with rate μ − λ, so the mean is
  1 / (μ − λ) + 0.5 = 13.83 ms and the median ln 2 / (μ − λ) + 0.5 = 9.74 ms.

Each statistic pools four seeds of 20 000 requests on the batched kernel.  Its
tolerance is three standard errors of a four-seed pool, from the spread of
the single-seed statistic over seeds 4–23 of the same configuration (standard
deviations 0.095 ms, 0.40 ms and 0.25 ms below).  That is tight enough to
fail a service-time mean 5 % too long (both cases) and a network delay counted
once instead of twice (the ``c = 4`` mean, 0.25 ms low).  Tails (p99, p99.9)
are left out: they read a few per cent low from the empty-start transient.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulator.simulation import ReplicaSelectionSimulation, SimulationConfig

SEEDS = range(4)
SERVICE_MS = 4.0
NETWORK_MS = 0.25
RHO = 0.7


def _pooled_latencies(concurrency: int) -> np.ndarray:
    runs = []
    for seed in SEEDS:
        config = SimulationConfig(
            kernel="batched",
            strategy="RAND",
            fluctuation_enabled=False,
            read_repair_probability=0.0,
            utilization=RHO,
            mean_service_time_ms=SERVICE_MS,
            network_delay_ms=NETWORK_MS,
            server_concurrency=concurrency,
            num_requests=20_000,
            seed=seed,
        )
        runs.append(ReplicaSelectionSimulation(config).run().latencies_ms)
    return np.concatenate(runs)


def _tolerance(seed_sd_ms: float) -> float:
    return 3.0 * seed_sd_ms / math.sqrt(len(SEEDS))


def erlang_c_sojourn_ms(servers: int, service_ms: float, rho: float) -> float:
    """Mean M/M/c sojourn time: Erlang C wait plus one service time."""
    mu = 1.0 / service_ms
    offered = rho * servers  # λ / μ
    tail = offered**servers / math.factorial(servers) / (1.0 - rho)
    head = sum(offered**k / math.factorial(k) for k in range(servers))
    p_wait = tail / (head + tail)
    return p_wait / (servers * mu * (1.0 - rho)) + service_ms


def test_closed_forms():
    assert erlang_c_sojourn_ms(4, SERVICE_MS, RHO) + 2 * NETWORK_MS == pytest.approx(5.929, abs=1e-3)
    assert erlang_c_sojourn_ms(1, SERVICE_MS, RHO) == pytest.approx(1.0 / (0.25 - 0.175))


def test_mm4_mean_matches_erlang_c():
    expected = erlang_c_sojourn_ms(4, SERVICE_MS, RHO) + 2 * NETWORK_MS
    measured = float(np.mean(_pooled_latencies(4)))
    assert measured == pytest.approx(expected, abs=_tolerance(0.095))


def test_mm1_mean_and_median_match_closed_form():
    spare_rate = (1.0 - RHO) / SERVICE_MS  # μ − λ per server, per ms
    latencies = _pooled_latencies(1)
    mean = float(np.mean(latencies))
    median = float(np.median(latencies))
    assert mean == pytest.approx(1.0 / spare_rate + 2 * NETWORK_MS, abs=_tolerance(0.40))
    assert median == pytest.approx(math.log(2.0) / spare_rate + 2 * NETWORK_MS, abs=_tolerance(0.25))

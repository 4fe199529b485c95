"""The process-pool sweep runner.

:class:`SweepRunner` executes every trial of a :class:`~repro.runner.SweepSpec`
— in a :class:`~concurrent.futures.ProcessPoolExecutor` by default, serially
on request — with per-trial result caching keyed by the trial's config
content hash.

Engine: every trial runs on the batched kernel, whatever its config's
``kernel`` says.  Only results are kept, and the kernel's are the object
path's digest for digest on every selector, control and scenario a sweep
can name (the equivalence matrices of ``tests/simulator/test_kernel_equivalence.py``
and ``test_rng_block.py``), so ``kernel`` is not part of a trial's identity.

Determinism: a trial's outcome is a pure function of its resolved
``SimulationConfig`` (every random stream in the simulator derives from
``config.seed``), so execution order, worker count, and serial-vs-pool mode
cannot change results.  The runner additionally restores spec expansion
order when collecting parallel completions, so ``SweepResult.trials`` is
stable too.  The determinism regression suite asserts both properties via
:meth:`~repro.simulator.metrics.SimulationResult.digest`.

Only config payloads (plain dicts) and trial-summary dicts cross the process
boundary; workers rebuild the config themselves, which keeps the pickled
payloads tiny and spawn-start-method safe.  Streaming-mode trials return
their latency histograms inside the summary dict as serialized bucket maps
(O(buckets), not O(requests)), so even million-request trials ship
kilobytes between processes.

Resumable execution: each finished trial is written atomically to the
cache as it completes, in completion order, not at the end of the batch.
A killed run (``SIGKILL`` mid-pool included) or one capped by
``run(spec, max_trials=N)`` therefore loses only the trials still running,
and running the same spec again with the same cache executes exactly the
rest.  ``max_trials`` bounds how many cache misses one invocation executes,
which turns this into deliberate budget slicing.  A trial that raises stops
the pool: trials not yet handed to a worker never start, every trial that
did finish is still cached, and the trial's own exception surfaces.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Sequence

from ..simulator.simulation import run_simulation
from .cache import TrialCache
from .results import SweepResult, TrialResult
from .spec import SweepSpec, TrialSpec, config_to_payload, payload_to_config

__all__ = ["SweepRunner", "execute_trial"]


def execute_trial(job: dict) -> dict:
    """Run one trial from its wire payload; module-level so pools can pickle it.

    ``job`` carries ``{"index", "key", "params", "seed", "config"}`` where
    ``config`` is :func:`~repro.runner.spec.config_to_payload` output; the
    return value is ``{"index", "trial"}`` with a
    :meth:`~repro.runner.results.TrialResult.to_dict` payload.
    """
    config = payload_to_config(job["config"])
    started = time.perf_counter()
    result = run_simulation(config.copy(kernel="batched"))
    wall = time.perf_counter() - started
    trial = TrialSpec(index=job["index"], params=job["params"], seed=job["seed"], config=config)
    # Record the key the scheduler looked up, not one recomputed from the
    # round-tripped config: payload_to_config normalizes types (e.g. float
    # 40.0 → int 40), and a key drift here would make cache writes land
    # under a key that is never read back.
    payload = TrialResult.from_simulation(trial, job["key"], result, wall).to_dict()
    return {"index": job["index"], "trial": payload}


class SweepRunner:
    """Executes sweep specs with caching and optional process-pool fan-out.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the machine's CPU count.  ``1`` degenerates
        to serial in-process execution (no pool is created).
    cache_dir:
        Root of the per-trial result cache; ``None`` disables caching.
    parallel:
        ``False`` forces serial in-process execution regardless of
        ``max_workers`` (useful for debugging and determinism baselines).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        parallel: bool = True,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.cache = TrialCache(cache_dir) if cache_dir is not None else None
        self.parallel = parallel

    # ---------------------------------------------------------------- running
    def run(self, spec: SweepSpec, max_trials: int | None = None) -> SweepResult:
        """Execute (or fetch from cache) every trial of ``spec``.

        ``max_trials`` caps how many cache *misses* this invocation
        executes; the deferred trials run on a later call with the same
        cache, and the returned result is partial (``result.complete`` is
        False, ``result.trials`` holds only the completed trials, in
        expansion order).
        """
        if max_trials is not None and max_trials < 0:
            raise ValueError("max_trials must be >= 0")
        started = time.perf_counter()
        trials = spec.trials()
        slots: list[TrialResult | None] = [None] * len(trials)
        pending: list[tuple[TrialSpec, str]] = []

        for trial in trials:
            key = trial.key
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                try:
                    # The key hashes the resolved config, not the grid that
                    # named it: a trial cached by another spec carries that
                    # spec's axes, so it is relabelled with this one's.
                    cached = {**cached, "params": dict(trial.params)}
                    slots[trial.index] = TrialResult.from_dict(cached, from_cache=True)
                except TypeError:
                    # Schema drift (an entry written by an older TrialResult
                    # layout) behaves like corruption: a miss, re-executed
                    # and overwritten.
                    slots[trial.index] = None
            if slots[trial.index] is None:
                pending.append((trial, key))

        deferred = 0
        if max_trials is not None and len(pending) > max_trials:
            deferred = len(pending) - max_trials
            pending = pending[:max_trials]

        def on_result(index: int, payload: dict) -> None:
            result = TrialResult.from_dict(payload)
            slots[index] = result
            if self.cache is not None:
                self.cache.put(result.key, payload)

        self._execute(pending, on_result)

        completed = [slot for slot in slots if slot is not None]
        assert len(completed) == len(trials) - deferred
        return SweepResult(
            spec_key=spec.key,
            trials=completed,
            executed=len(pending),
            cached=len(trials) - len(pending) - deferred,
            wall_time_s=time.perf_counter() - started,
            total_trials=len(trials),
        )

    def _execute(
        self,
        pending: Sequence[tuple[TrialSpec, str]],
        on_result: Callable[[int, dict], None],
    ) -> None:
        """Run the cache misses, serially or through the pool.

        ``on_result`` fires once per trial *as it completes* (completion
        order under the pool), which is what makes cache writes incremental
        rather than end-of-batch.
        """
        jobs = [
            {
                "index": trial.index,
                "key": key,
                "params": trial.params,
                "seed": trial.seed,
                "config": config_to_payload(trial.config),
            }
            for trial, key in pending
        ]
        if not jobs:
            return
        if not self.parallel or self.max_workers == 1 or len(jobs) == 1:
            for job in jobs:
                out = execute_trial(job)
                on_result(out["index"], out["trial"])
            return
        workers = min(self.max_workers, len(jobs))
        failed: Future | None = None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(execute_trial, job) for job in jobs}
            try:
                while futures and failed is None:
                    done, futures = wait(futures, return_when=FIRST_COMPLETED)
                    failed = _deliver(done, on_result)
            finally:
                # After a failure (or an interrupt) no queued trial starts;
                # this waits only for the trials a worker already holds.
                pool.shutdown(cancel_futures=True)
        if failed is not None:
            _deliver(futures, on_result)
            failed.result()  # re-raises the trial's exception unchanged


def _deliver(futures: Iterable[Future], on_result: Callable[[int, dict], None]) -> Future | None:
    """Pass every finished, successful trial to ``on_result``; return the first failed one."""
    failed: Future | None = None
    for future in futures:
        if future.cancelled():
            continue
        if future.exception() is not None:
            failed = failed or future
            continue
        out = future.result()
        on_result(out["index"], out["trial"])
    return failed

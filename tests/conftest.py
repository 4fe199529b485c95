"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import repro
from repro.core.config import C3Config


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def c3_config() -> C3Config:
    """A small, fast C3 configuration used across unit tests."""
    return C3Config(initial_rate=5.0, rate_delta_ms=10.0, concurrency_weight=4.0)


@pytest.fixture
def fresh_python() -> Callable[..., subprocess.CompletedProcess]:
    """``fresh_python(*args)`` runs ``python *args`` in a new interpreter on this ``repro``.

    The run is killed (and the test fails) after 60 s, so a hang in the child
    fails the test instead of stalling the suite.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)

    return run

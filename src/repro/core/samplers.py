"""Scalar variates from numpy's own C samplers, without the Python dispatch.

Each function binds one generator to the C function behind a scalar
``Generator`` method and returns a zero-argument callable:

* :func:`uniform` — ``rng.random()``;
* :func:`standard_exponential` — ``rng.standard_exponential()``, so that
  ``mean * draw()`` is ``rng.exponential(mean)``, which numpy computes as
  that same single multiply;
* :func:`below` — ``int(rng.integers(n))``;
* :func:`weighted` — ``int(rng.choice(len(p), p=p))``, the index a
  weighted choice picks.

The draws are exact, not lookalikes: the scalar methods run these same C
samplers on the same ``bitgen_t`` (``integers(n)`` takes the unmasked
Lemire path, ``random_bounded_uint64(state, 0, n - 1, 0, False)``), so every
value and every generator state is bit-identical to the method call it
replaces.  :func:`weighted` repeats ``choice``'s own arithmetic over one
:func:`uniform` draw: the same CDF (``p.cumsum()`` divided by its last
entry) searched on the right, by :func:`bisect.bisect_right` over it as a
list.  numpy declares the exports in ``numpy/random/c_distributions.pxd``,
and its ``_examples/cffi/extending.py`` (run by numpy's
``tests/test_extending.py::test_cffi``) loads this library the same way and
asserts equality with the ``Generator`` methods.

A sampler is a :func:`functools.partial` over a ctypes function whose
arguments are pre-built ctypes objects: no Python frame per draw, and
~0.2-0.6 µs instead of ~0.6-2.5 µs (:func:`weighted` adds one frame and the
search: ~0.4 µs instead of ``choice``'s ~13 µs).  The library is loaded once, at the
first bind, with :class:`ctypes.PyDLL`, so the GIL stays held through these
~20 ns calls (``ctypes.CDLL`` would release and re-take it around each one);
a draw is therefore as atomic as the method call it replaces.  A sampler
keeps its bit generator alive through its ``bit_generator`` attribute, so
the ``bitgen_t`` pointer it holds never dangles, even once the
``Generator`` is gone.  Samplers are not picklable: bind them at
construction, never ship them to another process.
"""

from __future__ import annotations

import ctypes
import functools
import math
from bisect import bisect_right
from typing import Any, Callable

__all__ = ["below", "standard_exponential", "uniform", "weighted"]

_ZERO = ctypes.c_uint64(0)
_LEMIRE = ctypes.c_bool(False)


@functools.cache
def _library() -> ctypes.PyDLL:
    # Loaded at the first bind, not at import: numpy loads numpy.random
    # lazily, and a process that binds nothing (a sweep's parent) need not.
    from numpy.random import _generator

    lib = ctypes.PyDLL(_generator.__file__)
    for name in ("random_standard_uniform", "random_standard_exponential"):
        getattr(lib, name).argtypes = (ctypes.c_void_p,)
        getattr(lib, name).restype = ctypes.c_double
    # (bitgen_t *state, uint64_t off, uint64_t rng, uint64_t mask, bool use_masked)
    lib.random_bounded_uint64.argtypes = (
        ctypes.c_void_p,
        ctypes.c_uint64,
        ctypes.c_uint64,
        ctypes.c_uint64,
        ctypes.c_bool,
    )
    lib.random_bounded_uint64.restype = ctypes.c_uint64
    return lib


def _bind(rng: Any, name: str, *args: Any) -> Callable[[], Any]:
    bit_generator = rng.bit_generator
    sampler = functools.partial(getattr(_library(), name), bit_generator.ctypes.bit_generator, *args)
    sampler.bit_generator = bit_generator  # type: ignore[attr-defined]
    return sampler


def uniform(rng: Any) -> Callable[[], float]:
    """``rng.random()`` as a bound sampler."""
    return _bind(rng, "random_standard_uniform")


def standard_exponential(rng: Any) -> Callable[[], float]:
    """``rng.standard_exponential()`` as a bound sampler."""
    return _bind(rng, "random_standard_exponential")


def below(rng: Any, n: int) -> Callable[[], int]:
    """``int(rng.integers(n))`` as a bound sampler, for ``1 <= n <= 2**63``."""
    if not 1 <= n <= 2**63:
        raise ValueError(f"below needs 1 <= n <= 2**63 (the int64 range of integers(n)), got {n}")
    return _bind(rng, "random_bounded_uint64", _ZERO, ctypes.c_uint64(n - 1), _ZERO, _LEMIRE)


def weighted(rng: Any, p: Any) -> Callable[[], int]:
    """``int(rng.choice(len(p), p=p))`` as a bound sampler: an index drawn with probabilities ``p``."""
    import numpy as np  # at the first bind, as the library is

    p = np.asarray(p, dtype=np.float64)
    tolerance = math.sqrt(np.finfo(float).eps)
    if p.ndim != 1 or not p.size or not (p >= 0).all() or abs(p.sum() - 1.0) > tolerance:
        raise ValueError("weighted needs a non-empty 1-D vector of probabilities summing to 1")
    cumulative = p.cumsum()
    cumulative /= cumulative[-1]  # Generator.choice's own CDF, bit for bit
    cdf = cumulative.tolist()
    draw = uniform(rng)

    def sample() -> int:
        return bisect_right(cdf, draw())

    sample.bit_generator = draw.bit_generator  # type: ignore[attr-defined]
    return sample

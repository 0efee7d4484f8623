"""Pluggable array-backend seam for the hot numerical kernels.

The compiled netlist kernels (and, over time, the other hot paths) do
not call ``numpy`` directly for backend-sensitive work: they ask this
module for the *active* :class:`ArrayBackend` and use its ``xp`` array
namespace plus its kernel-selection flags.  Callers — trojan activity
models, the EM simulator's batch acquisition, campaign cells — never
change: selecting a backend per :class:`~repro.campaigns.spec.CampaignSpec`
cell (the ``kernel_backend`` knob / ``--backend`` CLI flag) swaps the
kernel underneath them.

Built-in backends:

``numpy``
    The default: the uint8 one-lane-per-stimulus compiled kernel,
    unchanged — it remains the pinned reference every other backend must
    match bit for bit.
``bitslice``
    The same numpy namespace, but netlist evaluation runs through the
    uint64 bitplane kernel (:mod:`repro.netlist.bitslice`): 64 stimuli
    per machine word, Biham-style.
Further backends drop in through :func:`register_backend` without
touching any kernel caller.

Backend selection is execution-only: every backend must produce results
bit-identical to ``numpy``, so artifact-store content keys ignore the
``kernel_backend`` spec field and a warm store stays warm across
backends.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Tuple, Union

import numpy as np


class BackendError(RuntimeError):
    """Raised when a requested array backend cannot be provided."""


@dataclass(frozen=True)
class ArrayBackend:
    """One array namespace plus kernel-selection flags.

    Attributes
    ----------
    name:
        Registry name of the backend.
    xp:
        The array namespace (``numpy`` for the built-ins).  Kernel code
        routes array creation and ufuncs through this object.
    bitslice:
        When true, netlist logic evaluation runs through the packed
        uint64 bitplane kernel instead of the uint8 lane kernel.
    """

    name: str
    xp: Any = field(repr=False, default=np)
    bitslice: bool = False


def _make_numpy() -> ArrayBackend:
    return ArrayBackend(name="numpy", xp=np, bitslice=False)


def _make_bitslice() -> ArrayBackend:
    return ArrayBackend(name="bitslice", xp=np, bitslice=True)


#: Name -> factory.  Factories run on first request, so a registered
#: backend only imports its dependencies when it is selected.
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _make_numpy,
    "bitslice": _make_bitslice,
}

_CACHE: Dict[str, ArrayBackend] = {}
_LOCK = threading.Lock()


def known_backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def register_backend(name: str,
                     factory: Callable[[], ArrayBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    The factory runs on first :func:`get_backend` call; it may raise
    :class:`BackendError` to signal a missing optional dependency.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    with _LOCK:
        _FACTORIES[str(name)] = factory
        _CACHE.pop(str(name), None)


def get_backend(name: str) -> ArrayBackend:
    """Resolve a backend by name (raises :class:`BackendError`)."""
    with _LOCK:
        backend = _CACHE.get(name)
        if backend is not None:
            return backend
        factory = _FACTORIES.get(name)
    if factory is None:
        raise BackendError(
            f"unknown array backend {name!r}; known: "
            + ", ".join(known_backend_names())
        )
    backend = factory()
    if not isinstance(backend, ArrayBackend):
        raise BackendError(
            f"backend factory for {name!r} returned {type(backend).__name__}, "
            "expected ArrayBackend"
        )
    with _LOCK:
        _CACHE[name] = backend
    return backend


_DEFAULT = get_backend("numpy")
_ACTIVE = threading.local()


def active_backend() -> ArrayBackend:
    """The backend the kernels currently dispatch on."""
    return getattr(_ACTIVE, "backend", _DEFAULT)


def set_active_backend(backend: Union[str, ArrayBackend]) -> ArrayBackend:
    """Set the active backend; returns the previously active one."""
    if isinstance(backend, str):
        backend = get_backend(backend)
    previous = active_backend()
    _ACTIVE.backend = backend
    return previous


@contextmanager
def use_backend(backend: Union[str, ArrayBackend]) -> Iterator[ArrayBackend]:
    """Scoped backend selection::

        with use_backend("bitslice"):
            values = compiled.evaluate_batch(rows)   # bitplane kernel
    """
    previous = set_active_backend(backend)
    try:
        yield active_backend()
    finally:
        set_active_backend(previous)


# -- small shared kernels ------------------------------------------------------

#: Bits set per byte value — the portable popcount fallback.
_POPCOUNT_LUT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)


def popcount(words: np.ndarray, xp: Any = np) -> np.ndarray:
    """Per-element set-bit count of an unsigned integer array (int64).

    Uses ``xp.bitwise_count`` when the namespace provides it (numpy >=
    2.0) and a byte-LUT reduction otherwise, so the helper works on any
    registered array namespace.
    """
    words = xp.asarray(words)
    if hasattr(xp, "bitwise_count"):
        return xp.bitwise_count(words).astype(xp.int64)
    counts = xp.zeros(words.shape, dtype=xp.int64)
    lut = xp.asarray(_POPCOUNT_LUT)
    for shift in range(0, words.dtype.itemsize * 8, 8):
        counts += lut[(words >> words.dtype.type(shift))
                      .astype(xp.uint8)].astype(xp.int64)
    return counts


__all__ = [
    "ArrayBackend",
    "BackendError",
    "active_backend",
    "get_backend",
    "known_backend_names",
    "popcount",
    "register_backend",
    "set_active_backend",
    "use_backend",
]

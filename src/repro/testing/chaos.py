"""Deterministic chaos harness for campaign and store fault tolerance.

A :class:`FaultPlan` scripts infrastructure faults at exact
``(cell_index, attempt)`` coordinates of a supervised campaign run
(:class:`~repro.campaigns.supervisor.CampaignSupervisor`):

* ``crash``     — the worker process dies with ``os._exit`` right before
  executing the cell, exactly like an OOM kill or a segfaulting native
  extension;
* ``hang``      — the worker sleeps past any sane cell timeout, standing
  in for a deadlocked kernel call;
* ``truncate``  — the worker's next store write completes, then *the
  object file is torn in half after the manifest entry is recorded*
  (the worst torn-write ordering: the store claims a hit whose payload
  is garbage) and the worker dies — exercising the store's read-time
  digest verification and quarantine path;
* ``interrupt`` — the *supervisor* initiates its SIGINT drain the moment
  the coordinate starts executing, standing in for an operator ^C, so
  interrupt/resume behaviour is testable without real signals.

Coordinates are attempt-aware: attempt numbers start at 1, so a plan
injecting ``(cell 3, attempt 1)`` makes the first try fail and lets the
retry succeed.  The plan is a frozen, picklable value object — it
travels to worker processes with the engine payload (which apply it
through :meth:`FaultPlan.worker_store` and :meth:`FaultPlan.begin_cell`),
every run of the same plan injects the same faults, and a chaos run's
final merged rows are required (by the acceptance tests) to be
bit-identical to a clean serial run of the same spec.

Store faults are backend decorators: :class:`FlakyTransport` injects a
seeded :class:`~repro.testing.faults.FaultSchedule` into any transport,
and :class:`FaultHookDirectory` runs scripted hooks inside a store
directory's write path (the plan's torn writes, :func:`WindowFaultStore`).

**Multi-process fault plans** extend the vocabulary to races *between*
processes sharing one store directory:

* :class:`SyncFlag` — a file-based event for deterministic cross-process
  sequencing (no inherited ``multiprocessing`` primitives needed, so it
  works between arbitrary spawned/forked/exec'd processes);
* :func:`WindowFaultStore` — an :class:`ArtifactStore` that *stops
  inside the object→manifest window* of a ``put_*``: it raises a
  :class:`SyncFlag` the moment the object file exists without its
  manifest entry, then either waits for a proceed flag (letting the test
  script a concurrent ``gc``/``fsck --repair`` into the exact window) or
  dies with ``os._exit`` (a ``kill -9`` mid-``put``, leaving the orphan
  object plus a lease whose pid is dead).

These are the building blocks of the multi-process stress suite
(``tests/test_store_concurrency.py``): two writers racing one key, a
``gc`` scripted into a live writer's window (the leased orphan must
survive), kill -9 mid-``put`` (lease goes stale, ``fsck --repair``
recovers, a resumed run computes only the missing cells), and the
N-shard-processes-vs-maintenance-loop acceptance test.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..store.artifact_store import ArtifactStore, DirectoryBackend
from ..store.core import ManifestEntry
from ..store.transport import (
    Transport,
    TransportConnectionError,
    TransportTimeout,
)
from .faults import FaultClock, FaultSchedule, OneShotTrigger


class FaultKind:
    """The fault vocabulary of a :class:`FaultPlan` (string constants)."""

    CRASH = "crash"
    HANG = "hang"
    TRUNCATE = "truncate"
    INTERRUPT = "interrupt"

    ALL = (CRASH, HANG, TRUNCATE, INTERRUPT)


@dataclass(frozen=True)
class FaultInjection:
    """One scripted fault: what happens at one (cell, attempt) coordinate."""

    cell_index: int
    attempt: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: "
                + ", ".join(FaultKind.ALL)
            )
        if self.attempt < 1:
            raise ValueError("attempt numbers start at 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of infrastructure faults for one run."""

    injections: Tuple[FaultInjection, ...] = ()
    #: How long a ``hang`` fault sleeps — far past any test timeout by
    #: default, so a hang is only ever resolved by the supervisor's
    #: cell timeout, never by the sleep finishing first.
    hang_seconds: float = 3600.0
    #: Exit code of ``crash`` faults (distinctive, so test assertions
    #: can tell a scripted crash from an accidental one).
    crash_exit_code: int = 173
    #: Exit code of the post-truncation kill.
    truncate_exit_code: int = 174

    def __post_init__(self) -> None:
        object.__setattr__(self, "injections", tuple(self.injections))
        coordinates = [(i.cell_index, i.attempt) for i in self.injections]
        if len(set(coordinates)) != len(coordinates):
            raise ValueError("one fault per (cell_index, attempt) coordinate")

    def lookup(self, cell_index: int, attempt: int) -> Optional[FaultInjection]:
        """The scripted fault at a coordinate, if any."""
        for injection in self.injections:
            if (injection.cell_index, injection.attempt) == (cell_index,
                                                             attempt):
                return injection
        return None

    def worker_fault(self, cell_index: int,
                     attempt: int) -> Optional[FaultInjection]:
        """The worker-side fault at a coordinate (interrupts are
        supervisor-side and excluded)."""
        injection = self.lookup(cell_index, attempt)
        if injection is not None and injection.kind != FaultKind.INTERRUPT:
            return injection
        return None

    def interrupts_at(self, cell_index: int, attempt: int) -> bool:
        """True when the supervisor should start its drain at this
        coordinate (an ``interrupt`` fault)."""
        injection = self.lookup(cell_index, attempt)
        return injection is not None and injection.kind == FaultKind.INTERRUPT

    def worker_store(self, store: Any) -> Any:
        """The store a supervised worker runs this plan's cells against.

        A plain local store is rebuilt over a :class:`FaultHookDirectory`
        so ``truncate`` faults can tear its writes; remote and tiered
        stores take their faults at the transport layer
        (:class:`FlakyTransport`) and pass through unchanged.
        """
        if type(store) is not ArtifactStore:
            return store
        return ArtifactStore(FaultHookDirectory(store.root))

    def begin_cell(self, store: Any, cell_index: int, attempt: int) -> None:
        """Carry out the worker-side fault of one coordinate.

        Called right before the cell executes: a crash exits the
        process, a hang sleeps into the supervisor's timeout kill, and a
        truncation arms ``store``'s write hook so the next completed
        write is torn.
        """
        injection = self.worker_fault(cell_index, attempt)
        kind = injection.kind if injection is not None else None
        backend = getattr(store, "backend", None)
        if isinstance(backend, FaultHookDirectory):
            backend.after_write = (self._tear if kind == FaultKind.TRUNCATE
                                   else None)
        if kind == FaultKind.CRASH:
            # os._exit skips every atexit/finally handler — the closest
            # a test can get to a SIGKILL'd or OOM-killed worker.
            os._exit(self.crash_exit_code)
        elif kind == FaultKind.HANG:
            time.sleep(self.hang_seconds)

    def _tear(self, directory: DirectoryBackend, entry: ManifestEntry) -> None:
        """Halve a just-recorded object, then die: an unsynced-filesystem
        torn write whose manifest still advertises a hit."""
        object_path = directory.objects_dir / entry.filename
        data = object_path.read_bytes()
        with open(object_path, "wb") as handle:
            handle.write(data[:max(1, len(data) // 2)])
        os._exit(self.truncate_exit_code)


class FaultHookDirectory(DirectoryBackend):
    """A store directory that runs scripted faults inside its write path.

    * ``before_record(key)`` fires inside the object→manifest window
      (object bytes on disk, manifest entry not yet recorded);
    * ``after_write(directory, entry)`` fires once a write completed.
    """

    def __init__(self, root: Union[str, Path], *,
                 before_record: Optional[Callable[[str], None]] = None):
        super().__init__(root)
        self.before_record = before_record
        self.after_write: Optional[Callable[..., None]] = None

    def _record(self, entry: ManifestEntry) -> None:
        if self.before_record is not None:
            self.before_record(entry.key)
        super()._record(entry)

    def write(self, entry: ManifestEntry, data: bytes) -> None:
        super().write(entry, data)
        if self.after_write is not None:
            self.after_write(self, entry)


class SyncFlag:
    """A file-based cross-process event.

    ``multiprocessing.Event`` must be inherited at fork/spawn time; a
    flag file only needs a path, so arbitrary processes (including ones
    started via ``subprocess``) can sequence against each other
    deterministically.  Setting is atomic (``O_CREAT`` of a marker
    file); waiting polls with a small sleep.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def set(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch()

    def is_set(self) -> bool:
        return self.path.exists()

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass

    def wait(self, timeout_s: float = 30.0,
             poll_s: float = 0.005) -> bool:
        """Block until set (True) or until ``timeout_s`` elapses (False)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.is_set():
                return True
            time.sleep(poll_s)
        return self.is_set()


def WindowFaultStore(root: Union[str, Path], *,
                     window_flag: Union[str, Path],
                     proceed_flag: Optional[Union[str, Path]] = None,
                     kill_in_window: bool = False,
                     skip_writes: int = 0,
                     exit_code: int = 175,
                     wait_timeout_s: float = 30.0) -> ArtifactStore:
    """An :class:`ArtifactStore` that stops inside the object→manifest
    window of its next ``put_*``.

    The store's crash-consistency window — object file on disk, manifest
    entry not yet recorded — is normally microseconds wide.  This store
    holds it open on cue so a test can script a concurrent maintenance
    pass into the exact interleaving that loses work on an unprotected
    store:

    * ``window_flag`` is set the moment the window opens (object
      written, manifest pending);
    * with a ``proceed_flag``, the write then *blocks* until the flag is
      set — the test runs ``gc``/``fsck`` meanwhile, then releases the
      writer, which must still complete into a verified hit;
    * with ``kill_in_window=True``, the process instead dies on the spot
      with ``os._exit`` — a ``kill -9`` mid-``put``, leaving the orphan
      object and a lease whose pid is dead for the stale-lease path.

    Only one window fires: the first write after ``skip_writes`` earlier
    writes have completed normally (so a multi-cell campaign can target
    one specific write mid-run).
    """
    window = SyncFlag(window_flag)
    proceed = SyncFlag(proceed_flag) if proceed_flag is not None else None
    trigger = OneShotTrigger(skip=skip_writes)

    def hold_window(key: str) -> None:
        # By the time this hook runs the object file exists and the
        # manifest entry does not: the window is open.
        if not trigger.should_fire():
            return
        window.set()
        if kill_in_window:
            # Skips atexit/finally — the lease file stays behind
            # with a dead pid, exactly like SIGKILL.
            os._exit(exit_code)
        if proceed is not None and not proceed.wait(wait_timeout_s):
            raise TimeoutError(
                f"window proceed flag {proceed.path} was never set "
                f"within {wait_timeout_s} s")

    return ArtifactStore(FaultHookDirectory(root, before_record=hold_window))


class TransportFaultKind:
    """The fault vocabulary of :class:`FlakyTransport`.

    ``connect``/``timeout`` raise
    :class:`~repro.store.transport.TransportConnectionError` (a
    ``ConnectionResetError``) or
    :class:`~repro.store.transport.TransportTimeout` (a
    ``TimeoutError``) before touching the backend; ``latency`` sleeps a
    tiny deterministic delay, then succeeds; ``truncate`` halves the
    payload of a ``get`` or ``put``; ``corrupt`` flips one seeded byte
    of it in flight.
    """

    CONNECT = "connect"
    TIMEOUT = "timeout"
    LATENCY = "latency"
    TRUNCATE = "truncate"
    CORRUPT = "corrupt"


#: How long a ``latency`` fault delays its operation.
LATENCY_S = 0.002


class FlakyTransport(Transport):
    """Deterministic fault injection around any :class:`Transport`.

    One :class:`~repro.testing.faults.FaultClock` counts *every*
    operation (get/put/list/delete/commit) in call order; the
    schedule's ordinals index that stream.  ``ops`` exposes the cursor
    so tests can assert exactly where faults landed, and
    ``fault_counts`` tallies what fired.
    """

    def __init__(self, inner: Transport, schedule: FaultSchedule):
        self.inner = inner
        self.schedule = schedule
        self._clock = FaultClock(schedule)
        self.fault_counts: Dict[str, int] = {}

    @property
    def ops(self) -> int:
        """Operations attempted so far (faulted ones included)."""
        return self._clock.ordinal

    def _tick(self, op: str) -> Optional[str]:
        fault = self._clock.next_fault(op)
        if fault is None:
            return None
        self.fault_counts[fault] = self.fault_counts.get(fault, 0) + 1
        if fault == TransportFaultKind.CONNECT:
            raise TransportConnectionError(
                f"injected connection fault at op {self._clock.ordinal - 1} "
                f"({op})")
        if fault == TransportFaultKind.TIMEOUT:
            raise TransportTimeout(
                f"injected timeout at op {self._clock.ordinal - 1} ({op})")
        if fault == TransportFaultKind.LATENCY:
            time.sleep(LATENCY_S)
            return None
        if fault in (TransportFaultKind.TRUNCATE, TransportFaultKind.CORRUPT):
            return fault
        raise ValueError(f"unknown transport fault kind {fault!r}")

    @staticmethod
    def _mangle(data: bytes, fault: Optional[str], seed_token: str) -> bytes:
        if fault == TransportFaultKind.TRUNCATE:
            return data[:len(data) // 2]
        if fault == TransportFaultKind.CORRUPT:
            if not data:
                return data
            # Deterministic single-byte flip: position and mask come
            # from the token, not from shared RNG state.
            rng = random.Random(seed_token)
            pos = rng.randrange(len(data))
            mangled = bytearray(data)
            mangled[pos] ^= 1 + rng.randrange(255)
            return bytes(mangled)
        return data

    def get(self, key: str, *, timeout_s: Optional[float] = None) -> bytes:
        fault = self._tick("get")
        data = self.inner.get(key, timeout_s=timeout_s)
        return self._mangle(data, fault,
                            f"{self.schedule.seed}:get:{key}")

    def put(self, key: str, data: bytes, *,
            timeout_s: Optional[float] = None) -> None:
        fault = self._tick("put")
        data = self._mangle(data, fault,
                            f"{self.schedule.seed}:put:{key}")
        self.inner.put(key, data, timeout_s=timeout_s)

    def list(self, prefix: str = "", *,
             timeout_s: Optional[float] = None) -> List[str]:
        self._tick("list")
        return self.inner.list(prefix, timeout_s=timeout_s)

    def delete(self, key: str, *,
               timeout_s: Optional[float] = None) -> None:
        self._tick("delete")
        self.inner.delete(key, timeout_s=timeout_s)

    def commit(self, src_key: str, dst_key: str, *,
               timeout_s: Optional[float] = None) -> None:
        self._tick("commit")
        self.inner.commit(src_key, dst_key, timeout_s=timeout_s)

    def spawn_config(self) -> "FlakyTransport":
        """The same schedule over a fresh inner transport, clock at 0."""
        return FlakyTransport(self.inner.spawn_config(), self.schedule)

"""Object-store-semantics artifact store over a blob transport.

:class:`RemoteStore` is the verified-object core (:mod:`repro.store.core`)
— identical SHA-256 content keys, canonical payload encodings, a
manifest entry per key, digest-verified reads with quarantine — over
:class:`TransportBackend`, which adds the robustness layers a network
demands:

* **Atomic puts.**  The payload is uploaded to a ``tmp/`` key and
  *committed* (renamed) to its final ``objects/`` key before the
  manifest entry is written; a crash or partition mid-upload leaves a
  tmp blob, never a half-visible object, and the manifest is written
  last so a key is only ever a hit once its payload is fully in place.
* **Retries.**  Every transport call runs under the store's
  :class:`~repro.store.retry.RetryPolicy` with the explicit
  :func:`~repro.store.retry.is_retryable_error` classification:
  connection resets and timeouts retry with bounded deterministic
  jitter; misses and corruption never do.
* **Circuit breaker.**  After three consecutive failed operations the
  breaker opens and every call fails fast with
  :class:`~repro.store.breaker.CircuitOpenError` (a
  ``ConnectionError``) until a cooldown elapses and a half-open probe
  succeeds.  The breaker clock counts *operations*, not wall time, so
  breaker behaviour is a pure function of the operation sequence — a
  requirement of the deterministic chaos tests.

Remote key layout (slash-separated transport keys)::

    objects/<key>.json | <key>.npz
    manifest/<key>.json
    tmp/<key>.<digest12>
    quarantine/<filename>[.n]
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

from .breaker import CircuitBreaker, CircuitOpenError
from .core import ManifestEntry, VerifiedStore, backend_attribute
from .retry import RetryPolicy, is_retryable_error
from .transport import LoopbackTransport, Transport

#: Per-operation transport time budget.
OP_TIMEOUT_S = 30.0


class TransportBackend:
    """Any :class:`~repro.store.transport.Transport` as a store backend.

    Leases and file locks are local-filesystem concepts and are no-ops
    here — the remote's atomicity comes from upload-then-commit, and
    last-writer-wins is safe because equal keys hold equal bytes.
    """

    def __init__(self, transport: Transport, retry: RetryPolicy):
        self.transport = transport
        self.retry = retry
        #: Store operations attempted — the breaker's clock, so
        #: "cooldown" means "N further operations attempted":
        #: deterministic under test and a reasonable proxy for elapsed
        #: time in a busy campaign.
        self.ops = 0
        self.breaker = CircuitBreaker(failure_threshold=3, reset_after=8.0,
                                      clock=self._clock)

    def _clock(self) -> float:
        return float(self.ops)

    @property
    def root(self) -> str:
        """A display name (transports have no local root path)."""
        return str(getattr(self.transport, "root", "remote"))

    def acquire_lease(self, owner: str = "") -> None:
        return None

    def release_lease(self) -> None:
        return None

    def _call(self, operation, *args):
        """One breaker-guarded, retry-wrapped transport call.

        A ``KeyError`` miss counts as a *successful* round-trip (the
        backend answered); only connection-class failures feed the
        breaker.
        """
        self.ops += 1
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"remote store circuit is open after "
                f"{self.breaker.consecutive_failures} consecutive "
                f"transport failures")
        try:
            result = self.retry.call(
                lambda: operation(*args, timeout_s=OP_TIMEOUT_S),
                retry_on=is_retryable_error)
        except KeyError:
            self.breaker.record_success()
            raise
        except (ConnectionError, TimeoutError):
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    # -- the byte-backend seam ----------------------------------------------------

    def write(self, entry: ManifestEntry, data: bytes) -> None:
        """Upload one artifact atomically: tmp → commit → manifest.

        A drain that died after the commit but before the manifest write
        simply re-runs: content addressing makes the replay idempotent.
        """
        tmp_key = f"tmp/{entry.key}.{entry.digest[:12]}"
        self._call(self.transport.put, tmp_key, data)
        self._call(self.transport.commit, tmp_key, f"objects/{entry.filename}")
        self._call(self.transport.put, f"manifest/{entry.key}.json",
                   entry.to_bytes())

    def read_entry(self, key: str) -> Optional[ManifestEntry]:
        """The manifest entry of ``key`` — ``None`` on a miss.

        Connection failures propagate (callers that degrade, like the
        tiered store, catch them); only a genuine remote miss or an
        unparseable manifest folds to ``None``.
        """
        try:
            raw = self._call(self.transport.get, f"manifest/{key}.json")
        except KeyError:
            return None
        try:
            return ManifestEntry.from_dict(json.loads(raw))
        except (ValueError, KeyError):
            return None

    def read_object(self, entry: ManifestEntry) -> bytes:
        try:
            return self._call(self.transport.get, f"objects/{entry.filename}")
        except KeyError:
            raise KeyError(
                f"artifact {entry.key!r} has a remote manifest entry but no "
                f"object blob; the key is a miss") from None

    def quarantine(self, entry: ManifestEntry) -> str:
        """Move a corrupt remote blob aside and drop its manifest entry."""
        destination = f"quarantine/{entry.filename}"
        taken = set(self._call(self.transport.list, "quarantine"))
        suffix = 0
        while destination in taken:
            suffix += 1
            destination = f"quarantine/{entry.filename}.{suffix}"
        try:
            self._call(self.transport.commit, f"objects/{entry.filename}",
                       destination)
        except KeyError:
            pass
        self._call(self.transport.delete, f"manifest/{entry.key}.json")
        return destination

    def keys(self) -> List[str]:
        """Keys with a remote manifest entry, sorted."""
        names = (transport_key.split("/", 1)[1] for transport_key
                 in self._call(self.transport.list, "manifest"))
        return [name[:-len(".json")] for name in names
                if name.endswith(".json")]

    def remove(self, key: str, entry: Optional[ManifestEntry]) -> bool:
        """Delete the manifest entry, then the blob(s); True on a hit."""
        self._call(self.transport.delete, f"manifest/{key}.json")
        for filename in ((entry.filename,) if entry is not None
                         else (f"{key}.json", f"{key}.npz")):
            self._call(self.transport.delete, f"objects/{filename}")
        return entry is not None


class RemoteStore(VerifiedStore):
    """The verified-object core over a blob transport.

    ``transport`` is any :class:`~repro.store.transport.Transport`; a
    path is shorthand for a directory-backed loopback transport.
    ``retry`` replaces the default transport retry policy (tests pass a
    zero-sleep one).
    """

    def __init__(self, transport: Union[Transport, str, Path], *,
                 retry: Optional[RetryPolicy] = None):
        if not isinstance(transport, Transport):
            transport = LoopbackTransport(transport)
        super().__init__(TransportBackend(
            transport, retry if retry is not None
            else RetryPolicy(token="remote-store")))

    # Bound in this body, not inherited: the benchmark tracer wraps the
    # entry points each store class defines itself.
    put_json = VerifiedStore.put_json
    put_arrays = VerifiedStore.put_arrays
    get_arrays = VerifiedStore.get_arrays
    load_json = VerifiedStore.load_json
    load_arrays = VerifiedStore.load_arrays

    transport = backend_attribute("transport")
    breaker = backend_attribute("breaker")

    def spawn_config(self) -> "RemoteStore":
        """A fresh store for a worker: fresh transport, closed breaker and
        the default retry policy."""
        return RemoteStore(self.transport.spawn_config())

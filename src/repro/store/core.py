"""The verified-object core every artifact store is built on.

:class:`VerifiedStore` owns what all stores must agree on: the canonical
payload codecs (identical payloads give identical bytes, hence identical
digests, which makes replication and journal drains idempotent), key
safety, manifest entries, SHA-256 verification of every read,
quarantine-then-clean-miss on corruption, and decoding with the codec
an artifact was stored with.  It runs over a byte backend:
:class:`~repro.store.artifact_store.ArtifactStore` is the core over a
local directory, :class:`~repro.store.remote.RemoteStore` the core over
any :class:`~repro.store.transport.Transport`.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Protocol

import numpy as np

#: On-disk layout version, stored in every manifest entry.  Version 2
#: added the payload ``digest``; version-1 entries (no digest) still
#: load, they just skip digest verification.
STORE_FORMAT_VERSION = 2

_KEY_FORBIDDEN = set("/\\")

#: What a torn JSON document or npz archive raises when decoded.
DECODE_ERRORS = (ValueError, zipfile.BadZipFile, OSError, EOFError)


class StoreIntegrityError(RuntimeError):
    """A stored object failed verification (torn, truncated or corrupt).

    Raised by the ``get_*`` readers *after* the corrupt object has been
    quarantined and its manifest entry dropped — the key is a clean miss
    by the time the caller sees this, so retrying the read-through path
    recomputes instead of crashing again.
    """


class StoreCodecError(TypeError):
    """An artifact was read with the other codec (JSON versus arrays).

    A caller error, not corruption: nothing is quarantined and the key
    stays a hit for the matching reader.
    """


def _check_key(key: str) -> str:
    if not key or not isinstance(key, str):
        raise ValueError("artifact key must be a non-empty string")
    if set(key) & _KEY_FORBIDDEN or key.startswith("."):
        raise ValueError(f"artifact key {key!r} is not a safe filename")
    return key


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode_json_bytes(payload: Any) -> bytes:
    """The canonical JSON payload encoding of the store."""
    from ..io.results import to_jsonable

    return json.dumps(to_jsonable(payload), indent=2,
                      sort_keys=True).encode()


def encode_array_bytes(arrays: Mapping[str, "np.ndarray"]) -> bytes:
    """The canonical compressed-npz payload encoding of the store."""
    if not arrays:
        raise ValueError("cannot store an empty array payload")
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **{str(name): np.asarray(value)
                                   for name, value in arrays.items()})
    return buffer.getvalue()


def decode_json_bytes(data: bytes) -> Any:
    """Parse a JSON object payload (raises ``ValueError`` when torn)."""
    return json.loads(data)


def decode_array_bytes(data: bytes) -> Dict[str, "np.ndarray"]:
    """Parse an npz object payload (raises on a torn/corrupt archive)."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


#: Codec name -> (object suffix, decoder).
CODECS = {"json": (".json", decode_json_bytes),
          "arrays": (".npz", decode_array_bytes)}


@dataclass(frozen=True)
class ManifestEntry:
    """Index record of one stored artifact."""

    key: str
    kind: str
    filename: str
    meta: Dict[str, Any] = field(default_factory=dict)
    #: SHA-256 of the object payload bytes; ``None`` on legacy
    #: (format-version-1) entries, which skip digest verification.
    digest: Optional[str] = None

    @property
    def codec(self) -> str:
        """The payload codec, fixed by the object's suffix."""
        return "arrays" if self.filename.endswith(".npz") else "json"

    def to_dict(self) -> Dict[str, Any]:
        return {"format_version": STORE_FORMAT_VERSION, "key": self.key,
                "kind": self.kind, "filename": self.filename,
                "meta": dict(self.meta), "digest": self.digest}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ManifestEntry":
        return cls(key=payload["key"], kind=payload["kind"],
                   filename=payload["filename"],
                   meta=dict(payload.get("meta", {})),
                   digest=payload.get("digest"))

    def to_bytes(self) -> bytes:
        """The manifest file bytes of this entry (every backend alike)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True).encode()


class Store(Protocol):
    """The surface every store declares: local, remote and tiered alike.

    Leases belong to it — a no-op where there is no shared directory —
    so callers never probe a store for capabilities.  ``spawn_config``
    returns a fresh store of the same configuration for a worker
    process: no inherited lease, a closed breaker, fault clocks at 0.
    Stores subclass it explicitly and inherit the membership and size
    defaults, which follow from ``entry`` and ``keys``.
    """

    @property
    def root(self) -> Any: ...
    def entry(self, key: str) -> Optional[ManifestEntry]: ...
    def keys(self) -> Iterator[str]: ...
    def discard(self, key: str) -> bool: ...

    def __contains__(self, key: str) -> bool:
        return self.entry(key) is not None

    def has(self, key: str) -> bool:
        return key in self

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def put_json(self, key: str, payload: Any, *, kind: str = ...,
                 meta: Optional[Mapping[str, Any]] = ...
                 ) -> ManifestEntry: ...
    def put_arrays(self, key: str, arrays: Mapping[str, np.ndarray], *,
                   kind: str = ..., meta: Optional[Mapping[str, Any]] = ...
                   ) -> ManifestEntry: ...
    def get_json(self, key: str) -> Any: ...
    def get_arrays(self, key: str) -> Dict[str, np.ndarray]: ...
    def load_json(self, key: str) -> Optional[Any]: ...
    def load_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]: ...
    def acquire_lease(self, owner: str = "") -> Any: ...
    def release_lease(self) -> None: ...
    def spawn_config(self) -> "Store": ...


def backend_attribute(name: str) -> property:
    """A read-only store property that reads ``name`` off its backend."""
    return property(lambda store: getattr(store.backend, name))


class VerifiedStore(Store):
    """Content-addressed JSON/npz artifacts over a byte backend.

    The backend seam: ``write(entry, data)`` (object, then manifest
    entry), ``read_entry(key)`` (``None`` unless a hit),
    ``read_object(entry)``, ``quarantine(entry)``, ``keys()``,
    ``remove(key, entry)`` and the writer-lease pair.  A subclass
    forwards the few backend extras its callers use (a directory's
    ``fsck``, a transport's ``breaker``) by name; the rest stay on
    ``store.backend``.
    """

    root = backend_attribute("root")

    def __init__(self, backend: Any):
        self.backend = backend

    def acquire_lease(self, owner: str = "") -> Any:
        """Register (or refresh) this process's writer lease — a no-op
        on backends without a shared directory.  Campaign engines call
        this at run start so their whole run counts as live to
        concurrent maintenance."""
        return self.backend.acquire_lease(owner)

    def release_lease(self) -> None:
        """Drop this process's writer lease (idempotent)."""
        self.backend.release_lease()

    # -- write --------------------------------------------------------------------

    def put_json(self, key: str, payload: Any, *, kind: str = "json",
                 meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        """Store a JSON-serialisable payload under ``key``."""
        _check_key(key)
        return self._put(key, "json", encode_json_bytes(payload), kind, meta)

    def put_arrays(self, key: str, arrays: Mapping[str, np.ndarray], *,
                   kind: str = "arrays",
                   meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        """Store a named-array payload under ``key`` as compressed npz."""
        _check_key(key)
        return self._put(key, "arrays", encode_array_bytes(arrays), kind,
                         meta)

    def _put(self, key: str, codec: str, data: bytes, kind: str,
             meta: Optional[Mapping[str, Any]]) -> ManifestEntry:
        entry = ManifestEntry(key=key, kind=kind,
                              filename=key + CODECS[codec][0],
                              meta=dict(meta or {}), digest=_sha256(data))
        self.backend.write(entry, data)
        return entry

    def put_object(self, entry: ManifestEntry, data: bytes) -> ManifestEntry:
        """Install an artifact byte-for-byte from another store (the
        tiered store's backfill and journal drain).  The bytes are checked
        against the entry's digest *before* the backend sees them, so a
        corrupt payload can never be installed as a hit."""
        _check_key(entry.key)
        digest = _sha256(data)
        if entry.digest is None:
            entry = replace(entry, digest=digest)
        elif digest != entry.digest:
            raise StoreIntegrityError(
                f"refusing to store artifact {entry.key!r}: payload bytes "
                f"do not match the manifest digest")
        self.backend.write(entry, data)
        return entry

    # -- read ---------------------------------------------------------------------

    def entry(self, key: str) -> Optional[ManifestEntry]:
        """The manifest entry of ``key`` — ``None`` unless it is a hit."""
        return self.backend.read_entry(_check_key(key))

    def _verified(self, key: str):
        """``(entry, payload bytes)`` of ``key``, digest-checked.

        Raises ``KeyError`` on a miss and :class:`StoreIntegrityError`
        (after quarantining) when the payload does not match its
        recorded digest.
        """
        entry = self.entry(key)
        if entry is None:
            raise KeyError(f"artifact {key!r} is not in the store")
        data = self.backend.read_object(entry)
        if entry.digest is not None and _sha256(data) != entry.digest:
            destination = self.backend.quarantine(entry)
            raise StoreIntegrityError(
                f"artifact {key!r} object {entry.filename} does not match "
                f"its recorded SHA-256 digest (torn or truncated write); "
                f"the corrupt object was quarantined to {destination} and "
                f"the key is now a miss")
        return entry, data

    def object_bytes(self, key: str) -> bytes:
        """The verified raw payload bytes of ``key`` (for replication)."""
        return self._verified(key)[1]

    def _decoded(self, key: str, codec: str) -> Any:
        entry, data = self._verified(key)
        if entry.codec != codec:
            raise StoreCodecError(
                f"artifact {key!r} (stored kind {entry.kind!r}, object "
                f"{entry.filename}) holds {entry.codec}, not {codec}: read "
                f"it with get_{entry.codec}/load_{entry.codec}")
        try:
            return CODECS[codec][1](data)
        except DECODE_ERRORS as error:
            # Re-read the entry: only a still-recorded object moves aside.
            current = self.entry(key)
            destination = (self.backend.quarantine(current)
                           if current is not None else "<gone>")
            raise StoreIntegrityError(
                f"artifact {key!r} object {entry.filename} holds an "
                f"unreadable {codec} payload ({error}); the corrupt object "
                f"was quarantined to {destination} and the key is now a "
                f"miss") from error

    def get_json(self, key: str) -> Any:
        """Load the JSON payload stored under ``key``.

        A corrupt payload is quarantined and raised as
        :class:`StoreIntegrityError` — never returned, never a raw
        ``JSONDecodeError``.
        """
        return self._decoded(key, "json")

    def get_arrays(self, key: str) -> Dict[str, np.ndarray]:
        """Load the named-array payload stored under ``key``.

        A corrupt payload is quarantined and raised as
        :class:`StoreIntegrityError` — never returned, never a raw
        ``BadZipFile``.
        """
        return self._decoded(key, "arrays")

    def load_json(self, key: str) -> Optional[Any]:
        """Read-through helper: the payload, or ``None`` on a miss *or*
        corruption (the corrupt object is quarantined either way).

        A wrong-codec read still raises, and so do connection failures:
        "the remote is down" must not masquerade as "the key is a miss".
        """
        try:
            return self.get_json(key)
        except (KeyError, StoreIntegrityError):
            return None

    def load_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Read-through helper: the arrays, or ``None`` on a miss *or*
        corruption (the corrupt object is quarantined either way)."""
        try:
            return self.get_arrays(key)
        except (KeyError, StoreIntegrityError):
            return None

    # -- index --------------------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """The recorded keys, sorted."""
        return iter(self.backend.keys())

    def index(self) -> Dict[str, ManifestEntry]:
        """The manifest: every recorded artifact's entry."""
        return {key: entry for key in list(self.keys())
                if (entry := self.entry(key)) is not None}

    def discard(self, key: str) -> bool:
        """Remove ``key`` (manifest entry first, then the object)."""
        return self.backend.remove(key, self.entry(key))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}({str(self.root)!r})"

"""Local + remote artifact stores composed as a write-through cache.

:class:`TieredStore` is what a campaign engine actually mounts when a
fleet shares one warm cache: every read and write goes to the fast
local :class:`~repro.store.artifact_store.ArtifactStore` first, and the
:class:`~repro.store.remote.RemoteStore` rides behind it —

* **writes** land locally (atomic, leased, digest-recorded), then
  replicate to the remote.  If the remote is unreachable — a raised
  ``ConnectionError``/``TimeoutError``, which includes an open circuit
  breaker — the key is appended to a crash-safe **pending-upload
  journal** and the write still succeeds: campaigns degrade to
  local-only operation instead of dying mid-grid;
* **reads** hit the local store first; on a local miss the remote is
  consulted and a hit is **backfilled** into the local tier (verified
  byte-for-byte via the manifest digest) so the next read is local.  A
  partitioned remote turns remote consultation into a clean miss — the
  engine recomputes, which is always correct under content addressing;
* **sync** (the ``repro-ht store sync`` CLI) drains the journal once
  the remote heals.  Content keys make the drain idempotent: a key
  whose remote digest already matches is skipped, a half-drained
  journal re-runs harmlessly, and two hosts draining overlapping
  journals converge on identical remote state.

The journal is a JSON-lines file of manifest entries under the *local*
store root (``pending_uploads.jsonl``), append-only on the hot path
(single ``O_APPEND`` writes are atomic for these line sizes, taken under
the shared side of the journal lock) and compacted under its exclusive
side at the end of :meth:`TieredStore.sync`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Union)

import numpy as np

from .artifact_store import ArtifactStore
from .core import ManifestEntry, Store, StoreIntegrityError
from .locks import FileLock
from .remote import RemoteStore

#: Exceptions that mean "the remote is unavailable right now" — the
#: degraded-mode trigger.  ``CircuitOpenError`` subclasses
#: ``ConnectionError``, so a tripped breaker degrades identically.
REMOTE_UNAVAILABLE = (ConnectionError, TimeoutError)

JOURNAL_FILENAME = "pending_uploads.jsonl"


class PendingUploadJournal:
    """Crash-safe record of writes that could not reach the remote.

    One :meth:`ManifestEntry.to_dict` JSON line per journaled key,
    append-only while degraded; :meth:`settle` compacts it inside
    :meth:`TieredStore.sync`.  Losing the journal is safe — content
    addressing means a full local→remote reconciliation can always
    rebuild it — but keeping it makes ``store sync`` O(pending) instead
    of O(store).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def _lock(self) -> FileLock:
        return FileLock(self.path.with_suffix(".lock"))

    def append(self, entry: ManifestEntry) -> None:
        line = json.dumps(entry.to_dict(), sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A single O_APPEND write of a short line is atomic on POSIX —
        # concurrent degraded writers interleave whole lines; the shared
        # lock only keeps them out of a compaction.
        with self._lock().holding(shared=True, timeout_s=10.0):
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                         0o644)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)

    def pending(self) -> List[ManifestEntry]:
        """Journaled entries, deduplicated by key (last line wins)."""
        if not self.path.exists():
            return []
        by_key: Dict[str, ManifestEntry] = {}
        for line in self.path.read_text().splitlines():
            try:
                entry = ManifestEntry.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                # A torn trailing line (crash mid-append) is dropped;
                # the artifact itself is safe in the local store and a
                # reconcile pass can re-journal it.
                continue
            by_key[entry.key] = entry
        return list(by_key.values())

    def settle(self, drained: Iterable[ManifestEntry]) -> None:
        """Drop the entries a drain settled, matched by key and digest.

        The journal is re-read under its exclusive lock, so a line a
        degraded writer appended while the drain was uploading survives
        for the next sync.
        """
        settled = {(entry.key, entry.digest) for entry in drained}
        with self._lock().holding(shared=False, timeout_s=10.0):
            self.rewrite([entry for entry in self.pending()
                          if (entry.key, entry.digest) not in settled])

    def rewrite(self, entries: List[ManifestEntry]) -> None:
        """Replace the journal contents (callers hold the journal lock)."""
        if not entries:
            self.path.unlink(missing_ok=True)
            return
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text("".join(json.dumps(entry.to_dict(), sort_keys=True)
                               + "\n" for entry in entries))
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self.pending())


class TieredStore(Store):
    """Write-through local + remote store with graceful degradation.

    Implements the full :class:`~repro.store.core.Store` surface, so
    ``CampaignEngine(store=...)`` and the supervisor accept it
    unchanged.  ``degraded_writes``/``remote_hits``/``backfills`` count
    what the tiers actually did, for tests and operators.
    """

    def __init__(self, local: Union[ArtifactStore, str, Path],
                 remote: Union[RemoteStore, str, Path]):
        self.local = (local if isinstance(local, ArtifactStore)
                      else ArtifactStore(local))
        self.remote = (remote if isinstance(remote, RemoteStore)
                       else RemoteStore(remote))
        self.journal = PendingUploadJournal(
            self.local.root / JOURNAL_FILENAME)
        self.degraded_writes = 0
        self.remote_hits = 0
        self.backfills = 0

    # -- engine-facing surface ----------------------------------------------------

    @property
    def root(self) -> Path:
        """The local tier's root (campaign CSV/JSON outputs live here)."""
        return self.local.root

    def acquire_lease(self, owner: str = ""):
        return self.local.acquire_lease(owner)

    def release_lease(self) -> None:
        self.local.release_lease()

    def spawn_config(self) -> "TieredStore":
        """Fresh tiers of the same configuration, for a worker process."""
        return TieredStore(self.local.spawn_config(),
                           self.remote.spawn_config())

    # -- write --------------------------------------------------------------------

    def _replicate(self, entry: ManifestEntry) -> None:
        """Push a just-written local artifact to the remote tier."""
        try:
            data = self.local.object_bytes(entry.key)
            self.remote.put_object(entry, data)
        except REMOTE_UNAVAILABLE:
            self.journal.append(entry)
            self.degraded_writes += 1

    def put_json(self, key: str, payload: Any, *, kind: str = "json",
                 meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        entry = self.local.put_json(key, payload, kind=kind, meta=meta)
        self._replicate(entry)
        return entry

    def put_arrays(self, key: str, arrays: Mapping[str, np.ndarray], *,
                   kind: str = "arrays",
                   meta: Optional[Mapping[str, Any]] = None) -> ManifestEntry:
        entry = self.local.put_arrays(key, arrays, kind=kind, meta=meta)
        self._replicate(entry)
        return entry

    # -- read ---------------------------------------------------------------------

    def _backfill(self, key: str) -> Optional[ManifestEntry]:
        """Copy a remote hit into the local tier; ``None`` on any miss.

        An unreachable remote (connection/timeout/open breaker) is a
        clean miss — recomputing is always correct, waiting is not — and
        so is a corrupt remote object, which the remote quarantined.
        """
        try:
            entry = self.remote.entry(key)
            if entry is None:
                return None
            data = self.remote.object_bytes(key)
        except (*REMOTE_UNAVAILABLE, KeyError, StoreIntegrityError):
            return None
        self.remote_hits += 1
        installed = self.local.put_object(entry, data)
        self.backfills += 1
        return installed

    def entry(self, key: str) -> Optional[ManifestEntry]:
        entry = self.local.entry(key)
        if entry is not None:
            return entry
        return self._backfill(key)

    def _load(self, key: str, load) -> Any:
        value = load(key)
        if value is None and self._backfill(key) is not None:
            value = load(key)
        return value

    def load_json(self, key: str) -> Optional[Any]:
        return self._load(key, self.local.load_json)

    def load_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        return self._load(key, self.local.load_arrays)

    def get_json(self, key: str) -> Any:
        self.entry(key)  # a local miss backfills a remote hit
        return self.local.get_json(key)

    def get_arrays(self, key: str) -> Dict[str, np.ndarray]:
        self.entry(key)
        return self.local.get_arrays(key)

    # -- index --------------------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """Union of local and (reachable) remote keys, sorted."""
        seen = set(self.local.keys())
        try:
            seen.update(self.remote.keys())
        except REMOTE_UNAVAILABLE:
            pass
        return iter(sorted(seen))

    def discard(self, key: str) -> bool:
        """Remove ``key`` from both tiers (the remote when reachable)."""
        removed = self.local.discard(key)
        try:
            removed = self.remote.discard(key) or removed
        except REMOTE_UNAVAILABLE:
            pass
        return removed

    # -- degraded-mode drain ------------------------------------------------------

    def pending_uploads(self) -> List[ManifestEntry]:
        return self.journal.pending()

    def sync(self) -> Dict[str, Any]:
        """Drain the pending-upload journal to the remote, idempotently.

        The breaker is reset first.  Per journaled key: skip when the
        remote already holds the same digest (another host drained it,
        or the pre-partition upload actually landed), upload otherwise,
        keep in the journal on continued unreachability.  Returns
        per-category counts; rc-style success is ``remaining == 0``.
        """
        self.remote.breaker.reset()
        uploaded, skipped, missing, remaining = [], [], [], []
        settled: List[ManifestEntry] = []
        for entry in self.journal.pending():
            try:
                remote_entry = self.remote.entry(entry.key)
                if (remote_entry is not None
                        and remote_entry.digest == entry.digest
                        and entry.digest is not None):
                    skipped.append(entry.key)
                else:
                    try:
                        data = self.local.object_bytes(entry.key)
                    except KeyError:
                        # Journaled but gone locally (gc'd/discarded):
                        # nothing to upload, nothing lost — drop it.
                        missing.append(entry.key)
                    else:
                        self.remote.put_object(entry, data)
                        uploaded.append(entry.key)
            except REMOTE_UNAVAILABLE:
                remaining.append(entry.key)
            else:
                settled.append(entry)
        self.journal.settle(settled)
        return {"uploaded": uploaded, "skipped": skipped,
                "missing_local": missing, "remaining": remaining}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"TieredStore(local={str(self.local.root)!r}, "
                f"remote={self.remote.root!r}, "
                f"pending={len(self.journal)})")

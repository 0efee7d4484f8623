"""Content-addressed on-disk artifact store.

:class:`ArtifactStore` is the verified-object core
(:mod:`repro.store.core`) over a local directory,
:class:`DirectoryBackend`.  Layout of a store directory::

    <root>/
        objects/     <key>.json | <key>.npz    the payloads
        manifest/    <key>.json                one index entry per key
        quarantine/  <filename>                corrupt objects, moved aside
        locks/ leases/                         the concurrency protocol

Writes are *atomic*: the payload is written to a hidden ``*.tmp`` file
in the same directory and moved into place with :func:`os.replace`, and
the manifest entry is only written after the object exists.  A key is a
*hit* only when both the manifest entry and the object file are present,
so a crash mid-write (a stray temp file, or an object without its
manifest entry) can never surface as a corrupt hit — the next producer
simply recomputes and overwrites.

Reads are *verified* by the core: a torn or truncated object is moved to
``quarantine/``, its manifest entry dropped, and the read raises
:class:`~repro.store.core.StoreIntegrityError`.
:meth:`DirectoryBackend.fsck` audits the whole store (digests,
parseability, dangling entries, orphan objects, stray temp files) and
:meth:`DirectoryBackend.gc` sweeps the garbage.

Because keys are content addresses of the *producing* configuration
(:mod:`repro.store.keys`) and every producer in this repository is
seed-deterministic, concurrent writers of the same key write identical
bytes; the last ``os.replace`` wins and nothing is torn.

**Concurrency protocol** (``locking=True``, the default): any number of
writer processes and one maintenance process can share a store
directory.  Writers register a heartbeated :mod:`lease
<repro.store.leases>` and take the *shared* side of the store lock
(:mod:`repro.store.locks`) around each file mutation, plus a per-key
write lock across the object-then-manifest pair; reads stay lock-free
on the hit path (the digest check guarantees integrity, not a lock).
:meth:`DirectoryBackend.gc` and :meth:`DirectoryBackend.fsck(repair=True)
<DirectoryBackend.fsck>` take the *exclusive* side with a bounded wait,
break stale leases (dead pid or expired heartbeat), treat orphan
objects and temp files covered by a live foreign lease as off-limits
(a live writer mid-``put`` looks exactly like an orphan), and
re-verify each candidate against the manifest immediately before any
destructive action — so maintenance is safe to loop against a live
campaign fleet.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .core import (DECODE_ERRORS, ManifestEntry, VerifiedStore, _sha256,
                   backend_attribute)
from .leases import (
    LeaseInfo,
    WriterLease,
    break_stale_leases,
    list_leases,
    live_foreign_leases,
)
from .locks import DEFAULT_LOCK_TIMEOUT_S, FileLock
from .retry import RetryPolicy

PathLike = Union[str, Path]


def _list_dir(directory: Path) -> List[Path]:
    """Sorted children of ``directory``; empty when the directory is
    missing (a fresh or partially-copied store must audit as empty, not
    crash maintenance)."""
    try:
        return sorted(directory.iterdir())
    except FileNotFoundError:
        return []


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + replace."""
    handle, temp_name = tempfile.mkstemp(prefix=f".{path.name}.",
                                         suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(handle, "wb") as temp_file:
            temp_file.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _parses(filename: str, data: bytes) -> bool:
    """True when ``data`` parses as the payload its object name promises
    (an npz archive is opened, not decompressed)."""
    try:
        if filename.endswith(".json"):
            json.loads(data)
        else:
            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                list(archive.files)
    except DECODE_ERRORS:
        return False
    return True


@dataclass
class FsckReport:
    """Outcome of one :meth:`DirectoryBackend.fsck` audit."""
    ok: List[str] = field(default_factory=list)
    #: Keys whose object failed digest verification or parsing.
    corrupt: List[str] = field(default_factory=list)
    #: Keys whose manifest entry points at a missing object.
    missing_objects: List[str] = field(default_factory=list)
    #: Manifest files that are not parseable manifest entries.
    unreadable_manifests: List[str] = field(default_factory=list)
    #: Keys whose corrupt manifest was rebuilt from the intact object
    #: (``repair=True`` only) — the work was kept, not discarded.
    rebuilt_manifests: List[str] = field(default_factory=list)
    #: Object files no manifest entry references.
    orphan_objects: List[str] = field(default_factory=list)
    #: Orphan objects covered by a live writer lease — a concurrent
    #: ``put`` between its object and manifest writes, left untouched.
    leased_orphans: List[str] = field(default_factory=list)
    #: Leftover ``*.tmp`` files from interrupted writes.
    stray_tmp: List[str] = field(default_factory=list)
    #: Stale writer leases (dead pid / expired heartbeat) broken by a
    #: ``repair=True`` pass.
    broken_leases: List[str] = field(default_factory=list)
    #: True when the audit also repaired what it found.
    repaired: bool = False

    def clean(self) -> bool:
        """True when the audit found nothing wrong.

        Leased orphans do not count: an orphan covered by a live lease
        is a concurrent writer mid-``put``, i.e. normal operation.
        """
        return not (self.corrupt or self.missing_objects
                    or self.unreadable_manifests or self.rebuilt_manifests
                    or self.orphan_objects or self.stray_tmp)

    def summary(self) -> str:
        lines = [f"{len(self.ok)} artifact(s) verified"]
        for label, items in (
                ("corrupt (quarantined)" if self.repaired else "corrupt",
                 self.corrupt),
                ("dangling manifest entries", self.missing_objects),
                ("unreadable manifest files", self.unreadable_manifests),
                ("manifest(s) rebuilt from intact objects",
                 self.rebuilt_manifests),
                ("orphan objects (removed)" if self.repaired
                 else "orphan objects", self.orphan_objects),
                ("orphan(s) covered by a live writer lease (kept)",
                 self.leased_orphans),
                ("stray temp files", self.stray_tmp),
                ("stale lease(s) broken", self.broken_leases)):
            if items:
                shown = ", ".join(items[:5])
                suffix = f" … and {len(items) - 5} more" if len(items) > 5 \
                    else ""
                lines.append(f"{len(items)} {label}: {shown}{suffix}")
        if self.clean():
            lines.append("store is clean")
        return "\n".join(lines)



class DirectoryBackend:
    """A store directory as the byte backend of :class:`ArtifactStore`.

    ``locking=False`` restores the single-process directory (no locks,
    no leases) — kept for the concurrency-overhead benchmark baseline and
    for callers that own the directory exclusively.
    """

    def __init__(self, root: PathLike, *, locking: bool = True):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.manifest_dir = self.root / "manifest"
        self.quarantine_dir = self.root / "quarantine"
        self.locks_dir = self.root / "locks"
        self.leases_dir = self.root / "leases"
        self.locking = bool(locking)
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        self._lease: Optional[WriterLease] = None

    @property
    def retry(self) -> RetryPolicy:
        """EAGAIN-class retries around locks and reads; the pid in the
        token spreads concurrent processes' backoffs apart."""
        return RetryPolicy(token=f"store:{os.getpid()}")

    # -- locks & leases -----------------------------------------------------------

    @contextmanager
    def _store_lock(self, shared: bool = True,
                    wait_s: Optional[float] = None):
        """The store lock: its shared side around each file mutation, the
        exclusive side (bounded ``wait_s``) for gc and fsck --repair."""
        if not self.locking:
            yield
            return
        lock = FileLock(self.locks_dir / "store.lock")
        timeout = DEFAULT_LOCK_TIMEOUT_S if wait_s is None else float(wait_s)
        self.retry.call(lambda: lock.acquire(shared=shared,
                                             timeout_s=timeout))
        try:
            yield
        finally:
            lock.release()

    def _write_guard(self, key: str):
        """Per-key writer mutual exclusion (plus lease upkeep)."""
        if not self.locking:
            return nullcontext()
        if self._lease is None or self._lease._released:
            self.acquire_lease()
        else:
            self._lease.heartbeat()
        lock = FileLock(self.locks_dir / f"key.{key}.lock")
        return lock.holding(shared=False, timeout_s=DEFAULT_LOCK_TIMEOUT_S)

    def acquire_lease(self, owner: str = "") -> Optional[WriterLease]:
        """Register (or refresh) this process's writer lease."""
        if not self.locking:
            return None
        if self._lease is None:
            self._lease = WriterLease(self.leases_dir, owner=owner)
        self._lease.acquire()
        return self._lease

    def release_lease(self) -> None:
        """Drop this process's writer lease (idempotent)."""
        if self._lease is not None:
            self._lease.release()

    def leases(self) -> List[LeaseInfo]:
        """Every parseable lease currently registered on this store."""
        return list_leases(self.leases_dir)

    # -- the byte-backend seam ----------------------------------------------------

    def write(self, entry: ManifestEntry, data: bytes) -> None:
        """The object, then its manifest entry, under the per-key lock."""
        with self._write_guard(entry.key):
            with self._store_lock():
                _atomic_write_bytes(self.objects_dir / entry.filename, data)
            self._record(entry)

    def _record(self, entry: ManifestEntry) -> None:
        with self._store_lock():
            _atomic_write_bytes(self.manifest_dir / f"{entry.key}.json",
                                entry.to_bytes())

    def read_entry(self, key: str) -> Optional[ManifestEntry]:
        """The manifest entry of ``key`` — ``None`` unless key is a full hit."""
        manifest_path = self.manifest_dir / f"{key}.json"
        if not manifest_path.exists():
            return None
        try:
            # Retry transient-IO blips; a manifest removed between the
            # existence check and the read (concurrent discard) is a
            # plain miss.
            text = self.retry.call(manifest_path.read_text)
            entry = ManifestEntry.from_dict(json.loads(text))
        except (FileNotFoundError, json.JSONDecodeError, KeyError):
            return None
        if not (self.objects_dir / entry.filename).exists():
            return None
        return entry

    def read_object(self, entry: ManifestEntry) -> bytes:
        try:
            # Transient EAGAIN-class blips retry with backoff; a
            # vanished object (concurrent discard/gc between the
            # manifest read and this read) is a clean *miss*, not a
            # raw FileNotFoundError escaping into the engine.
            return self.retry.call((self.objects_dir / entry.filename)
                                   .read_bytes)
        except FileNotFoundError:
            raise KeyError(
                f"artifact {entry.key!r} object disappeared between the "
                f"manifest read and the payload read (concurrent "
                f"discard or gc); the key is a miss"
            ) from None

    def quarantine(self, entry: ManifestEntry) -> Path:
        """Move a corrupt object aside and drop its manifest entry.

        After this the key is a clean *miss*: the corrupt payload can
        never be returned again and the next producer recomputes.  The
        destination name gets a monotonic suffix when it is already
        taken, so a key corrupted more than once keeps every forensic
        payload instead of silently clobbering the previous one.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        destination = self.quarantine_dir / entry.filename
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = self.quarantine_dir / f"{entry.filename}.{suffix}"
        try:
            os.replace(self.objects_dir / entry.filename, destination)
        except OSError:
            pass
        try:
            (self.manifest_dir / f"{entry.key}.json").unlink()
        except OSError:
            pass
        return destination

    def keys(self) -> List[str]:
        """The keys with a valid manifest entry *and* object."""
        return [path.stem for path in sorted(self.manifest_dir.glob("*.json"))
                if self.read_entry(path.stem) is not None]

    def remove(self, key: str, entry: Optional[ManifestEntry]) -> bool:
        """Remove ``key``'s manifest entry, then its objects.

        Objects go by key over ``objects/``, not only through the entry:
        an unreadable entry (e.g. a torn manifest write) must not leak
        the object file forever.
        """
        removed = False
        paths = [self.manifest_dir / f"{key}.json",
                 self.objects_dir / f"{key}.json",
                 self.objects_dir / f"{key}.npz"]
        if entry is not None:
            paths.append(self.objects_dir / entry.filename)
        for path in paths:
            if path.exists():
                path.unlink()
                removed = True
        return removed

    # -- integrity ----------------------------------------------------------------

    def _stray_tmp_files(self, older_than_s: float = 0.0) -> List[Path]:
        """Leftover temp files of interrupted writes, oldest first."""
        now = time.time()
        strays = []
        for directory in (self.objects_dir, self.manifest_dir):
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob(".*.tmp")):
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age >= older_than_s:
                    strays.append(path)
        return strays

    def sweep_tmp(self, older_than_s: float = 0.0,
                  force: bool = False) -> List[Path]:
        """Delete stray ``*.tmp`` files older than ``older_than_s``.

        With lease accounting active, temp files are off-limits while
        any live *foreign* lease exists (a live writer's temp file is
        its in-flight write) unless ``force=True`` — liveness is
        explicit, so no mtime guess is needed.  On a ``locking=False``
        store a positive age guard is the only protection against
        racing a live writer.
        """
        if (self.locking and not force
                and live_foreign_leases(self.leases_dir)):
            return []
        removed = []
        for path in self._stray_tmp_files(older_than_s):
            try:
                path.unlink()
                removed.append(path)
            except OSError:
                pass
        return removed

    def _verify_entry(self, entry: ManifestEntry) -> bool:
        """True when the entry's payload passes digest + parse checks."""
        try:
            data = (self.objects_dir / entry.filename).read_bytes()
        except OSError:
            return False
        if entry.digest is not None and _sha256(data) != entry.digest:
            return False
        return _parses(entry.filename, data)

    def _rebuild_manifest(self, key: str) -> Optional[ManifestEntry]:
        """Rebuild a corrupt/unreadable manifest from the intact object.

        The payload must parse cleanly; the digest is recomputed from
        the bytes.  The original ``kind``/``meta`` are lost, so the
        rebuilt entry carries a generic kind plus a ``rebuilt`` marker.
        Returns ``None`` when no parseable object exists for the key.
        """
        for suffix, kind in ((".json", "json"), (".npz", "arrays")):
            object_path = self.objects_dir / f"{key}{suffix}"
            try:
                data = object_path.read_bytes()
            except OSError:
                continue
            if not _parses(object_path.name, data):
                continue
            # Written directly, NOT via _record: the caller (fsck
            # --repair) already holds the exclusive store lock, and a
            # same-process shared acquisition on a second fd would
            # self-conflict under flock semantics.
            entry = ManifestEntry(key=key, kind=kind,
                                  filename=object_path.name,
                                  meta={"rebuilt": True},
                                  digest=_sha256(data))
            _atomic_write_bytes(self.manifest_dir / f"{key}.json",
                                entry.to_bytes())
            return entry
        return None

    def _lease_scan(self, break_stale: bool, force: bool):
        """``(broken stale lease names, live foreign leases)``; without
        lease accounting (or with ``force``) nothing counts as live."""
        broken = ([lease.path.name
                   for lease in break_stale_leases(self.leases_dir)]
                  if break_stale and self.locking else [])
        live = (live_foreign_leases(self.leases_dir)
                if self.locking and not force else [])
        return broken, live

    def _orphans(self, referenced: set) -> List[Path]:
        """Object files (temp files aside) no name in ``referenced``."""
        return [path for path in _list_dir(self.objects_dir)
                if path.name not in referenced
                and not (path.name.startswith(".")
                         and path.name.endswith(".tmp"))]

    def _remove_orphan(self, path: Path) -> bool:
        """Delete one orphan object; True when it was removed.

        Re-verified against the manifest immediately before the
        destructive action: a writer may have recorded the entry since
        the index snapshot (possible only without the exclusive lock's
        protection, i.e. in ``force`` mode).
        """
        if (self.manifest_dir / f"{path.stem}.json").exists():
            return False
        try:
            path.unlink()
        except OSError:  # pragma: no cover - lost a delete race
            return False
        return True

    def _protected_filenames(self) -> set:
        """Object filenames no maintenance pass may treat as orphans."""
        entries = (self.read_entry(key) for key in self.keys())
        return {entry.filename for entry in entries if entry is not None}

    def fsck(self, repair: bool = False,
             wait_s: Optional[float] = None,
             force: bool = False) -> FsckReport:
        """Audit every artifact: digests, parseability, dangling state.

        ``repair=False`` is a lock-free read-only audit.  With
        ``repair=True`` the audit runs under the **exclusive** store
        lock (bounded ``wait_s``; raises :class:`LockTimeout` when
        writers keep it busy), breaks stale writer leases first, and
        then: quarantines corrupt objects, drops dangling manifest
        entries, **rebuilds** a corrupt manifest from its intact object
        (digest recomputed) instead of discarding the work, removes
        orphan objects not covered by a live lease, and sweeps stray
        temp files.  Orphans and temp files covered by a live foreign
        lease are off-limits — they are a concurrent writer between its
        object and manifest writes — unless ``force=True``.  A second
        ``repair`` pass over an idle store reports clean.
        """
        with self._store_lock(False, wait_s) if repair else nullcontext():
            return self._audit(repair, force)

    def _audit(self, repair: bool, force: bool) -> FsckReport:
        report = FsckReport(repaired=repair)
        report.broken_leases, live = self._lease_scan(repair, force)
        referenced: set = set()
        for manifest_path in sorted(self.manifest_dir.glob("*.json")):
            key = manifest_path.stem
            try:
                entry = ManifestEntry.from_dict(
                    json.loads(manifest_path.read_text()))
            except (ValueError, KeyError):
                # The entry's objects are claimed by this (broken) key,
                # not orphans — rebuilt or removed with it on repair.
                referenced.update({f"{key}.json", f"{key}.npz"})
                if not repair:
                    report.unreadable_manifests.append(key)
                    continue
                rebuilt = self._rebuild_manifest(key)
                if rebuilt is not None:
                    report.rebuilt_manifests.append(key)
                else:
                    report.unreadable_manifests.append(key)
                    self.remove(key, None)
                continue
            referenced.add(entry.filename)
            object_path = self.objects_dir / entry.filename
            if not object_path.exists():
                report.missing_objects.append(key)
                if repair:
                    manifest_path.unlink(missing_ok=True)
                continue
            if self._verify_entry(entry):
                report.ok.append(key)
            else:
                report.corrupt.append(key)
                if repair:
                    self.quarantine(entry)
        orphans = self._orphans(referenced)
        if live:
            report.leased_orphans = [path.name for path in orphans]
        else:
            report.orphan_objects = [path.name for path in orphans
                                     if not repair
                                     or self._remove_orphan(path)]
        if live:
            report.stray_tmp = []
        else:
            report.stray_tmp = [str(path.relative_to(self.root))
                                for path in self._stray_tmp_files()]
            if repair:
                self.sweep_tmp()
        return report

    def gc(self, tmp_older_than_s: Optional[float] = None,
           purge_quarantine: bool = False,
           wait_s: Optional[float] = None,
           force: bool = False) -> Dict[str, Any]:
        """Sweep garbage: orphan objects, stray temp files, quarantine.

        Runs under the **exclusive** store lock with a bounded wait
        (raises :class:`LockTimeout` if writers keep the shared side
        busy past ``wait_s``), breaks stale writer leases (dead pid or
        expired heartbeat — logged in the returned summary), and then
        deletes orphan objects and stray temp files **only when no live
        foreign lease covers the store** — a live lease means a writer
        may be between its object and manifest writes, and its orphan
        is its in-flight work.  ``force=True`` overrides the lease
        protection (for operators who know the fleet is dead).  Each
        orphan is re-verified against the manifest immediately before
        deletion.

        ``tmp_older_than_s`` defaults to 0 with lease accounting active
        (liveness is explicit, no mtime guess needed) and to the legacy
        3600 s guard on a ``locking=False`` store.  Returns removal
        counts per category plus the broken/live lease names.
        """
        with self._store_lock(False, wait_s):
            broken, live = self._lease_scan(True, force)
            if tmp_older_than_s is None:
                tmp_older_than_s = 0.0 if self.locking else 3600.0
            orphans = self._orphans(self._protected_filenames())
            removed = (0 if live
                       else sum(map(self._remove_orphan, orphans)))
            swept = 0 if live else len(self.sweep_tmp(tmp_older_than_s))
            quarantined = 0
            if purge_quarantine and self.quarantine_dir.exists():
                for path in sorted(self.quarantine_dir.iterdir()):
                    try:
                        path.unlink()
                        quarantined += 1
                    except OSError:
                        pass
            if not live and self.locking:
                self._sweep_key_locks()
            return {"orphan_objects": removed, "stray_tmp": swept,
                    "quarantined": quarantined,
                    "skipped_leased": len(orphans) if live else 0,
                    "broken_leases": broken,
                    "live_leases": [lease.path.name for lease in live]}

    def _sweep_key_locks(self) -> None:
        """Remove per-key lock files (safe: we hold the exclusive lock).

        Writers acquire the store's shared side around every file
        mutation *after* taking their per-key lock, so while the
        exclusive lock is held no writer is inside a per-key critical
        section; deleting the lock files cannot split a mutex.  The
        store-level lock file itself is kept (we are holding it).
        """
        if not self.locks_dir.exists():
            return
        for path in self.locks_dir.glob("key.*.lock"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent sweep
                pass


class ArtifactStore(VerifiedStore):
    """The verified-object core over a local store directory.

    ``root`` is the directory path, or a ready :class:`DirectoryBackend`
    (the chaos harness passes a fault-hook one).  The directory's paths
    and maintenance passes are forwarded below.
    """

    def __init__(self, root: Union[PathLike, DirectoryBackend], *,
                 locking: bool = True):
        super().__init__(root if isinstance(root, DirectoryBackend)
                         else DirectoryBackend(root, locking=locking))

    # Bound in this body, not inherited: the benchmark tracer wraps the
    # entry points each store class defines itself.
    put_json = VerifiedStore.put_json
    put_arrays = VerifiedStore.put_arrays
    get_arrays = VerifiedStore.get_arrays
    load_json = VerifiedStore.load_json
    load_arrays = VerifiedStore.load_arrays

    objects_dir = backend_attribute("objects_dir")
    manifest_dir = backend_attribute("manifest_dir")
    quarantine_dir = backend_attribute("quarantine_dir")
    leases = backend_attribute("leases")
    fsck = backend_attribute("fsck")
    gc = backend_attribute("gc")
    sweep_tmp = backend_attribute("sweep_tmp")

    def spawn_config(self) -> "ArtifactStore":
        """A fresh store over the same directory, for a worker process."""
        return ArtifactStore(self.root, locking=self.backend.locking)

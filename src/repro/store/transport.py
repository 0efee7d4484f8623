"""Minimal blob transport under the remote artifact store.

A :class:`Transport` moves opaque byte payloads under string keys —
``get``/``put``/``list``/``delete`` plus an atomic ``commit`` (rename)
so :class:`~repro.store.remote.RemoteStore` can build object-store
semantics (upload to a tmp key, then commit) on any backend.  Keys are
slash-separated paths (``objects/<sha>.json``); payloads are bytes;
misses raise :class:`KeyError`; ``delete`` is idempotent.

:class:`LoopbackTransport` — a directory on the local filesystem —
ships here, so the whole remote-store stack is testable hermetically and
a shared NFS/SMB mount works as a real deployment target out of the
box.  Fault injection is a transport *decorator* that lives with the
test harness (:class:`repro.testing.FlakyTransport`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Union


class TransportConnectionError(ConnectionResetError):
    """The backend was unreachable (injected or real)."""


class TransportTimeout(TimeoutError):
    """The operation exceeded its time budget (injected or real)."""


class Transport:
    """The blob-transport interface.

    Implementations move bytes; everything content-addressed (digests,
    manifests, atomicity protocols) lives a layer up in
    :class:`~repro.store.remote.RemoteStore`.  ``timeout_s`` is a
    per-operation budget; backends that cannot enforce one may ignore
    it.
    """

    def get(self, key: str, *, timeout_s: Optional[float] = None) -> bytes:
        """The payload at ``key``; :class:`KeyError` on a miss."""
        raise NotImplementedError

    def put(self, key: str, data: bytes, *,
            timeout_s: Optional[float] = None) -> None:
        """Store ``data`` at ``key`` (creating parents as needed)."""
        raise NotImplementedError

    def list(self, prefix: str = "", *,
             timeout_s: Optional[float] = None) -> List[str]:
        """All keys under ``prefix``, sorted."""
        raise NotImplementedError

    def delete(self, key: str, *,
               timeout_s: Optional[float] = None) -> None:
        """Remove ``key``; silently succeeds when already absent."""
        raise NotImplementedError

    def commit(self, src_key: str, dst_key: str, *,
               timeout_s: Optional[float] = None) -> None:
        """Atomically rename ``src_key`` to ``dst_key`` (the second leg
        of an upload-then-commit atomic put)."""
        raise NotImplementedError

    def spawn_config(self) -> "Transport":
        """A fresh transport of the same configuration, for a worker
        process (no inherited state such as a fault clock)."""
        raise NotImplementedError


def _check_key(key: str) -> str:
    """Reject keys that could escape the transport's namespace."""
    if not key:
        raise ValueError("empty transport key")
    parts = key.split("/")
    for part in parts:
        if part in ("", ".", "..") or "\\" in part:
            raise ValueError(f"invalid transport key {key!r}")
    return key


class LoopbackTransport(Transport):
    """A directory as a blob backend.

    Puts are atomic at the file level (temp file + ``os.replace``) so
    even the *loopback* never exposes a half-written payload — the
    torn-payload failure mode is injected explicitly by
    :class:`FlakyTransport` instead of happening by accident.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root.joinpath(*_check_key(key).split("/"))

    def get(self, key: str, *, timeout_s: Optional[float] = None) -> bytes:
        path = self._path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def put(self, key: str, data: bytes, *,
            timeout_s: Optional[float] = None) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # open(), not mkstemp(): blobs get 0666 & ~umask, so hosts under
        # other uids sharing the mount can read them.
        tmp = path.with_name(path.name + f".tx-{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def list(self, prefix: str = "", *,
             timeout_s: Optional[float] = None) -> List[str]:
        base = self.root.joinpath(*prefix.split("/")) if prefix else self.root
        if not base.is_dir():
            return []
        keys = []
        for path in base.rglob("*"):
            if path.is_file() and not path.name.endswith(".tmp"):
                keys.append(path.relative_to(self.root).as_posix())
        return sorted(keys)

    def delete(self, key: str, *,
               timeout_s: Optional[float] = None) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass

    def commit(self, src_key: str, dst_key: str, *,
               timeout_s: Optional[float] = None) -> None:
        src, dst = self._path(src_key), self._path(dst_key)
        if not src.exists():
            raise KeyError(src_key)
        dst.parent.mkdir(parents=True, exist_ok=True)
        os.replace(src, dst)

    def spawn_config(self) -> "LoopbackTransport":
        return LoopbackTransport(self.root)
